"""Generator and CSV I/O tests, with independent statistical oracles."""

import tempfile
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from geoagg.autodiff import ContractError
from geoagg.datasets import (
    CsvFormatError,
    GeoDataset,
    generate_gwr,
    generate_sl,
    gwr_beta1,
    gwr_beta2,
    load_csv,
    save_csv,
)
from geoagg.explain import GeoShapleyResult, write_explanations_csv
from geoagg.pipeline import (
    BenchRecord,
    EnsemblePrediction,
    write_bench_csv,
    write_loss_csv,
    write_predictions_csv,
)
from geoagg.spatial import PointRecord


def brute_force_row_standardised_w(coords, k=8):
    """Independent 8-NN weight matrix via a full distance sort."""
    n = len(coords)
    d2 = ((coords[:, None, :] - coords[None, :, :]) ** 2).sum(axis=2)
    w = np.zeros((n, n))
    for i in range(n):
        order = sorted(range(n), key=lambda j: (d2[i, j], j))
        neigh = [j for j in order if j != i][:k]
        w[i, neigh] = 1.0 / k
    return w


def morans_i(y, w):
    """Global spatial autocorrelation: (n / sum(W)) * (z W z) / (z z)."""
    z = y - y.mean()
    return len(y) / w.sum() * float(z @ w @ z) / float(z @ z)


class TestGwrGenerator:
    def test_beta1_ramp_endpoints(self):
        assert gwr_beta1(0.0, 0.0) == 0.0
        assert gwr_beta1(1.0, 1.0) == 3.0

    def test_beta2_peak_at_center(self):
        assert gwr_beta2(0.5, 0.5) == 3.0

    def test_grid_layout_2500(self):
        ds = generate_gwr(2500, 42)
        assert ds.n == 2500
        us = np.unique(ds.coords()[:, 0])
        assert len(us) == 50
        np.testing.assert_allclose(us, (np.arange(50) + 0.5) / 50)

    def test_non_square_n_rejected(self):
        with pytest.raises(ContractError, match="square"):
            generate_gwr(2501, 42)

    def test_deterministic_for_seed(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        save_csv(generate_gwr(400, 7), a)
        save_csv(generate_gwr(400, 7), b)
        assert a.read_bytes() == b.read_bytes()

    def test_target_matches_surfaces_plus_noise(self):
        """Reconstruct y from the documented draw order (x first, then noise)."""
        ds = generate_gwr(400, 11)
        rng = np.random.default_rng(11)
        x = rng.standard_normal((400, 2))
        eps = 0.25 * rng.standard_normal(400)
        c = ds.coords()
        want = gwr_beta1(c[:, 0], c[:, 1]) * x[:, 0] + gwr_beta2(c[:, 0], c[:, 1]) * x[:, 1] + eps
        np.testing.assert_allclose(ds.targets(), want, atol=1e-12)

    def test_heterogeneity_is_material(self):
        """Global OLS must trail the true-coefficient oracle by >= 0.1 R^2."""
        for seed in (42, 7):
            ds = generate_gwr(2500, seed)
            x, y, c = ds.covariates(), ds.targets(), ds.coords()
            design = np.c_[x, np.ones(ds.n)]
            coef, *_ = np.linalg.lstsq(design, y, rcond=None)
            sst = ((y - y.mean()) ** 2).sum()
            r2_ols = 1.0 - ((design @ coef - y) ** 2).sum() / sst
            oracle = gwr_beta1(c[:, 0], c[:, 1]) * x[:, 0] + gwr_beta2(c[:, 0], c[:, 1]) * x[:, 1]
            r2_true = 1.0 - ((oracle - y) ** 2).sum() / sst
            assert r2_true - r2_ols >= 0.1


class TestSlGenerator:
    def test_rho_zero_is_plain_regression(self):
        ds = generate_sl(400, 3, rho=0.0)
        rng = np.random.default_rng(3)
        rng.random((400, 2))
        x = rng.standard_normal((400, 2))
        eps = 0.5 * rng.standard_normal(400)
        np.testing.assert_allclose(ds.targets(), x @ np.array([2.0, 3.0]) + eps, atol=1e-12)

    def test_rho_bounds_enforced(self):
        with pytest.raises(ContractError, match="rho"):
            generate_sl(400, 0, rho=1.0)

    def test_deterministic_csv_bytes(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        save_csv(generate_sl(196, 5, 0.5), a)
        save_csv(generate_sl(196, 5, 0.5), b)
        assert a.read_bytes() == b.read_bytes()

    def test_lag_raises_autocorrelation_above_noise(self):
        ds = generate_sl(2500, 13, rho=0.6)
        rng = np.random.default_rng(13)
        coords = rng.random((2500, 2))
        rng.standard_normal((2500, 2))
        eps = 0.5 * rng.standard_normal(2500)
        w = brute_force_row_standardised_w(coords)
        i_y = morans_i(ds.targets(), w)
        i_eps = morans_i(eps, w)
        assert i_y > 0
        assert i_y > i_eps

    def test_morans_i_increases_with_rho(self):
        """3-seed average of Moran's I is monotone over rho in {0, 0.3, 0.6}."""
        avgs = []
        for rho in (0.0, 0.3, 0.6):
            vals = []
            for seed in (0, 1, 2):
                ds = generate_sl(400, seed, rho)
                w = brute_force_row_standardised_w(ds.coords())
                vals.append(morans_i(ds.targets(), w))
            avgs.append(np.mean(vals))
        assert avgs[0] < avgs[1] < avgs[2]


class TestCsvRoundTrip:
    def test_save_load_identity(self, tmp_path):
        ds = generate_gwr(121, 9)
        path = tmp_path / "ds.csv"
        save_csv(ds, path)
        back = load_csv(path)
        assert back.n == ds.n and back.p == ds.p
        for a, b in zip(ds.points, back.points):
            assert a.id == b.id and a.u == b.u and a.v == b.v and a.y == b.y
            np.testing.assert_array_equal(a.x, b.x)
        assert back.meta == ds.meta

    def test_missing_u_column_named(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("id,v,x1,y\n0,0.5,1.0,2.0\n")
        with pytest.raises(CsvFormatError, match="'u'"):
            load_csv(path)

    def test_extra_covariates_infer_p(self, tmp_path):
        path = tmp_path / "wide.csv"
        header = "id,u,v,x1,x2,x3,x4,x5,y"
        path.write_text(header + "\n0,0.1,0.2,1,2,3,4,5,9\n1,0.3,0.4,5,4,3,2,1,8\n")
        ds = load_csv(path)
        assert ds.p == 5
        np.testing.assert_array_equal(ds.points[1].x, [5, 4, 3, 2, 1])

    def test_non_numeric_cell_reports_row_and_column(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("id,u,v,x1,y\n0,0.5,0.5,oops,2.0\n")
        with pytest.raises(CsvFormatError, match="line 2.*'x1'"):
            load_csv(path)

    def test_id_outside_int64_reports_row_and_column(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("id,u,v,x1,y\n0,0.5,0.5,1.0,2.0\n99999999999999999999,0.1,0.2,1.0,2.0\n")
        with pytest.raises(CsvFormatError, match="line 3, column 'id'") as exc:
            load_csv(path)
        assert len(str(exc.value).splitlines()) == 1

    def test_query_file_without_y(self, tmp_path):
        path = tmp_path / "queries.csv"
        path.write_text("id,u,v,x1,x2\n7,0.1,0.9,1.5,-2.5\n")
        ds = load_csv(path)
        assert ds.points[0].y is None
        assert ds.p == 2

    def test_full_precision_round_trip(self, tmp_path):
        pts = [PointRecord(0, 1 / 3, 2 / 3, np.array([np.pi, np.e]), 1e-17),
               PointRecord(1, 0.1, 0.2, np.array([-1.5, 7.25]), -3.125)]
        path = tmp_path / "tiny.csv"
        save_csv(GeoDataset.from_records(pts), path)
        back = load_csv(path)
        assert back.points[0].u == 1 / 3
        assert back.points[0].y == 1e-17
        np.testing.assert_array_equal(back.points[0].x, [np.pi, np.e])


# ---------------------------------------------------------------------------
# Row-at-a-time reference writers and reader.  The columnar CSV path must
# give their bytes, values and error messages exactly.
# ---------------------------------------------------------------------------


def _fmt(x):
    return f"{x:.17g}"


def reference_dataset_csv(ds) -> str:
    header = ["id", "u", "v"] + [f"x{j + 1}" for j in range(ds.p)] + ["y"]
    lines = [",".join(header)]
    for pid, (u, v), x, y, seen in zip(ds.ids().tolist(), ds.coords().tolist(),
                                       ds.covariates().tolist(), ds.targets().tolist(),
                                       ds.observed.tolist()):
        cells = [str(pid), _fmt(u), _fmt(v)] + [_fmt(val) for val in x]
        cells.append(_fmt(y) if seen else "")
        lines.append(",".join(cells))
    return "\n".join(lines) + "\n"


def reference_predictions_csv(pred) -> str:
    lines = ["id,y_mean,y_std"]
    for pid, mean, std in zip(pred.ids, pred.mean, pred.std):
        lines.append(f"{pid},{_fmt(mean)},{_fmt(std)}")
    return "\n".join(lines) + "\n"


def reference_loss_csv(history) -> str:
    lines = ["epoch,mse"] + [f"{epoch},{_fmt(mse)}" for epoch, mse in enumerate(history)]
    return "\n".join(lines) + "\n"


def reference_bench_csv(records) -> str:
    lines = ["length,mode,seconds"]
    lines += [f"{rec.length},{rec.mode},{_fmt(rec.seconds)}" for rec in records]
    pre = sum(r.seconds for r in records if r.mode == "precomputed")
    fly = sum(r.seconds for r in records if r.mode == "on_the_fly")
    if pre > 0 and fly > 0:
        lines.append(f"all,ratio,{_fmt(pre / fly)}")
    return "\n".join(lines) + "\n"


def reference_explanations_csv(result, beta) -> str:
    p = result.phi.shape[1]
    header = ["id", "phi0", "phi_geo"] + [f"phi_x{j + 1}" for j in range(p)]
    header += [f"phi_geo_x{j + 1}" for j in range(p)]
    if beta is not None:
        header += [f"beta_hat_x{j + 1}" for j in range(p)]
    fmt = lambda v: "" if not np.isfinite(v) else _fmt(v)  # noqa: E731
    lines = [",".join(header)]
    for i, pid in enumerate(result.ids):
        cells = [str(int(pid)), fmt(result.phi0), fmt(result.phi_geo[i])]
        cells += [fmt(v) for v in result.phi[i]] + [fmt(v) for v in result.phi_geo_x[i]]
        if beta is not None:
            cells += [fmt(v) for v in beta[i]]
        lines.append(",".join(cells))
    return "\n".join(lines) + "\n"


def reference_load(path):
    """Columns read one line at a time, or the CsvFormatError message."""
    lines = [(lineno, ln) for lineno, ln in
             enumerate(Path(path).read_text(encoding="utf-8").splitlines(), start=1)
             if ln.strip()]
    header = [h.strip() for h in lines[0][1].split(",")]
    has_y = header[-1] == "y"
    p = len(header) - 3 - has_y
    ids, coords, xs, ys = [], [], [], []
    for lineno, line in lines[1:]:
        cells = line.split(",")
        if len(cells) != len(header):
            return f"{path}: line {lineno}: expected {len(header)} cells, found {len(cells)}"
        row = []
        for col, caster in enumerate([np.int64] + [float] * (2 + p + has_y)):
            if col == 3 + p and not cells[col].strip():
                row.append(None)
                continue
            try:
                row.append(caster(cells[col].strip()))
            except (ValueError, OverflowError):
                return (f"{path}: line {lineno}, column '{header[col]}': "
                        f"could not parse {cells[col]!r}")
        ids.append(row[0])
        coords.append(row[1:3])
        xs.append(row[3:3 + p])
        ys.append(row[3 + p] if has_y else None)
    observed = np.array([y is not None for y in ys], dtype=bool)
    return SimpleNamespace(
        ids=np.array(ids, dtype=np.int64), coords=np.array(coords).reshape(len(ids), 2),
        x=np.array(xs).reshape(len(ids), p), observed=observed,
        y=np.where(observed, np.array([np.nan if y is None else y for y in ys]), np.nan))


def assert_same_columns(ds, ref):
    """Equal bytes column by column, so -0.0 and NaN payloads count too."""
    for got, want in [(ds.ids(), ref.ids), (ds.coords(), ref.coords),
                      (ds.covariates(), ref.x), (ds.targets(), ref.y),
                      (ds.observed, ref.observed)]:
        assert got.dtype == want.dtype and got.shape == want.shape
        assert got.tobytes() == want.tobytes()


def edge_dataset(observed):
    """Ids near both int64 ends, -0.0, subnormals, extremes and NaN/inf cells."""
    ids = [2 ** 63 - 1, -2 ** 63, 2 ** 53 + 1, 0, -1]
    coords = [[-0.0, 5e-324], [1 / 3, -2.2250738585072014e-308], [1e308, -1e-300],
              [0.1, 0.2], [np.nan, np.inf]]
    x = [[np.pi, -0.0], [np.e, 1e-320], [-np.inf, 123456789012345678.0], [1e22, 1e-7],
         [7.0, np.nan]]
    y = [1e-17, -0.0, 4.9406564584124654e-324, np.nan, 2.5]
    return GeoDataset(ids, coords, x, y, observed, {"generator": "edge"})


class TestColumnarBytes:
    @pytest.mark.parametrize("make", [
        lambda: generate_gwr(400, 3),
        lambda: generate_sl(400, 4, 0.5),
        lambda: edge_dataset([True] * 5),
        lambda: edge_dataset([True, False, True, False, False]),
        lambda: edge_dataset([False] * 5),
        lambda: generate_gwr(100, 5).take(np.arange(0)),
    ], ids=["gwr", "sl", "edge-observed", "edge-mixed", "edge-unobserved", "empty"])
    def test_dataset_file_matches_row_writer_and_reads_back(self, tmp_path, make):
        ds = make()
        path = tmp_path / "ds.csv"
        save_csv(ds, path)
        assert path.read_bytes() == reference_dataset_csv(ds).encode()
        assert_same_columns(load_csv(path), reference_load(path))

    def test_result_files_match_row_writers(self, tmp_path):
        special = np.array([np.nan, np.inf, -np.inf, -0.0, 5e-324, 1 / 3, 1e22])
        ids = np.array([2 ** 63 - 1, -2 ** 63, 0, 7, -3, 12, 2 ** 53 + 1])
        pred = EnsemblePrediction(ids=ids, mean=special, std=special[::-1].copy(), members=8)
        history = [1.5, 0.1, np.float64(np.nan), 1e-300]
        bench = [BenchRecord(16, "on_the_fly", 2.0, 30), BenchRecord(16, "precomputed", 1 / 3, 10),
                 BenchRecord(128, "on_the_fly", 1e-9, 5)]
        result = GeoShapleyResult(ids=ids, phi0=np.inf, phi_geo=special,
                                  phi=np.c_[special, special[::-1]],
                                  phi_geo_x=np.c_[-special, special * 3])
        beta = np.c_[special[::-1], special]
        cases = [
            (write_predictions_csv, (pred,), reference_predictions_csv(pred)),
            (write_loss_csv, (history,), reference_loss_csv(history)),
            (write_loss_csv, ([],), reference_loss_csv([])),
            (write_bench_csv, (bench,), reference_bench_csv(bench)),
            (write_bench_csv, (bench[:1],), reference_bench_csv(bench[:1])),
            (write_explanations_csv, (result, beta), reference_explanations_csv(result, beta)),
            (write_explanations_csv, (result, None), reference_explanations_csv(result, None)),
        ]
        for k, (writer, args, want) in enumerate(cases):
            path = tmp_path / f"out{k}.csv"
            writer(path, *args)
            assert path.read_text(encoding="utf-8") == want, writer.__name__


GOOD = "0,0.5,0.25,1.0,2.0,3.0"
HEAD = "id,u,v,x1,x2,y"


def with_cell(col, cell, line=GOOD):
    cells = line.split(",")
    cells[col] = cell
    return ",".join(cells)


class TestColumnarErrors:
    """Each file gets the row-at-a-time reader's message, pinned here."""

    @pytest.mark.parametrize("text, message", [
        (f"{HEAD}\n{GOOD}\n{with_cell(0, 'a7')}\n", "line 3, column 'id': could not parse 'a7'"),
        (f"{HEAD}\n{with_cell(1, 'oops')}\n", "line 2, column 'u': could not parse 'oops'"),
        (f"{HEAD}\n{with_cell(2, '0.5.5')}\n", "line 2, column 'v': could not parse '0.5.5'"),
        (f"{HEAD}\n{with_cell(3, '')}\n", "line 2, column 'x1': could not parse ''"),
        (f"{HEAD}\n{with_cell(4, '1e')}\n", "line 2, column 'x2': could not parse '1e'"),
        (f"{HEAD}\n{with_cell(5, '1.2.3')}\n", "line 2, column 'y': could not parse '1.2.3'"),
        ("id,u,v,x1\n0,0.5,0.25,zz\n", "line 2, column 'x1': could not parse 'zz'"),
        (f"{HEAD}\n{with_cell(0, '1.0')}\n", "line 2, column 'id': could not parse '1.0'"),
        (f"{HEAD}\n{with_cell(0, '9223372036854775808')}\n",
         "line 2, column 'id': could not parse '9223372036854775808'"),
        (f"{HEAD}\n{with_cell(0, '-9223372036854775809')}\n",
         "line 2, column 'id': could not parse '-9223372036854775809'"),
        (f"{HEAD}\n{GOOD}\n0,0.5,0.25,1.0,2.0\n", "line 3: expected 6 cells, found 5"),
        (f"{HEAD}\n{GOOD},7\n", "line 2: expected 6 cells, found 7"),
        ("id,u,v,x1\n0,0.5,0.25,1.0,\n", "line 2: expected 4 cells, found 5"),
        (f"{HEAD}\n{with_cell(3, 'x')}\n0,1\n", "line 2, column 'x1': could not parse 'x'"),
        (f"{HEAD}\n0,1\n{with_cell(3, 'x')}\n", "line 2: expected 6 cells, found 2"),
        (f"{HEAD}\n{with_cell(4, 'b', with_cell(1, 'a'))}\n",
         "line 2, column 'u': could not parse 'a'"),
        (f"{HEAD}\n\n{GOOD}\n   \n\n{with_cell(2, '?')}\n",
         "line 6, column 'v': could not parse '?'"),
        (f"\n \n{HEAD}\n{GOOD}\n\n0,1\n", "line 6: expected 6 cells, found 2"),
        (f"{HEAD}\r\n{GOOD}\r\n{with_cell(1, 'u?')}\r\n",
         "line 3, column 'u': could not parse 'u?'"),
        (f"{HEAD}\n{with_cell(3, ' 1 2 ')}\n", "line 2, column 'x1': could not parse ' 1 2 '"),
        ("", "empty file"),
        (" \n\t\n", "empty file"),
        ("id,u,x1,y\n0,0.5,1.0,2.0\n", "expected column 'v', found 'x1'"),
    ], ids=["id", "u", "v", "x1", "x2", "y", "x1-no-y", "float-id", "id-above-int64",
            "id-below-int64", "too-few", "too-many", "y-cell-without-y-column",
            "cell-before-count", "count-before-cell", "first-column", "blank-lines",
            "blank-lines-before-header", "crlf", "whitespace", "empty", "whitespace-only", "header"])
    def test_message(self, tmp_path, text, message):
        path = tmp_path / "bad.csv"
        path.write_text(text, encoding="utf-8", newline="")
        with pytest.raises(CsvFormatError) as exc:
            load_csv(path)
        assert str(exc.value) == f"{path}: {message}"
        if "line" in message:
            assert reference_load(path) == str(exc.value)

    @pytest.mark.parametrize("text", [
        f"{HEAD}\n",
        "id,u,v,x1\n",
        f"\n{HEAD}\n\n{GOOD}\n  \n1,0.1,0.2,0.3,0.4,0.5\n\n",
        f"{HEAD}\r\n{GOOD}\r\n1,0.1,0.2,0.3,0.4,\r\n",
        " id , u ,v,x1,x2, y \n 5 , 0.5 ,\t0.25,1.0 ,2.0,  \n6,1,2,3,4, 7.5 \n",
        f"{HEAD}\n9223372036854775807,0,0,0,0,0\n-9223372036854775808,1,1,1,1,1\n",
        f"{HEAD}\n0,nan,inf,-inf,NaN,-Infinity\n",
        f"{HEAD}\n1_0,+.5,1e-400,\u0661,-0,1E+3\n",
        "id,u,v,y\n0,0.5,0.5,1\n1,0.5,0.5,\n",
        "id,u,v,x1,x2\n3,0.1,0.2,0.3,0.4\n",
        f"{HEAD}\n0,1,2,3,4,\n1,1,2,3,4,\u2003\n",
    ], ids=["header-only", "header-only-no-y", "blank-lines", "crlf", "whitespace",
            "int64-extremes", "non-finite", "python-spellings", "no-covariates", "no-y",
            "all-y-blank"])
    def test_accepted_file_reads_as_row_reader(self, tmp_path, text):
        path = tmp_path / "ok.csv"
        path.write_text(text, encoding="utf-8", newline="")
        assert_same_columns(load_csv(path), reference_load(path))

    def test_sidecar_must_hold_an_object(self, tmp_path):
        path = tmp_path / "ds.csv"
        save_csv(generate_gwr(100, 1), path)
        sidecar = tmp_path / "ds.csv.meta.json"
        sidecar.write_text("[1]")
        with pytest.raises(CsvFormatError) as exc:
            load_csv(path)
        assert str(exc.value) == f"{sidecar}: must hold a JSON object, found list"

    def test_non_utf8_file_is_named(self, tmp_path):
        path = tmp_path / "latin1.csv"
        path.write_bytes(f"{HEAD}\n0,0.5,0.25,1.0,2.0,3.0\n".encode() + b"# caf\xe9\n")
        with pytest.raises(CsvFormatError) as exc:
            load_csv(path)
        assert str(exc.value) == f"{path}: not UTF-8 text (invalid continuation byte at byte 43)"


CELLS = st.sampled_from(["0", "1", "-7", " 3 ", "0.5", "-0", "1e-320", "nan", "-inf", "1_0",
                         "", " ", "x", "1.0", "9223372036854775808", "2.5e3", "\u0663"])


@st.composite
def csv_texts(draw):
    """Dataset files of small cells, most well formed, some ragged or with blank lines."""
    p = draw(st.integers(0, 2))
    has_y = draw(st.booleans())
    header = ["id", "u", "v"] + [f"x{j + 1}" for j in range(p)] + ["y"] * has_y
    width = len(header)
    lines = [",".join(header)]
    for _ in range(draw(st.integers(0, 5))):
        if draw(st.integers(0, 9)) == 0:
            lines.append(draw(st.sampled_from(["", "  "])))
            continue
        n_cells = width + draw(st.sampled_from([0] * 8 + [-1, 1]))
        lines.append(",".join(draw(st.lists(CELLS, min_size=n_cells, max_size=n_cells))))
    return draw(st.sampled_from(["\n", "\r\n"])).join(lines) + "\n"


class TestColumnarProperty:
    @settings(max_examples=300, deadline=None, database=None)
    @given(text=csv_texts())
    def test_reader_agrees_with_row_reader(self, text):
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "f.csv"
            path.write_text(text, encoding="utf-8", newline="")
            want = reference_load(path)
            if isinstance(want, str):
                with pytest.raises(CsvFormatError) as exc:
                    load_csv(path)
                assert str(exc.value) == want
            else:
                assert_same_columns(load_csv(path), want)


FINITE = st.floats(allow_nan=False, allow_infinity=False)
ANY_FLOAT = st.floats()


@st.composite
def columnar_datasets(draw):
    """Columns with 1-4 covariates, ids anywhere in int64 and targets that are
    all observed, all unobserved or a mix (an unobserved target may be any float)."""
    n = draw(st.integers(0, 12))
    p = draw(st.integers(1, 4))
    observed = draw(st.sampled_from([np.ones(n, dtype=bool), np.zeros(n, dtype=bool)])
                    | arrays(np.bool_, n))
    y = draw(arrays(np.float64, n, elements=ANY_FLOAT))
    y[observed & ~np.isfinite(y)] = 0.0
    return GeoDataset(
        draw(st.lists(st.integers(-2 ** 63, 2 ** 63 - 1), min_size=n, max_size=n)),
        draw(arrays(np.float64, (n, 2), elements=FINITE)),
        draw(arrays(np.float64, (n, p), elements=FINITE)),
        y,
        observed,
        {"generator": "property"},
    )


class TestCsvRoundTripProperty:
    @settings(max_examples=60, deadline=None, database=None)
    @given(ds=columnar_datasets())
    def test_columns_survive_and_bytes_repeat(self, ds):
        with tempfile.TemporaryDirectory() as tmp:
            first, second = Path(tmp) / "a.csv", Path(tmp) / "b.csv"
            save_csv(ds, first)
            assert first.read_bytes() == reference_dataset_csv(ds).encode()
            back = load_csv(first)
            np.testing.assert_array_equal(back.ids(), ds.ids())
            np.testing.assert_array_equal(back.coords(), ds.coords())
            np.testing.assert_array_equal(back.covariates(), ds.covariates())
            np.testing.assert_array_equal(back.observed, ds.observed)
            assert np.array_equal(back.targets(), ds.targets(), equal_nan=True)
            assert back.meta == ds.meta
            save_csv(back, second)
            assert second.read_bytes() == first.read_bytes()
