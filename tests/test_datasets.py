"""Generator and CSV I/O tests, with independent statistical oracles."""

import tempfile
from pathlib import Path

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


FINITE = st.floats(allow_nan=False, allow_infinity=False)


@st.composite
def columnar_datasets(draw):
    """Columns with 1-4 covariates, some blank targets and ids anywhere in int64."""
    n = draw(st.integers(0, 12))
    p = draw(st.integers(1, 4))
    return GeoDataset(
        draw(st.lists(st.integers(-2 ** 63, 2 ** 63 - 1), min_size=n, max_size=n)),
        draw(arrays(np.float64, (n, 2), elements=FINITE)),
        draw(arrays(np.float64, (n, p), elements=FINITE)),
        draw(arrays(np.float64, n, elements=FINITE)),
        draw(arrays(np.bool_, n)),
        {"generator": "property"},
    )


class TestCsvRoundTripProperty:
    @settings(max_examples=60, deadline=None, database=None)
    @given(ds=columnar_datasets())
    def test_columns_survive_and_bytes_repeat(self, ds):
        with tempfile.TemporaryDirectory() as tmp:
            first, second = Path(tmp) / "a.csv", Path(tmp) / "b.csv"
            save_csv(ds, first)
            back = load_csv(first)
            np.testing.assert_array_equal(back.ids(), ds.ids())
            np.testing.assert_array_equal(back.coords(), ds.coords())
            np.testing.assert_array_equal(back.covariates(), ds.covariates())
            np.testing.assert_array_equal(back.observed, ds.observed)
            assert np.array_equal(back.targets(), ds.targets(), equal_nan=True)
            assert back.meta == ds.meta
            save_csv(back, second)
            assert second.read_bytes() == first.read_bytes()
