"""Acceptance suite: every shipped claim, one test per criterion.

Runs the full desk-scale experiment battery (training six 30-epoch models on
2,500-point datasets, benchmarking, and explaining), so expect on the order of
15 to 25 minutes of CPU.  Each criterion prints a single PASS/FAIL line on the
live console (bypassing capture) in addition to its pytest verdict.
"""

import json
import time

import numpy as np
import pytest

from geoagg import autodiff as ad
from geoagg.autodiff import Tape, grad_check
from geoagg.cli import main as cli_main
from geoagg.datasets import generate_gwr, generate_sl, gwr_beta1, gwr_beta2
from geoagg.explain import (
    RowBatch,
    coalition_values,
    geoshapley_explain,
    local_coefficients,
    make_shap_predictor,
    shapley_exact,
)
from geoagg.kdtree import KdTree
from geoagg.model import (
    ModelConfig,
    bind_params,
    forward_batch,
    forward_on_tape,
    init_params,
)
from geoagg.pipeline import (
    TrainConfig,
    benchmark_inference,
    evaluate,
    predict_ensemble,
    split_dataset,
    train,
)
from geoagg.spatial import ContextPool, PointRecord, QueryPool

pytestmark = pytest.mark.acceptance

SEEDS = (0, 1, 2)
EPOCHS = 30
N_POINTS = 2500


def sequence_arrays(records):
    """``(feats, coords)`` of a target-first record list, as assembled."""
    feats = np.array([np.append(r.x, r.y) for r in records])
    feats[0, -1] = 0.0
    return feats, np.array([[r.u, r.v] for r in records])


def report(capsys, criterion, ok, detail):
    with capsys.disabled():
        print(f"\nACCEPTANCE {criterion} {'PASS' if ok else 'FAIL'}: {detail}")


@pytest.fixture(scope="session")
def datasets():
    return {"gwr": generate_gwr(N_POINTS, 42), "sl": generate_sl(N_POINTS, 7, 0.6)}


@pytest.fixture(scope="session")
def trained_models(datasets):
    """Six 30-epoch runs (two datasets, three seeds); reused across criteria."""
    out = {"train_seconds": 0.0}
    for name, ds in datasets.items():
        for seed in SEEDS:
            t0 = time.perf_counter()
            train_ds, test_ds = split_dataset(ds, 0.7, seed)
            params, history = train(train_ds, ModelConfig(),
                                    TrainConfig(epochs=EPOCHS, seed=seed))
            out["train_seconds"] += time.perf_counter() - t0
            out[(name, seed)] = {
                "params": params,
                "train": train_ds,
                "test": test_ds,
                "history": history,
            }
    return out


@pytest.fixture(scope="session")
def ensemble_metrics(trained_models):
    """Test-split metrics for one and eight ensemble members, per run."""
    metrics = {"predict_seconds": 0.0}
    for key, run in trained_models.items():
        if not isinstance(key, tuple):
            continue
        t0 = time.perf_counter()
        queries = QueryPool(run["test"].points)
        context = ContextPool(run["train"].points)
        truth = run["test"].targets()
        per_m = {}
        for members in (1, 8):
            pred = predict_ensemble(run["params"], ModelConfig(), queries, context,
                                    members, 1.25, 100)
            per_m[members] = evaluate(pred.mean, truth)
        metrics[key] = per_m
        metrics["predict_seconds"] += time.perf_counter() - t0
    return metrics


@pytest.fixture(scope="session")
def bench_records(trained_models):
    """Both cache modes over the standard length sweep on the spatial-lag run.

    The sweep runs three times; each (mode, length) keeps its fastest
    sample, so one slow stretch of a shared machine does not decide a ratio.
    """
    run = trained_models[("sl", 0)]
    queries = QueryPool(run["test"].points)
    context = ContextPool(run["train"].points)
    best = {}
    for _ in range(3):
        for rec in benchmark_inference(
            run["params"], ModelConfig(), queries, context,
            [16, 32, 64, 128], members=8, expansion=1.25, seed=0,
        ):
            key = (rec.mode, rec.length)
            if key not in best or rec.seconds < best[key].seconds:
                best[key] = rec
    return {mode: [best[(mode, length)] for length in (16, 32, 64, 128)]
            for mode in ("on_the_fly", "precomputed")}


def test_criterion_1_full_model_gradients(capsys):
    """Analytic vs central-difference gradients through the whole model."""
    t0 = time.perf_counter()
    config = ModelConfig(d_model=8, n_heads=2, n_inducing=2, l_max=8, n_layers=1)
    rng = np.random.default_rng(0)
    params = init_params(config, 2, rng)
    for name, arr in params.arrays.items():
        if not arr.any():
            params.arrays[name] = rng.normal(0.0, 0.3, size=arr.shape)
    seq = sequence_arrays([PointRecord(i, float(rng.random()), float(rng.random()),
                                       rng.normal(size=2), float(rng.normal()))
                           for i in range(8)])
    y = np.array([[0.654]])

    worst = 0.0
    for name in params.arrays:
        def f(v, _name=name):
            tape = v.tape
            bound = bind_params(tape, params)
            bound.vars[_name] = v
            out, _ = forward_on_tape(tape, bound, seq, config)
            r = ad.sub(out, y)
            return ad.mul(r, r)

        worst = max(worst, grad_check(f, params.arrays[name]))
    elapsed = time.perf_counter() - t0
    ok = worst < 1e-4 and elapsed < 30.0
    report(capsys, 1, ok, f"max rel err {worst:.2e} (< 1e-4), {elapsed:.1f}s (< 30s)")
    assert worst < 1e-4
    assert elapsed < 30.0


def test_criterion_2_bias_mode_reductions(capsys):
    """Per-head mode with equal factors == legacy mode; zero factors == plain."""
    per_head_cfg = ModelConfig(d_model=8, n_heads=2, n_inducing=2, l_max=12, n_layers=1)
    legacy_cfg = ModelConfig(d_model=8, n_heads=2, n_inducing=2, l_max=12, n_layers=1,
                             legacy_single_abf=True)
    rng = np.random.default_rng(1)
    params = init_params(per_head_cfg, 2, rng)
    for name, arr in params.arrays.items():
        if not arr.any():
            params.arrays[name] = rng.normal(0.0, 0.3, size=arr.shape)
    params.arrays["agg.lam_raw"] = np.full((2, 1), 0.7313)
    legacy_params = params.copy()
    legacy_params.arrays["agg.lam_raw"] = np.full((1, 1), 0.7313)
    feats, coords = sequence_arrays([PointRecord(i, float(rng.random()), float(rng.random()),
                                                 rng.normal(size=2), float(rng.normal()))
                                     for i in range(12)])
    a = forward_batch(feats[None], coords[None], params, per_head_cfg)[0]
    b = forward_batch(feats[None], coords[None], legacy_params, legacy_cfg)[0]
    mode_gap = abs(a - b)

    q = rng.normal(size=(3, 8))
    k = rng.normal(size=(6, 8))
    v = rng.normal(size=(6, 8))
    d2 = np.abs(rng.normal(size=(3, 6)))
    tape = Tape()
    biased, _ = ad.multihead_attention(tape.slot(q), tape.slot(k), tape.slot(v), 2,
                                       lam=tape.slot(np.zeros((2, 1))), sq_dist=d2)
    hd = 4
    qh = q.reshape(3, 2, hd)
    kh = k.reshape(6, 2, hd)
    vh = v.reshape(6, 2, hd)
    logits = np.einsum("qhd,khd->hqk", qh, kh) / np.sqrt(hd)
    e = np.exp(logits - logits.max(axis=-1, keepdims=True))
    alpha = e / e.sum(axis=-1, keepdims=True)
    plain = np.einsum("hqk,khd->qhd", alpha, vh).reshape(3, 8)
    zero_gap = np.abs(biased.value - plain).max()

    ok = mode_gap < 1e-12 and zero_gap < 1e-12
    report(capsys, 2, ok,
           f"legacy vs per-head gap {mode_gap:.2e}, zero-bias gap {zero_gap:.2e} (< 1e-12)")
    assert mode_gap < 1e-12
    assert zero_gap < 1e-12


def test_criterion_3_tree_equals_brute_force(capsys):
    """50 randomized pools and k values, exact id and distance agreement."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(2)
    for trial in range(50):
        n = int(rng.integers(2, 1001))
        coords = rng.random((n, 2))
        if trial % 4 == 0:
            coords = np.round(coords, 2)
        ids = rng.permutation(n)
        tree = KdTree(coords, ids)
        k = int(rng.integers(1, 17))
        query = rng.random(2)
        got = tree.knn(query, k)
        d2 = ((coords - query) ** 2).sum(axis=1)
        order = sorted(range(n), key=lambda i: (d2[i], ids[i]))[: min(k, n)]
        want = [(int(ids[i]), float(d2[i])) for i in order]
        assert got == want, f"trial {trial}"
    elapsed = time.perf_counter() - t0
    ok = elapsed < 10.0
    report(capsys, 3, ok, f"50/50 exact matches in {elapsed:.1f}s (< 10s)")
    assert elapsed < 10.0


def test_criterion_4_ensembling_trend(capsys, trained_models, ensemble_metrics):
    """More ensemble members must not hurt: MAE down, R2 held, per dataset."""
    details = []
    ok = True
    for name in ("gwr", "sl"):
        mae1 = np.mean([ensemble_metrics[(name, s)][1].mae for s in SEEDS])
        mae8 = np.mean([ensemble_metrics[(name, s)][8].mae for s in SEEDS])
        r21 = np.mean([ensemble_metrics[(name, s)][1].r2 for s in SEEDS])
        r28 = np.mean([ensemble_metrics[(name, s)][8].r2 for s in SEEDS])
        ok &= mae8 <= mae1 and r28 >= r21 - 0.005
        details.append(f"{name}: MAE {mae1:.4f}->{mae8:.4f}, R2 {r21:.4f}->{r28:.4f}")
    runtime = trained_models["train_seconds"] + ensemble_metrics["predict_seconds"]
    ok = ok and runtime < 1800
    report(capsys, 4, ok, "; ".join(details) + f"; runtime {runtime / 60:.1f} min (< 30)")
    for name in ("gwr", "sl"):
        mae1 = np.mean([ensemble_metrics[(name, s)][1].mae for s in SEEDS])
        mae8 = np.mean([ensemble_metrics[(name, s)][8].mae for s in SEEDS])
        r21 = np.mean([ensemble_metrics[(name, s)][1].r2 for s in SEEDS])
        r28 = np.mean([ensemble_metrics[(name, s)][8].r2 for s in SEEDS])
        assert mae8 <= mae1, name
        assert r28 >= r21 - 0.005, name
    assert runtime < 1800


def test_criterion_5_cache_speedup(capsys, bench_records):
    """Precomputed neighbourhoods beat live queries at every length."""
    fly = {r.length: r for r in bench_records["on_the_fly"]}
    pre = {r.length: r for r in bench_records["precomputed"]}
    ratios = {length: pre[length].seconds / fly[length].seconds for length in fly}
    counters_ok = all(r.tree_queries == 750 for r in pre.values()) and all(
        r.tree_queries == 6000 for r in fly.values()
    )
    ok = counters_ok and all(ratio <= 0.8 for ratio in ratios.values())
    detail = ", ".join(f"L={length}: {ratio:.2f}" for length, ratio in sorted(ratios.items()))
    report(capsys, 5, ok, f"time ratios {detail} (<= 0.8); counters 750 vs 6000: {counters_ok}")
    assert counters_ok
    for length, ratio in ratios.items():
        assert ratio <= 0.8, f"L={length}: ratio {ratio:.3f}"


def test_criterion_6_linear_time_scaling(capsys, bench_records):
    """Precomputed-mode inference time grows linearly with sequence length."""
    lengths = np.array([r.length for r in bench_records["precomputed"]], dtype=float)
    times = np.array([r.seconds for r in bench_records["precomputed"]])
    slope, intercept = np.polyfit(lengths, times, 1)
    fitted = slope * lengths + intercept
    r2 = 1.0 - ((times - fitted) ** 2).sum() / ((times - times.mean()) ** 2).sum()
    ok = r2 >= 0.95
    report(capsys, 6, ok,
           f"linear fit R2 {r2:.4f} (>= 0.95) over times {np.round(times, 2).tolist()}")
    assert r2 >= 0.95


def _explain_run(run, seed, n_inst=50, n_bg=30):
    rng = np.random.default_rng([4, seed])
    train_ds, test_ds = run["train"], run["test"]
    bg_recs = [train_ds.points[i] for i in sorted(rng.choice(train_ds.n, n_bg, replace=False))]
    inst_recs = [test_ds.points[i] for i in sorted(rng.choice(test_ds.n, n_inst, replace=False))]
    background = RowBatch.from_records(bg_recs)
    instances = RowBatch.from_records(inst_recs)
    predictor = make_shap_predictor(run["params"], ModelConfig(),
                                    ContextPool(train_ds.points),
                                    QueryPool(inst_recs), seed=seed)
    result = geoshapley_explain(predictor, instances, background)
    return predictor, instances, background, result


def test_criterion_7_local_accuracy(capsys, trained_models):
    """Components sum to the model prediction for every explained row."""
    predictor, instances, background, result = _explain_run(trained_models[("gwr", 0)], 0)
    preds = predictor(instances.ids, instances.coords, instances.x)
    gap = np.abs(result.reconstruct() - preds).max()
    ok = gap < 1e-6
    report(capsys, 7, ok, f"max identity gap {gap:.2e} over 50 rows (< 1e-6)")
    assert gap < 1e-6


def test_criterion_8_explainer_oracles(capsys):
    """Closed-form linear, pure-interaction, and dummy-player cases."""
    def linear(ids, coords, x):
        return 2.0 * x[:, 0] + 3.0 * x[:, 1]

    inst = (0, np.zeros(2), np.array([1.0, 1.0]))
    bg = RowBatch(ids=np.array([1]), coords=np.zeros((1, 2)), x=np.zeros((1, 2)))
    phi = shapley_exact(coalition_values(linear, inst, bg, 3), 3)
    linear_gap = max(abs(phi[1] - 2.0), abs(phi[2] - 3.0), abs(phi[0]))

    def inter(ids, coords, x):
        return coords[:, 0] * x[:, 0]

    instances = RowBatch(ids=np.array([0]), coords=np.array([[1.0, 0.0]]),
                         x=np.array([[1.0]]))
    background = RowBatch(ids=np.array([1]), coords=np.zeros((1, 2)), x=np.zeros((1, 1)))
    res = geoshapley_explain(inter, instances, background)
    inter_gap = max(abs(res.phi_geo[0]), abs(res.phi[0, 0]),
                    abs(res.phi_geo_x[0, 0] - 1.0))

    rng = np.random.default_rng(3)
    dummies = RowBatch(ids=np.arange(4), coords=rng.random((4, 2)),
                       x=rng.normal(size=(4, 2)))
    bg2 = RowBatch(ids=np.arange(10, 16), coords=rng.random((6, 2)),
                   x=rng.normal(size=(6, 2)))
    res2 = geoshapley_explain(linear, dummies, bg2)
    dummy_mag = max(np.abs(res2.phi_geo).max(), np.abs(res2.phi_geo_x).max())

    ok = linear_gap < 1e-10 and inter_gap < 1e-10 and dummy_mag < 1e-8
    report(capsys, 8, ok,
           f"linear gap {linear_gap:.2e} (< 1e-10), interaction gap {inter_gap:.2e} "
           f"(< 1e-10), dummy magnitude {dummy_mag:.2e} (< 1e-8)")
    assert linear_gap < 1e-10
    assert inter_gap < 1e-10
    assert dummy_mag < 1e-8


def test_criterion_9_coefficient_recovery(capsys, trained_models):
    """Slope surfaces recovered from explanations correlate with the truth."""
    t0 = time.perf_counter()

    def oracle(ids, coords, x):
        return (gwr_beta1(coords[:, 0], coords[:, 1]) * x[:, 0]
                + gwr_beta2(coords[:, 0], coords[:, 1]) * x[:, 1])

    def pearson_per_surface(instances, background, result):
        beta = local_coefficients(result, instances, background)
        rs = []
        for j, surface in enumerate((gwr_beta1, gwr_beta2)):
            truth = surface(instances.coords[:, 0], instances.coords[:, 1])
            valid = np.isfinite(beta[:, j])
            rs.append(float(np.corrcoef(beta[valid, j], truth[valid])[0, 1]))
        return rs

    run0 = trained_models[("gwr", 0)]
    _, instances, background, _ = _explain_run(run0, 0)
    oracle_result = geoshapley_explain(oracle, instances, background)
    oracle_rs = pearson_per_surface(instances, background, oracle_result)

    ga_rs = []
    for seed in SEEDS:
        run = trained_models[("gwr", seed)]
        _, inst, bg, result = _explain_run(run, seed)
        ga_rs.append(pearson_per_surface(inst, bg, result))
    ga_median = np.median(np.array(ga_rs), axis=0)
    elapsed = time.perf_counter() - t0

    ok = all(r >= 0.9 for r in oracle_rs) and all(r >= 0.6 for r in ga_median) \
        and elapsed < 1200
    report(capsys, 9, ok,
           f"oracle pearson {np.round(oracle_rs, 3).tolist()} (>= 0.9), trained-model "
           f"3-seed median {np.round(ga_median, 3).tolist()} (>= 0.6), "
           f"{elapsed / 60:.1f} min (< 20)")
    for r in oracle_rs:
        assert r >= 0.9
    for r in ga_median:
        assert r >= 0.6
    assert elapsed < 1200


def test_criterion_10_learning_sanity(capsys, trained_models, ensemble_metrics):
    """A noiseless linear toy is learnable, and the model beats flat OLS."""
    rng = np.random.default_rng(4)
    points = []
    for i in range(400):
        u, v = rng.random(2)
        x = rng.normal(size=2)
        points.append(PointRecord(i, float(u), float(v), x,
                                  float(2 * x[0] + 3 * x[1])))
    from geoagg.datasets import GeoDataset

    toy = GeoDataset.from_records(points, {"generator": "toy"})
    config = ModelConfig(d_model=16, n_heads=2, n_inducing=4, l_max=16, n_layers=1)
    params, _ = train(toy, config, TrainConfig(epochs=50, seed=0, lr=3e-3))
    queries = QueryPool(toy.points)
    context = ContextPool(toy.points)
    pred = predict_ensemble(params, config, queries, context, 1, 1.0, 0)
    toy_r2 = evaluate(pred.mean, toy.targets()).r2

    gaps = []
    for seed in SEEDS:
        run = trained_models[("gwr", seed)]
        design = np.c_[run["train"].covariates(), np.ones(run["train"].n)]
        coef, *_ = np.linalg.lstsq(design, run["train"].targets(), rcond=None)
        test_design = np.c_[run["test"].covariates(), np.ones(run["test"].n)]
        ols_r2 = evaluate(test_design @ coef, run["test"].targets()).r2
        gaps.append(ensemble_metrics[("gwr", seed)][8].r2 - ols_r2)
    median_gap = float(np.median(gaps))

    ok = toy_r2 > 0.99 and median_gap >= 0.05
    report(capsys, 10, ok,
           f"toy training R2 {toy_r2:.4f} (> 0.99), R2 gap over flat OLS "
           f"{median_gap:.3f} median (>= 0.05)")
    assert toy_r2 > 0.99
    assert median_gap >= 0.05


def test_criterion_11_reproduce_determinism(capsys, tmp_path):
    """Two identical reproduction runs emit byte-identical result CSVs."""
    config = {
        "model": {"d_model": 8, "n_heads": 2, "n_inducing": 2, "l_max": 8,
                  "n_layers": 1},
        "train": {"epochs": 3, "batch": 16, "seed": 0},
        "data": {"n": 400, "gwr_seed": 5, "sl_seed": 6, "rho": 0.5},
        "predict": {"members": 4, "expansion": 1.25, "seed": 11},
        "explain": {"background": 10, "instances": 10, "seed": 12},
        "bench": {"lengths": [4, 8], "members": 2},
    }
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(config))
    for d in ("run1", "run2"):
        assert cli_main(["reproduce", "--config", str(cfg_path),
                         "--outdir", str(tmp_path / d)]) == 0
    compared = ["predictions_gwr.csv", "predictions_sl.csv", "explanations_gwr.csv"]
    same = {
        name: (tmp_path / "run1" / name).read_bytes() == (tmp_path / "run2" / name).read_bytes()
        for name in compared
    }
    timing_present = (tmp_path / "run1" / "bench_sl.csv").exists()
    ok = all(same.values()) and timing_present
    report(capsys, 11, ok, f"byte-identical: {same}; timing CSV exempt and present")
    assert all(same.values())
    assert timing_present
