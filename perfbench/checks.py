"""Output checks computed outside geoagg: numpy references and method properties.

No check compares against a stored copy of earlier output.  Each function
returns a list of failure messages, empty when the check passes.
"""

from __future__ import annotations

import numpy as np

from geoagg import autodiff, explain, model, spatial
from geoagg.datasets import gwr_beta1, gwr_beta2

IDENTITY_TOL = 1e-6     # four-part Shapley identity, as acceptance criterion 7
PHI0_TOL = 1e-9         # base value against the background mean prediction
ORACLE_PEARSON = 0.9    # slope recovery on the closed-form surfaces, criterion 9
GRAD_REL_TOL = 1e-5     # central differences against the tape gradient
GRAD_EPS = 1e-6


def brute_knn(coords, ids, point, k):
    """The k nearest rows by (squared distance, id), by a full numpy ranking.

    Squared distances are formed as ``du*du + dv*dv`` with ``du = point - row``
    so they match a tree search bit for bit.
    """
    du = point[0] - coords[:, 0]
    dv = point[1] - coords[:, 1]
    d2 = du * du + dv * dv
    order = np.lexsort((ids, d2))[:k]
    return [(int(ids[i]), float(d2[i])) for i in order]


def r2(pred, truth) -> float:
    truth = np.asarray(truth, dtype=np.float64)
    resid = ((np.asarray(pred) - truth) ** 2).sum()
    return float(1.0 - resid / ((truth - truth.mean()) ** 2).sum())


def ols_r2(train_ds, test_ds) -> float:
    """Test R^2 of an intercept-plus-covariates least-squares fit on the train split."""
    design = np.c_[np.ones(train_ds.n), train_ds.covariates()]
    coef, *_ = np.linalg.lstsq(design, train_ds.targets(), rcond=None)
    return r2(np.c_[np.ones(test_ds.n), test_ds.covariates()] @ coef, test_ds.targets())


def same_dataset(a, b) -> list[str]:
    """A CSV round trip must give back every id, coordinate and value exactly."""
    pairs = [("ids", a.ids(), b.ids()), ("coords", a.coords(), b.coords()),
             ("covariates", a.covariates(), b.covariates()),
             ("targets", a.targets(), b.targets())]
    return [f"csv round trip changed the {name}"
            for name, x, y in pairs if not np.array_equal(x, y)]


def same_params(a, b) -> list[str]:
    if a.arrays.keys() != b.arrays.keys() or a.norm.keys() != b.norm.keys():
        return ["model file round trip changed the parameter names"]
    return [f"model file round trip changed '{name}'"
            for name in sorted(a.arrays)
            if not np.array_equal(a.arrays[name], b.arrays[name])]


def training(history, train_ds, epochs) -> list[str]:
    errors = []
    h = np.asarray(history, dtype=np.float64)
    if h.shape != (epochs,) or not np.isfinite(h).all():
        errors.append(f"loss history {history} is not {epochs} finite values")
    elif not (np.diff(h) < 0).all():
        errors.append(f"loss does not fall every epoch: {history}")
    elif not h[-1] < np.var(train_ds.targets()):
        errors.append(f"last-epoch mse {h[-1]:.4g} is not below the target variance")
    return errors


def gradient(params, config, train_ds, expansion, seed) -> list[str]:
    """Central differences on the largest-gradient entry of a few parameters.

    One training sequence, squared-error loss, as in training; the analytic
    gradient comes from one tape and each difference from two fresh tapes.
    """
    rec = train_ds.points[0]
    context = spatial.ContextPool(train_ds.points)
    cache = spatial.precompute_neighbors(
        spatial.QueryPool([rec]), context,
        spatial.neighbor_budget(config.l_max, expansion))
    seq = spatial.assemble_sequence(rec.id, cache, context, config.l_max,
                                    np.random.default_rng(seed))

    def loss(arrays):
        tape = autodiff.Tape()
        bound = model.bind_params(tape, model.ModelParams(arrays=arrays, norm=params.norm))
        pred, _ = model.forward_on_tape(tape, bound, seq, config)
        resid = autodiff.sub(pred, np.array([[rec.y]]))
        return tape, bound, autodiff.mul(resid, resid)

    tape, bound, out = loss(params.arrays)
    autodiff.backward(tape, out)
    grads = model.param_grads(tape, bound)
    errors = []
    for name in ("embed_w", "l0.a.wq", "l1.b.wo", "agg.wk", "agg.lam_raw", "head.w1"):
        pos = tuple(int(i) for i in
                    np.unravel_index(np.argmax(np.abs(grads[name])), grads[name].shape))
        diffs = []
        for step in (GRAD_EPS, -GRAD_EPS):
            arrays = dict(params.arrays)
            arrays[name] = arrays[name].copy()
            arrays[name][pos] += step
            diffs.append(float(loss(arrays)[2].value[0, 0]))
        numeric = (diffs[0] - diffs[1]) / (2 * GRAD_EPS)
        analytic = float(grads[name][pos])
        rel = abs(analytic - numeric) / max(abs(analytic), abs(numeric), 1e-8)
        if not rel <= GRAD_REL_TOL:
            errors.append(f"gradient of {name}{pos}: analytic {analytic:.6g}, "
                          f"central difference {numeric:.6g}")
    return errors


def prediction(pred, query_ids, tree_queries, members) -> list[str]:
    errors = []
    if not np.array_equal(pred.ids, query_ids):
        errors.append("prediction ids differ from the queried test-split ids")
    if not (np.isfinite(pred.mean).all() and np.isfinite(pred.std).all()):
        errors.append("non-finite prediction mean or std")
    elif (pred.std < 0).any():
        errors.append("negative ensemble std")
    if pred.members != members:
        errors.append(f"{pred.members} members reported, {members} asked")
    if tree_queries != len(query_ids):
        errors.append(f"{tree_queries} tree searches for {len(query_ids)} queries "
                      "(the cache should search once per query)")
    return errors


def accuracy(pred, train_ds, test_ds) -> list[str]:
    model_r2 = r2(pred.mean, test_ds.targets())
    baseline = ols_r2(train_ds, test_ds)
    if not model_r2 > baseline:
        return [f"ensemble R^2 {model_r2:.4f} does not beat OLS R^2 {baseline:.4f}"]
    return []


def neighbours(context, queries, k) -> list[str]:
    """Cached neighbour lists against a brute-force ranking by (d2, id)."""
    cache = spatial.precompute_neighbors(queries, context, k)
    coords = np.array([[r.u, r.v] for r in context.records])
    ids = np.array([r.id for r in context.records])
    return [f"cached neighbours of id {r.id} differ from the brute-force ranking"
            for r in queries.records
            if cache[r.id] != brute_knn(coords, ids, (r.u, r.v), k)]


def explanation(predictor, result, instances, background) -> list[str]:
    errors = []
    preds = predictor(instances.ids, instances.coords, instances.x)
    gap = float(np.abs(result.reconstruct() - preds).max())
    if not gap <= IDENTITY_TOL:
        errors.append(f"four-part identity gap {gap:.3g} exceeds {IDENTITY_TOL}")
    base = float(np.mean(predictor(background.ids, background.coords, background.x)))
    if not abs(result.phi0 - base) <= PHI0_TOL * max(1.0, abs(base)):
        errors.append(f"phi0 {result.phi0!r} differs from the background mean {base!r}")
    return errors


def oracle_recovery(instances, background) -> list[str]:
    """The explainer applied to the generator's own surfaces recovers the slopes."""
    def oracle(ids, coords, x):
        u, v = coords[:, 0], coords[:, 1]
        return gwr_beta1(u, v) * x[:, 0] + gwr_beta2(u, v) * x[:, 1]

    result = explain.geoshapley_explain(oracle, instances, background)
    beta = explain.local_coefficients(result, instances, background)
    errors = []
    for j, surface in enumerate((gwr_beta1, gwr_beta2)):
        truth = surface(instances.coords[:, 0], instances.coords[:, 1])
        valid = np.isfinite(beta[:, j])
        rho = float(np.corrcoef(beta[valid, j], truth[valid])[0, 1])
        if not rho >= ORACLE_PEARSON:
            errors.append(f"oracle slope {j + 1} pearson {rho:.3f} < {ORACLE_PEARSON}")
    return errors
