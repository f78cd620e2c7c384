"""Training loop, randomised-context ensemble inference, metrics, benchmark.

Training precomputes each point's neighbourhood once, then rebuilds input
sequences every epoch with fresh random removal of the surplus neighbours, and
minimises mean squared error with Adam, recording one tape per minibatch.
Inference assembles ``members`` sequences per query (member m keeps the
context rows whose keys, hashed from (seed, m, query id, slot), are smallest)
and reports the per-query mean and sample standard deviation.  Members share
one set of weights and differ only in the context rows they draw, so the
standard deviation measures how sensitive a prediction is to the context
draw; it is not a calibrated predictive spread.  Context rows are drawn a
batch at a time, one :func:`~geoagg.spatial.subset_indices` call per training
minibatch and per block of inference sequences, in :class:`Ensemble`, the one
front end of prediction, the benchmark and the explainer's predictor.

Everything is a pure function of (data, config, seeds): fixed split, fixed
parameter initialisation, fixed per-epoch shuffles.  The benchmark harness
builds the ensemble in two modes, either searching the grid index once per
query point or searching it again for every member and query, and reports
wall-clock seconds plus the index's query counter; it is single-threaded so
the timing curves are free of scheduling noise.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, replace

import numpy as np

from .autodiff import AdamState, ContractError, Tape, adam_step, backward
from . import autodiff as ad
from .datasets import GeoDataset, write_csv
from .model import (
    _ROW_BLOCK,
    ModelConfig,
    ModelParams,
    bind_params,
    forward_batch,
    forward_on_tape,
    init_params,
    param_grads,
)
from .spatial import (
    ContextPool,
    QueryPool,
    SequenceLookupError,
    assemble_sequence,
    check_rows,
    context_keys,
    neighbor_budget,
    precompute_neighbors,
    sequences,
    subset_indices,
)

__all__ = [
    "TrainConfig",
    "Ensemble",
    "EnsemblePrediction",
    "Metrics",
    "UndefinedMetricError",
    "split_dataset",
    "train",
    "predict_ensemble",
    "evaluate",
    "benchmark_inference",
    "BenchRecord",
    "write_predictions_csv",
    "write_loss_csv",
    "write_bench_csv",
]

# sub-stream tags so every rng purpose has its own deterministic seed
_SEED_SPLIT = 1
_SEED_INIT = 2
_SEED_EPOCH = 3

# Sequences that inference assembles and hands to forward_batch at a time, in
# whole row blocks, so that no call holds a whole prediction's sequences at once.
_CHUNK_ROWS = 16 * _ROW_BLOCK


@dataclass
class TrainConfig:
    epochs: int = 30
    batch: int = 32
    lr: float = 1e-3
    seed: int = 0
    expansion_factor: float = 1.25
    split: float = 0.7

    def __post_init__(self):
        if self.epochs < 0:
            raise ContractError("epochs must be nonnegative")
        if self.batch < 1:
            raise ContractError("batch must be at least 1")
        if self.seed < 0:
            raise ContractError(f"seed must be nonnegative, got {self.seed}")
        if not 0.0 < self.split < 1.0:
            raise ContractError(f"split must lie in (0, 1), got {self.split}")
        if not 0.0 < self.lr < math.inf:
            raise ContractError(f"lr must be finite and positive, got {self.lr}")
        if not 1.0 <= self.expansion_factor < math.inf:
            raise ContractError(
                f"expansion_factor must be finite and >= 1, got {self.expansion_factor}")


@dataclass
class EnsemblePrediction:
    """Per-query ensemble mean, sample std (0 when members == 1), member count."""

    ids: np.ndarray
    mean: np.ndarray
    std: np.ndarray
    members: int


@dataclass
class Metrics:
    r2: float
    mae: float


class UndefinedMetricError(ValueError):
    """R^2 is undefined: fewer than two truth values, or zero variance."""


def split_dataset(ds: GeoDataset, split: float, seed: int):
    """Deterministic shuffled train/test split of a dataset's rows."""
    if not 0.0 < split < 1.0:
        raise ContractError(f"split must lie in (0, 1), got {split}")
    rng = np.random.default_rng([_SEED_SPLIT, seed])
    order = rng.permutation(ds.n)
    n_train = int(round(split * ds.n))
    return ds.take(order[:n_train]), ds.take(order[n_train:])


def train(dataset: GeoDataset, config: ModelConfig, tc: TrainConfig):
    """Fit parameters on ``dataset`` and return ``(params, per-epoch MSE list)``.

    Sequences are drawn from one precomputed neighbour cache; the random
    surplus removal is re-seeded per epoch, so every epoch sees fresh context
    subsets without touching the tree again.  Each minibatch is assembled in
    one call and runs as one batched forward on one tape, and its loss is the
    minibatch mean of squared errors.  An epoch whose mean squared error is
    not finite stops training with a one-line :class:`ContractError`.
    """
    if dataset.n < config.l_max:
        raise ContractError(
            f"dataset has {dataset.n} points, need at least l_max={config.l_max}"
        )
    # the pool checks every row before the statistics below read them
    context = ContextPool(dataset)
    rng_init = np.random.default_rng([_SEED_INIT, tc.seed])
    params = init_params(config, dataset.p, rng_init)

    x = dataset.covariates()
    y = dataset.targets()
    params.norm["x_mean"] = x.mean(axis=0, keepdims=True)
    params.norm["x_std"] = np.maximum(x.std(axis=0, keepdims=True), 1e-12)
    params.norm["y_mean"] = np.array([[y.mean()]])
    params.norm["y_std"] = np.maximum(np.array([[y.std()]]), 1e-12)

    cache = precompute_neighbors(
        context, context, neighbor_budget(config.l_max, tc.expansion_factor)
    )

    state = AdamState()
    history: list[float] = []
    for epoch in range(tc.epochs):
        rng = np.random.default_rng([_SEED_EPOCH, tc.seed, epoch])
        order = rng.permutation(len(context))
        sse = 0.0
        for start in range(0, len(order), tc.batch):
            chunk = order[start:start + tc.batch]
            batch = assemble_sequence(context.ids[chunk], cache, context, config.l_max, rng)
            sse += _minibatch_step(params, config, batch, y[chunk], state, tc.lr) * len(chunk)
        mse = sse / len(context)
        if not np.isfinite(mse):
            raise ContractError(f"training diverged: epoch {epoch} has mean squared error {mse}")
        history.append(mse)
    return params, history


def _minibatch_step(params: ModelParams, config: ModelConfig, batch, targets,
                    state: AdamState, lr: float) -> float:
    """One Adam step on a minibatch's mean squared error, which it returns."""
    tape = Tape()
    bound = bind_params(tape, params)
    pred, _ = forward_on_tape(tape, bound, batch, config)
    resid = ad.sub(pred, targets.reshape(-1, 1, 1))
    loss = ad.mean_all(ad.mul(resid, resid))
    backward(tape, loss)
    adam_step(params.arrays, param_grads(tape, bound), state, lr)
    return float(loss.value[0, 0])


class Ensemble:
    """The one inference front end of :func:`predict_ensemble`,
    :func:`benchmark_inference` and the explainer's predictor.

    Construction runs every check once, then searches the grid index for the
    neighbours of every query point, one ``(n, k')`` table; ``live`` leaves
    the search to :meth:`outputs`, once per sequence, as the naive pipeline
    being modelled does.  The ensemble is immutable, so concurrent calls are safe.
    """

    def __init__(self, params: ModelParams, config: ModelConfig, context: ContextPool,
                 queries: QueryPool, members: int, expansion: float, seed: int,
                 live: bool = False):
        if members < 1:
            raise ContractError("need at least one ensemble member")
        self.k = min(neighbor_budget(config.l_max, expansion), len(context))
        if members * max(len(queries), 1) * self.k >= 2 ** 60:
            raise ContractError(f"{members} ensemble members over {len(queries)} queries "
                                "need more memory than can be addressed")
        self.params, self.config, self.context, self.queries = params, config, context, queries
        self.members, self.seed, self.p = members, seed, context.x.shape[1]
        self._check_covariates(queries.x)
        if (expects := params.norm["x_mean"].shape[1]) != self.p:
            raise ContractError(f"context points carry {self.p} covariate channels, "
                                f"model expects {expects}")
        if len(context) < config.l_max:
            raise ContractError(f"only {len(context)} context points available, "
                                f"need {config.l_max}")
        self.rows = None if live else precompute_neighbors(queries, context, self.k).rows

    def _check_covariates(self, x) -> None:
        if x.shape[1] != self.p:
            raise ContractError(f"query points carry {x.shape[1]} covariates, "
                                f"context points carry {self.p}")

    def outputs(self, ids, coords, x) -> np.ndarray:
        """``(members, n)`` outputs for rows of integer point ``ids`` ``(n,)``,
        finite ``coords`` ``(n, 2)`` and ``x`` ``(n, p)``; other rows raise a
        one-line ContractError.

        A query id reads the construction's search, another context id
        (a background row) is searched in one batch with the others, and any
        other id raises :class:`SequenceLookupError`; ``live``, each (row,
        member) pair searches from its id's own coordinates instead.  Each
        block of ``_CHUNK_ROWS`` flat pairs of the ``(n, members)`` output
        takes one :func:`context_keys`, :func:`subset_indices` and
        :func:`forward_batch` call; the member axis is the contiguous one, so
        a row's mean over members adds in one order whatever rows share the call.
        """
        context, l_max, members, k = self.context, self.config.l_max, self.members, self.k
        ids = np.asarray(ids)
        if ids.size and (ids.dtype.kind not in "iu" or not np.can_cast(ids.dtype, np.int64)):
            raise ContractError(f"point ids must be integers, got {ids.dtype}")
        ids = ids.astype(np.int64)
        coords, x = (np.asarray(a, dtype=np.float64) for a in (coords, x))
        if ids.ndim != 1 or coords.shape != ids.shape + (2,) or x.ndim != 2 or len(x) != len(ids):
            raise ContractError(f"rows need ids (n,), coords (n, 2) and x (n, p), got "
                                f"{ids.shape}, {coords.shape} and {x.shape}")
        self._check_covariates(x)
        check_rows(ids, coords, x)
        distinct, index = np.unique(ids, return_inverse=True)
        cached, targets = (np.array([pool.row_of.get(pid, -1) for pid in distinct.tolist()],
                                    np.intp) for pool in (self.queries, context))
        found, unknown = cached >= 0, (cached < 0) & (targets < 0)
        if unknown.any():
            raise SequenceLookupError(f"unknown point id {distinct[unknown.argmax()]}")
        # allocated before any search, so a member count too big to hold fails at once
        out = np.empty((len(ids), members))
        if self.rows is None:
            points = context.coords[targets]
            points[found] = self.queries.coords[cached[found]]
        else:
            entries = np.empty((len(distinct), k), np.intp)
            entries[found] = self.rows[cached[found]]
            entries[~found] = context.tree.search(context.coords[targets[~found]], k)[0]
        flat = out.reshape(-1)
        for start in range(0, flat.size, _CHUNK_ROWS):
            row, member = np.divmod(np.arange(start, min(start + _CHUNK_ROWS, flat.size)), members)
            at = index[row]
            rows = entries[at] if self.rows is not None else np.concatenate(
                [context.tree.search(point, k)[0] for point in points[at]])
            keys = context_keys(self.seed, member, ids[row], k) if k > l_max else None
            picks = subset_indices(rows, targets[at], l_max, keys)
            flat[start:start + _CHUNK_ROWS] = forward_batch(
                *sequences(context, x[row], coords[row], picks), self.params, self.config)
        return out.T


def predict_ensemble(params: ModelParams, config: ModelConfig,
                     queries: QueryPool, context: ContextPool,
                     members: int, expansion: float, seed: int) -> EnsemblePrediction:
    """Randomised-context ensemble prediction, and its sensitivity to the context draw.

    A query's draws hash (seed, member, query id, slot), so its mean and std do
    not depend on the other queries.  With an expansion factor of 1.0 every
    member sees identical sequences and the reported std is exactly zero.
    """
    preds = Ensemble(params, config, context, queries, members, expansion, seed).outputs(
        queries.ids, queries.coords, queries.x)
    mean = preds.mean(axis=0)
    if members > 1:
        std = preds.std(axis=0, ddof=1)
        # identical member outputs have exactly zero spread; keep it exact
        # rather than leaving float summation dust
        std[np.ptp(preds, axis=0) == 0.0] = 0.0
    else:
        std = np.zeros(preds.shape[1])
    return EnsemblePrediction(ids=queries.ids.copy(), mean=mean, std=std, members=members)


def evaluate(y_pred, y_true) -> Metrics:
    """R^2 (1 - SSE/SST about the truth mean) and mean absolute error."""
    y_pred = np.asarray(y_pred, dtype=np.float64).ravel()
    y_true = np.asarray(y_true, dtype=np.float64).ravel()
    if y_pred.shape != y_true.shape:
        raise ContractError(
            f"prediction/truth lengths disagree: {y_pred.shape} vs {y_true.shape}"
        )
    if y_true.size < 2:
        raise UndefinedMetricError("R^2 needs at least two truth values")
    sst = float(((y_true - y_true.mean()) ** 2).sum())
    if sst == 0.0:
        raise UndefinedMetricError("R^2 is undefined for zero-variance truth")
    sse = float(((y_pred - y_true) ** 2).sum())
    mae = float(np.abs(y_pred - y_true).mean())
    return Metrics(r2=1.0 - sse / sst, mae=mae)


@dataclass
class BenchRecord:
    length: int
    mode: str
    seconds: float
    tree_queries: int


def benchmark_inference(params: ModelParams, config: ModelConfig,
                        queries: QueryPool, context: ContextPool,
                        lengths: list[int], members: int,
                        expansion: float = 1.25, seed: int = 0) -> list[BenchRecord]:
    """Wall-clock ensemble inference time for each sequence length and cache mode.

    Each length is timed ``on_the_fly`` and then ``precomputed``, back to
    back, so a drift in machine speed during the sweep moves both modes of a
    length alike rather than their ratio.  The timed region covers neighbour
    lookup (cached, or live in each block) plus all member forward passes;
    the tree's query counter is captured alongside so the two modes' lookup
    behaviour is verifiable (``n_queries`` versus ``members * n_queries``).
    Every length is checked against the context pool before the first one is timed.
    """
    if list(lengths) != sorted(lengths):
        raise ContractError("lengths must be ascending")
    if lengths and lengths[-1] > len(context):
        raise ContractError(f"only {len(context)} context points available, need {lengths[-1]}")
    records = []
    for length in lengths:
        for mode, live in (("on_the_fly", True), ("precomputed", False)):
            context.tree.reset_query_count()
            t0 = time.perf_counter()
            # the sweep runs lengths past the training-time bound
            Ensemble(params, replace(config, l_max=length), context, queries, members, expansion,
                     seed, live).outputs(queries.ids, queries.coords, queries.x)
            elapsed = time.perf_counter() - t0
            records.append(BenchRecord(length=length, mode=mode, seconds=elapsed,
                                       tree_queries=context.tree.query_count))
    return records


# ---------------------------------------------------------------------------
# CSV contracts
# ---------------------------------------------------------------------------


def write_predictions_csv(path, pred: EnsemblePrediction) -> None:
    write_csv(path, ["id", "y_mean", "y_std"], [pred.ids, pred.mean, pred.std])


def write_loss_csv(path, history) -> None:
    write_csv(path, ["epoch", "mse"], [np.arange(len(history)), history])


def write_bench_csv(path, records: list[BenchRecord]) -> None:
    """Timing rows plus a summary row with the precomputed/on-the-fly ratio."""
    columns = [[rec.length for rec in records], [rec.mode for rec in records],
               [rec.seconds for rec in records]]
    pre = sum(r.seconds for r in records if r.mode == "precomputed")
    fly = sum(r.seconds for r in records if r.mode == "on_the_fly")
    if pre > 0 and fly > 0:
        for col, cell in zip(columns, ("all", "ratio", pre / fly)):
            col.append(cell)
    write_csv(path, ["length", "mode", "seconds"], columns)
