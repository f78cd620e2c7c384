"""Training loop, randomised-context ensemble inference, metrics, benchmark.

Training precomputes each point's neighbourhood once, then rebuilds input
sequences every epoch with fresh random removal of the surplus neighbours, and
minimises mean squared error with Adam, recording one tape per minibatch.
Inference assembles ``members`` sequences per query (member k draws its
context subsets from the stream seeded ``[seed, k]``) and reports the per-query
mean and sample standard deviation, the latter being the epistemic
uncertainty of the ensemble.  Context rows are drawn a batch at a time, one
:func:`~geoagg.spatial.subset_indices` call per training minibatch and per
(member, chunk of queries) at inference.

Everything is a pure function of (data, config, seeds): fixed split, fixed
parameter initialisation, fixed per-epoch shuffles.  The benchmark harness
runs the same inference engine in two modes, either reusing the precomputed
cache or re-querying the k-d tree for every member and query, and reports
wall-clock seconds plus the tree's query counter; it is single-threaded so
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
    _CHUNK_ROWS,
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
    assemble_sequence,
    neighbor_budget,
    precompute_neighbors,
    sequences,
    subset_indices,
)

__all__ = [
    "TrainConfig",
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
    """One Adam step on a minibatch's mean squared error, which it returns.

    The tape lives only inside this call, so it is freed before the next
    minibatch records its own.
    """
    tape = Tape()
    bound = bind_params(tape, params)
    pred, _ = forward_on_tape(tape, bound, batch, config)
    resid = ad.sub(pred, targets.reshape(-1, 1, 1))
    loss = ad.mean_all(ad.mul(resid, resid))
    backward(tape, loss)
    adam_step(params.arrays, param_grads(tape, bound), state, lr)
    return float(loss.value[0, 0])


def _member_predictions(params: ModelParams, config: ModelConfig,
                        queries: QueryPool, context: ContextPool,
                        members: int, expansion: float, seed: int,
                        l_max: int | None = None,
                        cache_mode: str = "precomputed") -> np.ndarray:
    """(members, n_queries) raw member outputs; the shared inference engine.

    ``precomputed`` mode searches the tree once for all query points up
    front; ``on_the_fly`` searches it again for every member and query.  Both
    feed identical rows through identical rng streams, so their predictions
    match exactly.  Queries go in chunks: each member draws a chunk's context
    rows in one :func:`subset_indices` call, and the chunk's sequences of
    every member run as one batched forward pass.
    """
    if members < 1:
        raise ContractError("need at least one ensemble member")
    if cache_mode not in ("precomputed", "on_the_fly"):
        raise ContractError(f"unknown cache mode {cache_mode!r}")
    if l_max is None:
        l_max = config.l_max
    elif l_max != config.l_max:
        # benchmarking sweeps the sequence length past the training-time bound
        config = replace(config, l_max=l_max)
    k = neighbor_budget(l_max, expansion)
    width = context.feats.shape[1]
    if len(queries) and queries.x.shape[1] != width - 1:
        raise ContractError(
            f"query points carry {queries.x.shape[1]} covariates, "
            f"context points carry {width - 1}"
        )
    if len(context) < l_max:
        raise ContractError(f"only {len(context)} context points available, need {l_max}")

    cache = (precompute_neighbors(queries, context, k)
             if cache_mode == "precomputed" else None)
    rngs = [np.random.default_rng([seed, member]) for member in range(members)]
    targets = [context.row_of.get(qid, -1) for qid in queries.ids.tolist()]

    def entries(chunk: slice) -> np.ndarray:
        if cache is not None:
            return cache.rows[chunk]
        # the naive pipeline being modelled searches again for every member
        # and query; the repeated results are identical
        return np.concatenate([context.tree.search(point, k)[0]
                               for point in queries.coords[chunk]])

    preds = np.empty((members, len(queries)))
    step = max(1, _CHUNK_ROWS // members)
    for start in range(0, len(queries), step):
        chunk = slice(start, start + step)
        picks = np.stack([subset_indices(entries(chunk), targets[chunk], l_max, rng)
                          for rng in rngs], axis=1)
        # each query's row serves all of its members' sequences
        feats, coords = sequences(context, queries.x[chunk, None],
                                  queries.coords[chunk, None], picks)
        out = forward_batch(feats.reshape(-1, l_max, width), coords.reshape(-1, l_max, 2),
                            params, config)
        preds[:, chunk] = out.reshape(-1, members).T
    return preds


def predict_ensemble(params: ModelParams, config: ModelConfig,
                     queries: QueryPool, context: ContextPool,
                     members: int, expansion: float, seed: int) -> EnsemblePrediction:
    """Randomised-context ensemble prediction with epistemic uncertainty.

    Member k subsamples context from the stream seeded ``[seed, k]``.  With
    an expansion factor of 1.0 every member sees identical sequences and the
    reported standard deviation is exactly zero.
    """
    preds = _member_predictions(params, config, queries, context,
                                members, expansion, seed)
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
    lookup (cached or live) plus all member forward passes; the tree's query
    counter is captured alongside so the two modes' lookup behaviour is
    verifiable (``n_queries`` versus ``members * n_queries``).
    """
    if list(lengths) != sorted(lengths):
        raise ContractError("lengths must be ascending")
    records = []
    for length in lengths:
        for mode in ("on_the_fly", "precomputed"):
            context.tree.reset_query_count()
            t0 = time.perf_counter()
            _member_predictions(params, config, queries, context, members,
                                expansion, seed, l_max=length, cache_mode=mode)
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
