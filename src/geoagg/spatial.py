"""Context/query pools, precomputed neighbour caches, and sequence assembly.

The data-loading side of the regressor keeps two pools of points: a context
pool of observed points (which owns a grid index over their coordinates) and a
query pool of points to be predicted.  Both read the columns of a
:class:`~geoagg.datasets.GeoDataset`: they check every row once, at
construction, and add an id -> row index, so a bad row fails there with one
line rather than wherever it is first read.
Neighbourhoods are looked up by one batched tree search over a query pool
and cached as arrays of context rows; every input sequence afterwards is
assembled from the cache alone, so repeated epochs and ensemble members never
touch the tree.  Training, prediction and explanation build their batches of
sequences through one function, :func:`sequences`, from target rows and the
context rows :func:`subset_indices` picks.

An input sequence is the target point followed by ``l_max - 1`` of its cached
neighbours.  The cache deliberately over-fetches by an expansion factor, and
the surplus is removed uniformly at random, which is what gives ensemble
members distinct context draws.  One cached slot is reserved for the target
itself: if the target appears in the cache (training-style pools) that slot is
dropped by id, otherwise the farthest candidate is discarded.  Either way the
sampling pool has exactly ``k' - 1`` entries, so an expansion factor of 1.0
yields fully deterministic sequences.  A whole batch's surplus is removed in
one draw: one block of uniform keys, one row per sequence, of which each row
keeps its ``l_max - 1`` smallest.  Training draws the keys in row order from
a generator; inference hashes them with :func:`context_keys`.

Pools, trees, and caches are immutable after construction and safe to share
across concurrent readers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .autodiff import ContractError
from .datasets import GeoDataset, PointRecord
from .kdtree import KdTree

__all__ = [
    "PointRecord",
    "ContextPool",
    "QueryPool",
    "NeighborCache",
    "SequenceLookupError",
    "build_tree",
    "check_rows",
    "precompute_neighbors",
    "assemble_sequence",
    "sequences",
    "subset_indices",
    "context_keys",
    "neighbor_budget",
]


class SequenceLookupError(KeyError):
    """A requested id has no cache entry or pool record."""


class QueryPool:
    """Immutable pool of points to be predicted, checked once and read as columns.

    ``rows`` is a :class:`GeoDataset` or a list of :class:`PointRecord` rows.
    Every row is checked here, vectorised, and nowhere else: unique ids,
    then (by :func:`check_rows`) finite coordinates, covariates and targets.
    The pool reads the dataset's ``ids`` ``(n,)``, ``coords`` ``(n, 2)`` and
    ``x`` ``(n, p)``, with ``row_of`` the id -> row index.
    """

    need_targets = False

    def __init__(self, rows):
        data = rows if isinstance(rows, GeoDataset) else GeoDataset.from_records(rows)
        self.data, self.ids, self.x = data, data.ids(), data.covariates()
        self.coords, observed = data.coords(), data.observed
        repeated = np.ones(len(self.ids), dtype=bool)
        repeated[np.unique(self.ids, return_index=True)[1]] = False
        if repeated.any():
            raise ContractError(f"duplicate point id {self.ids[repeated.argmax()]}")
        check_rows(self.ids, self.coords, self.x,
                   (~observed & self.need_targets, "context point id {} lacks a target value"),
                   (observed & ~np.isfinite(data.targets()),
                    "point id {} has a non-finite target"))
        self.row_of = dict(zip(self.ids.tolist(), range(len(self.ids))))

    @property
    def records(self) -> list[PointRecord]:
        """The pool's rows as records: its dataset's derived view."""
        return self.data.points

    def __len__(self):
        return len(self.ids)


def check_rows(ids, coords, x, *checks) -> None:
    """Refuse, in one line naming its id, the first row of ``ids`` with
    non-finite ``coords``, then with non-finite ``x``, then failing each
    further ``(bad, message)`` check in turn, the id filling ``{}``."""
    for bad, message in (
            (~np.isfinite(coords).all(axis=1), "point id {} has non-finite coordinates"),
            (~np.isfinite(x).all(axis=1), "point id {} has non-finite covariates"), *checks):
        if bad.any():
            raise ContractError(message.format(ids[bad.argmax()]))


class ContextPool(QueryPool):
    """Immutable pool of observed points plus a grid index over their coords.

    The rows are checked as a query pool's are, and each must also carry a
    target.  ``feats`` ``(n, p + 1)`` holds the covariates, then the
    observed target.
    """

    need_targets = True

    def __init__(self, rows):
        super().__init__(rows)
        if not len(self.ids):
            raise ContractError("context pool must not be empty")
        self.feats = np.column_stack([self.x, self.data.targets()])
        self.feats.flags.writeable = False
        self.tree = build_tree(self)


def build_tree(pool: ContextPool) -> KdTree:
    """Exact k-nearest-neighbour tree over a pool's points, keyed by their ids."""
    return KdTree(pool.coords, pool.ids)


@dataclass(frozen=True)
class NeighborCache:
    """Per-query neighbour rows of one context pool, each ascending in (d2, id).

    ``rows`` ``(n_q, k)`` holds context-pool row indices and ``d2`` their
    squared distances, one cache row per query; ``row_of`` maps a query id
    to its cache row and ``ids`` a context row to its point id.
    """

    rows: np.ndarray
    d2: np.ndarray
    row_of: dict
    ids: np.ndarray

    def entries(self, qids) -> np.ndarray:
        """``(len(qids), k)`` context rows of query ids' neighbours, nearest first."""
        try:
            return self.rows[[self.row_of[qid] for qid in qids]]
        except KeyError as err:
            raise SequenceLookupError(f"no cached neighbors for id {err.args[0]}") from None

    def __getitem__(self, qid: int) -> list[tuple[int, float]]:
        """The neighbours of a query id as ``(id, squared distance)`` pairs."""
        rows = self.entries([qid])[0]
        return list(zip(self.ids[rows].tolist(), self.d2[self.row_of[qid]].tolist()))

    def __len__(self):
        return len(self.row_of)


def neighbor_budget(l_max: int, expansion: float) -> int:
    """Cache depth k' for a given max sequence length and expansion factor."""
    if not 1.0 <= expansion < math.inf:
        raise ContractError(f"expansion factor must be finite and >= 1, got {expansion}")
    try:
        return math.ceil(expansion * l_max)
    except OverflowError:  # the product is infinite, or l_max has no float value
        raise ContractError(f"expansion factor {expansion} times l_max={l_max} "
                            "is not finite") from None


def precompute_neighbors(queries: QueryPool, context: ContextPool, k: int) -> NeighborCache:
    """Search the context tree once, for every query point, and cache the results."""
    rows, d2 = context.tree.search(queries.coords, k)
    return NeighborCache(rows, d2, queries.row_of, context.ids)


def subset_indices(rows: np.ndarray, targets, l_max: int, keys=None) -> np.ndarray:
    """``(..., l_max - 1)`` context rows for a batch of sequences, one per cached entry.

    ``rows`` ``(..., k)`` holds entries ascending in distance, ``targets``
    each sequence's own context row (-1 when not a context point), one per
    entry.  Each entry drops its target's slot, or else its last (farthest)
    one, and keeps ``l_max - 1`` of the other ``k - 1``, in entry order:
    those with the smallest of its ``keys`` ``(..., k)``, uniform in [0, 1),
    a uniform sample without replacement.  With no surplus (``k == l_max``)
    nothing is sampled and ``keys`` is not read.
    """
    k = rows.shape[-1]
    if k < l_max:
        raise ContractError(f"cache entries hold {k} neighbors, need at least l_max={l_max}")
    dropped = rows == np.asarray(targets)[..., None]
    dropped[..., -1] |= ~dropped.any(axis=-1)
    if k == l_max:
        return rows[~dropped].reshape(rows.shape[:-1] + (l_max - 1,))
    picked = np.argpartition(np.where(dropped, np.inf, keys), l_max - 2, axis=-1)[..., :l_max - 1]
    picked.sort(axis=-1)
    return np.take_along_axis(rows, picked, axis=-1)


# SplitMix64's increment (the 64-bit golden ratio) and finaliser multipliers
_GOLDEN, _MIX1, _MIX2 = (np.uint64(c) for c in (
    0x9E3779B97F4A7C15, 0xBF58476D1CE4E5B9, 0x94D049BB133111EB))


def context_keys(seed: int, members, ids, k: int) -> np.ndarray:
    """``(..., k)`` uniform keys in [0, 1), one per (seed, member, id, slot).

    ``members``, each sequence's member index, broadcasts against ``ids``.
    A key hashes its own four words, a counter-based draw (Salmon et al.,
    SC'11), so it is the same in any batch.  Each word is absorbed through
    SplitMix64's finaliser; ids are read as int64 bits, so negative ids hash
    too.  The arithmetic stays on arrays, where uint64 products wrap silently.
    """
    if not -2 ** 63 <= seed < 2 ** 63:
        raise ContractError(f"seed must lie in [-2**63, 2**63), got {seed}")
    state = np.zeros(1, dtype=np.uint64)
    for word in (np.array([seed], dtype=np.int64).view(np.uint64),
                 np.asarray(members, dtype=np.uint64)[..., None],
                 np.asarray(ids, dtype=np.int64).view(np.uint64)[..., None],
                 np.arange(k, dtype=np.uint64)):
        state = (state ^ word) + _GOLDEN
        state ^= state >> 30
        state *= _MIX1
        state ^= state >> 27
        state *= _MIX2
        state ^= state >> 31
    return (state >> 11) * 2.0 ** -53


def sequences(context: ContextPool, x, coords, picks):
    """``(feats, coords)`` of input sequences: each target row, then its picks.

    ``picks`` ``(..., l - 1)`` holds context-pool rows; the targets' ``x``
    ``(..., p)`` and ``coords`` ``(..., 2)`` broadcast against its leading
    axes.  ``feats`` ``(..., l, p + 1)`` ends in the observed target channel,
    0 in the target's own row (the model masks it); ``coords`` is ``(..., l, 2)``.
    """
    picks = np.asarray(picks, dtype=np.intp)
    head = picks.shape[:-1] + (1,)
    feats = np.concatenate([np.zeros(head + (context.feats.shape[1],)),
                            context.feats[picks]], axis=-2)
    feats[..., 0, :-1] = x
    seq_coords = np.concatenate([np.empty(head + (2,)), context.coords[picks]], axis=-2)
    seq_coords[..., 0, :] = coords
    return feats, seq_coords


def assemble_sequence(target_ids, cache: NeighborCache, context: ContextPool,
                      l_max: int, rng: np.random.Generator):
    """:func:`sequences` for context points, given by one id or an array of ids.

    Every id's context rows come from one :func:`subset_indices` call, on
    keys drawn from ``rng`` in flattened id order (none when the cache holds
    no surplus).  The shape of ``target_ids`` leads the
    sequence axes, so one id gives ``(l_max, p + 1)`` features and
    ``(l_max, 2)`` coordinates.
    """
    ids = np.asarray(target_ids)
    flat = ids.ravel().tolist()
    entries = cache.entries(flat)
    try:
        targets = np.array([context.row_of[qid] for qid in flat], dtype=np.intp)
    except KeyError as err:
        raise SequenceLookupError(f"id {err.args[0]} is not in the context pool") from None
    keys = rng.random(entries.shape) if entries.shape[1] > l_max else None
    picks = subset_indices(entries, targets, l_max, keys)
    targets = targets.reshape(ids.shape)
    return sequences(context, context.x[targets], context.coords[targets],
                     picks.reshape(ids.shape + (l_max - 1,)))
