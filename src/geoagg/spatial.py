"""Context/query pools, precomputed neighbour caches, and sequence assembly.

The data-loading side of the regressor keeps two pools of points: a context
pool of observed points (which owns a k-d tree over their coordinates) and a
query pool of points to be predicted.  Neighbourhoods are looked up once per
query point and cached; every input sequence afterwards is assembled from the
cache alone, so repeated epochs and ensemble members never touch the tree.

An input sequence is the target point followed by ``l_max - 1`` of its cached
neighbours.  The cache deliberately over-fetches by an expansion factor, and
the surplus is removed uniformly at random, which is what gives ensemble
members distinct context draws.  One cached slot is reserved for the target
itself: if the target appears in the cache (training-style pools) that slot is
dropped by id, otherwise the farthest candidate is discarded.  Either way the
sampling pool has exactly ``k' - 1`` entries, so an expansion factor of 1.0
yields fully deterministic sequences.

Pools, trees, and caches are immutable after construction and safe to share
across concurrent readers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .autodiff import ContractError
from .kdtree import KdTree

__all__ = [
    "PointRecord",
    "ContextPool",
    "QueryPool",
    "NeighborCache",
    "SequenceLookupError",
    "build_tree",
    "precompute_neighbors",
    "assemble_sequence",
    "subset_indices",
    "neighbor_budget",
]


class SequenceLookupError(KeyError):
    """A requested id has no cache entry or pool record."""


@dataclass(frozen=True)
class PointRecord:
    """One row of geospatial tabular data: id, planar coords, covariates, target."""

    id: int
    u: float
    v: float
    x: np.ndarray
    y: float | None = None


def _check_records(records):
    records = tuple(records)
    seen = set()
    for r in records:
        if r.id in seen:
            raise ContractError(f"duplicate point id {r.id}")
        seen.add(r.id)
        if not (math.isfinite(r.u) and math.isfinite(r.v)):
            raise ContractError(f"point id {r.id} has non-finite coordinates")
        if not np.isfinite(r.x).all():
            raise ContractError(f"point id {r.id} has non-finite covariates")
        if r.y is not None and not math.isfinite(r.y):
            raise ContractError(f"point id {r.id} has a non-finite target")
    return records


class ContextPool:
    """Immutable pool of observed points plus a k-d tree over their coords."""

    def __init__(self, records):
        records = _check_records(records)
        if not records:
            raise ContractError("context pool must not be empty")
        self.records = records
        self.by_id = {r.id: r for r in records}
        self.tree = build_tree(self)

    def __len__(self):
        return len(self.records)


class QueryPool:
    """Immutable pool of points to be predicted."""

    def __init__(self, records):
        self.records = _check_records(records)
        self.by_id = {r.id: r for r in self.records}

    def __len__(self):
        return len(self.records)


def build_tree(pool: ContextPool) -> KdTree:
    """Balanced (median split, alternating axes) tree over a pool's points."""
    coords = np.array([[r.u, r.v] for r in pool.records])
    ids = np.array([r.id for r in pool.records])
    return KdTree(coords, ids)


@dataclass
class NeighborCache:
    """Per-query-id neighbour lists, each ascending in (distance, id)."""

    entries: dict[int, list[tuple[int, float]]] = field(default_factory=dict)
    k: int = 0

    def __getitem__(self, qid: int) -> list[tuple[int, float]]:
        try:
            return self.entries[qid]
        except KeyError:
            raise SequenceLookupError(f"no cached neighbors for id {qid}") from None

    def __contains__(self, qid: int) -> bool:
        return qid in self.entries

    def __len__(self):
        return len(self.entries)


def neighbor_budget(l_max: int, expansion: float) -> int:
    """Cache depth k' for a given max sequence length and expansion factor."""
    if expansion < 1.0:
        raise ContractError(f"expansion factor must be >= 1, got {expansion}")
    return int(math.ceil(expansion * l_max))


def precompute_neighbors(queries: QueryPool, context: ContextPool, k: int) -> NeighborCache:
    """Query the context tree once per query point and cache the results."""
    entries = {r.id: context.tree.knn((r.u, r.v), k) for r in queries.records}
    return NeighborCache(entries=entries, k=k)


def subset_indices(entry, target_id: int, l_max: int, rng: np.random.Generator):
    """Positions within a cached entry chosen for one sequence.

    Drops the target's own slot by id when present, otherwise the farthest
    candidate, then keeps ``l_max - 1`` of the remaining candidates (uniformly
    at random when there is surplus, in ascending distance order always).
    """
    positions = [i for i, (cid, _) in enumerate(entry) if cid != target_id]
    if len(positions) == len(entry) and positions:
        positions = positions[:-1]
    slots = l_max - 1
    if len(positions) > slots:
        pick = rng.choice(len(positions), size=slots, replace=False)
        pick.sort()
        positions = [positions[i] for i in pick]
    return positions


def assemble_sequence(target_id: int, cache: NeighborCache, context: ContextPool,
                      l_max: int, rng: np.random.Generator,
                      target: PointRecord | None = None):
    """Build one model input sequence: the target point, then its neighbours.

    Returns ``(feats, coords)``: ``(l_max, p + 1)`` covariates with the
    observed target in the last channel (0 in the target's own row, which
    the model masks) and ``(l_max, 2)`` planar coordinates.  ``target``
    overrides the context record for the target point (needed when the
    target is not an observed point, or has been perturbed); neighbours
    always come from the context pool by id.
    """
    entry = cache[target_id]
    if len(entry) < l_max:
        raise ContractError(
            f"cache entry for id {target_id} holds {len(entry)} neighbors, "
            f"need at least l_max={l_max}"
        )
    if target is None:
        try:
            target = context.by_id[target_id]
        except KeyError:
            raise SequenceLookupError(
                f"id {target_id} is not in the context pool and no target record was given"
            ) from None
    records = [target] + [context.by_id[entry[i][0]]
                          for i in subset_indices(entry, target_id, l_max, rng)]
    p = len(target.x)
    feats = np.zeros((len(records), p + 1))
    coords = np.empty((len(records), 2))
    for i, rec in enumerate(records):
        if len(rec.x) != p:
            raise ContractError(
                f"record id {rec.id} carries {len(rec.x)} covariates, target has {p}"
            )
        feats[i, :p] = rec.x
        coords[i] = rec.u, rec.v
        if i > 0:
            if rec.y is None:
                raise ContractError(f"context record id {rec.id} lacks a target value")
            feats[i, p] = rec.y
    return feats, coords
