"""Context/query pools, precomputed neighbour caches, and sequence assembly.

The data-loading side of the regressor keeps two pools of points: a context
pool of observed points (which owns a k-d tree over their coordinates) and a
query pool of points to be predicted.  Both read the columns of a
:class:`~geoagg.datasets.GeoDataset`: they check every row once, at
construction, and add an id -> row index, so a bad row fails there with one
line rather than wherever it is first read.
Neighbourhoods are looked up once per query point and cached; every input
sequence afterwards is assembled from the cache alone, so repeated epochs and
ensemble members never touch the tree.  Training, prediction and explanation
read context rows through one helper, :func:`gather`, at the cache positions
that :func:`subset_indices` picks.

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
from .datasets import GeoDataset, PointRecord
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
    "gather",
    "subset_indices",
    "neighbor_budget",
]


class SequenceLookupError(KeyError):
    """A requested id has no cache entry or pool record."""


class QueryPool:
    """Immutable pool of points to be predicted, checked once and read as columns.

    ``rows`` is a :class:`GeoDataset` or a list of :class:`PointRecord` rows.
    Every row is checked here, vectorised, and nowhere else: unique ids, then
    finite coordinates, covariates and targets.  The pool reads the dataset's
    ``ids`` ``(n,)``, ``coords`` ``(n, 2)`` and ``x`` ``(n, p)``, with
    ``row_of`` the id -> row index.
    """

    need_targets = False

    def __init__(self, rows):
        data = rows if isinstance(rows, GeoDataset) else GeoDataset.from_records(rows)
        self.data, self.ids, self.x = data, data.ids(), data.covariates()
        self.coords, observed = data.coords(), data.observed
        repeated = np.ones(len(self.ids), dtype=bool)
        repeated[np.unique(self.ids, return_index=True)[1]] = False
        for bad, message in (
            (repeated, "duplicate point id {}"),
            (~np.isfinite(self.coords).all(axis=1), "point id {} has non-finite coordinates"),
            (~np.isfinite(self.x).all(axis=1), "point id {} has non-finite covariates"),
            (~observed & self.need_targets, "context point id {} lacks a target value"),
            (observed & ~np.isfinite(data.targets()), "point id {} has a non-finite target"),
        ):
            if bad.any():  # name the first failing row
                raise ContractError(message.format(self.ids[bad.argmax()]))
        self.row_of = dict(zip(self.ids.tolist(), range(len(self.ids))))

    @property
    def records(self) -> list[PointRecord]:
        """The pool's rows as records: its dataset's derived view."""
        return self.data.records

    def __len__(self):
        return len(self.ids)


class ContextPool(QueryPool):
    """Immutable pool of observed points plus a k-d tree over their coords.

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
    """Balanced (median split, alternating axes) tree over a pool's points."""
    return KdTree(pool.coords, pool.ids)


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
    entries = {pid: context.tree.knn(uv, k)
               for pid, uv in zip(queries.ids.tolist(), queries.coords.tolist())}
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


def gather(context: ContextPool, entry, positions):
    """``(feats, coords)`` of the context rows at ``positions`` of a cached entry.

    The one path by which training, prediction and explanation read context
    rows: ``(len(positions), p + 1)`` covariates and observed targets, and
    ``(len(positions), 2)`` coordinates.
    """
    rows = [context.row_of[entry[i][0]] for i in positions]
    return context.feats[rows], context.coords[rows]


def assemble_sequence(target_id: int, cache: NeighborCache, context: ContextPool,
                      l_max: int, rng: np.random.Generator):
    """Build one model input sequence: a context point, then its neighbours.

    Returns ``(feats, coords)``: ``(l_max, p + 1)`` covariates with the
    observed target in the last channel (0 in the target's own row, which
    the model masks) and ``(l_max, 2)`` planar coordinates.
    """
    entry = cache[target_id]
    if len(entry) < l_max:
        raise ContractError(
            f"cache entry for id {target_id} holds {len(entry)} neighbors, "
            f"need at least l_max={l_max}"
        )
    row = context.row_of.get(target_id)
    if row is None:
        raise SequenceLookupError(f"id {target_id} is not in the context pool")
    feats, coords = gather(context, entry, subset_indices(entry, target_id, l_max, rng))
    feats = np.vstack([context.feats[row], feats])
    feats[0, -1] = 0.0
    return feats, np.vstack([context.coords[row], coords])
