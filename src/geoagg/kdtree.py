"""Planar k-d tree with exact, batched k-nearest-neighbour queries.

The tree is scipy's ``cKDTree``; this module makes its answers exact and
deterministic.  Squared distances are recomputed as ``du*du + dv*dv`` and
every neighbour list is ordered by ``(squared distance, id)``, so distance
ties break towards the smaller point id and query results (and everything
cached from them) are a pure function of the points.  Where the first point
left out of a candidate list is not shown to lie past the k-th kept one (a
tie, or a near tie within rounding), a ball search at a radius just above
the k-th distance completes the list.  A query counter records how many
points were searched for; the caching layer uses it to prove that
precomputed neighbourhoods never fall back to live searches.
"""

from __future__ import annotations

import numpy as np
from scipy.spatial import cKDTree

from .autodiff import ContractError

__all__ = ["KdTree"]

# candidates fetched past k, so that a short tie group is resolved without a
# ball search
_SLACK = 8
# relative margin on distances: far above cKDTree's few-ulp rounding
_MARGIN = 1e-9


class KdTree:
    """Static 2-D tree over ``(u, v)`` points with integer ids."""

    def __init__(self, coords, ids):
        coords = np.asarray(coords, dtype=np.float64).reshape(-1, 2)
        ids = np.asarray(ids, dtype=np.int64).reshape(-1)
        if coords.shape[0] == 0:
            raise ContractError("cannot build a k-d tree over an empty pool")
        if coords.shape[0] != ids.shape[0]:
            raise ContractError("coords and ids disagree in length")
        if not np.isfinite(coords).all():
            raise ContractError("coordinates must be finite")
        self.size = coords.shape[0]
        self.query_count = 0
        self._coords, self._ids = coords, ids
        self._tree = cKDTree(coords)

    def reset_query_count(self) -> None:
        self.query_count = 0

    def _ranked(self, points, rows):
        """``rows`` re-ranked per point by ``(d2, id)``, with their d2."""
        du = points[:, None, 0] - self._coords[rows, 0]
        dv = points[:, None, 1] - self._coords[rows, 1]
        d2 = du * du + dv * dv
        order = np.lexsort((self._ids[rows], d2), axis=-1)
        return (np.take_along_axis(rows, order, axis=-1),
                np.take_along_axis(d2, order, axis=-1))

    def search(self, points, k: int):
        """Rows of the ``k`` nearest points to each of ``points``, with their d2.

        Returns ``(rows, d2)``, both ``(n, min(k, size))``: row indices into
        the tree's points and squared distances, each row ordered by
        ``(squared distance, id)``.
        """
        if k < 1:
            raise ContractError(f"k must be at least 1, got {k}")
        points = np.asarray(points, dtype=np.float64).reshape(-1, 2)
        self.query_count += len(points)
        k = min(k, self.size)
        fetch = min(k + _SLACK, self.size)
        dist, rows = self._tree.query(points, range(1, fetch + 1))
        rows, d2 = self._ranked(points, rows)
        rows, d2 = rows[:, :k], d2[:, :k]
        # a point left out lies at least dist[:, -1] away: where that is not
        # past the k-th kept point, a ball search finds every contender
        open_ = np.flatnonzero(dist[:, -1] ** 2 <= d2[:, -1] * (1.0 + _MARGIN))
        if fetch < self.size and len(open_):
            radii = np.sqrt(d2[open_, -1]) * (1.0 + _MARGIN)
            for i, ball in zip(open_, self._tree.query_ball_point(points[open_], radii)):
                ball_rows, ball_d2 = self._ranked(points[i:i + 1], np.array([ball]))
                rows[i], d2[i] = ball_rows[0, :k], ball_d2[0, :k]
        return rows, d2

    def knn(self, point, k: int) -> list[tuple[int, float]]:
        """The ``k`` nearest points as ``(id, squared distance)``, ascending.

        Ordering is by ``(squared distance, id)``; asking for more points than
        the tree holds returns the whole pool.
        """
        rows, d2 = self.search([point], k)
        return list(zip(self._ids[rows[0]].tolist(), d2[0].tolist()))
