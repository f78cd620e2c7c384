"""Planar nearest-neighbour index with exact, batched k-nearest-neighbour queries.

The index is numpy alone: a uniform grid of square cells, about one point
each, over the bounding box of the points, which are stored in cell order,
so that one row of cells is one contiguous run of points.  Every window is
the square of cells within an integer ring of a query's own cell, the
nearest edge cell for a query outside the box.  A search gives each query
the least ring whose window holds enough points (read off a summed-area
table of cell counts), ranks the window's points, and accepts the answer
once its k-th distance lies clear of the window's edges.  A query that
fails that test is ranked again in a ring at least one cell wider and wide
enough for the distance it found.  A ring as wide as the grid holds the
whole pool and is always accepted, so the search is exact.  Every batch,
down to one query, takes this one route.

Squared distances are ``du*du + dv*dv``, and every neighbour list is
ordered by ``(squared distance, id)``, so distance ties break towards the
smaller point id and query results (and everything cached from them) are a
pure function of the points.  A query counter records how many points were
searched for; the caching layer uses it to prove that precomputed
neighbourhoods never fall back to live searches.

The class keeps the name ``KdTree``, and its ``search``, ``knn``,
``query_count`` and ``reset_query_count``, because the benchmark under
``perfbench/`` binds them.
"""

from __future__ import annotations

import math

import numpy as np

from .autodiff import ContractError

__all__ = ["KdTree"]

# queries ranked at a time
_BLOCK = 256
# circles hold this many times k points, at the mean density
_SLACK = 1.2
# relative margin on the window test: far above float rounding
_MARGIN = 1e-9
# per-axis span below which a squared distance stays finite in float64
_REACH = 2.0 ** 510


class KdTree:
    """Static index over ``(u, v)`` points with integer ids."""

    def __init__(self, coords, ids):
        coords = np.asarray(coords, dtype=np.float64).reshape(-1, 2)
        ids = np.asarray(ids, dtype=np.int64).reshape(-1)
        if coords.shape[0] == 0:
            raise ContractError("cannot build a k-d tree over an empty pool")
        if coords.shape[0] != ids.shape[0]:
            raise ContractError("coords and ids disagree in length")
        if not np.isfinite(coords).all():
            raise ContractError("coordinates must be finite")
        self._lo, self._hi = coords.min(axis=0), coords.max(axis=0)
        if (self._hi > self._lo + _REACH).any():
            raise ContractError("coordinates must span at most 2**510 along each axis")
        self.size = n = coords.shape[0]
        self.query_count = 0
        extent = self._hi - self._lo
        # square cells, about one point each, at most n a side (any side when all coincide)
        side = max(np.sqrt(extent[0] * extent[1] / n), extent.max() / n)
        self._side = side = side if side > 0 else 1.0
        self._last = (extent // side).astype(np.int64)  # last cell along u, v
        nu, nv = self._last + 1
        cell = self._cell(coords)
        flat = cell[:, 1] * nu + cell[:, 0]
        self._order = np.argsort(flat, kind="stable")  # storage position -> row
        counts = np.bincount(flat, minlength=nu * nv)
        self._start = np.concatenate(([0], np.cumsum(counts)))
        self._sat = np.zeros((nv + 1, nu + 1), dtype=np.int64)
        self._sat[1:, 1:] = counts.reshape(nv, nu).cumsum(axis=0).cumsum(axis=1)
        # points in storage order, then a sentinel at infinity that pads windows
        self._u = np.append(coords[self._order, 0], np.inf)
        self._v = np.append(coords[self._order, 1], np.inf)
        rank = np.empty(n, dtype=np.int64)
        rank[np.argsort(ids, kind="stable")] = np.arange(n)
        self._rank = np.append(rank[self._order], n)
        self._ids = ids
        self._tol = _MARGIN * (np.abs(coords).max() + side)

    def reset_query_count(self) -> None:
        self.query_count = 0

    def search(self, points, k: int):
        """Rows of the ``k`` nearest points to each of ``points``, with their d2.

        Returns ``(rows, d2)``, both ``(n, min(k, size))``: row indices into
        the index's points and squared distances, each row ordered by
        ``(squared distance, id)``.  A non-finite query point, or one more
        than 2**510 outside the points' bounding box along an axis, is
        rejected before any work, as the constructor rejects a pool that is
        non-finite or spans more than that: squared distances stay finite.
        """
        if k < 1:
            raise ContractError(f"k must be at least 1, got {k}")
        points = np.asarray(points, dtype=np.float64).reshape(-1, 2)
        if not np.isfinite(points).all():
            raise ContractError("query coordinates must be finite")
        if ((points < self._lo - _REACH) | (points > self._hi + _REACH)).any():
            raise ContractError("query coordinates must lie within 2**510 of the pool "
                                "along each axis")
        self.query_count += len(points)
        k = min(k, self.size)
        pos = np.empty((len(points), k), dtype=np.int64)
        d2 = np.empty((len(points), k))
        cell = self._cell(points)
        ring, held = self._fitting_ring(cell, k)
        # blocks of queries with like windows, so that little padding is ranked
        todo = np.argsort(held, kind="stable")
        while len(todo):
            now, todo = todo[:_BLOCK], todo[_BLOCK:]
            cand, bound = self._window(points[now], cell[now], ring[now])
            got, got_d2 = self._ranked(points[now], cand, k)
            done = got_d2[:, -1] * (1.0 + _MARGIN) < bound * bound
            if done.all():
                pos[now], d2[now] = got, got_d2
                continue
            pos[now[done]], d2[now[done]] = got[done], got_d2[done]
            # again, wide enough for the k-th distance found and at least one ring wider
            now = now[~done]
            reach = np.sqrt(got_d2[~done, -1]) * (1.0 + _MARGIN) + 2.0 * self._tol
            ring[now] = np.clip(np.ceil(reach / self._side), ring[now] + 1, self._last.max())
            todo = np.concatenate([todo, now])
        return self._order[pos], d2

    def _cell(self, points):
        """The grid cell ``(m, 2)`` of each point, clipped to the grid."""
        return np.clip((points - self._lo) // self._side, 0, self._last).astype(np.int64)

    def _span(self, cell, ring):
        """The first and last cells ``(m, 2)`` of each window, clipped to the grid."""
        return np.maximum(cell - ring[:, None], 0), np.minimum(cell + ring[:, None], self._last)

    def _fitting_ring(self, cell, k: int):
        """Per query, the least ring whose window holds enough points, and its count.

        Enough is what a square needs, at the pool's mean density, for its
        inscribed circle to hold ``_SLACK`` times k points.
        """
        need = min(self.size, (2.0 * math.sqrt(_SLACK * k / math.pi) + 1.0) ** 2)
        ring = np.full(len(cell), int((math.sqrt(need) - 1.0) // 2))
        held = np.empty(len(cell), dtype=np.int64)
        short = np.arange(len(cell))
        sat = self._sat
        while len(short):
            lo, hi = self._span(cell[short], ring[short])
            hi += 1
            held[short] = (sat[hi[:, 1], hi[:, 0]] - sat[lo[:, 1], hi[:, 0]]
                           - sat[hi[:, 1], lo[:, 0]] + sat[lo[:, 1], lo[:, 0]])
            short = short[held[short] < need]
            ring[short] += 1
        return ring, held

    def _window(self, points, cell, ring):
        """Storage positions of the points in each query's window, and its bound.

        The window is the cells within ``ring`` of the query's cell.  Returns
        ``(cand, bound)``: ``cand`` ``(m, width)`` positions, padded with the
        sentinel, and ``bound`` the distance below which no point outside the
        window can lie (infinite where the window holds the pool).
        """
        nu = self._last[0] + 1
        offset = points - self._lo
        lo, hi = self._span(cell, ring)
        below = np.where(lo > 0, offset - lo * self._side, np.inf)
        above = np.where(hi < self._last, (hi + 1) * self._side - offset, np.inf)
        bound = np.minimum(below.min(axis=1), above.min(axis=1)) - self._tol
        # one run of storage positions per row of cells in the window
        lines = lo[:, 1, None] + np.arange((hi[:, 1] - lo[:, 1]).max() + 1)
        inside = lines <= hi[:, 1, None]
        lines = np.minimum(lines, hi[:, 1, None]) * nu
        begin = self._start[lines + lo[:, 0, None]]
        runs = np.where(inside, self._start[lines + hi[:, 0, None] + 1] - begin, 0).ravel()
        held = runs.reshape(len(points), -1).sum(axis=1)
        flat = (np.repeat(begin.ravel() - (np.cumsum(runs) - runs), runs)
                + np.arange(held.sum()))
        cand = np.full((len(points), held.max()), self.size)
        cand[np.arange(held.max()) < held[:, None]] = flat
        return cand, np.maximum(bound, 0.0)

    def _ranked(self, points, cand, k: int):
        """Storage positions and d2 of the ``k`` nearest candidates, by ``(d2, id)``.

        ``cand`` ``(m, width)`` holds each query's candidate positions.
        """
        d2 = np.subtract(points[:, :1], self._u[cand])
        d2 *= d2
        dv = np.subtract(points[:, 1:], self._v[cand])
        dv *= dv
        d2 += dv
        rows = np.arange(len(d2))[:, None]
        order = np.argsort(d2, axis=1)
        d2 = d2[rows, order]
        # every point tied with a k-th nearest contends for its place
        width = k + int((d2[:, k:] == d2[:, k - 1:k]).sum(axis=1).max())
        d2, order = d2[:, :width], order[:, :width]
        pos = cand[rows, order]
        tied = d2[:, 1:] == d2[:, :-1]
        if tied.any():
            # equal distances, ordered by id: sort on (distance group, id rank)
            group = np.zeros(d2.shape, dtype=np.int64)
            np.cumsum(~tied, axis=1, out=group[:, 1:])
            pos = pos[rows, np.argsort(group * (self.size + 1) + self._rank[pos], axis=1)]
        return pos[:, :k], d2[:, :k]

    def knn(self, point, k: int) -> list[tuple[int, float]]:
        """The ``k`` nearest points as ``(id, squared distance)``, ascending.

        Ordering is by ``(squared distance, id)``; asking for more points than
        the index holds returns the whole pool.
        """
        rows, d2 = self.search([point], k)
        return list(zip(self._ids[rows[0]].tolist(), d2[0].tolist()))
