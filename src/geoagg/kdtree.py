"""Planar nearest-neighbour index with exact, batched k-nearest-neighbour queries.

The index is numpy alone: a uniform grid of square cells over the bounding
box of the points, which are stored in cell order, so that one row of cells
is one contiguous run of points.  A search gives each query the smallest
square window of cells around its own cell that holds enough points (read
off a summed-area table of cell counts), ranks the window's points, and
accepts the answer once its k-th distance lies clear of the window's edges.
A query that fails that test is searched again in a window wide enough for
the distance it found.  A window that reaches every edge of the grid holds
the whole pool and is always accepted, so the search is exact.  Every
batch, down to one query, takes this one route.

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
# mean points per grid cell
_POINTS_PER_CELL = 1
# circles hold this many times k points, at the mean density
_SLACK = 1.2
# window reaches tried at once, half a cell apart
_LADDER = 4
# relative margin on the window test: far above float rounding
_MARGIN = 1e-9


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
        self.size = n = coords.shape[0]
        self.query_count = 0
        self._lo, self._hi = coords.min(axis=0), coords.max(axis=0)
        extent = self._hi - self._lo
        cells = max(1, n // _POINTS_PER_CELL)
        # square cells, at most `cells` along either axis (any side when all coincide)
        side = max(np.sqrt(extent[0] * extent[1] / cells), extent.max() / cells)
        self._side = side = side if side > 0 else 1.0
        self._shape = (extent // side).astype(np.int64) + 1  # cells along u, v
        self._last = self._shape - 1
        self._steps = np.arange(_LADDER) * (side / 2.0)
        nu, nv = self._shape
        cell = np.minimum(((coords - self._lo) // side).astype(np.int64), self._shape - 1)
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
        ``(squared distance, id)``.
        """
        if k < 1:
            raise ContractError(f"k must be at least 1, got {k}")
        points = np.asarray(points, dtype=np.float64).reshape(-1, 2)
        self.query_count += len(points)
        k = min(k, self.size)
        pos = np.empty((len(points), k), dtype=np.int64)
        d2 = np.empty((len(points), k))
        reach, held = self._fitting_reach(points, k)
        # blocks of queries with like windows, so that little padding is ranked
        todo = np.argsort(held, kind="stable")
        while len(todo):
            now, todo = todo[:_BLOCK], todo[_BLOCK:]
            cand, bound = self._window(points[now], reach[now])
            got, got_d2 = self._ranked(points[now], cand, k)
            done = got_d2[:, -1] * (1.0 + _MARGIN) < bound * bound
            if done.all():
                pos[now], d2[now] = got, got_d2
                continue
            pos[now[done]], d2[now[done]] = got[done], got_d2[done]
            # again, in a window wide enough for the k-th distance found
            now = now[~done]
            reach[now] = np.maximum(np.sqrt(got_d2[~done, -1]) * (1.0 + _MARGIN)
                                    + 2.0 * self._tol, reach[now] + self._side)
            todo = np.concatenate([todo, now])
        return self._order[pos], d2

    def _cells(self, offset, reach):
        """The first and last grid cells ``(..., 2)`` within ``reach`` of each point.

        ``offset`` is ``(..., 2)`` points less the grid's corner, and
        ``reach`` broadcasts against ``offset[..., 0]``.
        """
        reach = reach[..., None]
        lo = np.maximum((offset - reach) // self._side, 0.0)
        hi = np.minimum((offset + reach) // self._side, self._last)
        return np.minimum(lo, self._last).astype(np.int64), np.maximum(hi, 0.0).astype(np.int64)

    def _fitting_reach(self, points, k: int):
        """Per query, the least reach, in half cells, whose window holds enough
        points, and the count its window holds.

        Enough is what a window needs, at the pool's mean density, for the
        circle of that reach to hold ``_SLACK`` times k points.  A query
        outside the bounding box starts that far beyond its distance to it.
        """
        fill = math.sqrt(_POINTS_PER_CELL)
        need = min(self.size, (2.0 * math.sqrt(_SLACK * k / math.pi) + fill) ** 2)
        outside = np.maximum(self._lo - points, points - self._hi).max(axis=1)
        start = (self._side * max(0.0, math.sqrt(need) - fill) / (2.0 * fill)
                 + np.maximum(outside, 0.0))
        offset = points - self._lo
        reach = np.empty(len(points))
        held = np.empty(len(points), dtype=np.int64)
        short = np.arange(len(points))
        sat = self._sat
        while len(short):
            # `_LADDER` reaches per query, one summed-area lookup for them all
            tried = start[short, None] + self._steps
            lo, hi = self._cells(offset[short, None], tried)
            hi += 1
            count = (sat[hi[..., 1], hi[..., 0]] - sat[lo[..., 1], hi[..., 0]]
                     - sat[hi[..., 1], lo[..., 0]] + sat[lo[..., 1], lo[..., 0]])
            enough = count >= need
            fits = enough.any(axis=1)
            first = enough.argmax(axis=1)[fits]
            reach[short[fits]] = tried[fits, first]
            held[short[fits]] = count[fits, first]
            short = short[~fits]
            start[short] += _LADDER * self._side / 2.0
        return reach, held

    def _window(self, points, reach):
        """Storage positions of the points in each query's window, and its bound.

        The window is the cells within ``reach`` of the query.  Returns
        ``(cand, bound)``: ``cand`` ``(m, width)`` positions, padded with the
        sentinel, and ``bound`` the distance below which no point outside the
        window can lie (infinite where the window holds the pool).
        """
        nu, nv = self._shape
        offset = points - self._lo
        lo, hi = self._cells(offset, reach)
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
