"""k-d tree, pools, neighbour cache, and sequence assembly tests."""

import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from geoagg.autodiff import ContractError
from geoagg.datasets import GeoDataset, generate_gwr
from geoagg.kdtree import KdTree
from geoagg.spatial import (
    ContextPool,
    PointRecord,
    QueryPool,
    SequenceLookupError,
    assemble_sequence,
    build_tree,
    context_keys,
    neighbor_budget,
    precompute_neighbors,
    subset_indices,
)
from geoagg.pipeline import split_dataset


def brute_force_knn(coords, ids, query, k):
    """Distance-sort oracle with the same (d2, id) tie-break."""
    d2 = ((np.asarray(coords) - np.asarray(query)) ** 2).sum(axis=1)
    order = sorted(range(len(ids)), key=lambda i: (d2[i], ids[i]))
    return [(int(ids[i]), float(d2[i])) for i in order[: min(k, len(ids))]]


def make_records(coords, start_id=0, rng=None):
    rng = np.random.default_rng(0) if rng is None else rng
    return [
        PointRecord(start_id + i, float(u), float(v), rng.normal(size=2), float(rng.normal()))
        for i, (u, v) in enumerate(coords)
    ]


class TestKdTree:
    def test_single_point(self):
        tree = KdTree([[0.3, 0.7]], [5])
        assert tree.knn((0.9, 0.1), 1) == [(5, pytest.approx(0.72))]

    def test_query_at_indexed_point(self):
        rng = np.random.default_rng(1)
        coords = rng.random((40, 2))
        tree = KdTree(coords, np.arange(40))
        got = tree.knn(coords[17], 1)
        assert got[0][0] == 17
        assert got[0][1] == 0.0

    def test_far_query_over_tiny_cells(self):
        """A query 1e10 cells of 1e-300 away maps to the edge cell without overflow."""
        rows, d2 = KdTree([[0, 0], [1e-300, 0]], [0, 1]).search([[1e10, 0.0]], 1)
        assert rows.tolist() == [[0]]
        assert d2.tolist() == [[1e20]]

    def test_k_larger_than_pool_is_clamped(self):
        rng = np.random.default_rng(2)
        coords = rng.random((6, 2))
        tree = KdTree(coords, np.arange(6))
        assert len(tree.knn((0.5, 0.5), 11)) == 6

    def test_duplicate_coordinates_both_retrievable(self):
        tree = KdTree([[0.5, 0.5], [0.5, 0.5], [0.9, 0.9]], [2, 1, 3])
        got = tree.knn((0.5, 0.5), 2)
        assert got == [(1, 0.0), (2, 0.0)]

    def test_empty_pool_rejected(self):
        with pytest.raises(ContractError):
            KdTree(np.zeros((0, 2)), [])

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_query_rejected_before_work(self, bad):
        tree = KdTree(np.random.default_rng(6).random((50, 2)), np.arange(50))
        with pytest.raises(ContractError, match="^query coordinates must be finite$"):
            tree.search([[0.2, 0.3], [bad, 0.5]], 5)
        with pytest.raises(ContractError, match="^query coordinates must be finite$"):
            tree.knn((0.5, bad), 1)
        assert tree.query_count == 0

    @pytest.mark.parametrize("pool, query, message", [
        ([[0, 0], [1, 1], [2, 0.5]], [1e200, 0.0],
         "query coordinates must lie within 2**510 of the pool along each axis"),
        ([[0, 0], [1e200, 0]], [0.0, 0.0],
         "coordinates must span at most 2**510 along each axis"),
    ], ids=["far-query", "wide-pool"])
    def test_overflowing_distances_rejected_in_one_line(self, pool, query, message,
                                                        time_limit):
        """Squared distances that would overflow float64 are refused before
        any arithmetic; they once made the search loop forever."""
        with time_limit(10), pytest.raises(ContractError, match=f"^{re.escape(message)}$"):
            KdTree(pool, np.arange(len(pool))).search([query], 2)

    def test_distances_just_inside_the_bound_stay_finite(self, time_limit):
        reach = 2.0 ** 510
        tree = KdTree([[0.0, 0.0], [reach, 1.0]], [0, 1])
        with time_limit(10):
            rows, d2 = tree.search([[-reach, reach + 1.0], [0.5 * reach, 0.0]], 2)
        assert np.isfinite(d2).all()
        assert rows.tolist() == [[0, 1], [0, 1]]

    def test_thousand_points_match_brute_force(self):
        rng = np.random.default_rng(3)
        coords = rng.random((1000, 2))
        ids = rng.permutation(1000)
        tree = KdTree(coords, ids)
        for q in rng.random((25, 2)):
            assert tree.knn(q, 10) == brute_force_knn(coords, ids, q, 10)

    def test_randomized_suite_matches_brute_force(self):
        """50+ randomized (pool, k) cases, with coordinate ties and without.

        Each case asks one point alone, a batch of ten, some of them outside
        the pool's bounding box, and an empty batch.
        """
        rng = np.random.default_rng(4)
        for trial in range(60):
            n = int(rng.integers(1, 400))
            coords = rng.random((n, 2))
            if trial % 4 != 3:  # the others continuous
                coords = np.round(coords, 2 if trial % 4 else 1)
            ids = rng.permutation(n) + 10
            tree = KdTree(coords, ids)
            k = int(rng.integers(1, 17))
            q = rng.random(2)
            assert tree.knn(q, k) == brute_force_knn(coords, ids, q, k), trial
            batch = rng.random((10, 2)) * 2.0 - 0.5
            rows, d2 = tree.search(batch, k)
            for i, q in enumerate(batch):
                got = list(zip(ids[rows[i]].tolist(), d2[i].tolist()))
                assert got == brute_force_knn(coords, ids, q, k), (trial, i)
            rows, d2 = tree.search(np.empty((0, 2)), k)
            assert rows.shape == d2.shape == (0, min(k, n)), trial
            assert rows.dtype == np.int64 and d2.dtype == np.float64

    def test_results_sorted_by_distance(self):
        rng = np.random.default_rng(5)
        coords = rng.random((120, 2))
        tree = KdTree(coords, np.arange(120))
        for q in rng.random((10, 2)):
            d2s = [d2 for _, d2 in tree.knn(q, 30)]
            assert d2s == sorted(d2s)

    @pytest.mark.parametrize("k", [9, 80])
    @pytest.mark.parametrize("pool", ["uniform", "gwr-train"])
    def test_search_work_per_query(self, monkeypatch, pool, k):
        """A pool searched for its own points ranks about one window per query,
        of at most 2.5 k + 20 candidates, sentinel padding included."""
        if pool == "uniform":
            coords = np.random.default_rng(8).random((1750, 2))
        else:
            coords = split_dataset(generate_gwr(2500, 42), 0.7, 0)[0].coords()
        work = {"rows": 0, "candidates": 0}
        window = KdTree._window

        def counted(self, points, *args):
            cand, bound = window(self, points, *args)
            work["rows"] += len(points)
            work["candidates"] += cand.size
            return cand, bound

        monkeypatch.setattr(KdTree, "_window", counted)
        KdTree(coords, np.arange(len(coords))).search(coords, k)
        assert work["rows"] <= 1.01 * len(coords)
        assert work["candidates"] <= (2.5 * k + 20) * len(coords)

    def test_query_counter(self):
        tree = KdTree([[0.1, 0.1], [0.2, 0.9]], [0, 1])
        assert tree.query_count == 0
        tree.knn((0.5, 0.5), 1)
        tree.knn((0.5, 0.5), 2)
        assert tree.query_count == 2
        tree.reset_query_count()
        assert tree.query_count == 0


@st.composite
def tied_search(draw):
    """Points and queries in the layouts a search has to get right.

    Returns ``(coords, ids, queries, k)``: up to 80 points with distinct ids
    in any order, up to 12 query points, and ``k`` from 1 to past the pool
    size.  The points lie on a coarse grid, so many distances tie and
    duplicates are likely; at continuous positions; in a tight cluster with
    far outliers; all at one coordinate; or on a line with no extent along
    one axis.  Queries lie on the same grid, or anywhere in a box three
    times as wide as the points' bounding box, so that some fall outside
    it.
    """
    n = draw(st.integers(1, 80))
    side = draw(st.integers(1, 7))
    cell = st.tuples(st.integers(0, side), st.integers(0, side))
    layout = draw(st.sampled_from(["grid", "continuous", "cluster", "one point", "line"]))
    if layout == "grid":
        coords = np.array(draw(st.lists(cell, min_size=n, max_size=n)), dtype=np.float64) / side
    else:
        unit = st.tuples(st.floats(0.0, 1.0), st.floats(0.0, 1.0))
        coords = np.array(draw(st.lists(unit, min_size=n, max_size=n)), dtype=np.float64)
    if layout == "cluster":
        outliers = draw(st.integers(0, min(3, n - 1)))
        coords[outliers:] = 0.5 + 1e-4 * coords[outliers:]
        coords[:outliers] = 1000.0 * coords[:outliers] - 500.0
    elif layout == "one point":
        coords[:] = coords[0]
    elif layout == "line":
        axis = draw(st.integers(0, 1))
        coords[:, axis] = coords[0, axis]
    ids = np.array(draw(st.lists(st.integers(-10 ** 6, 10 ** 6),
                                 min_size=n, max_size=n, unique=True)))
    lo, extent = coords.min(axis=0), np.ptp(coords, axis=0) + 1e-3
    anywhere = st.tuples(st.floats(-1.0, 2.0), st.floats(-1.0, 2.0)).map(
        lambda t: tuple(lo + extent * np.array(t)))
    on_grid = cell.map(lambda c: (c[0] / side, c[1] / side))
    queries = np.array(draw(st.lists(st.one_of(on_grid, anywhere), min_size=1, max_size=12)),
                       dtype=np.float64)
    return coords, ids, queries, draw(st.integers(1, n + 3))


class TestBatchedSearch:
    @settings(max_examples=200, deadline=None, database=None)
    @given(case=tied_search())
    def test_search_knn_and_cache_equal_brute_force(self, case):
        coords, ids, queries, k = case
        tree = KdTree(coords, ids)
        rows, d2 = tree.search(queries, k)
        assert tree.query_count == len(queries)
        assert rows.shape == d2.shape == (len(queries), min(k, len(ids)))
        for i, q in enumerate(queries):
            want = brute_force_knn(coords, ids, q, k)
            assert list(zip(ids[rows[i]].tolist(), d2[i].tolist())) == want
            assert tree.knn(q, k) == want
        assert tree.query_count == 2 * len(queries)

        context = ContextPool(GeoDataset(ids, coords, np.zeros((len(ids), 1)),
                                         np.zeros(len(ids))))
        probes = QueryPool(GeoDataset(np.arange(len(queries)), queries,
                                      np.zeros((len(queries), 1)),
                                      [None] * len(queries)))
        cache = precompute_neighbors(probes, context, k)
        for qid, q in zip(probes.ids.tolist(), queries):
            assert cache[qid] == context.tree.knn(q, k)


@st.composite
def one_bad_row(draw):
    """A valid dataset with one fault planted at a random row.

    Returns ``(dataset, fault, id)``: the fault is a NaN or infinity in a
    coordinate, a covariate or the target, a blank target, or a repeated id,
    and ``id`` is the faulty row's id.
    """
    n = draw(st.integers(2, 10))
    p = draw(st.integers(1, 3))
    ids = draw(st.lists(st.integers(-10 ** 9, 10 ** 9), min_size=n, max_size=n, unique=True))
    values = st.floats(-1e6, 1e6)
    coords = draw(arrays(np.float64, (n, 2), elements=values))
    x = draw(arrays(np.float64, (n, p), elements=values))
    y = draw(arrays(np.float64, n, elements=values))
    observed = np.ones(n, dtype=bool)
    row = draw(st.integers(0, n - 1))
    fault = draw(st.sampled_from(["coordinate", "covariate", "target", "blank", "repeat"]))
    bad = draw(st.sampled_from([np.nan, np.inf, -np.inf]))
    if fault == "coordinate":
        coords[row, draw(st.integers(0, 1))] = bad
    elif fault == "covariate":
        x[row, draw(st.integers(0, p - 1))] = bad
    elif fault == "target":
        y[row] = bad
    elif fault == "blank":
        observed[row] = False
    else:
        ids[row] = ids[draw(st.sampled_from([i for i in range(n) if i != row]))]
    return GeoDataset(ids, coords, x, y, observed), fault, ids[row]


class TestPoolRejection:
    @settings(max_examples=150, deadline=None, database=None)
    @given(case=one_bad_row(), as_records=st.booleans())
    def test_one_bad_row_is_named_by_its_id(self, case, as_records):
        ds, fault, pid = case
        rows = ds.points if as_records else ds
        for pool in [ContextPool] if fault == "blank" else [QueryPool, ContextPool]:
            with pytest.raises(ContractError, match=rf"id {pid}(\s|$)"):
                pool(rows)
        if fault == "blank":
            assert len(QueryPool(rows)) == ds.n

class TestPools:
    def test_context_pool_owns_tree_over_its_points(self):
        recs = make_records(np.random.default_rng(6).random((15, 2)))
        pool = ContextPool(recs)
        assert pool.tree.size == 15
        got = pool.tree.knn((recs[4].u, recs[4].v), 1)
        assert got[0] == (recs[4].id, 0.0)

    def test_empty_context_pool_rejected(self):
        with pytest.raises(ContractError):
            ContextPool([])

    def test_duplicate_ids_rejected(self):
        recs = make_records([(0.1, 0.1), (0.2, 0.2)])
        with pytest.raises(ContractError, match="duplicate"):
            QueryPool([recs[0], recs[0]])

    def test_non_finite_values_rejected_with_their_id(self):
        """The gwr set, a 0.7 split, the first train point's x1 set to NaN."""
        train_ds, _ = split_dataset(generate_gwr(400, 1), 0.7, 0)
        first = train_ds.points[0]
        x = first.x.copy()
        x[0] = np.nan
        bad = [PointRecord(first.id, first.u, first.v, x, first.y)] + train_ds.points[1:]
        with pytest.raises(ContractError, match=f"id {first.id} has non-finite covariates"):
            ContextPool(bad)
        for y in (np.nan, np.inf):
            bad = [PointRecord(first.id, first.u, first.v, first.x, y)]
            with pytest.raises(ContractError, match=f"id {first.id} has a non-finite target"):
                QueryPool(bad)
        QueryPool([PointRecord(first.id, first.u, first.v, first.x, None)])

    def test_ragged_covariate_counts_rejected(self):
        recs = make_records([(0.1, 0.1), (0.2, 0.2), (0.3, 0.3)])
        ragged = recs[:2] + [PointRecord(recs[2].id, recs[2].u, recs[2].v,
                                         np.zeros(3), recs[2].y)]
        with pytest.raises(ContractError,
                           match=f"id {recs[2].id} carries 3 covariates"):
            ContextPool(ragged)
        with pytest.raises(ContractError, match="carries 3 covariates"):
            QueryPool(ragged)

    def test_context_point_without_target_rejected(self):
        recs = make_records([(0.1, 0.1), (0.2, 0.2)])
        blank = [recs[0], PointRecord(recs[1].id, recs[1].u, recs[1].v, recs[1].x, None)]
        with pytest.raises(ContractError,
                           match=f"context point id {recs[1].id} lacks a target value"):
            ContextPool(blank)
        assert len(QueryPool(blank)) == 2

    def test_columns_follow_the_records(self):
        recs = make_records(np.random.default_rng(11).random((7, 2)), start_id=40)
        pool = ContextPool(recs[::-1])
        for row, r in enumerate(recs[::-1]):
            assert pool.row_of[r.id] == row
            assert pool.ids[row] == r.id
            np.testing.assert_array_equal(pool.coords[row], [r.u, r.v])
            np.testing.assert_array_equal(pool.feats[row], [*r.x, r.y])

    def test_build_tree_standalone(self):
        pool = ContextPool(make_records([(0.0, 0.0), (1.0, 1.0)]))
        tree = build_tree(pool)
        assert tree.size == 2


class TestPrecompute:
    def test_self_is_own_nearest_neighbor(self):
        recs = make_records(np.random.default_rng(7).random((20, 2)))
        context = ContextPool(recs)
        cache = precompute_neighbors(QueryPool(recs), context, 1)
        for r in recs:
            assert cache[r.id] == [(r.id, 0.0)]

    def test_entries_equal_fresh_knn(self):
        rng = np.random.default_rng(8)
        ctx_recs = make_records(rng.random((60, 2)))
        qry_recs = make_records(rng.random((15, 2)), start_id=1000)
        context = ContextPool(ctx_recs)
        cache = precompute_neighbors(QueryPool(qry_recs), context, 9)
        for r in qry_recs:
            assert cache[r.id] == context.tree.knn((r.u, r.v), 9)

    def test_seven_three_split_yields_one_entry_per_query(self):
        rng = np.random.default_rng(9)
        recs = make_records(rng.random((2500, 2)))
        order = rng.permutation(2500)
        context = ContextPool([recs[i] for i in order[:1750]])
        queries = QueryPool([recs[i] for i in order[1750:]])
        cache = precompute_neighbors(queries, context, 8)
        assert len(cache) == 750

    def test_missing_id_names_the_id(self):
        cache = precompute_neighbors(
            QueryPool(make_records([(0.5, 0.5)])), ContextPool(make_records([(0.1, 0.1)])), 1
        )
        with pytest.raises(SequenceLookupError, match="12345"):
            cache[12345]


def seq_ids(sequence, recs):
    """Ids of an assembled sequence's rows, read back from their coordinates.

    The fixtures draw coordinates at random, so every point's are distinct.
    """
    by_coords = {(r.u, r.v): r.id for r in recs}
    return [by_coords[tuple(c)] for c in sequence[1]]


class TestAssembleSequence:
    def _setup(self, n=30, seed=10):
        rng = np.random.default_rng(seed)
        recs = make_records(rng.random((n, 2)), rng=rng)
        context = ContextPool(recs)
        return recs, context

    def test_no_surplus_is_deterministic(self):
        recs, context = self._setup()
        l_max = 8
        cache = precompute_neighbors(QueryPool(recs), context, l_max)
        a = assemble_sequence(recs[3].id, cache, context, l_max,
                              np.random.default_rng(1))
        b = assemble_sequence(recs[3].id, cache, context, l_max,
                              np.random.default_rng(999))
        assert seq_ids(a, recs) == seq_ids(b, recs)
        assert len(seq_ids(a, recs)) == l_max

    def test_no_surplus_deterministic_for_disjoint_query(self):
        recs, context = self._setup()
        l_max = 8
        probe = PointRecord(777, 0.5, 0.5, np.zeros(2), None)
        cache = precompute_neighbors(QueryPool([probe]), context, l_max)
        entry = cache.entries([777])[0]
        target = context.row_of.get(777, -1)
        a, b = (subset_indices(entry[None], [target], l_max,
                               np.random.default_rng(seed).random((1, l_max)))[0]
                for seed in (1, 2))
        assert seq_ids((context.feats[a], context.coords[a]), recs) == \
            seq_ids((context.feats[b], context.coords[b]), recs)

    def test_surplus_varies_with_seed_and_repeats_with_same_seed(self):
        recs, context = self._setup()
        l_max = 8
        cache = precompute_neighbors(QueryPool(recs), context, l_max + 4)
        seqs = {
            seed: seq_ids(assemble_sequence(recs[0].id, cache, context, l_max,
                                            np.random.default_rng(seed)), recs)
            for seed in (1, 2)
        }
        again = seq_ids(assemble_sequence(recs[0].id, cache, context, l_max,
                                          np.random.default_rng(1)), recs)
        assert seqs[1] == again
        assert seqs[1] != seqs[2]

    def test_target_heads_its_own_sequence_exactly_once(self):
        recs, context = self._setup()
        cache = precompute_neighbors(QueryPool(recs), context, 12)
        for rec in recs[:10]:
            seq = assemble_sequence(rec.id, cache, context, 8, np.random.default_rng(0))
            ids = seq_ids(seq, recs)
            assert ids[0] == rec.id
            assert ids.count(rec.id) == 1

    def test_neighbors_stay_sorted_by_distance(self):
        recs, context = self._setup()
        cache = precompute_neighbors(QueryPool(recs), context, 14)
        rec = recs[5]
        seq = assemble_sequence(rec.id, cache, context, 9, np.random.default_rng(3))
        d2 = [(u - rec.u) ** 2 + (v - rec.v) ** 2 for u, v in seq[1][1:]]
        assert d2 == sorted(d2)

    def test_features_follow_the_rows(self):
        """Covariates, then the observed target; the target's own is zeroed."""
        recs, context = self._setup()
        cache = precompute_neighbors(QueryPool(recs), context, 12)
        feats, coords = assemble_sequence(recs[2].id, cache, context, 8,
                                          np.random.default_rng(4))
        by_id = {r.id: r for r in recs}
        rows = [by_id[i] for i in seq_ids((feats, coords), recs)]
        np.testing.assert_array_equal(feats[:, :2], [r.x for r in rows])
        np.testing.assert_array_equal(feats[:, 2], [0.0] + [r.y for r in rows[1:]])

    def test_missing_cache_entry_raises_lookup_error(self):
        recs, context = self._setup()
        cache = precompute_neighbors(QueryPool(recs[:5]), context, 8)
        with pytest.raises(SequenceLookupError, match=str(recs[20].id)):
            assemble_sequence(recs[20].id, cache, context, 8, np.random.default_rng(0))

    def test_target_outside_the_context_pool_raises_lookup_error(self):
        recs, context = self._setup()
        probe = PointRecord(777, 0.5, 0.5, np.zeros(2), None)
        cache = precompute_neighbors(QueryPool([probe]), context, 8)
        with pytest.raises(SequenceLookupError, match="777"):
            assemble_sequence(777, cache, context, 8, np.random.default_rng(0))

    def test_entry_shorter_than_l_max_rejected(self):
        recs, context = self._setup(n=6)
        cache = precompute_neighbors(QueryPool(recs), context, 6)
        with pytest.raises(ContractError, match="l_max"):
            assemble_sequence(recs[0].id, cache, context, 10, np.random.default_rng(0))

    @pytest.mark.parametrize("shape", [(7,), (3, 4), (0,)])
    def test_id_array_equals_per_id_calls(self, shape):
        """An array of ids draws each id's subset in turn, as per-id calls do."""
        recs, context = self._setup()
        l_max = 8
        cache = precompute_neighbors(QueryPool(recs), context, l_max + 4)
        ids = np.random.default_rng(5).choice(context.ids, size=shape)
        feats, coords = assemble_sequence(ids, cache, context, l_max,
                                          np.random.default_rng(6))
        assert feats.shape == shape + (l_max, 3) and coords.shape == shape + (l_max, 2)
        rng = np.random.default_rng(6)
        for pos, pid in np.ndenumerate(ids):
            one = assemble_sequence(int(pid), cache, context, l_max, rng)
            assert np.array_equal(feats[pos], one[0])
            assert np.array_equal(coords[pos], one[1])

    def test_assembly_never_queries_the_tree(self):
        recs, context = self._setup()
        cache = precompute_neighbors(QueryPool(recs), context, 12)
        context.tree.reset_query_count()
        rng = np.random.default_rng(0)
        for rec in recs:
            assemble_sequence(rec.id, cache, context, 8, rng)
        assert context.tree.query_count == 0


class TestNeighborBudget:
    def test_ceil_of_expansion_times_length(self):
        assert neighbor_budget(64, 1.25) == 80
        assert neighbor_budget(10, 1.0) == 10
        assert neighbor_budget(10, 1.01) == 11

    def test_rejects_shrinking_factor(self):
        with pytest.raises(ContractError):
            neighbor_budget(10, 0.9)

    @pytest.mark.parametrize("factor, message", [
        (float("nan"), "expansion factor must be finite and >= 1, got nan"),
        (float("inf"), "expansion factor must be finite and >= 1, got inf"),
        (1e308, "expansion factor 1e+308 times l_max=10 is not finite"),
    ])
    def test_rejects_non_finite_budget(self, factor, message):
        with pytest.raises(ContractError, match=f"^{re.escape(message)}$"):
            neighbor_budget(10, factor)


def draw_case(data):
    """A batch of cached entries: n rows of k distinct context rows, with each
    target at a random slot of its row or absent (-1)."""
    n = data.draw(st.integers(1, 6), label="n")
    l_max = data.draw(st.integers(2, 10), label="l_max")
    k = data.draw(st.integers(l_max, l_max + 8), label="k")
    rows = np.array([data.draw(st.permutations(range(30)))[:k] for _ in range(n)])
    slots = data.draw(st.lists(st.integers(-1, k - 1), min_size=n, max_size=n), label="slots")
    targets = np.array([rows[i, s] if s >= 0 else -1 for i, s in enumerate(slots)])
    return rows, targets, slots, l_max


class TestSubsetIndices:
    @settings(max_examples=150, deadline=None)
    @given(data=st.data(), seed=st.integers(0, 2**32 - 1))
    def test_picks_distinct_ascending_rows_never_the_dropped_slot(self, data, seed):
        rows, targets, slots, l_max = draw_case(data)
        n, k = rows.shape
        picks = subset_indices(rows, targets, l_max, np.random.default_rng(seed).random((n, k)))
        assert picks.shape == (n, l_max - 1)
        for i in range(n):
            positions = [rows[i].tolist().index(row) for row in picks[i]]
            assert positions == sorted(set(positions))
            assert (slots[i] if slots[i] >= 0 else k - 1) not in positions

    @settings(max_examples=150, deadline=None)
    @given(data=st.data(), seed=st.integers(0, 2**32 - 1))
    def test_one_call_equals_one_row_calls_in_turn(self, data, seed):
        """A batch, with or without a leading (member) axis, picks what each
        entry picks alone from its own keys."""
        rows, targets, _, l_max = draw_case(data)
        keys = np.random.default_rng(seed).random((3,) + rows.shape)
        stacked = subset_indices(np.broadcast_to(rows, keys.shape), targets, l_max, keys)
        for m in range(3):
            batched = subset_indices(rows, targets, l_max, keys[m])
            assert np.array_equal(stacked[m], batched)
            for i in range(len(rows)):
                one = subset_indices(rows[i:i + 1], targets[i:i + 1], l_max, keys[m, i:i + 1])
                assert np.array_equal(batched[i], one[0])

    @settings(max_examples=100, deadline=None)
    @given(data=st.data(), seeds=st.lists(st.integers(0, 2**32 - 1), min_size=2,
                                          max_size=2, unique=True))
    def test_no_surplus_ignores_the_stream(self, data, seeds):
        rows, targets, _, _ = draw_case(data)
        l_max = rows.shape[1]
        a, b = (subset_indices(rows, targets, l_max,
                               np.random.default_rng(seed).random(rows.shape))
                for seed in seeds)
        assert np.array_equal(a, b)
        assert np.array_equal(a, subset_indices(rows, targets, l_max))

    @pytest.mark.parametrize("target_slot", [-1, 5])
    def test_each_candidate_is_picked_at_the_uniform_rate(self, target_slot):
        """The default cache shape, 63 of 79 candidates per draw: every
        candidate's inclusion rate over 10,000 draws lies within 0.02 (about
        five standard errors) of 63/79, and the dropped slot's is 0."""
        n, k, l_max = 10_000, 80, 64
        rows = np.tile(np.arange(k), (n, 1))
        targets = np.full(n, target_slot)
        picks = subset_indices(rows, targets, l_max, np.random.default_rng(7).random((n, k)))
        rate = np.bincount(picks.ravel(), minlength=k) / n
        dropped = target_slot if target_slot >= 0 else k - 1
        assert rate[dropped] == 0.0
        np.testing.assert_allclose(np.delete(rate, dropped), (l_max - 1) / (k - 1), atol=0.02)

    def test_short_entries_are_rejected(self):
        with pytest.raises(ContractError,
                           match="cache entries hold 7 neighbors, need at least l_max=8"):
            subset_indices(np.arange(7)[None], [-1], 8, np.zeros((1, 7)))


class TestContextKeys:
    def test_a_key_depends_on_its_own_words_alone(self):
        """Each (member, id) row of keys is the same computed in any batch,
        alone or in any order, and is unit-interval floats."""
        ids = np.array([5, -3, 2**62, 0, 5, -(2**63)])
        keys = context_keys(11, 4, ids, 9)
        assert keys.shape == (4, 6, 9)
        assert ((keys >= 0.0) & (keys < 1.0)).all()
        np.testing.assert_array_equal(keys[:, 0], keys[:, 4])
        order = np.random.default_rng(0).permutation(len(ids))
        np.testing.assert_array_equal(context_keys(11, 4, ids[order], 9), keys[:, order])
        for i, pid in enumerate(ids):
            np.testing.assert_array_equal(context_keys(11, 4, [pid], 9)[:, 0], keys[:, i])
        assert context_keys(11, 4, np.array([], dtype=np.int64), 9).shape == (4, 0, 9)

    def test_every_word_moves_the_keys(self):
        keys = context_keys(11, 2, [5, 6], 9)
        assert len({row.tobytes() for row in keys.reshape(-1, 9)}) == 4
        # neighbouring seeds do not share members' streams
        assert not np.array_equal(context_keys(100, 2, [5], 9)[1], context_keys(101, 1, [5], 9)[0])
        assert len(np.unique(keys)) == keys.size

    @pytest.mark.parametrize("target_slot", [-1, 5])
    def test_each_slot_is_picked_at_the_uniform_rate(self, target_slot):
        """The default cache shape, 63 of 79 candidates per draw, over 2
        members of 2,000 ids: every candidate slot's pick rate lies within 4
        binomial standard deviations of 63/79, and the dropped slot's is 0."""
        members, n, k, l_max = 2, 2000, 80, 64
        rows = np.broadcast_to(np.arange(k), (members, n, k))
        keys = context_keys(3, members, np.arange(n) * 7 - 5000, k)
        picks = subset_indices(rows, np.full(n, target_slot), l_max, keys)
        draws = members * n
        rate = np.bincount(picks.ravel(), minlength=k) / draws
        dropped = target_slot if target_slot >= 0 else k - 1
        assert rate[dropped] == 0.0
        p = (l_max - 1) / (k - 1)
        band = 4 * np.sqrt(p * (1 - p) / draws)
        assert np.abs(np.delete(rate, dropped) - p).max() <= band
