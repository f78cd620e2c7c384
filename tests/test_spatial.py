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

    def test_thousand_points_match_brute_force(self):
        rng = np.random.default_rng(3)
        coords = rng.random((1000, 2))
        ids = rng.permutation(1000)
        tree = KdTree(coords, ids)
        for q in rng.random((25, 2)):
            assert tree.knn(q, 10) == brute_force_knn(coords, ids, q, 10)

    def test_randomized_suite_matches_brute_force(self):
        """50+ randomized (pool, k) cases, including coordinate ties."""
        rng = np.random.default_rng(4)
        for trial in range(60):
            n = int(rng.integers(1, 400))
            coords = np.round(rng.random((n, 2)), 2 if trial % 3 else 1)
            ids = rng.permutation(n) + 10
            tree = KdTree(coords, ids)
            k = int(rng.integers(1, 17))
            q = rng.random(2)
            assert tree.knn(q, k) == brute_force_knn(coords, ids, q, k), trial

    def test_results_sorted_by_distance(self):
        rng = np.random.default_rng(5)
        coords = rng.random((120, 2))
        tree = KdTree(coords, np.arange(120))
        for q in rng.random((10, 2)):
            d2s = [d2 for _, d2 in tree.knn(q, 30)]
            assert d2s == sorted(d2s)

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
    """Points and queries on a coarse grid, so many distances tie.

    Returns ``(coords, ids, queries, k)``: up to 80 points (duplicates
    likely) with distinct ids in any order, up to 8 query points on the
    same grid, and ``k`` from 1 to past the pool size.
    """
    n = draw(st.integers(1, 80))
    side = draw(st.integers(1, 7))
    cell = st.tuples(st.integers(0, side), st.integers(0, side))
    coords = np.array(draw(st.lists(cell, min_size=n, max_size=n)), dtype=np.float64) / side
    ids = np.array(draw(st.lists(st.integers(-10 ** 6, 10 ** 6),
                                 min_size=n, max_size=n, unique=True)))
    queries = np.array(draw(st.lists(cell, min_size=1, max_size=8)), dtype=np.float64) / side
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
        entry = cache.entry(777)
        target = context.row_of.get(777, -1)
        a, b = (subset_indices(entry[None], [target], l_max, np.random.default_rng(seed))[0]
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
        picks = subset_indices(rows, targets, l_max, np.random.default_rng(seed))
        assert picks.shape == (n, l_max - 1)
        for i in range(n):
            positions = [rows[i].tolist().index(row) for row in picks[i]]
            assert positions == sorted(set(positions))
            assert (slots[i] if slots[i] >= 0 else k - 1) not in positions

    @settings(max_examples=150, deadline=None)
    @given(data=st.data(), seed=st.integers(0, 2**32 - 1))
    def test_one_call_equals_one_row_calls_in_turn(self, data, seed):
        rows, targets, _, l_max = draw_case(data)
        batched = subset_indices(rows, targets, l_max, np.random.default_rng(seed))
        rng = np.random.default_rng(seed)
        for i in range(len(rows)):
            assert np.array_equal(batched[i],
                                  subset_indices(rows[i:i + 1], targets[i:i + 1], l_max, rng)[0])

    @settings(max_examples=100, deadline=None)
    @given(data=st.data(), seeds=st.lists(st.integers(0, 2**32 - 1), min_size=2,
                                          max_size=2, unique=True))
    def test_no_surplus_ignores_the_stream(self, data, seeds):
        rows, targets, _, _ = draw_case(data)
        l_max = rows.shape[1]
        a, b = (subset_indices(rows, targets, l_max, np.random.default_rng(seed))
                for seed in seeds)
        assert np.array_equal(a, b)

    @pytest.mark.parametrize("target_slot", [-1, 5])
    def test_each_candidate_is_picked_at_the_uniform_rate(self, target_slot):
        """The default cache shape, 63 of 79 candidates per draw: every
        candidate's inclusion rate over 10,000 draws lies within 0.02 (about
        five standard errors) of 63/79, and the dropped slot's is 0."""
        n, k, l_max = 10_000, 80, 64
        rows = np.tile(np.arange(k), (n, 1))
        targets = np.full(n, target_slot)
        picks = subset_indices(rows, targets, l_max, np.random.default_rng(7))
        rate = np.bincount(picks.ravel(), minlength=k) / n
        dropped = target_slot if target_slot >= 0 else k - 1
        assert rate[dropped] == 0.0
        np.testing.assert_allclose(np.delete(rate, dropped), (l_max - 1) / (k - 1), atol=0.02)

    def test_short_entries_are_rejected(self):
        with pytest.raises(ContractError,
                           match="cache entries hold 7 neighbors, need at least l_max=8"):
            subset_indices(np.arange(7)[None], [-1], 8, np.random.default_rng(0))
