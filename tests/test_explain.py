"""Explainer tests: exact Shapley values, the joint location player, the
interaction split, the id-keyed predictor wrapper, and slope recovery."""

import math
import sys
import tracemalloc
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from geoagg import explain, pipeline
from geoagg.autodiff import ContractError
from geoagg.datasets import generate_gwr, gwr_beta1, gwr_beta2
from geoagg.explain import (
    GEO_PLAYER,
    RowBatch,
    geoshapley_explain,
    interaction_index,
    local_coefficients,
    make_shap_predictor,
    shapley_exact,
    write_explanations_csv,
)
from geoagg.kdtree import KdTree
from geoagg.model import ModelConfig, forward_batch
from geoagg.pipeline import TrainConfig, predict_ensemble, split_dataset, train
from geoagg.spatial import (ContextPool, QueryPool, SequenceLookupError, neighbor_budget,
                            sequences)


def rows(ids, coords, x):
    return RowBatch(ids=np.asarray(ids, dtype=np.int64),
                    coords=np.asarray(coords, dtype=np.float64),
                    x=np.asarray(x, dtype=np.float64))


def coalition_values(predictor, instance_row, background, n_players):
    """Every coalition's value for one instance row ``(id, coords, x)``."""
    inst_id, inst_coords, inst_x = instance_row
    instance = rows([inst_id], np.reshape(inst_coords, (1, 2)), np.reshape(inst_x, (1, -1)))
    return explain._values(predictor, instance, background, n_players)[0]


def linear_predictor(ids, coords, x):
    """2*x1 + 3*x2, location ignored (location is a dummy player)."""
    return 2.0 * x[:, 0] + 3.0 * x[:, 1]


def interaction_predictor(ids, coords, x):
    """u * x1: a pure location-feature interaction."""
    return coords[:, 0] * x[:, 0]


class TestShapleyExact:
    def test_linear_model_hand_case(self):
        """f = 2 x1 + 3 x2, background (0, 0), instance (1, 1)."""
        inst = (0, np.array([0.0, 0.0]), np.array([1.0, 1.0]))
        bg = rows([1], [[0.0, 0.0]], [[0.0, 0.0]])
        values = coalition_values(linear_predictor, inst, bg, 3)
        phi = shapley_exact(values, 3)
        np.testing.assert_allclose(phi, [0.0, 2.0, 3.0], atol=1e-10)
        assert values[0] == 0.0

    def test_symmetric_players_get_equal_shares(self):
        def symmetric(ids, coords, x):
            return x[:, 0] + x[:, 1] + 4.0 * x[:, 0] * x[:, 1]

        inst = (0, np.zeros(2), np.array([1.0, 1.0]))
        bg = rows([1], [[0.0, 0.0]], [[0.0, 0.0]])
        values = coalition_values(symmetric, inst, bg, 3)
        phi = shapley_exact(values, 3)
        assert phi[1] == pytest.approx(phi[2], abs=1e-12)

    def test_efficiency_axiom(self):
        rng = np.random.default_rng(0)
        for n_players in (2, 3, 4):
            values = rng.normal(size=2 ** n_players)
            phi = shapley_exact(values, n_players)
            assert phi.sum() == pytest.approx(values[-1] - values[0], abs=1e-12)

    def test_player_bound(self):
        with pytest.raises(ContractError, match="enumeration bound"):
            shapley_exact(np.zeros(2), 12)

    def test_wrong_value_count(self):
        with pytest.raises(ContractError, match="coalition values"):
            shapley_exact(np.zeros(7), 3)


class TestInteractionIndex:
    def test_pure_interaction_hand_case(self):
        """f = u * x1 with background (0, 0): everything lands on the pair."""
        inst = (0, np.array([1.0, 0.5]), np.array([1.0]))
        bg = rows([1], [[0.0, 0.0]], [[0.0]])
        values = coalition_values(interaction_predictor, inst, bg, 2)
        phi = shapley_exact(values, 2)
        np.testing.assert_allclose(phi, [0.5, 0.5], atol=1e-12)
        sii = interaction_index(values, 2, GEO_PLAYER, 1)
        assert sii == pytest.approx(1.0, abs=1e-12)

    def test_additive_function_has_no_interaction(self):
        def additive(ids, coords, x):
            return coords[:, 0] + 2.0 * x[:, 0]

        inst = (0, np.array([0.7, 0.1]), np.array([0.9]))
        bg = rows([1, 2], [[0.2, 0.3], [0.1, 0.8]], [[0.4], [-0.2]])
        values = coalition_values(additive, inst, bg, 2)
        assert interaction_index(values, 2, GEO_PLAYER, 1) == pytest.approx(0.0, abs=1e-12)

    def test_distinct_players_required(self):
        with pytest.raises(ContractError):
            interaction_index(np.zeros(4), 2, 1, 1)

    @pytest.mark.parametrize("a, b", [(0, 2), (0, -1), (2, 0), (0, [1, 2])])
    def test_players_outside_the_game_rejected(self, a, b):
        with pytest.raises(ContractError, match=r"players must lie in \[0, 2\)"):
            interaction_index(np.zeros(4), 2, a, b)


def loop_shapley(values, n_players):
    """Shapley values by a loop over coalitions and players, as a reference."""
    fact = [math.factorial(i) for i in range(n_players + 1)]
    phi = np.zeros(n_players)
    for mask in range(2 ** n_players):
        size = bin(mask).count("1")
        for a in range(n_players):
            if not mask & (1 << a):
                weight = fact[size] * fact[n_players - size - 1] / fact[n_players]
                phi[a] += weight * (values[mask | (1 << a)] - values[mask])
    return phi


def loop_interaction(values, n_players, a, b):
    """The interaction index by a loop over coalitions, as a reference."""
    fact = [math.factorial(i) for i in range(n_players)]
    total = 0.0
    for mask in range(2 ** n_players):
        if not mask & ((1 << a) | (1 << b)):
            size = bin(mask).count("1")
            weight = fact[size] * fact[n_players - size - 2] / fact[n_players - 1]
            total += weight * (values[mask | (1 << a) | (1 << b)] - values[mask | (1 << a)]
                               - values[mask | (1 << b)] + values[mask])
    return total


class TestLinearMap:
    @pytest.mark.parametrize("n_players", range(2, 12))
    def test_a_batch_gives_the_bytes_of_row_by_row_calls(self, n_players):
        """Every row of an ``(n, 2**P)`` batch, and every player of a
        player array, solves to the bytes of its own call, and agrees with
        the coalition loop to a few units of float64 rounding per term."""
        rng = np.random.default_rng(n_players)
        shape = (6, 2 ** n_players)
        values = rng.normal(size=shape) * 10.0 ** rng.integers(-3, 4, size=shape)
        others = np.arange(1, n_players)
        phi = shapley_exact(values, n_players)
        sii = interaction_index(values, n_players, GEO_PLAYER, others)
        assert phi.shape == (6, n_players) and sii.shape == (6, n_players - 1)
        tol = 4 * 2 ** n_players * np.finfo(np.float64).eps * np.abs(values).max()
        for i, row in enumerate(values):
            assert phi[i].tobytes() == shapley_exact(row, n_players).tobytes()
            for j, b in enumerate(others):
                one = interaction_index(row, n_players, GEO_PLAYER, b)
                assert np.float64(one).tobytes() == sii[i, j].tobytes()
            if i < 2:
                np.testing.assert_allclose(phi[i], loop_shapley(row, n_players),
                                           rtol=0, atol=tol)
                np.testing.assert_allclose(
                    sii[i], [loop_interaction(row, n_players, GEO_PLAYER, b) for b in others],
                    rtol=0, atol=tol)


class TestCoalitionValue:
    def test_full_coalition_is_instance_prediction(self):
        inst = (0, np.array([0.3, 0.4]), np.array([1.0, -1.0]))
        bg = rows([5, 6], [[0.9, 0.9], [0.8, 0.1]], [[3.0, 3.0], [-2.0, 0.5]])
        got = coalition_values(linear_predictor, inst, bg, 3)[0b111]
        assert got == pytest.approx(-1.0, abs=1e-12)

    def test_empty_coalition_is_background_mean(self):
        inst = (0, np.array([0.3, 0.4]), np.array([1.0, -1.0]))
        bg = rows([5, 6], [[0.9, 0.9], [0.8, 0.1]], [[3.0, 3.0], [-2.0, 0.5]])
        want = np.mean([2 * 3 + 3 * 3, 2 * -2 + 3 * 0.5])
        assert coalition_values(linear_predictor, inst, bg, 3)[0b000] == pytest.approx(want)

    def test_constant_predictor_constant_values(self):
        inst = (0, np.zeros(2), np.ones(2))
        bg = rows([1], [[0.5, 0.5]], [[0.0, 0.0]])
        values = coalition_values(lambda i, c, x: np.full(len(i), 7.5), inst, bg, 3)
        np.testing.assert_array_equal(values, np.full(8, 7.5))

    def test_location_is_swapped_jointly(self):
        """Coordinates seen by the predictor are whole rows, never mixes."""
        seen = []

        def recording(ids, coords, x):
            seen.append(coords.copy())
            return np.zeros(len(ids))

        inst = (0, np.array([10.0, 20.0]), np.array([1.0]))
        bg = rows([1, 2], [[1.0, 2.0], [3.0, 4.0]], [[0.0], [0.0]])
        coalition_values(recording, inst, bg, 2)
        allowed = {(10.0, 20.0), (1.0, 2.0), (3.0, 4.0)}
        for coords in seen:
            for row in coords:
                assert tuple(row) in allowed

    def test_empty_background_rejected(self):
        inst = (0, np.zeros(2), np.ones(1))
        with pytest.raises(ContractError, match="background"):
            coalition_values(linear_predictor, inst, rows([], np.zeros((0, 2)),
                                                          np.zeros((0, 1))), 2)

    def test_call_accounting_two_features_thirty_background(self):
        """p = 2 means 2^3 coalitions over 30 background rows, in one call of
        the distinct rows: the full coalition is the instance once, and the
        other seven coalitions are 30 distinct rows each."""
        calls = []

        def counting(ids, coords, x):
            calls.append(len(ids))
            return np.zeros(len(ids))

        rng = np.random.default_rng(7)
        inst = (0, rng.random(2), rng.normal(size=2))
        bg = rows(np.arange(30), rng.random((30, 2)), rng.normal(size=(30, 2)))
        values = coalition_values(counting, inst, bg, 3)
        assert values.shape == (8,)
        assert calls == [7 * 30 + 1]


class TestGeoShapleyDecomposition:
    def _explain(self, predictor, inst_x=None, p=2, seed=3, n_bg=6, n_inst=5):
        rng = np.random.default_rng(seed)
        instances = rows(np.arange(n_inst), rng.random((n_inst, 2)),
                         inst_x if inst_x is not None else rng.normal(size=(n_inst, p)))
        background = rows(np.arange(100, 100 + n_bg), rng.random((n_bg, 2)),
                          rng.normal(size=(n_bg, p)))
        return instances, background, geoshapley_explain(predictor, instances, background)

    def test_local_accuracy(self):
        def bumpy(ids, coords, x):
            return np.sin(3 * coords[:, 0]) * x[:, 0] + (coords[:, 1] + 0.5) * x[:, 1] ** 2

        instances, background, res = self._explain(bumpy)
        preds = bumpy(instances.ids, instances.coords, instances.x)
        np.testing.assert_allclose(res.reconstruct(), preds, atol=1e-9)

    def test_dummy_location_player(self):
        instances, background, res = self._explain(linear_predictor)
        assert np.abs(res.phi_geo).max() < 1e-8
        assert np.abs(res.phi_geo_x).max() < 1e-8

    def test_pure_interaction_splits_cleanly(self):
        instances = rows([0], [[1.0, 0.0]], [[1.0]])
        background = rows([9], [[0.0, 0.0]], [[0.0]])
        res = geoshapley_explain(interaction_predictor, instances, background)
        assert res.phi0 == pytest.approx(0.0, abs=1e-12)
        assert res.phi_geo[0] == pytest.approx(0.0, abs=1e-10)
        assert res.phi[0, 0] == pytest.approx(0.0, abs=1e-10)
        assert res.phi_geo_x[0, 0] == pytest.approx(1.0, abs=1e-10)

    def test_split_conserves_total_attribution(self):
        """The interaction split only moves mass between components."""
        def messy(ids, coords, x):
            return coords[:, 0] * x[:, 0] - 0.5 * coords[:, 1] * x[:, 1] + x[:, 0] * 0.3

        instances, background, res = self._explain(messy)
        for i in range(len(instances)):
            row = (instances.ids[i], instances.coords[i], instances.x[i])
            values = coalition_values(messy, row, background, 3)
            raw = shapley_exact(values, 3)
            total_split = res.phi_geo[i] + res.phi[i].sum() + res.phi_geo_x[i].sum()
            assert total_split == pytest.approx(raw.sum(), abs=1e-9)

    @pytest.mark.parametrize("n, n_bg, p", [(20, 30, 2), (3, 4, 1), (5, 7, 3)])
    def test_each_distinct_row_is_predicted_once_in_one_call(self, n, n_bg, p):
        """Per instance, 2^P - 2 mixed coalitions of n_bg rows plus the instance
        itself; the empty coalition's n_bg background rows are shared."""
        calls = []

        def counting(ids, coords, x):
            calls.append(len(ids))
            return x.sum(axis=1) + coords[:, 0]

        self._explain(counting, p=p, n_bg=n_bg, n_inst=n)
        assert calls == [n * ((2 ** (p + 1) - 2) * n_bg + 1) + n_bg]

    def test_blocks_bound_each_call_and_keep_the_bytes(self, monkeypatch):
        """(instance, coalition) pairs go in flat blocks of at most
        ``_BLOCK_ROWS`` coalition rows, which may split an instance's
        coalitions or span two instances; the decomposition is the bytes of
        one block holding them all."""
        ds = generate_gwr(100, 4)
        config = ModelConfig(d_model=8, n_heads=2, n_inducing=2, l_max=8, n_layers=1)
        params, _ = train(ds, config, TrainConfig(epochs=1, seed=0))
        tr, te = split_dataset(ds, 0.7, 0)
        predictor = make_shap_predictor(params, config, ContextPool(tr), QueryPool(te),
                                        members=2, expansion=1.5, seed=4)
        instances = RowBatch.from_dataset(te)
        background = RowBatch.from_dataset(tr.take(np.arange(6)))
        calls = []

        def counting(ids, coords, x):
            calls.append(len(ids))
            return predictor(ids, coords, x)

        results = {}
        # 8 coalitions of 6 background rows per instance: all 30 instances at
        # once, then 4 to a block, then 3 of the 240 pairs to a block
        for bound, blocks in ((10**9, 1), (4 * 8 * 6, 8), (3 * 6, 80)):
            monkeypatch.setattr(explain, "_BLOCK_ROWS", bound)
            calls.clear()
            results[bound] = geoshapley_explain(counting, instances, background)
            assert len(calls) == blocks
            assert max(calls) <= bound
        one, *blocked = results.values()
        for other in blocked:
            for name in ("phi0", "phi_geo", "phi", "phi_geo_x"):
                assert np.array_equal(getattr(one, name), getattr(other, name)), name

    def test_ten_covariates_stay_within_the_block_bound(self):
        """At p = 10 one instance has 2^11 coalitions of 30 background rows,
        61,440 rows, so its coalitions go in groups: every call stays within
        ``_BLOCK_ROWS`` rows and the peak traced memory under 12 MiB (6.2 MiB
        measured; one whole-instance block peaked at 32 MiB)."""
        rng = np.random.default_rng(10)
        p = 10
        background = rows(np.arange(30), rng.random((30, 2)), rng.normal(size=(30, p)))
        instance = rows([100], rng.random((1, 2)), rng.normal(size=(1, p)))
        calls = []

        def summing(ids, coords, x):
            calls.append(len(ids))
            return x.sum(axis=1) + coords[:, 0]

        tracemalloc.start()
        try:
            res = geoshapley_explain(summing, instance, background)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(calls) == 8 and max(calls) <= explain._BLOCK_ROWS
        assert peak <= 12 * 2**20, f"peak {peak / 2**20:.1f} MiB"
        assert res.reconstruct() == pytest.approx(summing(instance.ids, instance.coords,
                                                          instance.x), abs=1e-9)

    def test_schema_mismatch_rejected(self):
        instances = rows([0], [[0.0, 0.0]], [[1.0, 2.0]])
        background = rows([1], [[0.0, 0.0]], [[1.0]])
        with pytest.raises(ContractError, match="schema"):
            geoshapley_explain(linear_predictor, instances, background)


class TestLocalCoefficients:
    def test_global_linear_model_recovers_exact_slopes(self):
        rng = np.random.default_rng(5)
        instances = rows(np.arange(8), rng.random((8, 2)), rng.normal(size=(8, 2)))
        background = rows(np.arange(50, 56), rng.random((6, 2)), rng.normal(size=(6, 2)))
        res = geoshapley_explain(linear_predictor, instances, background)
        beta = local_coefficients(res, instances, background)
        np.testing.assert_allclose(beta[:, 0], 2.0, atol=1e-9)
        np.testing.assert_allclose(beta[:, 1], 3.0, atol=1e-9)

    def test_spatially_varying_slopes_recovered_exactly(self):
        """For f = b1(u,v) x1 + b2(u,v) x2 the slope estimate at a row equals
        the true local coefficient (the location player absorbs the rest)."""
        def oracle(ids, coords, x):
            return (gwr_beta1(coords[:, 0], coords[:, 1]) * x[:, 0]
                    + gwr_beta2(coords[:, 0], coords[:, 1]) * x[:, 1])

        rng = np.random.default_rng(6)
        instances = rows(np.arange(10), rng.random((10, 2)), rng.normal(size=(10, 2)))
        background = rows(np.arange(90, 98), rng.random((8, 2)), rng.normal(size=(8, 2)))
        res = geoshapley_explain(oracle, instances, background)
        beta = local_coefficients(res, instances, background)
        want1 = gwr_beta1(instances.coords[:, 0], instances.coords[:, 1])
        want2 = gwr_beta2(instances.coords[:, 0], instances.coords[:, 1])
        np.testing.assert_allclose(beta[:, 0], want1, atol=1e-8)
        np.testing.assert_allclose(beta[:, 1], want2, atol=1e-8)

    def test_on_mean_covariate_yields_missing_marker(self):
        instances = rows([0], [[0.5, 0.5]], [[0.0, 1.0]])
        background = rows([1, 2], [[0.1, 0.1], [0.9, 0.9]], [[1.0, 0.0], [-1.0, 0.0]])
        res = geoshapley_explain(linear_predictor, instances, background)
        beta = local_coefficients(res, instances, background)
        assert np.isnan(beta[0, 0])
        assert np.isfinite(beta[0, 1])


def per_instance_reference(predictor, instances, background):
    """GeoShapley with each instance's whole coalition table predicted as is,
    duplicate rows included, one predictor call per instance."""
    n, p = instances.x.shape
    n_players = p + 1
    present = (np.arange(2 ** n_players)[:, None] >> np.arange(n_players)) & 1 == 1
    phi_geo, phi, phi_geo_x, phi0 = np.zeros(n), np.zeros((n, p)), np.zeros((n, p)), 0.0
    for i in range(n):
        ids = np.where(present[:, :1], instances.ids[i], background.ids)
        coords = np.where(present[:, :1, None], instances.coords[i], background.coords)
        x = np.where(present[:, None, 1:], instances.x[i], background.x)
        preds = predictor(ids.ravel(), coords.reshape(-1, 2), x.reshape(-1, p))
        values = preds.reshape(2 ** n_players, -1).mean(axis=1)
        raw = shapley_exact(values, n_players)
        sii = np.array([interaction_index(values, n_players, GEO_PLAYER, j + 1)
                        for j in range(p)])
        phi_geo_x[i] = sii
        phi[i] = raw[1:] - sii / 2.0
        phi_geo[i] = raw[GEO_PLAYER] - sii.sum() / 2.0
        phi0 = float(values[0])
    return phi_geo, phi, phi_geo_x, phi0


@pytest.fixture()
def drawn(monkeypatch):
    """The context rows the inference engine picks, one ``(sequences, l_max - 1)``
    array per draw, its sequences the (row, member) pairs in row-major order."""
    draws = []

    def recording(*args, _draw=pipeline.subset_indices):
        draws.append(_draw(*args))
        return draws[-1]

    monkeypatch.setattr(pipeline, "subset_indices", recording)
    return draws


class TestShapPredictorWrapper:
    def _fitted(self, epochs=0):
        ds = generate_gwr(100, 4)
        config = ModelConfig(d_model=8, n_heads=2, n_inducing=2, l_max=8, n_layers=1)
        params, _ = train(ds, config, TrainConfig(epochs=epochs, seed=0))
        tr, te = split_dataset(ds, 0.7, 0)
        return params, config, ContextPool(tr.points), te

    @pytest.mark.parametrize("members, expansion, seed", [(1, 1.0, 0), (3, 1.5, 4), (8, 1.25, 9)])
    def test_unperturbed_rows_match_the_ensemble_mean(self, members, expansion, seed):
        """On the true query rows, in any order, the predictor gives the
        bytes of ``predict_ensemble``'s mean: both run one engine."""
        params, config, ctx, te = self._fitted(epochs=1)
        queries = QueryPool(te)
        predictor = make_shap_predictor(params, config, ctx, queries, members=members,
                                        expansion=expansion, seed=seed)
        batch = RowBatch.from_dataset(te)
        want = predict_ensemble(params, config, queries, ctx, members, expansion, seed).mean
        assert predictor(batch.ids, batch.coords, batch.x).tobytes() == want.tobytes()
        backwards = predictor(batch.ids[::-1], batch.coords[::-1], batch.x[::-1])
        assert backwards.tobytes() == want[::-1].tobytes()

    def test_covariate_perturbation_keeps_neighbor_set(self, drawn):
        params, config, ctx, te = self._fitted()
        predictor = make_shap_predictor(params, config, ctx, QueryPool(te.points),
                                        members=2, expansion=1.5, seed=3)
        rec = te.points[0]
        before = predictor(np.array([rec.id]), np.array([[rec.u, rec.v]]),
                           rec.x[None, :])
        after = predictor(np.array([rec.id]), np.array([[rec.u, rec.v]]),
                          rec.x[None, :] + 5.0)
        assert len(drawn) == 2 and np.array_equal(drawn[0], drawn[1])
        assert before[0] != after[0]

    def test_coordinate_perturbation_changes_input_not_neighbors(self, drawn):
        params, config, ctx, te = self._fitted()
        predictor = make_shap_predictor(params, config, ctx, QueryPool(te.points),
                                        members=2, expansion=1.5, seed=3)
        rec = te.points[1]
        moved = predictor(np.array([rec.id]), np.array([[rec.u + 0.4, rec.v - 0.3]]),
                          rec.x[None, :])
        stayed = predictor(np.array([rec.id]), np.array([[rec.u, rec.v]]),
                           rec.x[None, :])
        assert len(drawn) == 2 and np.array_equal(drawn[0], drawn[1])
        assert moved[0] != stayed[0]

    def test_background_ids_from_context_pool_are_accepted(self):
        params, config, ctx, te = self._fitted()
        predictor = make_shap_predictor(params, config, ctx, QueryPool(te.points))
        rec = ctx.records[3]
        out = predictor(np.array([rec.id]), np.array([[rec.u, rec.v]]), rec.x[None, :])
        assert np.isfinite(out[0])

    @pytest.mark.parametrize("members", [0, -2])
    def test_fewer_than_one_member_rejected(self, members):
        params, config, ctx, te = self._fitted()
        with pytest.raises(ContractError, match="at least one ensemble member"):
            make_shap_predictor(params, config, ctx, QueryPool(te.points), members=members)

    @pytest.mark.parametrize("case", ["covariates", "coordinates", "ids"])
    def test_misshapen_rows_are_refused(self, case):
        """Rows are ``(n,)`` ids, ``(n, 2)`` coordinates and ``(n, p)``
        covariates: the transpose of four rows' covariates or coordinates, a
        ``(2, 4)`` array, is not read as four rows of another shape."""
        params, config, ctx, te = self._fitted()
        predictor = make_shap_predictor(params, config, ctx, QueryPool(te.points))
        batch = RowBatch.from_records(te.points[:4])
        ids, coords, x = batch.ids, batch.coords, batch.x
        if case == "covariates":
            x = x.T
        elif case == "coordinates":
            coords = coords.T
        else:
            ids = ids[:, None]
        with pytest.raises(ContractError) as exc:
            predictor(ids, coords, x)
        assert str(exc.value) == (f"rows need ids (n,), coords (n, 2) and x (n, p), got "
                                  f"{ids.shape}, {coords.shape} and {x.shape}")

    @pytest.mark.parametrize("case, value", [("covariates", np.nan), ("coordinates", np.inf)])
    def test_non_finite_rows_are_refused(self, case, value):
        """A row the pools would refuse is refused in the same line, before
        any search, rather than predicting NaN."""
        params, config, ctx, te = self._fitted()
        predictor = make_shap_predictor(params, config, ctx, QueryPool(te.points))
        batch = RowBatch.from_records(te.points[:2])
        ids, coords, x = batch.ids, batch.coords.copy(), batch.x.copy()
        (x if case == "covariates" else coords)[1, 0] = value
        searched = ctx.tree.query_count
        with pytest.raises(ContractError) as exc:
            predictor(ids, coords, x)
        assert str(exc.value) == f"point id {ids[1]} has non-finite {case}"
        assert ctx.tree.query_count == searched

    def test_ids_that_are_not_integers_are_refused(self):
        """Float ids are not truncated to another point's id; zero rows,
        even an empty list, which numpy reads as float64, predict nothing."""
        params, config, ctx, te = self._fitted()
        predictor = make_shap_predictor(params, config, ctx, QueryPool(te.points))
        batch = RowBatch.from_records(te.points[:2])
        with pytest.raises(ContractError) as exc:
            predictor(batch.ids + 0.7, batch.coords, batch.x)
        assert str(exc.value) == "point ids must be integers, got float64"
        with pytest.raises(ContractError, match="^point ids must be integers, got uint64$"):
            predictor(batch.ids.astype(np.uint64), batch.coords, batch.x)
        assert predictor(batch.ids.astype(np.int32), batch.coords, batch.x).tobytes() == \
            predictor(batch.ids, batch.coords, batch.x).tobytes()
        empty = predictor([], np.zeros((0, 2)), np.zeros((0, 2)))
        assert empty.shape == (0,) and empty.dtype == np.float64

    def test_member_count_is_judged_on_the_rows_of_a_call(self):
        """2**56 - 1 members fit over two queries but not over the 40
        background rows of one call: the call is refused in one line and
        allocates nothing."""
        tr, te = split_dataset(generate_gwr(400, 1), 0.7, 0)
        config = ModelConfig(d_model=8, n_heads=2, n_inducing=2, l_max=8, n_layers=1)
        params, _ = train(tr, config, TrainConfig(epochs=0, seed=0))
        members = 2 ** 56 - 1
        predictor = make_shap_predictor(params, config, ContextPool(tr),
                                        QueryPool(te.take([0, 1])), members=members)
        batch = RowBatch.from_dataset(tr.take(np.arange(40)))
        tracemalloc.start()
        try:
            with pytest.raises(ContractError) as exc:
                predictor(batch.ids, batch.coords, batch.x)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert str(exc.value) == (f"{members} ensemble members over 40 queries "
                                  "need more memory than can be addressed")
        assert peak < 2 ** 20

    def test_unknown_id_raises_lookup_error(self):
        params, config, ctx, te = self._fitted()
        predictor = make_shap_predictor(params, config, ctx, QueryPool(te.points))
        with pytest.raises(SequenceLookupError, match="99999"):
            predictor(np.array([99999]), np.zeros((1, 2)), np.zeros((1, 2)))

    def test_memoised_context_rows_are_byte_identical_in_any_order(self, drawn):
        params, config, ctx, te = self._fitted()
        members, expansion = 3, 1.5
        predictor = make_shap_predictor(params, config, ctx, QueryPool(te.points),
                                        members=members, expansion=expansion, seed=4)
        batch = RowBatch.from_records(list(te.points[:6]) + list(ctx.records[:4]))
        x = batch.x + 0.25  # perturbed covariates reach only the target rows
        n, p = batch.x.shape
        got = predictor(batch.ids, batch.coords, x)
        order = np.random.default_rng(0).permutation(n)
        shuffled = predictor(batch.ids[order], batch.coords[order], x[order])
        assert len(drawn) == 2
        first, again = (draw.reshape(n, members, -1) for draw in drawn)
        assert np.array_equal(again, first[order])

        # every sequence gathered afresh from its member's context ids, each
        # among its own id's nearest neighbours
        picked = ctx.ids[first]
        by_id = {r.id: r for r in ctx.records}
        k = neighbor_budget(config.l_max, expansion)
        want = np.zeros(n)
        for member in range(members):
            feats = np.zeros((n, config.l_max, p + 1))
            coords = np.empty((n, config.l_max, 2))
            feats[:, 0, :p] = x
            coords[:, 0] = batch.coords
            for i, pid in enumerate(batch.ids):
                near = {c for c, _ in ctx.tree.knn(batch.coords[i], k)} - {pid}
                assert set(picked[i, member]) <= near
                recs = [by_id[c] for c in picked[i, member]]
                feats[i, 1:] = [[*r.x, r.y] for r in recs]
                coords[i, 1:] = [[r.u, r.v] for r in recs]
            want += forward_batch(feats, coords, params, config)
        want /= members
        assert got.tobytes() == want.tobytes()
        assert shuffled.tobytes() == want[order].tobytes()

    def test_distinct_rows_explain_byte_equal_to_full_tables(self):
        params, config, ctx, te = self._fitted(epochs=2)
        predictor = make_shap_predictor(params, config, ctx, QueryPool(te.points),
                                        members=2, expansion=1.5, seed=5)
        instances = RowBatch.from_records(te.points[:12])
        background = RowBatch.from_records(ctx.records[10:19])
        res = geoshapley_explain(predictor, instances, background)
        phi_geo, phi, phi_geo_x, phi0 = per_instance_reference(predictor, instances, background)
        assert res.phi_geo.tobytes() == phi_geo.tobytes()
        assert res.phi.tobytes() == phi.tobytes()
        assert res.phi_geo_x.tobytes() == phi_geo_x.tobytes()
        assert np.float64(res.phi0).tobytes() == np.float64(phi0).tobytes()

    def test_calls_leave_the_predictor_unchanged_and_never_use_knn(self, monkeypatch, drawn):
        params, config, ctx, te = self._fitted()
        predictor = make_shap_predictor(params, config, ctx, QueryPool(te.points),
                                        members=2, expansion=1.5, seed=3)

        def no_knn(*args, **kwargs):
            raise AssertionError("KdTree.knn called")

        monkeypatch.setattr(KdTree, "knn", no_knn)
        before = dict(vars(predictor))
        # query ids read the cache; context ids (background rows) are searched
        batch = RowBatch.from_records(list(te.points[:5]) + list(ctx.records[:5]))
        first = predictor(batch.ids, batch.coords, batch.x)
        second = predictor(batch.ids, batch.coords, batch.x)
        assert vars(predictor).keys() == before.keys()
        assert all(vars(predictor)[key] is value for key, value in before.items())
        assert first.tobytes() == second.tobytes()
        assert len(drawn) == 2 and np.array_equal(drawn[0], drawn[1])

    def test_concurrent_calls_match_serial_calls(self):
        params, config, ctx, te = self._fitted()
        predictor = make_shap_predictor(params, config, ctx, QueryPool(te.points),
                                        members=2, expansion=1.5, seed=6)
        pool = RowBatch.from_records(list(te.points) + list(ctx.records))
        batches = [np.random.default_rng(i).integers(len(pool), size=40) for i in range(8)]
        want = [predictor(pool.ids[b], pool.coords[b], pool.x[b]) for b in batches]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=4) as workers:
                futures = [workers.submit(predictor, pool.ids[b], pool.coords[b], pool.x[b])
                           for b in batches]
                got = [future.result(timeout=60) for future in futures]
        finally:
            sys.setswitchinterval(interval)
        for g, w in zip(got, want):
            assert g.tobytes() == w.tobytes()

    def test_context_smaller_than_l_max_rejected(self):
        params, config, ctx, te = self._fitted()
        small = ContextPool(ctx.records[:config.l_max - 1])
        with pytest.raises(ContractError, match="only 7 context points available, need 8"):
            make_shap_predictor(params, config, small, QueryPool(te.points))

    def test_sequences_are_assembled_at_most_256_rows_at_a_time(self, monkeypatch):
        params, config, ctx, te = self._fitted()
        predictor = make_shap_predictor(params, config, ctx, QueryPool(te.points),
                                        members=2, expansion=1.5)
        sizes = []

        def recording(context, x, coords, picks):
            sizes.append(picks[..., 0].size)
            return sequences(context, x, coords, picks)

        monkeypatch.setattr(pipeline, "sequences", recording)
        pool = RowBatch.from_records(list(te.points) + list(ctx.records))
        rng = np.random.default_rng(1)
        take = rng.integers(len(pool), size=1000)
        coords = pool.coords[take] + rng.normal(0.0, 0.01, size=(1000, 2))
        got = predictor(pool.ids[take], coords, pool.x[take])
        assert max(sizes) <= 256
        assert sum(sizes) == 2 * 1000
        tail = slice(990, 1000)
        alone = predictor(pool.ids[take][tail], coords[tail], pool.x[take][tail])
        assert got[tail].tobytes() == alone.tobytes()


class TestExplanationsCsv:
    def test_schema_and_missing_markers(self, tmp_path):
        from geoagg.explain import GeoShapleyResult

        res = GeoShapleyResult(
            ids=np.array([7]), phi0=0.25,
            phi_geo=np.array([0.5]), phi=np.array([[1.0, 2.0]]),
            phi_geo_x=np.array([[0.0, -1.0]]),
        )
        beta = np.array([[np.nan, 4.0]])
        path = tmp_path / "explain.csv"
        write_explanations_csv(path, res, beta)
        lines = path.read_text().splitlines()
        assert lines[0] == ("id,phi0,phi_geo,phi_x1,phi_x2,"
                            "phi_geo_x1,phi_geo_x2,beta_hat_x1,beta_hat_x2")
        cells = lines[1].split(",")
        assert cells[0] == "7"
        assert cells[7] == ""
        assert cells[8] == "4"
