"""Training loop, ensemble inference, metrics, and benchmark tests."""

import hashlib
import math
from dataclasses import replace

import numpy as np
import pytest

from geoagg import pipeline, spatial
from geoagg.autodiff import AdamState, ContractError
from geoagg.datasets import generate_gwr, generate_sl
from geoagg.model import ModelConfig, forward_batch, init_params
from geoagg.pipeline import (
    EnsemblePrediction,
    TrainConfig,
    UndefinedMetricError,
    _CHUNK_ROWS,
    _SEED_EPOCH,
    _SEED_INIT,
    _member_predictions,
    _minibatch_step,
    benchmark_inference,
    evaluate,
    predict_ensemble,
    split_dataset,
    train,
    write_bench_csv,
    write_loss_csv,
    write_predictions_csv,
)
from geoagg.pipeline import BenchRecord
from geoagg.spatial import (
    ContextPool,
    PointRecord,
    QueryPool,
    context_keys,
    neighbor_budget,
    precompute_neighbors,
    subset_indices,
)


def tiny_dataset(n=60, seed=0, fn=None):
    rng = np.random.default_rng(seed)
    pts = []
    for i in range(n):
        u, v = rng.random(2)
        x = rng.normal(size=2)
        y = fn(u, v, x) if fn else float(rng.normal())
        pts.append(PointRecord(i, float(u), float(v), x, float(y)))
    from geoagg.datasets import GeoDataset

    return GeoDataset.from_records(pts, {"generator": "test"})


def tiny_config(**overrides):
    base = dict(d_model=8, n_heads=2, n_inducing=2, l_max=8, n_layers=1)
    base.update(overrides)
    return ModelConfig(**base)


class TestSplit:
    def test_sizes_and_disjointness(self):
        ds = tiny_dataset(100)
        tr, te = split_dataset(ds, 0.7, 3)
        assert tr.n == 70 and te.n == 30
        assert {r.id for r in tr.points}.isdisjoint({r.id for r in te.points})

    def test_deterministic(self):
        ds = tiny_dataset(50)
        a = split_dataset(ds, 0.6, 9)[0].ids()
        b = split_dataset(ds, 0.6, 9)[0].ids()
        np.testing.assert_array_equal(a, b)


class TestTrain:
    @pytest.mark.parametrize("make, sha1", [
        (lambda: generate_gwr(625, 3), "91a9875595e2e293340f2a474dba39800f48ea3f"),
        (lambda: generate_sl(600, 3, 0.6), "a6aaf08c5ea0531998d433301714d567dcdbc76f"),
    ], ids=["gwr", "sl"])
    def test_trained_weights_and_losses_keep_their_bytes(self, make, sha1):
        """SHA-1 of every parameter array, by name, then the loss history,
        after 2 epochs at the default config in minibatches of 16 (each
        epoch ends in a smaller one), pinned from training steps that reused
        one pool of buffers; ``sl`` re-pinned when its targets came from the
        fixed-point solve."""
        params, history = train(make(), ModelConfig(), TrainConfig(epochs=2, batch=16, seed=0))
        digest = hashlib.sha1()
        for name in sorted(params.arrays):
            digest.update(params.arrays[name].tobytes())
        digest.update(np.asarray(history).tobytes())
        assert digest.hexdigest() == sha1

    def test_zero_epochs_returns_initialization(self):
        ds = tiny_dataset(30)
        config = tiny_config()
        tc = TrainConfig(epochs=0, seed=5)
        params, history = train(ds, config, tc)
        assert history == []
        want = init_params(config, ds.p, np.random.default_rng([_SEED_INIT, 5]))
        for name, arr in want.arrays.items():
            np.testing.assert_array_equal(params.arrays[name], arr)

    def test_history_has_one_entry_per_epoch(self):
        ds = tiny_dataset(30)
        _, history = train(ds, tiny_config(), TrainConfig(epochs=3, seed=0, batch=16))
        assert len(history) == 3

    def test_loss_decreases_on_learnable_signal(self):
        ds = tiny_dataset(80, fn=lambda u, v, x: 2 * x[0] + 3 * x[1])
        _, history = train(ds, tiny_config(), TrainConfig(epochs=8, seed=0))
        assert history[-1] < history[0]

    def test_reproducible(self):
        ds = tiny_dataset(40)
        tc = TrainConfig(epochs=2, seed=7)
        a, ha = train(ds, tiny_config(), tc)
        b, hb = train(ds, tiny_config(), tc)
        assert ha == hb
        for name, arr in a.arrays.items():
            np.testing.assert_array_equal(b.arrays[name], arr)

    def test_minibatch_assembly_equals_per_sequence_loop(self):
        """Whole assembled minibatches train to the bytes of a loop that builds
        each sequence alone from the pool's columns."""
        ds = tiny_dataset(70, seed=8)
        config = tiny_config()
        tc = TrainConfig(epochs=2, seed=3, batch=16)
        got, got_history = train(ds, config, tc)

        params, _ = train(ds, config, replace(tc, epochs=0))
        context = ContextPool(ds)
        cache = precompute_neighbors(context, context,
                                     neighbor_budget(config.l_max, tc.expansion_factor))
        state, history = AdamState(), []
        for epoch in range(tc.epochs):
            rng = np.random.default_rng([_SEED_EPOCH, tc.seed, epoch])
            order = rng.permutation(ds.n)
            sse = 0.0
            for start in range(0, ds.n, tc.batch):
                chunk = order[start:start + tc.batch]
                seqs = []
                for row in chunk:
                    entry = cache.entries([context.ids[row]])[0]
                    picked = subset_indices(entry[None], [row], config.l_max,
                                            rng.random((1, len(entry))))[0]
                    seqs.append((
                        np.vstack([np.append(context.x[row], 0.0), context.feats[picked]]),
                        np.vstack([context.coords[row], context.coords[picked]]),
                    ))
                batch = tuple(np.stack(parts) for parts in zip(*seqs))
                sse += _minibatch_step(params, config, batch, ds.targets()[chunk],
                                       state, tc.lr) * len(chunk)
            history.append(sse / ds.n)
        assert got_history == history
        for name, arr in params.arrays.items():
            assert np.array_equal(got.arrays[name], arr), name

    def test_non_finite_epoch_loss_stops_training_naming_the_epoch(self):
        """A learning rate of 1e30 overflows in the second epoch."""
        with pytest.warns(RuntimeWarning):
            with pytest.raises(ContractError, match="^training diverged: epoch 1 "):
                train(tiny_dataset(30), tiny_config(),
                      TrainConfig(epochs=3, seed=0, batch=16, lr=1e30))

    def test_dataset_smaller_than_l_max_rejected(self):
        ds = tiny_dataset(5)
        with pytest.raises(ContractError, match="l_max"):
            train(ds, tiny_config(l_max=8), TrainConfig(epochs=1))

    def test_normalization_constants_come_from_data(self):
        ds = tiny_dataset(30)
        params, _ = train(ds, tiny_config(), TrainConfig(epochs=0))
        np.testing.assert_allclose(params.norm["y_mean"][0, 0], ds.targets().mean())
        np.testing.assert_allclose(params.norm["x_mean"][0], ds.covariates().mean(axis=0))


class TestPredictEnsemble:
    def _fitted(self, n=60):
        ds = tiny_dataset(n)
        config = tiny_config()
        params, _ = train(ds, config, TrainConfig(epochs=0, seed=1))
        tr, te = split_dataset(ds, 0.7, 1)
        return params, config, ContextPool(tr.points), QueryPool(te.points)

    def test_single_member_sigma_zero(self):
        params, config, ctx, q = self._fitted()
        pred = predict_ensemble(params, config, q, ctx, 1, 1.25, 0)
        np.testing.assert_array_equal(pred.std, np.zeros(len(q)))
        again = predict_ensemble(params, config, q, ctx, 1, 1.25, 0)
        np.testing.assert_array_equal(pred.mean, again.mean)

    def test_mean_is_arithmetic_mean_of_members(self):
        params, config, ctx, q = self._fitted()
        preds = _member_predictions(params, config, q, ctx, 8, 1.25, 0)
        ens = predict_ensemble(params, config, q, ctx, 8, 1.25, 0)
        np.testing.assert_allclose(ens.mean, preds.mean(axis=0), atol=1e-12, rtol=0)
        np.testing.assert_allclose(ens.std, preds.std(axis=0, ddof=1), atol=1e-12, rtol=0)

    def test_expansion_one_collapses_ensemble_spread(self):
        params, config, ctx, q = self._fitted()
        pred = predict_ensemble(params, config, q, ctx, 6, 1.0, 3)
        np.testing.assert_array_equal(pred.std, np.zeros(len(q)))

    def test_members_vary_with_expansion(self):
        params, config, ctx, q = self._fitted()
        pred = predict_ensemble(params, config, q, ctx, 6, 1.5, 3)
        assert pred.std.max() > 0

    @pytest.mark.parametrize("members", [1, 8])
    def test_any_subset_or_permutation_predicts_the_same_bytes(self, members):
        """A query's mean and std are a function of its own row and the seed:
        predicted alone, in a slice, or in any order, the ids predict the
        bytes they predict inside the whole split."""
        ds = generate_gwr(625, 3)
        config = tiny_config(l_max=16)
        params, _ = train(ds, config, TrainConfig(epochs=1, seed=0))
        tr, te = split_dataset(ds, 0.7, 0)
        ctx = ContextPool(tr)
        whole = predict_ensemble(params, config, QueryPool(te), ctx, members, 1.25, 7)
        rng = np.random.default_rng(1)
        picks = [np.arange(5, 16), np.array([17]), rng.permutation(te.n),
                 rng.choice(te.n, 40, replace=False), np.arange(te.n)[::-1][:70]]
        for rows in picks:
            part = predict_ensemble(params, config, QueryPool(te.take(rows)), ctx,
                                    members, 1.25, 7)
            assert part.mean.tobytes() == whole.mean[rows].tobytes()
            assert part.std.tobytes() == whole.std[rows].tobytes()

    def test_member_streams_differ_across_neighbouring_seeds(self):
        """Member 1 at seed s and member 0 at seed s + 1 draw distinct contexts."""
        params, config, ctx, q = self._fitted()
        at_100 = _member_predictions(params, config, q, ctx, 2, 1.5, 100)
        at_101 = _member_predictions(params, config, q, ctx, 2, 1.5, 101)
        assert not np.array_equal(at_100[1], at_101[0])

    def test_covariate_counts_must_agree(self):
        """Queries wider than the context, or a model narrower than both."""
        params, config, ctx, q = self._fitted()
        wide = QueryPool([PointRecord(r.id, r.u, r.v, np.append(r.x, 0.0), None)
                          for r in q.records])
        with pytest.raises(ContractError, match="query points carry 3 covariates"):
            predict_ensemble(params, config, wide, ctx, 2, 1.25, 0)
        wide_ctx = ContextPool([PointRecord(r.id, r.u, r.v, np.append(r.x, 0.0), r.y)
                                for r in ctx.records])
        with pytest.raises(ContractError, match="3 covariate channels, model expects 2"):
            predict_ensemble(params, config, wide, wide_ctx, 2, 1.25, 0)

    def test_statistics_invariant_to_member_relabeling(self):
        params, config, ctx, q = self._fitted()
        preds = _member_predictions(params, config, q, ctx, 5, 1.5, 3)
        shuffled = preds[np.random.default_rng(0).permutation(5)]
        np.testing.assert_allclose(preds.mean(axis=0), shuffled.mean(axis=0), atol=1e-12)
        np.testing.assert_allclose(preds.std(axis=0, ddof=1),
                                   shuffled.std(axis=0, ddof=1), atol=1e-12)


class TestEvaluate:
    def test_perfect_prediction(self):
        m = evaluate([1.0, 2.0, 3.0], [1.0, 2.0, 3.0])
        assert m.r2 == 1.0 and m.mae == 0.0

    def test_constant_mean_prediction_scores_zero(self):
        y = np.array([1.0, 2.0, 3.0])
        m = evaluate(np.full(3, y.mean()), y)
        assert m.r2 == pytest.approx(0.0)

    def test_hand_case(self):
        m = evaluate([0.0, 1.0, 1.0], [0.0, 1.0, 2.0])
        assert m.mae == pytest.approx(1 / 3)
        assert m.r2 == pytest.approx(0.5)

    def test_too_few_values(self):
        with pytest.raises(UndefinedMetricError):
            evaluate([1.0], [1.0])

    def test_zero_variance(self):
        with pytest.raises(UndefinedMetricError):
            evaluate([1.0, 2.0], [3.0, 3.0])

    def test_ensemble_mse_never_exceeds_mean_member_mse(self):
        """Squared error against fixed targets: mean-of-members is at least
        as good as the average member (Jensen)."""
        rng = np.random.default_rng(4)
        for _ in range(25):
            members = rng.normal(size=(6, 40))
            truth = rng.normal(size=40)
            ens_mse = ((members.mean(axis=0) - truth) ** 2).mean()
            avg_mse = ((members - truth) ** 2).mean(axis=1).mean()
            assert ens_mse <= avg_mse + 1e-12

    @pytest.mark.parametrize("members", [1, 3])
    def test_chunked_members_equal_per_query_passes(self, members):
        """Many queries per forward pass give the bytes of one pass per query."""
        ds = tiny_dataset(1000, seed=4)
        config = tiny_config()
        params, _ = train(ds, config, TrainConfig(epochs=0, seed=4))
        tr, te = split_dataset(ds, 0.7, 4)
        ctx, q = ContextPool(tr), QueryPool(te)
        per_chunk = _CHUNK_ROWS // members
        assert len(q) > per_chunk and len(q) % per_chunk
        got = _member_predictions(params, config, q, ctx, members, 1.25, 5)
        want = per_query_reference(params, config, q, ctx, members, 1.25, 5)
        assert np.array_equal(got, want)


def per_query_reference(params, config, queries, context, members, expansion, seed):
    """Member outputs with one ``forward_batch`` of ``members`` rows per query."""
    l_max = config.l_max
    cache = precompute_neighbors(queries, context, neighbor_budget(l_max, expansion))
    out = np.empty((members, len(queries)))
    for qi, qid in enumerate(queries.ids.tolist()):
        rows = cache.entries([qid])[0]
        target = context.row_of.get(qid, -1)
        keys = context_keys(seed, members, [qid], len(rows))
        feats = np.empty((members, l_max, context.feats.shape[1]))
        coords = np.empty((members, l_max, 2))
        feats[:, 0, :-1] = queries.x[qi]
        feats[:, 0, -1] = 0.0
        coords[:, 0] = queries.coords[qi]
        for member in range(members):
            picked = subset_indices(rows[None], [target], l_max, keys[member])[0]
            feats[member, 1:] = context.feats[picked]
            coords[member, 1:] = context.coords[picked]
        out[:, qi] = forward_batch(feats, coords, params, config)
    return out


class TestBenchmark:
    def _setup(self):
        ds = tiny_dataset(80, seed=2)
        config = tiny_config()
        params, _ = train(ds, config, TrainConfig(epochs=0, seed=2))
        tr, te = split_dataset(ds, 0.75, 2)
        return params, config, ContextPool(tr.points), QueryPool(te.points)

    def test_query_counters_per_mode(self):
        params, config, ctx, q = self._setup()
        for members in (1, 3):
            rows = benchmark_inference(params, config, q, ctx, [4, 8], members)
            assert [(r.length, r.mode) for r in rows] == [
                (4, "on_the_fly"), (4, "precomputed"), (8, "on_the_fly"), (8, "precomputed")]
            for rec in rows:
                want = members * len(q) if rec.mode == "on_the_fly" else len(q)
                assert rec.tree_queries == want

    def test_modes_agree_on_predictions(self):
        params, config, ctx, q = self._setup()
        pre = _member_predictions(params, config, q, ctx, 4, 1.25, 9,
                                  cache_mode="precomputed")
        fly = _member_predictions(params, config, q, ctx, 4, 1.25, 9,
                                  cache_mode="on_the_fly")
        np.testing.assert_array_equal(pre, fly)

    def test_lengths_must_ascend(self):
        params, config, ctx, q = self._setup()
        with pytest.raises(ContractError, match="ascending"):
            benchmark_inference(params, config, q, ctx, [8, 4], 1)

    def test_every_length_is_checked_before_any_is_timed(self, monkeypatch):
        params, config, ctx, q = self._setup()
        timed = []
        monkeypatch.setattr(pipeline, "_member_predictions",
                            lambda *args, **kwargs: timed.append(kwargs["l_max"]))
        with pytest.raises(ContractError) as exc:
            benchmark_inference(params, config, q, ctx, [4, 8, len(ctx) + 1], 1)
        assert str(exc.value) == f"only {len(ctx)} context points available, need {len(ctx) + 1}"
        assert timed == []

    def test_unknown_mode_rejected(self):
        params, config, ctx, q = self._setup()
        with pytest.raises(ContractError, match="mode"):
            _member_predictions(params, config, q, ctx, 1, 1.25, 0, cache_mode="nope")


class TestDrawCounts:
    """Context rows are drawn a batch at a time: one ``subset_indices`` call
    per training minibatch and per chunk of queries, for all members."""

    @pytest.fixture()
    def draws(self, monkeypatch):
        shapes = []
        for owner in (spatial, pipeline):
            def counted(rows, *args, _draw=owner.subset_indices):
                shapes.append(rows.shape[:-1])
                return _draw(rows, *args)
            monkeypatch.setattr(owner, "subset_indices", counted)
        return shapes

    def test_one_draw_per_minibatch(self, draws):
        ds = tiny_dataset(70)
        train(ds, tiny_config(), TrainConfig(epochs=2, seed=0, batch=16))
        assert draws == [(16,), (16,), (16,), (16,), (6,)] * 2

    @pytest.mark.parametrize("mode", ["precomputed", "on_the_fly"])
    def test_one_draw_per_chunk(self, draws, mode):
        ds = tiny_dataset(400, seed=6)
        config = tiny_config()
        params, _ = train(ds, config, TrainConfig(epochs=0, seed=6))
        tr, te = split_dataset(ds, 0.7, 6)
        ctx, q = ContextPool(tr), QueryPool(te)
        members = 3
        per_chunk = _CHUNK_ROWS // members
        ctx.tree.reset_query_count()
        _member_predictions(params, config, q, ctx, members, 1.25, 0, cache_mode=mode)
        assert len(draws) == math.ceil(len(q) / per_chunk) == 2
        assert [shape[0] for shape in draws] == [members] * 2
        assert sum(shape[1] for shape in draws) == len(q)
        # the naive mode still searches the tree once per (member, query)
        assert ctx.tree.query_count == (members * len(q) if mode == "on_the_fly" else len(q))


class TestConfigChecks:
    @pytest.mark.parametrize("field, value, message", [
        ("lr", 0.0, "lr must be finite and positive, got 0.0"),
        ("lr", -1.0, "lr must be finite and positive, got -1.0"),
        ("lr", float("inf"), "lr must be finite and positive, got inf"),
        ("lr", float("nan"), "lr must be finite and positive, got nan"),
        ("expansion_factor", float("nan"), "expansion_factor must be finite and >= 1, got nan"),
        ("expansion_factor", float("inf"), "expansion_factor must be finite and >= 1, got inf"),
    ])
    def test_out_of_range_float_is_rejected(self, field, value, message):
        with pytest.raises(ContractError, match=f"^{message}$"):
            TrainConfig(**{field: value})


class TestCsvWriters:
    def test_predictions_schema(self, tmp_path):
        pred = EnsemblePrediction(ids=np.array([3, 1]), mean=np.array([0.5, -1.0]),
                                  std=np.array([0.1, 0.0]), members=4)
        path = tmp_path / "pred.csv"
        write_predictions_csv(path, pred)
        lines = path.read_text().splitlines()
        assert lines[0] == "id,y_mean,y_std"
        assert lines[1].startswith("3,0.5,")
        assert len(lines) == 3

    def test_loss_schema(self, tmp_path):
        path = tmp_path / "loss.csv"
        write_loss_csv(path, [1.5, 0.5])
        assert path.read_text().splitlines() == ["epoch,mse", "0,1.5", "1,0.5"]

    def test_bench_schema_with_ratio_row(self, tmp_path):
        rows = [
            BenchRecord(16, "on_the_fly", 2.0, 30),
            BenchRecord(16, "precomputed", 1.0, 10),
        ]
        path = tmp_path / "bench.csv"
        write_bench_csv(path, rows)
        lines = path.read_text().splitlines()
        assert lines[0] == "length,mode,seconds"
        assert lines[-1] == "all,ratio,0.5"
