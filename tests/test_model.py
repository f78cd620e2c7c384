"""Model-level tests: embedding, rotary encoding, biased attention, blocks,
and the composed forward pass on recording and non-recording tapes."""

import json
import math
import tempfile
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from geoagg import autodiff as ad
from geoagg import model as model_module
from geoagg.autodiff import ContractError, Tape, grad_check
from geoagg.model import (
    ModelConfig,
    bind_params,
    embed,
    forward_batch,
    forward_on_tape,
    induced_block,
    init_params,
    load_params,
    param_grads,
    param_shapes,
    save_params,
)
from geoagg.spatial import PointRecord


def toy_config(**overrides):
    base = dict(d_model=8, n_heads=2, n_inducing=2, l_max=16, n_layers=1)
    base.update(overrides)
    return ModelConfig(**base)


def toy_params(config, p=2, seed=0, randomize_all=True):
    rng = np.random.default_rng(seed)
    params = init_params(config, p, rng)
    if randomize_all:
        for name, arr in params.arrays.items():
            if not arr.any():
                params.arrays[name] = rng.normal(0.0, 0.3, size=arr.shape)
    return params


def toy_sequence(n, p=2, seed=0, start_id=0):
    rng = np.random.default_rng(seed)
    return [
        PointRecord(start_id + i, float(rng.random()), float(rng.random()),
                    rng.normal(size=p), float(rng.normal()))
        for i in range(n)
    ]


def seq_arrays(sequence):
    """``(feats, coords)`` of a target-first record list.

    Unlike assembled sequences, the target row keeps its own y in the last
    channel, so the tests see whether the model masks it.
    """
    feats = np.array([np.append(r.x, r.y) for r in sequence])
    coords = np.array([[r.u, r.v] for r in sequence])
    return feats, coords


def predict(sequence, params, config):
    """Scalar prediction and aggregation weights for one sequence on a tape
    that records nothing."""
    tape = Tape(record=False)
    out, alpha = forward_on_tape(tape, bind_params(tape, params), seq_arrays(sequence),
                                 config)
    return float(out.value[0, 0]), alpha


def reference_mha(q, k, v, n_heads):
    """Plain multi-head attention written independently with einsum."""
    nq, d = q.shape
    hd = d // n_heads
    qh = q.reshape(nq, n_heads, hd)
    kh = k.reshape(-1, n_heads, hd)
    vh = v.reshape(-1, n_heads, hd)
    logits = np.einsum("qhd,khd->hqk", qh, kh) / math.sqrt(hd)
    e = np.exp(logits - logits.max(axis=-1, keepdims=True))
    alpha = e / e.sum(axis=-1, keepdims=True)
    return np.einsum("hqk,khd->qhd", alpha, vh).reshape(nq, d)


class TestEmbed:
    def test_zero_weights_give_bias_row(self):
        config = toy_config()
        params = toy_params(config, randomize_all=False)
        params.arrays["embed_w"][:] = 0.0
        params.arrays["embed_b"][:] = np.arange(8.0)
        tape = Tape()
        out = embed(tape, bind_params(tape, params), seq_arrays(toy_sequence(5))[0])
        np.testing.assert_allclose(out.value, np.tile(np.arange(8.0), (5, 1)), atol=1e-15)

    def test_permuting_context_permutes_rows(self):
        config = toy_config()
        params = toy_params(config)
        seq = toy_sequence(6)
        tape = Tape()
        base = embed(tape, bind_params(tape, params), seq_arrays(seq)[0]).value
        perm = [seq[0], seq[3], seq[1], seq[5], seq[2], seq[4]]
        shuffled = embed(tape, bind_params(tape, params), seq_arrays(perm)[0]).value
        np.testing.assert_array_equal(shuffled[1], base[3])
        np.testing.assert_array_equal(shuffled[4], base[2])

    def test_target_y_is_masked_out(self):
        config = toy_config()
        params = toy_params(config)
        seq = toy_sequence(5)
        changed = [PointRecord(seq[0].id, seq[0].u, seq[0].v, seq[0].x, 999.0)] + seq[1:]
        tape = Tape()
        a = embed(tape, bind_params(tape, params), seq_arrays(seq)[0]).value
        b = embed(tape, bind_params(tape, params), seq_arrays(changed)[0]).value
        np.testing.assert_array_equal(a, b)

    def test_covariate_count_mismatch_rejected(self):
        config = toy_config()
        params = toy_params(config, p=2)
        bad = [PointRecord(0, 0.1, 0.2, np.zeros(3), 1.0)]
        tape = Tape()
        with pytest.raises(ContractError, match="covariates"):
            embed(tape, bind_params(tape, params), seq_arrays(bad)[0])


class TestRope2d:
    def test_origin_is_identity(self):
        rng = np.random.default_rng(0)
        x = rng.normal(size=(3, 8))
        tape = Tape()
        out = ad.rope2d(tape.slot(x), np.zeros((3, 2)), 100.0)
        np.testing.assert_array_equal(out.value, x)

    def test_norm_preserved(self):
        rng = np.random.default_rng(1)
        x = rng.normal(size=(5, 8))
        coords = rng.random((5, 2)) * 3
        tape = Tape()
        out = ad.rope2d(tape.slot(x), coords, 100.0)
        np.testing.assert_allclose(
            np.linalg.norm(out.value, axis=1), np.linalg.norm(x, axis=1), atol=1e-12
        )

    def test_translation_leaves_logits_unchanged(self):
        """q . k after rotation depends only on coordinate differences."""
        rng = np.random.default_rng(2)
        q = rng.normal(size=(1, 8))
        k = rng.normal(size=(6, 8))
        coords = rng.random((7, 2))
        shift = np.array([0.37, -1.21])

        def logits(cs):
            tape = Tape()
            qr = ad.rope2d(tape.slot(q), cs[0:1], 100.0).value
            kr = ad.rope2d(tape.slot(k), cs[1:], 100.0).value
            return qr @ kr.T

        np.testing.assert_allclose(logits(coords), logits(coords + shift), atol=1e-9)

    def test_odd_pairing_rejected(self):
        tape = Tape()
        with pytest.raises(ContractError, match="divisible by 4"):
            ad.rope2d(tape.slot(np.zeros((2, 6))), np.zeros((2, 2)), 100.0)

    def test_per_head_blocks_match_per_head_application(self):
        rng = np.random.default_rng(3)
        x = rng.normal(size=(4, 16))
        coords = rng.random((4, 2))
        tape = Tape()
        whole = ad.rope2d(tape.slot(x), coords, 100.0, block=8).value
        left = ad.rope2d(tape.slot(x[:, :8].copy()), coords, 100.0).value
        right = ad.rope2d(tape.slot(x[:, 8:].copy()), coords, 100.0).value
        np.testing.assert_allclose(whole, np.hstack([left, right]), atol=1e-15)


class TestBiasedAttention:
    def _qkv(self, seed=0, nq=3, L=6, d=8):
        rng = np.random.default_rng(seed)
        return rng.normal(size=(nq, d)), rng.normal(size=(L, d)), rng.normal(size=(L, d))

    def _attend(self, q, k, v, d2, lam):
        """(out, alpha) of two-head attention with squared-distance penalties."""
        tape = Tape()
        return ad.multihead_attention(tape.slot(q), tape.slot(k), tape.slot(v), 2,
                                      lam=tape.slot(lam), sq_dist=d2)

    def test_zero_bias_equals_standard_attention(self):
        q, k, v = self._qkv()
        d2 = np.abs(np.random.default_rng(1).normal(size=(3, 6)))
        out, _ = self._attend(q, k, v, d2, np.zeros((2, 1)))
        np.testing.assert_allclose(out.value, reference_mha(q, k, v, 2), atol=1e-12)

    def test_single_context_token_gets_full_weight(self):
        q, k, v = self._qkv(nq=1, L=1)
        for lam in (0.0, 1.0, 5.0):
            _, alpha = self._attend(q, k, v, np.array([[2.0]]), np.full((2, 1), lam))
            np.testing.assert_array_equal(alpha, np.ones((2, 1, 1)))

    def test_two_tokens_closed_form(self):
        """Equal logits, d2 = (0, 1), lam = 1 gives weights (0.7311, 0.2689)."""
        q = np.zeros((1, 8))
        _, k, v = self._qkv(L=2)
        _, alpha = self._attend(q, k, v, np.array([[0.0, 1.0]]), np.ones((2, 1)))
        np.testing.assert_allclose(alpha[:, 0, :], [[0.7311, 0.2689]] * 2, atol=1e-4)

    def test_weight_on_far_point_decreases_with_lambda(self):
        q, k, v = self._qkv(nq=1, L=2, seed=4)
        far_weights = []
        for lam in (0.0, 0.5, 1.0, 2.0):
            _, alpha = self._attend(q, k, v, np.array([[0.0, 1.0]]), np.full((2, 1), lam))
            far_weights.append(alpha[:, 0, 1].copy())
        for prev, nxt in zip(far_weights, far_weights[1:]):
            assert (nxt < prev).all()

    def test_negative_distance_rejected(self):
        q, k, v = self._qkv()
        with pytest.raises(ContractError, match="nonnegative"):
            self._attend(q, k, v, np.full((3, 6), -0.5), np.ones((2, 1)))

    def test_rows_sum_to_one(self):
        q, k, v = self._qkv(seed=5)
        d2 = np.abs(np.random.default_rng(6).normal(size=(3, 6)))
        _, alpha = self._attend(q, k, v, d2, np.array([[0.3], [2.0]]))
        np.testing.assert_allclose(alpha.sum(axis=-1), 1.0, atol=1e-9, rtol=0)

    def test_perturbing_one_lambda_touches_only_that_head(self):
        q, k, v = self._qkv(seed=7)
        d2 = np.abs(np.random.default_rng(8).normal(size=(3, 6)))

        def alphas(lams):
            return self._attend(q, k, v, d2, lams)[1]

        base = alphas(np.array([[1.0], [1.0]]))
        bumped = alphas(np.array([[1.0], [3.5]]))
        np.testing.assert_array_equal(base[0], bumped[0])
        assert np.abs(base[1] - bumped[1]).max() > 1e-6


class TestInducedBlock:
    def _block(self, config, params, tokens_value, layer=0):
        tape = Tape()
        bound = bind_params(tape, params)
        tokens = tape.slot(tokens_value)
        return induced_block(tokens, bound, f"l{layer}.", config.n_heads)

    def test_summary_is_permutation_invariant(self):
        config = toy_config()
        params = toy_params(config)
        rng = np.random.default_rng(9)
        tokens = rng.normal(size=(10, 8))
        s1, _ = self._block(config, params, tokens)
        s2, _ = self._block(config, params, tokens[rng.permutation(10)])
        np.testing.assert_allclose(s1.value, s2.value, atol=1e-9)

    def test_single_inducing_point_is_weighted_mean(self):
        """With m=1 the summary update is one softmax-weighted mean of values."""
        config = toy_config(n_inducing=1)
        params = toy_params(config)
        rng = np.random.default_rng(10)
        tokens = rng.normal(size=(7, 8))
        summary, _ = self._block(config, params, tokens)

        ind = params.arrays["l0.ind"]
        qa = ind @ params.arrays["l0.a.wq"]
        ka = tokens @ params.arrays["l0.a.wk"]
        va = tokens @ params.arrays["l0.a.wv"]
        pooled = reference_mha(qa, ka, va, config.n_heads)
        want = ind + pooled @ params.arrays["l0.a.wo"]
        np.testing.assert_allclose(summary.value, want, atol=1e-12)

    def test_refreshed_context_follows_permutation(self):
        config = toy_config()
        params = toy_params(config)
        rng = np.random.default_rng(11)
        tokens = rng.normal(size=(9, 8))
        perm = rng.permutation(9)
        _, r1 = self._block(config, params, tokens)
        _, r2 = self._block(config, params, tokens[perm])
        np.testing.assert_allclose(r2.value, r1.value[perm], atol=1e-9)

    def test_linear_time_scaling_in_sequence_length(self):
        """CPU time against L fits a line well (the block is O(L m) per call).

        Timed at a width where the length-proportional work is a large share
        of each call, in CPU seconds of this process, so time a shared host
        gives to other tenants is not counted; minimum over repetitions
        filters the remaining noise.  Within a repetition the lengths take
        turns call by call, so that a change in machine speed reaches every
        length alike.
        """
        import time

        config = toy_config(d_model=64, n_heads=4, n_inducing=8, l_max=128)
        params = toy_params(config, seed=1)
        rng = np.random.default_rng(12)
        for _ in range(60):
            self._block(config, params, rng.normal(size=(128, 64)))

        lengths = [16, 32, 64, 128]
        tokens = [rng.normal(size=(length, 64)) for length in lengths]
        reps = np.zeros((11, len(lengths)))
        for rep in reps:
            for _ in range(20):
                for i, seq in enumerate(tokens):
                    t0 = time.process_time()
                    self._block(config, params, seq)
                    rep[i] += time.process_time() - t0
        times = reps.min(axis=0)
        slope, intercept = np.polyfit(lengths, times, 1)
        fitted = slope * np.asarray(lengths) + intercept
        ss_res = ((np.asarray(times) - fitted) ** 2).sum()
        ss_tot = ((np.asarray(times) - np.mean(times)) ** 2).sum()
        assert 1 - ss_res / ss_tot >= 0.95


class TestForward:
    def test_target_alone_is_finite(self):
        config = toy_config()
        params = toy_params(config)
        yhat, _ = predict(toy_sequence(1), params, config)
        assert np.isfinite(yhat)

    def test_duplicated_context_shifts_softmax_shares(self):
        """Documented behaviour: duplicating the context is NOT a no-op.

        The target keeps a single sequence slot while every context point
        doubles its softmax share (in the induced summary and in the target
        aggregation), so the prediction moves.  It stays finite and fully
        deterministic; the movement itself is pinned here so a change in this
        behaviour is caught.
        """
        config = toy_config(l_max=32)
        params = toy_params(config)
        seq = toy_sequence(7)
        doubled = seq + seq[1:]
        a, _ = predict(seq, params, config)
        b, _ = predict(doubled, params, config)
        b2, _ = predict(doubled, params, config)
        assert np.isfinite(a) and np.isfinite(b)
        assert b == b2
        assert a != b

    def test_no_target_leakage(self):
        config = toy_config()
        params = toy_params(config)
        seq = toy_sequence(6)
        spoofed = [PointRecord(seq[0].id, seq[0].u, seq[0].v, seq[0].x, -1e6)] + seq[1:]
        a, _ = predict(seq, params, config)
        b, _ = predict(spoofed, params, config)
        assert a == b

    def test_trace_rows_sum_to_one(self):
        config = toy_config()
        params = toy_params(config)
        _, alpha = predict(toy_sequence(8), params, config)
        assert alpha.shape == (2, 1, 8)
        assert not alpha.flags.writeable
        np.testing.assert_allclose(alpha.sum(axis=-1), 1.0, atol=1e-9, rtol=0)

    def test_legacy_single_abf_matches_equal_per_head(self):
        """Shared-factor mode equals per-head mode with all factors equal."""
        per_head = toy_config()
        legacy = toy_config(legacy_single_abf=True)
        params = toy_params(per_head, seed=3)
        params.arrays["agg.lam_raw"] = np.full((2, 1), 0.437)
        params_legacy = params.copy()
        params_legacy.arrays["agg.lam_raw"] = np.full((1, 1), 0.437)
        seq = toy_sequence(9, seed=4)
        a, _ = predict(seq, params, per_head)
        b, _ = predict(seq, params_legacy, legacy)
        assert abs(a - b) < 1e-12

    def test_gradient_matches_finite_differences(self):
        config = toy_config()
        params = toy_params(config, seed=5)
        seq = seq_arrays(toy_sequence(8, seed=6))
        y = np.array([[0.321]])
        for name in ("agg.wq", "embed_w", "agg.lam_raw", "l0.ind", "head.w2"):
            saved = params.arrays[name]

            def f(v):
                tape = v.tape
                bound = bind_params(tape, params)
                bound.vars[name] = v
                out, _ = forward_on_tape(tape, bound, seq, config)
                r = ad.sub(out, y)
                return ad.mul(r, r)

            err = grad_check(f, saved)
            assert err < 1e-4, f"{name}: {err:.3e}"

    def test_sequence_longer_than_l_max_rejected(self):
        config = toy_config(l_max=4)
        params = toy_params(config)
        with pytest.raises(ContractError, match="l_max"):
            predict(toy_sequence(6), params, config)

    def test_tape_path_matches_inference_path(self):
        """Recording and non-recording tapes compute the same number and weights,
        and forward_batch gives it too."""
        for trial, (length, legacy, m, layers) in enumerate(
            [(1, False, 2, 1), (5, False, 1, 1), (9, True, 3, 2), (16, False, 8, 2)]
        ):
            config = ModelConfig(d_model=16, n_heads=4, n_inducing=m, l_max=32,
                                 n_layers=layers, legacy_single_abf=legacy)
            params = toy_params(config, seed=trial)
            seq = toy_sequence(length, seed=trial + 50)
            fast, fast_alpha = predict(seq, params, config)
            tape = Tape()
            out, alpha = forward_on_tape(tape, bind_params(tape, params), seq_arrays(seq),
                                         config)
            assert abs(fast - float(out.value[0, 0])) < 1e-12
            np.testing.assert_allclose(fast_alpha, alpha, atol=1e-12, rtol=0)
            feats, coords = seq_arrays(seq)
            batch = forward_batch(feats[None], coords[None], params, config)
            assert abs(batch[0] - float(out.value[0, 0])) < 1e-12

    def test_batched_loss_gradient_is_mean_of_sequence_gradients(self):
        """One tape over a minibatch gives the averaged per-sequence gradients."""
        config = toy_config(n_layers=2)
        params = toy_params(config, seed=11)
        sequences = [seq_arrays(toy_sequence(8, seed=s)) for s in range(5)]
        targets = np.random.default_rng(12).normal(size=5)

        def grads(feats, coords, y):
            tape = Tape()
            bound = bind_params(tape, params)
            out, _ = forward_on_tape(tape, bound, (feats, coords), config)
            r = ad.sub(out, y.reshape(out.value.shape))
            ad.backward(tape, ad.mean_all(ad.mul(r, r)))
            return param_grads(tape, bound)

        stacked = grads(np.stack([f for f, _ in sequences]),
                        np.stack([c for _, c in sequences]), targets)
        singles = [grads(f, c, targets[i:i + 1]) for i, (f, c) in enumerate(sequences)]
        for name, g in stacked.items():
            mean = sum(single[name] for single in singles) / len(singles)
            np.testing.assert_allclose(g, mean, atol=1e-12, rtol=1e-10, err_msg=name)


class TestForwardBatch:
    def _normalised_params(self, config):
        params = toy_params(config, seed=9)
        params.norm["x_mean"] = np.array([[0.3, -0.1]])
        params.norm["x_std"] = np.array([[1.4, 0.6]])
        params.norm["y_mean"] = np.array([[0.7]])
        params.norm["y_std"] = np.array([[2.2]])
        return params

    def test_matches_sequential_forward(self):
        """B stacked sequences give what the recording tape gives each alone."""
        for legacy in (False, True):
            config = toy_config(d_model=16, n_heads=4, l_max=16,
                                n_layers=2, legacy_single_abf=legacy)
            params = self._normalised_params(config)
            sequences = [seq_arrays(toy_sequence(10, seed=s)) for s in range(7)]
            feats = np.stack([f for f, _ in sequences])
            coords = np.stack([c for _, c in sequences])
            batched = forward_batch(feats, coords, params, config)
            single = []
            for seq in sequences:
                tape = Tape()
                out, _ = forward_on_tape(tape, bind_params(tape, params), seq, config)
                single.append(float(out.value[0, 0]))
            np.testing.assert_allclose(batched, single, atol=1e-12, rtol=0)

    def test_row_blocks_match_one_pass(self):
        """A batch longer than a row block gives what one pass over it gives."""
        config = toy_config(d_model=16, n_heads=4, l_max=16, n_layers=2)
        params = self._normalised_params(config)
        n = 2 * model_module._ROW_BLOCK + 3
        sequences = [seq_arrays(toy_sequence(10, seed=s)) for s in range(n)]
        feats = np.stack([f for f, _ in sequences])
        coords = np.stack([c for _, c in sequences])
        tape = Tape(record=False)
        whole, _ = forward_on_tape(tape, bind_params(tape, params), (feats, coords), config)
        batched = forward_batch(feats, coords, params, config)
        assert batched.shape == (n,)
        np.testing.assert_allclose(batched, whole.value.reshape(n), atol=1e-12, rtol=0)
        assert forward_batch(feats[:0], coords[:0], params, config).shape == (0,)

    def test_no_record_tape_stores_nothing(self):
        config = toy_config(d_model=16, n_heads=4, l_max=16, n_layers=2)
        params = self._normalised_params(config)
        sequences = [seq_arrays(toy_sequence(10, seed=s)) for s in range(3)]
        batch = tuple(np.stack(parts) for parts in zip(*sequences))
        tape = Tape(record=False)
        out, alpha = forward_on_tape(tape, bind_params(tape, params), batch, config)
        assert out.value.shape == (3, 1, 1)
        assert alpha.shape == (3, 4, 1, 10)
        assert tape.values == [] and tape.ops == [] and tape.grads == []
        with pytest.raises(ContractError, match="records"):
            ad.backward(tape, ad.mean_all(out))

    def test_shape_validation(self):
        config = toy_config()
        params = toy_params(config)
        with pytest.raises(ContractError, match="forward_batch"):
            forward_batch(np.zeros((2, 4, 3)), np.zeros((2, 3, 2)), params, config)
        with pytest.raises(ContractError, match="covariate"):
            forward_batch(np.zeros((2, 4, 5)), np.zeros((2, 4, 2)), params, config)


class TestConfigValidation:
    def test_head_divisibility(self):
        with pytest.raises(ContractError, match="divisible"):
            ModelConfig(d_model=30, n_heads=4)

    def test_head_dim_must_be_even(self):
        with pytest.raises(ContractError, match="^head_dim=3 must be divisible by 4$"):
            ModelConfig(d_model=12, n_heads=4)

    @pytest.mark.parametrize("fields, message", [
        ({"n_heads": 0}, "n_heads must be at least 1, got 0"),
        ({"n_heads": -4}, "n_heads must be at least 1, got -4"),
        ({"d_model": 0}, "d_model must be at least 1, got 0"),
        ({"d_model": -32}, "d_model must be at least 1, got -32"),
        ({"d_model": 24, "n_heads": 4}, "head_dim=6 must be divisible by 4"),
    ])
    def test_impossible_heads_are_rejected_up_front(self, fields, message):
        """Checked before the head width is computed, and as strictly as the
        rotary encoding reads it."""
        with pytest.raises(ContractError, match=f"^{message}$"):
            ModelConfig(**fields)

    def test_lambda_init_positive(self):
        with pytest.raises(ContractError):
            ModelConfig(lambda_init=0.0)

    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    def test_lambda_init_finite(self, value):
        with pytest.raises(ContractError, match="lambda_init must be finite"):
            ModelConfig(lambda_init=value)

    @pytest.mark.parametrize("value", [-5.0, 0.0, float("nan"), float("inf")])
    def test_rope_base_finite_and_positive(self, value):
        with pytest.raises(ContractError, match="rope_base must be finite and positive"):
            ModelConfig(rope_base=value)

    def test_large_lambda_init_gives_a_finite_raw_factor(self):
        params = init_params(ModelConfig(lambda_init=1000.0), 2, np.random.default_rng(0))
        lam_raw = params.arrays["agg.lam_raw"]
        assert np.isfinite(lam_raw).all()
        np.testing.assert_array_equal(np.logaddexp(0.0, lam_raw), 1000.0)


@st.composite
def saved_models(draw):
    """A valid small config, its parameter arrays and constants filled with
    arbitrary finite doubles (signed zeros and subnormals included), and an
    optional train-config dict."""
    n_heads = draw(st.sampled_from([1, 2, 4]))
    config = ModelConfig(
        d_model=n_heads * draw(st.sampled_from([4, 8])),
        n_heads=n_heads,
        n_inducing=draw(st.integers(1, 3)),
        l_max=draw(st.integers(2, 16)),
        n_layers=draw(st.integers(1, 2)),
        lambda_init=draw(st.floats(1e-3, 1e3)),
        rope_base=draw(st.floats(1.0, 1e4)),
        legacy_single_abf=draw(st.booleans()),
    )
    shapes, constants = param_shapes(config, draw(st.integers(1, 3)))
    doubles = st.floats(allow_nan=False, allow_infinity=False, width=64)
    params = model_module.ModelParams(
        arrays={k: draw(arrays(np.float64, shape, elements=doubles))
                for k, (shape, _) in shapes.items()},
        norm={k: draw(arrays(np.float64, shape, elements=doubles))
              for k, shape in constants.items()},
    )
    train = draw(st.none() | st.fixed_dictionaries(
        {}, optional={"epochs": st.integers(0, 99), "lr": st.floats(1e-6, 1.0),
                      "seed": st.integers(0, 2**31)}))
    return config, params, train


class TestSerialization:
    def test_round_trip(self, tmp_path):
        config = toy_config()
        params = toy_params(config, seed=8)
        path = tmp_path / "model.json"
        save_params(path, params, config, {"epochs": 3})
        back, cfg2, tc = load_params(path)
        assert cfg2 == config
        assert tc == {"epochs": 3}
        for name, arr in params.arrays.items():
            np.testing.assert_array_equal(back.arrays[name], arr)
        for name, arr in params.norm.items():
            np.testing.assert_array_equal(back.norm[name], arr)

    @settings(max_examples=40, deadline=None, database=None)
    @given(case=saved_models())
    def test_round_trip_is_byte_exact(self, case):
        config, params, train = case
        with tempfile.TemporaryDirectory() as tmp:
            first, second = Path(tmp) / "a.json", Path(tmp) / "b.json"
            save_params(first, params, config, train)
            back, config_back, train_back = load_params(first)
            save_params(second, back, config_back, train_back)
            assert first.read_bytes() == second.read_bytes()
        assert config_back == config
        assert train_back == train
        for kind, want, got in (("arrays", params.arrays, back.arrays),
                                ("norm", params.norm, back.norm)):
            assert got.keys() == want.keys(), kind
            for name, arr in want.items():
                assert got[name].dtype == np.float64 and got[name].shape == arr.shape
                assert got[name].tobytes() == arr.tobytes(), f"{kind} {name}"

    def test_byte_stable(self, tmp_path):
        config = toy_config()
        params = toy_params(config, seed=8)
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        save_params(a, params, config)
        save_params(b, params, config)
        assert a.read_bytes() == b.read_bytes()

    def test_unknown_format_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"format": "other", "arrays": {}}')
        with pytest.raises(ContractError, match="format"):
            load_params(path)

    def _edited(self, tmp_path, edit):
        config = toy_config()
        path = tmp_path / "model.json"
        save_params(path, toy_params(config, seed=8), config)
        doc = json.loads(path.read_text())
        edit(doc)
        path.write_text(json.dumps(doc))
        return path

    def test_missing_array_rejected(self, tmp_path):
        path = self._edited(tmp_path, lambda doc: doc["arrays"].pop("agg.wv"))
        with pytest.raises(ContractError, match="lacks array 'agg.wv'"):
            load_params(path)

    def test_wrongly_shaped_array_rejected(self, tmp_path):
        def drop_a_row(doc):
            doc["arrays"]["l0.a.wk"] = doc["arrays"]["l0.a.wk"][1:]

        path = self._edited(tmp_path, drop_a_row)
        with pytest.raises(ContractError, match=r"'l0.a.wk' has shape \(7, 8\).*\(8, 8\)"):
            load_params(path)

    @pytest.mark.parametrize("kind, section, name, value", [
        ("array", "arrays", "agg.wq", float("nan")),
        ("constant", "norm", "y_std", float("inf")),
    ])
    def test_saving_non_finite_values_rejected(self, tmp_path, kind, section, name, value):
        config = toy_config()
        params = toy_params(config, seed=8)
        getattr(params, section)[name][0, 0] = value
        path = tmp_path / "model.json"
        with pytest.raises(ContractError, match=f"^model {kind} '{name}' holds non-finite"):
            save_params(path, params, config)
        assert not path.exists()

    @pytest.mark.parametrize("kind, section, name, value", [
        ("array", "arrays", "head.w1", float("nan")),
        ("constant", "constants", "x_mean", float("-inf")),
    ])
    def test_loading_non_finite_values_rejected(self, tmp_path, kind, section, name, value):
        def poison(doc):
            doc[section][name][0][0] = value  # json writes NaN / -Infinity

        path = self._edited(tmp_path, poison)
        with pytest.raises(ContractError,
                           match=f"^parameter file {kind} '{name}' holds non-finite"):
            load_params(path)

    def test_claimed_sizes_allocate_nothing(self, tmp_path, monkeypatch):
        """A file whose config claims a model of 7 TiB fails on its first
        misfit shape, without drawing or allocating that model: loading it
        peaks no higher than loading the file as saved (the claim's own few
        bytes of text aside)."""
        config = ModelConfig()
        path = tmp_path / "model.json"
        save_params(path, init_params(config, 2, np.random.default_rng(0)), config)
        claimed = tmp_path / "claimed.json"
        doc = json.loads(path.read_text())
        doc["model_config"]["d_model"] = 10 ** 6
        claimed.write_text(json.dumps(doc))

        def drawn(*args, **kwargs):
            raise AssertionError("load_params builds or draws a model")

        monkeypatch.setattr(model_module, "init_params", drawn)
        monkeypatch.setattr(np.random, "default_rng", drawn)
        load_params(path)  # warm the import and allocator caches

        def peak(path):
            """Traced peak bytes of loading ``path``, and its one-line error."""
            tracemalloc.start()
            try:
                load_params(path)
            except ContractError as exc:
                return tracemalloc.get_traced_memory()[1], str(exc)
            else:
                return tracemalloc.get_traced_memory()[1], None
            finally:
                tracemalloc.stop()

        saved, error = peak(path)
        assert error is None
        refused, error = peak(claimed)
        assert error == ("parameter file array 'agg.wk' has shape (32, 32), "
                         "its config needs (1000000, 1000000)")
        assert refused <= saved + 1024

    def test_layer_count_past_the_arrays_rejected(self, tmp_path):
        """A claimed layer count is bounded by the file's arrays before any
        parameter name is listed, so a billion layers fail at once."""
        path = self._edited(tmp_path, lambda doc: doc["model_config"].update(n_layers=10 ** 9))
        with pytest.raises(ContractError) as exc:
            load_params(path)
        assert str(exc.value) == "parameter file holds 22 arrays, too few for n_layers=1000000000"
        path = self._edited(tmp_path, lambda doc: doc["model_config"].update(n_layers=2))
        with pytest.raises(ContractError, match="^parameter file lacks array 'l1.a.wk'$"):
            load_params(path)

    def test_unknown_model_config_key_rejected(self, tmp_path):
        path = self._edited(tmp_path, lambda doc: doc["model_config"].update(d_ff=64))
        with pytest.raises(ContractError, match="unknown model_config key 'd_ff'"):
            load_params(path)
