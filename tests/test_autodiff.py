"""Unit tests for the tape, primitive gradients, and the Adam optimiser."""

import re
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from geoagg import autodiff as ad
from geoagg.autodiff import (
    AdamState,
    ContractError,
    ShapeError,
    Tape,
    adam_step,
    backward,
    grad_check,
)
from geoagg.model import ModelConfig, bind_params, forward_on_tape, init_params, param_grads


class TestMatmul:
    def test_identity(self):
        t = Tape()
        out = ad.matmul(t.slot([[1.0, 0.0], [0.0, 1.0]]), t.slot([[5.0, 6.0], [7.0, 8.0]]))
        np.testing.assert_array_equal(out.value, [[5.0, 6.0], [7.0, 8.0]])

    def test_row_times_column(self):
        t = Tape()
        out = ad.matmul(t.slot([[1.0, 2.0]]), t.slot([[3.0], [4.0]]))
        np.testing.assert_array_equal(out.value, [[11.0]])

    def test_matches_triple_loop_oracle(self):
        rng = np.random.default_rng(7)
        a = rng.normal(size=(3, 4))
        b = rng.normal(size=(4, 2))
        want = np.zeros((3, 2))
        for i in range(3):
            for j in range(2):
                for k in range(4):
                    want[i, j] += a[i, k] * b[k, j]
        t = Tape()
        got = ad.matmul(t.slot(a), t.slot(b)).value
        np.testing.assert_allclose(got, want, atol=1e-12, rtol=0)

    def test_shape_error_names_both_shapes(self):
        t = Tape()
        with pytest.raises(ShapeError, match=r"\(2, 3\).*\(2, 2\)"):
            ad.matmul(t.slot(np.zeros((2, 3))), t.slot(np.zeros((2, 2))))

    def test_associativity(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            a = rng.normal(size=(3, 5))
            b = rng.normal(size=(5, 4))
            c = rng.normal(size=(4, 2))
            t = Tape()
            left = ad.matmul(ad.matmul(t.slot(a), t.slot(b)), t.slot(c)).value
            right = ad.matmul(t.slot(a), ad.matmul(t.slot(b), t.slot(c))).value
            np.testing.assert_allclose(left, right, rtol=1e-9)


def _attention_weights(logits):
    """One head's attention weights when its scaled logits are ``logits`` ``(n_q, L)``."""
    logits = np.asarray(logits, dtype=np.float64)
    n_q = logits.shape[0]
    t = Tape(record=False)
    q = t.slot(np.eye(n_q) * np.sqrt(n_q))  # cancels the 1/sqrt(head width) scale
    k = t.slot(logits.T)
    return ad.multihead_attention(q, k, t.slot(np.zeros(k.value.shape)), 1)[1][0]


class TestSoftmaxRows:
    """Each row of attention weights is a softmax of that query's logits.

    Shapes with more queries than keys run the keys-first layout (see
    ``autodiff._keys_first``).
    """

    def test_symmetric_pair(self):
        np.testing.assert_allclose(_attention_weights([[0.0, 0.0]]), [[0.5, 0.5]],
                                   atol=1e-15)

    def test_closed_form_pair(self):
        np.testing.assert_allclose(_attention_weights([[0.0, -1.0]]), [[0.7311, 0.2689]],
                                   atol=1e-4)

    def test_large_logit_does_not_overflow(self):
        for logits, want in [([[1000.0, 0.0]], [[1.0, 0.0]]),
                             ([[1000.0, 0.0], [0.0, 1000.0], [-1000.0, 0.0]],
                              [[1.0, 0.0], [0.0, 1.0], [0.0, 1.0]])]:
            alpha = _attention_weights(logits)
            assert np.isfinite(alpha).all()
            np.testing.assert_allclose(alpha, want, atol=1e-300)

    def test_rows_sum_to_one(self):
        rng = np.random.default_rng(3)
        for shape in [(5, 7), (7, 5)] * 10:
            alpha = _attention_weights(rng.normal(size=shape) * 3)
            np.testing.assert_allclose(alpha.sum(axis=1), 1.0, atol=1e-12, rtol=0)

    def test_shift_invariance(self):
        rng = np.random.default_rng(4)
        for shape in [(4, 6), (6, 4)]:
            x = rng.normal(size=shape)
            np.testing.assert_allclose(_attention_weights(x), _attention_weights(x + 17.5),
                                       atol=1e-12)

    def test_leaves_its_input_unchanged(self):
        rng = np.random.default_rng(8)
        q, k, v = (rng.normal(size=(2, n, 6)) * 3 for n in (4, 3, 3))
        t = Tape()
        slots = [t.slot(a.copy()) for a in (q, k, v)]
        ad.multihead_attention(*slots, 2)
        for slot, a in zip(slots, (q, k, v)):
            np.testing.assert_array_equal(slot.value, a)


def _naive_attention(q, k, v, n_heads, lam=None, sq_dist=None):
    """Per-head einsum attention with query-major logits, as (out, alpha)."""
    hd = q.shape[-1] // n_heads
    batch = np.broadcast_shapes(q.shape[:-2], k.shape[:-2])
    out = np.empty(batch + q.shape[-2:])
    alpha = np.empty(batch + (n_heads, q.shape[-2], k.shape[-2]))
    for h in range(n_heads):
        cols = slice(h * hd, (h + 1) * hd)
        logits = np.einsum("...ie,...je->...ij", q[..., cols], k[..., cols]) / np.sqrt(hd)
        if lam is not None:
            logits = logits - lam[h if len(lam) > 1 else 0, 0] * sq_dist
        e = np.exp(logits - logits.max(axis=-1, keepdims=True))
        alpha[..., h, :, :] = e / e.sum(axis=-1, keepdims=True)
        out[..., cols] = np.einsum("...ij,...je->...ie", alpha[..., h, :, :], v[..., cols])
    return out, alpha


class TestMultiheadAttention:
    @pytest.mark.parametrize("n_q,n_keys", [(3, 7), (5, 5), (9, 4)])
    @pytest.mark.parametrize("biased", [False, True])
    def test_matches_naive_per_head_reference(self, n_q, n_keys, biased):
        rng = np.random.default_rng(n_q * 10 + n_keys)
        q = rng.normal(size=(n_q, 8))
        k = rng.normal(size=(2, n_keys, 8))
        v = rng.normal(size=(2, n_keys, 8))
        lam = np.abs(rng.normal(size=(2, 1))) if biased else None
        sq = np.abs(rng.normal(size=(2, n_q, n_keys))) if biased else None
        t = Tape(record=False)
        bias = {"lam": t.slot(lam), "sq_dist": sq} if biased else {}
        out, alpha = ad.multihead_attention(t.slot(q), t.slot(k), t.slot(v), 2, **bias)
        want_out, want_alpha = _naive_attention(q, k, v, 2, lam, sq)
        assert alpha.shape == (2, 2, n_q, n_keys)
        assert not alpha.flags.writeable
        np.testing.assert_allclose(alpha, want_alpha, atol=1e-12, rtol=0)
        np.testing.assert_allclose(out.value, want_out, atol=1e-12, rtol=0)

    def test_self_attention_matches_naive_reference(self):
        """One slot as query, key and value is scaled by 1/sqrt(head width) once."""
        x = np.random.default_rng(9).normal(size=(2, 5, 8))
        t = Tape(record=False)
        xv = t.slot(x)
        out, alpha = ad.multihead_attention(xv, xv, xv, 2)
        want_out, want_alpha = _naive_attention(x, x, x, 2)
        np.testing.assert_allclose(alpha, want_alpha, atol=1e-12, rtol=0)
        np.testing.assert_allclose(out.value, want_out, atol=1e-12, rtol=0)


def _tiled_rope(x, coords, base, block):
    """Rotary encoding with full-width cos/sin tables tiled over the blocks."""
    per_coord = block // 4
    freqs = base ** (-2.0 * np.arange(per_coord) / (block / 2.0))
    ang = np.tile(np.concatenate([coords[..., 0:1] * freqs, coords[..., 1:2] * freqs],
                                 axis=-1), x.shape[-1] // block)
    cos, sin = np.cos(ang), np.sin(ang)
    out = np.empty_like(x)
    out[..., 0::2] = x[..., 0::2] * cos - x[..., 1::2] * sin
    out[..., 1::2] = x[..., 0::2] * sin + x[..., 1::2] * cos
    return out


class TestRope2dTables:
    @pytest.mark.parametrize("block", [4, 8, 32])
    def test_multi_block_matches_tiled_tables(self, block):
        rng = np.random.default_rng(block)
        x = rng.normal(size=(3, 5, 32))
        coords = rng.normal(size=(3, 5, 2)) * 4.0
        t = Tape(record=False)
        got = ad.rope2d(t.slot(x), coords, 100.0, block).value
        np.testing.assert_allclose(got, _tiled_rope(x, coords, 100.0, block),
                                   atol=1e-12, rtol=0)


class TestBackward:
    def test_sum_of_squares(self):
        t = Tape()
        x = t.slot([[3.0]])
        backward(t, ad.mean_all(ad.mul(x, x)))
        np.testing.assert_array_equal(x.grad, [[6.0]])

    def test_constant_loss_gives_zero_grads(self):
        t = Tape()
        x = t.slot(np.arange(6.0).reshape(2, 3))
        loss = ad.mean_all(ad.mul(x, np.zeros((2, 3))))
        backward(t, loss)
        np.testing.assert_array_equal(x.grad, np.zeros((2, 3)))

    def test_composed_graph_matches_finite_differences(self):
        rng = np.random.default_rng(5)
        w = rng.normal(size=(4, 4))
        c = rng.normal(size=(4, 4))

        def f(x):
            t = x.tape
            h = ad.tanh(ad.matmul(x, t.slot(w)))
            return ad.mean_all(ad.mul(ad.multihead_attention(h, x, x, 2)[0], t.slot(c)))

        assert grad_check(f, rng.normal(size=(4, 4))) < 1e-6

    def test_non_scalar_loss_rejected(self):
        t = Tape()
        x = t.slot(np.ones((2, 2)))
        with pytest.raises(ContractError, match="scalar"):
            backward(t, ad.mul(x, x))

    def test_accumulators_reset_between_calls(self):
        t = Tape()
        x = t.slot([[2.0]])
        loss = ad.mean_all(ad.mul(x, x))
        backward(t, loss)
        first = x.grad.copy()
        backward(t, loss)
        np.testing.assert_array_equal(x.grad, first)


def _training_tape(seed=0):
    """``(tape, bound, loss)`` for one default-config 32-sequence minibatch.

    The loss is the minibatch mean squared error, recorded as training
    records it.
    """
    config = ModelConfig()
    rng = np.random.default_rng(seed)
    p = 2
    params = init_params(config, p, rng)
    for name, arr in params.arrays.items():
        if not arr.any():
            params.arrays[name] = rng.normal(0.0, 0.3, size=arr.shape)
    feats = rng.normal(size=(32, config.l_max, p + 1))
    coords = rng.random(size=(32, config.l_max, 2))
    targets = rng.normal(size=(32, 1, 1))
    tape = Tape()
    bound = bind_params(tape, params)
    pred, _ = forward_on_tape(tape, bound, (feats, coords), config)
    resid = ad.sub(pred, targets)
    return tape, bound, ad.mean_all(ad.mul(resid, resid))


def _zero_filled_replay(tape, loss):
    """Gradients of every slot by the zero-filling algorithm.

    Every slot starts with a zero buffer that it owns, the loss slot holds
    one, and every op's rule adds its contributions in place, in reverse
    execution order, with nothing skipped or freed.  The per-op derivative
    formulas are the module's own; the finite-difference tests check those.
    """
    tape.grads = [np.zeros_like(val) for val in tape.values]
    tape.grads[loss.idx][0, 0] = 1.0
    for op in reversed(tape.ops):
        ad._BACKWARD[op.name](tape, op)
    return tape.grads


class TestLiveGradients:
    """Gradients that exist only from their first contribution until read."""

    def test_training_tape_matches_zero_filled_replay(self):
        tape, bound, loss = _training_tape()
        backward(tape, loss)
        got = {name: g.copy() for name, g in param_grads(tape, bound).items()}
        want = _zero_filled_replay(tape, loss)
        assert len(got) == 31
        for name, var in bound.vars.items():
            assert np.array_equal(got[name], want[var.idx]), name

    def test_op_outputs_are_freed_and_leaves_kept(self):
        tape, bound, loss = _training_tape()
        backward(tape, loss)
        produced = {op.output for op in tape.ops}
        for idx, (value, grad) in enumerate(zip(tape.values, tape.grads)):
            if idx in produced:
                assert grad is None
            else:
                assert grad.shape == value.shape
        assert loss.grad is None

    def test_add_of_a_value_with_itself(self):
        t = Tape()
        x = t.slot([[1.0, -2.0, 3.0]])
        c = t.slot([[0.5, 4.0, -1.0]])
        backward(t, ad.mean_all(ad.mul(ad.add(x, x), c)))
        w = 1.0 / 3  # the mean's weight on each entry
        np.testing.assert_array_equal(x.grad, 2.0 * (w * c.value))
        np.testing.assert_array_equal(c.grad, 2.0 * (w * x.value))

    def test_sub_of_a_value_from_itself(self):
        t = Tape()
        x = t.slot([[1.0, -2.0, 3.0]])
        c = t.slot([[0.5, 4.0, -1.0]])
        # f = mean(c * ((x - x) + x)) = mean(c * x)
        backward(t, ad.mean_all(ad.mul(ad.add(ad.sub(x, x), x), c)))
        w = 1.0 / 3
        np.testing.assert_array_equal(x.grad, w * c.value)
        np.testing.assert_array_equal(c.grad, w * x.value)

    def test_one_value_through_two_adds_that_meet_again(self):
        t = Tape()
        x = t.slot([[1.0, 2.0], [3.0, 4.0]])
        a = t.slot([[0.1, 0.2], [0.3, 0.4]])
        b = t.slot([[-1.0, 0.5], [2.0, -3.0]])
        c = t.slot([[2.0, -1.0], [0.5, 3.0]])
        # f = mean(c * ((x + a) + (x + b)))
        backward(t, ad.mean_all(ad.mul(ad.add(ad.add(x, a), ad.add(x, b)), c)))
        np.testing.assert_array_equal(x.grad, 0.5 * c.value)
        np.testing.assert_array_equal(a.grad, 0.25 * c.value)
        np.testing.assert_array_equal(b.grad, 0.25 * c.value)

    def test_one_hot_read_of_a_value_that_also_feeds_a_matmul(self):
        """Row 1 of every matrix, read as the model reads its target row."""
        rng = np.random.default_rng(9)
        y = rng.normal(size=(2, 4, 3))
        w = rng.normal(size=(3, 3))
        c = rng.normal(size=(2, 4, 3))
        e = rng.normal(size=(2, 1, 3))

        def f(x):
            t = x.tape
            h = ad.add(x, t.slot(y))
            m = ad.matmul(h, t.slot(w))
            s = ad.matmul(t.slot(np.eye(1, 4, 1)), h)
            # replayed first, so h's first gradient is r's, passed through
            r = ad.add(h, m)
            return ad.add(ad.mean_all(ad.mul(r, t.slot(c))), ad.mean_all(ad.mul(s, t.slot(e))))

        x0 = rng.normal(size=(2, 4, 3))
        assert grad_check(f, x0) < 1e-6
        # closed form: (c + c @ w.T) / 24, plus e / 6 on row 1 of every matrix
        want = (c + c @ w.T) / 24
        want[:, 1:2, :] += e / 6
        t = Tape()
        x = t.slot(x0)
        backward(t, f(x))
        np.testing.assert_allclose(x.grad, want, rtol=1e-12, atol=1e-12)

    def test_a_gradient_passed_on_then_read_by_its_new_holder(self):
        """``x + t0`` hands its gradient on unchanged to ``t0 = z * e``, whose
        rule then reads the shared buffer, and adds it into the gradient that
        ``x`` already holds from ``x * d``."""
        t = Tape()
        z, e, x, c, d = (t.slot(np.arange(6.0).reshape(2, 3) + s) for s in (1, 2, 3, 4, 5))
        # f = mean(c * (x + z * e) + x * d)
        t1 = ad.add(x, ad.mul(z, e))
        backward(t, ad.mean_all(ad.add(ad.mul(t1, c), ad.mul(x, d))))
        w = 1.0 / 6
        np.testing.assert_array_equal(z.grad, (w * c.value) * e.value)
        np.testing.assert_array_equal(e.grad, (w * c.value) * z.value)
        np.testing.assert_array_equal(x.grad, w * c.value + w * d.value)

    def test_leaf_no_rule_reaches_gets_zeros(self):
        t = Tape()
        x = t.slot([[3.0]])
        unused = t.slot(np.ones((2, 3)))
        dead_end = t.slot(np.ones((4, 1)))
        ad.mul(dead_end, dead_end)  # recorded, but its output never reaches the loss
        backward(t, ad.mean_all(ad.mul(x, x)))
        np.testing.assert_array_equal(unused.grad, np.zeros((2, 3)))
        np.testing.assert_array_equal(dead_end.grad, np.zeros((4, 1)))
        np.testing.assert_array_equal(x.grad, [[6.0]])

    def test_backward_peak_memory_stays_near_the_tape(self):
        """The peak during ``backward`` stays at or below 1.5x the memory held
        after the forward (tracemalloc, default config, 32 sequences).

        Zero-filling a buffer for every slot and keeping it until the tape
        died read 22.5 MiB against 11.5 MiB held (1.96); gradients that are
        freed once read peak at 13.8 MiB (1.20).
        """
        tracemalloc.start()
        try:
            tape, bound, loss = _training_tape()
            held, _ = tracemalloc.get_traced_memory()
            tracemalloc.reset_peak()
            backward(tape, loss)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 1.5 * held, f"peak {peak / 2**20:.1f} MiB, held {held / 2**20:.1f} MiB"


def _broadcasts(x, y):
    try:
        np.broadcast_shapes(x, y)
    except ValueError:
        return False
    return True


@st.composite
def shared_tapes(draw):
    """``(tape, loss)`` for a random tape of add, sub, mul and matmul over a
    few leaves, and of add with a numpy operand of broadcast or full shape.

    Operands are drawn from every value recorded so far, so one value feeds
    several ops and an op may read the same slot twice.  The loss sums a
    random weighting of every op output.
    """
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    shapes = [(3, 3)] + draw(st.lists(st.sampled_from([(3, 3), (1, 3), (2, 3, 3), (2, 1, 3)]),
                                      min_size=1, max_size=3))
    tape = Tape()
    vals = [tape.slot(rng.normal(size=shape)) for shape in shapes]
    outputs = []
    for _ in range(draw(st.integers(1, 8))):
        a = draw(st.sampled_from(vals))
        name = draw(st.sampled_from(["add", "sub", "add_numpy", "mul", "matmul"]))
        shape = a.value.shape
        if name == "matmul":
            b = draw(st.sampled_from([v for v in vals if v.value.shape[-2] == shape[-1]
                                      and _broadcasts(shape[:-2], v.value.shape[:-2])]))
            out = ad.matmul(a, b)
        elif name in ("add", "sub", "mul"):
            b = draw(st.sampled_from([v for v in vals if _broadcasts(shape, v.value.shape)]))
            out = getattr(ad, name)(a, b)
        else:
            out = ad.add(a, rng.normal(size=draw(st.sampled_from([(1, 3), shape]))))
        vals.append(out)
        outputs.append(out)
    loss = None
    for out in outputs:
        term = ad.mean_all(ad.mul(out, tape.slot(rng.normal(size=out.value.shape))))
        loss = term if loss is None else ad.add(loss, term)
    return tape, loss


class TestGradientOwnership:
    """Every gradient a slot holds is a buffer that no other slot holds."""

    @settings(max_examples=200, deadline=None)
    @given(shared_tapes())
    def test_random_shared_tapes(self, case):
        tape, loss = case
        backward(tape, loss)
        held = [(idx, g) for idx, g in enumerate(tape.grads) if g is not None]
        got = [(idx, g.copy()) for idx, g in held]
        for i, (_, g) in enumerate(held):
            assert not any(np.shares_memory(g, h) for _, h in held[i + 1:])
        # writing into one gradient leaves every other as it was
        for i, (_, g) in enumerate(held):
            g.fill(np.nan)
            for (_, h), (_, want) in zip(held[i + 1:], got[i + 1:]):
                assert np.array_equal(h, want)
        want = _zero_filled_replay(tape, loss)
        for idx, g in got:
            assert np.array_equal(g, want[idx]), idx


class TestGradCheck:
    def test_quadratic_is_tight(self):
        rng = np.random.default_rng(6)
        err = grad_check(lambda v: ad.mean_all(ad.mul(v, v)), rng.normal(size=(2, 3)))
        assert err < 1e-7

    def test_constant_function_is_exact(self):
        err = grad_check(lambda v: ad.mean_all(ad.mul(v, np.zeros((2, 2)))),
                         np.ones((2, 2)))
        assert err == 0.0

    def test_rejects_bad_eps(self):
        with pytest.raises(ContractError):
            grad_check(lambda v: ad.mean_all(v), np.ones((1, 1)), eps=0.0)


def _op_cases(seed):
    """(name, x0, f) triples covering every differentiable primitive."""
    rng = np.random.default_rng(seed)
    a34 = rng.normal(size=(3, 4))
    a43 = rng.normal(size=(4, 3))
    row = rng.normal(size=(1, 4))
    lam = np.abs(rng.normal(size=(2, 1)))
    d2 = np.abs(rng.normal(size=(3, 5)))
    # moderate scales keep the softmax far from saturation, so the
    # finite-difference oracle stays within its double-precision envelope
    k8 = 0.6 * rng.normal(size=(5, 8))
    v8 = rng.normal(size=(5, 8))
    q8 = 0.6 * rng.normal(size=(3, 8))
    w8 = rng.normal(size=(3, 8))
    coords = rng.random((3, 2))
    # a batch of two: (2, rows, cols) values meeting 2-D parameters
    b34 = rng.normal(size=(2, 3, 4))
    kb = 0.6 * rng.normal(size=(2, 5, 8))
    vb = rng.normal(size=(2, 5, 8))
    wb = rng.normal(size=(2, 3, 8))
    d2b = np.abs(rng.normal(size=(2, 3, 5)))
    coords_b = rng.random((2, 3, 2))
    # more queries than keys, where the logits are laid out keys-first
    q6 = 0.6 * rng.normal(size=(6, 8))
    k3 = 0.6 * rng.normal(size=(3, 8))
    v3 = rng.normal(size=(3, 8))
    w6 = rng.normal(size=(6, 8))
    d63 = np.abs(rng.normal(size=(6, 3)))
    k3b = 0.6 * rng.normal(size=(2, 3, 8))
    v3b = rng.normal(size=(2, 3, 8))
    w6b = rng.normal(size=(2, 6, 8))
    d63b = np.abs(rng.normal(size=(2, 6, 3)))

    def s(x, arr):
        return x.tape.slot(arr)

    def rows(x, start, stop):
        """Rows start:stop of ``x``, read by a one-hot product as the model reads its target."""
        return ad.matmul(s(x, np.eye(stop - start, x.value.shape[-2], start)), x)

    def long_q(wrt, k, v, w, d2):
        """Attention of q6 over three keys, differentiated in operand ``wrt``."""
        operands = {"q": q6, "k": k, "v": v, "lam": lam}

        def f(x):
            arg = {name: x if name == wrt else s(x, arr) for name, arr in operands.items()}
            bias = {} if d2 is None else {"lam": arg["lam"], "sq_dist": d2}
            out = ad.multihead_attention(arg["q"], arg["k"], arg["v"], 2, **bias)[0]
            return ad.mean_all(ad.mul(out, s(x, w)))

        return operands[wrt], f

    long_q_cases = [
        (f"mha_long_q{tag}_{wrt}",) + long_q(wrt, k, v, w, d2)
        for tag, k, v, w, d2 in [("", k3, v3, w6, None), ("_biased", k3, v3, w6, d63),
                                 ("_batched_kv", k3b, v3b, w6b, None),
                                 ("_batched_kv_biased", k3b, v3b, w6b, d63b)]
        for wrt in ("q", "k", "v") + (("lam",) if d2 is not None else ())
    ]

    return [
        ("matmul_left", a34, lambda x: ad.mean_all(ad.mul(ad.matmul(x, s(x, a43)),
                                                         ad.matmul(x, s(x, a43))))),
        ("matmul_right", a43, lambda x: ad.mean_all(ad.mul(ad.matmul(s(x, a34), x),
                                                          ad.matmul(s(x, a34), x)))),
        ("add_broadcast", a34, lambda x: ad.mean_all(ad.mul(ad.add(x, s(x, row)),
                                                           ad.add(x, s(x, row))))),
        ("sub", a34, lambda x: ad.mean_all(ad.mul(ad.sub(x, s(x, row)), x))),
        ("mul_broadcast", row, lambda x: ad.mean_all(ad.mul(s(x, a34), x))),
        ("add_numpy_broadcast", a34, lambda x: ad.mean_all(ad.mul(ad.add(x, row), x))),
        ("mul_numpy_broadcast", a34, lambda x: ad.mean_all(ad.mul(ad.mul(x, row), x))),
        ("slice_rows", a34, lambda x: ad.mean_all(ad.mul(rows(x, 1, 3), rows(x, 0, 2)))),
        ("mha_self", a34,
         lambda x: ad.mean_all(ad.mul(ad.multihead_attention(x, x, x, 2)[0], s(x, a34)))),
        ("softplus", a34, lambda x: ad.mean_all(ad.mul(ad.softplus(x), s(x, a34)))),
        ("tanh", a34, lambda x: ad.mean_all(ad.mul(ad.tanh(x), s(x, a34)))),
        ("mean_all", a34, lambda x: ad.mean_all(ad.mul(x, x))),
        ("rope2d", q8,
         lambda x: ad.mean_all(ad.mul(ad.rope2d(x, coords, 100.0), s(x, w8)))),
        ("mha_q", q8,
         lambda x: ad.mean_all(ad.mul(*2 * (ad.multihead_attention(x, s(x, k8), s(x, v8), 2)[0],)))),
        ("mha_k", k8,
         lambda x: ad.mean_all(ad.mul(ad.multihead_attention(s(x, q8), x, s(x, v8), 2)[0],
                                     s(x, w8)))),
        ("mha_v", v8,
         lambda x: ad.mean_all(ad.mul(*2 * (ad.multihead_attention(s(x, q8), s(x, k8),
                                                                  x, 2)[0],)))),
        ("mha_biased_q", q8,
         lambda x: ad.mean_all(ad.mul(ad.multihead_attention(x, s(x, k8), s(x, v8), 2,
                                                            lam=s(x, lam), sq_dist=d2)[0],
                              s(x, w8)))),
        ("mha_lam", lam,
         lambda x: ad.mean_all(ad.mul(ad.multihead_attention(s(x, q8), s(x, k8),
                                                            s(x, v8), 2, lam=x,
                                                            sq_dist=d2)[0], s(x, w8)))),
        ("matmul_batched_left", b34,
         lambda x: ad.mean_all(ad.mul(ad.matmul(x, s(x, a43)), ad.matmul(x, s(x, a43))))),
        ("matmul_batched_param", a43,
         lambda x: ad.mean_all(ad.mul(ad.matmul(s(x, b34), x), ad.matmul(s(x, b34), x)))),
        ("add_batched_bias", row,
         lambda x: ad.mean_all(ad.mul(ad.add(s(x, b34), x), ad.add(s(x, b34), x)))),
        ("slice_rows_batched", b34,
         lambda x: ad.mean_all(ad.mul(rows(x, 1, 3), rows(x, 0, 2)))),
        ("matmul_batched_right", b34,
         lambda x: ad.mean_all(ad.mul(ad.matmul(s(x, a43), x), ad.matmul(s(x, a43), x)))),
        ("rope2d_batched", wb,
         lambda x: ad.mean_all(ad.mul(ad.rope2d(x, coords_b, 100.0, 4), s(x, wb)))),
        ("mha_batched_kv_q", q8,
         lambda x: ad.mean_all(ad.mul(ad.multihead_attention(x, s(x, kb), s(x, vb), 2)[0],
                                     s(x, wb)))),
        ("mha_batched_kv_k", kb,
         lambda x: ad.mean_all(ad.mul(ad.multihead_attention(s(x, q8), x, s(x, vb), 2)[0],
                                     s(x, wb)))),
        ("mha_batched_kv_biased_q", q8,
         lambda x: ad.mean_all(ad.mul(ad.multihead_attention(x, s(x, kb), s(x, vb), 2,
                                                            lam=s(x, lam), sq_dist=d2b)[0],
                                     s(x, wb)))),
        ("mha_batched_kv_lam", lam,
         lambda x: ad.mean_all(ad.mul(ad.multihead_attention(s(x, q8), s(x, kb), s(x, vb), 2,
                                                            lam=x, sq_dist=d2b)[0],
                                     s(x, wb)))),
    ] + long_q_cases


class TestPrimitiveGradients:
    """Analytic vs central-difference gradients, 20 random instances per op.

    Central differences at eps=1e-5 carry a roundoff floor of about
    |f| * 1e-11 absolute, so an instance whose gradient has an entry near zero
    cannot be judged at 1e-6 relative by this oracle at all; such draws are
    skipped and replaced (the analytic side is never consulted for the
    verdict, only for conditioning).  Each loss is a mean over n entries, so
    conditioning reads the gradient times n, the gradient of their sum.
    """

    @pytest.mark.parametrize("case", range(len(_op_cases(0))),
                             ids=[name for name, _, _ in _op_cases(0)])
    def test_matches_finite_differences(self, case):
        tested = 0
        seed = 0
        while tested < 20:
            assert seed < 200, "could not find 20 well-conditioned instances"
            name, x0, f = _op_cases(seed)[case]
            seed += 1
            t = Tape()
            xv = t.slot(x0.copy())
            backward(t, f(xv))
            n = t.values[t.ops[-1].inputs[0]].size
            if n * np.abs(xv.grad).min() < 1e-3:
                continue
            err = grad_check(f, x0)
            assert err < 1e-6, f"{name} seed {seed - 1}: max rel err {err:.3e}"
            tested += 1

    def test_cases_cover_every_backward_rule(self):
        """Every rule in the registry is run by some case above."""
        recorded = set()
        for _, x0, f in _op_cases(0):
            tape = Tape()
            f(tape.slot(x0))
            recorded |= {op.name for op in tape.ops}
        assert recorded == set(ad._BACKWARD)

    @pytest.mark.parametrize("where", ["README.md", "autodiff docstring"])
    def test_docs_name_every_primitive(self, where):
        """README and the module docstring count and name the registry's rules."""
        text = ad.__doc__ if where == "autodiff docstring" else (
            Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
        found = re.search(r"(\w+) primitives(?: are|:)(.*?)\.\s", text, re.S)
        assert found, f"{where} lists no primitives"
        count = "zero one two three four five six seven eight nine ten eleven twelve".split()
        assert found.group(1).lower() == count[len(ad._BACKWARD)]
        assert sorted(re.findall(r"`+(\w+)`+", found.group(2))) == sorted(ad._BACKWARD)


class TestAdam:
    def test_zero_gradient_leaves_params_unchanged(self):
        p = {"w": np.array([[1.0, -2.0]])}
        adam_step(p, {"w": np.zeros((1, 2))}, AdamState(), lr=0.1)
        np.testing.assert_array_equal(p["w"], [[1.0, -2.0]])

    def test_first_step_moves_by_learning_rate(self):
        p = {"w": np.array([[5.0]])}
        adam_step(p, {"w": np.array([[1.0]])}, AdamState(), lr=0.1)
        # bias-corrected first step: lr * g / (|g| + eps) ~ lr
        np.testing.assert_allclose(p["w"], [[5.0 - 0.1]], atol=1e-8)

    def test_two_steps_follow_the_moment_recurrences(self):
        beta1, beta2, eps, lr = 0.9, 0.999, 1e-8, 0.05
        g1 = np.array([[0.7]])
        g2 = np.array([[-0.3]])
        p = {"w": np.array([[1.0]])}
        state = AdamState()
        adam_step(p, {"w": g1}, state, lr, beta1, beta2, eps)
        adam_step(p, {"w": g2}, state, lr, beta1, beta2, eps)
        assert state.step == 2

        m = np.zeros((1, 1))
        v = np.zeros((1, 1))
        w = np.array([[1.0]])
        for t, g in ((1, g1), (2, g2)):
            m = beta1 * m + (1 - beta1) * g
            v = beta2 * v + (1 - beta2) * g * g
            w = w - lr * (m / (1 - beta1 ** t)) / (np.sqrt(v / (1 - beta2 ** t)) + eps)
        np.testing.assert_allclose(p["w"], w, atol=1e-15)
        np.testing.assert_allclose(state.m["w"], m, atol=1e-15)
        np.testing.assert_allclose(state.v["w"], v, atol=1e-15)

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ContractError, match="shape"):
            adam_step({"w": np.ones((2, 2))}, {"w": np.ones((1, 2))}, AdamState(), lr=0.1)


class TestSoftplusInv:
    def test_ordinary_values_keep_the_log_expm1_form(self):
        """Init weights stay bit for bit where expm1 does not overflow."""
        for y in (1e-3, 0.5, 1.0, 30.0, 700.0):
            assert ad.softplus_inv(y) == float(np.log(np.expm1(y)))

    @pytest.mark.parametrize("y", [700.5, 709.9, 1000.0, 1e300])
    def test_large_values_stay_finite(self, y):
        raw = ad.softplus_inv(y)
        assert np.isfinite(raw)
        assert np.logaddexp(0.0, raw) == pytest.approx(y, rel=1e-15)

    @pytest.mark.parametrize("y", [0.0, -1.0, float("nan"), float("inf")])
    def test_nonpositive_or_non_finite_rejected(self, y):
        with pytest.raises(ContractError, match="finite y > 0"):
            ad.softplus_inv(y)
