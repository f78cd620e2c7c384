"""Tape-based reverse-mode differentiation over batched float64 matrices.

Every value flowing through a :class:`Tape` is a ``float64`` array of shape
``(..., rows, cols)``: a matrix, optionally behind leading batch axes.
Operands broadcast over those axes as in numpy, so a 2-D parameter meets a
``(B, L, d)`` batch of sequences directly, and its gradient is summed back
over the batch.  The ten primitives are ``matmul``, ``add``, ``sub``, ``mul``,
``slice_rows``, ``softplus``, ``tanh``, ``mean_all``, ``rope2d`` and
``multihead_attention``; a numpy operand of the first four becomes a leaf slot
whose gradient nothing reads.  Each primitive records which slots it read and
which slot it wrote; :func:`backward` replays the records in exact reverse
execution order.
No two slots ever hold one gradient buffer.  A slot's gradient exists only
while it is live: its first contribution becomes the gradient, later ones
are added into it in place, and an op output's gradient is freed once its
producer's rule has read it.  Backward rules live in a flat registry keyed
by op name rather than in per-op closures, so the whole engine stays easy
to inspect and to port.

A tape built with ``record=False`` runs the same primitives but keeps no
values and no op records: each result lives only in the :class:`Var` that
holds it and is freed as soon as nothing references it.  Inference runs the
training forward on such a tape.  Either kind of tape allocates every array
afresh, and reference counting frees it.

The attention and rotary primitives keep memory traffic low: the softmax
normalises in place, along the longer of the query and key axes (see
:func:`multihead_attention`), and the backward rule works in the same layout;
rotary tables hold each distinct angle once and broadcast over the heads.

A tape is single-threaded.  Distinct tapes reading the same (immutable)
parameter arrays may run concurrently.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "ShapeError",
    "ContractError",
    "Tape",
    "Var",
    "backward",
    "matmul",
    "add",
    "sub",
    "mul",
    "slice_rows",
    "softplus",
    "softplus_inv",
    "tanh",
    "mean_all",
    "rope2d",
    "multihead_attention",
    "grad_check",
    "AdamState",
    "adam_step",
]


class ShapeError(ValueError):
    """Operand shapes violate an operation's contract."""


class ContractError(ValueError):
    """A precondition of a public operation was violated."""


def as_matrix(value) -> np.ndarray:
    """Coerce ``value`` to a C-contiguous float64 array of rank 2 or more.

    Scalars become ``(1, 1)`` and 1-D arrays become row vectors; higher ranks
    are ``(..., rows, cols)`` batches of matrices and pass unchanged.
    """
    arr = np.ascontiguousarray(value, dtype=np.float64)
    if arr.ndim == 0:
        arr = arr.reshape(1, 1)
    elif arr.ndim == 1:
        arr = arr.reshape(1, -1)
    return arr


@dataclass
class _Op:
    name: str
    inputs: tuple[int, ...]
    output: int
    aux: dict


class Var:
    """A value computed on a tape, and its slot there (-1 when not recorded)."""

    __slots__ = ("tape", "idx", "value")

    def __init__(self, tape: "Tape", idx: int, value: np.ndarray):
        self.tape = tape
        self.idx = idx
        self.value = value

    @property
    def grad(self) -> np.ndarray | None:
        """d(loss)/d(value) after :func:`backward`.

        A leaf always has one (zeros when the loss does not depend on it); an
        op output's gradient is freed during the pass, so this is ``None``.
        """
        return self.tape.grads[self.idx]


class Tape:
    """Ordered record of primitive operations and their value slots.

    With ``record=False`` the tape stores nothing: values stay in their
    :class:`Var` handles only, and :func:`backward` refuses the tape.
    """

    def __init__(self, record: bool = True):
        self.values: list[np.ndarray] = []
        self.grads: list[np.ndarray | None] = []
        self.ops: list[_Op] = []
        self.recording = record

    def slot(self, value) -> Var:
        """A leaf (parameter or constant) holding ``value``, slotted if recording."""
        arr = as_matrix(value)
        if not self.recording:
            return Var(self, -1, arr)
        self.values.append(arr)
        self.grads.append(None)
        return Var(self, len(self.values) - 1, arr)

    def record(self, name: str, inputs: tuple[Var, ...], out_value: np.ndarray, **aux) -> Var:
        if not self.recording:
            return Var(self, -1, out_value)
        out = self.slot(out_value)
        self.ops.append(_Op(name, tuple(v.idx for v in inputs), out.idx, aux))
        return out


def _coerce(tape: Tape, x) -> Var:
    if isinstance(x, Var):
        if x.tape is not tape:
            raise ContractError("operands live on different tapes")
        return x
    return tape.slot(x)


def _unbroadcast(grad: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Reduce ``grad`` back to ``shape`` by summing broadcast axes.

    Leading axes that ``shape`` lacks (a batch the operand was broadcast
    over) are summed away, then every axis where ``shape`` has extent 1.
    """
    if grad.shape == shape:
        return grad
    lead = grad.ndim - len(shape)
    axes = tuple(range(lead)) + tuple(
        lead + i for i, n in enumerate(shape) if n == 1 and grad.shape[lead + i] > 1
    )
    return grad.sum(axis=axes).reshape(shape)


# ---------------------------------------------------------------------------
# primitives
# ---------------------------------------------------------------------------


def matmul(a: Var, b) -> Var:
    """Matrix product ``a @ b`` over broadcast batch axes, on the tape of ``a``."""
    tape = a.tape
    b = _coerce(tape, b)
    if a.value.shape[-1] != b.value.shape[-2]:
        raise ShapeError(
            f"matmul: inner dimensions disagree: {a.value.shape} @ {b.value.shape}"
        )
    return tape.record("matmul", (a, b), a.value @ b.value)


def add(a: Var, b) -> Var:
    tape = a.tape
    b = _coerce(tape, b)
    return tape.record("add", (a, b), a.value + b.value)


def sub(a: Var, b) -> Var:
    tape = a.tape
    b = _coerce(tape, b)
    return tape.record("sub", (a, b), a.value - b.value)


def mul(a: Var, b) -> Var:
    """Elementwise (broadcasting) product of two tape values."""
    tape = a.tape
    b = _coerce(tape, b)
    return tape.record("mul", (a, b), a.value * b.value)


def slice_rows(a: Var, start: int, stop: int) -> Var:
    """Rows ``start:stop`` of every matrix in the batch."""
    n = a.value.shape[-2]
    if not (0 <= start < stop <= n):
        raise ShapeError(f"slice_rows: [{start}:{stop}] out of range for {a.value.shape}")
    return a.tape.record("slice_rows", (a,), a.value[..., start:stop, :].copy(),
                         start=start, stop=stop)


def _softmax(x: np.ndarray, axis: int) -> np.ndarray:
    """Softmax along ``axis``, computed in place on ``x`` (a fresh buffer)."""
    x -= x.max(axis=axis, keepdims=True)
    np.exp(x, out=x)
    x /= x.sum(axis=axis, keepdims=True)
    return x


def softplus(x: Var) -> Var:
    return x.tape.record("softplus", (x,), np.logaddexp(0.0, x.value))


def softplus_inv(y: float) -> float:
    """Scalar inverse of softplus, for parameter initialisation.

    ``log(expm1(y))``, except above y = 700, near where ``expm1`` overflows,
    which takes the equal ``y + log(-expm1(-y))``.  The two differ in the
    last bit for ordinary y, so the first form stays the default.
    """
    if not 0.0 < y < np.inf:
        raise ContractError(f"softplus_inv needs a finite y > 0, got {y}")
    if y > 700.0:
        return float(y + np.log(-np.expm1(-y)))
    return float(np.log(np.expm1(y)))


def tanh(x: Var) -> Var:
    return x.tape.record("tanh", (x,), np.tanh(x.value))


def mean_all(x: Var) -> Var:
    return x.tape.record("mean_all", (x,), np.array([[x.value.mean()]]))


def _rope_tables(coords: np.ndarray, width: int, base: float, block: int) -> np.ndarray:
    """Unit complex rotations ``cos + i sin`` for planar rotary encoding.

    ``block`` is the head width; within each block the first half of the
    rotation pairs turns by ``theta_f * u`` and the second half by
    ``theta_f * v``, with the frequency ladder ``theta_f = base**(-2f/(block/2))``
    applied identically to both coordinates.  Every block turns by the same
    angles, so the table holds only the ``block / 2`` distinct ones, shaped
    ``(..., n, 1, block / 2)`` to broadcast over the ``width / block`` blocks.
    ``coords`` may carry leading batch axes before its final ``(n, 2)`` shape.
    """
    if block % 4 != 0:
        raise ContractError(f"rope2d needs a head width divisible by 4, got {block}")
    if width % block != 0:
        raise ShapeError(f"rope2d: width {width} is not a multiple of block {block}")
    per_coord = block // 4
    freqs = base ** (-2.0 * np.arange(per_coord) / (block / 2.0))
    # (u * freqs, v * freqs) per row
    ang = (coords[..., None] * freqs).reshape(coords.shape[:-1] + (1, 2 * per_coord))
    rot = np.empty(ang.shape, dtype=np.complex128)
    np.cos(ang, out=rot.real)
    np.sin(ang, out=rot.imag)
    return rot


def _rotate(x: np.ndarray, rot: np.ndarray) -> np.ndarray:
    """Turn each column pair of ``x`` by the angles of a :func:`_rope_tables` table.

    The pair ``(x[2j], x[2j + 1])`` is the complex number ``x[2j] + i x[2j + 1]``
    and turns by multiplication with ``rot``; ``x`` is ``(..., n, width)``.
    The conjugate table gives the inverse rotation.
    """
    z = np.ascontiguousarray(x).view(np.complex128)
    z = z.reshape(z.shape[:-1] + (-1, rot.shape[-1]))
    out = np.empty(x.shape)
    np.multiply(z, rot, out=out.view(np.complex128).reshape(z.shape))
    return out


def rope2d(x: Var, coords, base: float, block: int | None = None) -> Var:
    """Rotate consecutive column pairs of ``x`` by angles set by planar coords.

    ``coords`` is a constant ``(..., n, 2)`` array of per-row (u, v)
    positions, one pair for each row of ``x``.  The rotation preserves row
    norms, and dot products between two rotated vectors depend only on
    coordinate differences.
    """
    coords = np.asarray(coords, dtype=np.float64)
    if coords.shape != x.value.shape[:-1] + (2,):
        raise ShapeError(f"rope2d: rows {x.value.shape[:-1]} but coordinates {coords.shape}")
    width = x.value.shape[-1]
    if block is None:
        block = width
    rot = _rope_tables(coords, width, base, block)
    return x.tape.record("rope2d", (x,), _rotate(x.value, rot), rot=rot)


def _heads(x: np.ndarray, n_heads: int) -> np.ndarray:
    """``(..., n, d)`` to ``(..., n_heads, n, d / n_heads)``."""
    return x.reshape(x.shape[:-1] + (n_heads, -1)).swapaxes(-3, -2)


def _merged_matmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Per-head products ``a @ b`` with the heads' columns concatenated.

    The inverse of :func:`_heads` on the product, written by ``matmul``
    straight into the merged ``(..., n, n_heads * cols)`` layout, so no
    per-head result is materialised and copied.
    """
    *lead, n_heads, n, cols = (np.broadcast_shapes(a.shape[:-2], b.shape[:-2])
                               + (a.shape[-2], b.shape[-1]))
    out = np.empty((*lead, n, n_heads * cols))
    np.matmul(a, b, out=out.reshape(*lead, n, n_heads, cols).swapaxes(-3, -2))
    return out


def _keys_first(n_q: int, n_keys: int) -> bool:
    """Whether attention logits are laid out ``(keys, queries)``.

    The softmax normalises over keys.  It runs fastest along the contiguous
    axis when that axis is the longer one, so with fewer keys than queries
    the logits are kept transposed and normalised over axis -2.
    """
    return n_keys < n_q


def multihead_attention(q: Var, k: Var, v: Var, n_heads: int,
                        lam: Var | None = None, sq_dist=None):
    """Scaled dot-product attention over column-blocked heads.

    ``q`` is ``(..., n_q, d)``, ``k`` and ``v`` are ``(..., L, d)`` with ``d``
    split into ``n_heads`` contiguous column blocks; leading batch axes
    broadcast, so one unbatched query set can attend to a batch of
    sequences.  When ``lam`` (one nonnegative value per head, or a single
    shared one) and ``sq_dist`` (a ``(..., n_q, L)`` array of squared
    distances) are given, ``lam[h] * sq_dist`` is subtracted from head
    ``h``'s logits before the softmax.

    Returns ``(out, alpha)`` where ``out`` is the ``(..., n_q, d)``
    concatenation of head outputs and ``alpha`` is a read-only
    ``(..., n_heads, n_q, L)`` array of attention weights.  With fewer keys
    than queries the weights are computed as ``(..., L, n_q)`` and ``alpha``
    is a transposed view of them (see :func:`_keys_first`).
    """
    tape = q.tape
    nq, d = q.value.shape[-2:]
    L = k.value.shape[-2]
    if k.value.shape[-1] != d or v.value.shape != k.value.shape:
        raise ShapeError(
            f"multihead_attention: q {q.value.shape}, k {k.value.shape}, v {v.value.shape}"
        )
    if d % n_heads != 0:
        raise ShapeError(f"multihead_attention: width {d} not divisible by {n_heads} heads")
    hd = d // n_heads

    if (lam is None) != (sq_dist is None):
        raise ContractError("lam and sq_dist must be supplied together")
    sq = None
    if sq_dist is not None:
        sq = np.asarray(sq_dist, dtype=np.float64)
        if sq.shape[-2:] != (nq, L):
            raise ShapeError(f"multihead_attention: squared distances {sq.shape}, "
                             f"expected (..., {nq}, {L})")
        if (sq < 0).any():
            raise ContractError("squared distances must be nonnegative")
        if lam.value.shape not in ((n_heads, 1), (1, 1)):
            raise ShapeError(
                f"lam must be ({n_heads}, 1) or (1, 1), got {lam.value.shape}"
            )
        if (lam.value < 0).any():
            raise ContractError("attention bias factors must be nonnegative")
        sq = sq[..., None, :, :]  # broadcast over the head axis

    # 1/sqrt(hd) goes on the smaller operand rather than on the logits,
    # and on one operand only, even when q and k are the same slot
    qv, kv = q.value, k.value
    if qv.size <= kv.size:
        qv = qv * (1.0 / math.sqrt(hd))
    else:
        kv = kv * (1.0 / math.sqrt(hd))
    qh, kh = _heads(qv, n_heads), _heads(kv, n_heads)
    keys_first = _keys_first(nq, L)
    if keys_first:
        logits = kh @ qh.swapaxes(-2, -1)
    else:
        logits = qh @ kh.swapaxes(-2, -1)
    if sq is not None:
        logits -= lam.value.reshape(-1, 1, 1) * (sq.swapaxes(-2, -1) if keys_first else sq)
    weights = _softmax(logits, axis=-2 if keys_first else -1)
    alpha = weights.swapaxes(-2, -1) if keys_first else weights
    # the backward rule only reads alpha, so the caller may share it
    alpha.setflags(write=False)
    out = _merged_matmul(alpha, _heads(v.value, n_heads))

    inputs = (q, k, v) if lam is None else (q, k, v, lam)
    out_var = tape.record(
        "multihead_attention", inputs, out,
        n_heads=n_heads, alpha=alpha, sq=sq,
    )
    return out_var, alpha


# ---------------------------------------------------------------------------
# backward rules
# ---------------------------------------------------------------------------


def _contribute(tape, idx, grad):
    """Add one contribution ``grad`` to slot ``idx``'s gradient, summed to its shape.

    The first contribution becomes the gradient, so a rule hands over only a
    buffer that no other slot will hold; later ones are added into it in place.
    """
    grad = _unbroadcast(grad, tape.values[idx].shape)
    cur = tape.grads[idx]
    if cur is None:
        tape.grads[idx] = grad
    else:
        cur += grad


def _bwd_matmul(tape, op):
    g = tape.grads[op.output]
    a, b = (tape.values[i] for i in op.inputs)
    _contribute(tape, op.inputs[0], g @ b.swapaxes(-1, -2))
    _contribute(tape, op.inputs[1], a.swapaxes(-1, -2) @ g)


def _bwd_add(tape, op):
    g = tape.grads[op.output]
    a_idx, b_idx = op.inputs
    _contribute(tape, a_idx, g)
    if tape.grads[a_idx] is g and tape.values[b_idx].shape == g.shape:
        g = g.copy()  # the first operand keeps g, as in a residual add
    _contribute(tape, b_idx, g)


def _bwd_sub(tape, op):
    g = tape.grads[op.output]
    a_idx, b_idx = op.inputs
    _contribute(tape, a_idx, g)
    _contribute(tape, b_idx, -_unbroadcast(g, tape.values[b_idx].shape))


def _bwd_mul(tape, op):
    g = tape.grads[op.output]
    a_idx, b_idx = op.inputs
    a, b = tape.values[a_idx], tape.values[b_idx]
    _contribute(tape, a_idx, g * b)
    _contribute(tape, b_idx, g * a)


def _bwd_slice_rows(tape, op):
    idx = op.inputs[0]
    if tape.grads[idx] is None:
        tape.grads[idx] = np.zeros_like(tape.values[idx])
    tape.grads[idx][..., op.aux["start"]:op.aux["stop"], :] += tape.grads[op.output]


def _bwd_softplus(tape, op):
    x = tape.values[op.inputs[0]]
    sig = np.exp(-np.logaddexp(0.0, -x))
    _contribute(tape, op.inputs[0], tape.grads[op.output] * sig)


def _bwd_tanh(tape, op):
    y = tape.values[op.output]
    _contribute(tape, op.inputs[0], tape.grads[op.output] * (1.0 - y * y))


def _bwd_mean_all(tape, op):
    x = tape.values[op.inputs[0]]
    _contribute(tape, op.inputs[0], np.full(x.shape, tape.grads[op.output][0, 0] / x.size))


def _bwd_rope2d(tape, op):
    # the rotation is orthogonal: its adjoint turns by the opposite angles
    _contribute(tape, op.inputs[0], _rotate(tape.grads[op.output], op.aux["rot"].conj()))


def _bwd_multihead_attention(tape, op):
    g = tape.grads[op.output]
    n_heads = op.aux["n_heads"]
    alpha = op.aux["alpha"]
    sq = op.aux["sq"]
    q = tape.values[op.inputs[0]]
    k = tape.values[op.inputs[1]]
    v = tape.values[op.inputs[2]]
    inv = 1.0 / math.sqrt(q.shape[-1] // n_heads)

    gh = _heads(g, n_heads)
    vh = _heads(v, n_heads)
    _contribute(tape, op.inputs[2], _merged_matmul(alpha.swapaxes(-2, -1), gh))
    # the softmax adjoint reduces over keys, in the layout the forward used
    if _keys_first(q.shape[-2], k.shape[-2]):
        weights = alpha.swapaxes(-2, -1)
        dlogits = vh @ gh.swapaxes(-2, -1)
        dlogits -= (dlogits * weights).sum(axis=-2, keepdims=True)
        dlogits *= weights
        dlogits = dlogits.swapaxes(-2, -1)
    else:
        dlogits = gh @ vh.swapaxes(-2, -1)
        dlogits -= (dlogits * alpha).sum(axis=-1, keepdims=True)
        dlogits *= alpha
    dq = _merged_matmul(dlogits, _heads(k, n_heads))
    dq *= inv
    dk = _merged_matmul(dlogits.swapaxes(-2, -1), _heads(q, n_heads))
    dk *= inv
    _contribute(tape, op.inputs[0], dq)
    _contribute(tape, op.inputs[1], dk)
    if sq is not None:
        # per-head sums over every batch, query and key position
        dlam = -(dlogits * sq).sum(axis=(-2, -1)).reshape(-1, n_heads).sum(axis=0)
        _contribute(tape, op.inputs[3], dlam.reshape(-1, 1))


_BACKWARD = {
    "matmul": _bwd_matmul,
    "add": _bwd_add,
    "sub": _bwd_sub,
    "mul": _bwd_mul,
    "slice_rows": _bwd_slice_rows,
    "softplus": _bwd_softplus,
    "tanh": _bwd_tanh,
    "mean_all": _bwd_mean_all,
    "rope2d": _bwd_rope2d,
    "multihead_attention": _bwd_multihead_attention,
}


def backward(tape: Tape, loss: Var) -> None:
    """Set d(loss)/d(slot) for every leaf slot on the tape.

    The loss slot must hold a scalar.  The op records are replayed in reverse
    execution order; an op whose output received no gradient is skipped, and
    an op output's gradient is freed once its producer's rule has run.  Leaves
    that received nothing get zeros of their shape.  Every gradient is a
    buffer that no other slot holds, so writing into one leaf's gradient
    leaves every other unchanged.  The values stay recorded, so the pass may
    run again on the same tape.
    """
    if loss.tape is not tape:
        raise ContractError("loss does not belong to this tape")
    if not tape.recording:
        raise ContractError("backward needs a tape that records its ops")
    if loss.value.shape != (1, 1):
        raise ContractError(f"loss must be scalar, got shape {loss.value.shape}")
    grads = tape.grads = [None] * len(tape.values)
    grads[loss.idx] = np.ones((1, 1))
    for op in reversed(tape.ops):
        if grads[op.output] is None:
            continue
        _BACKWARD[op.name](tape, op)
        grads[op.output] = None
    produced = {op.output for op in tape.ops}
    for idx, g in enumerate(grads):
        if g is None and idx not in produced:
            grads[idx] = np.zeros_like(tape.values[idx])


# ---------------------------------------------------------------------------
# gradient checking and optimisation
# ---------------------------------------------------------------------------


def grad_check(f, x, eps: float = 1e-5) -> float:
    """Max relative error between analytic and central-difference gradients.

    ``f`` maps a :class:`Var` to a scalar :class:`Var` on the same tape.  The
    error per entry is ``|analytic - numeric| / max(|analytic|, |numeric|, 1e-8)``.
    """
    if eps <= 0:
        raise ContractError(f"eps must be positive, got {eps}")
    x0 = as_matrix(x).copy()

    tape = Tape()
    xv = tape.slot(x0.copy())
    backward(tape, f(xv))
    analytic = tape.grads[xv.idx].copy()

    numeric = np.zeros_like(x0)
    for pos in np.ndindex(x0.shape):
        xp = x0.copy()
        xp[pos] += eps
        fp = float(f(Tape().slot(xp)).value[0, 0])
        xm = x0.copy()
        xm[pos] -= eps
        fm = float(f(Tape().slot(xm)).value[0, 0])
        numeric[pos] = (fp - fm) / (2.0 * eps)

    denom = np.maximum(np.maximum(np.abs(analytic), np.abs(numeric)), 1e-8)
    return float((np.abs(analytic - numeric) / denom).max())


@dataclass
class AdamState:
    """First/second moment buffers and the shared step counter."""

    m: dict = field(default_factory=dict)
    v: dict = field(default_factory=dict)
    step: int = 0


def adam_step(params: dict, grads: dict, state: AdamState, lr: float,
              beta1: float = 0.9, beta2: float = 0.999, eps: float = 1e-8):
    """One bias-corrected Adam update, in place on ``params``."""
    state.step += 1
    t = state.step
    for name, p in params.items():
        g = grads[name]
        if g.shape != p.shape:
            raise ContractError(
                f"adam_step: gradient shape {g.shape} does not match parameter "
                f"'{name}' of shape {p.shape}"
            )
        m = state.m.get(name)
        if m is None:
            m = state.m[name] = np.zeros_like(p)
        v = state.v.get(name)
        if v is None:
            v = state.v[name] = np.zeros_like(p)
        if m.shape != p.shape or v.shape != p.shape:
            raise ContractError(f"adam_step: stale moment shapes for '{name}'")
        m *= beta1
        m += (1.0 - beta1) * g
        v *= beta2
        v += (1.0 - beta2) * (g * g)
        m_hat = m / (1.0 - beta1 ** t)
        v_hat = v / (1.0 - beta2 ** t)
        p -= lr * m_hat / (np.sqrt(v_hat) + eps)
    return params, state
