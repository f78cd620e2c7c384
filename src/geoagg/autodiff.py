"""Tape-based reverse-mode differentiation over batched float64 matrices.

Every value flowing through a :class:`Tape` is a ``float64`` array of shape
``(..., rows, cols)``: a matrix, optionally behind leading batch axes.
Operands broadcast over those axes as in numpy, so a 2-D parameter meets a
``(B, L, d)`` batch of sequences directly, and its gradient is summed back
over the batch.  Each primitive records which slots it read and which slot it
wrote; :func:`backward` replays the records in exact reverse execution order.
A slot's gradient exists only while it is live: its first contribution
becomes the gradient, later ones are added in place into a buffer the pass
owns, and an op output's gradient is freed once its producer's rule has read
it.  Backward rules live in a flat registry keyed by op name rather than in
per-op closures, so the whole engine stays easy to inspect and to port.

A tape built with ``record=False`` runs the same primitives but keeps no
values and no op records: each result lives only in the :class:`Var` that
holds it and is freed as soon as nothing references it.  Inference runs the
training forward on such a tape.

Every large array a primitive makes (op values, rotary tables and
attention weights, gradients and the scratch of the backward rules) is
written through numpy's ``out=``, which leaves the arithmetic unchanged,
into an array that a recording tape given a :class:`BufferPool` draws from
the pool and any other tape allocates afresh.  A gradient or
scratch buffer goes back to the pool as soon as no slot holds it, and
:meth:`Tape.release` hands back the rest once a training step is done, so
the pool holds about one step's peak live set and the next step of the same
shapes allocates nothing.  Memory the process keeps is memory the operating
system need not hand back and fault in again at every step.

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
    "BufferPool",
    "Var",
    "backward",
    "matmul",
    "add",
    "sub",
    "mul",
    "add_const",
    "mul_const",
    "slice_rows",
    "softmax_rows",
    "softplus",
    "softplus_inv",
    "tanh",
    "sum_all",
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


_FLOAT = np.dtype(np.float64)
_COMPLEX = np.dtype(np.complex128)


class BufferPool:
    """Arrays that the tapes of one training call reuse, step after step.

    A free buffer serves requests for its dtype and shape.  One of three or
    more axes, a batch, also serves smaller batches of the same trailing
    shape, as a view of its first rows, so the smaller last minibatch of an
    epoch needs no buffers of its own.  ``misses`` counts the requests that
    made a new buffer.
    """

    def __init__(self):
        self._free: dict[tuple, list[np.ndarray]] = {}
        self._key: dict[int, tuple] = {}  # id of each buffer made here -> its key
        self._made: list[np.ndarray] = []  # keeps those ids in use
        self._idle: set[int] = set()  # ids of the buffers in `_free`
        self.misses = 0

    def take(self, shape: tuple, dtype: np.dtype = _FLOAT) -> np.ndarray:
        """An uninitialised array of ``shape``, reused where one is free."""
        key = (dtype, "batch", shape[1:]) if len(shape) > 2 else (dtype, shape)
        free = self._free.setdefault(key, [])
        for i in range(len(free) - 1, -1, -1):
            buf = free[i]
            if len(buf) >= shape[0]:
                del free[i]
                self._idle.remove(id(buf))
                return buf if len(buf) == shape[0] else buf[:shape[0]]
        self.misses += 1
        buf = np.empty(shape, dtype)
        self._key[id(buf)] = key
        self._made.append(buf)
        return buf

    def give(self, arr: np.ndarray) -> None:
        """Take back the buffer under ``arr`` if this pool made it; else do nothing."""
        buf = arr if arr.base is None else arr.base
        key = self._key.get(id(buf))
        if key is not None and id(buf) not in self._idle:
            self._idle.add(id(buf))
            self._free[key].append(buf)


class Tape:
    """Ordered record of primitive operations and their value slots.

    With ``record=False`` the tape stores nothing: values stay in their
    :class:`Var` handles only, and :func:`backward` refuses the tape.  A
    ``pool`` (for a recording tape) supplies its large arrays; see
    :meth:`release`.
    """

    def __init__(self, record: bool = True, pool: BufferPool | None = None):
        self.values: list[np.ndarray] = []
        self.grads: list[np.ndarray | None] = []
        # slots whose gradient is another slot's buffer, passed through unchanged
        self.borrowed: set[int] = set()
        # how many slots hold each gradient buffer, by id
        self.holders: dict[int, int] = {}
        self.ops: list[_Op] = []
        self.recording = record
        self.pool = pool if record else None

    def recycle(self, arr: np.ndarray) -> None:
        """Hand ``arr`` back to the pool: nothing may read it afterwards."""
        if self.pool is not None:
            self.pool.give(arr)

    def release(self) -> None:
        """Hand every pooled array back and empty the tape.

        Call it once nothing will read the tape's values, gradients or
        attention weights again; its :class:`Var` handles are then dead.
        """
        if self.pool is not None:
            for arr in self.values + [g for g in self.grads if g is not None]:
                self.pool.give(arr)
            for op in self.ops:
                for arr in op.aux.values():
                    if isinstance(arr, np.ndarray):
                        self.pool.give(arr)
        self.values, self.grads, self.ops = [], [], []
        self.borrowed, self.holders = set(), {}

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


def _out(tape: Tape, shape, dtype=_FLOAT) -> np.ndarray:
    """Where an op writes its result: an uninitialised array of ``shape``,
    from the tape's pool when it has one."""
    return np.empty(shape, dtype) if tape.pool is None else tape.pool.take(shape, dtype)


def _apply(tape: Tape, ufunc, *args) -> np.ndarray:
    """``ufunc(*args)``, written into an array from :func:`_out`."""
    return ufunc(*args, out=_out(tape, np.broadcast(*args).shape))


def _zeros(tape: Tape, shape) -> np.ndarray:
    out = _out(tape, shape)
    out.fill(0.0)
    return out


def _copy(tape: Tape, x: np.ndarray) -> np.ndarray:
    out = _out(tape, x.shape)
    out[...] = x
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
    return tape.record("matmul", (a, b), _matmul(tape, a.value, b.value))


def _product_shape(a: np.ndarray, b: np.ndarray) -> tuple:
    """Shape of ``a @ b``."""
    return np.broadcast_shapes(a.shape[:-2], b.shape[:-2]) + (a.shape[-2], b.shape[-1])


def _matmul(tape, a, b):
    """``a @ b``, written into an array from :func:`_out`."""
    return np.matmul(a, b, out=_out(tape, _product_shape(a, b)))


def add(a: Var, b) -> Var:
    tape = a.tape
    b = _coerce(tape, b)
    return tape.record("add", (a, b), _apply(tape, np.add, a.value, b.value))


def sub(a: Var, b) -> Var:
    tape = a.tape
    b = _coerce(tape, b)
    return tape.record("sub", (a, b), _apply(tape, np.subtract, a.value, b.value))


def mul(a: Var, b) -> Var:
    """Elementwise (broadcasting) product of two tape values."""
    tape = a.tape
    b = _coerce(tape, b)
    return tape.record("mul", (a, b), _apply(tape, np.multiply, a.value, b.value))


def add_const(a: Var, c) -> Var:
    """Add a non-differentiated constant to ``a``."""
    return a.tape.record("add_const", (a,), _apply(a.tape, np.add, a.value, as_matrix(c)))


def mul_const(a: Var, c) -> Var:
    """Multiply ``a`` elementwise by a non-differentiated constant."""
    c = as_matrix(c)
    return a.tape.record("mul_const", (a,), _apply(a.tape, np.multiply, a.value, c), c=c)


def slice_rows(a: Var, start: int, stop: int) -> Var:
    """Rows ``start:stop`` of every matrix in the batch."""
    n = a.value.shape[-2]
    if not (0 <= start < stop <= n):
        raise ShapeError(f"slice_rows: [{start}:{stop}] out of range for {a.value.shape}")
    return a.tape.record("slice_rows", (a,), _copy(a.tape, a.value[..., start:stop, :]),
                         start=start, stop=stop)


def _softmax(x: np.ndarray, axis: int = -1) -> np.ndarray:
    """Softmax along ``axis``, computed in place on ``x`` (a fresh buffer)."""
    x -= x.max(axis=axis, keepdims=True)
    np.exp(x, out=x)
    x /= x.sum(axis=axis, keepdims=True)
    return x


def softmax_rows(x: Var) -> Var:
    """Rowwise softmax with per-row max subtraction for stability."""
    if not np.isfinite(x.value).all():
        raise ContractError("softmax_rows requires finite inputs")
    return x.tape.record("softmax_rows", (x,), _softmax(x.value.copy()))


def softplus(x: Var) -> Var:
    return x.tape.record("softplus", (x,), _apply(x.tape, np.logaddexp, 0.0, x.value))


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
    return x.tape.record("tanh", (x,), _apply(x.tape, np.tanh, x.value))


def sum_all(x: Var) -> Var:
    return x.tape.record("sum_all", (x,), np.array([[x.value.sum()]]))


def mean_all(x: Var) -> Var:
    return x.tape.record("mean_all", (x,), np.array([[x.value.mean()]]))


def _rope_tables(tape: Tape, coords: np.ndarray, width: int, base: float,
                 block: int) -> np.ndarray:
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
    rot = _out(tape, ang.shape, _COMPLEX)
    np.cos(ang, out=rot.real)
    np.sin(ang, out=rot.imag)
    return rot


def _rotate(tape: Tape, x: np.ndarray, rot: np.ndarray) -> np.ndarray:
    """Turn each column pair of ``x`` by the angles of a :func:`_rope_tables` table.

    The pair ``(x[2j], x[2j + 1])`` is the complex number ``x[2j] + i x[2j + 1]``
    and turns by multiplication with ``rot``; ``x`` is ``(..., n, width)``.
    The conjugate table gives the inverse rotation.
    """
    z = np.ascontiguousarray(x).view(np.complex128)
    z = z.reshape(z.shape[:-1] + (-1, rot.shape[-1]))
    out = _out(tape, x.shape)
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
    rot = _rope_tables(x.tape, coords, width, base, block)
    return x.tape.record("rope2d", (x,), _rotate(x.tape, x.value, rot), rot=rot)


def _heads(x: np.ndarray, n_heads: int) -> np.ndarray:
    """``(..., n, d)`` to ``(..., n_heads, n, d / n_heads)``."""
    return x.reshape(x.shape[:-1] + (n_heads, -1)).swapaxes(-3, -2)


def _merged_matmul(tape: Tape, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Per-head products ``a @ b`` with the heads' columns concatenated.

    The inverse of :func:`_heads` on the product, written by ``matmul``
    straight into the merged ``(..., n, n_heads * cols)`` layout, so no
    per-head result is materialised and copied.
    """
    *lead, n_heads, n, cols = _product_shape(a, b)
    out = _out(tape, (*lead, n, n_heads * cols))
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

    # 1/sqrt(hd) goes on the smaller operand rather than on the logits
    small = q if q.value.size <= k.value.size else k
    scaled = _apply(tape, np.multiply, small.value, 1.0 / math.sqrt(hd))
    qh = _heads(scaled if small is q else q.value, n_heads)
    kh = _heads(scaled if small is k else k.value, n_heads)
    keys_first = _keys_first(nq, L)
    if keys_first:
        logits = _matmul(tape, kh, qh.swapaxes(-2, -1))
    else:
        logits = _matmul(tape, qh, kh.swapaxes(-2, -1))
    tape.recycle(scaled)
    if sq is not None:
        logits -= lam.value.reshape(-1, 1, 1) * (sq.swapaxes(-2, -1) if keys_first else sq)
    weights = _softmax(logits, axis=-2 if keys_first else -1)
    # a read-only view: the backward rule only reads alpha, so the caller may share it
    alpha = weights.swapaxes(-2, -1) if keys_first else weights[...]
    alpha.setflags(write=False)
    out = _merged_matmul(tape, alpha, _heads(v.value, n_heads))

    inputs = (q, k, v) if lam is None else (q, k, v, lam)
    out_var = tape.record(
        "multihead_attention", inputs, out,
        n_heads=n_heads, alpha=alpha, sq=sq,
    )
    return out_var, alpha


# ---------------------------------------------------------------------------
# backward rules
# ---------------------------------------------------------------------------


def _hold(tape, idx, grad):
    """Let slot ``idx`` hold ``grad``, or nothing; a gradient buffer that no
    slot holds any more goes back to the pool."""
    old = tape.grads[idx]
    tape.grads[idx] = grad
    if grad is not None:
        tape.holders[id(grad)] = tape.holders.get(id(grad), 0) + 1
    if old is not None:
        left = tape.holders.pop(id(old)) - 1
        if left:
            tape.holders[id(old)] = left
        else:
            tape.recycle(old)


def _give(tape, idx, grad, borrowed=False):
    """Add one contribution ``grad`` to slot ``idx``'s gradient.

    The first contribution becomes the gradient.  ``borrowed`` marks it as
    another slot's buffer, passed through unchanged: the next contribution
    is then added out of place, once, into a buffer this slot owns.  Later
    contributions are added in place, and a contribution made for this slot
    alone goes back to the pool once added.
    """
    cur = tape.grads[idx]
    if cur is None:
        _hold(tape, idx, grad)
        if borrowed:
            tape.borrowed.add(idx)
        return
    if idx in tape.borrowed:
        tape.borrowed.discard(idx)
        _hold(tape, idx, _apply(tape, np.add, cur, grad))
    else:
        cur += grad
    if not borrowed:
        tape.recycle(grad)


def _contribute(tape, idx, grad):
    """:func:`_give` a contribution made for slot ``idx`` alone, summed to its shape."""
    part = _unbroadcast(grad, tape.values[idx].shape)
    if part is not grad:
        tape.recycle(grad)
    _give(tape, idx, part)


def _pass(tape, idx, g):
    """Pass the output gradient ``g`` on to slot ``idx``, summed to its shape."""
    grad = _unbroadcast(g, tape.values[idx].shape)
    _give(tape, idx, grad, borrowed=grad is g)


def _bwd_matmul(tape, op):
    g = tape.grads[op.output]
    a, b = (tape.values[i] for i in op.inputs)
    _contribute(tape, op.inputs[0], _matmul(tape, g, b.swapaxes(-1, -2)))
    _contribute(tape, op.inputs[1], _matmul(tape, a.swapaxes(-1, -2), g))


def _bwd_add(tape, op):
    g = tape.grads[op.output]
    for idx in op.inputs:
        _pass(tape, idx, g)


def _bwd_sub(tape, op):
    g = tape.grads[op.output]
    a_idx, b_idx = op.inputs
    _pass(tape, a_idx, g)
    part = _unbroadcast(g, tape.values[b_idx].shape)
    _give(tape, b_idx, _apply(tape, np.negative, part))


def _bwd_mul(tape, op):
    g = tape.grads[op.output]
    a_idx, b_idx = op.inputs
    a, b = tape.values[a_idx], tape.values[b_idx]
    _contribute(tape, a_idx, _apply(tape, np.multiply, g, b))
    _contribute(tape, b_idx, _apply(tape, np.multiply, g, a))


def _bwd_add_const(tape, op):
    _pass(tape, op.inputs[0], tape.grads[op.output])


def _bwd_mul_const(tape, op):
    g, c = tape.grads[op.output], op.aux["c"]
    _contribute(tape, op.inputs[0], _apply(tape, np.multiply, g, c))


def _bwd_slice_rows(tape, op):
    idx = op.inputs[0]
    cur = tape.grads[idx]
    if cur is None:
        cur = _zeros(tape, tape.values[idx].shape)
        _hold(tape, idx, cur)
    elif idx in tape.borrowed:
        tape.borrowed.discard(idx)
        cur = _copy(tape, cur)
        _hold(tape, idx, cur)
    cur[..., op.aux["start"]:op.aux["stop"], :] += tape.grads[op.output]


def _bwd_softmax_rows(tape, op):
    g = tape.grads[op.output]
    s = tape.values[op.output]
    _give(tape, op.inputs[0], s * (g - (g * s).sum(axis=-1, keepdims=True)))


def _bwd_softplus(tape, op):
    x = tape.values[op.inputs[0]]
    sig = np.exp(-np.logaddexp(0.0, -x))
    _give(tape, op.inputs[0], tape.grads[op.output] * sig)


def _bwd_tanh(tape, op):
    y = tape.values[op.output]
    _give(tape, op.inputs[0], tape.grads[op.output] * (1.0 - y * y))


def _bwd_sum_all(tape, op):
    x = tape.values[op.inputs[0]]
    _give(tape, op.inputs[0], np.full(x.shape, tape.grads[op.output][0, 0]))


def _bwd_mean_all(tape, op):
    x = tape.values[op.inputs[0]]
    _give(tape, op.inputs[0], np.full(x.shape, tape.grads[op.output][0, 0] / x.size))


def _bwd_rope2d(tape, op):
    # the rotation is orthogonal: its adjoint turns by the opposite angles
    rot = op.aux["rot"]
    back = np.conjugate(rot, out=_out(tape, rot.shape, _COMPLEX))
    _give(tape, op.inputs[0], _rotate(tape, tape.grads[op.output], back))
    tape.recycle(back)


def _weighted_sum(tape, x, w, axis):
    """``(x * w).sum(axis, keepdims=True)``, the product made in scratch."""
    product = _apply(tape, np.multiply, x, w)
    total = product.sum(axis=axis, keepdims=True)
    tape.recycle(product)
    return total


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
    _contribute(tape, op.inputs[2], _merged_matmul(tape, alpha.swapaxes(-2, -1), gh))
    # the softmax adjoint reduces over keys, in the layout the forward used
    if _keys_first(q.shape[-2], k.shape[-2]):
        weights = alpha.swapaxes(-2, -1)
        dlogits = _matmul(tape, vh, gh.swapaxes(-2, -1))
        dlogits -= _weighted_sum(tape, dlogits, weights, axis=-2)
        dlogits *= weights
        dlogits = dlogits.swapaxes(-2, -1)
    else:
        dlogits = _matmul(tape, gh, vh.swapaxes(-2, -1))
        dlogits -= _weighted_sum(tape, dlogits, alpha, axis=-1)
        dlogits *= alpha
    dq = _merged_matmul(tape, dlogits, _heads(k, n_heads))
    dq *= inv
    dk = _merged_matmul(tape, dlogits.swapaxes(-2, -1), _heads(q, n_heads))
    dk *= inv
    _contribute(tape, op.inputs[0], dq)
    _contribute(tape, op.inputs[1], dk)
    if sq is not None:
        # per-head sums over every batch, query and key position
        dlam = -(dlogits * sq).sum(axis=(-2, -1)).reshape(-1, n_heads).sum(axis=0)
        lam_idx = op.inputs[3]
        _give(tape, lam_idx, _unbroadcast(dlam.reshape(-1, 1), tape.values[lam_idx].shape))
    tape.recycle(dlogits)


_BACKWARD = {
    "matmul": _bwd_matmul,
    "add": _bwd_add,
    "sub": _bwd_sub,
    "mul": _bwd_mul,
    "add_const": _bwd_add_const,
    "mul_const": _bwd_mul_const,
    "slice_rows": _bwd_slice_rows,
    "softmax_rows": _bwd_softmax_rows,
    "softplus": _bwd_softplus,
    "tanh": _bwd_tanh,
    "sum_all": _bwd_sum_all,
    "mean_all": _bwd_mean_all,
    "rope2d": _bwd_rope2d,
    "multihead_attention": _bwd_multihead_attention,
}


def backward(tape: Tape, loss: Var) -> None:
    """Set d(loss)/d(slot) for every leaf slot on the tape.

    The loss slot must hold a scalar.  The op records are replayed in reverse
    execution order; an op whose output received no gradient is skipped, and
    an op output's gradient is freed once its producer's rule has run.  Leaves
    that received nothing get zeros of their shape.  Leaf gradients are
    read-only: one buffer may serve several leaves.  The values stay
    recorded, so the pass may run again on the same tape.
    """
    if loss.tape is not tape:
        raise ContractError("loss does not belong to this tape")
    if not tape.recording:
        raise ContractError("backward needs a tape that records its ops")
    if loss.value.shape != (1, 1):
        raise ContractError(f"loss must be scalar, got shape {loss.value.shape}")
    for g in tape.grads:  # of an earlier pass
        if g is not None:
            tape.recycle(g)
    grads = tape.grads = [None] * len(tape.values)
    tape.borrowed, tape.holders = set(), {}
    _hold(tape, loss.idx, np.ones((1, 1)))
    for op in reversed(tape.ops):
        if grads[op.output] is None:
            continue
        _BACKWARD[op.name](tape, op)
        _hold(tape, op.output, None)
        tape.borrowed.discard(op.output)
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
