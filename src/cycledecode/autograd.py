"""Dense-tensor math with reverse-mode automatic differentiation.

Tensors wrap numpy arrays (float32 by default, float64 selectable for
gradient checking). Every op records its parents and a backward closure;
``backward`` replays the graph in reverse topological order. No graph is
reused across steps.

The forward arithmetic of attention, RMSNorm, SiLU and RoPE lives in
ndarray helpers (``_attention_rows``, ``_rms_rows``, ``_silu_rows``,
``_rope_rotate``) that both the ops here and the model's graph-free
inference kernel call, so each formula is written once.
"""

from __future__ import annotations

import contextlib
from typing import Optional, Sequence

import numpy as np

from .errors import ContractError, DimensionError, NumericError

# Additive attention-mask value: large enough that exp() underflows to 0
# in float32 and float64, small enough to stay finite in float32.
MASK_VALUE = -1e30

_grad_enabled = True


@contextlib.contextmanager
def no_grad():
    """Disable graph recording inside the block (inference / evaluation)."""
    global _grad_enabled
    prev = _grad_enabled
    _grad_enabled = False
    try:
        yield
    finally:
        _grad_enabled = prev


class Tensor:
    """A dense array plus optional gradient buffer and graph linkage."""

    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward", "_grad_shared")

    def __init__(self, data, requires_grad: bool = False, dtype=None):
        arr = np.asarray(data, dtype=dtype)
        if arr.dtype not in (np.float32, np.float64):
            arr = arr.astype(np.float32)
        self.data: np.ndarray = arr
        self.grad: Optional[np.ndarray] = None
        self._grad_shared = False
        self.requires_grad = bool(requires_grad)
        self._parents: tuple = ()
        self._backward = None

    @property
    def shape(self) -> tuple:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def dtype(self):
        return self.data.dtype

    def item(self) -> float:
        return float(self.data.reshape(-1)[0])

    def detach(self) -> "Tensor":
        return Tensor(self.data, requires_grad=False)

    def zero_grad(self) -> None:
        self.grad = None

    def _accumulate(self, g: np.ndarray, owned: bool = False) -> None:
        # Adopt g on first touch. Unless the caller owns it (freshly
        # computed), g may view a buffer shared with other nodes, so it is
        # copied before the first in-place add.
        if self.grad is None:
            self.grad = g if g.dtype == self.data.dtype else g.astype(self.data.dtype)
            self._grad_shared = not owned and self.grad is g
            return
        if self._grad_shared:
            self.grad = np.array(self.grad)
            self._grad_shared = False
        self.grad += g

    def backward(self) -> None:
        """Accumulate gradients into every requires_grad ancestor.

        The loss must be a scalar (a single element); anything else is a
        contract violation, not a numeric event.
        """
        if self.data.size != 1:
            raise ContractError(
                f"backward() requires a scalar loss, got shape {self.shape}"
            )
        topo: list[Tensor] = []
        visited: set[int] = set()
        stack: list[tuple[Tensor, bool]] = [(self, False)]
        while stack:
            node, expanded = stack.pop()
            if expanded:
                topo.append(node)
                continue
            if id(node) in visited:
                continue
            visited.add(id(node))
            stack.append((node, True))
            for parent in node._parents:
                if id(parent) not in visited:
                    stack.append((parent, False))
        self.grad = np.ones_like(self.data)
        for node in reversed(topo):
            if node._backward is not None and node.grad is not None:
                node._backward(node.grad)

    # Operator sugar. The right operand may be a Tensor, array, or scalar.
    def __add__(self, other):
        return add(self, other)

    def __mul__(self, other):
        return mul(self, other)

    def __repr__(self) -> str:
        return f"Tensor(shape={self.shape}, dtype={self.data.dtype}, requires_grad={self.requires_grad})"


def _as_tensor(x, like: Optional[Tensor] = None) -> Tensor:
    if isinstance(x, Tensor):
        return x
    dtype = like.data.dtype if like is not None else None
    return Tensor(np.asarray(x, dtype=dtype))


def _pair(a, b) -> tuple[Tensor, Tensor]:
    """Coerce operands to Tensors without widening the float dtype."""
    if isinstance(a, Tensor):
        return a, _as_tensor(b, like=a)
    if isinstance(b, Tensor):
        return _as_tensor(a, like=b), b
    return _as_tensor(a), _as_tensor(b)


def _make(
    data: np.ndarray, parents: Sequence[Tensor], backward_fn
) -> Tensor:
    out = Tensor(data)
    if _grad_enabled and any(p.requires_grad for p in parents):
        out.requires_grad = True
        out._parents = tuple(parents)
        out._backward = backward_fn
    return out


def _unbroadcast(g: np.ndarray, shape: tuple) -> np.ndarray:
    """Reduce a broadcast gradient back to ``shape``."""
    if g.shape == shape:
        return g
    extra = g.ndim - len(shape)
    if extra > 0:
        g = g.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, n in enumerate(shape) if n == 1 and g.shape[i] != 1)
    if axes:
        g = g.sum(axis=axes, keepdims=True)
    return g


def add(a, b) -> Tensor:
    a, b = _pair(a, b)
    data = a.data + b.data

    def backward(g):
        if a.requires_grad:
            a._accumulate(_unbroadcast(g, a.data.shape))
        if b.requires_grad:
            b._accumulate(_unbroadcast(g, b.data.shape))

    return _make(data, (a, b), backward)


def mul(a, b) -> Tensor:
    a, b = _pair(a, b)
    data = a.data * b.data

    def backward(g):
        if a.requires_grad:
            a._accumulate(_unbroadcast(g * b.data, a.data.shape), owned=True)
        if b.requires_grad:
            b._accumulate(_unbroadcast(g * a.data, b.data.shape), owned=True)

    return _make(data, (a, b), backward)


def matmul(a, b) -> Tensor:
    """Matrix product on the trailing two axes; leading axes broadcast."""
    a, b = _pair(a, b)
    if a.ndim < 2 or b.ndim < 2:
        raise DimensionError(
            f"matmul requires ndim >= 2 operands, got {a.shape} @ {b.shape}"
        )
    if a.shape[-1] != b.shape[-2]:
        raise DimensionError(
            f"matmul inner dimensions disagree: {a.shape} @ {b.shape}"
        )

    if b.ndim == 2 and a.ndim > 2:
        # Weight-projection fast path: fold leading axes into one GEMM.
        lead = a.shape[:-1]
        a2 = a.data.reshape(-1, a.shape[-1])
        data = (a2 @ b.data).reshape(lead + (b.shape[-1],))

        def backward(g):
            g2 = g.reshape(-1, g.shape[-1])
            if a.requires_grad:
                a._accumulate((g2 @ b.data.T).reshape(a.data.shape), owned=True)
            if b.requires_grad:
                b._accumulate(a2.T @ g2, owned=True)

        return _make(data, (a, b), backward)

    data = a.data @ b.data

    def backward(g):
        if a.requires_grad:
            ga = g @ np.swapaxes(b.data, -1, -2)
            a._accumulate(_unbroadcast(ga, a.data.shape), owned=True)
        if b.requires_grad:
            gb = np.swapaxes(a.data, -1, -2) @ g
            b._accumulate(_unbroadcast(gb, b.data.shape), owned=True)

    return _make(data, (a, b), backward)


def reshape(a: Tensor, shape: tuple) -> Tensor:
    a = _as_tensor(a)
    data = a.data.reshape(shape)

    def backward(g):
        a._accumulate(g.reshape(a.data.shape))

    return _make(data, (a,), backward)


def transpose(a: Tensor, axes: tuple) -> Tensor:
    a = _as_tensor(a)
    data = a.data.transpose(axes)
    inverse = tuple(np.argsort(axes))

    def backward(g):
        a._accumulate(g.transpose(inverse))

    return _make(data, (a,), backward)


def tsum(a: Tensor, axis=None, keepdims: bool = False) -> Tensor:
    a = _as_tensor(a)
    data = a.data.sum(axis=axis, keepdims=keepdims)

    def backward(g):
        if axis is not None and not keepdims:
            g = np.expand_dims(g, axis)
        a._accumulate(np.broadcast_to(g, a.data.shape).copy(), owned=True)

    return _make(data, (a,), backward)


def _softmax_rows(x: np.ndarray, axis: int, overwrite: bool = False) -> np.ndarray:
    """exp(x - max) / sum, into ``x``'s own buffer if ``overwrite``.

    Rejects NaN and +-inf: a NaN or +inf shows in the row max and a -inf
    in the global min, two reductions cheaper than an ``isfinite`` scan.
    """
    row_max = x.max(axis=axis, keepdims=True)
    if not np.isfinite(row_max).all() or (x.size and not np.isfinite(x.min())):
        raise NumericError("softmax input contains non-finite values")
    e = np.subtract(x, row_max, out=x if overwrite else None)
    np.exp(e, out=e)
    e /= e.sum(axis=axis, keepdims=True)
    return e


def _softmax_backward(g: np.ndarray, y: np.ndarray, axis: int) -> np.ndarray:
    """y * (g - sum(g * y)), in one fresh buffer."""
    t = np.multiply(g, y)
    dot = t.sum(axis=axis, keepdims=True)
    np.subtract(g, dot, out=t)
    t *= y
    return t


def softmax(x, axis: int = -1) -> Tensor:
    """Numerically stabilized softmax; rejects non-finite input."""
    x = _as_tensor(x)
    y = _softmax_rows(x.data, axis)

    def backward(g):
        x._accumulate(_softmax_backward(g, y, axis), owned=True)

    return _make(y, (x,), backward)


def _attention_rows(q: np.ndarray, k: np.ndarray, v: np.ndarray, mask: Optional[np.ndarray]):
    """``softmax(q @ k^T / sqrt(hd) + mask) @ v``, its probabilities and the
    scale; a ``None`` mask adds nothing (every key visible)."""
    scale = np.asarray(1.0 / np.sqrt(q.shape[-1]), dtype=q.dtype)
    scores = q @ np.swapaxes(k, -1, -2)
    scores *= scale
    if mask is not None:
        scores += mask
    probs = _softmax_rows(scores, -1, overwrite=True)
    return probs @ v, probs, scale


def causal_attention(q: Tensor, k: Tensor, v: Tensor, mask: np.ndarray) -> Tensor:
    """``softmax(q @ k^T / sqrt(hd) + mask) @ v`` as one graph node.

    q is [..., n, hd], k and v are [..., m, hd], mask is an additive
    [n, m] array. The node runs the floating-point operations of the
    composed matmul/mul/add/softmax graph (its oracle) but keeps only the
    probabilities of that graph's four [..., n, m] intermediates.
    """
    q, k, v = _as_tensor(q), _as_tensor(k), _as_tensor(v)
    hd = q.data.shape[-1]
    if k.shape[-1] != hd or k.shape != v.shape or mask.shape != (q.shape[-2], k.shape[-2]):
        raise DimensionError(
            f"attention shapes disagree: q {q.shape}, k {k.shape}, v {v.shape}, mask {mask.shape}"
        )
    out, probs, scale = _attention_rows(q.data, k.data, v.data, mask)

    def backward(g):
        if v.requires_grad:
            v._accumulate(np.swapaxes(probs, -1, -2) @ g, owned=True)
        if q.requires_grad or k.requires_grad:
            ds = _softmax_backward(g @ np.swapaxes(v.data, -1, -2), probs, -1)
            ds *= scale
            if q.requires_grad:
                q._accumulate(ds @ k.data, owned=True)
            if k.requires_grad:
                k._accumulate(np.swapaxes(np.swapaxes(q.data, -1, -2) @ ds, -1, -2), owned=True)

    return _make(out, (q, k, v), backward)


def _silu_rows(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``x * sigmoid(x)`` and the sigmoid."""
    sig = 1.0 / (1.0 + np.exp(-x))
    return x * sig, sig


def silu(x: Tensor) -> Tensor:
    x = _as_tensor(x)
    y, sig = _silu_rows(x.data)

    def backward(g):
        # g * sig * (1 + x * (1 - sig)), in place in the same operation order
        t = np.subtract(1.0, sig)
        t *= x.data
        t += 1.0
        out = g * sig
        out *= t
        x._accumulate(out, owned=True)

    return _make(y, (x,), backward)


def _rms_rows(x: np.ndarray, gain: np.ndarray, eps: float):
    """``x / rms(x) * gain`` over the trailing axis, the normalized rows and
    the reciprocal rms."""
    ms = np.mean(np.square(x), axis=-1, keepdims=True)
    r = 1.0 / np.sqrt(ms + eps)
    normed = x * r
    return normed * gain, normed, r


def rms_norm(x, gain, eps: float = 1e-5) -> Tensor:
    """Scale rows to unit root-mean-square, then apply an elementwise gain."""
    x = _as_tensor(x)
    gain = _as_tensor(gain, like=x)
    d = x.data.shape[-1]
    if gain.data.shape != (d,):
        raise DimensionError(
            f"rms_norm gain shape {gain.data.shape} does not match trailing dim {d}"
        )
    y, normed, r = _rms_rows(x.data, gain.data, eps)

    def backward(g):
        t = np.empty(g.shape, dtype=g.dtype)
        if x.requires_grad:
            # r * gg - x * (s * r^3 / d) with gg = g * gain, s = sum(gg * x)
            gg = g * gain.data
            s = np.multiply(gg, x.data, out=t).sum(axis=-1, keepdims=True)
            np.multiply(x.data, s * r**3 / d, out=t)
            gg *= r
            gg -= t
            x._accumulate(gg, owned=True)
        if gain.requires_grad:
            gain._accumulate(np.multiply(g, normed, out=t).reshape(-1, d).sum(axis=0), owned=True)

    return _make(y, (x, gain), backward)


_rope_tables: dict[tuple, tuple[np.ndarray, np.ndarray]] = {}


def _rope_cos_sin(positions: np.ndarray, half: int, base: float, dtype) -> tuple[np.ndarray, np.ndarray]:
    """Rows ``[cos, cos]`` and ``[-sin, sin]`` for ``positions`` from a
    table that grows by doubling; each entry is computed on its own in
    float64, so a row equals a direct computation bit for bit."""
    key = (half, float(base), np.dtype(dtype))
    table = _rope_tables.get(key)
    rows = int(positions.max()) + 1 if positions.size else 0
    if table is None or table[0].shape[0] < rows:
        rows = max(rows, 2 * table[0].shape[0] if table is not None else 256)
        inv = base ** (-np.arange(half, dtype=np.float64) * 2.0 / (2 * half))
        ang = np.arange(rows)[:, None].astype(np.float64) * inv[None, :]
        cos, sin = np.cos(ang), np.sin(ang)
        table = (np.concatenate([cos, cos], -1).astype(dtype), np.concatenate([-sin, sin], -1).astype(dtype))
        _rope_tables[key] = table
    return table[0][positions], table[1][positions]


def _rope_rotate(v: np.ndarray, cos: np.ndarray, sin: np.ndarray, sign: int = 1) -> np.ndarray:
    """Rotate channel pairs (j, j + hd/2) of ``v`` by the ``_rope_cos_sin``
    rows, which broadcast against it; sign -1 applies the adjoint (the
    inverse)."""
    half = v.shape[-1] // 2
    swapped = np.concatenate([v[..., half:], v[..., :half]], axis=-1)
    swapped *= sin
    out = v * cos
    return np.add(out, swapped, out=out) if sign > 0 else np.subtract(out, swapped, out=out)


def rope(x: Tensor, positions: np.ndarray, base: float) -> Tensor:
    """Rotary position encoding over the trailing (position, channel) axes.

    ``x`` has shape [..., n, hd] with even hd; ``positions`` gives the
    absolute position of each of the n rows. Channel j < hd/2 pairs with
    channel j + hd/2: (x1, x2) -> (x1 cos - x2 sin, x2 cos + x1 sin).
    """
    x = _as_tensor(x)
    hd = x.data.shape[-1]
    n = x.data.shape[-2]
    if hd % 2 != 0:
        raise DimensionError(f"rope requires an even head dim, got {hd}")
    positions = np.asarray(positions)
    if positions.shape != (n,):
        raise DimensionError(
            f"rope positions length {positions.shape} does not match axis size {n}"
        )
    if positions.size and positions.min() < 0:
        raise DimensionError(f"rope positions must be non-negative, got {positions.min()}")
    cos, sin = _rope_cos_sin(positions, hd // 2, base, x.data.dtype)

    def backward(g):
        x._accumulate(_rope_rotate(g, cos, sin, -1), owned=True)

    return _make(_rope_rotate(x.data, cos, sin), (x,), backward)


def embedding(table: Tensor, ids) -> Tensor:
    """Row lookup ``table[ids]`` with scatter-add backward."""
    table = _as_tensor(table)
    ids = np.asarray(ids)
    if not np.issubdtype(ids.dtype, np.integer):
        raise DimensionError("embedding ids must be integers")
    vocab = table.data.shape[0]
    if ids.size and (ids.min() < 0 or ids.max() >= vocab):
        raise IndexError(
            f"embedding id out of range [0, {vocab}): min={ids.min()}, max={ids.max()}"
        )
    data = table.data[ids]

    def backward(g):
        acc = np.zeros_like(table.data)
        np.add.at(acc, ids, g)
        table._accumulate(acc, owned=True)

    return _make(data, (table,), backward)


def cross_entropy(logits, targets, ignore_mask=None) -> Tensor:
    """Mean negative log-softmax probability of targets.

    ``logits`` is [n, V] (leading batch axes are flattened), ``targets``
    holds token ids, and positions where ``ignore_mask`` is True are
    dropped from the mean. With every position ignored the loss is
    defined as 0 and contributes zero gradient.
    """
    logits = _as_tensor(logits)
    vocab = logits.data.shape[-1]
    flat = logits.data.reshape(-1, vocab)
    targets = np.asarray(targets).reshape(-1)
    if targets.shape[0] != flat.shape[0]:
        raise DimensionError(
            f"cross_entropy got {flat.shape[0]} rows but {targets.shape[0]} targets"
        )
    if targets.size and (targets.min() < 0 or targets.max() >= vocab):
        raise IndexError(
            f"cross_entropy target out of vocab [0, {vocab}): "
            f"min={targets.min()}, max={targets.max()}"
        )
    if ignore_mask is None:
        keep = np.ones(flat.shape[0], dtype=bool)
    else:
        keep = ~np.asarray(ignore_mask, dtype=bool).reshape(-1)
        if keep.shape[0] != flat.shape[0]:
            raise DimensionError("ignore_mask length does not match positions")
    count = int(keep.sum())

    m = flat.max(axis=-1, keepdims=True)
    e = np.exp(flat - m)
    z = e.sum(axis=-1, keepdims=True)
    log_probs = (flat - m) - np.log(z)
    rows = np.arange(flat.shape[0])
    nll = -log_probs[rows, targets]
    value = nll[keep].sum() / count if count else 0.0
    data = np.asarray(value, dtype=logits.data.dtype)

    def backward(g):
        if count == 0:
            logits._accumulate(np.zeros_like(logits.data), owned=True)
            return
        probs = e / z
        grad = probs
        grad[rows, targets] -= 1.0
        grad *= (keep * (float(g) / count))[:, None]
        logits._accumulate(grad.reshape(logits.data.shape).astype(logits.data.dtype), owned=True)

    return _make(data, (logits,), backward)
