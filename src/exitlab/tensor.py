"""Dense float64 tensors with reverse-mode automatic differentiation.

A deliberately small engine: numpy arrays in row-major float64, one tape
node per op result, and explicit shapes everywhere. Broadcasting is
restricted to python scalars and trailing-shape operands (bias style);
anything fancier goes through an explicit ``reshape``. That keeps every
backward rule a few lines and each one checkable against central finite
differences.

Every op the model uses has one forward kernel, a plain function of
ndarrays. The taped op calls it and records a tape node; :data:`arrays`
exposes the same kernels by the same names for inference, where they
return plain ndarrays and record nothing. Tensor results are always
C-contiguous, and so are the kernels' results (``transpose`` copies), so
both namespaces run numpy and BLAS on the same layouts and give the same
bits.

A model's projections and attentions are one node each: :func:`linear`
is the gemm with the bias added in place, and :func:`attention` the head
split, scaled scores, softmax and context of each length group of rows
in turn, so no position is padding and no mask is needed. A projection
and the GELU after it are one node, :func:`linear_gelu`, and so are a
projection and the residual sum and layer norm after it,
:func:`linear_layer_norm`; :func:`layer_norm` with a ``residual`` is the
sum and layer norm alone. Each backward runs the backward rules of the
equivalent chain of ``matmul``, ``transpose``, ``softmax``, ``gelu``,
``layer_norm`` and arithmetic nodes op for op, so it gives their
gradients bit for bit while the tape holds none of their intermediate
results. A node keeps only what its backward reads and its parents do
not hold already: ``attention`` keeps its softmax and splits the heads
of its parents' arrays again in its backward, ``linear_gelu`` keeps
GELU's derivative, which its forward computes, and a layer norm keeps
its normalized input and inverse deviation, never the projection or the
sum it normalizes.
"""

from __future__ import annotations

import math
from types import SimpleNamespace
from typing import Callable, Iterable, Sequence

import numpy as np

__all__ = [
    "ShapeError",
    "Tensor",
    "TapeNode",
    "matmul",
    "linear",
    "linear_gelu",
    "linear_layer_norm",
    "attention",
    "softmax",
    "sigmoid",
    "log",
    "clamp_min",
    "gelu",
    "layer_norm",
    "embedding_lookup",
    "transpose",
    "backward",
    "arrays",
]


class ShapeError(ValueError):
    """Raised when operand shapes violate an op's contract."""


class TapeNode:
    """One recorded op: kind, parent tensors, and the backward rule.

    ``backward(gout)`` returns one gradient array per parent (``None`` for
    non-differentiable parents). The tape is a DAG; ``backward()`` below
    visits each node exactly once in reverse topological order.
    """

    __slots__ = ("op", "parents", "backward")

    def __init__(self, op: str, parents: tuple["Tensor", ...], backward: Callable):
        self.op = op
        self.parents = parents
        self.backward = backward


class Tensor:
    """A float64 array with optional autodiff tape attachment.

    Tensors produced by ops are treated as immutable; only leaf parameters
    (``requires_grad=True``, no node) are updated in place by optimizers.
    Tensors without tape attachments are plain values, safe to share.
    """

    __slots__ = ("_array", "node", "requires_grad")

    def __init__(self, array, requires_grad: bool = False, node: TapeNode | None = None):
        self._array = np.asarray(array, dtype=np.float64, order="C")
        self.requires_grad = bool(requires_grad)
        self.node = node

    # -- value access -------------------------------------------------

    @property
    def array(self) -> np.ndarray:
        """The underlying ndarray (do not mutate unless this is a parameter)."""
        return self._array

    @property
    def shape(self) -> tuple[int, ...]:
        return self._array.shape

    @property
    def ndim(self) -> int:
        return self._array.ndim

    @property
    def size(self) -> int:
        return self._array.size

    def item(self) -> float:
        if self._array.size != 1:
            raise ShapeError(f"item() needs a single-element tensor, got shape {self.shape}")
        return float(self._array.reshape(-1)[0])

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        grad = ", grad" if self.requires_grad else ""
        return f"Tensor(shape={self.shape}{grad})\n{self._array!r}"

    # -- operators ----------------------------------------------------

    def __add__(self, other):
        return _add(self, other)

    def __radd__(self, other):
        return _add(self, other)

    def __sub__(self, other):
        return _sub(self, other)

    def __rsub__(self, other):
        return _sub(_as_tensor(other), self)

    def __mul__(self, other):
        return _mul(self, other)

    def __rmul__(self, other):
        return _mul(self, other)

    def __neg__(self):
        return _mul(self, -1.0)

    def __matmul__(self, other):
        return matmul(self, other)

    # -- shape ops ----------------------------------------------------

    def reshape(self, shape: Sequence[int]) -> "Tensor":
        return _reshape(self, tuple(shape))

    def sum(self, axis: int | None = None, keepdims: bool = False) -> "Tensor":
        return _reduce(self, axis, keepdims, "sum")

    def mean(self, axis: int | None = None, keepdims: bool = False) -> "Tensor":
        return _reduce(self, axis, keepdims, "mean")


def _as_tensor(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(np.asarray(x, dtype=np.float64))


def _result(op: str, out: np.ndarray, parents: tuple[Tensor, ...], backward: Callable) -> Tensor:
    requires = any(p.requires_grad for p in parents)
    node = TapeNode(op, parents, backward) if requires else None
    return Tensor(out, requires_grad=requires, node=node)


def _check_trailing(op: str, a: Tensor, b: Tensor) -> None:
    small, big = (a, b) if a.ndim <= b.ndim else (b, a)
    if small.shape != big.shape[big.ndim - small.ndim:]:
        raise ShapeError(
            f"{op}: shape {a.shape} and {b.shape} are not equal or trailing-compatible"
        )


def _unbroadcast(grad: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum a trailing-broadcast gradient back down to ``shape``."""
    extra = grad.ndim - len(shape)
    if extra:
        grad = grad.sum(axis=tuple(range(extra)))
    return grad


# -- arithmetic ---------------------------------------------------------


def _add(a: Tensor, b) -> Tensor:
    if not isinstance(b, Tensor):
        c = float(b)
        return _result("add", a.array + c, (a,), lambda g: (g,))
    _check_trailing("add", a, b)
    out = a.array + b.array

    def back(g):
        return _unbroadcast(g, a.shape), _unbroadcast(g, b.shape)

    return _result("add", out, (a, b), back)


def _sub(a: Tensor, b) -> Tensor:
    if not isinstance(b, Tensor):
        c = float(b)
        return _result("sub", a.array - c, (a,), lambda g: (g,))
    _check_trailing("sub", a, b)
    out = a.array - b.array

    def back(g):
        return _unbroadcast(g, a.shape), _unbroadcast(-g, b.shape)

    return _result("sub", out, (a, b), back)


def _mul(a: Tensor, b) -> Tensor:
    if not isinstance(b, Tensor):
        c = float(b)
        return _result("mul", a.array * c, (a,), lambda g: (g * c,))
    _check_trailing("mul", a, b)
    out = a.array * b.array
    aa, ba = a.array, b.array

    def back(g):
        return _unbroadcast(g * ba, a.shape), _unbroadcast(g * aa, b.shape)

    return _result("mul", out, (a, b), back)


def _matmul_grads(aa: np.ndarray, ba: np.ndarray, g: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The gradients of ``np.matmul(aa, ba)`` w.r.t. both operands, given the
    output gradient ``g``: :func:`matmul`'s backward rule."""
    if ba.ndim == 2:
        a2 = aa.reshape(-1, aa.shape[-1])
        g2 = g.reshape(-1, ba.shape[-1])
        return (g2 @ ba.T).reshape(aa.shape), a2.T @ g2
    ga = np.matmul(g, np.swapaxes(ba, -1, -2))
    gb = np.matmul(np.swapaxes(aa, -1, -2), g)
    return _unbroadcast(ga, aa.shape), _unbroadcast(gb, ba.shape)


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """Matrix product with optional leading batch dims on either operand.

    Supported: 2D @ 2D, ND @ 2D (shared right matrix), and ND @ ND with
    identical leading dims. The backward of ND @ 2D runs as one 2-D gemm
    per gradient over the leading dims flattened into rows. The forward
    stays ``np.matmul``, whose per-batch gemms give each sample the bits
    it gets at batch 1, which one flattened gemm over rows of several
    samples may not.
    """
    if a.ndim < 2 or b.ndim < 2:
        raise ShapeError(f"matmul needs >=2-D operands, got {a.shape} and {b.shape}")
    if a.shape[-1] != b.shape[-2]:
        raise ShapeError(f"matmul inner dims disagree: {a.shape} @ {b.shape}")
    if a.ndim > 2 and b.ndim > 2 and a.shape[:-2] != b.shape[:-2]:
        raise ShapeError(f"matmul batch dims disagree: {a.shape} @ {b.shape}")
    aa, ba = a.array, b.array
    return _result("matmul", np.matmul(aa, ba), (a, b), lambda g: _matmul_grads(aa, ba, g))


def _linear_fwd(x: np.ndarray, w: np.ndarray, b: np.ndarray,
                spans: Sequence[tuple[int, int, int, int]] | None = None) -> np.ndarray:
    """``x @ w + b``, the bias added in place: the same sums as ``np.matmul(x, w) + b``.

    With ``spans`` (see :func:`attention`) over the rows of a [rows, d_in]
    x, the gemm runs span by span on each [b, t, d_in] block, which gives
    every row the bits it gets at batch 1, as one 2-D gemm over rows of
    several samples may not; inference passes them, training does not.
    """
    if spans is None:
        y = np.matmul(x, w)
    else:
        y = np.empty((x.shape[0], w.shape[1]))
        for lo, hi, n, t in spans:
            np.matmul(x[lo:hi].reshape((n, t, -1)), w, out=y[lo:hi].reshape((n, t, -1)))
    y += b
    return y


def _check_linear(op: str, x: Tensor, w: Tensor, b: Tensor) -> None:
    if x.ndim < 2 or w.ndim != 2 or x.shape[-1] != w.shape[0] or b.shape != w.shape[1:]:
        raise ShapeError(f"{op} needs [..., d_in] @ [d_in, d_out] + [d_out], "
                         f"got {x.shape} @ {w.shape} + {b.shape}")


def _linear_grads(xa: np.ndarray, wa: np.ndarray, g: np.ndarray) -> tuple[np.ndarray, ...]:
    """The gradients of ``_linear_fwd(xa, wa, b)`` w.r.t. x, w and b, given
    the output gradient ``g``: :func:`linear`'s backward rule."""
    gx, gw = _matmul_grads(xa, wa, g)
    return gx, gw, _unbroadcast(g, wa.shape[1:])


def linear(x: Tensor, w: Tensor, b: Tensor) -> Tensor:
    """``x @ w + b`` for x [..., d_in], w [d_in, d_out] and b [d_out], as one node.

    It gives the bits of ``matmul(x, w) + b`` and the gradients of
    ``matmul``'s and ``add``'s backward rules, but the tape keeps only the
    result, not the product before the bias.
    """
    _check_linear("linear", x, w, b)
    xa, wa = x.array, w.array
    return _result("linear", _linear_fwd(xa, wa, b.array), (x, w, b), lambda g: _linear_grads(xa, wa, g))


# -- shape --------------------------------------------------------------


def _reshape(a: Tensor, shape: tuple[int, ...]) -> Tensor:
    out = a.array.reshape(shape)
    in_shape = a.shape

    def back(g):
        return (g.reshape(in_shape),)

    return _result("reshape", out, (a,), back)


def _transpose_fwd(x: np.ndarray, axes: tuple[int, ...]) -> np.ndarray:
    # a C-contiguous copy, as every Tensor holds: np.matmul of a strided
    # view may take another BLAS path and round differently
    return x.transpose(axes).copy()


def transpose(a: Tensor, axes: Sequence[int] | None = None) -> Tensor:
    """Permute axes; the default swaps the last two. Only the reference op
    chain that the tests check :func:`attention` against calls it."""
    if axes is None:
        if a.ndim < 2:
            raise ShapeError(f"transpose needs >=2-D input, got shape {a.shape}")
        axes = tuple(range(a.ndim - 2)) + (a.ndim - 1, a.ndim - 2)
    axes = tuple(axes)
    inverse = tuple(np.argsort(axes))
    out = _transpose_fwd(a.array, axes)

    def back(g):
        return (np.transpose(g, inverse),)

    return _result("transpose", out, (a,), back)


def _reduce(a: Tensor, axis: int | None, keepdims: bool, kind: str) -> Tensor:
    if kind == "sum":
        out = a.array.sum(axis=axis, keepdims=keepdims)
    else:
        out = a.array.mean(axis=axis, keepdims=keepdims)
    in_shape = a.shape
    count = a.size if axis is None else in_shape[axis]

    def back(g):
        g = np.asarray(g)
        if axis is not None and not keepdims:
            g = np.expand_dims(g, axis)
        g = np.broadcast_to(g, in_shape).copy()
        if kind == "mean":
            g = g / count
        return (g,)

    return _result(kind, out, (a,), back)


# -- nonlinearities ------------------------------------------------------

_SIG_LO = np.nextafter(0.0, 1.0)
_SIG_HI = np.nextafter(1.0, 0.0)


def _softmax_fwd(x: np.ndarray, axis: int = -1) -> np.ndarray:
    # the reduces are what ndarray.max and ndarray.sum call, minus their
    # Python wrappers; the divide runs in place, the same quotients
    e = np.exp(x - np.maximum.reduce(x, axis=axis, keepdims=True))
    e /= np.add.reduce(e, axis=axis, keepdims=True)
    return e


def softmax(a: Tensor, axis: int = -1) -> Tensor:
    """Stable softmax along ``axis``: positive entries summing to 1."""
    out = _softmax_fwd(a.array, axis)
    return _result("softmax", out, (a,), lambda g: (_softmax_grad(out, g, axis),))


def _softmax_grad(out: np.ndarray, g: np.ndarray, axis: int = -1) -> np.ndarray:
    """The input gradient of a softmax with result ``out``, given the output gradient ``g``."""
    dot = (g * out).sum(axis=axis, keepdims=True)
    return out * (g - dot)


def _split_heads(q: np.ndarray, k: np.ndarray, v: np.ndarray, n_heads: int, b: int,
                 t: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The head-split q [b, h, t, hd], transposed k [b, h, hd, t] and v [b, h, t, hd]
    of b samples of t tokens whose b * t rows q, k and v hold, in any shape:
    C-contiguous copies, as :func:`_transpose_fwd` makes."""
    shape = (b, t, n_heads, q.shape[-1] // n_heads)
    return (q.reshape(shape).transpose((0, 2, 1, 3)).copy(),
            k.reshape(shape).transpose((0, 2, 3, 1)).copy(),
            v.reshape(shape).transpose((0, 2, 1, 3)).copy())


def _attend(q: np.ndarray, k: np.ndarray, v: np.ndarray, n_heads: int, b: int, t: int,
            saved: list | None) -> np.ndarray:
    """The context [b, t, h, hd] of b samples of t tokens (see :func:`_split_heads`),
    a strided view; ``saved``, if given, gets the softmax [b, h, t, t]."""
    qh, kt, vh = _split_heads(q, k, v, n_heads, b, t)
    scores = np.matmul(qh, kt)
    scores *= 1.0 / math.sqrt(qh.shape[-1])  # a Python float: the bits of 1.0 / np.sqrt(hd)
    p = _softmax_fwd(scores)
    if saved is not None:
        saved.append(p)
    return np.matmul(p, vh).transpose((0, 2, 1, 3))


def _attention_fwd(q: np.ndarray, k: np.ndarray, v: np.ndarray, n_heads: int,
                   spans: Sequence[tuple[int, int, int, int]] | None = None,
                   saved: list | None = None) -> np.ndarray:
    """The context of :func:`attention`, in q's shape, from [rows, d] q, k and v
    and their ``spans``, or from [b, t, d] q, k and v (one group) without spans.
    A taped call passes ``saved``, which gets each span's softmax [b, h, t, t],
    the one thing its backward reads."""
    if spans is None or len(spans) == 1:
        b, t = (q.shape[0], q.shape[1]) if spans is None else spans[0][2:]
        # the reshape copies the strided context into a fresh C-contiguous array
        return _attend(q, k, v, n_heads, b, t, saved).reshape(q.shape)
    ctx = np.empty(q.shape)
    for lo, hi, b, t in spans:
        np.copyto(ctx[lo:hi].reshape((b, t, n_heads, -1)),
                  _attend(q[lo:hi], k[lo:hi], v[lo:hi], n_heads, b, t, saved))
    return ctx


def attention(q: Tensor, k: Tensor, v: Tensor, n_heads: int,
              spans: Sequence[tuple[int, int, int, int]] | None = None) -> Tensor:
    """Multi-head scaled dot-product attention within groups of rows, as one node.

    q, k and v are [rows, d] projections. ``spans`` tiles the rows in order
    as (lo, hi, b, t): rows lo..hi hold b samples of t tokens each, and each
    sample attends over its own t rows only, so no position is padding and
    no mask is needed. Without ``spans``, q, k and v are [b, t, d], one such
    group, which runs as its rows, reshaped. Each of ``n_heads`` heads
    attends over its d / n_heads columns: softmax(q k^T / sqrt(d / n_heads)) v.
    The tape keeps only each group's softmax; the backward splits the heads
    of the parents' q, k and v again with the forward's copies, then replays,
    group by group, the backward rules of the reshape, transpose, matmul,
    scale and softmax chain that computes the same forward, in reverse, so
    the gradients are that chain's bit for bit.
    """
    if spans is None and q.ndim == 3:
        b, t, d = q.shape
        rows = [x.reshape((b * t, d)) for x in (q, k, v)]
        return attention(*rows, n_heads, ((0, b * t, b, t),)).reshape((b, t, d))
    spans = tuple(spans or ())
    starts = [0] + [hi for _, hi, _, _ in spans]
    if (q.ndim != 2 or k.shape != q.shape or v.shape != q.shape or q.shape[1] % n_heads
            or starts[-1] != q.shape[0] or not spans
            or any(lo != start or hi - lo != b * t or min(b, t) < 1
                   for (lo, hi, b, t), start in zip(spans, starts))):
        raise ShapeError(f"attention needs equal [rows, d] q, k and v with d divisible by {n_heads} heads "
                         f"and spans (lo, hi, b, t) tiling the rows, got {q.shape}, {k.shape} and "
                         f"{v.shape} with spans {spans}")
    hd = q.shape[1] // n_heads
    saved = []
    out = _attention_fwd(q.array, k.array, v.array, n_heads, spans, saved)
    scale = 1.0 / np.sqrt(hd)

    def back(g):
        grads = tuple(np.empty(g.shape) for _ in range(3))
        for (lo, hi, b, t), p in zip(spans, saved):
            qh, kt, vh = _split_heads(q.array[lo:hi], k.array[lo:hi], v.array[lo:hi], n_heads, b, t)
            gh = g[lo:hi].reshape((b, t, n_heads, hd)).transpose((0, 2, 1, 3))
            gp, gv = _matmul_grads(p, vh, gh)
            gq, gk = _matmul_grads(qh, kt, _softmax_grad(p, gp) * scale)
            for grad, x, axes in zip(grads, (gq, gk, gv), ((0, 2, 1, 3), (0, 3, 1, 2), (0, 2, 1, 3))):
                np.copyto(grad[lo:hi].reshape((b, t, n_heads, hd)), x.transpose(axes))
        return grads

    return _result("attention", out, (q, k, v), back)


def _sigmoid_fwd(x: np.ndarray) -> np.ndarray:
    # e = exp(-|x|) never overflows; min(x, -x) is -|x| that keeps a NaN's sign
    e = np.exp(np.minimum(x, -x))
    out = np.where(x >= 0, 1.0 / (1.0 + e), e / (1.0 + e))
    # float64 saturates to exactly 0/1 beyond |x| ~ 37; keep the bound strict
    np.clip(out, _SIG_LO, _SIG_HI, out=out)
    return out


def sigmoid(a: Tensor) -> Tensor:
    """Elementwise logistic function, clipped to the open interval (0, 1)."""
    out = _sigmoid_fwd(a.array)

    def back(g):
        return (g * out * (1.0 - out),)

    return _result("sigmoid", out, (a,), back)


def log(a: Tensor) -> Tensor:
    """Elementwise natural log; caller guarantees positive input."""
    x = a.array
    out = np.log(x)

    def back(g):
        return (g / x,)

    return _result("log", out, (a,), back)


def clamp_min(a: Tensor, lo: float) -> Tensor:
    """max(x, lo); gradient passes only where x > lo."""
    x = a.array
    out = np.maximum(x, lo)
    mask = x > lo

    def back(g):
        return (g * mask,)

    return _result("clamp_min", out, (a,), back)


_GELU_C = math.sqrt(2.0 / math.pi)
_GELU_A = 0.044715


def _gelu_fwd(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """GELU of ``x`` and the tanh its backward reuses.

    0.5 x (1 + tanh(c (x + a x^3))), with the cube as ``x * x * x``. The
    arithmetic runs in place, the same products and sums as the
    out-of-place expression, so it gives the same bits from three fresh
    arrays instead of nine.
    """
    u = x * x
    u *= x
    u *= _GELU_A
    u += x
    u *= _GELU_C
    t = np.tanh(u)
    out = 0.5 * x
    out *= np.add(t, 1.0, out=u)
    return out, t


def _gelu_grad(x: np.ndarray, t: np.ndarray) -> np.ndarray:
    """The derivative of GELU at ``x``, given the tanh that its forward computed.

    0.5 (1 + t) + 0.5 x (1 - t^2) du with du = c (1 + 3a x^2), in place:
    the same products and sums in the same order as the out-of-place
    expression, from three fresh arrays.
    """
    du = x * x
    du *= 3.0 * _GELU_A
    du += 1.0
    du *= _GELU_C
    s = t * t
    np.subtract(1.0, s, out=s)
    d = 0.5 * x
    d *= s
    d *= du
    half = np.add(t, 1.0, out=s)
    half *= 0.5
    d += half
    return d


def gelu(a: Tensor) -> Tensor:
    """GELU in the tanh approximation.

    The cube is computed as ``x * x * x``: ``x**3`` goes through numpy's
    generic ``pow`` loop, which is tens of times slower.
    """
    x = a.array
    out, t = _gelu_fwd(x)

    def back(g):
        gx = _gelu_grad(x, t)
        gx *= g
        return (gx,)

    return _result("gelu", out, (a,), back)


def linear_gelu(x: Tensor, w: Tensor, b: Tensor) -> Tensor:
    """``gelu(linear(x, w, b))`` as one node, with its bits and gradients.

    The forward also computes GELU's derivative, as :func:`gelu`'s
    backward does, and the tape keeps only that: neither the projection
    nor the tanh. The backward multiplies the output gradient by it into
    one fresh array, then runs :func:`linear`'s rule.
    """
    _check_linear("linear_gelu", x, w, b)
    xa, wa = x.array, w.array
    y = _linear_fwd(xa, wa, b.array)
    out, t = _gelu_fwd(y)
    d = _gelu_grad(y, t)
    return _result("linear_gelu", out, (x, w, b), lambda g: _linear_grads(xa, wa, g * d))


LN_EPS = 1e-5  # every layer norm's variance epsilon, fixed for reproducibility


def _layer_norm_fwd(x, gain, bias) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Layer norm of ``x`` plus the normalized input and the inverse
    deviation, which its backward reuses.

    Each mean is an add-reduce and a divide by the last-axis size, which
    is what ``ndarray.mean`` computes, bit for bit, minus its Python
    wrapper; ``xc * xc`` is the same square as ``xc**2``. The scale and
    shift run in place, the same bits as ``gain * xhat + bias``.
    """
    d = x.shape[-1]
    xc = x - np.add.reduce(x, axis=-1, keepdims=True) / d
    var = np.add.reduce(xc * xc, axis=-1, keepdims=True) / d
    inv = 1.0 / np.sqrt(var + LN_EPS)
    xhat = xc
    xhat *= inv
    out = gain * xhat
    out += bias
    return out, xhat, inv


def _layer_norm_grads(g: np.ndarray, gain: np.ndarray, xhat: np.ndarray,
                      inv: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The gradients of a layer norm w.r.t. its input, gain and bias, given
    the output gradient ``g`` and the forward's ``xhat`` and ``inv``.

    inv (gx_hat - gmean - xhat gdot) with gx_hat = g gain, in place: the
    same products and sums in the same order as the out-of-place formula.
    """
    d = g.shape[-1]
    gx = g * gain
    gmean = np.add.reduce(gx, axis=-1, keepdims=True) / d
    tmp = gx * xhat
    gdot = np.add.reduce(tmp, axis=-1, keepdims=True) / d
    gx -= gmean
    gx -= np.multiply(xhat, gdot, out=tmp)
    gx *= inv
    ggain = np.multiply(g, xhat, out=tmp).reshape(-1, d).sum(axis=0)
    gbias = g.reshape(-1, d).sum(axis=0)
    return gx, ggain, gbias


def layer_norm(a: Tensor, gain: Tensor, bias: Tensor, *, residual: Tensor | None = None) -> Tensor:
    """Normalize over the last axis, then scale and shift.

    ``gain`` and ``bias`` have the last-axis shape; variance is the biased
    estimator, and its epsilon is :data:`LN_EPS`. With a
    ``residual`` of ``a``'s shape, the input is the sum ``residual + a``,
    and the node gives the bits of an ``add`` node followed by a
    ``layer_norm`` node, with their gradients: its backward hands both
    addends the input gradient, as ``add``'s does. The sum is a temporary
    that the tape does not keep.
    """
    d = a.shape[-1]
    if gain.shape != (d,) or bias.shape != (d,):
        raise ShapeError(
            f"layer_norm: gain {gain.shape} / bias {bias.shape} must be ({d},) for input {a.shape}"
        )
    if residual is not None and residual.shape != a.shape:
        raise ShapeError(f"layer_norm: residual {residual.shape} must have the input's shape {a.shape}")
    x = a.array if residual is None else residual.array + a.array
    out, xhat, inv = _layer_norm_fwd(x, gain.array, bias.array)

    def back(g):
        gx, ggain, gbias = _layer_norm_grads(g, gain.array, xhat, inv)
        return (gx, ggain, gbias) if residual is None else (gx, gx, ggain, gbias)

    # the addends lead, in the order of the sum, as the add node's parents
    # would: backward() then visits the graph in the chain's order
    parents = (a, gain, bias) if residual is None else (residual, a, gain, bias)
    return _result("layer_norm", out, parents, back)


def linear_layer_norm(x: Tensor, w: Tensor, b: Tensor, gain: Tensor, bias: Tensor, *,
                      residual: Tensor) -> Tensor:
    """``layer_norm(linear(x, w, b), gain, bias, residual=residual)`` as one
    node, with its bits and gradients.

    The projection gets the residual added in place, the bits of
    ``residual + projection``, and is then normalized; the tape keeps only
    the layer norm's ``xhat`` and ``inv``, neither the projection nor the
    sum. The backward runs :func:`layer_norm`'s rule, hands the residual
    its input gradient, and runs :func:`linear`'s rule on the same one.
    """
    _check_linear("linear_layer_norm", x, w, b)
    d = w.shape[1]
    if gain.shape != (d,) or bias.shape != (d,) or residual.shape != x.shape[:-1] + (d,):
        raise ShapeError(f"linear_layer_norm: gain {gain.shape}, bias {bias.shape} and residual "
                         f"{residual.shape} must fit the projection {x.shape} @ {w.shape}")
    xa, wa = x.array, w.array
    y = _linear_fwd(xa, wa, b.array)
    y += residual.array
    out, xhat, inv = _layer_norm_fwd(y, gain.array, bias.array)

    def back(g):
        gy, ggain, gbias = _layer_norm_grads(g, gain.array, xhat, inv)
        return (gy, *_linear_grads(xa, wa, gy), ggain, gbias)

    # the residual leads and the projection's parents follow, as the add
    # node's addends and then the linear node's parents would: backward()
    # then visits the graph in the chain's order
    return _result("linear_layer_norm", out, (residual, x, w, b, gain, bias), back)


def _embedding_fwd(table: np.ndarray, ids) -> np.ndarray:
    return table[np.asarray(ids, dtype=np.int64)]


def embedding_lookup(table: Tensor, ids) -> Tensor:
    """Gather rows of ``table`` by integer ids; grads accumulate per row."""
    idx = np.asarray(ids, dtype=np.int64)
    if table.ndim != 2:
        raise ShapeError(f"embedding_lookup table must be 2-D, got {table.shape}")
    out = _embedding_fwd(table.array, idx)
    rows, dim = table.shape

    def back(g):
        gt = np.zeros((rows, dim))
        np.add.at(gt, idx.reshape(-1), g.reshape(-1, dim))
        return (gt,)

    return _result("embedding", out, (table,), back)


# -- untaped inference ---------------------------------------------------


def _linear_gelu_fwd(x: np.ndarray, w: np.ndarray, b: np.ndarray,
                     spans: Sequence[tuple[int, int, int, int]] | None = None) -> np.ndarray:
    """:func:`linear_gelu`'s value: the projection (see :func:`_linear_fwd`), then GELU."""
    return _gelu_fwd(_linear_fwd(x, w, b, spans))[0]


def _linear_layer_norm_fwd(x: np.ndarray, w: np.ndarray, b: np.ndarray, gain: np.ndarray,
                           bias: np.ndarray, *, residual: np.ndarray,
                           spans: Sequence[tuple[int, int, int, int]] | None = None) -> np.ndarray:
    """:func:`linear_layer_norm`'s value: the projection (see :func:`_linear_fwd`),
    overwritten by the residual sum ``residual + projection``, then the layer norm."""
    y = _linear_fwd(x, w, b, spans)
    return _layer_norm_fwd(np.add(residual, y, out=y), gain, bias)[0]


arrays = SimpleNamespace(
    linear=_linear_fwd,
    linear_gelu=_linear_gelu_fwd,
    linear_layer_norm=_linear_layer_norm_fwd,
    attention=_attention_fwd,
    softmax=_softmax_fwd,
    sigmoid=_sigmoid_fwd,
    layer_norm=lambda x, gain, bias: _layer_norm_fwd(x, gain, bias)[0],
    embedding_lookup=_embedding_fwd,
)
"""The forward kernels on plain float64 ndarrays, under the taped ops' names.

Code written against ``ops.linear``, ``ops.attention`` ... runs taped with
``ops = tensor`` on :class:`Tensor` inputs and untaped with ``ops = arrays``
on ndarrays, where each call is the kernel itself, called directly: no
Tensor, no tape node, no backward closure, no shape check and no wrapper
frame (``layer_norm`` alone adds one, which drops what only the backward
reads). The fused ``linear_gelu`` and ``linear_layer_norm`` run the
kernels of their taped twins in the same order and give their bits. The
projections (``linear`` and the two fused ones) take one argument the
taped ops do not, ``spans``: with it, each gemm runs span by span, so
that every row of a mixed-length state keeps its batch-1 bits. Operators
(``+``, ``*``) and ``reshape`` are the types' own. The names are kept
apart from the taped ops', so a wrapper around a taped op only ever sees
Tensors.
"""


# -- reverse pass --------------------------------------------------------


def backward(loss: Tensor, wrt: Iterable[Tensor] | None = None) -> dict[Tensor, np.ndarray]:
    """Backpropagate from a scalar loss; returns gradients for leaf tensors.

    The map covers every ``requires_grad`` leaf reachable from ``loss``.
    Pass ``wrt`` to also get explicit zero gradients for parameters the
    loss does not depend on.
    """
    if loss.shape != ():
        raise ValueError(f"backward needs a scalar loss, got shape {loss.shape}")

    order: list[Tensor] = []
    seen: set[int] = set()
    stack: list[tuple[Tensor, bool]] = [(loss, False)]
    while stack:
        t, processed = stack.pop()
        if processed:
            order.append(t)
            continue
        if id(t) in seen or t.node is None:
            continue
        seen.add(id(t))
        stack.append((t, True))
        for p in t.node.parents:
            stack.append((p, False))

    grads: dict[int, np.ndarray] = {id(loss): np.ones(())}
    leaves: dict[Tensor, np.ndarray] = {}
    for t in reversed(order):
        g = grads.pop(id(t), None)
        if g is None:
            continue
        for parent, pg in zip(t.node.parents, t.node.backward(g)):
            if pg is None or not parent.requires_grad:
                continue
            if parent.node is None:
                if parent in leaves:
                    leaves[parent] = leaves[parent] + pg
                else:
                    leaves[parent] = np.asarray(pg, dtype=np.float64).reshape(parent.shape)
            else:
                if id(parent) in grads:
                    grads[id(parent)] = grads[id(parent)] + pg
                else:
                    grads[id(parent)] = np.asarray(pg, dtype=np.float64)

    if loss.node is None and loss.requires_grad:
        leaves[loss] = np.ones(())

    if wrt is not None:
        for p in wrt:
            if p not in leaves:
                leaves[p] = np.zeros(p.shape)
    return leaves
