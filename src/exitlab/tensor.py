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
    "softmax",
    "sigmoid",
    "log",
    "clamp_min",
    "gelu",
    "layer_norm",
    "embedding_lookup",
    "transpose",
    "select",
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

    def transpose(self, axes: Sequence[int] | None = None) -> "Tensor":
        return transpose(self, axes)

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


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """Matrix product with optional leading batch dims on either operand.

    Supported: 2D @ 2D, ND @ 2D (shared right matrix), and ND @ ND with
    identical leading dims. The backward of ND @ 2D runs as one 2-D gemm
    per gradient over the leading dims flattened into rows. The forward
    stays ``np.matmul``: at the model's shapes its per-batch gemms are as
    fast as one flattened gemm or faster.
    """
    if a.ndim < 2 or b.ndim < 2:
        raise ShapeError(f"matmul needs >=2-D operands, got {a.shape} and {b.shape}")
    if a.shape[-1] != b.shape[-2]:
        raise ShapeError(f"matmul inner dims disagree: {a.shape} @ {b.shape}")
    if a.ndim > 2 and b.ndim > 2 and a.shape[:-2] != b.shape[:-2]:
        raise ShapeError(f"matmul batch dims disagree: {a.shape} @ {b.shape}")
    out = np.matmul(a.array, b.array)
    aa, ba = a.array, b.array

    if b.ndim == 2:

        def back(g):
            a2 = aa.reshape(-1, aa.shape[-1])
            g2 = g.reshape(-1, ba.shape[-1])
            return (g2 @ ba.T).reshape(aa.shape), a2.T @ g2

    else:

        def back(g):
            ga = np.matmul(g, np.swapaxes(ba, -1, -2))
            gb = np.matmul(np.swapaxes(aa, -1, -2), g)
            ga = ga.sum(axis=tuple(range(ga.ndim - aa.ndim)))
            gb = gb.sum(axis=tuple(range(gb.ndim - ba.ndim)))
            return ga, gb

    return _result("matmul", out, (a, b), back)


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
    return np.ascontiguousarray(np.transpose(x, axes))


def transpose(a: Tensor, axes: Sequence[int] | None = None) -> Tensor:
    """Permute axes; the default swaps the last two."""
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


def _select_fwd(x: np.ndarray, axis: int, index: int) -> np.ndarray:
    return np.take(x, index, axis=axis)


def select(a: Tensor, axis: int, index: int) -> Tensor:
    """Pick a single index along ``axis``, dropping that axis."""
    out = _select_fwd(a.array, axis, index)
    in_shape = a.shape

    def back(g):
        full = np.zeros(in_shape)
        slicer = (slice(None),) * (axis % len(in_shape)) + (index,)
        full[slicer] = g
        return (full,)

    return _result("select", out, (a,), back)


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
    shifted = x - x.max(axis=axis, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=axis, keepdims=True)


def softmax(a: Tensor, axis: int = -1) -> Tensor:
    """Stable softmax along ``axis``: positive entries summing to 1."""
    out = _softmax_fwd(a.array, axis)

    def back(g):
        dot = (g * out).sum(axis=axis, keepdims=True)
        return (out * (g - dot),)

    return _result("softmax", out, (a,), back)


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
    """GELU of ``x`` and the tanh its backward reuses."""
    u = _GELU_C * (x + _GELU_A * (x * x * x))
    t = np.tanh(u)
    return 0.5 * x * (1.0 + t), t


def gelu(a: Tensor) -> Tensor:
    """GELU in the tanh approximation.

    The cube is computed as ``x * x * x``: ``x**3`` goes through numpy's
    generic ``pow`` loop, which is tens of times slower.
    """
    x = a.array
    out, t = _gelu_fwd(x)

    def back(g):
        du = _GELU_C * (1.0 + 3.0 * _GELU_A * x**2)
        return (g * (0.5 * (1.0 + t) + 0.5 * x * (1.0 - t**2) * du),)

    return _result("gelu", out, (a,), back)


def _layer_norm_fwd(x, gain, bias, eps=1e-5) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Layer norm of ``x`` plus the normalized input and the inverse
    deviation, which its backward reuses.

    Each mean is an add-reduce and a divide by the last-axis size, which
    is what ``ndarray.mean`` computes, bit for bit, minus its Python
    wrapper; ``xc * xc`` is the same square as ``xc**2``.
    """
    d = x.shape[-1]
    xc = x - np.add.reduce(x, axis=-1, keepdims=True) / d
    var = np.add.reduce(xc * xc, axis=-1, keepdims=True) / d
    inv = 1.0 / np.sqrt(var + eps)
    xhat = xc * inv
    return gain * xhat + bias, xhat, inv


def layer_norm(a: Tensor, gain: Tensor, bias: Tensor, eps: float = 1e-5) -> Tensor:
    """Normalize over the last axis, then scale and shift.

    ``gain`` and ``bias`` have the last-axis shape; variance is the biased
    estimator, eps is fixed at 1e-5 for reproducibility.
    """
    d = a.shape[-1]
    if gain.shape != (d,) or bias.shape != (d,):
        raise ShapeError(
            f"layer_norm: gain {gain.shape} / bias {bias.shape} must be ({d},) for input {a.shape}"
        )
    out, xhat, inv = _layer_norm_fwd(a.array, gain.array, bias.array, eps)

    def back(g):
        gx_hat = g * gain.array
        gmean = np.add.reduce(gx_hat, axis=-1, keepdims=True) / d
        gdot = np.add.reduce(gx_hat * xhat, axis=-1, keepdims=True) / d
        gx = inv * (gx_hat - gmean - xhat * gdot)
        ggain = (g * xhat).reshape(-1, d).sum(axis=0)
        gbias = g.reshape(-1, d).sum(axis=0)
        return gx, ggain, gbias

    return _result("layer_norm", out, (a, gain, bias), back)


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

arrays = SimpleNamespace(
    matmul=np.matmul,
    transpose=_transpose_fwd,
    select=_select_fwd,
    softmax=_softmax_fwd,
    sigmoid=_sigmoid_fwd,
    gelu=lambda x: _gelu_fwd(x)[0],
    layer_norm=lambda x, gain, bias, eps=1e-5: _layer_norm_fwd(x, gain, bias, eps)[0],
    embedding_lookup=_embedding_fwd,
)
"""The forward kernels on plain float64 ndarrays, under the taped ops' names.

Code written against ``ops.matmul``, ``ops.softmax`` ... runs taped with
``ops = tensor`` on :class:`Tensor` inputs and untaped with ``ops = arrays``
on ndarrays, where each call is the kernel alone: no Tensor, no tape node,
no backward closure and no shape check. Operators (``+``, ``*``) and
``reshape`` are the types' own. The names are kept apart from the taped
ops', so a wrapper around a taped op only ever sees Tensors.
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
