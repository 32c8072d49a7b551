"""Minimal reverse-mode automatic differentiation over numpy arrays.

The op set is deliberately closed, and holds what the model records:
``linear(x, w, b)`` (matmul is the tests' reference for it), add and subtract,
Hadamard product (scaling is a product with a Python scalar), concat,
multi-head attention, GELU, mean/sum, permute, reshape (positional dims), sqrt
and layer norm. A tensor is always the left operand: powers, negation,
division and reflected operators (``2 * t``) are not defined. A constant right
operand of ``+``, ``-`` or ``*`` records no parent and takes no gradient work.
``linear``, ``layer_norm`` and ``attention`` have hand-written backwards,
checked against finite differences by acceptance 4; the last two repeat the
arithmetic of their former ``Tensor``-op compositions, so training rounds as
those did. The attention's softmax takes a short row's max column by column
(``_row_max``). ``linear``, ``layer_norm``, ``attention`` and ``gelu`` each
run one forward in both modes; recording decides only ``linear``'s GEMM rows
(without a graph, a sequence's frames and joints flatten into one 2-D GEMM)
and ``layer_norm``'s variance sums. Under ``no_grad`` all four write into
dead buffers from the thread's arena (``_buffer``), kept until the thread's
outermost ``no_grad`` block exits (a ``denoiser.hypothesis_pool`` worker never
leaves its block). Every gradient in the package reduces to the rules below.
Anything outside the set raises NotImplementedError at graph time.

Gradients accumulate into ``.grad`` (a plain ndarray) on leaf tensors with
``requires_grad=True``. Broadcasting follows numpy semantics; the backward
pass sums gradients over broadcast axes.
"""

from __future__ import annotations

import math
import sys
import threading

import numpy as np
from scipy.special import erf

__all__ = ["Tensor", "no_grad", "concat", "attention", "gelu", "layer_norm", "linear"]

# grad mode is thread-local: concurrent inference threads each disable graph
# construction for themselves without touching the training thread. A depth
# counter (not save/restore) keeps balanced enter/exit pairs safe even when
# contexts overlap rather than nest.
_state = threading.local()


def _grad_enabled() -> bool:
    return getattr(_state, "no_grad_depth", 0) == 0


def _recording(*tensors) -> bool:
    """Whether an op on ``tensors`` records a graph node."""
    if _grad_enabled():
        for t in tensors:
            if t.requires_grad:
                return True
    return False


class no_grad:
    """Context manager that skips graph construction (inference mode)."""

    def __enter__(self):
        _state.no_grad_depth = getattr(_state, "no_grad_depth", 0) + 1

    def __exit__(self, *exc):
        _state.no_grad_depth -= 1
        if _state.no_grad_depth == 0:
            vars(_state).pop("arena", None)


def _refcounts(pool: list) -> list:
    """``sys.getrefcount`` of each buffer in ``pool``: the arena's liveness test."""
    return [sys.getrefcount(buf) for buf in pool]


# What _refcounts reads for a buffer that only its list holds. Measured, since
# interpreters count temporaries differently (CPython 3.14 borrows the loop
# variable's reference); None, and no arena, where nothing is counted (PyPy).
_DEAD = _refcounts([np.empty(1)])[0] if hasattr(sys, "getrefcount") else None


def _buffer(shape, dtype) -> np.ndarray:
    """An uninitialized array; under no_grad, a dead one from the thread's arena.

    The arena keys flat buffers by (size, dtype); one is dead when the arena
    holds its only reference (a view, ``Tensor`` or attention sink keeps it alive).
    """
    if _grad_enabled() or _DEAD is None:
        return np.empty(shape, dtype)
    pool = vars(_state).setdefault("arena", {}).setdefault((math.prod(shape), np.dtype(dtype)), [])
    for buf, refs in zip(pool, _refcounts(pool)):
        if refs == _DEAD:
            return buf.reshape(shape)
    pool.append(np.empty(math.prod(shape), dtype))
    return pool[-1].reshape(shape)


def _unbroadcast(grad: np.ndarray, shape: tuple) -> np.ndarray:
    """Sum `grad` down to `shape`, undoing numpy broadcasting."""
    if grad.shape == shape:
        return grad
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, s in enumerate(shape) if s == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad


class Tensor:
    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward")

    def __init__(self, data, requires_grad: bool = False):
        self.data = np.asarray(data)
        self.grad = None
        self.requires_grad = requires_grad
        self._parents = ()
        self._backward = None

    # -- graph plumbing -----------------------------------------------------

    @staticmethod
    def _make(data, parents, backward):
        out = Tensor(data)
        if _recording(*parents):
            out.requires_grad = True
            out._parents = tuple(parents)
            out._backward = backward
        return out

    def _accumulate(self, grad: np.ndarray):
        if self.grad is None:
            self.grad = np.zeros_like(self.data, dtype=grad.dtype)
        self.grad += grad

    def backward(self, grad=None):
        """Reverse-mode sweep from this tensor (defaults to d(self)/d(self)=1)."""
        if grad is None:
            grad = np.ones_like(self.data)
        # Iterative topological order; graphs get deep enough that recursion
        # would hit the interpreter limit.
        topo, visited, stack = [], set(), [(self, False)]
        while stack:
            node, expanded = stack.pop()
            if expanded:
                topo.append(node)
                continue
            if node in visited:
                continue
            visited.add(node)
            stack.append((node, True))
            for p in node._parents:
                if p.requires_grad and p not in visited:
                    stack.append((p, False))

        # keyed by the node itself: Tensor defines no __eq__, so it hashes by identity
        grads = {self: np.asarray(grad)}
        for node in reversed(topo):
            g = grads.pop(node)  # sent by its children, all earlier in this order
            if node._backward is None:
                node._accumulate(g)
                continue
            for parent, pg in zip(node._parents, node._backward(g)):
                if parent.requires_grad:
                    prev = grads.get(parent)
                    grads[parent] = pg if prev is None else prev + pg

    # -- shape helpers ------------------------------------------------------

    @property
    def shape(self):
        return self.data.shape

    @property
    def ndim(self):
        return self.data.ndim

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, requires_grad={self.requires_grad})"

    # -- elementwise ops ----------------------------------------------------

    def _operand(self, other):
        """``other`` as (Tensor, array), or a constant (no parent) as (None, array)."""
        if isinstance(other, Tensor):
            return other, other.data
        if isinstance(other, (int, float)):
            # keep python scalars at self's dtype; a float64 0-d array would
            # silently promote float32 graphs
            return None, np.asarray(other, dtype=self.data.dtype)
        return None, np.asarray(other)

    def __add__(self, other):
        a, (b, bd) = self, self._operand(other)

        def backward(g):
            ga = _unbroadcast(g, a.shape)
            return (ga,) if b is None else (ga, _unbroadcast(g, b.shape))

        return Tensor._make(a.data + bd, (a,) if b is None else (a, b), backward)

    def __sub__(self, other):
        a, (b, bd) = self, self._operand(other)

        def backward(g):
            ga = _unbroadcast(g, a.shape)
            return (ga,) if b is None else (ga, _unbroadcast(-g, b.shape))

        return Tensor._make(a.data - bd, (a,) if b is None else (a, b), backward)

    def __mul__(self, other):
        """Hadamard product (broadcasting)."""
        a, (b, bd) = self, self._operand(other)

        def backward(g):
            ga = _unbroadcast(g * bd, a.shape)
            return (ga,) if b is None else (ga, _unbroadcast(g * a.data, b.shape))

        return Tensor._make(a.data * bd, (a,) if b is None else (a, b), backward)

    def sqrt(self):
        a = self
        out = np.sqrt(a.data)
        return Tensor._make(out, (a,), lambda g: (g * 0.5 / out,))

    # -- reductions ---------------------------------------------------------

    def sum(self, axis=None, keepdims: bool = False):
        a = self
        out = a.data.sum(axis=axis, keepdims=keepdims)

        def backward(g):
            g = np.asarray(g)
            if axis is not None and not keepdims:
                g = np.expand_dims(g, axis)
            return (np.broadcast_to(g, a.shape).copy(),)

        return Tensor._make(out, (a,), backward)

    def mean(self, axis=None, keepdims: bool = False):
        total = self.sum(axis=axis, keepdims=keepdims)
        return total * (total.data.size / self.data.size)

    # -- structural ops -----------------------------------------------------

    def reshape(self, *shape):
        a = self
        return Tensor._make(
            a.data.reshape(shape), (a,), lambda g: (g.reshape(a.shape),)
        )

    def permute(self, *axes):
        a = self
        inv = np.argsort(axes)
        return Tensor._make(
            a.data.transpose(axes), (a,), lambda g: (g.transpose(inv),)
        )

    # -- matmul ---------------------------------------------------------------

    def __matmul__(self, other):
        a, b = self, _as_tensor(other)
        if a.ndim < 2 or b.ndim < 2:
            raise NotImplementedError("matmul operands must have ndim >= 2")

        def backward(g):
            ga = g @ np.swapaxes(b.data, -1, -2)
            gb = np.swapaxes(a.data, -1, -2) @ g
            return _unbroadcast(ga, a.shape), _unbroadcast(gb, b.shape)

        return Tensor._make(a.data @ b.data, (a, b), backward)


# -- functional ops ----------------------------------------------------------


def _as_tensor(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(np.asarray(x))


def concat(tensors, axis: int = 0) -> Tensor:
    tensors = [_as_tensor(t) for t in tensors]
    sizes = [t.data.shape[axis] for t in tensors]
    splits = np.cumsum(sizes)[:-1]

    def backward(g):
        return tuple(np.split(g, splits, axis=axis))

    return Tensor._make(
        np.concatenate([t.data for t in tensors], axis=axis), tensors, backward
    )


# Longest row whose max is taken column by column. numpy's reduce pays about
# 100 ns per row: (10, 17, 4, 16, 16) tiny temporal scores took 1.3 ms against
# 0.13 ms by columns, but (1, 8, 4131, 77) paper cross scores 3.7 against 8.0 ms.
_SHORT_ROW = 32


def _row_max(a: np.ndarray) -> np.ndarray:
    """``a.max(axis=-1, keepdims=True)``, bit for bit; rows up to ``_SHORT_ROW`` go by columns.

    A zero max of a row mixing +0 and -0 may take the other sign (numpy's
    reduce picks it by SIMD lane); a softmax subtracting it rounds the same.
    """
    if not 0 < a.shape[-1] <= _SHORT_ROW:
        return a.max(axis=-1, keepdims=True)
    top = a[..., :1].copy()
    for c in range(1, a.shape[-1]):
        np.maximum(top, a[..., c : c + 1], out=top)
    return top


def _head_split(a: np.ndarray, heads: int) -> np.ndarray:
    """(..., S, D) as an (..., heads, S, D / heads) view."""
    return a.reshape(*a.shape[:-1], heads, a.shape[-1] // heads).swapaxes(-3, -2)


def attention(q: Tensor, k: Tensor, v: Tensor, heads: int, scale: float, sink=None):
    """Multi-head ``softmax(q kᵀ * scale) v`` over the second-to-last axis of ``(..., S, D)``.

    Heads split the last axis as views; k's and v's leading axes broadcast
    against q's. The scores fill one ``_buffer``, then scale and softmax in
    place (``_row_max``); the output fills a ``_buffer`` of q's shape through
    its head split, and ``sink``, if given, receives the ``(..., heads, S, S)``
    probabilities. While recording: one node, parents ``(q, k, v)``, keeping
    the probabilities; its backward runs the ufuncs of the ``Tensor``-op
    composition (split, ``q @ kᵀ``, ``* scale``, softmax, ``@ v``, merge) in
    order, so training rounds as that composition did.
    """
    q4, k4, v4 = (_head_split(t.data, heads) for t in (q, k, v))
    kt = np.swapaxes(k4, -1, -2)
    shape = np.broadcast_shapes(q4.shape[:-2], kt.shape[:-2]) + (q4.shape[-2], kt.shape[-1])
    a = np.matmul(q4, kt, out=_buffer(shape, np.result_type(q4, kt)))
    factor = np.asarray(scale, a.dtype)  # the composition's constant operand
    a *= factor
    a -= _row_max(a)
    np.exp(a, out=a)
    a /= a.sum(axis=-1, keepdims=True)
    out = _buffer(q.shape[:-1] + v.shape[-1:], np.result_type(a, v4))
    np.matmul(a, v4, out=_head_split(out, heads))
    if sink is not None:
        sink.append(a)

    def backward(g):
        go = _head_split(g, heads)
        ga = _unbroadcast(go @ np.swapaxes(v4, -1, -2), a.shape)
        gv = _unbroadcast(np.swapaxes(a, -1, -2) @ go, v4.shape)
        gs = a * (ga - (ga * a).sum(axis=-1, keepdims=True)) * factor
        gq = _unbroadcast(gs @ np.swapaxes(kt, -1, -2), q4.shape)
        gk = np.swapaxes(_unbroadcast(np.swapaxes(q4, -1, -2) @ gs, kt.shape), -1, -2)
        return tuple(g4.swapaxes(-3, -2).reshape(t.shape) for g4, t in zip((gq, gk, gv), (q, k, v)))

    return Tensor._make(out, (q, k, v), backward)


# python floats: numpy scalar constants would promote float32 arrays to float64
_INV_SQRT2 = 1.0 / math.sqrt(2.0)
_INV_SQRT2PI = 1.0 / math.sqrt(2.0 * math.pi)


def gelu(x: Tensor) -> Tensor:
    """Exact Gaussian-error GELU: x * Phi(x), Phi and the product each in a ``_buffer``."""
    x = _as_tensor(x)
    cdf = np.multiply(x.data, _INV_SQRT2, out=_buffer(x.shape, x.data.dtype))
    erf(cdf, out=cdf)
    cdf += 1.0
    cdf *= 0.5
    out = np.multiply(x.data, cdf, out=_buffer(x.shape, x.data.dtype))

    def backward(g):
        pdf = np.exp(-0.5 * x.data * x.data) * _INV_SQRT2PI
        return (g * (cdf + x.data * pdf),)

    return Tensor._make(out, (x,), backward)


def layer_norm(x: Tensor, scale: Tensor, offset: Tensor, eps: float = 1e-5) -> Tensor:
    """Normalize over the last axis, then apply learnable scale and offset.

    One forward in both modes: the ufuncs of the ``Tensor``-op composition ``xc =
    x - x.mean(-1)``, ``xc * ((xc * xc).mean(-1) + eps) ** -0.5 * scale + offset``
    in order at x's dtype, centring into one ``_buffer`` and scaling it in place;
    only the variance's row sums are an ``einsum`` when nothing is recorded. The
    node, parents ``(x, x, scale, offset)``, keeps row statistics: its backward
    recomputes ``xc`` and ``xc * r`` from x, which must not change until then;
    x takes the subtract path's gradient, then the mean path's.
    """
    x, scale, offset = _as_tensor(x), _as_tensor(scale), _as_tensor(offset)
    inv_n = np.asarray(1.0 / x.shape[-1], x.data.dtype)  # Tensor.mean's constant
    s1 = x.data.sum(axis=-1, keepdims=True)
    mu = s1 * inv_n
    out = np.subtract(x.data, mu, out=_buffer(x.shape, x.data.dtype))
    s2 = ((out * out).sum(axis=-1, keepdims=True) if _recording(x, scale, offset)
          else np.einsum("...i,...i->...", out, out)[..., None])
    var = s2 * inv_n
    ve = var + np.asarray(eps, x.data.dtype)
    r = ve**-0.5
    out *= r
    out *= scale.data
    out += offset.data

    # The row statistics live as long as the graph, as the composed nodes kept
    # them: with MALLOC_MMAP_THRESHOLD_ set, glibc trims the heap a step frees
    # and the next step re-faults it; these small blocks pin it (a tiny step:
    # 160-1,200 page faults with them, 1,400-4,400 and up to 20,000 without).
    def backward(g, rows=(s1, mu, s2, var)):
        xc = x.data - mu
        y1 = xc * r
        gy1 = _unbroadcast(g * scale.data, y1.shape)
        gxc = _unbroadcast(gy1 * r, xc.shape)
        gve = _unbroadcast(gy1 * xc, r.shape) * -0.5 * ve**-1.5
        twin = np.broadcast_to(gve * inv_n, xc.shape) * xc  # (xc * xc)'s gradient, once per factor
        gxc += twin
        gxc += twin
        gmean = np.broadcast_to(_unbroadcast(-gxc, r.shape) * inv_n, x.shape)
        return gxc, gmean, _unbroadcast(g * y1, scale.shape), _unbroadcast(g, offset.shape)

    return Tensor._make(out, (x, x, scale, offset), backward)


def linear(x: Tensor, weight: Tensor, bias: Tensor) -> Tensor:
    """x @ weight + bias over the last axis of x, as one graph node.

    One GEMM into a ``_buffer``, then the bias added in place; only its rows
    depend on the mode. With no graph to record (inference), the last two
    leading axes of x (a sequence's frames and joints) are flattened into rows:
    a (N, J, D) input costs one (N*J, D) @ (D, O) GEMM, so the weight is packed
    once rather than N times. Axes before them are a batch: an (H, N, J, D)
    stack costs H of those GEMMs, each rounding as it does alone (one GEMM over
    all H*N*J rows may take another BLAS kernel, which rounds differently).

    While recording, the rows are x itself: forward and backward keep
    per-leading-index products (and sum an (N, D, O) weight-gradient stack),
    so training rounds exactly as ``x @ weight + bias`` does: acceptance 11's
    400-step ranking of the full model against w/o-Prompt is decided by that
    rounding (ROADMAP item 1).
    """
    x, weight, bias = _as_tensor(x), _as_tensor(weight), _as_tensor(bias)
    if weight.ndim != 2:
        raise NotImplementedError("linear weight must be 2-D")
    rows = x.data if _recording(x, weight, bias) else x.data.reshape(
        *x.shape[:-3], -1, x.shape[-1])
    out = np.matmul(rows, weight.data, out=_buffer(
        rows.shape[:-1] + weight.shape[-1:], np.result_type(rows, weight.data)))
    out += bias.data

    def backward(g):
        gx = _unbroadcast(g @ weight.data.T, x.shape)
        gw = _unbroadcast(np.swapaxes(x.data, -1, -2) @ g, weight.shape)
        return gx, gw, _unbroadcast(g, bias.shape)

    return Tensor._make(out.reshape(*x.shape[:-1], -1), (x, weight, bias), backward)
