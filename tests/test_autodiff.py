import contextlib
import math
import sys
import threading

import numpy as np
import pytest
from scipy.special import erf

from posediff import autodiff
from posediff.autodiff import Tensor, _buffer, _row_max, attention, concat, gelu, layer_norm, linear, no_grad


def numeric_grad(fn, x, step=1e-6):
    """Central finite differences of scalar fn w.r.t. ndarray x."""
    g = np.zeros_like(x)
    flat = x.reshape(-1)
    gf = g.reshape(-1)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + step
        hi = fn()
        flat[i] = orig - step
        lo = fn()
        flat[i] = orig
        gf[i] = (hi - lo) / (2 * step)
    return g


def check_op(build, *shapes, seed=0):
    """Compare backward() of scalar build(*tensors) against finite differences."""
    rng = np.random.default_rng(seed)
    arrays = [rng.standard_normal(s) for s in shapes]
    tensors = [Tensor(a, requires_grad=True) for a in arrays]
    out = build(*tensors)
    out.backward()
    for arr, t in zip(arrays, tensors):
        num = numeric_grad(lambda: build(*[Tensor(a) for a in arrays]).data, arr)
        np.testing.assert_allclose(t.grad, num, rtol=1e-6, atol=1e-8)


def square_sum(t):
    """The sum of squares of ``t``'s entries, a loss that reaches every entry."""
    return (t * t).sum()


def test_add_broadcast_grad():
    check_op(lambda a, b: ((a + b) * (a + b)).sum(), (3, 4), (4,))


def test_sub_and_neg_grad():
    check_op(lambda a, b: ((a - b) * a).sum(), (2, 3), (2, 3))


def test_mul_broadcast_grad():
    check_op(lambda a, b: (a * b).sum(), (2, 3, 4), (3, 4))


def test_matmul_grad():
    check_op(lambda a, b: (a @ b).sum(), (3, 4), (4, 5))


def test_matmul_batched_grad():
    check_op(lambda a, b: (a @ b).sum(), (2, 3, 4), (2, 4, 5))


def test_matmul_broadcast_weight_grad():
    # (B, S, D) @ (D, D'): weight gradient must sum over the batch axis.
    check_op(lambda a, w: (a @ w).sum(), (2, 3, 4), (4, 6))


def test_mean_axis_grad():
    check_op(lambda a: (a.mean(axis=-1, keepdims=True) * a).sum(), (3, 5))


def test_sum_axis_tuple_grad():
    check_op(lambda a: square_sum(a.sum(axis=(0, 2))), (2, 3, 4))


def test_reshape_permute_grad():
    check_op(lambda a: (a.reshape(3, 8).permute(1, 0) @ a.reshape(3, 8)).sum(), (3, 2, 4))


def test_concat_grad():
    check_op(lambda a, b: square_sum(concat([a, b], axis=1)), (2, 3), (2, 4))


def test_sqrt_grad():
    def build(a):
        return ((a * a).mean() + 1.0).sqrt()

    check_op(build, (4,))


def softmax(x):
    """Softmax over the last axis as one node: the op ``attention`` absorbed,
    kept as a piece of ``composed_attention``."""
    y = x.data - _row_max(x.data)
    np.exp(y, out=y)
    y /= y.sum(axis=-1, keepdims=True)

    def backward(g):
        dot = (g * y).sum(axis=-1, keepdims=True)
        return (y * (g - dot),)

    return Tensor._make(y, (x,), backward)


def test_softmax_grad():
    check_op(lambda a: (softmax(a) * softmax(a)).sum(), (3, 5))


def test_softmax_rows_sum_to_one():
    x = Tensor(np.random.default_rng(1).standard_normal((4, 7)))
    y = softmax(x).data
    np.testing.assert_allclose(y.sum(axis=-1), np.ones(4), atol=1e-12)


def test_softmax_matches_hand_jacobian_on_3vector():
    # For y = softmax(x), dL/dx = J^T g with J = diag(y) - y y^T.
    x = np.array([0.3, -1.2, 2.0])
    g = np.array([1.0, -0.5, 0.25])
    xt = Tensor(x, requires_grad=True)
    y = softmax(xt)
    y.backward(g)
    yv = y.data
    jac = np.diag(yv) - np.outer(yv, yv)
    np.testing.assert_allclose(xt.grad, jac.T @ g, atol=1e-12)


def test_gelu_grad():
    check_op(lambda a: gelu(a).sum(), (10,))


def test_gelu_values():
    # x * Phi(x): Phi(0) = 0.5, and large |x| saturates to x or 0.
    x = Tensor(np.array([0.0, 10.0, -10.0]))
    np.testing.assert_allclose(gelu(x).data, [0.0, 10.0, 0.0], atol=1e-8)


def assert_bitwise(got, want):
    assert got.dtype == want.dtype and got.shape == want.shape
    np.testing.assert_array_equal(got.view(f"u{got.itemsize}"), want.view(f"u{want.itemsize}"))


def softmax_reference(a):
    e = np.exp(a - a.max(axis=-1, keepdims=True))
    return e / e.sum(axis=-1, keepdims=True)


# row lengths on both sides of ``_row_max``'s column-wise limit
ROW_LENGTHS = (1, 16, 17, 32, 33, 77, 243)


def special_rows(rng, dtype, n):
    """(6, 4, n) rows: finite, then holding NaN, +inf (in the last column),
    -inf, all -inf, and +0 mixed with -0 (the rest negative)."""
    rows = (3 * rng.standard_normal((6, 4, n))).astype(dtype)
    rows[1, :, n // 2] = np.nan
    rows[2, :, -1] = np.inf
    rows[3, :, :: 2] = -np.inf
    rows[4] = -np.inf
    zeros = rng.choice(np.array([0.0, -0.0], dtype), (4, n))
    rows[5] = np.where(rng.random((4, n)) < 0.5, zeros, -np.abs(rows[5]))
    return rows


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_softmax_and_gelu_match_reference_formulas_bitwise(dtype):
    # the ops work in place on their temporaries; results must not move
    rng = np.random.default_rng(4)
    a = (3 * rng.standard_normal((2, 5, 7))).astype(dtype)
    assert_bitwise(softmax(Tensor(a)).data, softmax_reference(a))
    for n in ROW_LENGTHS:
        rows = special_rows(rng, dtype, n)
        with np.errstate(invalid="ignore"):
            assert_bitwise(_row_max(rows)[:5], rows[:5].max(axis=-1, keepdims=True))
            # numpy's reduce picks a zero max's sign by SIMD lane: equal in value
            np.testing.assert_array_equal(_row_max(rows[5]), rows[5].max(axis=-1, keepdims=True))
            assert_bitwise(softmax(Tensor(rows)).data, softmax_reference(rows))
    cdf = 0.5 * (1.0 + erf(a * (1.0 / math.sqrt(2.0))))
    for recording in (False, True):  # one forward, with or without a node
        out = gelu(Tensor(a, requires_grad=recording))
        assert out.requires_grad == recording and out.data.dtype == dtype
        np.testing.assert_array_equal(out.data, a * cdf)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_layer_norm_without_graph_matches_composition(dtype):
    rng = np.random.default_rng(7)
    x, scale, offset = (rng.standard_normal(s).astype(dtype) for s in ((4, 5, 16), 16, 16))
    recorded = layer_norm(*(Tensor(v, requires_grad=True) for v in (x, scale, offset)))
    assert recorded.requires_grad
    with no_grad():
        out = layer_norm(Tensor(x), Tensor(scale), Tensor(offset)).data
    assert out.dtype == dtype
    np.testing.assert_allclose(out, recorded.data, rtol=1e-5, atol=1e-6)


def test_layer_norm_grad():
    check_op(
        lambda x, g, b: square_sum(layer_norm(x, g, b)), (2, 3, 6), (6,), (6,)
    )


def test_layer_norm_normalizes():
    rng = np.random.default_rng(3)
    x = Tensor(rng.standard_normal((5, 16)) * 3 + 2)
    ones, zeros = Tensor(np.ones(16)), Tensor(np.zeros(16))
    y = layer_norm(x, ones, zeros).data
    np.testing.assert_allclose(y.mean(axis=-1), 0, atol=1e-10)
    np.testing.assert_allclose(y.var(axis=-1), 1, atol=1e-4)


def scalar_power(t, p):
    """``t ** p`` for a Python scalar p, recorded as one node."""
    return Tensor._make(t.data**p, (t,), lambda g: (g * p * t.data ** (p - 1),))


def composed_layer_norm(x, scale, offset, eps=1e-5):
    """Layer norm composed from ``Tensor`` ops; ``layer_norm``'s node must round exactly like it."""
    xc = x - x.mean(axis=-1, keepdims=True)
    var = (xc * xc).mean(axis=-1, keepdims=True)
    return xc * scalar_power(var + eps, -0.5) * scale + offset


@pytest.mark.parametrize("shape, axes", [
    ((7, 24), (0, 1)),  # the cross-attention's (S, D)
    ((3, 5, 24), (0, 1, 2)),
    ((3, 5, 24), (1, 0, 2)),  # a permuted view, as the temporal blocks pass it
], ids=["2d", "3d", "3d_permuted"])
@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_layer_norm_node_rounds_like_the_composition(dtype, shape, axes):
    # the normalized h is an interior node with a second consumer (a residual),
    # as in the denoiser's pre-norm blocks: its gradient sums the residual's,
    # the subtract path's and the mean path's contributions in that order
    rng = np.random.default_rng(8)
    arrays = [(3 * rng.standard_normal(s) + 1).astype(dtype) for s in (shape, shape[-1:], shape[-1:])]
    g = rng.standard_normal([shape[a] for a in axes]).astype(dtype)
    results = []
    for norm in (layer_norm, composed_layer_norm):
        x, scale, offset = (Tensor(a, requires_grad=True) for a in arrays)
        h = (x * 2.0).permute(*axes)
        out = norm(h, scale, offset, 1e-5)
        if norm is layer_norm:
            assert len(out._parents) == 4
            assert all(p is q for p, q in zip(out._parents, (h, h, scale, offset)))
        y = h + out
        y.backward(g)
        results.append([y.data, x.grad, scale.grad, offset.grad])
    for got, want in zip(*results):
        assert_bitwise(got, want)


def composed_attention(q, k, v, heads, scale, sink=None):
    """Attention over the second-to-last axis, composed from ``Tensor`` ops and
    ``softmax``; ``attention``'s node must round exactly like it."""

    def split(t):  # (..., S, D) -> (..., heads, S, D / heads)
        t = t.reshape(*t.shape[:-1], heads, t.shape[-1] // heads)
        *lead, seq, head, width = range(t.ndim)
        return t.permute(*lead, head, seq, width)

    q4, k4, v4 = split(q), split(k), split(v)
    *lead, rows, cols = range(k4.ndim)
    attn = softmax(q4 @ k4.permute(*lead, cols, rows) * scale)
    if sink is not None:
        sink.append(attn.data)
    *lead, head, seq, width = range(q4.ndim)
    return (attn @ v4).permute(*lead, seq, head, width).reshape(*q.shape)


# (x shape, context shape or None, permute x's first two axes as the temporal blocks do)
ATTENTION_CASES = {
    "spatial": ((4, 5, 24), None, False),
    "temporal": ((4, 5, 24), None, True),
    "cross": ((2, 6, 24), (77, 24), False),  # k and v broadcast over q's leading axis
}


def _attention_inputs(case, dtype, seed=9):
    rng = np.random.default_rng(seed)
    x_shape, c_shape, _ = ATTENTION_CASES[case]
    d = x_shape[-1]
    arrays = {"x": rng.standard_normal(x_shape)}
    if c_shape:
        arrays["c"] = rng.standard_normal(c_shape)
    for n in "qkv":
        arrays[f"w{n}"] = rng.standard_normal((d, d)) / math.sqrt(d)
        arrays[f"b{n}"] = 0.1 * rng.standard_normal(d)
    return {name: (3 * a if name in ("x", "c") else a).astype(dtype) for name, a in arrays.items()}


def _record_attention(attend, case, arrays, g):
    """Run ``attend`` in a residual block of ``case`` and backpropagate ``g``: the
    output, the gradients by name, the probabilities and (node, q, k, v)."""
    t = {name: Tensor(a, requires_grad=True) for name, a in arrays.items()}
    permuted = ATTENTION_CASES[case][2]
    h = t["x"] * 2.0
    h = h.permute(1, 0, 2) if permuted else h
    kv = t["c"] if "c" in t else h
    q, k, v = (linear(src, t[f"w{n}"], t[f"b{n}"]) for src, n in ((h, "q"), (kv, "k"), (kv, "v")))
    sink = []
    out = attend(q, k, v, 3, 1.0 / math.sqrt(8), sink)  # head_dim 8: an inexact scale
    y = h + out
    y = y.permute(1, 0, 2) if permuted else y
    y.backward(g)
    return y.data, {name: u.grad for name, u in t.items()}, sink[0], (out, q, k, v)


@pytest.mark.parametrize("case", list(ATTENTION_CASES))
@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_attention_node_rounds_like_the_composition(dtype, case):
    # h feeds q, k and v (and a residual): its gradient sums their
    # contributions in the composition's traversal order
    arrays = _attention_inputs(case, dtype)
    g = np.random.default_rng(10).standard_normal(ATTENTION_CASES[case][0]).astype(dtype)
    y, grads, probs, (out, q, k, v) = _record_attention(attention, case, arrays, g)
    assert len(out._parents) == 3 and all(p is u for p, u in zip(out._parents, (q, k, v)))
    want_y, want_grads, want_probs, _ = _record_attention(composed_attention, case, arrays, g)
    assert_bitwise(y, want_y)
    assert_bitwise(probs, want_probs)
    assert grads.keys() == want_grads.keys()
    for name, grad in grads.items():
        assert_bitwise(grad, want_grads[name])


@pytest.mark.parametrize("case", list(ATTENTION_CASES))
def test_attention_without_graph_equals_recorded(case):
    # one forward: no graph changes no bit of the output or the probabilities
    arrays = _attention_inputs(case, np.float32)
    t = {name: Tensor(a, requires_grad=True) for name, a in arrays.items()}
    kv = t.get("c", t["x"])
    qkv = [linear(src, t[f"w{n}"], t[f"b{n}"]) for src, n in ((t["x"], "q"), (kv, "k"), (kv, "v"))]
    sinks = [], []
    recorded = attention(*qkv, 3, 1.0 / math.sqrt(8), sinks[0])
    with no_grad():
        inferred = attention(*qkv, 3, 1.0 / math.sqrt(8), sinks[1])
    assert recorded.requires_grad and not inferred.requires_grad
    assert_bitwise(inferred.data, recorded.data)
    assert_bitwise(sinks[1][0], sinks[0][0])


@pytest.mark.parametrize("permuted, shapes", [
    (False, ((2, 3, 4),) * 3),
    (True, ((3, 2, 4),) * 3),  # (J, N, D) views, as the temporal blocks pass them
    (False, ((2, 3, 4), (5, 4), (5, 4))),  # cross-attention: k and v broadcast
], ids=["spatial", "temporal", "cross"])
def test_attention_grad(permuted, shapes):
    def loss(q, k, v):
        if permuted:
            q, k, v = (t.permute(1, 0, 2) for t in (q, k, v))
        return square_sum(attention(q, k, v, 2, 1.0 / math.sqrt(2)))

    check_op(loss, *shapes)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_attention_probabilities_match_reference_softmax_bitwise(dtype):
    # one head, so the head split is q's and k's own memory
    rng = np.random.default_rng(11)
    for n in ROW_LENGTHS:
        q, k, v = ((3 * rng.standard_normal((s, 8))).astype(dtype) for s in (5, n, n))
        sink = []
        out = attention(Tensor(q), Tensor(k), Tensor(v), 1, 0.3, sink)
        probs = softmax_reference((q[None] @ k.T[None]) * np.asarray(0.3, dtype))
        assert_bitwise(sink[0], probs)
        np.testing.assert_allclose(sink[0].sum(axis=-1), 1.0, rtol=1e-6)
        assert_bitwise(out.data, (probs @ v[None])[0])
        # scores set exactly, special values included: one query per row with
        # q = 1, head_dim 1 and scale 1, so each row's scores are its k
        rows = special_rows(rng, dtype, n)
        k = rows[..., None]
        sink = []
        with np.errstate(invalid="ignore"):
            attention(Tensor(np.ones((6, 4, 1, 1), dtype)), Tensor(k), Tensor(k), 1, 1.0, sink)
            assert_bitwise(sink[0][..., 0, 0, :], softmax_reference(rows))


def test_linear_grad():
    check_op(lambda x, w, b: square_sum(linear(x, w, b)), (2, 3, 4), (4, 5), (5,))


def test_linear_grad_permuted_input():
    # a (3, 2, 4) view of (2, 3, 4) memory, as the temporal blocks pass it
    check_op(lambda x, w, b: square_sum(linear(x.permute(1, 0, 2), w, b)),
             (2, 3, 4), (4, 5), (5,))


def _linear_inputs(x_shape, seed=0):
    rng = np.random.default_rng(seed)
    x = Tensor(rng.standard_normal(x_shape), requires_grad=True)
    w = Tensor(rng.standard_normal((x_shape[-1], 5)), requires_grad=True)
    b = Tensor(rng.standard_normal(5), requires_grad=True)
    return x, w, b


@pytest.mark.parametrize("recording", [True, False])
@pytest.mark.parametrize("case", ["2d", "3d", "permuted_3d"])
def test_linear_matches_matmul_plus_bias(case, recording):
    x, w, b = _linear_inputs((6, 4) if case == "2d" else (2, 3, 4))
    xin = x.permute(1, 0, 2) if case == "permuted_3d" else x
    ref = xin.data @ w.data + b.data
    with contextlib.nullcontext() if recording else no_grad():
        out = linear(xin, w, b)
    assert out.shape == ref.shape
    assert out.requires_grad == recording
    if recording:
        # training keeps the composition's rounding exactly
        np.testing.assert_array_equal(out.data, ref)
    else:
        np.testing.assert_allclose(out.data, ref, rtol=1e-12, atol=1e-12)


@pytest.mark.parametrize("with_bias", [True])
def test_linear_is_one_graph_node(with_bias):
    x, w, b = _linear_inputs((2, 3, 4))
    out = linear(x, w, b)
    parents = (x, w, b)
    assert len(out._parents) == len(parents)
    assert all(p is q for p, q in zip(out._parents, parents))
    out.sum().backward()
    assert w.grad.shape == w.shape
    assert x.grad.shape == x.shape
    assert b.grad.shape == b.shape


def test_grad_of_sum_is_ones():
    p = Tensor(np.random.default_rng(0).standard_normal((3, 4)), requires_grad=True)
    p.sum().backward()
    np.testing.assert_array_equal(p.grad, np.ones((3, 4)))


def test_diamond_graph_accumulates():
    # z = a*a + a*a: gradient is 4a, exercising multi-consumer accumulation.
    a = Tensor(np.array([1.0, 2.0]), requires_grad=True)
    z = a * a + a * a
    z.sum().backward()
    np.testing.assert_allclose(a.grad, 4 * a.data)


def test_gradient_contributions_accumulate_in_traversal_order():
    # x feeds three products, and its gradient sums their contributions as
    # (m1 + m2) + m3. In float32 these round to another value in any order
    # that adds m3 first, so a reordered traversal fails here.
    c1, c2, c3 = np.float32(1.0), np.float32(3 * 2.0**-25), np.float32(2.0**-24)
    today = (c1 + c2) + c3
    assert today != (c1 + c3) + c2 and today != (c2 + c3) + c1
    x = Tensor(np.ones(3, np.float32), requires_grad=True)
    (x * c1 + x * c2 + x * c3).sum().backward()
    assert_bitwise(x.grad, np.full(3, today))


_ARITH = {"add": lambda a, b: a + b, "sub": lambda a, b: a - b, "mul": lambda a, b: a * b}


@pytest.mark.parametrize("upstream", [None, np.float64])
@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("op, shape, const", [
    ("mul", (3, 4), 2.0),
    ("mul", (3, 4), 0.1),  # not exact in float32: a float64 upstream must see the float32 value
    ("add", (3, 4), 1.0),
    ("sub", (3, 4), (4,)),  # t broadcasts the constant
    ("sub", (4,), (2, 3, 4)),  # the constant broadcasts t
])
def test_constant_operand_records_no_parent(op, shape, const, dtype, upstream):
    rng = np.random.default_rng(6)
    x = rng.standard_normal(shape).astype(dtype)
    c = rng.standard_normal(const).astype(dtype) if isinstance(const, tuple) else const
    # the constant as a Tensor operand, which records it as a second parent
    wrapped = Tensor(np.asarray(c, dtype=dtype) if isinstance(c, float) else c)
    t, ref = Tensor(x, requires_grad=True), Tensor(x, requires_grad=True)
    out, two = _ARITH[op](t, c), _ARITH[op](ref, wrapped)
    assert len(out._parents) == 1 and out._parents[0] is t
    assert len(two._parents) == 2
    assert_bitwise(out.data, two.data)
    g = rng.standard_normal(out.shape).astype(upstream or dtype)
    out.backward(g)
    two.backward(g)
    assert_bitwise(t.grad, ref.grad)


def test_no_grad_skips_graph():
    a = Tensor(np.ones(3), requires_grad=True)
    with no_grad():
        out = a * 2.0
    assert not out.requires_grad
    out2 = a * 2.0
    assert out2.requires_grad


def test_no_grad_is_thread_local():
    # Overlapping contexts on worker threads must not disable grad globally.
    import threading

    start = threading.Barrier(2)

    def worker():
        start.wait()
        with no_grad():
            for _ in range(100):
                Tensor(np.ones(2)) * 2.0

    threads = [threading.Thread(target=worker) for _ in range(2)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    a = Tensor(np.ones(2), requires_grad=True)
    assert (a * 2.0).requires_grad


def test_no_grad_interleaved_contexts_restore():
    a, b = no_grad(), no_grad()
    a.__enter__()
    b.__enter__()
    a.__exit__()
    b.__exit__()
    leaf = Tensor(np.ones(1), requires_grad=True)
    assert (leaf * 1.0).requires_grad


def test_frozen_leaf_gets_no_grad():
    a = Tensor(np.ones(3), requires_grad=True)
    frozen = Tensor(np.ones(3))
    (a * frozen).sum().backward()
    assert frozen.grad is None
    assert a.grad is not None


def test_unsupported_ops_raise():
    a = Tensor(np.ones(3))
    with pytest.raises(TypeError):
        a / a
    with pytest.raises(TypeError):
        a ** 2


def test_deep_chain_does_not_recurse():
    x = Tensor(np.ones(2), requires_grad=True)
    y = x
    for _ in range(5000):
        y = y + 1.0
    y.sum().backward()
    np.testing.assert_array_equal(x.grad, np.ones(2))


# -- the no-grad buffer arena --------------------------------------------------


def address(a):
    return a.__array_interface__["data"][0]


@pytest.mark.parametrize("hold", [
    lambda a: a,
    lambda a: a.reshape(6, 4),
    lambda a: a.T,
    lambda a: Tensor(a),
], ids=["direct", "reshape", "transpose", "tensor"])
def test_live_buffer_is_not_handed_out_again(hold):
    with no_grad():
        kept = hold(_buffer((4, 6), np.float64))
        data = kept.data if isinstance(kept, Tensor) else kept
        data[...] = 1.0
        for shape in [(4, 6), (24,), (2, 3, 4)]:
            other = _buffer(shape, np.float64)
            assert not np.shares_memory(other, data)
            other[...] = 2.0
        np.testing.assert_array_equal(data, 1.0)


def test_dead_buffer_is_handed_out_at_its_size_and_dtype():
    with no_grad():
        first = _buffer((4, 6), np.float64)
        second = _buffer((4, 6), np.float64)
        assert not np.shares_memory(first, second)
        addr = address(first)
        del first
        again = _buffer((6, 4), np.float64)  # same size, other shape
        assert address(again) == addr
        del again
        other = _buffer((4, 6), np.float32)
        assert address(other) != addr
        assert other.dtype == np.float32 and other.shape == (4, 6)


@pytest.mark.parametrize("shift", [-1, 1])
def test_arena_follows_the_measured_dead_count(monkeypatch, shift):
    # an interpreter that counts one temporary fewer (a borrowed local) or one
    # more reads every count shifted; the calibration at import shifts with it
    counts = autodiff._refcounts
    monkeypatch.setattr(autodiff, "_refcounts", lambda pool: [c + shift for c in counts(pool)])
    monkeypatch.setattr(autodiff, "_DEAD", autodiff._refcounts([np.empty(1)])[0])
    with no_grad():
        kept = _buffer((8,), np.float64)
        dead = _buffer((8,), np.float64)
        addr = address(dead)
        del dead
        again = _buffer((8,), np.float64)
        assert address(again) == addr
        assert not np.shares_memory(again, kept)


def test_no_reference_counts_means_no_arena(monkeypatch):
    monkeypatch.setattr(autodiff, "_DEAD", None)  # as where sys.getrefcount is missing
    with no_grad():
        a = _buffer((4, 6), np.float64)
        b = _buffer((4, 6), np.float64)
        assert not np.shares_memory(a, b)
        assert getattr(autodiff._state, "arena", None) is None


def test_grad_mode_buffer_is_fresh_and_builds_no_arena():
    a = _buffer((4, 6), np.float64)
    b = _buffer((4, 6), np.float64)
    assert not np.shares_memory(a, b)
    assert getattr(autodiff._state, "arena", None) is None


def test_arena_lives_until_the_outermost_no_grad_exits():
    with no_grad():
        with no_grad():
            kept = _buffer((8,), np.float64)
            dead = _buffer((8,), np.float64)
            addr = address(dead)
            del dead
        assert getattr(autodiff._state, "arena", None) is not None
        again = _buffer((8,), np.float64)
        assert address(again) == addr
        assert not np.shares_memory(again, kept)
    assert getattr(autodiff._state, "arena", None) is None
    fresh = _buffer((8,), np.float64)  # grad mode again: no arena is rebuilt
    assert not np.shares_memory(fresh, kept)
    assert getattr(autodiff._state, "arena", None) is None


def test_threads_never_share_a_buffer():
    # more threads than cores, switching often: each fills every buffer it
    # holds with its own marks, then checks them once all have filled theirs
    n = 4
    filled = threading.Barrier(n, timeout=30)
    held, errors = {}, []

    def worker(tid):
        try:
            with no_grad():
                bufs = [_buffer((16,), np.float64) for _ in range(3)]
                for i, b in enumerate(bufs):
                    b[...] = 10 * tid + i
                filled.wait()
                for i, b in enumerate(bufs):
                    np.testing.assert_array_equal(b, 10 * tid + i)
                held[tid] = [address(b) for b in bufs]
                filled.wait()  # every thread's buffers are still held here
        except Exception as exc:  # surfaced on the main thread
            errors.append(exc)

    threads = [threading.Thread(target=worker, args=(tid,)) for tid in range(n)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert not errors
    assert len({a for addrs in held.values() for a in addrs}) == 3 * n
