"""Tensor op semantics and gradient checks against central finite differences."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from exitlab import tensor as T


def fd_gradient(fn, params, eps=1e-4):
    """Independent oracle: central finite differences of fn() w.r.t. each param.

    ``fn`` must recompute the scalar loss from the params' current values.
    """
    grads = []
    for p in params:
        flat = p.array.reshape(-1)
        g = np.zeros_like(flat)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + eps
            f_plus = fn().item()
            flat[i] = orig - eps
            f_minus = fn().item()
            flat[i] = orig
            g[i] = (f_plus - f_minus) / (2 * eps)
        grads.append(g.reshape(p.shape))
    return grads


def assert_gradcheck(fn, params, rel_tol=1e-3, abs_guard=1e-7):
    loss = fn()
    analytic = T.backward(loss, wrt=params)
    numeric = fd_gradient(fn, params)
    for p, fd in zip(params, numeric):
        got = analytic[p]
        denom = np.maximum(np.maximum(np.abs(got), np.abs(fd)), abs_guard)
        rel = np.abs(got - fd) / denom
        assert rel.max() < rel_tol, f"gradient mismatch: rel err {rel.max():.2e}"


def randt(rng, *shape, scale=1.0):
    return T.Tensor(rng.normal(0.0, scale, size=shape), requires_grad=True)


class TestMatmul:
    def test_identity(self):
        x = np.arange(6.0).reshape(2, 3)
        out = T.matmul(T.Tensor(np.eye(2)), T.Tensor(x))
        np.testing.assert_array_equal(out.array, x)

    def test_analytic_1x2_2x1(self):
        out = T.matmul(T.Tensor([[1.0, 2.0]]), T.Tensor([[3.0], [4.0]]))
        assert out.array.tolist() == [[11.0]]

    def test_matches_triple_loop_oracle(self):
        rng = np.random.default_rng(0)
        a = rng.normal(size=(3, 4))
        b = rng.normal(size=(4, 2))
        expected = np.zeros((3, 2))
        for i in range(3):
            for j in range(2):
                for k in range(4):
                    expected[i, j] += a[i, k] * b[k, j]
        out = T.matmul(T.Tensor(a), T.Tensor(b))
        np.testing.assert_allclose(out.array, expected, atol=1e-12)

    def test_shape_mismatch_names_both_shapes(self):
        with pytest.raises(T.ShapeError, match=r"\(2, 3\).*\(2, 2\)"):
            T.matmul(T.Tensor(np.zeros((2, 3))), T.Tensor(np.zeros((2, 2))))

    def test_batched_against_loop(self):
        rng = np.random.default_rng(1)
        a = rng.normal(size=(5, 3, 4))
        b = rng.normal(size=(4, 2))
        out = T.matmul(T.Tensor(a), T.Tensor(b))
        for i in range(5):
            np.testing.assert_allclose(out.array[i], a[i] @ b, atol=1e-12)

    @pytest.mark.parametrize("a_shape, n", [
        ((32, 14, 64), 256),  # FFN up-projection of a training batch
        ((32, 14, 256), 64),  # FFN down-projection
        ((1, 24, 64), 64),  # batch-1 Q/K/V/O projection
        ((2, 4, 14, 64), 64),  # 4-D left operand
        # single rows and one output column: here one flattened gemm would
        # round differently from np.matmul's per-batch products
        ((4, 1, 16), 16),
        ((7, 13, 64), 1),
    ])
    def test_nd_by_2d_forward_is_np_matmul_bit_for_bit(self, a_shape, n):
        rng = np.random.default_rng(5)
        a = rng.normal(size=a_shape)
        b = rng.normal(size=(a_shape[-1], n))
        np.testing.assert_array_equal(T.matmul(T.Tensor(a), T.Tensor(b)).array, np.matmul(a, b))

    @pytest.mark.parametrize("a_shape", [(5, 3, 4), (2, 3, 5, 4)])
    def test_nd_by_2d_gradients_match_batched_reference(self, a_shape):
        rng = np.random.default_rng(7)
        a = T.Tensor(rng.normal(size=a_shape), requires_grad=True)
        b = T.Tensor(rng.normal(size=(4, 6)), requires_grad=True)
        g = rng.normal(size=a_shape[:-1] + (6,))
        grads = T.backward((T.matmul(a, b) * T.Tensor(g)).sum())
        lead = tuple(range(len(a_shape) - 2))
        ga = np.matmul(g, b.array.T)
        gb = np.matmul(np.swapaxes(a.array, -1, -2), g).sum(axis=lead)
        np.testing.assert_allclose(grads[a], ga, rtol=1e-12, atol=1e-12)
        np.testing.assert_allclose(grads[b], gb, rtol=1e-12, atol=1e-12)


class TestGelu:
    def test_matches_tanh_formula_with_np_power(self):
        x = np.random.default_rng(8).normal(scale=3.0, size=(32, 14, 64))
        c = np.sqrt(2.0 / np.pi)
        expected = 0.5 * x * (1.0 + np.tanh(c * (x + 0.044715 * np.power(x, 3))))
        # the cube may differ by one ulp; in the negative tail 1 + tanh cancels,
        # so the bound is absolute there, at the scale of one ulp of 1
        np.testing.assert_allclose(T.gelu(T.Tensor(x)).array, expected, rtol=1e-15, atol=1e-15)


class TestSoftmax:
    def test_symmetry(self):
        out = T.softmax(T.Tensor([0.0, 0.0]))
        np.testing.assert_allclose(out.array, [0.5, 0.5])

    def test_large_logit_is_stable(self):
        out = T.softmax(T.Tensor([1000.0, 0.0]))
        assert np.isfinite(out.array).all()
        np.testing.assert_allclose(out.array, [1.0, 0.0], atol=1e-300)

    def test_matches_exp_sum_oracle(self):
        x = np.array([1.0, 2.0, 3.0])
        expected = np.exp(x) / np.exp(x).sum()
        out = T.softmax(T.Tensor(x))
        np.testing.assert_allclose(out.array, expected, atol=1e-12)

    def test_sums_to_one_on_random_input(self):
        rng = np.random.default_rng(2)
        x = rng.normal(size=(4, 7), scale=3.0)
        out = T.softmax(T.Tensor(x), axis=-1)
        np.testing.assert_allclose(out.array.sum(axis=-1), 1.0, atol=1e-9)
        assert (out.array > 0).all()


class TestSigmoid:
    def test_zero_is_half(self):
        assert T.sigmoid(T.Tensor(0.0)).item() == 0.5

    def test_large_negative_no_overflow(self):
        out = T.sigmoid(T.Tensor([-1e4, -50.0]))
        assert np.isfinite(out.array).all()
        assert (out.array > 0).all()

    def test_scalar_value(self):
        assert T.sigmoid(T.Tensor(1.0)).item() == pytest.approx(0.7310585786, abs=1e-9)

    def test_strictly_inside_unit_interval(self):
        x = np.array([-1e6, -40.0, 0.0, 40.0, 1e6])
        out = T.sigmoid(T.Tensor(x)).array
        assert (out > 0.0).all() and (out < 1.0).all()


class TestBackward:
    def test_sum_of_matmul_has_outer_product_structure(self):
        rng = np.random.default_rng(3)
        w = randt(rng, 3, 4)
        x = T.Tensor(rng.normal(size=(4, 2)))
        grads = T.backward(T.matmul(w, x).sum())
        # d/dW sum(W x) = ones(3,2) x^T
        np.testing.assert_allclose(grads[w], np.ones((3, 2)) @ x.array.T, atol=1e-12)

    def test_gradient_of_constant_is_zero(self):
        rng = np.random.default_rng(4)
        w = randt(rng, 2, 2)
        unused = randt(rng, 3)
        grads = T.backward((w * w).sum(), wrt=[w, unused])
        np.testing.assert_array_equal(grads[unused], np.zeros(3))

    def test_non_scalar_loss_rejected(self):
        w = T.Tensor(np.ones(3), requires_grad=True)
        with pytest.raises(ValueError, match="scalar"):
            T.backward(w * 2.0)

    def test_accumulates_over_reuse(self):
        w = T.Tensor(np.array([2.0]), requires_grad=True)
        loss = (w * 3.0 + w * w).sum()
        grads = T.backward(loss)
        np.testing.assert_allclose(grads[w], [3.0 + 2.0 * 2.0])


class TestGradchecks:
    """Every differentiable op against the finite-difference oracle."""

    def setup_method(self):
        self.rng = np.random.default_rng(42)

    def test_add_same_shape(self):
        a, b = randt(self.rng, 3, 4), randt(self.rng, 3, 4)
        assert_gradcheck(lambda: ((a + b) * (a + b)).mean(), [a, b])

    def test_add_trailing_broadcast(self):
        a, b = randt(self.rng, 2, 3, 4), randt(self.rng, 4)
        assert_gradcheck(lambda: ((a + b) * (a + b)).sum(), [a, b])

    def test_sub_and_scalar_ops(self):
        a, b = randt(self.rng, 3, 3), randt(self.rng, 3)
        assert_gradcheck(lambda: ((a - b) * 0.7 + 1.5).mean(), [a, b])

    def test_mul_trailing_broadcast(self):
        a, b = randt(self.rng, 2, 5), randt(self.rng, 5)
        assert_gradcheck(lambda: (a * b).sum(), [a, b])

    def test_matmul_2d(self):
        a, b = randt(self.rng, 3, 4), randt(self.rng, 4, 2)
        assert_gradcheck(lambda: T.matmul(a, b).sum(), [a, b])

    def test_matmul_batched_3d_2d(self):
        a, b = randt(self.rng, 2, 3, 4), randt(self.rng, 4, 3)
        assert_gradcheck(lambda: (T.matmul(a, b) * T.matmul(a, b)).mean(), [a, b])

    def test_matmul_batched_4d_2d(self):
        a, b = randt(self.rng, 2, 2, 3, 4), randt(self.rng, 4, 3)
        assert_gradcheck(lambda: (T.matmul(a, b) * T.matmul(a, b)).mean(), [a, b])

    def test_matmul_4d_4d(self):
        a, b = randt(self.rng, 2, 2, 3, 4), randt(self.rng, 2, 2, 4, 3)
        assert_gradcheck(lambda: T.matmul(a, b).sum(), [a, b])

    def test_linear_nd_by_2d(self):
        x, w, b = randt(self.rng, 2, 3, 4), randt(self.rng, 4, 5), randt(self.rng, 5)
        assert_gradcheck(lambda: (T.linear(x, w, b) * T.linear(x, w, b)).mean(), [x, w, b])

    @pytest.mark.parametrize("grouped", [False, True])
    def test_attention(self, grouped):
        # two samples of 3 tokens, or two of 1 token, one of 8 and two of 3
        spans = ((0, 2, 2, 1), (2, 10, 1, 8), (10, 16, 2, 3)) if grouped else ((0, 6, 2, 3),)
        q, k, v = (randt(self.rng, spans[-1][1], 4) for _ in range(3))
        w = T.Tensor(self.rng.normal(size=(spans[-1][1], 4)))
        assert_gradcheck(lambda: (T.attention(q, k, v, 2, spans) * w).sum(), [q, k, v])

    def test_transpose_default_and_permutation(self):
        a = randt(self.rng, 2, 3, 4)
        assert_gradcheck(lambda: (T.transpose(a) * T.transpose(a)).sum(), [a])
        assert_gradcheck(lambda: (T.transpose(a, (2, 0, 1)) * 2.0).sum(), [a])

    def test_reshape(self):
        a = randt(self.rng, 2, 6)
        assert_gradcheck(lambda: (a.reshape((3, 4)) * a.reshape((3, 4))).sum(), [a])

    def test_first_row_gather(self):
        """Two heads over each sample's first-token row, gathered once in batch
        order from a [rows, d] state of length groups, as training runs them."""
        h, w, b, wc, bc = (randt(self.rng, *shape) for shape in ((10, 4), (4, 3), (3,), (4, 1), (1,)))
        first_rows = np.array([8, 0, 2, 5])
        g, gc = T.Tensor(self.rng.normal(size=(4, 3))), T.Tensor(self.rng.normal(size=(4, 1)))

        def loss():
            first = T.embedding_lookup(h, first_rows)
            return (T.linear(first, w, b) * g).sum() + (T.linear(first, wc, bc) * gc).sum()

        assert_gradcheck(loss, [h, w, b, wc, bc])

    def test_softmax(self):
        a = randt(self.rng, 3, 5)
        w = T.Tensor(self.rng.normal(size=(3, 5)))
        assert_gradcheck(lambda: (T.softmax(a, axis=-1) * w).sum(), [a])

    def test_sigmoid(self):
        a = randt(self.rng, 4, 3)
        assert_gradcheck(lambda: (T.sigmoid(a) * T.sigmoid(a)).sum(), [a])

    def test_log(self):
        a = T.Tensor(self.rng.uniform(0.5, 2.0, size=(3, 3)), requires_grad=True)
        assert_gradcheck(lambda: T.log(a).sum(), [a])

    def test_clamp_min(self):
        a = T.Tensor(self.rng.uniform(0.5, 2.0, size=(6,)), requires_grad=True)
        assert_gradcheck(lambda: T.clamp_min(a, 1e-3).sum(), [a])

    def test_gelu(self):
        a = randt(self.rng, 3, 4)
        assert_gradcheck(lambda: T.gelu(a).sum(), [a])

    def test_layer_norm(self):
        a = randt(self.rng, 2, 3, 6)
        g = T.Tensor(self.rng.normal(1.0, 0.1, size=6), requires_grad=True)
        b = randt(self.rng, 6, scale=0.1)
        w = T.Tensor(self.rng.normal(size=(2, 3, 6)))
        assert_gradcheck(lambda: (T.layer_norm(a, g, b) * w).sum(), [a, g, b])

    def test_embedding_lookup(self):
        table = randt(self.rng, 7, 4)
        ids = np.array([[1, 3, 1], [0, 6, 2]])
        w = T.Tensor(self.rng.normal(size=(2, 3, 4)))
        assert_gradcheck(lambda: (T.embedding_lookup(table, ids) * w).sum(), [table])

    def test_mean_and_sum_axes(self):
        a = randt(self.rng, 3, 4)
        assert_gradcheck(lambda: a.mean(), [a])
        assert_gradcheck(lambda: (a.sum(axis=0) * a.sum(axis=0)).mean(), [a])
        assert_gradcheck(lambda: (a.mean(axis=1) * 2.0).sum(), [a])


class TestInvariants:
    def test_forward_finite_on_finite_input(self):
        rng = np.random.default_rng(7)
        x = T.Tensor(rng.normal(size=(4, 8), scale=5.0))
        g = T.Tensor(np.ones(8))
        b = T.Tensor(np.zeros(8))
        for out in (
            T.softmax(x, axis=-1),
            T.sigmoid(x),
            T.gelu(x),
            T.layer_norm(x, g, b),
        ):
            assert np.isfinite(out.array).all()

    def test_deterministic_op_chain(self):
        def run():
            rng = np.random.default_rng(123)
            x = T.Tensor(rng.normal(size=(3, 4)))
            w = T.Tensor(rng.normal(size=(4, 4)))
            return T.softmax(T.gelu(T.matmul(x, w)), axis=-1).array

        np.testing.assert_array_equal(run(), run())


def mean_layer_norm(x, gain, bias, g, eps=1e-5):
    """Layer norm forward and backward written with ``ndarray.mean`` and ``**2``."""
    mu = x.mean(axis=-1, keepdims=True)
    xc = x - mu
    var = (xc**2).mean(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + eps)
    xhat = xc * inv
    gx_hat = g * gain
    gmean = gx_hat.mean(axis=-1, keepdims=True)
    gdot = (gx_hat * xhat).mean(axis=-1, keepdims=True)
    d = x.shape[-1]
    grads = (inv * (gx_hat - gmean - xhat * gdot), (g * xhat).reshape(-1, d).sum(axis=0),
             g.reshape(-1, d).sum(axis=0))
    return gain * xhat + bias, grads


class TestLayerNormKernel:
    @settings(max_examples=200)
    @given(lead=st.lists(st.integers(1, 5), max_size=3), d=st.integers(1, 80),
           seed=st.integers(0, 2**32 - 1), scale=st.sampled_from([1e-6, 1.0, 1e3, 1e8, 1e150]),
           offset=st.sampled_from([0.0, 1.0, -1e4, 1e12]))
    def test_forward_and_backward_bit_equal_to_mean_formulas(self, lead, d, seed, scale, offset):
        rng = np.random.default_rng(seed)
        shape = (*lead, d)
        x = rng.normal(size=shape) * scale + offset * rng.normal()
        gain, bias = rng.normal(size=d), rng.normal(size=d)
        g = rng.normal(size=shape) * rng.choice([1e-3, 1.0, 1e6])
        want, want_grads = mean_layer_norm(x, gain, bias, g)
        a = T.Tensor(x, requires_grad=True)
        out = T.layer_norm(a, T.Tensor(gain, requires_grad=True), T.Tensor(bias, requires_grad=True))
        assert out.array.tobytes() == want.tobytes()
        assert T.arrays.layer_norm(x, gain, bias).tobytes() == want.tobytes()
        for got, ref in zip(out.node.backward(g), want_grads):
            assert got.tobytes() == ref.tobytes()


def masked_sigmoid(x):
    """The logistic function as two masked halves, so that neither exp overflows."""
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    np.clip(out, T._SIG_LO, T._SIG_HI, out=out)
    return out


SIGMOID_EDGES = [0.0, -0.0, np.inf, -np.inf, np.nan, -np.nan, 36.9, 37.0, 37.5, -37.5, 40.0, -40.0,
                 709.0, -709.0, 745.2, -745.2, 1e300, -1e300, 5e-324, -5e-324]


class TestSigmoidKernel:
    @settings(max_examples=200)
    @given(lead=st.lists(st.integers(1, 5), max_size=3), d=st.integers(1, 40),
           seed=st.integers(0, 2**32 - 1), scale=st.sampled_from([1e-6, 1.0, 10.0, 40.0, 1e3, 1e300]),
           edges=st.lists(st.sampled_from(SIGMOID_EDGES), max_size=12))
    def test_forward_bit_equal_to_masked_formula(self, lead, d, seed, scale, edges):
        rng = np.random.default_rng(seed)
        x = (rng.normal(size=(*lead, d)) * scale).reshape(-1)
        x[rng.permutation(x.size)[:len(edges)]] = edges[:x.size]
        x = x.reshape((*lead, d))
        want = masked_sigmoid(x)
        assert T._sigmoid_fwd(x).tobytes() == want.tobytes()
        assert T.sigmoid(T.Tensor(x)).array.tobytes() == want.tobytes()

    def test_every_edge_value_bit_equal(self):
        x = np.array(SIGMOID_EDGES)
        assert T._sigmoid_fwd(x).tobytes() == masked_sigmoid(x).tobytes()
        assert np.isnan(T._sigmoid_fwd(x)).sum() == 2


def chain_attention(q, k, v, n_heads):
    """Attention over [b, t, d] projections as a chain of reshape, transpose,
    matmul, scale and softmax nodes."""
    b, t, d = q.shape
    hd = d // n_heads

    def heads(x, axes=(0, 2, 1, 3)):
        return T.transpose(x.reshape((b, t, n_heads, hd)), axes)

    scores = T.matmul(heads(q), heads(k, (0, 2, 3, 1))) * (1.0 / np.sqrt(hd))
    ctx = T.matmul(T.softmax(scores, axis=-1), heads(v))
    return T.transpose(ctx, (0, 2, 1, 3)).reshape((b, t, d))


def length_spans(rng, b, t):
    """Spans (lo, hi, b, t) of b samples of random lengths 1..t, grouped by
    length in first-appearance order."""
    counts = {}
    for n in rng.integers(1, t + 1, size=b).tolist():
        counts[n] = counts.get(n, 0) + 1
    spans, lo = [], 0
    for n, count in counts.items():
        spans.append((lo, lo + count * n, count, n))
        lo += count * n
    return tuple(spans)


def group_leaves(x, spans):
    """Each span's rows of ``x`` as a fresh [b, t, d] leaf tensor."""
    return [T.Tensor(x.array[lo:hi].reshape((b, t, -1)), requires_grad=True) for lo, hi, b, t in spans]


class TestFusedOps:
    """``linear``, ``attention`` and ``layer_norm`` with a residual against
    ``arrays`` and against the op chains they replace."""

    @pytest.mark.parametrize("b, t, d, n", [(1, 1, 8, 8), (4, 7, 16, 32), (32, 14, 64, 256), (3, 5, 64, 1)])
    def test_linear_values_and_gradients_bit_equal(self, b, t, d, n):
        rng = np.random.default_rng(b * t)
        x, w, bias = (T.Tensor(rng.normal(size=s), requires_grad=True) for s in ((b, t, d), (d, n), (n,)))
        g = T.Tensor(rng.normal(size=(b, t, n)))
        out = T.linear(x, w, bias)
        want = T.matmul(x, w) + bias
        assert out.array.tobytes() == want.array.tobytes()
        assert T.arrays.linear(x.array, w.array, bias.array).tobytes() == want.array.tobytes()
        assert len(out.node.parents) == 3 and out.node.op == "linear"
        got, ref = T.backward((out * g).sum()), T.backward((want * g).sum())
        for p in (x, w, bias):
            assert got[p].tobytes() == ref[p].tobytes()

    @pytest.mark.parametrize("grouped", [False, True])
    @pytest.mark.parametrize("b, t, d, n_heads", [(1, 1, 8, 2), (4, 7, 16, 4), (32, 10, 64, 4), (3, 5, 12, 1)])
    def test_attention_values_and_gradients_bit_equal(self, b, t, d, n_heads, grouped):
        """Over one [b, t] group, or b samples of random lengths, each group's
        rows equal the op chain's on that group alone."""
        rng = np.random.default_rng(b * t + grouped)
        spans = length_spans(rng, b, t) if grouped else ((0, b * t, b, t),)
        rows = spans[-1][1]
        q, k, v = (T.Tensor(rng.normal(size=(rows, d)), requires_grad=True) for _ in range(3))
        g = T.Tensor(rng.normal(size=(rows, d)))
        out = T.attention(q, k, v, n_heads, spans)
        assert T.arrays.attention(q.array, k.array, v.array, n_heads, spans).tobytes() == out.array.tobytes()
        got = T.backward((out * g).sum())
        for (lo, hi, _, _), qkv, gg in zip(spans, zip(*(group_leaves(x, spans) for x in (q, k, v))),
                                           group_leaves(g, spans)):
            want = chain_attention(*qkv, n_heads)
            assert out.array[lo:hi].tobytes() == want.array.tobytes()
            ref = T.backward((want * gg).sum())
            for p, leaf in zip((q, k, v), qkv):
                assert got[p][lo:hi].tobytes() == ref[leaf].tobytes()

    @pytest.mark.parametrize("b, t, d, n_heads", [(6, 4, 8, 2), (32, 14, 64, 4), (9, 9, 12, 3)])
    def test_attention_over_spans_equals_separate_group_calls(self, b, t, d, n_heads):
        rng = np.random.default_rng(b + t)
        spans = length_spans(rng, b, t)
        rows = spans[-1][1]
        q, k, v = (T.Tensor(rng.normal(size=(rows, d)), requires_grad=True) for _ in range(3))
        g = rng.normal(size=(rows, d))
        out = T.attention(q, k, v, n_heads, spans)
        got = out.node.backward(g)
        for lo, hi, gb, gt in spans:
            part = [T.Tensor(x.array[lo:hi], requires_grad=True) for x in (q, k, v)]
            alone = T.attention(*part, n_heads, ((0, hi - lo, gb, gt),))
            assert out.array[lo:hi].tobytes() == alone.array.tobytes()
            for whole, single in zip(got, alone.node.backward(g[lo:hi])):
                assert whole[lo:hi].tobytes() == single.tobytes()

    @pytest.mark.parametrize("shape", [(1, 1), (5, 8), (2, 7, 16), (12, 64)])
    def test_layer_norm_with_residual_equals_add_then_layer_norm(self, shape):
        """The value and the gradients of both addends, gain and bias bit
        for bit, and a gradcheck."""
        rng = np.random.default_rng(sum(shape))
        d = shape[-1]
        r, a = (T.Tensor(rng.normal(size=shape), requires_grad=True) for _ in range(2))
        gain = T.Tensor(rng.normal(1.0, 0.1, size=d), requires_grad=True)
        bias = T.Tensor(rng.normal(0.0, 0.1, size=d), requires_grad=True)
        g = T.Tensor(rng.normal(size=shape))
        out = T.layer_norm(a, gain, bias, residual=r)
        want = T.layer_norm(r + a, gain, bias)
        assert out.array.tobytes() == want.array.tobytes()
        assert out.node.op == "layer_norm" and out.node.parents == (r, a, gain, bias)
        got, ref = T.backward((out * g).sum()), T.backward((want * g).sum())
        for p in (r, a, gain, bias):
            assert got[p].tobytes() == ref[p].tobytes()
        assert_gradcheck(lambda: (T.layer_norm(a, gain, bias, residual=r) * g).sum(), [r, a, gain, bias])
        with pytest.raises(T.ShapeError, match=r"residual \(.*\) must have the input's shape"):
            T.layer_norm(a, gain, bias, residual=T.Tensor(np.zeros((*shape[:-1], d + 1))))

    def test_shape_errors_name_the_shapes(self):
        x, w = T.Tensor(np.zeros((2, 3, 4))), T.Tensor(np.zeros((4, 5)))
        with pytest.raises(T.ShapeError, match=r"\(2, 3, 4\) @ \(4, 5\) \+ \(4,\)"):
            T.linear(x, w, T.Tensor(np.zeros(4)))
        with pytest.raises(T.ShapeError, match=r"3 heads.*\(2, 3, 4\)"):
            T.attention(x, x, x, 3, ((0, 6, 2, 3),))
        rows = T.Tensor(np.zeros((6, 4)))
        # no span, rows left over, overlapping spans, b * t != hi - lo, an empty group
        for spans in ((), ((0, 4, 1, 4),), ((0, 3, 1, 3), (2, 6, 1, 4)), ((0, 6, 2, 2),),
                      ((0, 0, 0, 1), (0, 6, 2, 3))):
            with pytest.raises(T.ShapeError, match=r"spans \(lo, hi, b, t\) tiling the rows"):
                T.attention(rows, rows, rows, 2, spans)


class TestGeluBackward:
    @settings(max_examples=100)
    @given(shape=st.lists(st.integers(1, 6), min_size=1, max_size=3), seed=st.integers(0, 2**32 - 1),
           scale=st.sampled_from([1e-3, 1.0, 3.0, 1e3]))
    def test_bit_equal_to_the_out_of_place_formula(self, shape, seed, scale):
        rng = np.random.default_rng(seed)
        x, g = rng.normal(size=shape) * scale, rng.normal(size=shape)
        out = T.gelu(T.Tensor(x, requires_grad=True))
        t = np.tanh(np.sqrt(2.0 / np.pi) * (x + 0.044715 * (x * x * x)))
        du = np.sqrt(2.0 / np.pi) * (1.0 + 3.0 * 0.044715 * x**2)
        want = g * (0.5 * (1.0 + t) + 0.5 * x * (1.0 - t**2) * du)
        assert out.node.backward(g)[0].tobytes() == want.tobytes()
