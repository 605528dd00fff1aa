import gc
import math
import weakref

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from demol import autodiff as ad
from demol.autodiff import (
    EdgeList,
    ModelParams,
    Tape,
    TapeParams,
    Tensor,
    backward,
    grad_check,
    relative_error,
)
from demol.errors import NonFiniteError, ShapeError


def leafs(tape, *arrays):
    return [tape.leaf(a) for a in arrays]


def fd_gradient(f, arrays, step=1e-4):
    """Central differences of a scalar function of plain numpy arrays."""
    grads = []
    for target in arrays:
        g = np.zeros_like(target)
        flat = target.reshape(-1)
        gflat = g.reshape(-1)
        for k in range(flat.size):
            orig = flat[k]
            flat[k] = orig + step
            up = f()
            flat[k] = orig - step
            down = f()
            flat[k] = orig
            gflat[k] = (up - down) / (2 * step)
        grads.append(g)
    return grads


class TestBasicOps:
    def test_matmul_identity(self):
        tape = Tape()
        x = tape.leaf(np.arange(9.0).reshape(3, 3))
        out = ad.matmul(tape.leaf(np.eye(3)), x)
        assert (out.value == x.value).all()

    def test_mean_rows_single_row(self):
        tape = Tape()
        x = tape.leaf([[1.0, 2.0, 3.0]])
        assert (ad.mean_rows(x).value == x.value).all()

    def test_shape_mismatch_lists_both_shapes(self):
        tape = Tape()
        a = tape.leaf(np.zeros((2, 3)))
        b = tape.leaf(np.zeros((3, 2)))
        with pytest.raises(ShapeError, match=r"\(2, 3\).*\(3, 2\)"):
            ad.add(a, b)

    def test_matmul_gradients_match_finite_differences(self):
        rs = np.random.RandomState(0)
        a_val = rs.normal(size=(3, 4))
        b_val = rs.normal(size=(4, 2))
        w = rs.normal(size=(3, 2))  # fixed cotangent via sum(w * (a @ b))

        tape = Tape()
        a, b = leafs(tape, a_val, b_val)
        loss = ad.sum_all(ad.mul(tape.leaf(w), ad.matmul(a, b)))
        grads = backward(tape, loss)
        fd_a, fd_b = fd_gradient(lambda: float((w * (a_val @ b_val)).sum()), [a_val, b_val])
        for analytic, fd in ((grads.wrt(a), fd_a), (grads.wrt(b), fd_b)):
            err = np.abs(analytic - fd) / np.maximum(1e-8, np.abs(analytic) + np.abs(fd))
            assert err.max() <= 1e-5

    def test_concat_gather_roundtrip_values(self):
        tape = Tape()
        x = tape.leaf([[1.0, 2.0], [3.0, 4.0]])
        assert (ad.concat_rows([x, x]).value == np.vstack([x.value] * 2)).all()
        assert (ad.concat_cols([x, x]).value == np.hstack([x.value] * 2)).all()
        assert (ad.gather_rows(x, [1, 0, 1]).value == x.value[[1, 0, 1]]).all()

    def test_gather_rows_out_of_range(self):
        tape = Tape()
        x = tape.leaf(np.zeros((2, 2)))
        with pytest.raises(ShapeError, match="out of range"):
            ad.gather_rows(x, [2])

    def test_non_finite_raises(self):
        tape = Tape()
        x = tape.leaf([[700.0, 710.0]])
        with np.errstate(over="ignore"), pytest.raises(NonFiniteError):
            ad.mul(ad.scale(x, 1e300), ad.scale(x, 1e300))

    def test_leaf_rejects_nan(self):
        with pytest.raises(NonFiniteError):
            Tape().leaf([[float("nan")]])


class TestGelu:
    def test_zero(self):
        assert ad.gelu(Tape().leaf([[0.0]])).value[0, 0] == 0.0

    def test_asymptotes(self):
        tape = Tape()
        assert ad.gelu(tape.leaf([[30.0]])).value[0, 0] == pytest.approx(30.0, abs=1e-12)
        assert ad.gelu(tape.leaf([[-10.0]])).value[0, 0] == pytest.approx(0.0, abs=1e-12)

    def test_unit_value_against_normal_cdf(self):
        # oracle: x * Phi(x) with the high-precision normal CDF at x = 1
        out = ad.gelu(Tape().leaf([[1.0]])).value[0, 0]
        assert out == pytest.approx(0.8413447460685429, abs=1e-12)

    def test_gradient(self):
        rs = np.random.RandomState(3)
        x_val = rs.normal(size=(2, 3))
        tape = Tape()
        x = tape.leaf(x_val)
        loss = ad.sum_all(ad.gelu(x))
        g = backward(tape, loss).wrt(x)
        (fd,) = fd_gradient(
            lambda: float((x_val * 0.5 * (1 + np.vectorize(math.erf)(x_val / math.sqrt(2)))).sum()),
            [x_val],
        )
        assert np.abs(g - fd).max() < 1e-7


def edge_softmax(logits, bias, mask):
    """Dense (R, C) weights of the edge-list op on a dense one-head problem.

    The logits are the op's scaled dot products q.k / sqrt(d) with d = C,
    q = logits * sqrt(C) and the identity as keys; the bias is read on the
    allowed entries only.
    """
    mask = np.asarray(mask, dtype=bool)
    r, c = mask.shape
    edges = EdgeList.from_mask(mask)
    tape = Tape()
    w = ad.softmax_bias_mask(
        tape.leaf(np.asarray(logits) * math.sqrt(c)),
        tape.leaf(np.eye(c)),
        tape.leaf(np.asarray(bias)[edges.rows, edges.cols].reshape(-1, 1)),
        edges,
        1,
    )
    return edges.dense(w.value[:, 0])


def dense_attention(q, k, v, bias, mask, heads, g_out, g_w):
    """Oracle: per-head dense masked softmax and its hand-derived gradients.

    Returns the weights (H, R, C), the output (R, H*d) and the gradients of
    sum(g_out * output) + sum(g_w * weights) wrt q, k, v and the dense bias.
    """
    r, c = mask.shape
    d = q.shape[1] // heads
    w = np.zeros((heads, r, c))
    out = np.zeros((r, heads * d))
    dq, dk, dv = np.zeros_like(q), np.zeros_like(k), np.zeros_like(v)
    dbias = np.zeros((r, c))
    for h in range(heads):
        blk = slice(h * d, (h + 1) * d)
        z = np.where(mask, q[:, blk] @ k[:, blk].T / math.sqrt(d) + bias, -np.inf)
        for i in range(r):
            if mask[i].any():
                e = np.where(mask[i], np.exp(z[i] - z[i][mask[i]].max()), 0.0)
                w[h, i] = e / e.sum()
        out[:, blk] = w[h] @ v[:, blk]
        dw = g_out[:, blk] @ v[:, blk].T + g_w[h]
        dv[:, blk] = w[h].T @ g_out[:, blk]
        ds = w[h] * (dw - (dw * w[h]).sum(axis=1, keepdims=True))
        dq[:, blk] = ds @ k[:, blk] / math.sqrt(d)
        dk[:, blk] = ds.T @ q[:, blk] / math.sqrt(d)
        dbias += ds
    return w, out, dq, dk, dv, dbias


class TestSoftmaxBiasMask:
    def test_uniform(self):
        w = edge_softmax(np.full((2, 4), 1.7), np.zeros((2, 4)), np.ones((2, 4), dtype=bool))
        assert np.abs(w - 0.25).max() < 1e-15

    def test_single_unmasked_entry(self):
        logits = np.random.RandomState(0).normal(size=(3, 3))
        mask = np.eye(3, dtype=bool)
        w = edge_softmax(logits, np.zeros((3, 3)), mask)
        assert (w == np.eye(3)).all()

    def test_against_straight_line_oracle(self):
        rs = np.random.RandomState(5)
        logits_val = rs.normal(size=(4, 6))
        bias_val = rs.normal(size=(4, 6))
        mask = rs.rand(4, 6) < 0.7
        mask[2] = False  # a fully masked row
        w = edge_softmax(logits_val, bias_val, mask)
        expected = np.zeros((4, 6))
        for i in range(4):
            exps = [
                math.exp(logits_val[i, j] + bias_val[i, j]) if mask[i, j] else 0.0
                for j in range(6)
            ]
            s = sum(exps)
            if s > 0:
                expected[i] = [e / s for e in exps]
        assert np.abs(w - expected).max() <= 1e-12

    def test_rows_sum_to_one_or_zero(self):
        rs = np.random.RandomState(7)
        mask = rs.rand(5, 5) < 0.5
        w = edge_softmax(rs.normal(size=(5, 5)), rs.normal(size=(5, 5)), mask)
        sums = w.sum(axis=1)
        for i, s in enumerate(sums):
            if mask[i].any():
                assert abs(s - 1.0) <= 1e-12
            else:
                assert s == 0.0

    def test_masked_positions_exactly_zero(self):
        rs = np.random.RandomState(9)
        mask = rs.rand(4, 4) < 0.6
        w = edge_softmax(rs.normal(size=(4, 4)), rs.normal(size=(4, 4)), mask)
        assert (w[~mask] == 0.0).all()

    @given(st.floats(-30, 30))
    @settings(max_examples=50, deadline=None)
    def test_per_row_shift_invariance(self, shift):
        rs = np.random.RandomState(11)
        logits_val = rs.normal(size=(3, 5))
        bias_val = rs.normal(size=(3, 5))
        mask = rs.rand(3, 5) < 0.8
        base = edge_softmax(logits_val, bias_val, mask)
        shifted = edge_softmax(logits_val + shift, bias_val, mask)
        assert np.abs(base - shifted).max() <= 1e-12

    def test_gradient_matches_fd(self):
        rs = np.random.RandomState(13)
        heads, d = 2, 3
        q_val = rs.normal(size=(3, heads * d))
        k_val = rs.normal(size=(4, heads * d))
        mask = rs.rand(3, 4) < 0.7
        edges = EdgeList.from_mask(mask)
        bias_val = rs.normal(size=(len(edges), 1))
        w_out = rs.normal(size=(len(edges), heads))

        def value():
            bias = edges.dense(bias_val[:, 0])
            zero = np.zeros((3, heads * d))
            w, *_ = dense_attention(
                q_val, k_val, k_val, bias, mask, heads, zero, np.zeros((heads, 3, 4))
            )
            return float(sum((w_out[:, h] * w[h][edges.rows, edges.cols]).sum() for h in range(heads)))

        tape = Tape()
        q, k, bias = leafs(tape, q_val, k_val, bias_val)
        w = ad.softmax_bias_mask(q, k, bias, edges, heads)
        loss = ad.sum_all(ad.mul(tape.leaf(w_out), w))
        grads = backward(tape, loss)
        fd_q, fd_k, fd_b = fd_gradient(value, [q_val, k_val, bias_val])
        assert np.abs(grads.wrt(q) - fd_q).max() < 1e-6
        assert np.abs(grads.wrt(k) - fd_k).max() < 1e-6
        assert np.abs(grads.wrt(bias) - fd_b).max() < 1e-6


class TestEdgeAttentionOracle:
    """Both edge ops against a dense masked softmax, values and gradients to 1e-12."""

    @given(
        rows=st.integers(1, 6),
        cols=st.integers(0, 6),
        heads=st.integers(1, 3),
        d=st.integers(1, 3),
        density=st.sampled_from([0.0, 0.3, 0.7, 1.0]),
        isolated_row=st.booleans(),
        seed=st.integers(0, 2**31 - 1),
    )
    @example(rows=3, cols=0, heads=2, d=2, density=1.0, isolated_row=False, seed=0)  # E = 0
    @example(rows=4, cols=4, heads=2, d=3, density=1.0, isolated_row=False, seed=1)  # all pairs
    @example(rows=4, cols=3, heads=1, d=2, density=1.0, isolated_row=True, seed=2)  # empty row
    @example(rows=0, cols=3, heads=2, d=2, density=1.0, isolated_row=False, seed=3)  # no bonds
    @settings(max_examples=60, deadline=None)
    def test_matches_dense_masked_softmax(self, rows, cols, heads, d, density, isolated_row, seed):
        rs = np.random.RandomState(seed)
        mask = rs.rand(rows, cols) < density
        if isolated_row:
            mask[rs.randint(rows)] = False  # an isolated atom: no key to attend
        q_val = rs.normal(scale=2.0, size=(rows, heads * d))
        k_val = rs.normal(scale=2.0, size=(cols, heads * d))
        v_val = rs.normal(size=(cols, heads * d))
        bias_dense = rs.normal(size=(rows, cols))
        g_out = rs.normal(size=(rows, heads * d))
        g_w = rs.normal(size=(heads, rows, cols))
        w_ref, out_ref, dq_ref, dk_ref, dv_ref, dbias_ref = dense_attention(
            q_val, k_val, v_val, bias_dense, mask, heads, g_out, g_w
        )

        edges = EdgeList.from_mask(mask)
        er, ec = edges.rows, edges.cols
        tape = Tape()
        q, k, v = leafs(tape, q_val, k_val, v_val)
        bias = tape.leaf(bias_dense[er, ec].reshape(-1, 1))
        w = ad.softmax_bias_mask(q, k, bias, edges, heads)
        out = ad.scatter_pairs(w, v, edges)
        g_w_edges = np.stack([g_w[h][er, ec] for h in range(heads)], axis=1).reshape(-1, heads)
        loss = ad.add(
            ad.sum_all(ad.mul(tape.leaf(g_out), out)),
            ad.sum_all(ad.mul(tape.leaf(g_w_edges), w)),
        )
        grads = backward(tape, loss)

        def close(got, ref):
            got = np.zeros_like(ref) if got is None else got
            return np.abs(got - ref).max(initial=0.0) <= 1e-12 * max(1.0, np.abs(ref).max(initial=0.0))

        for h in range(heads):
            assert close(edges.dense(w.value[:, h]), w_ref[h])
        assert close(out.value, out_ref)
        assert close(grads.wrt(q), dq_ref)
        assert close(grads.wrt(k), dk_ref)
        assert close(grads.wrt(v), dv_ref)
        assert close(grads.wrt(bias), dbias_ref[er, ec].reshape(-1, 1))


class TestFusedOps:
    def test_cross_entropy_uniform(self):
        tape = Tape()
        logits = tape.leaf(np.zeros((3, 7)))
        loss = ad.cross_entropy_rows(logits, [0, 3, 6])
        assert loss.item() == pytest.approx(3 * math.log(7), abs=1e-12)

    def test_bce_at_half(self):
        tape = Tape()
        loss = ad.bce_with_logits_mean(tape.leaf(np.zeros((5, 1))), np.ones(5))
        assert loss.item() == pytest.approx(math.log(2), abs=1e-15)

    def test_bce_saturating(self):
        tape = Tape()
        logits = tape.leaf(np.array([[40.0], [-40.0]]))
        loss = ad.bce_with_logits_mean(logits, np.array([1.0, 0.0]))
        assert loss.item() == pytest.approx(0.0, abs=1e-12)

    def test_fused_gradients_match_fd(self):
        rs = np.random.RandomState(17)
        logits_val = rs.normal(size=(4, 5))
        targets = [1, 0, 4, 2]
        tape = Tape()
        logits = tape.leaf(logits_val)
        loss = ad.cross_entropy_rows(logits, targets)
        g = backward(tape, loss).wrt(logits)

        def ce():
            out = 0.0
            for i, t in enumerate(targets):
                row = logits_val[i]
                out += math.log(np.exp(row - row.max()).sum()) + row.max() - row[t]
            return out

        (fd,) = fd_gradient(ce, [logits_val])
        assert np.abs(g - fd).max() < 1e-6

    def test_gaussian_kernel_features_gradients(self):
        rs = np.random.RandomState(19)
        alpha_val = rs.uniform(0.5, 1.5, size=(6, 1))
        beta_val = rs.normal(size=(6, 1))
        x = rs.uniform(0.1, 3.0, size=6)
        mu = np.linspace(0, 2, 5)
        sigma = 0.4
        w_out = rs.normal(size=(6, 5))

        def value():
            u = alpha_val * x.reshape(-1, 1) + beta_val
            z = (u - mu.reshape(1, -1)) / sigma
            f = -np.exp(-0.5 * z * z) / (math.sqrt(2 * math.pi) * sigma)
            return float((w_out * f).sum())

        tape = Tape()
        alpha = tape.leaf(alpha_val)
        beta = tape.leaf(beta_val)
        loss = ad.sum_all(
            ad.mul(tape.leaf(w_out), ad.gaussian_kernel_features(alpha, beta, x, mu, sigma))
        )
        grads = backward(tape, loss)
        fd_a, fd_b = fd_gradient(value, [alpha_val, beta_val])
        assert np.abs(grads.wrt(alpha) - fd_a).max() < 1e-6
        assert np.abs(grads.wrt(beta) - fd_b).max() < 1e-6

    def test_scatter_pairs_and_row_normalize_gradients(self):
        rs = np.random.RandomState(23)
        edges = EdgeList([0, 0, 1], [0, 1, 1], 2, 2)
        w_val = rs.normal(size=(3, 2))  # two heads
        v_val = rs.normal(size=(2, 4))  # d = 2 per head
        w_out = rs.normal(size=(2, 4))

        def value():
            m = np.zeros((2, 4))
            for e in range(3):
                for h in range(2):
                    m[edges.rows[e], 2 * h : 2 * h + 2] += w_val[e, h] * v_val[edges.cols[e], 2 * h : 2 * h + 2]
            mu = m.mean(axis=1, keepdims=True)
            y = (m - mu) / np.sqrt(m.var(axis=1, keepdims=True) + 1e-5)
            return float((w_out * y).sum())

        tape = Tape()
        w, v = leafs(tape, w_val, v_val)
        y = ad.row_normalize(ad.scatter_pairs(w, v, edges))
        loss = ad.sum_all(ad.mul(tape.leaf(w_out), y))
        grads = backward(tape, loss)
        fd_w, fd_v = fd_gradient(value, [w_val, v_val])
        assert np.abs(grads.wrt(w) - fd_w).max() < 1e-6
        assert np.abs(grads.wrt(v) - fd_v).max() < 1e-6


class TestTapeLifetime:
    def test_tape_freed_without_cyclic_collector(self):
        params = ModelParams()
        params.register("w", np.ones((2, 2)))
        enabled = gc.isenabled()
        gc.disable()
        try:
            tape = Tape()
            tp = TapeParams(params, tape)
            edges = EdgeList.from_mask(np.ones((2, 2), dtype=bool))
            q = ad.matmul(tape.leaf(np.eye(2)), tp["w"])
            w = ad.softmax_bias_mask(q, tp["w"], tape.leaf(np.zeros((4, 1))), edges, 1)
            loss = ad.sum_all(ad.scatter_pairs(w, q, edges))
            assert tp.flat_gradients(backward(tape, loss)).any()
            ref = weakref.ref(tape)
            del tape, tp, q, w, loss
            assert ref() is None
        finally:
            if enabled:
                gc.enable()

    def test_views_of_one_tape_share_leaves(self):
        params = ModelParams()
        params.register("w", np.ones((1, 1)))
        tape = Tape()
        a = TapeParams(params, tape)["w"]
        b = TapeParams(params, tape)["w"]
        assert a.node_id == b.node_id and len(tape) == 1


class TestBackward:
    def test_square_at_three(self):
        tape = Tape()
        x = tape.leaf([[3.0]])
        loss = ad.mul(x, x)
        assert backward(tape, loss).wrt(x)[0, 0] == pytest.approx(6.0, abs=1e-12)

    def test_unreached_parameter_gets_exact_zero(self):
        params = ModelParams()
        params.register("used", np.array([[2.0]]))
        params.register("unused", np.array([[5.0]]))
        tape = Tape()
        tp = TapeParams(params, tape)
        loss = ad.mul(tp["used"], tp["used"])
        flat = tp.flat_gradients(backward(tape, loss))
        assert flat[0] == 4.0
        assert flat[1] == 0.0

    def test_loss_must_be_scalar(self):
        tape = Tape()
        x = tape.leaf(np.ones((2, 2)))
        with pytest.raises(ShapeError):
            backward(tape, ad.add(x, x))

    def test_each_node_visited_once(self):
        # diamond graph: y = (x + x) * (x + x); gradient is 8x
        tape = Tape()
        x = tape.leaf([[1.5]])
        s = ad.add(x, x)
        loss = ad.mul(s, s)
        assert backward(tape, loss).wrt(x)[0, 0] == pytest.approx(12.0, abs=1e-12)


class TestModelParams:
    def test_flat_roundtrip(self):
        params = ModelParams()
        params.register("a", np.arange(6.0).reshape(2, 3))
        params.register("b", np.array([7.0, 8.0]))
        flat = params.flat()
        assert flat.tolist() == [0, 1, 2, 3, 4, 5, 7, 8]
        flat[0] = 99.0
        params.set_flat(flat)
        assert params["a"][0, 0] == 99.0

    def test_duplicate_name_rejected(self):
        params = ModelParams()
        params.register("a", np.zeros(2))
        with pytest.raises(ValueError):
            params.register("a", np.zeros(2))

    def test_size_and_slices(self):
        params = ModelParams()
        params.register("a", np.zeros((2, 2)))
        params.register("b", np.zeros(3))
        assert params.size == 7
        assert params.slices()["b"] == slice(4, 7)


class TestGradCheck:
    def test_linear_function(self):
        params = ModelParams()
        params.register("w", np.array([1.0, -2.0, 0.5]))

        def f(tape):
            if tape is None:
                return float(params["w"].sum() * 3.0), None
            tp = TapeParams(params, tape)
            return ad.scale(ad.sum_all(tp["w"]), 3.0), tp

        report = grad_check(f, params, step=1e-4)
        assert report.max_rel_err <= 1e-10

    def test_constant_function(self):
        params = ModelParams()
        params.register("w", np.array([1.0, 2.0]))

        def f(tape):
            if tape is None:
                return 4.2, None
            tp = TapeParams(params, tape)
            zero = ad.scale(ad.sum_all(tp["w"]), 0.0)
            return ad.add(zero, tape.leaf([[4.2]])), tp

        report = grad_check(f, params, step=1e-4)
        assert report.max_rel_err == 0.0

    def test_randomized_micro_networks(self):
        # two-layer network with gelu, softmax and a quadratic head
        for seed in range(10):
            rs = np.random.RandomState(seed)
            params = ModelParams()
            params.register("w1", rs.normal(scale=0.5, size=(3, 4)))
            params.register("w2", rs.normal(scale=0.5, size=(4, 2)))
            x_val = rs.normal(size=(5, 3))
            keys_val = rs.normal(size=(2, 2))
            edges = EdgeList.from_mask(rs.rand(5, 2) < 0.8)

            def run(tape):
                tp = TapeParams(params, tape)
                x, keys, zero = (
                    ad.constant(a, tape) for a in (x_val, keys_val, np.zeros((len(edges), 1)))
                )
                h = ad.gelu(ad.matmul(x, tp["w1"]))
                q = ad.matmul(h, tp["w2"])  # one head, d = 2
                w = ad.softmax_bias_mask(q, keys, zero, edges, 1)
                out = ad.sum_all(ad.mul(ad.scatter_pairs(w, keys, edges), q))
                return ad.mul(out, out), tp

            def f(tape):
                loss, tp = run(tape)
                return (loss, tp) if tape is not None else (loss.item(), None)

            report = grad_check(f, params, step=1e-4)
            assert report.max_rel_err <= 1e-4, f"seed {seed}: {report.max_rel_err}"


def test_relative_error_floor():
    assert relative_error(0.0, 0.0) == 0.0
    assert relative_error(1e-12, 0.0) == pytest.approx(1e-4, rel=1e-6)
