import math

import numpy as np
import pytest

from boxparse import autodiff as ad
from boxparse.errors import ShapeError
from boxparse.gradcheck import check_gradients


# every shape a product takes: a vector is a row on the left of a matrix and
# a column on its right, and two vectors meet only in ``dot``
PRODUCTS = {
    "matmul_1d_2d": (ad.matmul, (3,), (3, 4)),
    "matmul_2d_1d": (ad.matmul, (4, 3), (3,)),
    "matmul_2d_2d": (ad.matmul, (2, 3), (3, 4)),
    "dot": (ad.dot, (3,), (3,)),
}


def mlp_gradcheck(**kwargs):
    """Gradient check of a 5-4-3-2 tanh MLP with a cross-entropy loss, built
    in the current default dtype."""
    rng = np.random.default_rng(7)
    params = {
        "w1": ad.uniform((5, 4), rng), "b1": ad.zeros(4, requires_grad=True),
        "w2": ad.uniform((4, 3), rng), "b2": ad.zeros(3, requires_grad=True),
        "w3": ad.uniform((3, 2), rng), "b3": ad.zeros(2, requires_grad=True),
    }
    x = ad.tensor(rng.normal(size=5))

    def loss_fn():
        h1 = ad.tanh(ad.add(ad.matmul(x, params["w1"]), params["b1"]))
        h2 = ad.tanh(ad.add(ad.matmul(h1, params["w2"]), params["b2"]))
        logits = ad.add(ad.matmul(h2, params["w3"]), params["b3"])
        return ad.softmax_cross_entropy(logits, target=1)

    return check_gradients(loss_fn, params, name="mlp", **kwargs), params


class TestForwardOps:
    def test_tanh_zero(self):
        x = ad.tensor(np.zeros(4), requires_grad=True)
        y = ad.tanh(x)
        assert np.allclose(y.data, 0.0)
        ad.backward(ad.reduce_sum(y))
        assert np.allclose(x.grad, 1.0)  # tanh'(0) = 1

    def test_concat_shapes(self):
        a = ad.tensor(np.ones(2))
        b = ad.tensor(np.ones(3))
        assert ad.concat([a, b]).shape == (5,)

    def test_concat_scalar_and_vector_parts(self):
        s = ad.tensor(2.0, requires_grad=True)
        v = ad.tensor(np.array([3.0, 4.0]), requires_grad=True)
        t = ad.tensor(5.0, requires_grad=True)
        out = ad.concat([s, v, t])
        assert out.shape == (4,)
        assert np.array_equal(out.data, [2.0, 3.0, 4.0, 5.0])
        weights = ad.tensor(np.array([1.0, 2.0, 3.0, 4.0]))
        ad.backward(ad.dot(out, weights))
        for p in (s, v, t):
            assert p.grad.shape == p.data.shape
        assert s.grad == 1.0
        assert np.array_equal(v.grad, [2.0, 3.0])
        assert t.grad == 4.0
        with pytest.raises(ShapeError):
            ad.concat([v, ad.tensor(np.ones((2, 2)))])

    def test_cross_entropy_uniform(self):
        for k in (2, 5, 17):
            logits = ad.tensor(np.zeros(k), requires_grad=True)
            loss = ad.softmax_cross_entropy(logits, target=0)
            assert float(loss.data) == pytest.approx(math.log(k))

    def test_softmax_normalizes(self):
        logits = ad.tensor(np.array([0.3, -1.2, 2.0, 0.0]))
        p = ad.softmax(logits)
        assert float(p.data.sum()) == pytest.approx(1.0)

    def test_masked_softmax_zeroes_masked(self):
        logits = ad.tensor(np.array([5.0, 1.0, 3.0]))
        p = ad.softmax(logits, mask=[True, False, True])
        assert p.data[1] == 0.0
        assert float(p.data.sum()) == pytest.approx(1.0)

    def test_shape_errors(self):
        with pytest.raises(ShapeError):
            ad.add(ad.tensor(np.ones(2)), ad.tensor(np.ones(3)))
        with pytest.raises(ShapeError):
            ad.matmul(ad.tensor(np.ones((2, 3))), ad.tensor(np.ones((2, 3))))
        with pytest.raises(ShapeError):
            ad.softmax(ad.tensor(np.ones(3)), mask=[False, False, False])
        with pytest.raises(ShapeError):
            ad.backward(ad.tensor(np.ones(2)))

    def test_embedding_lookup(self):
        table = ad.tensor(np.arange(12.0).reshape(4, 3), requires_grad=True)
        row = ad.embedding_lookup(table, 2)
        assert np.allclose(row.data, [6.0, 7.0, 8.0])
        ad.backward(ad.reduce_sum(row))
        assert np.allclose(table.grad[2], 1.0)
        assert np.allclose(table.grad[[0, 1, 3]], 0.0)


class TestBackward:
    def test_sum_of_squares(self):
        w = ad.tensor(np.array([1.0, 2.0, 3.0]), requires_grad=True)
        loss = ad.reduce_sum(ad.mul(w, w))
        ad.backward(loss)
        assert np.allclose(w.grad, [2.0, 4.0, 6.0])

    def test_parameter_used_twice_gets_summed_gradient(self):
        w = ad.tensor(np.array([1.0, -2.0]), requires_grad=True)
        y = ad.add(ad.mul(w, w), w)  # w^2 + w -> grad 2w + 1
        ad.backward(ad.reduce_sum(y))
        assert np.allclose(w.grad, 2 * w.data + 1)

    def test_each_node_visited_once(self):
        x = ad.tensor(np.array([0.5, -0.5]), requires_grad=True)
        y = ad.tanh(x)
        calls = {"n": 0}
        orig = y._backward

        def counting(g):
            calls["n"] += 1
            orig(g)

        y._backward = counting
        z = ad.add(y, y)  # diamond: y feeds z twice
        ad.backward(ad.reduce_sum(z))
        assert calls["n"] == 1
        assert np.allclose(x.grad, 2 * (1 - np.tanh(x.data) ** 2))

    def test_mlp_matches_finite_differences(self):
        report, _ = mlp_gradcheck()
        assert report.passed, report.worst

    def test_mlp_matches_finite_differences_in_float32(self):
        # float32 rounding swamps central differences at small h: the
        # error is ~2e-3 at h=1e-2 but ~2e-1 at the default h=1e-4
        ad.set_dtype(np.float32)
        try:
            report, params = mlp_gradcheck(h=1e-2, tolerance=1e-2)
        finally:
            ad.set_dtype(np.float64)
        assert all(p.data.dtype == np.float32 for p in params.values())
        assert report.passed, report.worst

    def test_attention_like_graph_gradcheck(self):
        # scale=1.0: the gradients through the scores are then of order 1,
        # where a wrong concat backward shows by any measure (at the default
        # init scale they are ~1e-4).
        rng = np.random.default_rng(11)
        params = {
            "wq": ad.uniform((3, 3), rng, scale=1.0),
            "states": ad.uniform((4, 3), rng, scale=1.0),
            "query": ad.uniform((3,), rng, scale=1.0),
        }

        def loss_fn():
            q = ad.matmul(params["query"], params["wq"])
            scores = [ad.dot(q, ad.embedding_lookup(params["states"], i)) for i in range(4)]
            weights = ad.softmax(ad.concat(scores))
            ctx = [ad.mul(_slice_scalar(weights, i), ad.embedding_lookup(params["states"], i))
                   for i in range(4)]
            return ad.reduce_sum(ad.sum_over(ctx))

        report = check_gradients(loss_fn, params, name="attention")
        assert report.passed, report.worst

    def test_long_chain_matches_analytic_gradient(self):
        # 10,000 rounds of tanh(h + b) make a chain of 20,000 nodes
        x = ad.tensor(np.array([0.5, -0.2, 0.1]), requires_grad=True)
        b = ad.tensor(np.array([1e-4, 0.0, -1e-4]), requires_grad=True)
        h = x
        for _ in range(10_000):
            h = ad.tanh(ad.add(h, b))
        ad.backward(ad.reduce_sum(h))
        states = [x.data]
        for _ in range(10_000):
            states.append(np.tanh(states[-1] + b.data))
        g, g_b = np.ones(3), np.zeros(3)
        for s in reversed(states[1:]):
            g = g * (1.0 - s * s)
            g_b = g_b + g
        assert np.all(g != 0.0)
        np.testing.assert_allclose(x.grad, g, rtol=1e-12)
        np.testing.assert_allclose(b.grad, g_b, rtol=1e-12)

    def test_two_losses_on_a_shared_subgraph_sum(self):
        rng = np.random.default_rng(23)
        w = ad.uniform((4, 3), rng, scale=1.0)
        x, r = ad.tensor(rng.normal(size=3)), ad.tensor(rng.normal(size=4))

        def losses():
            h = ad.tanh(ad.matmul(w, x))
            return ad.reduce_sum(ad.tanh(h)), ad.dot(h, r)

        grads = []
        for pick in (0, 1):
            w.zero_grad()
            ad.backward(losses()[pick])
            grads.append(w.grad.copy())
        w.zero_grad()
        for loss in losses():
            ad.backward(loss)
        np.testing.assert_allclose(w.grad, grads[0] + grads[1], rtol=1e-12)

    @pytest.mark.parametrize("op, a_shape, b_shape", PRODUCTS.values(), ids=PRODUCTS)
    def test_product_gradcheck(self, op, a_shape, b_shape):
        # non-square shapes, so a transposed gradient fails on its shape, and
        # init scale 1.0 with tanh, so a wrong value shows by any measure
        rng = np.random.default_rng(5)
        params = {"a": ad.uniform(a_shape, rng, scale=1.0),
                  "b": ad.uniform(b_shape, rng, scale=1.0)}

        def loss_fn():
            return ad.reduce_sum(ad.tanh(op(params["a"], params["b"])))

        report = check_gradients(loss_fn, params, name="product")
        assert report.passed, report.worst

    def test_matmul_of_two_vectors_names_dot(self):
        with pytest.raises(ShapeError, match="dot"):
            ad.matmul(ad.tensor(np.ones(3)), ad.tensor(np.ones(3)))

    def test_gradcheck_catches_wrong_small_gradient(self):
        # every true gradient is 1e-5; the wrong backward halves it
        w = ad.uniform((4,), np.random.default_rng(3))

        def loss_fn(wrong):
            y = ad.scale(w, 1e-5)
            if wrong:
                right = y._backward
                y._backward = lambda g: right(0.5 * g)
            return ad.reduce_sum(y)

        assert check_gradients(lambda: loss_fn(False), {"w": w}).passed
        report = check_gradients(lambda: loss_fn(True), {"w": w})
        assert not report.passed
        assert report.max_rel_error == pytest.approx(0.5, rel=1e-3)


class TestDeferredProducts:
    """A leaf's rank-1 terms from matrix-vector products are summed in one
    product at the end of ``backward``; these pin that sum against numpy."""

    def test_leaf_in_every_product_shape_matches_numpy(self):
        rng = np.random.default_rng(21)
        w = ad.uniform((4, 3), rng, scale=1.0)
        xs = [rng.normal(size=3) for _ in range(3)]
        y, b, c = rng.normal(size=4), rng.normal(size=(3, 2)), rng.normal(size=(4, 3))

        def loss_fn():
            uses = [ad.matmul(w, ad.tensor(x)) for x in xs]
            uses += [ad.matmul(ad.tensor(y), w), ad.matmul(w, ad.tensor(b)),
                     ad.add(w, ad.tensor(c))]
            return ad.sum_over([ad.reduce_sum(ad.tanh(u)) for u in uses])

        ad.backward(loss_fn())
        wd = w.data
        want = sum(np.multiply.outer(1 - np.tanh(wd @ x) ** 2, x) for x in xs)
        want = want + np.multiply.outer(y, 1 - np.tanh(y @ wd) ** 2)
        want = want + (1 - np.tanh(wd @ b) ** 2) @ b.T
        want = want + (1 - np.tanh(wd + c) ** 2)
        np.testing.assert_allclose(w.grad, want, rtol=1e-12, atol=1e-12)
        report = check_gradients(loss_fn, {"w": w}, name="deferred")
        assert report.passed, report.worst

    def test_interior_matrix_in_matrix_vector_products(self):
        # tanh(w) has a backward of its own, so its outer products cannot wait
        rng = np.random.default_rng(22)
        params = {"w": ad.uniform((4, 3), rng, scale=1.0),
                  "x": ad.uniform((3,), rng, scale=1.0),
                  "y": ad.uniform((4,), rng, scale=1.0)}

        def loss_fn():
            h = ad.tanh(params["w"])
            uses = [ad.matmul(h, params["x"]), ad.matmul(h, ad.tanh(params["x"])),
                    ad.matmul(params["y"], h)]
            return ad.sum_over([ad.reduce_sum(ad.tanh(u)) for u in uses])

        report = check_gradients(loss_fn, params, name="interior")
        assert report.passed, report.worst

    def test_raising_backward_leaves_no_pending_terms(self):
        rng = np.random.default_rng(24)
        w = ad.uniform((4, 3), rng, scale=1.0)
        x = ad.uniform((3,), rng, scale=1.0)

        def failing(a):
            def bwd(g):
                raise ArithmeticError("backward of a test op")
            return ad._make(a.data.copy(), (a,), bwd)

        # the product runs its backward, deferring w's terms, before the op
        with pytest.raises(ArithmeticError):
            ad.backward(ad.reduce_sum(ad.matmul(w, failing(x))))
        w.zero_grad()
        ad.backward(ad.reduce_sum(ad.matmul(w, ad.tensor(x.data))))
        assert np.array_equal(w.grad, np.multiply.outer(np.ones(4), x.data))


def _slice_scalar(vec, i):
    """Pick one entry of a 1D tensor as a scalar tensor (test helper)."""
    n = vec.data.shape[0]
    one_hot = ad.tensor(np.eye(n)[i])
    return ad.dot(vec, one_hot)


class TestDeterminism:
    def test_same_seed_same_values(self):
        def run(seed):
            rng = np.random.default_rng(seed)
            w = ad.uniform((4, 4), rng)
            x = ad.tensor(rng.normal(size=4))
            loss = ad.reduce_sum(ad.tanh(ad.matmul(x, w)))
            ad.backward(loss)
            return float(loss.data), w.grad.copy()

        l1, g1 = run(42)
        l2, g2 = run(42)
        assert l1 == l2
        assert np.array_equal(g1, g2)

    def test_dtype_switch(self):
        try:
            ad.set_dtype(np.float32)
            t = ad.zeros(3)
            assert t.data.dtype == np.float32
        finally:
            ad.set_dtype(np.float64)
        assert ad.zeros(3).data.dtype == np.float64


class TestAdam:
    def test_zero_gradient_keeps_params(self):
        w = ad.tensor(np.array([1.0, 2.0]), requires_grad=True)
        opt = ad.Adam([w], lr=0.1)
        w.grad = np.zeros(2)
        before = w.data.copy()
        opt.step()
        assert np.array_equal(w.data, before)

    def test_fixed_table_untouched_after_100_steps(self):
        rng = np.random.default_rng(3)
        fixed = ad.tensor(rng.normal(size=(6, 4)), requires_grad=False)
        trainable = ad.tensor(rng.normal(size=(6, 4)), requires_grad=True)
        snapshot = fixed.data.copy()
        opt = ad.Adam([fixed, trainable], lr=0.05)
        for _ in range(100):
            fixed.grad = rng.normal(size=(6, 4))
            trainable.grad = rng.normal(size=(6, 4))
            opt.step()
        assert np.array_equal(fixed.data, snapshot)
        assert not np.array_equal(trainable.data, snapshot)

    def test_descends_on_quadratic(self):
        w = ad.tensor(np.array(1.0), requires_grad=True)
        opt = ad.Adam([w], lr=0.1)
        loss = ad.mul(w, w)
        ad.backward(loss)
        opt.step()
        assert 0.0 < float(w.data) < 1.0

    def test_step_matches_the_textbook_update_bit_for_bit(self):
        rng = np.random.default_rng(9)
        w = ad.tensor(rng.normal(size=(5, 3)), requires_grad=True)
        opt = ad.Adam([w], lr=0.01, betas=(0.8, 0.95), eps=1e-6)
        data, m, v = w.data.copy(), np.zeros((5, 3)), np.zeros((5, 3))
        for t in range(1, 6):
            g = rng.normal(size=(5, 3))
            w.grad = g.copy()
            opt.step()
            m = 0.8 * m + (1 - 0.8) * g
            v = 0.95 * v + (1 - 0.95) * (g * g)
            m_hat = m / (1 - 0.8 ** t)
            v_hat = v / (1 - 0.95 ** t)
            data = data - 0.01 * m_hat / (np.sqrt(v_hat) + 1e-6)
            assert np.array_equal(w.data, data)

    def test_clip_grad_norm(self):
        w = ad.tensor(np.zeros(3), requires_grad=True)
        w.grad = np.array([3.0, 4.0, 0.0])
        norm = ad.clip_grad_norm([w], 1.0)
        assert norm == pytest.approx(5.0)
        assert np.linalg.norm(w.grad) == pytest.approx(1.0)
