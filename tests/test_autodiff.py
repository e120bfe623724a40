import gc
import math
import re
import sys

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import array_shapes, arrays

from boxparse import autodiff as ad
from boxparse.errors import BoxparseError, ConfigError, NumericError, ShapeError
from boxparse.gradcheck import check_gradients


# every shape a product takes: a vector is a row on the left of a matrix and
# a column on its right, and two vectors meet only in ``dot``
PRODUCTS = {
    "matmul_1d_2d": (ad.matmul, (3,), (3, 4)),
    "matmul_2d_1d": (ad.matmul, (4, 3), (3,)),
    "matmul_2d_2d": (ad.matmul, (2, 3), (3, 4)),
    "dot": (ad.dot, (3,), (3,)),
}

# one graph node of each op, on a vector v, a vector u, a matrix m and a scalar s
OPS = {
    "add": lambda v, u, m, s: ad.add(v, u),
    "mul": lambda v, u, m, s: ad.mul(s, v),
    "dot": lambda v, u, m, s: ad.dot(v, u),
    "matmul": lambda v, u, m, s: ad.matmul(m, v),
    "tanh": lambda v, u, m, s: ad.tanh(v),
    "concat": lambda v, u, m, s: ad.concat([s, v, s]),
    "softmax": lambda v, u, m, s: ad.softmax(v),
    "softmax_cross_entropy": lambda v, u, m, s: ad.softmax_cross_entropy(v, 2),
    "embedding_lookup": lambda v, u, m, s: ad.embedding_lookup(m, 1),
    "scale": lambda v, u, m, s: ad.scale(v, 0.5),
}


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
            ad.mul(ad.tensor(np.ones(2)), ad.tensor(np.ones(3)))
        with pytest.raises(ShapeError):
            ad.matmul(ad.tensor(np.ones((2, 3))), ad.tensor(np.ones((2, 3))))
        for join in ad.concat, ad.sum_over:
            with pytest.raises(ShapeError):
                join([])
        # a mask all masked out, of another shape than the logits, or one
        # that numpy reads as no bool or integer array
        for mask in ([False, False, False], [True, True], ["a", "b", "c"], [0.5, 1.0, 1.0],
                     [np.nan, 1.0, 1.0], [[1], [1, 0]]):
            with pytest.raises(ShapeError):
                ad.softmax(ad.tensor(np.ones(3)), mask=mask)
        with pytest.raises(ShapeError):
            ad.backward(ad.tensor(np.ones(2)))

    @pytest.mark.parametrize("data", [
        "a", [[1], [1, 2]], None, [1.0, None], 1j, np.array([1j]), ["1.5"], np.array(["2"]),
        [b"1"], np.datetime64("2020-01-01"), np.array([1, 2], dtype="timedelta64[s]"),
    ], ids=["string", "ragged", "none", "none_in_list", "complex", "complex_array",
            "number_string", "number_string_array", "bytes", "datetime", "timedelta"])
    def test_data_that_is_no_float_array_raises_shape_error(self, data):
        with pytest.raises(ShapeError):
            ad.tensor(data)

    @pytest.mark.parametrize("make", [
        lambda: ad.zeros(-1), lambda: ad.zeros("a"),
        lambda: ad.uniform((-1,), np.random.default_rng(0)),
        lambda: ad.uniform((2.5,), np.random.default_rng(0)),
    ], ids=["zeros_negative", "zeros_string", "uniform_negative", "uniform_float"])
    def test_shape_that_is_no_tuple_of_sizes_raises_shape_error(self, make):
        with pytest.raises(ShapeError):
            make()

    @pytest.mark.parametrize("scale", [float("nan"), float("inf"), 1e308])
    def test_scale_that_uniform_cannot_draw_from_raises_numeric_error(self, scale):
        with pytest.raises(NumericError, match=re.escape(f"scale={scale}")):
            ad.uniform((2,), np.random.default_rng(0), scale=scale)

    @pytest.mark.parametrize("logits", [[np.nan, 1.0], [np.inf, 1.0], [1.0, np.nan]],
                             ids=["nan", "inf", "nan_last"])
    def test_logits_whose_largest_is_not_finite_raise_numeric_error(self, logits):
        with pytest.raises(NumericError, match="largest"):
            ad.softmax(ad.tensor(logits))
        with pytest.raises(NumericError, match="largest"):
            ad.softmax_cross_entropy(ad.tensor(logits), 1)

    def test_logit_spread_that_overflows_gives_zero_probability(self):
        p = ad.softmax(ad.tensor([1e308, -1e308]))
        assert np.array_equal(p.data, [1.0, 0.0])
        assert float(ad.softmax_cross_entropy(ad.tensor([1e308, -1e308]), 0).data) == 0.0

    @pytest.mark.parametrize("logits, loss", [([800.0, 0.0], 800.0), ([0.0, -800.0], 800.0),
                                              ([800.0, 0.0, 800.0], 800.0 - np.log(0.5)),
                                              ([745.0, 0.0], 745.0), ([740.0, 0.0], 740.0)],
                             ids=["zero", "zero_negative", "zero_two_largest",
                                  "subnormal", "subnormal_more_digits"])
    def test_target_whose_probability_underflows_gets_its_finite_loss(self, logits, loss):
        logits = ad.tensor(logits, requires_grad=True)
        out = ad.softmax_cross_entropy(logits, 1)
        assert float(out.data) == pytest.approx(loss, rel=1e-15)
        ad.backward(out)
        assert logits.grad[1] == -1.0

    def test_loss_of_a_spread_that_overflows_raises_numeric_error(self):
        with pytest.raises(NumericError, match="cross-entropy"):
            ad.softmax_cross_entropy(ad.tensor([1e308, -1e308]), 1)

    def test_masked_out_target_raises_shape_error(self):
        with pytest.raises(ShapeError, match="masked out"):
            ad.softmax_cross_entropy(ad.tensor([800.0, 0.0]), 1, mask=[True, False])

    def test_masked_out_nan_logit_is_ignored(self):
        p = ad.softmax(ad.tensor([np.nan, 1.0, 1.0]), mask=[False, True, True])
        assert np.array_equal(p.data, [0.0, 0.5, 0.5])

    def test_empty_softmax_raises_shape_error(self):
        with pytest.raises(ShapeError):
            ad.softmax(ad.tensor([]))
        with pytest.raises(ShapeError):
            ad.softmax_cross_entropy(ad.tensor([]), 0)

    def test_embedding_lookup(self):
        table = ad.tensor(np.arange(12.0).reshape(4, 3), requires_grad=True)
        row = ad.embedding_lookup(table, 2)
        assert np.allclose(row.data, [6.0, 7.0, 8.0])
        ad.backward(ad.reduce_sum(row))
        assert np.allclose(table.grad[2], 1.0)
        assert np.allclose(table.grad[[0, 1, 3]], 0.0)

    @pytest.mark.parametrize("index", [1.5, "1", None, np.float64(1.0), 4, -1, True, np.True_])
    def test_index_that_is_no_integer_in_range_raises_shape_error(self, index):
        table = ad.tensor(np.ones((4, 3)), requires_grad=True)
        with pytest.raises(ShapeError):
            ad.embedding_lookup(table, index)
        with pytest.raises(ShapeError):
            ad.softmax_cross_entropy(ad.tensor(np.zeros(4)), index)

    def test_numpy_integer_index(self):
        table = ad.tensor(np.arange(12.0).reshape(4, 3))
        assert np.array_equal(ad.embedding_lookup(table, np.int64(1)).data, [3.0, 4.0, 5.0])
        loss = ad.softmax_cross_entropy(ad.tensor(np.zeros(4)), np.int32(3))
        assert float(loss.data) == pytest.approx(math.log(4))


# concat's parts: 0-d only (attention scores), 1D only (state vectors), and
# both (a bias entry joined to features)
CONCAT_PARTS = {"scalars": [(), (), ()], "vectors": [(2,), (3,)], "mixed": [(), (2,), ()]}


class TestConcat:
    @pytest.mark.parametrize("shapes", CONCAT_PARTS.values(), ids=CONCAT_PARTS)
    def test_values_and_gradients(self, shapes):
        rng = np.random.default_rng(31)
        params = {f"p{i}": ad.uniform(shape, rng, scale=1.0) for i, shape in enumerate(shapes)}
        out = ad.concat(list(params.values()))
        want = np.concatenate([np.ravel(p.data) for p in params.values()])
        assert out.shape == want.shape
        assert np.array_equal(out.data, want)
        weights = ad.tensor(rng.normal(size=want.shape))

        def loss_fn():
            return ad.reduce_sum(ad.tanh(ad.mul(ad.concat(list(params.values())), weights)))

        report = check_gradients(loss_fn, params)
        assert report.passed, report.worst
        for p in params.values():
            assert p.grad.shape == p.data.shape

    @pytest.mark.parametrize("shapes", CONCAT_PARTS.values(), ids=CONCAT_PARTS)
    def test_2d_part_raises_shape_error(self, shapes):
        parts = [ad.tensor(np.ones(shape)) for shape in shapes] + [ad.tensor(np.ones((2, 2)))]
        with pytest.raises(ShapeError):
            ad.concat(parts)


def ownership_graph():
    """Leaves and a loss built from them. The leaves that only ``add``,
    ``sum_over`` or ``concat`` use take their first gradient from an op that
    passes its own on unchanged; the others meet ops that compute theirs
    fresh."""
    rng = np.random.default_rng(41)
    w = ad.uniform((3, 4), rng, scale=1.0)
    a1, a2, q1, q2, r, x = (ad.uniform((4,), rng, scale=1.0) for _ in range(6))
    s1, s2, s3 = (ad.uniform((), rng, scale=1.0) for _ in range(3))
    leaves = [w, a1, a2, q1, q2, r, x, s1, s2, s3]
    summed = ad.sum_over([q1, q2, ad.add(a1, a2)])
    joined = ad.concat([s1, r, s2])
    scores = ad.concat([ad.dot(summed, x), s3, ad.dot(x, x)])
    h = ad.tanh(ad.matmul(w, ad.mul(s3, summed)))
    loss = ad.add(ad.reduce_sum(ad.mul(joined, joined)),
                  ad.add(ad.dot(h, h), ad.reduce_sum(ad.softmax(scores))))
    return leaves, loss


def graph_tensors(loss):
    """Every tensor reachable from ``loss``."""
    seen, stack = {id(loss): loss}, [loss]
    while stack:
        for p in stack.pop()._parents:
            if id(p) not in seen:
                seen[id(p)] = p
                stack.append(p)
    return list(seen.values())


class TestGradientOwnership:
    def test_no_two_tensors_share_a_gradient(self):
        leaves, loss = ownership_graph()
        ad.backward(loss)
        grads = [t.grad for t in graph_tensors(loss) if t.grad is not None]
        assert len(grads) > 15 and all(t.grad is not None for t in leaves)
        for i, g in enumerate(grads):
            assert isinstance(g, np.ndarray)
            for other in grads[i + 1:]:
                assert not np.shares_memory(g, other)

    def test_clipping_leaf_gradients_leaves_interior_ones_unchanged(self):
        leaves, loss = ownership_graph()
        ad.backward(loss)
        interior = [t for t in graph_tensors(loss) if t._parents]
        before = [t.grad.copy() for t in interior]
        norm = ad.clip_grad_norm(leaves, 1e-3)
        assert norm > 1e-3  # so every leaf gradient was scaled in place
        for t, g in zip(interior, before):
            assert np.array_equal(t.grad, g)


class TestBackward:
    def test_sum_of_squares(self):
        w = ad.tensor(np.array([1.0, 2.0, 3.0]), requires_grad=True)
        loss = ad.reduce_sum(ad.mul(w, w))
        ad.backward(loss)
        assert np.allclose(w.grad, [2.0, 4.0, 6.0])

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_loss_that_is_not_finite_raises_before_any_grad_is_written(self, bad):
        w = ad.tensor(np.array([1.0, 2.0]), requires_grad=True)
        ad.backward(ad.reduce_sum(ad.mul(w, w)))
        before = w.grad.copy()
        product = ad.mul(w, ad.tensor([bad, 1.0]))
        loss = ad.reduce_sum(product)
        with pytest.raises(NumericError, match="loss is"):
            ad.backward(loss)
        assert np.array_equal(w.grad, before)
        assert loss.grad is None and product.grad is None

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

        def counting(node, g):
            calls["n"] += 1
            orig(node, g)

        y._backward = counting
        z = ad.add(y, y)  # diamond: y feeds z twice
        ad.backward(ad.reduce_sum(z))
        assert calls["n"] == 1
        assert np.allclose(x.grad, 2 * (1 - np.tanh(x.data) ** 2))

    def test_runs_newest_first_when_the_walk_finds_nodes_out_of_order(self):
        x = ad.tensor(np.array([0.3, -0.7]), requires_grad=True)
        a = ad.tanh(x)
        b = ad.tanh(a)
        c = ad.scale(a, 2.0)
        e = ad.add(a, ad.mul(b, c))  # the walk reaches a from e before b and c
        loss = ad.reduce_sum(e)
        interior = [t for t in graph_tensors(loss) if t._parents]
        calls = []
        for t in interior:
            def hook(node, g, run=t._backward):
                calls.append(node)
                run(node, g)
            t._backward = hook
        ad.backward(loss)
        assert sorted(map(id, calls)) == sorted(map(id, interior))
        created = [t._created for t in calls]
        assert all(older < newer for newer, older in zip(created, created[1:]))
        ran = {id(t): i for i, t in enumerate(calls)}
        for t in calls:
            for p in t._parents:
                if p._parents:
                    assert ran[id(p)] > ran[id(t)]
        y = np.tanh(x.data)
        # e = a + 2a tanh(a) with a = tanh(x)
        want = (1 - y * y) * (1 + 2 * np.tanh(y) + 2 * y * (1 - np.tanh(y) ** 2))
        np.testing.assert_allclose(x.grad, want, rtol=1e-12)

    def test_mlp_matches_finite_differences(self):
        # a 5-4-3-2 tanh MLP with a cross-entropy loss
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

        report = check_gradients(loss_fn, params)
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

        report = check_gradients(loss_fn, params)
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

        report = check_gradients(loss_fn, params)
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
                y._backward = lambda node, g: right(node, 0.5 * g)
            return ad.reduce_sum(y)

        assert check_gradients(lambda: loss_fn(False), {"w": w}).passed
        report = check_gradients(lambda: loss_fn(True), {"w": w})
        assert not report.passed
        assert report.max_rel_error == pytest.approx(0.5, rel=1e-3)

    def test_gradcheck_of_a_zero_size_parameter_checks_no_entry(self):
        w = ad.uniform((3,), np.random.default_rng(4), scale=1.0)
        empty = ad.zeros((0,), requires_grad=True)

        def loss_fn():
            return ad.reduce_sum(ad.tanh(ad.concat([w, empty])))

        report = check_gradients(loss_fn, {"w": w, "empty": empty})
        assert report.passed, report.worst
        assert report.n_checked == 3


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
        report = check_gradients(loss_fn, {"w": w})
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

        report = check_gradients(loss_fn, params)
        assert report.passed, report.worst

    def test_raising_backward_leaves_no_pending_terms(self):
        rng = np.random.default_rng(24)
        w = ad.uniform((4, 3), rng, scale=1.0)
        x = ad.uniform((3,), rng, scale=1.0)

        def failing(a):
            def bwd(node, g):
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

    def test_every_op_and_gradient_is_float64(self):
        rng = np.random.default_rng(43)
        w = ad.uniform((3, 4), rng)
        table = ad.uniform((5, 4), rng)
        x, s = ad.uniform((4,), rng), ad.uniform((), rng)
        row = ad.embedding_lookup(table, 2)
        outs = [row, ad.add(x, row), ad.add(ad.tensor(np.ones((2, 4))), x), ad.add(x, s),
                ad.scale(x, np.float32(0.5)), ad.mul(x, row), ad.mul(s, x),
                ad.matmul(w, x), ad.matmul(ad.matmul(w, x), w),
                ad.matmul(w, ad.tensor(np.ones((4, 2)))), ad.tanh(x), ad.tanh(s),
                ad.concat([s, x]), ad.sum_over([x, row]), ad.softmax(x, mask=[1, 0, 1, 1])]
        scalars = [ad.dot(x, row), ad.reduce_sum(w), ad.softmax_cross_entropy(x, 1)]
        for t in scalars:
            assert type(t.data) is np.ndarray and t.data.shape == ()
        loss = ad.sum_over(scalars + [ad.reduce_sum(t) for t in outs])
        ad.backward(loss)
        for t in graph_tensors(loss):
            assert t.data.dtype == np.float64
            if t.grad is not None:
                assert t.grad.dtype == np.float64
                assert t.grad.shape == t.data.shape
        assert all(t.grad is not None for t in outs + scalars + [w, table, x, s])


class TestGraphObjects:
    """The cyclic garbage collector visits every object it tracks; a graph
    node costs it two, the Tensor and its parents tuple."""

    @pytest.mark.parametrize("op", OPS.values(), ids=OPS)
    def test_a_node_holds_two_tracked_objects(self, op):
        rng = np.random.default_rng(31)
        v, u, m, s = (ad.uniform(shape, rng) for shape in ((4,), (4,), (3, 4), ()))
        enabled = gc.isenabled()
        gc.disable()  # so that no collection untracks anything meanwhile
        try:
            before = len(gc.get_objects())
            nodes = [op(v, u, m, s) for _ in range(1000)]
            grown = len(gc.get_objects()) - before
        finally:
            if enabled:
                gc.enable()
        assert all(n._parents for n in nodes)
        assert grown <= 2010


class TestWantsGradient:
    """``requires_grad`` says of every tensor whether it wants a gradient:
    an op's output wants one when an operand does, and only then links to
    its operands."""

    @staticmethod
    def operands(requires_grad: bool) -> list[ad.Tensor]:
        rng = np.random.default_rng(31)
        return [ad.tensor(rng.uniform(-1.0, 1.0, shape), requires_grad=requires_grad)
                for shape in ((4,), (4,), (3, 4), ())]

    @pytest.mark.parametrize("op", OPS.values(), ids=OPS)
    def test_op_on_an_operand_that_wants_a_gradient_wants_one(self, op):
        out = op(*self.operands(True))
        assert out.requires_grad is True and out._parents
        # an operand that wants one because its own operand does counts too
        assert ad.tanh(out).requires_grad is True

    @pytest.mark.parametrize("op", OPS.values(), ids=OPS)
    def test_op_on_constants_only_wants_no_gradient(self, op):
        out = op(*self.operands(False))
        assert out.requires_grad is False and out._parents == ()


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
        opt = ad.Adam([w], lr=0.01)
        data, m, v = w.data.copy(), np.zeros((5, 3)), np.zeros((5, 3))
        for t in range(1, 6):
            g = rng.normal(size=(5, 3))
            w.grad = g.copy()
            opt.step()
            m = 0.9 * m + (1 - 0.9) * g
            v = 0.999 * v + (1 - 0.999) * (g * g)
            m_hat = m / (1 - 0.9 ** t)
            v_hat = v / (1 - 0.999 ** t)
            data = data - 0.01 * m_hat / (np.sqrt(v_hat) + 1e-8)
            assert np.array_equal(w.data, data)

    @pytest.mark.parametrize("grad", [[np.inf, 0.0, 0.0], [np.nan, 0.0, 0.0], [1e200] * 3],
                             ids=["inf", "nan", "square_overflows"])
    def test_step_with_a_non_finite_gradient_square_raises_and_changes_nothing(self, grad):
        u = ad.tensor(np.array([0.5, -0.5]), requires_grad=True)
        w = ad.tensor(np.ones(3), requires_grad=True)
        opt = ad.Adam([u, w], lr=0.1)
        u.grad, w.grad = np.array([1.0, 2.0]), np.array([1.0, 1.0, 1.0])
        opt.step()
        before = [x.copy() for x in (u.data, w.data, *opt.m, *opt.v)]
        u.grad, w.grad = np.array([1.0, 2.0]), np.array(grad)
        with pytest.raises(NumericError, match="Adam step"):
            opt.step()
        for x, was in zip((u.data, w.data, *opt.m, *opt.v), before):
            np.testing.assert_array_equal(x, was)
        assert opt.t == 1

    def test_clip_grad_norm(self):
        w = ad.tensor(np.zeros(3), requires_grad=True)
        w.grad = np.array([3.0, 4.0, 0.0])
        norm = ad.clip_grad_norm([w], 1.0)
        assert norm == pytest.approx(5.0)
        assert np.linalg.norm(w.grad) == pytest.approx(1.0)

    def test_clip_grad_norm_of_a_gradient_whose_square_overflows(self):
        w = ad.tensor(np.zeros(2), requires_grad=True)
        w.grad = np.array([1e200, 0.0])
        assert ad.clip_grad_norm([w], 2.0) == 1e200
        np.testing.assert_array_equal(w.grad, [2.0, 0.0])

    @pytest.mark.parametrize("bad", [np.inf, np.nan], ids=["inf", "nan"])
    def test_clip_grad_norm_of_a_non_finite_gradient_raises(self, bad):
        u = ad.tensor(np.zeros(2), requires_grad=True)
        w = ad.tensor(np.zeros(3), requires_grad=True)
        u.grad, w.grad = np.array([40.0, -2.0]), np.array([3.0, bad, 0.0])
        before = [u.grad.copy(), w.grad.copy()]
        with pytest.raises(NumericError, match="gradient norm"):
            ad.clip_grad_norm([u, w], 1.0)
        for t, g in zip((u, w), before):
            np.testing.assert_array_equal(t.grad, g)


# -- the numeric contract: any data gives a result or a BoxparseError ---------

# ordinary, huge, infinite and NaN floats
NUMBERS = st.one_of(st.floats(-3.0, 3.0), st.sampled_from(
    [1e200, -1e200, sys.float_info.max, math.inf, -math.inf, math.nan]))
# op name -> the op on two pool tensors, a float and an int
OPS = {
    "add": lambda a, b, k, n: ad.add(a, b),
    "mul": lambda a, b, k, n: ad.mul(a, b),
    "scale": lambda a, b, k, n: ad.scale(a, k),
    "matmul": lambda a, b, k, n: ad.matmul(a, b),
    "dot": lambda a, b, k, n: ad.dot(a, b),
    "concat": lambda a, b, k, n: ad.concat([a, b]),
    "sum_over": lambda a, b, k, n: ad.sum_over([a, b]),
    "tanh": lambda a, b, k, n: ad.tanh(a),
    "reduce_sum": lambda a, b, k, n: ad.reduce_sum(a),
    "softmax": lambda a, b, k, n: ad.softmax(a),
    "softmax_cross_entropy": lambda a, b, k, n: ad.softmax_cross_entropy(a, n),
    "embedding_lookup": lambda a, b, k, n: ad.embedding_lookup(a, n),
}
LEAVES = st.lists(st.tuples(st.booleans(), arrays(np.float64, array_shapes(
    min_dims=0, max_dims=2, min_side=0, max_side=3), elements=NUMBERS)), min_size=1, max_size=4)
PROGRAM_OPS = st.lists(st.tuples(st.sampled_from(sorted(OPS)), st.integers(0, 7),
                                 st.integers(0, 7), NUMBERS, st.integers(-1, 3)), max_size=6)
# good and bad settings, each half the time
MAX_NORMS = st.one_of(st.sampled_from([1.0, math.inf]), st.sampled_from([0.0, -1.0, math.nan]))
LEARNING_RATES = st.one_of(st.just(0.01), st.sampled_from([0.0, -0.01, math.inf, math.nan]))


def setting_call(call, setting, good: bool, fallback, params: list):
    """``call(setting)``, which raises ``ConfigError`` if and only if the
    setting is not ``good``. A bad one must change no parameter or gradient,
    and then ``call(fallback)``, a good setting, runs so the program goes on."""
    held = [(p.data.copy(), None if p.grad is None else p.grad.copy()) for p in params]
    try:
        out = call(setting)
    except BoxparseError as e:
        assert isinstance(e, ConfigError) != good, e
        if good:
            raise
    else:
        assert good, f"{setting} raised nothing"
        return out
    for p, (data, grad) in zip(params, held):
        np.testing.assert_array_equal(p.data, data)
        assert (p.grad is None) if grad is None else np.array_equal(p.grad, grad, equal_nan=True)
    return call(fallback)


@given(LEAVES, PROGRAM_OPS, st.lists(st.booleans(), max_size=4), MAX_NORMS, LEARNING_RATES,
       st.integers(1, 3))
@settings(max_examples=300, deadline=None)
# tanh saturates at an infinite input, so the loss is finite and the
# parameter's gradient 0 * inf, NaN, which no clip_grad_norm call saw
@example([(True, np.ones(1)), (False, np.full(1, math.inf))],
         [("mul", 0, 1, 1.0, 0), ("tanh", 2, 2, 1.0, 0), ("reduce_sum", 3, 3, 1.0, 0)],
         [False], 1.0, 0.01, 1)
def test_op_programs_keep_the_numeric_contract(leaves, ops, clipped, max_norm, lr, steps):
    """Forward, ``backward``, ``clip_grad_norm`` over the parameters that
    ``clipped`` marks, as a caller that clips one group only, and
    ``Adam.step``, ``steps`` times: only a ``BoxparseError`` escapes, and no
    parameter entry that was finite becomes NaN or infinite. A ``max_norm``
    that is not above 0 and a learning rate that is not finite and above 0
    raise ``ConfigError`` where they are given, before anything changes; the
    program then goes on with ``max_norm`` 1 or learning rate 0.01."""
    tensors = [ad.tensor(x.copy(), requires_grad=p) for p, x in leaves]
    params = [t for t in tensors if t.requires_grad]
    finite = [np.isfinite(p.data) for p in params]
    # A numpy warning is no escape: the result or the error that follows it
    # is what counts. But pyproject.toml's filterwarnings = error would turn
    # one, say mul's overflow, into an exception.
    with np.errstate(all="ignore"):
        try:
            opt = setting_call(lambda lr: ad.Adam(params, lr=lr), lr, 0.0 < lr < math.inf,
                               0.01, params)
            for _ in range(steps):
                pool = list(tensors)
                for name, i, j, k, n in ops:
                    pool.append(OPS[name](pool[i % len(pool)], pool[j % len(pool)], k, n))
                loss = pool[-1] if pool[-1].data.ndim == 0 else ad.reduce_sum(pool[-1])
                opt.zero_grad()
                ad.backward(loss)
                group = [p for p, c in zip(params, clipped) if c]
                setting_call(lambda m: ad.clip_grad_norm(group, m), max_norm, max_norm > 0.0,
                             1.0, params)
                opt.step()
        except BoxparseError:
            pass
    for p, was in zip(params, finite):
        assert np.isfinite(p.data[was]).all()
