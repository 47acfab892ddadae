import contextlib
import weakref

import numpy as np
import pytest

import taskgate as tg
from taskgate import Tape, Tensor

from gradcheck import assert_grads_match, numeric_grad, relative_error


class TestMatmul:
    def test_identity(self):
        eye = Tensor(np.eye(2))
        a = Tensor([[1.0, 2.0], [3.0, 4.0]])
        np.testing.assert_array_equal(tg.matmul(eye, a).data, a.data)

    def test_hand_product(self):
        a = Tensor([[1.0, 2.0], [3.0, 4.0]])
        b = Tensor([[5.0], [6.0]])
        np.testing.assert_array_equal(tg.matmul(a, b).data, [[17.0], [39.0]])

    def test_backward_hand_values(self):
        a = Tensor([[1.0, 2.0]], requires_grad=True)
        b = Tensor([[3.0], [4.0]], requires_grad=True)
        with Tape() as tape:
            loss = tg.matmul(a, b).sum()
        tape.backward(loss)
        np.testing.assert_allclose(a.grad, [[3.0, 4.0]])
        np.testing.assert_allclose(b.grad, [[1.0], [2.0]])

    def test_matches_finite_differences(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            a = Tensor(rng.standard_normal((3, 4)), requires_grad=True)
            b = Tensor(rng.standard_normal((4, 2)), requires_grad=True)
            assert_grads_match(lambda: tg.matmul(a, b).sum(), [a, b])

    def test_shape_mismatch_names_both_shapes(self):
        a = Tensor(np.zeros((2, 3)))
        b = Tensor(np.zeros((2, 3)))
        with pytest.raises(tg.ShapeError, match=r"\(2, 3\).*\(2, 3\)"):
            tg.matmul(a, b)


def unfused_linear(x, w, b):
    return tg.add(tg.matmul(x, tg.permute(w, (1, 0))), b)


class TestLinear:
    @staticmethod
    def outputs(op, x, w, b, upstream):
        """Forward values and the three gradients under a general upstream."""
        for t in (x, w, b):
            t.grad = None
        with Tape() as tape:
            out = op(x, w, b)
            loss = tg.reduce_sum(tg.mul(out, Tensor(upstream)))
        tape.backward(loss)
        return out.data, x.grad, w.grad, b.grad

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("batch, fan_in, fan_out", [(7, 5, 3), (64, 48, 48)])
    def test_bits_match_unfused_composition(self, dtype, batch, fan_in, fan_out):
        rng = np.random.default_rng(batch + fan_in)
        x, w, b = (Tensor(rng.standard_normal(shape).astype(dtype), requires_grad=True)
                   for shape in ((batch, fan_in), (fan_out, fan_in), (fan_out,)))
        upstream = rng.standard_normal((batch, fan_out)).astype(dtype)
        fused = self.outputs(tg.linear, x, w, b, upstream)
        composed = self.outputs(unfused_linear, x, w, b, upstream)
        for f, c in zip(fused, composed):
            assert f.dtype == c.dtype == dtype and f.shape == c.shape
            assert f.tobytes() == c.tobytes()

    def test_matches_finite_differences(self):
        rng = np.random.default_rng(8)
        for _ in range(20):
            x = Tensor(rng.standard_normal((3, 4)), requires_grad=True)
            w = Tensor(rng.standard_normal((2, 4)), requires_grad=True)
            b = Tensor(rng.standard_normal(2), requires_grad=True)
            c = Tensor(rng.standard_normal((3, 2)))
            assert_grads_match(lambda: tg.reduce_sum(tg.mul(tg.linear(x, w, b), c)),
                               [x, w, b])

    def test_no_input_gradient_when_input_needs_none(self):
        rng = np.random.default_rng(9)
        inputs = rng.standard_normal((4, 5))
        w = Tensor(rng.standard_normal((3, 5)), requires_grad=True)
        b = Tensor(rng.standard_normal(3), requires_grad=True)
        upstream = rng.standard_normal((4, 3))
        tracked = Tensor(inputs, requires_grad=True)
        _, gx, gw_tracked, gb_tracked = self.outputs(tg.linear, tracked, w, b, upstream)
        assert gx is not None
        raw = Tensor(inputs)
        with Tape() as tape:
            out = tg.linear(raw, w, b)
        # the product is skipped, not computed and dropped
        assert tape.nodes[out.node_id].backward_fn(upstream)[0] is None
        _, gx, gw_raw, gb_raw = self.outputs(tg.linear, raw, w, b, upstream)
        assert gx is None
        np.testing.assert_array_equal(gw_raw, gw_tracked)
        np.testing.assert_array_equal(gb_raw, gb_tracked)

    @pytest.mark.parametrize("x_shape, w_shape, b_shape", [
        ((2, 4), (3, 5), (3,)), ((4,), (3, 4), (3,)), ((2, 4), (3, 4), (4,)),
        ((2, 4), (3, 4, 1), (3,)),
    ], ids=str)
    def test_nonconforming_shapes_are_refused(self, x_shape, w_shape, b_shape):
        x, w, b = (Tensor(np.zeros(shape)) for shape in (x_shape, w_shape, b_shape))
        with pytest.raises(tg.ShapeError, match="linear"):
            tg.linear(x, w, b)


class TestElementwise:
    @pytest.mark.parametrize("op", [tg.add, tg.sub, tg.mul])
    def test_equal_shape_grads(self, op):
        rng = np.random.default_rng(1)
        for _ in range(20):
            a = Tensor(rng.standard_normal((4, 5)), requires_grad=True)
            b = Tensor(rng.standard_normal((4, 5)), requires_grad=True)
            assert_grads_match(lambda: op(a, b).sum(), [a, b])

    def test_sigmoid_at_zero(self):
        x = Tensor(np.zeros(3), requires_grad=True)
        with Tape() as tape:
            loss = tg.sigmoid(x).sum()
        tape.backward(loss)
        np.testing.assert_array_equal(tg.sigmoid(x).data, 0.5 * np.ones(3))
        np.testing.assert_allclose(x.grad, 0.25 * np.ones(3))

    def test_sigmoid_saturates_exactly(self):
        x = Tensor([2400.0, -2400.0])
        y = tg.sigmoid(x).data
        assert y[0] == 1.0
        assert y[1] == 0.0

    def test_sigmoid_matches_finite_differences(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            x = Tensor(rng.standard_normal(7) * 2, requires_grad=True)
            assert_grads_match(lambda: tg.sigmoid(x).sum(), [x])

    def test_relu_values(self):
        x = Tensor([-3.0, 2.0])
        np.testing.assert_array_equal(tg.relu(x).data, [0.0, 2.0])

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("layout", ["contiguous", "strided"])
    def test_relu_bits_match_where_reference(self, dtype, layout):
        info = np.finfo(dtype)
        edges = np.array([0.0, -0.0, np.nan, -np.nan, np.inf, -np.inf,
                          info.smallest_subnormal, -info.smallest_subnormal,
                          info.tiny, -info.tiny, info.max, -info.max, 1.5, -1.5],
                         dtype=dtype)
        if layout == "strided":
            # every other element of a 2-D array, read column-major
            spread = np.zeros((2 * len(edges), 3), dtype=dtype)
            spread[::2, 1] = edges
            x = spread[::2, 1:].T
            assert not x.flags.c_contiguous and not x.flags.f_contiguous
        else:
            x = np.tile(edges, (3, 1))
        out = tg.relu(Tensor(x)).data
        expected = np.where(x > 0, x, 0.0)
        assert out.dtype == expected.dtype == dtype
        assert out.tobytes() == expected.tobytes()

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("layout", ["contiguous", "strided"])
    def test_sigmoid_bits_match_split_reference(self, dtype, layout):
        info = np.finfo(dtype)
        edges = np.array([0.0, -0.0, np.nan, -np.nan, np.inf, -np.inf,
                          info.smallest_subnormal, -info.smallest_subnormal,
                          info.tiny, -info.tiny, info.max, -info.max,
                          800.0, -800.0, 20.0, -20.0, 1.5, -1.5], dtype=dtype)
        if layout == "strided":
            spread = np.zeros((2 * len(edges), 3), dtype=dtype)
            spread[::2, 1] = edges
            x = spread[::2, 1:].T
            assert not x.flags.c_contiguous and not x.flags.f_contiguous
        else:
            x = np.tile(edges, (3, 1))
        out = tg.sigmoid_values(x)
        # split by sign, each side through exp of a nonpositive argument
        expected = np.empty_like(x)
        pos = x >= 0
        expected[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
        below = np.exp(x[~pos])
        expected[~pos] = below / (1.0 + below)
        assert out.dtype == expected.dtype == dtype
        assert out.tobytes() == expected.tobytes()

    def test_relu_grad(self):
        x = Tensor([-3.0, 2.0], requires_grad=True)
        with Tape() as tape:
            loss = tg.relu(x).sum()
        tape.backward(loss)
        np.testing.assert_array_equal(x.grad, [0.0, 1.0])

    def test_clamp_above_range(self):
        x = Tensor([7.0], requires_grad=True)
        with Tape() as tape:
            y = tg.clamp(x, -6.0, 6.0)
            loss = y.sum()
        tape.backward(loss)
        assert y.data[0] == 6.0
        np.testing.assert_array_equal(x.grad, [0.0])

    def test_clamp_gradient_closed_interval(self):
        x = Tensor([-6.0, -1.0, 6.0, 6.5], requires_grad=True)
        with Tape() as tape:
            loss = tg.clamp(x, -6.0, 6.0).sum()
        tape.backward(loss)
        np.testing.assert_array_equal(x.grad, [1.0, 1.0, 1.0, 0.0])

    def test_scale(self):
        x = Tensor([1.0, -2.0], requires_grad=True)
        with Tape() as tape:
            loss = tg.scale(x, 3.0).sum()
        tape.backward(loss)
        np.testing.assert_array_equal(x.grad, [3.0, 3.0])

    def test_broadcast_vector_over_batch(self):
        # gradient of the vector operand accumulates by summation over rows
        rng = np.random.default_rng(3)
        full = Tensor(rng.standard_normal((6, 4)), requires_grad=True)
        vec = Tensor(rng.standard_normal(4), requires_grad=True)
        with Tape() as tape:
            loss = tg.add(full, vec).sum()
        tape.backward(loss)
        np.testing.assert_allclose(vec.grad, 6.0 * np.ones(4))
        np.testing.assert_allclose(full.grad, np.ones((6, 4)))

    @pytest.mark.parametrize("op", [tg.add, tg.sub, tg.mul])
    def test_broadcast_matches_finite_differences(self, op):
        rng = np.random.default_rng(4)
        for _ in range(10):
            full = Tensor(rng.standard_normal((5, 3)), requires_grad=True)
            vec = Tensor(rng.standard_normal(3), requires_grad=True)
            assert_grads_match(lambda: op(full, vec).sum(), [full, vec])
            assert_grads_match(lambda: op(vec, full).sum(), [full, vec])

    def test_broadcast_over_feature_maps(self):
        rng = np.random.default_rng(5)
        full = Tensor(rng.standard_normal((2, 3, 4, 4)), requires_grad=True)
        vec = Tensor(rng.standard_normal(3), requires_grad=True)
        assert_grads_match(lambda: tg.mul(full, vec).sum(), [full, vec])

    def test_incompatible_shapes_raise(self):
        a = Tensor(np.zeros((2, 3)))
        b = Tensor(np.zeros((3, 2)))
        with pytest.raises(tg.ShapeError):
            tg.add(a, b)


class TestConv2d:
    def test_identity_kernel(self):
        rng = np.random.default_rng(6)
        x = Tensor(rng.standard_normal((1, 1, 5, 5)))
        w = Tensor(np.ones((1, 1, 1, 1)))
        out = tg.conv2d(x, w)
        np.testing.assert_array_equal(out.data, x.data)

    def test_hand_sum(self):
        x = Tensor([[[[1.0, 2.0], [3.0, 4.0]]]])
        w = Tensor(np.ones((1, 1, 2, 2)))
        out = tg.conv2d(x, w)
        np.testing.assert_array_equal(out.data, [[[[10.0]]]])

    def test_matches_finite_differences(self):
        rng = np.random.default_rng(7)
        x = Tensor(rng.standard_normal((1, 1, 4, 4)), requires_grad=True)
        w = Tensor(rng.standard_normal((2, 1, 3, 3)), requires_grad=True)
        b = Tensor(rng.standard_normal(2), requires_grad=True)
        assert_grads_match(lambda: tg.conv2d(x, w, b).sum(), [x, w, b],
                           rel_tol=1e-5)

    def test_stride_and_padding(self):
        rng = np.random.default_rng(8)
        x = Tensor(rng.standard_normal((2, 3, 6, 6)), requires_grad=True)
        w = Tensor(rng.standard_normal((4, 3, 3, 3)), requires_grad=True)
        out = tg.conv2d(x, w, stride=2, padding=1)
        assert out.shape == (2, 4, 3, 3)
        assert_grads_match(lambda: tg.conv2d(x, w, stride=2, padding=1).sum(),
                           [x, w])

    def test_kernel_larger_than_padded_input(self):
        x = Tensor(np.zeros((1, 1, 2, 2)))
        w = Tensor(np.zeros((1, 1, 5, 5)))
        with pytest.raises(tg.ShapeError):
            tg.conv2d(x, w)

    @pytest.mark.parametrize("kwargs", [
        {"stride": 0}, {"stride": -1}, {"stride": (1,)}, {"stride": 1.5},
        {"stride": (2, 0)}, {"stride": "2"}, {"stride": True}, {"stride": None},
        {"padding": -1}, {"padding": (0, -1)}, {"padding": 0.5},
        {"padding": (1, 1, 1)}, {"padding": np.int64(-1)},
    ], ids=repr)
    def test_bad_stride_or_padding_is_refused(self, kwargs):
        x = Tensor(np.zeros((1, 1, 4, 4)))
        w = Tensor(np.zeros((1, 1, 3, 3)))
        with pytest.raises(tg.UsageError, match=next(iter(kwargs))) as err:
            tg.conv2d(x, w, **kwargs)
        assert "\n" not in str(err.value)

    def test_numpy_and_list_arguments_are_accepted(self):
        x = Tensor(np.zeros((1, 1, 5, 5)))
        w = Tensor(np.zeros((1, 1, 3, 3)))
        out = tg.conv2d(x, w, stride=np.int64(2), padding=[1, np.int32(0)])
        assert out.shape == (1, 1, 3, 2)

    @pytest.mark.parametrize("w_shape, b_shape", [
        ((1, 1, 0, 3), None), ((2, 1, 3, 3), (3,)), ((2, 1, 3, 3), (2, 1)),
    ])
    def test_empty_kernel_or_wrong_bias_is_refused(self, w_shape, b_shape):
        b = None if b_shape is None else Tensor(np.zeros(b_shape))
        with pytest.raises(tg.ShapeError):
            tg.conv2d(Tensor(np.zeros((1, 1, 4, 4))), Tensor(np.zeros(w_shape)), b)


def loop_conv2d(x, w, b, g, stride, padding):
    """Direct cross-correlation, one output entry at a time, in float64.

    Returns the output and the gradients of ``sum(out * g)`` with respect to
    ``x``, ``w`` and ``b`` (``None`` for ``b`` when there is no bias).
    """
    sh, sw = (stride, stride) if isinstance(stride, int) else stride
    ph, pw = (padding, padding) if isinstance(padding, int) else padding
    x, w, g = (np.asarray(a, dtype=np.float64) for a in (x, w, g))
    bsz, cin, h, wd = x.shape
    cout, _, kh, kw = w.shape
    xp = np.zeros((bsz, cin, h + 2 * ph, wd + 2 * pw))
    xp[:, :, ph:ph + h, pw:pw + wd] = x
    ho, wo = g.shape[2], g.shape[3]
    out = np.zeros((bsz, cout, ho, wo))
    gxp = np.zeros_like(xp)
    gw = np.zeros_like(w)
    for n in range(bsz):
        for o in range(cout):
            for i in range(ho):
                for j in range(wo):
                    window = xp[n, :, i * sh:i * sh + kh, j * sw:j * sw + kw]
                    out[n, o, i, j] = np.sum(window * w[o])
                    gw[o] += g[n, o, i, j] * window
                    gxp[n, :, i * sh:i * sh + kh, j * sw:j * sw + kw] += g[n, o, i, j] * w[o]
    gb = None
    if b is not None:
        out += np.asarray(b, dtype=np.float64).reshape(1, cout, 1, 1)
        gb = g.sum(axis=(0, 2, 3))
    return out, gxp[:, :, ph:ph + h, pw:pw + wd], gw, gb


def check_against_loop(x_shape, cout, kernel, stride, padding, with_bias, dtype):
    """conv2d's output and gradients equal the loop reference's within 4096 ulp."""
    # Sums run over at most a few dozen terms of size ~1, so a few
    # thousand ulps covers any summation order.
    tol = 4096 * np.finfo(dtype).eps
    rng = np.random.default_rng(30)
    x = Tensor(rng.standard_normal(x_shape).astype(dtype), requires_grad=True)
    w = Tensor(rng.standard_normal((cout, x_shape[1]) + kernel).astype(dtype), requires_grad=True)
    b = Tensor(rng.standard_normal(cout).astype(dtype), requires_grad=True) if with_bias else None
    with Tape() as tape:
        out = tg.conv2d(x, w, b, stride=stride, padding=padding)
        g = rng.standard_normal(out.shape).astype(dtype)
        loss = tg.mul(out, Tensor(g)).sum()
    tape.backward(loss)
    ref_out, ref_gx, ref_gw, ref_gb = loop_conv2d(
        x.data, w.data, None if b is None else b.data, g, stride, padding)
    assert out.dtype == dtype and x.grad.dtype == dtype and w.grad.dtype == dtype
    np.testing.assert_allclose(out.data, ref_out, rtol=tol, atol=tol)
    np.testing.assert_allclose(x.grad, ref_gx, rtol=tol, atol=tol)
    np.testing.assert_allclose(w.grad, ref_gw, rtol=tol, atol=tol)
    if b is not None:
        np.testing.assert_allclose(b.grad, ref_gb, rtol=tol, atol=tol)


class TestConv2dReference:
    """conv2d against the nested-loop reference, forward and all gradients."""

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    @pytest.mark.parametrize("with_bias", [True, False])
    @pytest.mark.parametrize("kernel", [(3, 3), (2, 3)])
    @pytest.mark.parametrize("padding", [0, 1, (1, 0)])
    @pytest.mark.parametrize("stride", [1, 2, (2, 1)])
    def test_matches_loop_reference(self, stride, padding, kernel, with_bias, dtype):
        check_against_loop((2, 2, 5, 6), 3, kernel, stride, padding, with_bias, dtype)

    @pytest.mark.parametrize("padding", [0, 1])
    @pytest.mark.parametrize("stride", [1, 2, (2, 1)])
    def test_distinct_extents_batch_over_channels(self, stride, padding):
        # B=3, Cin=2, H=5, W=6, Cout=4: a mixed-up axis cannot go unnoticed,
        # and the batch is larger than the channel count.
        check_against_loop((3, 2, 5, 6), 4, (3, 3), stride, padding, True, np.float64)

    @pytest.mark.parametrize("stride", [1, 2])
    def test_samples_are_independent(self, stride):
        rng = np.random.default_rng(32)
        images = rng.standard_normal((5, 3, 7, 6))
        w = Tensor(rng.standard_normal((4, 3, 3, 3)))
        b = Tensor(rng.standard_normal(4))

        def run(batch, g=None):
            x = Tensor(batch, requires_grad=True)
            with Tape() as tape:
                out = tg.conv2d(x, w, b, stride=stride, padding=1)
                if g is None:
                    g = rng.standard_normal(out.shape)
                loss = tg.mul(out, Tensor(g)).sum()
            tape.backward(loss)
            return out.data, x.grad, g

        out, gx, g = run(images)
        for n in range(len(images)):
            out_n, gx_n, _ = run(images[n:n + 1], g[n:n + 1])
            np.testing.assert_allclose(out[n:n + 1], out_n, rtol=1e-12, atol=1e-12)
            np.testing.assert_allclose(gx[n:n + 1], gx_n, rtol=1e-12, atol=1e-12)

    def test_no_input_gradient_when_input_needs_none(self, monkeypatch):
        rng = np.random.default_rng(31)
        images = rng.standard_normal((2, 3, 6, 6))
        w = Tensor(rng.standard_normal((4, 3, 3, 3)), requires_grad=True)
        b = Tensor(rng.standard_normal(4), requires_grad=True)

        def grads(x):
            w.grad = b.grad = None
            with Tape() as tape:
                loss = tg.conv2d(x, w, b, stride=2, padding=1).sum()
            tape.backward(loss)
            return w.grad, b.grad

        tracked = Tensor(images, requires_grad=True)
        gw_tracked, gb_tracked = grads(tracked)
        assert tracked.grad is not None

        def refuse(*args):
            raise AssertionError("input gradient folded for an input that needs none")

        monkeypatch.setattr(tg.tensor, "_col2im", refuse)
        raw = Tensor(images, requires_grad=False)
        gw_raw, gb_raw = grads(raw)
        assert raw.grad is None
        np.testing.assert_array_equal(gw_raw, gw_tracked)
        np.testing.assert_array_equal(gb_raw, gb_tracked)


class TestReductionsAndLoss:
    def test_mean_hand_value(self):
        assert tg.reduce_mean(Tensor([2.0, 4.0, 6.0])).item() == 4.0

    def test_sum_grad(self):
        x = Tensor(np.arange(6.0).reshape(2, 3), requires_grad=True)
        with Tape() as tape:
            loss = tg.reduce_sum(x)
        tape.backward(loss)
        np.testing.assert_array_equal(x.grad, np.ones((2, 3)))

    def test_mean_grad(self):
        x = Tensor(np.arange(6.0).reshape(2, 3), requires_grad=True)
        with Tape() as tape:
            loss = tg.reduce_mean(x)
        tape.backward(loss)
        np.testing.assert_allclose(x.grad, np.ones((2, 3)) / 6.0)

    def test_cross_entropy_uniform_logits(self):
        for n_classes in (2, 5, 10):
            logits = Tensor(np.zeros((4, n_classes)))
            loss = tg.softmax_cross_entropy(logits, np.zeros(4, dtype=int))
            np.testing.assert_allclose(loss.item(), np.log(n_classes))

    def test_cross_entropy_grad_is_softmax_minus_onehot(self):
        rng = np.random.default_rng(9)
        logits = Tensor(rng.standard_normal((5, 3)), requires_grad=True)
        labels = rng.integers(0, 3, size=5)
        with Tape() as tape:
            loss = tg.softmax_cross_entropy(logits, labels)
        tape.backward(loss)
        z = logits.data
        ez = np.exp(z - z.max(axis=1, keepdims=True))
        softmax = ez / ez.sum(axis=1, keepdims=True)
        onehot = np.eye(3)[labels]
        np.testing.assert_allclose(logits.grad, (softmax - onehot) / 5.0)

    def test_cross_entropy_matches_finite_differences(self):
        rng = np.random.default_rng(10)
        for _ in range(20):
            logits = Tensor(rng.standard_normal((6, 4)), requires_grad=True)
            labels = rng.integers(0, 4, size=6)
            assert_grads_match(
                lambda: tg.softmax_cross_entropy(logits, labels), [logits])

    def test_cross_entropy_stable_for_huge_logits(self):
        logits = Tensor(np.array([[1000.0, 0.0], [0.0, 1000.0]]))
        loss = tg.softmax_cross_entropy(logits, np.array([0, 1]))
        assert np.isfinite(loss.item())
        np.testing.assert_allclose(loss.item(), 0.0, atol=1e-12)

    def test_label_out_of_range(self):
        logits = Tensor(np.zeros((2, 3)))
        empty = Tensor(np.zeros((0, 3)))
        for z, labels in [(logits, np.array([0, 3])), (logits, np.array([-1, 0])),
                          (empty, np.array([], dtype=np.int64)), (empty, []),
                          (logits, [0.5, 1.0]), (logits, np.array([0.0, 1.0])),
                          (logits, [np.nan, 1.0]), (logits, [True, False])]:
            with pytest.raises(tg.UsageError) as err:
                tg.softmax_cross_entropy(z, labels)
            assert "\n" not in str(err.value)


def generic_cross_entropy(z, labels, g):
    """Cross-entropy's value and logit gradient for upstream ``g``, as
    computed before the row index was built once; the reference it must
    match bit for bit."""
    labels = np.asarray(labels).astype(np.int64)
    bsz = z.shape[0]
    zmax = z.max(axis=1, keepdims=True)
    ez = np.exp(z - zmax)
    sez = ez.sum(axis=1, keepdims=True)
    lse = zmax[:, 0] + np.log(sez[:, 0])
    loss = np.asarray((lse - z[np.arange(bsz), labels]).mean(), dtype=z.dtype)
    grad = ez / sez
    grad[np.arange(bsz), labels] -= 1.0
    return loss, grad * (g / bsz)


class TestCrossEntropyReference:
    @pytest.mark.parametrize("label_type", [np.int64, np.int32, np.uint8, list])
    def test_bit_identical_to_the_reference(self, label_type):
        rng = np.random.default_rng(14)
        for _ in range(60):
            bsz, ncls = int(rng.integers(1, 70)), int(rng.integers(1, 6))
            z = rng.standard_normal((bsz, ncls)) * rng.choice([1.0, 30.0])
            labels = rng.integers(0, ncls, size=bsz)
            labels = (labels.tolist() if label_type is list
                      else labels.astype(label_type))
            g = float(rng.standard_normal())
            logits = Tensor(z, requires_grad=True)
            with Tape() as tape:
                loss = tg.softmax_cross_entropy(logits, labels)
                scaled = tg.scale(loss, g)  # the loss's gradient is g
            tape.backward(scaled)
            value, grad = generic_cross_entropy(z, labels, g)
            assert loss.data.tobytes() == value.tobytes()
            assert logits.grad.tobytes() == grad.tobytes()

    @pytest.mark.parametrize("dtype", [np.int64, np.int32])
    def test_labels_are_left_as_given(self, dtype):
        # int64 labels are used without a copy; neither pass writes them
        labels = np.array([1, 0, 1], dtype=dtype)
        logits = Tensor(np.zeros((3, 2)), requires_grad=True)
        with Tape() as tape:
            loss = tg.softmax_cross_entropy(logits, labels)
        tape.backward(loss)
        assert labels.dtype == dtype and labels.tolist() == [1, 0, 1]


def generic_layer_norm(x, gain, shift, g, eps=1e-5):
    """layer_norm's value and its (x, gain, shift) gradients for upstream
    ``g``, composed from ``np.mean`` and ``np.var`` as computed before the
    one-pass kernel; the reference it must match bit for bit."""
    mu = x.mean(axis=1, keepdims=True)
    var = x.var(axis=1, keepdims=True)
    inv = 1.0 / np.sqrt(var + eps)
    xhat = (x - mu) * inv
    dxhat = g * gain
    dx = inv * (dxhat
                - dxhat.mean(axis=1, keepdims=True)
                - xhat * (dxhat * xhat).mean(axis=1, keepdims=True))
    return gain * xhat + shift, dx, (g * xhat).sum(axis=0), g.sum(axis=0)


def layer_norm_and_grads(x, gain, shift, g):
    leaves = [Tensor(v, requires_grad=True) for v in (x, gain, shift)]
    with Tape() as tape:
        out = tg.layer_norm(*leaves)
        loss = tg.reduce_sum(tg.mul(out, Tensor(g)))  # out's gradient is g
    tape.backward(loss)
    return (out.data,) + tuple(leaf.grad for leaf in leaves)


class TestLayerNormReference:
    @staticmethod
    def cases():
        rng = np.random.default_rng(15)
        for _ in range(200):  # random shapes, scales and offsets
            b, f = int(rng.integers(1, 70)), int(rng.integers(1, 70))
            x = rng.standard_normal((b, f)) * rng.choice([1e-3, 1.0, 1e3])
            yield x + rng.choice([0.0, 5.0, -1e6, 1e8]), rng, (b, f)
        x = rng.standard_normal((6, 9))
        x[[1, 4]] = 3.25  # constant rows: variance exactly 0
        yield x, rng, x.shape
        yield np.full((4, 7), -2.5e9), rng, (4, 7)
        yield rng.standard_normal((1, 1)), rng, (1, 1)

    def test_bit_identical_to_the_mean_and_var_composition(self):
        shapes = set()
        for x, rng, shape in self.cases():
            f = shape[1]
            gain, shift = rng.standard_normal(f), rng.standard_normal(f)
            g = rng.standard_normal(shape)
            got = layer_norm_and_grads(x, gain, shift, g)
            want = generic_layer_norm(x, gain, shift, g)
            for a, b in zip(got, want):
                assert (a.dtype, a.shape) == (b.dtype, b.shape)
                assert a.tobytes() == b.tobytes(), shape
            shapes.add(shape)
        assert any(b == 1 for b, _ in shapes) and any(f == 1 for _, f in shapes)


class TestShapeOps:
    def test_reshape_grad(self):
        x = Tensor(np.arange(6.0), requires_grad=True)
        assert_grads_match(lambda: tg.mul(tg.reshape(x, (2, 3)),
                                          tg.reshape(x, (2, 3))).sum(), [x])

    def test_reshape_bad_size(self):
        with pytest.raises(tg.ShapeError):
            tg.reshape(Tensor(np.zeros(6)), (4, 2))

    def test_permute_roundtrip(self):
        rng = np.random.default_rng(11)
        x = Tensor(rng.standard_normal((2, 3, 4)), requires_grad=True)
        with Tape() as tape:
            y = tg.permute(tg.permute(x, (2, 0, 1)), (1, 2, 0))
            loss = tg.mul(y, y).sum()
        tape.backward(loss)
        np.testing.assert_array_equal(y.data, x.data)
        np.testing.assert_allclose(x.grad, 2.0 * x.data)

    def test_permute_invalid_axes(self):
        with pytest.raises(tg.ShapeError):
            tg.permute(Tensor(np.zeros((2, 3))), (0, 0))

    def test_layer_norm_matches_finite_differences(self):
        rng = np.random.default_rng(12)
        x = Tensor(rng.standard_normal((4, 6)), requires_grad=True)
        gain = Tensor(rng.standard_normal(6), requires_grad=True)
        shift = Tensor(rng.standard_normal(6), requires_grad=True)
        assert_grads_match(lambda: tg.layer_norm(x, gain, shift).sum(),
                           [x, gain, shift])

    def test_layer_norm_normalizes(self):
        rng = np.random.default_rng(13)
        x = Tensor(rng.standard_normal((3, 8)) * 5 + 2)
        out = tg.layer_norm(x, Tensor(np.ones(8)), Tensor(np.zeros(8))).data
        np.testing.assert_allclose(out.mean(axis=1), 0.0, atol=1e-12)
        np.testing.assert_allclose(out.std(axis=1), 1.0, atol=1e-3)


class TestBackward:
    def test_square_at_three(self):
        x = Tensor([3.0], requires_grad=True)
        with Tape() as tape:
            loss = tg.mul(x, x).sum()
        tape.backward(loss)
        np.testing.assert_array_equal(x.grad, [6.0])

    def test_dropping_the_tape_detaches_every_tensor_and_keeps_gradients(self):
        x = Tensor([1.0, 2.0], requires_grad=True)
        with Tape() as tape:
            y = tg.mul(x, x)
            loss = y.sum()
        tape.backward(loss)
        dead = weakref.ref(tape)
        del tape  # the tensors hold it weakly: no cycle keeps it
        assert dead() is None
        assert x.node_id is None and y.node_id is None and loss.node_id is None
        assert x._node_tape is None
        np.testing.assert_array_equal(x.grad, [2.0, 4.0])
        with pytest.raises(tg.UsageError):
            loss.backward()
        with pytest.raises(tg.UsageError):
            x.register_hook(lambda g: g)

    def test_a_loss_from_another_tape_is_refused(self):
        x = Tensor([1.0], requires_grad=True)
        with Tape() as first:
            tg.mul(x, x)
        with Tape() as second:
            loss = tg.mul(x, x).sum()
        assert second.nodes[x.node_id].tensor is x  # the leaf joined anew
        with pytest.raises(tg.UsageError, match="not recorded on this tape"):
            first.backward(loss)
        second.backward(loss)
        np.testing.assert_array_equal(x.grad, [2.0])

    def test_non_scalar_loss_rejected(self):
        x = Tensor(np.zeros(3), requires_grad=True)
        with Tape() as tape:
            y = tg.relu(x)
        with pytest.raises(tg.UsageError):
            tape.backward(y)

    def test_double_backward_without_reset(self):
        x = Tensor([1.0], requires_grad=True)
        with Tape() as tape:
            loss = tg.mul(x, x).sum()
        tape.backward(loss)
        with pytest.raises(tg.StateError):
            tape.backward(loss)

    def test_backward_off_tape(self):
        x = Tensor([1.0], requires_grad=True)
        loss = tg.mul(x, x).sum()  # no tape active
        with pytest.raises(tg.UsageError):
            loss.backward()

    def test_shared_leaf_accumulates_from_both_consumers(self):
        x = Tensor([2.0], requires_grad=True)
        with Tape() as tape:
            loss = tg.add(tg.mul(x, x), tg.scale(x, 3.0)).sum()
        tape.backward(loss)
        np.testing.assert_array_equal(x.grad, [7.0])  # 2x + 3

    def test_deterministic_across_runs(self):
        def run():
            rng = np.random.default_rng(14)
            a = Tensor(rng.standard_normal((8, 8)), requires_grad=True)
            b = Tensor(rng.standard_normal((8, 8)), requires_grad=True)
            with Tape() as tape:
                loss = tg.softmax_cross_entropy(
                    tg.matmul(tg.sigmoid(a), b), np.arange(8) % 8)
            tape.backward(loss)
            return a.grad.copy(), b.grad.copy()

        ga1, gb1 = run()
        ga2, gb2 = run()
        assert np.array_equal(ga1, ga2)
        assert np.array_equal(gb1, gb2)

    def test_no_tape_means_no_recording(self):
        x = Tensor([1.0], requires_grad=True)
        y = tg.sigmoid(x)
        assert y.node_id is None
        assert not y.requires_grad

    def test_nested_tapes_rejected(self):
        with Tape():
            with pytest.raises(tg.UsageError):
                with Tape():
                    pass


class TestGradHooks:
    def test_annihilator_hook(self):
        x = Tensor([5.0], requires_grad=True)
        with Tape() as tape:
            y = tg.mul(x, x)
            y.register_hook(lambda g: g * 0.0)
            loss = y.sum()
        tape.backward(loss)
        np.testing.assert_array_equal(x.grad, [0.0])

    def test_two_hooks_multiply_to_six(self):
        def run(hooked):
            x = Tensor([4.0], requires_grad=True)
            with Tape() as tape:
                y = tg.mul(x, x)
                if hooked:
                    y.register_hook(lambda g: g * 2.0)
                    y.register_hook(lambda g: g * 3.0)
                loss = y.sum()
            tape.backward(loss)
            return x.grad

        np.testing.assert_allclose(run(True), 6.0 * run(False))

    def test_hook_order_is_registration_order(self):
        seen = []
        x = Tensor([1.0], requires_grad=True)
        with Tape() as tape:
            y = tg.scale(x, 1.0)
            y.register_hook(lambda g: (seen.append("f"), g + 1.0)[1])
            y.register_hook(lambda g: (seen.append("g"), g * 10.0)[1])
            loss = y.sum()
        tape.backward(loss)
        assert seen == ["f", "g"]
        # g(f(upstream)) = (1 + 1) * 10
        np.testing.assert_array_equal(x.grad, [20.0])

    def test_register_then_remove_is_a_no_op(self):
        x = Tensor([4.0], requires_grad=True)
        with Tape() as tape:
            y = tg.mul(x, x)
            handle = y.register_hook(lambda g: g * 100.0)
            handle.remove()
            loss = y.sum()
        tape.backward(loss)
        np.testing.assert_array_equal(x.grad, [8.0])

    def test_identity_hook_changes_nothing(self):
        x = Tensor([4.0], requires_grad=True)
        with Tape() as tape:
            y = tg.mul(x, x)
            y.register_hook(lambda g: g)
            loss = y.sum()
        tape.backward(loss)
        np.testing.assert_array_equal(x.grad, [8.0])

    def test_hook_on_leaf_fires_per_incoming_gradient(self):
        calls = []
        x = Tensor([2.0], requires_grad=True)
        with Tape() as tape:
            y = tg.add(tg.scale(x, 2.0), tg.scale(x, 3.0))
            x.register_hook(lambda g: (calls.append(g.copy()), g)[1])
            loss = y.sum()
        tape.backward(loss)
        assert sorted(g[0] for g in calls) == [2.0, 3.0]  # one per consumer

    def test_shape_changing_hook_rejected(self):
        x = Tensor([1.0, 2.0], requires_grad=True)
        with Tape() as tape:
            y = tg.mul(x, x)
            y.register_hook(lambda g: g[:1])
            loss = y.sum()
        with pytest.raises(tg.ShapeError):
            tape.backward(loss)

    def test_hook_without_node_rejected(self):
        x = Tensor([1.0], requires_grad=True)
        with pytest.raises(tg.UsageError):
            x.register_hook(lambda g: g)

    def test_unknown_node_id_rejected(self):
        with Tape() as tape:
            with pytest.raises(tg.UsageError):
                tape.register_hook(99, lambda g: g)


class TestTensorBasics:
    def test_default_dtype_is_double(self):
        assert Tensor([1, 2, 3]).dtype == np.float64

    def test_float32_preserved(self):
        x = Tensor(np.zeros(3, dtype=np.float32))
        assert x.dtype == np.float32
        assert tg.sigmoid(x).dtype == np.float32

    def test_zero_grad(self):
        x = Tensor([3.0], requires_grad=True)
        with Tape() as tape:
            loss = tg.mul(x, x).sum()
        tape.backward(loss)
        x.zero_grad()
        assert x.grad is None

    def test_numeric_oracle_sanity(self):
        # the oracle itself must be trustworthy: check it on a known function
        x = np.array([1.0, 2.0, 3.0])
        g = numeric_grad(lambda: (x ** 2).sum(), x)
        assert relative_error(g, 2.0 * x) < 1e-8

    @pytest.mark.parametrize("taped", [False, True])
    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_op_results_are_contiguous_arrays_of_the_op_dtype(self, dtype, taped):
        x = Tensor(np.arange(6.0, dtype=dtype).reshape(2, 3), requires_grad=True)
        with Tape() if taped else contextlib.nullcontext() as tape:
            outs = {
                "permute": tg.permute(x, (1, 0)),         # a strided view
                "sum": tg.reduce_sum(x),                  # a 0-d array
                "scale": tg.scale(tg.reduce_sum(x), 2.0),  # a numpy scalar
                "relu": tg.relu(x),
            }
        for op, out in outs.items():
            assert type(out.data) is np.ndarray, op
            assert out.data.flags.c_contiguous and out.dtype == dtype, op
            assert out.grad is None and out.requires_grad == taped, op
            if taped:
                assert tape.nodes[out.node_id].op == op and tape.nodes[out.node_id].tensor is out
            else:
                assert out.node_id is None and out._node_tape is None
        assert outs["permute"].shape == (3, 2) and outs["scale"].shape == ()
