import contextlib
import gc
import tracemalloc
import weakref

import numpy as np
import pytest

import taskgate as tg
from taskgate import Tape, Tensor

from gated_models import IMAGE, conv_model
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
            loss = tg.reduce_sum(tg.matmul(a, b))
        tape.backward(loss)
        np.testing.assert_allclose(a.grad, [[3.0, 4.0]])
        np.testing.assert_allclose(b.grad, [[1.0], [2.0]])

    def test_matches_finite_differences(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            a = Tensor(rng.standard_normal((3, 4)), requires_grad=True)
            b = Tensor(rng.standard_normal((4, 2)), requires_grad=True)
            assert_grads_match(lambda: tg.reduce_sum(tg.matmul(a, b)), [a, b])

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
            assert_grads_match(lambda: tg.reduce_sum(op(a, b)), [a, b])

    def test_sigmoid_at_zero(self):
        x = Tensor(np.zeros(3), requires_grad=True)
        with Tape() as tape:
            loss = tg.reduce_sum(tg.sigmoid(x))
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
            assert_grads_match(lambda: tg.reduce_sum(tg.sigmoid(x)), [x])

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
            loss = tg.reduce_sum(tg.relu(x))
        tape.backward(loss)
        np.testing.assert_array_equal(x.grad, [0.0, 1.0])

    def test_clamp_above_range(self):
        x = Tensor([7.0], requires_grad=True)
        with Tape() as tape:
            y = tg.clamp(x, -6.0, 6.0)
            loss = tg.reduce_sum(y)
        tape.backward(loss)
        assert y.data[0] == 6.0
        np.testing.assert_array_equal(x.grad, [0.0])

    def test_clamp_gradient_closed_interval(self):
        x = Tensor([-6.0, -1.0, 6.0, 6.5], requires_grad=True)
        with Tape() as tape:
            loss = tg.reduce_sum(tg.clamp(x, -6.0, 6.0))
        tape.backward(loss)
        np.testing.assert_array_equal(x.grad, [1.0, 1.0, 1.0, 0.0])

    def test_scale(self):
        x = Tensor([1.0, -2.0], requires_grad=True)
        with Tape() as tape:
            loss = tg.reduce_sum(tg.scale(x, 3.0))
        tape.backward(loss)
        np.testing.assert_array_equal(x.grad, [3.0, 3.0])

    def test_broadcast_vector_over_batch(self):
        # gradient of the vector operand accumulates by summation over rows
        rng = np.random.default_rng(3)
        full = Tensor(rng.standard_normal((6, 4)), requires_grad=True)
        vec = Tensor(rng.standard_normal(4), requires_grad=True)
        with Tape() as tape:
            loss = tg.reduce_sum(tg.add(full, vec))
        tape.backward(loss)
        np.testing.assert_allclose(vec.grad, 6.0 * np.ones(4))
        np.testing.assert_allclose(full.grad, np.ones((6, 4)))

    @pytest.mark.parametrize("op", [tg.add, tg.sub, tg.mul])
    def test_broadcast_matches_finite_differences(self, op):
        rng = np.random.default_rng(4)
        for _ in range(10):
            full = Tensor(rng.standard_normal((5, 3)), requires_grad=True)
            vec = Tensor(rng.standard_normal(3), requires_grad=True)
            assert_grads_match(lambda: tg.reduce_sum(op(full, vec)), [full, vec])
            assert_grads_match(lambda: tg.reduce_sum(op(vec, full)), [full, vec])

    def test_broadcast_over_feature_maps(self):
        rng = np.random.default_rng(5)
        full = Tensor(rng.standard_normal((2, 3, 4, 4)), requires_grad=True)
        vec = Tensor(rng.standard_normal(3), requires_grad=True)
        assert_grads_match(lambda: tg.reduce_sum(tg.mul(full, vec)), [full, vec])

    def test_incompatible_shapes_raise(self):
        a = Tensor(np.zeros((2, 3)))
        b = Tensor(np.zeros((3, 2)))
        with pytest.raises(tg.ShapeError):
            tg.add(a, b)

    @pytest.mark.parametrize("op", [tg.add, tg.sub, tg.mul])
    @pytest.mark.parametrize("constant", [2.0, np.ones(3), [1.0, 1.0, 1.0]], ids=repr)
    def test_a_non_tensor_operand_is_refused(self, op, constant):
        x = Tensor(np.zeros(3))
        for a, b in ((x, constant), (constant, x)):
            with pytest.raises(tg.UsageError, match="takes two tensors") as err:
                op(a, b)
            assert "\n" not in str(err.value)


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
        assert_grads_match(lambda: tg.reduce_sum(tg.conv2d(x, w, b)), [x, w, b],
                           rel_tol=1e-5)

    def test_stride_and_padding(self):
        rng = np.random.default_rng(8)
        x = Tensor(rng.standard_normal((2, 3, 6, 6)), requires_grad=True)
        w = Tensor(rng.standard_normal((4, 3, 3, 3)), requires_grad=True)
        out = tg.conv2d(x, w, stride=2, padding=1)
        assert out.shape == (2, 4, 3, 3)
        assert_grads_match(
            lambda: tg.reduce_sum(tg.conv2d(x, w, stride=2, padding=1)), [x, w])

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
        loss = tg.reduce_sum(tg.mul(out, Tensor(g)))
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
    @pytest.mark.parametrize("stride", [1, 2, (2, 1), 3, (1, 3)])
    def test_matches_loop_reference(self, stride, padding, kernel, with_bias, dtype):
        check_against_loop((2, 2, 5, 6), 3, kernel, stride, padding, with_bias, dtype)

    @pytest.mark.parametrize("padding", [0, 1])
    @pytest.mark.parametrize("stride", [1, 2, (2, 1), 3, (1, 3)])
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
                loss = tg.reduce_sum(tg.mul(out, Tensor(g)))
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
                loss = tg.reduce_sum(tg.conv2d(x, w, b, stride=2, padding=1))
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


def tile_sizes(monkeypatch):
    """The sample count of each conv2d tile run from now on, in order."""
    sizes, run = [], tg.tensor._conv_tile

    def spy(x, *args):
        sizes.append(len(x))
        return run(x, *args)

    monkeypatch.setattr(tg.tensor, "_conv_tile", spy)
    return sizes


def scatter_add_fold(cols, shape, geometry):
    """The fold as a strided scatter-add: every tap added, in (i, j) order,
    into a zeroed padded image, whose interior is the input gradient."""
    kh, kw, sh, sw, ph, pw, ho, wo = geometry
    c, h, w, b = shape
    xp = np.zeros((c, h + 2 * ph, w + 2 * pw, b), dtype=cols.dtype)
    cols = cols.reshape(c, kh, kw, ho, wo, b)
    for i in range(kh):
        for j in range(kw):
            xp[:, i:i + sh * ho:sh, j:j + sw * wo:sw] += cols[:, i, j]
    return xp[:, ph:ph + h, pw:pw + w].transpose(3, 0, 1, 2)


def fold_case(rng, stride, kernel, padding, image, batch, dtype, channels=2):
    """Columns for one geometry, with -0.0, +-inf and NaN among finite
    values (each at about 2 % of the entries)."""
    (sh, sw), (kh, kw), (ph, pw), (h, w) = stride, kernel, padding, image
    ho, wo = (h + 2 * ph - kh) // sh + 1, (w + 2 * pw - kw) // sw + 1
    cols = rng.standard_normal((channels * kh * kw, ho * wo * batch)).astype(dtype)
    flat = cols.reshape(-1)
    for special in (-0.0, np.inf, -np.inf, np.nan):
        flat[rng.integers(0, flat.size, max(1, flat.size // 50))] = special
    return cols, (channels, h, w, batch), (kh, kw, sh, sw, ph, pw, ho, wo)


class TestCol2im:
    """conv2d's fold gives the strided scatter-add's bits, sign bits and NaNs
    included, in a dense batch-innermost array."""

    @staticmethod
    def check(cols, shape, geometry):
        with np.errstate(invalid="ignore"):  # inf + -inf where taps overlap
            got = tg.tensor._col2im(cols, shape, geometry)
            want = scatter_add_fold(cols, shape, geometry)
        assert got.shape == want.shape and got.dtype == want.dtype
        assert got.transpose(1, 2, 3, 0).flags.c_contiguous
        assert np.ascontiguousarray(got).tobytes() == np.ascontiguousarray(want).tobytes(), \
            (shape, geometry)

    @pytest.mark.parametrize("stride, kernel, padding, image, batch, dtype", [
        ((3, 3), (2, 2), (0, 0), (7, 8), 4, np.float64),   # phases that get no tap
        ((3, 3), (2, 2), (1, 1), (6, 6), 1, np.float64),
        ((1, 3), (3, 2), (2, 0), (5, 9), 3, np.float64),   # asymmetric stride, padding
        ((2, 1), (3, 3), (0, 2), (6, 4), 1, np.float32),
        ((2, 2), (3, 3), (1, 1), (12, 12), 32, np.float32),  # perfbench's conv2
        ((1, 1), (3, 3), (1, 1), (12, 12), 32, np.float64),  # perfbench's conv1
        ((4, 4), (1, 1), (0, 0), (5, 5), 2, np.float64),   # kernel 1: one tap
        ((2, 2), (5, 5), (2, 2), (5, 5), 3, np.float64),   # kernel as tall as the image
    ])
    def test_named_geometries(self, stride, kernel, padding, image, batch, dtype):
        rng = np.random.default_rng(38)
        self.check(*fold_case(rng, stride, kernel, padding, image, batch, dtype))

    def test_random_geometries(self):
        rng = np.random.default_rng(39)
        for _ in range(200):
            stride, kernel, padding = (tuple(int(v) for v in rng.integers(lo, hi, 2))
                                       for lo, hi in ((1, 5), (1, 6), (0, 3)))
            image = tuple(int(rng.integers(max(1, k - 2 * p), k + 8))
                          for k, p in zip(kernel, padding))
            batch = int(rng.choice([1, 2, 3, 8, 32]))
            dtype = np.float32 if rng.random() < 0.5 else np.float64
            self.check(*fold_case(rng, stride, kernel, padding, image, batch, dtype,
                                  channels=int(rng.integers(1, 4))))


def recorded_conv2d(x, w, b, **kwargs):
    """conv2d's output as a recorded call, one tile, gives it."""
    with Tape():
        return tg.conv2d(Tensor(x, requires_grad=True), w, b, **kwargs).data


class TestConv2dTiles:
    """A call that is not recorded runs in tiles of at most 1 MiB of
    columns, with the bits of the recorded one-tile call."""

    BUDGET = 1 << 20

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    @pytest.mark.parametrize("with_bias", [True, False])
    @pytest.mark.parametrize("stride", [1, 2])
    def test_tiles_keep_the_bits_of_one_tile(self, monkeypatch, stride, with_bias, dtype):
        # 16x16 images, padding 1: 256 or 64 output pixels, whole blocks
        # of columns from one sample up
        rng = np.random.default_rng(33)
        w = Tensor(rng.standard_normal((5, 2, 3, 3)).astype(dtype))
        b = Tensor(rng.standard_normal(5).astype(dtype)) if with_bias else None
        columns = 2 * 9 * (16 // stride) ** 2 * np.dtype(dtype).itemsize
        tile = self.BUDGET // columns  # 28 to 227 samples
        sizes = tile_sizes(monkeypatch)
        for batch, tiles in [(1, [1]), (tile, [tile]), (2 * tile + 3, [tile, tile, 3])]:
            x = rng.standard_normal((batch, 2, 16, 16)).astype(dtype)
            sizes.clear()
            free = tg.conv2d(Tensor(x), w, b, stride=stride, padding=1)
            assert sizes == tiles and free.dtype == dtype and not free.requires_grad
            np.testing.assert_array_equal(free.data, recorded_conv2d(x, w, b, stride=stride,
                                                                     padding=1))
            assert sizes == tiles + [batch]

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_a_sample_over_the_budget_is_a_tile_of_its_own(self, monkeypatch, dtype):
        # 270 taps at 1024 pixels: 2.2 MB of columns per sample, 1.1 MB in float32
        rng = np.random.default_rng(34)
        x = rng.standard_normal((3, 30, 32, 32)).astype(dtype)
        w = Tensor(rng.standard_normal((4, 30, 3, 3)).astype(dtype))
        b = Tensor(rng.standard_normal(4).astype(dtype))
        sizes = tile_sizes(monkeypatch)
        free = tg.conv2d(Tensor(x), w, b, padding=1)
        assert sizes == [1, 1, 1]
        np.testing.assert_array_equal(free.data, recorded_conv2d(x, w, b, padding=1))

    @pytest.mark.parametrize("shape, cin, tiles", [
        ((192, 2, 7, 7), 2, [128, 64]),   # 49 pixels: whole blocks of 64 samples
        ((200, 2, 7, 7), 2, [200]),       # 200 samples fill no whole blocks
        ((8, 43, 8, 8), 43, [8]),         # 387 taps: deeper than 384
    ])
    def test_whole_blocks_and_depth_decide_the_tiles(self, monkeypatch, shape, cin, tiles):
        rng = np.random.default_rng(35)
        x = rng.standard_normal(shape)
        w = Tensor(rng.standard_normal((3, cin, 3, 3)))
        sizes = tile_sizes(monkeypatch)
        free = tg.conv2d(Tensor(x), w, padding=1)
        assert sizes == tiles
        np.testing.assert_array_equal(free.data, recorded_conv2d(x, w, None, padding=1))

    def test_unrecorded_calls_tile_whatever_requires_a_gradient(self, monkeypatch):
        rng = np.random.default_rng(36)
        x = Tensor(rng.standard_normal((256, 3, 12, 12)), requires_grad=True)
        w = Tensor(rng.standard_normal((8, 3, 3, 3)), requires_grad=True)
        sizes = tile_sizes(monkeypatch)
        out = tg.conv2d(x, w, padding=1)  # no tape: nothing is recorded
        assert sizes == [32] * 8 and not out.requires_grad and x.node_id is None
        with Tape():  # a tape, but no input requires a gradient
            tg.conv2d(Tensor(x.data), Tensor(w.data), padding=1)
        assert sizes == [32] * 16

    def test_an_unrecorded_call_never_holds_a_whole_batchs_columns(self):
        rng = np.random.default_rng(37)
        x = Tensor(rng.standard_normal((256, 3, 12, 12)))
        w = Tensor(rng.standard_normal((8, 3, 3, 3)))
        b = Tensor(rng.standard_normal(8))
        columns = 27 * 144 * 256 * 8  # the untiled column matrix: 8.0 MB
        tracemalloc.start()
        try:
            tg.conv2d(x, w, b, padding=1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # the 2.4 MB output and one tile's padding, columns and product:
        # about 3.8 MB, where the one-tile call takes 13.9 MB
        assert peak < columns


def conv_stack(rng, channels=(3, 8, 16), side=12):
    """HATConv2d -> ReLU -> HATConv2d (stride 2) -> ReLU -> flatten -> a per-task
    head, on [B, channels[0], side, side] images: perfbench's conv model."""
    c0, c1, c2 = channels
    out_side = (side - 1) // 2 + 1
    return tg.Sequential(
        tg.HATConv2d(c0, c1, 3, 2, "c1", rng, padding=1),
        tg.ReLU(),
        tg.HATConv2d(c1, c2, 3, 2, "c2", rng, stride=2, padding=1),
        tg.ReLU(),
        lambda x: tg.reshape(x, (x.shape[0], -1)),
        tg.task_indexed_linear(c2 * out_side * out_side, 2, 2, "head", rng),
    )


def batch_innermost(a):
    """Whether [B,C,H,W] ``a`` is laid out as conv2d computes, batch innermost."""
    return a.strides[0] == a.itemsize and a.transpose(1, 2, 3, 0).flags.c_contiguous


class TestConvLayout:
    """Conv activations stay in conv2d's [C,H,W,B] memory order, so a conv ->
    gate -> ReLU -> conv step makes no transposing copy."""

    def test_a_recorded_step_makes_no_transposing_copy_between_convs(self):
        rng = np.random.default_rng(40)
        model = conv_stack(rng, channels=(3, 4, 6), side=6)
        x, y = rng.standard_normal((8, 3, 6, 6)), rng.integers(0, 2, 8)
        with Tape() as tape:
            out = model.forward(tg.HATPayload(Tensor(x), task=0, scale=30.0,
                                              training=True)).masked_data()
            loss = tg.softmax_cross_entropy(out, y)
        nodes = [n for n in tape.nodes if n.op != "leaf"]
        assert [n.op for n in nodes] == ["conv2d", "gate", "relu", "conv2d", "gate", "relu",
                                         "reshape", "linear", "softmax_cross_entropy"]
        arriving = {}
        for i, node in enumerate(nodes[:6]):
            node.tensor.register_hook(lambda g, i=i: arriving.setdefault(i, g))
        tape.backward(loss)
        # conv1's output, its gate and its ReLU are views conv2 reads in place
        for node in nodes[:6]:
            assert batch_innermost(node.tensor.data), node.op
        # conv2's output gradient is read as [Cout, Ho*Wo*B] without a copy
        assert all(batch_innermost(arriving[i]) for i in (3, 4, 5))
        # conv2's input gradient arrives dense in [C,H,W,B] order, so conv1's
        # ReLU and gate multiply dense arrays and pass dense products on
        assert all(batch_innermost(arriving[i]) for i in (0, 1, 2))

    @pytest.mark.parametrize("shape, tiles, convs", [
        ("perfbench", [32] * 4 + [48, 48, 32], 2),  # two convs -> flatten -> head
        ("conv_flatten_dense", [452, 452, 120], 1),  # gated_models' conv model
    ])
    def test_taped_and_tape_free_forwards_agree_bit_for_bit(self, monkeypatch, shape, tiles,
                                                           convs):
        rng = np.random.default_rng(41)
        if shape == "perfbench":
            model, x = conv_stack(rng), rng.standard_normal((128, 3, 12, 12))
        else:
            model, x = conv_model(rng, 2), rng.standard_normal((1024,) + IMAGE)
        for masker in model.maskers():
            masker.embedding_rows[0].data[...] = rng.standard_normal(masker.n_features)
            masker.finalize_task(0)
        sizes = tile_sizes(monkeypatch)
        # evaluate's forward: no tape, each conv in tiles
        free = model.forward(tg.HATPayload(Tensor(x), task=0)).masked_data().data
        assert sizes == tiles
        with Tape():
            taped = model.forward(tg.HATPayload(Tensor(x), task=0)).masked_data()
        assert taped.requires_grad and sizes[len(tiles):] == [len(x)] * convs
        assert free.tobytes() == taped.data.tobytes()

    def test_a_leafs_gradient_is_c_order(self):
        rng = np.random.default_rng(42)
        model = conv_stack(rng, channels=(3, 4, 6), side=6)
        x = Tensor(rng.standard_normal((8, 3, 6, 6)), requires_grad=True)
        with Tape() as tape:
            out = model.forward(tg.HATPayload(x, task=0, scale=30.0)).masked_data()
            loss = tg.softmax_cross_entropy(out, rng.integers(0, 2, 8))
        tape.backward(loss)
        leaves = [x] + model.task_parameters(0)
        assert all(t.grad is not None and t.grad.flags.c_contiguous for t in leaves)
        # the raw input's gradient reached it as the [B,C,H,W] view of conv1's
        # dense fold, and its .grad is a C-order copy of that
        assert batch_innermost(tape.nodes[x.node_id].grad)


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
        assert_grads_match(lambda: tg.reduce_sum(tg.mul(tg.reshape(x, (2, 3)),
                                                        tg.reshape(x, (2, 3)))), [x])

    def test_reshape_bad_size(self):
        with pytest.raises(tg.ShapeError):
            tg.reshape(Tensor(np.zeros(6)), (4, 2))

    def test_permute_roundtrip(self):
        rng = np.random.default_rng(11)
        x = Tensor(rng.standard_normal((2, 3, 4)), requires_grad=True)
        with Tape() as tape:
            y = tg.permute(tg.permute(x, (2, 0, 1)), (1, 2, 0))
            loss = tg.reduce_sum(tg.mul(y, y))
        tape.backward(loss)
        np.testing.assert_array_equal(y.data, x.data)
        np.testing.assert_allclose(x.grad, 2.0 * x.data)

    def test_reshape_grad_keeps_a_permuted_inputs_order(self):
        # a flatten after a conv hands its gradient back batch innermost, in
        # the order of the conv's output (and of a gate or ReLU on it)
        rng = np.random.default_rng(14)
        x = Tensor(rng.standard_normal((5, 2, 4, 4)))
        w = Tensor(rng.standard_normal((3, 2, 3, 3)), requires_grad=True)
        seen = []
        with Tape() as tape:
            h = tg.conv2d(x, w, padding=1)
            h.register_hook(lambda g: seen.append(g) or g)
            flat = tg.reshape(h, (5, -1))
            loss = tg.reduce_sum(tg.mul(flat, flat))
        tape.backward(loss)
        assert not h.data.flags.c_contiguous and seen[0].strides == h.data.strides
        np.testing.assert_array_equal(seen[0], 2.0 * h.data)

    def test_permute_invalid_axes(self):
        with pytest.raises(tg.ShapeError):
            tg.permute(Tensor(np.zeros((2, 3))), (0, 0))

    def test_layer_norm_matches_finite_differences(self):
        rng = np.random.default_rng(12)
        x = Tensor(rng.standard_normal((4, 6)), requires_grad=True)
        gain = Tensor(rng.standard_normal(6), requires_grad=True)
        shift = Tensor(rng.standard_normal(6), requires_grad=True)
        assert_grads_match(lambda: tg.reduce_sum(tg.layer_norm(x, gain, shift)),
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
            loss = tg.reduce_sum(tg.mul(x, x))
        tape.backward(loss)
        np.testing.assert_array_equal(x.grad, [6.0])

    def test_dropping_the_tape_detaches_every_tensor_and_keeps_gradients(self):
        x = Tensor([1.0, 2.0], requires_grad=True)
        with Tape() as tape:
            y = tg.mul(x, x)
            loss = tg.reduce_sum(y)
        tape.backward(loss)
        dead = weakref.ref(tape)
        del tape  # the tensors hold it weakly: no cycle keeps it
        assert dead() is None
        assert x.node_id is None and y.node_id is None and loss.node_id is None
        assert x._node_tape is None
        np.testing.assert_array_equal(x.grad, [2.0, 4.0])
        with pytest.raises(tg.UsageError):
            x.register_hook(lambda g: g)

    def test_a_loss_from_another_tape_is_refused(self):
        x = Tensor([1.0], requires_grad=True)
        with Tape() as first:
            tg.mul(x, x)
        with Tape() as second:
            loss = tg.reduce_sum(tg.mul(x, x))
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
            loss = tg.reduce_sum(tg.mul(x, x))
        tape.backward(loss)
        with pytest.raises(tg.StateError):
            tape.backward(loss)

    def test_only_leaves_keep_a_gradient(self):
        a = Tensor([1.0, -2.0], requires_grad=True)
        b = Tensor([3.0, 0.5], requires_grad=True)
        seen = []
        with Tape() as tape:
            y = tg.mul(a, b)
            y.register_hook(lambda g: (seen.append(g.copy()), g)[1])
            z = tg.relu(y)
            loss = tg.reduce_sum(tg.scale(z, 2.0))
        tape.backward(loss)
        assert y.grad is None and z.grad is None and loss.grad is None
        np.testing.assert_array_equal(a.grad, [6.0, 0.0])   # 2 * relu'(y) * b
        np.testing.assert_array_equal(b.grad, [2.0, -0.0])
        np.testing.assert_array_equal(seen, [[2.0, 0.0]])  # the hook sees y's gradient

    def test_the_tape_is_the_one_way_into_backward(self):
        assert not hasattr(tg, "backward") and not hasattr(Tensor, "backward")
        assert not hasattr(Tape, "register_hook")

    def test_shared_leaf_accumulates_from_both_consumers(self):
        x = Tensor([2.0], requires_grad=True)
        with Tape() as tape:
            loss = tg.reduce_sum(tg.add(tg.mul(x, x), tg.scale(x, 3.0)))
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
            loss = tg.reduce_sum(y)
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
                loss = tg.reduce_sum(y)
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
            loss = tg.reduce_sum(y)
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
            loss = tg.reduce_sum(y)
        tape.backward(loss)
        np.testing.assert_array_equal(x.grad, [8.0])

    def test_identity_hook_changes_nothing(self):
        x = Tensor([4.0], requires_grad=True)
        with Tape() as tape:
            y = tg.mul(x, x)
            y.register_hook(lambda g: g)
            loss = tg.reduce_sum(y)
        tape.backward(loss)
        np.testing.assert_array_equal(x.grad, [8.0])

    def test_hook_on_leaf_fires_per_incoming_gradient(self):
        calls = []
        x = Tensor([2.0], requires_grad=True)
        with Tape() as tape:
            y = tg.add(tg.scale(x, 2.0), tg.scale(x, 3.0))
            x.register_hook(lambda g: (calls.append(g.copy()), g)[1])
            loss = tg.reduce_sum(y)
        tape.backward(loss)
        assert sorted(g[0] for g in calls) == [2.0, 3.0]  # one per consumer

    def test_shape_changing_hook_rejected(self):
        x = Tensor([1.0, 2.0], requires_grad=True)
        with Tape() as tape:
            y = tg.mul(x, x)
            y.register_hook(lambda g: g[:1])
            loss = tg.reduce_sum(y)
        with pytest.raises(tg.ShapeError):
            tape.backward(loss)

    def test_hook_without_node_rejected(self):
        x = Tensor([1.0], requires_grad=True)
        with pytest.raises(tg.UsageError):
            x.register_hook(lambda g: g)

    def test_removing_a_handle_twice_is_a_no_op(self):
        x = Tensor([4.0], requires_grad=True)
        with Tape() as tape:
            y = tg.mul(x, x)
            first = y.register_hook(lambda g: g * 100.0)
            y.register_hook(lambda g: g * 3.0)
            first.remove()
            first.remove()
            loss = tg.reduce_sum(y)
        tape.backward(loss)
        np.testing.assert_array_equal(x.grad, [24.0])  # 3 * 2x

    def test_two_registrations_of_one_function_come_off_one_at_a_time(self):
        def tripled(g):
            return g * 3.0

        def grad(removed):
            x = Tensor([4.0], requires_grad=True)
            with Tape() as tape:
                y = tg.mul(x, x)
                handles = [y.register_hook(tripled) for _ in range(2)]
                for h in handles[:removed]:
                    h.remove()
                    h.remove()
                loss = tg.reduce_sum(y)
            tape.backward(loss)
            return x.grad[0]

        assert [grad(n) for n in (0, 1, 2)] == [72.0, 24.0, 8.0]

    def test_a_handle_leaves_no_reference_cycle(self):
        gc.collect()
        gc.disable()
        try:
            x = Tensor([4.0], requires_grad=True)
            with Tape() as tape:
                y = tg.mul(x, x)
                handle = y.register_hook(lambda g: g)
                loss = tg.reduce_sum(y)
            tape.backward(loss)
            dead = weakref.ref(tape)
            del tape, y, loss, handle
            assert dead() is None and gc.collect() == 0
        finally:
            gc.enable()


class TestTensorBasics:
    def test_default_dtype_is_double(self):
        assert Tensor([1, 2, 3]).dtype == np.float64

    def test_float32_preserved(self):
        x = Tensor(np.zeros(3, dtype=np.float32))
        assert x.dtype == np.float32
        assert tg.sigmoid(x).dtype == np.float32

    def test_numeric_oracle_sanity(self):
        # the oracle itself must be trustworthy: check it on a known function
        x = np.array([1.0, 2.0, 3.0])
        g = numeric_grad(lambda: (x ** 2).sum(), x)
        assert relative_error(g, 2.0 * x) < 1e-8

    @pytest.mark.parametrize("taped", [False, True])
    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_op_results_are_contiguous_arrays_of_the_op_dtype(self, dtype, taped):
        # an op keeps its operands' memory order, so C-order operands give
        # C-order results; permute copies into a fresh C-order array
        x = Tensor(np.arange(6.0, dtype=dtype).reshape(2, 3), requires_grad=True)
        with Tape() if taped else contextlib.nullcontext() as tape:
            outs = {
                "permute": tg.permute(x, (1, 0)),         # a strided view, copied
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
        assert not np.shares_memory(outs["permute"].data, x.data)
