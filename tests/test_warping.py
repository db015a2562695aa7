import numpy as np
import pytest

from warpadapt import kernels as K
from warpadapt.autograd import Tensor, backward, grad_check, topo_order
from warpadapt.errors import ShapeError, UsageError
from warpadapt.warping import multiscale_warp_loss, resize_field, stagewise_warp_loss, warp


def rand_img(shape, seed=0, smooth=False):
    rng = np.random.default_rng(seed)
    v = rng.uniform(0.0, 1.0, size=shape).astype(np.float32)
    t = Tensor(v)
    if smooth:
        t = K.gaussian_blur(K.gaussian_blur(t, 7, 2.0), 7, 2.0)
    return Tensor(t.data)


def const_field(shape_hw, values, batch=1):
    """One channel per value: a scalar makes a disparity, a pair (u, v) a flow."""
    h, w = shape_hw
    values = np.atleast_1d(values)
    data = np.zeros((batch, values.size, h, w), dtype=np.float32)
    for i, v in enumerate(values):
        data[:, i] = v
    return Tensor(data)


class TestWarpDisparity:
    def test_zero_field_identity(self):
        src = rand_img((2, 3, 6, 10), seed=1)
        out = warp(src, const_field((6, 10), 0.0, batch=2))
        assert np.array_equal(out.data, src.data)

    def test_integer_shift_recovers_original(self):
        orig = rand_img((1, 2, 6, 16), seed=2)
        src = np.zeros_like(orig.data)
        src[:, :, :, :-3] = orig.data[:, :, :, 3:]
        out = warp(Tensor(src), const_field((6, 16), 3.0), sign=1)
        assert np.allclose(out.data[:, :, :, 3:], orig.data[:, :, :, 3:], atol=1e-6)

    def test_fully_out_of_bounds(self):
        src = rand_img((1, 1, 4, 8), seed=3)
        out = warp(src, const_field((4, 8), 13.0))
        assert np.all(out.data == 0)

    def test_sign_minus_moves_left_to_right(self):
        orig = rand_img((1, 1, 4, 16), seed=4)
        # right view shows content shifted left: right(x) = left(x + d)
        right = np.zeros_like(orig.data)
        right[:, :, :, :-2] = orig.data[:, :, :, 2:]
        out = warp(orig, const_field((4, 16), 2.0), sign=-1)
        assert np.allclose(out.data[:, :, :, :-2], right[:, :, :, :-2], atol=1e-6)

    def test_shape_mismatch(self):
        with pytest.raises(ShapeError):
            warp(rand_img((1, 1, 4, 8)), const_field((4, 6), 0.0))
        with pytest.raises(ShapeError):
            warp(rand_img((1, 1, 4, 8)), const_field((4, 8), 0.0, batch=2))

    def test_three_channels_rejected(self):
        with pytest.raises(ShapeError, match="channels"):
            warp(rand_img((1, 1, 4, 8)), const_field((4, 8), (0.0, 0.0, 0.0)))

    @pytest.mark.parametrize("sign", [1, -1])
    def test_matches_flow_minus_d_zero(self, sign):
        rng = np.random.default_rng(14)
        d = rng.uniform(0.0, 3.0, (2, 1, 6, 10)).astype(np.float32)
        flow = np.concatenate([-d, np.zeros_like(d)], axis=1)
        runs = []
        for values in (d, flow):
            src = Tensor(rand_img((2, 3, 6, 10), seed=15).data, requires_grad=True)
            field = Tensor(values, requires_grad=True)
            out = warp(src, field, sign)
            backward((out * out).sum())
            runs.append((out.data, src.grad, field.grad))
        (out_d, src_d, field_d), (out_f, src_f, field_f) = runs
        assert np.array_equal(out_d, out_f)
        assert np.array_equal(src_d, src_f)
        assert np.array_equal(field_d, -field_f[:, :1])
        assert np.abs(field_d).sum() > 0


class TestWarpFlow:
    def test_zero_field_identity(self):
        src = rand_img((1, 3, 6, 8), seed=5)
        out = warp(src, const_field((6, 8), (0.0, 0.0)))
        assert np.array_equal(out.data, src.data)

    def test_translation_interior_matches(self):
        left = rand_img((1, 2, 8, 12), seed=6)
        nxt = np.zeros_like(left.data)
        nxt[:, :, 1:, 2:] = left.data[:, :, :-1, :-2]  # content moved by (u=2, v=1)
        out = warp(Tensor(nxt), const_field((8, 12), (2.0, 1.0)), sign=1)
        assert np.allclose(out.data[:, :, :-1, :-2], left.data[:, :, :-1, :-2], atol=1e-6)

    def test_gradient_wrt_flow(self):
        rng = np.random.default_rng(7)
        src = Tensor(rng.uniform(0, 1, (1, 2, 6, 8)))
        fvals = rng.integers(-2, 2, (1, 2, 6, 8)) + rng.uniform(0.25, 0.75, (1, 2, 6, 8))
        flow = Tensor(fvals)
        err = grad_check(
            lambda t: K.square(warp(src, t)).mean(), flow)
        assert err < 1e-3


class TestWarpTape:
    @pytest.mark.parametrize("channels", [1, 2])
    def test_two_nodes_per_warp(self, channels):
        # the signed field and the sample: no coordinate grid, no zero channel
        src = rand_img((1, 2, 4, 8))
        field = Tensor(np.ones((1, channels, 4, 8), dtype=np.float32), requires_grad=True)
        assert len(topo_order(warp(src, field, sign=-1))) == 2


class TestFieldResize:
    def test_downscale_halves_values(self):
        f = const_field((8, 12), 4.0)
        down = resize_field(f, (4, 6))
        assert down.shape == (1, 1, 4, 6)
        assert np.allclose(down.data, 2.0)

    def test_round_trip_constant(self):
        f = const_field((8, 8), (3.0, -1.0))
        back = resize_field(resize_field(f, (4, 4)), (8, 8))
        assert np.allclose(back.data[:, 0], 3.0)
        assert np.allclose(back.data[:, 1], -1.0)

    @pytest.mark.parametrize("shape, target", [((8, 8), (4, 6)), ((8, 8), (6, 6)),
                                               ((8, 8), (8, 4)), ((6, 10), (1, 2))])
    def test_unreachable_extent_refused(self, shape, target):
        # a mixed aspect, a ratio that is not a power of 2, and an odd extent on the way
        with pytest.raises(ShapeError):
            resize_field(const_field(shape, 1.0), target)

    def test_halfscale_warp_matches_downsampled_warp(self):
        for seed in range(10):
            img = rand_img((1, 1, 16, 24), seed=40 + seed, smooth=True)
            rng = np.random.default_rng(90 + seed)
            fvals = K.gaussian_blur(
                Tensor(rng.uniform(0, 3, (1, 1, 16, 24)).astype(np.float32)), 7, 2.0)
            field = Tensor(fvals.data)
            full = warp(img, field)
            down_of_full = K.downsample2(full)
            half_img = K.downsample2(img)
            half = warp(Tensor(half_img.data), resize_field(field, (8, 12)))
            interior = (slice(None), slice(None), slice(1, -1), slice(2, -2))
            err = np.abs(down_of_full.data[interior] - half.data[interior]).mean()
            assert err < 1e-2


class TestMultiscaleWarpLoss:
    def test_identical_taps_zero_field(self):
        taps = [rand_img((1, 2, 8, 8), seed=8), rand_img((1, 4, 4, 4), seed=9)]
        field = const_field((8, 8), 0.0)
        loss = multiscale_warp_loss(field, [(taps, taps, 1)])
        assert loss.item() == 0.0

    def test_single_tap_matches_hand_computation(self):
        rng = np.random.default_rng(10)
        src = rng.uniform(0, 1, (1, 1, 4, 4))
        dst = rng.uniform(0, 1, (1, 1, 4, 4))
        d = 1.5
        # brute-force: out(x) = bilinear sample of src at x - d, zero outside
        want = np.zeros((4, 4))
        for y in range(4):
            for x in range(4):
                gx = x - d
                x0 = int(np.floor(gx))
                fx = gx - x0
                acc = 0.0
                if 0 <= x0 < 4:
                    acc += (1 - fx) * src[0, 0, y, x0]
                if 0 <= x0 + 1 < 4:
                    acc += fx * src[0, 0, y, x0 + 1]
                want[y, x] = acc
        expected = np.abs(want - dst[0, 0]).mean()
        loss = multiscale_warp_loss(const_field((4, 4), d), [([Tensor(src)], [Tensor(dst)], 1)])
        assert loss.item() == pytest.approx(expected, rel=1e-6)

    def test_zero_mask_annihilates(self):
        taps_src = [rand_img((1, 2, 8, 8), seed=11)]
        taps_dst = [rand_img((1, 2, 8, 8), seed=12)]
        field = const_field((8, 8), 1.0)
        mask = Tensor(np.zeros((1, 1, 8, 8), dtype=np.float32))
        loss = multiscale_warp_loss(field, [(taps_src, taps_dst, 1)], mask=mask)
        assert loss.item() == 0.0

    def test_mask_halved_per_tap(self):
        # taps at 1/1, 1/2, 1/2 and 1/4: each tap's mask is the full mask
        # averaged down to its extent
        shapes = [(1, 2, 16, 16), (1, 3, 8, 8), (1, 3, 8, 8), (1, 4, 4, 4)]
        src = [rand_img(s, seed=20 + i) for i, s in enumerate(shapes)]
        dst = [rand_img(s, seed=30 + i) for i, s in enumerate(shapes)]
        rng = np.random.default_rng(21)
        field = Tensor(rng.uniform(0, 3, (1, 1, 16, 16)).astype(np.float32))
        mask = Tensor((rng.uniform(0, 1, (1, 1, 16, 16)) > 0.3).astype(np.float32))
        want = 0.0
        for a, b in zip(src, dst):
            m = mask
            while m.shape[2:] != a.shape[2:]:
                m = K.downsample2(m)
            level = resize_field(field, a.shape[2:])
            want += multiscale_warp_loss(level, [([a], [b], 1)], mask=m).item()
        got = multiscale_warp_loss(field, [(src, dst, 1)], mask=mask).item()
        assert got == pytest.approx(want / len(shapes), rel=1e-6)

    def test_length_mismatch(self):
        taps = [rand_img((1, 2, 8, 8))]
        with pytest.raises(UsageError):
            multiscale_warp_loss(const_field((8, 8), 0.0), [(taps, taps * 2, 1)])


# the generator's taps: 1/2, 1/4 and 1/4 of the frame
GEN_TAP_SHAPES = [(2, 4, 16, 32), (2, 8, 8, 16), (2, 8, 8, 16)]


def gen_taps(seed):
    return [Tensor(rand_img(s, seed=seed + i).data, requires_grad=True)
            for i, s in enumerate(GEN_TAP_SHAPES)]


class TestWarpsAlongOneField:
    """Several warps along one field share each level's resized field and mask."""

    @pytest.mark.parametrize("channels, masked", [(1, False), (2, True)])
    def test_equals_sum_of_one_warp_calls(self, channels, masked):
        rng = np.random.default_rng(40 + channels)
        field = Tensor(rng.uniform(-3, 3, (2, channels, 32, 64)).astype(np.float32),
                       requires_grad=True)
        mask = (Tensor((rng.uniform(0, 1, (2, 1, 32, 64)) > 0.3).astype(np.float32))
                if masked else None)
        a, b = gen_taps(50), gen_taps(60)
        warps = [(a, b, -1), (b, a, 1)]

        def grads(loss):
            backward(loss)
            out = [t.grad.copy() for t in [field] + a + b]
            for t in [field] + a + b:
                t.grad = None
            return loss.item(), out

        joint, joint_grads = grads(multiscale_warp_loss(field, warps, mask=mask))
        split, split_grads = grads(multiscale_warp_loss(field, warps[:1], mask=mask)
                                   + multiscale_warp_loss(field, warps[1:], mask=mask))
        assert joint == split
        for got, want in zip(joint_grads, split_grads):
            np.testing.assert_allclose(got, want, rtol=0, atol=1e-6)

    @pytest.mark.parametrize("masked", [False, True])
    @pytest.mark.parametrize("count", [1, 2, 3])
    def test_resamples_once_per_level(self, monkeypatch, count, masked):
        calls = []
        real = K.downsample2
        monkeypatch.setattr(K, "downsample2", lambda x: calls.append(x.shape) or real(x))
        taps = gen_taps(70)
        mask = Tensor(np.ones((2, 1, 32, 64), dtype=np.float32)) if masked else None
        multiscale_warp_loss(const_field((32, 64), (1.0, -0.5), batch=2),
                             [(taps, taps, (-1) ** i) for i in range(count)], mask=mask)
        # the flow field, then the mask, once at 1/2 and once at 1/4
        want = [(2, 2, 32, 64), (2, 1, 32, 64), (2, 2, 16, 32), (2, 1, 16, 32)]
        assert calls == (want if masked else want[::2])

    @pytest.mark.parametrize("case", ["no_warps", "no_taps", "counts_differ_across_warps"])
    def test_tap_counts_refused(self, case):
        taps = gen_taps(90)
        warps = {"no_warps": [], "no_taps": [([], [], 1)],
                 "counts_differ_across_warps": [(taps, taps, 1), (taps[:2], taps[:2], -1)]}[case]
        with pytest.raises(UsageError):
            multiscale_warp_loss(const_field((32, 64), 1.0, batch=2), warps)

    @pytest.mark.parametrize("case", ["extent_differs_across_warps", "src_dst_differ"])
    def test_tap_extent_refused(self, case):
        taps = gen_taps(100)
        odd = taps[:1] + [rand_img((2, 8, 4, 8))] + taps[2:]
        warps = {"extent_differs_across_warps": [(taps, taps, 1), (odd, odd, -1)],
                 "src_dst_differ": [(taps, odd, 1)]}[case]
        with pytest.raises(ShapeError):
            multiscale_warp_loss(const_field((32, 64), 1.0, batch=2), warps)


class TestStagewiseWarpLoss:
    def test_single_stage_is_plain_smooth_l1(self):
        rng = np.random.default_rng(13)
        stage = Tensor(rng.uniform(0, 4, (1, 1, 8, 8)))
        target = Tensor(rng.uniform(0, 4, (1, 1, 8, 8)))
        loss = stagewise_warp_loss([stage], target, gamma=0.9)
        want = K.smooth_l1(stage, target).mean().item()
        assert loss.item() == pytest.approx(want, rel=1e-6)

    def test_exact_stages_give_zero(self):
        target = const_field((8, 8), 4.0)
        stages = [Tensor(np.full((1, 1, 2, 2), 1.0, dtype=np.float32)),
                  Tensor(np.full((1, 1, 4, 4), 2.0, dtype=np.float32)),
                  Tensor(np.full((1, 1, 8, 8), 4.0, dtype=np.float32))]
        assert stagewise_warp_loss(stages, target, gamma=0.9).item() == 0.0

    def test_unit_error_weight_sum(self):
        target = const_field((8, 8), 2.0)
        stages = [Tensor(np.full((1, 1, 2, 2), 0.75, dtype=np.float32)),   # 3 -> err 1
                  Tensor(np.full((1, 1, 4, 4), 1.5, dtype=np.float32)),    # 3 -> err 1
                  Tensor(np.full((1, 1, 8, 8), 3.0, dtype=np.float32))]    # err 1
        loss = stagewise_warp_loss(stages, target, gamma=0.9)
        assert loss.item() == pytest.approx(2.71 * 0.5, rel=1e-5)

    def test_empty_stages(self):
        with pytest.raises(UsageError):
            stagewise_warp_loss([], const_field((4, 4), 0.0))
