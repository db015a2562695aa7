import ctypes
import glob
import inspect
import os

import numpy as np
import pytest

from warpadapt import kernels as K
from warpadapt.autograd import Tensor, backward, concat, div, grad_check, mul, result, topo_order
from warpadapt.checks import kernel_cases
from warpadapt.errors import ShapeError, UsageError
from warpadapt.warping import warp

from test_autograd import make_tensor


def rand(shape, seed=0, lo=-2.0, hi=2.0, dtype=np.float64):
    rng = np.random.default_rng(seed)
    return Tensor(rng.uniform(lo, hi, size=shape).astype(dtype))


# -- independent oracles -------------------------------------------------------

def conv2d_bruteforce(x, w, b, stride, pad):
    """Each output pixel sums, per kernel tap, the padded input pixel under it
    times that tap's (cout, cin) weights, over the batch and channels at once."""
    bs, cin, h, wd = x.shape
    cout, _, kh, kw = w.shape
    ho = (h + 2 * pad - kh) // stride + 1
    wo = (wd + 2 * pad - kw) // stride + 1
    xp = np.pad(x, ((0, 0), (0, 0), (pad, pad), (pad, pad)))
    out = np.zeros((bs, cout, ho, wo)) + b
    for y in range(ho):
        for z in range(wo):
            for i in range(kh):
                for j in range(kw):
                    out[:, :, y, z] += xp[:, :, y * stride + i, z * stride + j] @ w[:, :, i, j].T
    return out


def conv_transpose2d_bruteforce(x, w, b, stride, pad):
    """Scatter each input pixel through the kernel, then crop ``pad`` per side."""
    bs, cin, h, wd = x.shape
    _, cout, kh, kw = w.shape
    ho = (h - 1) * stride - 2 * pad + kh
    wo = (wd - 1) * stride - 2 * pad + kw
    out = np.zeros((bs, cout, ho, wo)) + b
    for y in range(h):
        for z in range(wd):
            for i in range(kh):
                for j in range(kw):
                    oy, oz = y * stride + i - pad, z * stride + j - pad
                    if 0 <= oy < ho and 0 <= oz < wo:
                        out[:, :, oy, oz] += x[:, :, y, z] @ w[:, :, i, j]
    return out


def conv2d_input_grad_bruteforce(g, w, stride, pad, h, wd):
    """conv2d's input gradient for an output gradient ``g``: the uncropped
    transposed conv of g with the same weight, on the padded input's grid and
    then cropped. An input row or column that no tap reads stays zero."""
    full = conv_transpose2d_bruteforce(g, w, 0.0, stride, 0)
    dxp = np.zeros(g.shape[:1] + w.shape[1:2] + (h + 2 * pad, wd + 2 * pad))
    dxp[:, :, :full.shape[2], :full.shape[3]] = full
    return dxp[:, :, pad:pad + h, pad:pad + wd]


def channel_major(v, pad=0):
    """(b, c, h, w) -> contiguous, zero-padded (c, b, h + 2 pad, w + 2 pad):
    the layout the references below read."""
    return np.ascontiguousarray(np.pad(v, ((0, 0), (0, 0), (pad, pad), (pad, pad)))
                                .transpose(1, 0, 2, 3))


def correlate_whole_window(xp, w):
    """Stride-1 valid correlation of a padded channel-major (cin, b, H, W)
    array: one GEMM per tap over the whole flat window, summed in tap order.
    This is the untiled reference for ``K._gather``'s correlation."""
    cin, bs, hp, wp = xp.shape
    cout, _, kh, kw = w.shape
    flat = xp.reshape(cin, -1)
    span = flat.shape[1] - (kh - 1) * wp - (kw - 1)
    out = 0
    for i in range(kh):
        for j in range(kw):
            out += K._matmul(w[:, :, i, j], flat[:, i * wp + j:i * wp + j + span])
    grid = np.empty((cout, bs * hp * wp), dtype=out.dtype)
    grid[:, :span] = out
    return grid.reshape(cout, bs, hp, wp)[:, :, :hp - kh + 1, :wp - kw + 1]


def wgrad_whole_window(gc, xp, kh, kw):
    """Weight gradient of ``correlate_whole_window`` for a (cout, b, ho, wo)
    output gradient: one (cout x n) @ (n x cin) product per tap."""
    cout, bs, ho, wo = gc.shape
    cin, _, hp, wp = xp.shape
    grid = np.zeros((cout, bs, hp, wp), dtype=gc.dtype)
    grid[:, :, :ho, :wo] = gc
    gm = grid.reshape(cout, -1)
    flat = xp.reshape(cin, -1)
    span = flat.shape[1] - (kh - 1) * wp - (kw - 1)
    dw = np.empty((cout, cin, kh, kw), dtype=gc.dtype)
    for i in range(kh):
        for j in range(kw):
            dw[:, :, i, j] = gm[:, :span] @ flat[:, i * wp + j:i * wp + j + span].T
    return dw


def strided_taps(ap, kh, kw, stride):
    """(i, j, tap) per kernel tap of a padded channel-major (c, b, H, W) array,
    each tap a (c, b * ho * wo) copy of its strided slice."""
    c, _, hp, wp = ap.shape
    ho, wo = (hp - kh) // stride + 1, (wp - kw) // stride + 1
    for i in range(kh):
        for j in range(kw):
            tap = ap[:, :, i:i + stride * (ho - 1) + 1:stride, j:j + stride * (wo - 1) + 1:stride]
            yield i, j, tap.reshape(c, -1)


def correlate_strided(ap, w, stride):
    """Valid strided correlation: one product per tap, summed in tap order."""
    _, bs, hp, wp = ap.shape
    n, _, kh, kw = w.shape
    out = 0
    for i, j, tap in strided_taps(ap, kh, kw, stride):
        out += K._matmul(w[:, :, i, j], tap)
    return out.reshape(n, bs, (hp - kh) // stride + 1, (wp - kw) // stride + 1)


def wgrad_strided(gc, ap, kh, kw, stride):
    """Weight gradient of ``correlate_strided`` for an (n, b, ho, wo) output
    gradient: one (n x m) @ (m x c) product per tap."""
    gm = gc.reshape(gc.shape[0], -1)
    dw = np.empty((gc.shape[0], ap.shape[0], kh, kw), dtype=gc.dtype)
    for i, j, tap in strided_taps(ap, kh, kw, stride):
        dw[:, :, i, j] = gm @ tap.T
    return dw


def bilinear_sample_bruteforce(img, gx, gy):
    """Zero outside: each of the four taps contributes only when in bounds."""
    c, h, w = img.shape
    x0, y0 = int(np.floor(gx)), int(np.floor(gy))
    fx, fy = gx - x0, gy - y0
    out = np.zeros(c)
    for dy, dx, wt in ((0, 0, (1 - fy) * (1 - fx)), (0, 1, (1 - fy) * fx),
                       (1, 0, fy * (1 - fx)), (1, 1, fy * fx)):
        yy, xx = y0 + dy, x0 + dx
        if 0 <= yy < h and 0 <= xx < w:
            out += wt * img[:, yy, xx]
    return out


def grid_sample_absolute(x, grid):
    """Bilinear sample of ``x`` at the absolute pixel coordinates of a
    (b, 2, ho, wo) ``grid``: all four corners, both grid channels, on the tape."""
    bs, c, h, w = x.shape
    ho, wo = grid.shape[2], grid.shape[3]
    gx = grid.data[:, 0]
    gy = grid.data[:, 1]
    x0 = np.floor(gx).astype(np.int64)
    y0 = np.floor(gy).astype(np.int64)
    fx = (gx - x0).astype(x.dtype)
    fy = (gy - y0).astype(x.dtype)

    taps = []
    corners = []
    out = np.zeros((bs, ho, wo, c), dtype=x.dtype)
    bidx = np.arange(bs).reshape(bs, 1, 1)
    for dy, dx_, wgt in ((0, 0, (1 - fy) * (1 - fx)), (0, 1, (1 - fy) * fx),
                         (1, 0, fy * (1 - fx)), (1, 1, fy * fx)):
        yi = y0 + dy
        xi = x0 + dx_
        ok = (yi >= 0) & (yi < h) & (xi >= 0) & (xi < w)
        yc = np.clip(yi, 0, h - 1)
        xc = np.clip(xi, 0, w - 1)
        vals = x.data[bidx, :, yc, xc]
        vals[~ok] = 0
        out += wgt[:, :, :, None] * vals
        taps.append((wgt, ok, yc, xc))
        corners.append(vals)
    out = out.transpose(0, 3, 1, 2)

    def backward(g):
        gt = np.ascontiguousarray(g.transpose(0, 2, 3, 1))
        dx_total = np.zeros(bs * c * h * w, dtype=np.float64)
        for wgt, ok, yc, xc in taps:
            contrib = gt * wgt[:, :, :, None]
            contrib[~ok] = 0
            cidx = np.arange(c).reshape(1, 1, 1, c)
            flat = ((bidx[..., None] * c + cidx) * h + yc[..., None]) * w + xc[..., None]
            dx_total += np.bincount(flat.reshape(-1), weights=contrib.reshape(-1),
                                    minlength=bs * c * h * w)
        v00, v01, v10, v11 = corners
        dgx = (1 - fy)[:, :, :, None] * (v01 - v00) + fy[:, :, :, None] * (v11 - v10)
        dgy = (1 - fx)[:, :, :, None] * (v10 - v00) + fx[:, :, :, None] * (v11 - v01)
        dgrid = np.stack([(gt * dgx).sum(axis=3), (gt * dgy).sum(axis=3)], axis=1)
        return dx_total.reshape(bs, c, h, w).astype(x.dtype), dgrid.astype(grid.dtype)

    return result(out, (x, grid), backward)


def warp_absolute(src, field, sign):
    """``warp`` through an absolute coordinate grid: a disparity d becomes the
    flow (-d, 0), and the grid is the pixel coordinates plus the signed flow."""
    if field.shape[1] == 1:
        field = concat([field * -1.0, Tensor(np.zeros_like(field.data))], axis=1)
    b, _, h, w = src.shape
    ys, xs = np.meshgrid(np.arange(h, dtype=src.dtype), np.arange(w, dtype=src.dtype),
                         indexing="ij")
    pixels = Tensor(np.broadcast_to(np.stack([xs, ys]), (b, 2, h, w)))
    return grid_sample_absolute(src, pixels + field * float(sign))


def correlation_bruteforce(a, b, disps):
    bs, c, h, w = a.shape
    out = np.zeros((bs, len(disps), h, w))
    for n in range(bs):
        for j, k in enumerate(disps):
            for y in range(h):
                for x in range(w):
                    if 0 <= x - k < w:
                        out[n, j, y, x] = np.mean(a[n, :, y, x] * b[n, :, y, x - k])
    return out


def upsample_matrix(n):
    """(2n, n) matrix of the factor-2 bilinear upsample along one axis, with
    each edge sample replicated past the edge."""
    u = np.zeros((2 * n, n))
    for i in range(n):
        u[2 * i, max(i - 1, 0)] += 0.25
        u[2 * i, i] += 0.75
        u[2 * i + 1, i] += 0.75
        u[2 * i + 1, min(i + 1, n - 1)] += 0.25
    return u


def gaussian_window(size, sigma):
    t = np.arange(size) - (size - 1) / 2.0
    g = np.exp(-t * t / (2 * sigma * sigma))
    return g / g.sum()


def blur_taps(v, size, sigma):
    """The Gaussian blur as a tap loop per axis over a zero-padded copy."""
    win = gaussian_window(size, sigma)
    half = size // 2
    for axis in (2, 3):
        pads = [(0, 0)] * 4
        pads[axis] = (half, half)
        vp = np.pad(v, pads)
        out = np.zeros_like(v)
        for k in range(size):
            out += win[k] * vp[K._along(axis, slice(k, k + v.shape[axis]))]
        v = out
    return v


def ssim_bruteforce(a, b, size=11, sigma=1.5):
    """Windowed SSIM with zero padding, looped per pixel in float64."""
    win1 = gaussian_window(size, sigma)
    win = np.outer(win1, win1)
    half = size // 2
    bs, c, h, w = a.shape
    ap = np.pad(a, ((0, 0), (0, 0), (half, half), (half, half)))
    bp = np.pad(b, ((0, 0), (0, 0), (half, half), (half, half)))
    c1, c2 = 0.01 ** 2, 0.03 ** 2
    out = np.zeros_like(a)
    for n in range(bs):
        for ch in range(c):
            for y in range(h):
                for x in range(w):
                    wa = ap[n, ch, y:y + size, x:x + size]
                    wb = bp[n, ch, y:y + size, x:x + size]
                    mu_a = (win * wa).sum()
                    mu_b = (win * wb).sum()
                    va = (win * wa * wa).sum() - mu_a ** 2
                    vb = (win * wb * wb).sum() - mu_b ** 2
                    cov = (win * wa * wb).sum() - mu_a * mu_b
                    out[n, ch, y, x] = ((2 * mu_a * mu_b + c1) * (2 * cov + c2)) / \
                                       ((mu_a ** 2 + mu_b ** 2 + c1) * (va + vb + c2))
    return out


# -- forward correctness -------------------------------------------------------

class TestPointwise:
    def test_smooth_l1_quadratic_branch(self):
        a = make_tensor((1, 1, 1, 1), [0.5])
        b = make_tensor((1, 1, 1, 1), [0.0])
        assert K.smooth_l1(a, b).item() == pytest.approx(0.125)

    def test_smooth_l1_linear_branch(self):
        a = make_tensor((1, 1, 1, 1), [2.5])
        b = make_tensor((1, 1, 1, 1), [0.0])
        assert K.smooth_l1(a, b).item() == pytest.approx(2.0)

    def test_activations_match_numpy(self):
        x = rand((1, 2, 3, 4), seed=5)
        assert np.allclose(K.tanh(x).data, np.tanh(x.data))
        assert np.allclose(K.softplus(x).data, np.log1p(np.exp(x.data)))


class TestConv:
    def test_conv2d_matches_bruteforce(self):
        # odd extents at stride 2 leave the last padded row and column unread
        for shape in ((2, 3, 6, 8), (2, 3, 7, 9)):
            for stride in (1, 2):
                x = rand(shape, seed=7)
                w = rand((4, 3, 3, 3), seed=8, lo=-1, hi=1)
                b = rand((1, 4, 1, 1), seed=9)
                got = K.conv2d(x, w, b, stride=stride, pad=1).data
                want = conv2d_bruteforce(x.data, w.data, b.data, stride, 1)
                assert got.shape == want.shape
                assert np.allclose(got, want, atol=1e-10)

    @pytest.mark.parametrize("cout", [3, 8])
    def test_conv_transpose_matches_bruteforce(self, cout):
        # the decoder layouts: (cin, cout, 4, 4) weights, stride 2, pad 1
        x = rand((2, 4, 3, 5), seed=14)
        w = rand((4, cout, 4, 4), seed=15, lo=-1, hi=1)
        b = rand((1, cout, 1, 1), seed=16)
        got = K.conv_transpose2d(x, w, b, stride=2, pad=1).data
        want = conv_transpose2d_bruteforce(x.data, w.data, b.data, 2, 1)
        assert got.shape == want.shape == (2, cout, 6, 10)
        assert np.allclose(got, want, atol=1e-10)

    # kernel x stride x pad x batch x cout x extents. Batch 3 makes the flat
    # stride-1 windows cross sample boundaries; cout 1 is the networks' output
    # heads; odd extents leave the last padded row or column unread at stride 2.
    @pytest.mark.parametrize("transposed", [False, True], ids=["conv", "convT"])
    @pytest.mark.parametrize("k,stride,pad,bs,cout,hw", [
        (k, s, p, bs, cout, hw) for k in (1, 2, 3, 4) for s in (1, 2) for p in (0, 1, 2)
        for bs in (1, 3) for cout in (1, 2) for hw in ((5, 7), (6, 8), (5, 8), (6, 7))])
    def test_oracle_sweep(self, transposed, k, stride, pad, bs, cout, hw):
        conv, oracle = ((K.conv_transpose2d, conv_transpose2d_bruteforce) if transposed
                        else (K.conv2d, conv2d_bruteforce))
        rng = np.random.default_rng([k, stride, pad, bs, cout, *hw, transposed])
        cin = 2
        x = Tensor(rng.standard_normal((bs, cin) + hw), requires_grad=True)
        w = Tensor(rng.standard_normal((cin, cout, k, k) if transposed else (cout, cin, k, k)),
                   requires_grad=True)
        b = Tensor(rng.standard_normal((1, cout, 1, 1)))
        y = conv(x, w, b, stride=stride, pad=pad)
        want = oracle(x.data, w.data, b.data, stride, pad)
        assert y.shape == want.shape
        assert np.allclose(y.data, want, atol=1e-10)
        # both convolutions are linear in x and in w once the bias is zero, so
        # each gradient of <dy, y> satisfies <dy, conv(x')> == <x', dx>
        dy = rng.standard_normal(y.shape)
        backward((y * Tensor(dy)).sum())
        zb = Tensor(np.zeros((1, cout, 1, 1)))
        x2 = rng.standard_normal(x.shape)
        w2 = rng.standard_normal(w.shape)
        lhs_x = (dy * conv(Tensor(x2), w, zb, stride=stride, pad=pad).data).sum()
        lhs_w = (dy * conv(x, Tensor(w2), zb, stride=stride, pad=pad).data).sum()
        assert np.isclose(lhs_x, (x2 * x.grad).sum(), rtol=1e-10, atol=1e-10)
        assert np.isclose(lhs_w, (w2 * w.grad).sum(), rtol=1e-10, atol=1e-10)

    def test_conv_transpose_doubles_extent(self):
        x = rand((1, 3, 5, 7), seed=10)
        w = rand((3, 2, 4, 4), seed=11, lo=-1, hi=1)
        b = rand((1, 2, 1, 1), seed=12)
        out = K.conv_transpose2d(x, w, b, stride=2, pad=1)
        assert out.shape == (1, 2, 10, 14)

    def test_conv_transpose_is_conv_adjoint(self):
        # <conv(x, w), y> == <x, convT(y, w)>: same weight array, first axis
        # reinterpreted as the transposed conv's input channels
        rng = np.random.default_rng(13)
        x = Tensor(rng.standard_normal((1, 3, 6, 8)))
        y = Tensor(rng.standard_normal((1, 2, 3, 4)))
        w = Tensor(rng.standard_normal((2, 3, 4, 4)) * 0.3)
        zb2 = Tensor(np.zeros((1, 2, 1, 1)))
        zb3 = Tensor(np.zeros((1, 3, 1, 1)))
        fwd = K.conv2d(x, w, zb2, stride=2, pad=1).data
        back = K.conv_transpose2d(y, w, zb3, stride=2, pad=1).data
        assert np.isclose((fwd * y.data).sum(), (x.data * back).sum())

    @pytest.mark.parametrize("inner", [1, 2, 8])
    def test_matmul_bits(self, inner):
        rng = np.random.default_rng(inner)
        for dtype in (np.float32, np.float64):
            a = rng.standard_normal((8, inner)).astype(dtype)
            b = rng.standard_normal((inner, 17952)).astype(dtype)
            assert np.array_equal(K._matmul(a, b), a @ b)

    def test_channel_mismatch(self):
        x = rand((1, 3, 6, 8))
        w = rand((4, 2, 3, 3))
        b = rand((1, 4, 1, 1))
        with pytest.raises(ShapeError):
            K.conv2d(x, w, b)

    @pytest.mark.parametrize("transposed", [False, True], ids=["conv", "convT"])
    @pytest.mark.parametrize("stride,pad", [(0, 1), (3, 1), (1, -1), (2, -1)])
    def test_stride_and_pad_refused(self, transposed, stride, pad):
        # 1x1 kernels, so a negative pad leaves a positive output extent
        conv, w = ((K.conv_transpose2d, rand((2, 3, 1, 1))) if transposed
                   else (K.conv2d, rand((3, 2, 1, 1))))
        with pytest.raises(UsageError, match="stride must be 1 or 2|pad must be >= 0"):
            conv(rand((1, 2, 6, 8)), w, rand((1, 3, 1, 1)), stride=stride, pad=pad)


def leaky_relu(x, slope):
    """The activation as a node of its own, in the where form: x where x > 0,
    else slope * x, with the matching gradient."""
    s = np.asarray(slope, x.dtype.type)
    return result(np.where(x.data > 0, x.data, x.data * s), (x,),
                  lambda g: (np.where(x.data > 0, g, g * s),))


LEAKY_LAYERS = {
    "conv/s1": (K.conv2d, (4, 3, 3, 3), 4, {"stride": 1}),
    "conv/s2": (K.conv2d, (4, 3, 3, 3), 4, {"stride": 2}),
    "convT": (K.conv_transpose2d, (3, 2, 4, 4), 2, {}),
}


class TestLeakyLayer:
    """A convolution's ``slope`` fuses its LeakyReLU into its own node: the
    bits of the convolution followed by the activation node, forward and back."""

    @staticmethod
    def leaves(layer, dtype):
        _, wshape, cout, _ = LEAKY_LAYERS[layer]
        rng = np.random.default_rng(17)
        x = rng.standard_normal((2, 3, 7, 9)).astype(dtype)
        # a zero input block under a zero bias channel puts pre-activations at
        # exactly 0, which both forms send down the slope branch
        x[:, :, :4, :5] = 0
        b = rng.standard_normal((1, cout, 1, 1)).astype(dtype)
        b[0, 0] = 0
        return [Tensor(v, requires_grad=True)
                for v in (x, rng.standard_normal(wshape).astype(dtype), b)]

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("layer", sorted(LEAKY_LAYERS))
    @pytest.mark.parametrize("slope", [0.1, 0.2, 1.0])
    def test_bits_match_conv_then_activation(self, dtype, layer, slope):
        conv, _, _, kw = LEAKY_LAYERS[layer]
        fused, plain = self.leaves(layer, dtype), self.leaves(layer, dtype)
        y = conv(*fused, slope=slope, **kw)
        z = conv(*plain, **kw)
        assert (z.data == 0).any() and (z.data < 0).any()
        s = np.asarray(slope, dtype)
        assert y.data.dtype == dtype
        assert np.array_equal(y.data, np.maximum(z.data, z.data * s))
        assert np.array_equal(np.signbit(y.data), np.signbit(np.maximum(z.data, z.data * s)))
        dy = Tensor(np.random.default_rng(18).standard_normal(y.shape).astype(dtype))
        backward((y * dy).sum())
        backward((leaky_relu(z, slope) * dy).sum())
        for a, b in zip(fused, plain):
            assert a.grad.dtype == b.grad.dtype == dtype
            assert np.array_equal(a.grad, b.grad)

    @pytest.mark.parametrize("layer", sorted(LEAKY_LAYERS))
    @pytest.mark.parametrize("slope", [0.0, -0.1, 1.5, np.nan])
    def test_slope_outside_unit_interval_refused(self, layer, slope):
        conv, _, _, kw = LEAKY_LAYERS[layer]
        with pytest.raises(UsageError, match="slope must be in"):
            conv(*self.leaves(layer, np.float32), slope=slope, **kw)


def flat_span(a, kh=3, kw=3, stride=1):
    """One past the last valid output column of ``K._gather``'s flat grid
    over the phases ``a``."""
    _, bs, hp, wp = a.shape
    return bs * hp * wp - (kh - 1) // stride * wp - (kw - 1) // stride


def tile_count(a, cout, kh=3, kw=3, stride=1):
    """Column tiles ``K._gather`` runs over the phases ``a`` for ``cout`` outputs."""
    return len(K._tiles(flat_span(a, kh, kw, stride), (a.shape[0] + 2 * cout) * a.itemsize))


def openblas_config() -> str:
    """The configuration string of the OpenBLAS bundled with numpy, naming the
    core kernels it picked at run time; empty when there is none to ask."""
    libdir = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
    for path in glob.glob(os.path.join(libdir, "*openblas*")):
        lib = ctypes.CDLL(path)
        for name in ("scipy_openblas_get_config64_", "scipy_openblas_get_config",
                     "openblas_get_config64_", "openblas_get_config"):
            fn = getattr(lib, name, None)
            if fn is not None:
                fn.restype = ctypes.c_char_p
                return fn().decode()
    return ""


# A column tile of a GEMM gives the bits of the whole product only if BLAS runs
# both through kernels that sum each dot product in the same order, which
# depends on the BLAS build and the CPU. It was measured on this one.
_BLAS = openblas_config()
on_measured_blas = pytest.mark.skipif(
    not (_BLAS.startswith("OpenBLAS 0.3.31") and " SkylakeX " in _BLAS),
    reason="tile bit identity was measured on OpenBLAS 0.3.31 with SkylakeX kernels")


def assert_close(got, want):
    """Equal up to a reordering of float sums: a few ulps of the largest value."""
    tol = 1e-5 if want.dtype == np.float32 else 1e-13
    assert got.shape == want.shape and got.dtype == want.dtype
    assert np.abs(got - want).max() <= tol * np.abs(want).max()


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
class TestTiledConv:
    """Stride-1 layers above the tile budget. (2, 13, 64, 128) -> 8 is the
    flow net's full-resolution decoder conv at the default config."""

    @staticmethod
    def layer(dtype, shape=(2, 13, 64, 128), cout=8, seed=0):
        rng = np.random.default_rng(seed)
        x = Tensor(rng.standard_normal(shape).astype(dtype), requires_grad=True)
        w = Tensor((rng.standard_normal((cout, shape[1], 3, 3)) * 0.3).astype(dtype),
                   requires_grad=True)
        b = Tensor(np.zeros((1, cout, 1, 1), dtype=dtype))
        return rng, x, w, b

    def forward_and_input_adjoint(self, dtype):
        """(y, dx) of the tiled layer and of the whole-window reference."""
        rng, x, w, b = self.layer(dtype)
        xp = channel_major(x.data, 1)
        assert tile_count(xp, 8) > 1
        y = K.conv2d(x, w, b)
        want_y = correlate_whole_window(xp, w.data).transpose(1, 0, 2, 3)
        # the input adjoint is the full correlation of g with the flipped kernel
        g = rng.standard_normal(y.shape).astype(dtype)
        gp = channel_major(g, 2)
        w_adj = w.data[:, :, ::-1, ::-1].transpose(1, 0, 2, 3)
        assert tile_count(gp, 13) > 1
        dx, _, _ = y._backward(g)
        want_dx = correlate_whole_window(gp, w_adj)[:, :, 1:-1, 1:-1].transpose(1, 0, 2, 3)
        return y.data, dx, want_y, want_dx

    def test_forward_and_input_adjoint_match_whole_window(self, dtype):
        y, dx, want_y, want_dx = self.forward_and_input_adjoint(dtype)
        assert_close(y, want_y)
        assert_close(dx, want_dx)

    @on_measured_blas
    def test_forward_and_input_adjoint_keep_whole_window_bits(self, dtype):
        y, dx, want_y, want_dx = self.forward_and_input_adjoint(dtype)
        assert np.array_equal(y, want_y)
        assert np.array_equal(dx, want_dx)

    def test_one_output_channel_keeps_bits(self, dtype):
        # a 1-row product is a GEMV, so such a layer keeps one window at any
        # size, and runs the reference's very products; batch 4 is the first
        # at which the pf head passes the budget
        _, x, w, b = self.layer(dtype, shape=(4, 8, 64, 128), cout=1)
        xp = channel_major(x.data, 1)
        assert tile_count(xp, 1) > 1
        y = K.conv2d(x, w, b)
        assert np.array_equal(y.data, correlate_whole_window(xp, w.data).transpose(1, 0, 2, 3))

    def test_one_input_channel_adjoint_keeps_one_window(self, dtype, monkeypatch):
        # the pf head's input adjoint: its taps are outer products, which tiles
        # do not speed up, so it runs the reference's very products on one
        # window, and the bits hold on any BLAS
        rng, x, w, b = self.layer(dtype, shape=(2, 8, 64, 128), cout=1)
        y = K.conv2d(x, Tensor(w.data), b)
        g = rng.standard_normal(y.shape).astype(dtype)
        gp = channel_major(g, 2)
        assert tile_count(gp, 8) > 1
        monkeypatch.setattr(K, "_tiles", lambda *args: pytest.fail("the layer ran in tiles"))
        dx, _, _ = y._backward(g)
        w_adj = w.data[:, :, ::-1, ::-1].transpose(1, 0, 2, 3)
        want = correlate_whole_window(gp, w_adj)[:, :, 1:-1, 1:-1].transpose(1, 0, 2, 3)
        assert np.array_equal(dx, want)

    def test_one_pass_matches_two_passes(self, dtype):
        # the stride-1 transposed-conv backward asks for both outputs at once;
        # each is the products of its own pass, so the bits hold on any BLAS
        rng, x, w, _ = self.layer(dtype)
        a = channel_major(x.data, 1)
        g = rng.standard_normal((2, 8, 64, 128)).astype(dtype)
        assert tile_count(a, 8) > 1
        out, dw = K._gather(a, 3, 3, 1, w=w.data, g=g)
        assert np.array_equal(out, K._gather(a, 3, 3, 1, w=w.data)[0])
        assert np.array_equal(dw, K._gather(a, 3, 3, 1, g=g)[1])

    def test_weight_gradient_matches_whole_window(self, dtype):
        # tiles split each tap's sum over columns, so dw changes summation order
        rng, x, w, b = self.layer(dtype)
        y = K.conv2d(x, w, b)
        g = rng.standard_normal(y.shape).astype(dtype)
        _, dw, _ = y._backward(g)
        assert_close(dw, wgrad_whole_window(channel_major(g), channel_major(x.data, 1), 3, 3))

    def test_gradients_are_adjoints(self, dtype):
        # linear in x and in w: <dy, conv(x', w)> == <x', dx>, <dy, conv(x, w')> == <w', dw>
        rng, x, w, b = self.layer(dtype)
        y = K.conv2d(x, w, b)
        dy = rng.standard_normal(y.shape).astype(dtype)
        backward((y * Tensor(dy)).sum())
        x2 = rng.standard_normal(x.shape).astype(dtype)
        w2 = rng.standard_normal(w.shape).astype(dtype)
        rtol = 1e-4 if dtype == np.float32 else 1e-11
        lhs_x = (dy.astype(np.float64) * K.conv2d(Tensor(x2), w, b).data).sum()
        lhs_w = (dy.astype(np.float64) * K.conv2d(x, Tensor(w2), b).data).sum()
        assert np.isclose(lhs_x, (x2.astype(np.float64) * x.grad).sum(), rtol=rtol)
        assert np.isclose(lhs_w, (w2.astype(np.float64) * w.grad).sum(), rtol=rtol)

    @pytest.mark.parametrize("needs", ["both", "x", "w"])
    def test_stride2_transposed_backward_matches_two_passes(self, dtype, needs):
        # the decoder's uf layer: dx is the strided correlation of the padded
        # gradient with w, and dw pairs the same taps with x; the phase pass
        # sums each output's products in another order than these two strided
        # references, so it matches them to rounding
        rng = np.random.default_rng(3)
        x = Tensor(rng.standard_normal((2, 8, 32, 64)).astype(dtype),
                   requires_grad=needs in ("both", "x"))
        w = Tensor(rng.standard_normal((8, 8, 4, 4)).astype(dtype),
                   requires_grad=needs in ("both", "w"))
        b = Tensor(np.zeros((1, 8, 1, 1), dtype=dtype), requires_grad=True)
        y = K.conv_transpose2d(x, w, b, stride=2, pad=1)
        g = rng.standard_normal(y.shape).astype(dtype)
        dx, dw, _ = y._backward(g)
        gp = channel_major(g, 1)
        if x.requires_grad:
            assert_close(dx, correlate_strided(gp, w.data, 2).transpose(1, 0, 2, 3))
        else:
            assert dx is None
        if w.requires_grad:
            assert_close(dw, wgrad_strided(channel_major(x.data), gp, 4, 4, 2))
        else:
            assert dw is None

    def test_stride2_transposed_backward_is_one_phase_gather(self, dtype):
        # the same layer: tap (2m + r, 2m' + r) of the padded gradient is its
        # phase (r, r') at (m, m'), so dx and dw are one stride-1 gather over
        # the four phases with the 4x4 kernel regrouped to 2x2, bit for bit
        rng = np.random.default_rng(5)
        x = Tensor(rng.standard_normal((2, 8, 32, 64)).astype(dtype), requires_grad=True)
        w = Tensor(rng.standard_normal((8, 8, 4, 4)).astype(dtype), requires_grad=True)
        y = K.conv_transpose2d(x, w, Tensor(np.zeros((1, 8, 1, 1), dtype=dtype)), stride=2, pad=1)
        g = rng.standard_normal(y.shape).astype(dtype)
        dx, dw, _ = y._backward(g)
        gp = np.pad(g, ((0, 0), (0, 0), (1, 1), (1, 1)))
        rr = [(r, r2) for r in (0, 1) for r2 in (0, 1)]
        phases = np.concatenate([gp[:, :, r::2, r2::2] for r, r2 in rr], axis=1)
        w2 = np.concatenate([w.data[:, :, r::2, r2::2] for r, r2 in rr], axis=1)
        want_dx, dw2 = K._gather(np.ascontiguousarray(phases.transpose(1, 0, 2, 3)), 2, 2, 1,
                                 w=np.ascontiguousarray(w2), g=x.data)
        want_dw = np.empty_like(w.data)
        for p, (r, r2) in enumerate(rr):
            want_dw[:, :, r::2, r2::2] = dw2[:, 8 * p:8 * (p + 1)]
        assert np.array_equal(dx, want_dx.transpose(1, 0, 2, 3))
        assert np.array_equal(dw, want_dw)


# (batch, cin, h, w, cout) of every transposed conv the networks run: uh and
# dec1 (16 -> 8 at 16x32), uf (8 -> 8 at 32x64) and dec2 (8 -> 3 at 32x64), at
# batch 1 (eval), 2 (training) and 6 (the translated eval batch)
TRANSPOSED_SHAPES = [(bs, *layer) for bs in (1, 2, 6)
                     for layer in ((16, 16, 32, 8), (8, 32, 64, 8), (8, 32, 64, 3))]
# (batch, cin, h, w, cout) of every stride-2 conv2d whose input gradient the
# networks ask for: encoders and discriminators at the default config
STRIDE2_GRAD_SHAPES = [(2, 3, 64, 128, 8), (4, 3, 64, 128, 8), (2, 8, 32, 64, 16),
                       (4, 8, 32, 64, 16), (2, 8, 64, 128, 16), (2, 16, 16, 32, 32),
                       (4, 16, 16, 32, 32), (2, 16, 32, 64, 32), (2, 32, 8, 16, 1),
                       (4, 32, 8, 16, 1)]


class TestStride2Phases:
    """Stride-2 adjoints run as phase gathers; float64 against the oracles."""

    @pytest.mark.parametrize("bs,cin,h,wd,cout", TRANSPOSED_SHAPES)
    def test_transposed_at_network_shapes(self, bs, cin, h, wd, cout):
        rng = np.random.default_rng([bs, cin, h, cout])
        x = Tensor(rng.standard_normal((bs, cin, h, wd)), requires_grad=True)
        w = Tensor(rng.standard_normal((cin, cout, 4, 4)) * 0.3, requires_grad=True)
        b = Tensor(rng.standard_normal((1, cout, 1, 1)))
        y = K.conv_transpose2d(x, w, b, stride=2, pad=1)
        assert_close(y.data, conv_transpose2d_bruteforce(x.data, w.data, b.data, 2, 1))
        g = rng.standard_normal(y.shape)
        dx, dw, _ = y._backward(g)
        # dx is conv2d of g with w read as a (cin, cout) weight
        assert_close(dx, conv2d_bruteforce(g, w.data, np.zeros((1, cin, 1, 1)), 2, 1))
        assert_close(dw, wgrad_strided(channel_major(x.data), channel_major(g, 1), 4, 4, 2))

    @pytest.mark.parametrize("bs,cin,h,wd,cout", STRIDE2_GRAD_SHAPES)
    def test_conv2d_input_gradient_at_network_shapes(self, bs, cin, h, wd, cout):
        # with the forward pass and the weight gradient, which read windows of
        # the input's phases; in float64 four of these shapes run in tiles
        rng = np.random.default_rng([bs, cin, h, cout])
        x = Tensor(rng.standard_normal((bs, cin, h, wd)), requires_grad=True)
        w = Tensor(rng.standard_normal((cout, cin, 3, 3)) * 0.3, requires_grad=True)
        b = rng.standard_normal((1, cout, 1, 1))
        y = K.conv2d(x, w, Tensor(b), stride=2, pad=1)
        assert_close(y.data, conv2d_bruteforce(x.data, w.data, b, 2, 1))
        g = rng.standard_normal(y.shape)
        dx, dw, _ = y._backward(g)
        assert_close(dx, conv2d_input_grad_bruteforce(g, w.data, 2, 1, h, wd))
        assert_close(dw, wgrad_strided(channel_major(g), channel_major(x.data, 1), 3, 3, 2))

    @on_measured_blas
    @pytest.mark.parametrize("bs,cin,h,wd,cout", STRIDE2_GRAD_SHAPES)
    def test_conv2d_forward_keeps_strided_bits(self, bs, cin, h, wd, cout):
        # float32, as the networks run: each output sums the products of the
        # strided taps in tap order, and (2, 8, 64, 128) -> 16 runs two tiles
        rng = np.random.default_rng([bs, cin, h, cout])
        x = rng.standard_normal((bs, cin, h, wd)).astype(np.float32)
        w = (rng.standard_normal((cout, cin, 3, 3)) * 0.3).astype(np.float32)
        y = K.conv2d(Tensor(x), Tensor(w), Tensor(np.zeros((1, cout, 1, 1), np.float32)),
                     stride=2, pad=1)
        assert np.array_equal(y.data, correlate_strided(channel_major(x, 1), w, 2)
                              .transpose(1, 0, 2, 3))

    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    @pytest.mark.parametrize("hw", [(5, 7), (6, 8), (7, 6)])
    def test_unread_input_rows_get_zero_gradient(self, k, hw):
        # at pad 0 a stride-2 conv may never read the last input row or
        # column; its gradient there is exactly zero
        rng = np.random.default_rng([k, *hw])
        x = Tensor(rng.standard_normal((2, 3) + hw), requires_grad=True)
        w = Tensor(rng.standard_normal((4, 3, k, k)))
        y = K.conv2d(x, w, Tensor(np.zeros((1, 4, 1, 1))), stride=2, pad=0)
        g = rng.standard_normal(y.shape)
        dx, _, _ = y._backward(g)
        want = conv2d_input_grad_bruteforce(g, w.data, 2, 0, *hw)
        assert_close(dx, want)
        reach_h, reach_w = 2 * (y.shape[2] - 1) + k, 2 * (y.shape[3] - 1) + k
        assert np.all(dx[:, :, reach_h:] == 0) and np.all(dx[:, :, :, reach_w:] == 0)


class TestTileBlocks:
    """In float64 the decoder's dh layer, (2, 18, 32, 64) -> 8, runs two tiles."""

    @staticmethod
    def layer():
        rng = np.random.default_rng(4)
        xp = channel_major(rng.standard_normal((2, 18, 32, 64)), 1)
        return xp, rng.standard_normal((8, 18, 3, 3))

    def test_interior_tiles_end_on_whole_blocks(self):
        # every tile but the last is a whole number of TILE_ALIGN columns, so
        # only the last ends in a partial GEMM block, as the whole window does
        xp, w = self.layer()
        tiles = K._tiles(flat_span(xp), (18 + 2 * 8) * xp.itemsize)
        assert len(tiles) > 1
        assert all((e - s) % K.TILE_ALIGN == 0 for s, e in tiles[:-1])
        assert_close(K._gather(xp, 3, 3, 1, w=w)[0], correlate_whole_window(xp, w))

    @on_measured_blas
    def test_whole_blocks_keep_bits(self):
        # a tile ending mid-block there changes bits where it ends
        xp, w = self.layer()
        assert np.array_equal(K._gather(xp, 3, 3, 1, w=w)[0], correlate_whole_window(xp, w))


class TestResize:
    def test_downsample_is_block_mean(self):
        x = rand((1, 2, 4, 6), seed=14)
        out = K.downsample2(x).data
        want = x.data.reshape(1, 2, 2, 2, 3, 2).mean(axis=(3, 5))
        assert np.allclose(out, want)

    def test_upsample_preserves_constants(self):
        x = Tensor(np.full((1, 3, 4, 6), 0.37))
        out = K.upsample2(x).data
        assert out.shape == (1, 3, 8, 12)
        assert np.allclose(out, 0.37, atol=1e-12)

    def test_upsample_linear_ramp_interior(self):
        # a linear ramp should be reproduced exactly away from the clamped edges
        v = np.arange(6, dtype=np.float64).reshape(1, 1, 1, 6)
        x = Tensor(np.broadcast_to(v, (1, 1, 2, 6)).copy())
        out = K.upsample2(x).data
        want = np.arange(12) / 2.0 - 0.25
        assert np.allclose(out[0, 0, 1, 2:-2], want[2:-2])

    def test_odd_extent_rejected(self):
        with pytest.raises(ShapeError):
            K.downsample2(rand((1, 1, 3, 4)))

    @pytest.mark.parametrize("hw", [(1, 1), (1, 2), (2, 1), (2, 2), (3, 5)])
    def test_upsample_matches_matrix_and_adjoint(self, hw):
        # at extent 1 both edge taps replicate the same sample
        x = Tensor(rand((2, 3) + hw, seed=27).data, requires_grad=True)
        y = K.upsample2(x)
        want = upsample_matrix(hw[0]) @ x.data @ upsample_matrix(hw[1]).T
        assert np.allclose(y.data, want)
        g = rand(y.shape, seed=28).data
        (gx,) = y._backward(g)
        assert np.isclose((y.data * g).sum(), (x.data * gx).sum())


def pixel_offset(rng, shape, lo, hi):
    """A (b, c, h, w) offset of uniform values in [lo, hi], with every third
    value rounded to a whole pixel so some taps land on cell boundaries."""
    v = rng.uniform(lo, hi, shape)
    v.reshape(-1)[::3] = np.round(v.reshape(-1)[::3])
    return v


class TestGridSample:
    def test_identity_grid_exact(self):
        x = rand((2, 3, 5, 7), seed=15, dtype=np.float32)
        for channels in (1, 2):
            offset = Tensor(np.zeros((2, channels, 5, 7), dtype=np.float32))
            assert np.array_equal(K.grid_sample(x, offset).data, x.data)

    def test_matches_bruteforce(self):
        rng = np.random.default_rng(16)
        x = Tensor(rng.uniform(0, 1, (1, 3, 6, 9)))
        offset = rng.uniform(-3, 3, (1, 2, 6, 9))
        out = K.grid_sample(x, Tensor(offset)).data
        for y in range(6):
            for z in range(9):
                want = bilinear_sample_bruteforce(x.data[0], z + offset[0, 0, y, z],
                                                  y + offset[0, 1, y, z])
                assert np.allclose(out[0, :, y, z], want)

    def test_matches_bruteforce_along_x(self):
        rng = np.random.default_rng(17)
        x = Tensor(rng.uniform(0, 1, (2, 3, 4, 9)))
        offset = rng.uniform(-4, 4, (2, 1, 4, 9))
        out = K.grid_sample(x, Tensor(offset)).data
        for n in range(2):
            for y in range(4):
                for z in range(9):
                    want = bilinear_sample_bruteforce(x.data[n], z + offset[n, 0, y, z], y)
                    assert np.allclose(out[n, :, y, z], want)

    def test_fully_out_of_bounds_is_zero(self):
        x = rand((1, 2, 4, 4), seed=17)
        for channels in (1, 2):
            offset = Tensor(np.full((1, channels, 4, 4), 100.0))
            assert np.all(K.grid_sample(x, offset).data == 0)

    @pytest.mark.parametrize("shape", [(1, 3, 4, 6), (2, 2, 4, 6), (1, 2, 4, 5), (1, 2, 3, 6)])
    def test_misshaped_offset_rejected(self, shape):
        with pytest.raises(ShapeError, match="1 or 2 channels"):
            K.grid_sample(rand((1, 2, 4, 6)), Tensor(np.zeros(shape)))


class TestWarpMatchesAbsoluteGrid:
    """``warp`` hands the signed field to the kernel as an offset; it must give
    the bits of the absolute-grid design it replaced, in its output and in
    both gradients."""

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("sign", [1, -1])
    @pytest.mark.parametrize("channels", [1, 2])
    def test_bits(self, channels, sign, dtype):
        rng = np.random.default_rng([channels, sign + 1])
        src_vals = rng.uniform(0, 1, (2, 3, 8, 12)).astype(dtype)
        # up to 5 px of the 12-px rows: many taps fall outside the source
        field_vals = pixel_offset(rng, (2, channels, 8, 12), -5, 5).astype(dtype)
        g = rng.standard_normal((2, 3, 8, 12)).astype(dtype)
        runs = []
        for fn in (warp, warp_absolute):
            src = Tensor(src_vals, requires_grad=True)
            field = Tensor(field_vals, requires_grad=True)
            out = fn(src, field, sign)
            backward((out * Tensor(g)).sum())
            runs.append((out.data, src.grad, field.grad))
        (out, dsrc, dfield), (want_out, want_dsrc, want_dfield) = runs
        assert np.any(out == 0) and np.any(out != 0)
        assert out.dtype == want_out.dtype and dfield.dtype == want_dfield.dtype
        assert np.array_equal(out, want_out)
        assert np.array_equal(dsrc, want_dsrc)
        assert np.array_equal(dfield, want_dfield)


class TestCorrelation:
    def test_self_correlation_peak(self):
        x = rand((1, 1, 4, 4), seed=18)
        out = K.correlation(x, x, 2).data
        want0 = (x.data * x.data).mean(axis=1)
        assert np.allclose(out[:, 0], want0)
        # displacement 0 strictly maximal in aggregate (Cauchy-Schwarz)
        sums = out.sum(axis=(0, 2, 3))
        assert sums[0] > sums[1] and sums[0] > sums[2]

    def test_matches_bruteforce(self):
        a = rand((2, 3, 3, 6), seed=19)
        b = rand((2, 3, 3, 6), seed=20)
        got = K.correlation(a, b, 2).data
        want = correlation_bruteforce(a.data, b.data, [0, 1, 2])
        assert np.allclose(got, want)

    def test_signed_matches_bruteforce(self):
        a = rand((1, 2, 3, 6), seed=21)
        b = rand((1, 2, 3, 6), seed=22)
        got = K.correlation(a, b, 2, signed=True).data
        want = correlation_bruteforce(a.data, b.data, [-2, -1, 0, 1, 2])
        assert np.allclose(got, want)

    def test_vertical_axis(self):
        a = rand((1, 2, 6, 3), seed=23)
        b = rand((1, 2, 6, 3), seed=24)
        got = K.correlation(a, b, 2, axis=2).data
        wantT = correlation_bruteforce(a.data.transpose(0, 1, 3, 2),
                                       b.data.transpose(0, 1, 3, 2), [0, 1, 2])
        assert np.allclose(got, wantT.transpose(0, 1, 3, 2))


    @pytest.mark.parametrize("axis", [2, 3])
    @pytest.mark.parametrize("signed", [False, True], ids=["unsigned", "signed"])
    def test_widest_window_matches_bruteforce(self, axis, signed):
        # max_disp = extent - 1: every displacement but 0 reads past the edge
        along = (4, 5) if axis == 3 else (5, 4)
        a, b = (Tensor(rand((2, 3) + along, seed=seed).data, requires_grad=True)
                for seed in (25, 26))
        disps = list(range(-4, 5)) if signed else list(range(5))
        out = K.correlation(a, b, 4, axis=axis, signed=signed)
        flip = (lambda v: v) if axis == 3 else (lambda v: v.transpose(0, 1, 3, 2))
        want = flip(correlation_bruteforce(flip(a.data), flip(b.data), disps))
        assert np.allclose(out.data, want)
        # bilinear: <corr(a, b), g> is also <a, da> and <b, db>
        g = rand(out.shape, seed=29).data
        da, db = out._backward(g)
        total = (out.data * g).sum()
        assert np.isclose(total, (a.data * da).sum())
        assert np.isclose(total, (b.data * db).sum())


class TestBlur:
    # extents below the window, equal to it, the default, and a long axis of many tiles
    @pytest.mark.parametrize("shape", [(1, 2, 5, 7), (1, 1, 11, 11), (2, 3, 64, 128),
                                       (1, 1, 8, 300)])
    @pytest.mark.parametrize("size", [3, 7, 11])
    def test_matches_tap_loop(self, shape, size):
        v = np.random.default_rng(size).uniform(-1, 1, shape)
        got = K._blur(v, size, 1.5)
        assert np.allclose(got, blur_taps(v, size, 1.5), rtol=0, atol=1e-12)

    @pytest.mark.parametrize("shape", [(1, 2, 5, 7), (1, 1, 8, 300), (1, 1, 150, 9)])
    def test_self_adjoint(self, shape):
        rng = np.random.default_rng(34)
        x, y = rng.standard_normal(shape), rng.standard_normal(shape)
        lhs = (K.gaussian_blur(Tensor(x)).data * y).sum()
        rhs = (x * K.gaussian_blur(Tensor(y)).data).sum()
        assert np.isclose(lhs, rhs, rtol=1e-12, atol=0)


def absolute(x):
    """|x| as a node of its own, keeping sign(x) for its gradient."""
    sgn = np.sign(x.data)
    return result(np.abs(x.data), (x,), lambda g: (g * sgn,))


def ssim_composite(a, b):
    """The SSIM map assembled from taped primitives, about 20 nodes."""
    mu_a = K.gaussian_blur(a)
    mu_b = K.gaussian_blur(b)
    var_a = K.gaussian_blur(mul(a, a)) - mul(mu_a, mu_a)
    var_b = K.gaussian_blur(mul(b, b)) - mul(mu_b, mu_b)
    cov = K.gaussian_blur(mul(a, b)) - mul(mu_a, mu_b)
    num = (2.0 * mul(mu_a, mu_b) + K.SSIM_C1) * (2.0 * cov + K.SSIM_C2)
    den = (mul(mu_a, mu_a) + mul(mu_b, mu_b) + K.SSIM_C1) * (var_a + var_b + K.SSIM_C2)
    return div(num, den)


def input_grads(f, a, b, g):
    """(da, db) of <f(a, b), g> through a full backward walk."""
    a, b = Tensor(a, requires_grad=True), Tensor(b, requires_grad=True)
    backward(mul(f(a, b), Tensor(g)).sum())
    return a.grad, b.grad


def image_pair(shape, dtype, seed):
    rng = np.random.default_rng(seed)
    a = rng.uniform(0, 1, shape)
    # b near a, as a reconstruction is near its original
    b = np.clip(a + rng.normal(0, 0.1, shape), 0, 1)
    return a.astype(dtype), b.astype(dtype), rng.standard_normal(shape).astype(dtype)


class TestOneNodeMaps:
    """SSIM, |a - b| and (a - b)^2 each record one node that holds only its
    output, with the bits of the composites they replace."""

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("shape", [(2, 3, 64, 128), (1, 2, 5, 7)])
    def test_ssim_forward_keeps_composite_bits(self, dtype, shape):
        a, b, _ = image_pair(shape, dtype, 40)
        got = K.ssim_map(Tensor(a), Tensor(b)).data
        assert got.dtype == dtype
        assert np.array_equal(got, ssim_composite(Tensor(a), Tensor(b)).data)

    @pytest.mark.parametrize("dtype,tol", [(np.float32, 1e-5), (np.float64, 1e-12)])
    def test_ssim_gradients_match_composite(self, dtype, tol):
        a, b, g = image_pair((2, 3, 32, 48), dtype, 41)
        for got, want in zip(input_grads(K.ssim_map, a, b, g),
                             input_grads(ssim_composite, a, b, g)):
            assert got.dtype == dtype
            assert np.abs(got - want).max() <= tol * np.abs(want).max()

    def test_ssim_gradient_only_where_needed(self):
        a, b, g = image_pair((1, 2, 8, 8), np.float64, 42)
        da, db = K.ssim_map(Tensor(a, requires_grad=True), Tensor(b))._backward(g)
        assert db is None and np.array_equal(da, input_grads(K.ssim_map, a, b, g)[0])

    @pytest.mark.parametrize("fused,composite", [
        (K.abs_diff, lambda a, b: absolute(a - b)),
        (K.sq_diff, lambda a, b: K.square(a - b)),
    ], ids=["abs_diff", "sq_diff"])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_difference_maps_keep_composite_bits(self, fused, composite, dtype):
        a, b, g = image_pair((2, 3, 8, 8), dtype, 43)
        assert np.array_equal(fused(Tensor(a), Tensor(b)).data,
                              composite(Tensor(a), Tensor(b)).data)
        for got, want in zip(input_grads(fused, a, b, g), input_grads(composite, a, b, g)):
            assert got.dtype == dtype and np.array_equal(got, want)

    @pytest.mark.parametrize("fn", [K.ssim_map, K.abs_diff, K.sq_diff, K.smooth_l1])
    def test_one_node_each(self, fn):
        a, b, _ = image_pair((1, 3, 8, 8), np.float32, 44)
        out = fn(Tensor(a, requires_grad=True), Tensor(b, requires_grad=True))
        assert len(topo_order(out)) == 1
        # the closure keeps no array beside the output: its cells hold the
        # inputs, the output and scalars
        cells = [c.cell_contents for c in out._backward.__closure__ or ()]
        arrays = [c for c in cells if isinstance(c, np.ndarray) and c.ndim]
        assert all(c is out.data for c in arrays)

    @pytest.mark.parametrize("fn", [K.ssim_map, K.abs_diff, K.sq_diff])
    def test_shape_mismatch(self, fn):
        with pytest.raises(ShapeError):
            fn(rand((1, 1, 4, 4)), rand((1, 1, 4, 5)))


class TestSSIM:
    def test_self_is_exactly_one(self):
        x = rand((1, 3, 8, 8), seed=25, lo=0.0, hi=1.0)
        out = K.ssim_map(x, x).data
        assert np.all(out == 1.0)

    def test_matches_bruteforce(self):
        a = rand((1, 2, 8, 8), seed=26, lo=0.0, hi=1.0)
        b = rand((1, 2, 8, 8), seed=27, lo=0.0, hi=1.0)
        got = K.ssim_map(a, b).data
        want = ssim_bruteforce(a.data, b.data)
        assert np.allclose(got, want, atol=1e-12)

    def test_bounded(self):
        for seed in range(5):
            a = rand((1, 1, 8, 8), seed=100 + seed, lo=0.0, hi=1.0)
            b = rand((1, 1, 8, 8), seed=200 + seed, lo=0.0, hi=1.0)
            out = K.ssim_map(a, b).data
            assert np.all(out <= 1.0 + 1e-12)
            assert np.all(out >= -1.0 - 1e-12)

    def test_constant_images_closed_form(self):
        # closed form holds where the window never overlaps the zero padding
        a = Tensor(np.zeros((1, 1, 24, 24)))
        b = Tensor(np.ones((1, 1, 24, 24)))
        want = (K.SSIM_C1 * K.SSIM_C2) / ((1.0 + K.SSIM_C1) * K.SSIM_C2)
        interior = K.ssim_map(a, b).data[:, :, 5:-5, 5:-5]
        assert np.allclose(interior, want)


class TestCosine:
    def test_equal_inputs(self):
        x = rand((1, 3, 4, 4), seed=28)
        assert np.allclose(K.cosine_map(x, x).data, 1.0, atol=1e-7)

    def test_scale_invariance(self):
        x = rand((1, 3, 4, 4), seed=29)
        y = Tensor(2.0 * x.data)
        assert np.allclose(K.cosine_map(x, y).data, 1.0, atol=1e-7)

    def test_orthogonal_channels(self):
        a = np.zeros((1, 2, 3, 3))
        b = np.zeros((1, 2, 3, 3))
        a[0, 0] = 1.0
        b[0, 1] = 1.0
        out = K.cosine_map(Tensor(a), Tensor(b)).data
        assert np.allclose(out, 0.0, atol=1e-7)


# the ops autograd records on the tape, and the label the sweep gives a case
# of each where that is not the op's own name
TAPED_OPS = ("add", "sub", "mul", "div", "mul_scalar", "add_scalar", "concat", "split",
             "mean", "sum")
SWEEP_LABELS = {"mul_scalar": "scalar_mul", "add_scalar": "scalar_add"}


class TestGradients:
    @pytest.mark.parametrize("case", list(kernel_cases(seed=0)),
                             ids=[c[0] for c in kernel_cases(seed=0)])
    def test_kernel_gradcheck(self, case):
        name, f, x, tol = case[:4]
        step = case[4] if len(case) > 4 else 1e-3
        assert grad_check(f, x, step=step) < tol

    def test_every_kernel_and_taped_op_has_a_case(self):
        # a case's label starts with the op it checks: "conv2d/s1/x" checks conv2d
        labels = {case[0].split("/")[0] for case in kernel_cases(seed=0)}
        kernels = [name for name, f in vars(K).items()
                   if inspect.isfunction(f) and f.__module__ == K.__name__
                   and not name.startswith("_")]
        assert "conv2d" in kernels and "concat" not in kernels
        missing = [op for op in kernels + list(TAPED_OPS)
                   if SWEEP_LABELS.get(op, op) not in labels]
        assert not missing, f"no gradient-sweep case for {missing}"

    def test_grid_sample_grid_gradient(self):
        rng = np.random.default_rng(31)
        img = Tensor(rng.uniform(0, 1, (1, 2, 6, 8)))
        offset = Tensor(rng.integers(-2, 3, (1, 2, 6, 8)) + rng.uniform(0.25, 0.75, (1, 2, 6, 8)))
        err = grad_check(lambda t: K.square(K.grid_sample(img, t)).mean(), offset, step=1e-3)
        assert err < 1e-3

    def test_grid_sample_frozen_source(self):
        # a source that needs no gradient gets none; the offset's is unchanged
        rng = np.random.default_rng(33)
        img = rng.uniform(0, 1, (2, 3, 6, 8))
        g = rng.standard_normal((2, 3, 6, 8))
        for channels in (1, 2):
            offset = rng.uniform(-3, 3, (2, channels, 6, 8))
            frozen = K.grid_sample(Tensor(img), Tensor(offset, requires_grad=True))._backward(g)
            live = K.grid_sample(Tensor(img, requires_grad=True),
                                 Tensor(offset, requires_grad=True))._backward(g)
            assert frozen[0] is None and live[0] is not None
            assert live[1].shape == offset.shape
            assert np.array_equal(frozen[1], live[1])
            # and an offset that needs no gradient gets none; the source's is unchanged
            fixed = K.grid_sample(Tensor(img, requires_grad=True), Tensor(offset))._backward(g)
            assert fixed[1] is None
            assert np.array_equal(fixed[0], live[0])

    def test_smooth_l1_both_branches(self):
        rng = np.random.default_rng(32)
        vals = rng.uniform(-2, 2, (1, 2, 4, 4))
        vals = np.where(np.abs(np.abs(vals) - 1.0) < 0.05, 1.2 * np.sign(vals), vals)
        x = Tensor(vals)
        zero = Tensor(np.zeros_like(vals))
        assert np.any(np.abs(vals) < 1.0) and np.any(np.abs(vals) > 1.0)
        err = grad_check(lambda t: K.smooth_l1(t, zero).mean(), x, step=1e-3)
        assert err < 1e-4
