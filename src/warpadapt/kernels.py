"""Differentiable kernel catalog over rank-4 tensors.

Each kernel pairs a forward rule with a matched backward rule; composites
(SSIM, cosine map) are assembled from primitives and differentiate through
the graph. conv2d and conv_transpose2d share one core of one GEMM per kernel
tap: a gather, which correlates a padded input with a kernel and, on the same
taps, forms the weight gradient, and its adjoint, a scatter. conv2d's forward
pass and weight gradient and conv_transpose2d's whole backward pass are
gathers; conv2d's input gradient and conv_transpose2d's forward pass are the
scatter, which at stride 1 is the gather with the flipped kernel. At stride 1
every tap reads a unit-stride window of the padded input viewed as one flat
matrix, so no tap copies its input, and a layer whose working set passes
TILE_BYTES runs in column tiles, every tap on one tile before the next; each
output sums the same per-tap products in the same order as without tiles.
A tap that sums over a single channel is a broadcast outer product, not a
GEMM. The Gaussian blur under SSIM is a product with a cached banded matrix
per axis.
grid_sample reads its input at each pixel moved by a (b, 1 or 2, h, w) offset
in pixels; a 1-channel offset moves along x alone and reads two taps, not four.
A read past an edge indexes a bordered copy, never a mask: a zero border for
grid_sample and correlation, the replicated edge samples for upsample2. Their
adjoints scatter into the bordered shape and crop or fold the border.
"""

from __future__ import annotations

import functools

import numpy as np

from .autograd import Tensor, concat, div, mul, result  # noqa: F401  (concat is re-exported)
from .errors import ShapeError, UsageError


# -- pointwise ----------------------------------------------------------------

def leaky_relu(x: Tensor, slope: float = 0.1) -> Tensor:
    """x where x > 0, else slope * x; computed as max(x, slope * x), which is
    the same bits for 0 < slope <= 1 (at 0, inf * 0 would give nan)."""
    s = np.asarray(slope, x.dtype.type)
    out = np.maximum(x.data, x.data * s)
    return result(out, (x,), lambda g: (np.where(x.data > 0, g, g * s),))


def sigmoid(x: Tensor) -> Tensor:
    s = _sigmoid(x.data)
    return result(s, (x,), lambda g: (g * s * (1.0 - s),))


def _sigmoid(v: np.ndarray) -> np.ndarray:
    out = np.empty_like(v)
    pos = v >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-v[pos]))
    ev = np.exp(v[~pos])
    out[~pos] = ev / (1.0 + ev)
    return out


def tanh(x: Tensor) -> Tensor:
    t = np.tanh(x.data)
    return result(t, (x,), lambda g: (g * (1.0 - t * t),))


def softplus(x: Tensor) -> Tensor:
    out = np.logaddexp(np.asarray(0.0, x.dtype.type), x.data)
    return result(out, (x,), lambda g: (g * _sigmoid(x.data),))


def log(x: Tensor) -> Tensor:
    return result(np.log(x.data), (x,), lambda g: (g / x.data,))


def sqrt(x: Tensor) -> Tensor:
    r = np.sqrt(x.data)
    return result(r, (x,), lambda g: (g * 0.5 / r,))


def clamp(x: Tensor, lo: float, hi: float) -> Tensor:
    inside = (x.data > lo) & (x.data < hi)
    out = np.clip(x.data, lo, hi)
    return result(out, (x,), lambda g: (np.where(inside, g, 0.0).astype(x.dtype),))


def absolute(x: Tensor) -> Tensor:
    sgn = np.sign(x.data)
    return result(np.abs(x.data), (x,), lambda g: (g * sgn,))


def square(x: Tensor) -> Tensor:
    return result(x.data * x.data, (x,), lambda g: (g * 2.0 * x.data,))


def smooth_l1(a: Tensor, b: Tensor) -> Tensor:
    """Elementwise smooth-L1 map: quadratic below 1, linear above."""
    if a.shape != b.shape:
        raise ShapeError(f"shape mismatch {a.shape} vs {b.shape}")
    d = a.data - b.data
    ad = np.abs(d)
    quad = ad < 1.0
    out = np.where(quad, 0.5 * d * d, ad - 0.5).astype(a.dtype)

    def backward(g):
        dd = np.where(quad, d, np.sign(d))
        return g * dd, -g * dd

    return result(out, (a, b), backward)


# -- convolutions -------------------------------------------------------------
#
# The gather and the scatter work on contiguous, zero-padded, channel-major
# (c, b, H, W) arrays and do one GEMM per kernel tap, summed in a contiguous
# accumulator; a gather asked for both outputs copies each strided tap once.
# At stride 1 the array is read as one flat (c, b * H * W) matrix: tap (i, j)
# is the window at offset i * W + j, a unit-stride view that BLAS reads without
# a copy. The sum then lands on the input's (H, W) grid, valid in its top-left
# ho x wo block, and is cropped once; a window crossing a row or sample
# boundary only feeds positions outside that block. The stride-1 adjoint is the
# full correlation with the flipped kernel. At stride 2 each tap is a strided
# slice, which its reshape copies.
#
# At stride 1 the output columns are split into equal tiles whose input rows,
# accumulator and product temporary, (cin + 2 cout) values per column, fit
# TILE_BYTES, well under a core's L2; a layer that fits runs as one tile. Each
# tile runs every tap before the next tile, so the input streams through the
# cache once rather than once per tap. Every output still sums the same per-tap
# dot products in the same order. Whether BLAS gives each dot product the same
# bits in a tile as in the whole window depends on the kernels it picks per
# shape, so that is measured, not guaranteed: on OpenBLAS 0.3.31 (SkylakeX
# kernels) the tiles keep the forward and input-gradient bits, except in a
# 1-row product, which runs as a GEMV whose bits depend on the window's width.
# So a correlation with one input or one output channel keeps one window (a
# 1-column product is an outer product, which tiles do not speed up). The
# weight gradient runs the same tiles and sums each tap's (cin x n) @ (n x cout)
# products over them, which changes its summation order. On that OpenBLAS most
# of the gain comes from the tile GEMMs being small enough (M * N * K <= 10**6)
# for its unpacked small-matrix kernels, so retune TILE_BYTES against the
# benchmark, not against the cache size alone.

TILE_BYTES = 1 << 20
TILE_ALIGN = 64


def _channel_major(v: np.ndarray, pad: int = 0) -> np.ndarray:
    """(b, c, h, w) -> contiguous, zero-padded (c, b, h + 2 pad, w + 2 pad)."""
    bs, c, h, w = v.shape
    out = np.zeros((c, bs, h + 2 * pad, w + 2 * pad), dtype=v.dtype)
    out[:, :, pad:pad + h, pad:pad + w] = v.transpose(1, 0, 2, 3)
    return out


def _batch_major(v: np.ndarray, bias: np.ndarray) -> np.ndarray:
    """(c, b, h, w) -> contiguous (b, c, h, w), plus a (1, c, 1, 1) bias."""
    return np.add(v.transpose(1, 0, 2, 3), bias, order="C")


def _tiles(span: int, col_bytes: int) -> list:
    """Equal column tiles [s, e) of [0, span), each holding about TILE_BYTES
    of working set at ``col_bytes`` per column: the size is rounded up to
    whole TILE_ALIGN columns, so a tile may pass the budget by less than
    TILE_ALIGN columns. Only the last tile ends in a partial GEMM block, as
    the whole window does."""
    count = -(-span * col_bytes // TILE_BYTES)
    size = -(-span // (count * TILE_ALIGN)) * TILE_ALIGN
    return [(s, min(s + size, span)) for s in range(0, span, size)]


def _taps(a: np.ndarray, kh: int, kw: int, stride: int, cols: tuple | None = None):
    """Per kernel tap (i, j): the view of a padded (c, b, H, W) array it reads.

    At stride 1 that is the (c, e - s) window of the flat matrix that feeds
    output columns ``cols`` = (s, e); otherwise a strided (c, b, ho, wo) slice.
    """
    c, bs, hp, wp = a.shape
    if stride == 1:
        flat = a.reshape(c, -1)
        s, e = cols
        for i in range(kh):
            for j in range(kw):
                yield i, j, flat[:, i * wp + j + s:i * wp + j + e]
        return
    ho = (hp - kh) // stride + 1
    wo = (wp - kw) // stride + 1
    for i in range(kh):
        for j in range(kw):
            yield i, j, a[:, :, i:i + stride * (ho - 1) + 1:stride,
                          j:j + stride * (wo - 1) + 1:stride]


def _span(a: np.ndarray, kh: int, kw: int) -> int:
    """Output columns of a stride-1 correlation over the flat (c, b * H * W) matrix."""
    _, bs, hp, wp = a.shape
    return bs * hp * wp - (kh - 1) * wp - (kw - 1)


def _matmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``a @ b``. With inner dimension 1 it is the broadcast outer product:
    the same bits, without BLAS's slow path for that shape."""
    return a * b if a.shape[1] == 1 else a @ b


def _gather(a: np.ndarray, kh: int, kw: int, stride: int,
            w: np.ndarray | None = None, g: np.ndarray | None = None) -> tuple:
    """One pass over the taps of a padded (c, b, H, W) array: (correlation,
    weight gradient) of its valid strided correlation, each None unless asked.

    With ``w`` (n, c, kh, kw) the correlation is (n, b, ho, wo); with ``g``, an
    (n, b, ho, wo) gradient of that output, the weight gradient is (n, c, kh, kw).
    """
    c, bs, hp, wp = a.shape
    n = (w if w is not None else g).shape[0]
    ho = (hp - kh) // stride + 1
    wo = (wp - kw) // stride + 1
    dtype = np.result_type(a, *(v for v in (w, g) if v is not None))
    if stride > 1:
        dw = np.empty((n, c, kh, kw), dtype=dtype) if g is not None else None
        acc = 0
        for i, j, tap in _taps(a, kh, kw, stride):
            tap = tap.reshape(c, -1)
            if w is not None:
                acc += _matmul(w[:, :, i, j], tap)
            if g is not None:
                dw[:, :, i, j] = g.reshape(n, -1) @ tap.T
        return (acc.reshape(n, bs, ho, wo) if w is not None else None), dw
    span = _span(a, kh, kw)
    # a 1-row product is a GEMV, whose bits depend on the window's width, and
    # a 1-column one is an outer product, which tiles do not speed up
    whole = w is not None and 1 in w.shape[:2]
    tiles = [(0, span)] if whole else _tiles(span, (c + 2 * n) * dtype.itemsize)
    if g is not None:
        # g on a's flat grid, so window column p of every tap meets output p
        gm = np.zeros((n, bs, hp, wp), dtype=g.dtype)
        gm[:, :, :ho, :wo] = g
        gm = gm.reshape(n, -1)
        dwt = np.zeros((kh, kw, c, n), dtype=dtype)
    grid = None
    for s, e in tiles:
        acc = 0
        for i, j, tap in _taps(a, kh, kw, 1, (s, e)):
            if w is not None:
                acc += _matmul(w[:, :, i, j], tap)
            if g is not None:
                dwt[i, j] += tap @ gm[:, s:e].T
        if w is not None:
            if grid is None:
                # allocated after the first tile's taps, so their temporaries
                # are never live beside it in a one-tile layer
                grid = np.empty((n, bs * hp * wp), dtype=acc.dtype)
            grid[:, s:e] = acc
    return (grid.reshape(n, bs, hp, wp)[:, :, :ho, :wo] if w is not None else None,
            dwt.transpose(3, 2, 0, 1) if g is not None else None)


def _correlate_adjoint(g: np.ndarray, w: np.ndarray, stride: int,
                       hp: int, wp: int) -> np.ndarray:
    """Adjoint of ``_gather``'s correlation in its input: (cout, b, ho, wo) -> (cin, b, hp, wp)."""
    cout, bs, ho, wo = g.shape
    _, cin, kh, kw = w.shape
    if stride == 1:
        # the full correlation of g with the flipped kernel
        gp = np.zeros((cout, bs, hp + kh - 1, wp + kw - 1), dtype=g.dtype)
        gp[:, :, kh - 1:kh - 1 + ho, kw - 1:kw - 1 + wo] = g
        return _gather(gp, kh, kw, 1, w=w[:, :, ::-1, ::-1].transpose(1, 0, 2, 3))[0]
    gm = g.reshape(cout, -1)
    out = np.zeros((cin, bs, hp, wp), dtype=np.result_type(g, w))
    for i, j, tap in _taps(out, kh, kw, stride):
        tap += _matmul(w[:, :, i, j].T, gm).reshape(tap.shape)
    return out


def conv2d(x: Tensor, w: Tensor, b: Tensor, stride: int = 1, pad: int = 1) -> Tensor:
    """2-D convolution, zero padding. Weight (cout, cin, kh, kw), bias (1, cout, 1, 1)."""
    if stride not in (1, 2):
        raise UsageError(f"stride must be 1 or 2, got {stride}")
    bs, cin, h, wd = x.shape
    cout, cin_w, kh, kw = w.shape
    if cin != cin_w:
        raise ShapeError(f"input has {cin} channels, weight expects {cin_w}")
    if b.shape != (1, cout, 1, 1):
        raise ShapeError(f"bias shape {b.shape} != (1, {cout}, 1, 1)")
    ho = (h + 2 * pad - kh) // stride + 1
    wo = (wd + 2 * pad - kw) // stride + 1
    if ho <= 0 or wo <= 0:
        raise ShapeError(f"kernel {kh}x{kw} too large for input {h}x{wd} with pad {pad}")
    xp = _channel_major(x.data, pad)
    out = _batch_major(_gather(xp, kh, kw, stride, w=w.data)[0], b.data)

    def backward(g):
        db = g.sum(axis=(0, 2, 3)).reshape(1, cout, 1, 1)
        gc = _channel_major(g)
        dw = _gather(xp, kh, kw, stride, g=gc)[1] if w.requires_grad else None
        dx = None
        if x.requires_grad:
            dxp = _correlate_adjoint(gc, w.data, stride, xp.shape[2], xp.shape[3])
            dx = np.ascontiguousarray(dxp[:, :, pad:pad + h, pad:pad + wd].transpose(1, 0, 2, 3))
        return dx, dw, db

    return result(out, (x, w, b), backward)


def conv_transpose2d(x: Tensor, w: Tensor, b: Tensor, stride: int = 2, pad: int = 1) -> Tensor:
    """Transposed convolution. Weight (cin, cout, kh, kw); output grows by ``stride``."""
    bs, cin, h, wd = x.shape
    cin_w, cout, kh, kw = w.shape
    if cin != cin_w:
        raise ShapeError(f"input has {cin} channels, weight expects {cin_w}")
    if b.shape != (1, cout, 1, 1):
        raise ShapeError(f"bias shape {b.shape} != (1, {cout}, 1, 1)")
    ho = (h - 1) * stride - 2 * pad + kh
    wo = (wd - 1) * stride - 2 * pad + kw
    if ho <= 0 or wo <= 0:
        raise ShapeError("degenerate transposed-conv output")
    # read as a conv2d weight, w maps cout channels to cin: the forward pass is
    # the adjoint of that stride-s convolution, cropped by the padding
    yp = _correlate_adjoint(_channel_major(x.data), w.data, stride, ho + 2 * pad, wo + 2 * pad)
    out = _batch_major(yp[:, :, pad:pad + ho, pad:pad + wo], b.data)

    def backward(g):
        db = g.sum(axis=(0, 2, 3)).reshape(1, cout, 1, 1)
        dx = dw = None
        if x.requires_grad or w.requires_grad:
            # dx correlates the padded gradient with w, and dw pairs the same
            # taps with x
            dx, dw = _gather(_channel_major(g, pad), kh, kw, stride,
                             w=w.data if x.requires_grad else None,
                             g=_channel_major(x.data) if w.requires_grad else None)
        if dx is not None:
            dx = np.ascontiguousarray(dx.transpose(1, 0, 2, 3))
        return dx, dw, db

    return result(out, (x, w, b), backward)


def _along(axis: int, index) -> tuple:
    """Index of a rank-4 array that applies ``index`` on ``axis`` alone."""
    return (slice(None),) * axis + (index,) + (slice(None),) * (3 - axis)


# -- fixed-window blur (used by SSIM) -----------------------------------------
#
# Each axis is blurred by a product with a banded matrix: column j holds the
# window over the inputs centred on output j, and zero padding is the band cut
# off at the border. An axis is tiled into BLUR_TILE outputs per product, so an output
# costs at most BLUR_TILE + size - 1 multiply-adds however long the axis is.

BLUR_TILE = 32


def _gaussian_window(size: int, sigma: float, dtype) -> np.ndarray:
    half = (size - 1) / 2.0
    t = np.arange(size, dtype=np.float64) - half
    g = np.exp(-(t * t) / (2.0 * sigma * sigma))
    return (g / g.sum()).astype(dtype)


@functools.lru_cache(maxsize=16)
def _blur_band(n: int, size: int, sigma: float, dtype: np.dtype) -> np.ndarray:
    """Read-only (n + size - 1, n) band: column j holds the window in rows j .. j + size - 1."""
    win = _gaussian_window(size, sigma, dtype)
    band = np.zeros((n + size - 1, n), dtype=dtype)
    cols = np.arange(n)
    for k in range(size):
        band[cols + k, cols] = win[k]
    band.flags.writeable = False
    return band


def _blur_along(v: np.ndarray, band: np.ndarray, axis: int) -> np.ndarray:
    """Blur axis 2 or 3 of ``v``: one band product per tile of outputs."""
    n = v.shape[axis]
    tile = band.shape[1]
    half = (band.shape[0] - tile) // 2
    out = np.empty_like(v)
    for s in range(0, n, tile):
        e = min(s + tile, n)
        lo, hi = max(s - half, 0), min(e + half, n)
        m = band[lo - s + half:hi - s + half, :e - s]  # inputs lo..hi -> outputs s..e
        src = v[_along(axis, slice(lo, hi))]
        out[_along(axis, slice(s, e))] = m.T @ src if axis == 2 else src @ m
    return out


def gaussian_blur(x: Tensor, size: int = 11, sigma: float = 1.5) -> Tensor:
    """Depthwise Gaussian blur, zero padding, unit-sum window."""
    if size % 2 != 1 or size < 3:
        raise UsageError("window size must be odd and >= 3")
    bh, bw = (_blur_band(min(n, BLUR_TILE), size, sigma, x.data.dtype) for n in x.shape[2:])

    def run(v):
        return _blur_along(_blur_along(v, bh, 2), bw, 3)

    # symmetric window + zero padding: the adjoint of the blur is the blur
    return result(run(x.data), (x,), lambda g: (run(g),))


# -- resampling ---------------------------------------------------------------

def downsample2(x: Tensor) -> Tensor:
    """Factor-2 bilinear downsample: the mean of each 2x2 block."""
    bs, c, h, w = x.shape
    if h % 2 or w % 2:
        raise ShapeError(f"downsample2 needs even extents, got {h}x{w}")
    v = x.data.reshape(bs, c, h // 2, 2, w // 2, 2)
    out = v.mean(axis=(3, 5))

    def backward(g):
        gx = np.empty((bs, c, h // 2, 2, w // 2, 2), dtype=g.dtype)
        gx[...] = (g * 0.25)[:, :, :, None, :, None]
        return (gx.reshape(bs, c, h, w),)

    return result(out, (x,), backward)


def _up2_axis(v: np.ndarray, axis: int) -> np.ndarray:
    # out[2i] = 0.25 in[i-1] + 0.75 in[i]; out[2i+1] = 0.75 in[i] + 0.25 in[i+1],
    # read from a copy bordered by the edge samples, so constants are preserved exactly
    n = v.shape[axis]
    p = np.concatenate([v[_along(axis, [0])], v, v[_along(axis, [n - 1])]], axis=axis)
    even = 0.25 * p[_along(axis, slice(0, n))] + 0.75 * v
    odd = 0.75 * v + 0.25 * p[_along(axis, slice(2, None))]
    out_shape = list(v.shape)
    out_shape[axis] *= 2
    out = np.empty(out_shape, dtype=v.dtype)
    out[_along(axis, slice(0, None, 2))] = even
    out[_along(axis, slice(1, None, 2))] = odd
    return out


def _up2_axis_adjoint(g: np.ndarray, axis: int) -> np.ndarray:
    ge = g[_along(axis, slice(0, None, 2))]
    go = g[_along(axis, slice(1, None, 2))]
    n = ge.shape[axis]
    # scatter onto the bordered copy the forward pass reads, then fold each
    # border sample back onto the edge sample it replicates
    dp = np.zeros(ge.shape[:axis] + (n + 2,) + ge.shape[axis + 1:], dtype=g.dtype)
    dv = dp[_along(axis, slice(1, n + 1))]
    dv[...] = 0.75 * ge + 0.75 * go
    dp[_along(axis, slice(0, n))] += 0.25 * ge
    dp[_along(axis, slice(2, None))] += 0.25 * go
    dv[_along(axis, 0)] += dp[_along(axis, 0)]
    dv[_along(axis, -1)] += dp[_along(axis, -1)]
    return dv


def upsample2(x: Tensor) -> Tensor:
    """Factor-2 bilinear upsample with edge replication."""
    out = _up2_axis(_up2_axis(x.data, 2), 3)

    def backward(g):
        return (_up2_axis_adjoint(_up2_axis_adjoint(g, 3), 2),)

    return result(out, (x,), backward)


# -- grid sampling ------------------------------------------------------------

def grid_sample(x: Tensor, offset: Tensor) -> Tensor:
    """Bilinear sample of ``x`` at (col + offset_x, row + offset_y) on its own grid.

    ``offset`` is (b, 1 or 2, h, w) in pixels, aligned with ``x``: channel 0
    moves along x, channel 1 along y. A 1-channel offset moves along x alone;
    its rows stay integer, so only the two taps along x are read and the
    offset's gradient has one channel. Out-of-bounds taps read a zero border
    and contribute no gradient to the input. Differentiable in both the input and
    the offset; each gets a gradient only when it requires one.
    """
    bs, c, h, w = x.shape
    if offset.shape[1] not in (1, 2) or (offset.shape[0], *offset.shape[2:]) != (bs, h, w):
        raise ShapeError(f"offset {offset.shape} must have 1 or 2 channels "
                         f"and the batch and extent of input {x.shape}")
    gx = offset.data[:, 0] + np.arange(w, dtype=x.dtype)
    x0 = np.floor(gx).astype(np.int64)
    fx = (gx - x0).astype(x.dtype)
    if offset.shape[1] == 1:
        y0 = np.arange(h).reshape(1, h, 1)
        weights = ((0, 0, 1 - fx), (0, 1, fx))
    else:
        gy = offset.data[:, 1] + np.arange(h, dtype=x.dtype)[:, None]
        y0 = np.floor(gy).astype(np.int64)
        fy = (gy - y0).astype(x.dtype)
        weights = ((0, 0, (1 - fy) * (1 - fx)), (0, 1, (1 - fy) * fx),
                   (1, 0, fy * (1 - fx)), (1, 1, fy * fx))

    # a tap outside x reads the zero border of this copy
    xb = np.zeros((bs, c, h + 2, w + 2), dtype=x.dtype)
    xb[:, :, 1:-1, 1:-1] = x.data
    taps = []
    corners = []  # the corner values, kept only for the offset gradient
    out = np.zeros((bs, h, w, c), dtype=x.dtype)
    bidx = np.arange(bs).reshape(bs, 1, 1)
    for dy, dx_, wgt in weights:
        yc = np.clip(y0 + dy + 1, 0, h + 1)
        xc = np.clip(x0 + dx_ + 1, 0, w + 1)
        # advanced indexing puts the broadcast dims first: (b, h, w, c)
        vals = xb[bidx, :, yc, xc]
        out += wgt[:, :, :, None] * vals
        taps.append((wgt, yc * (w + 2) + xc))  # the tap's index in one bordered plane
        if offset.requires_grad:
            corners.append(vals)
    out = out.transpose(0, 3, 1, 2)

    def backward(g):
        gt = np.ascontiguousarray(g.transpose(0, 2, 3, 1))  # (b, h, w, c)
        dinput = None
        if x.requires_grad:
            # scatter onto the bordered planes, then crop the border
            planes = (bidx[..., None] * c + np.arange(c)) * ((h + 2) * (w + 2))
            dx_total = np.zeros(bs * c * (h + 2) * (w + 2), dtype=np.float64)
            for wgt, pix in taps:
                flat = (planes + pix[..., None]).reshape(-1)
                dx_total += np.bincount(flat, weights=(gt * wgt[..., None]).reshape(-1),
                                        minlength=dx_total.size)
            dinput = dx_total.reshape(bs, c, h + 2, w + 2)[:, :, 1:-1, 1:-1].astype(x.dtype)

        doffset = None
        if offset.requires_grad:
            if offset.shape[1] == 1:
                slopes = [corners[1] - corners[0]]
            else:
                v00, v01, v10, v11 = corners
                slopes = [(1 - fy)[:, :, :, None] * (v01 - v00) + fy[:, :, :, None] * (v11 - v10),
                          (1 - fx)[:, :, :, None] * (v10 - v00) + fx[:, :, :, None] * (v11 - v01)]
            doffset = np.stack([(gt * s).sum(axis=3) for s in slopes], axis=1).astype(offset.dtype)
        return dinput, doffset

    return result(out, (x, offset), backward)


# -- correlation --------------------------------------------------------------

def correlation(a: Tensor, b: Tensor, max_disp: int, axis: int = 3,
                signed: bool = False) -> Tensor:
    """Displacement correlation along one spatial axis, channel-mean normalized.

    Channel ``j`` holds mean_c a(p) * b(p shifted by the j-th displacement);
    displacements run 0..D (stereo convention) or -D..D when ``signed``.
    Out-of-range shifts read a zero border.
    """
    if a.shape != b.shape:
        raise ShapeError(f"shape mismatch {a.shape} vs {b.shape}")
    if axis not in (2, 3):
        raise UsageError("correlation axis must be 2 (vertical) or 3 (horizontal)")
    if max_disp < 1 or max_disp >= a.shape[axis]:
        raise UsageError(f"max_disp {max_disp} out of range for extent {a.shape[axis]}")
    disps = list(range(-max_disp, max_disp + 1)) if signed else list(range(max_disp + 1))
    n = a.shape[axis]
    inv_c = 1.0 / a.shape[1]

    def window(k):
        return _along(axis, slice(max_disp - k, max_disp - k + n))

    def bordered(v):
        # v bordered by max_disp zeros on each side of the axis: displacement k reads v at p - k
        vp = np.zeros(v.shape[:axis] + (n + 2 * max_disp,) + v.shape[axis + 1:], dtype=v.dtype)
        vp[window(0)] = v
        return vp

    bp = bordered(b.data)
    out = np.empty((a.shape[0], len(disps)) + a.shape[2:], dtype=a.dtype)
    for j, k in enumerate(disps):
        out[:, j] = (a.data * bp[window(k)]).sum(axis=1) * inv_c

    def backward(g):
        # a local copy, rebuilt: the closure holds no border between the passes
        bp = bordered(b.data)
        da = np.zeros_like(a.data)
        dbp = np.zeros_like(bp)
        for j, k in enumerate(disps):
            gj = g[:, j:j + 1] * inv_c
            da += gj * bp[window(k)]
            dbp[window(k)] += gj * a.data
        return da, dbp[window(0)]

    return result(out, (a, b), backward)


# -- composite maps -----------------------------------------------------------

SSIM_C1 = 0.01 ** 2
SSIM_C2 = 0.03 ** 2


def ssim_map(a: Tensor, b: Tensor, size: int = 11, sigma: float = 1.5) -> Tensor:
    """Per-pixel structural similarity with an 11x1.5 Gaussian window.

    Constants use dynamic range 1.0 (images live in [0, 1]). Identical inputs
    give a map of exactly 1.
    """
    if a.shape != b.shape:
        raise ShapeError(f"shape mismatch {a.shape} vs {b.shape}")
    mu_a = gaussian_blur(a, size, sigma)
    mu_b = gaussian_blur(b, size, sigma)
    var_a = gaussian_blur(mul(a, a), size, sigma) - mul(mu_a, mu_a)
    var_b = gaussian_blur(mul(b, b), size, sigma) - mul(mu_b, mu_b)
    cov = gaussian_blur(mul(a, b), size, sigma) - mul(mu_a, mu_b)
    num = (2.0 * mul(mu_a, mu_b) + SSIM_C1) * (2.0 * cov + SSIM_C2)
    den = (mul(mu_a, mu_a) + mul(mu_b, mu_b) + SSIM_C1) * (var_a + var_b + SSIM_C2)
    return div(num, den)


def cosine_map(a: Tensor, b: Tensor, eps: float = 1e-8) -> Tensor:
    """Per-pixel cosine similarity of the channel vectors, shape (b, 1, h, w)."""
    if a.shape != b.shape:
        raise ShapeError(f"shape mismatch {a.shape} vs {b.shape}")
    num = mul(a, b).sum(axis=1)
    na = sqrt(mul(a, a).sum(axis=1) + eps)
    nb = sqrt(mul(b, b).sum(axis=1) + eps)
    return div(num, mul(na, nb))

