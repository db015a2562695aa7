"""Differentiable kernel catalog over rank-4 tensors.

Each kernel pairs a forward rule with a matched backward rule; the cosine map
is assembled from primitives and differentiates through the graph. Each map
that compares two images (SSIM, |a - b|, (a - b)^2, smooth-L1) is one node
that holds only its output: its backward pass reads its inputs again, and
SSIM's recomputes its window moments and differentiates in closed form.

conv2d and conv_transpose2d share one core of one GEMM per kernel tap: a
gather, which correlates an input with a kernel at stride s and, on the same
taps, forms the weight gradient. It reads the input's s x s phases (space
to depth; at stride 1 the padded input itself) as one flat matrix, and every
tap is a unit-stride window of one phase, so no tap copies its input; a layer
whose working set passes TILE_BYTES runs in column tiles, every tap on one
tile before the next, and each output sums the same per-tap products in the
same order as without tiles. conv2d's forward pass and weight gradient are
gathers at its stride; every other pass is a stride-1 gather. The adjoint of a
stride-s correlation (conv2d's input gradient, conv_transpose2d's forward
pass) computes its s x s output phases, each a correlation with a sub-kernel
of the flipped taps, in one gather, and conv_transpose2d's backward pass
gathers over its gradient's s x s phases with the kernel's taps regrouped.
A tap that sums over a single channel is a broadcast outer product, not a
GEMM. Either convolution may end in a LeakyReLU (``slope``), applied in place
on the biased output it allocates, so a layer is one tape node holding one
activation; its backward pass reads the pre-activation's sign from the
output's, which agree for a slope in (0, 1], and feeds the masked gradient to
the bias, weight and input gradients. The Gaussian blur under SSIM is a
product with a cached banded matrix per axis, and is its own adjoint.
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


def sqrt(x: Tensor) -> Tensor:
    r = np.sqrt(x.data)
    return result(r, (x,), lambda g: (g * 0.5 / r,))


def square(x: Tensor) -> Tensor:
    return result(x.data * x.data, (x,), lambda g: (g * 2.0 * x.data,))


# Each map of a difference below is one node holding only its output; its
# backward pass reads a - b again from the inputs, which the graph holds anyway.

def _diff(a: Tensor, b: Tensor) -> np.ndarray:
    if a.shape != b.shape:
        raise ShapeError(f"shape mismatch {a.shape} vs {b.shape}")
    return a.data - b.data


def _both(a: Tensor, b: Tensor, ga: np.ndarray) -> tuple:
    """Gradients (ga, -ga) of a map of a - b, each only where it is needed."""
    return (ga if a.requires_grad else None), (-ga if b.requires_grad else None)


def abs_diff(a: Tensor, b: Tensor) -> Tensor:
    """Elementwise |a - b|."""
    return result(np.abs(_diff(a, b)), (a, b),
                  lambda g: _both(a, b, g * np.sign(a.data - b.data)))


def sq_diff(a: Tensor, b: Tensor) -> Tensor:
    """Elementwise (a - b)^2."""
    d = _diff(a, b)
    return result(d * d, (a, b), lambda g: _both(a, b, g * 2.0 * (a.data - b.data)))


def smooth_l1(a: Tensor, b: Tensor) -> Tensor:
    """Elementwise smooth-L1 map of a - b: quadratic below 1, linear above."""
    d = _diff(a, b)
    ad = np.abs(d)
    out = np.where(ad < 1.0, 0.5 * d * d, ad - 0.5).astype(a.dtype)

    def backward(g):
        d = a.data - b.data
        return _both(a, b, g * np.where(np.abs(d) < 1.0, d, np.sign(d)))

    return result(out, (a, b), backward)


# -- convolutions -------------------------------------------------------------
#
# The gather correlates an input, given as its s * s space-to-depth phases in
# one contiguous (s * s * c, b, H, W) array, with a kh x kw kernel at stride s,
# one GEMM per kernel tap summed in a contiguous accumulator; a gather asked
# for both the correlation and the weight gradient reads each tap once. The
# phases are read as one flat (s * s * c, b * H * W) matrix: tap (i, j) is the
# rows of phase (i % s, j % s) in the window at offset (i // s) * W + j // s, a
# unit-stride view that BLAS reads without a copy. The sum lands on the
# phases' (H, W) grid, valid in its top-left ho x wo block, and is cropped
# once; a window crossing a row or sample boundary only feeds positions outside
# that block. At stride 1 there is one phase, the zero-padded input.
#
# The adjoint of a stride-s correlation with a kh x kw kernel zero-pads the
# kernel to multiples of s and splits it into s * s flipped sub-kernels of
# ceil(kh / s) x ceil(kw / s) taps: padded output row s q + r is row q of phase
# r, a full correlation of the input with the taps s m + r. One stride-1 gather
# computes all phases as s * s * cout channels over the input with
# ceil(k / s) - 1 zero rows and columns before it and as many after it as the
# crop keeps; each phase is written with the bias straight into its [r::s]
# slots of the cropped, batch-major result. A row that no tap reaches (odd
# extents at pad 0) reads only zeros. conv_transpose2d's backward runs the
# other way: tap (s m + r, s m' + r') of the padded gradient is phase (r, r')
# at (m, m'), so dx and dw are one stride-1 gather over the gradient's s * s
# phases, taken as s * s * cout channels, with the kernel regrouped the same
# way.
#
# The output columns are split into equal tiles whose input rows, accumulator
# and product temporary, (s * s * cin + 2 cout) values per column, fit
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


def _batch_major(v: np.ndarray, bias: np.ndarray) -> np.ndarray:
    """(c, b, h, w) -> contiguous (b, c, h, w), plus a (1, c, 1, 1) bias."""
    return np.add(v.transpose(1, 0, 2, 3), bias, order="C")


def _leaky(z: np.ndarray, slope: float | None) -> np.ndarray:
    """LeakyReLU of a layer's own output z, in place: max(z, slope * z), the
    bits of z where z > 0, else slope * z, for 0 < slope <= 1."""
    if slope is not None:
        np.maximum(z, z * np.asarray(slope, z.dtype.type), out=z)
    return z


def _leaky_grad(g: np.ndarray, out: np.ndarray, slope: float | None) -> np.ndarray:
    """The gradient at the pre-activation, read from the activation ``out``:
    out > 0 exactly where the pre-activation is, for slope > 0."""
    if slope is None:
        return g
    return np.where(out > 0, g, g * np.asarray(slope, out.dtype.type))


def _tiles(span: int, col_bytes: int) -> list:
    """Equal column tiles [s, e) of [0, span), each holding about TILE_BYTES
    of working set at ``col_bytes`` per column: the size is rounded up to
    whole TILE_ALIGN columns, so a tile may pass the budget by less than
    TILE_ALIGN columns. Only the last tile ends in a partial GEMM block, as
    the whole window does."""
    count = -(-span * col_bytes // TILE_BYTES)
    size = -(-span // (count * TILE_ALIGN)) * TILE_ALIGN
    return [(s, min(s + size, span)) for s in range(0, span, size)]


def _taps(a: np.ndarray, kh: int, kw: int, stride: int, cols: tuple):
    """Per kernel tap (i, j) of a correlation at ``stride`` over the phases
    ``a``: the (c, e - s) window of their flat matrix that feeds output
    columns ``cols`` = (s, e)."""
    rows, _, _, wp = a.shape
    c = rows // (stride * stride)
    flat = a.reshape(rows, -1)
    s, e = cols
    for i in range(kh):
        for j in range(kw):
            p = (i % stride * stride + j % stride) * c
            o = i // stride * wp + j // stride
            yield i, j, flat[p:p + c, o + s:o + e]


def _matmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``a @ b``. With inner dimension 1 it is the broadcast outer product:
    the same bits, without BLAS's slow path for that shape."""
    return a * b if a.shape[1] == 1 else a @ b


def _gather(a: np.ndarray, kh: int, kw: int, stride: int,
            w: np.ndarray | None = None, g: np.ndarray | None = None) -> tuple:
    """One pass over the taps of the stride-s correlation of an input whose
    ``_space_to_depth`` phases are ``a`` (s * s * c, b, H, W): (correlation,
    weight gradient), each None unless asked.

    With ``w`` (n, c, kh, kw) the correlation is (n, b, ho, wo), where
    ho = H - (kh - 1) // s and wo = W - (kw - 1) // s; with ``g``, a batch-major
    (b, n, ho, wo) gradient of that output, the weight gradient is (n, c, kh, kw).
    """
    rows, bs, hp, wp = a.shape
    c = rows // (stride * stride)
    n = w.shape[0] if w is not None else g.shape[1]
    ho, wo = hp - (kh - 1) // stride, wp - (kw - 1) // stride
    dtype = np.result_type(a, *(v for v in (w, g) if v is not None))
    span = (bs - 1) * hp * wp + (ho - 1) * wp + wo  # one past the last valid output
    # a 1-row product is a GEMV, whose bits depend on the window's width, and
    # a 1-column one is an outer product, which tiles do not speed up
    whole = w is not None and 1 in w.shape[:2]
    tiles = [(0, span)] if whole else _tiles(span, (rows + 2 * n) * dtype.itemsize)
    if g is not None:
        # g on a's flat grid, so window column p of every tap meets output p
        gm = np.zeros((n, bs, hp, wp), dtype=g.dtype)
        gm[:, :, :ho, :wo] = g.transpose(1, 0, 2, 3)
        gm = gm.reshape(n, -1)
        dwt = np.zeros((kh, kw, c, n), dtype=dtype)
    grid = None
    for s, e in tiles:
        acc = 0
        for i, j, tap in _taps(a, kh, kw, stride, (s, e)):
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


def _phase_kernel(w: np.ndarray, s: int) -> np.ndarray:
    """(n, c, kh, kw) -> (n, c, kh', s, kw', s), zero-padded to (s kh', s kw'),
    kh' = ceil(kh / s): element [..., m, r, m', r'] is tap (s m + r, s m' + r')."""
    n, c, kh, kw = w.shape
    kh2, kw2 = -(-kh // s), -(-kw // s)
    wp = np.zeros((n, c, kh2 * s, kw2 * s), dtype=w.dtype)
    wp[:, :, :kh, :kw] = w
    return wp.reshape(n, c, kh2, s, kw2, s)


def _correlate_adjoint(a: np.ndarray, w: np.ndarray, stride: int, pad: int,
                       ho: int, wo: int, bias: np.ndarray | None = None) -> np.ndarray:
    """Adjoint of the stride-s correlation with w (n, c, kh, kw), cropped by
    ``pad`` per side: batch-major (b, n, h, w) -> (b, c, ho, wo), plus a
    (1, c, 1, 1) ``bias`` if given.

    All s * s output phases are one ``_gather`` with s * s * c outputs, each
    written into its strided slots of the result.
    """
    bs, n, h, wd = a.shape
    s = stride
    wk = _phase_kernel(w, s)
    c, kh2, kw2 = w.shape[1], wk.shape[2], wk.shape[4]
    # phase rows [0, hq) hold every output row after the crop; a row that no
    # tap reaches reads the zero border
    hq, wq = -(-(pad + ho) // s), -(-(pad + wo) // s)
    ap = np.zeros((n, bs, kh2 - 1 + hq, kw2 - 1 + wq), dtype=a.dtype)
    ap[:, :, kh2 - 1:, kw2 - 1:][:, :, :h, :wd] = a[:, :, :hq, :wq].transpose(1, 0, 2, 3)
    wf = wk[:, :, ::-1, :, ::-1].transpose(3, 5, 1, 0, 2, 4).reshape(s * s * c, n, kh2, kw2)
    phases = _gather(ap, kh2, kw2, 1, w=wf)[0].reshape(s, s, c, bs, hq, wq)
    del ap  # before the result is allocated
    out = np.empty((bs, c, ho, wo), dtype=phases.dtype)
    for rh in range(s):
        for rw in range(s):
            (qh, ph), (qw, pw) = divmod(rh + pad, s), divmod(rw + pad, s)
            dst = out[:, :, rh::s, rw::s]
            src = phases[ph, pw, :, :, qh:qh + dst.shape[2], qw:qw + dst.shape[3]]
            src = src.transpose(1, 0, 2, 3)
            if bias is None:
                dst[...] = src
            else:
                np.add(src, bias, out=dst)
    return out


def _space_to_depth(v: np.ndarray, s: int, pad: int, hq: int, wq: int) -> np.ndarray:
    """Batch-major (b, c, H, W) -> (s * s * c, b, hq, wq): channel block (r, r')
    holds phase (r, r') of v padded by ``pad``, element [q, q'] its padded
    element [s q + r, s q' + r'], zero past its edges."""
    bs, c = v.shape[:2]
    out = np.zeros((s, s, c, bs, hq, wq), dtype=v.dtype)
    for r in range(s):
        for r2 in range(s):
            # first phase row and column inside v, and the v row and column they hold
            q0, q1 = -((r - pad) // s), -((r2 - pad) // s)
            src = v[:, :, s * q0 + r - pad::s, s * q1 + r2 - pad::s][:, :, :hq - q0, :wq - q1]
            out[r, r2, :, :, q0:q0 + src.shape[2], q1:q1 + src.shape[3]] = src.transpose(1, 0, 2, 3)
    return out.reshape(s * s * c, bs, hq, wq)


def _check_layer(stride: int, pad: int, slope: float | None) -> None:
    if stride not in (1, 2):
        raise UsageError(f"stride must be 1 or 2, got {stride}")
    if pad < 0:
        raise UsageError(f"pad must be >= 0, got {pad}")
    if slope is not None and not 0 < slope <= 1:
        raise UsageError(f"slope must be in (0, 1], got {slope}")


def conv2d(x: Tensor, w: Tensor, b: Tensor, stride: int = 1, pad: int = 1,
           slope: float | None = None) -> Tensor:
    """2-D convolution, zero padding. Weight (cout, cin, kh, kw), bias (1, cout, 1, 1).

    With a ``slope`` in (0, 1] the layer ends in a LeakyReLU, applied in place
    on the biased output, so the tape holds one node and one activation.
    """
    _check_layer(stride, pad, slope)
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
    hq, wq = ho + (kh - 1) // stride, wo + (kw - 1) // stride
    out = _leaky(_batch_major(_gather(_space_to_depth(x.data, stride, pad, hq, wq), kh, kw,
                                      stride, w=w.data)[0], b.data), slope)

    def backward(g):
        g = _leaky_grad(g, out, slope)
        db = g.sum(axis=(0, 2, 3)).reshape(1, cout, 1, 1)
        # the input's phases are rebuilt here rather than held on the tape
        dw = (_gather(_space_to_depth(x.data, stride, pad, hq, wq), kh, kw, stride, g=g)[1]
              if w.requires_grad else None)
        dx = _correlate_adjoint(g, w.data, stride, pad, h, wd) if x.requires_grad else None
        return dx, dw, db

    return result(out, (x, w, b), backward)


def conv_transpose2d(x: Tensor, w: Tensor, b: Tensor, stride: int = 2, pad: int = 1,
                     slope: float | None = None) -> Tensor:
    """Transposed convolution. Weight (cin, cout, kh, kw); output grows by
    ``stride``. ``slope`` ends the layer in a LeakyReLU, as in ``conv2d``."""
    _check_layer(stride, pad, slope)
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
    out = _leaky(_correlate_adjoint(x.data, w.data, stride, pad, ho, wo, b.data), slope)

    def backward(g):
        g = _leaky_grad(g, out, slope)
        db = g.sum(axis=(0, 2, 3)).reshape(1, cout, 1, 1)
        dx = dw = None
        if x.requires_grad or w.requires_grad:
            # dx is the stride-s correlation of the padded g with w, so it is
            # one stride-1 gather over g's phases, and dw pairs its taps with x
            s = stride
            wk = _phase_kernel(w.data, s)
            kh2, kw2 = wk.shape[2], wk.shape[4]
            dx, dw = _gather(_space_to_depth(g, s, pad, h + kh2 - 1, wd + kw2 - 1), kh2, kw2, 1,
                             w=(wk.transpose(0, 3, 5, 1, 2, 4).reshape(cin, -1, kh2, kw2)
                                if x.requires_grad else None),
                             g=x.data if w.requires_grad else None)
        if dx is not None:
            dx = np.ascontiguousarray(dx.transpose(1, 0, 2, 3))
        if dw is not None:
            dw = dw.reshape(cin, s, s, cout, kh2, kw2).transpose(0, 3, 4, 1, 5, 2)
            dw = np.ascontiguousarray(dw.reshape(cin, cout, kh2 * s, kw2 * s)[:, :, :kh, :kw])
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


def _blur(v: np.ndarray, size: int, sigma: float) -> np.ndarray:
    bh, bw = (_blur_band(min(n, BLUR_TILE), size, sigma, v.dtype) for n in v.shape[2:])
    return _blur_along(_blur_along(v, bh, 2), bw, 3)


def gaussian_blur(x: Tensor, size: int = 11, sigma: float = 1.5) -> Tensor:
    """Depthwise Gaussian blur, zero padding, unit-sum window."""
    if size % 2 != 1 or size < 3:
        raise UsageError("window size must be odd and >= 3")
    # symmetric window + zero padding: the adjoint of the blur is the blur
    return result(_blur(x.data, size, sigma), (x,), lambda g: (_blur(g, size, sigma),))


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
    give a map of exactly 1. With G the blur, mu_x = G[x] and the window
    moments s_xy = G[xy] - mu_x mu_y, the map is S = A1 A2 / (B1 B2) for
    A1 = 2 mu_a mu_b + C1, A2 = 2 s_ab + C2, B1 = mu_a^2 + mu_b^2 + C1 and
    B2 = s_aa + s_bb + C2. It is one node holding S alone: the forward pass
    works in place, and the backward pass recomputes the moments and
    differentiates S in closed form (G is its own adjoint).
    """
    if a.shape != b.shape:
        raise ShapeError(f"shape mismatch {a.shape} vs {b.shape}")
    va, vb = a.data, b.data
    dt = np.result_type(va, vb).type
    c1, c2, two = dt(SSIM_C1), dt(SSIM_C2), dt(2.0)

    def blur(v):
        # the public blur, on an untaped tensor: it records no node
        return gaussian_blur(Tensor(v), size, sigma).data

    mu_a, mu_b = blur(va), blur(vb)
    b2 = blur(va * va)
    b2 -= mu_a * mu_a
    var_b = blur(vb * vb)
    var_b -= mu_b * mu_b
    b2 += var_b
    del var_b  # before the last blur, so that at most six maps are live
    b2 += c2
    a2 = blur(va * vb)
    s = mu_a * mu_b
    a2 -= s
    a2 *= two
    a2 += c2
    s *= two
    s += c1
    s *= a2  # A1 A2
    mu_a *= mu_a
    mu_b *= mu_b
    mu_a += mu_b
    mu_a += c1
    mu_a *= b2  # B1 B2
    s /= mu_a

    def backward(g):
        def blur(v):
            return _blur(v, size, sigma)

        va, vb = a.data, b.data
        mu_a, mu_b = blur(va), blur(vb)
        b1 = mu_a * mu_a + mu_b * mu_b + SSIM_C1
        b2 = blur(va * va) - mu_a * mu_a + blur(vb * vb) - mu_b * mu_b + SSIM_C2
        gs = g * s
        # the gradient at B1, B2, A1 and A2
        gb1, gb2 = -gs / b1, -gs / b2
        gs = g / (b1 * b2)
        del b1, b2
        ab = mu_a * mu_b
        ga1 = gs * (2.0 * (blur(va * vb) - ab) + SSIM_C2)
        ga2 = gs * (2.0 * ab + SSIM_C1)
        del gs, ab
        u = 2.0 * (ga1 - ga2)  # at mu_a mu_b
        v = 2.0 * (gb1 - gb2)  # twice that at mu_a^2, and at mu_b^2
        del ga1, gb1
        q = blur(gb2)  # at a^2 and at b^2
        r = blur(2.0 * ga2)  # at ab
        del ga2, gb2
        da = blur(mu_b * u + mu_a * v) + 2.0 * va * q + vb * r if a.requires_grad else None
        db = blur(mu_a * u + mu_b * v) + 2.0 * vb * q + va * r if b.requires_grad else None
        return da, db

    return result(s, (a, b), backward)


def cosine_map(a: Tensor, b: Tensor, eps: float = 1e-8) -> Tensor:
    """Per-pixel cosine similarity of the channel vectors, shape (b, 1, h, w)."""
    if a.shape != b.shape:
        raise ShapeError(f"shape mismatch {a.shape} vs {b.shape}")
    num = mul(a, b).sum(axis=1)
    na = sqrt(mul(a, a).sum(axis=1) + eps)
    nb = sqrt(mul(b, b).sum(axis=1) + eps)
    return div(num, mul(na, nb))

