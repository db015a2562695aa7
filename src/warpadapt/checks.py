"""Finite-difference verification sweep over the kernel catalog and losses.

Each case perturbs one input of one construct and compares analytic gradients
against 64-bit central differences. Inputs are generated away from the kinks
of the non-smooth kernels (relu corner, abs corner, smooth-L1 transition,
interpolation cell boundaries) so the comparison is well posed.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterator

import numpy as np

from . import kernels as K
from . import losses as L
from .autograd import Tensor, concat, grad_check, no_grad, split
from .networks import Extractor
from .warping import multiscale_warp_loss, stagewise_warp_loss, warp

SMOOTH_TOL = 1e-4
KINKED_TOL = 1e-3


@dataclass
class CheckResult:
    name: str
    error: float
    threshold: float

    @property
    def passed(self) -> bool:
        return self.error < self.threshold


def _rand(rng, shape, lo=-2.0, hi=2.0):
    return Tensor(rng.uniform(lo, hi, size=shape).astype(np.float64))


def _rand_away_from(rng, shape, gap, *kinks):
    """Uniform in [-2, 2] with every element nudged ``gap`` away from the kinks."""
    v = rng.uniform(-2.0, 2.0, size=shape)
    for k in kinks:
        near = np.abs(v - k) < gap
        v = np.where(near, k + gap * np.where(v >= k, 1.0, -1.0), v)
    return Tensor(v.astype(np.float64))


def kernel_cases(seed: int = 0) -> Iterator[tuple[str, Callable, Tensor, float]]:
    """Yield (label, scalar-valued f, input tensor, threshold) per kernel/input."""
    rng = np.random.default_rng(seed)
    shp = (1, 3, 5, 6)

    a = _rand(rng, shp)
    b = _rand(rng, shp)
    bden = Tensor(np.sign(b.data) * (np.abs(b.data) + 0.5))
    yield "add/a", lambda t: (t + b).mean(), a, SMOOTH_TOL
    yield "sub/b", lambda t: (a - t).mean(), b, SMOOTH_TOL
    yield "mul/a", lambda t: (t * b).mean(), a, SMOOTH_TOL
    yield "mul/b", lambda t: (a * t).mean(), b, SMOOTH_TOL
    yield "div/a", lambda t: (t / bden).mean(), a, SMOOTH_TOL
    yield "div/b", lambda t: (a / t).mean(), bden, SMOOTH_TOL
    yield "scalar_mul", lambda t: (t * 1.7).mean(), a, SMOOTH_TOL
    yield "scalar_add", lambda t: (t + 0.3).mean(), a, SMOOTH_TOL

    x_off0 = _rand_away_from(rng, shp, 0.05, 0.0)
    yield "abs", lambda t: K.absolute(t).mean(), x_off0, KINKED_TOL
    yield "leaky_relu", lambda t: K.leaky_relu(t, 0.2).mean(), x_off0, KINKED_TOL
    yield "square", lambda t: K.square(t).mean(), a, SMOOTH_TOL
    pos = _rand(rng, shp, lo=0.1, hi=2.0)
    yield "sqrt", lambda t: K.sqrt(t).mean(), pos, SMOOTH_TOL
    yield "log", lambda t: K.log(t).mean(), pos, SMOOTH_TOL
    clamp_in = _rand_away_from(rng, shp, 0.05, -1.0, 1.0)
    yield "clamp", lambda t: K.clamp(t, -1.0, 1.0).mean(), clamp_in, KINKED_TOL
    yield "sigmoid", lambda t: K.sigmoid(t).mean(), a, SMOOTH_TOL
    yield "tanh", lambda t: K.tanh(t).mean(), a, SMOOTH_TOL
    yield "softplus", lambda t: K.softplus(t).mean(), a, SMOOTH_TOL

    yield "mean/full", lambda t: t.mean(), a, SMOOTH_TOL
    yield "mean/channel", lambda t: K.square(t.mean(axis=1)).mean(), a, SMOOTH_TOL
    yield "sum/full", lambda t: t.sum(), a, SMOOTH_TOL
    yield "sum/width", lambda t: K.square(t.sum(axis=3)).mean(), a, SMOOTH_TOL
    yield "concat", lambda t: K.square(concat([t, b], axis=1)).mean(), a, SMOOTH_TOL

    x = _rand(rng, (2, 3, 6, 8))
    yield ("split", lambda t: (K.square(split(t, 2)[0]) + split(t, 2)[1] * 3.0).mean(),
           x, SMOOTH_TOL)
    w1 = _rand(rng, (4, 3, 3, 3), lo=-0.7, hi=0.7)
    bias = _rand(rng, (1, 4, 1, 1))
    for s in (1, 2):
        yield (f"conv2d/s{s}/x", lambda t, s=s: K.square(K.conv2d(t, w1, bias, stride=s)).mean(),
               x, SMOOTH_TOL)
        yield (f"conv2d/s{s}/w", lambda t, s=s: K.square(K.conv2d(x, t, bias, stride=s)).mean(),
               w1, SMOOTH_TOL)
        yield (f"conv2d/s{s}/b", lambda t, s=s: K.square(K.conv2d(x, w1, t, stride=s)).mean(),
               bias, SMOOTH_TOL)

    # odd extents at stride 2: the last padded row and column are never read.
    # Drawn from its own stream so the other cases keep their inputs.
    x_odd = _rand(np.random.default_rng([seed, 1]), (2, 3, 7, 9))
    yield ("conv2d/s2/odd", lambda t: K.square(K.conv2d(t, w1, bias, stride=2)).mean(),
           x_odd, SMOOTH_TOL)

    wt = _rand(rng, (3, 2, 4, 4), lo=-0.7, hi=0.7)
    bt = _rand(rng, (1, 2, 1, 1))
    yield ("conv_transpose2d/x", lambda t: K.square(K.conv_transpose2d(t, wt, bt)).mean(),
           x, SMOOTH_TOL)
    yield ("conv_transpose2d/w", lambda t: K.square(K.conv_transpose2d(x, t, bt)).mean(),
           wt, SMOOTH_TOL)
    yield ("conv_transpose2d/b", lambda t: K.square(K.conv_transpose2d(x, wt, t)).mean(),
           bt, SMOOTH_TOL)

    yield "gaussian_blur", lambda t: K.square(K.gaussian_blur(t)).mean(), x, SMOOTH_TOL
    yield "upsample2", lambda t: K.square(K.upsample2(t)).mean(), x, SMOOTH_TOL
    yield "downsample2", lambda t: K.square(K.downsample2(t)).mean(), x, SMOOTH_TOL

    # fractions in (0.2, 0.8) keep taps inside cells; edge pixels read out of bounds
    img = _rand(rng, (2, 2, 6, 8))
    offset = Tensor(rng.integers(-2, 3, size=(2, 2, 6, 8))
                    + rng.uniform(0.2, 0.8, size=(2, 2, 6, 8)))
    yield ("grid_sample/input", lambda t: K.square(K.grid_sample(t, offset)).mean(),
           img, KINKED_TOL)
    for label, off in (("grid", offset), ("grid_x", Tensor(offset.data[:, :1]))):
        yield (f"grid_sample/{label}", lambda t: K.square(K.grid_sample(img, t)).mean(),
               off, KINKED_TOL)

    ca = _rand(rng, (1, 3, 5, 8))
    cb = _rand(rng, (1, 3, 5, 8))
    yield ("correlation/h/a", lambda t: K.square(K.correlation(t, cb, 3)).mean(),
           ca, SMOOTH_TOL)
    yield ("correlation/h/b", lambda t: K.square(K.correlation(ca, t, 3)).mean(),
           cb, SMOOTH_TOL)
    yield ("correlation/v/signed", lambda t: K.square(K.correlation(t, cb, 2, axis=2, signed=True)).mean(),
           ca, SMOOTH_TOL)

    sa = _rand(rng, shp)
    diff = rng.uniform(-2.0, 2.0, size=shp)
    near = np.abs(np.abs(diff) - 1.0) < 0.03
    diff = np.where(near, np.sign(diff) * 1.06, diff)
    sb = Tensor(sa.data - diff)
    yield "smooth_l1/a", lambda t: K.smooth_l1(t, sb).mean(), sa, KINKED_TOL
    yield "smooth_l1/b", lambda t: K.smooth_l1(sa, t).mean(), sb, KINKED_TOL

    # SSIM is smooth but sharply curved where window variances are small
    # against C2, so its central differences use a finer step
    ia = _rand(rng, (1, 2, 8, 8), lo=0.0, hi=1.0)
    ib = _rand(rng, (1, 2, 8, 8), lo=0.0, hi=1.0)
    yield "ssim_map/a", lambda t: K.ssim_map(t, ib).mean(), ia, SMOOTH_TOL, 2e-4
    yield "ssim_map/b", lambda t: K.ssim_map(ia, t).mean(), ib, SMOOTH_TOL, 2e-4

    # cosine curvature grows as 1/norm^2: keep channel norms comfortably large
    # and difference with a finer step
    na = Tensor(np.sign(rng.uniform(-1, 1, shp)) * rng.uniform(0.5, 2.0, shp))
    nb = Tensor(np.sign(rng.uniform(-1, 1, shp)) * rng.uniform(0.5, 2.0, shp))
    yield "cosine_map/a", lambda t: K.cosine_map(t, nb).mean(), na, SMOOTH_TOL, 2e-4
    yield "cosine_map/b", lambda t: K.cosine_map(na, t).mean(), nb, SMOOTH_TOL, 2e-4


def _offset(rng, shape, lo, hi):
    """Random magnitudes in [lo, hi] with random signs: keeps |a - b| away from
    both zero (abs kink) and any value within ``lo`` of the smooth-L1 corner."""
    return np.sign(rng.uniform(-1, 1, shape)) * rng.uniform(lo, hi, shape)


def _extractor_preact_margin(extractor, x) -> float:
    """Smallest |pre-activation| across the extractor stack for input x."""
    with no_grad():
        p1 = extractor.conv("c1", x)
        t1 = K.leaky_relu(p1, 0.1)
        p2 = extractor.conv("c2", t1, stride=2)
        t2 = K.leaky_relu(p2, 0.1)
        p3 = extractor.conv("c3", t2, stride=2)
    return min(np.abs(p.data).min() for p in (p1, p2, p3))


def loss_cases(seed: int = 0) -> Iterator[tuple[str, Callable, Tensor, float]]:
    """Gradient checks for every loss construct, w.r.t. their tensor inputs.

    Inputs are built so no element sits within the finite-difference step of an
    abs / smooth-L1 kink: differences are offset away from zero and pyramid
    targets use constant bases that interpolation preserves exactly.
    """
    rng = np.random.default_rng(seed)
    shp = (1, 3, 8, 8)

    logits = _rand(rng, (1, 1, 4, 4))
    probs = Tensor(1.0 / (1.0 + np.exp(-_rand(rng, (1, 1, 4, 4)).data)))
    yield ("adversarial/gen", lambda t: L.adversarial_loss(probs, K.sigmoid(t))[0],
           logits, SMOOTH_TOL)
    yield ("adversarial/disc", lambda t: L.adversarial_loss(K.sigmoid(t), probs)[1],
           logits, SMOOTH_TOL)

    orig = _rand(rng, shp, lo=0.35, hi=0.65)
    rec = Tensor(orig.data + _offset(rng, shp, 0.05, 0.3))
    yield "cycle", lambda t: L.cycle_loss(t, orig), rec, KINKED_TOL

    # the extractor's leaky-relu corners make the loss piecewise smooth; pick
    # an input whose pre-activations all clear the corners by a safe margin
    extractor = Extractor(seed=11)
    pb = _rand(rng, (1, 3, 6, 6), lo=0.0, hi=1.0)
    pa = None
    for sub in range(256):
        cand = Tensor(np.random.default_rng([seed, 551, sub]).uniform(0, 1, (1, 3, 6, 6)))
        if _extractor_preact_margin(extractor, cand) > 6e-4:
            pa = cand
            break
    assert pa is not None, "no kink-free perceptual input found"
    yield ("perceptual", lambda t: L.perceptual_loss(t, pb, extractor), pa, KINKED_TOL, 2e-4)

    na = Tensor(np.sign(rng.uniform(-1, 1, shp)) * rng.uniform(0.5, 2.0, shp))
    nb = Tensor(np.sign(rng.uniform(-1, 1, shp)) * rng.uniform(0.5, 2.0, shp))
    yield "cosine", lambda t: L.cosine_loss(t, nb), na, KINKED_TOL

    # redraw until no element of the standardized-volume difference sits near
    # the abs kink, so the finite differences stay one-sided
    for sub in range(64):
        r2 = np.random.default_rng([seed, 9173, sub])
        xl = _rand(r2, (1, 3, 5, 8), lo=0.0, hi=1.0)
        xr = _rand(r2, (1, 3, 5, 8), lo=0.0, hi=1.0)
        gl = _rand(r2, (1, 3, 5, 8), lo=0.0, hi=1.0)
        gr = _rand(r2, (1, 3, 5, 8), lo=0.0, hi=1.0)
        with no_grad():
            z1 = L._standardize(K.correlation(xl, xr, 2))
            z2 = L._standardize(K.correlation(gl, gr, 2))
        if np.abs(z1.data - z2.data).min() > 0.02:
            break
    yield ("corr_consistency", lambda t: L.corr_consistency_loss(xl, xr, t, gr, max_disp=2),
           gl, KINKED_TOL)

    f1 = _rand(rng, shp, lo=0.0, hi=1.0)
    f2 = Tensor(f1.data + _offset(rng, shp, 0.05, 0.3))
    s1 = _rand(rng, shp, lo=0.0, hi=1.0)
    s2 = _rand(rng, shp, lo=0.0, hi=1.0)
    yield ("mode_seeking", lambda t: L.mode_seeking_loss(t, f2, s1, s2), f1, KINKED_TOL)

    field_vals = rng.integers(0, 3, size=(1, 1, 8, 8)) + rng.uniform(0.3, 0.7, size=(1, 1, 8, 8))
    dfield = Tensor(field_vals.astype(np.float64))
    tap_full = _rand(rng, (1, 2, 8, 8))
    with no_grad():
        warped0 = warp(tap_full, dfield, 1)
    tap_dst = Tensor(warped0.data + _offset(rng, (1, 2, 8, 8), 0.1, 0.6))
    yield ("warp_loss/disp_taps",
           lambda t: multiscale_warp_loss([t], [tap_dst], dfield, sign=1),
           tap_full, KINKED_TOL)
    yield ("warp_loss/disp_values",
           lambda t: multiscale_warp_loss([tap_full], [tap_dst], t, sign=1),
           dfield, KINKED_TOL)

    fvals = rng.integers(-2, 2, size=(1, 2, 8, 8)) + rng.uniform(0.3, 0.7, size=(1, 2, 8, 8))
    ffield = Tensor(fvals.astype(np.float64))
    with no_grad():
        fwarped0 = warp(tap_full, ffield, 1)
    ftap_dst = Tensor(fwarped0.data + _offset(rng, (1, 2, 8, 8), 0.1, 0.6))
    yield ("warp_loss/flow_values",
           lambda t: multiscale_warp_loss([tap_full], [ftap_dst], t, sign=1),
           ffield, KINKED_TOL)

    # constant-base targets: upsampling preserves them exactly, so stage errors
    # stay inside (0.2, 0.7) and never touch the smooth-L1 corner at 1
    gt_d = Tensor(np.full((1, 1, 8, 8), 2.3))
    stage_fine = Tensor(2.3 + _offset(rng, (1, 1, 8, 8), 0.2, 0.7))
    stage_coarse = Tensor((2.3 + _offset(rng, (1, 1, 4, 4), 0.2, 0.7)) / 2.0)
    yield ("supervised_disp/fine",
           lambda t: L.supervised_disp_loss([stage_coarse, t], gt_d, gamma=0.9),
           stage_fine, KINKED_TOL)
    yield ("supervised_disp/coarse",
           lambda t: L.supervised_disp_loss([t, stage_fine], gt_d, gamma=0.9),
           stage_coarse, KINKED_TOL)

    gt_f = Tensor(np.full((1, 2, 8, 8), -0.8))
    mask = Tensor((rng.uniform(0, 1, (1, 1, 8, 8)) > 0.3).astype(np.float64))
    fstage = Tensor(-0.8 + _offset(rng, (1, 2, 8, 8), 0.2, 0.7))
    yield ("supervised_flow",
           lambda t: L.supervised_flow_loss([t], gt_f, mask, gamma=0.9),
           fstage, KINKED_TOL)

    target = Tensor(np.full((1, 1, 8, 8), 1.7))
    st = Tensor((1.7 + _offset(rng, (1, 1, 4, 4), 0.2, 0.7)) / 2.0)
    yield ("stagewise_warp",
           lambda t: stagewise_warp_loss([t], target, gamma=0.9),
           st, KINKED_TOL)


def run_suite(seed: int = 0) -> list[CheckResult]:
    results = []
    for group, cases in (("kernel", kernel_cases(seed)), ("loss", loss_cases(seed))):
        for case in cases:
            name, f, x, tol = case[:4]
            step = case[4] if len(case) > 4 else 1e-3
            results.append(CheckResult(f"{group}/{name}", grad_check(f, x, step=step), tol))
    return results
