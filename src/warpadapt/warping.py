"""Differentiable bidirectional warping along displacement fields, and the
feature warping losses built on top of the network taps.

A displacement field is a plain (b, c, h, w) tensor in pixels, and its channel
count says what it is. A flow has two channels (u rightward, v downward);
warping with sign s samples the source at (x + s*u, y + s*v), so sign=+1 pulls
frame t+1 back onto frame t. A disparity d has one channel and samples at
(x - s*d, y): sign=+1 moves right-view content onto the left view and sign=-1
moves left-view content onto the right view. Either field, times its sign,
is the offset ``kernels.grid_sample`` takes, so a disparity is sampled along x
alone. A field's values are pixels at its own pyramid level, so resizing it
rescales them.
Out-of-bounds taps read as zero and carry no gradient.
"""

from __future__ import annotations

from . import kernels as K
from .autograd import Tensor, concat  # noqa: F401  (perfbench span tests check concat here)
from .errors import ShapeError, UsageError


def warp(src: Tensor, field: Tensor, sign: int = 1) -> Tensor:
    """Bilinear sample of ``src`` at (x + sign * u, y + sign * v) along a flow
    (u, v), or at (x - sign * d, y) along a disparity d."""
    return K.grid_sample(src, field * (-sign if field.shape[1] == 1 else sign))


def resize_field(field: Tensor, target_hw: tuple) -> Tensor:
    """Bring a field to another pyramid level, rescaling its pixel values."""
    while field.shape[2:] != tuple(target_hw):
        if target_hw[0] <= field.shape[2] // 2:
            field = K.downsample2(field) * 0.5
        elif target_hw[0] >= field.shape[2] * 2:
            field = K.upsample2(field) * 2.0
        else:
            raise ShapeError(f"cannot resize field {field.shape} to {tuple(target_hw)}")
    return field


def _masked_l1(diff_abs: Tensor, mask: Tensor | None) -> Tensor:
    if mask is None:
        return diff_abs.mean()
    return (diff_abs * mask).mean() / (mask.mean() + 1e-8)


def multiscale_warp_loss(taps_src, taps_dst, field: Tensor, sign: int = 1,
                         mask: Tensor | None = None) -> Tensor:
    """Mean over taps of the L1 gap between warped source and target features.

    The field is given at full resolution and is resized (values rescaled) to
    each tap's level. An optional full-resolution mask gates the L1 map and the
    per-tap loss is renormalized by the mask mean. Taps run fine to coarse:
    each tap's mask is halved from the previous tap's.
    """
    if len(taps_src) != len(taps_dst):
        raise UsageError(f"{len(taps_src)} source taps vs {len(taps_dst)} target taps")
    if not taps_src:
        raise UsageError("empty tap lists")
    total = None
    for src, dst in zip(taps_src, taps_dst):
        if src.shape != dst.shape:
            raise ShapeError(f"tap shape mismatch {src.shape} vs {dst.shape}")
        hw = src.shape[2:]
        while mask is not None and mask.shape[2:] != hw:
            mask = K.downsample2(mask)
        diff = K.absolute(warp(src, resize_field(field, hw), sign) - dst)
        term = _masked_l1(diff, mask)
        total = term if total is None else total + term
    return total * (1.0 / len(taps_src))


def stagewise_warp_loss(stages, target: Tensor, gamma: float = 0.9,
                        mask: Tensor | None = None) -> Tensor:
    """Smooth-L1 between each refinement stage and the target field.

    Stages run coarse to fine in native-scale pixel units; each is resized to
    the target's resolution with its values rescaled by the spatial ratio.
    Stage s of S carries weight gamma^(S-1-s), so the finest stage weighs 1.
    """
    if not stages:
        raise UsageError("empty stage list")
    n = len(stages)
    total = None
    for s, stage in enumerate(stages):
        if stage.shape[1] != target.shape[1]:
            raise ShapeError(f"stage has {stage.shape[1]} channels, target {target.shape[1]}")
        up = resize_field(stage, (target.shape[2], target.shape[3]))
        term = _masked_l1(K.smooth_l1(up, target), mask)
        weighted = term * (gamma ** (n - 1 - s))
        total = weighted if total is None else total + weighted
    return total
