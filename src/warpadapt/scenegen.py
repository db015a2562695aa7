"""Procedural paired-domain scene generator with exact ground truth.

Scenes are textured rectangles and ellipses at per-layer constant depth over a
textured background. Each view (left, right, next frame) is re-composited from
the layer geometry rather than warped, so occlusions are genuine: disparity
shifts every layer horizontally by its own amount and flow translates it in
2-D. The nearest layer covering a pixel owns it, and only owned pixels are
textured. Textures are low-frequency sinusoids evaluated analytically at each
view's coordinates, keeping photoconsistency errors well under the bilinear
interpolation tolerance. The owner maps also give the occlusion mask: a
left-view pixel is visible at t and t+1 when the next frame still shows its
layer at the flowed position. No stereo visibility mask is stored, because no
training term or metric reads one.

The "real" domain is a color/gamma/vignette/noise shift of independently
generated scenes; ground truth rides along for held-out evaluation only.
"""

from __future__ import annotations

import os
import struct
from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

from .dataio import DATASET_MAGIC, Reader, pack_tensor
from .errors import ConfigError, FormatError

# each field's channel count, in on-disk order
FIELD_CHANNELS = {"left": 3, "right": 3, "next_left": 3, "disparity": 1, "flow": 2, "occlusion": 1}
FIELD_ORDER = tuple(FIELD_CHANNELS)
DOMAIN_TAGS = {"synthetic": 0, "real": 1}
DOMAIN_NAMES = {v: k for k, v in DOMAIN_TAGS.items()}


@dataclass
class SceneSample:
    left: np.ndarray                     # (1, 3, h, w) in [0, 1]
    right: np.ndarray
    next_left: np.ndarray
    disparity: Optional[np.ndarray]      # (1, 1, h, w) pixels, >= 0
    flow: Optional[np.ndarray]           # (1, 2, h, w) pixels (u, v)
    occlusion: Optional[np.ndarray]      # (1, 1, h, w), 1 = visible at t and t+1
    domain: str = "synthetic"


@dataclass
class DomainShift:
    gamma_curve: float = 1.0
    color_matrix: np.ndarray = None
    noise_sigma: float = 0.0
    vignette_strength: float = 0.0

    def __post_init__(self):
        if self.color_matrix is None:
            self.color_matrix = np.eye(3, dtype=np.float64)
        self.color_matrix = np.asarray(self.color_matrix, dtype=np.float64)
        if self.color_matrix.shape != (3, 3):
            raise ConfigError(f"color matrix must be 3x3, got {self.color_matrix.shape}")


def shift_preset(name: str) -> DomainShift:
    if name == "none":
        return DomainShift()
    if name == "mild":
        return DomainShift(gamma_curve=0.85,
                           color_matrix=[[0.95, 0.05, 0.0],
                                         [0.0, 0.95, 0.05],
                                         [0.05, 0.0, 0.95]],
                           noise_sigma=0.002, vignette_strength=0.03)
    if name == "default":
        # the vignette is the main cross-view/cross-frame photometric gap:
        # displacement through a static spatial falloff that a
        # translation-equivariant generator cannot reproduce
        return DomainShift(gamma_curve=0.65,
                           color_matrix=[[0.80, 0.20, 0.05],
                                         [0.05, 0.75, 0.20],
                                         [0.20, 0.05, 0.80]],
                           noise_sigma=0.003, vignette_strength=0.12)
    raise ConfigError(f"unknown shift preset {name!r}")


# -- rendering -----------------------------------------------------------------

class _Layer:
    __slots__ = ("kind", "cx", "cy", "sx", "sy", "disp", "u", "v", "tex")

    def __init__(self, kind, cx, cy, sx, sy, disp, u, v, tex):
        self.kind, self.cx, self.cy = kind, cx, cy
        self.sx, self.sy = sx, sy
        self.disp, self.u, self.v = disp, u, v
        self.tex = tex

    def member(self, xs, ys):
        if self.kind == "background":
            return np.ones_like(xs, dtype=bool)
        dx = (xs - self.cx) / self.sx
        dy = (ys - self.cy) / self.sy
        if self.kind == "rect":
            return (np.abs(dx) <= 1.0) & (np.abs(dy) <= 1.0)
        return dx * dx + dy * dy <= 1.0


def _make_texture(rng):
    # three bands down to ~7 px: the fine band carries most of the matching
    # signal; amplitudes keep the bilinear photoconsistency error within the
    # 1e-2 budget (sum of amp * (2*pi/lambda)^2 / 8 over bands)
    base = rng.uniform(0.3, 0.7, size=3)
    waves = []
    for amp, lam_lo, lam_hi in ((0.14, 16.0, 40.0), (0.07, 10.0, 16.0),
                                (0.04, 7.0, 10.0)):
        lam = rng.uniform(lam_lo, lam_hi)
        theta = rng.uniform(0.0, np.pi)
        phase = rng.uniform(0.0, 2 * np.pi, size=3)
        signs = rng.choice([-1.0, 1.0], size=3)
        waves.append((amp, 2 * np.pi / lam, np.cos(theta), np.sin(theta), phase, signs))
    return base, waves


def _eval_texture(tex, xs, ys):
    base, waves = tex
    out = np.empty((3,) + xs.shape)
    for c in range(3):
        acc = np.full(xs.shape, base[c])
        for amp, k, cth, sth, phase, signs in waves:
            acc = acc + signs[c] * amp * np.sin(k * (xs * cth + ys * sth) + phase[c])
        out[c] = acc
    return out


def _sample_layers(rng, width, height, max_disp, max_flow, num_layers):
    d_bg = rng.uniform(0.2, 1.0)
    ang = rng.uniform(0, 2 * np.pi)
    mag = rng.uniform(0.0, 1.0)
    background = _Layer("background", 0, 0, 1, 1, d_bg,
                        mag * np.cos(ang), mag * np.sin(ang), _make_texture(rng))
    layers = [background]
    count = int(rng.integers(5, 11)) if num_layers is None else num_layers
    for _ in range(count):
        kind = "rect" if rng.uniform() < 0.5 else "ellipse"
        cx = rng.uniform(0.1 * width, 0.9 * width)
        cy = rng.uniform(0.1 * height, 0.9 * height)
        sx = rng.uniform(0.08 * width, 0.22 * width)
        sy = rng.uniform(0.12 * height, 0.28 * height)
        disp = rng.uniform(d_bg + 0.5, 0.95 * max_disp)
        ang = rng.uniform(0, 2 * np.pi)
        mag = rng.uniform(0.5, 0.95 * max_flow)
        layers.append(_Layer(kind, cx, cy, sx, sy, disp,
                             mag * np.cos(ang), mag * np.sin(ang), _make_texture(rng)))
    # far to near; nearer layers composite on top
    layers.sort(key=lambda l: l.disp)
    return layers


def _composite(layers, xs, ys, offset_of):
    """Render one view: the nearest layer covering a pixel owns it.

    The membership tests run first, far to near at each layer's own offset,
    and build the owner-id map. Each layer is then textured only at the pixels
    it owns, so every pixel is textured exactly once.
    """
    offsets = [offset_of(layer) for layer in layers]
    ids = np.full(xs.shape, -1, dtype=np.int32)
    for idx, (layer, (ox, oy)) in enumerate(zip(layers, offsets)):
        ids[layer.member(xs - ox, ys - oy)] = idx
    # one partition of the owner map: layer idx owns order[bounds[idx]:bounds[idx + 1]]
    flat = ids.ravel()
    order = np.argsort(flat, kind="stable")
    bounds = np.searchsorted(flat[order], np.arange(len(layers) + 1))
    img = np.zeros((3, flat.size))
    for idx, (layer, (ox, oy)) in enumerate(zip(layers, offsets)):
        own = order[bounds[idx]:bounds[idx + 1]]
        if own.size:
            img[:, own] = _eval_texture(layer.tex, xs.ravel()[own] - ox,
                                        ys.ravel()[own] - oy)
    return img.reshape((3,) + xs.shape), ids


def _shows_layer(ids, qx, qy, layer):
    """Whether all four integer corners around each fractional query point
    show ``layer``, i.e. the queried position still shows that surface.

    A corner off the map reads a -1 border. No layer id is -1: the background
    layer owns every pixel that no other layer covers.
    """
    h, w = ids.shape
    bordered = np.pad(ids, 1, constant_values=-1)
    x0, y0 = (np.floor(q).astype(np.int64) + 1 for q in (qx, qy))  # + 1: past the border
    return np.all([bordered[np.clip(y0 + dy, 0, h + 1), np.clip(x0 + dx, 0, w + 1)] == layer
                   for dy in (0, 1) for dx in (0, 1)], axis=0)


def check_scene_params(width: int, height: int, max_disp: int, max_flow: int) -> None:
    """Raise ConfigError unless scenes of these extents and ranges can be made."""
    if width < 8 or height < 8 or width % 4 or height % 4:
        raise ConfigError(f"extents must be >= 8 and divisible by 4, got {width}x{height}")
    # below these, the per-layer disparity and flow ranges in _sample_layers can be empty
    if max_disp < 2 or max_flow < 1:
        raise ConfigError(f"need max_disp >= 2 and max_flow >= 1, "
                          f"got {max_disp} and {max_flow}")


def generate_scene(seed: int, width: int = 128, height: int = 64, max_disp: int = 16,
                   max_flow: int = 8, num_layers: int | None = None) -> SceneSample:
    """Generate one synthetic tuple with its ground-truth fields."""
    check_scene_params(width, height, max_disp, max_flow)
    rng = np.random.default_rng(np.random.PCG64(seed))
    layers = _sample_layers(rng, width, height, max_disp, max_flow, num_layers)
    ys, xs = np.meshgrid(np.arange(height, dtype=np.float64),
                         np.arange(width, dtype=np.float64), indexing="ij")

    left, id_left = _composite(layers, xs, ys, lambda l: (0.0, 0.0))
    right, id_right = _composite(layers, xs, ys, lambda l: (-l.disp, 0.0))
    nxt, id_next = _composite(layers, xs, ys, lambda l: (l.u, l.v))

    disp_of = np.array([l.disp for l in layers])
    u_of = np.array([l.u for l in layers])
    v_of = np.array([l.v for l in layers])
    disparity = disp_of[id_left]
    flow_u = u_of[id_left]
    flow_v = v_of[id_left]

    occlusion = _shows_layer(id_next, xs + flow_u, ys + flow_v, id_left)

    def shape4(a, c):
        return np.ascontiguousarray(a, dtype=np.float32).reshape(1, c, height, width)

    return SceneSample(
        left=shape4(left, 3), right=shape4(right, 3), next_left=shape4(nxt, 3),
        disparity=shape4(disparity, 1),
        flow=shape4(np.stack([flow_u, flow_v]), 2),
        occlusion=shape4(occlusion.astype(np.float64), 1),
        domain="synthetic")


def apply_domain_shift(sample: SceneSample, shift: DomainShift, seed: int) -> SceneSample:
    """Shifted copy of a synthetic sample tagged as the real domain.

    The same shift parameters hit all three frames (fresh noise per frame);
    ground-truth fields are kept for held-out evaluation.
    """
    if sample.domain != "synthetic":
        raise ConfigError("domain shift applies to synthetic samples")

    h, w = sample.left.shape[2], sample.left.shape[3]
    ys, xs = np.meshgrid(np.arange(h), np.arange(w), indexing="ij")
    r2 = ((xs - (w - 1) / 2) / (w / 2)) ** 2 + ((ys - (h - 1) / 2) / (h / 2)) ** 2
    vignette = -shift.vignette_strength * r2

    def transform(img, frame_idx):
        rng = np.random.default_rng([seed, frame_idx])
        v = img.astype(np.float64) ** shift.gamma_curve
        mixed = np.einsum("dc,bchw->bdhw", shift.color_matrix, v)
        noisy = mixed + vignette + rng.normal(0.0, shift.noise_sigma, size=img.shape)
        return np.clip(noisy, 0.0, 1.0).astype(np.float32)

    return replace(sample,
                   left=transform(sample.left, 0),
                   right=transform(sample.right, 1),
                   next_left=transform(sample.next_left, 2),
                   domain="real")


# -- on-disk format --------------------------------------------------------------

def sample_to_bytes(sample: SceneSample) -> bytes:
    fields = [getattr(sample, name) for name in FIELD_ORDER]
    bitmap = 0
    for i, val in enumerate(fields):
        if val is not None:
            bitmap |= 1 << i
    out = [DATASET_MAGIC, struct.pack("<BB", DOMAIN_TAGS[sample.domain], bitmap)]
    for val in fields:
        if val is not None:
            out.append(pack_tensor(val))
    return b"".join(out)


def sample_from_bytes(buf: bytes, label: str = "sample") -> SceneSample:
    r = Reader(buf, label)
    r.expect_magic(DATASET_MAGIC)
    tag = r.u8()
    if tag not in DOMAIN_NAMES:
        raise FormatError(f"{label}: unknown domain tag {tag} at byte {r.off - 1}")
    bitmap = r.u8()
    values = {}
    for i, (name, channels) in enumerate(FIELD_CHANNELS.items()):
        at = r.off
        values[name] = v = r.tensor() if bitmap & (1 << i) else None
        if v is not None and v.shape[0] != 1:
            raise FormatError(f"{label}: {name} at byte {at} holds {v.shape[0]} frames, "
                              "expected 1")
        if v is not None and v.shape[1] != channels:
            raise FormatError(f"{label}: {name} at byte {at} has {v.shape[1]} "
                              f"channels, expected {channels}")
    r.done()
    return SceneSample(domain=DOMAIN_NAMES[tag], **values)


def write_dataset(samples, out_dir: str) -> list[str]:
    os.makedirs(out_dir, exist_ok=True)
    names = []
    for i, sample in enumerate(samples):
        name = f"sample_{i:05d}.wad"
        with open(os.path.join(out_dir, name), "wb") as fh:
            fh.write(sample_to_bytes(sample))
        names.append(name)
    with open(os.path.join(out_dir, "manifest.txt"), "w") as fh:
        fh.write("".join(n + "\n" for n in names))
    return names


def read_dataset(data_dir: str) -> list[SceneSample]:
    """The samples ``manifest.txt`` lists. Each must hold all three frames, and
    every field must have the first sample's extent; else FormatError."""
    manifest = os.path.join(data_dir, "manifest.txt")
    if not os.path.exists(manifest):
        raise FormatError(f"no manifest.txt in {data_dir}")
    with open(manifest, "rb") as fh:
        raw = fh.read()
    lines = Reader(raw, "manifest.txt").text(len(raw)).splitlines()
    samples = []
    for name in [line.strip() for line in lines if line.strip()]:
        with open(os.path.join(data_dir, name), "rb") as fh:
            sample = sample_from_bytes(fh.read(), label=name)
        arrays = [getattr(sample, f) for f in FIELD_ORDER]
        if any(a is None for a in arrays[:3]):
            raise FormatError(f"{name}: a dataset sample needs left, right and next_left")
        h, w = (samples[0] if samples else sample).left.shape[2:]
        if any(a is not None and a.shape[2:] != (h, w) for a in arrays):
            raise FormatError(f"{name}: a field's extent is not the first sample's {w}x{h}")
        samples.append(sample)
    return samples


def split_domains(samples):
    synthetic = [s for s in samples if s.domain == "synthetic"]
    real = [s for s in samples if s.domain == "real"]
    return synthetic, real
