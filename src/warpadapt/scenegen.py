"""Procedural paired-domain scene generator with exact ground truth.

Scenes are textured rectangles and ellipses at per-layer constant depth over a
textured background. Each view (left, right, next frame) is re-composited from
the layer geometry rather than warped, so occlusions are genuine: disparity
shifts every layer horizontally by its own amount and flow translates it in
2-D. The nearest layer covering a pixel owns it. Textures are low-frequency
sinusoids evaluated analytically at each view's coordinates, keeping
photoconsistency errors well under the bilinear interpolation tolerance; a view
is textured in one pass, each pixel with its owner's parameters, gathered
through the owner-id map. The owner maps also give the occlusion mask: a
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
FRAMES = FIELD_ORDER[:3]  # images, every value in [0, 1]
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


def _sample_layers(rng, width, height, max_disp, max_flow):
    d_bg = rng.uniform(0.2, 1.0)
    ang = rng.uniform(0, 2 * np.pi)
    mag = rng.uniform(0.0, 1.0)
    background = _Layer("background", 0, 0, 1, 1, d_bg,
                        mag * np.cos(ang), mag * np.sin(ang), _make_texture(rng))
    layers = [background]
    for _ in range(int(rng.integers(5, 11))):
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
    and build the owner-id map. One gather then gives every pixel its owner's
    row of a per-layer table: view offset, base colour and, per wave, k, the
    cosine and sine of its angle, three phases and three sign * amp products.
    Each wave's projection is computed once for all three channels, so a view
    costs 9 sines per pixel.
    """
    ids = np.full(xs.shape, -1, dtype=np.int32)
    table = []
    for idx, layer in enumerate(layers):
        ox, oy = offset_of(layer)
        ids[layer.member(xs - ox, ys - oy)] = idx
        base, waves = layer.tex
        table.append([ox, oy, *base])
        for amp, k, cth, sth, phase, signs in waves:
            table[-1] += [k, cth, sth, *phase, *(signs * amp)]
    # (32, h, w); each pixel's sum runs in the order a per-layer evaluation
    # runs it, so a pixel's bits do not depend on which pixels share its layer
    ox, oy, *params = np.take(np.array(table).T, ids, axis=1)
    x, y = xs - ox, ys - oy
    img = np.array(params[:3])
    for w in range(3, 30, 9):
        k, cth, sth = params[w:w + 3]
        proj = k * (x * cth + y * sth)
        for c in range(3):
            img[c] += params[w + 6 + c] * np.sin(proj + params[w + 3 + c])
    return img, ids


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


# the networks halve an extent twice and their transposed convs double it back
EXTENT_RULE = "extents must be >= 8 and divisible by 4"


def _extent_ok(width: int, height: int) -> bool:
    return min(width, height) >= 8 and not width % 4 and not height % 4


def check_scene_params(width: int, height: int, max_disp: int, max_flow: int) -> None:
    """Raise ConfigError unless scenes of these extents and ranges can be made."""
    if not _extent_ok(width, height):
        raise ConfigError(f"{EXTENT_RULE}, got {width}x{height}")
    # below these, the per-layer disparity and flow ranges in _sample_layers can be empty
    if max_disp < 2 or max_flow < 1:
        raise ConfigError(f"need max_disp >= 2 and max_flow >= 1, "
                          f"got {max_disp} and {max_flow}")


def generate_scene(seed: int, width: int = 128, height: int = 64, max_disp: int = 16,
                   max_flow: int = 8) -> SceneSample:
    """Generate one synthetic tuple with its ground-truth fields."""
    check_scene_params(width, height, max_disp, max_flow)
    rng = np.random.default_rng(np.random.PCG64(seed))
    layers = _sample_layers(rng, width, height, max_disp, max_flow)
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
    if bitmap >> len(FIELD_CHANNELS):
        raise FormatError(f"{label}: field-presence bitmap {bitmap} at byte {r.off - 1} "
                          f"sets bits above bit {len(FIELD_CHANNELS) - 1}")
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
        if v is not None and not _extent_ok(v.shape[3], v.shape[2]):
            raise FormatError(f"{label}: {name} at byte {at} is {v.shape[3]}x{v.shape[2]}, "
                              f"but {EXTENT_RULE}")
        if name in FRAMES and v is not None and not (v.min() >= 0.0 and v.max() <= 1.0):
            bad = int(np.argmax((v < 0.0) | (v > 1.0)))
            raise FormatError(f"{label}: {name} value {v.flat[bad]:g} outside [0, 1] "
                              f"at byte {r.off - 4 * (v.size - bad)}")
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


def _read_sample(data_dir: str, name: str, extent: tuple | None) -> SceneSample:
    """The sample in file ``name``. It must hold all six fields, each of
    ``extent`` (height, width), or of its own left frame's when that is None;
    else FormatError."""
    with open(os.path.join(data_dir, name), "rb") as fh:
        sample = sample_from_bytes(fh.read(), label=name)
    arrays = [getattr(sample, f) for f in FIELD_ORDER]
    missing = [f for f, a in zip(FIELD_ORDER, arrays) if a is None]
    if missing:
        raise FormatError(f"{name}: a dataset sample needs all six fields, "
                          f"{missing[0]} is missing")
    h, w = extent or sample.left.shape[2:]
    if any(a.shape[2:] != (h, w) for a in arrays):
        raise FormatError(f"{name}: a field's extent is not the first sample's {w}x{h}")
    return sample


def _checked_samples(data_dir: str):
    """(file name, sample) for each sample ``manifest.txt`` lists, read one at
    a time. Each line must name a plain file in ``data_dir``, and each sample
    must pass ``_read_sample`` at the first sample's extent; else FormatError."""
    manifest = os.path.join(data_dir, "manifest.txt")
    if not os.path.exists(manifest):
        raise FormatError(f"no manifest.txt in {data_dir}")
    with open(manifest, "rb") as fh:
        raw = fh.read()
    lines = Reader(raw, "manifest.txt").text(len(raw)).splitlines()
    extent = None
    for number, line in enumerate(lines, 1):
        name = line.strip()
        if not name:
            continue
        if name in (".", "..") or {"\0", "/", os.sep} & set(name):
            raise FormatError(f"manifest.txt: line {number} names {name!r}, which is not "
                              "a plain file name in the data directory")
        sample = _read_sample(data_dir, name, extent)
        extent = sample.left.shape[2:]
        yield name, sample


def read_dataset(data_dir: str) -> list[SceneSample]:
    """The samples ``manifest.txt`` lists, checked as ``_checked_samples`` does."""
    return [sample for _, sample in _checked_samples(data_dir)]


class SampleFiles:
    """The dataset samples of one domain, read from their files when indexed.

    A slice is another SampleFiles. Each read checks the file again, so one
    that is gone, or no longer holds a sample of this domain and extent,
    raises OSError or FormatError with its name.
    """

    def __init__(self, data_dir: str, names: list, domain: str, extent: tuple | None):
        self.data_dir, self.names, self.domain, self.extent = data_dir, names, domain, extent

    def __len__(self) -> int:
        return len(self.names)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return SampleFiles(self.data_dir, self.names[index], self.domain, self.extent)
        name = self.names[index]
        sample = _read_sample(self.data_dir, name, self.extent)
        if sample.domain != self.domain:
            raise FormatError(f"{name}: now a {sample.domain} sample, but it was "
                              f"{self.domain} when the dataset was checked")
        return sample


def scan_dataset(data_dir: str) -> tuple[SampleFiles, SampleFiles]:
    """(synthetic, real): every sample checked as ``read_dataset`` checks it,
    but only its file name and domain kept, with the first sample's extent."""
    names = {domain: [] for domain in DOMAIN_TAGS}
    extent = None
    for name, sample in _checked_samples(data_dir):
        names[sample.domain].append(name)
        extent = sample.left.shape[2:]
    return tuple(SampleFiles(data_dir, names[d], d, extent) for d in DOMAIN_TAGS)


def split_domains(samples):
    synthetic = [s for s in samples if s.domain == "synthetic"]
    real = [s for s in samples if s.domain == "real"]
    return synthetic, real
