import re

import numpy as np
import pytest

from warpadapt import scenegen
from warpadapt.autograd import Tensor
from warpadapt.errors import ConfigError, FormatError
from warpadapt.scenegen import (DomainShift, SceneSample, apply_domain_shift,
                                generate_scene, read_dataset,
                                sample_from_bytes, sample_to_bytes, shift_preset,
                                split_domains, write_dataset)
from warpadapt.warping import warp


class LayerCount:
    """A scene's generator whose layer-count draw reads ``count`` and draws
    nothing; every other draw is the generator's own."""

    def __init__(self, rng, count):
        self._rng, self._count = rng, count

    def integers(self, *args):
        assert args == (5, 11), "integers() is drawn only for the layer count"
        return self._count

    def __getattr__(self, name):
        return getattr(self._rng, name)


def with_layers(monkeypatch, count):
    """Make generate_scene sample ``count`` layers over the background."""
    sample_layers = scenegen._sample_layers
    monkeypatch.setattr(scenegen, "_sample_layers",
                        lambda rng, *args: sample_layers(LayerCount(rng, count), *args))


def render(monkeypatch, seed, composite=scenegen._composite, num_layers=None, **kwargs):
    """generate_scene through ``composite``, plus the (layers, owner-id map,
    float64 image) of each view it composited: left, right, next frame. With
    ``num_layers``, the scene has that many layers over its background."""
    views = []
    if num_layers is not None:
        with_layers(monkeypatch, num_layers)

    def recording(layers, xs, ys, offset_of):
        img, ids = composite(layers, xs, ys, offset_of)
        views.append((layers, ids, img))
        return img, ids

    monkeypatch.setattr(scenegen, "_composite", recording)
    return generate_scene(seed, **kwargs), views


def stereo_valid(views):
    """(1, 1, h, w) mask of left-view pixels whose surface the right view
    still shows at x - d."""
    (layers, id_left, _), (_, id_right, _), _ = views
    h, w = id_left.shape
    ys, xs = np.meshgrid(np.arange(h, dtype=np.float64), np.arange(w, dtype=np.float64),
                         indexing="ij")
    disparity = np.array([layer.disp for layer in layers])[id_left]
    return scenegen._shows_layer(id_right, xs - disparity, ys, id_left)[None, None]


def stereo_error(sample, valid):
    """Mean |warp(right, disp, +1) - left| over stereo-visible pixels."""
    warped = warp(Tensor(sample.right), Tensor(sample.disparity), sign=1)
    err = np.abs(warped.data - sample.left).mean(axis=1, keepdims=True)
    return err[valid].mean()


def flow_error(sample):
    warped = warp(Tensor(sample.next_left), Tensor(sample.flow), sign=1)
    err = np.abs(warped.data - sample.left).mean(axis=1, keepdims=True)
    m = sample.occlusion > 0.5
    return err[m].mean()


class TestGenerate:
    def test_deterministic(self):
        a = generate_scene(seed=7, width=64, height=32)
        b = generate_scene(seed=7, width=64, height=32)
        assert np.array_equal(a.left, b.left)
        assert np.array_equal(a.right, b.right)
        assert np.array_equal(a.flow, b.flow)

    def test_geometry_invariants_many_seeds(self, monkeypatch):
        for seed in range(30):
            sample, views = render(monkeypatch, seed, width=64, height=32)
            assert stereo_error(sample, stereo_valid(views)) < 1e-2
            assert flow_error(sample) < 1e-2

    def test_field_ranges(self):
        for seed in range(10):
            s = generate_scene(seed, width=64, height=32, max_disp=16, max_flow=8)
            assert s.disparity.min() >= 0
            assert s.disparity.max() <= 16
            mag = np.sqrt(s.flow[:, 0] ** 2 + s.flow[:, 1] ** 2)
            assert mag.max() <= 8

    def test_single_layer_constant_disparity(self, monkeypatch):
        with_layers(monkeypatch, 0)
        s = generate_scene(seed=3, width=64, height=32)
        assert np.all(s.disparity == s.disparity.reshape(-1)[0])

    def test_occlusion_fraction(self):
        fractions = []
        for seed in range(20):
            s = generate_scene(seed, width=128, height=64)
            fractions.append(1.0 - s.occlusion.mean())
        assert np.mean(fractions) > 0.01

    def test_images_in_range(self):
        s = generate_scene(seed=5, width=64, height=32)
        for img in (s.left, s.right, s.next_left):
            assert img.min() >= 0.0 and img.max() <= 1.0

    def test_degenerate_extent_rejected(self):
        with pytest.raises(ConfigError):
            generate_scene(seed=0, width=30, height=32)

    @pytest.mark.parametrize("max_disp, max_flow", [(1, 8), (16, 0)])
    def test_empty_displacement_range_rejected(self, max_disp, max_flow):
        with pytest.raises(ConfigError):
            generate_scene(seed=0, width=32, height=16, max_disp=max_disp, max_flow=max_flow)


def eval_texture(tex, xs, ys):
    """A layer's texture at its own coordinates, one channel at a time."""
    base, waves = tex
    out = np.empty((3,) + xs.shape)
    for c in range(3):
        acc = np.full(xs.shape, base[c])
        for amp, k, cth, sth, phase, signs in waves:
            acc = acc + signs[c] * amp * np.sin(k * (xs * cth + ys * sth) + phase[c])
        out[c] = acc
    return out


def painter_composite(layers, xs, ys, offset_of):
    """Reference composite, the painter's algorithm: every layer is textured
    over the whole view, far to near, and nearer layers overwrite it."""
    img = np.zeros((3,) + xs.shape)
    ids = np.full(xs.shape, -1, dtype=np.int32)
    for idx, layer in enumerate(layers):
        ox, oy = offset_of(layer)
        lx, ly = xs - ox, ys - oy
        m = layer.member(lx, ly)
        if not m.any():
            continue
        tex = eval_texture(layer.tex, lx, ly)
        img[:, m] = tex[:, m]
        ids[m] = idx
    return img, ids


# default extents (seed 4 hides a layer in every view), one layer, twelve
# layers, a small scene with a short disparity range, and the smallest extent
COMPOSITE_CASES = ([(seed, {}) for seed in range(26)]
                   + [(seed, {"num_layers": 0}) for seed in range(2)]
                   + [(seed, {"num_layers": 12}) for seed in range(3)]
                   + [(seed, {"width": 96, "height": 48, "max_disp": 8}) for seed in range(3)]
                   + [(0, {"width": 8, "height": 8, "max_disp": 4, "max_flow": 2})])
COMPOSITE_IDS = [f"seed{seed}" + "".join(f"-{k}{v}" for k, v in kwargs.items())
                 for seed, kwargs in COMPOSITE_CASES]


class TestShowsLayer:
    # a 3x4 owner map of layer 0 with one pixel of layer 1 at row 2, column 3
    @pytest.mark.parametrize("qx, qy, shows", [
        (1.5, 0.5, True), (0.0, 1.0, True), (2.5, 1.5, False), (3.0, 0.5, False),
        (-0.5, 0.5, False), (1.5, 1.6, True), (1.5, 2.0, False), (-5.0, 1.0, False),
        (9.0, 9.0, False),
    ], ids=["inside", "inside_on_grid", "corner_on_other_layer", "straddles_right_edge",
            "straddles_left_edge", "inside_reaching_last_row", "straddles_bottom_edge",
            "fully_outside_left", "fully_outside_below_right"])
    def test_all_four_corners_show_the_layer(self, qx, qy, shows):
        ids = np.zeros((3, 4), dtype=np.int32)
        ids[2, 3] = 1
        got = scenegen._shows_layer(ids, np.array([qx]), np.array([qy]), np.array([0]))
        assert got.tolist() == [shows]


class TestComposite:
    @pytest.mark.parametrize("seed, kwargs", COMPOSITE_CASES, ids=COMPOSITE_IDS)
    def test_matches_painter(self, monkeypatch, seed, kwargs):
        got, got_views = render(monkeypatch, seed, **kwargs)
        want, want_views = render(monkeypatch, seed, painter_composite, **kwargs)
        for name in ("left", "right", "next_left", "disparity", "flow", "occlusion"):
            assert np.array_equal(getattr(got, name), getattr(want, name)), name
        assert len(got_views) == len(want_views) == 3
        for (_, got_ids, got_img), (_, want_ids, want_img) in zip(got_views, want_views):
            assert np.array_equal(got_ids, want_ids)
            # before the float32 cast, which hides most float64 reorderings
            assert np.array_equal(got_img, want_img)

    def test_cases_include_a_layer_that_owns_no_pixel(self, monkeypatch):
        hidden = []
        for seed, kwargs in COMPOSITE_CASES:
            _, views = render(monkeypatch, seed, **kwargs)
            hidden += [np.bincount(ids.ravel(), minlength=len(layers)).min() == 0
                       for layers, ids, _ in views]
        assert len(hidden) == 3 * len(COMPOSITE_CASES) and any(hidden)

    def test_each_pixel_textured_once(self, monkeypatch):
        # each view takes one sine per wave and channel at each pixel; the
        # layer sampler's scalar angle sines are not counted
        sin = np.sin
        sizes = []

        def counting(x, *args, **kwargs):
            sizes.append(np.size(x) if np.ndim(x) else 0)
            return sin(x, *args, **kwargs)

        monkeypatch.setattr(np, "sin", counting)
        generate_scene(4, width=128, height=64)
        assert sum(sizes) == 3 * 9 * 128 * 64


class TestDomainShift:
    def test_identity_shift(self):
        s = generate_scene(seed=11, width=64, height=32)
        shifted = apply_domain_shift(s, DomainShift(), seed=0)
        assert shifted.domain == "real"
        assert np.allclose(shifted.left, s.left, atol=1e-6)
        assert np.array_equal(shifted.disparity, s.disparity)

    def test_gamma_on_constant(self):
        s = generate_scene(seed=12, width=64, height=32)
        s = SceneSample(left=np.full_like(s.left, 0.5), right=s.right,
                        next_left=s.next_left, disparity=s.disparity, flow=s.flow,
                        occlusion=s.occlusion, domain="synthetic")
        shifted = apply_domain_shift(s, DomainShift(gamma_curve=0.7), seed=0)
        assert np.allclose(shifted.left, 0.5 ** 0.7, atol=1e-6)

    def test_geometry_survives_shift(self, monkeypatch):
        # identical shift parameters preserve the stereo geometry; checked
        # strictly on the vignette-light preset at the design resolution
        for seed in range(10):
            sample, views = render(monkeypatch, seed, width=128, height=64)
            shifted = apply_domain_shift(sample, shift_preset("mild"), seed=seed)
            assert stereo_error(shifted, stereo_valid(views)) < 1e-2
            assert np.array_equal(shifted.flow, sample.flow)

    def test_default_preset_vignette_bounded_inconsistency(self, monkeypatch):
        # the default preset's vignette deliberately breaks cross-view
        # photometry (that is the domain gap); the residual stays within the
        # vignette's analytic bound while the fields remain untouched
        shift = shift_preset("default")
        tol = 1e-2 + 2.0 * shift.vignette_strength * 16 / 128
        for seed in range(10):
            sample, views = render(monkeypatch, seed, width=128, height=64)
            shifted = apply_domain_shift(sample, shift, seed=seed)
            assert stereo_error(shifted, stereo_valid(views)) < tol
            assert np.array_equal(shifted.disparity, sample.disparity)
            assert np.array_equal(shifted.flow, sample.flow)

    def test_statistics_change(self):
        s = generate_scene(seed=13, width=128, height=64)
        shifted = apply_domain_shift(s, shift_preset("default"), seed=1)
        corrs = []
        for c in range(3):
            a = s.left[0, c].reshape(-1)
            b = shifted.left[0, c].reshape(-1)
            corrs.append(np.corrcoef(a, b)[0, 1])
        assert np.mean(corrs) < 0.995

    def test_real_sample_rejected(self):
        s = generate_scene(seed=14, width=64, height=32)
        shifted = apply_domain_shift(s, DomainShift(), seed=0)
        with pytest.raises(ConfigError):
            apply_domain_shift(shifted, DomainShift(), seed=0)


class TestDatasetFormat:
    def test_round_trip_bits(self, tmp_path):
        samples = [generate_scene(seed=s, width=64, height=32) for s in range(3)]
        samples.append(apply_domain_shift(samples[0], shift_preset("mild"), seed=9))
        write_dataset(samples, str(tmp_path))
        back = read_dataset(str(tmp_path))
        assert len(back) == 4
        for a, b in zip(samples, back):
            assert a.domain == b.domain
            for name in ("left", "right", "next_left", "disparity", "flow", "occlusion"):
                assert np.array_equal(getattr(a, name), getattr(b, name))

    def test_truncation_names_offset(self):
        s = generate_scene(seed=1, width=64, height=32)
        buf = sample_to_bytes(s)
        with pytest.raises(FormatError, match="byte"):
            sample_from_bytes(buf[:50])

    def test_bad_magic_names_offset(self):
        s = generate_scene(seed=1, width=64, height=32)
        buf = b"XXXXXXXX" + sample_to_bytes(s)[8:]
        with pytest.raises(FormatError, match="magic"):
            sample_from_bytes(buf)

    @pytest.mark.parametrize("bitmap", [64, 128, 255])
    def test_undefined_bitmap_bits_refused_at_their_byte(self, bitmap):
        buf = bytearray(sample_to_bytes(generate_scene(seed=1, width=64, height=32)))
        assert buf[9] == 63
        buf[9] = bitmap
        with pytest.raises(FormatError, match=f"s.wad: field-presence bitmap {bitmap} at "
                                              "byte 9 sets bits above bit 5"):
            sample_from_bytes(bytes(buf), label="s.wad")

    def test_mixed_domain_partition(self, tmp_path):
        syn = [generate_scene(seed=s, width=64, height=32) for s in range(2)]
        real = [apply_domain_shift(s, shift_preset("mild"), seed=5) for s in syn]
        write_dataset(syn + real, str(tmp_path))
        back_syn, back_real = split_domains(read_dataset(str(tmp_path)))
        assert len(back_syn) == 2 and len(back_real) == 2

    def test_optional_fields_roundtrip(self, tmp_path):
        s = generate_scene(seed=2, width=64, height=32)
        bare = SceneSample(left=s.left, right=s.right, next_left=s.next_left,
                           disparity=None, flow=None, occlusion=None, domain="real")
        back = sample_from_bytes(sample_to_bytes(bare))
        assert back.disparity is None and back.flow is None and back.occlusion is None
        assert np.array_equal(back.left, bare.left)

    @pytest.mark.parametrize("field, channels", [("left", 1), ("next_left", 4),
                                                 ("disparity", 2), ("flow", 1),
                                                 ("occlusion", 3)])
    def test_wrong_channel_count_refused(self, field, channels):
        s = generate_scene(seed=5, width=32, height=16)
        values = getattr(s, field)
        bad = np.repeat(values[:, :1], channels, axis=1)
        buf = sample_to_bytes(SceneSample(**{**vars(s), field: bad}))
        expected = scenegen.FIELD_CHANNELS[field]
        with pytest.raises(FormatError, match=f"s.wad: {field} at byte \\d+ has {channels} "
                                              f"channels, expected {expected}"):
            sample_from_bytes(buf, label="s.wad")

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("field", ["left", "next_left", "disparity", "flow"])
    def test_non_finite_value_refused_at_its_byte(self, field, value):
        s = generate_scene(seed=5, width=32, height=16)
        bad = getattr(s, field).copy()
        bad.flat[37] = value
        buf = sample_to_bytes(SceneSample(**{**vars(s), field: bad}))
        # the field's record starts after the magic, the domain and bitmap bytes
        # and the records before it; its payload after a 17-byte header
        at = 10 + sum(17 + 4 * getattr(s, f).size
                      for f in scenegen.FIELD_ORDER[:scenegen.FIELD_ORDER.index(field)])
        with pytest.raises(FormatError, match=f"^s.wad: non-finite value at byte "
                                              f"{at + 17 + 4 * 37}$"):
            sample_from_bytes(buf, label="s.wad")

    @pytest.mark.parametrize("field, frames", [("left", 2), ("flow", 2), ("occlusion", 0)])
    def test_frame_count_other_than_one_refused(self, field, frames):
        s = generate_scene(seed=5, width=32, height=16)
        bad = np.repeat(getattr(s, field), frames, axis=0)
        buf = sample_to_bytes(SceneSample(**{**vars(s), field: bad}))
        with pytest.raises(FormatError, match=f"s.wad: {field} at byte \\d+ holds {frames} "
                                              "frames, expected 1"):
            sample_from_bytes(buf, label="s.wad")

    @pytest.mark.parametrize("case, match", [
        ("left_only", "sample_00001.wad: a dataset sample needs all six fields, "
                      "right is missing"),
        ("no_occlusion", "sample_00001.wad: a dataset sample needs all six fields, "
                         "occlusion is missing"),
        ("mixed_extent", "sample_00001.wad: a field's extent is not the first sample's 64x32"),
        ("field_extent", "sample_00001.wad: a field's extent is not"),
        ("manifest_not_utf8", "manifest.txt: invalid UTF-8 at byte 7"),
        ("manifest_nul", "manifest.txt: line 2 names 'sample_00001.wad\\x00', which is not "
                         "a plain file name in the data directory"),
        ("manifest_subdir", "manifest.txt: line 2 names 'sub/sample_00001.wad', which is not"),
        ("manifest_parent", "manifest.txt: line 2 names '..', which is not"),
        ("manifest_self", "manifest.txt: line 2 names '.', which is not"),
    ])
    def test_malformed_dataset_refused(self, tmp_path, case, match):
        s = generate_scene(seed=3, width=64, height=32)
        small = generate_scene(seed=4, width=32, height=16)
        second = {
            "left_only": SceneSample(left=s.left, right=None, next_left=None, disparity=None,
                                     flow=None, occlusion=None, domain="real"),
            "no_occlusion": SceneSample(**{**vars(s), "occlusion": None}),
            "mixed_extent": small,
            "field_extent": SceneSample(**{**vars(s), "disparity": small.disparity}),
        }.get(case, s)
        write_dataset([s, second], str(tmp_path))
        if case == "manifest_not_utf8":
            (tmp_path / "manifest.txt").write_bytes(b"sample_\xff.wad\n")
        second_name = {"manifest_nul": b"sample_00001.wad\0",
                       "manifest_subdir": b"sub/sample_00001.wad",
                       "manifest_parent": b"..", "manifest_self": b"."}.get(case)
        if second_name is not None:
            (tmp_path / "sub").mkdir()
            (tmp_path / "sub" / "sample_00001.wad").write_bytes(sample_to_bytes(s))
            (tmp_path / "manifest.txt").write_bytes(b"sample_00000.wad\n" + second_name + b"\n")
        with pytest.raises(FormatError, match=re.escape(match)):
            read_dataset(str(tmp_path))
