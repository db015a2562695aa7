"""Span bookkeeping, self times, patching and restoring."""

import inspect
import sys

import numpy as np
import pytest

import spans
from warpadapt import autograd, kernels, losses, networks, trainer, warping  # noqa: F401
from warpadapt.autograd import Tensor


def rec(name, start, end, parent, step=0, bucket=None, outer=True, extra=None, taped=False):
    return [name, start, end, parent, step, bucket, outer, extra, taped]


def test_self_times_subtract_direct_children_only():
    tree = [
        rec("trainer.train_step", 0.0, 10.0, -1),
        rec("a", 1.0, 4.0, 0),
        rec("b", 5.0, 9.0, 0),
        rec("c", 6.0, 7.0, 2),
        rec("d", 7.5, 8.0, 2),
    ]
    assert spans.self_times(tree) == pytest.approx([3.0, 3.0, 2.5, 1.0, 0.5])
    by_name = spans.self_time_by_name(tree)
    assert by_name["b"]["self_ms"] == pytest.approx(2500.0)
    assert by_name["b"]["total_ms"] == pytest.approx(4000.0)


def test_unattributed_share_is_step_self_time():
    tree = [
        rec("trainer.train_step", 0.0, 10.0, -1),
        rec("autograd.backward", 1.0, 8.0, 0),
        rec("kernels.conv2d:bwd", 2.0, 7.0, 1, bucket="conv2d"),
        rec("trainer.train_step", 10.0, 20.0, -1, step=1),
        rec("networks.FlowNet.forward", 10.0, 19.0, 3, step=1),
    ]
    m = spans.layer_metrics(tree, per=2)
    assert m["trace.unattributed_pct"] == pytest.approx(100.0 * (3.0 + 1.0) / 20.0)
    assert m["autograd.backward.ms"] == pytest.approx(7000.0 / 2)
    assert m["autograd.backward.self_ms"] == pytest.approx(2000.0 / 2)
    assert m["kernels.conv2d.bwd_ms"] == pytest.approx(5000.0 / 2)
    assert m["networks.FlowNet.calls"] == pytest.approx(0.5)


def test_steps_follow_roots_and_advance():
    t = spans.Tracer(step_roots=("trainer.make_batch", "trainer.train_step"),
                     advance_on="trainer.train_step")
    for name in ("metrics.evaluate", "trainer.make_batch", "trainer.train_step",
                 "trainer.make_batch", "trainer.train_step"):
        outer = t.begin(name)
        t.end(t.begin("child"))
        t.end(outer)
    steps = [(r[spans.NAME], r[spans.STEP]) for r in t.spans]
    assert steps == [("metrics.evaluate", None), ("child", None),
                     ("trainer.make_batch", 0), ("child", 0),
                     ("trainer.train_step", 0), ("child", 0),
                     ("trainer.make_batch", 1), ("child", 1),
                     ("trainer.train_step", 1), ("child", 1)]


def test_transposed_conv_useful_macs_are_about_a_quarter():
    useful, executed = spans.conv_macs(("conv_transpose2d", (2, 16, 16, 32), (16, 8, 4, 4), 2, 1))
    assert executed == 2 * 8 * 32 * 64 * 16 * 16
    # every input sample feeds exactly k*k outputs except where the crop cuts taps
    assert useful <= 2 * 16 * 16 * 32 * 8 * 16
    assert useful / executed == pytest.approx(0.25, abs=0.02)
    useful, executed = spans.conv_macs(("conv2d", (1, 3, 8, 8), (4, 3, 3, 3), 2, 1))
    assert useful == executed == 1 * 4 * 4 * 4 * 3 * 9


def _snapshot():
    mods = {n: dict(vars(m)) for n, m in sys.modules.items()
            if n == "warpadapt" or n.startswith("warpadapt.")}
    classes = {c: dict(vars(c)) for c in (autograd.Tensor, networks.Generator,
                                         networks.Discriminator, networks.StereoNet,
                                         networks.FlowNet, networks.Extractor)}
    return mods, classes


def test_every_import_site_is_patched_and_restored():
    before_mods, before_classes = _snapshot()
    originals = {
        "backward": autograd.backward, "mul": autograd.mul, "div": autograd.div,
        "concat": autograd.concat, "multiscale": warping.multiscale_warp_loss,
        "stagewise": warping.stagewise_warp_loss,
    }
    patcher = spans.Patcher()
    spans.instrument(spans.Tracer(), patcher)
    try:
        assert trainer.backward is not originals["backward"]
        assert trainer.backward is autograd.backward
        for name in ("mul", "div", "concat"):
            assert getattr(kernels, name) is getattr(autograd, name) is not originals[name]
        assert trainer.concat is networks.concat is warping.concat is autograd.concat
        assert trainer.multiscale_warp_loss is warping.multiscale_warp_loss
        assert trainer.multiscale_warp_loss is not originals["multiscale"]
        assert losses.stagewise_warp_loss is warping.stagewise_warp_loss
        assert losses.stagewise_warp_loss is not originals["stagewise"]
        assert "forward" in vars(networks.StereoNet)
    finally:
        patcher.restore()
    after_mods, after_classes = _snapshot()
    for name, attrs in before_mods.items():
        for attr, value in attrs.items():
            assert after_mods[name][attr] is value, f"{name}.{attr} not restored"
    for cls, attrs in before_classes.items():
        assert set(after_classes[cls]) == set(attrs), f"{cls.__name__} gained attributes"
        for attr, value in attrs.items():
            assert after_classes[cls][attr] is value, f"{cls.__name__}.{attr} not restored"


def test_restore_removes_attributes_a_class_only_inherited():
    class Base:
        def f(self):
            return 1

    class Child(Base):
        pass

    p = spans.Patcher()
    p.set(Child, "f", lambda self: 2)
    assert Child().f() == 2
    p.restore()
    assert "f" not in vars(Child) and Child().f() == 1


def test_composite_kernel_owns_nested_calls_and_their_backward():
    rng = np.random.default_rng(0)
    a = Tensor(rng.uniform(0, 1, (1, 3, 16, 16)).astype(np.float32), requires_grad=True)
    b = Tensor(rng.uniform(0, 1, (1, 3, 16, 16)).astype(np.float32))
    w = Tensor(rng.uniform(-1, 1, (4, 3, 3, 3)).astype(np.float32), requires_grad=True)
    bias = Tensor(np.zeros((1, 4, 1, 1), dtype=np.float32), requires_grad=True)
    tracer = spans.Tracer()
    with spans.tracing(tracer):
        loss = kernels.ssim_map(a, b).mean() + kernels.conv2d(a, w, bias, stride=2).mean()
        autograd.backward(loss)
    outer = [r for r in tracer.spans if r[spans.OUTER] and not r[spans.NAME].endswith(spans.BWD)
             and r[spans.BUCKET] is not None]
    assert [r[spans.NAME] for r in outer] == ["kernels.ssim_map", "autograd.Tensor.mean",
                                               "kernels.conv2d", "autograd.Tensor.mean",
                                               "autograd.add"]
    nested = [r for r in tracer.spans if not r[spans.OUTER]]
    assert nested and all(r[spans.BUCKET] == "ssim_map" for r in nested)
    bwd = {r[spans.BUCKET] for r in tracer.spans if r[spans.NAME].endswith(spans.BWD)}
    assert bwd == {"ssim_map", "conv2d", "arith"}
    m = spans.layer_metrics(tracer.spans, per=1)
    assert m["kernels.conv2d.calls"] == 1 and m["kernels.ssim_map.calls"] == 1
    assert m["kernels.elementwise.calls"] == 0
    assert m["kernels.conv2d.gflop"] == pytest.approx(2 * 4 * 8 * 8 * 3 * 9 / 1e9)
    assert m["kernels.conv2d.bwd_ms"] > 0 and m["kernels.ssim_map.bwd_ms"] > 0
    table = spans.kernel_table(tracer.spans)
    assert [(row["kernel"], row["input"], row["weight"], row["stride"], row["calls"])
            for row in table] == [("conv2d", [1, 3, 16, 16], [4, 3, 3, 3], 2, 1)]
    assert table[0]["bwd_ms_per_call"] > 0


def test_every_public_kernel_gets_a_bucket():
    public = {n for n, f in vars(kernels).items()
              if inspect.isfunction(f) and not n.startswith("_")
              and f.__module__ == kernels.__name__}
    assert set(spans.kernel_functions()) == public - {"apply"}
    for bucket in spans.KERNEL_BUCKETS:
        for suffix in ("fwd_ms", "bwd_ms", "calls"):
            assert f"kernels.{bucket}.{suffix}" in spans.LAYER_UNITS
