"""In-memory spans around the public functions of the warpadapt modules.

A span records name, start, end, parent span and step id. ``instrument``
replaces each traced function at every module attribute that holds it, so
names bound with ``from .x import f`` are traced too, and ``Patcher.restore``
puts every original back. Kernel and tape-arithmetic wrappers also wrap the
``_backward`` closure of the tensor they return, so each backward rule gets a
span of its own inside ``autograd.backward``.
"""

from __future__ import annotations

import functools
import inspect
import os
import sys
from contextlib import contextmanager
from time import perf_counter

# span record fields
NAME, START, END, PARENT, STEP, BUCKET, OUTER, EXTRA, TAPED = range(9)

PACKAGE = "warpadapt"
BWD = ":bwd"
KERNEL_BUCKETS = ("conv2d", "conv_transpose2d", "grid_sample", "correlation",
                  "ssim_map", "cosine_map", "elementwise")
ARITH = "arith"
ARITH_FUNCS = ("add", "sub", "mul", "div", "mul_scalar", "add_scalar", "concat")
CONVS = ("conv2d", "conv_transpose2d")
NETWORKS = (("Generator", "forward"), ("Discriminator", "forward"),
            ("StereoNet", "forward"), ("FlowNet", "forward"), ("Extractor", "features"))
TRANSLATION_TERMS = ("adversarial_loss", "cycle_loss", "perceptual_loss", "cosine_loss",
                     "corr_consistency_loss", "mode_seeking_loss", "translation_objective")
SUPERVISED_TERMS = ("supervised_disp_loss", "supervised_flow_loss")
SCORING = ("epe", "threshold_error_rate", "psnr", "ssim_metric", "perceptual_distance")
PLAIN = {
    "autograd": ("backward",),
    "warping": ("multiscale_warp_loss", "stagewise_warp_loss"),
    "losses": TRANSLATION_TERMS + SUPERVISED_TERMS,
    "trainer": ("adam_update", "make_batch", "save_checkpoint", "load_checkpoint",
                "train_step"),
    "scenegen": ("generate_scene", "apply_domain_shift", "write_dataset", "read_dataset"),
    "metrics": ("evaluate",) + SCORING,
}
# spans whose self time is step wall time that no layer span covers
STEP_WINDOWS = ("trainer.train_step", "bench.round")

LAYER_UNITS = {}
for _k in KERNEL_BUCKETS:
    LAYER_UNITS.update({f"kernels.{_k}.fwd_ms": "ms", f"kernels.{_k}.bwd_ms": "ms",
                        f"kernels.{_k}.calls": "count"})
for _k in CONVS:
    LAYER_UNITS.update({f"kernels.{_k}.gflop": "GFLOP", f"kernels.{_k}.gflops": "GFLOP/s"})
LAYER_UNITS["kernels.conv_transpose2d.useful_mac_ratio"] = "ratio"
LAYER_UNITS.update({
    "autograd.backward.ms": "ms", "autograd.backward.self_ms": "ms",
    "autograd.tape_nodes": "count", "autograd.arith.fwd_ms": "ms",
    "autograd.arith.bwd_ms": "ms",
})
for _cls, _meth in NETWORKS:
    LAYER_UNITS[f"networks.{_cls}.{_meth}_ms"] = "ms"
    LAYER_UNITS[f"networks.{_cls}.calls"] = "count"
LAYER_UNITS.update({
    "warping.multiscale_warp_loss.ms": "ms", "warping.multiscale_warp_loss.calls": "count",
    "warping.stagewise_warp_loss.ms": "ms",
    "losses.translation_terms.ms": "ms", "losses.supervised.ms": "ms",
    "trainer.adam_update.ms": "ms", "trainer.make_batch.ms": "ms",
    "trainer.save_checkpoint.ms": "ms", "trainer.save_checkpoint.bytes": "bytes",
    "trainer.load_checkpoint.ms": "ms",
    "scenegen.generate_scene.ms": "ms", "scenegen.apply_domain_shift.ms": "ms",
    "scenegen.write_dataset.ms": "ms", "scenegen.read_dataset.ms": "ms",
    "scenegen.read_dataset.bytes": "bytes",
    "metrics.evaluate.net_ms": "ms", "metrics.evaluate.scoring_ms": "ms",
    "trace.overhead_pct": "%", "trace.unattributed_pct": "%",
})


class Tracer:
    """Span store for one process; spans stay in memory until written.

    A root span whose name is in ``step_roots`` (or any root when it is None)
    takes the current ``step``; other roots get step None, and children take
    their root's step. Closing a root span named ``advance_on`` moves to the
    next step.
    """

    def __init__(self, step_roots=None, advance_on=None):
        self.spans: list = []
        self._stack: list = []
        self.step = 0
        self.step_roots = step_roots
        self.advance_on = advance_on
        self.kernel_owner = None

    def begin(self, name, bucket=None, outer=True, extra=None) -> list:
        stack = self._stack
        if stack:
            parent = stack[-1]
            step = self.spans[stack[0]][STEP]
        else:
            parent = -1
            step = self.step if self.step_roots is None or name in self.step_roots else None
        rec = [name, 0.0, 0.0, parent, step, bucket, outer, extra, False]
        stack.append(len(self.spans))
        self.spans.append(rec)
        rec[START] = perf_counter()
        return rec

    def end(self, rec) -> None:
        rec[END] = perf_counter()
        self._stack.pop()
        if not self._stack and rec[NAME] == self.advance_on:
            self.step += 1


class Patcher:
    """Replaces attributes and remembers the originals for ``restore``."""

    def __init__(self):
        self._saved = []

    def replace_everywhere(self, original, wrapper) -> None:
        """Point every package-module attribute holding ``original`` at ``wrapper``."""
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == PACKAGE or mod_name.startswith(PACKAGE + ".")):
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self.set(mod, attr, wrapper)

    def set(self, owner, attr, value) -> None:
        self._saved.append((owner, attr, owner.__dict__.get(attr, _MISSING)))
        setattr(owner, attr, value)

    def restore(self) -> None:
        while self._saved:
            owner, attr, old = self._saved.pop()
            if old is _MISSING:
                delattr(owner, attr)
            else:
                setattr(owner, attr, old)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.restore()
        return False


_MISSING = object()


def _module(name):
    return sys.modules[f"{PACKAGE}.{name}"]


# -- wrappers -------------------------------------------------------------------------

def _plain(tracer, name, fn, post=None):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        rec = tracer.begin(name)
        try:
            out = fn(*args, **kwargs)
        finally:
            tracer.end(rec)
        if post is not None:
            rec[EXTRA] = post(args, kwargs, out)
        return out
    return wrapper


def _timed_backward(tracer, name, bucket, extra, fn):
    def timed(g):
        rec = tracer.begin(name, bucket, True, extra)
        try:
            return fn(g)
        finally:
            tracer.end(rec)
    timed._traced = True
    return timed


def _kernel(tracer, name, bucket, fn, shape_key=None):
    """Kernel span; calls nested in another kernel count toward the outer one."""
    bwd_name = name + BWD

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        owner = tracer.kernel_owner
        outer = owner is None
        if outer:
            tracer.kernel_owner = bucket
            owner = bucket
        extra = shape_key(args, kwargs) if shape_key is not None and outer else None
        rec = tracer.begin(name, owner, outer, extra)
        try:
            out = fn(*args, **kwargs)
        finally:
            tracer.end(rec)
            if outer:
                tracer.kernel_owner = None
        bk = out._backward
        if bk is not None and not getattr(bk, "_traced", False):
            rec[TAPED] = True
            out._backward = _timed_backward(tracer, bwd_name, owner, extra, bk)
        return out
    return wrapper


def _conv_key(kind, fn):
    sig = inspect.signature(fn)

    def key(args, kwargs):
        bound = sig.bind(*args, **kwargs)
        bound.apply_defaults()
        a = bound.arguments
        return (kind, tuple(a["x"].shape), tuple(a["w"].shape), a["stride"], a["pad"])
    return key


def _dir_bytes(path) -> int:
    return sum(e.stat().st_size for e in os.scandir(path) if e.is_file())


_POST = {
    "scenegen.write_dataset": lambda a, k, out: {"samples": len(out)},
    "scenegen.read_dataset": lambda a, k, out: {
        "samples": len(out), "bytes": _dir_bytes(a[0] if a else k["data_dir"])},
    "trainer.save_checkpoint": lambda a, k, out: {
        "bytes": os.path.getsize(a[1] if len(a) > 1 else k["path"])},
    "metrics.evaluate": lambda a, k, out: {"samples": out.sample_count},
}


def kernel_functions() -> dict:
    """Public functions defined in ``kernels``, by name, with their bucket."""
    kernels = _module("kernels")
    out = {}
    for name, fn in vars(kernels).items():
        if (name.startswith("_") or name == "apply" or not inspect.isfunction(fn)
                or fn.__module__ != kernels.__name__):
            continue
        out[name] = name if name in KERNEL_BUCKETS else "elementwise"
    return out


def instrument(tracer: Tracer, patcher: Patcher) -> None:
    """Wrap every traced function and method; undo with ``patcher.restore()``."""
    kernels = _module("kernels")
    for name, bucket in kernel_functions().items():
        fn = getattr(kernels, name)
        key = _conv_key(name, fn) if name in CONVS else None
        patcher.replace_everywhere(fn, _kernel(tracer, f"kernels.{name}", bucket, fn, key))
    autograd = _module("autograd")
    for name in ARITH_FUNCS:
        fn = getattr(autograd, name)
        patcher.replace_everywhere(fn, _kernel(tracer, f"autograd.{name}", ARITH, fn))
    for meth in ("mean", "sum"):
        fn = getattr(autograd.Tensor, meth)
        patcher.set(autograd.Tensor, meth, _kernel(tracer, f"autograd.Tensor.{meth}", ARITH, fn))
    networks = _module("networks")
    for cls_name, meth in NETWORKS:
        cls = getattr(networks, cls_name)
        fn = getattr(cls, meth)
        patcher.set(cls, meth, _plain(tracer, f"networks.{cls_name}.{meth}", fn))
    for mod_name, names in PLAIN.items():
        mod = _module(mod_name)
        for name in names:
            span = f"{mod_name}.{name}"
            fn = getattr(mod, name)
            patcher.replace_everywhere(fn, _plain(tracer, span, fn, _POST.get(span)))


@contextmanager
def tracing(tracer: Tracer):
    """Record spans into ``tracer`` inside the block; every original returns after it."""
    with Patcher() as patcher:
        instrument(tracer, patcher)
        yield tracer


# -- aggregation ----------------------------------------------------------------------

def self_times(spans) -> list:
    """Each span's duration minus the time its direct children cover (seconds)."""
    covered = [0.0] * len(spans)
    for rec in spans:
        if rec[PARENT] >= 0:
            covered[rec[PARENT]] += rec[END] - rec[START]
    return [rec[END] - rec[START] - covered[i] for i, rec in enumerate(spans)]


def _macs_per_axis(n_in, n_out, k, stride, pad) -> int:
    """(output, tap) pairs of a transposed conv that land on a real input sample."""
    lead = k - 1 - pad
    count = 0
    for o in range(n_out):
        for i in range(k):
            q = o + i - lead
            if q >= 0 and q % stride == 0 and q // stride < n_in:
                count += 1
    return count


def conv_macs(key) -> tuple:
    """(useful, executed) multiply-adds of one conv call, from its shape key.

    conv_transpose2d correlates a zero-dilated, padded input, so only the taps
    that hit an original sample are useful.
    """
    kind, xs, ws, stride, pad = key
    b, cin, h, w = xs
    if kind == "conv2d":
        cout, _, kh, kw = ws
        ho = (h + 2 * pad - kh) // stride + 1
        wo = (w + 2 * pad - kw) // stride + 1
        macs = b * cout * ho * wo * cin * kh * kw
        return macs, macs
    _, cout, kh, kw = ws
    ho = (h - 1) * stride - 2 * pad + kh
    wo = (w - 1) * stride - 2 * pad + kw
    useful = (b * cin * cout * _macs_per_axis(h, ho, kh, stride, pad)
              * _macs_per_axis(w, wo, kw, stride, pad))
    return useful, b * cout * ho * wo * cin * kh * kw


def layer_metrics(spans, per: float) -> dict:
    """Every per-layer metric from a span list.

    In-step layers (spans with a step id) are divided by ``per`` (training
    steps, or evaluated samples). Run-level calls are reported per call or,
    for the dataset and evaluate paths, per sample.
    """
    selfs = self_times(spans)
    m = {name: 0.0 for name in LAYER_UNITS}
    ms = 1000.0
    macs = {k: [0, 0] for k in CONVS}
    calls = {}
    samples = {}
    for i, rec in enumerate(spans):
        name, dur, step = rec[NAME], rec[END] - rec[START], rec[STEP]
        parent = spans[rec[PARENT]][NAME] if rec[PARENT] >= 0 else None
        calls[name] = calls.get(name, 0) + 1
        extra = rec[EXTRA]
        if name == "trainer.save_checkpoint":
            m["trainer.save_checkpoint.ms"] += dur * ms
            m["trainer.save_checkpoint.bytes"] += extra["bytes"]
        elif name in ("trainer.load_checkpoint", "scenegen.generate_scene",
                      "scenegen.apply_domain_shift"):
            m[name + ".ms"] += dur * ms
        elif name in ("scenegen.write_dataset", "scenegen.read_dataset"):
            m[name + ".ms"] += dur * ms
            samples[name] = samples.get(name, 0) + extra["samples"]
            if name == "scenegen.read_dataset":
                m["scenegen.read_dataset.bytes"] += extra["bytes"]
        elif name == "metrics.evaluate":
            samples[name] = samples.get(name, 0) + extra["samples"]
        if parent == "metrics.evaluate":
            if name.startswith("networks.") and "Extractor" not in name:
                m["metrics.evaluate.net_ms"] += dur * ms
            elif name.split(".")[-1] in SCORING:
                m["metrics.evaluate.scoring_ms"] += dur * ms
        if step is None:
            continue
        bucket = rec[BUCKET]
        if bucket is not None:
            if rec[TAPED]:
                m["autograd.tape_nodes"] += 1
            prefix = "autograd.arith" if bucket == ARITH else f"kernels.{bucket}"
            if name.endswith(BWD):
                m[prefix + ".bwd_ms"] += dur * ms
            elif rec[OUTER]:
                m[prefix + ".fwd_ms"] += dur * ms
                if bucket != ARITH:
                    m[prefix + ".calls"] += 1
                if extra is not None:
                    useful, executed = conv_macs(extra)
                    macs[extra[0]][0] += useful
                    macs[extra[0]][1] += executed
        elif name == "autograd.backward":
            m["autograd.backward.ms"] += dur * ms
            m["autograd.backward.self_ms"] += selfs[i] * ms
        elif name.startswith("networks."):
            _, cls, meth = name.split(".")
            m[f"networks.{cls}.{meth}_ms"] += dur * ms
            m[f"networks.{cls}.calls"] += 1
        elif name in ("warping.multiscale_warp_loss", "warping.stagewise_warp_loss"):
            m[name + ".ms"] += dur * ms
            if name == "warping.multiscale_warp_loss":
                m[name + ".calls"] += 1
        elif name.startswith("losses."):
            group = "translation_terms" if name[7:] in TRANSLATION_TERMS else "supervised"
            m[f"losses.{group}.ms"] += dur * ms
        elif name in ("trainer.adam_update", "trainer.make_batch"):
            m[name + ".ms"] += dur * ms

    for kind in CONVS:
        useful, executed = macs[kind]
        m[f"kernels.{kind}.gflop"] = 2.0 * useful / 1e9
        secs = m[f"kernels.{kind}.fwd_ms"] / ms
        m[f"kernels.{kind}.gflops"] = m[f"kernels.{kind}.gflop"] / secs if secs else 0.0
    useful, executed = macs["conv_transpose2d"]
    m["kernels.conv_transpose2d.useful_mac_ratio"] = useful / executed if executed else 0.0

    run_level = {
        "trainer.save_checkpoint.ms": calls.get("trainer.save_checkpoint", 0),
        "trainer.save_checkpoint.bytes": calls.get("trainer.save_checkpoint", 0),
        "trainer.load_checkpoint.ms": calls.get("trainer.load_checkpoint", 0),
        "scenegen.generate_scene.ms": calls.get("scenegen.generate_scene", 0),
        "scenegen.apply_domain_shift.ms": calls.get("scenegen.apply_domain_shift", 0),
        "scenegen.write_dataset.ms": samples.get("scenegen.write_dataset", 0),
        "scenegen.read_dataset.ms": samples.get("scenegen.read_dataset", 0),
        "scenegen.read_dataset.bytes": samples.get("scenegen.read_dataset", 0),
        "metrics.evaluate.net_ms": samples.get("metrics.evaluate", 0),
        "metrics.evaluate.scoring_ms": samples.get("metrics.evaluate", 0),
    }
    ratios = {"kernels.conv2d.gflops", "kernels.conv_transpose2d.gflops",
              "kernels.conv_transpose2d.useful_mac_ratio"}
    for key in m:
        if key.startswith("trace.") or key in ratios:
            continue
        denom = run_level.get(key, per)
        m[key] = m[key] / denom if denom else 0.0

    window = [(rec[END] - rec[START], selfs[i]) for i, rec in enumerate(spans)
              if rec[NAME] in STEP_WINDOWS and rec[STEP] is not None]
    total = sum(d for d, _ in window)
    m["trace.unattributed_pct"] = 100.0 * sum(s for _, s in window) / total if total else 0.0
    return m


def kernel_table(spans) -> list:
    """Forward and backward time of each convolution call shape."""
    rows = {}
    for rec in spans:
        key = rec[EXTRA]
        if rec[BUCKET] not in CONVS or not isinstance(key, tuple):
            continue
        row = rows.setdefault(key, {"calls": 0, "fwd_ms": 0.0, "bwd_ms": 0.0})
        dur = (rec[END] - rec[START]) * 1000.0
        if rec[NAME].endswith(BWD):
            row["bwd_ms"] += dur
        else:
            row["calls"] += 1
            row["fwd_ms"] += dur
    out = []
    for (kind, xs, ws, stride, pad), row in sorted(rows.items(), key=lambda kv: kv[0]):
        useful, executed = conv_macs((kind, xs, ws, stride, pad))
        n = row["calls"]
        out.append({"kernel": kind, "input": list(xs), "weight": list(ws), "stride": stride,
                    "pad": pad, "calls": n,
                    "fwd_ms_per_call": row["fwd_ms"] / n if n else 0.0,
                    "bwd_ms_per_call": row["bwd_ms"] / n if n else 0.0,
                    "gflop_per_call": 2.0 * useful / 1e9,
                    "useful_mac_ratio": useful / executed})
    return out


def self_time_by_name(spans) -> dict:
    """Total self time in ms and call count for each span name."""
    out = {}
    for rec, s in zip(spans, self_times(spans)):
        row = out.setdefault(rec[NAME], {"calls": 0, "self_ms": 0.0, "total_ms": 0.0})
        row["calls"] += 1
        row["self_ms"] += s * 1000.0
        row["total_ms"] += (rec[END] - rec[START]) * 1000.0
    return out
