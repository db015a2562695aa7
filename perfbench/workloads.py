"""The benchmark's three workloads, their correctness gates and metrics.

train_full         run_training with the paper's objective at the README
                   defaults (64x128, batch 2, channels_base 8, k = 5).
train_source_only  the same config with objective=source_only: the
                   translation and warping side gets zero calls.
infer              scene generation, dataset write and read, and a batched
                   evaluate on the real split, with no tape recorded.

Every input is derived from the workload seed. A run repeats one operation
(a run_training call, or one infer round) until its time is up; in a traced
run, untraced and traced operations alternate so their ratio gives the
tracing overhead.
"""

from __future__ import annotations

import contextlib
import hashlib
import math
import os
import resource
import shutil
import statistics
import traceback
from time import perf_counter as now

import numpy as np

import spans
from warpadapt import metrics as M
from warpadapt import scenegen as S
from warpadapt import trainer as T

WORKLOADS = ("train_full", "train_source_only", "infer")

# Timings are reported at p90: on a host whose speed swings between two
# levels, the median moves with the share of time spent at each level, while
# the 90th percentile stays on the slower level (see README.md)
E2E_UNITS = {
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "run_wall_s.p90": "s",
    "step_ms.p90": "ms",
    "eval_ms_per_sample.p90": "ms",
}
# measured series, reported with their sample counts beside the metrics
SERIES_UNITS = {
    "setup_s": "s",
    "run_wall_s": "s",
    "task_step_ms": "ms",
    "translation_step_ms": "ms",
    "generate_ms": "ms",
    "eval_ms_per_sample": "ms",
    "dataset_io_ms_per_sample": "ms",
}
STEP_SERIES = {"train_full": "task_step_ms", "train_source_only": "task_step_ms",
               "infer": "generate_ms"}


class Sizes:
    """Work per operation; ``quick`` shrinks it for the benchmark's own tests."""

    def __init__(self, quick: bool):
        self.train_iters = 5 if quick else 10       # a multiple of k = 5
        self.train_scenes = 3 if quick else 6       # per domain
        self.val_count = 1 if quick else 2
        self.infer_scenes = 2 if quick else 8       # per domain and round
        self.setup_reps = 1 if quick else 3


def scene_set(count: int, base: int) -> list:
    """``count`` synthetic and ``count`` shifted real scenes, as ``generate`` makes them."""
    shift = S.shift_preset("default")
    samples = [S.generate_scene(base + i) for i in range(count)]
    samples += [S.apply_domain_shift(S.generate_scene(base + count + i), shift, seed=base + i)
                for i in range(count)]
    return samples


def same_samples(a: list, b: list) -> bool:
    if len(a) != len(b):
        return False
    for x, y in zip(a, b):
        if x.domain != y.domain:
            return False
        for name in S.FIELD_ORDER:
            u, v = getattr(x, name), getattr(y, name)
            if (u is None) != (v is None):
                return False
            if u is not None and not (u.dtype == v.dtype and np.array_equal(u, v)):
                return False
    return True


def finite_params(nets: dict) -> bool:
    return all(np.isfinite(p.data).all() for net in nets.values()
               for p in net.parameters().values())


def nets_digest(nets: dict) -> dict:
    return {name: T.param_digest(net) for name, net in nets.items()}


def oracle_exact(samples: list) -> bool:
    report = M.evaluate({}, samples, oracle=True)
    return report.epe_disp == 0.0 and report.epe_flow == 0.0


def file_digest(path: str) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def p90(values: list) -> float:
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=10, method="inclusive")[-1]


class Run:
    """State shared by one workload run: paths, gates and span store."""

    def __init__(self, workload, seed, seconds, trace, work_dir, import_s, quick):
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        self.work = work_dir
        self.import_s = import_s
        self.sizes = Sizes(quick)
        self.attempted = 0
        self.failed = 0
        self.gate_failures: list = []
        self.tracer = None

    def gate(self, ok: bool, what: str) -> None:
        if not ok:
            self.gate_failures.append(what)

    def operation(self, fn, *args) -> None:
        """Run one operation; a raised error or a failed gate counts it failed."""
        self.attempted += 1
        failures = len(self.gate_failures)
        try:
            fn(*args)
        except Exception:
            self.gate_failures.append(traceback.format_exc(limit=5))
        if len(self.gate_failures) > failures:
            self.failed += 1

    def loop(self, op) -> None:
        """Repeat ``op(index, traced)`` until the time is up; at least two runs.

        In a traced run every second operation is traced.
        """
        start = now()
        index = 0
        last = 0.0
        while index < 2 or now() - start + last <= self.seconds:
            t0 = now()
            self.operation(op, index, self.trace and index % 2 == 1)
            last = now() - t0
            index += 1


def maybe_traced(run: Run, on: bool):
    return spans.tracing(run.tracer) if on else contextlib.nullcontext()


# -- training workloads ----------------------------------------------------------------

class StepTimer:
    """Times each train_step and evaluate call that run_training makes."""

    def __init__(self, run: Run):
        self.run = run
        self.steps: list = []       # (kind, ms)
        self.evals: list = []       # ms per sample
        self.patcher = spans.Patcher()

    def __enter__(self):
        step, evaluate = T.train_step, M.evaluate

        def train_step(state, syn, real):
            cfg = state.config
            kind = ("translation" if cfg.objective == "full" and state.iteration % cfg.k == 0
                    else "task")
            t0 = now()
            out = step(state, syn, real)
            self.steps.append((kind, (now() - t0) * 1000.0))
            self.run.gate(all(np.isfinite(v) for v in out.values()),
                          f"non-finite loss at iteration {state.iteration - 1}")
            return out

        def timed_evaluate(*args, **kwargs):
            t0 = now()
            report = evaluate(*args, **kwargs)
            self.evals.append((now() - t0) * 1000.0 / report.sample_count)
            return report

        self.patcher.replace_everywhere(step, train_step)
        self.patcher.replace_everywhere(evaluate, timed_evaluate)
        return self

    def __exit__(self, *exc):
        self.patcher.restore()
        return False


def run_train(run: Run, objective: str) -> dict:
    sz = run.sizes
    cfg = T.TrainConfig(total_iters=sz.train_iters, eval_every=0, val_count=sz.val_count,
                        seed=run.seed, objective=objective)
    run.tracer = spans.Tracer(step_roots=("trainer.make_batch", "trainer.train_step"),
                              advance_on="trainer.train_step")
    data_dir = os.path.join(run.work, "data")
    setup_times = []

    def setup(rep):
        t0 = now()
        with maybe_traced(run, run.trace):
            samples = scene_set(sz.train_scenes, run.seed * 1000)
            S.write_dataset(samples, data_dir)
            T.init_state(cfg)
        setup_times.append(now() - t0)
        run.gate(same_samples(S.read_dataset(data_dir), samples), "dataset round trip")
        if rep == 0:
            real_val = S.split_domains(samples)[1][-sz.val_count:]
            run.gate(oracle_exact(real_val), "oracle evaluate EPE")

    for rep in range(1 if run.trace else sz.setup_reps):
        run.operation(setup, rep)

    calls, log_digests = [], []     # calls: (traced, wall_s, step slice, eval slice)
    timer = StepTimer(run)

    def op(index, traced):
        out_dir = os.path.join(run.work, f"run{index % 2}")
        shutil.rmtree(out_dir, ignore_errors=True)
        first_step, first_eval = len(timer.steps), len(timer.evals)
        with maybe_traced(run, traced):
            t0 = now()
            state, _, _ = T.run_training(cfg, data_dir, out_dir)
            wall = now() - t0
        calls.append((traced, wall, slice(first_step, len(timer.steps)),
                      slice(first_eval, len(timer.evals))))
        run.gate(finite_params(state.nets), "non-finite parameter after the run")
        log_digests.append(file_digest(os.path.join(out_dir, "train.log")))
        run.gate(log_digests[-1] == log_digests[0], "train.log differs between runs")
        loaded = T.load_checkpoint(os.path.join(out_dir, "checkpoint_final.wck"), cfg)
        run.gate(nets_digest(loaded.nets) == nets_digest(state.nets),
                 "param_digest changed across save_checkpoint/load_checkpoint")

    with timer:
        run.loop(op)

    plain = [c for c in calls if not c[0]]
    steps = [s for c in plain for s in timer.steps[c[2]]]
    traced = [c for c in calls if c[0]]
    return {
        "series": {
            "setup_s": setup_times,
            "run_wall_s": [c[1] for c in plain],
            "task_step_ms": [ms for kind, ms in steps if kind == "task"],
            "translation_step_ms": [ms for kind, ms in steps if kind == "translation"],
            "eval_ms_per_sample": [ms for c in plain for ms in timer.evals[c[3]]],
        },
        "traced_walls": [c[1] for c in traced],
        "per": sum(c[2].stop - c[2].start for c in traced),
        "digests": {"train_log_sha256": log_digests[0] if log_digests else None},
    }


# -- inference workload -------------------------------------------------------------------

def run_infer(run: Run) -> dict:
    sz = run.sizes
    cfg = T.TrainConfig(seed=run.seed)
    run.tracer = spans.Tracer()
    run.tracer.step = None          # set-up spans are not part of a round
    ckpt = os.path.join(run.work, "state.wck")
    setup_times = []
    loaded = []

    def setup(rep):
        t0 = now()
        with maybe_traced(run, run.trace):
            state = T.init_state(cfg)
            T.save_checkpoint(state, ckpt)
            loaded.append(T.load_checkpoint(ckpt))
        setup_times.append(now() - t0)
        run.gate(nets_digest(loaded[-1].nets) == nets_digest(state.nets),
                 "param_digest changed across save_checkpoint/load_checkpoint")

    for rep in range(1 if run.trace else sz.setup_reps):
        run.operation(setup, rep)
    nets = loaded[-1].nets
    d1_mode = loaded[-1].config.d1_mode
    data_dir = os.path.join(run.work, "round")
    shift = S.shift_preset("default")
    rounds = []         # (traced, wall_s, scene ms list, io ms per sample, eval ms per sample)

    def op(index, traced):
        base = run.seed * 100_000 + (index + 1) * 1000
        n = sz.infer_scenes
        scene_ms, samples = [], []
        with maybe_traced(run, traced):
            tracer = run.tracer
            tracer.step = index
            window = tracer.begin("bench.round") if traced else None
            t0 = now()
            for i in range(2 * n):
                s0 = now()
                scene = S.generate_scene(base + i)
                if i >= n:
                    scene = S.apply_domain_shift(scene, shift, seed=base + i - n)
                samples.append(scene)
                scene_ms.append((now() - s0) * 1000.0)
            t1 = now()
            S.write_dataset(samples, data_dir)
            read = S.read_dataset(data_dir)
            t2 = now()
            real = S.split_domains(read)[1]
            report = M.evaluate(nets, real, d1_mode=d1_mode)
            t3 = now()
            if window is not None:
                tracer.end(window)
        rounds.append((traced, t3 - t0, scene_ms, (t2 - t1) * 1000.0 / len(samples),
                       (t3 - t2) * 1000.0 / report.sample_count))
        run.gate(same_samples(read, samples), "dataset round trip")
        run.gate(oracle_exact(real), "oracle evaluate EPE")
        run.gate(math.isfinite(report.epe_disp) and math.isfinite(report.epe_flow),
                 "non-finite evaluate EPE")

    run.loop(op)

    plain = [r for r in rounds if not r[0]]
    traced = [r for r in rounds if r[0]]
    return {
        "series": {
            "setup_s": setup_times,
            "run_wall_s": [r[1] for r in plain],
            "generate_ms": [ms for r in plain for ms in r[2]],
            "eval_ms_per_sample": [r[4] for r in plain],
            "dataset_io_ms_per_sample": [r[3] for r in plain],
        },
        "traced_walls": [r[1] for r in traced],
        "per": sz.infer_scenes * len(traced),
        "digests": {},
    }


# -- entry --------------------------------------------------------------------------------

def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def summarize(series: dict) -> dict:
    """p50, p90 and sample count of every non-empty measured series."""
    return {name: {"unit": SERIES_UNITS[name], "samples": len(v),
                   "p50": statistics.median(v), "p90": p90(v)}
            for name, v in series.items() if v}


def run_workload(run: Run) -> dict:
    if run.workload == "infer":
        out = run_infer(run)
    else:
        out = run_train(run, "full" if run.workload == "train_full" else "source_only")
    series = out["series"]
    summary = summarize(series)
    out["summary"] = summary
    if run.trace:
        layers = spans.layer_metrics(run.tracer.spans, out["per"])
        layers["trace.overhead_pct"] = 100.0 * (
            statistics.median(out["traced_walls"]) / summary["run_wall_s"]["p50"] - 1.0)
        out["metrics"] = {k: layers[k] for k in spans.LAYER_UNITS}
        out["units"] = spans.LAYER_UNITS
    else:
        e2e = {
            "setup_s": run.import_s + summary["setup_s"]["p50"],
            "peak_rss_mb": peak_rss_mb(),
            "run_wall_s.p90": summary["run_wall_s"]["p90"],
            "step_ms.p90": summary[STEP_SERIES[run.workload]]["p90"],
            "eval_ms_per_sample.p90": summary["eval_ms_per_sample"]["p90"],
        }
        out["metrics"] = {k: e2e[k] for k in E2E_UNITS}
        out["units"] = E2E_UNITS
    return out
