"""Benchmark entry point.

    python3 perfbench/run.py --workload train_full --seed 1 --seconds 40 --trace 0

Run from the root of a checkout: the package is imported from ``src/`` next
to this directory and nowhere else. The last line of standard output is one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``: the
end-to-end metrics with ``--trace 0``, the per-layer metrics with
``--trace 1``. The line before it holds the machine, environment, sample
counts, digests and the measured series. A traced run also writes its spans
to ``.perfbench_out/<workload>.trace.json.gz``.
"""

from __future__ import annotations

import argparse
import os
import sys
import time

# numpy reads these once, when it is first imported; the package never caps
# its BLAS pool, so the benchmark does
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORKLOAD_NAMES = ("train_full", "train_source_only", "infer")
EXIT_NO_PROGRAM = 3


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--quick", action="store_true",
                   help="smallest work per operation, for the benchmark's own tests")
    args = p.parse_args(argv)
    if args.seed < 0:
        p.error("--seed must be >= 0")
    if args.seconds <= 0:
        p.error("--seconds must be positive")
    return args


def import_package() -> float:
    """Import the package from this checkout's src/ and return the time it took."""
    sys.path.insert(0, SRC)
    sys.path.insert(0, HERE)
    t0 = time.perf_counter()
    import warpadapt.metrics  # noqa: F401
    import warpadapt.scenegen  # noqa: F401
    import warpadapt.trainer  # noqa: F401
    elapsed = time.perf_counter() - t0
    origin = os.path.dirname(os.path.abspath(warpadapt.__file__))
    if os.path.dirname(origin) != SRC:
        raise ImportError(f"warpadapt imported from {origin}, not from {SRC}")
    return elapsed


def blas_threads_in_use():
    """OpenBLAS's own thread count, read from the loaded library (Linux only)."""
    import ctypes
    try:
        with open("/proc/self/maps") as fh:
            libs = sorted({line.split()[-1] for line in fh if "openblas" in line})
    except OSError:
        return None
    for path in libs:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


def environment() -> dict:
    import platform

    import numpy as np
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_threads_set": BLAS_THREADS,
        "blas_threads_in_use": blas_threads_in_use(),
    }


def write_trace(run, result, env) -> str:
    import gzip
    import json

    import spans
    out_dir = os.path.join(ROOT, ".perfbench_out")
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, f"{run.workload}.trace.json.gz")
    recs = run.tracer.spans
    names = sorted({r[spans.NAME] for r in recs})
    index = {n: i for i, n in enumerate(names)}
    t0 = recs[0][spans.START] if recs else 0.0
    doc = {
        "workload": run.workload, "seed": run.seed, "environment": env,
        "span_fields": ["name", "start_s", "end_s", "parent", "step", "bucket", "outer"],
        "names": names,
        "spans": [[index[r[spans.NAME]], r[spans.START] - t0, r[spans.END] - t0,
                   r[spans.PARENT], r[spans.STEP], r[spans.BUCKET], r[spans.OUTER]]
                  for r in recs],
        "self_time_by_name": spans.self_time_by_name(recs),
        "conv_shapes": spans.kernel_table(recs),
        "metrics": result["metrics"],
    }
    with gzip.open(path, "wt") as fh:
        json.dump(doc, fh)
    return path


def main(argv=None) -> int:
    args = parse_args(sys.argv[1:] if argv is None else argv)
    try:
        import_s = import_package()
    except ImportError as exc:
        print(f"error: cannot import the program: {exc}", file=sys.stderr)
        return EXIT_NO_PROGRAM

    import json
    import shutil

    import workloads
    env = environment()
    env["loadavg_start"] = os.getloadavg()
    work = os.path.join(ROOT, ".perfbench_work", f"{args.workload}-{args.seed}-{os.getpid()}")
    os.makedirs(work)
    run = workloads.Run(args.workload, args.seed, args.seconds, bool(args.trace), work,
                        import_s, args.quick)
    try:
        result = workloads.run_workload(run)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        for failure in run.gate_failures:
            print(f"gate failed: {failure}", file=sys.stderr)
    env["loadavg_end"] = os.getloadavg()
    details = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
               "environment": env, "import_s": import_s,
               "summary": result["summary"], "digests": result["digests"],
               "series": result["series"]}
    if args.trace:
        details["trace_file"] = os.path.relpath(write_trace(run, result, env), ROOT)
    print(json.dumps(details))
    print(json.dumps({
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {k: {"value": v, "unit": result["units"][k]}
                    for k, v in result["metrics"].items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
