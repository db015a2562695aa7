"""The benchmark's command-line contract, in its short mode."""

import json
import os
import shutil
import subprocess
import sys
import time

import pytest

import run
import spans
import workloads

TESTS = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(TESTS)
ROOT = os.path.dirname(BENCH)
RUN = os.path.join(BENCH, "run.py")


def bench(*args, cwd=ROOT, timeout=120):
    return subprocess.run([sys.executable, RUN, *args], cwd=cwd, capture_output=True,
                          text=True, timeout=timeout)


def test_benchmark_json_lists_the_metrics_the_code_reports():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert tuple(workloads.WORKLOADS) == run.WORKLOAD_NAMES
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == workloads.E2E_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == spans.LAYER_UNITS
    assert any(m["name"] == "setup_s" and m["unit"] == "s" and m["better"] == "lower"
               for m in spec["end_to_end"])


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
@pytest.mark.parametrize("trace", ["0", "1"])
def test_quick_run_prints_every_metric_with_its_unit(workload, trace):
    t0 = time.perf_counter()
    out = bench("--workload", workload, "--seed", "5", "--seconds", "1", "--trace", trace,
                "--quick")
    assert time.perf_counter() - t0 < 60
    assert out.returncode == 0, out.stderr
    lines = out.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    details = json.loads(lines[-2])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 3
    units = spans.LAYER_UNITS if trace == "1" else workloads.E2E_UNITS
    assert {k: v["unit"] for k, v in result["metrics"].items()} == units
    assert details["environment"]["blas_threads_set"] == 1
    if trace == "0":
        assert all(v["value"] > 0 for v in result["metrics"].values())
    else:
        m = {k: v["value"] for k, v in result["metrics"].items()}
        assert os.path.exists(os.path.join(ROOT, details["trace_file"]))
        if workload == "train_source_only":
            for zero in ("networks.Generator.calls", "networks.Discriminator.calls",
                         "kernels.grid_sample.calls", "warping.multiscale_warp_loss.calls"):
                assert m[zero] == 0
        if workload != "infer":
            assert m["trace.unattributed_pct"] < 10.0
            assert m["autograd.tape_nodes"] > 0


def test_same_seed_gives_the_same_train_log():
    digests = set()
    for _ in range(2):
        out = bench("--workload", "train_source_only", "--seed", "9", "--seconds", "1",
                    "--quick")
        assert out.returncode == 0, out.stderr
        digests.add(json.loads(out.stdout.strip().splitlines()[-2])["digests"]["train_log_sha256"])
    assert len(digests) == 1


def test_fails_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", "tests"))
    out = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "infer", "--seed",
                          "1", "--seconds", "1", "--trace", "0"], cwd=tmp_path,
                         capture_output=True, text=True, timeout=60)
    assert out.returncode != 0
    assert '"correct"' not in out.stdout
