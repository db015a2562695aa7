"""Property tests of the two binary readers: a dataset sample and a checkpoint
with bytes flipped, cut off or appended. ``eval`` reads both, and whatever the
bytes, it ends in exit 0, 2 or 3 with at most one stderr line, never a
traceback. The examples are derandomized, so every run tries the same ones."""

import contextlib
import io
import os
import shutil

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from warpadapt.cli import main

EXAMPLES = 100

# a flip picks its byte as a fraction of the file, so it lands anywhere in a
# file of any length; a cut keeps a fraction of the file
flips = st.lists(st.tuples(st.floats(0, 1, exclude_max=True), st.integers(0, 7)),
                 min_size=1, max_size=4)
mutations = st.one_of(
    st.tuples(st.just("flip"), flips),
    st.tuples(st.just("truncate"), st.floats(0, 1, exclude_max=True)),
    st.tuples(st.just("extend"), st.binary(min_size=1, max_size=64)),
)


def mutate(raw: bytes, mutation) -> bytes:
    kind, arg = mutation
    if kind == "truncate":
        return raw[:int(arg * len(raw))]
    if kind == "extend":
        return raw + arg
    out = bytearray(raw)
    for where, bit in arg:
        out[int(where * len(out))] ^= 1 << bit
    return bytes(out)


@pytest.fixture(scope="module")
def small_run(tmp_path_factory):
    """A four-scene dataset and an untrained checkpoint that evaluates on it."""
    root = tmp_path_factory.mktemp("fuzz")
    data, out = str(root / "data"), str(root / "run")
    assert main(["generate", "--count", "2", "--seed", "5", "--out", data,
                 "--width", "32", "--height", "16", "--max-disp", "8", "--max-flow", "4"]) == 0
    assert main(["train", "--data", data, "--out", out, "--total_iters", "0",
                 "--batch_size", "1", "--channels_base", "4", "--max_disp", "8",
                 "--max_flow", "4", "--val_count", "1"]) == 0
    return {"root": root, "data": data, "checkpoint": os.path.join(out, "checkpoint_final.wck")}


def eval_ends_cleanly(checkpoint: str, data: str) -> None:
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main(["eval", "--checkpoint", checkpoint, "--data", data])
    assert code in (0, 2, 3), err.getvalue()
    assert err.getvalue().count("\n") <= 1, err.getvalue()


@settings(max_examples=EXAMPLES, derandomize=True, database=None, deadline=None)
@given(mutation=mutations)
def test_mutated_sample(small_run, mutation):
    data = str(small_run["root"] / "mutated_data")
    shutil.rmtree(data, ignore_errors=True)
    shutil.copytree(small_run["data"], data)
    # the last real scene: eval validates on it, after read_dataset has checked all four
    path = os.path.join(data, "sample_00003.wad")
    with open(path, "rb") as fh:
        raw = fh.read()
    with open(path, "wb") as fh:
        fh.write(mutate(raw, mutation))
    eval_ends_cleanly(small_run["checkpoint"], data)


@settings(max_examples=EXAMPLES, derandomize=True, database=None, deadline=None)
@given(mutation=mutations)
def test_mutated_checkpoint(small_run, mutation):
    path = str(small_run["root"] / "mutated.wck")
    with open(small_run["checkpoint"], "rb") as fh:
        raw = fh.read()
    with open(path, "wb") as fh:
        fh.write(mutate(raw, mutation))
    eval_ends_cleanly(path, small_run["data"])
