"""Property tests of the readers: a dataset sample, a ``translate`` input and a
checkpoint with bytes flipped, cut off or appended, a dataset's
``manifest.txt`` and the text of ``train --config``. Whatever the input, the
command that reads it ends in exit 0, 2 or 3 with at most one stderr line,
never a traceback. The examples are derandomized, so every run tries the same
ones."""

import contextlib
import io
import os
import shutil

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from warpadapt.cli import main
from warpadapt.trainer import CHOICES, CONFIG_KEYS

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


def ends_cleanly(argv: list, codes=(0, 2, 3)) -> None:
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in codes, err.getvalue()
    assert err.getvalue().count("\n") <= 1, err.getvalue()


def eval_ends_cleanly(checkpoint: str, data: str) -> None:
    ends_cleanly(["eval", "--checkpoint", checkpoint, "--data", data])


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
def test_mutated_translate_input(small_run, mutation):
    path = str(small_run["root"] / "mutated.wad")
    with open(os.path.join(small_run["data"], "sample_00003.wad"), "rb") as fh:
        raw = fh.read()
    with open(path, "wb") as fh:
        fh.write(mutate(raw, mutation))
    # a flipped domain tag leaves a readable sample and a one-line warning
    ends_cleanly(["translate", "--checkpoint", small_run["checkpoint"], "--in", path,
                  "--out", str(small_run["root"] / "translated"), "--direction", "cycle"],
                 codes=(0, 3))


@settings(max_examples=EXAMPLES, derandomize=True, database=None, deadline=None)
@given(mutation=mutations)
def test_mutated_checkpoint(small_run, mutation):
    path = str(small_run["root"] / "mutated.wck")
    with open(small_run["checkpoint"], "rb") as fh:
        raw = fh.read()
    with open(path, "wb") as fh:
        fh.write(mutate(raw, mutation))
    eval_ends_cleanly(path, small_run["data"])


SAMPLE_NAMES = [f"sample_{i:05d}.wad" for i in range(4)]
# a line of a manifest: a sample of the dataset, a name that is no plain file
# of it, or any short text
manifest_lines = st.one_of(
    st.sampled_from(SAMPLE_NAMES),
    st.sampled_from(["", " ", ".", "..", "manifest.txt", "missing.wad", "x" * 300,
                     "../data/sample_00000.wad", "sample_00000.wad\0", " sample_00003.wad\t"]),
    st.text(max_size=20),
)
# str.splitlines breaks a line at each of these
line_ends = st.sampled_from(["\n", "\r\n", "\r", "\x0b", "\x1c", "\u2028"])
manifests = st.one_of(
    st.lists(st.tuples(manifest_lines, line_ends), max_size=6).map(
        lambda lines: "".join(a + b for a, b in lines).encode()),
    st.tuples(st.just("".join(n + "\n" for n in SAMPLE_NAMES).encode()), mutations).map(
        lambda pair: mutate(*pair)),
)


@settings(max_examples=EXAMPLES, derandomize=True, database=None, deadline=None)
@given(manifest=manifests)
def test_fuzzed_manifest(small_run, manifest):
    data = str(small_run["root"] / "manifest_data")
    shutil.rmtree(data, ignore_errors=True)
    shutil.copytree(small_run["data"], data)
    with open(os.path.join(data, "manifest.txt"), "wb") as fh:
        fh.write(manifest)
    eval_ends_cleanly(small_run["checkpoint"], data)


# a value for a key: any short text without a line break, a number near every
# field's bounds, or one of a string field's choices
values = st.one_of(
    st.text(st.characters(exclude_categories=("Cc", "Zl", "Zp")), max_size=12),
    st.integers(-3, 9).map(str),
    st.floats(-2, 2).map(repr),
    st.floats(allow_nan=True, allow_infinity=True).map(repr),
    st.sampled_from([v for allowed in CHOICES.values() for v in allowed]),
)
key_value = st.tuples(st.sampled_from(list(CONFIG_KEYS)), st.sampled_from(["=", " = "]),
                      values, st.sampled_from(["", " # note", "#"])).map("".join)
junk = st.one_of(
    st.sampled_from(["", "# comment", "=", "=1", "weights.=1", "unknown=1", "k 5", "\0"]),
    st.text(max_size=20),
)


def with_junk(lines: list, line, where: float) -> str:
    """The key=value lines with at most one other line among them."""
    if line is not None:
        lines.insert(int(where * (len(lines) + 1)), line)
    return "\n".join(lines)


configs = st.one_of(
    st.builds(with_junk, st.lists(key_value, max_size=6), st.none() | junk,
              st.floats(0, 1, exclude_max=True)).map(str.encode),
    st.binary(max_size=64),
)
# the run sizes are pinned by overrides, which win over the file: no fuzzed
# value can make the networks or the run large
PINNED = ["--total_iters", "0", "--channels_base", "4", "--max_disp", "8", "--max_flow", "4"]


@settings(max_examples=EXAMPLES, derandomize=True, database=None, deadline=None)
@given(text=configs)
def test_fuzzed_config(small_run, text):
    path = str(small_run["root"] / "fuzzed.cfg")
    with open(path, "wb") as fh:
        # one validation sample leaves the other real scene to train on, so a
        # valid file runs to the end; a fuzzed line can still override both
        fh.write(b"val_count = 1\nbatch_size = 1\n" + text)
    out = str(small_run["root"] / "config_run")
    shutil.rmtree(out, ignore_errors=True)
    ends_cleanly(["train", "--config", path, "--data", small_run["data"], "--out", out]
                 + PINNED)
