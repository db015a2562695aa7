import filecmp
import os
import re
import shutil
import struct
import warnings
from dataclasses import replace

import numpy as np
import pytest

from warpadapt.cli import main, write_ppm
from warpadapt.errors import ConfigError
from warpadapt.scenegen import SceneSample, generate_scene, sample_from_bytes, sample_to_bytes
from warpadapt.trainer import load_checkpoint, parse_config_text, save_checkpoint


def run(argv, capsys=None):
    code = main(argv)
    return code


class TestGenerate:
    def test_deterministic_directories(self, tmp_path):
        a, b = str(tmp_path / "a"), str(tmp_path / "b")
        args = ["generate", "--count", "3", "--seed", "7", "--width", "32",
                "--height", "16", "--max-disp", "8", "--max-flow", "4"]
        assert run(args + ["--out", a]) == 0
        assert run(args + ["--out", b]) == 0
        names = sorted(os.listdir(a))
        assert names == sorted(os.listdir(b))
        for n in names:
            assert filecmp.cmp(os.path.join(a, n), os.path.join(b, n), shallow=False)

    def test_zero_count(self, tmp_path):
        out = str(tmp_path / "empty")
        assert run(["generate", "--count", "0", "--out", out]) == 0
        assert open(os.path.join(out, "manifest.txt")).read() == ""

    def test_counts_and_domains(self, tmp_path):
        from warpadapt.scenegen import read_dataset, split_domains
        out = str(tmp_path / "d")
        assert run(["generate", "--count", "2", "--out", out, "--width", "32",
                    "--height", "16", "--max-disp", "8", "--max-flow", "4"]) == 0
        syn, real = split_domains(read_dataset(out))
        assert len(syn) == 2 and len(real) == 2

    @pytest.mark.parametrize("preset", ["none", "mild", "default"])
    def test_samples_are_scenes_then_shifted_scenes(self, tmp_path, preset):
        from warpadapt.scenegen import apply_domain_shift, read_dataset, shift_preset
        out, seed, count = str(tmp_path / "d"), 7, 3
        assert run(["generate", "--count", str(count), "--seed", str(seed), "--out", out,
                    "--width", "32", "--height", "16", "--max-disp", "8", "--max-flow", "4",
                    "--shift-preset", preset]) == 0

        def scene(s):
            return generate_scene(s, width=32, height=16, max_disp=8, max_flow=4)

        want = [scene(seed + i) for i in range(count)]
        want += [apply_domain_shift(scene(seed + count + i), shift_preset(preset), seed=seed + i)
                 for i in range(count)]
        assert [sample_to_bytes(s) for s in read_dataset(out)] == [sample_to_bytes(s)
                                                                    for s in want]

    @pytest.mark.parametrize("flags", [["--max-disp", "0"], ["--max-flow", "-3"],
                                       ["--count", "-1"], ["--seed", "-1"],
                                       ["--count", "0", "--max-disp", "0"],
                                       ["--count", "0", "--width", "30"]],
                             ids=["max_disp_0", "max_flow_negative", "count_negative",
                                  "seed_negative", "count_0_max_disp_0", "count_0_width_30"])
    def test_bad_value_exits_2(self, tmp_path, capsys, flags):
        out = tmp_path / "d"
        assert run(["generate", "--out", str(out), "--count", "1", "--width", "32",
                    "--height", "16"] + flags) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert not out.exists()


class TestConfigParsing:
    def test_key_value_with_comments(self):
        kv = parse_config_text("seed = 3  # rng\n\nk=5\nweights.lambda_ms = 0.2\n", "t")
        assert kv == {"seed": "3", "k": "5", "weights.lambda_ms": "0.2"}

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError, match="mystery"):
            parse_config_text("mystery = 1\n", "t")

    def test_last_wins(self):
        kv = parse_config_text("seed=1\nseed=2\n", "t")
        assert kv["seed"] == "2"


@pytest.fixture(scope="module")
def small_run(tmp_path_factory):
    """One tiny dataset + trained checkpoint shared across CLI tests."""
    root = tmp_path_factory.mktemp("cli")
    data = str(root / "data")
    out = str(root / "run")
    assert main(["generate", "--count", "4", "--seed", "3", "--out", data,
                 "--width", "32", "--height", "16", "--max-disp", "8",
                 "--max-flow", "4", "--shift-preset", "mild"]) == 0
    assert main(["train", "--data", data, "--out", out,
                 "--total_iters", "4", "--k", "2", "--batch_size", "1",
                 "--channels_base", "4", "--max_disp", "8", "--max_flow", "4",
                 "--val_count", "1", "--eval_every", "0", "--seed", "1"]) == 0
    return {"data": data, "out": out,
            "checkpoint": os.path.join(out, "checkpoint_final.wck")}


class TestTrain:
    def test_unknown_override_exits_2(self, tmp_path, small_run):
        code = main(["train", "--data", small_run["data"], "--out", str(tmp_path / "x"),
                     "--bogus_key", "1"])
        assert code == 2

    def test_unknown_config_key_exits_2(self, tmp_path, small_run):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("nonsense = 5\n")
        code = main(["train", "--config", str(cfg), "--data", small_run["data"],
                     "--out", str(tmp_path / "x")])
        assert code == 2

    @pytest.mark.parametrize("overrides, config_text", [
        (["--k", "abc"], None),
        (["--weights.lambda_ms", "x"], None),
        (["--batch_size", "0"], None),
        (["--val_count", "-1"], None),
        (["--objective", "bogus"], None),
        ([], "k = abc\n"),
        (["--seed", "-1"], None),
        (["--eval_every", "-1"], None),
        (["--lr_disp", "nan"], None),
        (["--lr_flow", "inf"], None),
        (["--weights.lambda_ms", "nan"], None),
        (["--adam_beta2", "1.5"], None),
        (["--adam_beta1", "nan"], None),
        (["--flow_weight_decay", "-1"], None),
        (["--total_iters", "-3"], None),
        (["--channels_base", "2"], None),
        (["--max_disp", "6"], None),
        (["--max_flow", "3"], None),
        (["--gamma_stages", "2", "--total_iters", "0"], None),
        ([], b"seed = 1\n\xff\n"),
    ], ids=["k_not_int", "weight_not_float", "batch_size_0", "val_count_negative",
            "unknown_objective", "config_file_k_not_int", "seed_negative",
            "eval_every_negative", "lr_disp_nan", "lr_flow_inf", "weight_nan",
            "adam_beta2_above_1", "adam_beta1_nan", "flow_weight_decay_negative",
            "total_iters_negative", "channels_base_2", "max_disp_6", "max_flow_3",
            "gamma_stages_2_no_steps", "config_file_not_utf8"])
    def test_bad_value_exits_2(self, tmp_path, small_run, capsys, overrides, config_text):
        # a valid one-step run but for the value under test, so only that value
        # can cause the exit code
        argv = ["train", "--data", small_run["data"], "--out", str(tmp_path / "x"),
                "--total_iters", "1", "--batch_size", "1", "--channels_base", "4",
                "--max_disp", "8", "--max_flow", "4", "--val_count", "1",
                "--eval_every", "0"] + overrides
        if config_text is not None:
            cfg = tmp_path / "bad.cfg"
            if isinstance(config_text, bytes):
                cfg.write_bytes(config_text)
            else:
                cfg.write_text(config_text)
            argv += ["--config", str(cfg)]
        capsys.readouterr()
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "Traceback" not in err

    def test_missing_data_exits_3(self, tmp_path):
        code = main(["train", "--data", str(tmp_path / "nope"), "--out",
                     str(tmp_path / "x"), "--total_iters", "1"])
        assert code == 3

    def test_weight_override_in_echo(self, tmp_path, small_run, capsys):
        out = str(tmp_path / "w")
        code = main(["train", "--data", small_run["data"], "--out", out,
                     "--total_iters", "2", "--k", "2", "--batch_size", "1",
                     "--channels_base", "4", "--max_disp", "8", "--max_flow", "4",
                     "--val_count", "1", "--eval_every", "0",
                     "--weights.lambda_ms", "0.1"])
        assert code == 0
        assert "weights.lambda_ms=0.1" in capsys.readouterr().out


def tiny_train(data, out, *flags):
    """``train`` on a small_run-sized dataset at the smallest model."""
    return main(["train", "--data", data, "--out", out, "--batch_size", "1",
                 "--channels_base", "4", "--max_disp", "8", "--max_flow", "4",
                 "--val_count", "1", "--eval_every", "0", *flags])


class TestNonFinite:
    def test_diverging_run_exits_1_with_one_error_line(self, small_run, tmp_path, capsys):
        out = tmp_path / "nan"
        capsys.readouterr()
        assert tiny_train(small_run["data"], str(out), "--lr_disp", "1e6",
                          "--total_iters", "10") == 1
        errors = capsys.readouterr().err.splitlines()
        assert len(errors) == 1
        assert re.fullmatch(r"error: iteration \d+: non-finite (loss \(.+\)|gradient of .+)",
                            errors[0])
        assert not (out / "checkpoint_final.wck").exists()
        # the log keeps the initial eval and each finite iteration before the stop
        stop = int(re.search(r"iteration (\d+)", errors[0]).group(1))
        lines = (out / "train.log").read_text().splitlines()
        assert lines[0].startswith("eval\t0\t")
        assert [line.split("\t")[0] for line in lines[1:]] == [str(i) for i in range(stop)]


class TestWarnings:
    def test_resume_warns_in_one_line(self, small_run, tmp_path, capsys):
        first = str(tmp_path / "t5")
        assert tiny_train(small_run["data"], first, "--total_iters", "5") == 0
        capsys.readouterr()
        assert tiny_train(small_run["data"], str(tmp_path / "t10"), "--total_iters", "10",
                          "--resume", os.path.join(first, "checkpoint_final.wck")) == 0
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1
        assert re.fullmatch(r"warning: \S+: resuming with a changed config: "
                            r"total_iters 5 -> 10", err[0])

    def test_partial_window_is_the_runs_alone(self, small_run, tmp_path, capsys):
        out = str(tmp_path / "t3")
        assert tiny_train(small_run["data"], out, "--total_iters", "3") == 0
        assert capsys.readouterr().err == ("warning: total_iters=3 is not a multiple of k=5; "
                                           "the last alternation window is partial\n")
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert main(["eval", "--checkpoint", os.path.join(out, "checkpoint_final.wck"),
                         "--data", small_run["data"]]) == 0
        assert capsys.readouterr().err == ""
        assert not caught


class TestEval:
    def test_fresh_checkpoint_reports(self, small_run, capsys):
        assert main(["eval", "--checkpoint", small_run["checkpoint"],
                     "--data", small_run["data"]]) == 0
        out = capsys.readouterr().out
        assert "epe_disp=" in out and "psnr=" in out

    def test_oracle_zero_errors(self, small_run, capsys):
        assert main(["eval", "--checkpoint", small_run["checkpoint"],
                     "--data", small_run["data"], "--oracle"]) == 0
        out = capsys.readouterr().out
        assert "epe_disp=0" in out and "f1_all=0" in out

    def test_default_d1_mode_is_the_runs(self, small_run, tmp_path, capsys):
        out = str(tmp_path / "and")
        assert main(["train", "--data", small_run["data"], "--out", out,
                     "--total_iters", "2", "--k", "2", "--batch_size", "1",
                     "--channels_base", "4", "--max_disp", "8", "--max_flow", "4",
                     "--val_count", "1", "--eval_every", "0", "--d1_mode", "and"]) == 0
        with open(os.path.join(out, "train.log")) as fh:
            final = fh.read().splitlines()[-1].split("\t")[2:]
        capsys.readouterr()
        assert main(["eval", "--checkpoint", os.path.join(out, "checkpoint_final.wck"),
                     "--data", small_run["data"]]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert "config.d1_mode=and" in lines
        scores = [line for line in final if not line.startswith("config.")]
        assert lines[:len(scores)] == scores

    def test_deterministic_reports(self, small_run, capsys):
        main(["eval", "--checkpoint", small_run["checkpoint"], "--data", small_run["data"]])
        first = capsys.readouterr().out
        main(["eval", "--checkpoint", small_run["checkpoint"], "--data", small_run["data"]])
        second = capsys.readouterr().out
        assert first == second


def edit_config(raw, old, new):
    """A checkpoint's bytes with ``old`` replaced by ``new`` in its config text,
    whose u32 byte length follows the magic and the version."""
    n = struct.unpack_from("<I", raw, 12)[0]
    text = raw[16:16 + n].replace(old, new)
    return raw[:12] + struct.pack("<I", len(text)) + text + raw[16 + n:]


def one_channel_frames(scene):
    """``scene`` with only the first colour channel of each frame."""
    return SceneSample(**{**vars(scene), **{f: getattr(scene, f)[:, :1]
                                           for f in ("left", "right", "next_left")}})


def two_frame_left(scene):
    """``scene`` whose ``left`` holds two frames."""
    return SceneSample(**{**vars(scene), "left": np.concatenate([scene.left] * 2)})


def edit_dataset(src, dst, case):
    """A copy of dataset ``src`` at ``dst``, with a manifest that is not UTF-8
    or names a file with a NUL byte, or whose first training sample is a
    left-only, a larger, a 1-channel or a two-frame sample, or sets the
    undefined high bits of its field-presence bitmap."""
    shutil.copytree(src, dst)
    manifest = os.path.join(dst, "manifest.txt")
    with open(manifest, "rb") as fh:
        names = fh.read().splitlines()
    if case == "manifest_not_utf8":
        names[0] = b"sample_\xff.wad"
    elif case == "manifest_nul_byte":
        names[0] += b"\0"
    elif case == "bitmap_high_bits":
        path = os.path.join(dst, names[0].decode())
        with open(path, "rb") as fh:
            raw = bytearray(fh.read())
        raw[9] |= 0xC0
        with open(path, "wb") as fh:
            fh.write(raw)
    else:
        if case in ("one_channel_frames", "two_frame_sample"):
            # the dataset's own extent, so only the channel or frame count is wrong
            edit = one_channel_frames if case == "one_channel_frames" else two_frame_left
            scene = edit(generate_scene(50, width=32, height=16, max_disp=8, max_flow=4))
        else:
            scene = generate_scene(50, width=64, height=32, max_disp=8, max_flow=4)
        if case == "left_only_sample":
            scene = SceneSample(left=scene.left[:, :, :16, :32], right=None, next_left=None,
                                disparity=None, flow=None, occlusion=None,
                                domain="synthetic")
        with open(os.path.join(dst, "odd.wad"), "wb") as fh:
            fh.write(sample_to_bytes(scene))
        names[0] = b"odd.wad"
    with open(manifest, "wb") as fh:
        fh.write(b"".join(n + b"\n" for n in names))


class TestDataErrors:
    @pytest.mark.parametrize("case", ["train_missing_config", "eval_missing_checkpoint",
                                      "eval_missing_data", "eval_truncated_checkpoint",
                                      "eval_version_1_checkpoint", "translate_missing_sample",
                                      "eval_renamed_record", "eval_unknown_choice",
                                      "eval_non_integer_field", "eval_refused_config",
                                      "eval_missing_config_key", "eval_version_2_checkpoint",
                                      "eval_version_3_checkpoint",
                                      "eval_record_name_not_utf8", "eval_manifest_not_utf8",
                                      "eval_manifest_nul_byte", "train_manifest_nul_byte",
                                      "eval_bitmap_high_bits",
                                      "train_left_only_sample", "train_mixed_extents",
                                      "train_one_channel_frames",
                                      "translate_one_channel_sample",
                                      "train_two_frame_sample", "eval_two_frame_sample",
                                      "translate_two_frame_sample"])
    def test_exits_3_with_one_line(self, small_run, tmp_path, capsys, case):
        ckpt, data, missing = small_run["checkpoint"], small_run["data"], str(tmp_path / "none")
        with open(ckpt, "rb") as fh:
            raw = fh.read()
        edited = {"eval_truncated_checkpoint": raw[:-9],
                  "eval_version_1_checkpoint": raw[:8] + struct.pack("<I", 1) + raw[12:],
                  "eval_version_2_checkpoint": raw[:8] + struct.pack("<I", 2) + raw[12:],
                  "eval_version_3_checkpoint": raw[:8] + struct.pack("<I", 3) + raw[12:],
                  "eval_renamed_record": raw.replace(b"net.stereo.", b"nXt.stereo."),
                  "eval_record_name_not_utf8": raw.replace(b"net.stereo.enc1.w",
                                                           b"net.stereo.enc1.\xff"),
                  "eval_unknown_choice": edit_config(raw, b"objective=full\n",
                                                     b"objective=bogus\n"),
                  "eval_non_integer_field": edit_config(raw, b"k=2\n", b"k=5.5\n"),
                  "eval_missing_config_key": edit_config(raw, b"max_flow=4\n", b""),
                  "eval_refused_config": edit_config(raw, b"k=2\n", b"k=0\n")}
        if case in edited:
            assert edited[case] != raw
            ckpt = str(tmp_path / "edited.wck")
            with open(ckpt, "wb") as fh:
                fh.write(edited[case])
        if case in ("eval_manifest_not_utf8", "eval_manifest_nul_byte",
                    "train_manifest_nul_byte", "eval_bitmap_high_bits",
                    "train_left_only_sample", "train_mixed_extents",
                    "train_one_channel_frames", "train_two_frame_sample",
                    "eval_two_frame_sample"):
            data = str(tmp_path / "data")
            edit_dataset(small_run["data"], data, case.split("_", 1)[1])
        bad_sample = str(tmp_path / "bad.wad")
        edit = {"translate_one_channel_sample": one_channel_frames,
                "translate_two_frame_sample": two_frame_left}.get(case)
        if edit is not None:
            scene = generate_scene(51, width=32, height=16, max_disp=8, max_flow=4)
            with open(bad_sample, "wb") as fh:
                fh.write(sample_to_bytes(edit(scene)))
        translate_bad = ["translate", "--checkpoint", ckpt, "--in", bad_sample,
                         "--out", str(tmp_path / "o")]
        argv = {
            "train_missing_config": ["train", "--config", missing, "--data", data,
                                     "--out", str(tmp_path / "o")],
            "eval_missing_checkpoint": ["eval", "--checkpoint", missing, "--data", data],
            "eval_missing_data": ["eval", "--checkpoint", ckpt, "--data", missing],
            "translate_missing_sample": ["translate", "--checkpoint", ckpt, "--in", missing,
                                         "--out", str(tmp_path / "o")],
            "translate_one_channel_sample": translate_bad,
            "translate_two_frame_sample": translate_bad,
        }.get(case, ["eval", "--checkpoint", ckpt, "--data", data])
        if case.startswith("train_") and case != "train_missing_config":
            # every training sample lands in the one batch of the one step
            argv = ["train", "--data", data, "--out", str(tmp_path / "o"),
                    "--total_iters", "1", "--k", "1", "--batch_size", "3",
                    "--channels_base", "4", "--max_disp", "8", "--max_flow", "4",
                    "--val_count", "1", "--eval_every", "0"]
        capsys.readouterr()
        assert main(argv) == 3
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "Traceback" not in err


def spoil_dataset(src, dst, domain, edit, first_only=False):
    """A copy of dataset ``src`` at ``dst`` whose samples of ``domain``, or only
    the first of them, are replaced by ``edit(sample)``."""
    shutil.copytree(src, dst)
    for name in sorted(os.listdir(dst)):
        if not name.endswith(".wad"):
            continue
        path = os.path.join(dst, name)
        with open(path, "rb") as fh:
            sample = sample_from_bytes(fh.read())
        if sample.domain == domain:
            with open(path, "wb") as fh:
                fh.write(sample_to_bytes(edit(sample)))
            if first_only:
                return


def with_value(sample, field, value):
    """``sample`` whose ``field`` holds ``value`` at its first element."""
    arr = getattr(sample, field).copy()
    arr.flat[0] = value
    return SceneSample(**{**vars(sample), field: arr})


class TestIncompleteOrNonFiniteData:
    """A dataset sample missing a field, or holding a NaN, an infinity or a
    frame value outside [0, 1], is refused as it is read: exit 3, one line
    naming the file and the field or byte, and no out dir for train."""

    CASES = {
        "real_without_disparity": ("real", lambda s: replace(s, disparity=None), False,
                                   "a dataset sample needs all six fields, disparity "
                                   "is missing"),
        "synthetic_without_flow": ("synthetic", lambda s: replace(s, flow=None), False,
                                   "a dataset sample needs all six fields, flow is missing"),
        "one_synthetic_without_occlusion": ("synthetic", lambda s: replace(s, occlusion=None),
                                            True, "a dataset sample needs all six fields, "
                                                  "occlusion is missing"),
        "synthetic_without_disparity": ("synthetic", lambda s: replace(s, disparity=None),
                                        False, "a dataset sample needs all six fields, "
                                               "disparity is missing"),
        "real_nan_pixel": ("real", lambda s: with_value(s, "left", np.nan), False,
                           "non-finite value at byte 27"),
        "synthetic_inf_disparity": ("synthetic",
                                    lambda s: with_value(s, "disparity", np.inf), False,
                                    "non-finite value at byte "),
        # one flipped exponent bit makes a pixel in [0.5, 1) a value above 1.7e38
        "real_huge_pixel": ("real", lambda s: with_value(s, "left", 1.7e38), False,
                            r"left value 1\.7e\+38 outside \[0, 1\] at byte 27"),
        "one_synthetic_dark_right": ("synthetic", lambda s: with_value(s, "right", -0.25),
                                     True, r"right value -0\.25 outside \[0, 1\] at byte "),
        "one_synthetic_bright_next_left": ("synthetic",
                                           lambda s: with_value(s, "next_left", 1.0001),
                                           True, r"next_left value 1\.0001 outside \[0, 1\] "
                                                 r"at byte "),
    }

    @pytest.mark.parametrize("command, case", [
        ("eval", "real_without_disparity"), ("train", "real_without_disparity"),
        ("train", "synthetic_without_flow"), ("train", "one_synthetic_without_occlusion"),
        ("train", "synthetic_without_disparity"), ("eval", "real_nan_pixel"),
        ("train", "real_nan_pixel"), ("train", "synthetic_inf_disparity"),
        ("eval", "real_huge_pixel"), ("train", "real_huge_pixel"),
        ("eval", "one_synthetic_dark_right"), ("train", "one_synthetic_bright_next_left")])
    def test_exits_3_naming_file_and_field(self, small_run, tmp_path, capsys, command, case):
        domain, edit, first_only, message = self.CASES[case]
        data = str(tmp_path / "data")
        spoil_dataset(small_run["data"], data, domain, edit, first_only)
        out = tmp_path / "o"
        argv = {"eval": ["eval", "--checkpoint", small_run["checkpoint"], "--data", data],
                "train": ["train", "--data", data, "--out", str(out), "--total_iters", "2",
                          "--k", "2", "--batch_size", "3", "--channels_base", "4",
                          "--max_disp", "8", "--max_flow", "4", "--val_count", "1",
                          "--eval_every", "0"]}[command]
        capsys.readouterr()
        assert main(argv) == 3
        err = capsys.readouterr().err
        assert re.fullmatch(rf"error: sample_\d{{5}}\.wad: {message}\d*\n", err), err
        assert not out.exists()

    def test_non_finite_checkpoint_refused(self, small_run, tmp_path, capsys):
        state = load_checkpoint(small_run["checkpoint"])
        state.nets["stereo"].parameters()["enc1.w"].data.flat[3] = np.nan
        ckpt = str(tmp_path / "nan.wck")
        save_checkpoint(state, ckpt)
        capsys.readouterr()
        assert main(["eval", "--checkpoint", ckpt, "--data", small_run["data"]]) == 3
        err = capsys.readouterr().err
        assert re.fullmatch(r"error: nan\.wck: non-finite value at byte \d+\n", err), err

    def test_translate_needs_only_a_finite_left(self, small_run, tmp_path, capsys):
        scene = generate_scene(53, width=32, height=16, max_disp=8, max_flow=4)
        bare = SceneSample(left=scene.left, right=None, next_left=None, disparity=None,
                           flow=None, occlusion=None, domain="real")
        path = str(tmp_path / "in.wad")
        for sample, code in ((bare, 0), (with_value(bare, "left", np.inf), 3)):
            with open(path, "wb") as fh:
                fh.write(sample_to_bytes(sample))
            capsys.readouterr()
            assert main(["translate", "--checkpoint", small_run["checkpoint"], "--in", path,
                         "--out", str(tmp_path / "o")]) == code
        assert capsys.readouterr().err == "error: in.wad: non-finite value at byte 27\n"

    def test_translate_needs_a_left_in_range(self, small_run, tmp_path, capsys):
        scene = generate_scene(54, width=32, height=16, max_disp=8, max_flow=4)
        edges, hot = scene.left.copy(), scene.left.copy()
        edges[0, 0], edges[0, 1] = 0.0, 1.0
        hot[0, 1, 4:8, 4:8] = 3e38
        path = str(tmp_path / "in.wad")
        for left, code in ((edges, 0), (None, 3), (hot, 3)):
            with open(path, "wb") as fh:
                fh.write(sample_to_bytes(replace(scene, left=left, domain="real")))
            capsys.readouterr()
            assert main(["translate", "--checkpoint", small_run["checkpoint"], "--in", path,
                         "--out", str(tmp_path / "o"), "--direction", "cycle"]) == code
            if left is None:
                assert capsys.readouterr().err == ("error: in.wad: a translate input needs "
                                                   "its left frame\n")
        # channel 1, row 4, column 4 of the 16x32 frame, after the 27-byte header
        at = 27 + 4 * (16 * 32 + 4 * 32 + 4)
        assert capsys.readouterr().err == (f"error: in.wad: left value 3e+38 outside [0, 1] "
                                           f"at byte {at}\n")


class TestChangedDuringRun:
    """``train`` checks every sample before it starts, then reads each batch's
    samples from their files: a training sample that is deleted after the
    check, or rewritten with another extent or domain, stops the run with
    exit 3 and one stderr line naming it."""

    EDITS = {
        "deleted": None,
        "other_extent": generate_scene(53, width=64, height=32, max_disp=8, max_flow=4),
        "other_domain": replace(generate_scene(53, width=32, height=16, max_disp=8,
                                               max_flow=4), domain="real"),
    }

    @pytest.mark.parametrize("edit", list(EDITS))
    def test_exits_3_naming_the_file(self, small_run, tmp_path, capsys, monkeypatch, edit):
        from warpadapt import trainer
        data = str(tmp_path / "data")
        shutil.copytree(small_run["data"], data)
        path = os.path.join(data, "sample_00000.wad")   # synthetic, a training sample
        scan = trainer.scan_dataset

        def scan_then_edit(data_dir):
            checked = scan(data_dir)
            if self.EDITS[edit] is None:
                os.remove(path)
            else:
                with open(path, "wb") as fh:
                    fh.write(sample_to_bytes(self.EDITS[edit]))
            return checked

        monkeypatch.setattr(trainer, "scan_dataset", scan_then_edit)
        # every training sample lands in the one batch of the one step
        argv = ["train", "--data", data, "--out", str(tmp_path / "o"), "--total_iters", "1",
                "--k", "1", "--batch_size", "3", "--channels_base", "4", "--max_disp", "8",
                "--max_flow", "4", "--val_count", "1", "--eval_every", "0"]
        capsys.readouterr()
        assert main(argv) == 3
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1, err
        assert "sample_00000.wad" in err and "Traceback" not in err


def with_extents(raw, at, extents):
    """``raw`` with the four u32 extents of the tensor record at byte ``at`` replaced."""
    return raw[:at + 1] + struct.pack("<4I", *extents) + raw[at + 17:]


class TestOverflowingExtents:
    """A tensor record whose extents multiply past the int64 range is read as
    truncated: exit 3 and one line naming the file, for a dataset sample, a
    translate input and a checkpoint record."""

    @pytest.mark.parametrize("extents", [(65536,) * 4, (2 ** 31, 2 ** 31, 2, 1)],
                             ids=["product_wraps_to_0", "product_wraps_negative"])
    @pytest.mark.parametrize("command", ["train", "eval", "translate", "eval_checkpoint"])
    def test_exits_3_naming_the_file(self, small_run, tmp_path, capsys, command, extents):
        data, ckpt, name = str(tmp_path / "data"), small_run["checkpoint"], "sample_00000.wad"
        shutil.copytree(small_run["data"], data)
        if command == "eval_checkpoint":
            data, ckpt, name = small_run["data"], str(tmp_path / "spoiled.wck"), "spoiled.wck"
            with open(small_run["checkpoint"], "rb") as fh:
                raw = fh.read()
            # magic, version, config text, record count, then the first record's name
            at = 16 + struct.unpack_from("<I", raw, 12)[0] + 4
            at += 2 + struct.unpack_from("<H", raw, at)[0]
            with open(ckpt, "wb") as fh:
                fh.write(with_extents(raw, at, extents))
        else:
            path = os.path.join(data, name)
            with open(path, "rb") as fh:
                raw = fh.read()
            # magic, domain tag and field bitmap, then the left frame's record
            with open(path, "wb") as fh:
                fh.write(with_extents(raw, 10, extents))
        out = tmp_path / "o"
        argv = {"train": ["train", "--data", data, "--out", str(out), "--total_iters", "1",
                          "--k", "1", "--batch_size", "1", "--channels_base", "4",
                          "--max_disp", "8", "--max_flow", "4", "--val_count", "1",
                          "--eval_every", "0"],
                "translate": ["translate", "--checkpoint", ckpt,
                              "--in", os.path.join(data, name), "--out", str(out)]
                }.get(command, ["eval", "--checkpoint", ckpt, "--data", data])
        capsys.readouterr()
        assert main(argv) == 3
        err = capsys.readouterr().err
        assert err.startswith(f"error: {name}: truncated at byte ") and err.count("\n") == 1
        if command == "train":
            assert not out.exists()


def cropped(scene, height, width):
    """``scene`` with every field cropped to ``height`` x ``width``."""
    return SceneSample(**{k: v[:, :, :height, :width] if isinstance(v, np.ndarray) else v
                          for k, v in vars(scene).items()})


class TestExtentRule:
    """A sample whose extent the networks' stride-2 encoders and transposed
    decoders cannot round-trip is refused as it is read, naming the sample."""

    @pytest.mark.parametrize("command", ["translate", "eval", "train"])
    @pytest.mark.parametrize("height,width", [(16, 30), (15, 32), (16, 34)])
    def test_exits_3_naming_sample_and_rule(self, small_run, tmp_path, capsys, command,
                                            height, width):
        scene = cropped(generate_scene(52, width=36, height=20, max_disp=8, max_flow=4),
                        height, width)
        data = str(tmp_path / "data")
        shutil.copytree(small_run["data"], data)
        with open(os.path.join(data, "odd.wad"), "wb") as fh:
            fh.write(sample_to_bytes(scene))
        manifest = os.path.join(data, "manifest.txt")
        with open(manifest) as fh:
            names = fh.read()
        with open(manifest, "w") as fh:
            fh.write("odd.wad\n" + names)
        out = str(tmp_path / "o")
        argv = {"translate": ["translate", "--checkpoint", small_run["checkpoint"],
                              "--in", os.path.join(data, "odd.wad"), "--out", out],
                "eval": ["eval", "--checkpoint", small_run["checkpoint"], "--data", data],
                "train": ["train", "--data", data, "--out", out, "--total_iters", "1",
                          "--k", "1", "--batch_size", "1", "--channels_base", "4",
                          "--max_disp", "8", "--max_flow", "4", "--val_count", "1",
                          "--eval_every", "0"]}[command]
        capsys.readouterr()
        assert main(argv) == 3
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert err.startswith("error: odd.wad: left ")
        assert f" is {width}x{height}, but extents must be >= 8 and divisible by 4" in err
        assert not os.path.exists(out)


class TestCorrelationRange:
    """Data too small for the networks' quarter-resolution correlation ranges
    is refused before a run starts, in one line naming the key, the data's
    extent and the rule."""

    RULE = "the networks need width > max_disp, width > max_flow and height > max_flow"

    @staticmethod
    def dataset(root, width, height):
        data = str(root / f"d{width}x{height}")
        assert main(["generate", "--count", "2", "--seed", "5", "--out", data,
                     "--width", str(width), "--height", str(height)]) == 0
        return data

    @pytest.mark.parametrize("width, height, overrides, message", [
        (16, 8, [], "max_disp 16 does not fit the data's 16x8 extent"),
        (8, 16, ["--max_disp", "4", "--max_flow", "8"],
         "max_flow 8 does not fit the data's 8x16 extent"),
        (16, 8, ["--max_disp", "8", "--max_flow", "8"],
         "max_flow 8 does not fit the data's 16x8 extent"),
    ], ids=["max_disp_vs_width", "max_flow_vs_width", "max_flow_vs_height"])
    def test_train_exits_2_before_making_out_dir(self, tmp_path, capsys, width, height,
                                                 overrides, message):
        data = self.dataset(tmp_path, width, height)
        out = tmp_path / "o"
        capsys.readouterr()
        assert main(["train", "--data", data, "--out", str(out), "--total_iters", "1",
                     "--val_count", "1"] + overrides) == 2
        err = capsys.readouterr().err
        assert err == f"error: {message}: {self.RULE}\n"
        assert not out.exists()

    def test_eval_exits_2(self, small_run, tmp_path, capsys):
        # the checkpoint's max_disp is 8
        data = self.dataset(tmp_path, 8, 8)
        capsys.readouterr()
        assert main(["eval", "--checkpoint", small_run["checkpoint"], "--data", data]) == 2
        err = capsys.readouterr().err
        assert err == f"error: max_disp 8 does not fit the data's 8x8 extent: {self.RULE}\n"
        # the oracle scores the ground truth and runs no network
        assert main(["eval", "--checkpoint", small_run["checkpoint"], "--data", data,
                     "--oracle"]) == 0

    def test_largest_ranges_that_fit_train(self, tmp_path):
        data = self.dataset(tmp_path, 16, 8)
        assert main(["train", "--data", data, "--out", str(tmp_path / "o"),
                     "--total_iters", "1", "--k", "1", "--batch_size", "1",
                     "--channels_base", "4", "--max_disp", "12", "--max_flow", "4",
                     "--val_count", "1", "--eval_every", "0"]) == 0


class TestTranslate:
    def test_cycle_writes_triple(self, small_run, tmp_path, capsys):
        from warpadapt.scenegen import read_dataset, split_domains
        _, real = split_domains(read_dataset(small_run["data"]))
        sample_file = None
        with open(os.path.join(small_run["data"], "manifest.txt")) as fh:
            names = [l.strip() for l in fh]
        # find a real-domain file
        from warpadapt.scenegen import sample_from_bytes
        for n in names:
            with open(os.path.join(small_run["data"], n), "rb") as fh:
                if sample_from_bytes(fh.read(), n).domain == "real":
                    sample_file = os.path.join(small_run["data"], n)
                    break
        out = str(tmp_path / "tr")
        assert main(["translate", "--checkpoint", small_run["checkpoint"],
                     "--in", sample_file, "--out", out, "--direction", "cycle"]) == 0
        for stem in ("original", "fake_synthetic", "reconstructed"):
            assert os.path.exists(os.path.join(out, stem + ".wad"))
            assert os.path.exists(os.path.join(out, stem + ".ppm"))
        assert "reconstruction psnr=" in capsys.readouterr().out

    @pytest.mark.parametrize("direction, stems", [
        ("a2b", [("input", (), "real"), ("output", ("gen_a2b",), "real")]),
        ("b2a", [("input", (), "real"), ("output", ("gen_b2a",), "synthetic")]),
        ("cycle", [("original", (), "real"), ("fake_synthetic", ("gen_b2a",), "synthetic"),
                   ("reconstructed", ("gen_b2a", "gen_a2b"), "real")])])
    def test_each_stem_is_its_generators_applied_to_the_input(self, small_run, tmp_path,
                                                              capsys, direction, stems):
        from warpadapt import metrics
        from warpadapt.autograd import Tensor, no_grad
        path = os.path.join(small_run["data"], "sample_00004.wad")  # the first real sample
        with open(path, "rb") as fh:
            sample = sample_from_bytes(fh.read())
        assert sample.domain == "real"
        nets = load_checkpoint(small_run["checkpoint"]).nets
        out = str(tmp_path / "tr")
        capsys.readouterr()
        assert main(["translate", "--checkpoint", small_run["checkpoint"], "--in", path,
                     "--out", out, "--direction", direction]) == 0
        assert sorted(os.listdir(out)) == sorted(stem + ext for stem, _, _ in stems
                                                 for ext in (".ppm", ".wad"))
        for stem, gens, domain in stems:
            image = Tensor(sample.left)
            with no_grad():
                for gen in gens:
                    image = nets[gen].translate(image)
            with open(os.path.join(out, stem + ".wad"), "rb") as fh:
                assert fh.read() == sample_to_bytes(SceneSample(
                    left=image.data, right=None, next_left=None, disparity=None, flow=None,
                    occlusion=None, domain=domain))
        printed = capsys.readouterr().out
        if direction == "cycle":
            assert f"reconstruction psnr={metrics.psnr(image.data, sample.left):.6g}\n" in printed
        else:
            assert "psnr" not in printed

    def test_domain_mismatch_warns_but_proceeds(self, small_run, tmp_path, capsys):
        from warpadapt.scenegen import sample_from_bytes
        with open(os.path.join(small_run["data"], "manifest.txt")) as fh:
            names = [l.strip() for l in fh]
        syn_file = None
        for n in names:
            with open(os.path.join(small_run["data"], n), "rb") as fh:
                if sample_from_bytes(fh.read(), n).domain == "synthetic":
                    syn_file = os.path.join(small_run["data"], n)
                    break
        out = str(tmp_path / "tr2")
        assert main(["translate", "--checkpoint", small_run["checkpoint"],
                     "--in", syn_file, "--out", out, "--direction", "cycle"]) == 0
        assert "warning" in capsys.readouterr().err

    def test_ppm_format(self, tmp_path):
        img = np.zeros((1, 3, 2, 3), dtype=np.float32)
        img[0, 0] = 1.0
        path = str(tmp_path / "x.ppm")
        write_ppm(path, img)
        raw = open(path, "rb").read()
        assert raw.startswith(b"P6\n3 2\n255\n")
        assert len(raw) == len(b"P6\n3 2\n255\n") + 2 * 3 * 3


class TestGradcheckCommand:
    def test_passes_and_exits_zero(self, capsys):
        assert main(["gradcheck", "--seed", "0"]) == 0
        out = capsys.readouterr().out
        assert "checks passed" in out
        assert "FAIL" not in out
