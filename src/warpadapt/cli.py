"""Command-line surface: dataset generation, training, evaluation, translation
inspection, and the gradient self-check.

Exit codes: 0 success, 1 verification failure, 2 usage/config error,
3 data/I-O error.
"""

from __future__ import annotations

import argparse
import os
import sys
import warnings

import numpy as np

from . import metrics as M
from .autograd import Tensor, no_grad
from .errors import ConfigError, FormatError, MetricError, NonFiniteError, UsageError
from .scenegen import (SceneSample, apply_domain_shift, check_scene_params,
                       generate_scene, sample_from_bytes, sample_to_bytes,
                       scan_dataset, shift_preset, write_dataset)
from .trainer import (CONFIG_KEYS, _holdout, build_train_config, check_data_extent,
                      load_checkpoint, parse_config_text, run_training)

EXIT_OK = 0
EXIT_VERIFY = 1
EXIT_USAGE = 2
EXIT_DATA = 3


def _apply_overrides(kv: dict, extra: list) -> dict:
    if len(extra) % 2:
        raise ConfigError(f"dangling override {extra[-1]!r} (expected --key value)")
    for flag, val in zip(extra[::2], extra[1::2]):
        if not flag.startswith("--"):
            raise ConfigError(f"expected --key, got {flag!r}")
        key = flag[2:]
        if key not in CONFIG_KEYS:
            raise ConfigError(f"unknown config key {key!r}")
        kv[key] = val
    return kv


def write_ppm(path: str, image: np.ndarray) -> None:
    """8-bit binary PPM of a (1, 3, h, w) unit-range image."""
    img = np.clip(np.asarray(image)[0], 0.0, 1.0)
    h, w = img.shape[1], img.shape[2]
    data = (img * 255.0 + 0.5).astype(np.uint8).transpose(1, 2, 0)
    with open(path, "wb") as fh:
        fh.write(f"P6\n{w} {h}\n255\n".encode())
        fh.write(data.tobytes())


def _write_image_pair(out_dir: str, name: str, image: np.ndarray, domain: str) -> None:
    sample = SceneSample(left=image, right=None, next_left=None, disparity=None,
                         flow=None, occlusion=None, domain=domain)
    with open(os.path.join(out_dir, name + ".wad"), "wb") as fh:
        fh.write(sample_to_bytes(sample))
    write_ppm(os.path.join(out_dir, name + ".ppm"), image)


# -- subcommands -------------------------------------------------------------------

def cmd_generate(args) -> int:
    for name in ("count", "seed"):
        if getattr(args, name) < 0:
            raise ConfigError(f"{name} must be >= 0, got {getattr(args, name)}")
    check_scene_params(args.width, args.height, args.max_disp, args.max_flow)
    shift = shift_preset(args.shift_preset)
    samples = []
    for i in range(args.count):
        samples.append(generate_scene(args.seed + i, width=args.width,
                                      height=args.height, max_disp=args.max_disp,
                                      max_flow=args.max_flow))
    for i in range(args.count):
        scene = generate_scene(args.seed + args.count + i, width=args.width,
                               height=args.height, max_disp=args.max_disp,
                               max_flow=args.max_flow)
        samples.append(apply_domain_shift(scene, shift, seed=args.seed + i))
    write_dataset(samples, args.out)
    print(f"wrote {args.count} synthetic + {args.count} real samples "
          f"({args.width}x{args.height}, max_disp {args.max_disp}, "
          f"max_flow {args.max_flow}, preset {args.shift_preset}) to {args.out}")
    return EXIT_OK


def cmd_train(args, extra) -> int:
    kv = {}
    if args.config:
        try:
            with open(args.config, encoding="utf-8") as fh:
                text = fh.read()
        except UnicodeDecodeError as exc:
            raise ConfigError(f"{args.config}: invalid UTF-8 at byte {exc.start}") from None
        kv = parse_config_text(text, args.config)
    kv = _apply_overrides(kv, extra)
    config = build_train_config(kv)
    state, log_lines, report = run_training(config, args.data, args.out,
                                            resume=args.resume)
    echo = " ".join(f"{k}={v}" for k, v in sorted(kv.items()))
    print(f"config: {echo}" if echo else "config: defaults")
    print(f"trained {state.iteration} iterations; final validation:")
    print(report.to_text())
    return EXIT_OK


def cmd_eval(args) -> int:
    state = load_checkpoint(args.checkpoint)
    _, real = scan_dataset(args.data)
    val = list(_holdout(real, state.config.val_count)[1])
    if val and not args.oracle:
        check_data_extent(state.config, real.extent)
    d1_mode = args.d1_mode or state.config.d1_mode
    report = M.evaluate(state.nets, val, d1_mode=d1_mode, oracle=args.oracle,
                        config={"checkpoint": os.path.basename(args.checkpoint),
                                "iteration": state.iteration, "d1_mode": d1_mode})
    print(report.to_text())
    print(report.csv_header())
    print(report.to_csv_row())
    return EXIT_OK


def cmd_translate(args) -> int:
    state = load_checkpoint(args.checkpoint)
    name = os.path.basename(args.sample)
    with open(args.sample, "rb") as fh:
        sample = sample_from_bytes(fh.read(), label=name)
    if sample.left is None:
        raise FormatError(f"{name}: a translate input needs its left frame")
    os.makedirs(args.out, exist_ok=True)

    expected = {"a2b": "synthetic", "b2a": "real", "cycle": "real"}[args.direction]
    if sample.domain != expected:
        print(f"warning: direction {args.direction} expects a {expected} sample, "
              f"got {sample.domain}; proceeding", file=sys.stderr)

    image = Tensor(sample.left)
    ga, gb = state.nets["gen_a2b"], state.nets["gen_b2a"]
    with no_grad():
        if args.direction == "a2b":
            out = ga.translate(image)
            _write_image_pair(args.out, "input", sample.left, sample.domain)
            _write_image_pair(args.out, "output", out.data, "real")
        elif args.direction == "b2a":
            out = gb.translate(image)
            _write_image_pair(args.out, "input", sample.left, sample.domain)
            _write_image_pair(args.out, "output", out.data, "synthetic")
        else:
            fake = gb.translate(image)
            rec = ga.translate(fake)
            _write_image_pair(args.out, "original", sample.left, sample.domain)
            _write_image_pair(args.out, "fake_synthetic", fake.data, "synthetic")
            _write_image_pair(args.out, "reconstructed", rec.data, "real")
            print(f"reconstruction psnr={M.psnr(rec.data, sample.left):.6g}")
    print(f"wrote {args.direction} translation of {args.sample} to {args.out}")
    return EXIT_OK


def cmd_gradcheck(args) -> int:
    from .checks import run_suite
    results = run_suite(seed=args.seed)
    width = max(len(r.name) for r in results)
    failures = 0
    for r in results:
        mark = "ok " if r.passed else "FAIL"
        print(f"{mark} {r.name:<{width}} err={r.error:.3e} tol={r.threshold:g}")
        failures += not r.passed
    print(f"{len(results) - failures}/{len(results)} checks passed")
    if failures:
        print(f"error: {failures} gradient check(s) failed", file=sys.stderr)
        return EXIT_VERIFY
    return EXIT_OK


# every subcommand but train, which also takes the config overrides
COMMANDS = {"generate": cmd_generate, "eval": cmd_eval, "translate": cmd_translate,
            "gradcheck": cmd_gradcheck}


def make_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="warpadapt",
                                description="joint translation/stereo/flow co-training")
    sub = p.add_subparsers(dest="command", required=True)

    g = sub.add_parser("generate", help="write a paired-domain dataset")
    g.add_argument("--out", required=True)
    g.add_argument("--count", type=int, default=200)
    g.add_argument("--seed", type=int, default=0)
    g.add_argument("--width", type=int, default=128)
    g.add_argument("--height", type=int, default=64)
    g.add_argument("--max-disp", type=int, default=16)
    g.add_argument("--max-flow", type=int, default=8)
    g.add_argument("--shift-preset", default="default")

    t = sub.add_parser("train", help="run the alternating optimization")
    t.add_argument("--config", default=None)
    t.add_argument("--data", required=True)
    t.add_argument("--out", required=True)
    t.add_argument("--resume", default=None)

    e = sub.add_parser("eval", help="score a checkpoint on the validation split")
    e.add_argument("--checkpoint", required=True)
    e.add_argument("--data", required=True)
    e.add_argument("--d1-mode", choices=M.D1_MODES, default=None,
                   help="default: the checkpoint's d1_mode")
    e.add_argument("--oracle", action="store_true")

    tr = sub.add_parser("translate", help="translate one sample and write images")
    tr.add_argument("--checkpoint", required=True)
    tr.add_argument("--in", dest="sample", required=True)
    tr.add_argument("--out", required=True)
    tr.add_argument("--direction", choices=("a2b", "b2a", "cycle"), default="cycle")

    gc = sub.add_parser("gradcheck", help="finite-difference verification sweep")
    gc.add_argument("--seed", type=int, default=0)
    return p


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    parser = make_parser()
    extra: list = []
    try:
        if argv and argv[0] == "train":
            args, extra = parser.parse_known_args(argv)
        else:
            args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code else EXIT_OK
    with warnings.catch_warnings():
        # one line per warning, like the error lines below
        warnings.showwarning = lambda message, *_: print(f"warning: {message}", file=sys.stderr)
        try:
            if args.command == "train":
                return cmd_train(args, extra)
            return COMMANDS[args.command](args)
        except (ConfigError, UsageError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return EXIT_USAGE
        except (FormatError, MetricError, OSError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return EXIT_DATA
        except NonFiniteError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return EXIT_VERIFY


if __name__ == "__main__":
    sys.exit(main())
