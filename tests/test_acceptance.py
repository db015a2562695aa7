"""Acceptance suite: one test per criterion, printing a pass/fail line each.

Criteria 1-5, 8 and 9 are implemented and finish in seconds. Criteria 6
(adaptation beats source-only training) and 7 (ablation trends) are not
implemented yet. Run with ``-s`` to watch the lines stream.
"""

import math
import time

import numpy as np
import pytest

from warpadapt import kernels as K
from warpadapt import losses as L
from warpadapt import metrics as M
from warpadapt import trainer as T
from warpadapt.autograd import Tensor
from warpadapt.checks import run_suite
from warpadapt.scenegen import (apply_domain_shift, generate_scene, read_dataset,
                                shift_preset, split_domains, write_dataset)
from warpadapt.warping import multiscale_warp_loss, resize_field, warp

from test_kernels import ssim_bruteforce
from test_metrics import epe_bruteforce, psnr_bruteforce, rate_bruteforce


def announce(num: int, ok: bool, summary: str):
    print(f"\n{'PASS' if ok else 'FAIL'} criterion {num}: {summary}")
    assert ok, f"criterion {num}: {summary}"


# -- criterion 1: gradient suite ---------------------------------------------------

class TestCriterion1:
    def test_gradient_suite(self):
        t0 = time.perf_counter()
        results = run_suite(seed=0)
        elapsed = time.perf_counter() - t0
        bad = [r for r in results if not r.passed]
        ok = not bad and elapsed < 120.0
        detail = "; ".join(f"{r.name}={r.error:.1e}" for r in bad) or "all within tolerance"
        announce(1, ok, f"gradient suite: {len(results)} checks, {detail}, "
                        f"{elapsed:.1f}s (< 120s)")


# -- criterion 2: warp oracles ------------------------------------------------------

def smooth_image(shape, seed):
    rng = np.random.default_rng(seed)
    t = Tensor(rng.uniform(0, 1, size=shape).astype(np.float32))
    t = K.gaussian_blur(K.gaussian_blur(t, 7, 2.0), 7, 2.0)
    return Tensor(t.data)


class TestCriterion2:
    def test_warp_oracles(self):
        rng = np.random.default_rng(1234)
        id_fail = trans_fail = scale_fail = 0

        for seed in range(100):
            r = np.random.default_rng(seed)
            h = 4 * int(r.integers(2, 6))
            w = 4 * int(r.integers(3, 8))
            img = Tensor(r.uniform(0, 1, (1, 3, h, w)).astype(np.float32))
            zero_d = Tensor(np.zeros((1, 1, h, w), np.float32))
            zero_f = Tensor(np.zeros((1, 2, h, w), np.float32))
            if not np.array_equal(warp(img, zero_d).data, img.data):
                id_fail += 1
            if not np.array_equal(warp(img, zero_f).data, img.data):
                id_fail += 1

        for seed in range(100):
            r = np.random.default_rng(10_000 + seed)
            h, w = 16, 32
            if seed % 2 == 0:             # integer translation, near-exact
                u, v = int(r.integers(1, 4)), int(r.integers(0, 3))
                tol = 1e-5
            else:                         # fractional translation, bilinear blur
                u = float(r.uniform(0.5, 3.0))
                v = float(r.uniform(0.0, 2.0))
                tol = 1e-2
            # both frames sampled exactly from one analytic low-frequency texture,
            # so the only interpolation under test is the warp's own
            base = _analytic_frame(r, h, w, 0.0, 0.0)
            nxt = _analytic_frame(r, h, w, u, v, reuse=base[1])
            field = Tensor(np.stack(
                [np.full((h, w), u), np.full((h, w), v)]).reshape(1, 2, h, w).astype(np.float32))
            back = warp(Tensor(nxt[0]), field, sign=1)
            mu = int(math.ceil(u))
            mv = int(math.ceil(v))
            interior = (slice(None), slice(None), slice(mv, h - mv - 1 or None),
                        slice(mu, w - mu - 1 or None))
            err = np.abs(back.data[interior] - base[0][interior]).max()
            if err >= tol:
                trans_fail += 1

        for seed in range(100):
            img = smooth_image((1, 1, 16, 24), 20_000 + seed)
            r = np.random.default_rng(20_000 + seed)
            f = K.gaussian_blur(Tensor(r.uniform(0, 3, (1, 1, 16, 24)).astype(np.float32)),
                                7, 2.0)
            field = Tensor(f.data)
            full = warp(img, field)
            half = warp(Tensor(K.downsample2(img).data), resize_field(field, (8, 12)))
            got = K.downsample2(full).data[:, :, 1:-1, 2:-2]
            want = half.data[:, :, 1:-1, 2:-2]
            if np.abs(got - want).mean() >= 1e-2:
                scale_fail += 1

        ok = id_fail == 0 and trans_fail == 0 and scale_fail == 0
        announce(2, ok, f"warp oracles over 100 seeds each: identity fails {id_fail}, "
                        f"translation fails {trans_fail}, rescale fails {scale_fail}")


def _analytic_frame(rng, h, w, u, v, reuse=None):
    """Two-sinusoid texture (wavelength >= 16 px) sampled at coordinates shifted
    by (u, v); curvature is low enough that bilinear error stays under 1e-2."""
    if reuse is None:
        waves = [(0.15, 2 * np.pi / rng.uniform(16, 40), rng.uniform(0, np.pi),
                  rng.uniform(0, 2 * np.pi, 2)) for _ in range(2)]
    else:
        waves = reuse
    ys, xs = np.meshgrid(np.arange(h, dtype=np.float64),
                         np.arange(w, dtype=np.float64), indexing="ij")
    xs = xs - u
    ys = ys - v
    img = np.full((1, 2, h, w), 0.5)
    for amp, k, theta, phase in waves:
        proj = k * (xs * np.cos(theta) + ys * np.sin(theta))
        for c in range(2):
            img[0, c] += amp * np.sin(proj + phase[c])
    return img.astype(np.float32), waves


def _sample_bilinear(img, xs, ys):
    """Independent float64 bilinear sampler (zero outside)."""
    b, c, h, w = img.shape
    out = np.zeros((b, c) + xs.shape)
    x0 = np.floor(xs).astype(int)
    y0 = np.floor(ys).astype(int)
    fx = xs - x0
    fy = ys - y0
    for dy in (0, 1):
        for dx in (0, 1):
            xi, yi = x0 + dx, y0 + dy
            wgt = (fx if dx else 1 - fx) * (fy if dy else 1 - fy)
            okm = (xi >= 0) & (xi < w) & (yi >= 0) & (yi < h)
            vals = img[:, :, np.clip(yi, 0, h - 1), np.clip(xi, 0, w - 1)]
            out += wgt * np.where(okm, 1.0, 0.0) * vals
    return out


# -- criterion 3: metric oracles ------------------------------------------------------

class TestCriterion3:
    def test_metric_oracles(self):
        rng = np.random.default_rng(7)
        worst = 0.0
        for size in (8, 12, 16):
            for c in (1, 2):
                pred = rng.uniform(0, 12, (1, c, size, size))
                gt = rng.uniform(0, 12, (1, c, size, size))
                worst = max(worst, abs(M.epe(pred, gt) - epe_bruteforce(pred, gt)))
                for mode in ("or", "and"):
                    got = M.threshold_error_rate(pred, gt, 3.0, 0.05, mode=mode)
                    want = rate_bruteforce(pred, gt, 3.0, 0.05, mode=mode)
                    worst = max(worst, abs(got - want))
                for t in (2.0, 4.0, 5.0):
                    worst = max(worst, abs(M.threshold_error_rate(pred, gt, t)
                                           - rate_bruteforce(pred, gt, t)))
            a = rng.uniform(0, 1, (1, 3, size, size))
            b = rng.uniform(0, 1, (1, 3, size, size))
            worst = max(worst, abs(M.psnr(a, b) - psnr_bruteforce(a, b)))
            worst = max(worst, abs(M.ssim_metric(a, b) - ssim_bruteforce(a, b).mean()))
        ok = worst < 1e-6
        announce(3, ok, f"metric oracles (EPE, D1/F1 or+and, 2/4/5px, PSNR, SSIM): "
                        f"max |impl - bruteforce| = {worst:.2e} (< 1e-6)")


# -- criterion 4: loss identities ------------------------------------------------------

class TestCriterion4:
    def test_loss_identities(self):
        rng = np.random.default_rng(11)
        w = L.LossWeights()
        checks = []

        # weighted-sum reconstruction from the breakdown, 1e-5 relative
        keys = ["adv_syn2real_gen", "adv_real2syn_gen", "cycle", "perceptual",
                "cosine", "disp_warp_syn", "flow_warp_syn", "corr_consistency",
                "mode_seeking"]
        parts = {k: Tensor(np.full((1, 1, 1, 1), rng.uniform(0.1, 2.0))) for k in keys}
        total, translation = L.translation_objective(parts, w)
        manual_translation = (parts["adv_syn2real_gen"].item()
                              + parts["adv_real2syn_gen"].item()
                              + w.lambda_cycle * parts["cycle"].item()
                              + w.lambda_perceptual * parts["perceptual"].item()
                              + w.lambda_cosine * parts["cosine"].item())
        manual_total = (w.lambda_translation * manual_translation
                        + w.lambda_disp_warp_syn * parts["disp_warp_syn"].item()
                        + w.lambda_flow_warp_syn * parts["flow_warp_syn"].item()
                        + w.lambda_corr * parts["corr_consistency"].item()
                        + w.lambda_ms * parts["mode_seeking"].item())
        checks.append(abs(translation.item() - manual_translation)
                      <= 1e-5 * abs(manual_translation))
        checks.append(abs(total.item() - manual_total) <= 1e-5 * abs(manual_total))
        tparts = {k: Tensor(np.full((1, 1, 1, 1), rng.uniform(0.1, 2.0)))
                  for k in ("disp_supervised", "disp_warp_real",
                            "flow_supervised", "flow_warp_real")}
        sd = L.stereo_objective(tparts, w)
        sf = L.flow_objective(tparts, w)
        want_d = tparts["disp_supervised"].item() + 5 * tparts["disp_warp_real"].item()
        want_f = tparts["flow_supervised"].item() + 5 * tparts["flow_warp_real"].item()
        checks.append(abs(sd.item() - want_d) <= 1e-5 * want_d)
        checks.append(abs(sf.item() - want_f) <= 1e-5 * want_f)

        # perfectly consistent inputs drive every non-adversarial loss to exactly 0
        img = Tensor(rng.uniform(0, 1, (1, 3, 16, 16)))
        from warpadapt.networks import Extractor
        ext = Extractor(seed=2)
        checks.append(L.cycle_loss(img, img).item() == 0.0)
        checks.append(L.perceptual_loss(img, img, ext).item() == 0.0)
        checks.append(L.cosine_loss(img, img).item() < 1e-6)
        checks.append(L.corr_consistency_loss(img, img, img, img, max_disp=4).item() == 0.0)
        checks.append(L.mode_seeking_loss(img, img, img, img).item() == 0.0)
        taps = [Tensor(rng.uniform(-1, 1, (1, 2, 16, 16))),
                Tensor(rng.uniform(-1, 1, (1, 4, 8, 8)))]
        zf = Tensor(np.zeros((1, 1, 16, 16)))
        checks.append(multiscale_warp_loss(zf, [(taps, taps, 1)]).item() == 0.0)
        gt = Tensor(np.full((1, 1, 16, 16), 3.0))
        stages = [Tensor(np.full((1, 1, 8, 8), 1.5)), Tensor(np.full((1, 1, 16, 16), 3.0))]
        checks.append(L.supervised_disp_loss(stages, gt).item() == 0.0)

        # default weights verbatim
        checks.append((w.lambda_translation, w.lambda_disp_warp_syn,
                       w.lambda_flow_warp_syn, w.lambda_corr, w.lambda_ms,
                       w.lambda_disp, w.lambda_disp_warp_real, w.lambda_flow,
                       w.lambda_flow_warp_real)
                      == (10, 5, 5, 1, 0.1, 1, 5, 1, 5))

        ok = all(checks)
        announce(4, ok, f"loss identities: {sum(checks)}/{len(checks)} checks "
                        "(weighted-sum 1e-5, exact zeros, default weights verbatim)")


# -- criterion 5: schedule discipline ---------------------------------------------------

class TestCriterion5:
    def test_schedule_audit(self, tmp_path):
        k = 5
        iters = 50
        shift = shift_preset("mild")
        syn = [generate_scene(i, width=32, height=16, max_disp=8, max_flow=4)
               for i in range(5)]
        real = [apply_domain_shift(generate_scene(50 + i, width=32, height=16,
                                                  max_disp=8, max_flow=4), shift, i)
                for i in range(5)]
        cfg = T.TrainConfig(k=k, total_iters=iters, batch_size=1, channels_base=4,
                            max_disp=8, max_flow=4, val_count=0, eval_every=0, seed=3)
        state = T.init_state(cfg)
        n_translation = n_task = 0
        violations = 0
        for it in range(iters):
            si = T._batch_indices(len(syn), 1, cfg.seed, 1, it)
            ri = T._batch_indices(len(real), 1, cfg.seed, 2, it)
            before = {n: T.param_digest(net) for n, net in state.nets.items()}
            T.train_step(state, T.make_batch(syn, si), T.make_batch(real, ri))
            after = {n: T.param_digest(net) for n, net in state.nets.items()}
            translation_moved = any(before[n] != after[n]
                                    for n in ("gen_a2b", "gen_b2a", "disc_a", "disc_b"))
            task_moved = any(before[n] != after[n] for n in ("stereo", "flow"))
            if it % k == 0:
                n_translation += translation_moved
                violations += task_moved
            else:
                n_task += task_moved
                violations += translation_moved
            violations += before["extractor"] != after["extractor"]
        expected_translation = -(-iters // k)
        ok = (violations == 0 and n_translation == expected_translation
              and n_task == iters - expected_translation)
        announce(5, ok, f"schedule over {iters} iterations: {n_translation} translation "
                        f"updates (expected {expected_translation}), {n_task} task updates, "
                        f"{violations} freeze violations")


# -- criterion 8: reproducibility --------------------------------------------------------

class TestCriterion8:
    def test_bit_identical_runs(self, tmp_path):
        shift = shift_preset("mild")
        samples = [generate_scene(i, width=32, height=16, max_disp=8, max_flow=4)
                   for i in range(4)]
        samples += [apply_domain_shift(generate_scene(40 + i, width=32, height=16,
                                                      max_disp=8, max_flow=4), shift, i)
                    for i in range(4)]
        data = str(tmp_path / "data")
        write_dataset(samples, data)
        cfg = T.TrainConfig(k=3, total_iters=9, batch_size=1, channels_base=4,
                            max_disp=8, max_flow=4, val_count=1, eval_every=3, seed=2)
        _, log1, rep1 = T.run_training(cfg, data, str(tmp_path / "r1"))
        _, log2, rep2 = T.run_training(cfg, data, str(tmp_path / "r2"))
        ck1 = open(tmp_path / "r1" / "checkpoint_final.wck", "rb").read()
        ck2 = open(tmp_path / "r2" / "checkpoint_final.wck", "rb").read()
        lg1 = open(tmp_path / "r1" / "train.log", "rb").read()
        lg2 = open(tmp_path / "r2" / "train.log", "rb").read()
        ok = log1 == log2 and ck1 == ck2 and lg1 == lg2 and rep1.to_text() == rep2.to_text()
        announce(8, ok, "two identical-seed runs: logs, checkpoints and reports bit-identical")


# -- criterion 9: round trips --------------------------------------------------------------

class TestCriterion9:
    def test_round_trips_and_resume(self, tmp_path):
        shift = shift_preset("mild")
        samples = [generate_scene(i, width=32, height=16, max_disp=8, max_flow=4)
                   for i in range(4)]
        samples += [apply_domain_shift(generate_scene(60 + i, width=32, height=16,
                                                      max_disp=8, max_flow=4), shift, i)
                    for i in range(4)]
        data = str(tmp_path / "data")
        write_dataset(samples, data)
        back = read_dataset(data)
        data_ok = all(
            np.array_equal(getattr(a, f), getattr(b, f))
            for a, b in zip(samples, back)
            for f in ("left", "right", "next_left", "disparity", "flow", "occlusion"))

        cfg20 = T.TrainConfig(k=3, total_iters=21, batch_size=1, channels_base=4,
                              max_disp=8, max_flow=4, val_count=1, eval_every=0, seed=4)
        _, log_full, _ = T.run_training(cfg20, data, str(tmp_path / "full"))
        cfg10 = T.TrainConfig(k=3, total_iters=9, batch_size=1, channels_base=4,
                              max_disp=8, max_flow=4, val_count=1, eval_every=0, seed=4)
        T.run_training(cfg10, data, str(tmp_path / "short"))
        ck = str(tmp_path / "short" / "checkpoint_final.wck")
        loaded = T.load_checkpoint(ck, cfg10)
        T.save_checkpoint(loaded, str(tmp_path / "resaved.wck"))
        ck_ok = open(ck, "rb").read() == open(tmp_path / "resaved.wck", "rb").read()

        _, log_res, _ = T.run_training(cfg20, data, str(tmp_path / "res"), resume=ck)
        steps_full = [l for l in log_full if not l.startswith("eval")]
        steps_res = [l for l in log_res if not l.startswith("eval")]
        resume_ok = steps_res == steps_full[9:] and len(steps_res) >= 10

        ok = data_ok and ck_ok and resume_ok
        announce(9, ok, f"round trips: dataset bit-exact {data_ok}, checkpoint "
                        f"re-save bit-exact {ck_ok}, resume matches uninterrupted "
                        f"for {len(steps_res)} iterations {resume_ok}")
