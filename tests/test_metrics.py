import math

import numpy as np
import pytest

from warpadapt import metrics as M
from warpadapt.errors import MetricError, UsageError
from warpadapt.networks import Extractor
from warpadapt.scenegen import apply_domain_shift, generate_scene, shift_preset

from test_kernels import ssim_bruteforce


# -- 64-bit brute-force oracles --------------------------------------------------

def epe_bruteforce(pred, gt):
    total, count = 0.0, 0
    b, c, h, w = pred.shape
    for n in range(b):
        for y in range(h):
            for x in range(w):
                if c == 1:
                    e = abs(float(pred[n, 0, y, x]) - float(gt[n, 0, y, x]))
                else:
                    du = float(pred[n, 0, y, x]) - float(gt[n, 0, y, x])
                    dv = float(pred[n, 1, y, x]) - float(gt[n, 1, y, x])
                    e = math.sqrt(du * du + dv * dv)
                total += e
                count += 1
    return total / count


def rate_bruteforce(pred, gt, abs_t, rel_t=None, mode="or"):
    bad, count = 0, 0
    b, c, h, w = pred.shape
    for n in range(b):
        for y in range(h):
            for x in range(w):
                if c == 1:
                    e = abs(float(pred[n, 0, y, x]) - float(gt[n, 0, y, x]))
                    mag = abs(float(gt[n, 0, y, x]))
                else:
                    du = float(pred[n, 0, y, x]) - float(gt[n, 0, y, x])
                    dv = float(pred[n, 1, y, x]) - float(gt[n, 1, y, x])
                    e = math.sqrt(du * du + dv * dv)
                    mag = math.sqrt(float(gt[n, 0, y, x]) ** 2 + float(gt[n, 1, y, x]) ** 2)
                if rel_t is None:
                    hit = e > abs_t
                elif mode == "or":
                    hit = e > abs_t or e > rel_t * mag
                else:
                    hit = e > abs_t and e > rel_t * mag
                bad += hit
                count += 1
    return 100.0 * bad / count


def psnr_bruteforce(a, b):
    se, n = 0.0, 0
    for av, bv in zip(a.reshape(-1), b.reshape(-1)):
        se += (float(av) - float(bv)) ** 2
        n += 1
    mse = se / n
    return float("inf") if mse == 0 else 10.0 * math.log10(1.0 / mse)


class TestEPE:
    def test_exact_prediction(self):
        gt = np.random.default_rng(0).uniform(0, 5, (1, 1, 4, 4))
        assert M.epe(gt, gt) == 0.0

    def test_hand_case(self):
        gt = np.array([[1.0, 2.0], [3.0, 4.0]]).reshape(1, 1, 2, 2)
        pred = np.array([[2.0, 2.0], [3.0, 4.0]]).reshape(1, 1, 2, 2)
        assert M.epe(pred, gt) == pytest.approx(0.25)

    def test_flow_euclidean(self):
        gt = np.zeros((1, 2, 3, 3))
        pred = np.zeros((1, 2, 3, 3))
        pred[:, 0] = 3.0
        pred[:, 1] = 4.0
        assert M.epe(pred, gt) == pytest.approx(5.0)

    def test_matches_bruteforce(self):
        rng = np.random.default_rng(1)
        for c, seed in ((1, 2), (2, 3)):
            pred = rng.uniform(0, 8, (1, c, 8, 8))
            gt = rng.uniform(0, 8, (1, c, 8, 8))
            assert M.epe(pred, gt) == pytest.approx(epe_bruteforce(pred, gt), abs=1e-9)


class TestThresholdRate:
    def test_definition_cases(self):
        gt = np.full((1, 1, 1, 1), 10.0)
        assert M.threshold_error_rate(np.full((1, 1, 1, 1), 14.0), gt, 3.0, 0.05) == 100.0
        assert M.threshold_error_rate(np.full((1, 1, 1, 1), 10.4), gt, 3.0, 0.05) == 0.0
        assert M.threshold_error_rate(gt, gt, 3.0, 0.05) == 0.0

    def test_or_vs_and(self):
        gt = np.full((1, 1, 1, 1), 100.0)
        pred = np.full((1, 1, 1, 1), 104.0)   # err 4 > 3px but below 5% (5.0)
        assert M.threshold_error_rate(pred, gt, 3.0, 0.05, mode="or") == 100.0
        assert M.threshold_error_rate(pred, gt, 3.0, 0.05, mode="and") == 0.0

    def test_matches_bruteforce_both_modes(self):
        rng = np.random.default_rng(4)
        for c in (1, 2):
            for size in (8, 16):
                pred = rng.uniform(0, 12, (1, c, size, size))
                gt = rng.uniform(0, 12, (1, c, size, size))
                for mode in ("or", "and"):
                    got = M.threshold_error_rate(pred, gt, 3.0, 0.05, mode=mode)
                    want = rate_bruteforce(pred, gt, 3.0, 0.05, mode=mode)
                    assert got == pytest.approx(want, abs=1e-9)
                for t in (2.0, 4.0, 5.0):
                    assert M.threshold_error_rate(pred, gt, t) == pytest.approx(
                        rate_bruteforce(pred, gt, t), abs=1e-9)

    def test_rate_ordering_invariant(self):
        rng = np.random.default_rng(5)
        pred = rng.uniform(0, 10, (1, 1, 16, 16))
        gt = rng.uniform(0, 10, (1, 1, 16, 16))
        r2 = M.threshold_error_rate(pred, gt, 2.0)
        r4 = M.threshold_error_rate(pred, gt, 4.0)
        r5 = M.threshold_error_rate(pred, gt, 5.0)
        d1 = M.threshold_error_rate(pred, gt, 3.0, 0.05, mode="and")
        assert r5 <= r4 <= r2
        assert d1 <= r2

    def test_bad_mode(self):
        gt = np.zeros((1, 1, 2, 2))
        with pytest.raises(UsageError):
            M.threshold_error_rate(gt, gt, 3.0, mode="xor")


class TestPSNR:
    def test_equal_images(self):
        a = np.random.default_rng(6).uniform(0, 1, (1, 3, 4, 4))
        assert M.psnr(a, a) == float("inf")

    def test_known_mse(self):
        a = np.zeros((1, 1, 10, 10))
        b = np.full((1, 1, 10, 10), 0.1)   # mse 0.01
        assert M.psnr(a, b) == pytest.approx(20.0)
        c = np.ones((1, 1, 10, 10))        # mse 1
        assert M.psnr(a, c) == pytest.approx(0.0)

    def test_matches_bruteforce(self):
        rng = np.random.default_rng(7)
        a = rng.uniform(0, 1, (1, 3, 8, 8))
        b = rng.uniform(0, 1, (1, 3, 8, 8))
        assert M.psnr(a, b) == pytest.approx(psnr_bruteforce(a, b), abs=1e-9)


class TestSSIMMetric:
    def test_equal_images(self):
        a = np.random.default_rng(8).uniform(0, 1, (1, 3, 8, 8))
        assert M.ssim_metric(a, a) == 1.0

    def test_bounded(self):
        rng = np.random.default_rng(9)
        a = rng.uniform(0, 1, (1, 1, 8, 8))
        b = rng.uniform(0, 1, (1, 1, 8, 8))
        assert -1.0 <= M.ssim_metric(a, b) <= 1.0

    def test_matches_bruteforce(self):
        rng = np.random.default_rng(10)
        for size in (8, 16):
            a = rng.uniform(0, 1, (1, 2, size, size))
            b = rng.uniform(0, 1, (1, 2, size, size))
            want = ssim_bruteforce(a, b).mean()
            assert M.ssim_metric(a, b) == pytest.approx(want, abs=1e-6)


class TestEvaluate:
    def make_val_set(self, n=3):
        shift = shift_preset("mild")
        return [apply_domain_shift(generate_scene(100 + i, width=64, height=32), shift, seed=i)
                for i in range(n)]

    def test_oracle_injection_zeroes_errors(self):
        samples = self.make_val_set()
        report = M.evaluate({}, samples, oracle=True)
        assert report.epe_disp == 0.0
        assert report.d1_all == 0.0
        assert report.epe_flow == 0.0
        assert report.f1_all == 0.0
        assert report.psnr == float("inf")
        assert report.ssim == pytest.approx(1.0)
        assert report.sample_count == 3

    def test_identity_generators_give_inf_psnr(self):
        class Identity:
            def translate(self, x):
                return x

        from warpadapt.networks import FlowNet, StereoNet
        nets = {"gen_a2b": Identity(), "gen_b2a": Identity(),
                "stereo": StereoNet(1, max_disp=8, channels_base=4),
                "flow": FlowNet(2, max_flow=4, channels_base=4),
                "extractor": Extractor(3)}
        report = M.evaluate(nets, self.make_val_set(2))
        assert report.psnr == float("inf")
        assert report.ssim == pytest.approx(1.0)
        assert report.perceptual_dist == 0.0
        assert np.isfinite(report.epe_disp)

    def test_deterministic(self):
        from warpadapt.networks import FlowNet, Generator, StereoNet
        nets = {"gen_a2b": Generator(1, 4), "gen_b2a": Generator(2, 4),
                "stereo": StereoNet(3, max_disp=8, channels_base=4),
                "flow": FlowNet(4, max_flow=4, channels_base=4),
                "extractor": Extractor(5)}
        samples = self.make_val_set(2)
        r1 = M.evaluate(nets, samples)
        r2 = M.evaluate(nets, samples)
        assert r1.to_text() == r2.to_text()

    def test_report_text_and_csv(self):
        report = M.evaluate({}, self.make_val_set(1), oracle=True, config={"seed": 7})
        text = report.to_text()
        assert "epe_disp=0" in text
        assert "config.seed=7" in text
        assert report.csv_header().count(",") == report.to_csv_row().count(",")

    def test_empty_set_rejected(self):
        with pytest.raises(MetricError):
            M.evaluate({}, [], oracle=True)
