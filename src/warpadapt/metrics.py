"""Evaluation metrics: field errors for disparity/flow, image quality for the
cycle translation, and validation-set report assembly.

Everything here is pure and differentiation-free; computations run in float64.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import kernels as K
from .autograd import Tensor, no_grad
from .errors import MetricError, UsageError

D1_MODES = ("or", "and")


def _per_pixel_error(pred: np.ndarray, gt: np.ndarray):
    """Pixelwise error magnitude and ground-truth magnitude, shape (b, h, w)."""
    if pred.shape != gt.shape:
        raise MetricError(f"shape mismatch {pred.shape} vs {gt.shape}")
    d = pred.astype(np.float64) - gt.astype(np.float64)
    if pred.shape[1] == 1:
        return np.abs(d[:, 0]), np.abs(gt.astype(np.float64)[:, 0])
    err = np.sqrt((d * d).sum(axis=1))
    mag = np.sqrt((gt.astype(np.float64) ** 2).sum(axis=1))
    return err, mag


def epe(pred: np.ndarray, gt: np.ndarray) -> float:
    """Mean error magnitude: |delta d| for disparity, endpoint norm for flow."""
    err, _ = _per_pixel_error(pred, gt)
    return float(err.mean())


def threshold_error_rate(pred: np.ndarray, gt: np.ndarray, abs_thresh: float,
                         rel_thresh: float | None = None, mode: str = "or") -> float:
    """Percentage of pixels whose error exceeds the threshold(s).

    With a relative threshold, "or" counts pixels beyond either bound (the
    looser, text-level reading) and "and" requires both (benchmark convention).
    """
    if mode not in D1_MODES:
        raise UsageError(f"mode must be one of {D1_MODES}, got {mode!r}")
    err, mag = _per_pixel_error(pred, gt)
    over_abs = err > abs_thresh
    if rel_thresh is None:
        bad = over_abs
    else:
        over_rel = err > rel_thresh * mag
        bad = (over_abs | over_rel) if mode == "or" else (over_abs & over_rel)
    return float(100.0 * bad.mean())


def psnr(a: np.ndarray, b: np.ndarray) -> float:
    """Peak signal-to-noise ratio in dB for unit-range images; +inf when equal."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.shape != b.shape:
        raise MetricError(f"shape mismatch {a.shape} vs {b.shape}")
    mse = float(((a - b) ** 2).mean())
    if mse == 0.0:
        return float("inf")
    return float(10.0 * np.log10(1.0 / mse))


def ssim_metric(a: np.ndarray, b: np.ndarray) -> float:
    """Mean of the windowed SSIM map (same kernel the losses use)."""
    with no_grad():
        out = K.ssim_map(Tensor(np.asarray(a, dtype=np.float64)),
                         Tensor(np.asarray(b, dtype=np.float64)))
    return float(out.data.mean())


def perceptual_distance(a: np.ndarray, b: np.ndarray, extractor) -> float:
    """Frozen-extractor feature distance; not comparable to published
    learned-perceptual numbers."""
    with no_grad():
        ta = Tensor(np.asarray(a, dtype=np.float32))
        tb = Tensor(np.asarray(b, dtype=np.float32))
        total = 0.0
        for fa, fb in zip(extractor.features(ta), extractor.features(tb)):
            total += float(((fa.data - fb.data) ** 2).mean())
    return total


REPORT_FIELDS = ("epe_disp", "d1_all", "gt2px", "gt4px", "gt5px",
                 "epe_flow", "f1_all", "psnr", "ssim", "perceptual_dist")


@dataclass
class MetricsReport:
    epe_disp: float = 0.0
    d1_all: float = 0.0
    gt2px: float = 0.0
    gt4px: float = 0.0
    gt5px: float = 0.0
    epe_flow: float = 0.0
    f1_all: float = 0.0
    psnr: float = 0.0
    ssim: float = 0.0
    perceptual_dist: float = 0.0
    sample_count: int = 0
    config: dict = field(default_factory=dict)

    def to_text(self) -> str:
        lines = [f"{name}={getattr(self, name):.6g}" for name in REPORT_FIELDS]
        lines.append(f"sample_count={self.sample_count}")
        lines += [f"config.{k}={v}" for k, v in sorted(self.config.items())]
        return "\n".join(lines)

    @staticmethod
    def csv_header() -> str:
        return ",".join(REPORT_FIELDS + ("sample_count",))

    def to_csv_row(self) -> str:
        vals = [f"{getattr(self, name):.6g}" for name in REPORT_FIELDS]
        return ",".join(vals + [str(self.sample_count)])


def evaluate(nets: dict, samples, d1_mode: str = "or", oracle: bool = False,
             config: dict | None = None) -> MetricsReport:
    """Score the task networks and the cycle translation on real-domain samples.

    Real samples carry hidden ground truth for exactly this purpose; training
    never reads it. With ``oracle=True`` the predictions are replaced by the
    ground truth and the translation by identity, pinning the zero of every
    error metric.
    """
    samples = [s for s in samples if s.domain == "real"]
    if not samples:
        raise MetricError("no real-domain samples to evaluate")

    sums = {name: 0.0 for name in REPORT_FIELDS}
    with no_grad():
        for s in samples:
            if oracle:
                pred_d = s.disparity
                pred_f = s.flow
                rec = s.left
            else:
                left = Tensor(s.left)
                right = Tensor(s.right)
                nxt = Tensor(s.next_left)
                pred_d = nets["stereo"].forward(left, right)[-1].data
                pred_f = nets["flow"].forward(left, nxt)[-1].data
                rec = nets["gen_a2b"].translate(
                    nets["gen_b2a"].translate(left)).data

            sums["epe_disp"] += epe(pred_d, s.disparity)
            sums["d1_all"] += threshold_error_rate(pred_d, s.disparity, 3.0, 0.05,
                                                   mode=d1_mode)
            sums["gt2px"] += threshold_error_rate(pred_d, s.disparity, 2.0)
            sums["gt4px"] += threshold_error_rate(pred_d, s.disparity, 4.0)
            sums["gt5px"] += threshold_error_rate(pred_d, s.disparity, 5.0)
            sums["epe_flow"] += epe(pred_f, s.flow)
            sums["f1_all"] += threshold_error_rate(pred_f, s.flow, 3.0, 0.05,
                                                   mode=d1_mode)
            sums["psnr"] += psnr(rec, s.left)
            sums["ssim"] += ssim_metric(rec, s.left)
            if not oracle:
                sums["perceptual_dist"] += perceptual_distance(rec, s.left,
                                                               nets["extractor"])

    n = len(samples)
    report = MetricsReport(sample_count=n, config=dict(config or {}))
    for name in REPORT_FIELDS:
        setattr(report, name, sums[name] / n)
    return report
