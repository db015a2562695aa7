"""Loss terms of the co-training objective and their weighted assemblies.

Three objectives are optimized in alternation: the translation objective
(adversarial + cycle + perceptual + cosine consistency, plus feature warping
against ground-truth fields and two structure regularizers), and the stereo
and flow objectives (supervised pyramids on translated synthetic data plus
feature warping on real data along the predicted fields).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

from . import kernels as K
from .autograd import Tensor
from .errors import ConfigError
from .warping import stagewise_warp_loss

@dataclass
class LossWeights:
    """Weight factors of the three objectives.

    lambda_perceptual / lambda_cosine default to 1 (plain sums in the
    translation aggregate) and exist so ablations can switch the terms off.
    """

    lambda_translation: float = 10.0
    lambda_cycle: float = 10.0
    lambda_perceptual: float = 1.0
    lambda_cosine: float = 1.0
    lambda_disp_warp_syn: float = 5.0
    lambda_flow_warp_syn: float = 5.0
    lambda_corr: float = 1.0
    lambda_ms: float = 0.1
    lambda_disp: float = 1.0
    lambda_disp_warp_real: float = 5.0
    lambda_flow: float = 1.0
    lambda_flow_warp_real: float = 5.0

    def __post_init__(self):
        for f in fields(self):
            value = getattr(self, f.name)
            if not (math.isfinite(value) and value >= 0):
                raise ConfigError(f"{f.name} must be finite and non-negative, got {value}")


BREAKDOWN_KEYS = (
    "adv_syn2real_gen", "adv_syn2real_disc", "adv_real2syn_gen", "adv_real2syn_disc",
    "cycle", "perceptual", "cosine", "translation",
    "disp_warp_syn", "flow_warp_syn", "corr_consistency", "mode_seeking",
    "disp_supervised", "disp_warp_real", "flow_supervised", "flow_warp_real",
    "translation_total", "stereo_total", "flow_total",
)


# -- individual terms ----------------------------------------------------------

def adversarial_loss(d_real: Tensor, d_fake: Tensor):
    """Log-loss GAN terms on patch logit maps.

    Returns (generator term, discriminator term); the generator term is the
    non-saturating form. With -log sigmoid(z) = softplus(-z) and
    -log(1 - sigmoid(z)) = softplus(z), each term is one softplus per map.
    """
    disc = K.softplus(-d_real).mean() + K.softplus(d_fake).mean()
    gen = K.softplus(-d_fake).mean()
    return gen, disc


def cycle_loss(reconstructed: Tensor, original: Tensor) -> Tensor:
    """Mean L1 plus structural dissimilarity for one cycle direction."""
    l1 = K.abs_diff(reconstructed, original).mean()
    return l1 + (1.0 - K.ssim_map(reconstructed, original).mean())


def perceptual_loss(a: Tensor, b: Tensor, extractor) -> Tensor:
    """Summed mean-squared distance between frozen extractor activations."""
    total = None
    for fa, fb in zip(extractor.features(a), extractor.features(b)):
        term = K.sq_diff(fa, fb).mean()
        total = term if total is None else total + term
    return total


def cosine_loss(a: Tensor, b: Tensor) -> Tensor:
    """One minus the mean channelwise cosine similarity."""
    return 1.0 - K.cosine_map(a, b).mean()


def corr_consistency_loss(x_l: Tensor, x_r: Tensor, g_l: Tensor, g_r: Tensor,
                          max_disp: int = 8) -> Tensor:
    """L1 gap between standardized correlation volumes of the original and the
    translated stereo pair; translation must preserve matching structure."""
    v_orig = _standardize(K.correlation(x_l, x_r, max_disp))
    v_trans = _standardize(K.correlation(g_l, g_r, max_disp))
    return K.abs_diff(v_trans, v_orig).mean()


def _standardize(v: Tensor) -> Tensor:
    centered = v - v.mean()
    std = K.sqrt(K.square(centered).mean() + 1e-12)
    return centered / (std + 1e-8)


def mode_seeking_loss(fake1: Tensor, fake2: Tensor, src1: Tensor, src2: Tensor) -> Tensor:
    """Input diversity over output diversity; large when the outputs collapse."""
    num = K.abs_diff(src1, src2).mean()
    den = K.abs_diff(fake1, fake2).mean() + 1e-5
    return num / den


def supervised_disp_loss(stages, gt_disp: Tensor, gamma: float = 0.9) -> Tensor:
    """Stage-weighted smooth-L1 between the disparity pyramid and ground truth."""
    return stagewise_warp_loss(stages, gt_disp, gamma=gamma)


def supervised_flow_loss(stages, gt_flow: Tensor, mask: Tensor | None,
                         gamma: float = 0.9) -> Tensor:
    """Stage-weighted smooth-L1 for flow, gated by the visibility mask."""
    return stagewise_warp_loss(stages, gt_flow, gamma=gamma, mask=mask)


# -- objective assemblies --------------------------------------------------------

def translation_objective(parts: dict, w: LossWeights):
    """Weighted translation objective.

    Returns (total, translation aggregate); the aggregate combines both
    adversarial generator terms with the cycle, perceptual and cosine terms,
    and is scaled as a whole inside the total.
    """
    translation = (parts["adv_syn2real_gen"] + parts["adv_real2syn_gen"]
                   + parts["cycle"] * w.lambda_cycle
                   + parts["perceptual"] * w.lambda_perceptual
                   + parts["cosine"] * w.lambda_cosine)
    total = (translation * w.lambda_translation
             + parts["disp_warp_syn"] * w.lambda_disp_warp_syn
             + parts["flow_warp_syn"] * w.lambda_flow_warp_syn
             + parts["corr_consistency"] * w.lambda_corr
             + parts["mode_seeking"] * w.lambda_ms)
    return total, translation


def stereo_objective(parts: dict, w: LossWeights) -> Tensor:
    return (parts["disp_supervised"] * w.lambda_disp
            + parts["disp_warp_real"] * w.lambda_disp_warp_real)


def flow_objective(parts: dict, w: LossWeights) -> Tensor:
    return (parts["flow_supervised"] * w.lambda_flow
            + parts["flow_warp_real"] * w.lambda_flow_warp_real)
