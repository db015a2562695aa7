import math

import numpy as np
import pytest

from warpadapt import kernels as K
from warpadapt import losses as L
from warpadapt.autograd import Tensor, backward, topo_order
from warpadapt.errors import ConfigError
from warpadapt.networks import Extractor, Generator, StereoNet

from test_kernels import ssim_bruteforce


def const(shape, value):
    return Tensor(np.full(shape, value, dtype=np.float64))


def rand(shape, seed=0, lo=0.0, hi=1.0):
    rng = np.random.default_rng(seed)
    return Tensor(rng.uniform(lo, hi, size=shape))


def clamped_log_loss(d_real, d_fake, eps=1e-6):
    """(generator, discriminator) log-loss terms as once computed from
    sigmoid probabilities clamped to [eps, 1 - eps]: the float64 reference of
    the softplus form on logits."""
    pr = np.clip(1.0 / (1.0 + np.exp(-d_real)), eps, 1.0 - eps)
    pf = np.clip(1.0 / (1.0 + np.exp(-d_fake)), eps, 1.0 - eps)
    return -np.log(pf).mean(), -(np.log(pr).mean() + np.log(1.0 - pf).mean())


class TestAdversarial:
    def test_perfect_discriminator_near_zero(self):
        _, disc = L.adversarial_loss(const((1, 1, 4, 4), 20.0), const((1, 1, 4, 4), -20.0))
        gen, _ = L.adversarial_loss(const((1, 1, 4, 4), 20.0), const((1, 1, 4, 4), 20.0))
        assert 0.0 < disc.item() < 1e-8
        assert 0.0 < gen.item() < 1e-8

    def test_uninformative_discriminator(self):
        gen, disc = L.adversarial_loss(const((1, 1, 4, 4), 0.0), const((1, 1, 4, 4), 0.0))
        assert disc.item() == pytest.approx(2 * math.log(2), rel=1e-12)
        assert gen.item() == pytest.approx(math.log(2), rel=1e-12)

    def test_extreme_logits_stay_finite(self):
        for real, fake in ((1e4, -1e4), (-1e4, 1e4)):
            gen, disc = L.adversarial_loss(const((1, 1, 2, 2), real), const((1, 1, 2, 2), fake))
            assert np.isfinite(disc.item()) and np.isfinite(gen.item())
        # a fake the discriminator rejects outright still gives the generator
        # its full gradient, -1 per element over the mean's 4
        fake = Tensor(np.full((1, 1, 2, 2), -1e4), requires_grad=True)
        gen, _ = L.adversarial_loss(const((1, 1, 2, 2), 1e4), fake)
        backward(gen)
        assert np.allclose(fake.grad, -0.25)

    def test_matches_clamped_log_loss(self):
        rng = np.random.default_rng(4)
        real, fake = (rng.uniform(-10.0, 10.0, (2, 1, 8, 16)) for _ in range(2))
        gen, disc = L.adversarial_loss(Tensor(real), Tensor(fake))
        want_gen, want_disc = clamped_log_loss(real, fake)
        assert abs(gen.item() - want_gen) < 1e-12
        assert abs(disc.item() - want_disc) < 1e-12

    def test_graph_nodes(self):
        # disc: -real, two softplus maps, their means and the sum; gen: -fake,
        # one softplus map and its mean
        real, fake = (Tensor(rand((1, 1, 4, 4), seed=s).data, requires_grad=True)
                      for s in (5, 6))
        gen, disc = L.adversarial_loss(real, fake)
        assert len(topo_order(disc)) == 6
        assert len(topo_order(gen)) == 3


class TestCycle:
    def test_perfect_reconstruction(self):
        x = rand((1, 3, 16, 16), seed=1)
        assert L.cycle_loss(x, x).item() == 0.0

    def test_constant_images_match_oracle(self):
        a = const((1, 1, 16, 16), 0.0)
        b = const((1, 1, 16, 16), 1.0)
        want = 1.0 + (1.0 - ssim_bruteforce(a.data, b.data).mean())
        assert L.cycle_loss(a, b).item() == pytest.approx(want, rel=1e-10)

    def test_graph_nodes(self):
        # |a - b|, SSIM, their two means, 1 - x as a scale and a shift, and the sum
        rec = Tensor(rand((1, 3, 16, 16), seed=2).data, requires_grad=True)
        assert len(topo_order(L.cycle_loss(rec, rand((1, 3, 16, 16), seed=3)))) == 7


class TestPerceptual:
    def test_zero_for_equal(self):
        ext = Extractor(seed=3)
        x = rand((1, 3, 8, 8), seed=2)
        assert L.perceptual_loss(x, x, ext).item() == 0.0

    def test_symmetric(self):
        ext = Extractor(seed=3)
        a = rand((1, 3, 8, 8), seed=4)
        b = rand((1, 3, 8, 8), seed=5)
        ab = L.perceptual_loss(a, b, ext).item()
        ba = L.perceptual_loss(b, a, ext).item()
        assert ab == pytest.approx(ba, rel=1e-12)

    def test_positive_for_different(self):
        ext = Extractor(seed=3)
        a = rand((1, 3, 8, 8), seed=6)
        b = rand((1, 3, 8, 8), seed=7)
        assert L.perceptual_loss(a, b, ext).item() > 0


class TestCosine:
    def test_equal_inputs(self):
        x = rand((1, 3, 4, 4), seed=8, lo=0.1, hi=1.0)
        assert L.cosine_loss(x, x).item() < 1e-6

    def test_scale_invariance(self):
        x = rand((1, 3, 4, 4), seed=9, lo=0.1, hi=1.0)
        assert L.cosine_loss(x, Tensor(2.0 * x.data)).item() < 1e-6

    def test_orthogonal(self):
        a = np.zeros((1, 2, 3, 3))
        b = np.zeros((1, 2, 3, 3))
        a[0, 0], b[0, 1] = 1.0, 1.0
        assert L.cosine_loss(Tensor(a), Tensor(b)).item() == pytest.approx(1.0, abs=1e-7)


class TestCorrConsistency:
    def test_identity_translation(self):
        xl = rand((1, 3, 8, 16), seed=10)
        xr = rand((1, 3, 8, 16), seed=11)
        assert L.corr_consistency_loss(xl, xr, xl, xr).item() == 0.0

    def test_brightness_gain_near_zero(self):
        xl = rand((1, 3, 8, 16), seed=12, hi=0.8)
        xr = rand((1, 3, 8, 16), seed=13, hi=0.8)
        gl = Tensor(1.1 * xl.data)
        gr = Tensor(1.1 * xr.data)
        gain = L.corr_consistency_loss(xl, xr, gl, gr).item()
        assert gain < 1e-2

    def test_shuffle_worse_than_gain(self):
        rng = np.random.default_rng(14)
        xl = rand((1, 3, 8, 16), seed=12, hi=0.8)
        xr = rand((1, 3, 8, 16), seed=13, hi=0.8)
        gain = L.corr_consistency_loss(xl, xr, Tensor(1.1 * xl.data), Tensor(1.1 * xr.data)).item()
        perm = rng.permutation(16)
        shuffled = Tensor(xr.data[:, :, :, perm])
        shuffle = L.corr_consistency_loss(xl, xr, xl, shuffled).item()
        assert shuffle > gain


class TestModeSeeking:
    def test_collapse_detected(self):
        f = rand((1, 3, 4, 4), seed=15)
        s1 = rand((1, 3, 4, 4), seed=16)
        s2 = rand((1, 3, 4, 4), seed=17)
        d_src = np.abs(s1.data - s2.data).mean()
        loss = L.mode_seeking_loss(f, f, s1, s2).item()
        assert loss == pytest.approx(d_src / 1e-5, rel=1e-6)

    def test_matched_diversity_near_one(self):
        s1 = rand((1, 3, 4, 4), seed=18)
        s2 = rand((1, 3, 4, 4), seed=19)
        # fakes at exactly the source diversity
        loss = L.mode_seeking_loss(s1, s2, s1, s2).item()
        assert loss == pytest.approx(1.0, rel=1e-3)

    def test_monotone_in_output_diversity(self):
        s1 = rand((1, 3, 4, 4), seed=20)
        s2 = rand((1, 3, 4, 4), seed=21)
        base = Tensor(np.zeros((1, 3, 4, 4)))
        prev = None
        for spread in (0.1, 0.5, 1.0):
            f2 = Tensor(np.full((1, 3, 4, 4), spread))
            val = L.mode_seeking_loss(base, f2, s1, s2).item()
            if prev is not None:
                assert val < prev
            prev = val


class TestSupervised:
    def test_exact_prediction_zero(self):
        gt = const((1, 1, 8, 8), 3.0)
        stages = [const((1, 1, 4, 4), 1.5), const((1, 1, 8, 8), 3.0)]
        assert L.supervised_disp_loss(stages, gt).item() == 0.0

    def test_unit_error_weight_sum(self):
        gt = const((1, 1, 8, 8), 2.0)
        stages = [const((1, 1, 2, 2), 0.75), const((1, 1, 4, 4), 1.5), const((1, 1, 8, 8), 3.0)]
        loss = L.supervised_disp_loss(stages, gt, gamma=0.9)
        assert loss.item() == pytest.approx(2.71 * 0.5, rel=1e-6)

    def test_flow_mirrors_disparity_with_mask(self):
        gt = const((1, 2, 8, 8), 1.0)
        stages = [const((1, 2, 8, 8), 2.0)]
        mask = Tensor(np.ones((1, 1, 8, 8)))
        loss = L.supervised_flow_loss(stages, gt, mask)
        assert loss.item() == pytest.approx(0.5, rel=1e-6)
        half = np.ones((1, 1, 8, 8))
        half[:, :, :, 4:] = 0.0
        # constant error: masked mean equals unmasked mean
        loss_half = L.supervised_flow_loss(stages, gt, Tensor(half))
        assert loss_half.item() == pytest.approx(0.5, rel=1e-4)

    def test_gradient_reaches_generator(self):
        gen = Generator(seed=30, channels_base=4)
        stereo = StereoNet(seed=31, max_disp=4, channels_base=4)
        rng = np.random.default_rng(32)
        left = Tensor(rng.uniform(0, 1, (1, 3, 16, 32)).astype(np.float32))
        right = Tensor(rng.uniform(0, 1, (1, 3, 16, 32)).astype(np.float32))
        gt = Tensor(np.ones((1, 1, 16, 32), dtype=np.float32))
        stages = stereo.forward(gen.translate(left), gen.translate(right))
        loss = L.supervised_disp_loss(stages, gt)
        backward(loss)
        grads = [p.grad for p in gen.parameters().values()]
        assert any(g is not None and np.abs(g).sum() > 0 for g in grads)


class TestObjectives:
    def unit_parts(self, keys):
        return {k: const((1, 1, 1, 1), 1.0) for k in keys}

    def test_translation_unit_parts(self):
        w = L.LossWeights()
        parts = self.unit_parts(["adv_syn2real_gen", "adv_real2syn_gen", "cycle",
                                 "perceptual", "cosine", "disp_warp_syn",
                                 "flow_warp_syn", "corr_consistency", "mode_seeking"])
        total, translation = L.translation_objective(parts, w)
        assert translation.item() == pytest.approx(1 + 1 + 10 + 1 + 1)
        assert total.item() == pytest.approx(10 * 14 + 5 + 5 + 1 + 0.1, rel=1e-6)

    def test_zero_parts(self):
        w = L.LossWeights()
        keys = ["adv_syn2real_gen", "adv_real2syn_gen", "cycle", "perceptual",
                "cosine", "disp_warp_syn", "flow_warp_syn", "corr_consistency",
                "mode_seeking"]
        parts = {k: const((1, 1, 1, 1), 0.0) for k in keys}
        total, _ = L.translation_objective(parts, w)
        assert total.item() == 0.0

    def test_task_objectives(self):
        w = L.LossWeights()
        parts = self.unit_parts(["disp_supervised", "disp_warp_real",
                                 "flow_supervised", "flow_warp_real"])
        assert L.stereo_objective(parts, w).item() == pytest.approx(6.0)
        assert L.flow_objective(parts, w).item() == pytest.approx(6.0)

    def test_reconstruction_identity_random_parts(self):
        rng = np.random.default_rng(33)
        w = L.LossWeights()
        keys = ["adv_syn2real_gen", "adv_real2syn_gen", "cycle", "perceptual",
                "cosine", "disp_warp_syn", "flow_warp_syn", "corr_consistency",
                "mode_seeking"]
        parts = {k: const((1, 1, 1, 1), rng.uniform(0, 2)) for k in keys}
        total, translation = L.translation_objective(parts, w)
        manual = (translation.item() * w.lambda_translation
                  + parts["disp_warp_syn"].item() * w.lambda_disp_warp_syn
                  + parts["flow_warp_syn"].item() * w.lambda_flow_warp_syn
                  + parts["corr_consistency"].item() * w.lambda_corr
                  + parts["mode_seeking"].item() * w.lambda_ms)
        assert abs(total.item() - manual) <= 1e-5 * abs(manual)

    def test_default_weights_verbatim(self):
        w = L.LossWeights()
        assert w.lambda_translation == 10
        assert w.lambda_disp_warp_syn == 5
        assert w.lambda_flow_warp_syn == 5
        assert w.lambda_corr == 1
        assert w.lambda_ms == 0.1
        assert w.lambda_disp == 1
        assert w.lambda_disp_warp_real == 5
        assert w.lambda_flow == 1
        assert w.lambda_flow_warp_real == 5

    def test_negative_weight_rejected(self):
        with pytest.raises(ConfigError):
            L.LossWeights(lambda_corr=-1.0)
