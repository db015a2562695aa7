import numpy as np
import pytest

from warpadapt import kernels as K
from warpadapt.autograd import Tensor, backward, concat, no_grad, topo_order
from warpadapt.errors import ConfigError
from warpadapt.networks import Discriminator, Extractor, FlowNet, Generator, StereoNet
from warpadapt.trainer import TrainConfig


def rand_img(shape, seed=0):
    rng = np.random.default_rng(seed)
    return Tensor(rng.uniform(0, 1, size=shape).astype(np.float32))


class TestGenerator:
    def test_shape_preserved_and_range(self):
        gen = Generator(seed=1, channels_base=4)
        out, _ = gen.forward(rand_img((1, 3, 64, 128), seed=2))
        assert out.shape == (1, 3, 64, 128)
        assert out.data.min() >= 0.0 and out.data.max() <= 1.0

    def test_range_for_extreme_inputs(self):
        gen = Generator(seed=1, channels_base=4)
        hot = Tensor(np.full((1, 3, 16, 32), 50.0, dtype=np.float32))
        out, _ = gen.forward(hot)
        assert out.data.min() >= 0.0 and out.data.max() <= 1.0

    def test_same_seed_identical_params(self):
        a = Generator(seed=9, channels_base=4)
        b = Generator(seed=9, channels_base=4)
        for name in a.parameters():
            assert np.array_equal(a.parameters()[name].data, b.parameters()[name].data)

    def test_tap_shapes(self):
        gen = Generator(seed=1, channels_base=4)
        _, taps = gen.forward(rand_img((1, 3, 64, 128)))
        assert [t.shape[2:] for t in taps] == [(32, 64), (16, 32), (16, 32)]

    def test_channels_base_floor(self):
        with pytest.raises(ConfigError, match="channels_base"):
            TrainConfig(channels_base=2)


class TestDiscriminator:
    def test_patch_map_shape_and_range(self):
        disc = Discriminator(seed=3, channels_base=4)
        img = rand_img((1, 3, 64, 128), seed=4)
        out = disc.forward(img)
        assert out.shape == (1, 1, 4, 8)
        # logits, not probabilities: nothing squashes the last conv's output
        disc.params["c4.b"].data += 5.0
        assert np.allclose(disc.forward(img).data, out.data + 5.0, atol=1e-5)

    def test_zero_parameters_give_half(self):
        # logit 0 everywhere: a realness of one half
        disc = Discriminator(seed=3, channels_base=4)
        for p in disc.parameters().values():
            p.data = np.zeros_like(p.data)
        out = disc.forward(rand_img((1, 3, 64, 128), seed=5))
        assert out.shape == (1, 1, 4, 8)
        assert np.all(out.data == 0.0)

    def test_determinism(self):
        img = rand_img((1, 3, 32, 64), seed=6)
        a = Discriminator(seed=7, channels_base=4).forward(img)
        b = Discriminator(seed=7, channels_base=4).forward(img)
        assert np.array_equal(a.data, b.data)


class TestStereoNet:
    def test_stage_pyramid_shapes(self):
        net = StereoNet(seed=8, max_disp=16, channels_base=4)
        stages = net.forward(rand_img((1, 3, 64, 128), seed=9),
                             rand_img((1, 3, 64, 128), seed=10))
        assert [s.shape for s in stages] == [(1, 1, 16, 32), (1, 1, 32, 64), (1, 1, 64, 128)]

    def test_nonnegative_everywhere(self):
        net = StereoNet(seed=11, max_disp=8, channels_base=4)
        stages = net.forward(rand_img((1, 3, 32, 64), seed=12),
                             rand_img((1, 3, 32, 64), seed=13))
        for s in stages:
            assert np.all(s.data >= 0)

    def test_max_disp_validation(self):
        with pytest.raises(ConfigError, match="max_disp"):
            TrainConfig(max_disp=6)
        with pytest.raises(ConfigError, match="max_disp"):
            TrainConfig(max_disp=2)


class TestFlowNet:
    def test_final_stage_two_channels(self):
        net = FlowNet(seed=14, max_flow=8, channels_base=4)
        stages = net.forward(rand_img((1, 3, 64, 128), seed=15),
                             rand_img((1, 3, 64, 128), seed=16))
        assert stages[-1].shape == (1, 2, 64, 128)

    def test_same_seed_same_prediction(self):
        a_img = rand_img((1, 3, 32, 64), seed=17)
        b_img = rand_img((1, 3, 32, 64), seed=18)
        p1 = FlowNet(seed=19, max_flow=4, channels_base=4).forward(a_img, b_img)
        p2 = FlowNet(seed=19, max_flow=4, channels_base=4).forward(a_img, b_img)
        assert np.array_equal(p1[-1].data, p2[-1].data)

    def test_signed_output(self):
        # flow is unrectified: some negative values should exist at init
        net = FlowNet(seed=20, max_flow=4, channels_base=4)
        stages = net.forward(rand_img((1, 3, 32, 64), seed=21),
                             rand_img((1, 3, 32, 64), seed=22))
        assert stages[-1].data.min() < 0


class TestBatchFolding:
    def test_samples_never_mix(self):
        # the task step folds frames along the batch axis, which is exact only
        # if each sample of a batch gives what it gives alone
        a = rand_img((2, 3, 32, 64), seed=40)
        b = rand_img((2, 3, 32, 64), seed=41)
        gen = Generator(seed=42, channels_base=4)
        stereo = StereoNet(seed=43, max_disp=8, channels_base=4)
        flow = FlowNet(seed=44, max_flow=4, channels_base=4)
        out, taps = gen.forward(a)
        batched = [[out] + taps, stereo.forward(a, b), flow.forward(a, b)]
        for n in range(2):
            a1, b1 = Tensor(a.data[n:n + 1]), Tensor(b.data[n:n + 1])
            out1, taps1 = gen.forward(a1)
            alone = [[out1] + taps1, stereo.forward(a1, b1), flow.forward(a1, b1)]
            for got, want in zip(batched, alone):
                for g, w in zip(got, want):
                    assert np.allclose(g.data[n:n + 1], w.data, atol=1e-6)

    def test_matches_per_frame_encoding(self):
        # reference: each frame encoded in its own pass, as before folding
        def encode(net, img):
            f1 = net.conv("enc1", img, stride=2, slope=0.1)
            return f1, net.conv("enc2", f1, stride=2, slope=0.1)

        a = rand_img((2, 3, 32, 64), seed=45)
        b = rand_img((2, 3, 32, 64), seed=46)
        stereo = StereoNet(seed=47, max_disp=8, channels_base=4)
        flow = FlowNet(seed=48, max_flow=4, channels_base=4)
        for net in (stereo, flow):
            (f1a, f2a), (_, f2b) = encode(net, a), encode(net, b)
            na, nb = net._match_features(f2a), net._match_features(f2b)
            if net is stereo:
                want = net._decode(K.correlation(na, nb, net.corr_disp), f2a, f1a, a, K.softplus)
            else:
                corr = concat([K.correlation(na, nb, net.corr_disp, axis=ax, signed=True)
                               for ax in (3, 2)])
                want = net._decode(corr, f2a, f1a, a, lambda t: t)
            for g, w in zip(net.forward(a, b), want):
                assert np.allclose(g.data, w.data, atol=1e-6)


def tape_loss(outputs):
    """The sum of the outputs' means: one scalar on the tape of a forward pass."""
    loss = outputs[0].mean()
    for t in outputs[1:]:
        loss = loss + t.mean()
    return loss


class TestTapeSize:
    """A layer is one node on the tape, its convolution's: a LeakyReLU rides
    inside it, never in a node of its own."""

    @pytest.mark.parametrize("name,nodes,convs", [
        ("Generator", 17, 10), ("Discriminator", 5, 4), ("StereoNet", 36, 10),
        ("FlowNet", 35, 10), ("Extractor", 8, 3)])
    def test_nodes_per_forward(self, name, nodes, convs):
        a = Tensor(rand_img((1, 3, 16, 32), seed=50).data, requires_grad=True)
        b = rand_img((1, 3, 16, 32), seed=51)
        outputs = {"Generator": lambda: Generator(seed=52, channels_base=4).forward(a)[:1],
                   "Discriminator": lambda: [Discriminator(seed=53, channels_base=4).forward(a)],
                   "StereoNet": lambda: StereoNet(seed=54, max_disp=8, channels_base=4).forward(a, b),
                   "FlowNet": lambda: FlowNet(seed=55, max_flow=4, channels_base=4).forward(a, b),
                   "Extractor": lambda: Extractor(seed=56).features(a)}[name]()
        order = topo_order(tape_loss(outputs))
        kinds = [node._backward.__qualname__.split(".")[0] for node in order]
        assert kinds.count("conv2d") + kinds.count("conv_transpose2d") == convs
        assert len(order) == nodes


class TestExtractor:
    def test_frozen_determinism(self):
        ext = Extractor(seed=23)
        img = rand_img((1, 3, 32, 64), seed=24)
        f1 = ext.features(img)
        f2 = ext.features(img)
        for a, b in zip(f1, f2):
            assert np.array_equal(a.data, b.data)

    def test_feature_shapes(self):
        ext = Extractor(seed=25)
        feats = ext.features(rand_img((1, 3, 64, 128), seed=26))
        assert [f.shape[1] for f in feats] == [8, 16, 32]
        assert [f.shape[2:] for f in feats] == [(64, 128), (32, 64), (16, 32)]

    def test_zero_image_bias_response(self):
        ext = Extractor(seed=27)
        feats = ext.features(Tensor(np.zeros((1, 3, 16, 32), dtype=np.float32)))
        assert any(np.abs(f.data).max() > 0 for f in feats)

    def test_parameters_never_require_grad(self):
        ext = Extractor(seed=28)
        assert all(not p.requires_grad for p in ext.parameters().values())
        img = Tensor(np.random.default_rng(29).uniform(0, 1, (1, 3, 16, 32)).astype(np.float32),
                     requires_grad=True)
        loss = None
        for f in ext.features(img):
            term = (f * f).mean()
            loss = term if loss is None else loss + term
        backward(loss)
        assert img.grad is not None
        assert all(p.grad is None for p in ext.parameters().values())


class TestGradFlow:
    def test_every_unfrozen_net_receives_gradient(self):
        from warpadapt import losses as L
        from warpadapt.warping import multiscale_warp_loss

        gen = Generator(seed=30, channels_base=4)
        disc = Discriminator(seed=31, channels_base=4)
        stereo = StereoNet(seed=32, max_disp=4, channels_base=4)
        flow = FlowNet(seed=33, max_flow=4, channels_base=4)
        left = rand_img((1, 3, 16, 32), seed=34)
        right = rand_img((1, 3, 16, 32), seed=35)

        fake, taps = gen.forward(left)
        gen_term, _ = L.adversarial_loss(disc.forward(left).detach(), disc.forward(fake))
        stages_d = stereo.forward(left, right)
        warp_term = multiscale_warp_loss(stages_d[-1], [(taps, [t.detach() for t in taps], -1)])
        stages_f = flow.forward(left, right)
        flow_term = (stages_f[-1] * stages_f[-1]).mean()
        backward(gen_term + warp_term + flow_term)

        for net in (gen, stereo, flow):
            got = sum(float(np.abs(p.grad).sum()) for p in net.parameters().values()
                      if p.grad is not None)
            assert got > 0
