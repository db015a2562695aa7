"""Compact network zoo: translation generators and discriminators, the stereo
and flow estimators with their refinement pyramids, and a frozen random-weight
feature extractor for perceptual distances.

All parameters initialize uniform in [-1/sqrt(fan_in), +1/sqrt(fan_in)] from
the network's seeded generator, so identical seeds give identical networks.
The widths and displacement ranges are range-checked once, by
``trainer.TrainConfig``.
"""

from __future__ import annotations

import numpy as np

from . import kernels as K
from .autograd import Tensor, concat, split
from .warping import resize_field


class Network:
    """Named parameter bag; subclasses define forward passes."""

    def __init__(self, seed: int):
        self.params: dict[str, Tensor] = {}
        self._rng = np.random.default_rng(np.random.PCG64(seed))

    def _layer(self, name: str, cin: int, cout: int, k: int = 3, transposed: bool = False):
        """Weight (cout, cin, k, k), or (cin, cout, k, k) when transposed, then
        the (1, cout, 1, 1) bias, both drawn in that order."""
        bound = 1.0 / np.sqrt(cin * k * k)
        shape = (cin, cout, k, k) if transposed else (cout, cin, k, k)
        for suffix, size in ((".w", shape), (".b", (1, cout, 1, 1))):
            value = self._rng.uniform(-bound, bound, size=size).astype(np.float32)
            self.params[name + suffix] = Tensor(value, requires_grad=True)

    def conv(self, name: str, x: Tensor, stride: int = 1, slope: float | None = None) -> Tensor:
        """The layer's convolution, ending in a LeakyReLU of ``slope`` if given."""
        return K.conv2d(x, self.params[name + ".w"], self.params[name + ".b"],
                        stride=stride, pad=self.params[name + ".w"].shape[2] // 2, slope=slope)

    def deconv(self, name: str, x: Tensor, slope: float | None = None) -> Tensor:
        return K.conv_transpose2d(x, self.params[name + ".w"], self.params[name + ".b"],
                                  stride=2, pad=1, slope=slope)

    def parameters(self) -> dict[str, Tensor]:
        return self.params


class Generator(Network):
    """Residual encoder-decoder translator, output in [0, 1].

    Taps export the two encoder activations and the last residual block
    (scales 1/2, 1/4, 1/4) for the feature warping losses.
    """

    def __init__(self, seed: int, channels_base: int = 8):
        super().__init__(seed)
        cb = channels_base
        self._layer("enc1", 3, cb)
        self._layer("enc2", cb, 2 * cb)
        for i in range(3):
            self._layer(f"res{i}a", 2 * cb, 2 * cb)
            self._layer(f"res{i}b", 2 * cb, 2 * cb)
        self._layer("dec1", 2 * cb, cb, 4, transposed=True)
        self._layer("dec2", cb, 3, 4, transposed=True)

    def forward(self, x: Tensor, need_output: bool = True):
        e1 = self.conv("enc1", x, stride=2, slope=0.1)
        e2 = self.conv("enc2", e1, stride=2, slope=0.1)
        r = e2
        for i in range(3):
            h = self.conv(f"res{i}a", r, slope=0.1)
            r = r + self.conv(f"res{i}b", h)
        taps = [e1, e2, r]
        if not need_output:
            return None, taps
        d1 = self.deconv("dec1", r, slope=0.1)
        out = (K.tanh(self.deconv("dec2", d1)) + 1.0) * 0.5
        return out, taps

    def translate(self, x: Tensor) -> Tensor:
        return self.forward(x)[0]


class Discriminator(Network):
    """Four stride-2 convolutions to a one-channel logit patch map."""

    def __init__(self, seed: int, channels_base: int = 8):
        super().__init__(seed)
        cb = channels_base
        self._layer("c1", 3, cb)
        self._layer("c2", cb, 2 * cb)
        self._layer("c3", 2 * cb, 4 * cb)
        self._layer("c4", 4 * cb, 1)

    def forward(self, x: Tensor) -> Tensor:
        h = self.conv("c1", x, stride=2, slope=0.2)
        h = self.conv("c2", h, stride=2, slope=0.2)
        h = self.conv("c3", h, stride=2, slope=0.2)
        return self.conv("c4", h, stride=2)


class _PyramidNet(Network):
    """Shared two-scale encoder plus a three-stage coarse-to-fine decoder."""

    def __init__(self, seed: int, channels_base: int, corr_ch: int, out_ch: int):
        super().__init__(seed)
        cb = channels_base
        self._layer("enc1", 3, cb)
        self._layer("enc2", cb, 2 * cb)
        self._layer("dq", corr_ch + 2 * cb, 2 * cb)
        self._layer("pq", 2 * cb, out_ch)
        self._layer("uh", 2 * cb, cb, 4, transposed=True)
        self._layer("dh", cb + cb + out_ch, cb)
        self._layer("ph", cb, out_ch)
        self._layer("uf", cb, cb, 4, transposed=True)
        self._layer("df", cb + 3 + out_ch, cb)
        self._layer("pf", cb, out_ch)

    def _encode(self, img_a: Tensor, img_b: Tensor):
        """Both frames in one pass: frame a's 1/2- and 1/4-scale features, then
        each frame's matching features for the correlation."""
        f1 = self.conv("enc1", concat([img_a, img_b], axis=0), stride=2, slope=0.1)
        f2 = self.conv("enc2", f1, stride=2, slope=0.1)
        return (split(f1, 2)[0], split(f2, 2)[0], *split(self._match_features(f2), 2))

    @staticmethod
    def _match_features(f: Tensor) -> Tensor:
        # channel-normalized features keep the correlation volume's peak
        # structure independent of local feature magnitude; without this the
        # displacement signal is too weak to train at desk scale
        return f / K.sqrt(K.square(f).mean(axis=1) + 1e-6)

    def _decode(self, corr: Tensor, f2: Tensor, f1: Tensor, img: Tensor, rectify):
        tq = self.conv("dq", concat([corr, f2]), slope=0.1)
        s0 = rectify(self.conv("pq", tq))
        uh = self.deconv("uh", tq, slope=0.1)
        th = self.conv("dh", concat([uh, f1, resize_field(s0, uh.shape[2:])]), slope=0.1)
        s1 = rectify(self.conv("ph", th))
        uf = self.deconv("uf", th, slope=0.1)
        tf_ = self.conv("df", concat([uf, img, resize_field(s1, uf.shape[2:])]), slope=0.1)
        s2 = rectify(self.conv("pf", tf_))
        return [s0, s1, s2]


class StereoNet(_PyramidNet):
    """Correlation-based disparity estimator; stages are non-negative."""

    def __init__(self, seed: int, max_disp: int = 16, channels_base: int = 8):
        self.corr_disp = max_disp // 4
        super().__init__(seed, channels_base, self.corr_disp + 1, 1)

    def forward(self, left: Tensor, right: Tensor):
        f1l, f2l, nl, nr = self._encode(left, right)
        corr = K.correlation(nl, nr, self.corr_disp)
        return self._decode(corr, f2l, f1l, left, K.softplus)


class FlowNet(_PyramidNet):
    """Two-frame flow estimator with signed horizontal+vertical correlation."""

    def __init__(self, seed: int, max_flow: int = 8, channels_base: int = 8):
        self.corr_disp = max_flow // 4
        super().__init__(seed, channels_base, 2 * (2 * self.corr_disp + 1), 2)

    def forward(self, frame_t: Tensor, frame_t1: Tensor):
        f1a, f2a, na, nb = self._encode(frame_t, frame_t1)
        ch = K.correlation(na, nb, self.corr_disp, axis=3, signed=True)
        cv = K.correlation(na, nb, self.corr_disp, axis=2, signed=True)
        corr = concat([ch, cv])
        return self._decode(corr, f2a, f1a, frame_t, lambda t: t)


class Extractor(Network):
    """Frozen random-weight conv stack; activations at scales 1/1, 1/2, 1/4
    with channel counts 8, 16, 32."""

    def __init__(self, seed: int = 77):
        super().__init__(seed)
        self._layer("c1", 3, 8)
        self._layer("c2", 8, 16)
        self._layer("c3", 16, 32)
        for p in self.params.values():
            p.requires_grad = False

    def features(self, image: Tensor):
        t1 = self.conv("c1", image, slope=0.1)
        t2 = self.conv("c2", t1, stride=2, slope=0.1)
        t3 = self.conv("c3", t2, stride=2, slope=0.1)
        return [t1, t2, t3]
