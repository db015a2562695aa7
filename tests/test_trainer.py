import os
import re
import struct
import warnings

import numpy as np
import pytest

from warpadapt import kernels as K
from warpadapt import trainer as T
from warpadapt.autograd import Tensor
from warpadapt.dataio import CHECKPOINT_MAGIC, Reader, pack_tensor
from warpadapt.errors import ConfigError, FormatError, NonFiniteError
from warpadapt.losses import BREAKDOWN_KEYS, LossWeights
from warpadapt.scenegen import apply_domain_shift, generate_scene, shift_preset, write_dataset


def tiny_config(**over):
    base = dict(k=3, total_iters=6, batch_size=1, channels_base=4, max_disp=8,
                max_flow=4, val_count=2, eval_every=0, seed=5)
    base.update(over)
    return T.TrainConfig(**base)


def tiny_dataset(tmp_path, n_train=4, n_val=2, seed0=0, width=32, height=16):
    shift = shift_preset("mild")
    syn = [generate_scene(seed0 + i, width=width, height=height, max_disp=8, max_flow=4)
           for i in range(n_train + n_val)]
    real = [apply_domain_shift(generate_scene(seed0 + 100 + i, width=width, height=height,
                                              max_disp=8, max_flow=4), shift, seed=i)
            for i in range(n_train + n_val)]
    path = str(tmp_path / "data")
    write_dataset(syn + real, path)
    return path


class TestAdam:
    def test_zero_gradient_no_motion_without_decay(self):
        p = Tensor(np.full((1, 1, 1, 1), 2.0, dtype=np.float32), requires_grad=True)
        opt = T.Adam({"p": p}, lr=0.1, betas=(0.9, 0.999))
        for _ in range(3):
            opt.step()
        assert p.data.reshape(-1)[0] == pytest.approx(2.0)

    def test_first_step_closed_form(self):
        p = Tensor(np.zeros((1, 1, 1, 1), dtype=np.float32), requires_grad=True)
        opt = T.Adam({"p": p}, lr=0.1, betas=(0.9, 0.999))
        p.grad = np.ones((1, 1, 1, 1), dtype=np.float32)
        opt.step()
        assert p.data.reshape(-1)[0] == pytest.approx(-0.1 / (1 + 1e-8), rel=1e-6)

    def test_decoupled_decay_shrinks_gradient_free_param(self):
        p = Tensor(np.full((1, 1, 1, 1), 1.0, dtype=np.float32), requires_grad=True)
        opt = T.Adam({"p": p}, lr=0.1, betas=(0.9, 0.999), weight_decay=0.01)
        for n in range(1, 4):
            opt.step()
            assert p.data.reshape(-1)[0] == pytest.approx((1 - 0.1 * 0.01) ** n, rel=1e-6)


class TestBatching:
    def test_batch_larger_than_twice_the_split_is_full(self):
        idx = T._batch_indices(4, 10, seed=0, tag=1, iteration=3)
        assert idx.size == 10
        assert np.bincount(idx, minlength=4).min() >= 2

    @pytest.mark.parametrize("count, batch", [(3, 4), (4, 5), (4, 8), (5, 10)])
    def test_padding_matches_one_extra_permutation(self, count, batch):
        # the parent's rule: the whole permutation, then its head up to the batch size
        for iteration in range(3):
            perm = np.random.default_rng([7, 2, iteration]).permutation(count)
            expected = np.concatenate([perm, perm[:batch - count]])
            assert np.array_equal(T._batch_indices(count, batch, 7, 2, iteration), expected)


class TestOverfit:
    def test_stereo_converges_on_zero_disparity_pair(self):
        from warpadapt.autograd import backward
        from warpadapt.losses import supervised_disp_loss
        from warpadapt.networks import StereoNet

        rng = np.random.default_rng(0)
        img = Tensor(rng.uniform(0, 1, (1, 3, 32, 64)).astype(np.float32))
        gt = Tensor(np.zeros((1, 1, 32, 64), dtype=np.float32))
        net = StereoNet(seed=1, max_disp=8, channels_base=4)
        opt = T.Adam(net.parameters(), lr=1e-3, betas=(0.9, 0.999))
        for _ in range(200):
            stages = net.forward(img, img)
            loss = supervised_disp_loss(stages, gt)
            opt.zero_grad()
            backward(loss)
            opt.step()
        final = net.forward(img, img)[-1].data
        assert np.all(final >= 0)
        assert np.abs(final).mean() < 0.5

    def test_flow_converges_on_static_pair(self):
        from warpadapt.autograd import backward
        from warpadapt.losses import supervised_flow_loss
        from warpadapt.networks import FlowNet

        rng = np.random.default_rng(2)
        img = Tensor(rng.uniform(0, 1, (1, 3, 32, 64)).astype(np.float32))
        gt = Tensor(np.zeros((1, 2, 32, 64), dtype=np.float32))
        net = FlowNet(seed=3, max_flow=4, channels_base=4)
        opt = T.Adam(net.parameters(), lr=1e-3, betas=(0.9, 0.999))
        for _ in range(200):
            stages = net.forward(img, img)
            loss = supervised_flow_loss(stages, gt, None)
            opt.zero_grad()
            backward(loss)
            opt.step()
        final = net.forward(img, img)[-1].data
        epe = np.sqrt((final ** 2).sum(axis=1)).mean()
        assert epe < 0.5


class TestSchedule:
    def test_freeze_discipline(self, tmp_path):
        data = tiny_dataset(tmp_path)
        cfg = tiny_config(k=3, total_iters=6)
        state, _, _ = T.run_training(cfg, data, str(tmp_path / "out0"), resume=None)

        # replay manually, hashing parameters around every step
        state = T.init_state(cfg)
        from warpadapt.scenegen import read_dataset, split_domains
        syn, real = split_domains(read_dataset(data))
        syn_t, real_t = syn[:-2], real[:-2]
        n_trans = 0
        for it in range(cfg.total_iters):
            si = T._batch_indices(len(syn_t), cfg.batch_size, cfg.seed, 1, it)
            ri = T._batch_indices(len(real_t), cfg.batch_size, cfg.seed, 2, it)
            before = {n: T.param_digest(net) for n, net in state.nets.items()}
            T.train_step(state, T.make_batch(syn_t, si), T.make_batch(real_t, ri))
            after = {n: T.param_digest(net) for n, net in state.nets.items()}
            assert before["extractor"] == after["extractor"]
            if it % cfg.k == 0:
                n_trans += 1
                assert before["stereo"] == after["stereo"]
                assert before["flow"] == after["flow"]
                assert before["gen_a2b"] != after["gen_a2b"]
                assert before["disc_b"] != after["disc_b"]
            else:
                assert before["gen_a2b"] == after["gen_a2b"]
                assert before["gen_b2a"] == after["gen_b2a"]
                assert before["disc_a"] == after["disc_a"]
                assert before["disc_b"] == after["disc_b"]
                assert before["stereo"] != after["stereo"]
                assert before["flow"] != after["flow"]
        assert n_trans == -(-cfg.total_iters // cfg.k)

    def test_invalid_k(self):
        with pytest.raises(ConfigError):
            tiny_config(k=0)

    def test_non_multiple_warns(self, tmp_path):
        # the run warns, not the config: a config is also built to eval,
        # translate or resume, and source_only has no alternation to cut
        data = tiny_dataset(tmp_path)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            cfg = tiny_config(k=2, total_iters=1)
            T.run_training(tiny_config(k=2, total_iters=1, objective="source_only"),
                           data, str(tmp_path / "source_only"))
        with pytest.warns(UserWarning, match="total_iters=1 is not a multiple of k=2"):
            T.run_training(cfg, data, str(tmp_path / "full"))

    def test_running_averages_count_only_their_steps(self, tmp_path):
        # k = 2: iterations 0 and 2 translate, 1 and 3 train the task nets
        data = tiny_dataset(tmp_path)
        cfg = tiny_config(k=2, total_iters=4)
        state = T.init_state(cfg)
        from warpadapt.scenegen import read_dataset, split_domains
        syn, real = split_domains(read_dataset(data))
        syn_t, real_t = syn[:-2], real[:-2]
        records = []
        for it in range(cfg.total_iters):
            si = T._batch_indices(len(syn_t), cfg.batch_size, cfg.seed, 1, it)
            ri = T._batch_indices(len(real_t), cfg.batch_size, cfg.seed, 2, it)
            records.append(T.train_step(state, T.make_batch(syn_t, si), T.make_batch(real_t, ri)))
        task_keys = ("disp_supervised", "disp_warp_real", "flow_supervised",
                     "flow_warp_real", "stereo_total", "flow_total")
        one = np.float32(1.0)
        for key in BREAKDOWN_KEYS:
            want = np.float32(0.0)
            for rec in records[1::2] if key in task_keys else records[0::2]:
                want = want * T.RUNNING_DECAY + rec[key] * (one - T.RUNNING_DECAY)
            assert state.running[key].item() == want, key
        assert records[1]["cycle"] == 0 and records[0]["cycle"] > 0


class TestDeterminism:
    def test_identical_runs(self, tmp_path):
        data = tiny_dataset(tmp_path)
        cfg = tiny_config(total_iters=6, eval_every=3)
        _, log1, rep1 = T.run_training(cfg, data, str(tmp_path / "o1"))
        _, log2, rep2 = T.run_training(cfg, data, str(tmp_path / "o2"))
        assert log1 == log2
        assert rep1.to_text() == rep2.to_text()
        b1 = open(tmp_path / "o1" / "checkpoint_final.wck", "rb").read()
        b2 = open(tmp_path / "o2" / "checkpoint_final.wck", "rb").read()
        assert b1 == b2

    def test_zero_iters_runs_initial_eval(self, tmp_path):
        data = tiny_dataset(tmp_path)
        cfg = tiny_config(total_iters=0, k=1)
        state, log, report = T.run_training(cfg, data, str(tmp_path / "o"))
        assert state.iteration == 0
        assert any(line.startswith("eval\t0") for line in log)
        assert report.sample_count == 2


class TestCheckpoint:
    @staticmethod
    def _config_text(raw: bytes) -> bytes:
        """The config text, whose u32 byte length follows the magic and the version."""
        n = struct.unpack_from("<I", raw, 12)[0]
        return raw[16:16 + n]

    def test_stored_config_is_config_text(self, tmp_path):
        cfg = tiny_config()
        path = str(tmp_path / "c.wck")
        T.save_checkpoint(T.init_state(cfg), path)
        with open(path, "rb") as fh:
            r = Reader(fh.read())
        r.expect_magic(CHECKPOINT_MAGIC)
        r.u32()
        assert r.text(r.u32()) == T.config_to_text(cfg)
        names = []
        for _ in range(r.u32()):
            names.append(r.text(r.u16()))
            r.tensor()
        assert not [n for n in names if n.startswith("cfg.")]

    def test_embedded_config_rebuilds_non_default(self, tmp_path):
        # each config holds a value float32 cannot represent; the stored text is exact
        path = str(tmp_path / "c.wck")
        for cfg in (T.TrainConfig(), T.TrainConfig(seed=2 ** 24 + 1),
                    T.TrainConfig(weights=LossWeights(lambda_ms=0.1)),
                    tiny_config(objective="source_only", d1_mode="and", lr_disp=1e-3 / 3,
                                adam_beta2=0.9995, gamma_stages=0.85)):
            T.save_checkpoint(T.init_state(cfg), path)
            assert T.load_checkpoint(path).config == cfg

    def test_config_text_round_trip(self):
        cfg = tiny_config(seed=2 ** 40 + 1, lr_flow=1e-3 / 7,
                          weights=LossWeights(lambda_cycle=1 / 3, lambda_ms=0.0))
        text = T.config_to_text(cfg)
        assert text.splitlines()[0] == "k=3"
        assert [line.split("=")[0] for line in text.splitlines()] == list(T.CONFIG_KEYS)
        assert T.build_train_config(T.parse_config_text(text, "t")) == cfg

    @pytest.mark.parametrize("key, value", [("channels_base", 8), ("max_disp", 16),
                                            ("max_flow", 8)])
    def test_resume_with_changed_shape_key_refused(self, tmp_path, key, value):
        path = str(tmp_path / "c.wck")
        T.save_checkpoint(T.init_state(tiny_config()), path)
        with pytest.raises(ConfigError, match=key):
            T.load_checkpoint(path, tiny_config(**{key: value}))

    def test_round_trip_bit_exact(self, tmp_path):
        data = tiny_dataset(tmp_path)
        cfg = tiny_config(total_iters=3)
        state, _, _ = T.run_training(cfg, data, str(tmp_path / "o"))
        path = str(tmp_path / "o" / "checkpoint_final.wck")
        loaded = T.load_checkpoint(path)
        assert loaded.iteration == state.iteration
        for name, net in state.nets.items():
            for pname, p in net.parameters().items():
                assert np.array_equal(p.data, loaded.nets[name].parameters()[pname].data)
        T.save_checkpoint(loaded, str(tmp_path / "resaved.wck"))
        assert open(path, "rb").read() == open(tmp_path / "resaved.wck", "rb").read()

    def test_file_ends_after_iteration(self, tmp_path):
        state = T.init_state(tiny_config())
        state.iteration = 7
        path = str(tmp_path / "c.wck")
        T.save_checkpoint(state, path)
        with open(path, "rb") as fh:
            r = Reader(fh.read())
        r.expect_magic(CHECKPOINT_MAGIC)
        assert r.u32() == T.CHECKPOINT_VERSION == 4
        r.text(r.u32())
        for _ in range(r.u32()):
            r.take(r.u16())
            r.tensor()
        assert [r.u64() for _ in state.opts] == [0, 0, 0, 0]
        assert r.u64() == 7
        r.done()

    def test_step_counts_exact(self, tmp_path):
        # 2**24 + 1 is the least positive integer that float32 cannot hold
        state = T.init_state(tiny_config())
        for n, opt in enumerate(state.opts.values()):
            opt.t = 2 ** 24 + 1 + n
        path = str(tmp_path / "c.wck")
        T.save_checkpoint(state, path)
        loaded = T.load_checkpoint(path)
        assert [opt.t for opt in loaded.opts.values()] == [2 ** 24 + 1 + n for n in range(4)]

    def test_failed_write_keeps_previous_checkpoint(self, tmp_path, monkeypatch):
        state = T.init_state(tiny_config())
        path = str(tmp_path / "c.wck")
        T.save_checkpoint(state, path)
        before = open(path, "rb").read()

        class FullDisk:
            """A file that takes half of what it is given, then fails."""

            def __init__(self, name, mode):
                self.fh = open(name, mode)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                self.fh.close()

            def write(self, data):
                self.fh.write(data[:len(data) // 2])
                raise OSError(28, "No space left on device")

        state.iteration = 9
        monkeypatch.setattr(T, "open", FullDisk, raising=False)
        with pytest.raises(OSError, match="No space"):
            T.save_checkpoint(state, path)
        monkeypatch.undo()
        assert open(path, "rb").read() == before
        assert os.listdir(tmp_path) == ["c.wck"]

    @staticmethod
    def _refuses_version(tmp_path, version):
        path = tmp_path / "c.wck"
        T.save_checkpoint(T.init_state(tiny_config()), str(path))
        raw = bytearray(path.read_bytes())
        raw[len(CHECKPOINT_MAGIC):len(CHECKPOINT_MAGIC) + 4] = struct.pack("<I", version)
        path.write_bytes(bytes(raw))
        with pytest.raises(FormatError, match=f"version {version}"):
            T.load_checkpoint(str(path))

    def test_version_1_refused(self, tmp_path):
        self._refuses_version(tmp_path, 1)

    def test_version_2_refused(self, tmp_path):
        self._refuses_version(tmp_path, 2)

    def test_version_3_refused(self, tmp_path):
        self._refuses_version(tmp_path, 3)

    @staticmethod
    def _rehead(raw: bytes, name: bytes, shape: tuple) -> bytes:
        """Rewrite the extents of one record, keeping its payload."""
        at = raw.index(struct.pack("<H", len(name)) + name) + 2 + len(name)
        return raw[:at] + struct.pack("<B4I", 4, *shape) + raw[at + 17:]

    @classmethod
    def _append(cls, raw: bytes, name: bytes) -> bytes:
        """Add one more record after the others, before the tail of four step
        counts and the iteration (five u64), and count it in the header."""
        rec = struct.pack("<H", len(name)) + name + pack_tensor(np.zeros((1, 1, 1, 1)))
        at = 16 + len(cls._config_text(raw))
        count = struct.unpack_from("<I", raw, at)[0]
        return raw[:at] + struct.pack("<I", count + 1) + raw[at + 4:-40] + rec + raw[-40:]

    @pytest.mark.parametrize("case, record", [
        ("renamed", "net.stereo.enc1.w"),
        ("param_reshaped", "net.stereo.enc1.b"),
        ("moment_reshaped", "opt.stereo.m.enc1.b"),
        ("extra_record", "net.extra.w"),
        ("duplicate_record", "net.stereo.enc1.w"),
    ])
    def test_corrupted_records_refused(self, tmp_path, case, record):
        # channels_base 8 gives enc1.b 8 elements, so the re-headed (1, 4, 1, 2)
        # record keeps its payload size and the framing stays valid
        cfg = tiny_config(channels_base=8)
        path = tmp_path / "c.wck"
        T.save_checkpoint(T.init_state(cfg), str(path))
        raw = path.read_bytes()
        path.write_bytes({
            "renamed": lambda: raw.replace(b"net.stereo.", b"nXt.stereo."),
            "param_reshaped": lambda: self._rehead(raw, b"net.stereo.enc1.b", (1, 4, 1, 2)),
            "moment_reshaped": lambda: self._rehead(raw, b"opt.stereo.m.enc1.b", (1, 4, 1, 2)),
            "extra_record": lambda: self._append(raw, b"net.extra.w"),
            "duplicate_record": lambda: self._append(raw, b"net.stereo.enc1.w"),
        }[case]())
        for config in (None, cfg):
            with pytest.raises(FormatError, match=re.escape(repr(record))):
                T.load_checkpoint(str(path), config)

    @pytest.mark.parametrize("old, new, match", [
        (b"max_flow=4\n", b"", "missing config key 'max_flow'"),
        (b"max_flow=4\n", b"max_flXw=4\n", "unknown config key 'max_flXw'"),
        (b"k=3\n", b"k=0\n", "k must be >= 1"),
        (b"k=3\n", b"k=5.5\n", "k must be int"),
        (b"objective=full\n", b"objective=bogus\n", "unknown objective"),
        (b"objective=full\n", b"objective=\xff\n", "invalid UTF-8"),
    ], ids=["missing_key", "unknown_key", "refused_value", "int_not_int",
            "unknown_choice", "not_utf8"])
    def test_bad_config_text_refused(self, tmp_path, old, new, match):
        cfg = tiny_config()
        path = tmp_path / "c.wck"
        T.save_checkpoint(T.init_state(cfg), str(path))
        raw = path.read_bytes()
        text = self._config_text(raw)
        assert old in text
        edited = text.replace(old, new)
        path.write_bytes(raw[:12] + struct.pack("<I", len(edited)) + edited
                         + raw[16 + len(text):])
        for config in (None, cfg):
            with pytest.raises(FormatError, match=re.escape(match)):
                T.load_checkpoint(str(path), config)

    def test_resume_reports_changed_keys(self, tmp_path):
        path = str(tmp_path / "c.wck")
        T.save_checkpoint(T.init_state(tiny_config()), path)
        with pytest.warns(UserWarning, match=r"changed config: total_iters 6 -> 9, "
                                             r"lr_disp 0\.001 -> 0\.002$"):
            T.load_checkpoint(path, tiny_config(lr_disp=0.002, total_iters=9))

    def test_resume_with_equal_config_is_quiet(self, tmp_path):
        path = str(tmp_path / "c.wck")
        T.save_checkpoint(T.init_state(tiny_config()), path)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            T.load_checkpoint(path, tiny_config())
            T.load_checkpoint(path)

    def test_wrong_magic(self, tmp_path):
        p = tmp_path / "bad.wck"
        p.write_bytes(b"NOTMAGIC" + b"\x00" * 32)
        with pytest.raises(FormatError, match="magic"):
            T.load_checkpoint(str(p))

    def test_resume_equivalence(self, tmp_path):
        data = tiny_dataset(tmp_path)
        full_cfg = tiny_config(k=3, total_iters=16, eval_every=0)
        _, log_full, rep_full = T.run_training(full_cfg, data, str(tmp_path / "full"))

        # stop at iteration 6 (same prefix: batches are a pure function of the
        # iteration index), then resume under the full-length config
        short_cfg = tiny_config(k=3, total_iters=6, eval_every=0)
        T.run_training(short_cfg, data, str(tmp_path / "short"))
        _, log_resumed, rep_res = T.run_training(
            full_cfg, data, str(tmp_path / "resumed"),
            resume=str(tmp_path / "short" / "checkpoint_final.wck"))

        full_steps = [l for l in log_full if not l.startswith("eval")]
        res_steps = [l for l in log_resumed if not l.startswith("eval")]
        assert res_steps == full_steps[6:]
        assert rep_res.to_text() == rep_full.to_text()


class TestNonFinite:
    @staticmethod
    def _stereo_param(state):
        return state.nets["stereo"].parameters()["df.w"]

    def _assert_nothing_stepped(self, state, before):
        assert all(opt.t == 0 for opt in state.opts.values())
        assert np.array_equal(self._stereo_param(state).data, before)

    def test_non_finite_loss_stops_before_backward(self):
        state = T.init_state(tiny_config())
        state.iteration = 4
        p = self._stereo_param(state)
        before = p.data.copy()
        nan = Tensor(np.full((1, 1, 1, 1), np.nan, dtype=np.float32))
        loss = (p * 0.0).sum() + nan
        with pytest.raises(NonFiniteError,
                           match=r"iteration 4: non-finite loss \(disp_supervised\)"):
            T._optimize(state, loss, {"disp_supervised": nan}, "stereo")
        assert p.grad is None
        self._assert_nothing_stepped(state, before)

    @pytest.mark.filterwarnings("ignore:divide by zero:RuntimeWarning",
                                "ignore:invalid value:RuntimeWarning")
    def test_non_finite_gradient_stops_before_step(self):
        # sqrt's slope at 0 is infinite, so a finite loss gets a NaN gradient
        state = T.init_state(tiny_config())
        p = self._stereo_param(state)
        before = p.data.copy()
        loss = K.sqrt((p * 0.0).sum())
        with pytest.raises(NonFiniteError, match="iteration 0: non-finite gradient of the stereo"):
            T._optimize(state, loss, {"disp_supervised": loss}, "stereo", "flow")
        self._assert_nothing_stepped(state, before)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_diverging_run_writes_no_checkpoint(self, tmp_path):
        # the step that diverges stops on its NaN alone, with no numpy warning
        data = tiny_dataset(tmp_path)
        out = tmp_path / "o"
        with pytest.raises(NonFiniteError, match=r"iteration \d+: non-finite"):
            T.run_training(tiny_config(lr_disp=1e6, total_iters=9), data, str(out))
        assert not (out / "checkpoint_final.wck").exists()
        assert (out / "train.log").read_text().startswith("eval\t0\t")


class TestSourceOnly:
    def test_translation_nets_untouched(self, tmp_path):
        data = tiny_dataset(tmp_path)
        cfg = tiny_config(objective="source_only", total_iters=4, k=1)
        state, log, _ = T.run_training(cfg, data, str(tmp_path / "o"))
        fresh = T.init_state(cfg)
        assert T.param_digest(state.nets["gen_a2b"]) == T.param_digest(fresh.nets["gen_a2b"])
        assert T.param_digest(state.nets["stereo"]) != T.param_digest(fresh.nets["stereo"])
