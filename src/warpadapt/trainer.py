"""Alternating joint optimization of the translation and task networks.

Every k-th iteration updates the translation module (discriminators first,
then generators) while the task networks only provide frozen context; the
other iterations update the stereo and flow networks on translated synthetic
batches plus real-image feature warping, with the translation module frozen.
Freezing is enforced structurally: frozen passes run without graph recording,
so their parameters can never accumulate gradients.
"""

from __future__ import annotations

import math
import os
import struct
import warnings
from dataclasses import dataclass, field, fields
from functools import reduce

import numpy as np

from . import losses as L
from . import metrics as M
from .autograd import Tensor, backward, concat, no_grad, split, zero_grads
from .dataio import CHECKPOINT_MAGIC, Reader, pack_tensor
from .errors import ConfigError, FormatError, NonFiniteError, UsageError
from .networks import Discriminator, Extractor, FlowNet, Generator, StereoNet
from .scenegen import FIELD_ORDER, read_dataset, split_domains
from .warping import multiscale_warp_loss

CHECKPOINT_VERSION = 4
RUNNING_DECAY = np.float32(0.98)
OBJECTIVES = ("full", "source_only")
# string fields and their allowed values
CHOICES = {"objective": OBJECTIVES, "d1_mode": M.D1_MODES}
# fields that fix parameter shapes, so a checkpoint only resumes under equal values
SHAPE_KEYS = ("channels_base", "max_disp", "max_flow")


@dataclass
class TrainConfig:
    k: int = 5
    total_iters: int = 400
    batch_size: int = 2
    lr_translation: float = 2e-4
    lr_disp: float = 1e-3
    lr_flow: float = 1e-3
    adam_beta1: float = 0.9
    adam_beta2: float = 0.999
    flow_weight_decay: float = 0.01
    weights: L.LossWeights = field(default_factory=L.LossWeights)
    seed: int = 0
    eval_every: int = 100
    channels_base: int = 8
    max_disp: int = 16
    max_flow: int = 8
    val_count: int = 40
    gamma_stages: float = 0.9
    objective: str = "full"          # one of OBJECTIVES
    d1_mode: str = "or"              # one of metrics.D1_MODES

    def __post_init__(self):
        if self.k < 1:
            raise ConfigError(f"k must be >= 1, got {self.k}")
        if self.batch_size < 1:
            raise ConfigError(f"batch_size must be >= 1, got {self.batch_size}")
        for name in ("total_iters", "seed", "eval_every", "val_count"):
            if getattr(self, name) < 0:
                raise ConfigError(f"{name} must be >= 0, got {getattr(self, name)}")
        for name in ("lr_translation", "lr_disp", "lr_flow"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value > 0):
                raise ConfigError(f"{name} must be finite and positive, got {value}")
        for name in ("adam_beta1", "adam_beta2"):
            value = getattr(self, name)
            if not 0.0 <= value < 1.0:  # also false for nan
                raise ConfigError(f"{name} must be in [0, 1), got {value}")
        if not (math.isfinite(self.flow_weight_decay) and self.flow_weight_decay >= 0):
            raise ConfigError(f"flow_weight_decay must be finite and >= 0, "
                              f"got {self.flow_weight_decay}")
        if not 0.0 < self.gamma_stages <= 1.0:  # also false for nan
            raise ConfigError(f"gamma_stages must be in (0, 1], got {self.gamma_stages}")
        if self.channels_base < 4:
            raise ConfigError(f"channels_base must be >= 4, got {self.channels_base}")
        for name in ("max_disp", "max_flow"):
            value = getattr(self, name)
            if value < 4 or value % 4:
                raise ConfigError(f"{name} must be >= 4 and divisible by 4, got {value}")
        for name, allowed in CHOICES.items():
            if getattr(self, name) not in allowed:
                raise ConfigError(f"unknown {name} {getattr(self, name)!r}")


def _config_keys() -> dict:
    """Flat config key -> value type, in config text order: the TrainConfig
    fields in declaration order, then ``weights.<name>`` per loss weight."""
    keys = {f.name: type(f.default) for f in fields(TrainConfig) if f.name != "weights"}
    keys.update({f"weights.{f.name}": type(f.default) for f in fields(L.LossWeights)})
    return keys


CONFIG_KEYS = _config_keys()


def parse_config_text(text: str, source: str) -> dict:
    """Flat key=value lines; '#' comments; later keys win."""
    out = {}
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{source}:{lineno}: expected key=value, got {raw!r}")
        key, val = (part.strip() for part in line.split("=", 1))
        if key not in CONFIG_KEYS:
            raise ConfigError(f"{source}:{lineno}: unknown config key {key!r}")
        out[key] = val
    return out


def build_train_config(kv: dict) -> TrainConfig:
    """TrainConfig from text values under CONFIG_KEYS names, each parsed with
    its field's type; absent keys keep their defaults."""
    args, weights = {}, {}
    for key, text in kv.items():
        kind = CONFIG_KEYS[key]
        try:
            value = kind(text)
        except ValueError:
            raise ConfigError(f"{key} must be {kind.__name__}, got {text!r}") from None
        group, _, name = key.rpartition(".")
        (weights if group else args)[name] = value
    if weights:
        args["weights"] = L.LossWeights(**weights)
    return TrainConfig(**args)


def _config_values(config: TrainConfig) -> dict:
    """CONFIG_KEYS key -> the config's value, in order."""
    return {key: reduce(getattr, key.split("."), config) for key in CONFIG_KEYS}


def config_to_text(config: TrainConfig) -> str:
    """One key=value line per CONFIG_KEYS entry, in order. A float prints as
    the shortest string that parses back to it, so the text is exact."""
    return "".join(f"{key}={value}\n" for key, value in _config_values(config).items())


# -- optimizer -------------------------------------------------------------------

def adam_update(opt: Adam, eps: float = 1e-8) -> None:
    """One bias-corrected Adam step on every parameter of ``opt``; a parameter
    without a gradient steps as if its gradient were zero. Weight decay is
    decoupled (AdamW style)."""
    lr, (b1, b2) = opt.lr, opt.betas
    opt.t += 1
    c1 = 1.0 - b1 ** opt.t
    c2 = 1.0 - b2 ** opt.t
    for name, p in opt.params.items():
        g = np.zeros_like(p.data) if p.grad is None else p.grad
        if g.shape != p.data.shape:
            raise UsageError(f"gradient shape {g.shape} != parameter {p.data.shape}")
        m, v = opt.m[name], opt.v[name]
        m *= b1
        m += (1.0 - b1) * g
        v *= b2
        v += (1.0 - b2) * (g * g)
        step = (lr / c1) * m / (np.sqrt(v / c2) + eps)
        p.data = p.data - step.astype(p.data.dtype)
        if opt.weight_decay:
            p.data = p.data - (lr * opt.weight_decay) * p.data


class Adam:
    """Adam over named parameters; ``m``, ``v`` (name -> array) and the step
    count ``t`` are the optimizer's whole state."""

    def __init__(self, params: dict, lr: float, betas: tuple, weight_decay: float = 0.0):
        self.params = params
        self.lr = lr
        self.betas = betas
        self.weight_decay = weight_decay
        self.m = {n: np.zeros_like(p.data) for n, p in params.items()}
        self.v = {n: np.zeros_like(p.data) for n, p in params.items()}
        self.t = 0

    def step(self) -> None:
        adam_update(self)

    def zero_grad(self) -> None:
        zero_grads(self.params.values())


# -- training state ----------------------------------------------------------------

@dataclass
class TrainState:
    config: TrainConfig
    iteration: int
    nets: dict
    opts: dict
    running: dict


def init_state(config: TrainConfig) -> TrainState:
    s = config.seed
    nets = {
        "gen_a2b": Generator(s * 10 + 1, config.channels_base),
        "gen_b2a": Generator(s * 10 + 2, config.channels_base),
        "disc_a": Discriminator(s * 10 + 3, config.channels_base),
        "disc_b": Discriminator(s * 10 + 4, config.channels_base),
        "stereo": StereoNet(s * 10 + 5, config.max_disp, config.channels_base),
        "flow": FlowNet(s * 10 + 6, config.max_flow, config.channels_base),
        "extractor": Extractor(s * 10 + 7),
    }
    betas = (config.adam_beta1, config.adam_beta2)
    gen_params = _merge_params({"gen_a2b": nets["gen_a2b"], "gen_b2a": nets["gen_b2a"]})
    disc_params = _merge_params({"disc_a": nets["disc_a"], "disc_b": nets["disc_b"]})
    opts = {
        "gen": Adam(gen_params, config.lr_translation, betas),
        "disc": Adam(disc_params, config.lr_translation, betas),
        "stereo": Adam(nets["stereo"].parameters(), config.lr_disp, betas),
        "flow": Adam(nets["flow"].parameters(), config.lr_flow, betas,
                     weight_decay=config.flow_weight_decay),
    }
    running = {k: np.zeros((1, 1, 1, 1), dtype=np.float32) for k in L.BREAKDOWN_KEYS}
    return TrainState(config, 0, nets, opts, running)


def _merge_params(nets: dict) -> dict:
    merged = {}
    for net_name, net in nets.items():
        for pname, p in net.parameters().items():
            merged[f"{net_name}.{pname}"] = p
    return merged


def param_digest(net) -> bytes:
    import hashlib
    h = hashlib.sha256()
    for name in sorted(net.parameters()):
        h.update(name.encode())
        h.update(np.ascontiguousarray(net.parameters()[name].data).tobytes())
    return h.digest()


# -- batching ----------------------------------------------------------------------

def _batch_indices(count: int, batch: int, seed: int, tag: int, iteration: int):
    """Deterministic shuffled batch for one iteration: a pure function of the
    iteration counter, so resumed runs see the identical stream."""
    per_epoch = max(1, count // batch)
    epoch = iteration // per_epoch
    slot = iteration % per_epoch
    perm = np.random.default_rng([seed, tag, epoch]).permutation(count)
    if batch > count:  # then slot is 0: cycle through the permutation
        return np.resize(perm, batch)
    return perm[slot * batch:(slot + 1) * batch]


def _stack(samples, attr):
    return Tensor(np.concatenate([getattr(s, attr) for s in samples], axis=0))


def make_batch(samples, indices):
    """Each field the first chosen sample holds, stacked along the batch axis."""
    chosen = [samples[i] for i in indices]
    return {name: _stack(chosen, name) for name in FIELD_ORDER
            if getattr(chosen[0], name) is not None}


# -- the two step kinds --------------------------------------------------------------

def _optimize(state: TrainState, loss: Tensor, terms: dict, *stepped: str) -> None:
    """Backpropagate ``loss`` and step only the named optimizers; every
    optimizer's gradients are cleared before and after, so nothing carries
    over into the next sub-step. A NaN or infinity in ``loss``, in one of the
    ``terms`` it is built from or in a stepped optimizer's gradient raises
    NonFiniteError before any optimizer steps."""
    bad = [key for key, term in terms.items() if not np.isfinite(term.data).all()]
    if bad or not np.isfinite(loss.data).all():
        raise NonFiniteError(f"iteration {state.iteration}: non-finite loss "
                             f"({', '.join(bad) or 'the weighted sum'})")
    for opt in state.opts.values():
        opt.zero_grad()
    backward(loss)
    bad = [name for name in stepped
           if not all(p.grad is None or np.isfinite(p.grad).all()
                      for p in state.opts[name].params.values())]
    if bad:
        raise NonFiniteError(f"iteration {state.iteration}: non-finite gradient "
                             f"of the {', '.join(bad)} parameters")
    for name in stepped:
        state.opts[name].step()
    for opt in state.opts.values():
        opt.zero_grad()


def _zero() -> Tensor:
    return Tensor(np.zeros((1, 1, 1, 1), dtype=np.float32))


def translation_step(state: TrainState, syn: dict, real: dict) -> dict:
    nets, cfg = state.nets, state.config
    w = cfg.weights
    ga, gb = nets["gen_a2b"], nets["gen_b2a"]
    da, db = nets["disc_a"], nets["disc_b"]
    x_l, x_r, x_t1 = syn["left"], syn["right"], syn["next_left"]
    y_l = real["left"]
    y_r = real["right"]
    occ = syn["occlusion"]

    fx_l, ax_l = ga.forward(x_l)
    fx_r, ax_r = ga.forward(x_r)
    fx_t1, ax_t1 = ga.forward(x_t1)
    fy_l, _ = gb.forward(y_l)
    rec_x_l, bx_l = gb.forward(fx_l)
    rec_x_r, bx_r = gb.forward(fx_r)
    _, bx_t1 = gb.forward(fx_t1, need_output=False)
    rec_y_l, _ = ga.forward(fy_l)

    # discriminator sub-step on detached fakes
    d_real_b = db.forward(concat([y_l, y_r], axis=0))
    d_fake_b = db.forward(concat([fx_l.detach(), fx_r.detach()], axis=0))
    _, disc_b = L.adversarial_loss(d_real_b, d_fake_b)
    d_real_a = da.forward(concat([x_l, x_r], axis=0))
    d_fake_a = da.forward(fy_l.detach())
    _, disc_a = L.adversarial_loss(d_real_a, d_fake_a)
    disc_terms = {"adv_syn2real_disc": disc_b, "adv_real2syn_disc": disc_a}
    _optimize(state, disc_b + disc_a, disc_terms, "disc")

    # generator sub-step against the updated discriminators
    adv_a2b, _ = L.adversarial_loss(d_real_b.detach(),
                                    db.forward(concat([fx_l, fx_r], axis=0)))
    adv_b2a, _ = L.adversarial_loss(d_real_a.detach(), da.forward(fy_l))
    parts = {
        "adv_syn2real_gen": adv_a2b,
        "adv_real2syn_gen": adv_b2a,
        "cycle": (L.cycle_loss(rec_x_l, x_l) + L.cycle_loss(rec_x_r, x_r)) * 0.5
                 + L.cycle_loss(rec_y_l, y_l),
        "perceptual": _maybe(w.lambda_perceptual,
                             lambda: L.perceptual_loss(rec_y_l, y_l, nets["extractor"])
                             + L.perceptual_loss(rec_x_l, x_l, nets["extractor"])),
        "cosine": _maybe(w.lambda_cosine,
                         lambda: L.cosine_loss(rec_y_l, y_l) + L.cosine_loss(rec_x_l, x_l)),
        "disp_warp_syn": _maybe(w.lambda_disp_warp_syn, lambda: (
            multiscale_warp_loss(ax_l, ax_r, syn["disparity"], sign=-1)
            + multiscale_warp_loss(bx_l, bx_r, syn["disparity"], sign=-1))),
        "flow_warp_syn": _maybe(w.lambda_flow_warp_syn, lambda: (
            multiscale_warp_loss(ax_l, ax_t1, syn["flow"], sign=-1, mask=occ)
            + multiscale_warp_loss(bx_l, bx_t1, syn["flow"], sign=-1, mask=occ))),
        "corr_consistency": _maybe(w.lambda_corr,
                                   lambda: L.corr_consistency_loss(x_l, x_r, fx_l, fx_r)),
        "mode_seeking": _maybe(w.lambda_ms,
                               lambda: L.mode_seeking_loss(fx_l, fx_t1, x_l, x_t1)),
    }
    total, translation = L.translation_objective(parts, w)
    _optimize(state, total, parts, "gen")

    return {**parts, **disc_terms, "translation": translation, "translation_total": total}


def _maybe(weight: float, fn):
    """Skip computing a term whose weight is zero (ablations)."""
    return _zero() if weight == 0.0 else fn()


def _warp_both_ways(field: Tensor, taps_a, taps_b) -> Tensor:
    """Warp loss of a's taps onto b's (sign -1) plus b's onto a's (sign +1) along one field."""
    return (multiscale_warp_loss(taps_a, taps_b, field, sign=-1)
            + multiscale_warp_loss(taps_b, taps_a, field, sign=1))


def task_step(state: TrainState, syn: dict, real: dict | None) -> dict:
    nets, cfg = state.nets, state.config
    w = cfg.weights
    source_only = cfg.objective == "source_only"

    if source_only:
        tx_l, tx_r, tx_t1 = syn["left"], syn["right"], syn["next_left"]
    else:
        # convolutions act on each sample alone, so the three frames share one pass
        with no_grad():
            frames = concat([syn["left"], syn["right"], syn["next_left"]], axis=0)
            tx_l, tx_r, tx_t1 = split(nets["gen_a2b"].translate(frames), 3)

    stages_d = nets["stereo"].forward(tx_l, tx_r)
    disp_sup = L.supervised_disp_loss(stages_d, syn["disparity"], cfg.gamma_stages)
    stages_f = nets["flow"].forward(tx_l, tx_t1)
    flow_sup = L.supervised_flow_loss(stages_f, syn["flow"], syn["occlusion"],
                                      cfg.gamma_stages)

    disp_warp = flow_warp = _zero()
    if not source_only:
        y_l, y_r, y_t1 = real["left"], real["right"], real["next_left"]
        with no_grad():
            _, taps = nets["gen_b2a"].forward(concat([y_l, y_r, y_t1], axis=0), need_output=False)
            by_l, by_r, by_t1 = zip(*(split(t, 3) for t in taps))
        disp_warp = _maybe(w.lambda_disp_warp_real, lambda: _warp_both_ways(
            nets["stereo"].forward(y_l, y_r)[-1], by_l, by_r))
        flow_warp = _maybe(w.lambda_flow_warp_real, lambda: _warp_both_ways(
            nets["flow"].forward(y_l, y_t1)[-1], by_l, by_t1))

    parts = {"disp_supervised": disp_sup, "disp_warp_real": disp_warp,
             "flow_supervised": flow_sup, "flow_warp_real": flow_warp}
    total_d = L.stereo_objective(parts, w)
    total_f = L.flow_objective(parts, w)

    _optimize(state, total_d + total_f, parts, "stereo", "flow")

    return {**parts, "stereo_total": total_d, "flow_total": total_f}


def train_step(state: TrainState, syn: dict, real: dict | None) -> dict:
    """Dispatch one iteration per the alternation schedule and advance it.
    Returns the BREAKDOWN_KEYS record, zero outside the step's own terms,
    and only those terms move their running averages."""
    if "disparity" not in syn:
        raise UsageError("synthetic batch lacks ground-truth fields")
    if state.config.objective == "source_only":
        terms = task_step(state, syn, None)
    elif state.iteration % state.config.k == 0:
        terms = translation_step(state, syn, real)
    else:
        terms = task_step(state, syn, real)
    state.iteration += 1
    record = dict.fromkeys(L.BREAKDOWN_KEYS, np.float32(0.0))
    for key, term in terms.items():
        val = record[key] = np.float32(term.item())
        avg = state.running[key]
        avg[...] = avg * RUNNING_DECAY + val * (np.float32(1.0) - RUNNING_DECAY)
    return record


# -- checkpoints ----------------------------------------------------------------------

def _state_records(state: TrainState) -> dict:
    rec = {}
    for net_name, net in state.nets.items():
        for pname, p in net.parameters().items():
            rec[f"net.{net_name}.{pname}"] = p.data
    for opt_name, opt in state.opts.items():
        for pname, m in opt.m.items():
            rec[f"opt.{opt_name}.m.{pname}"] = m
        for pname, v in opt.v.items():
            rec[f"opt.{opt_name}.v.{pname}"] = v
    for key, avg in state.running.items():
        rec[f"avg.{key}"] = avg
    return rec


def save_checkpoint(state: TrainState, path: str) -> None:
    """Write the state to a file beside ``path``, then rename it over ``path``,
    so a failed write leaves any previous checkpoint there whole."""
    text = config_to_text(state.config).encode()
    records = _state_records(state)
    chunks = [CHECKPOINT_MAGIC, struct.pack("<II", CHECKPOINT_VERSION, len(text)), text,
              struct.pack("<I", len(records))]
    for name, arr in records.items():
        nb = name.encode()
        chunks += [struct.pack("<H", len(nb)), nb, pack_tensor(arr)]
    counts = [opt.t for opt in state.opts.values()] + [state.iteration]
    chunks.append(struct.pack(f"<{len(counts)}Q", *counts))
    tmp = path + ".tmp"
    try:
        with open(tmp, "wb") as fh:
            fh.write(b"".join(chunks))
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.remove(tmp)
        raise


def load_checkpoint(path: str, config: TrainConfig | None = None) -> TrainState:
    """Restore a training state.

    The checkpoint stores its run's config as ``train --config`` text, which
    restores the exact hyperparameters. A passed config replaces it, e.g. to
    resume towards a larger ``total_iters``, and a warning lists each key it
    changes; one whose SHAPE_KEYS differ from the stored ones raises
    ConfigError. The stored text must set every CONFIG_KEYS key and make a
    valid config, and the file must hold exactly the records
    ``_state_records`` lists for that config, each in its shape; anything else
    raises FormatError.
    """
    with open(path, "rb") as fh:
        r = Reader(fh.read(), label=os.path.basename(path))
    r.expect_magic(CHECKPOINT_MAGIC)
    version = r.u32()
    if version != CHECKPOINT_VERSION:
        raise FormatError(f"unsupported checkpoint version {version}")
    try:
        kv = parse_config_text(r.text(r.u32()), "config")
        missing = [key for key in CONFIG_KEYS if key not in kv]
        if missing:
            raise ConfigError(f"missing config key {missing[0]!r}")
        stored = build_train_config(kv)
    except ConfigError as exc:
        raise FormatError(f"{r.label}: stored config refused: {exc}") from None
    config = stored if config is None else config
    for key in SHAPE_KEYS:
        if getattr(config, key) != getattr(stored, key):
            raise ConfigError(f"{key}={getattr(config, key)} does not match the "
                              f"checkpoint's {key}={getattr(stored, key)}")

    state = init_state(config)
    records = {}
    for _ in range(r.u32()):
        name = r.text(r.u16())
        if name in records:
            raise FormatError(f"{r.label}: duplicate record {name!r}")
        records[name] = r.tensor()
    for opt in state.opts.values():
        opt.t = r.u64()
    state.iteration = r.u64()
    r.done()

    live = _state_records(state)
    for name, arr in live.items():
        if name not in records:
            raise FormatError(f"{r.label}: missing record {name!r}")
        if records[name].shape != arr.shape:
            raise FormatError(f"{r.label}: record {name!r} has shape {records[name].shape}, "
                              f"expected {arr.shape}")
        arr[...] = records[name]
    extra = [name for name in records if name not in live]
    if extra:
        raise FormatError(f"{r.label}: unexpected record {extra[0]!r}")

    old, new = _config_values(stored), _config_values(config)
    changed = [f"{key} {old[key]} -> {new[key]}" for key in CONFIG_KEYS if old[key] != new[key]]
    if changed:
        warnings.warn(f"{r.label}: resuming with a changed config: {', '.join(changed)}")
    return state


# -- driver ------------------------------------------------------------------------------

def format_log_line(iteration: int, breakdown: dict) -> str:
    parts = [str(iteration)]
    parts += [f"{k}={float(breakdown[k]):.6g}" for k in L.BREAKDOWN_KEYS]
    return "\t".join(parts)


def _holdout(samples: list, val_count: int) -> tuple:
    """(training, validation): the tail ``val_count`` samples validate, or all when 0."""
    return (samples[:-val_count], samples[-val_count:]) if val_count else (samples, samples)


def run_training(config: TrainConfig, data_dir: str, out_dir: str,
                 resume: str | None = None):
    """Train on a generated dataset directory; returns (state, log lines).

    Writes ``train.log`` and ``checkpoint_final.wck`` into ``out_dir``; a run
    that stops on an error writes ``train.log`` alone. The validation split is
    the tail ``val_count`` samples of each domain; only the real half is scored.
    """
    state = load_checkpoint(resume, config) if resume else init_state(config)

    samples = read_dataset(data_dir)
    synthetic, real = split_domains(samples)
    if not synthetic or not real:
        raise UsageError("dataset must contain both synthetic and real samples")
    syn_train, _ = _holdout(synthetic, config.val_count)
    real_train, real_val = _holdout(real, config.val_count)
    if not syn_train or not real_train:
        raise UsageError(f"val_count={config.val_count} leaves no training data")
    if config.objective == "full" and config.total_iters % config.k:
        warnings.warn(f"total_iters={config.total_iters} is not a multiple of "
                      f"k={config.k}; the last alternation window is partial")

    os.makedirs(out_dir, exist_ok=True)
    log_lines = []

    def do_eval():
        report = M.evaluate(state.nets, real_val, d1_mode=config.d1_mode,
                            config={"iteration": state.iteration, "seed": config.seed})
        log_lines.append("eval\t" + str(state.iteration) + "\t"
                         + report.to_text().replace("\n", "\t"))
        return report

    try:
        do_eval()
        while state.iteration < config.total_iters:
            it = state.iteration
            syn_idx = _batch_indices(len(syn_train), config.batch_size, config.seed, 1, it)
            real_idx = _batch_indices(len(real_train), config.batch_size, config.seed, 2, it)
            # a diverging step stops on its non-finite loss or gradient alone,
            # without a numpy warning for each overflow on the way
            with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
                breakdown = train_step(state, make_batch(syn_train, syn_idx),
                                       make_batch(real_train, real_idx))
            log_lines.append(format_log_line(it, breakdown))
            if config.eval_every and state.iteration % config.eval_every == 0 \
                    and state.iteration < config.total_iters:
                do_eval()
        final_report = do_eval()
    finally:
        # a run stopped by an error (a non-finite loss) keeps the log of what it
        # did, but writes no checkpoint
        with open(os.path.join(out_dir, "train.log"), "w") as fh:
            fh.write("".join(line + "\n" for line in log_lines))
    save_checkpoint(state, os.path.join(out_dir, "checkpoint_final.wck"))
    return state, log_lines, final_report
