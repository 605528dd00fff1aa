"""Deterministic desk-scale training loop.

One molecule per step, round-robin over the dataset; global-norm gradient
clipping; first-order adaptive updates with decoupled weight decay. The
(seed, dataset order, configs) triple fully determines every loss value, and
checkpoint resume reproduces the uninterrupted run bit for bit.
"""

from __future__ import annotations

import json
import os
import zlib
from dataclasses import dataclass, field

import numpy as np

from .autodiff import Tape, TapeParams, backward
from .errors import (
    CheckpointError,
    FileAccessError,
    MissingTargetError,
    NonFiniteError,
    TrainingError,
    temp_path,
    write_file,
)
from .model import Model, ModelConfig
from .molecule import Molecule
from .rng import RandomStream

CHECKPOINT_MAGIC = b"DEMOLCKPT1"
# JSON type of every header entry besides "version"
_HEADER_TYPES = {
    "step": int, "opt_t": int, "model_config": dict, "param_names": list, "param_size": int,
    "rng": dict, "payload_crc32": int, "payload_len": int,
}


@dataclass(frozen=True)
class TrainConfig:
    seed: int = 0
    steps: int = 100
    lr: float = 1e-3
    betas: tuple[float, float] = (0.9, 0.999)
    eps: float = 1e-8
    grad_clip: float = 5.0
    weight_decay: float = 0.0
    log_every: int = 0  # 0 = silent

    def __post_init__(self):
        # written as "not x >= 0" so that NaN fails too
        if not (self.lr >= 0 and self.weight_decay >= 0):
            raise ValueError("lr and weight_decay must be >= 0")
        b1, b2 = self.betas
        if not (0.0 <= b1 < 1.0 and 0.0 <= b2 < 1.0):
            raise ValueError("betas must be in [0, 1)")
        if not (self.eps > 0 and self.grad_clip > 0):
            raise ValueError("eps and grad_clip must be positive")
        object.__setattr__(self, "betas", (float(b1), float(b2)))


@dataclass
class OptimizerState:
    m: np.ndarray  # first moments
    v: np.ndarray  # second moments
    t: int = 0  # completed update count

    @classmethod
    def zeros(cls, size: int) -> "OptimizerState":
        return cls(np.zeros(size), np.zeros(size), 0)


def clip_gradients(grads: np.ndarray, max_norm: float) -> tuple[np.ndarray, float]:
    norm = float(np.linalg.norm(grads))
    if norm > max_norm:
        grads = grads * (max_norm / norm)
    return grads, norm


def adamw_update(
    flat: np.ndarray, grads: np.ndarray, state: OptimizerState, cfg: TrainConfig
) -> np.ndarray:
    """Bias-corrected adaptive step with decoupled weight decay."""
    b1, b2 = cfg.betas
    state.t += 1
    state.m = b1 * state.m + (1.0 - b1) * grads
    state.v = b2 * state.v + (1.0 - b2) * grads * grads
    m_hat = state.m / (1.0 - b1**state.t)
    v_hat = state.v / (1.0 - b2**state.t)
    step = cfg.lr * m_hat / (np.sqrt(v_hat) + cfg.eps)
    return flat - step - cfg.lr * cfg.weight_decay * flat


@dataclass
class TrainResult:
    model: Model
    history: list[dict] = field(default_factory=list)
    optimizer: OptimizerState | None = None
    rng: RandomStream | None = None
    step: int = 0


def train(
    dataset: list[Molecule],
    model_config: ModelConfig,
    train_config: TrainConfig,
    *,
    resume: str | None = None,
    log=None,
) -> TrainResult:
    if not dataset:
        raise ValueError("dataset is empty")
    if model_config.loss_weights[0] != 0.0:
        for i, mol in enumerate(dataset):
            if mol.target is None:
                raise MissingTargetError(f"dataset molecule {i} ({mol.name!r}) has no target")

    if resume is not None:
        model, opt, rng, start_step = load_checkpoint(resume)
        if model.config != model_config:
            raise CheckpointError("checkpoint model configuration differs from the requested one")
    else:
        rng = RandomStream(train_config.seed)
        model = Model(model_config, rng=rng)
        opt = OptimizerState.zeros(model.params.size)
        start_step = 0

    history: list[dict] = []
    flat = model.params.flat()
    for step in range(start_step, train_config.steps):
        grads, parts = _step_gradients(model, dataset[step % len(dataset)], rng, step)
        if not np.isfinite(grads).all():
            raise TrainingError(f"non-finite gradients at step {step}")
        grads, norm = clip_gradients(grads, train_config.grad_clip)
        flat = adamw_update(flat, grads, opt, train_config)
        model.params.set_flat(flat)
        record = {"step": step, "grad_norm": norm, **parts}
        history.append(record)
        if log is not None and train_config.log_every and step % train_config.log_every == 0:
            log(f"step {step}: loss {parts['total']:.6f} grad_norm {norm:.4f}")

    return TrainResult(model, history, opt, rng, train_config.steps)


def _step_gradients(
    model: Model, mol: Molecule, rng: RandomStream, step: int
) -> tuple[np.ndarray, dict[str, float]]:
    """One step's flat gradient and loss parts; the step's tape dies on return."""
    tape = Tape()
    try:
        loss, parts = model.total_loss(mol, rng=rng, tape=tape)
    except NonFiniteError as exc:
        raise TrainingError(f"non-finite loss at step {step}: {exc}") from exc
    tp = TapeParams(model.params, tape)
    return tp.flat_gradients(backward(tape, loss)), parts


def evaluate(dataset: list[Molecule], model: Model) -> float:
    """Mean absolute error in eV over molecules with targets."""
    if not dataset:
        raise ValueError("dataset is empty")
    errors = []
    for i, mol in enumerate(dataset):
        if mol.target is None:
            raise MissingTargetError(f"dataset molecule {i} ({mol.name!r}) has no target")
        errors.append(abs(mol.target - model.predict(mol)))
    return float(np.mean(errors))


# ---------------------------------------------------------------------------
# Checkpoints
# ---------------------------------------------------------------------------


def check_checkpoint_path(path: str) -> None:
    """Raise ``FileAccessError`` now if no checkpoint could be written at ``path``.

    Creates and removes the temp file ``save_checkpoint`` would write; an
    existing checkpoint at ``path`` is not touched.
    """
    try:
        if os.path.isdir(path):
            raise IsADirectoryError(f"{path} is a directory")
        with open(temp_path(path), "wb"):
            pass
        os.remove(temp_path(path))
    except OSError as exc:
        raise FileAccessError(f"cannot write checkpoint {path}: {exc.strerror or exc}") from None


def save_checkpoint(
    path: str, model: Model, opt: OptimizerState, rng: RandomStream, step: int
) -> None:
    """Write a temp file next to ``path``, fsync it, then rename it over ``path``.

    A failed write raises ``FileAccessError`` and leaves any old file intact.
    """
    params_flat = model.params.flat()
    payload = np.concatenate([params_flat, opt.m, opt.v]).astype("<f8").tobytes()
    header = {
        "version": 1,
        "step": int(step),
        "opt_t": int(opt.t),
        "model_config": model.config.to_dict(),
        "param_names": list(model.params.names()),
        "param_size": int(model.params.size),
        "rng": {"seed": int(rng.seed), "counter": int(rng.counter)},
        "payload_crc32": zlib.crc32(payload) & 0xFFFFFFFF,
        "payload_len": len(payload),
    }
    header_bytes = json.dumps(header, sort_keys=True).encode("utf-8")
    size = len(header_bytes).to_bytes(4, "little")
    write_file(path, CHECKPOINT_MAGIC + size + header_bytes + payload, "checkpoint")


def load_checkpoint(path: str) -> tuple[Model, OptimizerState, RandomStream, int]:
    try:
        with open(path, "rb") as fh:
            blob = fh.read()
    except OSError as exc:
        raise CheckpointError(f"cannot read checkpoint {path}: {exc}") from exc

    if len(blob) < len(CHECKPOINT_MAGIC) + 4 or not blob.startswith(CHECKPOINT_MAGIC):
        raise CheckpointError(f"{path} is not a checkpoint (bad magic)")
    offset = len(CHECKPOINT_MAGIC)
    header_len = int.from_bytes(blob[offset : offset + 4], "little")
    offset += 4
    if len(blob) < offset + header_len:
        raise CheckpointError(f"{path} is truncated (header)")
    try:
        header = json.loads(blob[offset : offset + header_len].decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise CheckpointError(f"{path} has a corrupt header: {exc}") from exc
    offset += header_len

    if not isinstance(header, dict):
        raise CheckpointError(f"{path} has a corrupt header: not a JSON object")
    if header.get("version") != 1:
        raise CheckpointError(f"unsupported checkpoint version {header.get('version')!r}")
    for key, kind in _HEADER_TYPES.items():
        if not isinstance(header.get(key), kind):
            raise CheckpointError(f"{path} has a corrupt header: no {kind.__name__} {key!r}")
    if not all(isinstance(header["rng"].get(key), int) for key in ("seed", "counter")):
        raise CheckpointError(f"{path} has a corrupt header: no int rng seed and counter")
    payload = blob[offset:]
    if len(payload) != header["payload_len"]:
        raise CheckpointError(f"{path} is truncated (payload)")
    if (zlib.crc32(payload) & 0xFFFFFFFF) != header["payload_crc32"]:
        raise CheckpointError(f"{path} failed the payload checksum")

    try:
        model = Model(ModelConfig.from_dict(header["model_config"]), seed=0)  # values set below
    except (TypeError, ValueError) as exc:
        raise CheckpointError(f"{path} has a bad model configuration: {exc}") from None
    size = header["param_size"]
    if model.params.size != size or list(model.params.names()) != header["param_names"]:
        raise CheckpointError("checkpoint parameter layout does not match the model")
    data = np.frombuffer(payload, dtype="<f8")
    if data.size != 3 * size:
        raise CheckpointError("checkpoint payload has the wrong length")
    model.params.set_flat(data[:size].copy())
    opt = OptimizerState(data[size : 2 * size].copy(), data[2 * size :].copy(), header["opt_t"])
    rng = RandomStream(header["rng"]["seed"], header["rng"]["counter"])
    return model, opt, rng, int(header["step"])


# ---------------------------------------------------------------------------
# Flat key-value config files
# ---------------------------------------------------------------------------

_TRAIN_KEYS = {
    "seed": int, "steps": int, "lr": float, "eps": float,
    "grad_clip": float, "weight_decay": float, "log_every": int,
}
_MODEL_KEYS = {
    "d_a": int, "d_b": int, "d_h": int, "n_heads": int, "n_layers": int,
    "ffn_multiplier": int, "mask_ratio": float, "coord_noise_sigma": float,
    "kernels": int, "width_dist": float, "width_tors": float, "max_spd": int,
    "length_bucket_width": float, "n_length_buckets": int,
    "bond_alpha": float, "mask_cutoff": float,
}
_MODEL_FLAGS = {"use_structure_masks", "use_torsion", "pre_norm", "parallel_cross"}
_BOOLEANS = {
    "1": True, "true": True, "yes": True, "on": True,
    "0": False, "false": False, "no": False, "off": False,
}


def parse_config_file(text: str) -> tuple[dict, dict]:
    """Flat ``key = value`` lines -> (model overrides, train overrides)."""
    model_kv: dict = {}
    train_kv: dict = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" in line:
            key, _, value = line.partition("=")
        else:
            parts = line.split(None, 1)
            if len(parts) != 2:
                raise ValueError(f"config line {lineno}: expected 'key = value', got {raw!r}")
            key, value = parts
        key = key.strip()
        value = value.strip()
        if key in _TRAIN_KEYS:
            train_kv[key] = _TRAIN_KEYS[key](value)
        elif key == "betas":
            b1, b2 = (float(v) for v in value.split(","))
            train_kv["betas"] = (b1, b2)
        elif key in _MODEL_KEYS:
            model_kv[key] = _MODEL_KEYS[key](value)
        elif key in _MODEL_FLAGS:
            if value.lower() not in _BOOLEANS:
                raise ValueError(f"config line {lineno}: {key} must be a boolean, got {value!r}")
            model_kv[key] = _BOOLEANS[value.lower()]
        elif key == "loss_weights":
            model_kv["loss_weights"] = tuple(float(v) for v in value.split(","))
        elif key == "elements":
            model_kv["elements"] = tuple(v.strip() for v in value.split(","))
        elif key == "cross_order":
            model_kv["cross_order"] = value
        else:
            raise ValueError(f"config line {lineno}: unknown key {key!r}")
    return model_kv, train_kv
