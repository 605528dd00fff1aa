import json
import os

import numpy as np
import pytest

from conftest import micro_config
from demol.autodiff import Tape
from demol.errors import CheckpointError, FileAccessError, MissingTargetError
from demol.fixtures import chain, water
from demol.model import Model
from demol.rng import RandomStream
from demol.training import (
    CHECKPOINT_MAGIC,
    OptimizerState,
    TrainConfig,
    adamw_update,
    check_checkpoint_path,
    clip_gradients,
    evaluate,
    load_checkpoint,
    parse_config_file,
    save_checkpoint,
    train,
)


def tiny_dataset(n=3):
    rng = RandomStream(1234)
    mols = []
    for i in range(n):
        mols.append(chain(3 + (i % 2), spacing=1.45 + 0.02 * i, target=0.1 * (i + 1)))
    del rng
    return mols


def prop_only_config(**overrides):
    return micro_config(loss_weights=(1, 0, 0, 0), **overrides)


class TestAdamW:
    def test_hand_built_single_step(self):
        # one parameter, one gradient; verify the update formula by hand
        cfg = TrainConfig(lr=0.1, betas=(0.9, 0.999), eps=1e-8, weight_decay=0.01)
        theta = np.array([2.0])
        grad = np.array([0.5])
        state = OptimizerState.zeros(1)
        new = adamw_update(theta, grad, state, cfg)
        m = 0.1 * 0.5  # (1 - beta1) * g
        v = 0.001 * 0.25  # (1 - beta2) * g^2
        m_hat = m / (1 - 0.9)
        v_hat = v / (1 - 0.999)
        expected = 2.0 - 0.1 * m_hat / (np.sqrt(v_hat) + 1e-8) - 0.1 * 0.01 * 2.0
        assert new[0] == pytest.approx(expected, abs=1e-15)
        assert state.t == 1

    def test_two_steps_accumulate_moments(self):
        cfg = TrainConfig(lr=0.05, betas=(0.8, 0.9), eps=1e-8)
        theta = np.array([1.0])
        state = OptimizerState.zeros(1)
        theta = adamw_update(theta, np.array([1.0]), state, cfg)
        theta = adamw_update(theta, np.array([-2.0]), state, cfg)
        m2 = 0.8 * (0.2 * 1.0) + 0.2 * (-2.0)
        v2 = 0.9 * (0.1 * 1.0) + 0.1 * 4.0
        m_hat = m2 / (1 - 0.8**2)
        v_hat = v2 / (1 - 0.9**2)
        theta1 = 1.0 - 0.05 * (0.2 / (1 - 0.8)) / (np.sqrt(0.1 / (1 - 0.9)) + 1e-8)
        expected = theta1 - 0.05 * m_hat / (np.sqrt(v_hat) + 1e-8)
        assert theta[0] == pytest.approx(expected, abs=1e-14)

    def test_clipping(self):
        grads = np.array([3.0, 4.0])  # norm 5
        clipped, norm = clip_gradients(grads, 1.0)
        assert norm == pytest.approx(5.0)
        assert np.linalg.norm(clipped) <= 1.0 + 1e-9
        same, _ = clip_gradients(grads, 10.0)
        assert (same == grads).all()


class TestTrainLoop:
    def test_zero_lr_keeps_params(self):
        dataset = tiny_dataset()
        result = train(dataset, prop_only_config(), TrainConfig(seed=3, steps=5, lr=0.0))
        fresh = Model(prop_only_config(), rng=RandomStream(3))
        assert (result.model.params.flat() == fresh.params.flat()).all()

    def test_same_seed_bit_identical_histories(self):
        dataset = tiny_dataset()
        cfg = TrainConfig(seed=11, steps=12, lr=1e-3)
        model_cfg = micro_config(loss_weights=(1, 1, 1, 1))
        h1 = train(dataset, model_cfg, cfg).history
        h2 = train(dataset, model_cfg, cfg).history
        assert [r["total"] for r in h1] == [r["total"] for r in h2]

    def test_loss_decreases_on_overfit(self):
        dataset = tiny_dataset(2)
        result = train(dataset, prop_only_config(), TrainConfig(seed=5, steps=120, lr=5e-3))
        first = np.mean([r["total"] for r in result.history[:4]])
        last = np.mean([r["total"] for r in result.history[-4:]])
        assert last < first

    def test_post_clip_norm_bounded(self):
        rs = np.random.RandomState(0)
        for _ in range(50):
            grads = rs.normal(scale=rs.uniform(0.01, 100.0), size=rs.randint(1, 200))
            clip = rs.uniform(0.01, 10.0)
            clipped, _ = clip_gradients(grads, clip)
            assert np.linalg.norm(clipped) <= clip + 1e-9

    def test_training_records_preclip_norm(self):
        dataset = tiny_dataset()
        clip = 0.05
        result = train(
            dataset,
            micro_config(loss_weights=(1, 1, 1, 1)),
            TrainConfig(seed=7, steps=8, lr=1e-3, grad_clip=clip),
        )
        assert any(record["grad_norm"] > clip for record in result.history)

    def test_missing_target_rejected(self):
        dataset = [water()]  # no target
        with pytest.raises(MissingTargetError):
            train(dataset, prop_only_config(), TrainConfig(steps=1))

    def test_round_robin_order(self):
        dataset = tiny_dataset(3)
        result = train(dataset, prop_only_config(), TrainConfig(seed=1, steps=4, lr=0.0))
        assert [r["step"] for r in result.history] == [0, 1, 2, 3]

    def test_each_step_tape_freed_before_the_next(self, monkeypatch):
        import gc
        import weakref

        from demol import training

        tapes = []

        def tracked_tape():
            assert all(ref() is None for ref in tapes), "an earlier step's tape is alive"
            tape = Tape()
            tapes.append(weakref.ref(tape))
            return tape

        monkeypatch.setattr(training, "Tape", tracked_tape)
        enabled = gc.isenabled()
        gc.disable()
        try:
            train(tiny_dataset(), micro_config(), TrainConfig(seed=2, steps=3, lr=1e-3))
        finally:
            if enabled:
                gc.enable()
        assert len(tapes) == 3 and all(ref() is None for ref in tapes)

    def test_non_finite_loss_aborts_with_step_index(self, tmp_path):
        from demol.errors import TrainingError

        dataset = tiny_dataset()
        cfg = prop_only_config()
        result = train(dataset, cfg, TrainConfig(seed=9, steps=2, lr=1e-3))
        # poison the parameters so the next forward overflows, then resume
        result.model.params["embed.atom"][:] = 1e160
        result.model.params["head.readout.w"][:] = 1e160
        path = str(tmp_path / "poisoned.ckpt")
        save_checkpoint(path, result.model, result.optimizer, result.rng, result.step)
        with np.errstate(over="ignore", invalid="ignore"), pytest.raises(
            TrainingError, match="step 2"
        ):
            train(dataset, cfg, TrainConfig(seed=9, steps=5, lr=1e-3), resume=path)


class TestEvaluate:
    def test_exact_predictions_give_zero(self):
        model = Model(prop_only_config(), seed=2)
        mol = chain(3, target=model.predict(chain(3)))
        assert evaluate([mol], model) == pytest.approx(0.0, abs=1e-12)

    def test_constant_offset_gives_one(self):
        model = Model(prop_only_config(), seed=2)
        mols = [
            chain(3, target=model.predict(chain(3)) + 1.0),
            chain(4, target=model.predict(chain(4)) - 1.0),
        ]
        assert evaluate(mols, model) == pytest.approx(1.0, abs=1e-12)


class TestCheckpoints:
    def test_save_load_bitwise(self, tmp_path):
        dataset = tiny_dataset()
        result = train(dataset, prop_only_config(), TrainConfig(seed=9, steps=6, lr=1e-3))
        path = str(tmp_path / "model.ckpt")
        save_checkpoint(path, result.model, result.optimizer, result.rng, result.step)
        model, opt, rng, step = load_checkpoint(path)
        assert (model.params.flat() == result.model.params.flat()).all()
        assert (opt.m == result.optimizer.m).all()
        assert (opt.v == result.optimizer.v).all()
        assert opt.t == result.optimizer.t
        assert rng.state() == result.rng.state()
        assert step == 6

    def test_split_run_equivalence(self, tmp_path):
        dataset = tiny_dataset()
        model_cfg = micro_config(loss_weights=(1, 1, 1, 1))
        full = train(dataset, model_cfg, TrainConfig(seed=13, steps=10, lr=2e-3))

        half = train(dataset, model_cfg, TrainConfig(seed=13, steps=4, lr=2e-3))
        path = str(tmp_path / "half.ckpt")
        save_checkpoint(path, half.model, half.optimizer, half.rng, half.step)
        resumed = train(
            dataset, model_cfg, TrainConfig(seed=13, steps=10, lr=2e-3), resume=path
        )
        assert (resumed.model.params.flat() == full.model.params.flat()).all()
        resumed_tail = [r["total"] for r in resumed.history]
        full_tail = [r["total"] for r in full.history[4:]]
        assert resumed_tail == full_tail

    def test_corrupt_file_rejected(self, tmp_path):
        dataset = tiny_dataset()
        result = train(dataset, prop_only_config(), TrainConfig(seed=9, steps=2, lr=1e-3))
        path = str(tmp_path / "model.ckpt")
        save_checkpoint(path, result.model, result.optimizer, result.rng, result.step)
        blob = bytearray(open(path, "rb").read())
        blob[-3] ^= 0xFF
        open(path, "wb").write(bytes(blob))
        with pytest.raises(CheckpointError, match="checksum"):
            load_checkpoint(path)

    def test_bad_magic_rejected(self, tmp_path):
        path = str(tmp_path / "junk.ckpt")
        open(path, "wb").write(b"not a checkpoint at all")
        with pytest.raises(CheckpointError, match="magic"):
            load_checkpoint(path)

    def test_truncated_rejected(self, tmp_path):
        dataset = tiny_dataset()
        result = train(dataset, prop_only_config(), TrainConfig(seed=9, steps=1, lr=1e-3))
        path = str(tmp_path / "model.ckpt")
        save_checkpoint(path, result.model, result.optimizer, result.rng, result.step)
        blob = open(path, "rb").read()
        open(path, "wb").write(blob[: len(blob) // 2])
        with pytest.raises(CheckpointError):
            load_checkpoint(path)

    def test_failed_write_keeps_existing_checkpoint(self, tmp_path, monkeypatch):
        from demol import training

        result = train(tiny_dataset(), prop_only_config(), TrainConfig(seed=9, steps=1))
        path = str(tmp_path / "model.ckpt")
        save_checkpoint(path, result.model, result.optimizer, result.rng, result.step)
        before = open(path, "rb").read()

        def no_space(fd):
            raise OSError(28, "No space left on device")

        monkeypatch.setattr(training.os, "fsync", no_space)
        result.model.params["head.readout.b"][:] = 1.0
        with pytest.raises(FileAccessError, match="No space left"):
            save_checkpoint(path, result.model, result.optimizer, result.rng, 2)
        assert open(path, "rb").read() == before
        assert os.listdir(tmp_path) == ["model.ckpt"]

    def test_unwritable_path_is_file_access_error(self, tmp_path):
        result = train(tiny_dataset(), prop_only_config(), TrainConfig(seed=9, steps=1))
        blocker = tmp_path / "c.cfg"
        blocker.write_text("steps = 1\n")
        for path in (str(blocker / "x.ckpt"), str(tmp_path)):
            with pytest.raises(FileAccessError):
                check_checkpoint_path(path)
            with pytest.raises(FileAccessError):
                save_checkpoint(path, result.model, result.optimizer, result.rng, 1)
        assert sorted(os.listdir(tmp_path)) == ["c.cfg"]

    @pytest.mark.parametrize(
        "edit",
        [
            lambda h: {k: v for k, v in h.items() if k != "payload_len"},
            lambda h: [h],
            lambda h: {**h, "model_config": {**h["model_config"], "d_z": 4}},
            lambda h: {**h, "model_config": {**h["model_config"], "n_heads": 3}},
            lambda h: {**h, "rng": None},
        ],
        ids=["no_payload_len", "list_header", "unknown_config_key", "heads_do_not_divide",
             "null_rng"],
    )
    def test_bad_header_is_checkpoint_error(self, tmp_path, capsys, edit):
        from demol.cli import main

        result = train(tiny_dataset(), prop_only_config(), TrainConfig(seed=9, steps=1))
        path = str(tmp_path / "model.ckpt")
        save_checkpoint(path, result.model, result.optimizer, result.rng, result.step)
        blob = open(path, "rb").read()
        start = len(CHECKPOINT_MAGIC) + 4
        end = start + int.from_bytes(blob[start - 4 : start], "little")
        header = json.dumps(edit(json.loads(blob[start:end]))).encode("utf-8")
        with open(path, "wb") as fh:
            fh.write(CHECKPOINT_MAGIC + len(header).to_bytes(4, "little") + header + blob[end:])
        with pytest.raises(CheckpointError):
            load_checkpoint(path)
        mol = tmp_path / "water.xyz"
        mol.write_text("3\nwater\nO 0 0 0\nH 0.9572 0 0\nH -0.24 0.927 0\n")
        code = main(["predict", str(mol), "--ckpt", path])
        err = capsys.readouterr().err
        assert code == 2 and err.startswith("error: ") and err.count("\n") == 1

    def test_config_mismatch_on_resume(self, tmp_path):
        dataset = tiny_dataset()
        result = train(dataset, prop_only_config(), TrainConfig(seed=9, steps=2, lr=1e-3))
        path = str(tmp_path / "model.ckpt")
        save_checkpoint(path, result.model, result.optimizer, result.rng, result.step)
        other = prop_only_config(n_layers=1)
        with pytest.raises(CheckpointError):
            train(dataset, other, TrainConfig(seed=9, steps=4, lr=1e-3), resume=path)


class TestConfigFile:
    def test_parse_round_trip(self):
        text = """
        # training
        seed = 4
        steps = 250
        lr = 0.01
        betas = 0.9, 0.99
        grad_clip = 5.0
        # model
        d_a = 16
        n_heads = 2
        loss_weights = 1, 0, 0, 0
        elements = H, C, O
        use_torsion = true
        cross_order = bond_first
        """
        model_kv, train_kv = parse_config_file(text)
        assert train_kv == {
            "seed": 4, "steps": 250, "lr": 0.01, "betas": (0.9, 0.99), "grad_clip": 5.0,
        }
        assert model_kv["d_a"] == 16
        assert model_kv["loss_weights"] == (1.0, 0.0, 0.0, 0.0)
        assert model_kv["elements"] == ("H", "C", "O")
        assert model_kv["use_torsion"] is True
        assert model_kv["cross_order"] == "bond_first"

    def test_unknown_key_rejected(self):
        with pytest.raises(ValueError, match="unknown key"):
            parse_config_file("bogus = 1")

    def test_validation(self):
        with pytest.raises(ValueError):
            TrainConfig(lr=-1)
        with pytest.raises(ValueError):
            TrainConfig(betas=(1.0, 0.9))
        with pytest.raises(ValueError):
            TrainConfig(grad_clip=0.0)
