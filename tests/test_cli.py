import argparse
import json
import os
import re
import shutil

import pytest

from demol.cli import build_parser, main
from demol.fixtures import WATER_XYZ


@pytest.fixture
def water_file(tmp_path):
    path = tmp_path / "water.xyz"
    path.write_text(WATER_XYZ)
    return str(path)


@pytest.fixture
def dataset_dir(tmp_path):
    d = tmp_path / "data"
    d.mkdir()
    for i, n in enumerate((3, 4, 5)):
        doc = {
            "name": f"chain{n}",
            "atoms": [{"symbol": "C", "xyz": [k * 1.48, 0.0, 0.0]} for k in range(n)],
            "target": 0.2 * (i + 1),
        }
        (d / f"chain{n}.json").write_text(json.dumps(doc))
    return str(d)


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestBonds:
    def test_water_bonds_json(self, capsys, water_file):
        code, out, err = run(capsys, ["bonds", water_file])
        assert code == 0
        doc = json.loads(out)
        assert [b[:2] for b in doc["bonds"]] == [[0, 1], [0, 2]]
        assert doc["bonds"][0][2] == pytest.approx(0.9572)
        assert err == ""

    def test_missing_file_exit_2(self, capsys, tmp_path):
        missing = str(tmp_path / "missing.xyz")
        code, out, err = run(capsys, ["bonds", missing])
        assert code == 2
        assert out == ""
        assert "missing.xyz" in err

    def test_alpha_flag(self, capsys, water_file):
        code, out, _ = run(capsys, ["bonds", water_file, "--alpha", "0.5"])
        assert code == 0
        assert json.loads(out)["bonds"] == []


class TestFeaturize:
    def test_bundle_keys_and_shapes(self, capsys, water_file):
        code, out, err = run(capsys, ["featurize", water_file, "--seed", "1"])
        assert code == 0
        doc = json.loads(out)
        for key in (
            "phi_atom", "phi_bond", "phi_a2b", "phi_b2a",
            "mask_atom", "mask_bond", "spd_atom", "spd_bond", "cosines",
        ):
            assert key in doc
        assert doc["n_atoms"] == 3 and doc["n_bonds"] == 2
        assert len(doc["phi_atom"]) == 3 and len(doc["phi_atom"][0]) == 3
        assert len(doc["phi_a2b"]) == 3 and len(doc["phi_a2b"][0]) == 2
        assert doc["mask_atom"] == [[1, 1, 1]] * 3
        assert doc["spd_atom"][0] == [0, 1, 1]

    def test_element_outside_embedding_vocabulary(self, capsys, water_file, tmp_path):
        # the biases need no embedding row, so featurize exports what predict refuses
        config = tmp_path / "hc.cfg"
        config.write_text(MICRO_CONFIG.replace("H, C, O", "H, C"))
        code, out, _ = run(capsys, ["featurize", water_file, "--config", str(config)])
        assert code == 0 and len(json.loads(out)["phi_atom"]) == 3
        code, out, err = run(capsys, ["predict", water_file, "--config", str(config)])
        assert code == 2 and out == "" and "feature id 8" in err

    def test_missing_file_exit_2_names_file(self, capsys):
        code, out, err = run(capsys, ["featurize", "missing.xyz"])
        assert code == 2 and "missing.xyz" in err and out == ""

    def test_byte_identical_stdout(self, capsys, water_file):
        _, out1, _ = run(capsys, ["featurize", water_file, "--seed", "7"])
        _, out2, _ = run(capsys, ["featurize", water_file, "--seed", "7"])
        assert out1 == out2

    def test_dataset_mode_writes_per_file(self, capsys, dataset_dir, tmp_path):
        out_dir = str(tmp_path / "features")
        code, out, err = run(
            capsys, ["featurize", "--dataset", dataset_dir, "--out", out_dir]
        )
        assert code == 0, err
        written = json.loads(out)["written"]
        assert len(written) == 3
        for path in written:
            doc = json.load(open(path))
            assert "phi_atom" in doc and "cosines" in doc

    def test_dataset_mode_requires_out(self, capsys, dataset_dir):
        code, _, err = run(capsys, ["featurize", "--dataset", dataset_dir])
        assert code == 1 and "needs --out" in err


class TestRadiiOverride:
    def test_env_var_overrides_radii_file(self, capsys, tmp_path, monkeypatch):
        custom = tmp_path / "radii.dat"
        custom.write_text("# tiny table\nO 0.2\nH 0.1\n")
        water_path = tmp_path / "w.xyz"
        water_path.write_text(WATER_XYZ)
        monkeypatch.setenv("DEMOL_RADII", str(custom))
        code, out, _ = run(capsys, ["bonds", str(water_path)])
        assert code == 0
        # with radii this small nothing bonds: O-H threshold 1.15 * 0.3 = 0.345
        assert json.loads(out)["bonds"] == []

    def test_env_var_unknown_symbol_is_data_error(self, capsys, tmp_path, monkeypatch):
        custom = tmp_path / "radii.dat"
        custom.write_text("H 0.31\n")  # no oxygen
        water_path = tmp_path / "w.xyz"
        water_path.write_text(WATER_XYZ)
        monkeypatch.setenv("DEMOL_RADII", str(custom))
        code, _, err = run(capsys, ["bonds", str(water_path)])
        assert code == 2 and "'O'" in err


class TestPredict:
    def test_prediction_json(self, capsys, water_file):
        code, out, _ = run(capsys, ["predict", water_file, "--seed", "3"])
        assert code == 0
        doc = json.loads(out)
        assert "prediction_ev" in doc and isinstance(doc["prediction_ev"], float)

    def test_out_flag_writes_file(self, capsys, water_file, tmp_path):
        out_path = str(tmp_path / "pred.json")
        code, out, _ = run(capsys, ["predict", water_file, "--out", out_path])
        assert code == 0 and out == ""
        assert "prediction_ev" in json.load(open(out_path))

    def test_alpha_flag_changes_prediction(self, capsys, water_file):
        # alpha below the O-H threshold removes both bonds, changing the model input
        _, out_default, _ = run(capsys, ["predict", water_file, "--seed", "2"])
        _, out_nobonds, _ = run(
            capsys, ["predict", water_file, "--seed", "2", "--alpha", "0.5"]
        )
        assert (
            json.loads(out_default)["prediction_ev"]
            != json.loads(out_nobonds)["prediction_ev"]
        )

    def test_byte_identical_stdout(self, capsys, water_file):
        _, out1, _ = run(capsys, ["predict", water_file, "--seed", "7"])
        _, out2, _ = run(capsys, ["predict", water_file, "--seed", "7"])
        assert out1 == out2


class TestTrain:
    def test_train_writes_checkpoint_and_predicts(self, capsys, dataset_dir, tmp_path):
        config = tmp_path / "train.cfg"
        config.write_text(
            "steps = 6\nlr = 0.003\nseed = 2\n"
            "d_a = 8\nd_b = 8\nd_h = 4\nn_heads = 2\nn_layers = 1\nffn_multiplier = 2\n"
            "kernels = 4\nmax_spd = 5\nn_length_buckets = 4\nelements = H, C, O\n"
            "loss_weights = 1, 0, 0, 0\n"
        )
        ckpt = str(tmp_path / "model.ckpt")
        code, out, err = run(
            capsys,
            ["train", "--dataset", dataset_dir, "--config", str(config), "--ckpt", ckpt],
        )
        assert code == 0, err
        doc = json.loads(out)
        assert doc["steps"] == 6 and os.path.exists(ckpt)
        assert "train_mae_ev" in doc

        mol = os.path.join(dataset_dir, "chain3.json")
        code, out, _ = run(capsys, ["predict", mol, "--ckpt", ckpt])
        assert code == 0
        assert isinstance(json.loads(out)["prediction_ev"], float)

    def test_empty_dataset_exit_2(self, capsys, tmp_path):
        empty = tmp_path / "empty"
        empty.mkdir()
        code, _, err = run(capsys, ["train", "--dataset", str(empty)])
        assert code == 2 and "no .xyz or .json" in err

    def test_usage_error_exit_1(self, capsys):
        code, _, err = run(capsys, ["train"])  # missing --dataset
        assert code == 1

    def test_train_stdout_byte_identical(self, capsys, dataset_dir, tmp_path):
        config = tmp_path / "train.cfg"
        config.write_text(
            "steps = 4\nlr = 0.002\nseed = 6\n"
            "d_a = 8\nd_b = 8\nd_h = 4\nn_heads = 2\nn_layers = 1\nffn_multiplier = 2\n"
            "kernels = 4\nmax_spd = 5\nn_length_buckets = 4\nelements = H, C, O\n"
            "loss_weights = 1, 0, 0, 0\n"
        )
        argv = ["train", "--dataset", dataset_dir, "--config", str(config)]
        _, out1, _ = run(capsys, argv)
        _, out2, _ = run(capsys, argv)
        assert out1 == out2

    def test_unwritable_ckpt_exits_2_before_training(self, capsys, dataset_dir, tmp_path, monkeypatch):
        import demol.cli

        def no_training(*args, **kwargs):
            raise AssertionError("train ran with an unwritable --ckpt")

        monkeypatch.setattr(demol.cli, "train", no_training)
        config = tmp_path / "c.cfg"
        config.write_text("steps = 2\n")
        ckpt = str(config / "x.ckpt")
        code, out, err = run(
            capsys, ["train", "--dataset", dataset_dir, "--config", str(config), "--ckpt", ckpt]
        )
        assert code == 2 and out == ""
        assert len(err.strip().splitlines()) == 1 and "x.ckpt" in err


class TestGradcheck:
    def test_report_contract(self, capsys, tmp_path):
        config = tmp_path / "micro.cfg"
        config.write_text(
            "d_a = 8\nd_b = 8\nd_h = 2\nn_heads = 2\nn_layers = 1\nffn_multiplier = 1\n"
            "kernels = 4\nmax_spd = 5\nn_length_buckets = 4\nelements = H, O\n"
            "loss_weights = 0.1, 0.1, 0.1, 0.1\n"
        )
        code, out, _ = run(capsys, ["gradcheck", "--config", str(config)])
        assert code == 0
        doc = json.loads(out)
        assert doc["max_rel_err"] <= 1e-4
        assert doc["n_coordinates"] > 500
        assert len(doc["per_param"]) > 50


class TestDumpAttention:
    def test_json_contract(self, capsys, water_file):
        code, out, _ = run(capsys, ["dump-attention", water_file, "--seed", "5"])
        assert code == 0
        doc = json.loads(out)
        assert doc["n_atoms"] == 3
        assert {m["kind"] for m in doc["maps"]} == {
            "atom_self", "bond_self", "atom_from_bond", "bond_from_atom",
        }
        for m in doc["maps"]:
            for row in m["weights"]:
                s = sum(row)
                assert abs(s - 1.0) <= 1e-9 or abs(s) <= 1e-12

    def test_atom_limit_exits_2_before_the_maps(self, capsys, tmp_path, monkeypatch):
        from demol.fixtures import chain
        from demol.model import MAX_DENSE_EXPORT_ATOMS, Model

        def no_forward(*args, **kwargs):
            raise AssertionError("attention maps built above the atom limit")

        monkeypatch.setattr(Model, "forward", no_forward)
        mol = chain(MAX_DENSE_EXPORT_ATOMS + 1)
        path = tmp_path / "long.xyz"
        path.write_text(
            f"{mol.n_atoms}\nlong chain\n"
            + "".join(f"C {x:.6f} {y:.6f} {z:.6f}\n" for x, y, z in mol.positions)
        )
        code, out, err = run(capsys, ["dump-attention", str(path)])
        assert code == 2 and out == ""
        assert len(err.strip().splitlines()) == 1
        assert str(MAX_DENSE_EXPORT_ATOMS) in err


class TestSelftest:
    def test_selftest_passes(self, capsys):
        code, out, _ = run(capsys, ["selftest"])
        assert code == 0
        doc = json.loads(out)
        assert doc["failed"] == 0 and doc["passed"] >= 8


class TestContracts:
    def test_stdout_is_json_stderr_separate(self, capsys, water_file):
        code, out, err = run(capsys, ["bonds", water_file])
        json.loads(out)  # must parse
        assert err == ""

    def test_unknown_subcommand_is_usage_error(self, capsys):
        code, _, err = run(capsys, ["frobnicate"])
        assert code == 1

    def test_unknown_element_is_data_error(self, capsys, tmp_path):
        bad = tmp_path / "bad.xyz"
        bad.write_text("1\n\nXx 0 0 0\n")
        code, out, err = run(capsys, ["bonds", str(bad)])
        assert code == 2 and "Xx" in err


class TestInputBoundaries:
    @pytest.mark.parametrize("line", ["steps = abc", "betas = 0.9", "[train]"])
    def test_bad_config_line_is_usage_error(self, capsys, dataset_dir, tmp_path, line):
        config = tmp_path / "bad.cfg"
        config.write_text(line + "\n")
        code, out, err = run(capsys, ["train", "--dataset", dataset_dir, "--config", str(config)])
        assert code == 1 and out == ""
        assert err.startswith("usage error: bad configuration") and err.count("\n") == 1

    @pytest.mark.parametrize("step", ["0", "-1", "nan"])
    def test_gradcheck_bad_step_is_usage_error(self, capsys, step):
        code, out, err = run(capsys, ["gradcheck", f"--step={step}"])
        assert code == 1 and out == "" and "--step" in err

    def test_non_utf8_molecule_file_is_data_error(self, capsys, tmp_path):
        bad = tmp_path / "water.xyz"
        bad.write_bytes(WATER_XYZ.replace("water", "w\xe4ter").encode("latin-1"))
        code, out, err = run(capsys, ["bonds", str(bad)])
        assert code == 2 and out == ""
        assert "water.xyz is not UTF-8" in err and err.count("\n") == 1

    def test_non_utf8_radii_file_is_data_error(self, capsys, water_file, tmp_path, monkeypatch):
        radii = tmp_path / "radii.dat"
        radii.write_bytes(b"# r\xe4dii\nO 0.66\nH 0.31\n")
        monkeypatch.setenv("DEMOL_RADII", str(radii))
        code, out, err = run(capsys, ["bonds", water_file])
        assert code == 2 and out == ""
        assert "radii.dat is not UTF-8" in err and err.count("\n") == 1

    def test_out_below_a_file_is_data_error(self, capsys, water_file):
        out_path = os.path.join(water_file, "x.json")
        code, out, err = run(capsys, ["predict", water_file, "--out", out_path])
        assert code == 2 and out == ""
        assert f"cannot write {out_path}" in err and err.count("\n") == 1

    def test_featurize_dataset_that_is_a_file_is_data_error(self, capsys, water_file, tmp_path):
        argv = ["featurize", "--dataset", water_file, "--out", str(tmp_path / "out")]
        code, out, err = run(capsys, argv)
        assert code == 2 and out == "" and water_file in err and err.count("\n") == 1

    def test_featurize_out_that_is_a_file_is_data_error(self, capsys, dataset_dir, water_file):
        code, out, err = run(capsys, ["featurize", "--dataset", dataset_dir, "--out", water_file])
        assert code == 2 and out == "" and water_file in err and err.count("\n") == 1


MICRO_CONFIG = (
    "d_a = 8\nd_b = 8\nd_h = 4\nn_heads = 2\nn_layers = 1\nffn_multiplier = 2\n"
    "kernels = 4\nmax_spd = 5\nn_length_buckets = 4\nelements = H, C, O\n"
)
# a gradcheck config far cheaper than gradcheck's built-in one
TINY_GRADCHECK = (
    "d_a = 2\nd_b = 2\nd_h = 1\nn_heads = 1\nn_layers = 1\nffn_multiplier = 1\n"
    "kernels = 1\nmax_spd = 1\nn_length_buckets = 1\nelements = H, O\n"
    "loss_weights = 0.1, 0.1, 0.1, 0.1\n"
)


class TestModelConfigValidation:
    @pytest.mark.parametrize(
        "line",
        [
            "kernels = 0",
            "width_dist = 0",
            "width_tors = -1",
            "n_length_buckets = 0",
            "max_spd = -1",
            "length_bucket_width = 0",
            "mask_cutoff = -1",
            "bond_alpha = nan",
            "coord_noise_sigma = nan",
        ],
    )
    @pytest.mark.parametrize("command", ["predict", "featurize"])
    def test_bad_value_is_usage_error(self, capsys, water_file, tmp_path, command, line):
        config = tmp_path / "k.cfg"
        config.write_text(line + "\n")
        code, out, err = run(capsys, [command, water_file, "--config", str(config)])
        assert code == 1 and out == ""
        assert err.startswith("usage error: bad configuration") and err.count("\n") == 1


class TestSeed:
    def test_config_file_seed_sets_predict(self, capsys, water_file, tmp_path):
        plain = tmp_path / "plain.cfg"
        plain.write_text(MICRO_CONFIG)
        seeded = tmp_path / "seeded.cfg"
        seeded.write_text(MICRO_CONFIG + "seed = 7\n")

        def predict(config, *flags):
            code, out, _ = run(capsys, ["predict", water_file, "--config", str(config), *flags])
            assert code == 0
            return out

        assert predict(seeded) != predict(plain)
        assert predict(seeded) == predict(plain, "--seed", "7")
        assert predict(seeded, "--seed", "3") == predict(plain, "--seed", "3")

    def test_config_file_seed_sets_train(self, capsys, dataset_dir, tmp_path):
        def train_out(seed_line, *flags):
            config = tmp_path / "t.cfg"
            config.write_text(MICRO_CONFIG + "steps = 2\nloss_weights = 1, 0, 0, 0\n" + seed_line)
            argv = ["train", "--dataset", dataset_dir, "--config", str(config), *flags]
            code, out, _ = run(capsys, argv)
            assert code == 0
            return out

        assert train_out("seed = 2\n") != train_out("seed = 6\n")
        assert train_out("seed = 2\n", "--seed", "6") == train_out("seed = 6\n")


class TestAtomicOutput:
    @staticmethod
    def no_space(fd):
        raise OSError(28, "No space left on device")

    def test_failed_out_write_keeps_old_file(self, capsys, water_file, tmp_path, monkeypatch):
        out_path = tmp_path / "pred.json"
        out_path.write_text("old\n")
        monkeypatch.setattr(os, "fsync", self.no_space)
        code, out, err = run(capsys, ["bonds", water_file, "--out", str(out_path)])
        assert code == 2 and out == "" and "No space left" in err and err.count("\n") == 1
        assert out_path.read_text() == "old\n"
        assert sorted(os.listdir(tmp_path)) == ["pred.json", "water.xyz"]

    def test_failed_dataset_write_keeps_old_file(self, capsys, dataset_dir, tmp_path, monkeypatch):
        out_dir = tmp_path / "features"
        out_dir.mkdir()
        old = out_dir / "chain3.features.json"
        old.write_text("old\n")
        monkeypatch.setattr(os, "fsync", self.no_space)
        argv = ["featurize", "--dataset", dataset_dir, "--out", str(out_dir), "--config"]
        config = tmp_path / "micro.cfg"
        config.write_text(MICRO_CONFIG)
        code, out, err = run(capsys, argv + [str(config)])
        assert code == 2 and out == "" and "No space left" in err
        assert old.read_text() == "old\n"
        assert os.listdir(out_dir) == ["chain3.features.json"]

    def test_out_through_a_symlink_keeps_the_link(self, capsys, water_file, tmp_path):
        target = tmp_path / "real.json"
        target.write_text("old\n")
        link = tmp_path / "link.json"
        link.symlink_to(target)
        code, out, _ = run(capsys, ["bonds", water_file, "--out", str(link)])
        assert code == 0 and out == ""
        assert link.is_symlink() and json.loads(target.read_text())["n_atoms"] == 3
        assert sorted(os.listdir(tmp_path)) == ["link.json", "real.json", "water.xyz"]

    def test_out_to_stdout_redirected_to_a_file(self, capsys, water_file, tmp_path):
        # a link of the test's own to /dev/stdout takes the same path as
        # /dev/stdout itself, but a regression can only replace this link
        stdout_link = tmp_path / "stdout"
        stdout_link.symlink_to("/dev/stdout")
        out_file = tmp_path / "out.json"
        saved = os.dup(1)
        try:
            with open(out_file, "wb") as fh:
                os.dup2(fh.fileno(), 1)
            code, out, _ = run(capsys, ["bonds", water_file, "--out", str(stdout_link)])
        finally:
            os.dup2(saved, 1)
            os.close(saved)
        assert code == 0 and out == ""
        assert json.loads(out_file.read_text())["n_atoms"] == 3
        assert stdout_link.is_symlink()
        assert sorted(os.listdir(tmp_path)) == ["out.json", "stdout", "water.xyz"]

    def test_out_to_a_pipe_is_written_in_place(self, capsys, water_file, tmp_path):
        import stat
        import threading

        pipe = tmp_path / "pipe"
        os.mkfifo(pipe)
        got = []
        reader = threading.Thread(target=lambda: got.append(pipe.read_text()), daemon=True)
        reader.start()
        code, out, _ = run(capsys, ["bonds", water_file, "--out", str(pipe)])
        reader.join(5)
        assert code == 0 and out == ""
        assert json.loads(got[0])["n_atoms"] == 3
        assert stat.S_ISFIFO(os.stat(pipe).st_mode)


class TestTrainConfigValidation:
    @pytest.mark.parametrize(
        "line",
        [
            "lr = nan",
            "lr = -1",
            "eps = nan",
            "eps = 0",
            "grad_clip = nan",
            "grad_clip = 0",
            "weight_decay = nan",
            "weight_decay = -1",
        ],
    )
    def test_bad_value_is_usage_error_before_step_0(
        self, capsys, dataset_dir, tmp_path, monkeypatch, line
    ):
        import demol.cli

        def no_training(*args, **kwargs):
            raise AssertionError("train ran with a bad configuration")

        monkeypatch.setattr(demol.cli, "train", no_training)
        config = tmp_path / "t.cfg"
        config.write_text(MICRO_CONFIG + "steps = 2\n" + line + "\n")
        code, out, err = run(capsys, ["train", "--dataset", dataset_dir, "--config", str(config)])
        assert code == 1 and out == ""
        assert err.startswith("usage error: bad configuration") and err.count("\n") == 1


class TestConfigSwitches:
    @pytest.mark.parametrize(
        "value, expected",
        [("1", True), ("TRUE", True), ("Yes", True), ("on", True),
         ("0", False), ("false", False), ("NO", False), ("Off", False)],
    )
    def test_accepted_values(self, value, expected):
        from demol.training import parse_config_file

        model_kv, _ = parse_config_file(f"use_torsion = {value}\n")
        assert model_kv == {"use_torsion": expected}

    def test_misspelled_value_is_usage_error(self, capsys, water_file, tmp_path):
        config = tmp_path / "t.cfg"
        config.write_text(MICRO_CONFIG + "use_torsion = ture\n")
        code, out, err = run(capsys, ["predict", water_file, "--config", str(config)])
        assert code == 1 and out == ""
        assert err.startswith("usage error: bad configuration") and err.count("\n") == 1
        assert "use_torsion" in err


class TestMoleculesWithoutBonds:
    """Backward through attention kinds with no query rows (M = 0 bonds)."""

    @pytest.mark.parametrize(
        "xyz", ["1\nhelium\nHe 0 0 0\n", "2\nfar apart\nH 0 0 0\nH 3 0 0\n"], ids=["he", "h2_3A"]
    )
    def test_gradcheck(self, capsys, tmp_path, xyz):
        mol = tmp_path / "m.xyz"
        mol.write_text(xyz)
        config = tmp_path / "tiny.cfg"
        config.write_text(TINY_GRADCHECK)
        code, out, err = run(capsys, ["gradcheck", str(mol), "--config", str(config)])
        assert code == 0, err
        assert json.loads(out)["max_rel_err"] <= 1e-4

    def test_train_when_the_noisy_copy_loses_its_bonds(self, capsys, tmp_path):
        from demol.fixtures import water
        from demol.molecule import emit_molecule_json

        data = tmp_path / "data"
        data.mkdir()
        (data / "water.json").write_text(emit_molecule_json(water(target=0.3)))
        config = tmp_path / "t.cfg"
        config.write_text(
            "steps = 3\nd_a = 8\nd_b = 8\nd_h = 2\nn_heads = 2\nn_layers = 1\nkernels = 4\n"
        )
        code, out, err = run(capsys, ["train", "--dataset", str(data), "--config", str(config)])
        assert code == 0, err
        assert json.loads(out)["steps"] == 3


def long_chain_xyz(n_atoms: int) -> str:
    from demol.fixtures import chain

    mol = chain(n_atoms)
    return f"{mol.n_atoms}\nlong chain\n" + "".join(
        f"C {x:.6f} {y:.6f} {z:.6f}\n" for x, y, z in mol.positions
    )


class TestFeaturizeAtomLimit:
    @pytest.fixture
    def no_dense_export(self, monkeypatch):
        from demol.model import MAX_DENSE_EXPORT_ATOMS, Model

        prepare = Model._prepare

        def guarded(self, feats, ids):
            assert feats.n_atoms <= MAX_DENSE_EXPORT_ATOMS, "all-pairs edge lists above the limit"
            return prepare(self, feats, ids)

        monkeypatch.setattr(Model, "_prepare", guarded)

    def test_molecule_file(self, capsys, tmp_path, no_dense_export):
        from demol.model import MAX_DENSE_EXPORT_ATOMS

        path = tmp_path / "long.xyz"
        path.write_text(long_chain_xyz(MAX_DENSE_EXPORT_ATOMS + 1))
        code, out, err = run(capsys, ["featurize", str(path)])
        assert code == 2 and out == ""
        assert err.count("\n") == 1 and str(MAX_DENSE_EXPORT_ATOMS) in err

    def test_dataset(self, capsys, dataset_dir, tmp_path, no_dense_export):
        from demol.model import MAX_DENSE_EXPORT_ATOMS

        (tmp_path / "data" / "long.xyz").write_text(long_chain_xyz(MAX_DENSE_EXPORT_ATOMS + 1))
        out_dir = tmp_path / "features"
        code, out, err = run(capsys, ["featurize", "--dataset", dataset_dir, "--out", str(out_dir)])
        assert code == 2 and out == ""
        assert err.count("\n") == 1 and str(MAX_DENSE_EXPORT_ATOMS) in err


# ---------------------------------------------------------------------------
# Every (command, flag) pair: an accepted flag changes the output, any other
# flag and any flag that another one makes meaningless exits 1
# ---------------------------------------------------------------------------

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

COMMANDS = ("bonds", "featurize", "predict", "train", "gradcheck", "dump-attention", "selftest")
# Before each command declared its own flags, all seven accepted these six.
SHARED_FLAGS = ("--alpha", "--cutoff", "--config", "--seed", "--out", "--ckpt")
FORMER_PAIRS = {(c, f) for c in COMMANDS for f in SHARED_FLAGS} | {
    ("featurize", "--dataset"), ("train", "--dataset"), ("train", "--resume"),
    ("gradcheck", "--step"),
}

# with no layer a gradcheck costs a quarter as much, and every flag still shows
NO_LAYER_GRADCHECK = TINY_GRADCHECK.replace("n_layers = 1", "n_layers = 0")
TRAIN_CONFIG = MICRO_CONFIG + "steps = 2\nlr = 0.01\nloss_weights = 1, 0, 0, 0\n"


def _model_rows(command):
    base = f"{command} {{w}} --config {{micro}}"
    return [
        (command, "--config", base, f"{command} {{w}} --config {{micro2}}"),
        (command, "--seed", base, base + " --seed 5"),
        (command, "--alpha", base, base + " --alpha 0.5"),  # below every bond threshold
        (command, "--cutoff", base, base + " --cutoff 1.0"),  # drops the H-H pair
        (command, "--ckpt", f"{command} {{w}}", f"{command} {{w}} --ckpt {{ckpt}}"),
        (command, "--out", base, base + " --out {out}/x.json"),
    ]


TRAIN_BASE = "train --dataset {data} --config {train}"
GRADCHECK_BASE = "gradcheck --config {tiny}"
ACCEPTED = [
    ("bonds", "--alpha", "bonds {w}", "bonds {w} --alpha 0.5"),
    ("bonds", "--out", "bonds {w}", "bonds {w} --out {out}/x.json"),
    *_model_rows("featurize"),
    ("featurize", "--dataset",
     "featurize --out {out}/f", "featurize --dataset {data} --out {out}/f"),
    *_model_rows("predict"),
    *_model_rows("dump-attention"),
    ("train", "--dataset", "train --config {train}", TRAIN_BASE),
    ("train", "--config", TRAIN_BASE, "train --dataset {data} --config {train2}"),
    ("train", "--seed", TRAIN_BASE, TRAIN_BASE + " --seed 5"),
    ("train", "--alpha", TRAIN_BASE, TRAIN_BASE + " --alpha 0.5"),
    ("train", "--cutoff", TRAIN_BASE, TRAIN_BASE + " --cutoff 1.0"),
    ("train", "--ckpt", TRAIN_BASE, TRAIN_BASE + " --ckpt {out}/t.ckpt"),
    ("train", "--resume", TRAIN_BASE, TRAIN_BASE + " --resume {ckpt}"),
    ("train", "--out", TRAIN_BASE, TRAIN_BASE + " --out {out}/x.json"),
    ("gradcheck", "--config", GRADCHECK_BASE, "gradcheck --config {tiny2}"),
    ("gradcheck", "--seed", GRADCHECK_BASE, GRADCHECK_BASE + " --seed 5"),
    ("gradcheck", "--step", GRADCHECK_BASE, GRADCHECK_BASE + " --step 1e-3"),
    ("gradcheck", "--out", GRADCHECK_BASE, GRADCHECK_BASE + " --out {out}/x.json"),
    ("selftest", "--out", "selftest", "selftest --out {out}/x.json"),
]
ACCEPTED_PAIRS = {(c, f) for c, f, _, _ in ACCEPTED}
FLAG_VALUE = {"--alpha": "0.5", "--cutoff": "0.1", "--seed": "0", "--step": "0.1"}
EXCLUSIONS = [
    f"{command} {{missing}} --ckpt {{missing}} {flag} {FLAG_VALUE.get(flag, '{missing}')}"
    for command in ("featurize", "predict", "dump-attention")
    for flag in ("--config", "--seed", "--alpha", "--cutoff")
] + ["train --dataset {missing} --resume {missing} --seed 3"]


@pytest.fixture(scope="module")
def flag_files(tmp_path_factory):
    """Inputs the flag table's argv name: molecule, dataset, configs, checkpoint."""
    from demol.fixtures import chain, water
    from demol.model import Model, ModelConfig
    from demol.molecule import emit_molecule_json
    from demol.rng import RandomStream
    from demol.training import OptimizerState, parse_config_file, save_checkpoint

    d = tmp_path_factory.mktemp("flags")
    files = {"w": d / "water.xyz", "data": d / "data", "out": d / "out", "missing": d / "missing"}
    files["w"].write_text(WATER_XYZ)
    files["data"].mkdir()
    # water, not only carbon: in identical atoms one layer cannot see the cutoff
    (files["data"] / "water.json").write_text(emit_molecule_json(water(target=0.3)))
    (files["data"] / "chain3.json").write_text(emit_molecule_json(chain(3, target=0.2)))
    for name, text in (
        ("micro", MICRO_CONFIG), ("micro2", MICRO_CONFIG + "kernels = 3\n"),
        ("train", TRAIN_CONFIG), ("train2", TRAIN_CONFIG + "lr = 0.02\n"),
        ("tiny", NO_LAYER_GRADCHECK), ("tiny2", NO_LAYER_GRADCHECK + "kernels = 2\n"),
    ):
        files[name] = d / f"{name}.cfg"
        files[name].write_text(text)
    # a step-1 checkpoint of the train config's model: every command loads it, train resumes it
    model = Model(ModelConfig(**parse_config_file(TRAIN_CONFIG)[0]), seed=4)
    files["ckpt"] = d / "m.ckpt"
    save_checkpoint(str(files["ckpt"]), model, OptimizerState.zeros(model.params.size),
                    RandomStream(4), 1)
    return {k: str(v) for k, v in files.items()}


@pytest.fixture(scope="module")
def outcomes():
    """Outcome by argv, so that rows sharing a base argv run it once."""
    return {}


def outcome(capsys, argv: str, files: dict, cache: dict) -> tuple:
    """Exit code, stdout and the files written under ``out``; timings blanked."""
    if argv not in cache:
        shutil.rmtree(files["out"], ignore_errors=True)
        os.mkdir(files["out"])
        code, out, err = run(capsys, argv.format(**files).split())
        written = {}
        for root, _, names in os.walk(files["out"]):
            for name in names:
                with open(os.path.join(root, name), "rb") as fh:
                    written[os.path.relpath(os.path.join(root, name), files["out"])] = fh.read()
        cache[argv] = (code, re.sub(r'"seconds": [^,\n]*', "", out), written, err)
    return cache[argv]


def parser_flags() -> dict[str, set[str]]:
    sub = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    return {
        name: {s for a in p._actions for s in a.option_strings if s != "-h" and s != "--help"}
        for name, p in sub.choices.items()
    }


class TestFlagTable:
    def test_table_covers_every_former_pair(self):
        accepted = {(c, f) for c, flags in parser_flags().items() for f in flags}
        assert accepted == ACCEPTED_PAIRS and len(accepted) == 34
        assert accepted <= FORMER_PAIRS and len(FORMER_PAIRS) == 46

    @pytest.mark.parametrize(
        "command, flag, base, variant", ACCEPTED, ids=[f"{c}{f}" for c, f, _, _ in ACCEPTED]
    )
    def test_accepted_flag_changes_the_output(
        self, capsys, flag_files, outcomes, command, flag, base, variant
    ):
        assert variant.split()[0] == command and flag in variant.split()
        with_flag = outcome(capsys, variant, flag_files, outcomes)
        assert with_flag[0] == 0, with_flag[3]
        assert with_flag[:3] != outcome(capsys, base, flag_files, outcomes)[:3]

    @pytest.mark.parametrize(
        "command, flag", sorted(FORMER_PAIRS - ACCEPTED_PAIRS), ids=lambda x: x
    )
    def test_other_flag_is_usage_error(self, capsys, flag_files, command, flag):
        needs_input = command in ("bonds", "predict", "dump-attention")
        argv = [command] + ([flag_files["missing"] + ".xyz"] if needs_input else [])
        argv += [flag, FLAG_VALUE.get(flag, flag_files["missing"])]
        code, out, err = run(capsys, argv)
        assert code == 1 and out == ""
        assert err.startswith("usage error") and err.count("\n") == 1

    @pytest.mark.parametrize("argv", EXCLUSIONS)
    def test_meaningless_combination_exits_before_any_file_is_read(self, capsys, flag_files, argv):
        # every path named is missing, so reading any of them would exit 2
        code, out, err = run(capsys, argv.format(**flag_files).split())
        assert code == 1 and out == ""
        assert err.startswith("usage error") and err.count("\n") == 1

    def test_featurize_takes_a_file_or_a_dataset_not_both(self, capsys, flag_files):
        argv = "featurize {missing}.xyz --dataset {missing} --out {missing}".format(**flag_files)
        code, out, err = run(capsys, argv.split())
        assert code == 1 and out == "" and err.startswith("usage error")

    def test_readme_table_matches_the_parser(self):
        with open(os.path.join(ROOT, "README.md"), encoding="utf-8") as fh:
            lines = fh.read().splitlines()
        start = lines.index("| command | flags |")
        documented = {}
        for line in lines[start + 2:]:
            if not line.startswith("|"):
                break
            _, command, flags, _ = line.split("|")
            documented[command.strip().strip("`")] = set(re.findall(r"`(--[a-z-]+)`", flags))
        assert documented == parser_flags()
