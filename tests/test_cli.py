import json
import os

import pytest

from demol.cli import main
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
        from demol.model import MAX_DUMP_ATTENTION_ATOMS, Model

        def no_forward(*args, **kwargs):
            raise AssertionError("attention maps built above the atom limit")

        monkeypatch.setattr(Model, "forward", no_forward)
        mol = chain(MAX_DUMP_ATTENTION_ATOMS + 1)
        path = tmp_path / "long.xyz"
        path.write_text(
            f"{mol.n_atoms}\nlong chain\n"
            + "".join(f"C {x:.6f} {y:.6f} {z:.6f}\n" for x, y, z in mol.positions)
        )
        code, out, err = run(capsys, ["dump-attention", str(path)])
        assert code == 2 and out == ""
        assert len(err.strip().splitlines()) == 1
        assert str(MAX_DUMP_ATTENTION_ATOMS) in err


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
