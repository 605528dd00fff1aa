"""Command-line surface: bonds, featurize, predict, train, gradcheck,
dump-attention, selftest.

All results go to stdout as JSON (or to --out); diagnostics go to stderr.
Exit codes: 0 success, 1 usage error, 2 data error, 3 numeric failure.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import time

import numpy as np

from .autodiff import TapeParams, grad_check
from .bonds import DEFAULT_ALPHA, predict_bonds
from .elements import default_radii_table
from .errors import (
    CheckpointError,
    DemolError,
    FileAccessError,
    GeometryError,
    MissingTargetError,
    NonFiniteError,
    ParseError,
    TrainingError,
    UnknownElementError,
    read_text,
    write_file,
)
from .fixtures import benzene_skeleton, chain, star_ch3, water
from .masks import DEFAULT_CUTOFF, bond_mask
from .model import Model, ModelConfig, assemble_bundle
from .molecule import Molecule, parse_molecule_json, parse_xyz
from .pipeline import featurize_molecule
from .rng import RandomStream
from .training import (
    TrainConfig,
    check_checkpoint_path,
    evaluate,
    load_checkpoint,
    parse_config_file,
    save_checkpoint,
    train,
)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_NUMERIC = 3

_DATA_ERRORS = (
    ParseError,
    UnknownElementError,
    GeometryError,
    CheckpointError,
    MissingTargetError,
    FileNotFoundError,
    IsADirectoryError,
)
_NUMERIC_ERRORS = (NonFiniteError, TrainingError)


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # usage failures must exit 1, not argparse's 2
        raise UsageError(message)


def load_molecule(path: str) -> Molecule:
    text = read_text(path, "molecule file")
    if path.endswith(".json"):
        mol = parse_molecule_json(text)
    else:
        mol = parse_xyz(text)
    if not mol.name:
        mol = Molecule(mol.atoms, mol.target, os.path.basename(path))
    return mol


def _dataset_files(directory: str) -> list[str]:
    """Sorted names of the .xyz and .json files in a dataset directory."""
    if not os.path.isdir(directory):
        raise FileNotFoundError(f"dataset directory {directory} does not exist")
    names = sorted(
        n for n in os.listdir(directory) if n.endswith(".xyz") or n.endswith(".json")
    )
    if not names:
        raise ParseError(f"dataset directory {directory} has no .xyz or .json files")
    return names


def load_dataset(directory: str) -> list[Molecule]:
    return [load_molecule(os.path.join(directory, n)) for n in _dataset_files(directory)]


def _emit_json(doc: dict, out_path: str | None) -> None:
    text = json.dumps(doc, indent=2, sort_keys=True) + "\n"
    if out_path:
        write_file(out_path, text.encode("utf-8"))
    else:
        sys.stdout.write(text)


def _load_configs(args) -> tuple[ModelConfig, TrainConfig]:
    text = read_text(args.config, "config file") if args.config else ""
    try:
        model_kv, train_kv = parse_config_file(text)
    except ValueError as exc:
        raise UsageError(f"bad configuration: {exc}") from None
    # explicit flags outrank the config file; gradcheck has no --alpha or --cutoff
    if args.seed is not None:
        train_kv["seed"] = args.seed
    if getattr(args, "alpha", None) is not None:
        model_kv["bond_alpha"] = args.alpha
    if getattr(args, "cutoff", None) is not None:
        model_kv["mask_cutoff"] = args.cutoff
    try:
        return ModelConfig(**model_kv), TrainConfig(**train_kv)
    except (TypeError, ValueError) as exc:
        raise UsageError(f"bad configuration: {exc}") from None


def _model_for(args) -> Model:
    if args.ckpt:
        given = [f"--{k}" for k in ("config", "seed", "alpha", "cutoff")
                 if getattr(args, k) is not None]
        if given:
            raise UsageError(f"--ckpt loads a whole model; it excludes {', '.join(given)}")
        model, _, _, _ = load_checkpoint(args.ckpt)
        return model
    model_cfg, train_cfg = _load_configs(args)
    return Model(model_cfg, seed=train_cfg.seed)


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------


def cmd_bonds(args) -> int:
    mol = load_molecule(args.input)
    bonds = predict_bonds(mol, args.alpha, default_radii_table())
    _emit_json(
        {"bonds": [[b.i, b.j, b.length] for b in bonds], "n_atoms": mol.n_atoms},
        args.out,
    )
    return EXIT_OK


def _feature_doc(model: Model, mol: Molecule) -> dict:
    feats = model.featurize(mol)
    phi = assemble_bundle(model, feats)  # a module global, so tracing can wrap it
    return {
        "n_atoms": mol.n_atoms,
        "n_bonds": feats.n_bonds,
        **{name: arr.tolist() for name, arr in phi.items()},
        "mask_atom": feats.masks.atom.astype(int).tolist(),
        "mask_bond": feats.masks.bond.astype(int).tolist(),
        "spd_atom": feats.spd_atom.tolist(),
        "spd_bond": feats.spd_bond.tolist(),
        "cosines": feats.cos_bond.tolist(),
    }


def cmd_featurize(args) -> int:
    if (args.input is None) == (args.dataset is None):
        raise UsageError("featurize needs either a molecule file or --dataset")
    if args.dataset and not args.out:
        raise UsageError("featurize --dataset needs --out DIRECTORY for per-file output")
    model = _model_for(args)
    if args.dataset:
        names = _dataset_files(args.dataset)
        try:
            os.makedirs(args.out, exist_ok=True)
        except OSError as exc:
            raise FileAccessError(f"cannot create {args.out}: {exc.strerror or exc}") from None
        written = []
        for name in names:
            mol = load_molecule(os.path.join(args.dataset, name))
            doc = _feature_doc(model, mol)
            out_path = os.path.join(args.out, os.path.splitext(name)[0] + ".features.json")
            _emit_json(doc, out_path)
            written.append(out_path)
        sys.stdout.write(json.dumps({"written": written}, indent=2) + "\n")
        return EXIT_OK
    mol = load_molecule(args.input)
    _emit_json(_feature_doc(model, mol), args.out)
    return EXIT_OK


def cmd_predict(args) -> int:
    model = _model_for(args)
    mol = load_molecule(args.input)
    _emit_json({"prediction_ev": model.predict(mol), "name": mol.name}, args.out)
    return EXIT_OK


def cmd_train(args) -> int:
    if args.resume and args.seed is not None:
        raise UsageError("--resume restores its checkpoint's random stream; it excludes --seed")
    model_cfg, train_cfg = _load_configs(args)
    dataset = load_dataset(args.dataset)
    if args.ckpt:
        check_checkpoint_path(args.ckpt)  # fail before training, not after
    result = train(
        dataset, model_cfg, train_cfg, resume=args.resume, log=lambda s: print(s, file=sys.stderr)
    )
    doc = {
        "steps": result.step,
        "final_loss": result.history[-1]["total"] if result.history else None,
        "history_tail": result.history[-10:],
        "n_params": result.model.params.size,
    }
    if model_cfg.loss_weights[0] != 0.0:
        doc["train_mae_ev"] = evaluate(dataset, result.model)
    if args.ckpt:
        save_checkpoint(args.ckpt, result.model, result.optimizer, result.rng, result.step)
        doc["checkpoint"] = args.ckpt
    _emit_json(doc, args.out)
    return EXIT_OK


def cmd_gradcheck(args) -> int:
    if not 0.0 < args.step < math.inf:
        raise UsageError(f"--step must be a positive finite number, got {args.step}")
    model_cfg, train_cfg = _load_configs(args)
    if args.config is None:
        model_cfg = ModelConfig(
            d_a=8, d_b=8, d_h=2, n_heads=2, n_layers=2, ffn_multiplier=1,
            kernels=4, max_spd=5, n_length_buckets=4, elements=("H", "C", "N", "O"),
            loss_weights=(0.1, 0.1, 0.1, 0.1),
        )
    model = Model(model_cfg, seed=train_cfg.seed)
    mol = load_molecule(args.input) if args.input else water(target=0.15)
    if mol.target is None:
        mol = Molecule(mol.atoms, 0.15, mol.name)
    inputs = model.sample_loss_inputs(mol, RandomStream(train_cfg.seed + 1))

    def f(tape):
        loss, _ = model.total_loss_from_inputs(inputs, tape)
        return loss, (TapeParams(model.params, tape) if tape is not None else None)

    t0 = time.monotonic()
    report = grad_check(f, model.params, step=args.step)
    doc = {
        "n_coordinates": report.n_coordinates,
        "max_rel_err": report.max_rel_err,
        "mean_rel_err": report.mean_rel_err,
        "worst": [{"name": n, "rel_err": e} for n, e in report.worst(10)],
        "per_param": report.per_param,
        "seconds": time.monotonic() - t0,
    }
    _emit_json(doc, args.out)
    return EXIT_OK


def cmd_dump_attention(args) -> int:
    model = _model_for(args)
    mol = load_molecule(args.input)
    _emit_json(model.dump_attention(mol), args.out)
    return EXIT_OK


def cmd_selftest(args) -> int:
    checks: list[tuple[str, bool, str]] = []

    def check(name: str, ok: bool, detail: str = "") -> None:
        checks.append((name, bool(ok), detail))

    mol = water()
    bonds = predict_bonds(mol)
    check("water-bonds", bonds.keys() == ((0, 1), (0, 2)), str(bonds.keys()))

    feats = featurize_molecule(mol)
    cos = feats.cos_bond[0, 1]
    check("water-angle-cosine", abs(cos - np.cos(np.deg2rad(104.52))) < 1e-3, f"{cos:.5f}")

    benz = benzene_skeleton()
    fb = featurize_molecule(benz)
    adj = fb.bond_graph.adjacency
    check(
        "benzene-line-graph-is-6-cycle",
        fb.n_bonds == 6 and int(adj.sum()) == 12 and all(adj[p].sum() == 2 for p in range(6)),
        f"M={fb.n_bonds} edges={int(adj.sum()) // 2}",
    )
    bm = bond_mask(fb.bond_graph)
    check("benzene-bond-mask-distance-2", int(bm.sum()) == 30, f"allowed={int(bm.sum())}")

    p3 = featurize_molecule(chain(3))
    check(
        "path3-line-graph-is-edge",
        p3.n_bonds == 2 and int(p3.bond_graph.adjacency.sum()) == 2,
        "",
    )
    p4 = featurize_molecule(chain(4))
    check("path4-spd-endpoints", p4.spd_atom[0, 3] == 3, str(p4.spd_atom[0, 3]))

    star = featurize_molecule(star_ch3())
    check(
        "star-line-graph-is-triangle",
        star.n_bonds == 3 and int(star.bond_graph.adjacency.sum()) == 6,
        "",
    )

    cfg = ModelConfig(
        d_a=8, d_b=8, d_h=4, n_heads=2, n_layers=1, ffn_multiplier=2,
        kernels=4, max_spd=5, n_length_buckets=4, elements=("H", "C", "N", "O"),
    )
    model = Model(cfg, seed=0)
    fwd = model.forward(mol, collect_attention=True)
    rows_ok = True
    for rec in fwd.attention or []:
        sums = rec.weights.sum(axis=1)
        masked_rows = ~np.isclose(sums, 1.0, atol=1e-9)
        if not np.all(np.isclose(sums[masked_rows], 0.0, atol=1e-12)):
            rows_ok = False
    check("attention-rows-stochastic", rows_ok, "")
    p1 = model.predict(mol)
    p2 = model.predict(mol)
    check("prediction-deterministic", p1 == p2, f"{p1}")

    failed = [c for c in checks if not c[1]]
    _emit_json(
        {
            "passed": len(checks) - len(failed),
            "failed": len(failed),
            "checks": [{"name": n, "ok": ok, "detail": d} for n, ok, d in checks],
        },
        args.out,
    )
    return EXIT_OK if not failed else EXIT_NUMERIC


# ---------------------------------------------------------------------------
# Argument parsing
# ---------------------------------------------------------------------------


def build_parser() -> _Parser:
    parser = _Parser(prog="demol", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def model_flags(p, ckpt_help):
        p.add_argument("--config", default=None, help="flat key=value config file")
        p.add_argument("--seed", type=int, default=None, help="seed override")
        p.add_argument("--alpha", type=float, default=None,
                       help=f"bond threshold factor (default {DEFAULT_ALPHA})")
        p.add_argument("--cutoff", type=float, default=None,
                       help=f"atom mask cutoff in Angstrom (default {DEFAULT_CUTOFF})")
        p.add_argument("--ckpt", default=None, help=ckpt_help)

    def out_flag(p):
        p.add_argument("--out", default=None, help="write JSON here instead of stdout")

    load_help = "checkpoint to load the model from; excludes --config, --seed, --alpha, --cutoff"

    p = sub.add_parser("bonds", help="perceive bonds from covalent radii")
    p.add_argument("input", help="molecule file (.xyz or .json)")
    p.add_argument("--alpha", type=float, default=DEFAULT_ALPHA,
                   help=f"bond threshold factor (default {DEFAULT_ALPHA})")
    out_flag(p)
    p.set_defaults(func=cmd_bonds)

    p = sub.add_parser("featurize", help="emit the structure-encoding bundle")
    p.add_argument("input", nargs="?", default=None, help="molecule file (.xyz or .json)")
    p.add_argument("--dataset", default=None, help="featurize every molecule in a directory")
    model_flags(p, load_help)
    out_flag(p)
    p.set_defaults(func=cmd_featurize)

    p = sub.add_parser("predict", help="predict the scalar property (eV)")
    p.add_argument("input", help="molecule file (.xyz or .json)")
    model_flags(p, load_help)
    out_flag(p)
    p.set_defaults(func=cmd_predict)

    p = sub.add_parser("train", help="train on a directory of molecule files")
    p.add_argument("--dataset", required=True, help="directory of molecule files")
    model_flags(p, "checkpoint file to write after training")
    p.add_argument("--resume", default=None, help="checkpoint to resume from; excludes --seed")
    out_flag(p)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("gradcheck", help="finite-difference gradient report")
    p.add_argument("input", nargs="?", default=None, help="molecule file (default: water)")
    p.add_argument("--config", default=None, help="flat key=value config file")
    p.add_argument("--seed", type=int, default=None, help="seed override")
    p.add_argument("--step", type=float, default=1e-4, help="finite-difference step")
    out_flag(p)
    p.set_defaults(func=cmd_gradcheck)

    p = sub.add_parser("dump-attention", help="per-layer per-head attention maps")
    p.add_argument("input", help="molecule file (.xyz or .json)")
    model_flags(p, load_help)
    out_flag(p)
    p.set_defaults(func=cmd_dump_attention)

    p = sub.add_parser("selftest", help="run the built-in invariant suite")
    out_flag(p)
    p.set_defaults(func=cmd_selftest)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except _NUMERIC_ERRORS as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except _DATA_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except DemolError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA


if __name__ == "__main__":
    sys.exit(main())
