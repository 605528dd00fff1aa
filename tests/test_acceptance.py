"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
report. Tolerances are pinned here and nowhere else.
"""

import math
import time

import numpy as np
import pytest

from demol import autodiff as ad
from demol.autodiff import EdgeList, Tape, TapeParams, backward, grad_check
from demol.bonds import predict_bonds
from demol.encodings import UNREACHABLE, cosine_matrix, spd_matrix
from demol.fixtures import benzene_skeleton, chain, jittered_chain, star_ch3, water
from demol.graphs import build_atom_graph, build_bond_graph, build_line_graph
from demol.model import Model, ModelConfig, assemble_bundle
from demol.molecule import distance, molecule_from_symbols
from demol.rng import RandomStream
from demol.training import TrainConfig, evaluate, save_checkpoint, train


def report(number: int, description: str, detail: str = "") -> None:
    suffix = f" ({detail})" if detail else ""
    print(f"ACCEPTANCE {number:2d} PASS  {description}{suffix}")


def micro_config(**overrides) -> ModelConfig:
    base = dict(
        d_a=8, d_b=8, d_h=4, n_heads=2, n_layers=2, ffn_multiplier=2,
        kernels=4, max_spd=5, n_length_buckets=4, elements=("C", "N", "O"),
        loss_weights=(1.0, 0.0, 0.0, 0.0),
    )
    base.update(overrides)
    return ModelConfig(**base)


def random_organic(rs):
    n = rs.randint(4, 9)
    symbols = [rs.choice(["H", "C", "N", "O"]) for _ in range(n)]
    while True:
        pos = rs.uniform(-2.0, 2.0, size=(n, 3))
        d2 = ((pos[:, None] - pos[None, :]) ** 2).sum(-1)
        np.fill_diagonal(d2, np.inf)
        if d2.min() > 0.5**2:
            return molecule_from_symbols(symbols, pos, target=float(rs.uniform(-1, 1)))


# ---------------------------------------------------------------------------
# 1. Bond perception oracle
# ---------------------------------------------------------------------------


def test_criterion_01_bond_perception():
    t0 = time.monotonic()

    bonds = predict_bonds(water(), 1.15)
    assert bonds.keys() == ((0, 1), (0, 2)), "water must bond O-H1 and O-H2 only"

    # boundary pair measured bitwise at alpha * (r_H + r_H) must bond (inclusive)
    threshold = 1.15 * (0.31 + 0.31)
    x = None
    for candidate in (threshold, np.nextafter(threshold, 0.0), np.nextafter(threshold, 2.0)):
        mol = molecule_from_symbols(["H", "H"], [[0, 0, 0], [candidate, 0, 0]])
        if distance(mol.atoms[0], mol.atoms[1]) == threshold:
            x = candidate
            break
    assert x is not None
    at_threshold = molecule_from_symbols(["H", "H"], [[0, 0, 0], [x, 0, 0]])
    assert predict_bonds(at_threshold, 1.15).keys() == ((0, 1),)

    elapsed = time.monotonic() - t0
    assert elapsed < 1.0
    report(1, "bond perception oracle incl. inclusive threshold", f"{elapsed:.3f}s")


# ---------------------------------------------------------------------------
# 2. Line-graph oracles
# ---------------------------------------------------------------------------


def test_criterion_02_line_graphs():
    t0 = time.monotonic()

    def line_graph_of(mol):
        bonds = predict_bonds(mol)
        g = build_atom_graph(mol, bonds)
        return g, build_line_graph(g, bonds)

    _, lg = line_graph_of(chain(3))
    assert lg.n_bonds == 2 and lg.adjacency.sum() == 2  # L(P3) = K2

    _, lg = line_graph_of(star_ch3())
    assert lg.n_bonds == 3 and lg.adjacency.sum() == 6  # L(K13) = K3

    _, lg = line_graph_of(benzene_skeleton())
    assert lg.n_bonds == 6 and lg.adjacency.sum() == 12
    assert all(lg.adjacency[p].sum() == 2 for p in range(6))  # L(C6) = C6

    rs = np.random.RandomState(2)
    for _ in range(100):
        n = rs.randint(1, 9)
        while True:
            pos = rs.uniform(-3, 3, size=(n, 3))
            d2 = ((pos[:, None] - pos[None, :]) ** 2).sum(-1)
            np.fill_diagonal(d2, np.inf)
            if n == 1 or d2.min() > 0.4**2:
                break
        mol = molecule_from_symbols(["C"] * n, pos)
        g, lg = line_graph_of(mol)
        expected = sum(math.comb(int(g.degree(v)), 2) for v in range(n))
        assert lg.adjacency.sum() // 2 == expected  # handshake identity, exact

    elapsed = time.monotonic() - t0
    assert elapsed < 5.0
    report(2, "line-graph oracles P3/K13/C6 + handshake on 100 graphs", f"{elapsed:.2f}s")


# ---------------------------------------------------------------------------
# 3. SPD oracle
# ---------------------------------------------------------------------------


def test_criterion_03_spd_floyd_warshall():
    t0 = time.monotonic()
    rs = np.random.RandomState(3)
    for _ in range(100):
        n = rs.randint(2, 13)
        adjacency = np.triu(rs.rand(n, n) < 0.35, k=1)
        adjacency = adjacency | adjacency.T
        big = 10**6
        dist = np.where(adjacency, 1, big)
        np.fill_diagonal(dist, 0)
        for k in range(n):
            dist = np.minimum(dist, dist[:, k][:, None] + dist[k][None, :])
        expected = np.where(dist >= big, UNREACHABLE, dist)
        assert (spd_matrix(adjacency) == expected).all()  # exact integer equality
    elapsed = time.monotonic() - t0
    assert elapsed < 5.0
    report(3, "BFS all-pairs SPD equals Floyd-Warshall on 100 graphs", f"{elapsed:.2f}s")


# ---------------------------------------------------------------------------
# 4. Gaussian kernel closed form
# ---------------------------------------------------------------------------


def test_criterion_04_gaussian_kernel():
    mu, sigma = Model(micro_config(kernels=8, width_dist=4.0), seed=0)._grid["enc.atom"]

    def kernel(x):
        one = ad.constant([[1.0]])
        return ad.gaussian_kernel_features(one, ad.constant([[0.0]]), [x], mu, sigma).value[0]

    for k in (0, 3, 7):
        values = kernel(float(mu[k]))
        peak = -1.0 / (math.sqrt(2 * math.pi) * sigma)
        assert abs(values[k] - peak) <= 1e-12

    for t in (0.05, 0.31, 1.7):
        left = kernel(float(mu[4] - t))[4]
        right = kernel(float(mu[4] + t))[4]
        assert abs(left - right) <= 1e-12

    report(4, "Gaussian kernel peak value and symmetry within 1e-12")


# ---------------------------------------------------------------------------
# 5. Geometry: water angle and rigid-motion invariance
# ---------------------------------------------------------------------------


def test_criterion_05_geometry():
    mol = water()
    bonds = predict_bonds(mol)
    bg = build_bond_graph(mol, build_atom_graph(mol, bonds), bonds)
    cos = cosine_matrix(bg, bg.bond_nodes)[0, 1]
    assert abs(cos - math.cos(math.radians(104.52))) <= 1e-3

    # the exported phi_bond is the torsion encoding alone once the bond-distance
    # projection and the SPD table are zero
    model = Model(micro_config(kernels=6, width_tors=2.0, elements=("H", "C", "N", "O")), seed=5)
    model.params["enc.bond.w2"][:] = 0.0
    model.params["enc.spd_bond.table"][:] = 0.0

    def torsion(mol):
        return assemble_bundle(model, model.featurize(mol))["phi_bond"]

    probe = molecule_from_symbols(
        ["O", "C", "N", "H"],
        [[0, 0, 0], [1.4, 0.1, 0], [2.1, 1.2, 0.4], [-0.5, 0.9, -0.3]],
    )
    base = torsion(probe)

    rs = np.random.RandomState(5)
    for _ in range(20):
        q = np.linalg.qr(rs.normal(size=(3, 3)))[0]
        if np.linalg.det(q) < 0:
            q[:, 0] = -q[:, 0]
        moved = molecule_from_symbols(
            [a.element.symbol for a in probe.atoms],
            probe.positions @ q.T + rs.uniform(-8, 8, 3),
        )
        rotated = torsion(moved)
        assert rotated.shape == base.shape
        assert np.abs(rotated - base).max() <= 1e-9

    report(5, "water angle cosine within 1e-3; torsion rigid-motion within 1e-9")


# ---------------------------------------------------------------------------
# 6. Attention contracts
# ---------------------------------------------------------------------------


def test_criterion_06_attention_contracts():
    rs = np.random.RandomState(6)

    # op-level: row sums, exact zeros, shift invariance. The logits are the
    # op's scaled dot products q.k / sqrt(cols), with the identity as keys.
    def weights(logits, bias, mask):
        edges = EdgeList.from_mask(mask)
        tape = Tape()
        w = ad.softmax_bias_mask(
            tape.leaf(logits * math.sqrt(mask.shape[1])),
            tape.leaf(np.eye(mask.shape[1])),
            tape.leaf(bias[edges.rows, edges.cols].reshape(-1, 1)),
            edges,
            1,
        )
        return edges.dense(w.value[:, 0])

    for _ in range(20):
        rows, cols = rs.randint(1, 7), rs.randint(1, 7)
        logits_val = rs.normal(scale=3.0, size=(rows, cols))
        bias_val = rs.normal(scale=2.0, size=(rows, cols))
        mask = rs.rand(rows, cols) < 0.6
        w = weights(logits_val, bias_val, mask)
        for i in range(rows):
            if mask[i].any():
                assert abs(w[i].sum() - 1.0) <= 1e-12
            else:
                assert w[i].sum() == 0.0
        assert (w[~mask] == 0.0).all()
        shifts = rs.normal(scale=10.0, size=(rows, 1))
        w_shifted = weights(logits_val + shifts, bias_val, mask)
        assert np.abs(w_shifted - w).max() <= 1e-12

    # model-level: a molecule with masked pairs and an isolated atom
    cfg = micro_config(mask_cutoff=2.0, elements=("He", "C", "N", "O"))
    model = Model(cfg, seed=6)
    mol = molecule_from_symbols(
        ["C", "C", "C", "He"],
        [[0, 0, 0], [1.5, 0, 0], [3.0, 0, 0], [0.0, 30.0, 0.0]],
    )
    feats = model.featurize(mol)
    assert not feats.masks.atom.all()
    fwd = model.forward(mol, collect_attention=True)
    for rec in fwd.attention:
        sums = rec.weights.sum(axis=1)
        assert all(abs(s - 1.0) <= 1e-12 or s == 0.0 for s in sums)
        if rec.kind == "atom_self":
            assert (rec.weights[~feats.masks.atom] == 0.0).all()
        if rec.kind == "atom_from_bond":
            assert rec.weights[3].sum() == 0.0  # isolated atom: degenerate row

    report(6, "softmax rows sum to 1/0, masked weights exactly 0, shift-invariant")


# ---------------------------------------------------------------------------
# 7. Gradient correctness
# ---------------------------------------------------------------------------


def test_criterion_07_gradient_correctness():
    t0 = time.monotonic()
    # micro model per the criterion: d_a = d_b = 8, L = 2, h = 2, water input.
    # Loss weights 0.1 keep |total_loss| ~ 0.3 so the finite-difference
    # quantization floor ulp(loss) / (2 * step) stays below the 1e-8-floored
    # relative-error tolerance for near-zero gradients.
    cfg = micro_config(
        d_h=2, ffn_multiplier=1, elements=("H", "O"),
        loss_weights=(0.1, 0.1, 0.1, 0.1),
    )
    model = Model(cfg, seed=7)
    mol = water(target=0.15)
    inputs = model.sample_loss_inputs(mol, RandomStream(3))

    def f(tape):
        loss, _ = model.total_loss_from_inputs(inputs, tape)
        return loss, (TapeParams(model.params, tape) if tape is not None else None)

    rep = grad_check(f, model.params, step=1e-4)
    elapsed = time.monotonic() - t0
    assert rep.max_rel_err <= 1e-4, f"worst offenders: {rep.worst(5)}"
    assert elapsed < 60.0
    report(
        7,
        "total-loss gradients vs central differences on every coordinate",
        f"{rep.n_coordinates} coords, max err {rep.max_rel_err:.2e}, {elapsed:.1f}s",
    )


# ---------------------------------------------------------------------------
# 8. Equivariance and invariance
# ---------------------------------------------------------------------------


def test_criterion_08_equivariance():
    model = Model(micro_config(elements=("H", "C", "N", "O")), seed=8)
    rs = np.random.RandomState(8)
    for _ in range(10):
        mol = random_organic(rs)
        fwd = model.forward(mol)
        base_pred = fwd.prediction.item()

        perm = rs.permutation(mol.n_atoms)
        perm_mol = molecule_from_symbols(
            [mol.atoms[p].element.symbol for p in perm], mol.positions[perm]
        )
        fwd_p = model.forward(perm_mol)
        assert np.abs(
            fwd_p.embeddings.h_atom.value[np.argsort(perm)] - fwd.embeddings.h_atom.value
        ).max() <= 1e-6
        assert abs(fwd_p.prediction.item() - base_pred) <= 1e-6

        q = np.linalg.qr(rs.normal(size=(3, 3)))[0]
        if np.linalg.det(q) < 0:
            q[:, 0] = -q[:, 0]
        moved = molecule_from_symbols(
            [a.element.symbol for a in mol.atoms],
            mol.positions @ q.T + rs.uniform(-10, 10, 3),
        )
        assert abs(model.predict(moved) - base_pred) <= 1e-9

    report(8, "permutation equivariance (1e-6) and rigid-motion invariance (1e-9)")


# ---------------------------------------------------------------------------
# 9. Toy optimization
# ---------------------------------------------------------------------------


def synthetic_training_set(seed=2024, count=10):
    """Random chain geometries with targets derived from composition and
    geometry (a learnable synthetic signal)."""
    rng = RandomStream(seed)
    pool = ["C", "N", "O"]
    mols = []
    for i in range(count):
        n = 4 + (i % 4)
        pos = jittered_chain(n, rng)
        symbols = [pool[rng.randrange(3)] for _ in range(n)]
        dist = np.sqrt(((pos[:, None] - pos[None, :]) ** 2).sum(-1))
        target = 0.4 * symbols.count("O") / n + 0.2 * dist.mean() / n
        mols.append(
            molecule_from_symbols(symbols, pos, target=float(target), name=f"syn{i}")
        )
    return mols


def test_criterion_09_toy_optimization():
    t0 = time.monotonic()
    dataset = synthetic_training_set()
    cfg = micro_config()
    train_cfg = TrainConfig(seed=5, steps=2000, lr=1e-2)

    first = train(dataset, cfg, train_cfg)
    mae = evaluate(dataset, first.model)
    assert mae < 0.01, f"train MAE {mae}"

    second = train(dataset, cfg, train_cfg)
    assert [r["total"] for r in first.history] == [r["total"] for r in second.history]
    assert (first.model.params.flat() == second.model.params.flat()).all()

    elapsed = time.monotonic() - t0
    assert elapsed < 300.0
    report(9, "overfit 10 molecules to MAE < 0.01 eV, bit-identical reruns",
           f"MAE {mae:.5f} eV, {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# 10. Masked scaling
# ---------------------------------------------------------------------------


def _forward_walltime(model: Model, n: int) -> float:
    mol = chain(n, spacing=1.45)
    prep = model.prepare_molecule(mol)
    model.forward_features(prep)  # warmup
    best = math.inf
    for _ in range(3):
        t0 = time.monotonic()
        model.forward_features(prep)
        best = min(best, time.monotonic() - t0)
    return best


def test_criterion_10_masked_scaling():
    t0 = time.monotonic()
    sizes = (10, 50, 100, 200)
    slopes = {}
    for use_masks in (True, False):
        cfg = ModelConfig(
            d_a=16, d_b=16, d_h=8, n_heads=1, n_layers=1, ffn_multiplier=2,
            kernels=128, max_spd=20, n_length_buckets=8, elements=("C",),
            use_structure_masks=use_masks,
        )
        model = Model(cfg, seed=10)
        times = [_forward_walltime(model, n) for n in sizes]
        logn = np.log(np.array(sizes, dtype=float))
        slope = float(np.polyfit(logn, np.log(np.array(times)), 1)[0])
        slopes[use_masks] = slope

    elapsed = time.monotonic() - t0
    assert slopes[True] < 1.5, f"masked slope {slopes[True]}"
    assert slopes[False] > 1.5, f"unmasked slope {slopes[False]}"
    assert elapsed < 600.0
    report(10, "masked wall-time near-linear, unmasked super-1.5",
           f"slopes {slopes[True]:.2f} vs {slopes[False]:.2f}, {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# 11. Checkpoint split-run equivalence
# ---------------------------------------------------------------------------


def test_criterion_11_split_run(tmp_path):
    dataset = synthetic_training_set(count=4)
    cfg = micro_config(loss_weights=(1.0, 1.0, 1.0, 1.0))

    full = train(dataset, cfg, TrainConfig(seed=11, steps=14, lr=2e-3))

    half = train(dataset, cfg, TrainConfig(seed=11, steps=6, lr=2e-3))
    path = str(tmp_path / "resume.ckpt")
    save_checkpoint(path, half.model, half.optimizer, half.rng, half.step)
    resumed = train(dataset, cfg, TrainConfig(seed=11, steps=14, lr=2e-3), resume=path)

    assert (resumed.model.params.flat() == full.model.params.flat()).all()
    assert (resumed.optimizer.m == full.optimizer.m).all()
    assert (resumed.optimizer.v == full.optimizer.v).all()
    assert resumed.rng.state() == full.rng.state()
    assert [r["total"] for r in resumed.history] == [r["total"] for r in full.history[6:]]

    report(11, "checkpoint resume bitwise identical to continuous training")
