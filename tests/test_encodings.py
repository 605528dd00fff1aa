import math

import numpy as np
import pytest

from conftest import micro_config
from demol import autodiff as ad
from demol.bonds import predict_bonds
from demol.encodings import (
    UNREACHABLE,
    atom_pair_key,
    build_pair_index,
    cosine_matrix,
    pair_slot_matrix,
    spd_matrix,
    spd_slot_ids,
)
from demol.fixtures import benzene_skeleton, chain, star_ch3, water
from demol.graphs import atom_adjacency, build_bond_graph
from demol.model import Model, assemble_bundle
from demol.molecule import molecule_from_symbols
from demol.pipeline import featurize_molecule
from demol.rng import RandomStream

SQRT_2PI = math.sqrt(2.0 * math.pi)


def grid(kernels, width):
    """Kernel centers and sigma of a model's distance banks."""
    return Model(micro_config(kernels=kernels, width_dist=width), seed=0)._grid["enc.atom"]


def kernel(x, mu, sigma, alpha=1.0, beta=0.0):
    """ad.gaussian_kernel_features for one scalar: a (K,) vector."""
    a, b = ad.constant([[alpha]]), ad.constant([[beta]])
    return ad.gaussian_kernel_features(a, b, np.array([x]), mu, sigma).value[0]


def kernel_oracle(u, mu, sigma):
    return -math.exp(-0.5 * ((u - mu) / sigma) ** 2) / (SQRT_2PI * sigma)


def gelu_oracle(x):
    return x * 0.5 * (1.0 + math.erf(x / math.sqrt(2.0)))


def export_model(seed=0, elements=("H", "O")):
    """A small model whose SPD tables are zero, so the export shows the kernel terms."""
    model = Model(micro_config(n_layers=1, elements=elements), seed=seed)
    model.params["enc.spd_atom.table"][:] = 0.0
    model.params["enc.spd_bond.table"][:] = 0.0
    return model


class TestGaussianBasis:
    def test_peak_value_at_center(self):
        # exponent vanishes when alpha*d + beta equals a kernel center
        mu, sigma = grid(4, 2.0)
        values = kernel(mu[2], mu, sigma)  # alpha=1, beta=0
        assert values[2] == pytest.approx(-1.0 / (SQRT_2PI * sigma), abs=1e-12)

    def test_symmetry_about_center(self):
        mu, sigma = grid(4, 2.0)
        t = 0.173
        left = kernel(mu[1] - t, mu, sigma)[1]
        right = kernel(mu[1] + t, mu, sigma)[1]
        assert left == pytest.approx(right, abs=1e-12)

    def test_worked_value(self):
        # oracle: direct high-precision evaluation at d=1, mu=0.5, sigma=0.25
        mu, sigma = grid(4, 1.0)  # mu = [0, .25, .5, .75], sigma 0.25
        values = kernel(1.0, mu, sigma)
        # kernel with mu = 0.5: z = (1 - 0.5) / 0.25 = 2
        assert values[2] == pytest.approx(-0.21596386605275225, abs=1e-12)

    def test_mu_translation_covariance(self):
        # shifting d by delta (alpha = 1) equals shifting every center by -delta
        mu, sigma = grid(6, 3.0)
        delta = 0.37
        base = kernel(1.1 + delta, mu, sigma)
        z = (1.1 - (mu - delta)) / sigma
        manual = -np.exp(-0.5 * z * z) / (SQRT_2PI * sigma)
        assert np.abs(base - manual).max() < 1e-12

    def test_fallback_slot_for_unknown_pair(self):
        # unknown pairs read the trailing slot of the per-pair (alpha, beta) table
        index = build_pair_index([("X", "X")])
        slots = pair_slot_matrix(["X", "Y"], ["X", "Z"], atom_pair_key, index)
        assert slots.tolist() == [[0, 1], [1, 1]]
        mu, sigma = grid(8, 2.0)
        alpha_table = ad.constant([[1.0], [2.0]])  # alpha 2 doubles the input
        alpha = ad.gather_rows(alpha_table, [slots[0, 0], slots[1, 1]])
        beta = ad.constant(np.zeros((2, 1)))
        values = ad.gaussian_kernel_features(alpha, beta, np.array([0.8, 0.4]), mu, sigma).value
        assert np.abs(values[0] - values[1]).max() < 1e-12


class TestDistanceEncoding:
    def test_identity_projection_diagonal(self):
        # with W1 = I and W2 = ones, entry (i, i) is sum_k GELU(phi_k(0))
        model = export_model(elements=("C",))
        model.params["enc.atom.w1"][:] = np.eye(4)
        model.params["enc.atom.w2"][:] = 1.0
        mol = molecule_from_symbols(["C", "C"], [[0.0, 0, 0], [1.0, 0, 0]])
        phi = assemble_bundle(model, featurize_molecule(mol))["phi_atom"]
        mu, sigma = model._grid["enc.atom"]
        expected = sum(gelu_oracle(kernel_oracle(0.0, m, sigma)) for m in mu)
        assert phi[0, 0] == pytest.approx(expected, abs=1e-12)
        assert phi[0, 0] == phi[1, 1]

    def test_zero_projection_gives_zero(self):
        model = export_model(seed=1)
        model.params["enc.atom.w2"][:] = 0.0
        pos = np.random.RandomState(0).uniform(-2, 2, (3, 3))
        mol = molecule_from_symbols(["O", "H", "H"], pos)
        assert (assemble_bundle(model, featurize_molecule(mol))["phi_atom"] == 0).all()

    def test_matches_straight_line_reimplementation(self):
        # oracle: an independent element-by-element evaluation of the pipeline
        model = export_model(elements=("C",))
        rng = RandomStream(99)
        w1 = np.array([[rng.normal(0.5) for _ in range(4)] for _ in range(4)])
        w2 = np.array([[rng.normal(0.5)] for _ in range(4)])
        model.params["enc.atom.w1"][:] = w1
        model.params["enc.atom.w2"][:] = w2
        model.params["enc.atom.alpha"][:] = 1.3
        model.params["enc.atom.beta"][:] = -0.2
        rs = np.random.RandomState(1)
        pos = rs.uniform(-2, 2, (3, 3))
        mol = molecule_from_symbols(["C", "C", "C"], pos)
        enc = assemble_bundle(model, featurize_molecule(mol))["phi_atom"]
        mu, sigma = model._grid["enc.atom"]
        for i in range(3):
            for j in range(3):
                d = math.sqrt(sum((pos[i, a] - pos[j, a]) ** 2 for a in range(3)))
                phi = [kernel_oracle(1.3 * d - 0.2, m, sigma) for m in mu]
                pre = [sum(phi[k] * w1[k, c] for k in range(4)) for c in range(4)]
                expected = sum(gelu_oracle(pre[c]) * w2[c, 0] for c in range(4))
                assert enc[i, j] == pytest.approx(expected, abs=1e-9)

    def test_symmetric_for_symmetric_slots(self):
        model = Model(micro_config(), seed=4)
        enc = assemble_bundle(model, featurize_molecule(water()))["phi_atom"]
        assert np.abs(enc - enc.T).max() < 1e-12


class TestSpd:
    def test_path_graph(self):
        mol = chain(4)
        spd = spd_matrix(atom_adjacency(mol.n_atoms, predict_bonds(mol)))
        assert spd[0, 3] == 3
        assert (spd.diagonal() == 0).all()

    def test_disconnected_pair(self):
        mol = molecule_from_symbols(["H", "H"], [[0, 0, 0], [4.0, 0, 0]])
        spd = spd_matrix(atom_adjacency(mol.n_atoms, predict_bonds(mol)))
        assert spd[0, 1] == UNREACHABLE and spd[1, 0] == UNREACHABLE

    def test_matches_floyd_warshall(self):
        rs = np.random.RandomState(2024)
        for _ in range(100):
            n = rs.randint(2, 13)
            adjacency = np.triu(rs.rand(n, n) < 0.3, k=1)
            adjacency = adjacency | adjacency.T
            # Floyd-Warshall oracle
            big = 10**6
            dist = np.where(adjacency, 1, big)
            np.fill_diagonal(dist, 0)
            for k in range(n):
                dist = np.minimum(dist, dist[:, k][:, None] + dist[k][None, :])
            expected = np.where(dist >= big, UNREACHABLE, dist)
            assert (spd_matrix(adjacency) == expected).all()

    def test_spd_encoding_constant(self):
        table = np.zeros(7)
        table[0] = 0.5
        out = table[spd_slot_ids(np.zeros((3, 3), dtype=int), 5)]
        assert (out == 0.5).all()

    def test_spd_encoding_clips(self):
        table = np.arange(22, dtype=np.float64)
        assert table[spd_slot_ids(np.array([[25]]), 20)][0, 0] == 20.0

    def test_spd_encoding_hand_lookup(self):
        table = np.array([10.0, 11.0, 12.0, 99.0])  # max_spd = 2, unreachable slot last
        spd = np.array([[0, 1, UNREACHABLE], [1, 0, 2], [UNREACHABLE, 2, 0]])
        out = table[spd_slot_ids(spd, 2)]
        expected = np.array([[10.0, 11.0, 99.0], [11.0, 10.0, 12.0], [99.0, 12.0, 10.0]])
        assert (out == expected).all()

    def test_table_length_validated(self):
        # each SPD table has max_spd + 2 rows: the clipped hop counts and "unreachable"
        model = Model(micro_config(max_spd=5), seed=0)
        assert model.params["enc.spd_atom.table"].shape == (7, 1)
        assert model.params["enc.spd_bond.table"].shape == (7, 1)
        with pytest.raises(ValueError):
            micro_config(max_spd=-1)


class TestTorsion:
    def cosines(self, mol):
        return cosine_matrix(build_bond_graph(mol, predict_bonds(mol)))

    def test_orthogonal_bonds(self):
        mol = molecule_from_symbols(
            ["O", "H", "H"], [[0, 0, 0], [0.9, 0, 0], [0, 0.9, 0]]
        )
        cos = self.cosines(mol)
        assert cos[0, 1] == pytest.approx(0.0, abs=1e-12)

    def test_collinear_bonds(self):
        # both directions re-oriented away from the shared atom point oppositely
        mol = molecule_from_symbols(
            ["C", "C", "C"], [[-1.4, 0, 0], [0, 0, 0], [1.4, 0, 0]]
        )
        cos = self.cosines(mol)
        assert cos[0, 1] == pytest.approx(-1.0, abs=1e-12)

    def test_water_bond_angle(self):
        cos = self.cosines(water())
        assert cos[0, 1] == pytest.approx(math.cos(math.radians(104.52)), abs=1e-3)

    def test_diagonal_is_one(self):
        assert (self.cosines(star_ch3()).diagonal() == 1.0).all()

    def test_nonadjacent_pairs_use_unsigned_cosine(self):
        # bonds 0-1 and 2-3 of a chain share no atom; relabeling may flip the
        # canonical direction, so only the unsigned cosine is well defined
        mol = chain(4)
        cos = self.cosines(mol)
        assert cos[0, 2] == pytest.approx(1.0, abs=1e-12)  # parallel axes

    def test_rigid_motion_invariance(self):
        rs = np.random.RandomState(8)
        mol = star_ch3()
        base = self.cosines(mol)
        for _ in range(20):
            q = np.linalg.qr(rs.normal(size=(3, 3)))[0]
            if np.linalg.det(q) < 0:
                q[:, 0] = -q[:, 0]
            moved = molecule_from_symbols(
                [a.element.symbol for a in mol.atoms],
                mol.positions @ q.T + rs.uniform(-5, 5, 3),
            )
            assert np.abs(self.cosines(moved) - base).max() < 1e-9

    def test_torsion_matrix_through_kernel_pipeline(self):
        # with the bond-distance projection and the SPD table zero, phi_bond is
        # the torsion encoding of the cosines alone
        model = export_model(seed=5)
        model.params["enc.bond.w2"][:] = 0.0
        feats = featurize_molecule(water())
        out = assemble_bundle(model, feats)["phi_bond"]
        mu, sigma = model._grid["enc.tors"]
        p = model.params
        slot = model.pair_index_bond[(("H", "O"), ("H", "O"))]
        alpha, beta = p["enc.tors.alpha"][slot, 0], p["enc.tors.beta"][slot, 0]
        for i in range(2):
            for j in range(2):
                phi = [kernel_oracle(alpha * feats.cos_bond[i, j] + beta, m, sigma) for m in mu]
                pre = [sum(phi[k] * p["enc.tors.w1"][k, c] for k in range(4)) for c in range(4)]
                expected = sum(gelu_oracle(pre[c]) * p["enc.tors.w2"][c, 0] for c in range(4))
                assert abs(out[i, j] - expected) < 1e-12
        assert np.abs(out - out.T).max() < 1e-12


class TestBundle:
    def test_zero_projections_reduce_to_spd(self):
        mol = water()
        model = Model(micro_config(n_layers=1, elements=("H", "O")), seed=0)
        for bank in ("enc.atom", "enc.bond", "enc.tors", "enc.cross"):
            model.params[f"{bank}.w2"][:] = 0.0
        feats = featurize_molecule(mol)
        bundle = assemble_bundle(model, feats)
        table = model.params["enc.spd_atom.table"][:, 0]
        spd_expected = table[spd_slot_ids(feats.spd_atom, model.config.max_spd)]
        assert np.abs(bundle["phi_atom"] - spd_expected).max() == 0.0
        assert (bundle["phi_a2b"] == 0).all()

    def test_single_atom_shapes(self):
        mol = molecule_from_symbols(["C"], [[0, 0, 0]])
        model = Model(micro_config(n_layers=1, elements=("H", "C")), seed=0)
        bundle = assemble_bundle(model, featurize_molecule(mol))
        assert bundle["phi_atom"].shape == (1, 1)
        assert bundle["phi_bond"].shape == (0, 0)
        assert bundle["phi_a2b"].shape == (1, 0)
        assert bundle["phi_b2a"].shape == (0, 1)

    def test_water_shapes_symmetry_finite(self):
        model = Model(micro_config(n_layers=1, elements=("H", "O")), seed=3)
        bundle = assemble_bundle(model, featurize_molecule(water()))
        assert bundle["phi_atom"].shape == (3, 3)
        assert bundle["phi_bond"].shape == (2, 2)
        assert bundle["phi_a2b"].shape == (3, 2)
        assert bundle["phi_b2a"].shape == (2, 3)
        assert np.abs(bundle["phi_atom"] - bundle["phi_atom"].T).max() < 1e-9
        assert np.abs(bundle["phi_bond"] - bundle["phi_bond"].T).max() < 1e-9
        assert (bundle["phi_b2a"] == bundle["phi_a2b"].T).all()
        for arr in bundle.values():
            assert np.isfinite(arr).all()

    def test_bundle_permutation_equivariance(self):
        model = Model(micro_config(n_layers=1), seed=5)
        rs = np.random.RandomState(17)
        mol = molecule_from_symbols(
            ["C", "H", "O", "H", "N"],
            [[0, 0, 0], [1.05, 0, 0], [-1.35, 0.2, 0], [-1.8, 1.0, 0.3], [0.4, 1.3, 0.2]],
        )
        feats = featurize_molecule(mol)
        bundle = assemble_bundle(model, feats)
        perm = rs.permutation(mol.n_atoms)
        inverse = np.argsort(perm)
        pmol = molecule_from_symbols(
            [mol.atoms[p].element.symbol for p in perm], mol.positions[perm]
        )
        pfeats = featurize_molecule(pmol)
        pbundle = assemble_bundle(model, pfeats)
        relabeled = [
            tuple(sorted((int(inverse[i]), int(inverse[j])))) for i, j in feats.bonds.keys()
        ]
        order = {key: idx for idx, key in enumerate(pfeats.bonds.keys())}
        bond_map = np.array([order[key] for key in relabeled], dtype=np.intp)
        assert np.abs(
            pbundle["phi_atom"][np.ix_(inverse, inverse)] - bundle["phi_atom"]
        ).max() < 1e-9
        assert np.abs(
            pbundle["phi_bond"][np.ix_(bond_map, bond_map)] - bundle["phi_bond"]
        ).max() < 1e-9
        assert np.abs(
            pbundle["phi_a2b"][np.ix_(inverse, bond_map)] - bundle["phi_a2b"]
        ).max() < 1e-9


def test_benzene_spd_on_line_graph():
    feats = featurize_molecule(benzene_skeleton())
    spd = feats.spd_bond
    assert spd.max() == 3  # opposite bonds of the 6-cycle line graph
    assert (spd == spd.T).all()
