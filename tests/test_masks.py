import numpy as np
import pytest

from demol.bonds import predict_bonds
from demol.encodings import spd_matrix
from demol.fixtures import benzene_skeleton, chain, water
from demol.masks import MaskMatrices, atom_mask, bond_mask, build_masks
from demol.molecule import molecule_from_symbols
from demol.pipeline import featurize_molecule


class TestAtomMask:
    def test_under_cutoff_allowed(self):
        mol = molecule_from_symbols(["C", "C"], [[0, 0, 0], [4.9, 0, 0]])
        assert atom_mask(mol, 5.0)[0, 1]

    def test_over_cutoff_masked(self):
        mol = molecule_from_symbols(["C", "C"], [[0, 0, 0], [5.1, 0, 0]])
        assert not atom_mask(mol, 5.0)[0, 1]

    def test_cutoff_is_strict(self):
        mol = molecule_from_symbols(["C", "C"], [[0, 0, 0], [5.0, 0, 0]])
        assert not atom_mask(mol, 5.0)[0, 1]

    def test_water_all_true(self):
        assert atom_mask(water(), 5.0).all()

    def test_infinite_cutoff_all_true(self):
        mol = chain(6, spacing=3.0)
        assert atom_mask(mol, np.inf).all()

    def test_vanishing_cutoff_is_identity(self):
        mol = chain(6)
        assert (atom_mask(mol, 1e-12) == np.eye(6, dtype=bool)).all()

    def test_rejects_nonpositive_cutoff(self):
        with pytest.raises(ValueError):
            atom_mask(water(), 0.0)


class TestBondMask:
    def test_adjacent_bonds_allowed(self):
        feats = featurize_molecule(chain(3))
        assert bond_mask(feats.spd_bond)[0, 1]

    def test_distance_three_masked(self):
        feats = featurize_molecule(chain(5))  # bonds form a path of length 4
        mask = bond_mask(feats.spd_bond)
        spd = spd_matrix(feats.bond_graph.adjacency)
        assert spd[0, 3] == 3
        assert not mask[0, 3]
        assert mask[0, 2]  # distance exactly 2 is the conjugacy surrogate

    def test_benzene_oracle(self):
        # BFS oracle on the 6-cycle line graph: opposite bonds sit at distance
        # 3, so exactly the three opposite pairs (both directions) are masked
        feats = featurize_molecule(benzene_skeleton())
        mask = feats.masks.bond
        spd = spd_matrix(feats.bond_graph.adjacency)
        assert (mask == (spd >= 0) & (spd <= 2)).all()
        assert int(mask.sum()) == 30

    def test_equivalence_with_bfs_oracle_random(self):
        rs = np.random.RandomState(11)
        for _ in range(100):
            n = rs.randint(1, 13)
            while True:
                pos = rs.uniform(-3.5, 3.5, size=(n, 3))
                d2 = ((pos[:, None] - pos[None, :]) ** 2).sum(-1)
                np.fill_diagonal(d2, np.inf)
                if n == 1 or d2.min() > 0.4**2:
                    break
            mol = molecule_from_symbols(["C"] * n, pos)
            feats = featurize_molecule(mol)
            mask = feats.masks.bond
            spd = spd_matrix(feats.bond_graph.adjacency)
            assert (mask == (spd >= 0) & (spd <= 2)).all()

    def test_empty_graph(self):
        feats = featurize_molecule(molecule_from_symbols(["He"], [[0, 0, 0]]))
        assert bond_mask(feats.spd_bond).shape == (0, 0)


class TestMaskMatrices:
    def test_symmetric_with_true_diagonal(self):
        feats = featurize_molecule(chain(6))
        masks = build_masks(feats.molecule, feats.spd_bond)
        for m in (masks.atom, masks.bond):
            assert (m == m.T).all()
            assert m.diagonal().all()

    def test_validation(self):
        bad = np.array([[True, True], [False, True]])
        with pytest.raises(ValueError):
            MaskMatrices(bad, np.ones((0, 0), dtype=bool))


def test_atom_mask_matches_distance_rule_off_diagonal():
    mol = chain(8, spacing=1.4)
    feats = featurize_molecule(mol)
    pos = mol.positions
    dist = np.sqrt(((pos[:, None] - pos[None, :]) ** 2).sum(-1))
    off = ~np.eye(8, dtype=bool)
    assert ((dist < 5.0) == feats.masks.atom)[off].all()
    assert feats.masks.atom.diagonal().all()
