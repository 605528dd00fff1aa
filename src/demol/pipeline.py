"""Geometry-level featurization shared by the model and the feature exporter.

A ``Featurization`` holds everything derived from coordinates alone: graphs,
bond geometry, pairwise distances, inter-bond cosines, hop counts, and the
attention masks. It contains no learnable values, so it can be computed once
and reused across parameter updates and finite-difference evaluations.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .bonds import BondSet, predict_bonds
from .encodings import cosine_matrix, spd_matrix
from .graphs import BondGraph, atom_adjacency, build_bond_graph
from .masks import DEFAULT_CUTOFF, MaskMatrices, all_true_masks, build_masks
from .molecule import Molecule, pairwise_distances


@dataclass(frozen=True)
class Featurization:
    molecule: Molecule
    bonds: BondSet
    bond_graph: BondGraph
    dist_atom: np.ndarray  # (N, N)
    dist_bond: np.ndarray  # (M, M) midpoint-midpoint
    dist_cross: np.ndarray  # (N, M) atom-midpoint
    cos_bond: np.ndarray  # (M, M)
    spd_atom: np.ndarray  # (N, N) int
    spd_bond: np.ndarray  # (M, M) int
    masks: MaskMatrices
    incidence: np.ndarray  # (N, M) bool, the bond graph's

    @property
    def n_atoms(self) -> int:
        return self.molecule.n_atoms

    @property
    def n_bonds(self) -> int:
        return len(self.bonds)


def featurize_molecule(
    m: Molecule,
    *,
    alpha: float = 1.15,
    cutoff: float = DEFAULT_CUTOFF,
    use_masks: bool = True,
) -> Featurization:
    dist_atom = pairwise_distances(m.positions, m.positions)
    bonds = predict_bonds(m, alpha, dist=dist_atom)
    bg = build_bond_graph(m, bonds)
    # the distance temporaries set the peak memory, so they come before the hop counts
    dist_bond = pairwise_distances(bg.midpoints, bg.midpoints)
    dist_cross = pairwise_distances(m.positions, bg.midpoints)
    spd_bond = spd_matrix(bg.adjacency)
    masks = (
        build_masks(dist_atom, spd_bond, cutoff)
        if use_masks
        else all_true_masks(m.n_atoms, len(bonds))
    )
    return Featurization(
        molecule=m,
        bonds=bonds,
        bond_graph=bg,
        dist_atom=dist_atom,
        dist_bond=dist_bond,
        dist_cross=dist_cross,
        cos_bond=cosine_matrix(bg),
        spd_atom=spd_matrix(atom_adjacency(m.n_atoms, bonds)),
        spd_bond=spd_bond,
        masks=masks,
        incidence=bg.incidence,
    )
