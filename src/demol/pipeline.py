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
from .graphs import (
    AtomGraph,
    BondGraph,
    BondNode,
    build_atom_graph,
    build_bond_graph,
    incidence_matrix,
)
from .masks import DEFAULT_CUTOFF, MaskMatrices, all_true_masks, build_masks
from .molecule import Molecule, pairwise_distances


@dataclass(frozen=True)
class Featurization:
    molecule: Molecule
    bonds: BondSet
    atom_graph: AtomGraph
    bond_graph: BondGraph
    bond_nodes: tuple[BondNode, ...]
    midpoints: np.ndarray  # (M, 3)
    dist_atom: np.ndarray  # (N, N)
    dist_bond: np.ndarray  # (M, M) midpoint-midpoint
    dist_cross: np.ndarray  # (N, M) atom-midpoint
    cos_bond: np.ndarray  # (M, M)
    spd_atom: np.ndarray  # (N, N) int
    spd_bond: np.ndarray  # (M, M) int
    masks: MaskMatrices
    incidence: np.ndarray  # (N, M) bool

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
    bonds: BondSet | None = None,
) -> Featurization:
    dist_atom = pairwise_distances(m.positions, m.positions)
    if bonds is None:
        bonds = predict_bonds(m, alpha, dist=dist_atom)
    g = build_atom_graph(m, bonds)
    bg = build_bond_graph(m, g, bonds)
    nodes = bg.bond_nodes
    midpoints = (
        np.stack([n.midpoint for n in nodes]) if nodes else np.zeros((0, 3), dtype=np.float64)
    )

    masks = (
        build_masks(dist_atom, bg, cutoff) if use_masks else all_true_masks(m.n_atoms, len(bonds))
    )

    return Featurization(
        molecule=m,
        bonds=bonds,
        atom_graph=g,
        bond_graph=bg,
        bond_nodes=nodes,
        midpoints=midpoints,
        dist_atom=dist_atom,
        dist_bond=pairwise_distances(midpoints, midpoints),
        dist_cross=pairwise_distances(m.positions, midpoints),
        cos_bond=cosine_matrix(bg, nodes),
        spd_atom=spd_matrix(g),
        spd_bond=spd_matrix(bg),
        masks=masks,
        incidence=incidence_matrix(m.n_atoms, bonds),
    )
