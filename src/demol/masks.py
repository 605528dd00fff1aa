"""Structure-aware attention masks.

Atom pairs may attend when closer than the cutoff (strict inequality,
default 5 Angstrom). Bond pairs may attend when identical, adjacent in the
line graph, or at line-graph distance exactly two, the orders-free stand-in
for conjugacy. Masked entries are excluded from softmax normalization
entirely, not merely down-weighted.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .graphs import UNREACHABLE
from .molecule import Molecule, pairwise_distances

DEFAULT_CUTOFF = 5.0  # Angstrom


@dataclass(frozen=True)
class MaskMatrices:
    atom: np.ndarray  # (N, N) bool, True = attention allowed
    bond: np.ndarray  # (M, M) bool

    def __post_init__(self):
        for name in ("atom", "bond"):
            m = getattr(self, name)
            if m.size and (not (m == m.T).all() or not m.diagonal().all()):
                raise ValueError(f"{name} mask must be symmetric with a true diagonal")


def atom_mask(m: Molecule | np.ndarray, cutoff: float = DEFAULT_CUTOFF) -> np.ndarray:
    """Pairs closer than ``cutoff``, from a molecule or its (N, N) distance matrix."""
    if cutoff <= 0:
        raise ValueError(f"cutoff must be positive, got {cutoff}")
    dist = m if isinstance(m, np.ndarray) else pairwise_distances(m.positions, m.positions)
    allowed = dist < cutoff
    np.fill_diagonal(allowed, True)
    return allowed


def bond_mask(spd_bond: np.ndarray) -> np.ndarray:
    """Bond pairs at line-graph distance 0, 1 or 2, from the (M, M) hop counts."""
    return (spd_bond != UNREACHABLE) & (spd_bond <= 2)


def build_masks(
    m: Molecule | np.ndarray, spd_bond: np.ndarray, cutoff: float = DEFAULT_CUTOFF
) -> MaskMatrices:
    return MaskMatrices(atom_mask(m, cutoff), bond_mask(spd_bond))


def all_true_masks(n_atoms: int, n_bonds: int) -> MaskMatrices:
    return MaskMatrices(
        np.ones((n_atoms, n_atoms), dtype=bool), np.ones((n_bonds, n_bonds), dtype=bool)
    )
