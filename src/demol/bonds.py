"""Bond perception from covalent radii.

A pair (i, j) is bonded when its interatomic distance does not exceed
``alpha * (r_i + r_j)``; the comparison is inclusive. No valence filtering
is applied and no structure is ever rejected, only scored downstream.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .elements import CovalentRadiiTable
from .molecule import Molecule, distance, pairwise_distances

DEFAULT_ALPHA = 1.15


@dataclass(frozen=True)
class Bond:
    i: int
    j: int
    length: float  # Angstrom

    def __post_init__(self):
        if self.i == self.j:
            raise ValueError(f"bond endpoints must differ, got ({self.i}, {self.j})")
        lo, hi = min(self.i, self.j), max(self.i, self.j)
        object.__setattr__(self, "i", lo)
        object.__setattr__(self, "j", hi)
        if self.length <= 0:
            raise ValueError(f"bond length must be positive, got {self.length}")

    @property
    def key(self) -> tuple[int, int]:
        return (self.i, self.j)


@dataclass(frozen=True)
class BondSet:
    bonds: tuple[Bond, ...]

    def __post_init__(self):
        bonds = tuple(sorted(self.bonds, key=lambda b: b.key))
        keys = [b.key for b in bonds]
        if len(set(keys)) != len(keys):
            raise ValueError("duplicate bond keys")
        object.__setattr__(self, "bonds", bonds)

    def __len__(self) -> int:
        return len(self.bonds)

    def __iter__(self):
        return iter(self.bonds)

    def keys(self) -> tuple[tuple[int, int], ...]:
        return tuple(b.key for b in self.bonds)

    def __contains__(self, key: tuple[int, int]) -> bool:
        i, j = key
        return (min(i, j), max(i, j)) in set(self.keys())


def predict_bonds(
    m: Molecule,
    alpha: float = DEFAULT_ALPHA,
    radii: CovalentRadiiTable | None = None,
    dist: np.ndarray | None = None,
) -> BondSet:
    """All pairs i < j with distance(i, j) <= alpha * (r_i + r_j).

    Radii come from each atom's element entry; pass ``radii`` to force fresh
    table lookups instead (raises ``UnknownElementError`` for missing symbols).
    ``dist`` is the molecule's ``pairwise_distances`` matrix, when the caller
    already has it.
    """
    if alpha <= 0:
        raise ValueError(f"alpha must be positive, got {alpha}")
    if radii is None:
        r = np.array([a.element.covalent_radius for a in m.atoms])
    else:
        r = np.array([radii.radius(a.element.symbol) for a in m.atoms])

    threshold = alpha * (r[:, None] + r[None, :])
    # The whole-array distances may differ from distance() in the last bits, so
    # they only select candidates, with a relative slack far above that error;
    # each candidate is then decided with distance(), as for a single pair.
    if dist is None:
        dist = pairwise_distances(m.positions, m.positions)
    near = dist <= threshold * (1.0 + 1e-9)
    bonds = []
    for i, j in zip(*(k.tolist() for k in np.nonzero(np.triu(near, 1)))):
        d = distance(m.atoms[i], m.atoms[j])
        if d <= threshold[i, j]:
            bonds.append(Bond(i, j, d))
    return BondSet(tuple(bonds))
