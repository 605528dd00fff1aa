"""Atom-centric graph and its bond-centric line graph, as arrays.

Bond p joins atoms ``ends[p]``, the lower index first. Its geometry is the
midpoint of the two endpoint positions, the unit direction from the
lower-index atom to the higher-index one, and the bond length.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .bonds import BondSet
from .errors import GeometryError
from .molecule import Molecule

MIN_BOND_LENGTH = 1e-6  # Angstrom
UNREACHABLE = -1  # sentinel in integer hop-count matrices


@dataclass(frozen=True)
class BondGraph:
    ends: np.ndarray  # (M, 2) intp, BondSet order
    lengths: np.ndarray  # (M,)
    midpoints: np.ndarray  # (M, 3)
    directions: np.ndarray  # (M, 3), unit, ends[p, 0] -> ends[p, 1]
    incidence: np.ndarray  # (N, M) bool: atom a is an endpoint of bond p
    adjacency: np.ndarray  # (M, M) bool, symmetric, zero diagonal
    shared: np.ndarray  # (E, 3) rows (p, q, common atom), p < q, one per line-graph edge

    @property
    def n_bonds(self) -> int:
        return len(self.ends)


def atom_adjacency(n_atoms: int, b: BondSet) -> np.ndarray:
    """(N, N) bool, symmetric, zero diagonal: the atom graph of a BondSet."""
    ends = np.array(b.keys(), dtype=np.intp).reshape(-1, 2)
    out_of_range = ends[:, 1] >= n_atoms
    if out_of_range.any():
        key = b.keys()[int(np.argmax(out_of_range))]
        raise IndexError(f"bond {key} out of range for {n_atoms} atoms")
    adjacency = np.zeros((n_atoms, n_atoms), dtype=bool)
    adjacency[ends[:, 0], ends[:, 1]] = adjacency[ends[:, 1], ends[:, 0]] = True
    return adjacency


def build_bond_graph(m: Molecule, b: BondSet) -> BondGraph:
    """Bonds in BondSet order, with their geometry; edges join bonds sharing one atom.

    Lengths are copied from the BondSet, which ``predict_bonds`` measured with
    ``distance()``; they are not measured again.
    """
    ends = np.array(b.keys(), dtype=np.intp).reshape(-1, 2)
    lengths = np.array([bond.length for bond in b], dtype=np.float64)
    too_short = lengths <= MIN_BOND_LENGTH
    if too_short.any():
        raise GeometryError(f"bond {b.keys()[int(np.argmax(too_short))]} has zero length")
    ri, rj = m.positions[ends[:, 0]], m.positions[ends[:, 1]]
    incidence = np.zeros((m.n_atoms, len(ends)), dtype=bool)
    incidence[ends, np.arange(len(ends))[:, None]] = True
    # Row p of I^T I counts the atoms bond p shares with each bond: it is the sum
    # of the incidence rows of p's two endpoints, so no product is needed.
    has_i = incidence[ends[:, 0]]
    adjacency = has_i | incidence[ends[:, 1]]
    np.fill_diagonal(adjacency, False)
    p, q = np.nonzero(np.triu(adjacency))
    common = np.where(has_i[p, q], ends[p, 0], ends[p, 1])
    midpoints, directions = (ri + rj) / 2.0, (rj - ri) / lengths[:, None]
    shared = np.stack([p, q, common], axis=1)
    arrays = (ends, lengths, midpoints, directions, incidence, adjacency, shared)
    for array in arrays:  # shared with Featurization, so read-only
        array.flags.writeable = False
    return BondGraph(*arrays)


def spd_matrix(adjacency: np.ndarray) -> np.ndarray:
    """All-pairs unweighted hop counts of an (n, n) bool adjacency; -1 if unreachable.

    A level-synchronous breadth-first search from all sources at once, on flat
    ``source * n + node`` pair indices and a CSR neighbour table.
    """
    n = adjacency.shape[0]
    out = np.full((n, n), UNREACHABLE, dtype=np.int64)
    hops = out.reshape(-1)
    rows, neighbors = np.nonzero(adjacency)
    row_start = np.searchsorted(rows, np.arange(n + 1))
    frontier = np.arange(n) * (n + 1)
    hops[frontier] = 0
    depth = 0
    while frontier.size:
        depth += 1
        node = frontier % n
        count = row_start[node + 1] - row_start[node]
        first = np.repeat(row_start[node] - (np.cumsum(count) - count), count)
        reached = neighbors[first + np.arange(first.size)] + np.repeat(frontier - node, count)
        reached = reached[hops[reached] == UNREACHABLE]
        # A pair reached along several edges is kept once: each copy writes its
        # own tag (below -1), and only the copy whose tag survived goes on.
        tag = -2 - np.arange(reached.size)
        hops[reached] = tag
        frontier = reached[hops[reached] == tag]
        hops[frontier] = depth
    return out
