"""Atom-centric graph and its bond-centric line graph.

Bond nodes carry geometry: the midpoint of the two endpoint positions, the
unit direction from the lower-index atom to the higher-index one, and the
bond length.
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
class AtomGraph:
    n_atoms: int
    adjacency: np.ndarray  # (N, N) bool, symmetric, zero diagonal
    neighbor_lists: tuple[tuple[int, ...], ...]

    def degree(self, i: int) -> int:
        return len(self.neighbor_lists[i])


@dataclass(frozen=True)
class BondNode:
    atom_i: int
    atom_j: int  # atom_i < atom_j
    midpoint: np.ndarray  # (3,)
    direction: np.ndarray  # (3,), unit, atom_i -> atom_j
    length: float


@dataclass(frozen=True)
class BondGraph:
    n_bonds: int
    bond_nodes: tuple[BondNode, ...]
    adjacency: np.ndarray  # (M, M) bool, symmetric, zero diagonal
    shared_atom: dict  # (p, q) with p < q -> common atom index


def build_atom_graph(m: Molecule, b: BondSet) -> AtomGraph:
    n = m.n_atoms
    adjacency = np.zeros((n, n), dtype=bool)
    for bond in b:
        if bond.j >= n:
            raise IndexError(f"bond {bond.key} out of range for {n} atoms")
        adjacency[bond.i, bond.j] = True
        adjacency[bond.j, bond.i] = True
    adjacency.flags.writeable = False
    neighbors = tuple(tuple(np.flatnonzero(adjacency[i]).tolist()) for i in range(n))
    return AtomGraph(n, adjacency, neighbors)


def bond_geometry(m: Molecule, b: BondSet) -> tuple[BondNode, ...]:
    nodes = []
    for bond in b:
        ri = m.atoms[bond.i].position
        rj = m.atoms[bond.j].position
        delta = rj - ri
        length = float(np.linalg.norm(delta))
        if length <= MIN_BOND_LENGTH:
            raise GeometryError(f"bond {bond.key} has zero length")
        midpoint = (ri + rj) / 2.0
        direction = delta / length
        midpoint.flags.writeable = False
        direction.flags.writeable = False
        nodes.append(BondNode(bond.i, bond.j, midpoint, direction, length))
    return tuple(nodes)


def incidence_matrix(n_atoms: int, b: BondSet) -> np.ndarray:
    """(N, M) bool: entry (a, p) is true when atom a is an endpoint of bond p."""
    ends = np.array(b.keys(), dtype=np.intp).reshape(-1, 2)
    incidence = np.zeros((n_atoms, len(ends)), dtype=bool)
    incidence[ends, np.arange(len(ends))[:, None]] = True
    return incidence


def build_line_graph(g: AtomGraph, b: BondSet) -> BondGraph:
    """Bond nodes in BondSet order; edges between bonds sharing one atom."""
    keys = b.keys()
    for i, j in keys:
        if j >= g.n_atoms or not g.adjacency[i, j]:
            raise ValueError(f"bond {(i, j)} is not an edge of the atom graph")
    ends = np.array(keys, dtype=np.intp).reshape(-1, 2)
    incidence = incidence_matrix(g.n_atoms, b)
    # Row p of I^T I counts the atoms bond p shares with each bond: it is the sum
    # of the incidence rows of p's two endpoints, so no product is needed.
    has_i = incidence[ends[:, 0]]
    adjacency = has_i | incidence[ends[:, 1]]
    np.fill_diagonal(adjacency, False)
    adjacency.flags.writeable = False
    p, q = np.nonzero(np.triu(adjacency))
    common = np.where(has_i[p, q], ends[p, 0], ends[p, 1])
    shared = dict(zip(zip(p.tolist(), q.tolist()), common.tolist()))
    # geometry is attached by the caller; keep a placeholder-free constructor
    return BondGraph(len(keys), (), adjacency, shared)


def build_bond_graph(m: Molecule, g: AtomGraph, b: BondSet) -> BondGraph:
    """Line graph with bond-node geometry attached."""
    bare = build_line_graph(g, b)
    return BondGraph(bare.n_bonds, bond_geometry(m, b), bare.adjacency, bare.shared_atom)


def spd_matrix(g: AtomGraph | BondGraph | np.ndarray, max_hops: int | None = None) -> np.ndarray:
    """All-pairs unweighted hop counts; -1 if unreachable or beyond ``max_hops``.

    A level-synchronous breadth-first search from all sources at once, on flat
    ``source * n + node`` pair indices and a CSR neighbour table.
    """
    adjacency = g if isinstance(g, np.ndarray) else g.adjacency
    n = adjacency.shape[0]
    out = np.full((n, n), UNREACHABLE, dtype=np.int64)
    hops = out.reshape(-1)
    rows, neighbors = np.nonzero(adjacency)
    row_start = np.searchsorted(rows, np.arange(n + 1))
    frontier = np.arange(n) * (n + 1)
    hops[frontier] = 0
    depth = 0
    while frontier.size and depth != max_hops:
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
