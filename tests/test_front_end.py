"""Property tests of the whole-array front end against the loop algorithms it
replaced. The loops live here as oracles, and every result must agree with
them bitwise: bond keys and lengths, line-graph adjacency and shared atoms,
the bond mask, hop counts, the inter-bond cosines and the pair slots.
"""

from collections import deque

import numpy as np
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conftest import micro_config, random_molecule
from demol.bonds import Bond, BondSet, predict_bonds
from demol.elements import default_radii_table
from demol.encodings import (
    atom_pair_key,
    bond_pair_key,
    bond_types,
    cosine_matrix,
    cross_pair_key,
    pair_slot_matrix,
    spd_matrix,
)
from demol.errors import GeometryError
from demol.graphs import build_atom_graph, build_line_graph
from demol.masks import bond_mask
from demol.model import Model
from demol.molecule import distance, molecule_from_symbols
from demol.pipeline import featurize_molecule

SYMBOLS = ("H", "C", "N", "O", "Si", "Xe", "Pt")
MODEL = Model(micro_config(elements=("H", "C", "N", "O")), seed=2)  # Si, Xe, Pt: fallback slots


# ---------------------------------------------------------------------------
# Oracles: the loop algorithms
# ---------------------------------------------------------------------------


def loop_bonds(mol, alpha):
    r = [a.element.covalent_radius for a in mol.atoms]
    found = []
    for i in range(mol.n_atoms - 1):
        for j in range(i + 1, mol.n_atoms):
            d = distance(mol.atoms[i], mol.atoms[j])
            if d <= alpha * (r[i] + r[j]):
                found.append((i, j, d))
    return found


def loop_line_graph(keys):
    m = len(keys)
    adjacency = np.zeros((m, m), dtype=bool)
    shared = {}
    for p in range(m):
        for q in range(p + 1, m):
            common = set(keys[p]).intersection(keys[q])
            if len(common) == 1:
                adjacency[p, q] = adjacency[q, p] = True
                shared[(p, q)] = common.pop()
    return adjacency, shared


def loop_bond_mask(adjacency):
    adj = adjacency.astype(np.int64)
    return (np.eye(len(adj), dtype=np.int64) + adj + adj @ adj) > 0


def loop_spd(adjacency):
    n = adjacency.shape[0]
    neighbors = [np.flatnonzero(adjacency[i]) for i in range(n)]
    out = np.full((n, n), -1, dtype=np.int64)
    for source in range(n):
        row = out[source]
        row[source] = 0
        queue = deque([source])
        while queue:
            u = queue.popleft()
            for v in neighbors[u]:
                if row[v] == -1:
                    row[v] = row[u] + 1
                    queue.append(v)
    return out


def loop_cosines(bg, nodes):
    m = bg.n_bonds
    out = np.zeros((m, m), dtype=np.float64)
    if m == 0:
        return out
    dirs = np.stack([node.direction for node in nodes])
    raw = dirs @ dirs.T
    out[:] = np.abs(raw)
    for (p, q), shared in bg.shared_atom.items():
        sp = 1.0 if nodes[p].atom_i == shared else -1.0
        sq = 1.0 if nodes[q].atom_i == shared else -1.0
        out[p, q] = out[q, p] = sp * sq * raw[p, q]
    np.fill_diagonal(out, 1.0)
    return out


def loop_slots(row_keys, col_keys, pair_key, pair_index):
    slots = np.empty((len(row_keys), len(col_keys)), dtype=np.intp)
    for i, a in enumerate(row_keys):
        for j, b in enumerate(col_keys):
            slots[i, j] = pair_index.get(pair_key(a, b), len(pair_index))
    return slots


def assert_same(got, expected):
    assert got.dtype == expected.dtype and got.shape == expected.shape
    assert got.tobytes() == expected.tobytes()


# ---------------------------------------------------------------------------
# Inputs
# ---------------------------------------------------------------------------


@st.composite
def adjacency_matrices(draw):
    """Symmetric graphs of 0-12 nodes, often disconnected, with isolated nodes."""
    n = draw(st.integers(0, 12))
    adjacency = np.zeros((n, n), dtype=bool)
    if n > 1:
        node = st.integers(0, n - 1)
        for i, j in draw(st.lists(st.tuples(node, node), max_size=3 * n)):
            adjacency[i, j] = adjacency[j, i] = i != j
    return adjacency


@st.composite
def bond_sets(draw):
    """(molecule, bonds): any set of atom pairs on 1-10 atoms, M = 0 included."""
    n = draw(st.integers(1, 10))
    mol = molecule_from_symbols(["C"] * n, [[2.0 * k, 0.0, 0.0] for k in range(n)])
    pairs = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
    keys = {(min(i, j), max(i, j)) for i, j in draw(st.lists(pairs, max_size=2 * n)) if i != j}
    return mol, BondSet(tuple(Bond(i, j, 1.0) for i, j in keys))


@st.composite
def molecules(draw, max_atoms=14):
    rs = np.random.RandomState(draw(st.integers(0, 2**32 - 1)))
    n = draw(st.integers(1, max_atoms))
    symbols = [SYMBOLS[k] for k in rs.randint(0, len(SYMBOLS), size=n)]
    pos = rs.uniform(-2.5, 2.5, size=(n, 3))
    try:
        return molecule_from_symbols(symbols, pos)
    except GeometryError:
        assume(False)


# ---------------------------------------------------------------------------
# Properties
# ---------------------------------------------------------------------------


@given(adjacency_matrices())
@settings(max_examples=300, deadline=None)
def test_spd_matches_per_source_bfs(adjacency):
    assert_same(spd_matrix(adjacency), loop_spd(adjacency))


@given(bond_sets())
@settings(max_examples=300, deadline=None)
def test_line_graph_mask_and_hops_match_loops(case):
    mol, bonds = case
    g = build_atom_graph(mol, bonds)
    lg = build_line_graph(g, bonds)
    adjacency, shared = loop_line_graph(bonds.keys())
    assert_same(lg.adjacency, adjacency)
    assert list(lg.shared_atom.items()) == list(shared.items())
    assert_same(bond_mask(lg), loop_bond_mask(adjacency))
    assert_same(spd_matrix(g), loop_spd(g.adjacency))
    assert_same(spd_matrix(lg), loop_spd(adjacency))


@given(
    st.integers(0, 2**32 - 1),
    st.lists(st.floats(-1e-12, 1e-12), min_size=1, max_size=12),
    st.sampled_from([0.8, 1.15, 1.6]),
)
@settings(max_examples=300, deadline=None)
def test_bonds_at_the_threshold_match_pair_loop(seed, offsets, alpha):
    # each atom sits within 1e-12 Angstrom of the bond threshold of an earlier one
    rs = np.random.RandomState(seed)
    table = default_radii_table()
    symbols = [SYMBOLS[k] for k in rs.randint(0, len(SYMBOLS), size=len(offsets) + 1)]
    radii = [table.radius(s) for s in symbols]
    pos = [np.zeros(3)]
    for k, delta in enumerate(offsets, start=1):
        anchor = rs.randint(k)
        direction = rs.normal(size=3)
        direction /= np.linalg.norm(direction)
        pos.append(pos[anchor] + direction * (alpha * (radii[anchor] + radii[k]) + delta))
    try:
        mol = molecule_from_symbols(symbols, pos)
    except GeometryError:
        assume(False)
    got = [(b.i, b.j, b.length) for b in predict_bonds(mol, alpha)]
    assert got == loop_bonds(mol, alpha)


@given(molecules())
@settings(max_examples=100, deadline=None)
def test_cosines_and_pair_slots_match_loops(mol):
    feats = featurize_molecule(mol, alpha=1.6)
    nodes = feats.bond_nodes
    assert_same(cosine_matrix(feats.bond_graph, nodes), loop_cosines(feats.bond_graph, nodes))

    symbols = mol.symbols()
    types = bond_types(mol, nodes)
    for rows, cols, pair_key, pair_index in (
        (symbols, symbols, atom_pair_key, MODEL.pair_index_atom),
        (types, types, bond_pair_key, MODEL.pair_index_bond),
        (symbols, types, cross_pair_key, MODEL.pair_index_cross),
    ):
        assert_same(
            pair_slot_matrix(rows, cols, pair_key, pair_index),
            loop_slots(rows, cols, pair_key, pair_index),
        )


def test_featurization_computes_three_distance_matrices(monkeypatch):
    # predict_bonds reads featurize_molecule's atom distance matrix
    import demol.bonds
    import demol.pipeline
    from demol.molecule import pairwise_distances

    calls = []

    def counted(a, b):
        calls.append((len(a), len(b)))
        return pairwise_distances(a, b)

    monkeypatch.setattr(demol.pipeline, "pairwise_distances", counted)
    monkeypatch.setattr(demol.bonds, "pairwise_distances", counted)
    mol = random_molecule(np.random.RandomState(12))
    feats = featurize_molecule(mol)
    assert len(calls) == 3
    assert feats.bonds == predict_bonds(mol)
