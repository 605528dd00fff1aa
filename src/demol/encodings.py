"""Parameter-free inputs of the structure encodings: category-pair slots,
SPD table slots, and the inter-bond cosines.

The learned encodings themselves (Gaussian kernel banks, projections, SPD
tables) have one implementation, on the differentiation tape in ``model.py``;
``model.assemble_bundle`` evaluates it without a tape for feature export.
"""

from __future__ import annotations

from typing import Mapping, Sequence

import numpy as np

from .graphs import UNREACHABLE, BondGraph, spd_matrix
from .molecule import Molecule

# ---------------------------------------------------------------------------
# Pair categories
# ---------------------------------------------------------------------------

PairKey = tuple


def atom_pair_key(sym_a: str, sym_b: str) -> PairKey:
    return tuple(sorted((sym_a, sym_b)))


def bond_type_key(sym_i: str, sym_j: str) -> PairKey:
    return tuple(sorted((sym_i, sym_j)))


def bond_pair_key(type_a: PairKey, type_b: PairKey) -> PairKey:
    return tuple(sorted((type_a, type_b)))


def cross_pair_key(atom_sym: str, bond_type: PairKey) -> PairKey:
    return (atom_sym, bond_type)


def build_pair_index(keys: Sequence[PairKey]) -> dict[PairKey, int]:
    return {key: slot for slot, key in enumerate(sorted(set(keys)))}


def pair_slot_matrix(
    row_keys: Sequence, col_keys: Sequence, pair_key, pair_index: Mapping[PairKey, int]
) -> np.ndarray:
    """slots[i, j] = pair_index[pair_key(row_keys[i], col_keys[j])], else len(pair_index).

    The index is read once per pair of distinct kinds, into a small (kinds x kinds) table.
    """
    row_kinds, row_ids = _kind_ids(row_keys)
    col_kinds, col_ids = _kind_ids(col_keys)
    fallback = len(pair_index)
    table = np.array(
        [[pair_index.get(pair_key(a, b), fallback) for b in col_kinds] for a in row_kinds],
        dtype=np.intp,
    ).reshape(len(row_kinds), len(col_kinds))
    return table[row_ids[:, None], col_ids[None, :]]


def _kind_ids(keys: Sequence) -> tuple[list, np.ndarray]:
    """Distinct keys in order of first appearance, and each key's position there."""
    kind_id = {key: k for k, key in enumerate(dict.fromkeys(keys))}
    return list(kind_id), np.array([kind_id[key] for key in keys], dtype=np.intp)


def bond_types(m: Molecule, bg: BondGraph) -> list[PairKey]:
    symbols = m.symbols()
    return [bond_type_key(symbols[i], symbols[j]) for i, j in bg.ends.tolist()]


# ---------------------------------------------------------------------------
# Shortest-path slots (hop counts come from graphs.spd_matrix)
# ---------------------------------------------------------------------------


def spd_slot_ids(spd: np.ndarray, max_spd: int) -> np.ndarray:
    """Row of the (max_spd + 2)-entry SPD table: the hop count clipped at max_spd,
    and max_spd + 1 for unreachable pairs."""
    spd = np.asarray(spd)
    clipped = np.minimum(spd, max_spd)
    return np.where(spd == UNREACHABLE, max_spd + 1, clipped).astype(np.intp)


# ---------------------------------------------------------------------------
# Inter-bond cosines
# ---------------------------------------------------------------------------


def cosine_matrix(bg: BondGraph) -> np.ndarray:
    """Raw M x M inter-bond cosines.

    Adjacent bonds use the chemical bond angle: both directions re-oriented to
    point away from the shared atom. Non-adjacent bonds use the unsigned
    cosine of the angle between the two bond axes, which is independent of
    atom labelling. Diagonal entries are 1.
    """
    raw = bg.directions @ bg.directions.T
    out = np.abs(raw)
    p, q, shared = bg.shared.T
    atom_i = bg.ends[:, 0]
    sp = np.where(atom_i[p] == shared, 1.0, -1.0)
    sq = np.where(atom_i[q] == shared, 1.0, -1.0)
    out[p, q] = out[q, p] = sp * sq * raw[p, q]
    np.fill_diagonal(out, 1.0)
    return out
