"""Structure encodings: Gaussian-basis distance encodings, shortest-path
encodings, torsion (inter-bond cosine) encodings, and the assembled bias
bundle.

This module is the plain-numpy reference pipeline used for feature export and
tests. The model evaluates the same formulas on the differentiation tape so
that kernel parameters receive gradients; the two paths are cross-checked in
the test suite.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np
from scipy.special import erf

from .graphs import UNREACHABLE, AtomGraph, BondGraph, BondNode, spd_matrix
from .masks import MaskMatrices
from .molecule import Molecule, pairwise_distances

_SQRT2 = np.sqrt(2.0)
_SQRT_2PI = np.sqrt(2.0 * np.pi)


def gelu_np(x: np.ndarray) -> np.ndarray:
    """Exact Gaussian-CDF form x * Phi(x)."""
    x = np.asarray(x, dtype=np.float64)
    return x * 0.5 * (1.0 + erf(x / _SQRT2))


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


# ---------------------------------------------------------------------------
# Gaussian kernel bank
# ---------------------------------------------------------------------------


@dataclass
class GaussianKernelBank:
    """Bank of K Gaussian bumps over a scalar plus the projection weights.

    Centers are mu_k = width * (k - 1) / K for k = 1..K with common sigma =
    width / K. ``pair_alpha`` / ``pair_beta`` rescale the input per category
    pair; unknown pairs resolve to the trailing fallback slot.
    """

    kernels: int
    width: float
    pair_index: Mapping[PairKey, int]
    pair_alpha: np.ndarray  # (n_slots,)
    pair_beta: np.ndarray  # (n_slots,)
    w1: np.ndarray  # (K, K)
    w2: np.ndarray  # (K, 1)

    def __post_init__(self):
        if self.kernels < 1:
            raise ValueError("kernel count must be >= 1")
        if self.width <= 0:
            raise ValueError("width must be positive")
        n_slots = len(self.pair_index) + 1
        if self.pair_alpha.shape != (n_slots,) or self.pair_beta.shape != (n_slots,):
            raise ValueError("pair parameter arrays must have len(pair_index) + 1 slots")

    @property
    def mu(self) -> np.ndarray:
        k = np.arange(1, self.kernels + 1, dtype=np.float64)
        return self.width * (k - 1.0) / self.kernels

    @property
    def sigma(self) -> float:
        return self.width / self.kernels

    @property
    def fallback_slot(self) -> int:
        return len(self.pair_index)

    def slot(self, key: PairKey) -> int:
        return self.pair_index.get(key, self.fallback_slot)

    def slots(self, keys: Sequence[PairKey]) -> np.ndarray:
        return np.array([self.slot(k) for k in keys], dtype=np.intp)

    @staticmethod
    def create(
        kernels: int,
        width: float,
        pair_index: Mapping[PairKey, int],
        *,
        beta_init: float = 0.0,
        rng=None,
        proj_scale: float = 0.1,
    ) -> "GaussianKernelBank":
        n_slots = len(pair_index) + 1
        alpha = np.ones(n_slots, dtype=np.float64)
        beta = np.full(n_slots, beta_init, dtype=np.float64)
        if rng is None:
            w1 = np.eye(kernels, dtype=np.float64)
            w2 = np.full((kernels, 1), proj_scale, dtype=np.float64)
        else:
            w1 = np.array(
                [[rng.normal(proj_scale) for _ in range(kernels)] for _ in range(kernels)]
            )
            w1 += np.eye(kernels)
            w2 = np.array([[rng.normal(proj_scale)] for _ in range(kernels)])
        return GaussianKernelBank(kernels, width, dict(pair_index), alpha, beta, w1, w2)


def kernel_values(bank: GaussianKernelBank, x: np.ndarray, slots: np.ndarray) -> np.ndarray:
    """Raw kernel responses, shape x.shape + (K,).

    phi_k(x) = -(1 / (sqrt(2 pi) sigma)) * exp(-((alpha x + beta - mu_k) / sigma)^2 / 2)
    """
    x = np.asarray(x, dtype=np.float64)
    alpha = bank.pair_alpha[slots]
    beta = bank.pair_beta[slots]
    u = alpha * x + beta
    z = (u[..., None] - bank.mu) / abs(bank.sigma)
    return -np.exp(-0.5 * z * z) / (_SQRT_2PI * abs(bank.sigma))


def gaussian_basis(d: float, pair: PairKey, bank: GaussianKernelBank) -> np.ndarray:
    """K-vector of kernel responses for one scalar and one category pair."""
    slot = np.asarray(bank.slot(pair), dtype=np.intp)
    return kernel_values(bank, np.asarray(d, dtype=np.float64), slot)


def project_kernel_features(bank: GaussianKernelBank, phi: np.ndarray) -> np.ndarray:
    """GELU(phi W1) W2, collapsing the trailing K axis to a scalar."""
    return (gelu_np(phi @ bank.w1) @ bank.w2)[..., 0]


def encode_scalars(bank: GaussianKernelBank, x: np.ndarray, slots: np.ndarray) -> np.ndarray:
    return project_kernel_features(bank, kernel_values(bank, x, slots))


def distance_encoding(
    positions_a: np.ndarray,
    positions_b: np.ndarray,
    pair_slots: np.ndarray,
    bank: GaussianKernelBank,
) -> np.ndarray:
    """|a| x |b| matrix of encoded Euclidean distances."""
    pa = np.asarray(positions_a, dtype=np.float64).reshape(-1, 3)
    pb = np.asarray(positions_b, dtype=np.float64).reshape(-1, 3)
    dist = pairwise_distances(pa, pb)
    return encode_scalars(bank, dist, np.asarray(pair_slots, dtype=np.intp))


# ---------------------------------------------------------------------------
# Shortest path encodings (hop counts come from graphs.spd_matrix)
# ---------------------------------------------------------------------------


@dataclass
class SpdEncoder:
    """Learnable scalar per clipped hop count plus one unreachable slot."""

    max_spd: int
    table: np.ndarray  # (max_spd + 2,)

    def __post_init__(self):
        if self.table.shape != (self.max_spd + 2,):
            raise ValueError(
                f"SPD table must have max_spd + 2 = {self.max_spd + 2} entries, "
                f"got {self.table.shape}"
            )

    def slot_ids(self, spd: np.ndarray) -> np.ndarray:
        spd = np.asarray(spd)
        clipped = np.minimum(spd, self.max_spd)
        return np.where(spd == UNREACHABLE, self.max_spd + 1, clipped).astype(np.intp)


def spd_encoding(spd: np.ndarray, enc: SpdEncoder) -> np.ndarray:
    return enc.table[enc.slot_ids(spd)]


# ---------------------------------------------------------------------------
# Torsion encoding
# ---------------------------------------------------------------------------


def cosine_matrix(bg: BondGraph, nodes: Sequence[BondNode]) -> np.ndarray:
    """Raw M x M inter-bond cosines.

    Adjacent bonds use the chemical bond angle: both directions re-oriented to
    point away from the shared atom. Non-adjacent bonds use the unsigned
    cosine of the angle between the two bond axes, which is independent of
    atom labelling. Diagonal entries are 1.
    """
    m = bg.n_bonds
    out = np.zeros((m, m), dtype=np.float64)
    if m == 0:
        return out
    dirs = np.stack([node.direction for node in nodes])
    raw = dirs @ dirs.T
    out[:] = np.abs(raw)
    if bg.shared_atom:
        p, q = np.array(list(bg.shared_atom), dtype=np.intp).T
        shared = np.fromiter(bg.shared_atom.values(), dtype=np.intp, count=p.size)
        atom_i = np.array([node.atom_i for node in nodes], dtype=np.intp)
        sp = np.where(atom_i[p] == shared, 1.0, -1.0)
        sq = np.where(atom_i[q] == shared, 1.0, -1.0)
        out[p, q] = out[q, p] = sp * sq * raw[p, q]
    np.fill_diagonal(out, 1.0)
    return out


def torsion_matrix(
    bg: BondGraph,
    nodes: Sequence[BondNode],
    bank: GaussianKernelBank,
    pair_slots: np.ndarray | None = None,
) -> np.ndarray:
    """M x M encoded inter-bond cosines (same pipeline as distance encoding)."""
    cosines = cosine_matrix(bg, nodes)
    if pair_slots is None:
        pair_slots = np.full(cosines.shape, bank.fallback_slot, dtype=np.intp)
    return encode_scalars(bank, cosines, np.asarray(pair_slots, dtype=np.intp))


# ---------------------------------------------------------------------------
# Bundle assembly
# ---------------------------------------------------------------------------


@dataclass
class EncoderSet:
    """All encoding parameters: four kernel banks and two SPD tables."""

    atom_bank: GaussianKernelBank  # atom-atom distances
    bond_bank: GaussianKernelBank  # midpoint-midpoint distances
    torsion_bank: GaussianKernelBank  # inter-bond cosines
    cross_bank: GaussianKernelBank  # atom-midpoint distances
    spd_atom: SpdEncoder
    spd_bond: SpdEncoder


@dataclass
class EncodingBundle:
    phi_atom: np.ndarray  # (N, N)
    phi_bond: np.ndarray  # (M, M)
    phi_atom_to_bond: np.ndarray  # (N, M)
    phi_bond_to_atom: np.ndarray  # (M, N)
    mask_atom: np.ndarray  # (N, N) bool
    mask_bond: np.ndarray  # (M, M) bool
    spd_atom: np.ndarray  # (N, N) int
    spd_bond: np.ndarray  # (M, M) int
    cosines: np.ndarray  # (M, M)

    def __post_init__(self):
        for name in ("phi_atom", "phi_bond", "phi_atom_to_bond", "phi_bond_to_atom"):
            arr = getattr(self, name)
            if arr.size and not np.isfinite(arr).all():
                raise ValueError(f"{name} contains non-finite entries")


def atom_pair_slot_matrix(m: Molecule, bank: GaussianKernelBank) -> np.ndarray:
    symbols = m.symbols()
    return pair_slot_matrix(symbols, symbols, atom_pair_key, bank.pair_index)


def bond_types(m: Molecule, nodes: Sequence[BondNode]) -> list[PairKey]:
    symbols = m.symbols()
    return [bond_type_key(symbols[n.atom_i], symbols[n.atom_j]) for n in nodes]


def bond_pair_slot_matrix(types: Sequence[PairKey], bank: GaussianKernelBank) -> np.ndarray:
    return pair_slot_matrix(types, types, bond_pair_key, bank.pair_index)


def cross_pair_slot_matrix(
    m: Molecule, types: Sequence[PairKey], bank: GaussianKernelBank
) -> np.ndarray:
    return pair_slot_matrix(m.symbols(), types, cross_pair_key, bank.pair_index)


def assemble_bundle(
    m: Molecule,
    g: AtomGraph,
    bg: BondGraph,
    nodes: Sequence[BondNode],
    encoders: EncoderSet,
    masks: MaskMatrices,
) -> EncodingBundle:
    """phi_atom = dist + SPD; phi_bond = dist + SPD + torsion; cross = dist."""
    positions = m.positions
    midpoints = (
        np.stack([n.midpoint for n in nodes]) if nodes else np.zeros((0, 3), dtype=np.float64)
    )
    types = bond_types(m, nodes)

    spd_a = spd_matrix(g)
    spd_b = spd_matrix(bg)

    phi_atom = distance_encoding(
        positions, positions, atom_pair_slot_matrix(m, encoders.atom_bank), encoders.atom_bank
    ) + spd_encoding(spd_a, encoders.spd_atom)

    bond_slots = bond_pair_slot_matrix(types, encoders.bond_bank)
    phi_bond = (
        distance_encoding(midpoints, midpoints, bond_slots, encoders.bond_bank)
        + spd_encoding(spd_b, encoders.spd_bond)
        + torsion_matrix(
            bg, nodes, encoders.torsion_bank, bond_pair_slot_matrix(types, encoders.torsion_bank)
        )
    )

    cross_slots = cross_pair_slot_matrix(m, types, encoders.cross_bank)
    phi_a2b = distance_encoding(positions, midpoints, cross_slots, encoders.cross_bank)

    return EncodingBundle(
        phi_atom=phi_atom,
        phi_bond=phi_bond,
        phi_atom_to_bond=phi_a2b,
        phi_bond_to_atom=phi_a2b.T.copy(),
        mask_atom=masks.atom,
        mask_bond=masks.bond,
        spd_atom=spd_a,
        spd_bond=spd_b,
        cosines=cosine_matrix(bg, nodes),
    )
