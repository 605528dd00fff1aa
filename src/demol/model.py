"""Dual-channel attention model over the atom graph and its line graph.

Both channels run biased, masked self-attention; interleaved cross-attention
lets atoms attend over their incident bonds and bonds over their two endpoint
atoms. Every attention kind is one op over an edge list of the pairs its mask
allows, with all heads at once; a masked pair has no edge and costs nothing.
Residual placement is ``h_next = FFN(h + attention_out)`` with no
normalization layers by default. All encoding parameters (kernel banks, SPD
tables) are evaluated on the differentiation tape so every learnable value
receives a gradient; ``assemble_bundle`` runs the same code without a tape to
export the biases.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from . import autodiff as ad
from .autodiff import EdgeList, ModelParams, Tape, TapeParams, Tensor
from .bonds import BondSet
from .elements import ATOMIC_NUMBERS
from .encodings import (
    atom_pair_key,
    bond_pair_key,
    bond_type_key,
    bond_types,
    build_pair_index,
    cross_pair_key,
    pair_slot_matrix,
    spd_slot_ids,
)
from .errors import MissingTargetError, ShapeError, SizeLimitError
from .masks import DEFAULT_CUTOFF, all_true_masks
from .molecule import Molecule
from .pipeline import Featurization, featurize_molecule
from .rng import RandomStream

DEFAULT_ELEMENTS = ("H", "C", "N", "O", "F", "P", "S", "Cl", "Br", "I", "Pt")

ATTENTION_KINDS = ("atom_self", "bond_self", "atom_from_bond", "bond_from_atom")

# The dense exports grow as N^2: dump-attention writes n_layers * n_heads * 4
# maps, about 48 N^2 floats of JSON under ModelConfig() (7.5 MB at N = 100),
# and featurize four bias matrices over every pair. Both refuse larger molecules.
MAX_DENSE_EXPORT_ATOMS = 200


def _check_dense_export(command: str, n_atoms: int) -> None:
    if n_atoms > MAX_DENSE_EXPORT_ATOMS:
        raise SizeLimitError(
            f"{command} is limited to {MAX_DENSE_EXPORT_ATOMS} atoms "
            f"(dense maps grow as N^2), got {n_atoms}"
        )


@dataclass(frozen=True)
class ModelConfig:
    d_a: int = 32
    d_b: int = 32
    d_h: int = 8  # per-head projection width; also the attention scale
    n_heads: int = 4
    n_layers: int = 3
    ffn_multiplier: int = 4
    loss_weights: tuple[float, float, float, float] = (1.0, 1.0, 1.0, 1.0)
    mask_ratio: float = 0.15
    coord_noise_sigma: float = 0.2  # Angstrom
    kernels: int = 16
    width_dist: float = 10.0  # Angstrom-scale kernel span for distances
    width_tors: float = 2.0  # kernel span for cosines
    max_spd: int = 20
    length_bucket_width: float = 0.25  # Angstrom
    n_length_buckets: int = 16
    elements: tuple[str, ...] = DEFAULT_ELEMENTS
    bond_alpha: float = 1.15
    mask_cutoff: float = DEFAULT_CUTOFF
    use_structure_masks: bool = True
    use_torsion: bool = True
    pre_norm: bool = False
    cross_order: str = "atom_first"  # or "bond_first"
    parallel_cross: bool = False

    def __post_init__(self):
        if min(self.d_a, self.d_b, self.d_h, self.n_heads) < 1:
            raise ValueError("widths and head count must be >= 1")
        if self.d_a % self.n_heads or self.d_b % self.n_heads:
            raise ValueError("n_heads must divide d_a and d_b")
        if self.n_layers < 0 or self.ffn_multiplier < 1:
            raise ValueError("bad layer or FFN configuration")
        if not 0.0 <= self.mask_ratio < 1.0:
            raise ValueError("mask_ratio must be in [0, 1)")
        if not self.coord_noise_sigma >= 0:  # also rejects NaN
            raise ValueError("coord_noise_sigma must be >= 0")
        if self.kernels < 1 or self.n_length_buckets < 1 or self.max_spd < 0:
            raise ValueError("kernels and n_length_buckets must be >= 1 and max_spd >= 0")
        positive = ("width_dist", "width_tors", "length_bucket_width", "bond_alpha", "mask_cutoff")
        if not all(getattr(self, name) > 0 for name in positive):
            raise ValueError(f"{', '.join(positive)} must be positive")
        if len(self.loss_weights) != 4:
            raise ValueError("loss_weights is (w_prop, w_mask, w_coord, w_bond)")
        if self.cross_order not in ("atom_first", "bond_first"):
            raise ValueError(f"unknown cross_order {self.cross_order!r}")
        for sym in self.elements:
            if sym not in ATOMIC_NUMBERS:
                raise ValueError(f"unknown element symbol {sym!r} in vocabulary")
        object.__setattr__(self, "elements", tuple(self.elements))
        object.__setattr__(self, "loss_weights", tuple(float(w) for w in self.loss_weights))

    def to_dict(self) -> dict:
        return {
            "d_a": self.d_a, "d_b": self.d_b, "d_h": self.d_h,
            "n_heads": self.n_heads, "n_layers": self.n_layers,
            "ffn_multiplier": self.ffn_multiplier,
            "loss_weights": list(self.loss_weights),
            "mask_ratio": self.mask_ratio,
            "coord_noise_sigma": self.coord_noise_sigma,
            "kernels": self.kernels, "width_dist": self.width_dist,
            "width_tors": self.width_tors, "max_spd": self.max_spd,
            "length_bucket_width": self.length_bucket_width,
            "n_length_buckets": self.n_length_buckets,
            "elements": list(self.elements),
            "bond_alpha": self.bond_alpha, "mask_cutoff": self.mask_cutoff,
            "use_structure_masks": self.use_structure_masks,
            "use_torsion": self.use_torsion, "pre_norm": self.pre_norm,
            "cross_order": self.cross_order, "parallel_cross": self.parallel_cross,
        }

    @classmethod
    def from_dict(cls, doc: dict) -> "ModelConfig":
        doc = dict(doc)
        doc["loss_weights"] = tuple(doc.get("loss_weights", (1, 1, 1, 1)))
        doc["elements"] = tuple(doc.get("elements", DEFAULT_ELEMENTS))
        return cls(**doc)


@dataclass
class EmbeddingSet:
    h_atom: Tensor  # (N, d_a)
    h_bond: Tensor  # (M, d_b)


@dataclass
class AttentionRecord:
    layer: int
    head: int
    kind: str
    weights: np.ndarray


@dataclass
class ForwardResult:
    embeddings: EmbeddingSet
    prediction: Tensor  # (1, 1), eV
    attention: list[AttentionRecord] | None = None


@dataclass
class PairChannel:
    """Scalar inputs of the distinct pairs that one bias encodes."""

    x: np.ndarray  # (P,) scalar inputs (distances or cosines)
    slots: np.ndarray  # (P,) category-pair slots


@dataclass
class AttentionEdges:
    """The edge list of one attention kind and where each edge reads its bias."""

    edges: EdgeList
    value_idx: np.ndarray  # (E,) row of the kind's pair values
    spd_slots: np.ndarray | None = None  # (E,) SPD table slot, self-attention only


@dataclass
class Prepared:
    """Featurization plus every parameter-independent index structure."""

    feats: Featurization
    feature_ids: np.ndarray  # (N,)
    bond_type_ids: np.ndarray  # (M,)
    bucket_ids: np.ndarray  # (M,)
    atom_dist: PairChannel
    bond_dist: PairChannel
    bond_tors: PairChannel  # same pairs as bond_dist
    cross_dist: PairChannel  # one pair per incidence entry
    attention: dict[str, AttentionEdges]  # keyed by ATTENTION_KINDS

    @property
    def n_atoms(self) -> int:
        return self.feats.n_atoms

    @property
    def n_bonds(self) -> int:
        return self.feats.n_bonds


@dataclass
class LossInputs:
    """Sampled inputs for one total-loss evaluation (deterministic given rng)."""

    prep: Prepared
    masked_ids: np.ndarray | None  # atoms selected for the masking loss
    prep_noisy: Prepared | None  # featurization of the noise-perturbed geometry
    noisy_positions: np.ndarray | None  # (N, 3)


def _self_edges(
    allowed: np.ndarray, spd: np.ndarray, max_spd: int
) -> tuple[AttentionEdges, np.ndarray, np.ndarray]:
    """Edges of a symmetric mask, each reading the value of its unordered pair.

    Also returns the (i <= j) pairs, in row-major order, that hold the values.
    """
    edges = EdgeList.from_mask(allowed)
    rows, cols, n = edges.rows, edges.cols, edges.n_rows
    upper = rows <= cols
    value_idx = np.searchsorted(
        (rows * n + cols)[upper], np.minimum(rows, cols) * n + np.maximum(rows, cols)
    )
    att = AttentionEdges(edges, value_idx, spd_slot_ids(spd[rows, cols], max_spd))
    return att, rows[upper], cols[upper]


class Model:
    """Parameters plus the forward/loss computations."""

    def __init__(
        self,
        config: ModelConfig,
        *,
        seed: int = 0,
        rng: RandomStream | None = None,
        params: ModelParams | None = None,
    ):
        self.config = config
        symbols = tuple(sorted(set(config.elements)))
        self.vocab_symbols = symbols
        self.max_feature_id = max(ATOMIC_NUMBERS[s] for s in symbols)
        self.atom_rows = self.max_feature_id + 1
        self.mask_token_id = self.atom_rows  # row index in the augmented table

        types = sorted({bond_type_key(a, b) for a in symbols for b in symbols})
        self.bond_type_vocab = {t: i for i, t in enumerate(types)}
        self.bond_type_fallback = len(types)

        self.pair_index_atom = build_pair_index(
            [atom_pair_key(a, b) for a in symbols for b in symbols]
        )
        self.pair_index_bond = build_pair_index(
            [bond_pair_key(ta, tb) for ta in types for tb in types]
        )
        self.pair_index_cross = build_pair_index(
            [cross_pair_key(a, t) for a in symbols for t in types]
        )

        k = np.arange(1, config.kernels + 1, dtype=np.float64)
        self._grid = {
            "enc.atom": (config.width_dist * (k - 1) / config.kernels, config.width_dist / config.kernels),
            "enc.bond": (config.width_dist * (k - 1) / config.kernels, config.width_dist / config.kernels),
            "enc.tors": (config.width_tors * (k - 1) / config.kernels, config.width_tors / config.kernels),
            "enc.cross": (config.width_dist * (k - 1) / config.kernels, config.width_dist / config.kernels),
        }

        if params is not None:
            self.params = params
        else:
            self.params = ModelParams()
            self._init_params(rng if rng is not None else RandomStream(seed))

    # ------------------------------------------------------------------
    # Parameters
    # ------------------------------------------------------------------

    def _init_params(self, rng: RandomStream) -> None:
        cfg = self.config

        def randn(shape, std):
            return np.array(
                [[rng.normal(std) for _ in range(shape[1])] for _ in range(shape[0])]
            )

        reg = self.params.register
        reg("embed.atom", randn((self.atom_rows, cfg.d_a), 0.2))
        reg("embed.mask_token", randn((1, cfg.d_a), 0.2))
        reg("embed.bond_type", randn((len(self.bond_type_vocab) + 1, cfg.d_b), 0.2))
        reg("embed.bond_length", randn((cfg.n_length_buckets, cfg.d_b), 0.2))

        bank_slots = {
            "enc.atom": len(self.pair_index_atom) + 1,
            "enc.bond": len(self.pair_index_bond) + 1,
            "enc.tors": len(self.pair_index_bond) + 1,
            "enc.cross": len(self.pair_index_cross) + 1,
        }
        beta0 = {"enc.atom": 0.0, "enc.bond": 0.0, "enc.tors": 0.5, "enc.cross": 0.0}
        for name, n_slots in bank_slots.items():
            reg(f"{name}.alpha", np.ones((n_slots, 1)))
            reg(f"{name}.beta", np.full((n_slots, 1), beta0[name]))
            reg(f"{name}.w1", np.eye(cfg.kernels) + randn((cfg.kernels, cfg.kernels), 0.05))
            reg(f"{name}.w2", randn((cfg.kernels, 1), 0.2))
        reg("enc.spd_atom.table", randn((cfg.max_spd + 2, 1), 0.1))
        reg("enc.spd_bond.table", randn((cfg.max_spd + 2, 1), 0.1))

        dims = {
            "atom_self": (cfg.d_a, cfg.d_a, cfg.d_a),
            "bond_self": (cfg.d_b, cfg.d_b, cfg.d_b),
            "atom_from_bond": (cfg.d_a, cfg.d_b, cfg.d_a),
            "bond_from_atom": (cfg.d_b, cfg.d_a, cfg.d_b),
        }
        for layer in range(cfg.n_layers):
            for kind in ATTENTION_KINDS:
                d_q, d_kv, d_out = dims[kind]
                prefix = f"layer{layer}.{kind}"
                for t in range(cfg.n_heads):
                    reg(f"{prefix}.head{t}.wq", randn((d_q, cfg.d_h), 0.2))
                    reg(f"{prefix}.head{t}.wk", randn((d_kv, cfg.d_h), 0.2))
                    reg(f"{prefix}.head{t}.wv", randn((d_kv, cfg.d_h), 0.2))
                reg(f"{prefix}.wo", randn((cfg.n_heads * cfg.d_h, d_out), 0.1))
                hidden = cfg.ffn_multiplier * d_out
                reg(f"{prefix}.ffn.w1", randn((d_out, hidden), 0.2))
                reg(f"{prefix}.ffn.b1", np.zeros((1, hidden)))
                reg(f"{prefix}.ffn.w2", randn((hidden, d_out), 0.1))
                reg(f"{prefix}.ffn.b2", np.zeros((1, d_out)))
                reg(f"{prefix}.bias_gain", np.ones((1, 1)))

        reg("head.readout.w", randn((cfg.d_a + cfg.d_b, 1), 0.2))
        reg("head.readout.b", np.zeros((1, 1)))
        reg("head.mask.w", randn((cfg.d_a, self.atom_rows), 0.2))
        reg("head.mask.b", np.zeros((1, self.atom_rows)))
        reg("head.coord.w", randn((cfg.d_a, 3), 0.05))
        reg("head.coord.b", np.zeros((1, 3)))
        reg("head.bond.w", randn((cfg.d_a, cfg.d_a), 0.1))
        reg("head.bond.b", np.zeros((1, 1)))

    # ------------------------------------------------------------------
    # Featurization and prepared index structures
    # ------------------------------------------------------------------

    def featurize(self, m: Molecule, *, bonds: BondSet | None = None) -> Featurization:
        cfg = self.config
        return featurize_molecule(
            m,
            alpha=cfg.bond_alpha,
            cutoff=cfg.mask_cutoff,
            use_masks=cfg.use_structure_masks,
            bonds=bonds,
        )

    def prepare(self, feats: Featurization) -> Prepared:
        ids = feats.molecule.feature_ids()
        if ids.size and (ids.min() < 0 or ids.max() >= self.atom_rows):
            bad = int(ids.max() if ids.max() >= self.atom_rows else ids.min())
            raise ShapeError(
                f"feature id {bad} out of range for embedding table with "
                f"{self.atom_rows} rows (element vocabulary {self.vocab_symbols})"
            )
        return self._prepare(feats, ids)

    def _prepare(self, feats: Featurization, ids: np.ndarray) -> Prepared:
        """``prepare`` without the embedding-table check on ``ids``."""
        m = feats.molecule
        n, mb = feats.n_atoms, feats.n_bonds

        types = bond_types(m, feats.bond_nodes)
        type_ids = np.array(
            [self.bond_type_vocab.get(t, self.bond_type_fallback) for t in types], dtype=np.intp
        )
        lengths = np.array([node.length for node in feats.bond_nodes], dtype=np.float64)
        buckets = np.clip(
            np.floor(lengths / self.config.length_bucket_width).astype(np.intp),
            0,
            self.config.n_length_buckets - 1,
        ) if mb else np.zeros(0, dtype=np.intp)

        atom_att, ai, aj = _self_edges(feats.masks.atom, feats.spd_atom, self.config.max_spd)
        bond_att, bi, bj = _self_edges(feats.masks.bond, feats.spd_bond, self.config.max_spd)
        symbols = m.symbols()
        slot_atom = pair_slot_matrix(symbols, symbols, atom_pair_key, self.pair_index_atom)
        slot_bond = pair_slot_matrix(types, types, bond_pair_key, self.pair_index_bond)
        cross_slots = pair_slot_matrix(symbols, types, cross_pair_key, self.pair_index_cross)

        # incidence entries sorted by atom give atom_from_bond; by bond, bond_from_atom
        cross_rows, cross_cols = np.nonzero(feats.incidence)
        by_bond = np.lexsort((cross_rows, cross_cols))

        return Prepared(
            feats=feats,
            feature_ids=ids,
            bond_type_ids=type_ids,
            bucket_ids=buckets,
            atom_dist=PairChannel(feats.dist_atom[ai, aj], slot_atom[ai, aj]),
            bond_dist=PairChannel(feats.dist_bond[bi, bj], slot_bond[bi, bj]),
            bond_tors=PairChannel(feats.cos_bond[bi, bj], slot_bond[bi, bj]),
            cross_dist=PairChannel(
                feats.dist_cross[cross_rows, cross_cols], cross_slots[cross_rows, cross_cols]
            ),
            attention={
                "atom_self": atom_att,
                "bond_self": bond_att,
                "atom_from_bond": AttentionEdges(
                    EdgeList(cross_rows, cross_cols, n, mb), np.arange(cross_rows.size)
                ),
                "bond_from_atom": AttentionEdges(
                    EdgeList(cross_cols[by_bond], cross_rows[by_bond], mb, n), by_bond
                ),
            },
        )

    def prepare_molecule(self, m: Molecule) -> Prepared:
        return self.prepare(self.featurize(m))

    # ------------------------------------------------------------------
    # Per-edge biases on the tape
    # ------------------------------------------------------------------

    def _encode_pairs(self, P: TapeParams, bank: str, channel: PairChannel) -> Tensor:
        """Kernel pipeline for one pair channel: (P, 1) values."""
        mu, sigma = self._grid[bank]
        alpha = ad.gather_rows(P[f"{bank}.alpha"], channel.slots)
        beta = ad.gather_rows(P[f"{bank}.beta"], channel.slots)
        phi = ad.gaussian_kernel_features(alpha, beta, channel.x, mu, sigma)
        return ad.matmul(ad.gelu(ad.matmul(phi, P[f"{bank}.w1"])), P[f"{bank}.w2"])

    def _edge_biases(self, prep: Prepared, P: TapeParams) -> dict[str, Tensor]:
        """(E, 1) bias per attention kind: its pair value, plus the SPD term on self kinds."""
        atom = self._encode_pairs(P, "enc.atom", prep.atom_dist)
        bond = self._encode_pairs(P, "enc.bond", prep.bond_dist)
        if self.config.use_torsion:
            bond = ad.add(bond, self._encode_pairs(P, "enc.tors", prep.bond_tors))
        cross = self._encode_pairs(P, "enc.cross", prep.cross_dist)
        values = {"atom_self": atom, "bond_self": bond,
                  "atom_from_bond": cross, "bond_from_atom": cross}
        spd_tables = {"atom_self": "enc.spd_atom.table", "bond_self": "enc.spd_bond.table"}
        biases = {}
        for kind, att in prep.attention.items():
            bias = ad.gather_rows(values[kind], att.value_idx)
            if kind in spd_tables:
                bias = ad.add(bias, ad.gather_rows(P[spd_tables[kind]], att.spd_slots))
            biases[kind] = bias
        return biases

    # ------------------------------------------------------------------
    # Attention blocks
    # ------------------------------------------------------------------

    def _attention_update(
        self,
        P: TapeParams,
        prefix: str,
        h_q: Tensor,
        h_kv: Tensor,
        bias: Tensor,
        edges: EdgeList,
        layer: int,
        kind: str,
        records: list[AttentionRecord] | None,
    ) -> Tensor:
        cfg = self.config
        bias_l = ad.scale_by(bias, P[f"{prefix}.bias_gain"])
        attn_in = ad.row_normalize(h_q) if cfg.pre_norm else h_q
        kv_in = ad.row_normalize(h_kv) if cfg.pre_norm else h_kv

        def project(x: Tensor, w: str) -> Tensor:  # all heads' projections side by side
            return ad.matmul(
                x, ad.concat_cols([P[f"{prefix}.head{t}.{w}"] for t in range(cfg.n_heads)])
            )

        v = project(kv_in, "wv")
        weights = ad.softmax_bias_mask(
            project(attn_in, "wq"), project(kv_in, "wk"), bias_l, edges, cfg.n_heads
        )
        if records is not None:
            records.extend(
                AttentionRecord(layer, t, kind, edges.dense(weights.value[:, t]))
                for t in range(cfg.n_heads)
            )
        combined = ad.matmul(ad.scatter_pairs(weights, v, edges), P[f"{prefix}.wo"])
        pre_ffn = ad.add(h_q, combined)
        if cfg.pre_norm:
            pre_ffn = ad.row_normalize(pre_ffn)
        return self._ffn(P, prefix, pre_ffn)

    def _ffn(self, P: TapeParams, prefix: str, x: Tensor) -> Tensor:
        hidden = ad.gelu(ad.add_rowvec(ad.matmul(x, P[f"{prefix}.ffn.w1"]), P[f"{prefix}.ffn.b1"]))
        return ad.add_rowvec(ad.matmul(hidden, P[f"{prefix}.ffn.w2"]), P[f"{prefix}.ffn.b2"])

    # ------------------------------------------------------------------
    # Forward
    # ------------------------------------------------------------------

    def forward_features(
        self,
        prep: Prepared,
        tape: Tape | None = None,
        *,
        masked_ids: np.ndarray | None = None,
        collect_attention: bool = False,
        biases: dict[str, Tensor] | None = None,
    ) -> ForwardResult:
        cfg = self.config
        P = TapeParams(self.params, tape)
        mb = prep.n_bonds
        records: list[AttentionRecord] | None = [] if collect_attention else None

        if biases is None:
            biases = self._edge_biases(prep, P)

        ids = prep.feature_ids
        if masked_ids is not None and masked_ids.size:
            ids = ids.copy()
            ids[masked_ids] = self.mask_token_id
        atom_table = ad.concat_rows([P["embed.atom"], P["embed.mask_token"]])
        h_a = ad.gather_rows(atom_table, ids)
        h_b = ad.add(
            ad.gather_rows(P["embed.bond_type"], prep.bond_type_ids),
            ad.gather_rows(P["embed.bond_length"], prep.bucket_ids),
        )

        for layer in range(cfg.n_layers):

            def attend(kind: str, h_q: Tensor, h_kv: Tensor) -> Tensor:
                return self._attention_update(
                    P, f"layer{layer}.{kind}", h_q, h_kv, biases[kind],
                    prep.attention[kind].edges, layer, kind, records,
                )

            h_a = attend("atom_self", h_a, h_a)
            h_b = attend("bond_self", h_b, h_b)
            if cfg.parallel_cross:
                h_a, h_b = attend("atom_from_bond", h_a, h_b), attend("bond_from_atom", h_b, h_a)
            elif cfg.cross_order == "atom_first":
                h_a = attend("atom_from_bond", h_a, h_b)
                h_b = attend("bond_from_atom", h_b, h_a)
            else:
                h_b = attend("bond_from_atom", h_b, h_a)
                h_a = attend("atom_from_bond", h_a, h_b)

        pooled_atom = ad.mean_rows(h_a)
        if mb > 0:
            pooled_bond = ad.mean_rows(h_b)
        else:
            pooled_bond = ad.constant(np.zeros((1, cfg.d_b)))
        pooled = ad.concat_cols([pooled_atom, pooled_bond])
        pred = ad.add(ad.matmul(pooled, P["head.readout.w"]), P["head.readout.b"])

        return ForwardResult(EmbeddingSet(h_a, h_b), pred, records)

    def forward(
        self, m: Molecule, tape: Tape | None = None, *, collect_attention: bool = False
    ) -> ForwardResult:
        return self.forward_features(
            self.prepare_molecule(m), tape, collect_attention=collect_attention
        )

    def predict(self, m: Molecule) -> float:
        return self.forward(m).prediction.item()

    # ------------------------------------------------------------------
    # Losses
    # ------------------------------------------------------------------

    def loss_prop(self, prediction: Tensor, target: float | None) -> Tensor:
        if target is None:
            raise MissingTargetError("molecule has no target property")
        return ad.abs_elem(ad.sub(ad.constant([[float(target)]]), prediction))

    def sample_mask_ids(self, n_atoms: int, rng: RandomStream) -> np.ndarray:
        k = max(1, int(round(self.config.mask_ratio * n_atoms)))
        k = min(k, n_atoms)
        return np.array(rng.sample_indices(n_atoms, k), dtype=np.intp)

    def _masked_ce(
        self,
        prep: Prepared,
        masked_ids: np.ndarray,
        tape: Tape | None,
        biases: dict[str, Tensor] | None = None,
    ) -> Tensor:
        P = TapeParams(self.params, tape)
        fwd = self.forward_features(prep, tape, masked_ids=masked_ids, biases=biases)
        h_sel = ad.gather_rows(fwd.embeddings.h_atom, masked_ids)
        logits = ad.add_rowvec(ad.matmul(h_sel, P["head.mask.w"]), P["head.mask.b"])
        return ad.cross_entropy_rows(logits, prep.feature_ids[masked_ids])

    def sample_noisy(self, m: Molecule, rng: RandomStream) -> Molecule:
        sigma = self.config.coord_noise_sigma
        noise = np.array(
            [[rng.normal(sigma) for _ in range(3)] for _ in range(m.n_atoms)]
        )
        return m.with_positions(m.positions + noise)

    def _coord_sse(
        self, prep_noisy: Prepared, clean_positions: np.ndarray, tape: Tape | None
    ) -> Tensor:
        P = TapeParams(self.params, tape)
        fwd = self.forward_features(prep_noisy, tape)
        delta = ad.add_rowvec(
            ad.matmul(fwd.embeddings.h_atom, P["head.coord.w"]), P["head.coord.b"]
        )
        predicted = ad.add(ad.constant(prep_noisy.feats.molecule.positions), delta)
        diff = ad.sub(predicted, ad.constant(clean_positions))
        return ad.sum_all(ad.mul(diff, diff))

    def _bond_bce(self, prep: Prepared, h_atom: Tensor, tape: Tape | None) -> Tensor | None:
        """BCE of the bilinear bond head over in-mask candidate pairs."""
        P = TapeParams(self.params, tape)
        allowed = prep.feats.masks.atom.copy()
        np.fill_diagonal(allowed, False)
        ci, cj = np.where(np.triu(allowed))
        if ci.size == 0:
            return None
        truth = set(prep.feats.bonds.keys())
        labels = np.array([(int(a), int(b)) in truth for a, b in zip(ci, cj)], dtype=np.float64)
        hi = ad.gather_rows(h_atom, ci)
        hj = ad.gather_rows(h_atom, cj)
        s_ij = ad.sum_cols(ad.mul(ad.matmul(hi, P["head.bond.w"]), hj))
        s_ji = ad.sum_cols(ad.mul(ad.matmul(hj, P["head.bond.w"]), hi))
        logits = ad.add_rowvec(
            ad.scale(ad.add(s_ij, s_ji), 0.5), P["head.bond.b"]
        )
        return ad.bce_with_logits_mean(logits, labels)

    # ------------------------------------------------------------------
    # Total loss
    # ------------------------------------------------------------------

    def sample_loss_inputs(self, m: Molecule, rng: RandomStream | None) -> LossInputs:
        """Consume rng draws (mask selection first, then coordinate noise)."""
        w_prop, w_mask, w_coord, w_bond = self.config.loss_weights
        prep = self.prepare_molecule(m)
        masked_ids = None
        if w_mask != 0.0:
            if rng is None:
                raise ValueError("masking loss needs an rng")
            masked_ids = self.sample_mask_ids(m.n_atoms, rng)
        prep_noisy = None
        noisy_positions = None
        if w_coord != 0.0:
            if rng is None:
                raise ValueError("coordinate loss needs an rng")
            noisy = self.sample_noisy(m, rng)
            prep_noisy = self.prepare_molecule(noisy)
            noisy_positions = noisy.positions
        return LossInputs(prep, masked_ids, prep_noisy, noisy_positions)

    def total_loss_from_inputs(
        self, li: LossInputs, tape: Tape | None = None
    ) -> tuple[Tensor, dict[str, float]]:
        cfg = self.config
        w_prop, w_mask, w_coord, w_bond = cfg.loss_weights
        m = li.prep.feats.molecule
        parts: dict[str, float] = {}
        terms: list[Tensor] = []

        fwd = None
        shared_biases = None
        if w_prop != 0.0 or w_bond != 0.0 or w_mask != 0.0:
            P = TapeParams(self.params, tape)
            shared_biases = self._edge_biases(li.prep, P)
        if w_prop != 0.0 or w_bond != 0.0:
            fwd = self.forward_features(li.prep, tape, biases=shared_biases)
        if w_prop != 0.0:
            term = self.loss_prop(fwd.prediction, m.target)
            parts["prop"] = term.item()
            terms.append(ad.scale(term, w_prop))
        if w_mask != 0.0:
            term = self._masked_ce(li.prep, li.masked_ids, tape, biases=shared_biases)
            parts["mask"] = term.item()
            terms.append(ad.scale(term, w_mask))
        if w_coord != 0.0:
            term = self._coord_sse(li.prep_noisy, m.positions, tape)
            parts["coord"] = term.item()
            terms.append(ad.scale(term, w_coord))
        if w_bond != 0.0:
            bce = self._bond_bce(li.prep, fwd.embeddings.h_atom, tape)
            term = bce if bce is not None else (
                ad.constant([[0.0]]) if tape is None else tape.leaf([[0.0]])
            )
            parts["bond"] = term.item()
            terms.append(ad.scale(term, w_bond))

        if not terms:
            total = ad.constant([[0.0]]) if tape is None else tape.leaf([[0.0]])
        else:
            total = terms[0]
            for t in terms[1:]:
                total = ad.add(total, t)
        parts["total"] = total.item()
        return total, parts

    def total_loss(
        self, m: Molecule, rng: RandomStream | None = None, tape: Tape | None = None
    ) -> tuple[Tensor, dict[str, float]]:
        return self.total_loss_from_inputs(self.sample_loss_inputs(m, rng), tape)

    # ------------------------------------------------------------------
    # Attention export
    # ------------------------------------------------------------------

    def dump_attention(self, m: Molecule) -> dict:
        """Every layer's per-head dense attention maps; the one dense attention path."""
        _check_dense_export("dump-attention", m.n_atoms)
        fwd = self.forward(m, collect_attention=True)
        return {
            "n_atoms": m.n_atoms,
            "n_bonds": int(fwd.embeddings.h_bond.value.shape[0]),
            "n_layers": self.config.n_layers,
            "n_heads": self.config.n_heads,
            "prediction_ev": fwd.prediction.item(),
            "maps": [
                {
                    "layer": rec.layer,
                    "head": rec.head,
                    "kind": rec.kind,
                    "weights": rec.weights.tolist(),
                }
                for rec in (fwd.attention or [])
            ],
        }


# ---------------------------------------------------------------------------
# Feature export
# ---------------------------------------------------------------------------


def assemble_bundle(model: Model, feats: Featurization) -> dict[str, np.ndarray]:
    """Dense phi_atom (N, N), phi_bond (M, M), phi_a2b (N, M) and phi_b2a (M, N).

    Each entry is the bias ``Model._edge_biases`` gives its pair when every pair
    is an edge. Elements outside the model's embedding vocabulary are allowed.
    """
    n, mb = feats.n_atoms, feats.n_bonds
    _check_dense_export("featurize", n)
    every_pair = replace(
        feats, masks=all_true_masks(n, mb), incidence=np.ones((n, mb), dtype=bool)
    )
    prep = model._prepare(every_pair, feats.molecule.feature_ids())
    biases = model._edge_biases(prep, TapeParams(model.params, None))
    return {
        name: prep.attention[kind].edges.dense(biases[kind].value[:, 0])
        for name, kind in zip(("phi_atom", "phi_bond", "phi_a2b", "phi_b2a"), ATTENTION_KINDS)
    }
