"""Dual-channel attention model over the atom graph and its line graph.

Both channels run biased, masked self-attention; interleaved cross-attention
lets atoms attend over their incident bonds and bonds over their two endpoint
atoms. Residual placement is ``h_next = FFN(h + attention_out)`` with no
normalization layers by default. All encoding parameters (kernel banks, SPD
tables) are evaluated on the differentiation tape so every learnable value
receives a gradient.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import ModelParams, Tape, TapeParams, Tensor
from .bonds import BondSet
from .elements import ATOMIC_NUMBERS
from .encodings import (
    EncoderSet,
    GaussianKernelBank,
    SpdEncoder,
    atom_pair_key,
    bond_pair_key,
    bond_type_key,
    bond_types,
    build_pair_index,
    cross_pair_key,
    pair_slot_matrix,
)
from .errors import MissingTargetError, ShapeError
from .masks import DEFAULT_CUTOFF
from .molecule import Molecule
from .pipeline import Featurization, featurize_molecule
from .rng import RandomStream

DEFAULT_ELEMENTS = ("H", "C", "N", "O", "F", "P", "S", "Cl", "Br", "I", "Pt")

ATTENTION_KINDS = ("atom_self", "bond_self", "atom_from_bond", "bond_from_atom")


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
        if self.coord_noise_sigma < 0:
            raise ValueError("coord_noise_sigma must be >= 0")
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
    """Sparse pair inputs plus the scatter pattern into a dense bias matrix."""

    x: np.ndarray  # (P,) scalar inputs (distances or cosines)
    slots: np.ndarray  # (P,) category-pair slots
    value_idx: np.ndarray  # (E,)
    rows: np.ndarray  # (E,)
    cols: np.ndarray  # (E,)
    shape: tuple[int, int]


@dataclass
class Prepared:
    """Featurization plus every parameter-independent index structure."""

    feats: Featurization
    feature_ids: np.ndarray  # (N,)
    bond_type_ids: np.ndarray  # (M,)
    bucket_ids: np.ndarray  # (M,)
    atom_dist: PairChannel
    bond_dist: PairChannel
    bond_tors: PairChannel
    cross_dist: PairChannel  # scatter shape (N, M); (M, N) mirrored separately
    cross_rows: np.ndarray  # atom index per incidence entry
    cross_cols: np.ndarray  # bond index per incidence entry
    spd_atom_slots: np.ndarray  # (N*N,)
    spd_bond_slots: np.ndarray  # (M*M,)

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


def _symmetric_pair_channel(
    x_matrix: np.ndarray, slot_matrix: np.ndarray, allowed: np.ndarray
) -> PairChannel:
    """Unique unordered pairs (i <= j) of the allowed set, mirrored on scatter."""
    iu, ju = np.where(np.triu(allowed))
    p = np.arange(iu.size)
    off = iu != ju
    value_idx = np.concatenate([p, p[off]])
    rows = np.concatenate([iu, ju[off]])
    cols = np.concatenate([ju, iu[off]])
    return PairChannel(
        x=x_matrix[iu, ju],
        slots=slot_matrix[iu, ju],
        value_idx=value_idx,
        rows=rows,
        cols=cols,
        shape=allowed.shape,
    )


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

    def encoders(self) -> EncoderSet:
        """Numpy views over the live parameter arrays, for feature export."""
        cfg = self.config

        def bank(name: str, width: float, index) -> GaussianKernelBank:
            return GaussianKernelBank(
                kernels=cfg.kernels,
                width=width,
                pair_index=index,
                pair_alpha=self.params[f"{name}.alpha"][:, 0],
                pair_beta=self.params[f"{name}.beta"][:, 0],
                w1=self.params[f"{name}.w1"],
                w2=self.params[f"{name}.w2"],
            )

        return EncoderSet(
            atom_bank=bank("enc.atom", cfg.width_dist, self.pair_index_atom),
            bond_bank=bank("enc.bond", cfg.width_dist, self.pair_index_bond),
            torsion_bank=bank("enc.tors", cfg.width_tors, self.pair_index_bond),
            cross_bank=bank("enc.cross", cfg.width_dist, self.pair_index_cross),
            spd_atom=SpdEncoder(cfg.max_spd, self.params["enc.spd_atom.table"][:, 0]),
            spd_bond=SpdEncoder(cfg.max_spd, self.params["enc.spd_bond.table"][:, 0]),
        )

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
        m = feats.molecule
        ids = m.feature_ids()
        if ids.size and (ids.min() < 0 or ids.max() >= self.atom_rows):
            bad = int(ids.max() if ids.max() >= self.atom_rows else ids.min())
            raise ShapeError(
                f"feature id {bad} out of range for embedding table with "
                f"{self.atom_rows} rows (element vocabulary {self.vocab_symbols})"
            )
        symbols = m.symbols()
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

        slot_atom = pair_slot_matrix(symbols, symbols, atom_pair_key, self.pair_index_atom)
        slot_bond = pair_slot_matrix(types, types, bond_pair_key, self.pair_index_bond)
        cross_rows, cross_cols = np.where(feats.incidence)
        cross_slots = pair_slot_matrix(symbols, types, cross_pair_key, self.pair_index_cross)[
            cross_rows, cross_cols
        ]

        spd_enc = SpdEncoder(
            self.config.max_spd, np.zeros(self.config.max_spd + 2)
        )  # slot layout only

        return Prepared(
            feats=feats,
            feature_ids=ids,
            bond_type_ids=type_ids,
            bucket_ids=buckets,
            atom_dist=_symmetric_pair_channel(feats.dist_atom, slot_atom, feats.masks.atom),
            bond_dist=_symmetric_pair_channel(feats.dist_bond, slot_bond, feats.masks.bond),
            bond_tors=_symmetric_pair_channel(feats.cos_bond, slot_bond, feats.masks.bond),
            cross_dist=PairChannel(
                x=feats.dist_cross[cross_rows, cross_cols],
                slots=cross_slots,
                value_idx=np.arange(cross_rows.size),
                rows=cross_rows,
                cols=cross_cols,
                shape=(n, mb),
            ),
            cross_rows=cross_rows,
            cross_cols=cross_cols,
            spd_atom_slots=spd_enc.slot_ids(feats.spd_atom).ravel(),
            spd_bond_slots=spd_enc.slot_ids(feats.spd_bond).ravel(),
        )

    def prepare_molecule(self, m: Molecule) -> Prepared:
        return self.prepare(self.featurize(m))

    # ------------------------------------------------------------------
    # Bias matrices on the tape
    # ------------------------------------------------------------------

    def _encode_pairs(self, P: TapeParams, bank: str, channel: PairChannel) -> Tensor:
        """Kernel pipeline for one pair channel, scattered into a dense matrix."""
        mu, sigma = self._grid[bank]
        alpha = ad.gather_rows(P[f"{bank}.alpha"], channel.slots)
        beta = ad.gather_rows(P[f"{bank}.beta"], channel.slots)
        phi = ad.gaussian_kernel_features(alpha, beta, channel.x, mu, sigma)
        vals = ad.matmul(ad.gelu(ad.matmul(phi, P[f"{bank}.w1"])), P[f"{bank}.w2"])
        return ad.scatter_pairs(vals, channel.value_idx, channel.rows, channel.cols, channel.shape)

    def _spd_bias(self, P: TapeParams, table: str, slots: np.ndarray, shape) -> Tensor:
        return ad.reshape(ad.gather_rows(P[table], slots), shape[0], shape[1])

    def _bias_matrices(self, prep: Prepared, P: TapeParams) -> dict[str, Tensor]:
        n, mb = prep.n_atoms, prep.n_bonds
        phi_atom = ad.add(
            self._encode_pairs(P, "enc.atom", prep.atom_dist),
            self._spd_bias(P, "enc.spd_atom.table", prep.spd_atom_slots, (n, n)),
        )
        phi_bond = ad.add(
            self._encode_pairs(P, "enc.bond", prep.bond_dist),
            self._spd_bias(P, "enc.spd_bond.table", prep.spd_bond_slots, (mb, mb)),
        )
        if self.config.use_torsion:
            phi_bond = ad.add(phi_bond, self._encode_pairs(P, "enc.tors", prep.bond_tors))

        mu, sigma = self._grid["enc.cross"]
        ch = prep.cross_dist
        alpha = ad.gather_rows(P["enc.cross.alpha"], ch.slots)
        beta = ad.gather_rows(P["enc.cross.beta"], ch.slots)
        phi = ad.gaussian_kernel_features(alpha, beta, ch.x, mu, sigma)
        vals = ad.matmul(ad.gelu(ad.matmul(phi, P["enc.cross.w1"])), P["enc.cross.w2"])
        phi_a2b = ad.scatter_pairs(vals, ch.value_idx, ch.rows, ch.cols, (n, mb))
        phi_b2a = ad.scatter_pairs(vals, ch.value_idx, ch.cols, ch.rows, (mb, n))

        return {"atom": phi_atom, "bond": phi_bond, "a2b": phi_a2b, "b2a": phi_b2a}

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
        mask: np.ndarray,
        layer: int,
        kind: str,
        records: list[AttentionRecord] | None,
    ) -> Tensor:
        cfg = self.config
        bias_l = ad.scale_by(bias, P[f"{prefix}.bias_gain"])
        attn_in = ad.row_normalize(h_q) if cfg.pre_norm else h_q
        kv_in = ad.row_normalize(h_kv) if cfg.pre_norm else h_kv
        inv_sqrt_dk = 1.0 / math.sqrt(cfg.d_h)
        heads = []
        for t in range(cfg.n_heads):
            q = ad.matmul(attn_in, P[f"{prefix}.head{t}.wq"])
            k = ad.matmul(kv_in, P[f"{prefix}.head{t}.wk"])
            v = ad.matmul(kv_in, P[f"{prefix}.head{t}.wv"])
            scores = ad.scale(ad.matmul(q, ad.transpose(k)), inv_sqrt_dk)
            weights = ad.softmax_bias_mask(scores, bias_l, mask)
            if records is not None:
                records.append(AttentionRecord(layer, t, kind, weights.value.copy()))
            heads.append(ad.matmul(weights, v))
        combined = ad.matmul(ad.concat_cols(heads), P[f"{prefix}.wo"])
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
        P = TapeParams.for_tape(self.params, tape)
        feats = prep.feats
        n, mb = prep.n_atoms, prep.n_bonds
        records: list[AttentionRecord] | None = [] if collect_attention else None

        if biases is None:
            biases = self._bias_matrices(prep, P)

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

        mask_atom = feats.masks.atom
        mask_bond = feats.masks.bond
        incidence = feats.incidence

        for layer in range(cfg.n_layers):
            h_a = self._attention_update(
                P, f"layer{layer}.atom_self", h_a, h_a, biases["atom"], mask_atom,
                layer, "atom_self", records,
            )
            h_b = self._attention_update(
                P, f"layer{layer}.bond_self", h_b, h_b, biases["bond"], mask_bond,
                layer, "bond_self", records,
            )

            def cross_atom(ha: Tensor, hb: Tensor) -> Tensor:
                return self._attention_update(
                    P, f"layer{layer}.atom_from_bond", ha, hb, biases["a2b"], incidence,
                    layer, "atom_from_bond", records,
                )

            def cross_bond(hb: Tensor, ha: Tensor) -> Tensor:
                return self._attention_update(
                    P, f"layer{layer}.bond_from_atom", hb, ha, biases["b2a"], incidence.T,
                    layer, "bond_from_atom", records,
                )

            if cfg.parallel_cross:
                ha_in, hb_in = h_a, h_b
                h_a = cross_atom(ha_in, hb_in)
                h_b = cross_bond(hb_in, ha_in)
            elif cfg.cross_order == "atom_first":
                h_a = cross_atom(h_a, h_b)
                h_b = cross_bond(h_b, h_a)
            else:
                h_b = cross_bond(h_b, h_a)
                h_a = cross_atom(h_a, h_b)

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
        P = TapeParams.for_tape(self.params, tape)
        fwd = self.forward_features(prep, tape, masked_ids=masked_ids, biases=biases)
        h_sel = ad.gather_rows(fwd.embeddings.h_atom, masked_ids)
        logits = ad.add_rowvec(ad.matmul(h_sel, P["head.mask.w"]), P["head.mask.b"])
        return ad.cross_entropy_rows(logits, prep.feature_ids[masked_ids])

    def loss_mask(self, m: Molecule, rng: RandomStream, tape: Tape | None = None) -> Tensor:
        prep = self.prepare_molecule(m)
        return self._masked_ce(prep, self.sample_mask_ids(m.n_atoms, rng), tape)

    def sample_noisy(self, m: Molecule, rng: RandomStream) -> Molecule:
        sigma = self.config.coord_noise_sigma
        noise = np.array(
            [[rng.normal(sigma) for _ in range(3)] for _ in range(m.n_atoms)]
        )
        return m.with_positions(m.positions + noise)

    def _coord_sse(
        self, prep_noisy: Prepared, clean_positions: np.ndarray, tape: Tape | None
    ) -> Tensor:
        P = TapeParams.for_tape(self.params, tape)
        fwd = self.forward_features(prep_noisy, tape)
        delta = ad.add_rowvec(
            ad.matmul(fwd.embeddings.h_atom, P["head.coord.w"]), P["head.coord.b"]
        )
        predicted = ad.add(ad.constant(prep_noisy.feats.molecule.positions), delta)
        diff = ad.sub(predicted, ad.constant(clean_positions))
        return ad.sum_all(ad.mul(diff, diff))

    def loss_coord(self, m: Molecule, rng: RandomStream, tape: Tape | None = None) -> Tensor:
        noisy = self.sample_noisy(m, rng)
        return self._coord_sse(self.prepare_molecule(noisy), m.positions, tape)

    def _bond_bce(
        self,
        prep: Prepared,
        h_atom: Tensor,
        tape: Tape | None,
        b_truth: BondSet | None = None,
    ) -> Tensor | None:
        """BCE of the bilinear bond head over in-mask candidate pairs."""
        P = TapeParams.for_tape(self.params, tape)
        allowed = prep.feats.masks.atom.copy()
        np.fill_diagonal(allowed, False)
        ci, cj = np.where(np.triu(allowed))
        if ci.size == 0:
            return None
        truth = set((prep.feats.bonds if b_truth is None else b_truth).keys())
        labels = np.array([(int(a), int(b)) in truth for a, b in zip(ci, cj)], dtype=np.float64)
        hi = ad.gather_rows(h_atom, ci)
        hj = ad.gather_rows(h_atom, cj)
        s_ij = ad.sum_cols(ad.mul(ad.matmul(hi, P["head.bond.w"]), hj))
        s_ji = ad.sum_cols(ad.mul(ad.matmul(hj, P["head.bond.w"]), hi))
        logits = ad.add_rowvec(
            ad.scale(ad.add(s_ij, s_ji), 0.5), P["head.bond.b"]
        )
        return ad.bce_with_logits_mean(logits, labels)

    def loss_bond(
        self, m: Molecule, tape: Tape | None = None, *, b_truth: BondSet | None = None
    ) -> Tensor:
        prep = self.prepare_molecule(m)
        fwd = self.forward_features(prep, tape)
        bce = self._bond_bce(prep, fwd.embeddings.h_atom, tape, b_truth)
        if bce is None:
            return ad.constant([[0.0]]) if tape is None else tape.leaf([[0.0]])
        return bce

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
            P = TapeParams.for_tape(self.params, tape)
            shared_biases = self._bias_matrices(li.prep, P)
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
