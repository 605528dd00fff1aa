"""Dual-graph molecular representation learning at desk scale.

The pipeline: parse a geometry, perceive bonds from covalent radii, build the
atom graph and its line graph, compute structure encodings and masks, run the
dual-channel attention model, and train or verify it deterministically.
"""

from .autodiff import (
    GradCheckReport,
    Gradients,
    ModelParams,
    Tape,
    TapeParams,
    Tensor,
    backward,
    grad_check,
)
from .bonds import Bond, BondSet, predict_bonds
from .elements import (
    ATOMIC_NUMBERS,
    CovalentRadiiTable,
    Element,
    default_radii_table,
    load_radii_file,
)
from .encodings import UNREACHABLE, cosine_matrix, spd_matrix
from .errors import (
    CheckpointError,
    DemolError,
    FileAccessError,
    GeometryError,
    MissingTargetError,
    NonFiniteError,
    ParseError,
    ShapeError,
    SizeLimitError,
    TrainingError,
    UnknownElementError,
)
from .graphs import BondGraph, atom_adjacency, build_bond_graph
from .masks import MaskMatrices, atom_mask, bond_mask, build_masks
from .model import EmbeddingSet, Model, ModelConfig, assemble_bundle
from .molecule import (
    Atom,
    Molecule,
    distance,
    emit_molecule_json,
    emit_xyz,
    molecule_from_symbols,
    parse_molecule_json,
    parse_xyz,
)
from .pipeline import Featurization, featurize_molecule
from .rng import RandomStream
from .training import (
    OptimizerState,
    TrainConfig,
    TrainResult,
    evaluate,
    load_checkpoint,
    save_checkpoint,
    train,
)

__version__ = "0.1.0"
