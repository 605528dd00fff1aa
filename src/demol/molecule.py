"""Molecule representation and the XYZ / JSON parsers.

Coordinates are always Angstrom; targets are always eV. All types are
immutable after construction and every parser either returns a fully valid
``Molecule`` or raises, never a partially valid object.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .elements import CovalentRadiiTable, Element, default_radii_table
from .errors import GeometryError, ParseError

MIN_ATOM_SEPARATION = 1e-6  # Angstrom; guards kernels and angle code


@dataclass(frozen=True)
class Atom:
    element: Element
    position: np.ndarray  # shape (3,), Angstrom
    feature_id: int = -1  # defaults to the atomic number

    def __post_init__(self):
        pos = np.asarray(self.position, dtype=np.float64).reshape(3)
        if not np.isfinite(pos).all():
            raise GeometryError(f"non-finite position for atom {self.element.symbol}: {pos}")
        pos.flags.writeable = False
        object.__setattr__(self, "position", pos)
        if self.feature_id < 0:
            object.__setattr__(self, "feature_id", self.element.atomic_number)


@dataclass(frozen=True)
class Molecule:
    atoms: tuple[Atom, ...]
    target: float | None = None  # eV
    name: str = ""
    positions: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        atoms = tuple(self.atoms)
        if len(atoms) < 1:
            raise GeometryError("a molecule needs at least one atom")
        object.__setattr__(self, "atoms", atoms)
        pos = np.stack([a.position for a in atoms])
        pos.flags.writeable = False
        object.__setattr__(self, "positions", pos)
        diff = pos[:, None, :] - pos[None, :, :]
        d2 = np.einsum("ijk,ijk->ij", diff, diff)
        np.fill_diagonal(d2, np.inf)
        if d2.min() <= MIN_ATOM_SEPARATION**2:
            i, j = np.unravel_index(int(d2.argmin()), d2.shape)
            raise GeometryError(
                f"atoms {i} and {j} are closer than {MIN_ATOM_SEPARATION} Angstrom"
            )
        if self.target is not None:
            object.__setattr__(self, "target", float(self.target))

    @property
    def n_atoms(self) -> int:
        return len(self.atoms)

    def symbols(self) -> tuple[str, ...]:
        return tuple(a.element.symbol for a in self.atoms)

    def feature_ids(self) -> np.ndarray:
        return np.array([a.feature_id for a in self.atoms], dtype=np.intp)

    def with_positions(self, positions: np.ndarray, name: str | None = None) -> "Molecule":
        positions = np.asarray(positions, dtype=np.float64).reshape(self.n_atoms, 3)
        atoms = tuple(
            Atom(a.element, positions[i], a.feature_id) for i, a in enumerate(self.atoms)
        )
        return Molecule(atoms, self.target, self.name if name is None else name)


def distance(a: Atom, b: Atom) -> float:
    """Euclidean distance between two atoms in Angstrom."""
    return float(np.linalg.norm(a.position - b.position))


def pairwise_distances(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """|a| x |b| matrix of Euclidean distances between two (., 3) position arrays."""
    diff = a[:, None, :] - b[None, :, :]
    return np.sqrt(np.einsum("ijk,ijk->ij", diff, diff))


def molecule_from_symbols(
    symbols: Sequence[str],
    positions: Sequence[Sequence[float]] | np.ndarray,
    *,
    target: float | None = None,
    name: str = "",
    radii: CovalentRadiiTable | None = None,
) -> Molecule:
    table = radii if radii is not None else default_radii_table()
    pos = np.asarray(positions, dtype=np.float64).reshape(len(symbols), 3)
    atoms = tuple(Atom(table.element(s), pos[i]) for i, s in enumerate(symbols))
    return Molecule(atoms, target, name)


def parse_xyz(text: str, radii: CovalentRadiiTable | None = None) -> Molecule:
    """Parse XYZ text: count line, comment line, then ``symbol x y z`` lines."""
    table = radii if radii is not None else default_radii_table()
    lines = text.splitlines()
    if not lines or not lines[0].strip():
        raise ParseError("line 1: expected an atom count")
    try:
        count = int(lines[0].strip())
    except ValueError:
        raise ParseError(f"line 1: atom count is not an integer: {lines[0].strip()!r}") from None
    if count < 1:
        raise ParseError(f"line 1: atom count must be >= 1, got {count}")

    name = lines[1].strip() if len(lines) > 1 else ""
    atom_lines = lines[2:]
    while atom_lines and not atom_lines[-1].strip():
        atom_lines.pop()
    if len(atom_lines) != count:
        raise ParseError(
            f"line 1 declares {count} atoms but {len(atom_lines)} atom lines follow"
        )

    atoms = []
    for offset, raw in enumerate(atom_lines):
        lineno = offset + 3
        parts = raw.split()
        if len(parts) != 4:
            raise ParseError(f"line {lineno}: expected 'symbol x y z', got {raw!r}")
        symbol = parts[0]
        if symbol not in table:
            raise ParseError(f"line {lineno}: unknown element symbol {symbol!r}")
        try:
            xyz = [float(p) for p in parts[1:]]
        except ValueError:
            raise ParseError(f"line {lineno}: non-numeric coordinate in {raw!r}") from None
        if not all(math.isfinite(v) for v in xyz):
            raise ParseError(f"line {lineno}: non-finite coordinate in {raw!r}")
        atoms.append(Atom(table.element(symbol), np.array(xyz)))
    return Molecule(tuple(atoms), None, name)


def emit_xyz(m: Molecule) -> str:
    lines = [str(m.n_atoms), m.name]
    for atom in m.atoms:
        x, y, z = atom.position
        lines.append("%s %.6f %.6f %.6f" % (atom.element.symbol, x, y, z))
    return "\n".join(lines) + "\n"


def parse_molecule_json(text: str, radii: CovalentRadiiTable | None = None) -> Molecule:
    """Parse the molecule JSON schema: name, atoms [{symbol, xyz}], optional target."""
    table = radii if radii is not None else default_radii_table()
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"$: invalid JSON: {exc}") from None
    if not isinstance(doc, dict):
        raise ParseError("$: expected a JSON object")
    if "atoms" not in doc:
        raise ParseError("$.atoms: missing required field")
    raw_atoms = doc["atoms"]
    if not isinstance(raw_atoms, list):
        raise ParseError("$.atoms: expected a list")
    if len(raw_atoms) < 1:
        raise ParseError("$.atoms: a molecule needs at least one atom")

    name = doc.get("name", "")
    if not isinstance(name, str):
        raise ParseError("$.name: expected a string")
    target = doc.get("target")
    if target is not None and (isinstance(target, bool) or not isinstance(target, (int, float))):
        raise ParseError("$.target: expected a number")

    atoms = []
    for i, entry in enumerate(raw_atoms):
        path = f"$.atoms[{i}]"
        if not isinstance(entry, dict):
            raise ParseError(f"{path}: expected an object")
        symbol = entry.get("symbol")
        if not isinstance(symbol, str):
            raise ParseError(f"{path}.symbol: expected a string")
        if symbol not in table:
            raise ParseError(f"{path}.symbol: unknown element symbol {symbol!r}")
        xyz = entry.get("xyz")
        if (
            not isinstance(xyz, list)
            or len(xyz) != 3
            or not all(isinstance(v, (int, float)) for v in xyz)
        ):
            raise ParseError(f"{path}.xyz: expected a list of 3 numbers")
        if not all(math.isfinite(float(v)) for v in xyz):
            raise ParseError(f"{path}.xyz: non-finite coordinate")
        atoms.append(Atom(table.element(symbol), np.array(xyz, dtype=np.float64)))
    return Molecule(tuple(atoms), None if target is None else float(target), name)


def emit_molecule_json(m: Molecule) -> str:
    doc: dict = {
        "name": m.name,
        "atoms": [
            {"symbol": a.element.symbol, "xyz": [float(v) for v in a.position]}
            for a in m.atoms
        ],
    }
    if m.target is not None:
        doc["target"] = m.target
    # repr-based float serialization keeps >= 9 significant digits
    return json.dumps(doc)
