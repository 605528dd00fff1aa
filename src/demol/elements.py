"""Element identities and the covalent-radii table.

The radii table is loaded from a plain-text data file (one ``symbol radius``
pair per line, ``#`` comments allowed) and defines the set of elements the
pipeline knows about. The environment variable ``DEMOL_RADII`` overrides the
shipped file.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from importlib import resources
from typing import Iterator, Mapping

from .errors import ParseError, UnknownElementError, read_text

# Symbol -> atomic number for the full periodic table.
ATOMIC_NUMBERS: dict[str, int] = {
    "H": 1, "He": 2, "Li": 3, "Be": 4, "B": 5, "C": 6, "N": 7, "O": 8,
    "F": 9, "Ne": 10, "Na": 11, "Mg": 12, "Al": 13, "Si": 14, "P": 15,
    "S": 16, "Cl": 17, "Ar": 18, "K": 19, "Ca": 20, "Sc": 21, "Ti": 22,
    "V": 23, "Cr": 24, "Mn": 25, "Fe": 26, "Co": 27, "Ni": 28, "Cu": 29,
    "Zn": 30, "Ga": 31, "Ge": 32, "As": 33, "Se": 34, "Br": 35, "Kr": 36,
    "Rb": 37, "Sr": 38, "Y": 39, "Zr": 40, "Nb": 41, "Mo": 42, "Tc": 43,
    "Ru": 44, "Rh": 45, "Pd": 46, "Ag": 47, "Cd": 48, "In": 49, "Sn": 50,
    "Sb": 51, "Te": 52, "I": 53, "Xe": 54, "Cs": 55, "Ba": 56, "La": 57,
    "Ce": 58, "Pr": 59, "Nd": 60, "Pm": 61, "Sm": 62, "Eu": 63, "Gd": 64,
    "Tb": 65, "Dy": 66, "Ho": 67, "Er": 68, "Tm": 69, "Yb": 70, "Lu": 71,
    "Hf": 72, "Ta": 73, "W": 74, "Re": 75, "Os": 76, "Ir": 77, "Pt": 78,
    "Au": 79, "Hg": 80, "Tl": 81, "Pb": 82, "Bi": 83, "Po": 84, "At": 85,
    "Rn": 86, "Fr": 87, "Ra": 88, "Ac": 89, "Th": 90, "Pa": 91, "U": 92,
    "Np": 93, "Pu": 94, "Am": 95, "Cm": 96, "Bk": 97, "Cf": 98, "Es": 99,
    "Fm": 100, "Md": 101, "No": 102, "Lr": 103, "Rf": 104, "Db": 105,
    "Sg": 106, "Bh": 107, "Hs": 108, "Mt": 109, "Ds": 110, "Rg": 111,
    "Cn": 112, "Nh": 113, "Fl": 114, "Mc": 115, "Lv": 116, "Ts": 117,
    "Og": 118,
}

RADII_ENV_VAR = "DEMOL_RADII"


@dataclass(frozen=True)
class Element:
    symbol: str
    atomic_number: int
    covalent_radius: float  # Angstrom


class CovalentRadiiTable:
    """Symbol -> single-bond covalent radius, all radii in (0, 3) Angstrom."""

    def __init__(self, radii: Mapping[str, float]):
        elements: dict[str, Element] = {}
        for symbol, radius in radii.items():
            if symbol not in ATOMIC_NUMBERS:
                raise ParseError(f"radii table lists unknown element symbol {symbol!r}")
            radius = float(radius)
            if not 0.0 < radius < 3.0:
                raise ParseError(
                    f"covalent radius for {symbol} out of range (0, 3): {radius}"
                )
            elements[symbol] = Element(symbol, ATOMIC_NUMBERS[symbol], radius)
        if not elements:
            raise ParseError("radii table is empty")
        self._elements = elements

    def __contains__(self, symbol: str) -> bool:
        return symbol in self._elements

    def __iter__(self) -> Iterator[str]:
        return iter(self._elements)

    def __len__(self) -> int:
        return len(self._elements)

    def symbols(self) -> tuple[str, ...]:
        return tuple(self._elements)

    def element(self, symbol: str) -> Element:
        try:
            return self._elements[symbol]
        except KeyError:
            raise UnknownElementError(
                f"element symbol {symbol!r} not present in the covalent-radii table"
            ) from None

    def radius(self, symbol: str) -> float:
        return self.element(symbol).covalent_radius


def parse_radii_text(text: str) -> CovalentRadiiTable:
    radii: dict[str, float] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if len(parts) != 2:
            raise ParseError(f"radii file line {lineno}: expected 'symbol radius', got {raw!r}")
        symbol, value = parts
        try:
            radius = float(value)
        except ValueError:
            raise ParseError(f"radii file line {lineno}: non-numeric radius {value!r}") from None
        if symbol in radii:
            raise ParseError(f"radii file line {lineno}: duplicate symbol {symbol!r}")
        radii[symbol] = radius
    return CovalentRadiiTable(radii)


def load_radii_file(path: str) -> CovalentRadiiTable:
    return parse_radii_text(read_text(path, "radii file"))


def default_radii_table() -> CovalentRadiiTable:
    """Shipped table, or the file named by DEMOL_RADII when set."""
    override = os.environ.get(RADII_ENV_VAR)
    if override:
        return load_radii_file(override)
    text = resources.files("demol.data").joinpath("covalent_radii.dat").read_text("utf-8")
    return parse_radii_text(text)
