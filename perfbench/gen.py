"""Seeded input generator for the demol benchmark.

Every input the benchmark feeds to the program is XYZ text made here from the
workload seed; the program never sees the seed. The same seed gives the same
text on every machine, because only ``random.Random.random`` is used and all
coordinates are written with six decimals.

Three shapes of molecule are made, each for a reason (see WORKLOADS):

* small organics: QM9-like H/C/N/O trees of 9-29 atoms on a jittered diamond
  lattice, hydrogens filling the free valences;
* chains: a zig-zag heavy-atom backbone, so about 1% of atom pairs fall inside
  the 5 Angstrom attention cutoff at N=800;
* clusters: small organics packed densely in a ball, so a much larger share of
  atom pairs fall inside the cutoff while the bond graph stays sparse.

Placement checks keep every non-bonded pair at least 0.15 Angstrom beyond the
covalent-radii bond threshold, so bond perception finds exactly the intended
bonds.
"""

from __future__ import annotations

import math
import random

# Why each workload exists; printed by run.py and recorded in the baseline.
WORKLOADS = {
    "train_small": (
        "deterministic AdamW training on 16 QM9-like molecules of 9-29 atoms: the cost is "
        "per-tape-node interpreter overhead, so autodiff, the per-head loop, losses and "
        "training dominate, not geometry"
    ),
    "predict_large": (
        "Model.predict with featurization on a chain and a packed cluster at N=200, 400, 800: "
        "the quadratic Python front end dominates, and mask density differs by shape, "
        "which tests the near-linear claim"
    ),
    "cli": (
        "closed-loop demol processes (predict water.xyz; featurize --dataset of 16 molecules): "
        "import and Model initialisation dominate, plus the featurize export path and JSON"
    ),
}

# Covalent radii of the shipped table and the default bond factor.
RADII = {"H": 0.31, "C": 0.76, "N": 0.71, "O": 0.66}
ALPHA = 1.15
VALENCE = {"C": 4, "N": 3, "O": 2}
H_LENGTH = {"C": 1.09, "N": 1.01, "O": 0.96}
HEAVY_BOND = 1.45  # every heavy-heavy pair, so O-O (1.518 threshold) still bonds
JITTER = 0.02  # per coordinate, Angstrom
MARGIN = 0.15  # non-bonded pairs stay this far beyond the bond threshold
CLUSTER_GAP = 2.0  # closest allowed contact between packed molecules

SIZES = (200, 400, 800)
REFERENCE_SEED = 20240  # inputs whose results are recorded in expected.json
N_SMALL = 16


def threshold(a: str, b: str) -> float:
    return ALPHA * (RADII[a] + RADII[b])


class Rng:
    """Seeded stream built only on ``random.Random.random``."""

    def __init__(self, seed: int):
        self._r = random.Random(seed)

    def uniform(self, lo: float = 0.0, hi: float = 1.0) -> float:
        return lo + (hi - lo) * self._r.random()

    def below(self, n: int) -> int:
        return min(int(self._r.random() * n), n - 1)

    def pick(self, items):
        return items[self.below(len(items))]

    def shuffled(self, items):
        items = list(items)
        for i in range(len(items) - 1, 0, -1):
            j = self.below(i + 1)
            items[i], items[j] = items[j], items[i]
        return items

    def jitter(self, xyz):
        return [v + self.uniform(-JITTER, JITTER) for v in xyz]


def _dist2(a, b) -> float:
    return (a[0] - b[0]) ** 2 + (a[1] - b[1]) ** 2 + (a[2] - b[2]) ** 2


def _clear(pos, sym, atoms, skip) -> bool:
    """True when pos is beyond threshold + MARGIN from every atom not in skip."""
    for k, (s, p) in enumerate(atoms):
        if k in skip:
            continue
        limit = threshold(sym, s) + MARGIN
        if _dist2(pos, p) < limit * limit:
            return False
    return True


# Tetrahedral directions of the A sublattice; B sites use their negatives.
_TETRA = ((1, 1, 1), (1, -1, -1), (-1, 1, -1), (-1, -1, 1))


def _neighbor_sites(site):
    x, y, z, sub = site
    sign = 1 if sub == 0 else -1
    return [(x + sign * d[0], y + sign * d[1], z + sign * d[2], 1 - sub) for d in _TETRA]


def _site_xyz(site, scale):
    return [site[0] * scale, site[1] * scale, site[2] * scale]


def small_organic(rng: Rng, n_atoms: int | None = None) -> list[tuple[str, list[float]]]:
    """A QM9-like tree of 3-9 heavy atoms with hydrogens: n_atoms atoms, or any of 9-29."""
    scale = HEAVY_BOND / math.sqrt(3.0)
    while True:
        n_heavy = 3 + rng.below(7)
        sites = [(0, 0, 0, 0)]
        elems = ["C"]
        occupied = {sites[0]: 0}
        degree = [0]
        while len(sites) < n_heavy:
            grown = False
            for parent in rng.shuffled(range(len(sites))):
                if degree[parent] >= VALENCE[elems[parent]]:
                    continue
                free = [
                    s for s in _neighbor_sites(sites[parent])
                    if s not in occupied
                    and all(occupied.get(t, parent) == parent for t in _neighbor_sites(s))
                ]
                if not free:
                    continue
                site = rng.pick(free)
                u = rng.uniform()
                elem = "C" if u < 0.7 else ("N" if u < 0.85 else "O")
                if elem == "O" and elems[parent] == "O":
                    elem = "C"
                occupied[site] = len(sites)
                sites.append(site)
                elems.append(elem)
                degree.append(1)
                degree[parent] += 1
                grown = True
                break
            if not grown:
                break
        atoms = [(e, rng.jitter(_site_xyz(s, scale))) for e, s in zip(elems, sites)]
        for idx in range(len(sites)):
            parent_pos = atoms[idx][1]
            free = [s for s in _neighbor_sites(sites[idx]) if s not in occupied]
            for s in rng.shuffled(free)[: VALENCE[elems[idx]] - degree[idx]]:
                target = _site_xyz(s, scale)
                d = math.sqrt(_dist2(target, _site_xyz(sites[idx], scale)))
                length = H_LENGTH[elems[idx]]
                pos = rng.jitter([
                    parent_pos[k] + (target[k] - _site_xyz(sites[idx], scale)[k]) * length / d
                    for k in range(3)
                ])
                if _clear(pos, "H", atoms, {idx}):
                    atoms.append(("H", pos))
        if len(atoms) == n_atoms or (n_atoms is None and 9 <= len(atoms) <= 29):
            return atoms


def _fragment(name: str):
    """Water, ammonia or methane, centred near the origin."""
    if name == "water":
        return [("O", [0.0, 0.0, 0.0]), ("H", [0.9572, 0.0, 0.0]), ("H", [-0.2399, 0.9266, 0.0])]
    if name == "ammonia":
        return [("N", [0.0, 0.0, 0.0]), ("H", [0.0, 0.9377, 0.3816]),
                ("H", [0.8121, -0.4689, 0.3816]), ("H", [-0.8121, -0.4689, 0.3816])]
    d = 1.09 / math.sqrt(3.0)
    return [("C", [0.0, 0.0, 0.0])] + [("H", [d * a, d * b, d * c]) for a, b, c in _TETRA]


def _rotation(rng: Rng):
    """A uniformly random rotation matrix from a unit quaternion."""
    u1, u2, u3 = rng.uniform(), rng.uniform(), rng.uniform()
    a = math.sqrt(1 - u1) * math.sin(2 * math.pi * u2)
    b = math.sqrt(1 - u1) * math.cos(2 * math.pi * u2)
    c = math.sqrt(u1) * math.sin(2 * math.pi * u3)
    w = math.sqrt(u1) * math.cos(2 * math.pi * u3)
    return (
        (1 - 2 * (b * b + c * c), 2 * (a * b - c * w), 2 * (a * c + b * w)),
        (2 * (a * b + c * w), 1 - 2 * (a * a + c * c), 2 * (b * c - a * w)),
        (2 * (a * c - b * w), 2 * (b * c + a * w), 1 - 2 * (a * a + b * b)),
    )


def _place(rng: Rng, mol, centre):
    rot = _rotation(rng)
    n = len(mol)
    mid = [sum(p[k] for _, p in mol) / n for k in range(3)]
    out = []
    for s, p in mol:
        q = [p[k] - mid[k] for k in range(3)]
        out.append((s, [centre[k] + sum(rot[k][j] * q[j] for j in range(3)) for k in range(3)]))
    return out


def cluster(rng: Rng, n_atoms: int) -> list[tuple[str, list[float]]]:
    """Small organics, then fragments, packed cell by cell into a compact ball."""
    spacing = 4.6
    reach = int(math.ceil((n_atoms / 8.0) ** (1.0 / 3.0))) + 3
    cells = sorted(
        ((i, j, k) for i in range(-reach, reach + 1)
         for j in range(-reach, reach + 1) for k in range(-reach, reach + 1)),
        key=lambda c: (c[0] ** 2 + c[1] ** 2 + c[2] ** 2, c),
    )
    atoms: list[tuple[str, list[float]]] = []
    cell_iter = iter(cells)

    def put(mol) -> None:
        for cell in cell_iter:
            centre = [spacing * c + rng.uniform(-0.3, 0.3) for c in cell]
            for _ in range(6):
                placed = _place(rng, mol, centre)
                if all(_clear_gap(p, atoms) for _, p in placed):
                    atoms.extend(placed)
                    return
        raise RuntimeError("cluster grid exhausted")

    while n_atoms - len(atoms) >= 32:
        put(small_organic(rng))
    rest = n_atoms - len(atoms)
    while rest > 7 or rest == 5:
        put(_fragment("methane"))
        rest -= 5
    for name in {0: (), 3: ("water",), 4: ("ammonia",), 6: ("water", "water"),
                 7: ("water", "ammonia")}[rest]:
        put(_fragment(name))
    return atoms


def _clear_gap(pos, atoms) -> bool:
    gap2 = CLUSTER_GAP * CLUSTER_GAP
    return all(_dist2(pos, p) >= gap2 for _, p in atoms)


def chain(rng: Rng, n_atoms: int) -> list[tuple[str, list[float]]]:
    """All-trans zig-zag heavy-atom backbone, mostly carbon, no O-O neighbours."""
    half = math.radians(109.47) / 2.0
    dx, dy = HEAVY_BOND * math.sin(half), HEAVY_BOND * math.cos(half)
    atoms = []
    prev = ""
    for i in range(n_atoms):
        u = rng.uniform()
        elem = "C" if u < 0.8 else ("N" if u < 0.9 else "O")
        if elem == "O" and prev == "O":
            elem = "C"
        prev = elem
        atoms.append((elem, rng.jitter([i * dx, (i % 2) * dy, 0.0])))
    return atoms


def target_ev(rng: Rng, atoms) -> float:
    """A smooth size-extensive property with a little noise, in eV."""
    per = {"H": -0.05, "C": -0.10, "N": -0.08, "O": -0.09}
    return round(sum(per[s] for s, _ in atoms) + 0.05 * (rng.uniform() - 0.5), 6)


def to_xyz(atoms, name: str) -> str:
    lines = [str(len(atoms)), name]
    lines += ["%s %.6f %.6f %.6f" % (s, p[0], p[1], p[2]) for s, p in atoms]
    return "\n".join(lines) + "\n"


WATER_XYZ = to_xyz(_fragment("water"), "water")


def small_set(seed: int) -> list[tuple[str, str, float]]:
    """N_SMALL (name, xyz text, target eV) triples.

    Sizes are fixed and spread evenly over 9-29 atoms, so the work per epoch
    barely changes from seed to seed; the seed chooses the molecules.
    """
    rng = Rng(seed * 1_000_003 + 1)
    out = []
    for k in range(N_SMALL):
        atoms = small_organic(rng, 9 + (20 * k) // (N_SMALL - 1))
        out.append((f"mol{k:02d}", to_xyz(atoms, f"mol{k:02d}"), target_ev(rng, atoms)))
    return out


def large_set(seed: int) -> list[tuple[str, str, int]]:
    """(name, xyz text, N) for a chain and a cluster at each size."""
    rng = Rng(seed * 1_000_003 + 2)
    out = []
    for n in SIZES:
        out.append((f"chain{n}", to_xyz(chain(rng, n), f"chain{n}"), n))
        out.append((f"cluster{n}", to_xyz(cluster(rng, n), f"cluster{n}"), n))
    return out
