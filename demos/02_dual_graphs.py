"""Build the atom-centric graph and its bond-centric line graph.

Bonds become nodes; two bond nodes connect when the bonds share an atom. The
line graph carries each bond's midpoint, unit direction, and length as
arrays, which feed the torsion encoding later.
"""

import numpy as np

from demol import atom_adjacency, build_bond_graph, predict_bonds
from demol.fixtures import benzene_skeleton, star_ch3

for mol in (benzene_skeleton(), star_ch3()):
    bonds = predict_bonds(mol)
    adjacency = atom_adjacency(mol.n_atoms, bonds)
    bg = build_bond_graph(mol, bonds)

    print(f"== {mol.name}: N = {mol.n_atoms} atoms, M = {bg.n_bonds} bonds")
    print("atom adjacency:")
    print(adjacency.astype(int))
    print("line-graph adjacency (bonds sharing an atom):")
    print(bg.adjacency.astype(int))

    degrees = adjacency.sum(axis=1).tolist()
    handshake = sum(d * (d - 1) // 2 for d in degrees)
    print(f"degrees {degrees} -> sum C(deg, 2) = {handshake} "
          f"= line-graph edges = {int(bg.adjacency.sum()) // 2}")

    for p in range(min(3, bg.n_bonds)):
        i, j = bg.ends[p]
        print(f"bond {p} = atoms ({i},{j}): "
              f"midpoint {np.round(bg.midpoints[p], 3)}, length {bg.lengths[p]:.3f}")
    print()

# a benzene ring's line graph is again a 6-cycle, so opposite bonds sit at
# line-graph distance 3 and fall outside the adjacency+conjugacy mask
from demol import spd_matrix, bond_mask  # noqa: E402

mol = benzene_skeleton()
bg = build_bond_graph(mol, predict_bonds(mol))
spd = spd_matrix(bg.adjacency)
print("line-graph hop counts for benzene bonds:")
print(spd)
print("bond attention mask (distance <= 2):")
print(bond_mask(spd).astype(int))
