"""Tour of the structure encodings that bias attention.

Distances and inter-bond cosines pass through a bank of Gaussian bumps, a
GELU, and two projections; hop counts go through a learnable lookup table.
``assemble_bundle`` evaluates the model's own bias code for every pair, which
gives the bias matrices the attention layers read.
"""

import numpy as np

from demol import assemble_bundle, autodiff as ad, cosine_matrix, featurize_molecule
from demol.fixtures import water
from demol.model import Model, ModelConfig

np.set_printoptions(precision=4, suppress=True)

model = Model(
    ModelConfig(d_a=8, d_b=8, d_h=4, n_heads=2, n_layers=1, ffn_multiplier=2,
                kernels=8, width_dist=4.0, max_spd=5, n_length_buckets=4,
                elements=("H", "O")),
    seed=0,
)

# --- the kernel bank: soft binning of a scalar ---------------------------
mu, sigma = model._grid["enc.atom"]
print("kernel centers:", mu)
print("shared sigma:", sigma)
for d in (0.5, 1.0, 2.0):
    one, zero = ad.constant([[1.0]]), ad.constant([[0.0]])  # alpha = 1, beta = 0
    phi = ad.gaussian_kernel_features(one, zero, [d], mu, sigma).value[0]
    print(f"responses at d = {d}: argmax bump {int(np.argmax(-phi))}, "
          f"peak {phi.min():.4f}")

# each response peaks at -1/(sqrt(2 pi) sigma) when the input hits a center
print("closed-form peak:", -1.0 / (np.sqrt(2 * np.pi) * sigma))
print()

# --- water: cosines, hop counts, and the assembled bias bundle -----------
mol = water()
feats = featurize_molecule(mol)
print("water inter-bond cosines (O-H1 vs O-H2 is the 104.52 degree angle):")
print(cosine_matrix(feats.bond_graph))
print("atom hop counts:")
print(feats.spd_atom)

bundle = assemble_bundle(model, feats)
print("phi_atom (distance + hop-count bias, symmetric):")
print(bundle["phi_atom"])
print("phi_bond (distance + hop-count + torsion bias):")
print(bundle["phi_bond"])
print("cross bias atom -> bond (atom-to-midpoint distances):")
print(bundle["phi_a2b"])
