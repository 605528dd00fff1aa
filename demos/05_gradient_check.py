"""Verify every gradient of the four-term loss with finite differences.

The reverse-mode tape is checked coordinate by coordinate against central
differences: for each of the ~2700 learnable scalars the loss is evaluated
at theta +/- h and the quotient compared with the backward-pass gradient.
"""

import time

from demol.autodiff import TapeParams, grad_check
from demol.fixtures import water
from demol.model import Model, ModelConfig
from demol.rng import RandomStream

model = Model(
    ModelConfig(d_a=8, d_b=8, d_h=2, n_heads=2, n_layers=2, ffn_multiplier=1,
                kernels=4, max_spd=5, n_length_buckets=4, elements=("H", "O"),
                loss_weights=(0.1, 0.1, 0.1, 0.1)),
    seed=7,
)
mol = water(target=0.15)
inputs = model.sample_loss_inputs(mol, RandomStream(3))


def f(tape):
    loss, _ = model.total_loss_from_inputs(inputs, tape)
    return loss, (TapeParams(model.params, tape) if tape is not None else None)


print(f"checking {model.params.size} coordinates with step 1e-4 ...")
t0 = time.monotonic()
report = grad_check(f, model.params, step=1e-4)
print(f"done in {time.monotonic() - t0:.1f} s")
print(f"max relative error:  {report.max_rel_err:.3e}")
print(f"mean relative error: {report.mean_rel_err:.3e}")
print("worst parameter blocks:")
for name, err in report.worst(8):
    print(f"  {name:45s} {err:.3e}")
