"""Coherent states labeled by disk points.

Demonstrates normalization, the closed-form overlap kernel against its
defining series, label continuity, the resolution of identity through the
reproducing composition, and the two routes to the wave functions.
"""

import numpy as np

from relbargmann import (CoherentLabel, LandauIndex, ModelParams, OscParams,
                         cs_distance, cs_wavefunction, cs_wavefunction_oracle,
                         normalization, overlap, overlap_series)
from relbargmann.verification import _reproducing_composition

idx = LandauIndex(7.5, 1)
print("normalization factor N(z) depends on |z| only:")
for z in (0.0, 0.3, 0.3j, 0.6):
    print(f"  N({z}) = {normalization(idx, z):10.5f}")

print("\noverlap kernel: closed form vs defining series:")
pairs = ((0.3 + 0.1j, -0.2 + 0.25j), (0.05, 0.45j), (-0.4, -0.1 - 0.3j))
for z, w in pairs:
    closed = overlap(idx, z, w)
    series = overlap_series(idx, z, w)
    print(f"  <{w}|{z}> = {closed:.6f}   |closed - series| = "
          f"{abs(closed - series):.1e}")

print("\nstates are normalized but never orthogonal:")
print(f"  |<z|z>|   = {abs(overlap(idx, 0.3, 0.3)):.12f}")
print(f"  |<w|z>|   = {abs(overlap(idx, 0.3, -0.3)):.12f}  (distinct labels)")

print("\nlabel continuity of the state distance:")
for h in (1e-2, 1e-3, 1e-4):
    print(f"  d(z, z + {h:g}) = {cs_distance(idx, 0.3, 0.3 + h):.3e}")

print("\nresolution of identity: composing two overlap kernels against the "
      "state measure reproduces the overlap:")
for (sigma, m) in ((5.0, 0), (7.5, 1)):
    jdx = LandauIndex(sigma, m)
    z, zp = 0.3 + 0.1j, -0.2 - 0.25j
    composed = _reproducing_composition(jdx, z, zp)
    print(f"  (sigma, m) = ({sigma}, {m}): defect = "
          f"{abs(composed - overlap(jdx, z, zp)):.2e}")

print("\nwave functions: hypergeometric closed form vs truncated superposition:")
params = ModelParams(OscParams(1.0), 1)
label = CoherentLabel(0.2 + 0.15j, params)
for xi in (0.5, 1.0, 2.0):
    closed = cs_wavefunction(label, xi)
    oracle = cs_wavefunction_oracle(label, xi)
    print(f"  xi = {xi}: value = {closed:.6f}   two-route gap = "
          f"{abs(closed - oracle):.1e}")
