"""The transforms: classical baseline and the relativistic family.

The classical kernel maps Laguerre modes to monomials; the relativistic
kernel maps oscillator eigenstates to the disk eigenbasis, level by level,
and preserves norms.  At m = 0 the kernel collapses to a single Gauss
function and the image is holomorphic.
"""

import math

import numpy as np

from relbargmann import (ModelParams, OscParams, basis_phi, classical_bargmann,
                         isometry_check, laguerre_l, normalization,
                         oscillator_mode, relativistic_transform,
                         relativistic_transform_m0, transform_kernel_series,
                         wirtinger_dzbar_fd)
from relbargmann.reference import m0_reduced_kernel

print("classical baseline: Laguerre eigenmodes map to multiples of z^k")
sigma, k = 5.5, 2


def laguerre_mode(x):
    x = np.asarray(x, dtype=float)
    return (math.exp(0.5 * (math.lgamma(k + 1) - math.lgamma(sigma + k)))
            * x ** (0.5 * (sigma - 1.0)) * np.exp(-0.5 * x)
            * laguerre_l(k, sigma - 1.0, x))


ratios = [classical_bargmann(sigma, laguerre_mode, z)[0] / z ** k
          for z in (0.1, 0.2, 0.3)]
print(f"  B[mode_{k}](z)/z^{k} over three z: "
      + "  ".join(f"{r:.9f}" for r in ratios))

osc = OscParams(1.0)
print("\nrelativistic transform: oscillator mode j lands on disk basis "
      "member j of the coupled level")
for m in (0, 1):
    params = ModelParams(osc, m)
    idx = params.landau_index()
    z = 0.25 + 0.1j
    for j in (0, 1, 2):
        got = relativistic_transform(params, oscillator_mode(j, osc), z)
        want = basis_phi(j, idx, z)
        print(f"  m={m} j={j}:  B[phi_j](z) = {got:.8f}   "
              f"|B[phi_j] - Phi_j| = {abs(got - want):.1e}")

print("\nanalytic level (m = 0): the kernel is the reduced single-2F1 "
      "kernel K0, and the image is holomorphic")
params = ModelParams(osc, 0)
z = 0.3 + 0.2j
xi = np.linspace(0.25, 15.0, 60)
gap = np.abs(m0_reduced_kernel(osc, z, xi)
             - transform_kernel_series(params, z, xi)).max()
scale = math.sqrt(normalization(params.landau_index(), z))
print(f"  max |K0 - K| / N(z)^(1/2) over xi in (0, 15] at z = {z}: "
      f"{gap / scale:.1e}")
f = oscillator_mode(1, osc)
dzbar = wirtinger_dzbar_fd(lambda w: relativistic_transform_m0(osc, f, w),
                           0.2 + 0.1j, 1e-3)
print(f"  finite-difference d/dzbar of the image: {abs(dzbar):.1e}")

print("\nisometry: the L^2 norm of f equals the weighted Bergman norm of B[f]")
for m, f, name in ((0, oscillator_mode(0, osc), "phi_0, level 0"),
                   (1, oscillator_mode(1, osc), "phi_1, level 1")):
    rep = isometry_check(ModelParams(osc, m), f)
    print(f"  {name}:  ||f||^2 = {rep['norm_f_sq']:.8f}   "
          f"||B f||^2 = {rep['norm_Bf_sq']:.8f}   "
          f"gap = {rep['relative_gap']:.1e}")
