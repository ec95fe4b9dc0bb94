"""The special-function layer: Gauss, Appell, and Kampe de Feriet kernels.

Every rewrite rule used by the transform kernels is demonstrated
numerically: the Pfaff transformation, the Appell collapse at d = b + c,
the three F5 evaluation routes, and the two bilinear generating identities
(Srivastava-Rao and Saran) that drive the closed forms.  Appell F1 and the
F5 double series and integral are the oracles of ``relbargmann.reference``;
the finite 2F1 reduction is the package's own F5.
"""

from relbargmann import gauss_2f1
from relbargmann.reference import F5Args, appell_f1, kdf_f5_integral, kdf_f5_series
from relbargmann.verification import (_f5_reduction, _saran_sides,
                                      _srivastava_rao_sides)

print("Pfaff transformation 2F1(a,b;c;x) = (1-x)^-a 2F1(a,c-b;c;x/(x-1)):")
a, b, c, x = 0.7, 0.3, 1.9, 0.4
lhs = gauss_2f1(a, b, c, x)
rhs = (1 - x) ** (-a) * gauss_2f1(a, c - b, c, x / (x - 1))
print(f"  both sides = {lhs:.12f},  gap = {abs(lhs - rhs):.1e}")

print("\nAppell F1 collapses to a Gauss function when d = b + c:")
a, b, c = 1.3, 2.1, 0.4
X, Y = 0.2, -0.1
lhs = appell_f1(a, b, c, b + c, X, Y)
rhs = (1 - Y) ** (-a) * gauss_2f1(a, b, b + c, (X - Y) / (1 - Y))
print(f"  F1 = {lhs:.12f},  gap = {abs(lhs - rhs):.1e}")

print("\nKampe de Feriet F5: three independent evaluation routes agree")
args = F5Args(c=1.2 + 0.5j, d=1.2 - 0.5j, e=1.7, a=3.4, a_prime=2.4,
              chi=0.15, zeta=0.2)
series = kdf_f5_series(args)
integral = kdf_f5_integral(args)
reduction = _f5_reduction(args)
print(f"  double series        : {series:.12f}")
print(f"  Euler-type integral  : gap {abs(integral - series):.1e}")
print(f"  finite 2F1 reduction : gap {abs(reduction - series):.1e}")

print("\n  the reduction keeps working outside the series domain "
      "(|zeta| > 1, as the transform kernels require):")
wide = F5Args(c=1.366 + 1j, d=1.366 - 1j, e=1.866, a=3.732, a_prime=2.732,
              chi=-5.0 / 3.0, zeta=4.0 / 3.0)
print(f"  F5 at (chi, zeta) = (-5/3, 4/3): {_f5_reduction(wide):.10f}")

print("\n  collapse at a = a': F5 -> 2F1 at the combined argument:")
col = F5Args(c=1.2 + 0.5j, d=1.2 - 0.5j, e=1.7, a=2.4, a_prime=2.4,
             chi=0.15, zeta=0.2)
gap = abs(kdf_f5_series(col) - gauss_2f1(col.c, col.d, 1.7, 0.35))
print(f"  double series against 2F1: gap = {gap:.1e}")

print("\nSrivastava-Rao bilinear sum of paired Jacobi polynomials:")
for case in ((0.2, 2.0, 1.5, 0.3, -0.4), (-0.25, 3.0, 2.2, 0.6, 0.1)):
    lhs, rhs = _srivastava_rao_sides(*case)
    print(f"  t={case[0]:+.2f}: closed-form gap = {abs(lhs - rhs):.1e}")

print("\nSaran bilinear generating formula (reduced b = d case):")
for theta, V, y in ((0.25, -2.0, 0.3), (0.3, -2.5, 0.35)):
    lhs, rhs = _saran_sides(1.15, 1, 0.8 + 0.3j, theta, V, y)
    print(f"  theta={theta}: F1 closed-form gap = {abs(lhs - rhs):.1e}")
