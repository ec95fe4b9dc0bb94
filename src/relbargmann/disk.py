"""Hyperbolic Landau levels and their eigenbasis on the unit disk.

The magnetic Schrodinger operator studied here is the weighted Laplacian

    L_sigma = -4 (1 - z zbar) [ (1 - z zbar) d^2/dz dzbar - sigma zbar d/dzbar ]

acting on L^2 of the disk with the weight (1 - |z|^2)^(sigma - 2).  For
sigma > 1 its discrete spectrum consists of the hyperbolic Landau levels
4 m (sigma - 1 - m), m = 0 .. floor((sigma-1)/2), and each eigenspace carries
the orthonormal basis ``basis_phi`` built from Jacobi polynomials with a
negative-integer first parameter once k exceeds m.

``basis_phi`` is evaluated through an equivalent finite monomial expansion
(the image of the Jacobi connection formula), which is single-valued at
z = 0 where the raw factor zbar^(m-k) and the degenerate polynomial would
produce 0/0.  ``basis_phi`` and ``basis_phi_batch`` share one elementwise
evaluation, so Phi_k(z) has the same bits alone, in any array and stack.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy.special import gammaln

from .errors import DomainError
from .quadrature import jacobi_rule_01

DEFAULT_FD_STEP = 1e-4


@dataclass(frozen=True)
class LandauIndex:
    """Weight sigma > 1 and level number m <= floor((sigma-1)/2)."""

    sigma: float
    m: int

    def __post_init__(self):
        if not (self.sigma > 1.0 and math.isfinite(self.sigma)):
            raise DomainError("Landau levels require a finite sigma > 1, "
                              f"got {self.sigma!r}")
        if self.m < 0 or self.m != int(self.m):
            raise DomainError("level number m must be a nonnegative integer")
        if self.m > math.floor((self.sigma - 1.0) / 2.0):
            raise DomainError(
                f"m = {self.m} exceeds floor((sigma-1)/2) = "
                f"{math.floor((self.sigma - 1.0) / 2.0)}")


def landau_level(idx: LandauIndex) -> float:
    """Eigenvalue 4 m (sigma - 1 - m) of the level (sigma, m)."""
    return 4.0 * idx.m * (idx.sigma - 1.0 - idx.m)


def check_disk(z, name: str = "z"):
    """Validate |z| < 1 and return z as a complex scalar or ndarray.

    NaN fails the test, as it fails every comparison.
    """
    arr = np.asarray(z, dtype=complex)
    if not np.all(np.abs(arr) < 1.0):
        raise DomainError(f"{name} must lie strictly inside the unit disk")
    return arr if arr.shape else complex(arr)


def bergman_distance(z, w) -> float:
    """Hyperbolic (Bergman) distance between two points of the disk."""
    z = complex(z)
    w = complex(w)
    num = (1.0 - z * np.conj(w)) * (1.0 - np.conj(z) * w)
    den = (1.0 - abs(z) ** 2) * (1.0 - abs(w) ** 2)
    ratio = num.real / den
    return float(np.arccosh(np.sqrt(max(ratio, 1.0))))


def _phi_coeff_rows(k: np.ndarray, m: int, sigma: float) -> np.ndarray:
    """Coefficients C_j of Phi_k = (1-|z|^2)^-m sum_j C_j z^(k-j) zbar^(m-j)
    for each k of the array ``k``, shape (len(k), m+1), zero past j = k.

    Derived by pushing the Jacobi polynomial with first parameter m - k
    through the connection formula and absorbing zbar^(m-k); ``math.exp``
    per element keeps a row independent of the other k built with it.
    """
    lead = 0.5 * (math.log(sigma - 2 * m - 1.0) + gammaln(sigma - m)
                  + gammaln(k + 1) - math.log(math.pi)
                  - gammaln(m + 1) - gammaln(sigma - 2 * m + k))
    out = np.zeros((len(k), m + 1))
    for j in range(m + 1):
        has = k >= j
        kj = k[has]
        lt = (gammaln(m + 1) + gammaln(sigma + kj - m - j) - gammaln(kj - j + 1)
              - gammaln(m - j + 1) - gammaln(j + 1))
        expo = lead[has] + lt - gammaln(sigma - m)
        out[has, j] = [(-1.0) ** j * math.exp(x) for x in expo.tolist()]
    return out


@lru_cache(maxsize=4096)
def _phi_coeff_row(k: int, m: int, sigma: float) -> np.ndarray:
    """Row k of the coefficients, built alone; cached, treat as read-only."""
    return _phi_coeff_rows(np.array([k], dtype=float), m, sigma)


@lru_cache(maxsize=64)
def _phi_coeff_matrix(kmax: int, m: int, sigma: float) -> np.ndarray:
    """Rows k = 0..kmax of the coefficients; cached, treat as read-only."""
    return _phi_coeff_rows(np.arange(kmax + 1, dtype=float), m, sigma)


def _basis_rows(lo: int, coeffs: np.ndarray, idx: LandauIndex, z) -> np.ndarray:
    """Phi_k(z) for k = lo .. lo + len(coeffs) - 1 from their coefficient
    rows, stacked on a first axis ahead of the shape of z.

    Phi_k = (1-r)^-m P_k(r) w_k with r = |z|^2, the real Horner sum
    P_k(r) = sum_j C_j r^(min(k,m)-j) divided m times by 1 - r, and
    w_k = z^(k-m), or conj(z^(m-k)) for k < m.  Real arithmetic,
    ``np.power`` and real-times-complex products round alike in numpy's
    vector and scalar loops (a complex product's fused multiply-add depends
    on the array layout), so the bits do not depend on how z is batched.
    """
    arr = np.asarray(z, dtype=complex)
    flat = arr.reshape(-1)
    r = flat.real * flat.real + flat.imag * flat.imag
    if not (r < 1.0).all():
        raise DomainError("z must lie strictly inside the unit disk")
    m, n_rows = idx.m, len(coeffs)
    poly = np.empty((n_rows, flat.size))
    poly[:] = coeffs[:, :1]
    for j in range(1, m + 1):
        rows = slice(max(lo, j) - lo, None)  # rows k < j have no j-th term
        part = poly[rows]
        part *= r
        part += coeffs[rows, j, None]
    gap = 1.0 - r
    for _ in range(m):
        poly /= gap
    w = np.power(flat, np.abs(np.arange(lo - m, lo - m + n_rows))[:, None])
    if lo < m:
        w[:m - lo] = w[:m - lo].conj()
    return (w * poly).reshape((n_rows,) + arr.shape)


def _check_basis(k: int, idx: LandauIndex, what: str) -> int:
    if k < 0 or k != int(k):
        raise DomainError(f"{what} must be a nonnegative integer")
    if idx.sigma - 2 * idx.m - 1.0 <= 0.0:
        raise DomainError("basis normalization requires sigma - 2m - 1 > 0")
    return int(k)


def basis_phi(k: int, idx: LandauIndex, z):
    """Orthonormal eigenbasis member Phi_k^{sigma,m}(z); z may be an ndarray."""
    k = _check_basis(k, idx, "basis index k")
    row = _phi_coeff_row(k, idx.m, float(idx.sigma))
    out = _basis_rows(k, row, idx, z)[0]
    return out if out.shape else complex(out)


def basis_radial_profiles(kmax: int, idx: LandauIndex, r) -> np.ndarray:
    """Radial profiles g_k at |z|^2 = r for k = 0..kmax, shape (kmax+1, len(r)).

    On the circle |z| = sqrt(r) every basis member factors as
    Phi_k = (1-r)^-m e^(i(k-m) arg z) g_k, with the real profile
    g_k = sum_j C_j r^((k+m-2j)/2) over the monomial coefficients C_j,
    here (1-r)^m Phi_k(sqrt(r)) on the one evaluation path of Phi_k.
    """
    r = np.atleast_1d(np.asarray(r, dtype=float))
    return basis_phi_batch(kmax, idx, np.sqrt(r)).real * (1.0 - r) ** idx.m


def basis_phi_batch(kmax: int, idx: LandauIndex, z) -> np.ndarray:
    """Stack of basis_phi(k, idx, z) for k = 0..kmax along the first axis,
    row k with the bits of ``basis_phi(k, idx, z)``."""
    kmax = _check_basis(kmax, idx, "basis order kmax")
    # rows are built and cached in whole blocks of 32, so that a kmax that
    # moves from call to call (a truncation order) reuses one build
    coeffs = _phi_coeff_matrix(kmax | 31, idx.m, float(idx.sigma))[:kmax + 1]
    return _basis_rows(0, coeffs, idx, z)


def measure_density(idx: LandauIndex, z) -> float:
    """Density of the coherent-state measure against Lebesgue measure.

    Equals (sigma - 2m - 1) / (pi (1 - |z|^2)^2).
    """
    zz = check_disk(z)
    r = np.abs(np.asarray(zz)) ** 2
    out = (idx.sigma - 2 * idx.m - 1.0) / (np.pi * (1.0 - r) ** 2)
    return out if np.shape(out) else float(out)


def wirtinger_dzbar_fd(psi, z, h: float = DEFAULT_FD_STEP) -> complex:
    """Central finite-difference d(psi)/d(zbar) = (d/dx + i d/dy)/2 at z."""
    x, y = complex(z).real, complex(z).imag
    dx = (psi(complex(x + h, y)) - psi(complex(x - h, y))) / (2.0 * h)
    dy = (psi(complex(x, y + h)) - psi(complex(x, y - h))) / (2.0 * h)
    return 0.5 * (dx + 1j * dy)


def maass_apply_fd(idx: LandauIndex, psi, z, h: float = DEFAULT_FD_STEP) -> complex:
    """Apply the weighted Laplacian to psi at z by central finite differences.

    The mixed Wirtinger second derivative is a quarter of the flat Laplacian,
    realised by the compact 9-point stencil on the 3x3 neighbourhood of z;
    d/dzbar = (d/dx + i d/dy)/2 uses the centred first-difference pair.  Both
    pieces are O(h^2) accurate.

    Raises
    ------
    DomainError
        If z is within 2h of the unit circle.
    """
    z = complex(z)
    if abs(z) + 2.0 * h >= 1.0:
        raise DomainError("finite-difference stencil too close to the boundary")
    x, y = z.real, z.imag
    center = psi(z)
    east = psi(complex(x + h, y))
    west = psi(complex(x - h, y))
    north = psi(complex(x, y + h))
    south = psi(complex(x, y - h))
    corners = (psi(complex(x + h, y + h)) + psi(complex(x - h, y + h))
               + psi(complex(x + h, y - h)) + psi(complex(x - h, y - h)))
    lap = (4.0 * (east + west + north + south) + corners - 20.0 * center) / (6.0 * h * h)
    dzbar = 0.5 * ((east - west) / (2.0 * h) + 1j * (north - south) / (2.0 * h))
    r = abs(z) ** 2
    return -4.0 * (1.0 - r) * ((1.0 - r) * 0.25 * lap - idx.sigma * np.conj(z) * dzbar)


def _gram_rule_sizes(kmax: int, m: int) -> tuple[int, int]:
    """Radial and angular node counts that make ``basis_gram`` exact."""
    return kmax + 2 * m + 4, 2 * (kmax + m) + 4


def basis_gram(idx: LandauIndex, kmax: int) -> np.ndarray:
    """Gram matrix of {Phi_k}_{k<=kmax} in L^2 with weight (1-|z|^2)^(sigma-2).

    The products Phi_j conj(Phi_k) (1-r)^(2m) are polynomials in (z, zbar),
    so after absorbing (1-r)^(sigma-2m-2) into the radial rule the quadrature
    is exact for node counts past the polynomial degrees: trapezoid in the
    angle, Gauss-Jacobi in r = |z|^2.  With F the table of Phi_k (1-r)^m on
    the nodes and W their weights the matrix is the one product F W F^H.
    """
    sigma, m = idx.sigma, idx.m
    kmax = _check_basis(kmax, idx, "Gram order kmax")
    n_radial, n_angular = _gram_rule_sizes(kmax, m)
    rule = jacobi_rule_01(n_radial, 0.0, sigma - 2 * m - 2.0)
    phi = np.arange(n_angular) * (2.0 * np.pi / n_angular)
    grid = np.sqrt(rule.nodes)[:, None] * np.exp(1j * phi)[None, :]
    table = (basis_phi_batch(kmax, idx, grid)
             * (1.0 - rule.nodes[None, :, None]) ** m).reshape(kmax + 1, -1)
    weights = np.repeat(rule.weights * (np.pi / n_angular), n_angular)
    return (table * weights) @ table.conj().T
