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
produce 0/0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy.special import gammaln

from .errors import DomainError
from .quadrature import disk_radial_rule

DEFAULT_FD_STEP = 1e-4


@dataclass(frozen=True)
class LandauIndex:
    """Weight sigma > 1 and level number m <= floor((sigma-1)/2)."""

    sigma: float
    m: int

    def __post_init__(self):
        if self.sigma <= 1.0:
            raise DomainError("Landau levels require sigma > 1")
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
    """Validate |z| < 1 and return z as a complex scalar or ndarray."""
    arr = np.asarray(z, dtype=complex)
    if np.any(np.abs(arr) >= 1.0):
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


@lru_cache(maxsize=4096)
def _phi_monomial_coeffs(k: int, m: int, sigma: float) -> tuple:
    """Coefficients C_j of Phi_k = (1-|z|^2)^-m sum_j C_j z^(k-j) zbar^(m-j).

    The j-sum runs over 0 <= j <= min(k, m).  Derived by pushing the Jacobi
    polynomial with first parameter m - k through the connection formula and
    absorbing zbar^(m-k); all gamma factors are combined in log space.
    """
    lead = 0.5 * (math.log(sigma - 2 * m - 1.0) + gammaln(sigma - m)
                  + gammaln(k + 1) - math.log(math.pi)
                  - gammaln(m + 1) - gammaln(sigma - 2 * m + k))
    coeffs = []
    for j in range(min(k, m) + 1):
        lt = (gammaln(m + 1) + gammaln(sigma + k - m - j) - gammaln(k - j + 1)
              - gammaln(m - j + 1) - gammaln(j + 1))
        coeffs.append((-1.0) ** j * math.exp(lead + lt - gammaln(sigma - m)))
    return tuple(coeffs)


def basis_phi(k: int, idx: LandauIndex, z):
    """Orthonormal eigenbasis member Phi_k^{sigma,m}(z); z may be an ndarray."""
    if k < 0 or k != int(k):
        raise DomainError("basis index k must be a nonnegative integer")
    if idx.sigma - 2 * idx.m - 1.0 <= 0.0:
        raise DomainError("basis normalization requires sigma - 2m - 1 > 0")
    zz = check_disk(z)
    arr = np.asarray(zz, dtype=complex)
    zb = np.conj(arr)
    r = (arr * zb).real
    total = np.zeros_like(arr)
    for j, cj in enumerate(_phi_monomial_coeffs(int(k), idx.m, float(idx.sigma))):
        total = total + cj * arr ** (k - j) * zb ** (idx.m - j)
    total = total * (1.0 - r) ** (-idx.m)
    return total if total.shape else complex(total)


@lru_cache(maxsize=64)
def _phi_coeff_matrix(kmax: int, m: int, sigma: float) -> np.ndarray:
    """Monomial coefficients of the whole basis stack, shape (kmax+1, m+1).

    Cached and shared; treat the returned array as read-only.
    """
    out = np.zeros((kmax + 1, m + 1))
    for k in range(kmax + 1):
        row = _phi_monomial_coeffs(k, m, sigma)
        out[k, : len(row)] = row
    return out


def basis_radial_profiles(kmax: int, idx: LandauIndex, r) -> np.ndarray:
    """Radial profiles g_k at |z|^2 = r for k = 0..kmax, shape (kmax+1, len(r)).

    On the circle |z| = sqrt(r) every basis member factors as
    Phi_k = (1-r)^-m e^(i(k-m) arg z) g_k, with the real profile
    g_k = sum_j C_j r^((k+m-2j)/2) over the monomial coefficients C_j.
    """
    m, sigma = idx.m, idx.sigma
    r = np.atleast_1d(np.asarray(r, dtype=float))
    coeffs = _phi_coeff_matrix(kmax, m, sigma)
    k = np.arange(kmax + 1)
    out = np.zeros((kmax + 1, len(r)))
    for j in range(m + 1):
        # rows k < j carry a zero coefficient; give them the power r^0 so a
        # negative exponent never meets r = 0
        half_power = np.where(k >= j, 0.5 * (k + m - 2 * j), 0.0)
        out += coeffs[:, j, None] * r[None, :] ** half_power[:, None]
    return out


def basis_phi_batch(kmax: int, idx: LandauIndex, z) -> np.ndarray:
    """Stack of basis_phi(k, idx, z) for k = 0..kmax along the first axis.

    For a scalar label the whole stack is assembled from shared power tables,
    which keeps thousand-term superpositions cheap.
    """
    arr = np.asarray(check_disk(z), dtype=complex)
    if arr.shape:
        out = np.empty((kmax + 1,) + arr.shape, dtype=complex)
        for k in range(kmax + 1):
            out[k] = basis_phi(k, idx, arr)
        return out
    zz = complex(arr)
    m, sigma = idx.m, idx.sigma
    coeffs = _phi_coeff_matrix(kmax, m, sigma)
    zb = np.conj(zz)
    powers = zz ** np.arange(kmax + 1)
    out = np.zeros(kmax + 1, dtype=complex)
    for j in range(m + 1):
        out[j:] += coeffs[j:, j] * powers[: kmax + 1 - j] * zb ** (m - j)
    return out * (1.0 - (zz * zb).real) ** (-m)


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


def basis_gram(idx: LandauIndex, kmax: int, n_radial: int | None = None,
               n_angular: int | None = None) -> np.ndarray:
    """Gram matrix of {Phi_k}_{k<=kmax} in L^2 with weight (1-|z|^2)^(sigma-2).

    The products Phi_j conj(Phi_k) (1-r)^(2m) are polynomials in (z, zbar),
    so after absorbing (1-r)^(sigma-2m-2) into the radial rule the quadrature
    is exact for node counts past the polynomial degrees: trapezoid in the
    angle, Gauss-Jacobi in r = |z|^2.
    """
    sigma, m = idx.sigma, idx.m
    if sigma - 2 * m - 2.0 <= -1.0:
        raise DomainError("Gram quadrature needs sigma - 2m > 1")
    if n_radial is None:
        n_radial = kmax + 2 * m + 4
    if n_angular is None:
        n_angular = 2 * (kmax + m) + 4
    rule = disk_radial_rule(n_radial, sigma - 2 * m - 2.0)
    phi = np.arange(n_angular) * (2.0 * np.pi / n_angular)
    grid = np.sqrt(rule.nodes)[:, None] * np.exp(1j * phi)[None, :]
    fused = basis_phi_batch(kmax, idx, grid) * (1.0 - rule.nodes[None, :, None])**m
    gram = np.empty((kmax + 1, kmax + 1), dtype=complex)
    for j in range(kmax + 1):
        for k in range(j, kmax + 1):
            prod = fused[j] * np.conj(fused[k])
            angular = prod.mean(axis=1) * 2.0 * np.pi
            val = complex(0.5 * np.sum(rule.weights * angular))
            gram[j, k] = val
            gram[k, j] = np.conj(val)
    return gram
