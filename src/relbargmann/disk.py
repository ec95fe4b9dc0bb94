"""Hyperbolic Landau levels and their eigenbasis on the unit disk.

The magnetic Schrodinger operator studied here is the weighted Laplacian

    L_sigma = -4 (1 - z zbar) [ (1 - z zbar) d^2/dz dzbar - sigma zbar d/dzbar ]

acting on L^2 of the disk with the weight (1 - |z|^2)^(sigma - 2).  For
sigma > 1 its discrete spectrum consists of the hyperbolic Landau levels
4 m (sigma - 1 - m), m = 0 .. floor((sigma-1)/2), and each eigenspace carries
the orthonormal basis ``basis_phi`` built from Jacobi polynomials with a
negative-integer first parameter once k exceeds m.

Szego (4.22.2) maps that polynomial, of degree k and parameter m - k, onto
P_m^(k-m, sigma-2m-1) times |z|^(2(k-m)), which is single-valued at z = 0
where the raw factor zbar^(m-k) and the degenerate polynomial would produce
0/0.  ``basis_phi`` evaluates it by the three-term recurrence
``orthopoly.jacobi_q``, the one the coherent-state overlap runs; the
alternating monomial sum of the same polynomial cancels from m = 5.
``basis_phi`` and ``basis_phi_batch`` share one elementwise evaluation, so
Phi_k(z) has the same bits alone, in any array and stack.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import DomainError, NonConvergenceError, _check_order
from .orthopoly import jacobi_q, jacobi_q_steps
from .quadrature import jacobi_rule_01
from .special import gammaln

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
        object.__setattr__(self, "m", _check_order(self.m, "level number m"))
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
    if not (np.abs(arr) < 1.0).all():
        raise DomainError(f"{name} must lie strictly inside the unit disk")
    return arr if arr.shape else complex(arr)


def bergman_distance(z, w) -> float:
    """Hyperbolic (Bergman) distance between two points of the disk; a
    point on or outside the unit circle, or NaN, raises DomainError."""
    z = complex(check_disk(z, "z"))
    w = complex(check_disk(w, "w"))
    num = (1.0 - z * np.conj(w)) * (1.0 - np.conj(z) * w)
    den = (1.0 - abs(z) ** 2) * (1.0 - abs(w) ** 2)
    ratio = num.real / den
    return float(np.arccosh(np.sqrt(max(ratio, 1.0))))


@lru_cache(maxsize=64)
def _basis_block(kmax: int, m: int, sigma: float, lo: int):
    """``(scale, steps)`` of rows k = lo..kmax: the column s_k and the
    ``jacobi_q_steps`` of the degrees min(k, m) and a = |k - m|; cached,
    treat as read-only.

    With b = sigma - 2m - 1 and G_k = Gamma(k+b+1) / k!, increasing in k,
    s_k = sqrt(b/pi (G_k / G_m)^(+-1)), the sign that makes the power at
    least 1 (Szego (4.22.2) for k >= m).  An s_k past the double range, at
    large sigma and k (from k = 838 at sigma = 1,274, c = 30), raises
    NonConvergenceError.
    """
    k = np.arange(lo, kmax + 1, dtype=float)
    b = sigma - 2 * m - 1.0
    log_g = (gammaln(k + b + 1.0) - gammaln(k + 1.0)
             + (math.lgamma(m + 1) - math.lgamma(sigma - m)))
    with np.errstate(over="ignore"):
        scale = np.exp(0.5 * (math.log(b / math.pi) + np.abs(log_g)))
    if not np.isfinite(scale).all():
        raise NonConvergenceError(
            f"the disk basis scales of the level sigma = {sigma:.6g}, "
            f"m = {m} overflow")
    return scale[:, None], jacobi_q_steps(np.minimum(k, m)[:, None],
                                          np.abs(k - m)[:, None], b)


def _basis_rows(first: int, last: int, idx: LandauIndex, z) -> np.ndarray:
    """Phi_k(z) for k = first .. last, stacked on a first axis ahead of the
    shape of z.

    Phi_k = s_k w_k (1-r)^-m Q_n(r) with r = |z|^2, n = min(k, m) and
    Q_n = (-1)^n P_n^(|k-m|, sigma-2m-1)(1 - 2r), by ``jacobi_q`` from the
    start s_k (1-r)^-m, and w_k = z^(k-m), or conj(z^(m-k)) for k < m.
    The rows come from the ``_basis_block`` of whole blocks of 32 rows, from
    first & ~31 up to last | 31, so that a k or kmax that moves from call
    to call reuses one build.  Real arithmetic, ``np.power`` and
    real-times-complex products round alike in numpy's vector and scalar
    loops (a complex product's fused multiply-add depends on the array
    layout), so the bits do not depend on how z is batched.  Where the
    recurrence leaves the double range (at sigma = 606.7, |z| = 0.5 from
    k = 1772, where w_k underflows and 0 inf would give NaN) the call
    raises NonConvergenceError naming the first such k.
    """
    arr = np.asarray(z, dtype=complex)
    flat = arr.reshape(-1)
    r = flat.real * flat.real + flat.imag * flat.imag
    if not (r < 1.0).all():
        raise DomainError("z must lie strictly inside the unit disk")
    m, lo = idx.m, first & ~31
    scale, steps = _basis_block(last | 31, m, float(idx.sigma), lo)
    rows = slice(first - lo, last + 1 - lo)
    # a row past the double range is raised below
    with np.errstate(over="ignore", invalid="ignore"):
        poly = jacobi_q(steps[:, :, rows], r, scale[rows] * (1.0 - r) ** -m)
        w = np.power(flat, np.abs(np.arange(first - m, last + 1 - m))[:, None])
        if first < m:
            w[:m - first] = w[:m - first].conj()
        out = w * poly
    if not np.isfinite(out).all():
        finite = np.isfinite(out).all(axis=1)
        raise NonConvergenceError(
            f"the disk basis of the level sigma = {idx.sigma:.6g}, m = {m} "
            f"leaves the double range from k = {first + np.argmin(finite)} on")
    return out.reshape((last + 1 - first,) + arr.shape)


def _check_basis(k: int, idx: LandauIndex, what: str) -> int:
    k = _check_order(k, what)
    if idx.sigma - 2 * idx.m - 1.0 <= 0.0:
        raise DomainError("basis normalization requires sigma - 2m - 1 > 0")
    return k


def basis_phi(k: int, idx: LandauIndex, z):
    """Orthonormal eigenbasis member Phi_k^{sigma,m}(z); z may be an ndarray."""
    k = _check_basis(k, idx, "basis index k")
    out = _basis_rows(k, k, idx, z)[0]
    return out if out.shape else complex(out)


def basis_phi_batch(kmax: int, idx: LandauIndex, z) -> np.ndarray:
    """Stack of basis_phi(k, idx, z) for k = 0..kmax along the first axis,
    row k with the bits of ``basis_phi(k, idx, z)``."""
    kmax = _check_basis(kmax, idx, "basis order kmax")
    return _basis_rows(0, kmax, idx, z)


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
