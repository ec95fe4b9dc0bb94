"""Relativistic pseudoharmonic oscillator: parameterization, spectrum, states.

Units are hbar = m = omega = 1 throughout; the single model parameter is
c > 0, entering through gamma(c) = (1 + sqrt(1 + 2 c^4)) / 2 > 1.  The
eigenfunctions on the half line are continuous dual Hahn polynomials dressed
with gamma-function weights,

    phi_k(xi) = sqrt(2) i^gamma c^(-4 i xi) Gamma(gamma + i xi)^2 / Gamma(i xi)
                / (Gamma(k + gamma + 1/2) sqrt(k! Gamma(k + 2 gamma)))
                * S_k(xi^2; gamma, gamma, 1/2),

with the phase conventions i^gamma = exp(i pi gamma / 2) and principal
logarithms.  They vanish at xi = 0 (the reciprocal gamma kills the boundary)
and form an orthonormal system in L^2(0, inf).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import gammaln, loggamma

from .errors import DomainError
from .orthopoly import cdhahn_normalized_batch


def gamma_of_c(c: float) -> float:
    """Oscillator exponent gamma = (1 + sqrt(1 + 2 c^4)) / 2 for c > 0."""
    if not c > 0:
        raise DomainError("oscillator parameter c must be positive")
    return 0.5 * (1.0 + math.sqrt(1.0 + 2.0 * c ** 4))


@dataclass(frozen=True)
class OscParams:
    """Oscillator parameter c; gamma is always recomputed, never stored."""

    c: float

    def __post_init__(self):
        if not self.c > 0:
            raise DomainError("oscillator parameter c must be positive")

    @property
    def gamma(self) -> float:
        return gamma_of_c(self.c)


@dataclass(frozen=True)
class ModelParams:
    """Coupled parameter set (c, m) with the disk weight sigma = 2(gamma + m)."""

    osc: OscParams
    m: int

    def __post_init__(self):
        if self.m < 0 or self.m != int(self.m):
            raise DomainError("level number m must be a nonnegative integer")

    @property
    def gamma(self) -> float:
        return self.osc.gamma

    @property
    def sigma(self) -> float:
        return 2.0 * (self.osc.gamma + self.m)

    def landau_index(self):
        from .disk import LandauIndex

        return LandauIndex(sigma=self.sigma, m=self.m)


def energy(k: int, osc: OscParams) -> float:
    """Energy level E_k = 2k + 2 gamma (equal spacing 2)."""
    if k < 0 or k != int(k):
        raise DomainError("level index k must be a nonnegative integer")
    return 2.0 * k + 2.0 * osc.gamma


def _log_norms(kmax: int, gamma: float) -> np.ndarray:
    """log of (a+b)_k (a+c)_k / (Gamma(k+gamma+1/2) sqrt(k! Gamma(k+2 gamma)))
    combined with the normalised polynomial convention: the k-th coefficient
    multiplying 3F2(-k, ...; 1) collapses to sqrt(Gamma(k+2g)/k!)/(Gamma(2g)Gamma(g+1/2))."""
    k = np.arange(kmax + 1, dtype=float)
    return (0.5 * (gammaln(k + 2.0 * gamma) - gammaln(k + 1.0))
            - gammaln(2.0 * gamma) - gammaln(gamma + 0.5))


def _state_prefactor(osc: OscParams, xi: np.ndarray) -> np.ndarray:
    """The k-independent factor sqrt(2) i^gamma c^(-4 i xi)
    Gamma(gamma + i xi)^2 / Gamma(i xi) of every phi_k, at xi > 0."""
    gamma = osc.gamma
    lpref = (0.5 * math.log(2.0) + 1j * math.pi * gamma / 2.0
             - 4j * xi * math.log(osc.c)
             + 2.0 * loggamma(gamma + 1j * xi) - loggamma(1j * xi))
    return np.exp(lpref)


def _check_xi(xi) -> np.ndarray:
    xi = np.atleast_1d(np.asarray(xi, dtype=float))
    if np.any(xi < 0):
        raise DomainError("oscillator eigenfunctions live on xi >= 0")
    return xi


def eigenfunction_batch(kmax: int, osc: OscParams, xi) -> np.ndarray:
    """phi_k(xi) for k = 0..kmax stacked on the first axis; xi an array.

    Large-k evaluation goes through the normalised three-term recurrence of
    the continuous dual Hahn family, so the stack is stable for hundreds of
    levels.
    """
    gamma = osc.gamma
    xi = _check_xi(xi)
    poly = cdhahn_normalized_batch(kmax, xi, gamma, gamma, 0.5)
    out = np.zeros((kmax + 1, len(xi)), dtype=complex)
    pos = xi > 0
    if np.any(pos):
        pref = _state_prefactor(osc, xi[pos])
        norms = np.exp(_log_norms(kmax, gamma))
        out[:, pos] = norms[:, None] * poly[:, pos] * pref[None, :]
    return out


def project_states(kmax: int, osc: OscParams, xi, values) -> np.ndarray:
    """sum_n conj(phi_k(xi_n)) values_n for k = 0..kmax.

    With quadrature weights folded into ``values`` these are the projections
    <f, phi_k>.  Since conj(phi_k) = norm_k P_k conj(pref) with P_k the real
    normalised polynomial, only the real polynomial table is built, never the
    complex state stack.
    """
    gamma = osc.gamma
    xi = _check_xi(xi)
    values = np.asarray(values, dtype=complex)
    pos = xi > 0
    poly = cdhahn_normalized_batch(kmax, xi[pos], gamma, gamma, 0.5)
    weighted = np.conj(_state_prefactor(osc, xi[pos])) * values[pos]
    sums = poly @ weighted.real + 1j * (poly @ weighted.imag)
    return np.exp(_log_norms(kmax, gamma)) * sums


def eigenfunction(k: int, osc: OscParams, xi):
    """Oscillator eigenfunction phi_k at xi >= 0 (scalar or ndarray).

    phi_k(0) = 0 for every k: the 1/Gamma(i xi) factor vanishes in the limit,
    matching the boundary condition of the underlying wave equation.
    """
    if k < 0 or k != int(k):
        raise DomainError("level index k must be a nonnegative integer")
    scalar = np.ndim(xi) == 0
    vals = eigenfunction_batch(int(k), osc, np.atleast_1d(xi))[int(k)]
    return complex(vals[0]) if scalar else vals


def oscillator_gram(osc: OscParams, kmax: int, tol: float = 1e-8,
                    xi_max: float = 40.0) -> np.ndarray:
    """Gram matrix of {phi_k}_{k<=kmax} on L^2(0, inf) by panel quadrature.

    All pairs are accumulated in a single pass over the quadrature panels.
    """
    gamma = osc.gamma
    gram = np.zeros((kmax + 1, kmax + 1), dtype=complex)

    def integrand(xi):
        vals = eigenfunction_batch(kmax, osc, xi)
        return np.einsum("in,jn->ijn", vals, np.conj(vals))

    width = max(gamma / math.pi, 0.25)
    from numpy.polynomial.legendre import leggauss

    xg, wg = leggauss(32)
    lo = 0.0
    quiet = 0
    while lo < xi_max and quiet < 2:
        hi = min(lo + width, xi_max)
        mid, half = 0.5 * (hi + lo), 0.5 * (hi - lo)
        blocks = integrand(mid + half * xg)
        panel = half * np.einsum("ijn,n->ij", blocks, wg)
        gram += panel
        if np.max(np.abs(panel)) < tol / 10.0:
            quiet += 1
        else:
            quiet = 0
        lo = hi
    return gram
