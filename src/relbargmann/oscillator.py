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

from .errors import DomainError, NonConvergenceError
from .orthopoly import cdhahn_normalized_batch
from .quadrature import _FINE_RULE


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
        if not (self.c > 0 and math.isfinite(self.c)):
            raise DomainError("oscillator parameter c must be positive and "
                              f"finite, got {self.c!r}")

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


def _check_order(k, what: str) -> int:
    """k as an int; DomainError unless it is a nonnegative integer."""
    try:
        ok = k >= 0 and k == int(k)
    except (TypeError, ValueError, OverflowError):
        ok = False
    if not ok:
        raise DomainError(f"{what} must be a nonnegative integer")
    return int(k)


def energy(k: int, osc: OscParams) -> float:
    """Energy level E_k = 2k + 2 gamma (equal spacing 2)."""
    _check_order(k, "level index k")
    return 2.0 * k + 2.0 * osc.gamma


#: end of the xi layouts of the transforms, and the shortest end of
#: ``state_end``
XI_LENGTH = 40.0


def state_end(kmax: int, osc: OscParams) -> float:
    """End max(XI_LENGTH, 3 kmax + 20, 3 kmax + 2 gamma + 10) of a layout
    that holds the states phi_0 .. phi_kmax: phi_k reaches about xi = 2k,
    past which the tail of phi_0 adds about 20, or 2 gamma + 10 once gamma
    passes 5 (c above about 2.5), where phi_0 peaks near xi = gamma."""
    return max(XI_LENGTH, 3.0 * kmax + 20.0, 3.0 * kmax + 2.0 * osc.gamma + 10.0)


def panel_width(osc: OscParams) -> float:
    """Width gamma/pi > 1/pi of the xi panels of every layout in xi."""
    return osc.gamma / math.pi


def xi_panel_grid(osc: OscParams, length: float) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights of the 32-point Gauss-Legendre rule on each of the
    ceil(length / width) panels of ``panel_width(osc)`` from xi = 0."""
    width = panel_width(osc)
    n_panels = int(math.ceil(length / width))
    xg, wg = _FINE_RULE
    mids = width * (np.arange(n_panels) + 0.5)
    nodes = (mids[:, None] + 0.5 * width * xg[None, :]).ravel()
    weights = np.tile(0.5 * width * wg, n_panels)
    return nodes, weights


def xi_node_count(osc: OscParams, length: float) -> int:
    """Size of ``xi_panel_grid(osc, length)``, found without building it."""
    return int(math.ceil(length / panel_width(osc))) * len(_FINE_RULE[0])


def _log_norms(kmax: int, gamma: float) -> np.ndarray:
    """log of (a+b)_k (a+c)_k / (Gamma(k+gamma+1/2) sqrt(k! Gamma(k+2 gamma)))
    combined with the normalised polynomial convention: the k-th coefficient
    multiplying 3F2(-k, ...; 1) collapses to sqrt(Gamma(k+2g)/k!)/(Gamma(2g)Gamma(g+1/2))."""
    k = np.arange(kmax + 1, dtype=float)
    return (0.5 * (gammaln(k + 2.0 * gamma) - gammaln(k + 1.0))
            - gammaln(2.0 * gamma) - gammaln(gamma + 0.5))


def _state_prefactor(osc: OscParams, xi: np.ndarray,
                     log_scale: float = 0.0) -> np.ndarray:
    """The k-independent factor sqrt(2) i^gamma c^(-4 i xi)
    Gamma(gamma + i xi)^2 / Gamma(i xi) of every phi_k, at xi > 0, times
    exp(log_scale), which is added to its exponent."""
    gamma = osc.gamma
    lpref = (0.5 * math.log(2.0) + log_scale + 1j * math.pi * gamma / 2.0
             - 4j * xi * math.log(osc.c)
             + 2.0 * loggamma(gamma + 1j * xi) - loggamma(1j * xi))
    return np.exp(lpref)


def _check_xi(xi) -> np.ndarray:
    xi = np.atleast_1d(np.asarray(xi, dtype=float))
    bad = ~(np.isfinite(xi) & (xi >= 0))
    if bad.any():
        raise DomainError("wave functions live on finite xi >= 0, got "
                          f"xi = {float(xi[bad][0])!r}")
    return xi


@np.errstate(over="ignore", invalid="ignore")  # a non-finite table is raised below
def eigenfunction_batch(kmax: int, osc: OscParams, xi) -> np.ndarray:
    """phi_k(xi) for k = 0..kmax stacked on the first axis; xi an array.

    Large-k evaluation goes through the normalised three-term recurrence of
    the continuous dual Hahn family, so the stack is stable for hundreds of
    levels.

    Raises
    ------
    DomainError
        If kmax is not a nonnegative integer, or xi is not finite and >= 0.
    NonConvergenceError
        If the table is not finite: the polynomials overflow for k >= 1 once
        xi^2 does (xi above about 1e154), or at large k and xi.
    """
    kmax = _check_order(kmax, "state order kmax")
    gamma = osc.gamma
    xi = _check_xi(xi)
    poly = cdhahn_normalized_batch(kmax, xi, gamma, gamma, 0.5)
    out = np.zeros((kmax + 1, len(xi)), dtype=complex)
    pos = xi > 0
    if np.any(pos):
        pref = _state_prefactor(osc, xi[pos])
        norms = np.exp(_log_norms(kmax, gamma))
        out[:, pos] = norms[:, None] * poly[:, pos] * pref[None, :]
    if not np.isfinite(out).all():
        raise NonConvergenceError(
            f"oscillator state table up to k = {kmax} is not finite "
            f"for xi up to {np.max(xi):.4g}")
    return out


@np.errstate(over="ignore", invalid="ignore")  # non-finite sums are raised below
def project_states(kmax: int, osc: OscParams, xi, values) -> np.ndarray:
    """sum_n conj(phi_k(xi_n)) values_n for k = 0..kmax.

    With quadrature weights folded into ``values`` these are the projections
    <f, phi_k>.  Since conj(phi_k) = norm_k P_k conj(pref) with P_k the real
    normalised polynomial, only the real polynomial table is built, never the
    complex state stack.

    Raises
    ------
    DomainError
        If kmax is not a nonnegative integer, or xi is not finite and >= 0.
    NonConvergenceError
        If a sum is not finite: at large k and xi the polynomials overflow
        while the prefactor underflows to 0 (from xi near 455 at k = 8000).
    """
    kmax = _check_order(kmax, "projection order kmax")
    xi = _check_xi(xi)
    values = np.asarray(values, dtype=complex)
    pos = xi > 0
    weighted = np.conj(_state_prefactor(osc, xi[pos])) * values[pos]
    return _project_weighted(kmax, osc, xi[pos], weighted)


@np.errstate(over="ignore", invalid="ignore")  # non-finite sums are raised below
def _project_weighted(kmax: int, osc: OscParams, xi: np.ndarray,
                      weighted: np.ndarray) -> np.ndarray:
    """:func:`project_states` from nodes xi > 0 and
    ``weighted = conj(_state_prefactor(osc, xi)) * values``, for callers
    that keep that prefactor."""
    gamma = osc.gamma
    poly = cdhahn_normalized_batch(kmax, xi, gamma, gamma, 0.5)
    sums = poly @ weighted.real + 1j * (poly @ weighted.imag)
    if not np.isfinite(sums).all():
        raise NonConvergenceError(
            f"oscillator projections up to k = {kmax} are not finite "
            f"for xi up to {np.max(xi):.4g}")
    return np.exp(_log_norms(kmax, gamma)) * sums


@np.errstate(over="ignore", invalid="ignore")  # the kernel sum checks finiteness
def state_polynomials(kmax: int, osc: OscParams, xi):
    """``(poly, norms)``: the real normalised polynomial table of phi_0 ..
    phi_kmax at the nodes xi, as in :func:`project_states`, and the norm
    ratios norm_k / norm_0, the k-dependent factors of
    conj(phi_k) = norms[k] * poly[k] * ``conj_state_prefactor``; a kmax
    that is not a nonnegative integer raises DomainError."""
    kmax = _check_order(kmax, "state order kmax")
    gamma = osc.gamma
    log_norms = _log_norms(kmax, gamma)
    poly = cdhahn_normalized_batch(kmax, xi, gamma, gamma, 0.5)
    return poly, np.exp(log_norms - log_norms[0])


@np.errstate(over="ignore", invalid="ignore")  # the kernel sum checks finiteness
def conj_state_prefactor(osc: OscParams, xi) -> np.ndarray:
    """The conjugated prefactor of every phi_k at nodes xi > 0, with the log
    of the k = 0 norm folded into its exponent.

    Apart, the prefactor overflows and norm_0 underflows once gamma is large
    (norm_0 = exp(-813) against a prefactor of exp(739) and more at c = 12);
    the folded factor stays finite.  Elementwise: its value at a node has the
    same bits whatever the other nodes.
    """
    return np.conj(_state_prefactor(osc, xi, _log_norms(0, osc.gamma)[0]))


def conj_state_factors(kmax: int, osc: OscParams, xi):
    """conj(phi_k(xi)) for k = 0..kmax at nodes xi > 0 as the three factors
    ``(poly, norms, conj_pref)`` of norms[k] * poly[k] * conj_pref, from
    :func:`state_polynomials` and :func:`conj_state_prefactor`."""
    return (*state_polynomials(kmax, osc, xi), conj_state_prefactor(osc, xi))


def eigenfunction(k: int, osc: OscParams, xi):
    """Oscillator eigenfunction phi_k at xi >= 0 (scalar or ndarray).

    phi_k(0) = 0 for every k: the 1/Gamma(i xi) factor vanishes in the limit,
    matching the boundary condition of the underlying wave equation.
    """
    k = _check_order(k, "level index k")
    scalar = np.ndim(xi) == 0
    vals = eigenfunction_batch(k, osc, np.atleast_1d(xi))[k]
    return complex(vals[0]) if scalar else vals


def oscillator_gram(osc: OscParams, kmax: int) -> np.ndarray:
    """Gram matrix of {phi_k}_{k<=kmax} on L^2(0, inf): the one product
    S W S^H of the table S of phi_k on
    ``xi_panel_grid(osc, state_end(kmax, osc))`` and its weights W.  That
    end grows with kmax and gamma, as the states' tails do: kmax = 20
    (xi = 80 for c <= 2.5) meets the identity to about 2e-14 for c <= 3 and
    to 2e-13 at c = 5 and 8, and kmax <= 6 keeps the end at xi = 40 for
    c <= 2.5.
    """
    kmax = _check_order(kmax, "Gram order kmax")
    xi, weights = xi_panel_grid(osc, state_end(kmax, osc))
    table = eigenfunction_batch(kmax, osc, xi)
    return (table * weights) @ table.conj().T
