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
from functools import lru_cache

import numpy as np

from .errors import DomainError, NonConvergenceError, _check_order
from .orthopoly import cdhahn_normalized_batch, cdhahn_normalized_row
from .quadrature import _KRONROD_RULE
from .special import gammaln, log_gamma_ratio


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
        object.__setattr__(self, "m", _check_order(self.m, "level number m"))

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
    _check_order(k, "level index k")
    return 2.0 * k + 2.0 * osc.gamma


#: end of the first block of the walk of f over the xi layout
#: (``bargmann._walk_values``), and the shortest end of ``state_end``
XI_LENGTH = 40.0
#: the states phi_0 .. phi_20 that ``isometry_check`` projects f on; the
#: one xi layout of c ends at ``state_end(_ISOMETRY_KMAX, osc)``
_ISOMETRY_KMAX = 20
#: most entries of a table built in one piece: the Gram matrices' basis
#: tables here and in ``verify``, and the grids and (z, xi) pairs of the
#: CLI; each is counted before anything is allocated
MAX_TABLE_ENTRIES = 1_000_000
#: most entries of one block of the state tables of
#: ``coherent.transform_kernel_series_grid``
LAYOUT_BLOCK_NODES = 16384


def state_end(kmax: int, osc: OscParams) -> float:
    """End max(XI_LENGTH, 3 kmax + 20, 3 kmax + 2 gamma + 10) of a layout
    that holds the states phi_0 .. phi_kmax: phi_k reaches about xi = 2k,
    past which the tail of phi_0 adds about 20, or 2 gamma + 10 once gamma
    passes 5 (c above about 2.5), where phi_0 peaks near xi = gamma.  The
    ``xi_layout`` of c at the end of kmax = 20 is the one layout that the
    transforms, ``isometry_check`` and ``oscillator_gram`` integrate on;
    only a Gram past kmax = 20 takes a longer end."""
    return max(XI_LENGTH, 3.0 * kmax + 20.0, 3.0 * kmax + 2.0 * osc.gamma + 10.0)


def panel_width(osc: OscParams) -> float:
    """Width w(gamma) = min(2 gamma/pi, max(8, gamma/(4 pi))) > 2/pi of
    the xi panels of every layout in xi, each with the 21-point
    Gauss-Kronrod rule.

    The law is kept by a scan over c in [0.2, 20] (``TestWidthLaw`` in
    ``tests/test_oscillator.py``), which checks that
    (i) ``oscillator_gram(osc, 20)`` is within 1e-11 of the identity,
    (ii) B[phi_j] moves by at most 1e-12 max(1, |Phi_j|) from its value on
    panels of half the width, for c <= 3,
    (iii) the reported error is at most 1e-9 max(1, |Phi_j|) for c <= 2,
    and the true error at most the reported one plus a rounding allowance
    of 1e-13 max(1, |Phi_j|), and
    (iv) no layout holds more than twice the nodes of panels of gamma/pi
    with 48 nodes each (16- and 32-point Gauss-Legendre rules).
    Up to gamma = 4 pi (c about 4.1) the panels are 2 gamma/pi wide, the
    widest multiple of gamma/pi that keeps (iii) at c = 2 (3.8e-9 at
    2.5 gamma/pi); from there they are 8 wide, and past gamma = 32 pi
    (c about 11.9) gamma/(4 pi): at large gamma the weight |pref|^2 of the
    states peaks near xi = gamma with a width of order sqrt(gamma), and
    panels of gamma/pi leave the Gram matrices 2e-8 (c = 12) to 1e-3
    (c = 20) from the identity.
    """
    gamma = osc.gamma
    return min(2.0 * gamma / math.pi, max(8.0, gamma / (4.0 * math.pi)))


def _log_norms(kmax: int, gamma: float) -> np.ndarray:
    """log of (a+b)_k (a+c)_k / (Gamma(k+gamma+1/2) sqrt(k! Gamma(k+2 gamma)))
    combined with the normalised polynomial convention: the k-th coefficient
    multiplying 3F2(-k, ...; 1) collapses to sqrt(Gamma(k+2g)/k!)/(Gamma(2g)Gamma(g+1/2))."""
    k = np.arange(kmax + 1, dtype=float)
    return (0.5 * (gammaln(k + 2.0 * gamma) - gammaln(k + 1.0))
            - math.lgamma(2.0 * gamma) - math.lgamma(gamma + 0.5))


def _state_prefactor(osc: OscParams, xi: np.ndarray,
                     log_scale: float = 0.0) -> np.ndarray:
    """The k-independent factor sqrt(2) i^gamma c^(-4 i xi)
    Gamma(gamma + i xi)^2 / Gamma(i xi) of every phi_k, at xi > 0, times
    exp(log_scale), which is added to its exponent."""
    gamma = osc.gamma
    lpref = (0.5 * math.log(2.0) + log_scale + 1j * math.pi * gamma / 2.0
             - 4j * xi * math.log(osc.c) + log_gamma_ratio(gamma, xi))
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
    levels.  phi_k = norms[k] P_k conj(conj_pref) from the
    :func:`conj_state_factors`, whose folded prefactor stays finite at
    large c.

    Raises
    ------
    DomainError
        If kmax is not a nonnegative integer, or xi is not finite and >= 0.
    NonConvergenceError
        If the table is not finite: the polynomials overflow for k >= 1 once
        xi^2 does (xi above about 1e154), or at large k and xi.
    """
    kmax = _check_order(kmax, "state order kmax")
    xi = _check_xi(xi)
    out = np.zeros((kmax + 1, len(xi)), dtype=complex)
    pos = xi > 0
    if np.any(pos):
        poly, norms, conj_pref = conj_state_factors(kmax, osc, xi[pos])
        out[:, pos] = norms[:, None] * poly * np.conj(conj_pref)[None, :]
    if not np.isfinite(out).all():
        raise NonConvergenceError(
            f"oscillator state table up to k = {kmax} is not finite "
            f"for xi up to {np.max(xi):.4g}")
    return out


def project_states(kmax: int, osc: OscParams, xi, values) -> np.ndarray:
    """sum_n conj(phi_k(xi_n)) values_n for k = 0..kmax.

    With quadrature weights folded into ``values`` these are the projections
    <f, phi_k>.  Since conj(phi_k) = norms[k] P_k conj_pref with P_k the
    real normalised polynomial (:func:`conj_state_factors`), only the real
    polynomial table is built, never the complex state stack.

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
    return _project(conj_state_factors(kmax, osc, xi[pos]), values[pos])


@np.errstate(over="ignore", invalid="ignore")  # non-finite sums are raised below
def _project(factors, values: np.ndarray) -> np.ndarray:
    """sum_n conj(phi_k(xi_n)) values_n from the ``conj_state_factors``
    ``(poly, norms, conj_pref)`` at nodes xi_n > 0, by two real products
    with the polynomial table."""
    poly, norms, conj_pref = factors
    weighted = conj_pref * values
    sums = poly @ weighted.real + 1j * (poly @ weighted.imag)
    if not np.isfinite(sums).all():
        raise NonConvergenceError(
            f"oscillator projections up to k = {len(poly) - 1} are not "
            "finite")
    return norms * sums


@lru_cache(maxsize=64)
def state_norms(kmax: int, osc: OscParams) -> np.ndarray:
    """The norm ratios norm_k / norm_0, k = 0..kmax, of
    :func:`state_polynomials`, elementwise: the first rows of a longer
    array have the bits of a shorter one.  Cached, read-only: a grid route
    reads them for its coefficients and again with its state table."""
    log_norms = _log_norms(kmax, osc.gamma)
    out = np.exp(log_norms - log_norms[0])
    out.flags.writeable = False
    return out


@np.errstate(over="ignore", invalid="ignore")  # the kernel sum checks finiteness
def state_polynomials(kmax: int, osc: OscParams, xi):
    """``(poly, norms)``: the real normalised polynomial table of phi_0 ..
    phi_kmax at the nodes xi, as in :func:`project_states`, and the norm
    ratios norm_k / norm_0 (:func:`state_norms`), the k-dependent factors
    of conj(phi_k) = norms[k] * poly[k] * ``conj_state_prefactor``; a kmax
    that is not a nonnegative integer raises DomainError."""
    kmax = _check_order(kmax, "state order kmax")
    gamma = osc.gamma
    poly = cdhahn_normalized_batch(kmax, xi, gamma, gamma, 0.5)
    return poly, state_norms(kmax, osc)


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
    :func:`state_polynomials` and :func:`conj_state_prefactor`: the one
    factorisation of the states that every table, projection, Gram matrix
    and kernel sum of the package uses."""
    return (*state_polynomials(kmax, osc, xi), conj_state_prefactor(osc, xi))


def _panel_count(osc: OscParams, end: float) -> int:
    """Number ceil(end / width) of the panels of ``xi_layout(osc, end)``."""
    return math.ceil(end / panel_width(osc))


@lru_cache(maxsize=32)
def xi_layout(osc: OscParams, end: float):
    """``(nodes, half, conj_pref, weights)`` of the xi layout of c that
    ends at ``end``: the one source of xi nodes of the package.

    Panels of ``panel_width(osc)`` from xi = 0, their edges made by repeated
    addition of the width as a panel walk makes them, the last one cut at
    ``end``; ``nodes``, flat in panel order, carries the 21-point
    Gauss-Kronrod rule of each panel (``quadrature._KRONROD_RULE``, with
    the 10-point Gauss rule at its odd positions), ``half`` the half
    widths, ``conj_pref`` the :func:`conj_state_prefactor` at every node
    (all xi > 0) and ``weights`` the Kronrod weights half w_21 of every
    node, the half-line rule of the norms and Gram matrices.  The package
    reads one end per c, ``state_end(20, osc)``:
    the transforms and ``isometry_check`` through the walk of f
    (``bargmann._walk_values``), and ``oscillator_gram`` up to kmax = 20;
    a longer Gram builds its own layout past the cache.  It depends on
    (c, end) alone, so it is built once per key and cached (32 bytes a
    node, under 86 kB an entry for an end <= 80); the arrays are
    read-only.
    """
    width = panel_width(osc)
    n_panels = _panel_count(osc, end)
    edges = np.minimum(np.cumsum(np.r_[0.0, np.full(n_panels, width)]), end)
    mid = 0.5 * (edges[1:] + edges[:-1])
    half = 0.5 * (edges[1:] - edges[:-1])
    nodes = (mid[:, None] + half[:, None] * _KRONROD_RULE[0]).ravel()
    conj_pref = conj_state_prefactor(osc, nodes)
    weights = (half[:, None] * _KRONROD_RULE[1]).ravel()
    for arr in (nodes, half, conj_pref, weights):
        arr.flags.writeable = False
    return nodes, half, conj_pref, weights


def oscillator_gram_entries(osc: OscParams, kmax: int) -> int:
    """Entries (kmax + 1) x nodes of the polynomial table of
    ``oscillator_gram(osc, kmax)``: the nodes of its layout, counted
    without building it."""
    end = state_end(max(kmax, _ISOMETRY_KMAX), osc)
    return (kmax + 1) * _panel_count(osc, end) * len(_KRONROD_RULE[0])


def eigenfunction(k: int, osc: OscParams, xi):
    """Oscillator eigenfunction phi_k at xi >= 0 (scalar or ndarray).

    phi_k(0) = 0 for every k: the 1/Gamma(i xi) factor vanishes in the limit,
    matching the boundary condition of the underlying wave equation.  Row k
    alone of the polynomial recurrence is kept (three rows in a cycle,
    ``orthopoly.cdhahn_normalized_row``), with the bits of
    ``eigenfunction_batch(k, osc, xi)[k]``.

    Raises
    ------
    DomainError
        If k is not a nonnegative integer, or xi is not finite and >= 0.
    NonConvergenceError
        If a value is not finite: the polynomial overflows for k >= 1 once
        xi^2 does (xi above about 1e154), or at large k and xi.
    """
    k = _check_order(k, "level index k")
    scalar = np.ndim(xi) == 0
    xi = _check_xi(xi)
    vals = np.zeros(len(xi), dtype=complex)
    pos = xi > 0
    if np.any(pos):
        gamma = osc.gamma
        # a non-finite value is raised below
        with np.errstate(over="ignore", invalid="ignore"):
            poly = cdhahn_normalized_row(k, xi[pos], gamma, gamma, 0.5)
            # the operations of eigenfunction_batch's row k, in its order
            vals[pos] = (state_norms(k, osc)[k] * poly
                         * np.conj(conj_state_prefactor(osc, xi[pos])))
    if not np.isfinite(vals).all():
        raise NonConvergenceError(
            f"oscillator state table up to k = {k} is not finite for xi up "
            f"to {np.max(xi):.4g}")
    return complex(vals[0]) if scalar else vals


@np.errstate(over="ignore", invalid="ignore")  # a non-finite Gram is raised below
def oscillator_gram(osc: OscParams, kmax: int) -> np.ndarray:
    """Gram matrix of {phi_k}_{k<=kmax} on L^2(0, inf), real, as the one
    real product (nP) diag(w |pref|^2) (nP)^T of the state factors
    conj(phi_k) = norms[k] P_k conj_pref on the Kronrod rule of
    ``xi_layout(osc, state_end(max(kmax, 20), osc))`` with weights w.  Up
    to kmax = 20 that is the one cached layout of c, which the transforms
    and ``isometry_check`` read too (xi = 80 for c <= 2.5); it meets the
    identity to about 1.5e-13 for c <= 5 and to 2.2e-13 at c = 8.  Past
    kmax = 20 the end grows with kmax, as the states' tails do, and the
    layout is built for the call and dropped, since a long one would stay
    pinned in the cache.  The folded prefactor keeps the matrix finite at
    large c (within 2e-13 of the identity at c = 12 and 1.5e-12 at
    c = 20).

    Raises
    ------
    DomainError
        If kmax is not a nonnegative integer, or the polynomial table would
        hold more than MAX_TABLE_ENTRIES entries (kmax above 113 at c = 1),
        checked before the layout or the table is built.
    NonConvergenceError
        If the matrix is not finite.
    """
    kmax = _check_order(kmax, "Gram order kmax")
    entries = oscillator_gram_entries(osc, kmax)
    if entries > MAX_TABLE_ENTRIES:
        raise DomainError(
            f"the Gram table up to k = {kmax} at c = {osc.c:g} would hold "
            f"{entries} entries, more than the limit of {MAX_TABLE_ENTRIES}")
    end = state_end(max(kmax, _ISOMETRY_KMAX), osc)
    build = xi_layout if kmax <= _ISOMETRY_KMAX else xi_layout.__wrapped__
    xi, _, conj_pref, weights = build(osc, end)
    poly, norms = state_polynomials(kmax, osc, xi)
    table = norms[:, None] * poly
    gram = (table * (weights * np.abs(conj_pref) ** 2)) @ table.T
    if not np.isfinite(gram).all():
        raise NonConvergenceError(
            f"oscillator Gram matrix up to k = {kmax} is not finite")
    return gram
