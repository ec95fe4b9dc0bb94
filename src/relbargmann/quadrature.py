"""Deterministic quadrature engines.

Three geometries are covered: finite-interval Gauss rules (Legendre and
Jacobi), panel-wise integration on the half line for integrands with
exponential-type decay, and polar-coordinate integration on the unit disk
against a Jacobi-type radial weight.

Integrands passed to the composite integrators must accept numpy arrays and
evaluate elementwise; this keeps the hot loops vectorised.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.polynomial.legendre import leggauss
from scipy.special import roots_jacobi

from .errors import DomainError, NonConvergenceError

MAX_RULE_SIZE = 4096


@dataclass(frozen=True)
class QuadratureRule:
    """Nodes and weights of a quadrature rule."""

    nodes: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        if len(self.nodes) != len(self.weights):
            raise DomainError("nodes and weights must have equal length")
        if np.any(self.weights <= 0):
            raise DomainError("quadrature weights must be positive")


def gauss_legendre(n: int) -> QuadratureRule:
    """Standard n-point Gauss-Legendre rule on (-1, 1)."""
    if not 1 <= n <= MAX_RULE_SIZE:
        raise DomainError(f"node count must be in [1, {MAX_RULE_SIZE}], got {n}")
    x, w = leggauss(int(n))
    return QuadratureRule(nodes=x, weights=w)


def gauss_jacobi(n: int, alpha: float, beta: float) -> QuadratureRule:
    """Gauss-Jacobi rule for the weight (1-x)^alpha (1+x)^beta on (-1, 1)."""
    if not 1 <= n <= MAX_RULE_SIZE:
        raise DomainError(f"node count must be in [1, {MAX_RULE_SIZE}], got {n}")
    if alpha <= -1 or beta <= -1:
        raise DomainError("Jacobi weight exponents must exceed -1")
    if alpha == 0 and beta == 0:
        return gauss_legendre(n)
    x, w = roots_jacobi(int(n), alpha, beta)
    return QuadratureRule(nodes=x, weights=w)


def jacobi_rule_01(n: int, exp_at_0: float, exp_at_1: float) -> QuadratureRule:
    """Rule for the weight t^exp_at_0 (1-t)^exp_at_1 on (0, 1).

    This is the (-1, 1) Gauss-Jacobi rule mapped affinely; the weight
    normalisation is absorbed so that ``sum(w * f(t))`` approximates
    ``int_0^1 t^a (1-t)^b f(t) dt`` directly.
    """
    rule = gauss_jacobi(n, exp_at_1, exp_at_0)
    t = 0.5 * (rule.nodes + 1.0)
    w = rule.weights / 2.0 ** (exp_at_0 + exp_at_1 + 1.0)
    return QuadratureRule(nodes=t, weights=w)


#: embedded Gauss-Legendre pair on every half-line panel, here and in the
#: transforms' fixed layout: the 32-point rule gives the value, its
#: difference from the 16-point rule the error estimate.  The 32-point rule
#: alone makes ``oscillator.xi_panel_grid``, the 16-point rule the panels of
#: ``hypergeom._logit_panel_integral``
_COARSE_RULE = leggauss(16)
_FINE_RULE = leggauss(32)


def integrate_halfline(f, decay_scale: float = 1.0, tol: float = 1e-10):
    """Integrate ``f`` over (0, inf) for integrands with exponential-type decay.

    Panels of width ``decay_scale`` are integrated with an embedded
    Gauss-Legendre pair (16 and 32 points); the pair difference is the
    per-panel error estimate.  Panels whose estimate exceeds ``tol / 20``
    are bisected, at most 12 times deep, and the panel chain grows until two
    consecutive panels are negligible.

    Returns ``(value, err_estimate)``.

    Raises
    ------
    NonConvergenceError
        If the tail has not become negligible by ``64 * decay_scale``.
    """
    if decay_scale <= 0 or tol <= 0:
        raise DomainError("decay_scale and tol must be positive")
    width = max(decay_scale, 1e-3)
    (xc, wc), (xf, wf) = _COARSE_RULE, _FINE_RULE

    def do_panel(lo, hi, depth):
        mid, half = 0.5 * (hi + lo), 0.5 * (hi - lo)
        coarse = half * np.sum(wc * np.asarray(f(mid + half * xc)))
        val = half * np.sum(wf * np.asarray(f(mid + half * xf)))
        err = abs(val - coarse)
        if err > tol / 20.0 and depth < 12:
            v1, e1 = do_panel(lo, mid, depth + 1)
            v2, e2 = do_panel(mid, hi, depth + 1)
            return v1 + v2, e1 + e2
        return val, err

    total = 0.0 + 0.0j
    err_total = 0.0
    max_length = 64.0 * decay_scale
    n_panels = int(np.ceil(max_length / width))
    quiet = 0
    lo = 0.0
    for k in range(n_panels):
        hi = min(lo + width, max_length)
        val, err = do_panel(lo, hi, 0)
        total += val
        err_total += err
        lo = hi
        if abs(val) + err < tol / 10.0:
            quiet += 1
            if quiet >= 2:
                err_total += abs(val)
                return total, err_total
        else:
            quiet = 0
    raise NonConvergenceError(
        f"half-line tail not converged by L = {max_length:g}")


def integrate_disk(g, weight_exponent: float) -> complex:
    """Integrate ``g(z) * (1 - |z|^2)^weight_exponent`` over the unit disk.

    The disk is factorised in polar form with radial variable r = |z|^2, so
    the weight is Jacobi-type and handled exactly by ``jacobi_rule_01``;
    the angular direction uses the trapezoid rule on a uniform periodic grid,
    which is exact for trigonometric polynomials of degree below the grid
    size.  The grids start at 96 radial nodes and 128 angles and are doubled,
    at most twice (NonConvergenceError after that), until the estimate moves
    by less than 1e-9 * (1 + |estimate|).

    ``g`` must accept a 2-D complex ndarray and evaluate elementwise.
    """
    if weight_exponent <= -1:
        raise DomainError("disk weight exponent must exceed -1")

    def estimate(nr, nphi):
        rule = jacobi_rule_01(nr, 0.0, weight_exponent)
        phi = np.arange(nphi) * (2.0 * np.pi / nphi)
        zg = np.sqrt(rule.nodes)[:, None] * np.exp(1j * phi)[None, :]
        vals = np.asarray(g(zg))
        angular = vals.mean(axis=1) * 2.0 * np.pi
        return complex(0.5 * np.sum(rule.weights * angular))

    n_radial, n_angular = 96, 128
    prev = estimate(n_radial, n_angular)
    for _ in range(2):
        n_radial *= 2
        n_angular *= 2
        cur = estimate(n_radial, n_angular)
        if abs(cur - prev) <= 1e-9 * (1.0 + abs(cur)):
            return cur
        prev = cur
    raise NonConvergenceError("disk quadrature did not settle under grid doubling")
