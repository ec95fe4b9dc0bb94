"""Deterministic quadrature engines.

Three geometries are covered: finite-interval Gauss rules (Legendre and
Jacobi), panel-wise integration on the half line for integrands with
exponential-type decay, and polar-coordinate integration on the unit disk
against a Jacobi-type radial weight.

Integrands passed to the composite integrators must accept numpy arrays and
evaluate elementwise; this keeps the hot loops vectorised.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from numpy.polynomial.legendre import leggauss

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
    """Gauss-Jacobi rule for the weight (1-x)^alpha (1+x)^beta on (-1, 1).

    Golub-Welsch: the nodes are the eigenvalues of the n x n Jacobi matrix
    of the weight (``numpy.linalg.eigvalsh``), refined by one Newton step
    on the three-term recurrence; the weights are the Christoffel numbers
    mu_0 / sum_{k<n} q_k(x)^2, with q_k the orthonormal polynomials scaled
    to q_0 = 1 and mu_0 the integral of the weight, so each one keeps its
    relative accuracy at the ends: within 2.4e-13 of mpmath at n = 96,
    where eigenvector weights (scipy's) are 3.5e-12 to 1.8e-11 off.  The
    dense eigenvalue problem makes it O(n^3) in time and O(n^2) in memory:
    about 4, 8, 23 and 160 ms at n = 96, 192, 384 and 1024 on one core of
    an x86-64 machine (three times scipy's ``roots_jacobi``), and 130 MB
    and some seconds at MAX_RULE_SIZE.  So each rule is built once per
    (n, alpha, beta) and cached (64 entries of read-only arrays).
    alpha = beta = 0 is ``gauss_legendre``.
    """
    if not 1 <= n <= MAX_RULE_SIZE:
        raise DomainError(f"node count must be in [1, {MAX_RULE_SIZE}], got {n}")
    if alpha <= -1 or beta <= -1:
        raise DomainError("Jacobi weight exponents must exceed -1")
    if alpha == 0 and beta == 0:
        return gauss_legendre(n)
    x, w = _jacobi_rule(int(n), float(alpha), float(beta))
    return QuadratureRule(nodes=x, weights=w)


def _jacobi_recurrence(n: int, alpha: float, beta: float):
    """``(diag, off)``: the diagonal a_0 .. a_(n-1) and the off-diagonal
    b_1 .. b_n of the Jacobi matrix of (1-x)^alpha (1+x)^beta, with
    x q_k = b_(k+1) q_(k+1) + a_k q_k + b_k q_(k-1) for the orthonormal
    polynomials (b_n closes the recurrence at q_n)."""
    ab = alpha + beta
    s = 2.0 * np.arange(n, dtype=float) + ab
    diag = np.empty(n)
    # a_0 = (beta - alpha) / (ab + 2), the general form being 0/0 at ab = 0
    diag[0] = (beta - alpha) / (ab + 2.0)
    diag[1:] = (beta * beta - alpha * alpha) / (s[1:] * (s[1:] + 2.0))
    k = np.arange(1, n + 1, dtype=float)
    s = 2.0 * k + ab
    # b_1 in the form without the factor (ab + 1) / (ab + 1), 0/0 at ab = -1
    off = np.empty(n)
    off[0] = math.sqrt(4.0 * (1.0 + alpha) * (1.0 + beta)
                       / ((2.0 + ab) ** 2 * (3.0 + ab)))
    off[1:] = np.sqrt(4.0 * k[1:] * (k[1:] + alpha) * (k[1:] + beta)
                      * (k[1:] + ab)
                      / (s[1:] ** 2 * (s[1:] + 1.0) * (s[1:] - 1.0)))
    return diag, off


#: |q_k| past which ``_orthonormal_sums`` rescales a node
_RESCALE = 1e100


def _orthonormal_sums(x: np.ndarray, diag: np.ndarray, off: np.ndarray):
    """``(q_n, dq_n, total, log_scale)`` at the points x: q_n, its
    derivative and sum_{k<n} q_k^2 for the orthonormal polynomials of the
    recurrence (``_jacobi_recurrence``) scaled to q_0 = 1, divided by
    exp(log_scale) (the sum by its square).  The per-point scale keeps
    |q_k| below _RESCALE, where a strongly skewed weight makes q_k huge at
    the nodes of its far end (and the weights tiny)."""
    n = len(diag)
    q_prev, q = np.zeros(len(x)), np.ones(len(x))
    dq_prev, dq = np.zeros(len(x)), np.zeros(len(x))
    total, log_scale = np.ones(len(x)), np.zeros(len(x))
    for k in range(n):
        b_prev = off[k - 1] if k else 0.0
        t = x - diag[k]
        q_prev, q, dq_prev, dq = (q, (t * q - b_prev * q_prev) / off[k], dq,
                                  (t * dq + q - b_prev * dq_prev) / off[k])
        if k < n - 1:
            total += q * q
        big = np.abs(q) > _RESCALE
        if big.any():
            shrink = np.where(big, 1.0 / np.abs(q), 1.0)
            q_prev, q, dq_prev, dq = (q_prev * shrink, q * shrink,
                                      dq_prev * shrink, dq * shrink)
            total *= shrink * shrink
            log_scale -= np.log(shrink)
    return q, dq, total, log_scale


@lru_cache(maxsize=64)
def _jacobi_rule(n: int, alpha: float, beta: float):
    """``(nodes, weights)`` of ``gauss_jacobi``, read-only."""
    diag, off = _jacobi_recurrence(n, alpha, beta)
    jacobi = np.diag(diag) + np.diag(off[:-1], 1) + np.diag(off[:-1], -1)
    x = np.linalg.eigvalsh(jacobi)
    # one Newton step on q_n, whose zeros the nodes are
    q, dq, _, _ = _orthonormal_sums(x, diag, off)
    x = x - q / dq
    _, _, total, log_scale = _orthonormal_sums(x, diag, off)
    log_mu0 = ((alpha + beta + 1.0) * math.log(2.0) + math.lgamma(alpha + 1.0)
               + math.lgamma(beta + 1.0) - math.lgamma(alpha + beta + 2.0))
    w = np.exp(log_mu0 - 2.0 * log_scale) / total
    for arr in (x, w):
        arr.flags.writeable = False
    return x, w


def jacobi_rule_01(n: int, exp_at_0: float, exp_at_1: float) -> QuadratureRule:
    """Rule for the weight t^exp_at_0 (1-t)^exp_at_1 on (0, 1).

    This is the (-1, 1) Gauss-Jacobi rule mapped affinely; the weight
    normalisation is absorbed so that ``sum(w * f(t))`` approximates
    ``int_0^1 t^a (1-t)^b f(t) dt`` directly.  Exponents that sum to 1,023
    or more, where 2^(a + b + 1) overflows, raise NonConvergenceError
    before the rule is built.
    """
    try:
        scale = 2.0 ** (exp_at_0 + exp_at_1 + 1.0)
    except OverflowError:
        raise NonConvergenceError(
            f"the (0, 1) Jacobi rule with exponents {exp_at_0:.6g} and "
            f"{exp_at_1:.6g} overflows") from None
    rule = gauss_jacobi(n, exp_at_1, exp_at_0)
    t = 0.5 * (rule.nodes + 1.0)
    w = rule.weights / scale
    return QuadratureRule(nodes=t, weights=w)


#: embedded Gauss-Legendre pair on every half-line panel, here and in
#: ``oscillator.xi_layout``: the 32-point rule gives the value, its
#: difference from the 16-point rule the error estimate.  The 32-point rule
#: alone makes the norms and Gram matrices on that layout, the 16-point rule
#: the panels of ``hypergeom._logit_panel_integral``
_COARSE_RULE = leggauss(16)
_FINE_RULE = leggauss(32)


def integrate_halfline(f, decay_scale: float = 1.0, tol: float = 1e-10):
    """Integrate ``f`` over (0, inf) for integrands with exponential-type decay.

    Panels of width ``decay_scale`` are integrated with an embedded
    Gauss-Legendre pair (16 and 32 points); the pair difference is the
    per-panel error estimate.  ``f`` is called once per panel visit, on the
    48 nodes of both rules (the 16-point nodes first), and a scalar result
    is broadcast to them.  Panels whose estimate exceeds ``tol / 20`` are
    bisected, at most 12 times deep, and the panel chain grows until two
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
    both, n_coarse = np.concatenate((xc, xf)), len(xc)

    def do_panel(lo, hi, depth):
        mid, half = 0.5 * (hi + lo), 0.5 * (hi - lo)
        x = mid + half * both
        vals = np.asarray(f(x))
        if vals.shape != x.shape:
            vals = np.broadcast_to(vals, x.shape)
        coarse = half * (wc * vals[:n_coarse]).sum()
        val = half * (wf * vals[n_coarse:]).sum()
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
