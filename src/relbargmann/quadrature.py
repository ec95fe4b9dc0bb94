"""Deterministic quadrature engines.

Three geometries are covered: finite-interval Gauss-Jacobi rules
(``gauss_jacobi``, Gauss-Legendre at alpha = beta = 0), panel-wise
integration on the half line for integrands with exponential-type decay,
and polar-coordinate integration on the unit disk against a Jacobi-type
radial weight.

The half line has one panel rule, the 21-point Gauss-Kronrod rule with its
embedded 10-point Gauss rule (``_KRONROD_RULE``), one routine for the panel
edges (``_panel_edges``) and one for the per-panel values and error
estimates (``_kronrod_panels``), which the transforms take per state of a
table (``_kronrod_gaps``).  The xi layout of the transforms
(``oscillator.xi_layout``) and the adaptive ``integrate_halfline`` both
run on them; no rule is built at import.

Integrands passed to the composite integrators must accept numpy arrays and
evaluate elementwise; this keeps the hot loops vectorised.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from numpy.polynomial.legendre import leggauss

from .errors import (DomainError, InputFormatError, NonConvergenceError,
                     _check_order)

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
    alpha = beta = 0 is the Gauss-Legendre rule, numpy's ``leggauss``.
    """
    n = _check_order(n, "node count")
    if not 1 <= n <= MAX_RULE_SIZE:
        raise DomainError(f"node count must be in [1, {MAX_RULE_SIZE}], got {n}")
    if not (-1 < alpha < math.inf and -1 < beta < math.inf):
        raise DomainError("Jacobi weight exponents must be finite and exceed -1")
    if alpha == 0 and beta == 0:
        x, w = leggauss(n)
    else:
        x, w = _jacobi_rule(n, float(alpha), float(beta))
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


#: the 21-point Gauss-Kronrod rule at x >= 0 on (-1, 1), from x = 1 down to
#: the centre, its weights, and the weights of the 10-point Gauss-Legendre
#: rule embedded at every other of its nodes, from the second on (QUADPACK's
#: qk21: Piessens et al., Springer 1983; Laurie, Math. Comp. 66, 1997)
_XGK = (0.995657163025808080735527280689002848,
        0.973906528517171720077964012084452053,
        0.930157491355708226001207180059508346,
        0.865063366688984510732096688423493049,
        0.780817726586416897063717578345042377,
        0.679409568299024406234327365114873576,
        0.562757134668604683339000099272694141,
        0.433395394129247190799265943165784162,
        0.294392862701460198131126603103865566,
        0.148874338981631210884826001129719985,
        0.0)
_WGK = (0.0116946388673718742780643960621920484,
        0.0325581623079647274788189724593897606,
        0.0547558965743519960313813002445801764,
        0.0750396748109199527670431409161900094,
        0.0931254545836976055350654650833663444,
        0.109387158802297641899210590325804960,
        0.123491976262065851077958109831074160,
        0.134709217311473325928054001771706833,
        0.142775938577060080797094273138717061,
        0.147739104901338491374841515972068046,
        0.149445554002916905664936468389821204)
_WG = (0.0666713443086881375935688098933317929,
       0.149451349150580593145776339657697332,
       0.219086362515982043995534934228163192,
       0.269266719309996355091226921569469353,
       0.295524224714752870173892994651338329)

#: the one panel rule of the half line, on every panel of
#: ``oscillator.xi_layout`` and of ``integrate_halfline``: ``(nodes,
#: kronrod_weights, gauss_weights)``, the 21 Kronrod nodes on (-1, 1) in
#: increasing order with their weights, exact to degree 31, and the weights
#: of the 10-point Gauss rule on the odd ones, ``nodes[1::2]``.  The Kronrod
#: sum gives the value, its distance from the Gauss sum the error estimate
#: (``_kronrod_panels``), and the Kronrod rule alone the norms and Gram
#: matrices on the layout
_KRONROD_RULE = tuple(np.array(v) for v in (
    [-x for x in _XGK[:-1]] + list(_XGK[::-1]),
    list(_WGK[:-1]) + list(_WGK[::-1]),
    list(_WG) + list(_WG[::-1])))
#: the weights of the difference K21 - G10 on the 21 nodes: the Kronrod
#: weights less the Gauss weights on the odd nodes (``_kronrod_gaps``)
_GAP_WEIGHTS = _KRONROD_RULE[1] - np.insert(_KRONROD_RULE[2], range(11), 0.0)
for _arr in (*_KRONROD_RULE, _GAP_WEIGHTS):
    _arr.flags.writeable = False


def _panel_edges(width: float, n_panels: int, end: float) -> np.ndarray:
    """The ``n_panels + 1`` edges of panels of ``width`` from 0, made by
    adding the width one panel at a time, the last one cut at ``end``."""
    return np.minimum(np.cumsum(np.r_[0.0, np.full(n_panels, width)]), end)


def _kronrod_panels(vals: np.ndarray, half: np.ndarray):
    """``(values, errors)``, arrays in panel order, from the integrand at
    the 21 nodes of ``_KRONROD_RULE`` on each of the first panels (flat in
    panel order, or one row a panel) and the panels' half widths ``half``:
    the Kronrod values, and their distances from the 10-point Gauss values
    on the odd nodes, the error estimates."""
    _, wk, wg = _KRONROD_RULE
    vals = vals.reshape(-1, len(wk))
    half = half[:len(vals)]
    values = half * np.sum(wk * vals, axis=1)
    diff = values - half * np.sum(wg * vals[:, 1::2], axis=1)
    # libm's hypot, as abs() of one complex value; np.abs of a complex
    # array may differ from it in the last bit
    return values, np.hypot(diff.real, diff.imag)


def _kronrod_gaps(table: np.ndarray, vals: np.ndarray, half: np.ndarray):
    """The complex differences K21 - G10 of the 21-point Kronrod and the
    10-point Gauss values of ``_kronrod_panels``, one row a row of the real
    ``table`` and one column a panel, for the integrands table[k] * vals:
    ``table`` and the complex ``vals`` at the flat nodes of the first
    panels, ``half`` the panels' half widths.  Each is one sum on the
    difference of the two rules' weights (``_GAP_WEIGHTS``), by two real
    ``einsum`` products with contiguous parts (as in
    ``oscillator._project``), so a row has the same bits whatever the other
    rows of the table."""
    rows = table.reshape(len(table), -1, len(_GAP_WEIGHTS))
    weighted = (vals.reshape(rows.shape[1:]) * _GAP_WEIGHTS
                * half[:rows.shape[1], None])
    return (np.einsum("kpj,pj->kp", rows, weighted.real.copy())
            + 1j * np.einsum("kpj,pj->kp", rows, weighted.imag.copy()))


def integrate_halfline(f, decay_scale: float = 1.0, tol: float = 1e-10):
    """Integrate ``f`` over (0, inf) for integrands with exponential-type decay.

    Panels of width ``decay_scale`` carry the one panel rule of the package,
    the 21-point Gauss-Kronrod rule of ``_KRONROD_RULE``: its value, and
    its distance from the 10-point Gauss value as the per-panel error
    estimate.  Panels whose estimate exceeds ``tol / 20`` are bisected, at
    most 12 times deep, and a split panel's value and estimate are the sums
    of its halves'.  The panels are taken from 0 in blocks that end at 8,
    16, 32 and 64 panels; within a block f is called once per bisection
    level, on the 21 nodes of every panel still open at that level, and it
    must return one value for each node.  A panel is negligible when
    |value| + estimate is below ``tol / 10`` times the smaller of 1 and
    the mass sum |value| of the panels up to it: negligible against the
    panels before it, so a walk does not stop where f is still small
    before its bulk, nor on a prefix where f is zero.  The value and the
    estimate sum the panels up to the first two consecutive negligible
    ones; f is never evaluated past the block that holds them.  An f that
    is zero on all 64 panels gives (0, 0).

    Returns ``(value, err_estimate)``.

    Raises
    ------
    DomainError
        If decay_scale or tol is not finite and positive.
    InputFormatError
        If f does not return one value for each node.
    NonConvergenceError
        If the tail has not become negligible by ``64 * decay_scale``.
    """
    if not (0 < decay_scale < math.inf and 0 < tol < math.inf):
        raise DomainError("decay_scale and tol must be finite and positive, "
                          f"got {decay_scale!r} and {tol!r}")
    width = max(decay_scale, 1e-3)
    max_length = 64.0 * decay_scale
    n_panels = math.ceil(max_length / width)
    edges = _panel_edges(width, n_panels, max_length)
    total = 0.0 + 0.0j
    err_total = mass = 0.0
    quiet = 0
    start, stop = 0, min(8, n_panels)
    while start < n_panels:
        values, errors = _bisected_panels(f, edges[start:stop],
                                          edges[start + 1:stop + 1], tol)
        for val, err in zip(values, errors):
            total += val
            err_total += err
            mass += abs(val)
            if abs(val) + err < tol / 10.0 * min(1.0, mass):
                quiet += 1
                if quiet >= 2:
                    return total, err_total + abs(val)
            else:
                quiet = 0
        start, stop = stop, min(2 * stop, n_panels)
    if mass == 0.0:
        return total, err_total
    raise NonConvergenceError(
        f"half-line tail not converged by L = {max_length:g}")


def _bisected_panels(f, lo: np.ndarray, hi: np.ndarray, tol: float):
    """``(values, errors)``, lists in panel order, of the Kronrod pair of
    ``integrate_halfline`` (``_kronrod_panels``) on the panels [lo, hi],
    each bisected while its estimate exceeds ``tol / 20``, at most 12 times
    deep, with one call of f a level on the nodes of the panels still
    open."""
    levels = []
    for depth in range(13):
        mid, half = 0.5 * (hi + lo), 0.5 * (hi - lo)
        x = (mid[:, None] + half[:, None] * _KRONROD_RULE[0]).ravel()
        vals = np.asarray(f(x))
        if vals.shape != x.shape:
            raise InputFormatError(
                f"f returned shape {vals.shape} at {x.size} nodes; it must "
                "return one value for each node")
        val, err = _kronrod_panels(vals, half)
        split = (err > tol / 20.0) & (depth < 12)
        levels.append((val, err, split))
        if not split.any():
            break
        lo, hi = (np.column_stack((lo[split], mid[split])).ravel(),
                  np.column_stack((mid[split], hi[split])).ravel())
    # from the deepest level up, a split panel sums its two halves
    val, err, _ = levels.pop()
    for level_val, level_err, split in reversed(levels):
        level_val[split] = val[0::2] + val[1::2]
        level_err[split] = err[0::2] + err[1::2]
        val, err = level_val, level_err
    return val.tolist(), err.tolist()


def integrate_disk(g, weight_exponent: float) -> complex:
    """Integrate ``g(z) * (1 - |z|^2)^weight_exponent`` over the unit disk.

    The disk is factorised in polar form with radial variable r = |z|^2, so
    the weight is Jacobi-type and handled exactly by ``jacobi_rule_01``;
    the angular direction uses the trapezoid rule on a uniform periodic grid,
    which is exact for trigonometric polynomials of degree below the grid
    size and converges geometrically for an analytic periodic integrand.
    The grids start at 24 radial nodes and 32 angles and are doubled, at
    most four times, to 384 x 512 (NonConvergenceError after that), until
    the estimate moves by less than 1e-9 * (1 + |estimate|); the value
    returned is the finer grid's of that pair, so at least 48 x 64.

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

    n_radial, n_angular = 24, 32
    prev = estimate(n_radial, n_angular)
    for _ in range(4):
        n_radial *= 2
        n_angular *= 2
        cur = estimate(n_radial, n_angular)
        if abs(cur - prev) <= 1e-9 * (1.0 + abs(cur)):
            return cur
        prev = cur
    raise NonConvergenceError("disk quadrature did not settle under grid doubling")
