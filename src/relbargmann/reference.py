"""Reference evaluations of Appell F1, the Kampe de Feriet function F5 and
the reduced m = 0 transform kernel.

Only ``verification``, the tests and the demos import these oracles; the
transform's own F5 is the finite 2F1 reduction ``hypergeom.f5_kernel_vec``,
and its kernel at every m is the basis expansion of ``coherent``.
F5 is summed as its double series

    F5(c, d : a; e : a'; chi, zeta)
        = sum_{p,q} (c)_{p+q} (d)_{p+q} (a)_p / ((e)_{p+q} (a')_p)
          * chi^p zeta^q / (p! q!),

or as Kulshreshtha's Euler-type integral

    Gamma(e)/(Gamma(d) Gamma(e-d)) *
    int_0^1 t^{d-1} (1-t)^{e-d-1} (1-zeta t)^{-c} 2F1(a, c; a'; chi t/(1-zeta t)) dt

after a logit substitution that handles the endpoint algebra and the
log-oscillation of complex exponents.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.polynomial.legendre import leggauss

from . import hypergeom
from .errors import DomainError, NonConvergenceError, PoleError
from .hypergeom import (_EPS, MAX_SERIES_TERMS, _nonpos_int, _ray_distance,
                        _series_2f1_vec, gauss_2f1)
from .special import log_gamma_ratio, loggamma

_F5_SERIES_TERMS = 2000
_CONSECUTIVE_SMALL = 20
#: the 16-point Gauss-Legendre rule of the panels of the F5 integral
#: oracle, ``_logit_panel_integral``: an oracle keeps a rule of its own,
#: apart from the package's one half-line rule
_LOGIT_RULE = leggauss(16)


# ---------------------------------------------------------------------------
# Appell F1
# ---------------------------------------------------------------------------

def appell_f1(a, b, c, d, x, y) -> complex:
    """First Appell function F1(a; b, c; d; x, y).

    Double series sum_{p,q} (a)_{p+q} (b)_p (c)_q / ((d)_{p+q} p! q!) x^p y^q.
    When b or c is a nonpositive integer the corresponding index terminates
    and the sum collapses to finitely many 2F1 evaluations, valid for any
    argument that :func:`gauss_2f1` accepts; otherwise both |x| < 1 and
    |y| < 1 are required.  At c = -n the functions 2F1(a + q, b; d + q; x),
    q <= n, that :func:`gauss_2f1` would sum as a series (neither a + q nor
    b a nonpositive integer) come from one ``hypergeom.gauss_2f1_vec``
    call, looked up on ``hypergeom`` where the layer tracer of
    bench/tracing.py counts its calls, with the bits of one ``gauss_2f1``
    call per q; the rest are its exact terminating sums.
    """
    a, b, c, d, x, y = (complex(v) for v in (a, b, c, d, x, y))
    if _nonpos_int(d) is not None:
        raise PoleError(f"F1 denominator parameter {d} is a nonpositive integer")
    nc, nb = _nonpos_int(c), _nonpos_int(b)
    if nc is not None and (nb is None or nc <= nb):
        # the q that gauss_2f1 would sum as a series, in one call
        qs = [q for q in range(nc + 1)
              if nb is None and _nonpos_int(a + q) is None]
        series = {}
        if qs:
            series = dict(zip(qs, hypergeom.gauss_2f1_vec(
                np.array([a + q for q in qs]), b,
                np.array([d + q for q in qs]), x).tolist()))
        total = 0.0 + 0.0j
        coef = 1.0 + 0.0j
        for q in range(nc + 1):
            gauss = series[q] if q in series else gauss_2f1(a + q, b, d + q, x)
            total += coef * y ** q * gauss
            coef *= (a + q) * (c + q) / ((d + q) * (q + 1))
        return total
    if nb is not None:
        return appell_f1(a, c, b, d, y, x)
    if abs(x) >= 1.0 or abs(y) >= 1.0:
        raise DomainError("non-terminating F1 needs |x| < 1 and |y| < 1")
    if x == 0.0 and y == 0.0:
        return 1.0 + 0.0j
    # row-wise sum: outer index p, each row summed over q to convergence
    total = 0.0 + 0.0j
    row_head = 1.0 + 0.0j  # (a)_p (b)_p / ((d)_p p!) x^p
    small = 0
    for p in range(MAX_SERIES_TERMS):
        term = row_head
        row = term
        ap, dp = a + p, d + p
        for q in range(MAX_SERIES_TERMS):
            term *= (ap + q) * (c + q) / ((dp + q) * (q + 1)) * y
            row += term
            if abs(term) < _EPS * (1.0 + abs(row)):
                break
        total += row
        if abs(row) < _EPS * (1.0 + abs(total)):
            small += 1
            if small >= _CONSECUTIVE_SMALL:
                return total
        else:
            small = 0
        row_head *= ap * (b + p) / (dp * (p + 1)) * x
    raise NonConvergenceError("F1 double series exceeded its term budget")


# ---------------------------------------------------------------------------
# Kampe de Feriet F5
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class F5Args:
    """Parameters and arguments of F5(c, d : a; e : a'; chi, zeta).

    The documented series domain is |zeta| < 1 with |chi/(1-zeta)| < 1; the
    integral and reduction paths extend evaluation to every argument pair the
    transform kernels need (chi + zeta off the ray [1, oo)).
    """

    c: complex
    d: complex
    e: complex
    a: complex
    a_prime: complex
    chi: complex
    zeta: complex

    def validate(self):
        if (complex(self.d).real <= 0.0
                or (complex(self.e) - complex(self.d)).real <= 0.0):
            raise DomainError("F5 needs Re(d) > 0 and Re(e - d) > 0")
        if _nonpos_int(self.e) is not None:
            raise PoleError("F5 parameter e is a nonpositive integer")
        if _nonpos_int(self.a_prime) is not None:
            raise PoleError("F5 parameter a' is a nonpositive integer")

    def integer_gap(self) -> int | None:
        """a - a' when it is a (small) nonnegative integer, else None."""
        gap = complex(self.a) - complex(self.a_prime)
        if abs(gap.imag) > 1e-13:
            return None
        m = round(gap.real)
        if m < 0 or abs(gap.real - m) > 1e-12:
            return None
        return m


def kdf_f5_series(args: F5Args) -> complex:
    """F5 by its double series; requires rough joint convergence |chi|+|zeta| < 1."""
    args.validate()
    c, d, e = complex(args.c), complex(args.d), complex(args.e)
    a, ap = complex(args.a), complex(args.a_prime)
    chi, zeta = complex(args.chi), complex(args.zeta)
    if abs(chi) + abs(zeta) >= 1.0:
        raise DomainError("F5 series needs |chi| + |zeta| < 1")
    total = 0.0 + 0.0j
    outer = 1.0 + 0.0j
    small = 0
    for p in range(_F5_SERIES_TERMS):
        inner = outer
        acc = inner
        cp, dp, ep = c + p, d + p, e + p
        for q in range(_F5_SERIES_TERMS):
            inner *= (cp + q) * (dp + q) / (ep + q) * zeta / (q + 1)
            acc += inner
            if abs(inner) < _EPS * (1.0 + abs(acc)):
                break
        total += acc
        if abs(acc) < _EPS * (1.0 + abs(total)):
            small += 1
            if small >= 4:
                return total
        else:
            small = 0
        outer *= cp * dp * (a + p) / (ep * (ap + p) * (p + 1)) * chi
    raise NonConvergenceError("F5 double series exceeded its term budget")


def _logit_panel_integral(exp0, exp1, smooth, extra_freq: float = 0.0):
    """Evaluate int_0^1 t^(exp0-1) (1-t)^(exp1-1) smooth(t) dt.

    The logit substitution t = 1/(1 + e^-v) turns the endpoint algebra into
    two-sided exponential decay and the log-oscillation of complex exponents
    into a bounded-frequency phase e^{i Im(exp0) v}; composite 16-point
    Gauss-Legendre panels (``_LOGIT_RULE``, the oracle's own rule) then
    converge spectrally.  The panel width is halved, at most four times,
    until two successive estimates agree to 1e-10 relative to
    1 + |estimate|.

    ``smooth`` must accept an ndarray of t values in (0, 1).
    """
    exp0, exp1 = complex(exp0), complex(exp1)
    if exp0.real <= 0 or exp1.real <= 0:
        raise DomainError("logit integral needs positive real endpoint exponents")
    span_neg = 44.0 / exp0.real
    span_pos = 44.0 / exp1.real
    freq = abs(exp0.imag) + abs(exp1.imag) + extra_freq

    def estimate(h):
        edges = np.arange(-span_neg, span_pos + h, h)
        xg, wg = _LOGIT_RULE
        mids = 0.5 * (edges[1:] + edges[:-1])
        halves = 0.5 * np.diff(edges)
        v = (mids[:, None] + halves[:, None] * xg[None, :]).ravel()
        w = (halves[:, None] * wg[None, :]).ravel()
        log_t = -np.logaddexp(0.0, -v)
        log_1mt = -np.logaddexp(0.0, v)
        t = np.exp(log_t)
        vals = np.exp(exp0 * log_t + exp1 * log_1mt) * smooth(t)
        return complex(np.sum(w * vals))

    h = min(1.0, 5.0 / (1.0 + freq))
    prev = estimate(h)
    for _ in range(4):
        h *= 0.5
        cur = estimate(h)
        if abs(cur - prev) <= 1e-10 * (1.0 + abs(cur)):
            return cur
        prev = cur
    raise NonConvergenceError("logit panel integral did not settle under refinement")


def kdf_f5_integral(args: F5Args) -> complex:
    """F5 through the Kulshreshtha integral representation.

    When a - a' is a nonnegative integer m the inner Gauss function collapses
    by an Euler transformation, and the integrand is used in the regularised
    form (1-st)^{-c-m} * polynomial(t) with s = chi + zeta, which is analytic
    along the whole path whenever s avoids the ray [1, oo); this covers
    argument pairs with |zeta| > 1.  Otherwise the integrand is used verbatim
    with the inner 2F1 summed at all nodes in one vector series, which
    requires the argument chi t / (1 - zeta t) to stay inside the series disk.
    The integral is refined until it settles to 1e-10 relative to 1 + |value|.
    """
    args.validate()
    c, d, e = complex(args.c), complex(args.d), complex(args.e)
    a, ap = complex(args.a), complex(args.a_prime)
    chi, zeta = complex(args.chi), complex(args.zeta)
    prefactor = complex(np.exp(loggamma(e) - loggamma(d) - loggamma(e - d)))
    m = args.integer_gap()
    if m is not None:
        s = chi + zeta
        if _ray_distance(s) < 1e-9:
            raise DomainError("F5 integral needs chi + zeta off the ray [1, oo)")
        coeffs = []
        qj = 1.0 + 0.0j
        for j in range(m + 1):
            coeffs.append(qj)
            qj *= (-m + j) * (ap - c + j) / ((ap + j) * (j + 1))

        def smooth(t):
            inner = np.zeros_like(t, dtype=complex)
            for j, q in enumerate(coeffs):
                inner += q * chi ** j * t ** j * (1.0 - zeta * t) ** (m - j)
            return (1.0 - s * t) ** (-c - m) * inner

        extra = abs(c.imag) * (1.0 + abs(s))
        val = _logit_panel_integral(d, e - d, smooth, extra)
        return prefactor * val

    # generic path: the inner 2F1 as one plain series over all nodes
    if abs(zeta) > 0.97:
        raise DomainError("generic F5 integral needs |zeta| < 1")
    t = np.linspace(1e-6, 1.0, 201)
    if np.abs(chi * t / (1.0 - zeta * t)).max() >= 0.97:
        raise DomainError(
            "generic F5 integral needs |chi t/(1 - zeta t)| < 1 on the path")

    def smooth(t):
        u = chi * t / (1.0 - zeta * t)
        return (1.0 - zeta * t) ** (-c) * _series_2f1_vec(a, c, ap, u)

    extra = abs(c.imag) * (1.0 + abs(zeta))
    val = _logit_panel_integral(d, e - d, smooth, extra)
    return prefactor * val


# ---------------------------------------------------------------------------
# The reduced m = 0 kernel
# ---------------------------------------------------------------------------

def m0_reduced_kernel(osc, z, xi) -> np.ndarray:
    """The transform kernel at m = 0 as the paper's single Gauss function,

        K0(z, xi) = C exp(-i pi gamma/2) Gamma(gamma - i xi)^2 / Gamma(-i xi)
                    c^(4 i xi) (1 - z)^(-gamma - i xi)
                    2F1(gamma - i xi, 1/2 - i xi; gamma + 1/2; z),

    C = (2 (2 gamma - 1) / (pi Gamma(2 gamma)))^(1/2) / Gamma(gamma + 1/2),
    at the disk points z (a point or an array) and every xi > 0 of the 1-D
    array ``xi``, of shape ``z.shape + xi.shape``.  It equals the expansion
    kernel ``coherent.transform_kernel_series`` at m = 0; ``verify``'s
    ``m0-reduction`` suite checks that identity.  Every factor but the 2F1
    is one exponent, so the kernel stays finite where the factors alone
    leave the double range (at c = 12 and beyond).  The 2F1 is one
    ``hypergeom.gauss_2f1_vec`` call, looked up on ``hypergeom`` at call
    time, where the layer tracer of bench/tracing.py counts its calls; a
    scalar z is the one-element array, so the row of a z has the same bits
    in a scalar call and in any array call.  Its direct series loses digits
    to cancellation as xi grows (about xi > 15 at |z| = 0.42).  DomainError
    for a non-finite z.
    """
    gamma = osc.gamma
    xi = np.asarray(xi, dtype=float)
    shape = np.shape(z) + xi.shape
    z = np.atleast_1d(np.asarray(z, dtype=complex))
    z = z.reshape(z.shape + (1,) * xi.ndim)
    i_xi = 1j * xi
    const = (0.5 * math.log(2.0) + 0.5 * (math.log(2.0 * gamma - 1.0)
             - math.log(math.pi) - math.lgamma(2.0 * gamma))
             - math.lgamma(gamma + 0.5) - 0.5j * math.pi * gamma)
    expo = (const + log_gamma_ratio(gamma, -xi) + 4.0 * i_xi * math.log(osc.c)
            - (gamma + i_xi) * np.log(1.0 - z))
    return (np.exp(expo) * hypergeom.gauss_2f1_vec(
        gamma - i_xi, 0.5 - i_xi, gamma + 0.5, z)).reshape(shape)
