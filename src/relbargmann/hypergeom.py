"""Hypergeometric kernels with complex parameters.

Everything here is built from four primitives: the principal-branch complex
log-gamma, Pochhammer symbols, terminating sums, and one summation of the
non-terminating Gauss series for 2F1, ``_series_2f1_vec``, with one stopping
rule.  ``gauss_2f1_vec`` and ``gauss_2f1`` apply the Pfaff transformation to
shrink the argument before calling it.  On top of those sit the two-variable
functions: Appell F1 and the Kampe de Feriet function F5 defined by the
double series

    F5(c, d : a; e : a'; chi, zeta)
        = sum_{p,q} (c)_{p+q} (d)_{p+q} (a)_p / ((e)_{p+q} (a')_p)
          * chi^p zeta^q / (p! q!),

equivalently by Kulshreshtha's Euler-type integral

    Gamma(e)/(Gamma(d) Gamma(e-d)) *
    int_0^1 t^{d-1} (1-t)^{e-d-1} (1-zeta t)^{-c} 2F1(a, c; a'; chi t/(1-zeta t)) dt.

Three evaluation paths are implemented and cross-checked in the test suite:
the double series, the integral (after a logit substitution that handles the
endpoint algebra and the log-oscillation carried by complex exponents), and,
when a - a' is a nonnegative integer m, an exact reduction to a finite sum of
(m+1)(m+2)/2 Gauss functions at the combined argument chi + zeta.  The
reduction generalises the classical a = a' collapse F5 -> 2F1(c, d; e; chi+zeta)
and is the only path that stays accurate when |Im d| is large, where the
integrand suffers exp(-pi |Im d|) cancellation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, NonConvergenceError, PoleError
from .quadrature import _COARSE_RULE
from .special import loggamma

_EPS = float(np.finfo(float).eps)
MAX_SERIES_TERMS = 10_000
_F5_SERIES_TERMS = 2000
_CONSECUTIVE_SMALL = 20
_CHECK_STRIDE = 4
_SERIES_RADIUS = 0.9


def _nonpos_int(v) -> int | None:
    """Return -v as an int when v is a nonpositive integer, else None."""
    v = complex(v)
    if v.imag != 0.0:
        return None
    if v.real > 0 or v.real != int(v.real):
        return None
    return -int(v.real)


def ln_gamma(z) -> complex:
    """Principal branch of log Gamma(z) for complex z.

    Raises
    ------
    PoleError
        When z is zero or a negative integer.
    """
    z = complex(z)
    if _nonpos_int(z) is not None:
        raise PoleError(f"log-gamma pole at z = {z}")
    return complex(loggamma(z))


def reciprocal_gamma(z) -> complex:
    """1/Gamma(z), entire in z; exactly zero at z = 0, -1, -2, ..."""
    z = complex(z)
    shift = max(0, 1 - int(math.floor(z.real)))
    factors = 1.0 + 0.0j
    for i in range(shift):
        factors *= z + i
    if factors == 0.0:
        return 0.0 + 0.0j
    return factors * np.exp(-loggamma(z + shift))


def pochhammer(a, n: int) -> complex:
    """Rising factorial (a)_n = a (a+1) ... (a+n-1); empty product for n = 0.

    The product is taken for n <= 128 and whenever a is a nonpositive
    integer, where the log-gamma route would meet poles; otherwise
    exp(loggamma(a + n) - loggamma(a)).
    """
    if n < 0 or n != int(n):
        raise DomainError("pochhammer order must be a nonnegative integer")
    a = complex(a)
    n = int(n)
    if n <= 128 or _nonpos_int(a) is not None:
        out = 1.0 + 0.0j
        for i in range(n):
            out *= a + i
        return out
    # exp is 2*pi*i periodic, so the branch constant in loggamma cancels
    return complex(np.exp(loggamma(a + n) - loggamma(a)))


# ---------------------------------------------------------------------------
# Gauss 2F1
# ---------------------------------------------------------------------------

def _terminating_2f1(n: int, b, c, w):
    """2F1(-n, b; c; w) as an exact finite sum of n+1 terms."""
    qc = _nonpos_int(c)
    if qc is not None and qc < n:
        raise PoleError(f"2F1 lower parameter {c} hits a pole before termination")
    total = 1.0 + 0.0j
    term = 1.0 + 0.0j
    for k in range(n):
        term *= (-n + k) * (b + k) / ((c + k) * (k + 1)) * w
        total += term
    return total


def gauss_2f1(a, b, c, z) -> complex:
    """Gauss hypergeometric function 2F1(a, b; c; z).

    Terminating cases (a or b a nonpositive integer) are evaluated exactly at
    any argument.  Every other case is :func:`gauss_2f1_vec` at scalar
    parameters, so its domain is min(|z|, |z/(z-1)|) < 1.

    Raises
    ------
    PoleError
        For a nonpositive-integer c reached before the series terminates.
    DomainError
        For a non-terminating series with min(|z|, |z/(z-1)|) >= 1.
    """
    a, b, c, z = complex(a), complex(b), complex(c), complex(z)
    na, nb = _nonpos_int(a), _nonpos_int(b)
    if na is not None or nb is not None:
        if na is not None and (nb is None or na <= nb):
            return _terminating_2f1(na, b, c, z)
        return _terminating_2f1(nb, a, c, z)
    if _nonpos_int(c) is not None:
        raise PoleError(f"2F1 lower parameter {c} is a nonpositive integer")
    return complex(gauss_2f1_vec(a, b, c, z))


@np.errstate(over="ignore", invalid="ignore")  # overflow is raised below
def _series_2f1_vec(a, b, c, w):
    """The Gauss series of 2F1(a, b; c; w), |w| < 1, elementwise over arrays.

    This is the package's one summation of a non-terminating Gauss series.
    The parameters and the argument broadcast against each other; the
    transform kernels pass a vector of spectral parameters at one scalar w,
    the F5 integral one scalar parameter set at a vector of w.  Convergence
    is tested every ``_CHECK_STRIDE`` terms, element by element: an element
    whose term passes two consecutive tests is done and leaves the sum, so
    its value does not depend on the other elements.

    Raises
    ------
    NonConvergenceError
        If a sum overflows, or the term budget runs out.
    """
    a, b, c, w = (np.asarray(v, dtype=complex) for v in (a, b, c, w))
    out = np.empty(np.broadcast(a, b, c, w).shape, dtype=complex)
    flat = out.reshape(-1)
    # state of the elements still being summed; a scalar c or w stays a
    # Python complex, whose division rounds differently from numpy's
    index = np.arange(flat.size)
    a, b = (np.broadcast_to(v, out.shape).ravel() for v in (a, b))
    c, w = (np.broadcast_to(v, out.shape).ravel() if v.ndim else complex(v)
            for v in (c, w))
    total = np.ones(flat.size, dtype=complex)
    term = np.ones_like(total)
    small = np.zeros(flat.size, dtype=bool)
    for k in range(MAX_SERIES_TERMS):
        if not index.size:
            return out
        # no in-place products: numpy rounds those differently for one element
        term = term * ((a + k) * (b + k) * (w / ((c + k) * (k + 1))))
        total += term
        if k % _CHECK_STRIDE != _CHECK_STRIDE - 1:
            continue
        size = np.abs(total)
        if not math.isfinite(size.max()):
            raise NonConvergenceError(
                f"2F1 series overflowed at |w| = {np.max(np.abs(w)):.4f}")
        was_small = small
        small = np.abs(term) <= _EPS * (1.0 + size)
        done = small & was_small
        if done.any():
            flat[index[done]] = total[done]
            keep = ~done
            index, a, b, term, total, small = (
                v[keep] for v in (index, a, b, term, total, small))
            if np.ndim(c):
                c = c[keep]
            if np.ndim(w):
                w = w[keep]
    raise NonConvergenceError(
        f"2F1 series stalled at |w| = {np.max(np.abs(w)):.4f}")


def gauss_2f1_vec(a, b, c, z) -> np.ndarray:
    """2F1(a, b; c; z) over arrays of pole-free parameters at one scalar z.

    The series is summed at whichever of z and the Pfaff image z/(z-1) has
    the smaller modulus, so the domain is min(|z|, |z/(z-1)|) < 1: every z
    with |z| < 1 or Re z < 1/2.

    Raises
    ------
    DomainError
        For z outside that domain.
    """
    z = complex(z)
    if z == 0.0:
        a = np.asarray(a, dtype=complex)
        return np.ones(np.broadcast(np.asarray(a), np.asarray(b), np.asarray(c)).shape, complex)
    if abs(z) >= 1.0 and (z == 1.0 or abs(z / (z - 1.0)) >= 1.0):
        raise DomainError("2F1 argument outside the series/Pfaff domain")
    zp = z / (z - 1.0)
    if abs(zp) < abs(z):
        a_arr = np.asarray(a, dtype=complex)
        return (1.0 - z) ** (-a_arr) * _series_2f1_vec(a, np.asarray(c) - np.asarray(b), c, zp)
    return _series_2f1_vec(a, b, c, z)


# ---------------------------------------------------------------------------
# terminating 3F2 at unit argument
# ---------------------------------------------------------------------------

def hyp3f2_terminating_unit(n: int, a2, a3, b1, b2) -> complex:
    """3F2(-n, a2, a3; b1, b2; 1) as the exact finite sum over n+1 terms."""
    if n < 0 or n != int(n):
        raise DomainError("3F2 termination order must be a nonnegative integer")
    n = int(n)
    for b in (b1, b2):
        q = _nonpos_int(b)
        if q is not None and q < n:
            raise PoleError(f"3F2 denominator parameter {b} hits a pole")
    a2, a3, b1, b2 = complex(a2), complex(a3), complex(b1), complex(b2)
    total = 1.0 + 0.0j
    term = 1.0 + 0.0j
    for k in range(n):
        term *= (-n + k) * (a2 + k) * (a3 + k) / ((b1 + k) * (b2 + k) * (k + 1))
        total += term
    return total


# ---------------------------------------------------------------------------
# Appell F1
# ---------------------------------------------------------------------------

def appell_f1(a, b, c, d, x, y) -> complex:
    """First Appell function F1(a; b, c; d; x, y).

    Double series sum_{p,q} (a)_{p+q} (b)_p (c)_q / ((d)_{p+q} p! q!) x^p y^q.
    When b or c is a nonpositive integer the corresponding index terminates
    and the sum collapses to finitely many 2F1 evaluations, valid for any
    argument that :func:`gauss_2f1` accepts; otherwise both |x| < 1 and
    |y| < 1 are required.
    """
    a, b, c, d, x, y = (complex(v) for v in (a, b, c, d, x, y))
    if _nonpos_int(d) is not None:
        raise PoleError(f"F1 denominator parameter {d} is a nonpositive integer")
    nc, nb = _nonpos_int(c), _nonpos_int(b)
    if nc is not None and (nb is None or nc <= nb):
        total = 0.0 + 0.0j
        coef = 1.0 + 0.0j
        for q in range(nc + 1):
            total += coef * y ** q * gauss_2f1(a + q, b, d + q, x)
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
        for q in range(MAX_SERIES_TERMS):
            term *= (a + p + q) * (c + q) / ((d + p + q) * (q + 1)) * y
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
        row_head *= (a + p) * (b + p) / ((d + p) * (p + 1)) * x
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
        for q in range(_F5_SERIES_TERMS):
            inner *= (c + p + q) * (d + p + q) / (e + p + q) * zeta / (q + 1)
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
        outer *= (c + p) * (d + p) * (a + p) / ((e + p) * (ap + p) * (p + 1)) * chi
    raise NonConvergenceError("F5 double series exceeded its term budget")


def _ray_distance(s: complex) -> float:
    """Distance from s to the ray [1, oo) on the real axis."""
    if s.real >= 1.0:
        return abs(s.imag)
    return abs(s - 1.0)


def _logit_panel_integral(exp0, exp1, smooth, extra_freq: float = 0.0):
    """Evaluate int_0^1 t^(exp0-1) (1-t)^(exp1-1) smooth(t) dt.

    The logit substitution t = 1/(1 + e^-v) turns the endpoint algebra into
    two-sided exponential decay and the log-oscillation of complex exponents
    into a bounded-frequency phase e^{i Im(exp0) v}; composite 16-point
    Gauss-Legendre panels then converge spectrally.  The panel width is
    halved, at most four times, until two successive estimates agree to
    1e-10 relative to 1 + |estimate|.

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
        xg, wg = _COARSE_RULE
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
    worst = max(abs(chi * t / (1.0 - zeta * t))
                for t in np.linspace(1e-6, 1.0, 201))
    if worst >= 0.97:
        raise DomainError(
            "generic F5 integral needs |chi t/(1 - zeta t)| < 1 on the path")

    def smooth(t):
        u = chi * t / (1.0 - zeta * t)
        return (1.0 - zeta * t) ** (-c) * _series_2f1_vec(a, c, ap, u)

    extra = abs(c.imag) * (1.0 + abs(zeta))
    val = _logit_panel_integral(d, e - d, smooth, extra)
    return prefactor * val


def kdf_f5(args: F5Args) -> complex:
    """Evaluate F5, choosing the most reliable path for the arguments.

    Order of preference: the exact finite 2F1 reduction (integer a - a'),
    the double series (small arguments), then the integral representation.

    Raises
    ------
    DomainError
        When no path validates for the given arguments.
    """
    args.validate()
    m = args.integer_gap()
    if m is not None and m <= 60:
        s = complex(args.chi) + complex(args.zeta)
        reachable = min(abs(s), abs(s / (s - 1.0)) if s != 1.0 else np.inf) < 1.0
        if _ray_distance(s) > 1e-9 and reachable:
            return complex(f5_kernel_vec(args.c, args.d, args.e, m,
                                         args.a_prime, args.chi, args.zeta))
    if abs(complex(args.chi)) + abs(complex(args.zeta)) < _SERIES_RADIUS:
        return kdf_f5_series(args)
    return kdf_f5_integral(args)


def f5_kernel_vec(c, d, e, m: int, ap, chi, zeta) -> np.ndarray:
    """Vectorised F5 reduction over arrays of (c, d) with a = a' + m.

    Exposed for the coherent-state and transform kernels, where c and d carry
    a whole vector of spectral points and (chi, zeta) are fixed by the disk
    label.  Requires min(|s|, |s/(s-1)|) < 1 for s = chi + zeta.

    Expanding the (1 - zeta t)^{m-j} polynomials in the regularised
    Kulshreshtha integrand and integrating each Euler kernel exactly gives
    F5 as a finite combination of 2F1's at s:

        F5 = sum_{j<=m} sum_{l<=m-j} q_j C(m-j, l) chi^j (-zeta)^l
             * (d)_{j+l}/(e)_{j+l} * 2F1(c + m, d + j + l; e + j + l; s)

    with q_j = (-m)_j (a'-c)_j / ((a')_j j!).  For m = 0 this is the familiar
    collapse F5 = 2F1(c, d; e; chi + zeta).
    """
    c = np.asarray(c, dtype=complex)
    d = np.asarray(d, dtype=complex)
    e, ap = complex(e), complex(ap)
    s = complex(chi) + complex(zeta)
    if _ray_distance(s) < 1e-12:
        raise DomainError("F5 kernel needs chi + zeta off the ray [1, oo)")
    total = 0.0
    qj = np.ones(np.shape(c), dtype=complex)
    dj_over_ej = np.ones(np.shape(d), dtype=complex)
    for j in range(m + 1):
        inner = qj * complex(chi) ** j * dj_over_ej
        for l in range(m - j + 1):
            coef = inner * math.comb(m - j, l) * (-complex(zeta)) ** l
            val = gauss_2f1_vec(c + m, d + j + l, e + j + l, s)
            total = total + coef * val
            inner = inner * (d + j + l) / (e + j + l)
        qj = qj * (-m + j) * (ap - c + j) / ((ap + j) * (j + 1))
        dj_over_ej = dj_over_ej * (d + j) / (e + j)
    return total
