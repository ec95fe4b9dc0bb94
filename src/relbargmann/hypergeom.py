"""Gauss 2F1 with complex parameters, and the F5 reduction of the kernels.

Everything here is built from Pochhammer symbols, terminating sums, and one
summation of the non-terminating Gauss series, ``_series_2f1_vec``, with
one stopping rule; ``gauss_2f1_vec`` and ``gauss_2f1`` apply the Pfaff
transformation to shrink the argument first.  ``f5_kernel_vec`` is the
Kampe de Feriet F5(c, d : a; e : a'; chi, zeta) at a nonnegative integer
a - a' = m, an exact finite sum of (m+1)(m+2)/2 Gauss functions at
chi + zeta; its defining double series and integral are the oracles of
``relbargmann.reference``.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import DomainError, NonConvergenceError, PoleError, _check_order
from .special import loggamma

_EPS = float(np.finfo(float).eps)
MAX_SERIES_TERMS = 10_000
_CHECK_STRIDE = 4


def _nonpos_int(v) -> int | None:
    """Return -v as an int when v is a nonpositive integer, else None."""
    v = complex(v)
    if v.imag != 0.0:
        return None
    if v.real > 0 or v.real != int(v.real):
        return None
    return -int(v.real)


def pochhammer(a, n: int) -> complex:
    """Rising factorial (a)_n = a (a+1) ... (a+n-1); empty product for n = 0.

    The product is taken for n <= 128 and whenever a is a nonpositive
    integer, where the log-gamma route would meet poles; otherwise
    exp(loggamma(a + n) - loggamma(a)).
    """
    n = _check_order(n, "pochhammer order")
    a = complex(a)
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
    the reference F5 integral one scalar parameter set at a vector of w.
    Convergence is tested every ``_CHECK_STRIDE`` terms, element by element:
    an element whose term passes two consecutive tests is done and leaves
    the sum, so its value does not depend on the other elements.

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
# Kampe de Feriet F5
# ---------------------------------------------------------------------------

def _ray_distance(s: complex) -> float:
    """Distance from s to the ray [1, oo) on the real axis."""
    if s.real >= 1.0:
        return abs(s.imag)
    return abs(s - 1.0)


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
    m = _check_order(m, "F5 order m")
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
