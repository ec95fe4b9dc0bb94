"""Gauss 2F1 with complex parameters, and the F5 reduction of the kernels.

Everything here is built from Pochhammer symbols, terminating sums, and one
summation of the non-terminating Gauss series, ``_series_2f1_vec``, with
one stopping rule; ``gauss_2f1_vec`` and ``gauss_2f1`` apply the Pfaff
transformation to shrink the argument first, ``gauss_2f1_vec`` element by
element over an array of arguments (the argument-shrinking choice of
Pearson, Olver & Porter, Numer. Algorithms 74 (2017)).
``f5_kernel_vec`` is the Kampe de Feriet F5(c, d : a; e : a'; chi, zeta)
at a nonnegative integer a - a' = m, an exact finite sum of
(m+1)(m+2)/2 Gauss functions at chi + zeta, broadcast over its parameters
and arguments; its defining double series and integral are the oracles of
``relbargmann.reference``.  The series, ``gauss_2f1_vec`` and
``f5_kernel_vec`` have one arithmetic: a number is summed as the
one-element array, so a scalar call has the bits of its element in any
array call.  A non-finite parameter or argument raises DomainError.
"""

from __future__ import annotations

import cmath
import math

import numpy as np

from .errors import DomainError, NonConvergenceError, PoleError, _check_order

_EPS = float(np.finfo(float).eps)
MAX_SERIES_TERMS = 10_000
_CHECK_STRIDE = 4


def _nonpos_int(v) -> int | None:
    """Return -v as an int when v is a nonpositive integer, else None;
    DomainError for a non-finite v."""
    v = _finite(v)
    if v.imag != 0.0:
        return None
    if v.real > 0 or v.real != int(v.real):
        return None
    return -int(v.real)


def _finite(v) -> complex:
    """v as a complex; DomainError if it is not finite."""
    v = complex(v)
    if not cmath.isfinite(v):
        raise DomainError(f"argument {v} is not finite")
    return v


def _check_finite(*values) -> None:
    """DomainError naming the first non-finite entry of the numbers or
    arrays ``values``."""
    for v in values:
        ok = np.isfinite(v)
        if not ok.all():
            _finite(np.ravel(v)[np.argmin(np.ravel(ok))])


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
        For a non-finite argument, or a non-terminating series with
        min(|z|, |z/(z-1)|) >= 1.
    """
    a, b, c, z = map(_finite, (a, b, c, z))
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
    transform kernels pass a vector of spectral parameters at one w, the
    reference F5 integral one parameter set at a vector of w.  All four are
    broadcast to one flat array, so a number is summed as the
    one-element array: each element has the same bits whatever the shapes
    of the call.  Convergence is tested every ``_CHECK_STRIDE`` terms,
    element by element: an element whose term passes two consecutive tests
    is done and leaves the sum, so its value does not depend on the other
    elements.

    Raises
    ------
    NonConvergenceError
        If a sum overflows, or the term budget runs out.
    """
    a, b, c, w = np.broadcast_arrays(
        *(np.asarray(v, dtype=complex) for v in (a, b, c, w)))
    out = np.empty(a.shape, dtype=complex)
    flat = out.reshape(-1)
    # state of the elements still being summed
    index = np.arange(flat.size)
    a, b, c, w = (v.ravel() for v in (a, b, c, w))
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
            index, a, b, c, w, term, total, small = (
                v[keep] for v in (index, a, b, c, w, term, total, small))
    raise NonConvergenceError(
        f"2F1 series stalled at |w| = {np.max(np.abs(w)):.4f}")


@np.errstate(divide="ignore", invalid="ignore")  # z = 1 is refused below
def gauss_2f1_vec(a, b, c, z) -> np.ndarray:
    """2F1(a, b; c; z) over arrays of pole-free parameters and arguments,
    broadcast against each other, of their broadcast shape.

    Each element is summed at whichever of z and its Pfaff image z/(z-1)
    has the smaller modulus, so the domain is min(|z|, |z/(z-1)|) < 1:
    every z with |z| < 1 or Re z < 1/2.  A number z is taken as the
    one-element array, so the value at a z has the same bits in a scalar
    call and as an element of any array call.

    Raises
    ------
    DomainError
        For a non-finite parameter or argument, or a z outside that domain,
        naming the first such z.
    """
    _check_finite(a, b, c, z)
    a, b, c, z = (np.asarray(v, dtype=complex) for v in (a, b, c, z))
    shape = np.broadcast(a, b, c, z).shape
    z = np.atleast_1d(z)
    zp = z / (z - 1.0)
    pfaff = np.abs(zp) < np.abs(z)
    w = np.where(pfaff, zp, z)
    outside = ~(np.abs(w) < 1.0)
    if outside.any():
        raise DomainError(
            f"2F1 argument z = {z.ravel()[np.argmax(outside.ravel())]} "
            "outside the series/Pfaff domain min(|z|, |z/(z-1)|) < 1")
    series = _series_2f1_vec(a, np.where(pfaff, c - b, b), c, w)
    # the Pfaff factor is taken at the Pfaff elements alone: (1 - z)^(-a)
    # may overflow at an element summed directly
    return np.where(pfaff, np.where(pfaff, 1.0 - z, 1.0) ** (-a) * series,
                    series).reshape(shape)


# ---------------------------------------------------------------------------
# Kampe de Feriet F5
# ---------------------------------------------------------------------------

def _ray_distance(s):
    """Distance from s, a number or an array, to the ray [1, oo) on the
    real axis."""
    return np.where(np.real(s) >= 1.0, np.abs(np.imag(s)), np.abs(s - 1.0))


def f5_kernel_vec(c, d, e, m: int, ap, chi, zeta) -> np.ndarray:
    """Vectorised F5 reduction with a = a' + m, over arrays of c, d, e, a',
    chi and zeta broadcast against each other, of their broadcast shape.

    The coherent-state and transform kernels pass c and d for a whole
    vector of spectral points at one disk label, fixing scalar (chi, zeta).
    Every input is taken as an array of at least one element, so a scalar
    call has the bits of its element in any array call (see
    :func:`gauss_2f1_vec`).  Requires min(|s|, |s/(s-1)|) < 1 for
    s = chi + zeta, and finite inputs (DomainError otherwise).

    Expanding the (1 - zeta t)^{m-j} polynomials in the regularised
    Kulshreshtha integrand and integrating each Euler kernel exactly gives
    F5 as a finite combination of 2F1's at s:

        F5 = sum_{j<=m} sum_{l<=m-j} q_j C(m-j, l) chi^j (-zeta)^l
             * (d)_{j+l}/(e)_{j+l} * 2F1(c + m, d + j + l; e + j + l; s)

    with q_j = (-m)_j (a'-c)_j / ((a')_j j!), one ``gauss_2f1_vec`` call
    per term.  For m = 0 this is the familiar collapse
    F5 = 2F1(c, d; e; chi + zeta).
    """
    m = _check_order(m, "F5 order m")
    _check_finite(c, d, e, ap, chi, zeta)
    shape = np.broadcast_shapes(*map(np.shape, (c, d, e, ap, chi, zeta)))
    # at least one element: numpy's scalar arithmetic (a sum of two 0-d
    # arrays is a scalar) rounds otherwise than its array loops
    c, d, e, ap, chi, zeta = (np.atleast_1d(np.asarray(v, dtype=complex))
                              for v in (c, d, e, ap, chi, zeta))
    s = chi + zeta
    near = _ray_distance(s) < 1e-12
    if near.any():
        raise DomainError("F5 kernel needs chi + zeta off the ray [1, oo), "
                          f"got {np.ravel(s)[np.argmax(np.ravel(near))]}")
    total = 0.0
    qj = np.ones(np.shape(c), dtype=complex)
    dj_over_ej = np.ones(np.shape(d), dtype=complex)
    for j in range(m + 1):
        inner = qj * chi ** j * dj_over_ej
        for l in range(m - j + 1):
            coef = inner * math.comb(m - j, l) * (-zeta) ** l
            val = gauss_2f1_vec(c + m, d + j + l, e + j + l, s)
            total = total + coef * val
            inner = inner * (d + j + l) / (e + j + l)
        qj = qj * (-m + j) * (ap - c + j) / ((ap + j) * (j + 1))
        dj_over_ej = dj_over_ej * (d + j) / (e + j)
    return total.reshape(shape)
