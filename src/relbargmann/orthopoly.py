"""Jacobi, Laguerre and continuous dual Hahn polynomial evaluation.

``jacobi_p`` takes any real or complex parameters and arrays of degrees.
Real alpha, beta > -1 run the vector ``jacobi_q``, the package's one
three-term recurrence, behind the disk basis and the coherent-state
overlap as well; at x < -1 the parameter-shift connection formula

    P_n^{(alpha, beta)}(x)
        = ((1-x)/2)^n P_n^{(-2n-alpha-beta-1, beta)}((x+3)/(x-1))

takes the parameters whose image has alpha, beta > -1 to the same
recurrence on [-1, 1).  Every other case (alpha = g - n of the bilinear
sums of ``verify``, negative integers, complex values) is the explicit
binomial sum, a polynomial identity with no degenerate parameter.
"""

from __future__ import annotations

from itertools import cycle

import numpy as np

from .errors import DomainError, NonConvergenceError, _check_order


def _check_degrees(n) -> np.ndarray:
    """``n``, a degree or an array of them, as an int array; DomainError
    unless each is a nonnegative integer."""
    if np.ndim(n) == 0:
        return np.asarray(_check_order(n, "Jacobi degree"))
    deg = np.asarray(n)
    if deg.dtype.kind not in "iuf" or not np.all(
            np.isfinite(deg) & (deg >= 0) & (deg == np.round(deg))):
        raise DomainError("Jacobi degree must be a nonnegative integer")
    return deg.astype(int)


def _jacobi_recurrence(n: np.ndarray, a, b, x):
    """P_n^(a, b)(x) for real a, b > -1 by the package's one Jacobi
    recurrence, :func:`jacobi_q` at t = (1 - x)/2, on 1-D arrays."""
    return (-1.0) ** n * jacobi_q(jacobi_q_steps(n, a, b), 0.5 * (1.0 - x), 1.0)


def _jacobi_sum(n: np.ndarray, alpha, beta, x):
    """P_n^(alpha, beta)(x) by the explicit sum (DLMF 18.5.8)

        sum_k C(n+alpha, n-k) v^(n-k) C(n+beta, k) u^k,
        u = (x - 1)/2,  v = (x + 1)/2,

    a polynomial identity for any alpha and beta, on 1-D arrays of the same
    length.  Both factors are products of term ratios, C(a, j) w^j the
    product of (a - i + 1) w / i over i <= j: no ratio divides by a
    parameter, so a negative-integer alpha or beta needs no special case.
    """
    i = np.arange(1, int(n.max(initial=0)) + 1)[:, None]
    unit = np.ones((1,) + n.shape)

    def factors(a, w):  # C(a, j) w^j, j = 0 .. max n, on a first axis
        return np.cumprod(np.concatenate([unit, (a - i + 1.0) * w / i]),
                          axis=0)

    k = np.arange(len(i) + 1)[:, None]
    head = np.take_along_axis(factors(n + alpha, 0.5 * (x + 1.0)),
                              np.maximum(n - k, 0), axis=0)
    terms = head * factors(n + beta, 0.5 * (x - 1.0))
    return np.where(k <= n, terms, 0.0).sum(axis=0)


@np.errstate(over="ignore", invalid="ignore")  # a non-finite value raises
def jacobi_p(n, alpha, beta, x):
    """Jacobi polynomial P_n^(alpha, beta)(x) for any alpha and beta.

    ``n`` (a degree or an array of degrees), ``alpha``, ``beta`` and ``x``
    broadcast against each other: scalars give a complex, anything else a
    complex ndarray, each element by one of three routes:

    * real alpha, beta > -1: the package's one Jacobi recurrence,
      :func:`jacobi_q` at t = (1 - x)/2 (``_jacobi_recurrence``), where the
      terminating Gauss series cancels from n = 10 (an error of 22 at
      n = 30);
    * real x < -1 whose connection image (-2n - alpha - beta - 1, beta) has
      both parameters > -1: the same recurrence at (x + 3)/(x - 1) in
      [-1, 1), times ((1 - x)/2)^n.  There the explicit sum cancels (1.5e-11
      relative to 1 + |value| at n = 7, x = -79, against 4.8e-15);
    * everything else, real or complex: the explicit binomial sum
      ``_jacobi_sum``, whose rounding is about n eps sum_k |term_k|.  On
      alpha = g - n, g in (0, 6), beta in (-1, 6], x in [-1, 1], n <= 80,
      the Srivastava-Rao terms of ``verify``, it is within 1e-12 of a
      40-digit evaluation relative to max(1, |P|) (tested to 1e-11), where
      the Gauss series was off by up to 7.1e4.

    DomainError for a degree that is not a nonnegative integer or a
    non-finite alpha, beta or x; NonConvergenceError for a value past the
    double range.
    """
    args = [_check_degrees(n)] + [np.asarray(v) for v in (alpha, beta, x)]
    if not all(np.isfinite(v).all() for v in args[1:]):
        raise DomainError("Jacobi parameters and argument must be finite")
    shape = np.broadcast_shapes(*(v.shape for v in args))
    n, alpha, beta, x = (np.broadcast_to(v, shape).ravel() for v in args)
    out = np.empty(n.shape, dtype=complex)
    a, b = alpha.real, beta.real
    real = (alpha.imag == 0.0) & (beta.imag == 0.0)
    rec = real & (a > -1.0) & (b > -1.0)
    image = -2.0 * n - a - b - 1.0
    conn = (real & ~rec & (b > -1.0) & (image > -1.0) & (x.imag == 0.0)
            & (x.real < -1.0))
    rest = ~(rec | conn)
    if rec.any():
        out[rec] = _jacobi_recurrence(n[rec], a[rec], b[rec], x[rec])
    if conn.any():
        u = x.real[conn]
        out[conn] = (0.5 * (1.0 - u)) ** n[conn] * _jacobi_recurrence(
            n[conn], image[conn], b[conn], (u + 3.0) / (u - 1.0))
    if rest.any():
        out[rest] = _jacobi_sum(n[rest], alpha[rest], beta[rest], x[rest])
    if not np.isfinite(out).all():
        raise NonConvergenceError(
            "the Jacobi polynomial leaves the double range")
    out = out.reshape(shape)
    return out if shape else complex(out)


def jacobi_q_steps(n, a, b) -> np.ndarray:
    """Steps (const_j, lead_j, back_j), j = 1 .. max n, of the recurrence

        Q_j = (const_j + lead_j t) Q_(j-1) - back_j Q_(j-2)

    of Q_j = (-1)^j P_j^(a, b)(1 - 2t) (DLMF 18.9.2) for a, b > -1, shape
    (3, max n) + the broadcast shape of ``n`` and ``a``: ``a`` may be a
    column of per-row values (and ``b`` an array of the same shape, or a
    scalar), and a row of degree n below j takes the
    identity step (1, 0, 0), so that it keeps its Q_n.  The constant is
    written without cancellation, -2 (s-1) (2j (j+a+b-1) + (a+b)(a-1)) / d
    with s = 2j + a + b and d = 2j (j+a+b) (s-2), where the textbook
    s (s-2) + a^2 - b^2 loses digits at large b.
    """
    n, a = np.broadcast_arrays(np.asarray(n), np.asarray(a, dtype=float))
    top = int(n.max(initial=0))
    axis = (-1,) + (1,) * a.ndim
    j = np.arange(2, top + 1, dtype=float).reshape(axis)
    s = 2.0 * j + a + b
    d = 2.0 * j * (j + a + b) * (s - 2.0)
    steps = np.empty((3, top) + a.shape)
    steps[:, :1] = [[-(a + 1.0)], [a + b + 2.0], [0.0 * a]]  # d = 0 at a + b = 0
    steps[0, 1:] = -2.0 * (s - 1.0) * (2.0 * j * (j + a + b - 1.0)
                                       + (a + b) * (a - 1.0)) / d
    steps[1, 1:] = 2.0 * (s - 1.0) * s * (s - 2.0) / d
    steps[2, 1:] = 2.0 * (j + a - 1.0) * (j + b - 1.0) * s / d
    done = np.arange(1, top + 1).reshape(axis) > n
    identity = np.array([1.0, 0.0, 0.0]).reshape((3, 1) + (1,) * a.ndim)
    return np.where(done, identity, steps)


def jacobi_q(steps: np.ndarray, t, start):
    """``start`` times Q_n(t) by the steps of :func:`jacobi_q_steps`, with
    ``t`` and ``start`` broadcast against the rows of the steps.

    This is the package's one Jacobi recurrence: the disk basis and the
    coherent-state overlap both run on it.  Forward recurrence is stable
    on the Jacobi interval, t in [0, 1] (Gautschi 2004, section 2.1).
    """
    prev, cur = 0.0, start  # back_1 = 0: Q_(-1) never counts
    for const, lead, back in zip(*steps):
        prev, cur = cur, (const + lead * t) * cur - back * prev
    return cur


def laguerre_l(n: int, alpha: float, x):
    """Generalized Laguerre polynomial L_n^{(alpha)}(x); x may be an ndarray."""
    n = _check_order(n, "Laguerre degree")
    x = np.asarray(x, dtype=float)
    prev = np.ones_like(x)
    if n == 0:
        return prev if prev.shape else float(prev)
    cur = 1.0 + alpha - x
    for k in range(1, n):
        prev, cur = cur, ((2 * k + 1 + alpha - x) * cur - (k + alpha) * prev) / (k + 1)
    return cur if cur.shape else float(cur)


def _cdhahn_recurrence(kmax: int, lam: np.ndarray, a: float, b: float,
                       c: float, rows) -> np.ndarray:
    """Row kmax of :func:`cdhahn_normalized_batch` at lam = a^2 + xi^2.

    The rows n = 0..kmax are written in turn into the arrays that ``rows``
    yields, each built in place by the operations of
    ((A + C - lam) row[n] - C row[n-1]) / A in that order; a row reads only
    the two before it, so three arrays in a cycle serve any kmax.
    """
    rows = iter(rows)
    prev = next(rows)
    prev[...] = 1.0
    if kmax < 1:
        return prev
    cur = next(rows)
    np.subtract(1.0, lam / ((a + b) * (a + c)), out=cur)
    head, tail = np.empty_like(lam), np.empty_like(lam)
    for n in range(1, kmax):
        A = (n + a + b) * (n + a + c)
        C = n * (n + b + c - 1.0)
        np.subtract(A + C, lam, out=head)
        np.multiply(head, cur, out=head)
        np.multiply(C, prev, out=tail)
        np.subtract(head, tail, out=head)
        prev, cur = cur, next(rows)
        np.divide(head, A, out=cur)
    return cur


def cdhahn_normalized_batch(kmax: int, xi, a: float, b: float, c: float) -> np.ndarray:
    """3F2(-n, a+i xi, a-i xi; a+b, a+c; 1) for n = 0..kmax, vectorised in xi.

    Uses the three-term recurrence of the continuous dual Hahn family in the
    normalised form S_n / ((a+b)_n (a+c)_n), which stays O(poly) in n and is
    the stable route for large degrees (the terminating sum cancels
    catastrophically once n is a few dozen).  Each row is built in place
    by the one recurrence, ``_cdhahn_recurrence``.
    """
    xi = np.atleast_1d(np.asarray(xi, dtype=float))
    out = np.empty((kmax + 1, len(xi)))
    _cdhahn_recurrence(kmax, a * a + xi * xi, a, b, c, out)
    return out


def cdhahn_normalized_row(n: int, xi, a: float, b: float, c: float) -> np.ndarray:
    """Row n of :func:`cdhahn_normalized_batch` alone, with its bits, from
    the same recurrence cycling through three rows: O(len(xi)) memory at
    any n."""
    xi = np.atleast_1d(np.asarray(xi, dtype=float))
    rows = cycle(np.empty((3, len(xi))))
    return _cdhahn_recurrence(n, a * a + xi * xi, a, b, c, rows)
