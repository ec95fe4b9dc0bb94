"""Jacobi, Laguerre and continuous dual Hahn polynomial evaluation.

The scalar ``jacobi_p`` must stay valid for negative-integer first
parameters (alpha = m - k with k > m in the disk eigenbasis as written);
the terminating-series definition degenerates there, and the
parameter-shift connection formula

    P_n^{(alpha, beta)}(u)
        = ((1-u)/2)^n P_n^{(-2n-alpha-beta-1, beta)}((u+3)/(u-1))

maps those cases onto admissible parameters.  The vector ``jacobi_q``,
the three-term recurrence behind the disk basis, the coherent-state
overlap and ``jacobi_p`` at real alpha, beta > -1, runs on a, b > -1
alone.
"""

from __future__ import annotations

import math
from itertools import cycle

import numpy as np

from .errors import _check_order
from .hypergeom import _nonpos_int, _terminating_2f1, pochhammer


def _jacobi_series(n: int, alpha, beta, x) -> complex:
    """((alpha+1)_n / n!) 2F1(-n, n+alpha+beta+1; alpha+1; (1-x)/2)."""
    alpha, beta, x = complex(alpha), complex(beta), complex(x)
    return (pochhammer(alpha + 1, n) / math.factorial(n)
            * _terminating_2f1(n, n + alpha + beta + 1, alpha + 1, 0.5 * (1.0 - x)))


def _jacobi_explicit(n: int, alpha, beta, x) -> complex:
    """Explicit double-binomial sum; polynomial in (alpha, beta), any values."""
    alpha, beta, x = complex(alpha), complex(beta), complex(x)
    total = 0.0 + 0.0j
    for s in range(n + 1):
        c1 = pochhammer(alpha + s + 1, n - s) / math.factorial(n - s)
        c2 = pochhammer(beta + n - s + 1, s) / math.factorial(s)
        total += c1 * c2 * (0.5 * (x - 1.0)) ** s * (0.5 * (x + 1.0)) ** (n - s)
    return total


def jacobi_p(n: int, alpha, beta, x) -> complex:
    """Jacobi polynomial P_n^{(alpha, beta)}(x); negative-integer alpha allowed.

    For real alpha, beta > -1 it runs the package's one Jacobi recurrence,
    :func:`jacobi_q` at t = (1 - x)/2; the terminating Gauss series there
    cancels from n = 10 (an error of 22 at n = 30).  Other parameters are
    evaluated through the terminating Gauss series; when alpha is a negative
    integer -q with 1 <= q <= n that series degenerates and the connection
    formula reroutes the evaluation (with the explicit binomial sum as a last
    resort when the shifted parameter degenerates as well).
    """
    n = _check_order(n, "Jacobi degree")
    if n == 0:
        return 1.0 + 0.0j
    x, alpha, beta = complex(x), complex(alpha), complex(beta)
    if x == 1.0:
        # (alpha+1)_n / n!; vanishes for negative-integer alpha with q <= n
        return pochhammer(alpha + 1.0, n) / math.factorial(n)
    if alpha.imag == beta.imag == 0.0 and min(alpha.real, beta.real) > -1.0:
        steps = jacobi_q_steps(n, alpha.real, beta.real)
        return complex((-1.0) ** n * jacobi_q(steps, 0.5 * (1.0 - x), 1.0))
    if x.real < 0.0:
        # reflect so the series argument (1-x)/2 stays at most 1/2; keeps the
        # alternating terminating sum well conditioned
        return (-1.0) ** n * jacobi_p(n, beta, alpha, -x)
    q = _nonpos_int(alpha + 1.0)
    if q is None or q >= n:  # alpha is not in {-1, ..., -n}
        return _jacobi_series(n, alpha, beta, x)
    shifted = -2 * n - alpha - beta - 1.0
    q2 = _nonpos_int(shifted + 1.0)
    if q2 is not None and q2 < n:
        return _jacobi_explicit(n, alpha, beta, x)
    return ((1.0 - x) / 2.0) ** n * _jacobi_series(n, shifted, beta, (x + 3.0) / (x - 1.0))


def jacobi_q_steps(n, a, b: float) -> np.ndarray:
    """Steps (const_j, lead_j, back_j), j = 1 .. max n, of the recurrence

        Q_j = (const_j + lead_j t) Q_(j-1) - back_j Q_(j-2)

    of Q_j = (-1)^j P_j^(a, b)(1 - 2t) (DLMF 18.9.2) for a, b > -1, shape
    (3, max n) + the broadcast shape of ``n`` and ``a``: ``a`` may be a
    column of per-row values, and a row of degree n below j takes the
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
