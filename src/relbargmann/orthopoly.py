"""Jacobi, Laguerre and continuous dual Hahn polynomial evaluation.

The Jacobi evaluation must stay valid for negative-integer first parameters
(alpha = m - k with k > m occurs throughout the disk eigenbasis); the
terminating-series definition degenerates there, and the parameter-shift
connection formula

    P_n^{(alpha, beta)}(u)
        = ((1-u)/2)^n P_n^{(-2n-alpha-beta-1, beta)}((u+3)/(u-1))

maps those cases onto admissible parameters.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import DomainError
from .hypergeom import (_nonpos_int, _terminating_2f1,
                        hyp3f2_terminating_unit, pochhammer)

_REAL_TRUNC = 1e-12


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

    Evaluated through the terminating Gauss series; when alpha is a negative
    integer -q with 1 <= q <= n that series degenerates and the connection
    formula reroutes the evaluation (with the explicit binomial sum as a last
    resort when the shifted parameter degenerates as well).
    """
    if n < 0 or n != int(n):
        raise DomainError("Jacobi degree must be a nonnegative integer")
    n = int(n)
    if n == 0:
        return 1.0 + 0.0j
    x = complex(x)
    if x == 1.0:
        # (alpha+1)_n / n!; vanishes for negative-integer alpha with q <= n
        return pochhammer(complex(alpha) + 1.0, n) / math.factorial(n)
    if x.real < 0.0:
        # reflect so the series argument (1-x)/2 stays at most 1/2; keeps the
        # alternating terminating sum well conditioned
        return (-1.0) ** n * jacobi_p(n, beta, alpha, -x)
    q = _nonpos_int(complex(alpha) + 1.0)
    degenerate = q is not None and q < n  # alpha in {-1, ..., -n}
    if not degenerate:
        return _jacobi_series(n, alpha, beta, x)
    shifted = -2 * n - complex(alpha) - complex(beta) - 1.0
    q2 = _nonpos_int(shifted + 1.0)
    if q2 is not None and q2 < n:
        return _jacobi_explicit(n, alpha, beta, x)
    return ((1.0 - x) / 2.0) ** n * _jacobi_series(n, shifted, beta, (x + 3.0) / (x - 1.0))


def jacobi_connection(n: int, alpha, beta, u) -> complex:
    """Right-hand side of the parameter-shift connection formula.

    Returns ((1-u)/2)^n P_n^{(-2n-alpha-beta-1, beta)}((u+3)/(u-1)); by the
    connection identity this equals P_n^{(alpha, beta)}(u) wherever both are
    defined.
    """
    u = complex(u)
    if u == 1.0:
        raise DomainError("connection formula is singular at u = 1")
    shifted = -2 * n - complex(alpha) - complex(beta) - 1.0
    return ((1.0 - u) / 2.0) ** n * jacobi_p(n, shifted, beta, (u + 3.0) / (u - 1.0))


def laguerre_l(n: int, alpha: float, x):
    """Generalized Laguerre polynomial L_n^{(alpha)}(x); x may be an ndarray."""
    if n < 0 or n != int(n):
        raise DomainError("Laguerre degree must be a nonnegative integer")
    n = int(n)
    x = np.asarray(x, dtype=float)
    prev = np.ones_like(x)
    if n == 0:
        return prev if prev.shape else float(prev)
    cur = 1.0 + alpha - x
    for k in range(1, n):
        prev, cur = cur, ((2 * k + 1 + alpha - x) * cur - (k + alpha) * prev) / (k + 1)
    return cur if cur.shape else float(cur)


def cdhahn_s(n: int, xi: float, a: float, b: float, c: float) -> float:
    """Continuous dual Hahn polynomial S_n(xi^2; a, b, c).

    Defined through the terminating 3F2 at unit argument,
    S_n = (a+b)_n (a+c)_n 3F2(-n, a+i xi, a-i xi; a+b, a+c; 1).  The terms are
    individually complex but pair into conjugates, so the imaginary part is
    pure roundoff and is truncated.
    """
    if n < 0 or n != int(n):
        raise DomainError("polynomial degree must be a nonnegative integer")
    n = int(n)
    val = (complex(pochhammer(a + b, n) * pochhammer(a + c, n))
           * hyp3f2_terminating_unit(n, a + 1j * xi, a - 1j * xi, a + b, a + c))
    return float(val.real)


def cdhahn_normalized_batch(kmax: int, xi, a: float, b: float, c: float) -> np.ndarray:
    """3F2(-n, a+i xi, a-i xi; a+b, a+c; 1) for n = 0..kmax, vectorised in xi.

    Uses the three-term recurrence of the continuous dual Hahn family in the
    normalised form S_n / ((a+b)_n (a+c)_n), which stays O(poly) in n and is
    the stable route for large degrees (the terminating sum cancels
    catastrophically once n is a few dozen).  Each row is built in place
    with two scratch rows, by the operations of
    ((A + C - lam) out[n] - C out[n-1]) / A in that order.
    """
    xi = np.atleast_1d(np.asarray(xi, dtype=float))
    lam = a * a + xi * xi
    out = np.empty((kmax + 1, len(xi)))
    out[0] = 1.0
    if kmax >= 1:
        out[1] = 1.0 - lam / ((a + b) * (a + c))
    head, tail = np.empty_like(lam), np.empty_like(lam)
    for n in range(1, kmax):
        A = (n + a + b) * (n + a + c)
        C = n * (n + b + c - 1.0)
        np.subtract(A + C, lam, out=head)
        np.multiply(head, out[n], out=head)
        np.multiply(C, out[n - 1], out=tail)
        np.subtract(head, tail, out=head)
        np.divide(head, A, out=out[n + 1])
    return out
