"""Cubic spline through complex samples, with not-a-knot end conditions.

The spline of ``SampledFunction`` (de Boor, *A Practical Guide to Splines*,
Springer 1978, ch. IV): the slopes s_i at the knots solve the tridiagonal
system of C^2 continuity,

    h_i s_(i-1) + 2 (h_(i-1) + h_i) s_i + h_(i-1) s_(i+1)
        = 3 (h_i m_(i-1) + h_(i-1) m_i),    i = 1 .. n-2,

with h_i the knot spacings and m_i the secant slopes, closed by the
not-a-knot rows (the third derivative is continuous at the second and the
last but one knot).  Those are the end conditions, the rows and the
coefficients of scipy's ``CubicSpline`` by default, its two-sample (a line)
and three-sample (a parabola) cases included.  The system is solved by
cyclic reduction, vectorised across each level, once the two end rows are
eliminated, which leaves it strictly diagonally dominant.
"""

from __future__ import annotations

import numpy as np


def _solve_tridiagonal(lower: np.ndarray, diag: np.ndarray,
                       upper: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """x with lower_i x_(i-1) + diag_i x_i + upper_i x_(i+1) = rhs_i, by
    cyclic reduction without pivoting (stable for a diagonally dominant
    system); lower[0] and upper[-1] are not read.

    The system is padded with identity rows to 2^j q - 1 rows, q - 1
    between 4 and 7 (j = 0 below 8 rows), so that each of the j levels
    keeps its odd rows and eliminates both of their neighbours; the q - 1
    rows left are solved densely.
    """
    n = len(diag)
    levels = max(n.bit_length() - 3, 0)
    size = -(-(n + 1) // (1 << levels) << levels) - 1
    pad = size - n
    a = np.concatenate(([0.0], lower[1:], np.zeros(pad)))
    b = np.concatenate((diag, np.ones(pad)))
    c = np.concatenate((upper[:-1], np.zeros(pad + 1)))
    d = np.concatenate((rhs, np.zeros(pad, dtype=rhs.dtype)))
    stack = []
    for _ in range(levels):
        stack.append((a, b, c, d))
        left = -a[1::2] / b[:-1:2]
        right = -c[1::2] / b[2::2]
        a, b, c, d = (left * a[:-1:2],
                      b[1::2] + left * c[:-1:2] + right * a[2::2],
                      right * c[2::2],
                      d[1::2] + left * d[:-1:2] + right * d[2::2])
    x = np.linalg.solve(np.diag(b) + np.diag(c[:-1], 1) + np.diag(a[1:], -1),
                        d)
    zero = np.zeros(1, dtype=x.dtype)
    for a, b, c, d in reversed(stack):
        full = np.empty(len(b), dtype=x.dtype)
        full[1::2] = x
        full[::2] = (d[::2] - a[::2] * np.concatenate((zero, x))
                     - c[::2] * np.concatenate((x, zero))) / b[::2]
        x = full
    return x[:n]


class CubicSpline:
    """Not-a-knot cubic spline through (x_i, y_i), x strictly increasing,
    y complex; ``c`` holds the coefficients of each piece,
    y = ((c[0] h + c[1]) h + c[2]) h + c[3] with h = xi - x_i.  Calling it
    evaluates the piece of each point, the first or the last one outside
    [x_0, x_(n-1)].  Samples a subnormal distance apart overflow the slopes,
    which leaves ``c`` not finite; the caller checks."""

    def __init__(self, x, y):
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=complex)
        h = np.diff(x)
        secant = np.diff(y) / h
        if len(x) == 2:
            slopes = np.array([secant[0], secant[0]])
        elif len(x) == 3:
            system = np.array([[1.0, 1.0, 0.0],
                               [h[1], 2.0 * (h[0] + h[1]), h[0]],
                               [0.0, 1.0, 1.0]])
            slopes = np.linalg.solve(system, np.array([
                2.0 * secant[0], 3.0 * (h[0] * secant[1] + h[1] * secant[0]),
                2.0 * secant[1]]))
        else:
            slopes = self._not_a_knot_slopes(x, h, secant)
        t = (slopes[:-1] + slopes[1:] - 2.0 * secant) / h
        self.x = x
        self._index = np.arange(len(x), dtype=float)
        self.c = np.array([t / h, (secant - slopes[:-1]) / h - t,
                           slopes[:-1], y[:-1]])

    @staticmethod
    def _not_a_knot_slopes(x, h, secant):
        """Slopes of n >= 4 knots: rows 1 .. n-2 by cyclic reduction after
        the not-a-knot rows h_1 s_0 + (h_0 + h_1) s_1 = r_0 and its mirror
        at the end are used to eliminate s_0 and s_(n-1)."""
        d0, d1 = x[2] - x[0], x[-1] - x[-3]
        r0 = ((h[0] + 2.0 * d0) * h[1] * secant[0]
              + h[0] * h[0] * secant[1]) / d0
        r1 = (h[-1] * h[-1] * secant[-2]
              + (2.0 * d1 + h[-1]) * h[-2] * secant[-1]) / d1
        diag = 2.0 * (h[:-1] + h[1:])
        rhs = 3.0 * (h[1:] * secant[:-1] + h[:-1] * secant[1:])
        # row 1 has the s_0 coefficient h_1 of row 0, so row 1 minus row 0
        # drops s_0; row n-2 minus row n-1 drops s_(n-1) alike
        diag[0] -= d0
        rhs[0] -= r0
        diag[-1] -= d1
        rhs[-1] -= r1
        inner = _solve_tridiagonal(h[1:], diag, h[:-1], rhs)
        return np.concatenate(([(r0 - d0 * inner[0]) / h[1]], inner,
                               [(r1 - d1 * inner[-1]) / h[-2]]))

    def __call__(self, xi) -> np.ndarray:
        xi = np.asarray(xi, dtype=float)
        # the piece x_i <= xi: np.interp's search starts from the last
        # piece found, 2-3 times faster than searchsorted on the layouts'
        # panel-wise sorted nodes; it rounds up to i + 1 just below x_(i+1)
        piece = np.interp(xi, self.x, self._index).astype(np.intp)
        piece -= xi < self.x[piece]
        np.clip(piece, 0, len(self.x) - 2, out=piece)
        h = xi - self.x[piece]
        c = self.c[:, piece]
        return ((c[0] * h + c[1]) * h + c[2]) * h + c[3]
