"""Log-gamma functions on numpy alone.

``loggamma`` is the principal branch of log Gamma(z) for complex z, the
branch continuous from the positive real axis with its cut on the negative
real axis (the convention of scipy.special.loggamma and mpmath.loggamma,
and the one for which loggamma(z + 1) = loggamma(z) + log z holds with
principal logarithms).  ``gammaln`` is log |Gamma(x)| for real x, one
``math.lgamma`` per element.

Re z >= 0 (every argument the states, kernels and norms of the package
pass, gamma +- i xi and +- i xi): Stirling's series with eleven Bernoulli
terms at |z| >= 7, whose truncation error there is below 1e-17; below 7 the
argument is shifted up by seven, loggamma(z) = loggamma(z + 7) - sum_j
log(z + j), with the logs taken in pairs log(z (z + 1)) + ... , which stay
on the principal branch since arg z and arg(z + 1) have the same sign and
|arg| <= pi/2, and with the rounding of Re(z + 7) taken back to first
order.  Within 0.2 of 1 and 2, where loggamma vanishes, the Taylor series
at 1 (exact zeros at 1 and 2).  Re z < 0: the reflection formula in the
form that keeps the branch (Hare, J. Algorithms 25 (1997), Prop. 3.1), for
Im z >= 0

    loggamma(z) = log(2 pi) + i pi (z - 1/2) - log(1 - exp(2 pi i z))
                  - loggamma(1 - z),

and its conjugate for Im z < 0; the real part of z is reduced by its nearest
integer n before the exponential, and i pi n added back, so that the phase
of exp(2 pi i z) is exact.  On the negative real axis (a signed zero
included) this gives the limit from above, as scipy does; at z = 0, -1, -2,
... it gives NaN.

Largest absolute error against mpmath at 40 digits, 800 random points a
range (scipy.special.loggamma on the same points in brackets): 4.3e-14
(4.3e-14) on gamma +- i xi with gamma <= 3, xi <= 40, the range of the
transforms' layouts; 2.9e-14 (2.9e-14) on +- i xi, xi <= 40; 6.8e-13
(6.8e-13) on 1 <= Re z <= 60, |Im z| <= 400, where |loggamma| reaches
2,000; 4.7e-13 (4.7e-13) on +- i xi, xi <= 400; 7.2e-15 (4.6e-15) on
|Re z|, |Im z| <= 3; 6.4e-14 (6.4e-14) on -60 <= Re z < 0, |Im z| <= 5.
Each element's value has the same bits whatever the other elements of the
array, as the package's caches need.
"""

from __future__ import annotations

import math

import numpy as np

#: B_2k / (2k (2k - 1)), k = 1 .. 11: the Stirling series
#: sum_k B_2k / (2k (2k - 1) z^(2k - 1)) of loggamma
_STIRLING = [b / ((2 * k + 2) * (2 * k + 1)) for k, b in enumerate(
    [1 / 6, -1 / 30, 1 / 42, -1 / 30, 5 / 66, -691 / 2730, 7 / 6,
     -3617 / 510, 43867 / 798, -174611 / 330, 854513 / 138])]
_SHIFT = 7.0
#: c_k, k = 1 .. 23, of loggamma(1 + e) = sum_k c_k e^k: -Euler's gamma,
#: then (-1)^k zeta(k) / k; within 1e-18 of the sum for |e| < 0.2
_TAYLOR = [
    -0.5772156649015329, 0.8224670334241132, -0.40068563438653143,
    0.27058080842778454, -0.20738555102867398, 0.1695571769974082,
    -0.1440498967688461, 0.12550966952474304, -0.11133426586956469,
    0.1000994575127818, -0.09095401714582904, 0.083353840546109,
    -0.0769325164113522, 0.07143294629536133, -0.06666870588242046,
    0.06250095514121304, -0.058823978658684585, 0.055555767627403614,
    -0.05263167937961666, 0.05000004769810169, -0.047619070330142226,
    0.04545455629320467, -0.04347826605304026]
_TAYLOR_RADIUS = 0.2
_HALF_LOG_2PI = 0.5 * math.log(2.0 * math.pi)
_LOG_2PI = math.log(2.0 * math.pi)


def gammaln(x) -> np.ndarray:
    """log |Gamma(x)| for each element of the real array x, by
    ``math.lgamma`` (within 1.2e-15 of mpmath relative to max(1, |value|)
    on [0.5, 1e3]); elementwise, so an element's value does not depend on
    the others.  The package calls ``math.lgamma`` itself on scalars."""
    x = np.asarray(x, dtype=float)
    return np.array(list(map(math.lgamma, x.ravel().tolist())),
                    dtype=float).reshape(x.shape)


# No complex product here is taken in place: numpy's in-place complex
# multiply rounds differently with an element's position in the array,
# and the package's caches rely on each element's bits being its own.

def _stirling(w: np.ndarray, log_w: np.ndarray) -> np.ndarray:
    """loggamma(w) by Stirling's series from w and log w, for |w| >= 7 and
    Re w >= 0."""
    r = 1.0 / w
    r2 = r * r
    series = r2 * _STIRLING[-1]
    for coef in _STIRLING[-2:0:-1]:
        series += coef
        series = series * r2
    series += _STIRLING[0]
    out = (w - 0.5) * log_w
    out -= w
    out += series * r
    out += _HALF_LOG_2PI
    return out


def _near_one_two(z: np.ndarray) -> np.ndarray:
    """loggamma(z) within _TAYLOR_RADIUS of 1 or 2, where it vanishes and
    the shifted sum of ``_loggamma_right`` would cancel: the Taylor series
    at 1, and log(z - 1) + loggamma(z - 1) near 2."""
    at_two = z.real > 1.5
    e = z - np.where(at_two, 2.0, 1.0)
    series = e * _TAYLOR[-1]
    for coef in _TAYLOR[-2::-1]:
        series += coef
        series = series * e
    return series + np.where(at_two, np.log1p(e), 0.0)


def _loggamma_right(z: np.ndarray) -> np.ndarray:
    """loggamma(z) for Re z >= 0 (a 1-D array)."""
    small = np.abs(z) < _SHIFT
    if not small.any():
        return _stirling(z, np.log(z))
    zs = z[small]
    w = z.copy()
    w[small] += _SHIFT
    log_w = np.log(w)
    out = _stirling(w, log_w)
    # Re(z + 7) is rounded (by up to half an ulp of 14, against one of 1
    # for gamma near 1, a bias of 1e-15 in loggamma at fixed gamma); the
    # rounding, (w - 7) - z exactly, times psi(w) = log w - 1/(2w) + ...
    # (log w alone is within 7% of it) takes the Stirling value back to z + 7
    rounding = (w.real[small] - _SHIFT) - zs.real
    logs = np.log(zs * (zs + 1.0))
    logs += np.log((zs + 2.0) * (zs + 3.0))
    logs += np.log((zs + 4.0) * (zs + 5.0))
    logs += np.log(zs + 6.0)
    logs += rounding * log_w[small]
    out[small] -= logs
    near = ((np.abs(zs - 1.0) < _TAYLOR_RADIUS)
            | (np.abs(zs - 2.0) < _TAYLOR_RADIUS))
    if near.any():
        out[np.flatnonzero(small)[near]] = _near_one_two(zs[near])
    return out


def log_gamma_ratio(gamma: float, xi: np.ndarray) -> np.ndarray:
    """2 loggamma(gamma + i xi) - loggamma(i xi) for real xi of either sign:
    the exponent of Gamma(gamma + i xi)^2 / Gamma(i xi), the gamma factor
    of every oscillator state, kernel and wave function.  One ``loggamma``
    call on both arguments, with the bits of two."""
    n = len(xi)
    both = loggamma(np.concatenate((gamma + 1j * xi, 1j * xi)))
    return 2.0 * both[:n] - both[n:]


def _loggamma_left(z: np.ndarray) -> np.ndarray:
    """loggamma(z) for Re z < 0 (a 1-D array) by the reflection formula,
    on the upper half plane and conjugated below; NaN at the poles."""
    below = z.imag < 0
    zu = np.where(below, z.conj(), z)
    n = np.round(zu.real)
    u = zu - n
    out = (_LOG_2PI + 1j * math.pi * (u - 0.5) + 1j * math.pi * n
           - np.log1p(-np.exp(2j * math.pi * u)) - _loggamma_right(1.0 - zu))
    out[u == 0] = np.nan
    return np.where(below, out.conj(), out)


@np.errstate(divide="ignore", invalid="ignore")  # poles give NaN, set below
def loggamma(z) -> np.ndarray:
    """Principal branch of log Gamma(z), elementwise over a complex array
    (a numpy scalar for a scalar); NaN at the poles z = 0, -1, -2, ..."""
    z = np.asarray(z, dtype=complex)
    flat = z.reshape(-1)
    left = flat.real < 0
    if left.any():
        out = np.empty_like(flat)
        out[~left] = _loggamma_right(flat[~left])
        out[left] = _loggamma_left(flat[left])
    else:
        out = _loggamma_right(flat)
    if not flat.all():
        out[flat == 0] = np.nan
    return out.reshape(z.shape)[()]
