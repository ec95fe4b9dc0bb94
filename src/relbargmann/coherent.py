"""Coherent states labeled by disk points, their overlaps and wave functions.

A coherent state attached to the level (sigma, m) and label z superposes the
oscillator eigenstates with the conjugated disk eigenbasis as coefficients,

    |z> = N(z)^(-1/2) sum_k conj(Phi_k(z)) |phi_k>,
    N(z) = (sigma - 2m - 1) / (pi (1 - |z|^2)^sigma).

Two independent evaluation routes are provided for the wave function
<xi|z>: the defining superposition truncated at a controllable order
(``cs_wavefunction_oracle``) and the closed form through the Kampe de Feriet
function F5 with arguments

    tau_z = -(1 - |z|^2)/|1 - z|^2,      nu_z = 1/(1 - z),

(``cs_wavefunction``).  The closed form multiplies F5 by
(1 - |z|^2)^gamma (1 - zbar)^(-2 gamma) ((z - 1)/(1 - zbar))^m and the
oscillator gamma-weights; the conjugate of this kernel, scaled by N^(1/2),
is the integral kernel of the Bargmann-type transform.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import gammaln, loggamma

from .disk import LandauIndex, basis_phi_batch, check_disk
from .errors import DomainError, NonConvergenceError
from .hypergeom import f5_kernel_vec
from .oscillator import ModelParams, eigenfunction_batch

#: evaluation caps for the closed-form kernel and the transforms
KERNEL_RMAX = 0.85
KERNEL_MIN_DIST_ONE = 0.2


@dataclass(frozen=True)
class CoherentLabel:
    """Disk label z together with the coupled model parameters."""

    z: complex
    params: ModelParams

    def __post_init__(self):
        if abs(complex(self.z)) >= 1.0:
            raise DomainError("coherent-state label must lie inside the unit disk")


def normalization(idx: LandauIndex, z) -> float:
    """Squared-norm factor N(z) = (sigma - 2m - 1) / (pi (1 - |z|^2)^sigma)."""
    zz = check_disk(z)
    r = np.abs(np.asarray(zz)) ** 2
    out = (idx.sigma - 2 * idx.m - 1.0) / (np.pi * (1.0 - r) ** idx.sigma)
    return out if np.shape(out) else float(out)


def overlap(idx: LandauIndex, z, w):
    """Overlap <w|z> of two normalized coherent states, in closed form.

    The value is ((1-|z|^2)(1-|w|^2))^(sigma/2 - m) times a ratio of gamma
    factors, the principal-branch power (1 - z wbar)^(m - sigma), the integer
    power (1 - zbar w)^m, and a terminating Gauss sum in the real cross-ratio
    rho = (1-|z|^2)(1-|w|^2)/|1 - z wbar|^2.  Hermitian in (z, w), and of
    modulus at most 1 with equality only at z = w.

    ``w`` may be an ndarray.
    """
    sigma, m = idx.sigma, idx.m
    z = complex(check_disk(z, "z"))
    w = check_disk(w, "w")
    warr = np.asarray(w, dtype=complex)
    one_m_zwbar = 1.0 - z * np.conj(warr)
    rho = ((1.0 - abs(z) ** 2) * (1.0 - np.abs(warr) ** 2)
           / np.abs(one_m_zwbar) ** 2)
    f21 = np.zeros_like(rho, dtype=complex)
    term = np.ones_like(rho, dtype=complex)
    for j in range(m + 1):
        f21 = f21 + term
        term = term * ((-m + j) * (sigma - m + j)
                       / ((sigma - 2 * m + j) * (j + 1))) * rho
    val = ((1.0 - abs(z) ** 2) * (1.0 - np.abs(warr) ** 2)) ** (sigma / 2.0 - m)
    val = val * ((-1.0) ** m * math.exp(gammaln(sigma - m) - gammaln(sigma - 2 * m))
                 / math.factorial(m))
    val = val * (1.0 - np.conj(z) * warr) ** m * one_m_zwbar ** (m - sigma)
    out = val * f21
    return out if out.shape else complex(out)


def overlap_series(idx: LandauIndex, z, w, kmax: int = 160) -> complex:
    """Overlap by the defining basis expansion, truncated at kmax.

    Independent of :func:`overlap`; serves as its brute-force oracle.
    """
    z = complex(check_disk(z, "z"))
    w = complex(check_disk(w, "w"))
    phi_z = basis_phi_batch(kmax, idx, z)
    phi_w = basis_phi_batch(kmax, idx, w)
    total = complex(np.sum(phi_z * np.conj(phi_w)))
    return total / math.sqrt(normalization(idx, z) * normalization(idx, w))


def cs_distance(idx: LandauIndex, z, w) -> float:
    """Hilbert-space distance between the states labeled z and w.

    Equals sqrt(2 (1 - Re <z|w>)); zero exactly at z = w and continuous in
    the labels.
    """
    if complex(z) == complex(w):
        return 0.0
    gap = 2.0 * (1.0 - complex(overlap(idx, z, w)).real)
    return math.sqrt(max(gap, 0.0))


def _check_kernel_domain(z: complex):
    if abs(z) > KERNEL_RMAX:
        raise DomainError(
            f"closed-form kernel is validated for |z| <= {KERNEL_RMAX}; "
            f"got |z| = {abs(z):.4f}")
    if abs(1.0 - z) < KERNEL_MIN_DIST_ONE:
        raise DomainError(
            f"closed-form kernel requires |1 - z| >= {KERNEL_MIN_DIST_ONE}")


def _wavefunction_profile(params: ModelParams, z: complex, xi: np.ndarray,
                          conjugate: bool = False) -> np.ndarray:
    """Closed-form wave function of the state labeled z on an array of xi.

    With ``conjugate=True`` the complex conjugate is produced directly (all
    spectral parameters flipped), which is the transform-kernel orientation.
    """
    gamma, m = params.gamma, params.m
    xi = np.atleast_1d(np.asarray(xi, dtype=float))
    if np.any(xi < 0):
        raise DomainError("wave functions live on xi >= 0")
    out = np.zeros(len(xi), dtype=complex)
    pos = xi > 0
    if not np.any(pos):
        return out
    xp = xi[pos]
    sgn = -1.0 if conjugate else 1.0
    tau = -(1.0 - abs(z) ** 2) / abs(1.0 - z) ** 2
    nu = 1.0 / (1.0 - np.conj(z)) if conjugate else 1.0 / (1.0 - z)
    f5 = f5_kernel_vec(c=gamma + sgn * 1j * xp, d=gamma - sgn * 1j * xp,
                       e=gamma + 0.5, m=m, ap=2.0 * gamma, chi=tau, zeta=nu)
    zc = z if not conjugate else np.conj(z)
    lpref = (0.5 * math.log(2.0) + 0.5 * (gammaln(m + 2.0 * gamma) - gammaln(m + 1.0))
             - gammaln(2.0 * gamma) - gammaln(gamma + 0.5))
    phase = np.exp(sgn * (1j * math.pi * gamma / 2.0 - 4j * xp * math.log(params.osc.c)))
    gammas = np.exp(2.0 * loggamma(gamma + sgn * 1j * xp) - loggamma(sgn * 1j * xp))
    zfac = ((1.0 - abs(z) ** 2) ** gamma * (1.0 - np.conj(zc)) ** (-2.0 * gamma)
            * ((zc - 1.0) / (1.0 - np.conj(zc))) ** m)
    out[pos] = math.exp(lpref) * phase * gammas * zfac * f5
    return out


def cs_wavefunction(label: CoherentLabel, xi):
    """Wave function <xi|z> of the coherent state, by the F5 closed form.

    Vanishes at xi = 0.  Restricted to labels with |z| <= 0.85 and
    |1 - z| >= 0.2, the domain on which the closed-form kernel has been
    validated against the superposition oracle.
    """
    z = complex(label.z)
    _check_kernel_domain(z)
    scalar = np.ndim(xi) == 0
    vals = _wavefunction_profile(label.params, z, np.atleast_1d(xi))
    return complex(vals[0]) if scalar else vals


def cs_wavefunction_oracle(label: CoherentLabel, xi, kmax: int = 160,
                           tol: float = 1e-8):
    """Wave function by the truncated defining superposition.

    Sums N^(-1/2) conj(Phi_k(z)) phi_k(xi) for k <= kmax.  Ten further terms
    are evaluated beyond the truncation point; their magnitudes, extended
    geometrically with ratio |z|, bound the discarded tail.

    Raises
    ------
    NonConvergenceError
        If the tail estimate exceeds ``tol``.
    """
    if kmax < 0:
        raise DomainError("oracle truncation order must be nonnegative")
    params = label.params
    z = complex(label.z)
    idx = params.landau_index()
    scalar = np.ndim(xi) == 0
    xi_arr = np.atleast_1d(np.asarray(xi, dtype=float))
    probe = kmax + 10
    coeffs = np.conj(basis_phi_batch(probe, idx, z))
    states = eigenfunction_batch(probe, params.osc, xi_arr)
    terms = coeffs[:, None] * states
    norm = math.sqrt(normalization(idx, z))
    total = terms[: kmax + 1].sum(axis=0) / norm
    probe_mags = np.abs(terms[kmax + 1:]).sum(axis=0) / norm
    last_mag = float(np.max(np.abs(terms[-1]))) / norm
    ratio = min(abs(z), 0.9)
    tail = float(np.max(probe_mags)) + last_mag * ratio / (1.0 - ratio)
    if tail > tol:
        raise NonConvergenceError(
            f"superposition tail estimate {tail:.3e} exceeds tol = {tol:.1e}; "
            f"raise kmax")
    return complex(total[0]) if scalar else total


def transform_kernel(params: ModelParams, z, xi) -> np.ndarray:
    """Integral kernel K(z, xi) = N(z)^(1/2) conj(<xi|z>) of the transform.

    This is the weight against which f is integrated in the Bargmann-type
    transform; evaluated in the conjugated orientation (spectral parameters
    gamma - i xi) directly.  Restricted to the validated domain of
    :func:`cs_wavefunction`.
    """
    z = complex(check_disk(z))
    _check_kernel_domain(z)
    idx = params.landau_index()
    scalar = np.ndim(xi) == 0
    vals = _wavefunction_profile(params, z, np.atleast_1d(xi), conjugate=True)
    out = math.sqrt(normalization(idx, z)) * vals
    return complex(out[0]) if scalar else out


def series_kmax_for(z: complex) -> int:
    """Truncation order 20 past where |z|^k reaches 1e-15, in [60, 8000]."""
    rho = abs(complex(z))
    if rho < 1e-6:
        return 60
    k = int(math.log(1e-15) / math.log(rho)) + 20
    return min(max(k, 60), 8000)


def transform_kernel_series(params: ModelParams, z, xi,
                            kmax: int | None = None) -> np.ndarray:
    """The transform kernel through its defining expansion.

    Identically K(z, xi) = sum_k Phi_k(z) conj(phi_k(xi)) (the normalization
    factors cancel).  This route is free of the large-xi cancellation that
    limits the closed form near the disk boundary, so it serves both as the
    independent oracle and as the evaluation path for norm integrals over
    nearly the whole disk.
    """
    z = complex(check_disk(z))
    if kmax is None:
        kmax = series_kmax_for(z)
    idx = params.landau_index()
    scalar = np.ndim(xi) == 0
    xi_arr = np.atleast_1d(np.asarray(xi, dtype=float))
    coeffs = basis_phi_batch(kmax, idx, z)
    states = eigenfunction_batch(kmax, params.osc, xi_arr)
    out = coeffs @ np.conj(states)
    return complex(out[0]) if scalar else out
