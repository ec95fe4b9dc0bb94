"""Coherent states labeled by disk points, their overlaps and wave functions.

A coherent state attached to the level (sigma, m) and label z superposes the
oscillator eigenstates with the conjugated disk eigenbasis as coefficients,

    |z> = N(z)^(-1/2) sum_k conj(Phi_k(z)) |phi_k>,
    N(z) = (sigma - 2m - 1) / (pi (1 - |z|^2)^sigma).

Two independent evaluation routes are provided for the wave function
<xi|z>: the defining superposition (``cs_wavefunction_oracle``) and the
closed form through the Kampe de Feriet function F5 with arguments

    tau_z = -(1 - |z|^2)/|1 - z|^2,      nu_z = 1/(1 - z),

(``cs_wavefunction``).  The closed form multiplies F5 by
(1 - |z|^2)^gamma (1 - zbar)^(-2 gamma) ((z - 1)/(1 - zbar))^m and the
oscillator gamma-weights; the conjugate of this kernel, scaled by N^(1/2),
is the integral kernel of the Bargmann-type transform.

Every sum over the disk basis here (both superposition oracles and
``overlap_series``) is cut at ``truncation_order``, set by the summed tail
of |Phi_k(z)|^2, so the cut follows the level (sigma, m) as well as |z|.
The superposition route of the kernel, ``transform_kernel_series``, is the
one sum ``_kernel_expansion`` that the transforms of ``bargmann``
integrate; the closed form is checked against it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import gammaln, loggamma

from .disk import (LandauIndex, basis_phi_batch, basis_radial_profiles,
                   check_disk)
from .errors import DomainError, NonConvergenceError
from .hypergeom import f5_kernel_vec
from .oscillator import ModelParams, _check_xi, conj_state_factors
# looked up here by the layer tracer of bench/tracing.py
from .oscillator import eigenfunction_batch  # noqa: F401

#: evaluation caps for the closed-form kernel and the transforms
KERNEL_RMAX = 0.85
KERNEL_MIN_DIST_ONE = 0.2

#: relative size of the k-tail at which every superposition is cut, and the
#: largest order it may be cut at
TAIL_LEVEL = 1e-15
K_CAP = 8000


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


def truncation_order(idx: LandauIndex, z) -> int:
    """Smallest K with sum_{k>K} |Phi_k(z)|^2 <= TAIL_LEVEL^2 N(z); past
    K_CAP (|z| near 1, or a large sigma) it raises NonConvergenceError.

    The tail is summed term by term, smallest first, from the radial
    profiles up to at least 2K, never as N(z) minus a partial sum, which
    cancels below about 1e-13; the profiles summed must also hold at least
    half of N(z), so that the bulk of the sum, which moves out with sigma,
    is not missed.  At z = 0, K = m.
    """
    r = abs(complex(z)) ** 2
    # |Phi_k(z)| = (1 - r)^-m |g_k(r)|: N(z) and the level on the scale of
    # the g_k
    with np.errstate(over="ignore", divide="ignore"):
        total = normalization(idx, z) * (1.0 - r) ** (2 * idx.m)
    if not math.isfinite(total):
        raise NonConvergenceError(
            f"N(z) overflows at |z| = {math.sqrt(r):.6g}, sigma = {idx.sigma:.6g}")
    level = TAIL_LEVEL ** 2 * total
    n = 128
    while True:
        g = basis_radial_profiles(n, idx, r)[:, 0]
        tails = np.cumsum((g * g)[::-1])[::-1]  # sum of g_j^2 over j >= k
        order = max(int(np.count_nonzero(tails > level)) - 1, 0)
        bulk = tails[0] >= 0.5 * total
        if order > K_CAP or (not bulk and n >= K_CAP):
            raise NonConvergenceError(
                f"the basis sum at |z| = {math.sqrt(r):.6g} needs more than "
                f"{K_CAP} terms to reach a relative tail of {TAIL_LEVEL:g}")
        if bulk and 2 * order <= n:
            return order
        n *= 2


def overlap_series(idx: LandauIndex, z, w) -> complex:
    """Overlap by the defining basis expansion, cut at the
    ``truncation_order`` of the label farther from the origin.

    Independent of :func:`overlap`; serves as its brute-force oracle.
    """
    z = complex(check_disk(z, "z"))
    w = complex(check_disk(w, "w"))
    kmax = truncation_order(idx, max(z, w, key=abs))
    zw = np.array([z, w])
    phi_z, phi_w = basis_phi_batch(kmax, idx, zw).T
    norms = normalization(idx, zw)
    return complex(np.vdot(phi_w, phi_z)) / math.sqrt(norms[0] * norms[1])


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
    xi = _check_xi(xi)
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


def cs_wavefunction_oracle(label: CoherentLabel, xi):
    """Wave function by the defining superposition
    N(z)^(-1/2) sum_k conj(Phi_k(z)) phi_k(xi), cut at ``truncation_order``:
    the conjugate of :func:`transform_kernel_series` over N(z)^(1/2)."""
    params, z = label.params, complex(label.z)
    out = (np.conj(transform_kernel_series(params, z, xi))
           / math.sqrt(normalization(params.landau_index(), z)))
    return complex(out) if np.ndim(out) == 0 else out


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


@np.errstate(over="ignore", invalid="ignore")  # non-finite values raise below
def _kernel_expansion(params: ModelParams, z: complex, kmax: int,
                      factors) -> np.ndarray:
    """sum_{k<=kmax} Phi_k(z) conj(phi_k(xi)) on the nodes of ``factors``,
    the ``conj_state_factors`` table of any order >= kmax.

    The sum over k is two real products of the rows k <= kmax of the
    polynomial table, by ``einsum``: each node's value has the same bits
    whatever the other nodes and rows of the table, so a sum on some of the
    nodes of a table, or on the first rows of a longer one, equals the same
    sum on a table built for just those.

    Raises NonConvergenceError if a value is not finite.
    """
    poly, norms, conj_pref = factors
    rows = poly[:kmax + 1]
    coeffs = basis_phi_batch(kmax, params.landau_index(), z) * norms[:kmax + 1]
    # the real and imaginary parts are strided views: with them einsum adds
    # the rows in order even for a lone node (a contiguous vector would be
    # summed pairwise there)
    sums = (np.einsum("kn,k->n", rows, coeffs.real)
            + 1j * np.einsum("kn,k->n", rows, coeffs.imag))
    out = conj_pref * sums
    if not np.isfinite(out).all():
        raise NonConvergenceError(
            f"kernel expansion up to k = {kmax} at z = {z:.6g} is not finite")
    return out


def transform_kernel_series(params: ModelParams, z, xi) -> np.ndarray:
    """The transform kernel by its defining expansion
    K(z, xi) = sum_k Phi_k(z) conj(phi_k(xi)), k <= ``truncation_order``,
    the kernel the transforms integrate: the oracle of
    :func:`transform_kernel`, with no code in common with the F5 closed form
    and no cap on |z| or |1 - z|."""
    z = complex(check_disk(z))
    kmax = truncation_order(params.landau_index(), z)
    scalar = np.ndim(xi) == 0
    xi = _check_xi(xi)
    out = np.zeros(len(xi), dtype=complex)
    pos = xi > 0
    if pos.any():
        out[pos] = _kernel_expansion(
            params, z, kmax, conj_state_factors(kmax, params.osc, xi[pos]))
    return complex(out[0]) if scalar else out
