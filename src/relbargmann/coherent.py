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
``overlap_series``) is cut by one rule, ``_basis_cut``, set by the summed
tail of |Phi_k(z)|^2, so the cut follows the level (sigma, m) as well as
|z|.  The rule takes a whole grid: one table of the points still open,
extended by the rows n + 1 .. 2n at each doubling of n, from which it
returns each point's column Phi_0(z) .. Phi_K(z), one cut per grid, so a
transform or kernel point evaluates each row of its basis once, and
``overlap_series`` cuts the farther labels of all its pairs in one call.
The transforms of ``bargmann`` dot those columns with the projections
<f, phi_k> of f.  The superposition route of the kernel,
``transform_kernel_series``, is the one sum ``_kernel_expansion``, and
``transform_kernel_series_grid`` sums it on a grid of disk points and xi
from one state table per block of at most ``MAX_TABLE_ENTRIES`` entries:
the route of ``eval --function kernel`` and ``cs_wavefunction``.  The
closed form is
checked against it; it holds to about 1e-14 relative on most of the
validated domain, but is lost in places (at c = 2, m = 1,
z = 0.479 - 0.379i, xi = 40 it is off by a factor of 3e9), where the
expansion meets a 30-digit sum.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .disk import LandauIndex, _basis_rows, basis_phi_batch, check_disk
from .errors import DomainError, NonConvergenceError
from .hypergeom import f5_kernel_vec
from .orthopoly import jacobi_q, jacobi_q_steps
from .oscillator import (MAX_TABLE_ENTRIES, ModelParams, _check_xi,
                         conj_state_prefactor, state_norms,
                         state_polynomials)
from .special import log_gamma_ratio
# looked up here by the layer tracer of bench/tracing.py
from .oscillator import eigenfunction_batch  # noqa: F401

#: evaluation caps for the closed-form kernel and the transforms
KERNEL_RMAX = 0.85
KERNEL_MIN_DIST_ONE = 0.2

#: relative size of the k-tail at which every superposition is cut, and the
#: largest order it may be cut at
TAIL_LEVEL = 1e-15
K_CAP = 8000
#: the most points one table of the cut holds, which bounds its memory: the
#: cut of 4,872 points at c = 1, m = 1, |z| <= 0.8 peaks at 16 MB, 51 MB in
#: one table
CUT_BLOCK_POINTS = 512


@dataclass(frozen=True)
class CoherentLabel:
    """Disk label z together with the coupled model parameters."""

    z: complex
    params: ModelParams

    def __post_init__(self):
        object.__setattr__(self, "z", check_disk(_one_point(self.z),
                                                 "coherent-state label"))


def normalization(idx: LandauIndex, z) -> float:
    """Squared-norm factor N(z) = (sigma - 2m - 1) / (pi (1 - |z|^2)^sigma)
    at a point (a float) or an array of them; a point is taken as the
    one-element array, so it has the bits of its element in any array
    call.  NonConvergenceError, naming the first point, where it passes the
    double range (at c = 20, |z| = 0.85)."""
    zz = check_disk(z)
    r = np.abs(np.atleast_1d(zz)) ** 2
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        out = (idx.sigma - 2 * idx.m - 1.0) / (np.pi * (1.0 - r) ** idx.sigma)
    bad = ~np.isfinite(out)
    if bad.any():
        raise NonConvergenceError(
            f"N(z) overflows at |z| = {math.sqrt(r[np.argmax(bad)]):.6g}, "
            f"sigma = {idx.sigma:.6g}")
    return out.reshape(np.shape(zz)) if np.ndim(zz) else float(out[0])


def overlap(idx: LandauIndex, z, w):
    """Overlap <w|z> of two normalized coherent states, in closed form,

        <w|z> = (-1)^m rho^a P_m^(alpha, 0)(1 - 2 rho) exp(-i sigma Arg u),

    with u = 1 - z wbar, the real cross-ratio
    rho = (1-|z|^2)(1-|w|^2)/|u|^2, alpha = sigma - 2m - 1 >= 0 and
    a = sigma/2 - m.  It is the Gauss form
    C (1-|z|^2)^(sigma/2-m) (1-|w|^2)^(sigma/2-m) (1 - zbar w)^m u^(m-sigma)
    2F1(-m, sigma-m; sigma-2m; rho) reduced by
    C 2F1 = (-1)^m P_m^(alpha, 0)(1 - 2 rho) (DLMF 18.5.7).  That is
    P_m^(0, alpha)(1 - 2t) in t = 1 - rho = |z - w|^2/|u|^2, which keeps its
    digits near the diagonal, where the overlap is largest, summed by the
    package's one three-term recurrence (DLMF 18.9.2), ``orthopoly.jacobi_q``
    at (a, b) = (0, alpha).  Of modulus at most 1 with equality only
    at z = w, and Hermitian in (z, w): the rounding is symmetric too, so
    swapping z and w conjugates each value exactly when both calls see the
    same shapes.

    ``z`` and ``w`` are points or arrays of them and broadcast against each
    other: two points give a complex, anything else an ndarray, and each
    value is within 1e-15 of the one-point call at its pair.  Within 2e-14
    absolute of a 40-digit evaluation of the Gauss form for c <= 8,
    m <= 20, |z|, |w| <= 0.85 (tested to 1e-12).  On the diagonal the
    recurrence runs at the end point x = -1 of the Jacobi interval, where
    its rounding grows like m^1.5 eps: 1.8e-12 at c = 20, m = 1000.

    Each rho^a P_k, k <= m, has modulus at most 1 (it is the overlap of the
    level (alpha + 1 + 2k, k)), while P_k alone reaches
    B_m = binomial(m + alpha, m), and rho^a underflows.  The recurrence runs
    on e^s rho^a P_k with s = max(log B_m - 660, 0): it stays below
    e^700, and where its start e^s rho^a underflows the value is below
    e^-48.  NonConvergenceError where s would pass 700 (log B_m > 1360,
    as at c = 30, m = 1000).
    """
    sigma, m = idx.sigma, idx.m
    z = np.asarray(check_disk(z, "z"))
    w = np.asarray(check_disk(w, "w"))
    alpha = sigma - 2 * m - 1.0
    a = (alpha + 1.0) / 2.0
    log_bound = math.fsum(math.log1p(alpha / j) for j in range(1, m + 1))
    shift = max(log_bound - 660.0, 0.0)
    if shift > 700.0:
        raise NonConvergenceError(
            f"the overlap at sigma = {sigma:.6g}, m = {m} needs P_m up to "
            f"e^{log_bound:.0f}, past the double range")
    zr, zi, wr, wi = z.real, z.imag, w.real, w.imag
    ur = 1.0 - (zr * wr + zi * wi)
    ui = zr * wi - zi * wr
    den = ur * ur + ui * ui
    rho = (1.0 - (zr * zr + zi * zi)) * (1.0 - (wr * wr + wi * wi)) / den
    p = (rho * math.exp(shift / a)) ** a
    if m:
        gap = ((zr - wr) ** 2 + (zi - wi) ** 2) / den  # 1 - rho
        p = jacobi_q(jacobi_q_steps(m, 0.0, alpha), gap, p)
    # exp(-i sigma Arg u) = (1 - t^2 + 2i t)/(1 + t^2) with
    # t = tan(-sigma Arg u / 2): numpy's float64 tan is a vector loop, where
    # its cos and sin call libm per element (a tenth of their time on 49k
    # points, x86-64 with AVX-512)
    t = np.tan(np.arctan2(ui, ur) * (-0.5 * sigma))
    t2 = t * t
    p = p * ((-1.0) ** m * math.exp(-shift)) / (1.0 + t2)
    out = np.empty(np.shape(p), dtype=complex)
    np.multiply(p, 1.0 - t2, out=out.real)
    np.multiply(p, t + t, out=out.imag)
    return out if out.shape else complex(out)


def _basis_cut(idx: LandauIndex, points) -> list[np.ndarray]:
    """The columns Phi_k(z), k = 0..K(z), of every z of ``points`` (a point,
    or a list or array of them), with K(z) the smallest order that meets
    sum_{k>K} |Phi_k(z)|^2 <= TAIL_LEVEL^2 N(z): the one truncation rule of
    every basis sum, and the columns those sums read.  Past K_CAP (|z| near
    1, or a large sigma) it raises NonConvergenceError.

    The points are cut in blocks of at most CUT_BLOCK_POINTS, each in one
    table of its points still open: ``basis_phi_batch(128, idx, .)``
    first, and at each doubling n -> 2n the rows n + 1 .. 2n alone
    (``disk._basis_rows``), so no row of a point is evaluated twice; a
    point leaves the table once its cut holds.  Each tail is summed term by
    term, smallest first, up to at least 2K, never as N(z) minus a partial
    sum, which cancels below about 1e-13, and the terms summed must also
    hold at least half of N(z), so that the bulk of the sum, which moves out
    with sigma, is not missed.  At z = 0, K = m.  |z|^2, N(z), the weights
    and the level are arrays over the block's open points, in the one
    arithmetic of an array (``normalization`` rounds a point as the
    one-element array), and each column has the bits of
    ``basis_phi_batch(K, idx, z)``, whatever the other points and blocks.
    The error names the first point that fails.
    """
    points = np.asarray(points, dtype=complex).ravel()
    columns = []
    for start in range(0, len(points), CUT_BLOCK_POINTS):
        zs = points[start:start + CUT_BLOCK_POINTS]
        r = np.abs(zs) ** 2
        # the terms |Phi_k(z)| (1 - r)^m: N(z) and the level on their scale
        total = normalization(idx, zs) * (1.0 - r) ** (2 * idx.m)
        weight = (1.0 - r) ** idx.m
        level = TAIL_LEVEL ** 2 * total
        block = [None] * len(zs)
        active = np.arange(len(zs))  # the points of the table's columns
        n = 128
        table = basis_phi_batch(n, idx, zs)
        g = np.abs(table) * weight
        squares = g * g
        while True:
            tails = np.cumsum(squares[::-1], axis=0)[::-1]  # sum over j >= k
            order = np.maximum((tails > level).sum(axis=0) - 1, 0)
            bulk = tails[0] >= 0.5 * total
            failed = (order > K_CAP) | (~bulk & (n >= K_CAP))
            if failed.any():
                raise NonConvergenceError(
                    f"the basis sum at |z| = "
                    f"{math.sqrt(r[np.argmax(failed)]):.6g} needs more than "
                    f"{K_CAP} terms to reach a relative tail of "
                    f"{TAIL_LEVEL:g}")
            done = bulk & (2 * order <= n)
            for j in np.flatnonzero(done).tolist():
                block[active[j]] = table[:order[j] + 1, j]
            if done.all():
                break
            if done.any():
                keep = ~done
                active, zs, r, total, weight, level = (
                    v[keep] for v in (active, zs, r, total, weight, level))
                table, squares = table[:, keep], squares[:, keep]
            rows = _basis_rows(n + 1, 2 * n, idx, zs)
            g = np.abs(rows) * weight
            table = np.concatenate([table, rows])
            squares = np.concatenate([squares, g * g])
            n *= 2
        # a column is a view of its table: those of all blocks but the last
        # are copied, so that the block's tables are freed
        if start + CUT_BLOCK_POINTS < len(points):
            block = [column.copy() for column in block]
        columns += block
    return columns


def overlap_series(idx: LandauIndex, z, w):
    """Overlap by the defining basis expansion,
    sum_k conj(Phi_k(w)) Phi_k(z) / (N(z) N(w))^(1/2), cut at the
    ``_basis_cut`` of the label farther from the origin (z on a tie).

    ``z`` and ``w`` are points or arrays of them and broadcast against each
    other, as in :func:`overlap`: two points give a complex, anything else
    an ndarray, and each value has the bits of the one-pair call.  The
    farther labels take one cut, the nearer ones one table up to the
    largest K, and each pair's two columns sit side by side, as in a
    two-column table of that pair alone, so that ``np.vdot`` strides
    through them alike whatever the number of pairs.

    Independent of :func:`overlap`; serves as its brute-force oracle.
    """
    z, w = np.broadcast_arrays(np.asarray(check_disk(z, "z")),
                               np.asarray(check_disk(w, "w")))
    zs, ws = z.ravel().tolist(), w.ravel().tolist()
    flip = [int(abs(b) > abs(a)) for a, b in zip(zs, ws)]  # w is farther
    far = [b if f else a for a, b, f in zip(zs, ws, flip)]
    near = [a if f else b for a, b, f in zip(zs, ws, flip)]
    columns = _basis_cut(idx, far)
    kmax = max(map(len, columns), default=1) - 1
    pair = np.empty((kmax + 1, len(zs), 2), dtype=complex)
    pair[:, :, 1] = basis_phi_batch(kmax, idx, np.array(near, dtype=complex))
    dots = np.empty(len(zs), dtype=complex)
    for j, (column, f) in enumerate(zip(columns, flip)):
        k = len(column)
        pair[:k, j, 0] = column
        dots[j] = np.vdot(pair[:k, j, 1 - f], pair[:k, j, f])
    norms = normalization(idx, np.array(zs + ws, dtype=complex))
    scale = np.sqrt(norms[:len(zs)] * norms[len(zs):])
    out = np.empty(len(zs), dtype=complex)
    np.divide(dots.real, scale, out=out.real)
    np.divide(dots.imag, scale, out=out.imag)
    out = out.reshape(z.shape)
    return out if out.shape else complex(out)


def cs_distance(idx: LandauIndex, z, w) -> float:
    """Hilbert-space distance between the states labeled z and w.

    Equals sqrt(2 (1 - Re <z|w>)); zero exactly at z = w and continuous in
    the labels.
    """
    if complex(z) == complex(w):
        return 0.0
    gap = 2.0 * (1.0 - complex(overlap(idx, z, w)).real)
    return math.sqrt(max(gap, 0.0))


def _one_point(z) -> complex:
    """z, a number or a list or array of one element, as a complex;
    DomainError if it holds another number of points."""
    zs = np.asarray(z, dtype=complex).ravel()
    if zs.size != 1:
        raise DomainError(f"z must be one point, got {zs.size}")
    return zs.tolist()[0]


def _check_cap(points, near_one: bool = True) -> list[complex]:
    """``points`` (a point, or a list or array of them) as a list of
    complex numbers within the evaluation cap |z| <= KERNEL_RMAX, which a
    NaN fails, and with ``near_one`` (kernels, transforms) |1 - z| >=
    KERNEL_MIN_DIST_ONE.  The cap lies inside the unit disk.  DomainError
    names the first point outside."""
    zs = np.asarray(points, dtype=complex).ravel()
    far = ~(np.abs(zs) <= KERNEL_RMAX)
    bad = far | ~(np.abs(1.0 - zs) >= KERNEL_MIN_DIST_ONE) if near_one else far
    if bad.any():
        i = int(np.argmax(bad))
        cap = (f"|z| <= {KERNEL_RMAX}" if far[i]
               else f"|1 - z| >= {KERNEL_MIN_DIST_ONE}")
        raise DomainError(
            f"z = {zs.tolist()[i]} violates the evaluation cap {cap}")
    return zs.tolist()


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
    lpref = (0.5 * math.log(2.0)
             + 0.5 * (math.lgamma(m + 2.0 * gamma) - math.lgamma(m + 1.0))
             - math.lgamma(2.0 * gamma) - math.lgamma(gamma + 0.5))
    phase = np.exp(sgn * (1j * math.pi * gamma / 2.0 - 4j * xp * math.log(params.osc.c)))
    gammas = np.exp(log_gamma_ratio(gamma, sgn * xp))
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
    (z,) = _check_cap(label.z)
    scalar = np.ndim(xi) == 0
    vals = _wavefunction_profile(label.params, z, np.atleast_1d(xi))
    return complex(vals[0]) if scalar else vals


def cs_wavefunction_oracle(label: CoherentLabel, xi):
    """Wave function by the defining superposition
    N(z)^(-1/2) sum_k conj(Phi_k(z)) phi_k(xi), cut at ``_basis_cut``:
    the conjugate of :func:`transform_kernel_series` over N(z)^(1/2)."""
    params, z = label.params, label.z
    scalar = np.ndim(xi) == 0
    out = _kernel_to_wavefunction(
        params.landau_index(), z,
        transform_kernel_series(params, z, np.atleast_1d(xi)))
    return complex(out[0]) if scalar else out


def _kernel_to_wavefunction(idx: LandauIndex, z: complex,
                            kernel: np.ndarray) -> np.ndarray:
    """conj(K(z, xi)) / N(z)^(1/2) on a row of kernel values at z; adding
    0.0 turns the -0 that the conjugate gives at the exact zeros (xi = 0)
    into 0 and leaves every other value as it is."""
    return np.conj(kernel) / math.sqrt(normalization(idx, z)) + 0.0


def transform_kernel(params: ModelParams, z, xi) -> np.ndarray:
    """Integral kernel K(z, xi) = N(z)^(1/2) conj(<xi|z>) of the transform.

    This is the weight against which f is integrated in the Bargmann-type
    transform; evaluated in the conjugated orientation (spectral parameters
    gamma - i xi) directly.  Restricted to the validated domain of
    :func:`cs_wavefunction`.
    """
    (z,) = _check_cap(_one_point(z))
    idx = params.landau_index()
    scalar = np.ndim(xi) == 0
    vals = _wavefunction_profile(params, z, np.atleast_1d(xi), conjugate=True)
    out = math.sqrt(normalization(idx, z)) * vals
    return complex(out[0]) if scalar else out


@np.errstate(over="ignore", invalid="ignore")  # non-finite values raise below
def _kernel_expansion(z: complex, coeffs: np.ndarray, poly: np.ndarray,
                      conj_pref: np.ndarray) -> np.ndarray:
    """sum_{k<=kmax} Phi_k(z) conj(phi_k(xi)) on the nodes of the
    ``state_polynomials`` table ``poly`` of any order >= kmax and the
    ``conj_state_prefactor`` ``conj_pref`` there, with the coefficients
    ``coeffs`` = Phi_k(z) norms[k] of z up to kmax.

    The sum over k is two real products of the rows k <= kmax of the
    polynomial table, by ``einsum``: each node's value has the same bits
    whatever the other nodes and rows of the table, so a sum on some of the
    nodes of a table, or on the first rows of a longer one, equals the same
    sum on a table built for just those.

    Raises NonConvergenceError if a value is not finite.
    """
    rows = poly[:len(coeffs)]
    # the real and imaginary parts are strided views: with them einsum adds
    # the rows in order even for a lone node (a contiguous vector would be
    # summed pairwise there)
    sums = (np.einsum("kn,k->n", rows, coeffs.real)
            + 1j * np.einsum("kn,k->n", rows, coeffs.imag))
    out = conj_pref * sums
    if not np.isfinite(out).all():
        raise NonConvergenceError(
            f"kernel expansion up to k = {len(coeffs) - 1} at z = {z:.6g} "
            "is not finite")
    return out


def transform_kernel_series_grid(params: ModelParams, points, xi) -> np.ndarray:
    """The kernel expansion of :func:`transform_kernel_series` at every
    disk point of ``points`` (rows) and every xi of ``xi`` (columns).

    Each point's basis column is evaluated once, by the cut that sets its
    order K(z) (``_basis_cut``), and scaled by the ``state_norms`` into
    its coefficients Phi_k(z) norms[k].  The states' polynomial table, up to
    the largest K, is built on blocks of the xi > 0, each of at most
    max(1, MAX_TABLE_ENTRIES // (K + 1)) nodes, and every point sums its
    own rows k <= K(z) of it.  Each value has the bits of
    :func:`transform_kernel_series` at its (z, xi) pair alone, whatever the
    blocking; the values at xi = 0 are 0.
    """
    pts = check_disk(np.asarray(points, dtype=complex).ravel()).tolist()
    xi = _check_xi(xi)
    out = np.zeros((len(pts), len(xi)), dtype=complex)
    if not pts:
        return out
    columns = _basis_cut(params.landau_index(), pts)
    norms = state_norms(max(map(len, columns)) - 1, params.osc)
    coeffs = [column * norms[:len(column)] for column in columns]
    pos = np.flatnonzero(xi > 0)
    block = max(1, MAX_TABLE_ENTRIES // len(norms))
    for start in range(0, len(pos), block):
        cols = pos[start:start + block]
        poly, _ = state_polynomials(len(norms) - 1, params.osc, xi[cols])
        conj_pref = conj_state_prefactor(params.osc, xi[cols])
        for row, z, c in zip(out, pts, coeffs):
            row[cols] = _kernel_expansion(z, c, poly, conj_pref)
    return out


def transform_kernel_series(params: ModelParams, z, xi) -> np.ndarray:
    """The transform kernel by its defining expansion
    K(z, xi) = sum_k Phi_k(z) conj(phi_k(xi)), k <= K(z) of ``_basis_cut``,
    the kernel the transforms integrate: the oracle of
    :func:`transform_kernel`, with no code in common with the F5 closed form
    and no cap on |z| or |1 - z|; the one-point case of
    :func:`transform_kernel_series_grid`."""
    scalar = np.ndim(xi) == 0
    out = transform_kernel_series_grid(params, [_one_point(z)], xi)[0]
    return complex(out[0]) if scalar else out
