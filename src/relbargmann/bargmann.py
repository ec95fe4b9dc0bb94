"""Bargmann-type integral transforms from the half line to the disk.

Three transforms are implemented:

* ``classical_bargmann`` -- the Laguerre-kernel baseline mapping L^2(0, inf)
  into the weighted Bergman space, with kernel
  ((sigma-1)/(pi Gamma(sigma)))^(1/2) (1-z)^(-sigma)
  exp(-(x/2)(1+z)/(1-z)) x^((sigma-1)/2);

* ``relativistic_transform`` -- the coherent-state transform B[f](z)
  = N(z)^(1/2) <f, phi_z> whose kernel carries the F5 closed form; it maps
  the oscillator eigenstate phi_j to the disk eigenfunction Phi_j of the
  level (2(gamma+m), m), and is an isometry onto that eigenspace;

* ``relativistic_transform_m0`` -- the analytic (m = 0) reduction, whose
  kernel collapses to a single Gauss function 2F1(gamma - i xi, 1/2 - i xi;
  gamma + 1/2; z); its image consists of holomorphic functions.

Transforms are evaluated at one disk point per call against either a
callable f(xi) (vectorised over ndarray) or a :class:`SampledFunction`,
which is interpolated by a cubic spline and taken as zero outside its grid.
The xi quadrature uses a panel layout fixed by the parameters alone, so the
transforms are exactly linear in f.  Since every node of that layout is
known in advance, the integrand (f times the kernel) is evaluated in one
call per block of up to ``LAYOUT_BLOCK_NODES`` nodes rather than once per
panel.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from numpy.polynomial.legendre import leggauss
from scipy.interpolate import CubicSpline
from scipy.special import gammaln, loggamma

from .coherent import _check_kernel_domain, transform_kernel
from .disk import check_disk
from .errors import DomainError, InputFormatError
from .hypergeom import gauss_2f1_vec
from .oscillator import ModelParams, OscParams, eigenfunction_batch
from .quadrature import integrate_halfline, jacobi_rule_01

#: most xi nodes passed to the integrand in one call; one block holds the
#: whole layout for every c >= 0.525, and blocks bound the memory of the long
#: layouts near c = 1/e
LAYOUT_BLOCK_NODES = 16384
#: embedded Gauss-Legendre pair on every panel: the 32-point rule gives the
#: value, its difference from the 16-point rule the error estimate
_COARSE_RULE = leggauss(16)
_FINE_RULE = leggauss(32)


@dataclass(frozen=True)
class SampledFunction:
    """A function on the half line given by samples on an increasing grid."""

    grid: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        grid = np.asarray(self.grid, dtype=float)
        values = np.asarray(self.values, dtype=complex)
        if grid.ndim != 1 or values.ndim != 1 or len(grid) != len(values):
            raise InputFormatError("grid and values must be 1-D of equal length")
        if len(grid) < 2:
            raise InputFormatError("need at least two samples")
        if grid[0] < 0:
            raise InputFormatError("grid must start at xi >= 0")
        if np.any(np.diff(grid) <= 0):
            raise InputFormatError("grid must be strictly increasing")
        if not (np.all(np.isfinite(grid)) and np.all(np.isfinite(values.view(float)))):
            raise InputFormatError("samples must be finite")
        object.__setattr__(self, "grid", grid)
        object.__setattr__(self, "values", values)

    def as_callable(self):
        """Cubic-spline interpolant, zero outside the sampled range."""
        spline = CubicSpline(self.grid, self.values)
        lo, hi = self.grid[0], self.grid[-1]

        def f(xi):
            xi = np.asarray(xi, dtype=float)
            inside = (xi >= lo) & (xi <= hi)
            out = np.zeros(xi.shape, dtype=complex)
            if np.any(inside):
                out[inside] = spline(xi[inside])
            return out

        return f


@dataclass
class TransformResult:
    """Transform values on a grid of disk points with quadrature error bars."""

    points: np.ndarray
    values: np.ndarray
    params: ModelParams
    errors: np.ndarray = field(default_factory=lambda: np.zeros(0))

    @property
    def quadrature_error(self) -> float:
        return float(np.max(self.errors)) if len(self.errors) else 0.0


def _as_callable(f):
    if isinstance(f, SampledFunction):
        return f.as_callable()
    if callable(f):
        return f
    raise InputFormatError("f must be callable or a SampledFunction")


def xi_cutoff(c: float) -> float:
    """Truncation point of the xi integration; the kernel tail beyond it is
    below 1e-12 of the integral for c near 1."""
    return max(40.0, 40.0 / min(1.0, math.log(math.e * c)))


def classical_bargmann(sigma: float, f, z, tol: float = 1e-10):
    """Laguerre-kernel Bargmann transform of f at the disk point z.

    Returns ``(value, err_estimate)``.
    """
    if sigma <= 1.0:
        raise DomainError("classical transform requires sigma > 1")
    z = complex(check_disk(z))
    _check_kernel_domain(z)
    func = _as_callable(f)
    s = 0.5 * (1.0 + z) / (1.0 - z)
    pref = (math.sqrt((sigma - 1.0) / math.pi)
            * math.exp(-0.5 * gammaln(sigma)) * (1.0 - z) ** (-sigma))

    def integrand(x):
        return np.exp(-s * x) * np.asarray(func(x)) * x ** (0.5 * (sigma - 1.0))

    decay = 1.0 / max(s.real, 0.05)
    value, err = integrate_halfline(integrand, decay_scale=decay, tol=tol)
    return pref * value, abs(pref) * err


def _transform_panels(params: ModelParams):
    width = max(params.gamma / math.pi, 0.25)
    return width, xi_cutoff(params.osc.c)


def _integrate_fixed_layout(integrand, params: ModelParams):
    """Integrate ``integrand`` over [0, xi_cutoff(c)] on the fixed panel layout.

    Panels of the width given by ``_transform_panels`` (the last one cut at
    the cutoff) each carry the 16-point and the 32-point Gauss-Legendre rule.
    Both rules of up to ``LAYOUT_BLOCK_NODES`` nodes go to ``integrand`` in
    one call; nodes are built a block at a time, never for the whole layout.

    Returns ``(value, err_estimate)``: the sums over panels, in panel order,
    of the 32-point values and of their distances from the 16-point values.
    """
    width, length = _transform_panels(params)
    n_panels = math.ceil(length / width)
    (xc, wc), (xf, wf) = _COARSE_RULE, _FINE_RULE
    rule = np.concatenate([xc, xf])
    per_block = max(1, LAYOUT_BLOCK_NODES // len(rule))
    total = 0.0 + 0.0j
    err_total = 0.0
    lo = 0.0
    for start in range(0, n_panels, per_block):
        count = min(per_block, n_panels - start)
        # edges by repeated addition of the width, as a panel walk makes them
        edges = np.minimum(np.cumsum(np.r_[lo, np.full(count, width)]), length)
        lo = edges[-1]
        mid = 0.5 * (edges[1:] + edges[:-1])
        half = 0.5 * (edges[1:] - edges[:-1])
        nodes = mid[:, None] + half[:, None] * rule
        vals = np.asarray(integrand(nodes.ravel())).reshape(count, len(rule))
        coarse = half * np.sum(wc * vals[:, :len(xc)], axis=1)
        fine = half * np.sum(wf * vals[:, len(xc):], axis=1)
        for value, coarse_value in zip(fine.tolist(), coarse.tolist()):
            total += value
            err_total += abs(value - coarse_value)
    return total, err_total


def relativistic_transform(params: ModelParams, f, z, tol: float = 1e-8,
                           with_error: bool = False):
    """Coherent-state Bargmann-type transform B[f] at the disk point z.

    B[f](z) = N(z)^(1/2) integral_0^inf f(xi) conj(<xi|z>) dxi, with the
    closed-form F5 kernel.  The panel layout over xi depends only on the
    model parameters, never on f.
    """
    z = complex(check_disk(z))
    _check_kernel_domain(z)
    func = _as_callable(f)
    if tol <= 0:
        raise DomainError("tol must be positive")

    def integrand(xi):
        return np.asarray(func(xi)) * transform_kernel(params, z, xi)

    value, err = _integrate_fixed_layout(integrand, params)
    return (value, err) if with_error else value


def relativistic_transform_m0(osc: OscParams, f, z, tol: float = 1e-8,
                              with_error: bool = False):
    """The m = 0 transform through its reduced single-2F1 kernel."""
    z = complex(check_disk(z))
    _check_kernel_domain(z)
    func = _as_callable(f)
    if tol <= 0:
        raise DomainError("tol must be positive")
    gamma = osc.gamma
    lpref = (0.5 * math.log(2.0) + 0.5 * (math.log(2.0 * gamma - 1.0)
             - math.log(math.pi) - gammaln(2.0 * gamma)) - gammaln(gamma + 0.5))
    pref = math.exp(lpref) * np.exp(-1j * math.pi * gamma / 2.0) * (1.0 - z) ** (-gamma)

    def integrand(xi):
        xi = np.atleast_1d(np.asarray(xi, dtype=float))
        out = np.zeros(len(xi), dtype=complex)
        pos = xi > 0
        if np.any(pos):
            xp = xi[pos]
            gam_fac = np.exp(2.0 * loggamma(gamma - 1j * xp) - loggamma(-1j * xp)
                             + 4j * xp * math.log(osc.c) - 1j * xp * np.log(1.0 - z))
            kernel = gam_fac * gauss_2f1_vec(gamma - 1j * xp, 0.5 - 1j * xp,
                                             gamma + 0.5, z)
            out[pos] = kernel * np.asarray(func(xp))
        return out

    value, err = _integrate_fixed_layout(integrand, ModelParams(osc=osc, m=0))
    value, err = pref * value, abs(pref) * err
    return (value, err) if with_error else value


def relativistic_transform_grid(params: ModelParams, f, points,
                                tol: float = 1e-8) -> TransformResult:
    """Evaluate the transform on a grid of disk points."""
    pts = np.asarray(points, dtype=complex).ravel()
    vals = np.empty(len(pts), dtype=complex)
    errs = np.empty(len(pts), dtype=float)
    for i, z in enumerate(pts):
        vals[i], errs[i] = relativistic_transform(params, f, z, tol,
                                                  with_error=True)
    return TransformResult(points=pts, values=vals, params=params, errors=errs)


def _annulus_basis_masses(params: ModelParams, kmax: int, r_inner: float,
                          n_nodes: int = 64) -> np.ndarray:
    """Exact norms of the basis functions over the annulus |z|^2 > r_inner.

    Writing Phi_k (1-r)^m as a finite monomial sum, the angular average of
    |Phi_k|^2 is a polynomial in r = |z|^2, so the substitution
    r = 1 - (1 - r_inner) u reduces each annulus integral to a Gauss-Jacobi
    rule with weight u^(sigma - 2m - 2), which is exact here.
    """
    from .disk import _phi_monomial_coeffs

    sigma, m = params.sigma, params.m
    expo = sigma - 2.0 * m - 2.0
    rule = jacobi_rule_01(n_nodes, expo, 0.0)
    width = 1.0 - r_inner
    r = 1.0 - width * rule.nodes
    masses = np.empty(kmax + 1)
    for k in range(kmax + 1):
        coeffs = _phi_monomial_coeffs(k, m, sigma)
        # every (j, j') cross term carries equal powers of z and zbar, so the
        # angular mean of |Phi_k (1-r)^m|^2 is a perfect square in sqrt(r)
        shell = np.zeros_like(r)
        for j, cj in enumerate(coeffs):
            shell += cj * r ** (0.5 * (k + m - 2 * j))
        masses[k] = math.pi * width ** (expo + 1.0) * float(
            np.sum(rule.weights * shell * shell))
    return masses


def isometry_check(params: ModelParams, f, budget: dict | None = None) -> dict:
    """Compare the L^2 norm of f with the Bergman-type norm of B[f].

    The disk-side norm integrates |B[f]|^2 (1 - |z|^2)^(sigma - 2) in polar
    coordinates over |z| <= budget["r_split"] (default 0.995); the thin
    boundary annulus left over is added analytically from the basis
    expansion of B[f] (projections c_k = <f, phi_k> against exact annulus
    norms of the Phi_k).  Near the boundary the closed-form kernel loses
    precision at large xi, so B is evaluated here through the definitional
    superposition kernel, with a shared xi panel grid and state table across
    all disk nodes; the pointwise agreement of the two kernels inside the
    validated cap is covered by the transform test suite.  ``f`` should be
    representable in the span of the first ``budget["kmax"]`` eigenstates
    for the annulus term to be complete.

    Returns a dict with both norms, the annulus contribution and the
    relative gap.
    """
    from numpy.polynomial.legendre import leggauss

    from .coherent import series_kmax_for
    from .disk import basis_phi_batch

    budget = budget or {}
    n_radial = int(budget.get("n_radial", 20))
    n_angular = int(budget.get("n_angular", 36))
    kmax = int(budget.get("kmax", 8))
    tol = float(budget.get("tol", 1e-8))
    r_split = float(budget.get("r_split", 0.995)) ** 2
    xi_len = float(budget.get("xi_length", 16.0))
    func = _as_callable(f)
    width, _ = _transform_panels(params)

    norm_f_sq, _ = integrate_halfline(
        lambda xi: np.abs(np.asarray(func(xi))) ** 2,
        decay_scale=width, tol=tol)
    norm_f_sq = float(norm_f_sq.real)

    # shared xi panel grid, f samples and oscillator-state table
    n_panels = int(math.ceil(xi_len / width))
    xg, wg = leggauss(32)
    mids = width * (np.arange(n_panels) + 0.5)
    xi_nodes = (mids[:, None] + 0.5 * width * xg[None, :]).ravel()
    xi_weights = np.tile(0.5 * width * wg, n_panels)
    f_nodes = np.asarray(func(xi_nodes))
    series_k = series_kmax_for(math.sqrt(r_split))
    states_conj = np.conj(eigenfunction_batch(series_k, params.osc, xi_nodes))
    idx = params.landau_index()
    weighted_f = xi_weights * f_nodes

    # inner region: transform values on a polar grid; the xi quadrature and
    # the basis superposition commute, so project f once.  The substitution
    # r = 1 - exp(-tau) resolves the (1-r)^(sigma-2) endpoint behaviour of
    # the integrand spectrally.
    projections = states_conj @ weighted_f
    sigma = params.sigma
    xr, wr = leggauss(n_radial)
    tau_max = -math.log(1.0 - r_split)
    tau = 0.5 * tau_max * (xr + 1.0)
    tau_w = 0.5 * tau_max * wr
    phis = np.arange(n_angular) * (2.0 * np.pi / n_angular)
    inner_sq = 0.0
    for tv, wv in zip(tau, tau_w):
        rv = 1.0 - math.exp(-tv)
        ring_sq = 0.0
        for phi in phis:
            z = math.sqrt(rv) * complex(math.cos(phi), math.sin(phi))
            ring_sq += abs(basis_phi_batch(series_k, idx, z) @ projections) ** 2
        angular = (ring_sq / n_angular) * 2.0 * np.pi
        inner_sq += 0.5 * wv * math.exp(-(sigma - 1.0) * tv) * angular

    # boundary annulus from the basis expansion of B[f]
    if norm_f_sq > 0.0:
        proj_states = np.conj(eigenfunction_batch(kmax, params.osc, xi_nodes))
        coeffs = proj_states @ weighted_f
        masses = _annulus_basis_masses(params, kmax, r_split)
        annulus_sq = float(np.sum(np.abs(coeffs) ** 2 * masses))
    else:
        annulus_sq = 0.0

    norm_B_sq = inner_sq + annulus_sq
    if norm_f_sq == 0.0 and norm_B_sq == 0.0:
        gap = 0.0
    else:
        gap = abs(norm_B_sq - norm_f_sq) / max(norm_f_sq, norm_B_sq)
    return {"norm_f_sq": norm_f_sq, "norm_Bf_sq": float(norm_B_sq),
            "annulus_sq": float(annulus_sq), "relative_gap": float(gap)}


def oscillator_mode(j: int, osc: OscParams):
    """Callable xi -> phi_j(xi), convenient as a transform input."""

    def f(xi):
        return eigenfunction_batch(j, osc, np.atleast_1d(xi))[j]

    return f
