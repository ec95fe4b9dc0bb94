"""Bargmann-type integral transforms from the half line to the disk.

Three transforms are implemented:

* ``classical_bargmann`` -- the Laguerre-kernel baseline mapping L^2(0, inf)
  into the weighted Bergman space, with kernel
  ((sigma-1)/(pi Gamma(sigma)))^(1/2) (1-z)^(-sigma)
  exp(-(x/2)(1+z)/(1-z)) x^((sigma-1)/2);

* ``relativistic_transform`` -- the coherent-state transform B[f](z)
  = N(z)^(1/2) <f, phi_z>, whose kernel is the paper's superposition
  K(z, xi) = sum_k Phi_k(z) conj(phi_k(xi)); it maps the oscillator
  eigenstate phi_j to the disk eigenfunction Phi_j of the level
  (2(gamma+m), m), and is an isometry onto that eigenspace;

* ``relativistic_transform_m0`` -- the analytic (m = 0) reduction, whose
  kernel collapses to a single Gauss function 2F1(gamma - i xi, 1/2 - i xi;
  gamma + 1/2; z); its image consists of holomorphic functions.

Transforms are evaluated against either a callable f(xi) (vectorised over
ndarray) or a :class:`SampledFunction`, which is interpolated by a cubic
spline and taken as zero outside its grid.  The xi quadrature uses a panel
layout fixed by the parameters alone, so the transforms are linear in f.
It ends at ``oscillator.XI_LENGTH`` = 40 for every c, which takes at most
126 panels of width gamma/pi, and f is evaluated in one call on all of its
nodes.  The layout depends on c alone: its nodes, half widths and the
k-independent state prefactor at every node are built once per c and kept
in a small cache (read-only arrays), which both transforms share.  The
kernel of ``relativistic_transform`` is summed at the nodes where f is
non-zero, up to the ``coherent.truncation_order`` of the point, from one
real table of the states' polynomials, which ``relativistic_transform_grid``
builds once for all of its points; the integrand is an exact zero at the
other nodes.  Each node's kernel value has the same bits whatever the other
nodes and points, so every result is the same as with the kernel evaluated
at every node, and a grid value the same as the single-point value.  The
F5 closed form (``coherent.transform_kernel``) is not used here; the m = 0
reduction keeps its 2F1 kernel, whose z-independent exponent (its
``loggamma``s) is cached per c on the same nodes.

Every other input of ``isometry_check`` than f depends on the parameters
alone too: its half-line layout with the state prefactor is cached per c,
and the disk Gram matrix per level.  All of these caches are bounded
``lru_cache``s of read-only arrays, built elementwise or by the uncached
code, so a cached result has the bits of an uncached one.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np
from scipy.special import gammaln, loggamma

from . import oscillator
from .coherent import _check_kernel_domain, _kernel_expansion, truncation_order
# looked up here by the layer tracer of bench/tracing.py
from .coherent import transform_kernel  # noqa: F401
from .disk import LandauIndex, basis_gram, check_disk
from .errors import DomainError, InputFormatError, NonConvergenceError
from .hypergeom import gauss_2f1_vec
from .oscillator import (XI_LENGTH, ModelParams, OscParams,
                         _check_order, _project_weighted, conj_state_prefactor,
                         eigenfunction_batch, panel_width, state_end,
                         state_polynomials, xi_panel_grid)
from .quadrature import _COARSE_RULE, _FINE_RULE, integrate_halfline


def __getattr__(name):
    # scipy.interpolate is imported on first use of ``CubicSpline``: it takes
    # about a third of the package's import time, and only sampled inputs
    # need it
    if name == "CubicSpline":
        from scipy.interpolate import CubicSpline

        globals()[name] = CubicSpline
        return CubicSpline
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


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
        """Cubic-spline interpolant, zero outside the sampled range; raises
        InputFormatError if the spline overflows (samples too close)."""
        # looked up on the module, so that its first use triggers the import
        try:
            with np.errstate(all="ignore"):
                spline = sys.modules[__name__].CubicSpline(self.grid, self.values)
            if not np.all(np.isfinite(spline.c)):
                raise ValueError("non-finite coefficients")
        except ValueError as exc:
            raise InputFormatError(f"no finite cubic spline: {exc}") from exc
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


def _values_on(func, xi: np.ndarray) -> np.ndarray:
    """f at the nodes xi; a NaN or inf raises, naming the smallest such xi."""
    vals = np.asarray(func(xi))
    bad = ~np.isfinite(vals)
    if bad.any():
        raise InputFormatError(f"f is not finite at xi = {xi[bad].min():.6g}")
    return vals


def classical_bargmann(sigma: float, f, z):
    """Laguerre-kernel Bargmann transform of f at the disk point z.

    Returns ``(value, err_estimate)`` of the half-line integral, taken to a
    tolerance of 1e-10.
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
    value, err = integrate_halfline(integrand, decay_scale=decay, tol=1e-10)
    return pref * value, abs(pref) * err


@lru_cache(maxsize=32)
def _layout(osc: OscParams) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Nodes, shape (panels, 48), half widths, and the flat
    ``conj_state_prefactor`` at every node of the fixed panel layout of c.

    Panels of ``oscillator.panel_width`` (the last one cut at XI_LENGTH)
    each carry the 16-point and then the 32-point Gauss-Legendre rule.  All
    three depend on c alone, so they are built once per c and cached
    (at most 6,048 nodes, under 150 kB an entry); the arrays are read-only.
    """
    width = panel_width(osc)
    n_panels = math.ceil(XI_LENGTH / width)
    rule = np.concatenate([_COARSE_RULE[0], _FINE_RULE[0]])
    # edges by repeated addition of the width, as a panel walk makes them
    edges = np.minimum(np.cumsum(np.r_[0.0, np.full(n_panels, width)]),
                       XI_LENGTH)
    mid = 0.5 * (edges[1:] + edges[:-1])
    half = 0.5 * (edges[1:] - edges[:-1])
    nodes = mid[:, None] + half[:, None] * rule
    conj_pref = conj_state_prefactor(osc, nodes.ravel())
    for arr in (nodes, half, conj_pref):
        arr.flags.writeable = False
    return nodes, half, conj_pref


def _panel_sums(vals: np.ndarray, half: np.ndarray):
    """``(value, err_estimate)`` from the integrand on the ``_layout``
    nodes: the sums over panels, in panel order, of the 32-point values and
    of their distances from the 16-point values."""
    (_, wc), (_, wf) = _COARSE_RULE, _FINE_RULE
    coarse = half * np.sum(wc * vals[:, :len(wc)], axis=1)
    fine = half * np.sum(wf * vals[:, len(wc):], axis=1)
    total = 0.0 + 0.0j
    err_total = 0.0
    for value, coarse_value in zip(fine.tolist(), coarse.tolist()):
        total += value
        err_total += abs(value - coarse_value)
    return total, err_total


def _integrate_fixed_layout(integrand, params: ModelParams):
    """Integrate ``integrand`` over [0, XI_LENGTH] on the fixed panel layout,
    with both rules of every panel in one call of ``integrand``.

    Returns ``(value, err_estimate)`` as :func:`_panel_sums`.
    """
    nodes, half, _ = _layout(params.osc)
    vals = np.asarray(integrand(nodes.ravel())).reshape(nodes.shape)
    return _panel_sums(vals, half)


def _check_points(points) -> list[complex]:
    """The disk points as complex numbers, each inside the kernel cap."""
    pts = [complex(check_disk(z)) for z in points]
    for z in pts:
        _check_kernel_domain(z)
    return pts


def _expansion_transform(params: ModelParams, func, points):
    """``(values, err_estimates)`` of B[f] at each of ``points``, through the
    basis expansion of the kernel on the fixed layout.

    f is evaluated once on the layout, and the real polynomial table of the
    states is built once, on the nodes where f is non-zero, up to the
    largest ``truncation_order`` of the points; the state prefactor on those
    nodes comes from the cached layout of c.  Each point sums the rows up to
    its own order.  The integrand is an exact zero at the other nodes, and a
    zero f builds no table.  Every Gauss node lies inside its panel, so
    xi > 0.
    """
    pts = _check_points(points)
    if not pts:
        return [], []
    nodes, half, conj_pref = _layout(params.osc)
    xi = nodes.ravel()
    f_vals = _values_on(func, xi)
    live = np.flatnonzero(f_vals != 0)
    values, errors = [], []
    if live.size:
        idx = params.landau_index()
        orders = [truncation_order(idx, z) for z in pts]
        factors = (*state_polynomials(max(orders), params.osc, xi[live]),
                   conj_pref[live])
        f_live = f_vals[live]
    integrand = np.zeros(xi.shape, dtype=complex)
    for i, z in enumerate(pts):
        if live.size:
            # f times the kernel, in this order, as at every node
            integrand[live] = f_live * _kernel_expansion(params, z, orders[i],
                                                         factors)
        value, err = _panel_sums(integrand.reshape(nodes.shape), half)
        values.append(value)
        errors.append(err)
    return values, errors


def relativistic_transform(params: ModelParams, f, z, with_error: bool = False):
    """Coherent-state Bargmann-type transform B[f] at the disk point z.

    B[f](z) = N(z)^(1/2) integral_0^inf f(xi) conj(<xi|z>) dxi, with the
    kernel summed as its basis expansion sum_k Phi_k(z) conj(phi_k(xi)),
    cut at ``coherent.truncation_order``, on the fixed panel layout cut at
    xi = 40 (``XI_LENGTH``) for every c.  The layout depends only on the
    model parameters, never on f, and there is no tolerance to set; the
    states are evaluated only at the nodes where f is non-zero.  Returns
    B[f](z), or ``(value, err_estimate)`` with ``with_error``: the estimate
    is the sum over the panels of the distance between the 32-point and the
    16-point Gauss-Legendre values.  A non-finite value of f at a node
    raises InputFormatError, a kernel that is not finite (at very large c)
    NonConvergenceError.
    """
    (value,), (err,) = _expansion_transform(params, _as_callable(f), [z])
    return (value, err) if with_error else value


@lru_cache(maxsize=32)
def _m0_exponent(osc: OscParams) -> np.ndarray:
    """The z-independent part 2 loggamma(gamma - i xi) - loggamma(-i xi)
    + 4 i xi log c of the exponent of the m = 0 kernel, at every node of
    ``_layout(osc)`` (flat).  Built once per c and cached (at most 6,048
    nodes, under 100 kB an entry); the array is read-only."""
    xi = _layout(osc)[0].ravel()
    gamma = osc.gamma
    expo = (2.0 * loggamma(gamma - 1j * xi) - loggamma(-1j * xi)
            + 4j * xi * math.log(osc.c))
    expo.flags.writeable = False
    return expo


def relativistic_transform_m0(osc: OscParams, f, z, with_error: bool = False):
    """The m = 0 transform through its reduced single-2F1 kernel.

    Same layout and return value as :func:`relativistic_transform` at
    m = 0; the kernel is evaluated only at the nodes where f is non-zero.
    Its z-independent exponent (the ``loggamma``s and the c^(4 i xi)
    phase) comes from a per-c cache, ``_m0_exponent``, and each call adds
    only -i xi log(1 - z) and the 2F1 at the live nodes; elementwise, so
    the bits are those of the kernel built at those nodes alone.
    """
    (z,) = _check_points([z])
    func = _as_callable(f)
    gamma = osc.gamma
    lpref = (0.5 * math.log(2.0) + 0.5 * (math.log(2.0 * gamma - 1.0)
             - math.log(math.pi) - gammaln(2.0 * gamma)) - gammaln(gamma + 0.5))
    pref = (math.exp(lpref) * np.exp(-1j * math.pi * gamma / 2.0)
            * (1.0 - z) ** (-gamma))

    expo = _m0_exponent(osc)

    def integrand(xi):
        # xi is the flat layout of c, on which ``expo`` was built
        f_vals = _values_on(func, xi)
        live = f_vals != 0
        out = np.zeros(xi.shape, dtype=complex)
        if live.any():
            xl = xi[live]
            gam_fac = np.exp(expo[live] - 1j * xl * np.log(1.0 - z))
            # kernel times f, in this order: the product is not bitwise
            # symmetric
            out[live] = gam_fac * gauss_2f1_vec(gamma - 1j * xl, 0.5 - 1j * xl,
                                                gamma + 0.5, z) * f_vals[live]
        return out

    value, err = _integrate_fixed_layout(integrand, ModelParams(osc=osc, m=0))
    value, err = pref * value, abs(pref) * err
    return (value, err) if with_error else value


def relativistic_transform_grid(params: ModelParams, f,
                                points) -> TransformResult:
    """Evaluate the transform on a grid of disk points, with one evaluation
    of f and one table of the states for the whole grid; each value has the
    bits of :func:`relativistic_transform` at its point."""
    pts = np.asarray(points, dtype=complex).ravel()
    vals, errs = _expansion_transform(params, _as_callable(f), pts)
    return TransformResult(points=pts, values=np.array(vals, dtype=complex),
                           params=params, errors=np.array(errs, dtype=float))


#: the fixed rule of ``isometry_check``: oscillator states projected on, and
#: the largest share of ||f||^2 the last two panels of its layout may hold
_ISOMETRY_KMAX = 20
_NORM_TOL = 1e-8


@lru_cache(maxsize=32)
def _isometry_layout(osc: OscParams):
    """``(end, nodes, weights, conj_pref)`` of the half-line rule of
    ``isometry_check``: ``xi_panel_grid(osc, state_end(20, osc))`` and the
    conjugated state prefactor ``conj(_state_prefactor(osc, xi))`` at its
    nodes, all xi > 0.  They depend on c alone, so they are built once per
    c and cached (at most about 8,000 nodes, under 260 kB an entry); the
    arrays are read-only."""
    end = state_end(_ISOMETRY_KMAX, osc)
    xi, weights = xi_panel_grid(osc, end)
    conj_pref = np.conj(oscillator._state_prefactor(osc, xi))
    for arr in (xi, weights, conj_pref):
        arr.flags.writeable = False
    return end, xi, weights, conj_pref


@lru_cache(maxsize=32)
def _isometry_gram(idx: LandauIndex) -> np.ndarray:
    """``basis_gram(idx, 20)``, built once per level and cached read-only;
    the public ``basis_gram`` still returns a fresh array."""
    gram = basis_gram(idx, _ISOMETRY_KMAX)
    gram.flags.writeable = False
    return gram


def isometry_check(params: ModelParams, f) -> dict:
    """Compare the L^2 norm of f with the Bergman-type norm of B[f].

    B[f] = sum_k c_k Phi_k with c_k = <f, phi_k>, so the isometry rests on
    two identities, and each side is computed by one of them.  The half
    line: ||f||^2 = sum w |f|^2 and the projections c_k, k <= 20, are
    taken on one layout, ``xi_panel_grid(osc, state_end(20, osc))``, which
    ends at xi = 80 for c <= 2.5 and at 2 gamma + 70 beyond.  The disk:
    ||B[f]||^2 = c^T G conj(c) with G = ``basis_gram(idx, 20)``, an exact
    polar rule over the whole disk.  The relative gap is then the Parseval
    defect of f against phi_0 .. phi_20 plus the orthonormality defect of
    Phi_0 .. Phi_20, so it is small exactly when f lies in the span of the
    first 21 states.  Everything but f depends on the parameters alone:
    the nodes, weights and conjugated state prefactor of the layout are
    cached per c (``_isometry_layout``) and G per level
    (``_isometry_gram``), so a call evaluates f, builds the real
    polynomial table of the projections and takes the two sums.

    Raises
    ------
    NonConvergenceError
        If the last two panels of the layout hold more than 1e-8 of
        ||f||^2: f does not decay within the layout.
    InputFormatError
        If f is not finite at a node of the layout.

    Returns a dict with both norms and their relative gap.
    """
    func = _as_callable(f)
    end, xi, weights, conj_pref = _isometry_layout(params.osc)
    f_nodes = _values_on(func, xi)
    mass = weights * np.abs(f_nodes) ** 2
    norm_f_sq = float(np.sum(mass))
    tail = float(np.sum(mass[-2 * len(_FINE_RULE[0]):]))
    if tail > _NORM_TOL * norm_f_sq:
        raise NonConvergenceError(
            f"the last two xi panels before {end:g} hold {tail:.3g} of "
            f"||f||^2 = {norm_f_sq:.3g}; f does not decay within the layout")
    # project_states' arithmetic, with the prefactor from the cache
    coeffs = _project_weighted(_ISOMETRY_KMAX, params.osc, xi,
                               conj_pref * (weights * f_nodes))
    gram = _isometry_gram(params.landau_index())
    norm_B_sq = float((coeffs @ gram @ coeffs.conj()).real)
    if norm_f_sq == 0.0 and norm_B_sq == 0.0:
        gap = 0.0
    else:
        gap = abs(norm_B_sq - norm_f_sq) / max(norm_f_sq, norm_B_sq)
    return {"norm_f_sq": norm_f_sq, "norm_Bf_sq": norm_B_sq,
            "relative_gap": float(gap)}


def oscillator_mode(j: int, osc: OscParams):
    """Callable xi -> phi_j(xi), convenient as a transform input; a j that
    is not a nonnegative integer raises DomainError."""
    j = _check_order(j, "level index j")

    def f(xi):
        return eigenfunction_batch(j, osc, np.atleast_1d(xi))[j]

    return f
