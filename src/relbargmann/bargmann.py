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
  ``relativistic_transform_m0_grid`` evaluates it on a grid of points with
  one evaluation of f, and the one-point call is its one-point case.

Transforms are evaluated against either a callable f(xi) (vectorised over
ndarray) or a :class:`SampledFunction`, which is interpolated by a cubic
spline and taken as zero outside its grid.  The xi quadrature uses a panel
layout fixed by the parameters alone, so the transforms are linear in f.
It ends at ``oscillator.XI_LENGTH`` = 40 for every c, which takes at most
126 panels of width gamma/pi, and f is evaluated in one call on all of its
nodes.  The package has one source of xi nodes, ``oscillator.xi_layout``,
keyed on (c, end): its nodes, half widths and the folded state prefactor
``conj_state_prefactor`` at every node are built once per key and kept in
a small cache (read-only arrays).  Both transforms read it at XI_LENGTH;
``isometry_check`` reads the 32-point columns of the one at
``state_end(20, osc)``, as ``oscillator_gram`` does at its own end, but
evaluates f there only in blocks of panels from xi = 0, up to XI_LENGTH
and then 4, 8, 16, ... panels more, until two panels in a row hold at most
2^-104 of the mass of |f|^2 summed so far; past them f is taken as zero
and never evaluated, which changes no bit of the result.  The
kernel of ``relativistic_transform`` is summed at the nodes where f is
non-zero, up to the ``coherent.truncation_order`` of the point, from one
real table of the states' polynomials, which ``relativistic_transform_grid``
builds once for all of its points; the integrand is an exact zero at the
other nodes.  Each node's kernel value has the same bits whatever the other
nodes and points, so every result is the same as with the kernel evaluated
at every node, and a grid value the same as the single-point value.  The
F5 closed form (``coherent.transform_kernel``) is not used here; the m = 0
reduction keeps its 2F1 kernel, whose z-independent exponent (its
``loggamma``s) is cached per c on the same nodes and gathered at the live
nodes once per grid, so each point adds only its own -i xi log(1 - z), the
2F1 and the prefactor.  ``classical_bargmann`` alone integrates adaptively
(``quadrature.integrate_halfline``), with one call of f per panel visit for
both Gauss rules, its values checked as the other transforms check theirs.

Every state, in the kernel, the projections of ``isometry_check`` and the
Gram matrices alike, comes from the one factorisation conj(phi_k) =
norms[k] P_k conj_pref of ``oscillator.conj_state_factors``, whose folded
prefactor stays finite at large c.  The disk Gram matrix of
``isometry_check`` is cached per level.  These three caches (the layout,
the Gram and the m = 0 exponent) are bounded ``lru_cache``s of read-only
arrays, built elementwise or by the uncached code, so a cached result has
the bits of an uncached one.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .coherent import (_check_kernel_domain, _kernel_coeffs, _kernel_expansion,
                       truncation_order)
# looked up here by the layer tracer of bench/tracing.py
from .coherent import transform_kernel  # noqa: F401
from .disk import LandauIndex, basis_gram, check_disk
from .errors import DomainError, InputFormatError, NonConvergenceError
from .hypergeom import gauss_2f1_vec
from .oscillator import (_ISOMETRY_KMAX, XI_LENGTH, ModelParams, OscParams,
                         _check_order, _fine_columns, _panel_count, _project,
                         eigenfunction_batch, state_end, state_polynomials,
                         xi_layout)
from .quadrature import _COARSE_RULE, _FINE_RULE, integrate_halfline
from .special import log_gamma_ratio
# looked up here by the layer tracer of bench/tracing.py, which counts the
# spline builds
from .spline import CubicSpline


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
        """Not-a-knot cubic-spline interpolant (``spline.CubicSpline``),
        zero outside the sampled range; raises InputFormatError if the
        spline overflows (samples too close)."""
        with np.errstate(all="ignore"):
            spline = CubicSpline(self.grid, self.values)
        if not np.all(np.isfinite(spline.c)):
            raise InputFormatError(
                "no finite cubic spline: non-finite coefficients")
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
    """f at the nodes xi, one value a node; a result of another shape, or a
    NaN or inf, raises InputFormatError (the latter naming the smallest
    such xi)."""
    vals = np.asarray(func(xi))
    if vals.shape != xi.shape:
        raise InputFormatError(
            f"f returned shape {vals.shape} at {xi.size} nodes; it must "
            "return one value for each xi")
    bad = ~np.isfinite(vals)
    if bad.any():
        raise InputFormatError(f"f is not finite at xi = {xi[bad].min():.6g}")
    return vals


def classical_bargmann(sigma: float, f, z):
    """Laguerre-kernel Bargmann transform of f at the disk point z.

    Returns ``(value, err_estimate)`` of the half-line integral, taken to a
    tolerance of 1e-10 by ``integrate_halfline``, which calls f once per
    panel visit on the nodes of both Gauss rules.  A non-finite value of f
    at a node (naming the smallest such xi of the panel), or a result that
    is not one value for each node, raises InputFormatError.
    """
    if sigma <= 1.0:
        raise DomainError("classical transform requires sigma > 1")
    z = complex(check_disk(z))
    _check_kernel_domain(z)
    func = _as_callable(f)
    s = 0.5 * (1.0 + z) / (1.0 - z)
    pref = (math.sqrt((sigma - 1.0) / math.pi)
            * math.exp(-0.5 * math.lgamma(sigma)) * (1.0 - z) ** (-sigma))

    def integrand(x):
        return (np.exp(-s * x) * _values_on(func, x)
                * x ** (0.5 * (sigma - 1.0)))

    decay = 1.0 / max(s.real, 0.05)
    value, err = integrate_halfline(integrand, decay_scale=decay, tol=1e-10)
    return pref * value, abs(pref) * err


def _panel_sums(vals: np.ndarray, half: np.ndarray):
    """``(value, err_estimate)`` from the integrand on the nodes of an
    ``xi_layout``, shape (panels, 48), and its half widths ``half``: the
    sums over panels, in panel order, of the 32-point values and of their
    distances from the 16-point values."""
    (_, wc), (_, wf) = _COARSE_RULE, _FINE_RULE
    coarse = half * np.sum(wc * vals[:, :len(wc)], axis=1)
    fine = half * np.sum(wf * vals[:, len(wc):], axis=1)
    total = 0.0 + 0.0j
    err_total = 0.0
    for value, coarse_value in zip(fine.tolist(), coarse.tolist()):
        total += value
        err_total += abs(value - coarse_value)
    return total, err_total


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
    nodes comes from the cached ``xi_layout`` of c at XI_LENGTH.  Each point
    sums the rows up to its own order.  The integrand is an exact zero at
    the other nodes, and a zero f builds no table.  Every Gauss node lies
    inside its panel, so xi > 0.
    """
    pts = _check_points(points)
    if not pts:
        return [], []
    nodes, half, conj_pref = xi_layout(params.osc, XI_LENGTH)
    xi = nodes.ravel()
    f_vals = _values_on(func, xi)
    live = np.flatnonzero(f_vals != 0)
    values, errors = [], []
    if live.size:
        idx = params.landau_index()
        orders = [truncation_order(idx, z) for z in pts]
        poly, norms = state_polynomials(max(orders), params.osc, xi[live])
        pref_live, f_live = conj_pref[live], f_vals[live]
    integrand = np.zeros(xi.shape, dtype=complex)
    for i, z in enumerate(pts):
        if live.size:
            coeffs = _kernel_coeffs(idx, z, orders[i], norms)
            # f times the kernel, in this order, as at every node
            integrand[live] = f_live * _kernel_expansion(z, coeffs, poly,
                                                         pref_live)
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
    16-point Gauss-Legendre values.  A non-finite value of f at a node, or
    a result of f that is not one value for each node, raises
    InputFormatError, a kernel that is not finite (at very large c)
    NonConvergenceError.
    """
    (value,), (err,) = _expansion_transform(params, _as_callable(f), [z])
    return (value, err) if with_error else value


@lru_cache(maxsize=32)
def _m0_exponent(osc: OscParams) -> np.ndarray:
    """The z-independent part 2 loggamma(gamma - i xi) - loggamma(-i xi)
    + 4 i xi log c of the exponent of the m = 0 kernel, at every node of
    ``xi_layout(osc, XI_LENGTH)`` (flat).  Built once per c and cached (at
    most 6,048 nodes, under 100 kB an entry); the array is read-only."""
    xi = xi_layout(osc, XI_LENGTH)[0].ravel()
    gamma = osc.gamma
    expo = log_gamma_ratio(gamma, -xi) + 4j * xi * math.log(osc.c)
    expo.flags.writeable = False
    return expo


def _m0_transform(osc: OscParams, func, points):
    """``(values, err_estimates)`` of the m = 0 transform at each of
    ``points``, through its reduced single-2F1 kernel on the fixed layout.

    Every point is checked before f is evaluated, once, on the layout.  The
    live mask, the cached exponent and f are gathered at the live nodes
    once; each point then adds only its own -i xi log(1 - z), the 2F1 and
    the prefactor (1 - z)^(-gamma), keeping one point's integrand at a time.
    The kernel is elementwise, so every value has the bits of the kernel
    built at the live nodes for that point alone.
    """
    pts = _check_points(points)
    if not pts:
        return [], []
    gamma = osc.gamma
    lpref = (0.5 * math.log(2.0) + 0.5 * (math.log(2.0 * gamma - 1.0)
             - math.log(math.pi) - math.lgamma(2.0 * gamma))
             - math.lgamma(gamma + 0.5))
    scale = math.exp(lpref) * np.exp(-1j * math.pi * gamma / 2.0)
    nodes, half, _ = xi_layout(osc, XI_LENGTH)
    xi = nodes.ravel()
    f_vals = _values_on(func, xi)
    live = f_vals != 0
    any_live = live.any()
    if any_live:
        i_xl = 1j * xi[live]
        expo, f_live = _m0_exponent(osc)[live], f_vals[live]
    integrand = np.zeros(xi.shape, dtype=complex)
    values, errors = [], []
    for z in pts:
        if any_live:
            gam_fac = np.exp(expo - i_xl * np.log(1.0 - z))
            # kernel times f, in this order: the product is not bitwise
            # symmetric
            integrand[live] = gam_fac * gauss_2f1_vec(gamma - i_xl,
                                                      0.5 - i_xl, gamma + 0.5,
                                                      z) * f_live
        value, err = _panel_sums(integrand.reshape(nodes.shape), half)
        pref = scale * (1.0 - z) ** (-gamma)
        values.append(pref * value)
        errors.append(abs(pref) * err)
    return values, errors


def relativistic_transform_m0(osc: OscParams, f, z, with_error: bool = False):
    """The m = 0 transform through its reduced single-2F1 kernel.

    Same layout and return value as :func:`relativistic_transform` at
    m = 0; the kernel is evaluated only at the nodes where f is non-zero.
    Its z-independent exponent (the ``loggamma``s and the c^(4 i xi)
    phase) comes from a per-c cache, ``_m0_exponent``, and each call adds
    only -i xi log(1 - z) and the 2F1 at the live nodes; elementwise, so
    the bits are those of the kernel built at those nodes alone.  This is
    the one-point case of :func:`relativistic_transform_m0_grid`.
    """
    (value,), (err,) = _m0_transform(osc, _as_callable(f), [z])
    return (value, err) if with_error else value


def relativistic_transform_m0_grid(osc: OscParams, f,
                                   points) -> TransformResult:
    """The m = 0 transform on a grid of disk points, with one evaluation of
    f for the whole grid; each value and error estimate has the bits of
    :func:`relativistic_transform_m0` at its point.  A point outside the
    kernel cap raises DomainError before f is evaluated."""
    pts = np.asarray(points, dtype=complex).ravel()
    vals, errs = _m0_transform(osc, _as_callable(f), pts)
    return TransformResult(points=pts, values=np.array(vals, dtype=complex),
                           params=ModelParams(osc, 0),
                           errors=np.array(errs, dtype=float))


def relativistic_transform_grid(params: ModelParams, f,
                                points) -> TransformResult:
    """Evaluate the transform on a grid of disk points, with one evaluation
    of f and one table of the states for the whole grid; each value has the
    bits of :func:`relativistic_transform` at its point."""
    pts = np.asarray(points, dtype=complex).ravel()
    vals, errs = _expansion_transform(params, _as_callable(f), pts)
    return TransformResult(points=pts, values=np.array(vals, dtype=complex),
                           params=params, errors=np.array(errs, dtype=float))


#: the largest share of ||f||^2 the last two panels of the layout of
#: ``isometry_check`` may hold
_NORM_TOL = 1e-8
#: the share of the |f|^2 mass summed so far that each of two panels in a
#: row may hold for the walk of ``isometry_check`` to stop there: about
#: eps^2, so the mass it drops lies below the rounding of ||f||^2
_QUIET = 2.0 ** -104


def _walk_values(func, xi: np.ndarray, weights: np.ndarray,
                 first: int):
    """``(f_nodes, mass, n)``: f and w |f|^2 at the flat 32-point columns
    ``xi`` (weights ``weights``) of a layout, evaluated from xi = 0 in
    blocks of whole panels until f is quiet, and exact zeros past the
    first ``n`` nodes, which f never sees.

    The first block holds ``first`` panels, the next ones 4, 8, 16, ...
    panels, up to the layout's end.  The walk stops at the end of a block
    when each of the last two panels holds at most ``_QUIET`` of the mass
    summed so far and that mass is positive, so a prefix where f is zero
    is never quiet.  A walk that finds no quiet pair evaluates f on the
    whole layout.
    """
    rows = len(_FINE_RULE[0])
    panels = len(xi) // rows
    f_nodes = np.zeros(xi.shape, dtype=complex)
    mass = np.zeros(xi.shape)
    start, stop, block = 0, min(first, panels), 4
    while True:
        now = slice(start * rows, stop * rows)
        f_nodes[now] = _values_on(func, xi[now])
        # an |f|^2 past the double range is refused by the caller
        with np.errstate(over="ignore"):
            mass[now] = weights[now] * np.abs(f_nodes[now]) ** 2
        if stop == panels:
            break
        total = np.sum(mass[:now.stop])
        last_two = np.sum(mass[now.stop - 2 * rows:now.stop].reshape(2, rows),
                          axis=1)
        if total > 0 and np.all(last_two <= _QUIET * total):
            break
        start, stop, block = stop, min(stop + block, panels), 2 * block
    return f_nodes, mass, now.stop


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
    taken on the 32-point rule (weights half w_32) of one layout,
    ``xi_layout(osc, state_end(20, osc))``, which ends at xi = 80 for
    c <= 2.5 and at 2 gamma + 70 beyond.  The disk:
    ||B[f]||^2 = c^T G conj(c) with G = ``basis_gram(idx, 20)``, an exact
    polar rule over the whole disk.  The relative gap is then the Parseval
    defect of f against phi_0 .. phi_20 plus the orthonormality defect of
    Phi_0 .. Phi_20, so it is small exactly when f lies in the span of the
    first 21 states.  Everything but f depends on the parameters alone:
    the nodes and the folded state prefactor of the layout are cached per
    (c, end) and G per level (``_isometry_gram``).

    f is evaluated only where it lives.  The walk takes the panels up to
    XI_LENGTH = 40 in one call, then blocks of 4, 8, 16, ... panels, and
    stops at the end of a block when each of its last two panels holds at
    most 2^-104 (about eps^2) of the |f|^2 mass summed so far, and that
    mass is positive: past two quiet panels f is taken as zero, a NaN there
    included, just as the transforms never read f past xi = 40.  The mass
    dropped lies below the rounding of ||f||^2, so the result has the bits
    of the check on the whole layout (a superposition of phi_0 .. phi_2
    stops by xi = 46 of 80, in one or two calls).  A call then builds the
    real polynomial table of the projections on the evaluated prefix,
    c_k = norms[k] sum_n P_k(xi_n) conj_pref_n w_n f(xi_n), and takes the
    two sums.  The folded prefactor keeps them finite at large c (a gap of
    3.8e-12 for phi_0 at c = 20).

    Raises
    ------
    NonConvergenceError
        If either squared norm is not finite, or ||f||^2 lies below the
        smallest normal double while f is non-zero at an evaluated node:
        |f|^2 has left the double range, and the gap would be NaN or
        meaningless.  Or if the walk finds no quiet pair and the last two
        panels of the layout hold more than 1e-8 of ||f||^2: f does not
        decay within the layout.
    InputFormatError
        If f is not finite at a node it is evaluated at, or does not return
        one value for each node.

    Returns a dict with both norms and their relative gap.
    """
    func = _as_callable(f)
    end = state_end(_ISOMETRY_KMAX, params.osc)
    xi, weights, conj_pref = _fine_columns(xi_layout(params.osc, end))
    # at least two panels, so that the first block has a pair to test
    first = max(2, _panel_count(params.osc, XI_LENGTH))
    f_nodes, mass, n = _walk_values(func, xi, weights, first)
    norm_f_sq = float(np.sum(mass))
    # f_nodes is zero past the evaluated nodes
    if not (math.isfinite(norm_f_sq)
            and (norm_f_sq >= sys.float_info.min or not f_nodes.any())):
        raise NonConvergenceError(
            f"||f||^2 = {norm_f_sq:.3g} of a non-zero f is outside the range "
            "of normal doubles; rescale f")
    tail = float(np.sum(mass[-2 * len(_FINE_RULE[0]):]))
    if tail > _NORM_TOL * norm_f_sq:
        raise NonConvergenceError(
            f"the last two xi panels before {end:g} hold {tail:.3g} of "
            f"||f||^2 = {norm_f_sq:.3g}; f does not decay within the layout")
    # project_states' arithmetic, with the prefactor from the cached layout
    # on the evaluated prefix alone: f is zero past it
    factors = (*state_polynomials(_ISOMETRY_KMAX, params.osc, xi[:n]),
               conj_pref[:n])
    coeffs = _project(factors, weights[:n] * f_nodes[:n])
    gram = _isometry_gram(params.landau_index())
    with np.errstate(over="ignore", invalid="ignore"):
        norm_B_sq = float((coeffs @ gram @ coeffs.conj()).real)
    if not math.isfinite(norm_B_sq):
        raise NonConvergenceError(
            f"||B[f]||^2 = {norm_B_sq} is outside the double range; rescale f")
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
