"""Bargmann-type integral transforms from the half line to the disk.

Two transforms are implemented:

* ``classical_bargmann`` -- the Laguerre-kernel baseline mapping L^2(0, inf)
  into the weighted Bergman space, with kernel
  ((sigma-1)/(pi Gamma(sigma)))^(1/2) (1-z)^(-sigma)
  exp(-(x/2)(1+z)/(1-z)) x^((sigma-1)/2);

* ``relativistic_transform`` -- the coherent-state transform B[f](z)
  = N(z)^(1/2) <f, phi_z>, whose kernel is the paper's superposition
  K(z, xi) = sum_k Phi_k(z) conj(phi_k(xi)); it maps the oscillator
  eigenstate phi_j to the disk eigenfunction Phi_j of the level
  (2(gamma+m), m), and is an isometry onto that eigenspace.

At m = 0 the paper's kernel collapses to a single Gauss function
2F1(gamma - i xi, 1/2 - i xi; gamma + 1/2; z), and the image consists of
holomorphic functions.  That is an identity of kernels, not a second
transform: ``relativistic_transform_m0`` is the m = 0 call of
``relativistic_transform``, and the reduced kernel is
``reference.m0_reduced_kernel``, checked against the expansion by
``verify``'s ``m0-reduction`` suite.
Each one-point call is the grid call of its one point.

Transforms are evaluated against either a callable f(xi) (vectorised over
ndarray) or a :class:`SampledFunction`, which is interpolated by a cubic
spline and taken as zero outside its grid.  The package has one source of
xi nodes, ``oscillator.xi_layout``, and one layout per c: the one that ends
at ``state_end(20, osc)`` (xi = 80 for c <= 2.5, 2 gamma + 70 beyond), in
panels of width ``oscillator.panel_width``, each with the 21-point
Gauss-Kronrod rule.  Its nodes, half widths and the folded state prefactor
``conj_state_prefactor`` at every node are built once per c and kept in a
small cache (read-only arrays), which the transforms, ``isometry_check``
and ``oscillator_gram`` (kmax <= 20) all read.  f reaches the quadrature
one way only, the walk ``_walk_values``: f is evaluated in blocks of panels
from xi = 0, up to XI_LENGTH = 40 and then 4, 8, 16, ... panels more, until
two panels in a row hold at most 2^-104 of the mass of |f|^2 summed so
far; past them f is taken as zero and never evaluated.  A walk that
reaches the end of the layout with more than 1e-8 of ||f||^2 in its last
two panels raises NonConvergenceError: f does not decay within the
layout.  Both rules read that prefix alone: a transform sums the Kronrod
values of the walked panels, so it is linear in f up to rounding (the
walk drops at most 2^-104 of ||f||^2, and f and g may stop at different
panels), and ``isometry_check`` sums w |f|^2 and the projections there,
with the bits of the check on the whole layout.  The kernel of
``relativistic_transform`` is summed at the nodes where f is non-zero, on
the column Phi_0(z) .. Phi_K(z) that the truncation rule of ``coherent``
cut at the point (``coherent._kernel_coeffs``), from one
real table of the states' polynomials, which ``relativistic_transform_grid``
builds once for all of its points; the integrand is an exact zero at the
other nodes.  Each node's kernel value has the same bits whatever the other
nodes and points, so every result is the same as with the kernel evaluated
at every walked node, and a grid value the same as the single-point value.
The F5 closed form (``coherent.transform_kernel``) is not used here.
``classical_bargmann`` alone integrates adaptively
(``quadrature.integrate_halfline``), with one call of f per bisection level
of each block of panels, on both Gauss rules of every open panel, its
values checked as the relativistic transform checks its own.

Every state, in the kernel, the projections of ``isometry_check`` and the
Gram matrices alike, comes from the one factorisation conj(phi_k) =
norms[k] P_k conj_pref of ``oscillator.conj_state_factors``, whose folded
prefactor stays finite at large c.  The disk Gram matrix of
``isometry_check`` is cached per level.  Both caches (the layout and the
Gram) are bounded ``lru_cache``s of read-only arrays, built elementwise or
by the uncached code, so a cached result has the bits of an uncached one.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .coherent import _check_cap, _kernel_coeffs, _kernel_expansion, _one_point
# looked up here by the layer tracer of bench/tracing.py
from .coherent import transform_kernel  # noqa: F401
from .disk import LandauIndex, basis_gram
from .errors import (DomainError, InputFormatError, NonConvergenceError,
                     _check_order)
# looked up here by the layer tracer of bench/tracing.py
from .hypergeom import gauss_2f1_vec  # noqa: F401
from .oscillator import (_ISOMETRY_KMAX, XI_LENGTH, ModelParams, OscParams,
                         _panel_count, _project,
                         eigenfunction, state_end, state_polynomials,
                         xi_layout)
# looked up here by the layer tracer of bench/tracing.py
from .oscillator import eigenfunction_batch  # noqa: F401
from .quadrature import _KRONROD_RULE, integrate_halfline
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
    tolerance of 1e-10 by ``integrate_halfline`` on panels of width
    1 / max(Re s, 0.05), s = (1 + z) / (2 (1 - z)).  It calls f once per
    bisection level of each block of panels, on the nodes of both Gauss
    rules of every panel still open, and never past the block that holds
    the first two negligible panels.  A non-finite value of f at a node
    (naming the smallest such xi of the call), or a result that is not one
    value for each node, raises InputFormatError.
    """
    if not 1.0 < sigma < math.inf:
        raise DomainError("classical transform requires a finite sigma > 1")
    (z,) = _check_cap(_one_point(z))
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
    """``(value, err_estimate)`` from the integrand at the flat nodes of
    the first panels of an ``xi_layout`` and the layout's half widths
    ``half``: the sums over those panels, in panel order, of the 21-point
    Kronrod values and of their distances from the 10-point Gauss values
    on the odd nodes of each panel."""
    _, wk, wg = _KRONROD_RULE
    vals = vals.reshape(-1, len(wk))
    half = half[:len(vals)]
    kronrod = half * np.sum(wk * vals, axis=1)
    gauss = half * np.sum(wg * vals[:, 1::2], axis=1)
    total = 0.0 + 0.0j
    err_total = 0.0
    for value, gauss_value in zip(kronrod.tolist(), gauss.tolist()):
        total += value
        err_total += abs(value - gauss_value)
    return total, err_total


def relativistic_transform(params: ModelParams, f, z, with_error: bool = False):
    """Coherent-state Bargmann-type transform B[f] at the disk point z.

    B[f](z) = N(z)^(1/2) integral_0^inf f(xi) conj(<xi|z>) dxi, with the
    kernel summed as its basis expansion sum_k Phi_k(z) conj(phi_k(xi)),
    cut by the truncation rule of ``coherent``, on the panels of the one layout
    of c that the walk of f reads (``_walk_values``): from xi = 0 until two
    panels in a row are quiet, at most to ``state_end(20, osc)``.  The
    layout depends only on c, never on f, and there is no tolerance to
    set; the states are evaluated only at the nodes where f is non-zero.
    Returns B[f](z), or ``(value, err_estimate)`` with ``with_error``: the
    estimate is the sum over the walked panels of the distance between the
    21-point Kronrod and the 10-point Gauss values.  A non-finite value of
    f at a node, or a result of f that is not one value for each node,
    raises InputFormatError; an f that does not decay within the layout,
    or a kernel that is not finite (at very large c), NonConvergenceError.
    This is :func:`relativistic_transform_grid` at
    the one point z; a z of more than one point raises DomainError before
    f is evaluated.
    """
    res = relativistic_transform_grid(params, f, [_one_point(z)])
    (value,), (err,) = res.values.tolist(), res.errors.tolist()
    return (value, err) if with_error else value


def relativistic_transform_grid(params: ModelParams, f,
                                points) -> TransformResult:
    """Evaluate the transform on a grid of disk points, with one walk of f
    (``_walk_values``) for the whole grid.  The real polynomial table of
    the states is built once, on the walked nodes where f is non-zero, up
    to the largest order K of the points' ``_kernel_coeffs``; each point
    sums its rows up to its own order, so a value has the bits of the same
    point alone.  A point
    outside the kernel cap raises DomainError before f is evaluated.

    The integrand is f times the kernel at the nodes where f is non-zero,
    and an exact zero at the other nodes; a zero f builds no table."""
    pts = np.asarray(points, dtype=complex).ravel()
    func = _as_callable(f)
    zs = _check_cap(pts)
    values, errors = [], []
    if zs:
        layout, f_nodes, _, n = _walk_values(func, params.osc)
        xi, half, conj_pref, _ = layout
        live = np.flatnonzero(f_nodes[:n] != 0)
        integrand = np.zeros(n, dtype=complex)
        if live.size:
            coeffs, kmax = _kernel_coeffs(params, zs)
            poly, _ = state_polynomials(kmax, params.osc, xi[live])
            pref_live, f_live = conj_pref[live], f_nodes[live]
        for i, z in enumerate(zs):
            if live.size:
                kernel = _kernel_expansion(z, coeffs[i], poly, pref_live)
                # f times the kernel, in this order, as at every node
                integrand[live] = f_live * kernel
            value, err = _panel_sums(integrand, half)
            values.append(value)
            errors.append(err)
    return TransformResult(points=pts, values=np.array(values, dtype=complex),
                           params=params, errors=np.array(errors, dtype=float))


def relativistic_transform_m0(osc: OscParams, f, z, with_error: bool = False):
    """The m = 0 transform: :func:`relativistic_transform` at
    ``ModelParams(osc, 0)``.  The paper's reduced single-2F1 kernel of this
    level is ``reference.m0_reduced_kernel``, checked against the expansion
    kernel by ``verify``'s ``m0-reduction`` suite."""
    return relativistic_transform(ModelParams(osc, 0), f, z, with_error)


#: the largest share of ||f||^2 the last two panels of the layout may hold
#: when the walk of f reaches its end
_NORM_TOL = 1e-8
#: the share of the |f|^2 mass summed so far that each of two panels in a
#: row may hold for the walk of f to stop there: about eps^2, so the mass
#: it drops lies below the rounding of ||f||^2
_QUIET = 2.0 ** -104


def _walk_values(func, osc: OscParams):
    """``(layout, f_nodes, mass, n)``: the one ``xi_layout`` of c, which
    ends at ``state_end(20, osc)``, and f and w |f|^2 (Kronrod weights w)
    at its flat nodes, evaluated from xi = 0 in blocks of whole panels
    until f is quiet, and exact zeros past the first ``n`` nodes, which f
    never sees.  This is the only way f reaches the xi quadrature.

    The first block ends at XI_LENGTH (at least two panels), the next ones
    hold 4, 8, 16, ... panels, up to the layout's end.  The walk stops at
    the end of a block when each of the last two panels holds at most
    ``_QUIET`` of the mass summed so far and that mass is positive, so a
    prefix where f is zero is never quiet.  A walk that finds no quiet pair
    evaluates f on the whole layout, and raises NonConvergenceError if the
    last two panels hold more than ``_NORM_TOL`` of ||f||^2: f does not
    decay within the layout.
    """
    end = state_end(_ISOMETRY_KMAX, osc)
    layout = xi_layout(osc, end)
    xi, _, _, weights = layout
    rows = len(_KRONROD_RULE[0])
    panels = len(xi) // rows
    f_nodes = np.zeros(xi.shape, dtype=complex)
    mass = np.zeros(xi.shape)
    # at least two panels, so that the first block has a pair to test
    start, stop, block = 0, min(max(2, _panel_count(osc, XI_LENGTH)),
                                panels), 4
    while True:
        now = slice(start * rows, stop * rows)
        f_nodes[now] = _values_on(func, xi[now])
        # an |f|^2 past the double range is left to isometry_check to refuse
        with np.errstate(over="ignore"):
            mass[now] = weights[now] * np.abs(f_nodes[now]) ** 2
        total = mass[:now.stop].sum()
        last_two = mass[now.stop - 2 * rows:now.stop].reshape(2, rows).sum(1)
        if stop == panels or (0 < total and last_two.max() <= _QUIET * total):
            break
        start, stop, block = stop, min(stop + block, panels), 2 * block
    if stop == panels and last_two.sum() > _NORM_TOL * total:
        raise NonConvergenceError(
            f"the last two xi panels before {end:g} hold {last_two.sum():.3g} "
            f"of ||f||^2 = {total:.3g}; f does not decay within the layout")
    return layout, f_nodes, mass, now.stop


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
    taken on the Kronrod rule (weights half w_21) of the one layout of c,
    which ends at ``state_end(20, osc)``: xi = 80 for c <= 2.5 and
    2 gamma + 70 beyond.  The disk:
    ||B[f]||^2 = c^T G conj(c) with G = ``basis_gram(idx, 20)``, an exact
    polar rule over the whole disk.  The relative gap is then the Parseval
    defect of f against phi_0 .. phi_20 plus the orthonormality defect of
    Phi_0 .. Phi_20, so it is small exactly when f lies in the span of the
    first 21 states.  Everything but f depends on the parameters alone:
    the nodes and the folded state prefactor of the layout are cached per
    c and G per level (``_isometry_gram``).

    f is evaluated only where it lives, by the transforms' walk
    (``_walk_values``): the panels up to XI_LENGTH = 40 in one call, then
    blocks of 4, 8, 16, ... panels, until each of the last two panels of a
    block holds at most 2^-104 (about eps^2) of the |f|^2 mass summed so
    far, and that mass is positive.  Past two quiet panels f is taken as
    zero, a NaN there included, and the transforms read f no further
    either.  The mass dropped lies below the rounding of ||f||^2, so the
    result has the bits
    of the check on the whole layout (a superposition of phi_0 .. phi_2
    stops by xi = 50 of 80, in one or two calls).  A call then builds the
    real polynomial table of the projections on the evaluated prefix,
    c_k = norms[k] sum_n P_k(xi_n) conj_pref_n w_n f(xi_n), and takes the
    two sums.  The folded prefactor keeps them finite at large c (a gap of
    2.2e-13 for phi_0 at c = 20).

    Raises
    ------
    NonConvergenceError
        If the walk finds no quiet pair and the last two panels of the
        layout hold more than 1e-8 of ||f||^2: f does not decay within the
        layout.  Or if either squared norm is not finite, or ||f||^2 lies
        below the smallest normal double while f is non-zero at an
        evaluated node: |f|^2 has left the double range, and the gap would
        be NaN or meaningless.
    InputFormatError
        If f is not finite at a node it is evaluated at, or does not return
        one value for each node.

    Returns a dict with both norms and their relative gap.
    """
    layout, f_nodes, mass, n = _walk_values(_as_callable(f), params.osc)
    xi, _, conj_pref, weights = layout
    norm_f_sq = float(np.sum(mass))
    # f_nodes is zero past the evaluated nodes
    if not (math.isfinite(norm_f_sq)
            and (norm_f_sq >= sys.float_info.min or not f_nodes.any())):
        raise NonConvergenceError(
            f"||f||^2 = {norm_f_sq:.3g} of a non-zero f is outside the range "
            "of normal doubles; rescale f")
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
        return eigenfunction(j, osc, np.atleast_1d(xi))

    return f
