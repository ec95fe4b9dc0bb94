"""Transforms: classical baseline, relativistic kernel, reductions, isometry."""

import math
import time
import tracemalloc
import warnings

import numpy as np
import pytest

from relbargmann import bargmann, cli, disk, oscillator, spline
from relbargmann.bargmann import (SampledFunction, TransformResult,
                                  classical_bargmann, isometry_check,
                                  oscillator_mode, relativistic_transform,
                                  relativistic_transform_grid,
                                  relativistic_transform_m0)
from relbargmann.coherent import (CUT_BLOCK_POINTS, CoherentLabel,
                                  cs_wavefunction_oracle, normalization,
                                  transform_kernel_series)
from relbargmann.disk import basis_gram, basis_phi, wirtinger_dzbar_fd
from relbargmann.errors import DomainError, InputFormatError, NonConvergenceError
from relbargmann.orthopoly import laguerre_l
from relbargmann.oscillator import (XI_LENGTH, ModelParams, OscParams,
                                    conj_state_prefactor, state_end,
                                    state_polynomials, xi_layout)
from relbargmann.quadrature import (_KRONROD_RULE, _kronrod_panels,
                                    integrate_halfline)
from test_oscillator import project_states


def laguerre_mode(k: int, sigma: float):
    """L^2-normalised Laguerre eigenmode of the classical kernel's system."""

    def f(x):
        x = np.asarray(x, dtype=float)
        return (math.exp(0.5 * (math.lgamma(k + 1) - math.lgamma(sigma + k)))
                * x ** (0.5 * (sigma - 1.0)) * np.exp(-0.5 * x)
                * laguerre_l(k, sigma - 1.0, x))

    return f


class TestSampledFunction:
    def test_round_trip(self):
        grid = np.linspace(0.0, 10.0, 401)
        sf = SampledFunction(grid=grid, values=np.exp(-grid) + 0j)
        f = sf.as_callable()
        x = np.array([0.25, 3.7, 9.1])
        assert np.max(np.abs(f(x) - np.exp(-x))) < 1e-8

    def test_zero_outside_range(self):
        sf = SampledFunction(grid=np.linspace(1.0, 2.0, 11),
                             values=np.ones(11, dtype=complex))
        f = sf.as_callable()
        assert f(np.array([0.5, 2.5])).tolist() == [0.0, 0.0]

    def test_validation(self):
        with pytest.raises(InputFormatError):
            SampledFunction(grid=np.array([0.0, 1.0]),
                            values=np.array([1.0, np.nan]))
        with pytest.raises(InputFormatError):
            SampledFunction(grid=np.array([1.0, 0.5]),
                            values=np.array([1.0, 1.0]))
        with pytest.raises(InputFormatError):
            SampledFunction(grid=np.array([-0.5, 0.5]),
                            values=np.array([1.0, 1.0]))
        with pytest.raises(InputFormatError):
            SampledFunction(grid=np.array([0.0]), values=np.array([1.0]))


class TestClassicalBargmann:
    def test_zero_input(self):
        val, err = classical_bargmann(3.0, lambda x: np.zeros(np.shape(x)), 0.2)
        assert val == 0.0 and err == 0.0

    def test_kernel_at_origin(self):
        # B[f](0) reduces to a pure Laplace-type moment; f = exp(-x), sigma = 3
        sigma = 3.0
        val, _ = classical_bargmann(sigma, lambda x: np.exp(-x), 0.0)
        moment = math.gamma(2.0) / 1.5 ** 2
        want = math.sqrt((sigma - 1.0) / (math.pi * math.gamma(sigma))) * moment
        assert abs(val - want) < 1e-12

    def test_monomial_image(self):
        # Laguerre eigenmodes map to multiples of z^k; the Laplace-transform
        # identity fixes the constant to the analytic-level basis coefficient
        sigma, k = 5.5, 2
        f = laguerre_mode(k, sigma)
        vals = []
        for z in (0.1, 0.2, 0.3):
            b, _ = classical_bargmann(sigma, f, z)
            vals.append(b / z ** k)
        assert abs(vals[0] - vals[1]) < 1e-9
        assert abs(vals[1] - vals[2]) < 1e-9
        want = math.exp(0.5 * (math.log(sigma - 1.0) + math.lgamma(sigma + k)
                               - math.log(math.pi) - math.lgamma(sigma)
                               - math.lgamma(k + 1.0)))
        assert abs(vals[0] - want) < 1e-9 * want

    def test_sigma_validation(self):
        with pytest.raises(DomainError):
            classical_bargmann(1.0, lambda x: np.exp(-x), 0.2)
        for sigma in (np.nan, np.inf):
            with pytest.raises(DomainError, match="finite sigma"):
                classical_bargmann(sigma, lambda x: np.exp(-x), 0.2)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, complex(0.0, np.nan)])
    def test_non_finite_f_rejected(self, bad):
        # a NaN f was a NonConvergenceError about the tail
        with pytest.raises(InputFormatError, match=r"xi = 0\.0\d"):
            classical_bargmann(3.0, lambda x: np.full(np.shape(x), bad), 0.2)

        def f(x):
            return np.where(x > 5.0, bad, np.exp(-x))

        with pytest.raises(InputFormatError, match=r"xi = 5\.\d"):
            classical_bargmann(3.0, f, 0.2)

    def test_f_is_not_read_past_the_quiet_block(self):
        # panels are 4/3 wide at z = 0.2; the first quiet pair lies in the
        # block that ends at 16 panels (xi = 21.3), so the NaN past
        # xi = 30 is never seen, though a walk of all 64 panels would see it
        seen = []

        def f(x):
            seen.append(x.max())
            return np.where(x <= 30.0, np.exp(-x), np.nan)

        sigma, z = 3.0, 0.2
        val, _ = classical_bargmann(sigma, f, z)
        # the integrand is x e^{-(s + 1) x}: pref / (s + 1)^2
        s = 0.5 * (1.0 + z) / (1.0 - z)
        pref = (math.sqrt((sigma - 1.0) / math.pi)
                * math.exp(-0.5 * math.lgamma(sigma)) * (1.0 - z) ** -sigma)
        want = pref / (s + 1.0) ** 2
        assert abs(val - want) <= 1e-13 * want
        assert max(seen) < 30.0

    @pytest.mark.parametrize("sigma", [15.0, 20.0, 25.0])
    def test_large_sigma_reaches_the_bulk(self, sigma):
        # x^(sigma - 1) e^{-(s + 1/2) x} is below 1e-11 on the first
        # panels, so a walk that calls them quiet on an absolute test
        # stops before the bulk (4.6e-8 for 2.111 at sigma = 15); a case
        # may instead refuse with a typed error
        ran = 0
        for k, z in ((0, 0.75), (0, 0.75j), (2, -0.5), (4, 0.3 + 0.3j)):
            want = math.exp(0.5 * (math.log(sigma - 1.0)
                                   + math.lgamma(sigma + k)
                                   - math.log(math.pi) - math.lgamma(sigma)
                                   - math.lgamma(k + 1.0))) * z ** k
            try:
                got, _ = classical_bargmann(sigma, laguerre_mode(k, sigma), z)
            except NonConvergenceError:
                continue
            assert abs(got - want) <= 1e-7 * max(1.0, abs(want))
            ran += 1
        assert ran >= 2

    def test_zero_f_walks_every_panel(self):
        # a zero prefix is never quiet, so a zero f is read on all 64
        # panels, in the four blocks, and gives exact zeros
        seen = []

        def f(x):
            seen.append(x.size)
            return np.zeros(x.shape)

        assert classical_bargmann(3.0, f, 0.2) == (0.0, 0.0)
        assert seen == [8 * 21, 8 * 21, 16 * 21, 32 * 21]

    @pytest.mark.parametrize("shape", ["scalar", "three", "column"])
    def test_f_of_the_wrong_shape_rejected(self, shape):
        f = {"scalar": lambda x: 1.0,
             "three": lambda x: np.ones(3),
             "column": lambda x: np.exp(-x)[:, None]}[shape]
        with pytest.raises(InputFormatError, match="one value for each"):
            classical_bargmann(3.0, f, 0.2)


class TestRelativisticTransform:
    def test_zero_input(self):
        params = ModelParams(OscParams(1.0), 1)
        val = relativistic_transform(params, lambda x: np.zeros(np.shape(x)),
                                     0.2 + 0.1j)
        assert val == 0.0

    @pytest.mark.parametrize("m", [0, 1])
    def test_basis_mapping_spot(self, m):
        params = ModelParams(OscParams(1.0), m)
        idx = params.landau_index()
        z = 0.25 + 0.1j
        for j in (0, 1, 2):
            got = relativistic_transform(params, oscillator_mode(j, params.osc), z)
            assert abs(got - basis_phi(j, idx, z)) < 1e-6

    def test_oracle_path_agreement(self):
        # the superposition oracle under the adaptive half-line rule: an
        # independent quadrature of the kernel the transform sums
        params = ModelParams(OscParams(1.0), 1)
        z = -0.2 + 0.2j
        f = oscillator_mode(2, params.osc)
        got = relativistic_transform(params, f, z)
        label = CoherentLabel(z, params)
        root_n = math.sqrt(normalization(params.landau_index(), z))

        def integrand(xi):
            return (np.asarray(f(xi))
                    * np.conj(cs_wavefunction_oracle(label, xi)))

        want, _ = integrate_halfline(integrand, decay_scale=0.5, tol=1e-10)
        assert abs(got - root_n * want) < 1e-6

    def test_linearity_is_exact(self):
        params = ModelParams(OscParams(1.0), 0)
        z = 0.3 - 0.2j
        f = oscillator_mode(0, params.osc)
        g = oscillator_mode(1, params.osc)
        combo = lambda x: 2.0 * f(x) - 1.5j * g(x)
        lhs = relativistic_transform(params, combo, z)
        rhs = (2.0 * relativistic_transform(params, f, z)
               - 1.5j * relativistic_transform(params, g, z))
        assert abs(lhs - rhs) < 1e-14

    @pytest.mark.parametrize("c", [1.0, 3.0])
    def test_linearity_across_walk_stops(self, c):
        # the walk of f stops at xi = 40 (61 at c = 3), that of g near 64
        # (84), and that of the sum with g's: each drops at most 2^-104 of
        # ||f||^2, so B stays linear up to rounding
        params = ModelParams(OscParams(c), 1)
        f = oscillator_mode(0, params.osc)
        g = oscillator_mode(10, params.osc)
        stops = [bargmann._walk_values(h, params.osc)[3] for h in (f, g)]
        assert stops[0] < stops[1]
        combo = lambda x: 2.0 * f(x) - 1.5j * g(x)
        for z in (0.3 - 0.2j, -0.5 + 0.4j):
            lhs = relativistic_transform(params, combo, z)
            rhs = (2.0 * relativistic_transform(params, f, z)
                   - 1.5j * relativistic_transform(params, g, z))
            assert abs(lhs - rhs) <= 1e-14 * max(1.0, abs(lhs))

    def test_caps(self):
        params = ModelParams(OscParams(1.0), 0)
        f = oscillator_mode(0, params.osc)
        with pytest.raises(DomainError):
            relativistic_transform(params, f, 0.86)
        with pytest.raises(DomainError):
            relativistic_transform(params, f, 0.84 + 0.01j)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, complex(0.0, np.nan)])
    def test_non_finite_f_rejected(self, bad):
        # a NaN past xi = 5 once came back as the value (nan, nan)
        params = ModelParams(OscParams(1.0), 0)
        phi0 = oscillator_mode(0, params.osc)

        def f(xi):
            return np.where(np.asarray(xi) > 5.0, bad, phi0(xi))

        calls = (lambda: relativistic_transform(params, f, 0.3),
                 lambda: relativistic_transform_m0(params.osc, f, 0.3),
                 lambda: relativistic_transform_grid(params, f, [0.3]),
                 lambda: isometry_check(params, f))
        for call in calls:
            with pytest.raises(InputFormatError, match=r"xi = 5\.\d"):
                call()

    @pytest.mark.parametrize("shape", ["scalar", "three", "column", "row"])
    def test_f_of_the_wrong_shape_rejected(self, shape):
        # a scalar was an IndexError, and three values a silent 0j from the
        # transform and an IndexError or ValueError elsewhere
        params = ModelParams(OscParams(1.0), 0)
        phi0 = oscillator_mode(0, params.osc)
        f = {"scalar": lambda xi: 1.0,
             "three": lambda xi: np.ones(3),
             "column": lambda xi: phi0(xi)[:, None],
             "row": lambda xi: phi0(xi)[None, :]}[shape]
        calls = (lambda: relativistic_transform(params, f, 0.3),
                 lambda: relativistic_transform_m0(params.osc, f, 0.3),
                 lambda: relativistic_transform_grid(params, f, [0.3]),
                 lambda: isometry_check(params, f))
        for call in calls:
            with pytest.raises(InputFormatError, match="one value for each"):
                call()

    def test_list_result_accepted(self):
        params = ModelParams(OscParams(1.0), 0)
        phi0 = oscillator_mode(0, params.osc)

        def as_list(xi):
            return phi0(xi).tolist()

        assert (relativistic_transform(params, as_list, 0.3)
                == relativistic_transform(params, phi0, 0.3))
        assert (relativistic_transform_m0(params.osc, as_list, 0.3)
                == relativistic_transform_m0(params.osc, phi0, 0.3))
        assert isometry_check(params, as_list) == isometry_check(params, phi0)

    def test_grid_result(self):
        params = ModelParams(OscParams(1.0), 0)
        pts = [0.1, 0.2j, -0.15 - 0.1j]
        res = relativistic_transform_grid(params, oscillator_mode(0, params.osc),
                                          pts)
        assert isinstance(res, TransformResult)
        assert len(res.values) == 3
        assert np.max(res.errors) < 1e-8
        idx = params.landau_index()
        for z, v in zip(res.points, res.values):
            assert abs(v - basis_phi(0, idx, z)) < 1e-7

    def test_transform_output_satisfies_eigen_equation(self):
        # for m >= 1 the image lies in the level-m eigenspace; check the
        # weighted Laplacian on B[f] by finite differences.  The step is kept
        # large enough that the transform's quadrature error (amplified by
        # 1/h^2) stays inside the composed tolerance.
        from relbargmann.disk import landau_level, maass_apply_fd

        params = ModelParams(OscParams(1.0), 1)
        idx = params.landau_index()
        f = oscillator_mode(1, params.osc)
        B = lambda w: relativistic_transform(params, f, w)
        z = 0.25 + 0.15j
        got = maass_apply_fd(idx, B, z, h=5e-3)
        want = landau_level(idx) * B(z)
        assert abs(got - want) / (1.0 + abs(want)) < 1e-3

    def test_sampled_input_maps_to_constant(self):
        # dense samples of the ground state transform to the constant basis
        # function across the grid
        params = ModelParams(OscParams(1.0), 0)
        grid = np.linspace(0.0, 30.0, 1501)
        vals = oscillator_mode(0, params.osc)(grid)
        sampled = SampledFunction(grid=grid, values=vals)
        idx = params.landau_index()
        want = basis_phi(0, idx, 0.0)
        for z in (0.1, -0.2 + 0.2j):
            got = relativistic_transform(params, sampled, z)
            assert abs(got - want) < 1e-5

    def test_mid_disk_basis_mapping(self):
        # here the closed-form F5 kernel cancels: through it B[phi_10] was
        # off by 2.5e-2 and B[phi_20] by 87; the expansion keeps 5e-11, 2e-7
        params = ModelParams(OscParams(2.0), 1)
        idx = params.landau_index()
        z = 0.479 - 0.379j
        for j, tol in ((10, 1e-9), (20, 1e-6)):
            got = relativistic_transform(params, oscillator_mode(j, params.osc), z)
            assert abs(got - basis_phi(j, idx, z)) < tol

    def test_grid_builds_one_spline(self, monkeypatch):
        params = ModelParams(OscParams(2.0), 1)
        grid = np.linspace(0.0, 30.0, 301)
        sampled = SampledFunction(grid=grid,
                                  values=oscillator_mode(1, params.osc)(grid))
        points = [0.1, -0.2 + 0.2j, 0.3j, 0.4 - 0.1j]
        # the spline a SampledFunction builds is the package's own
        assert bargmann.CubicSpline is spline.CubicSpline
        builds = counting(monkeypatch, bargmann, "CubicSpline")
        result = relativistic_transform_grid(params, sampled, points)
        assert len(builds) == 1
        for z, value, error in zip(points, result.values, result.errors):
            assert (value, error) == relativistic_transform(
                params, sampled, z, with_error=True)
        assert len(builds) == 1 + len(points)


class TestAccuracyMap:
    """B[phi_j] = Phi_j over the disk, one grid call per (c, m, j) against
    ``disk.basis_phi``.  With the layout cut at xi = 40 for every c, the
    worst relative error here was 0.68 to 1.6 for c <= 3, 1.7 at c = 5 and
    2.4e4 at c = 8, with rounding-level reported errors."""

    ARGS = (0.5, 2.0, 3.1, 4.5)

    @pytest.mark.parametrize("c", [0.5, 1.0, 2.0, 3.0, 5.0, 8.0])
    @pytest.mark.parametrize("m", [0, 1, 2])
    def test_basis_mapping(self, c, m):
        radii = (0.3, 0.6, 0.85) if c <= 3.0 else (0.3, 0.5)
        bound = 1e-8 if c == 8.0 else 1e-9
        points = [z for z in (r * np.exp(1j * a)
                              for r in radii for a in self.ARGS)
                  if abs(1.0 - z) >= 0.2]
        params = ModelParams(OscParams(c), m)
        idx = params.landau_index()
        for j in (0, 5, 10, 15, 20):
            got = relativistic_transform_grid(
                params, oscillator_mode(j, params.osc), points).values
            want = np.array([basis_phi(j, idx, z) for z in points])
            rel = np.abs(got - want) / np.maximum(1.0, np.abs(want))
            assert rel.max() <= bound, (j, points[int(rel.argmax())])


def walked_panels(params, f):
    """The number of panels of the one layout of c that the transforms'
    walk of f (``bargmann._walk_values``) reads."""
    func = f.as_callable() if isinstance(f, SampledFunction) else f
    return bargmann._walk_values(func, params.osc)[3] // len(_KRONROD_RULE[0])


def layout_panels(params, panels=None):
    """(mid, half width) of the first ``panels`` panels of the one layout
    of c (all of them by default), walked one panel at a time: width
    ``panel_width``, the last panel of the layout cut at ``state_end(20)``."""
    width = oscillator.panel_width(params.osc)
    end = state_end(20, params.osc)
    lo = 0.0
    for _ in range(math.ceil(end / width) if panels is None else panels):
        hi = min(lo + width, end)
        yield 0.5 * (hi + lo), 0.5 * (hi - lo)
        lo = hi


def panel_walk_transform(params, f, z):
    """Reference: the walked panels of the one layout, one panel at a time,
    with one call of the expansion kernel for the 10-point Gauss and one
    for the 21-point Kronrod rule of every panel."""
    nodes, wk, wg = _KRONROD_RULE
    total, err_total = 0.0 + 0.0j, 0.0
    for mid, half in layout_panels(params, walked_panels(params, f)):
        vg, vk = (half * np.sum(w * (f(mid + half * x)
                                     * transform_kernel_series(params, z,
                                                               mid + half * x)))
                  for x, w in ((nodes[1::2], wg), (nodes, wk)))
        total += vk
        err_total += abs(vk - vg)
    return total, err_total


class TestFixedLayout:
    @pytest.mark.parametrize("c", [0.6, 1.0, 2.0])
    @pytest.mark.parametrize("m", [0, 1, 2])
    def test_matches_panel_walk(self, c, m):
        params = ModelParams(OscParams(c), m)
        f = oscillator_mode(1, params.osc)
        for z in (0.3 + 0.2j, -0.5 + 0.4j):
            assert_kernel_route(
                relativistic_transform(params, f, z, with_error=True),
                panel_walk_transform(params, f, z))

    @pytest.mark.parametrize("m", [0, 2])
    def test_two_blocks_keep_basis_mapping(self, m):
        # c = 0.45 once took 612 panels in two blocks; the walk of f now
        # stops after its first block, at xi = 40: 62 panels, 1302 nodes,
        # in one call
        params = ModelParams(OscParams(0.45), m)
        z = 0.3 + 0.4j
        got = relativistic_transform(params, oscillator_mode(1, params.osc), z)
        assert abs(got - basis_phi(1, params.landau_index(), z)) < 1e-6

    def test_long_layout_memory_is_bounded(self):
        # c = 0.37 once took 21663 panels, 1.04 M nodes, where the series
        # overflowed; the walk of f now stops at xi = 40, after 63 panels
        params = ModelParams(OscParams(0.37), 0)
        z = 0.3 + 0.4j
        f = oscillator_mode(1, params.osc)
        tracemalloc.start()
        start = time.perf_counter()
        try:
            got = relativistic_transform(params, f, z)
        finally:
            elapsed = time.perf_counter() - start
            peak = tracemalloc.get_traced_memory()[1]
            tracemalloc.stop()
        assert elapsed < 10.0
        assert peak < 32 * 2 ** 20
        assert abs(got - basis_phi(1, params.landau_index(), z)) < 1e-6

    @pytest.mark.parametrize("c", [0.38, 0.4])
    @pytest.mark.parametrize("m", [0, 2])
    def test_callable_near_one_over_e_keeps_basis_mapping(self, c, m):
        # phi_1 does not vanish before xi = 450, and the 2F1 series of the
        # kernel overflows far out; the layout ends at state_end(20) = 80,
        # and the walk of f stops at xi = 40 here
        params = ModelParams(OscParams(c), m)
        f = oscillator_mode(1, params.osc)
        for z in (0.3 + 0.4j, 0.1j):
            got = relativistic_transform(params, f, z)
            assert abs(got - basis_phi(1, params.landau_index(), z)) < 1e-6


def layout_integral(integrand, layout, panels):
    """``(value, err_estimate)`` of ``integrand``, called once on all the
    nodes of the first ``panels`` panels of ``layout`` (an ``xi_layout``
    tuple): the sums in panel order of the Kronrod values and estimates of
    the panel rule, ``quadrature._kronrod_panels``."""
    nodes, half = layout[0][:panels * len(_KRONROD_RULE[0])], layout[1]
    values, errors = _kronrod_panels(np.asarray(integrand(nodes)), half)
    return sum(values.tolist(), 0j), sum(errors.tolist(), 0.0)


def every_node_transform(params, f, z):
    """Reference: f times the expansion kernel at every node of the walked
    panels of the one layout."""
    func = f.as_callable() if isinstance(f, SampledFunction) else f

    def integrand(xi):
        return np.asarray(func(xi)) * transform_kernel_series(params, z, xi)

    layout = xi_layout(params.osc, state_end(20, params.osc))
    return layout_integral(integrand, layout, walked_panels(params, func))


def bits(value, err):
    """Value and error estimate as bytes, so that signed zeros count."""
    return np.array([value], dtype=complex).tobytes() + np.float64(err).tobytes()


#: the transforms sum c_k Phi_k(z) with c_k = <f, phi_k>, and the oracles
#: above f times the expansion kernel at every walked node: the same finite
#: double sum in another order.  On the cases of this file (c <= 2) the
#: values differed by at most 1.4e-15 max(1, |value|); on c <= 3, m <= 4,
#: j <= 10 and 40 points each with |z| <= 0.85, by at most 1.1e-13
ROUTE_TOL = 1e-14
#: the error estimates sit at rounding level, and moved by at most 2.1e-16
#: max(1, |value|) beyond 1e-12 of themselves on the same cases
ERR_ROUNDING = 2e-15


def assert_kernel_route(got, want):
    """``(value, err_estimate)`` of a transform within the route tolerances
    of an oracle's: the value within ROUTE_TOL max(1, |value|), the error
    estimate within 1e-12 relative plus ERR_ROUNDING max(1, |value|)."""
    size = max(1.0, abs(want[0]))
    assert abs(got[0] - want[0]) <= ROUTE_TOL * size, (got, want)
    assert abs(got[1] - want[1]) <= 1e-12 * want[1] + ERR_ROUNDING * size, (
        got, want)


def sampled_modes(osc, grid, coeffs=(1.0, 0.5j, -0.3)):
    """Samples of sum_j coeffs[j] phi_j on ``grid``."""
    return SampledFunction(grid=grid, values=sum(
        a * oscillator_mode(j, osc)(grid) for j, a in enumerate(coeffs)))


class TestKernelOnSupport:
    """The state table stops at the last walked panel where f is non-zero,
    and the results are those of f times the kernel at every walked node,
    within the route tolerances."""

    GRID = np.linspace(0.0, 30.0, 301)

    @pytest.mark.parametrize("c", [0.6, 1.0, 2.0])
    @pytest.mark.parametrize("m", [0, 1, 2])
    def test_sampled_matches_every_node(self, c, m):
        params = ModelParams(OscParams(c), m)
        f = sampled_modes(params.osc, self.GRID)
        for z in (0.3 + 0.2j, -0.5 + 0.4j):
            got = relativistic_transform(params, f, z, with_error=True)
            assert_kernel_route(got, every_node_transform(params, f, z))
            if m == 0:
                assert bits(*relativistic_transform_m0(
                    params.osc, f, z, with_error=True)) == bits(*got)

    def test_grid_from_two_kernel_inside_grid(self, monkeypatch):
        # c = 0.6: the walk's first block runs to xi = 40, the samples
        # cover [2, 25]; the table holds the walked nodes up to the end of
        # the panel that holds xi = 25, and no node past it
        params = ModelParams(OscParams(0.6), 1)
        grid = np.linspace(2.0, 25.0, 231)
        f = sampled_modes(params.osc, grid)
        z = 0.25 - 0.35j
        want = every_node_transform(params, f, z)
        seen = []
        table = bargmann.state_polynomials

        def recorded(kmax, osc, xi):
            seen.append(np.array(xi))
            return table(kmax, osc, xi)

        monkeypatch.setattr(bargmann, "state_polynomials", recorded)
        got = relativistic_transform(params, f, z, with_error=True)
        assert_kernel_route(got, want)
        (nodes,) = seen
        panels = [mid + half * _KRONROD_RULE[0]
                  for mid, half in layout_panels(params)]
        last = max(i for i, x in enumerate(panels) if x.min() <= grid[-1])
        assert last < walked_panels(params, f) - 1
        assert nodes.tobytes() == np.concatenate(panels[:last + 1]).tobytes()

    @pytest.mark.parametrize("m", [0, 1, 2])
    def test_long_walk_matches_every_node(self, m):
        # phi_10 at c = 1 is quiet only near xi = 64: the walk reads 74 of
        # the 92 panels of the layout, past XI_LENGTH and its first block
        params = ModelParams(OscParams(1.0), m)
        f = oscillator_mode(10, params.osc)
        panels = walked_panels(params, f)
        assert panels * oscillator.panel_width(params.osc) > 60.0
        assert panels < len(xi_layout(params.osc, state_end(20, params.osc))[1])
        for z in (0.3 + 0.2j, -0.5 + 0.4j):
            got = relativistic_transform(params, f, z, with_error=True)
            assert_kernel_route(got, every_node_transform(params, f, z))
            assert_kernel_route(got, panel_walk_transform(params, f, z))

    def test_zero_input_gives_positive_zero(self, monkeypatch):
        params = ModelParams(OscParams(1.0), 1)
        f = SampledFunction(grid=self.GRID, values=np.zeros(len(self.GRID)))
        calls = []
        monkeypatch.setattr(bargmann, "state_polynomials",
                            lambda *args: calls.append(args))
        got = relativistic_transform(params, f, 0.2 + 0.1j, with_error=True)
        assert bits(*got) == bits(0.0, 0.0) and not calls
        got = relativistic_transform_m0(params.osc, f, 0.2 + 0.1j, with_error=True)
        assert bits(*got) == bits(0.0, 0.0) and not calls


class TestOneProjection:
    """B[f](z) = sum_k c_k Phi_k(z): the transforms project f once,
    c_k = <f, phi_k> by ``oscillator._project``, and dot each point's cut
    column with it, so a grid value has the bits of its one-point call
    whatever the grid's largest order, and a zero f builds nothing."""

    @staticmethod
    def disk_points(n, seed):
        """n points of |z| <= 0.8 with |1 - z| >= 0.2."""
        rng = np.random.default_rng(seed)
        points = []
        while len(points) < n:
            z = complex(*rng.uniform(-0.8, 0.8, 2))
            if abs(z) <= 0.8 and abs(1.0 - z) >= 0.2:
                points.append(z)
        return points

    @staticmethod
    def mode(osc, f):
        return {"callable": oscillator_mode(3, osc),
                "sampled": sampled_modes(osc, np.linspace(0.0, 30.0, 301)),
                "scattered": scattered_mode(osc)}[f]

    @staticmethod
    def assert_one_point_bits(params, f, points, res):
        for z, value, err in zip(points, res.values, res.errors):
            assert bits(value, err) == bits(*relativistic_transform(
                params, f, z, with_error=True)), z

    @pytest.mark.parametrize("c", [0.6, 1.0, 2.0])
    @pytest.mark.parametrize("m", [0, 1, 2])
    @pytest.mark.parametrize("f", ["callable", "sampled", "scattered"])
    def test_grid_value_has_the_bits_of_its_one_point_call(self, c, m, f):
        # the points' orders K(z) differ, and the grid's table goes to the
        # largest of them
        params = ModelParams(OscParams(c), m)
        func = self.mode(params.osc, f)
        points = self.disk_points(12, 5) + [0.0]
        res = relativistic_transform_grid(params, func, points)
        self.assert_one_point_bits(params, func, points, res)

    def test_more_points_than_a_cut_block(self):
        # the cut's columns are views of a table of up to CUT_BLOCK_POINTS
        # points, dotted as contiguous copies; every 9th point and the
        # last ones are checked, from both blocks
        params = ModelParams(OscParams(1.0), 1)
        func = self.mode(params.osc, "sampled")
        points = self.disk_points(CUT_BLOCK_POINTS + 30, 3)
        res = relativistic_transform_grid(params, func, points)
        picked = list(range(0, len(points), 9)) + [len(points) - 1]
        self.assert_one_point_bits(
            params, func, [points[i] for i in picked],
            TransformResult(points=res.points[picked],
                            values=res.values[picked], params=params,
                            errors=res.errors[picked]))

    def test_zero_f_builds_nothing_and_gives_positive_zeros(self,
                                                            monkeypatch):
        params = ModelParams(OscParams(1.0), 1)
        calls = []
        for name in ("state_polynomials", "_basis_cut", "_project",
                     "_kronrod_gaps"):
            monkeypatch.setattr(bargmann, name,
                                lambda *args: calls.append(args))
        points = self.disk_points(5, 1)
        res = relativistic_transform_grid(
            params, lambda xi: np.zeros(np.shape(xi)), points)
        assert not calls
        assert [bits(v, e) for v, e in zip(res.values, res.errors)] == [
            bits(0.0, 0.0)] * len(points)


class TestM0Reduction:
    """``relativistic_transform_m0`` is the expansion transform at m = 0;
    the reduced kernel itself is checked in tests/test_reference.py."""

    def test_matches_full_kernel(self):
        osc = OscParams(1.0)
        params = ModelParams(osc, 0)
        f = oscillator_mode(1, osc)
        for z in (0.25, 0.3 + 0.2j, -0.4 + 0.1j):
            full = relativistic_transform(params, f, z, with_error=True)
            reduced = relativistic_transform_m0(osc, f, z, with_error=True)
            assert bits(*reduced) == bits(*full)

    def test_tenth_mode_meets_the_disk_basis(self):
        # the reduced 2F1 kernel was off by 2.4e3 here, the expansion by
        # 7.2e-11
        osc = OscParams(1.0)
        z = 0.5 - 0.6j
        got = relativistic_transform_m0(osc, oscillator_mode(10, osc), z)
        want = basis_phi(10, ModelParams(osc, 0).landau_index(), z)
        assert abs(got - want) < 1e-10

    def test_output_is_holomorphic(self):
        osc = OscParams(1.0)
        f = oscillator_mode(1, osc)
        B = lambda w: relativistic_transform_m0(osc, f, w)
        assert abs(wirtinger_dzbar_fd(B, 0.2 + 0.1j, 1e-3)) < 1e-5

    def test_ground_state_constant_image(self):
        osc = OscParams(1.0)
        g = osc.gamma
        want = math.sqrt((2.0 * g - 1.0) / math.pi)
        got = relativistic_transform_m0(osc, oscillator_mode(0, osc), 0.3 - 0.1j)
        assert abs(got - want) < 1e-7


def counted_calls(f):
    """``(g, calls)``: f, and a one-element list counting g's calls."""
    calls = [0]

    def g(xi):
        calls[0] += 1
        return f(xi)

    return g, calls


class TestM0Grid:
    """The m = 0 transform on a grid, ``relativistic_transform_grid`` at
    ``ModelParams(osc, 0)``: one evaluation of f for every point, and the
    bits of the one-point call ``relativistic_transform_m0`` at each."""

    POINTS = [0.3 + 0.2j, -0.5 + 0.4j, 0.0, 0.25, -0.3 - 0.3j, 0.3 + 0.2j]

    @staticmethod
    def grid(osc, f, points):
        return relativistic_transform_grid(ModelParams(osc, 0), f, points)

    @staticmethod
    def modes(osc, f):
        return {"sampled": sampled_modes(osc, np.linspace(2.0, 25.0, 231)),
                "scattered": scattered_mode(osc),
                "mode": oscillator_mode(1, osc)}[f]

    @pytest.mark.parametrize("c", [0.6, 1.0, 2.0])
    @pytest.mark.parametrize("f", ["sampled", "scattered", "mode"])
    def test_each_value_has_the_bits_of_the_one_point_call(self, c, f):
        osc = OscParams(c)
        func = self.modes(osc, f)
        res = self.grid(osc, func, self.POINTS)
        assert isinstance(res, TransformResult) and res.params.m == 0
        for z, value, err in zip(self.POINTS, res.values, res.errors):
            got = bits(value, err)
            assert got == bits(*relativistic_transform_m0(osc, func, z,
                                                          with_error=True))
            if f == "sampled":
                assert_kernel_route((value, err), every_node_transform(
                    res.params, func, z))

    @pytest.mark.parametrize("c", [0.6, 1.0, 8.0])
    @pytest.mark.parametrize("f", ["sampled", "scattered"])
    def test_has_the_bits_of_the_expansion_transform(self, c, f):
        # the one-point m = 0 call is the expansion transform at m = 0
        osc = OscParams(c)
        params = ModelParams(osc, 0)
        func = self.modes(osc, f)
        for z in self.POINTS:
            assert (bits(*relativistic_transform_m0(osc, func, z, True))
                    == bits(*relativistic_transform(params, func, z, True)))

    def test_grid_values_are_the_one_point_scalars(self):
        # the one-point call returns a Python complex, as the expansion
        # transform does, with the bits of the grid value
        osc = OscParams(1.0)
        f = oscillator_mode(1, osc)
        (value,) = self.grid(osc, f, [0.2j]).values.tolist()
        one = relativistic_transform_m0(osc, f, 0.2j)
        assert type(value) is type(one) is complex
        assert bits(one, 0.0) == bits(value, 0.0)

    def test_one_evaluation_of_f_per_call(self):
        osc = OscParams(1.0)
        g, calls = counted_calls(oscillator_mode(1, osc))
        self.grid(osc, g, self.POINTS)
        assert calls == [1]
        relativistic_transform_m0(osc, g, 0.1j)
        assert calls == [2]

    def test_empty_grid(self):
        osc = OscParams(1.0)
        g, calls = counted_calls(oscillator_mode(1, osc))
        res = self.grid(osc, g, [])
        assert res.values.shape == res.errors.shape == res.points.shape == (0,)
        assert calls == [0]

    @pytest.mark.parametrize("bad", [0.86, 1.2j, complex(np.nan, 0.0)])
    def test_bad_point_raises_before_f_is_evaluated(self, bad):
        osc = OscParams(1.0)
        g, calls = counted_calls(oscillator_mode(1, osc))
        with pytest.raises(DomainError):
            self.grid(osc, g, [0.1, bad, 0.2j])
        assert calls == [0]


def level_halfline(f, decay_scale=1.0, tol=1e-10, calls=None):
    """Reference: ``integrate_halfline`` one level of one block at a time.

    The panels, made by adding the width one at a time, are taken in
    blocks that end at 8, 16, 32 and 64 panels.  Each level of a block is
    one call of f on the 21 Gauss-Kronrod nodes of each of its open
    panels, and each panel's Kronrod value, and its distance from the
    10-point Gauss value on the odd nodes, are then summed on their own; a
    split panel's value and estimate are the sums of its halves'.  A panel
    is quiet when |value| + estimate is below tol / 10 times the smaller of
    1 and the sum of |value| up to it.  The depth and the number of open
    panels of each call go to ``calls``."""
    width = max(decay_scale, 1e-3)
    max_length = 64.0 * decay_scale
    nodes, wk, wg = _KRONROD_RULE
    edges = [0.0]
    for _ in range(math.ceil(max_length / width)):
        edges.append(min(edges[-1] + width, max_length))
    n_panels = len(edges) - 1

    def block_pairs(panels):
        leaves, open_panels, depth = {}, panels, 0
        while open_panels:
            if calls is not None:
                calls.append((depth, len(open_panels)))
            x = np.concatenate([0.5 * (hi + lo) + 0.5 * (hi - lo) * nodes
                                for lo, hi in open_panels])
            vals = np.asarray(f(x)).reshape(len(open_panels), len(nodes))
            split = []
            for (lo, hi), v in zip(open_panels, vals):
                mid, half = 0.5 * (hi + lo), 0.5 * (hi - lo)
                val = complex(half * np.sum(wk * v))
                err = abs(val - complex(half * np.sum(wg * v[1::2])))
                if err > tol / 20.0 and depth < 12:
                    split += [(lo, mid), (mid, hi)]
                else:
                    leaves[lo, hi] = (val, err)
            open_panels, depth = split, depth + 1

        def pair(lo, hi):
            if (lo, hi) in leaves:
                return leaves[lo, hi]
            mid = 0.5 * (hi + lo)
            (v1, e1), (v2, e2) = pair(lo, mid), pair(mid, hi)
            return v1 + v2, e1 + e2

        return [pair(lo, hi) for lo, hi in panels]

    total = 0.0 + 0.0j
    err_total = mass = 0.0
    quiet = 0
    start, stop = 0, min(8, n_panels)
    while start < n_panels:
        panels = list(zip(edges[start:stop], edges[start + 1:stop + 1]))
        for val, err in block_pairs(panels):
            total += val
            err_total += err
            mass += abs(val)
            if abs(val) + err < tol / 10.0 * min(1.0, mass):
                quiet += 1
                if quiet >= 2:
                    return total, err_total + abs(val)
            else:
                quiet = 0
        start, stop = stop, min(2 * stop, n_panels)
    if mass == 0.0:
        return total, err_total
    raise NonConvergenceError("tail not converged")


def hex_pair(value, err):
    return complex(value).real.hex(), complex(value).imag.hex(), err.hex()


def node_counts(f):
    """``(g, sizes)``: f, and the list of the node counts of g's calls."""
    sizes = []

    def g(x):
        sizes.append(np.size(x))
        return f(x)

    return g, sizes


class TestHalflineOneCall:
    """``integrate_halfline`` calls f once per bisection level of each block
    of panels, on the 21 Gauss-Kronrod nodes of every open panel, with the
    bits of a reference that sums each panel on its own."""

    @pytest.mark.parametrize("sigma", [3.0, 5.5, 15.0])
    def test_classical_modes_match_level_reference(self, sigma, monkeypatch):
        got = {(k, z): classical_bargmann(sigma, laguerre_mode(k, sigma), z)
               for k in range(5) for z in (0.1, 0.2, 0.3, 0.2 - 0.3j, 0.75)}
        monkeypatch.setattr(bargmann, "integrate_halfline", level_halfline)
        for (k, z), pair in got.items():
            want = classical_bargmann(sigma, laguerre_mode(k, sigma), z)
            assert hex_pair(*pair) == hex_pair(*want)

    def test_bisection_makes_one_call_per_level_per_block(self):
        # sqrt(x) is not smooth at 0, so the first panel is bisected deep
        def f(x):
            return np.sqrt(x) * np.exp(-x) * (1.0 + 0.5j)

        calls = []
        want = level_halfline(f, 1.0, 1e-12, calls)
        depths = [depth for depth, _ in calls]
        assert max(depths) >= 2
        g, sizes = node_counts(f)
        got = integrate_halfline(g, decay_scale=1.0, tol=1e-12)
        assert hex_pair(*got) == hex_pair(*want)
        # one call per level of each block, each on the 21 nodes of every
        # panel open at that level
        assert sizes == [21 * panels for _, panels in calls]
        assert depths.count(0) == 4 and depths[:2] == [0, 1]

    @pytest.mark.parametrize("sigma, z", [(5.5, 0.2 - 0.3j), (1.5, 0.3),
                                          (15.0, 0.75)])
    def test_classical_transform_reads_21_nodes_an_open_panel(
            self, monkeypatch, sigma, z):
        f, sizes = node_counts(laguerre_mode(2, sigma))
        classical_bargmann(sigma, f, z)
        calls = []
        monkeypatch.setattr(
            bargmann, "integrate_halfline",
            lambda g, **kw: level_halfline(g, calls=calls, **kw))
        classical_bargmann(sigma, laguerre_mode(2, sigma), z)
        assert sizes == [21 * panels for _, panels in calls]
        # the first call holds the first block: 8 panels of 21 nodes
        assert sizes[0] == 8 * 21

    @pytest.mark.parametrize("result", ["scalar", "per-panel", "column"])
    def test_result_of_another_shape_is_refused(self, result):
        # one value a panel, e^-k on [k, k + 1], was once broadcast to its
        # nodes; a result must now be one value for each node
        f = {"scalar": lambda x: 0.0,
             "per-panel": lambda x: np.exp(-np.floor(x[::21])),
             "column": lambda x: np.exp(-x)[:, None]}[result]
        with pytest.raises(InputFormatError, match="one value for each node"):
            integrate_halfline(f, decay_scale=1.0, tol=1e-10)


class TestIsometry:
    def test_ground_state(self):
        osc = OscParams(1.0)
        rep = isometry_check(ModelParams(osc, 0), oscillator_mode(0, osc))
        assert abs(rep["norm_f_sq"] - 1.0) < 1e-6
        assert abs(rep["norm_Bf_sq"] - 1.0) < 1e-4
        assert rep["relative_gap"] < 1e-4

    def test_two_mode_mix(self):
        osc = OscParams(1.0)

        def mix(xi):
            return (oscillator_mode(0, osc)(xi)
                    + oscillator_mode(1, osc)(xi)) / math.sqrt(2.0)

        rep = isometry_check(ModelParams(osc, 0), mix)
        assert rep["relative_gap"] < 1e-4

    def test_zero_function(self):
        osc = OscParams(1.0)
        rep = isometry_check(ModelParams(osc, 0),
                             lambda xi: np.zeros(np.shape(xi), dtype=complex))
        assert rep["relative_gap"] == 0.0

    def test_higher_level(self):
        osc = OscParams(1.0)
        rep = isometry_check(ModelParams(osc, 1), oscillator_mode(1, osc))
        assert rep["relative_gap"] < 1e-4

    @pytest.mark.parametrize("case", ["overflow", "underflow", "subnormal"])
    def test_f_past_the_double_range_raises(self, case):
        # the overflow returned inf norms and a NaN gap, the underflow a
        # gap of 0.0 where the unscaled f gives 0.5
        osc = OscParams(1.0)
        phi0, phi21 = oscillator_mode(0, osc), oscillator_mode(21, osc)
        f = {"overflow": lambda xi: 1e160 * phi0(xi),
             "underflow": lambda xi: 1e-170 * (phi0(xi) + phi21(xi))
             / math.sqrt(2.0),
             "subnormal": lambda xi: 1e-155 * phi0(xi)}[case]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NonConvergenceError, match="double"):
                isometry_check(ModelParams(osc, 0), f)

    def test_disk_norm_past_the_double_range_raises(self, monkeypatch):
        # ||f||^2 = 1e308 is finite; a Gram ten times too large puts
        # ||B[f]||^2 past the double range
        osc = OscParams(1.0)
        params = ModelParams(osc, 0)
        phi0 = oscillator_mode(0, osc)
        gram = bargmann._isometry_gram(params.landau_index())
        monkeypatch.setattr(bargmann, "_isometry_gram", lambda idx: 10 * gram)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NonConvergenceError, match=r"B\[f\]"):
                isometry_check(params, lambda xi: 1e154 * phi0(xi))

    def test_small_f_inside_the_range_passes(self):
        osc = OscParams(1.0)
        phi0 = oscillator_mode(0, osc)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rep = isometry_check(ModelParams(osc, 0),
                                 lambda xi: 1e-100 * phi0(xi))
        assert abs(rep["norm_f_sq"] / 1e-200 - 1.0) < 1e-12
        assert rep["relative_gap"] < 1e-12

    def test_takes_no_budget(self):
        osc = OscParams(1.0)
        with pytest.raises(TypeError):
            isometry_check(ModelParams(osc, 0), oscillator_mode(0, osc), {})


def point_loop_isometry(params, f):
    """Reference: both norms summed panel by panel and point by point on the
    rule of ``isometry_check``, with the projections from complex state
    tables and B at every node of the exact polar rule from its own basis
    stack.  Returns (norm_f_sq, norm_Bf_sq).
    """
    from relbargmann.disk import _gram_rule_sizes, basis_phi_batch
    from relbargmann.oscillator import eigenfunction_batch, state_end
    from relbargmann.quadrature import jacobi_rule_01

    kmax = bargmann._ISOMETRY_KMAX
    xg, wg = _KRONROD_RULE[:2]
    norm_f_sq = 0.0
    projections = np.zeros(kmax + 1, dtype=complex)
    for mid, half in layout_panels(params):
        xi = mid + half * xg
        w, fx = half * wg, np.asarray(f(xi))
        norm_f_sq += float(np.sum(w * np.abs(fx) ** 2))
        projections += np.conj(eigenfunction_batch(kmax, params.osc, xi)) @ (w * fx)
    idx = params.landau_index()
    n_radial, n_angular = _gram_rule_sizes(kmax, params.m)
    rule = jacobi_rule_01(n_radial, 0.0, params.sigma - 2 * params.m - 2.0)
    norm_Bf_sq = 0.0
    for r, w in zip(rule.nodes, rule.weights):
        for phi in np.arange(n_angular) * (2.0 * np.pi / n_angular):
            z = math.sqrt(r) * complex(math.cos(phi), math.sin(phi))
            value = basis_phi_batch(kmax, idx, z) @ projections
            norm_Bf_sq += (w * np.pi / n_angular * abs(value) ** 2
                           * (1.0 - r) ** (2 * params.m))
    return norm_f_sq, norm_Bf_sq


def mode_mix(osc, weights):
    modes = [oscillator_mode(j, osc) for j in range(len(weights))]

    def f(xi):
        return sum(w * g(xi) for w, g in zip(weights, modes))

    return f


class TestIsometryRings:
    MIX = (0.5, 0.6 - 0.3j, 0.2 + 0.5j)

    @pytest.mark.parametrize("c", [0.6, 1.0, 2.0])
    @pytest.mark.parametrize("m", [0, 1, 2])
    def test_matches_point_loop(self, c, m):
        params = ModelParams(OscParams(c), m)
        f = mode_mix(params.osc, self.MIX)
        rep = isometry_check(params, f)
        want_f, want_B = point_loop_isometry(params, f)
        assert abs(rep["norm_f_sq"] - want_f) <= 1e-12 * want_f
        assert abs(rep["norm_Bf_sq"] - want_B) <= 1e-12 * want_B

    @pytest.mark.parametrize("c", [0.6, 1.0, 2.0])
    @pytest.mark.parametrize("m", [0, 1, 2])
    def test_superposition_norms_are_exact(self, c, m):
        # f = sum_j a_j phi_j: both sides equal sum_j |a_j|^2
        weights = np.array([1.0, 1.0j]) @ np.random.default_rng(7).normal(
            size=(2, 6))
        params = ModelParams(OscParams(c), m)
        rep = isometry_check(params, mode_mix(params.osc, weights))
        want = float(np.sum(np.abs(weights) ** 2))
        assert abs(rep["norm_f_sq"] - want) < 1e-12
        assert abs(rep["norm_Bf_sq"] - want) < 1e-12

    @pytest.mark.parametrize("c, m", [(1.0, 0), (2.0, 1), (0.6, 0), (3.0, 4)])
    def test_nine_modes_pass(self, c, m):
        # the benchmark's known-defect span, equal weights on phi_0 .. phi_8
        params = ModelParams(OscParams(c), m)
        rep = isometry_check(params, mode_mix(params.osc, [1.0 / 3.0] * 9))
        assert rep["relative_gap"] < 1e-13

    def test_scaled_basis_member_fails(self, monkeypatch, cold_caches):
        from relbargmann import disk

        batch = disk.basis_phi_batch

        def scaled(kmax, idx, z):
            out = batch(kmax, idx, z).copy()
            out[1] *= 1.0 + 1e-3
            return out

        monkeypatch.setattr(disk, "basis_phi_batch", scaled)
        cold_caches()  # a warm Gram would never call the scaled batch
        params = ModelParams(OscParams(1.0), 0)
        f = mode_mix(params.osc, [1.0 / math.sqrt(3.0)] * 3)
        assert isometry_check(params, f)["relative_gap"] > 6e-4

    def test_mode_past_the_projections_fails(self):
        params = ModelParams(OscParams(1.0), 0)
        f = mode_mix(params.osc, [1.0 / math.sqrt(2.0)] + [0.0] * 20
                     + [1.0 / math.sqrt(2.0)])
        rep = isometry_check(params, f)
        assert abs(rep["norm_f_sq"] - 1.0) < 1e-12
        assert abs(rep["relative_gap"] - 0.5) < 1e-12

    @pytest.mark.parametrize("m", [0, 1, 2])
    def test_large_c_ground_state_fits_the_layout(self, m):
        # at c = 8 (gamma = 45.8) phi_0 peaks near xi = gamma; a layout
        # ending at xi = 80 left 0.66% of its norm in the last two panels
        params = ModelParams(OscParams(8.0), m)
        f = oscillator_mode(0, params.osc)
        xi, _, _, weights = xi_layout(params.osc, state_end(20, params.osc))
        mass = weights * np.abs(f(xi)) ** 2
        assert np.sum(mass[-42:]) < 1e-40 * np.sum(mass)
        assert isometry_check(params, f)["relative_gap"] < 1e-12

    @pytest.mark.parametrize("c", [12.0, 20.0])
    @pytest.mark.parametrize("m", [0, 1])
    def test_large_c_superposition_passes(self, c, m):
        # (phi_0 + phi_3) / sqrt(2) from the state factors; the unfolded
        # prefactor overflowed here, and the check raised
        params = ModelParams(OscParams(c), m)

        def f(xi):
            poly, norms = state_polynomials(3, params.osc, xi)
            conj_pref = conj_state_prefactor(params.osc, xi)
            return np.conj(conj_pref) * (norms[0] * poly[0]
                                         + norms[3] * poly[3]) / math.sqrt(2.0)

        rep = isometry_check(params, f)
        assert abs(rep["norm_f_sq"] - 1.0) < 1e-11
        assert rep["relative_gap"] <= 1e-11

    def test_slow_decay_raises(self):
        params = ModelParams(OscParams(1.0), 0)
        with pytest.raises(NonConvergenceError):
            isometry_check(params, lambda xi: np.exp(-np.asarray(xi) / 50.0))

    @pytest.mark.parametrize("c, m", [(0.6, 2), (1.0, 1)])
    def test_memory_is_bounded(self, c, m):
        # twice the rule's measured peak, 2.0 MiB at (0.6, 2)
        params = ModelParams(OscParams(c), m)
        f = mode_mix(params.osc, self.MIX)
        isometry_check(params, f)  # fill the coefficient caches
        tracemalloc.start()
        try:
            isometry_check(params, f)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4.5 * 2 ** 20

    @pytest.mark.parametrize("budget", [
        {"r_split": 1.0}, {"r_split": 1.5}, {"r_split": 0.0},
        {"r_split": float("nan")}, {"n_angular": 0}, {"n_angular": -3},
        {"n_angular": 2.5}, {"n_radial": 0}, {"n_radial": 5000},
        {"kmax": -1}, {"kmax": "eight"}, {"xi_length": float("nan")},
        {"xi_length": 0.0}, {"tol": 0.0}, {"tol": float("inf")},
        {"n_angle": 36}])
    def test_bad_budget_raises_domain_error(self, budget):
        # the rule is fixed, so the isometry suite's config is the only
        # budget a caller can hand it: a rule key is refused rather than
        # ignored, and a tolerance that fails or passes everything is refused
        from relbargmann.verification import run_suite
        with pytest.raises(DomainError):
            run_suite("isometry", budget)


def fresh_layout(osc, end):
    """``xi_layout(osc, end)`` built afresh, past its cache."""
    return xi_layout.__wrapped__(osc, end)


def uncached_isometry(params, f):
    """Reference: the three values of ``isometry_check`` from the Kronrod
    rule of a freshly built layout, projections on state factors built
    afresh and a Gram matrix built afresh."""
    kmax = bargmann._ISOMETRY_KMAX
    xi, half, _, _ = fresh_layout(params.osc, state_end(kmax, params.osc))
    weights = (half[:, None] * _KRONROD_RULE[1]).ravel()
    f_nodes = np.asarray(f(xi))
    norm_f_sq = float(np.sum(weights * np.abs(f_nodes) ** 2))
    coeffs = project_states(kmax, params.osc, xi, weights * f_nodes)
    gram = basis_gram(params.landau_index(), kmax)
    norm_B_sq = float((coeffs @ gram @ coeffs.conj()).real)
    gap = abs(norm_B_sq - norm_f_sq) / max(norm_f_sq, norm_B_sq)
    return {"norm_f_sq": norm_f_sq, "norm_Bf_sq": norm_B_sq,
            "relative_gap": gap}


def counting(monkeypatch, module, name):
    """Replace ``module.name`` by a wrapper that records its calls."""
    calls = []
    original = getattr(module, name)

    def counted(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(module, name, counted)
    return calls


def scattered_mode(osc):
    """phi_1, zero on every third stretch of width 1/7."""
    def f(xi):
        return oscillator_mode(1, osc)(xi) * (np.floor(7.0 * xi) % 3 != 0)

    return f


class TestLayoutCache:
    """The transforms' xi layout, ``oscillator.xi_layout`` at XI_LENGTH."""

    def test_arrays_are_read_only(self):
        for arr in xi_layout(OscParams(1.0), XI_LENGTH):
            assert not arr.flags.writeable
            with pytest.raises(ValueError):
                arr.flat[0] = 1.0

    def test_cache_is_bounded(self):
        maxsize = oscillator.xi_layout.cache_info().maxsize
        assert maxsize is not None and maxsize <= 64


class TestParameterCaches:
    """The package's parameter caches: the xi layout per (c, end) and the
    disk Gram of the isometry check per level.  Each holds read-only arrays,
    is bounded, builds each key once and has the bits of an uncached
    build."""

    CACHES = ["xi_layout", "_isometry_gram"]

    @staticmethod
    def cache_and_keys(name):
        """The cache called ``name`` and two of its keys."""
        one, two = OscParams(1.3), OscParams(2.0)
        if name == "xi_layout":
            return oscillator.xi_layout, [(one, XI_LENGTH), (one, 80.0)]
        keys = [(ModelParams(one, 1).landau_index(),),
                (ModelParams(two, 0).landau_index(),)]
        return getattr(bargmann, name), keys

    @staticmethod
    def arrays(entry):
        return entry if isinstance(entry, tuple) else (entry,)

    def test_cached_arrays_are_read_only(self):
        # the isometry check's layout is xi_layout at state_end(20)
        osc = OscParams(1.0)
        arrays = [*xi_layout(osc, state_end(20, osc)),
                  bargmann._isometry_gram(ModelParams(osc, 1).landau_index())]
        for arr in arrays:
            assert not arr.flags.writeable
            with pytest.raises(ValueError):
                arr.flat[0] = 1.0

    # the cache each reader keeps its arrays in; the isometry check's
    # layout, once a cache of its own, is an entry of xi_layout
    @pytest.mark.parametrize("cache", [
        pytest.param(oscillator.xi_layout, id="_isometry_layout"),
        pytest.param(bargmann._isometry_gram, id="_isometry_gram")])
    def test_cache_is_bounded(self, cache):
        maxsize = cache.cache_info().maxsize
        assert maxsize is not None and maxsize <= 64

    @pytest.mark.parametrize("name", CACHES)
    def test_each_key_is_built_once(self, name, cold_caches):
        cache, (one, two) = self.cache_and_keys(name)
        first = cache(*one)
        assert cache(*one) is first
        assert cache(*two) is not first
        assert cache(*two) is cache(*two)
        assert cache.cache_info().misses == 2

    @pytest.mark.parametrize("name", CACHES)
    def test_cached_bits_equal_uncached_bits(self, name):
        cache, keys = self.cache_and_keys(name)
        for key in keys:
            got, want = cache(*key), cache.__wrapped__(*key)
            for a, b in zip(self.arrays(got), self.arrays(want), strict=True):
                assert a.tobytes() == b.tobytes()

    @pytest.mark.parametrize("c, f", [
        (0.6, "sampled"),
        (1.0, "scattered"),
        (2.0, "scattered")])
    def test_live_prefactor_has_the_bits_of_a_fresh_one(self, c, f):
        osc = OscParams(c)
        if f == "sampled":
            func = sampled_modes(osc, np.linspace(2.0, 25.0, 231)).as_callable()
        else:
            func = scattered_mode(osc)
        xi, _, conj_pref, _ = xi_layout(osc, XI_LENGTH)
        live = np.flatnonzero(func(xi) != 0)
        assert 0 < live.size < xi.size
        want = oscillator.conj_state_prefactor(osc, xi[live])
        assert conj_pref[live].tobytes() == want.tobytes()

    def test_second_transform_builds_no_prefactor(self, monkeypatch,
                                                  cold_caches):
        params = ModelParams(OscParams(1.3), 1)
        f = sampled_modes(params.osc, np.linspace(0.0, 30.0, 301))
        calls = counting(monkeypatch, oscillator, "conj_state_prefactor")
        first = relativistic_transform(params, f, 0.2 - 0.3j, with_error=True)
        assert len(calls) == 1
        again = relativistic_transform(params, f, 0.2 - 0.3j, with_error=True)
        grid = relativistic_transform_grid(params, f, [0.1j, 0.2 - 0.3j])
        relativistic_transform_m0(params.osc, f, 0.1j)
        assert len(calls) == 1
        assert bits(*again) == bits(*first)
        assert bits(grid.values[1], grid.errors[1]) == bits(*first)

    def test_one_layout_per_end(self, monkeypatch, cold_caches):
        # at c = 1 the transforms, the isometry check and the Gram of
        # phi_0 .. phi_5 all read the one layout, which ends at
        # state_end(20) = 80
        osc = OscParams(1.0)

        def f(xi):
            return xi ** 2 * np.exp(-xi) * (1.0 + 0.5j)

        prefactors = counting(monkeypatch, oscillator, "conj_state_prefactor")
        relativistic_transform(ModelParams(osc, 1), f, 0.2 - 0.3j)
        relativistic_transform_m0(osc, f, 0.1j)
        isometry_check(ModelParams(osc, 0), f)
        oscillator.oscillator_gram(osc, 5)
        info = oscillator.xi_layout.cache_info()
        assert (info.currsize, info.misses) == (1, 1)
        xi_layout(osc, 80.0)
        assert oscillator.xi_layout.cache_info().misses == 1
        assert len(prefactors) == 1

    @pytest.mark.parametrize("c", [0.6, 1.0, 2.0, 8.0])
    @pytest.mark.parametrize("m", [0, 1, 2])
    def test_isometry_has_the_bits_of_an_uncached_check(self, c, m,
                                                        cold_caches):
        params = ModelParams(OscParams(c), m)
        f = mode_mix(params.osc, TestIsometryRings.MIX)
        want = {k: v.hex() for k, v in uncached_isometry(params, f).items()}
        for _ in ("cold", "warm"):
            got = isometry_check(params, f)
            assert {k: v.hex() for k, v in got.items()} == want

    @pytest.mark.parametrize("c", [0.6, 1.0, 2.0])
    @pytest.mark.parametrize("f", ["sampled", "scattered"])
    def test_m0_has_the_bits_of_an_uncached_kernel(self, c, f, cold_caches):
        # the m = 0 call projects f on the cached layout, cold at the first
        # point and warm at the last, which repeats it; the reference
        # builds the kernel afresh at every node
        osc = OscParams(c)
        if f == "sampled":
            func = sampled_modes(osc, np.linspace(2.0, 25.0, 231))
        else:
            func = scattered_mode(osc)
        got = [relativistic_transform_m0(osc, func, z, with_error=True)
               for z in (0.3 + 0.2j, -0.5 + 0.4j, 0.3 + 0.2j)]
        assert bits(*got[0]) == bits(*got[2])
        for z, value in zip((0.3 + 0.2j, -0.5 + 0.4j), got):
            assert_kernel_route(value, every_node_transform(
                ModelParams(osc, 0), func, z))

    def test_second_isometry_check_builds_nothing(self, monkeypatch,
                                                  cold_caches):
        # an f that calls neither function itself
        def f(xi):
            return xi ** 2 * np.exp(-xi) * (1.0 + 0.5j)

        prefactors = counting(monkeypatch, oscillator, "conj_state_prefactor")
        batches = counting(monkeypatch, disk, "basis_phi_batch")
        params = ModelParams(OscParams(1.0), 1)
        first = isometry_check(params, f)
        assert len(prefactors) == 1 and len(batches) == 1
        assert isometry_check(params, f) == first
        assert len(prefactors) == 1 and len(batches) == 1
        # another level at the same c needs a Gram, not a layout
        isometry_check(ModelParams(OscParams(1.0), 0), f)
        assert len(prefactors) == 1 and len(batches) == 2

    def test_public_gram_is_fresh_and_writable(self):
        params = ModelParams(OscParams(1.0), 0)
        f = mode_mix(params.osc, TestIsometryRings.MIX)
        first = isometry_check(params, f)
        gram = basis_gram(params.landau_index(), bargmann._ISOMETRY_KMAX)
        assert gram.flags.writeable
        assert gram is not bargmann._isometry_gram(params.landau_index())
        gram[1, 1] = 2.0
        assert isometry_check(params, f) == first

    def test_cold_caches_clears_every_package_cache(self, cold_caches):
        osc = OscParams(1.0)
        isometry_check(ModelParams(osc, 0), oscillator_mode(0, osc))
        relativistic_transform_m0(osc, oscillator_mode(0, osc), 0.1)
        basis_phi(2, ModelParams(osc, 0).landau_index(), 0.1)
        cli.main(["spectrum", "--c", "1", "--kmax", "1", "--m", "0"])
        caches = [oscillator.xi_layout, bargmann._isometry_gram,
                  disk._basis_block, cli._shared_parser]
        assert all(cache.cache_info().currsize for cache in caches)
        cold_caches()
        assert not any(cache.cache_info().currsize for cache in caches)


def recording(f):
    """``(g, seen)``: f, and the list of the xi arrays g was called with."""
    seen = []

    def g(xi):
        seen.append(np.array(xi))
        return f(xi)

    return g, seen


def isometry_columns(osc):
    """The flat nodes of the layout of ``isometry_check``."""
    return xi_layout(osc, state_end(20, osc))[0]


def hex_report(report):
    return {k: v.hex() for k, v in report.items()}


class TestIsometryWalk:
    """``isometry_check`` evaluates f in blocks of panels from xi = 0 and
    stops after two quiet panels, with the bits of the full layout."""

    @pytest.mark.parametrize("c, panels", [(0.6, 60), (1.0, 46), (2.0, 23)])
    @pytest.mark.parametrize("m", [0, 1, 2])
    def test_superposition_stops_near_forty(self, c, panels, m):
        # phi_0 .. phi_2 have no mass left past xi = 46, so the walk stops
        # after the first block of 4 panels past xi = 40 (2.2 wide at c = 2);
        # the layout ends at 80
        params = ModelParams(OscParams(c), m)
        f = mode_mix(params.osc, TestIsometryRings.MIX)
        g, seen = recording(f)
        got = isometry_check(params, g)
        xi = isometry_columns(params.osc)
        rows = len(_KRONROD_RULE[0])
        assert np.concatenate(seen).tobytes() == xi[:rows * panels].tobytes()
        assert rows * panels < xi.size and xi[rows * panels - 1] < 50.0
        assert hex_report(got) == hex_report(uncached_isometry(params, f))

    def test_empty_prefix_is_not_quiet(self):
        params = ModelParams(OscParams(1.0), 0)

        def f(xi):
            return np.where(xi > XI_LENGTH, np.exp(-(xi - 60.0) ** 2), 0.0)

        g, seen = recording(f)
        got = isometry_check(params, g)
        assert np.concatenate(seen).max() > 65.0
        assert got["norm_f_sq"] > 1.0
        assert hex_report(got) == hex_report(uncached_isometry(params, f))

    @pytest.mark.parametrize("case", ["c8-ground", "phi0-phi21"])
    def test_long_states_walk_past_forty(self, case):
        if case == "c8-ground":
            params = ModelParams(OscParams(8.0), 1)
            f = oscillator_mode(0, params.osc)
        else:
            params = ModelParams(OscParams(1.0), 0)
            f = mode_mix(params.osc, [1.0 / math.sqrt(2.0)] + [0.0] * 20
                         + [1.0 / math.sqrt(2.0)])
        g, seen = recording(f)
        got = isometry_check(params, g)
        assert np.concatenate(seen).max() > 50.0
        assert hex_report(got) == hex_report(uncached_isometry(params, f))

    @pytest.mark.parametrize("c", [0.6, 1.0, 2.0, 8.0, 20.0])
    def test_calls_are_bounded(self, c):
        # an f that is never quiet is evaluated once on every node, in at
        # most 1 + log2(panels) calls
        params = ModelParams(OscParams(c), 0)
        g, seen = recording(lambda xi: np.exp(-xi / 200.0))
        with pytest.raises(NonConvergenceError):
            isometry_check(params, g)
        xi = isometry_columns(params.osc)
        assert np.concatenate(seen).tobytes() == xi.tobytes()
        assert len(seen) <= 1 + math.ceil(math.log2(xi.size // 21))

    def test_past_the_quiet_panels_f_is_not_read(self):
        # a NaN past the stop is never seen, by the transforms either
        params = ModelParams(OscParams(1.0), 0)
        phi0 = oscillator_mode(0, params.osc)

        def f(xi):
            return np.where(xi > 60.0, np.nan, phi0(xi))

        assert isometry_check(params, f) == isometry_check(params, phi0)
