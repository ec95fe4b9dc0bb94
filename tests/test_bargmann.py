"""Transforms: classical baseline, relativistic kernel, reductions, isometry."""

import math
import time
import tracemalloc

import numpy as np
import pytest
from numpy.polynomial.legendre import leggauss
from scipy.special import gammaln

from relbargmann import bargmann
from relbargmann.bargmann import (SampledFunction, TransformResult,
                                  classical_bargmann, isometry_check,
                                  oscillator_mode, relativistic_transform,
                                  relativistic_transform_grid,
                                  relativistic_transform_m0, xi_cutoff)
from relbargmann.coherent import (CoherentLabel, cs_wavefunction_oracle,
                                  normalization, transform_kernel)
from relbargmann.disk import basis_phi, wirtinger_dzbar_fd
from relbargmann.errors import DomainError, InputFormatError, RelBargmannError
from relbargmann.orthopoly import laguerre_l
from relbargmann.oscillator import ModelParams, OscParams
from relbargmann.quadrature import integrate_halfline


def laguerre_mode(k: int, sigma: float):
    """L^2-normalised Laguerre eigenmode of the classical kernel's system."""

    def f(x):
        x = np.asarray(x, dtype=float)
        return (math.exp(0.5 * (gammaln(k + 1) - gammaln(sigma + k)))
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
        want = math.exp(0.5 * (math.log(sigma - 1.0) + gammaln(sigma + k)
                               - math.log(math.pi) - gammaln(sigma)
                               - gammaln(k + 1.0)))
        assert abs(vals[0] - want) < 1e-9 * want

    def test_sigma_validation(self):
        with pytest.raises(DomainError):
            classical_bargmann(1.0, lambda x: np.exp(-x), 0.2)


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
        # independent route avoiding the closed-form kernel entirely
        params = ModelParams(OscParams(1.0), 1)
        z = -0.2 + 0.2j
        f = oscillator_mode(2, params.osc)
        got = relativistic_transform(params, f, z)
        label = CoherentLabel(z, params)
        root_n = math.sqrt(normalization(params.landau_index(), z))

        def integrand(xi):
            return (np.asarray(f(xi))
                    * np.conj(cs_wavefunction_oracle(label, xi, kmax=200)))

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

    def test_caps(self):
        params = ModelParams(OscParams(1.0), 0)
        f = oscillator_mode(0, params.osc)
        with pytest.raises(DomainError):
            relativistic_transform(params, f, 0.86)
        with pytest.raises(DomainError):
            relativistic_transform(params, f, 0.84 + 0.01j)

    def test_grid_result(self):
        params = ModelParams(OscParams(1.0), 0)
        pts = [0.1, 0.2j, -0.15 - 0.1j]
        res = relativistic_transform_grid(params, oscillator_mode(0, params.osc),
                                          pts, tol=1e-8)
        assert isinstance(res, TransformResult)
        assert len(res.values) == 3
        assert res.quadrature_error < 1e-8
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
        B = lambda w: relativistic_transform(params, f, w, tol=1e-10)
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


def panel_walk_transform(params, f, z):
    """Reference: the xi layout walked one panel at a time, with one kernel
    call for the 16-point and one for the 32-point rule of every panel."""
    width = max(params.gamma / math.pi, 0.25)
    length = xi_cutoff(params.osc.c)
    coarse, fine = leggauss(16), leggauss(32)
    total, err_total, lo = 0.0 + 0.0j, 0.0, 0.0
    for _ in range(math.ceil(length / width)):
        hi = min(lo + width, length)
        mid, half = 0.5 * (hi + lo), 0.5 * (hi - lo)
        vc, vf = (half * np.sum(w * (f(mid + half * x)
                                     * transform_kernel(params, z, mid + half * x)))
                  for x, w in (coarse, fine))
        total += vf
        err_total += abs(vf - vc)
        lo = hi
    return total, err_total


class TestFixedLayout:
    @pytest.mark.parametrize("c", [0.6, 1.0, 2.0])
    @pytest.mark.parametrize("m", [0, 1, 2])
    def test_matches_panel_walk(self, c, m):
        params = ModelParams(OscParams(c), m)
        f = oscillator_mode(1, params.osc)
        for z in (0.3 + 0.2j, -0.5 + 0.4j):
            got, got_err = relativistic_transform(params, f, z, with_error=True)
            want, want_err = panel_walk_transform(params, f, z)
            assert abs(got - want) <= 1e-12 * abs(want)
            assert abs(got_err - want_err) <= 1e-12 * want_err

    def test_block_size_does_not_change_result(self, monkeypatch):
        params = ModelParams(OscParams(1.0), 1)
        f = oscillator_mode(2, params.osc)
        whole = relativistic_transform(params, f, 0.2 - 0.3j, with_error=True)
        # 7 panels a block: 14 blocks, the last one short
        monkeypatch.setattr(bargmann, "LAYOUT_BLOCK_NODES", 7 * 48)
        assert relativistic_transform(params, f, 0.2 - 0.3j,
                                      with_error=True) == whole

    @pytest.mark.parametrize("m", [0, 2])
    def test_two_blocks_keep_basis_mapping(self, m):
        # c = 0.45: 612 panels, 29376 nodes
        params = ModelParams(OscParams(0.45), m)
        z = 0.3 + 0.4j
        got = relativistic_transform(params, oscillator_mode(1, params.osc), z)
        assert abs(got - basis_phi(1, params.landau_index(), z)) < 1e-6

    def test_long_layout_memory_is_bounded(self):
        # c = 0.37: 21663 panels, 1.04 M nodes in 64 blocks; the series
        # overflows at large xi there, so a typed error is allowed
        params = ModelParams(OscParams(0.37), 0)
        z = 0.3 + 0.4j
        f = oscillator_mode(1, params.osc)
        tracemalloc.start()
        start = time.perf_counter()
        try:
            got = relativistic_transform(params, f, z)
        except RelBargmannError:
            got = None
        finally:
            elapsed = time.perf_counter() - start
            peak = tracemalloc.get_traced_memory()[1]
            tracemalloc.stop()
        assert elapsed < 10.0
        assert peak < 32 * 2 ** 20
        if got is not None:
            assert abs(got - basis_phi(1, params.landau_index(), z)) < 1e-6


class TestM0Reduction:
    def test_matches_full_kernel(self):
        osc = OscParams(1.0)
        params = ModelParams(osc, 0)
        f = oscillator_mode(1, osc)
        for z in (0.25, 0.3 + 0.2j, -0.4 + 0.1j):
            full = relativistic_transform(params, f, z)
            reduced = relativistic_transform_m0(osc, f, z)
            assert abs(full - reduced) < 1e-8

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


def point_loop_isometry(params, f, budget=None):
    """Reference: the polar grid summed point by point, with B at every one
    of the n_radial * n_angular points from a full basis stack and the
    projections from complex state tables.  Returns (norm_Bf_sq, annulus_sq).
    """
    from relbargmann.coherent import series_kmax_for
    from relbargmann.disk import basis_phi_batch
    from relbargmann.oscillator import eigenfunction_batch

    budget = budget or {}
    n_radial = int(budget.get("n_radial", 20))
    n_angular = int(budget.get("n_angular", 36))
    kmax = int(budget.get("kmax", 8))
    r_split = float(budget.get("r_split", 0.995)) ** 2
    xi_len = float(budget.get("xi_length", 16.0))
    width = max(params.gamma / math.pi, 0.25)
    n_panels = int(math.ceil(xi_len / width))
    xg, wg = leggauss(32)
    mids = width * (np.arange(n_panels) + 0.5)
    xi_nodes = (mids[:, None] + 0.5 * width * xg[None, :]).ravel()
    weighted_f = np.tile(0.5 * width * wg, n_panels) * np.asarray(f(xi_nodes))
    series_k = series_kmax_for(math.sqrt(r_split))
    projections = (np.conj(eigenfunction_batch(series_k, params.osc, xi_nodes))
                   @ weighted_f)
    idx = params.landau_index()
    xr, wr = leggauss(n_radial)
    tau_max = -math.log(1.0 - r_split)
    inner_sq = 0.0
    for tv, wv in zip(0.5 * tau_max * (xr + 1.0), 0.5 * tau_max * wr):
        rv = 1.0 - math.exp(-tv)
        ring_sq = 0.0
        for phi in np.arange(n_angular) * (2.0 * np.pi / n_angular):
            z = math.sqrt(rv) * complex(math.cos(phi), math.sin(phi))
            ring_sq += abs(basis_phi_batch(series_k, idx, z) @ projections) ** 2
        inner_sq += (0.5 * wv * math.exp(-(params.sigma - 1.0) * tv)
                     * (ring_sq / n_angular) * 2.0 * np.pi)
    coeffs = np.conj(eigenfunction_batch(kmax, params.osc, xi_nodes)) @ weighted_f
    masses = bargmann._annulus_basis_masses(params, kmax, r_split)
    annulus_sq = float(np.sum(np.abs(coeffs) ** 2 * masses))
    return inner_sq + annulus_sq, annulus_sq


def mode_mix(osc, weights):
    modes = [oscillator_mode(j, osc) for j in range(len(weights))]

    def f(xi):
        return sum(w * g(xi) for w, g in zip(weights, modes))

    return f


class TestIsometryRings:
    MIX = (0.5, 0.6 - 0.3j, 0.2 + 0.5j)

    def assert_matches_point_loop(self, params, f, budget=None):
        rep = isometry_check(params, f, budget)
        want_norm, want_annulus = point_loop_isometry(params, f, budget)
        assert abs(rep["norm_Bf_sq"] - want_norm) <= 1e-12 * want_norm
        assert abs(rep["annulus_sq"] - want_annulus) <= 1e-12 * want_annulus
        return rep

    @pytest.mark.parametrize("c", [0.6, 1.0, 2.0])
    @pytest.mark.parametrize("m", [0, 1, 2])
    def test_matches_point_loop(self, c, m):
        params = ModelParams(OscParams(c), m)
        self.assert_matches_point_loop(params, mode_mix(params.osc, self.MIX))

    def test_odd_angle_count(self):
        params = ModelParams(OscParams(1.0), 1)
        self.assert_matches_point_loop(params, mode_mix(params.osc, self.MIX),
                                       {"n_angular": 35})

    @pytest.mark.parametrize("m", [0, 2])
    def test_annulus_modes_past_series_order(self, m):
        # r_split^2 = 0.2 gives series_k = 60 < kmax
        params = ModelParams(OscParams(1.0), m)
        self.assert_matches_point_loop(
            params, mode_mix(params.osc, self.MIX),
            {"n_angular": 128, "kmax": 80, "r_split": math.sqrt(0.2)})

    def test_angular_aliasing_is_kept(self):
        # phi_0 and phi_8 share a residue mod 8, so the 8-angle rule adds
        # their cross term; a per-mode Parseval sum would give 0.76502
        params = ModelParams(OscParams(2.0), 0)
        f = mode_mix(params.osc, [1.0 / math.sqrt(2.0)] + [0.0] * 7
                     + [1.0 / math.sqrt(2.0)])
        rep = self.assert_matches_point_loop(params, f, {"n_angular": 8})
        assert abs(rep["norm_Bf_sq"] - 0.91358) < 1e-5

    @pytest.mark.parametrize("c, m", [(0.6, 2), (1.0, 1)])
    def test_memory_is_bounded(self, c, m):
        params = ModelParams(OscParams(c), m)
        f = mode_mix(params.osc, self.MIX)
        isometry_check(params, f)  # fill the coefficient caches
        tracemalloc.start()
        try:
            isometry_check(params, f)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 128 * 2 ** 20

    @pytest.mark.parametrize("budget", [
        {"r_split": 1.0}, {"r_split": 1.5}, {"r_split": 0.0},
        {"r_split": float("nan")}, {"n_angular": 0}, {"n_angular": -3},
        {"n_angular": 2.5}, {"n_radial": 0}, {"n_radial": 5000},
        {"kmax": -1}, {"kmax": "eight"}, {"xi_length": float("nan")},
        {"xi_length": 0.0}, {"tol": 0.0}, {"tol": float("inf")},
        {"n_angle": 36}])
    def test_bad_budget_raises_domain_error(self, budget):
        osc = OscParams(1.0)
        with pytest.raises(DomainError):
            isometry_check(ModelParams(osc, 0), oscillator_mode(0, osc), budget)
