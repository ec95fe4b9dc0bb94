"""Coherent states: normalization, overlap, distance, and wave functions."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from relbargmann.bargmann import relativistic_transform
from relbargmann.coherent import (K_CAP, TAIL_LEVEL, CoherentLabel,
                                  cs_distance, cs_wavefunction,
                                  cs_wavefunction_oracle, normalization,
                                  overlap, overlap_series, transform_kernel,
                                  transform_kernel_series, truncation_order)
from relbargmann.disk import LandauIndex, basis_phi_batch, basis_radial_profiles
from relbargmann.errors import DomainError, NonConvergenceError
from relbargmann.oscillator import (ModelParams, OscParams, eigenfunction,
                                    eigenfunction_batch)


class TestNormalization:
    def test_at_origin(self):
        idx = LandauIndex(7.5, 1)
        assert abs(normalization(idx, 0.0) - (7.5 - 3.0) / math.pi) < 1e-15

    def test_spot_value(self):
        idx = LandauIndex(4.0, 0)
        z = math.sqrt(0.5)
        assert abs(normalization(idx, z) - 48.0 / math.pi) < 1e-12

    def test_phase_independence(self):
        idx = LandauIndex(6.0, 1)
        vals = [normalization(idx, 0.4 * np.exp(1j * t)) for t in (0.0, 1.1, -2.3)]
        assert max(vals) - min(vals) < 1e-14


class TestOverlap:
    def test_self_overlap_is_one(self):
        for sigma, m in ((5.0, 0), (7.5, 1), (9.0, 2)):
            idx = LandauIndex(sigma, m)
            for z in (0.0, 0.3 + 0.1j, -0.55j):
                assert abs(overlap(idx, z, z) - 1.0) < 1e-13

    def test_analytic_level_closed_form(self):
        sigma = 5.0
        idx = LandauIndex(sigma, 0)
        z, w = 0.3 + 0.1j, -0.2 + 0.25j
        want = (((1.0 - abs(z) ** 2) * (1.0 - abs(w) ** 2)) ** (sigma / 2.0)
                / (1.0 - z * np.conj(w)) ** sigma)
        assert abs(overlap(idx, z, w) - want) < 1e-14

    def test_against_series(self):
        idx = LandauIndex(7.5, 2)
        z, w = 0.3 + 0.1j, -0.2 + 0.25j
        got = overlap(idx, z, w)
        want = overlap_series(idx, z, w)
        assert abs(got - want) < 1e-8

    def test_against_series_near_the_rim(self):
        # a fixed 160 terms missed the closed form by 1.2e-8 here
        idx = LandauIndex(5.0, 0)
        assert abs(overlap(idx, 0.95, 0.9j)
                   - overlap_series(idx, 0.95, 0.9j)) < 1e-14

    @settings(max_examples=50, deadline=None)
    @given(st.floats(-0.49, 0.49), st.floats(-0.49, 0.49),
           st.floats(-0.49, 0.49), st.floats(-0.49, 0.49))
    def test_hermitian_and_bounded(self, a, b, c, d):
        idx = LandauIndex(7.5, 1)
        z, w = complex(a, b), complex(c, d)
        zw = overlap(idx, z, w)
        wz = overlap(idx, w, z)
        assert abs(zw - np.conj(wz)) < 1e-12
        assert abs(zw) <= 1.0 + 1e-12

    def test_modulus_one_only_on_diagonal(self):
        idx = LandauIndex(5.0, 0)
        assert abs(overlap(idx, 0.2, 0.201)) < 1.0


@pytest.mark.parametrize("bad", [complex(math.nan, 0.0),
                                 np.array([0.1, complex(0.2, math.nan)])])
def test_nan_label_rejected(bad):
    # NaN fails |z| < 1 like a point outside the disk, as a scalar and
    # inside an array
    idx = LandauIndex(5.0, 0)
    params = ModelParams(OscParams(1.0), 1)
    calls = (lambda: overlap(idx, bad, 0.1), lambda: overlap(idx, 0.1, bad),
             lambda: normalization(idx, bad),
             lambda: transform_kernel(params, bad, 1.0),
             lambda: relativistic_transform(params, lambda x: np.exp(-x), bad))
    for call in calls:
        with pytest.raises(DomainError):
            call()


class TestDistance:
    def test_zero_on_diagonal(self):
        idx = LandauIndex(7.5, 1)
        assert cs_distance(idx, 0.3 + 0.1j, 0.3 + 0.1j) == 0.0

    def test_label_continuity(self):
        idx = LandauIndex(7.5, 1)
        assert cs_distance(idx, 0.3, 0.3 + 1e-4) < 1e-3

    def test_diameter_bound(self):
        idx = LandauIndex(9.0, 2)
        rng = np.random.default_rng(3)
        for _ in range(25):
            z, w = (complex(*p) for p in rng.uniform(-0.6, 0.6, (2, 2)))
            assert cs_distance(idx, z, w) ** 2 <= 4.0 + 1e-12


class TestWaveFunction:
    def test_closed_form_vs_oracle_m0(self):
        params = ModelParams(OscParams(1.0), 0)
        label = CoherentLabel(0.25, params)
        for xi in (0.5, 1.0, 2.0):
            closed = cs_wavefunction(label, xi)
            oracle = cs_wavefunction_oracle(label, xi)
            assert abs(closed - oracle) < 1e-6

    def test_closed_form_vs_oracle_m1(self):
        params = ModelParams(OscParams(1.0), 1)
        label = CoherentLabel(0.2 + 0.15j, params)
        closed = cs_wavefunction(label, 0.8)
        oracle = cs_wavefunction_oracle(label, 0.8)
        assert abs(closed - oracle) < 1e-6

    def test_boundary_zero(self):
        params = ModelParams(OscParams(1.0), 1)
        assert cs_wavefunction(CoherentLabel(0.2, params), 0.0) == 0.0

    def test_cap_enforced(self):
        params = ModelParams(OscParams(1.0), 0)
        with pytest.raises(DomainError):
            cs_wavefunction(CoherentLabel(0.86, params), 1.0)
        with pytest.raises(DomainError):
            cs_wavefunction(CoherentLabel(0.82 + 0.05j, params), 1.0)

    def test_label_validation(self):
        with pytest.raises(DomainError):
            CoherentLabel(1.01, ModelParams(OscParams(1.0), 0))


class TestOracle:
    def test_origin_truncates_exactly(self):
        # at z = 0 and m = 0 only the k = 0 coefficient survives
        params = ModelParams(OscParams(1.0), 0)
        label = CoherentLabel(0.0, params)
        for xi in (0.3, 1.2):
            got = cs_wavefunction_oracle(label, xi)
            want = eigenfunction(0, params.osc, xi)
            assert abs(got - want) < 1e-15

    def test_truncation_stability(self):
        # the terms past the cut move the normalized sum by less than ten
        # times the tail level; at (3, 4) a cut in |z| alone moved it by 6e-8
        xi = np.array([0.5, 2.0, 5.0])
        for c, m, z in ((1.0, 1, 0.6j), (3.0, 4, -0.85j)):
            params = ModelParams(OscParams(c), m)
            idx = params.landau_index()
            kmax = 3 * truncation_order(idx, z)
            longer = (np.conj(basis_phi_batch(kmax, idx, z))
                      @ eigenfunction_batch(kmax, params.osc, xi)
                      / math.sqrt(normalization(idx, z)))
            got = cs_wavefunction_oracle(CoherentLabel(z, params), xi)
            assert np.max(np.abs(got - longer)) < 10.0 * TAIL_LEVEL

    def test_tail_guard(self):
        # near the rim the rule raises rather than cut a tail it cannot reach
        params = ModelParams(OscParams(1.0), 2)
        label = CoherentLabel(0.999, params)
        calls = (lambda: cs_wavefunction_oracle(label, 1.0),
                 lambda: transform_kernel_series(params, 0.999, 1.0),
                 lambda: overlap_series(params.landau_index(), 0.1, 0.999))
        for call in calls:
            with pytest.raises(NonConvergenceError, match=str(K_CAP)):
                call()

    def test_vectorised_xi(self):
        params = ModelParams(OscParams(1.0), 0)
        label = CoherentLabel(0.2, params)
        xi = np.array([0.0, 0.7, 1.9])
        vals = cs_wavefunction_oracle(label, xi)
        assert vals.shape == (3,)
        assert vals[0] == 0.0


class TestTransformKernel:
    def test_closed_equals_series(self):
        for m in (0, 1):
            params = ModelParams(OscParams(1.0), m)
            xi = np.array([0.4, 1.3, 3.2])
            for z in (0.25 + 0.1j, -0.4 - 0.3j):
                a = transform_kernel(params, z, xi)
                b = transform_kernel_series(params, z, xi)
                assert np.max(np.abs(a - b)) < 1e-12

    def test_series_bits_do_not_depend_on_the_other_nodes(self):
        # the transforms sum this kernel on the nodes where f is non-zero,
        # bit for bit as on every node; einsum with a contiguous coefficient
        # vector would sum a lone node in another order
        params = ModelParams(OscParams(1.0), 2)
        xi = np.array([0.4, 1.3, 3.2, 7.5])
        z = 0.3 - 0.45j
        full = transform_kernel_series(params, z, xi)
        for i, x in enumerate(xi.tolist()):
            assert transform_kernel_series(params, z, x) == full[i]
        assert np.array_equal(transform_kernel_series(params, z, xi[1:3]),
                              full[1:3])

    def test_kernel_is_conjugate_of_state(self):
        params = ModelParams(OscParams(1.0), 1)
        z = 0.2 - 0.3j
        xi = 1.1
        kern = transform_kernel(params, z, xi)
        state = cs_wavefunction(CoherentLabel(z, params), xi)
        n = normalization(params.landau_index(), z)
        assert abs(kern - math.sqrt(n) * np.conj(state)) < 1e-14

    def test_cap_enforced(self):
        params = ModelParams(OscParams(1.0), 2)
        for z in (0.86, 0.85, 0.84 + 0.01j):
            with pytest.raises(DomainError):
                transform_kernel(params, z, 20.0)


class TestTruncationOrder:
    @pytest.mark.parametrize("c", [0.6, 1.0, 3.0])
    @pytest.mark.parametrize("m", [0, 2, 4])
    @pytest.mark.parametrize("rho", [0.3, 0.6, 0.85])
    def test_smallest_order_meeting_the_level(self, c, m, rho):
        # K meets sum_{k>K} |Phi_k|^2 <= TAIL_LEVEL^2 N and K - 1 does not,
        # with the tail summed, smallest term first, over 4K + 64 terms
        idx = ModelParams(OscParams(c), m).landau_index()
        z = rho * np.exp(0.9j)
        order = truncation_order(idx, z)
        r = rho ** 2
        g = basis_radial_profiles(4 * order + 64, idx, r)[:, 0]
        tails = (np.cumsum((g * g)[::-1])[::-1]
                 / (1.0 - r) ** (2 * m) / normalization(idx, z))
        assert tails[order + 1] <= TAIL_LEVEL ** 2 < tails[order]

    def test_grows_with_the_level(self):
        # (3, 4) at |z| = 0.85 needs 405 terms, (1, 0) at 0.3 only 30; a rule
        # in |z| alone took 232 and 60
        big = ModelParams(OscParams(3.0), 4).landau_index()
        small = ModelParams(OscParams(1.0), 0).landau_index()
        assert truncation_order(big, 0.85) == 405
        assert truncation_order(small, 0.3) == 30

    def test_origin(self):
        # at z = 0 only Phi_m is non-zero
        for m in (0, 1, 2):
            idx = LandauIndex(9.0, m)
            assert truncation_order(idx, 0.0) == m

    def test_oracles_take_no_budget(self):
        params = ModelParams(OscParams(1.0), 0)
        label = CoherentLabel(0.2, params)
        calls = (lambda: cs_wavefunction_oracle(label, 1.0, 160),
                 lambda: cs_wavefunction_oracle(label, 1.0, tol=1e-8),
                 lambda: transform_kernel_series(params, 0.2, 1.0, 160),
                 lambda: overlap_series(params.landau_index(), 0.2, 0.1, 120))
        for call in calls:
            with pytest.raises(TypeError):
                call()

    @pytest.mark.parametrize("c, rho", [(8.0, 0.85), (12.0, 0.85), (12.0, 0.5)])
    def test_bulk_past_the_first_block(self, c, rho):
        # at large sigma the terms peak past the first 128 (at k ~ 540 for
        # c = 12, |z| = 0.85): all 128 under the level once gave K = 0
        idx = ModelParams(OscParams(c), 1).landau_index()
        z = rho * np.exp(0.4j)
        order = truncation_order(idx, z)
        r = rho ** 2
        g = basis_radial_profiles(4 * order + 64, idx, r)[:, 0]
        total = normalization(idx, z) * (1.0 - r) ** 2
        tails = np.cumsum((g * g)[::-1])[::-1] / total
        assert abs(tails[0] - 1.0) < 1e-12
        assert tails[order + 1] <= TAIL_LEVEL ** 2 < tails[order]

    def test_overflowing_normalization_raises(self):
        # c = 20: sigma = 568.7, and N(0.85) = 565.7 / (pi 0.2775^568.7) overflows
        idx = ModelParams(OscParams(20.0), 1).landau_index()
        with pytest.raises(NonConvergenceError, match="overflows"):
            truncation_order(idx, 0.85j)
        assert truncation_order(idx, 0.5j) > 128

    def test_cap_raises(self):
        idx = ModelParams(OscParams(1.0), 2).landau_index()
        with pytest.raises(NonConvergenceError):
            truncation_order(idx, 0.999)
        assert truncation_order(idx, 0.98) <= K_CAP


@pytest.mark.parametrize("xi", [math.nan, math.inf, np.array([1.0, math.nan])])
def test_non_finite_xi_rejected(xi):
    # NaN fails xi > 0 and once read as the boundary value 0
    params = ModelParams(OscParams(1.0), 1)
    label = CoherentLabel(0.3 + 0.1j, params)
    calls = (lambda: transform_kernel(params, label.z, xi),
             lambda: cs_wavefunction(label, xi),
             lambda: transform_kernel_series(params, label.z, xi),
             lambda: cs_wavefunction_oracle(label, xi),
             lambda: eigenfunction(2, params.osc, xi))
    for call in calls:
        with pytest.raises(DomainError, match="finite xi"):
            call()


def test_finite_overflow_is_non_convergence():
    params = ModelParams(OscParams(1.0), 1)
    label = CoherentLabel(0.3 + 0.1j, params)
    calls = (lambda: transform_kernel(params, label.z, 1e300),
             lambda: cs_wavefunction(label, 1e300),
             lambda: transform_kernel_series(params, label.z, 1e300),
             lambda: cs_wavefunction_oracle(label, 1e300),
             lambda: eigenfunction(2, params.osc, 1e300))
    for call in calls:
        with pytest.raises(NonConvergenceError):
            call()
