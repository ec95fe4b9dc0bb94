"""Coherent states: normalization, overlap, distance, and wave functions."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from relbargmann.bargmann import relativistic_transform
from relbargmann.coherent import (CoherentLabel, cs_distance, cs_wavefunction,
                                  cs_wavefunction_oracle, normalization,
                                  overlap, overlap_series, transform_kernel,
                                  transform_kernel_series)
from relbargmann.disk import LandauIndex
from relbargmann.errors import DomainError, NonConvergenceError
from relbargmann.oscillator import ModelParams, OscParams, eigenfunction


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
        want = overlap_series(idx, z, w, kmax=120)
        assert abs(got - want) < 1e-8

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
            oracle = cs_wavefunction_oracle(label, xi, kmax=160)
            assert abs(closed - oracle) < 1e-6

    def test_closed_form_vs_oracle_m1(self):
        params = ModelParams(OscParams(1.0), 1)
        label = CoherentLabel(0.2 + 0.15j, params)
        closed = cs_wavefunction(label, 0.8)
        oracle = cs_wavefunction_oracle(label, 0.8, kmax=160)
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
            got = cs_wavefunction_oracle(label, xi, kmax=0)
            want = eigenfunction(0, params.osc, xi)
            assert abs(got - want) < 1e-15

    def test_truncation_stability(self):
        params = ModelParams(OscParams(1.0), 1)
        label = CoherentLabel(0.25j, params)
        a = cs_wavefunction_oracle(label, 1.0, kmax=80)
        b = cs_wavefunction_oracle(label, 1.0, kmax=160)
        assert abs(a - b) < 1e-9

    def test_tail_guard(self):
        params = ModelParams(OscParams(1.0), 0)
        label = CoherentLabel(0.8, params)
        with pytest.raises(NonConvergenceError):
            cs_wavefunction_oracle(label, 1.0, kmax=5, tol=1e-10)

    def test_vectorised_xi(self):
        params = ModelParams(OscParams(1.0), 0)
        label = CoherentLabel(0.2, params)
        xi = np.array([0.0, 0.7, 1.9])
        vals = cs_wavefunction_oracle(label, xi, kmax=120)
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
