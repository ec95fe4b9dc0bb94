"""Oscillator parameterization, spectrum, and eigenfunctions."""

import math

import numpy as np
import pytest

from relbargmann.errors import DomainError
from relbargmann.hypergeom import ln_gamma
from relbargmann.oscillator import (ModelParams, OscParams, eigenfunction,
                                    eigenfunction_batch, energy, gamma_of_c,
                                    oscillator_gram, project_states)

# 2 |Gamma(g+i)|^4 / (|Gamma(i)|^2 Gamma(g+1/2)^2 Gamma(2g)) at g = (1+sqrt 3)/2
PHI0_SQ_AT_1 = 0.49802777027855049088


class TestParameterization:
    def test_gamma_values(self):
        assert abs(gamma_of_c(1.0) - 0.5 * (1.0 + math.sqrt(3.0))) < 1e-15
        assert abs(gamma_of_c(math.sqrt(2.0)) - 2.0) < 1e-14

    def test_gamma_infimum(self):
        # gamma decreases to 1 from above as c -> 0+
        assert 1.0 < gamma_of_c(0.01) < 1.0 + 1e-8
        assert gamma_of_c(0.01) < gamma_of_c(0.1) < gamma_of_c(1.0)

    def test_validation(self):
        with pytest.raises(DomainError):
            gamma_of_c(0.0)
        with pytest.raises(DomainError):
            OscParams(-1.0)

    def test_gamma_is_derived(self):
        osc = OscParams(1.3)
        assert osc.gamma == gamma_of_c(1.3)

    def test_model_params_sigma(self):
        params = ModelParams(OscParams(1.0), 2)
        assert abs(params.sigma - 2.0 * (gamma_of_c(1.0) + 2.0)) < 1e-15
        idx = params.landau_index()
        assert idx.m == 2
        # m <= floor((sigma-1)/2) holds automatically since sigma - 2m > 2
        assert idx.sigma - 2 * idx.m > 2.0


class TestSpectrum:
    def test_ground_level(self):
        assert abs(energy(0, OscParams(math.sqrt(2.0))) - 4.0) < 1e-13

    def test_equal_spacing(self):
        osc = OscParams(0.9)
        for k in range(6):
            assert abs(energy(k + 1, osc) - energy(k, osc) - 2.0) < 1e-13

    def test_k3_at_c1(self):
        assert abs(energy(3, OscParams(1.0)) - (6.0 + 1.0 + math.sqrt(3.0))) < 1e-13


class TestEigenfunctions:
    def test_boundary_zero(self):
        osc = OscParams(1.0)
        for k in (0, 1, 4):
            assert eigenfunction(k, osc, 0.0) == 0.0

    def test_modulus_formula_ground_state(self):
        g = gamma_of_c(1.0)
        val = eigenfunction(0, OscParams(1.0), 1.0)
        want = 2.0 * math.exp(
            2.0 * (ln_gamma(g + 1j) + ln_gamma(g - 1j)).real
            - (ln_gamma(1j) + ln_gamma(-1j)).real
            - 2.0 * ln_gamma(g + 0.5).real - ln_gamma(2.0 * g).real)
        assert abs(abs(val) ** 2 - PHI0_SQ_AT_1) < 1e-10
        assert abs(abs(val) ** 2 - want) < 1e-12

    def test_orthonormal_gram(self):
        gram = oscillator_gram(OscParams(1.0), 5)
        assert np.abs(gram - np.eye(6)).max() < 1e-6

    def test_tail_decay(self):
        # |phi_k| falls like exp(-pi xi / 2) times polynomial growth
        osc = OscParams(1.0)
        assert abs(eigenfunction(0, osc, 40.0)) < 1e-12
        mid, far = abs(eigenfunction(2, osc, 10.0)), abs(eigenfunction(2, osc, 20.0))
        assert far < mid * math.exp(-0.25 * math.pi * 10.0)

    def test_batch_matches_scalar(self):
        osc = OscParams(0.8)
        xi = np.array([0.0, 0.5, 2.5])
        batch = eigenfunction_batch(3, osc, xi)
        for k in range(4):
            for i, x in enumerate(xi):
                assert batch[k, i] == eigenfunction(k, osc, float(x))

    def test_negative_xi_rejected(self):
        with pytest.raises(DomainError):
            eigenfunction(0, OscParams(1.0), -0.5)
        with pytest.raises(DomainError):
            project_states(2, OscParams(1.0), [1.0, -0.5], [1.0, 1.0])

    def test_projections_match_state_table(self):
        osc = OscParams(0.8)
        rng = np.random.default_rng(3)
        xi = np.r_[0.0, np.sort(rng.uniform(0.0, 12.0, 40))]
        values = rng.normal(size=41) + 1j * rng.normal(size=41)
        want = np.conj(eigenfunction_batch(30, osc, xi)) @ values
        got = project_states(30, osc, xi, values)
        assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))

    def test_phase_convention_free_modulus(self):
        # the global i^gamma phase drops out of |phi_k|
        osc = OscParams(1.2)
        g = osc.gamma
        xi = 0.8
        val = eigenfunction(1, osc, xi)
        assert abs(abs(np.exp(-1j * math.pi * g / 2.0) * val) - abs(val)) < 1e-15
