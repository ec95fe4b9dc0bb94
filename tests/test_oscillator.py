"""Oscillator parameterization, spectrum, and eigenfunctions."""

import math

import numpy as np
import pytest

from relbargmann.bargmann import oscillator_mode
from relbargmann.errors import DomainError, NonConvergenceError
from relbargmann.hypergeom import ln_gamma
from relbargmann.oscillator import (ModelParams, OscParams, conj_state_factors,
                                    eigenfunction, eigenfunction_batch,
                                    energy, gamma_of_c,
                                    oscillator_gram, project_states,
                                    state_end, state_polynomials,
                                    xi_node_count, xi_panel_grid)

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
        for bad in (-1.0, math.inf, math.nan):
            with pytest.raises(DomainError):
                OscParams(bad)

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

    @pytest.mark.parametrize("c", [0.8, 1.0])
    def test_gram_resolves_ten_levels(self, c):
        # all panels to xi = 50; a walk stopped by two quiet panels misses
        # this by 3e-10
        gram = oscillator_gram(OscParams(c), 10)
        assert np.abs(gram - np.eye(11)).max() < 1e-12

    @pytest.mark.parametrize("c", [0.8, 1.0, 1.5, 3.0])
    def test_gram_resolves_twenty_levels(self, c):
        # phi_20 reaches about xi = 40, and the layout ends at
        # state_end(20) = 80
        gram = oscillator_gram(OscParams(c), 20)
        assert np.abs(gram - np.eye(21)).max() < 1e-12

    def test_state_end(self):
        osc = OscParams(1.0)
        assert [state_end(k, osc) for k in (0, 6, 7, 20)] == [40.0, 40.0, 41.0, 80.0]

    @pytest.mark.parametrize("c", [0.3, 0.6, 1.0, 2.0, 2.5])
    def test_state_end_depends_on_kmax_alone_up_to_gamma_5(self, c):
        osc = OscParams(c)
        assert osc.gamma <= 5.0
        for k in (0, 5, 6, 7, 10, 20):
            assert state_end(k, osc) == max(40.0, 3.0 * k + 20.0)

    def test_state_end_grows_with_gamma(self):
        osc = OscParams(5.0)
        assert [state_end(k, osc) for k in (0, 20)] == [
            2.0 * osc.gamma + 10.0, 2.0 * osc.gamma + 70.0]

    @pytest.mark.parametrize("c", [3.0, 5.0, 8.0])
    @pytest.mark.parametrize("kmax", [5, 10, 20])
    def test_gram_at_large_c(self, c, kmax):
        # an end fixed by kmax alone missed the identity by 3.3e-5 to
        # 1.3e-2 at c = 5
        gram = oscillator_gram(OscParams(c), kmax)
        assert np.abs(gram - np.eye(kmax + 1)).max() < 1e-12

    @pytest.mark.parametrize("c, length", [(0.8, 40.0), (1.0, 80.0),
                                           (3.0, 1220.0)])
    def test_node_count_matches_grid(self, c, length):
        osc = OscParams(c)
        assert xi_node_count(osc, length) == xi_panel_grid(osc, length)[0].size

    @pytest.mark.parametrize("kmax", [-1, 1.5])
    def test_gram_order_validated(self, kmax):
        with pytest.raises(DomainError):
            oscillator_gram(OscParams(1.0), kmax)

    ORDER_CALLS = {
        "eigenfunction_batch": lambda k, osc, xi: eigenfunction_batch(k, osc, xi),
        "project_states": lambda k, osc, xi: project_states(k, osc, xi, 1.0 + xi),
        "state_polynomials": lambda k, osc, xi: state_polynomials(k, osc, xi),
        "oscillator_mode": lambda k, osc, xi: oscillator_mode(k, osc)(xi),
    }

    @pytest.mark.parametrize("call", sorted(ORDER_CALLS))
    @pytest.mark.parametrize("kmax", [-1, 2.5, math.nan, math.inf, "two", None])
    def test_bad_order_raises_domain_error(self, call, kmax):
        with pytest.raises(DomainError):
            self.ORDER_CALLS[call](kmax, OscParams(1.0), np.array([0.5, 2.0]))

    @pytest.mark.parametrize("call", sorted(ORDER_CALLS))
    def test_integral_orders_keep_their_bits(self, call):
        osc, xi = OscParams(0.8), np.array([0.5, 2.0, 7.5])

        def raw(k):
            out = self.ORDER_CALLS[call](k, osc, xi)
            parts = out if isinstance(out, tuple) else (out,)
            return b"".join(np.asarray(part).tobytes() for part in parts)

        for k in (np.int64(3), 3.0):
            assert raw(k) == raw(3)

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

    def test_overflowing_table_raises(self):
        osc = OscParams(1.0)
        with pytest.raises(NonConvergenceError):
            eigenfunction_batch(1, osc, [1.0, 1e300])
        with pytest.raises(NonConvergenceError):
            eigenfunction(3, osc, 1e200)
        # phi_0 has no polynomial to overflow: it decays to an exact 0
        assert eigenfunction(0, osc, 1e300) == 0.0

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

    def test_overflowing_projections_raise(self):
        # past xi ~ 455 the k = 8000 polynomial overflows while the
        # prefactor underflows to 0; inf * 0 must not pass on as a NaN
        osc = OscParams(1.0)
        assert np.isfinite(project_states(8000, osc, [1.0, 440.0], [1.0, 1.0])).all()
        with pytest.raises(NonConvergenceError):
            project_states(8000, osc, [1.0, 500.0], [1.0, 1.0])

    @pytest.mark.parametrize("c", [0.6, 1.0, 3.0])
    def test_state_factors_match_state_table(self, c):
        osc = OscParams(c)
        xi = np.linspace(0.05, 40.0, 97)
        poly, norms, conj_pref = conj_state_factors(60, osc, xi)
        want = np.conj(eigenfunction_batch(60, osc, xi))
        got = norms[:, None] * poly * conj_pref
        assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))

    @pytest.mark.parametrize("c", [12.0, 20.0])
    def test_state_factors_finite_at_large_c(self, c):
        # Gamma(gamma + i xi)^2 / Gamma(i xi) overflows past c ~ 10 and the
        # k = 0 norm underflows; folded together they give phi_k, checked
        # against the terminating 3F2 at unit argument in 40 digits
        mp = pytest.importorskip("mpmath")
        osc = OscParams(c)
        xi = np.array([0.5, 5.0, 17.0, 39.0])
        with pytest.raises(NonConvergenceError):
            eigenfunction_batch(0, osc, xi)
        poly, norms, conj_pref = conj_state_factors(12, osc, xi)
        got = norms[:, None] * poly * conj_pref
        assert np.isfinite(got).all()
        with mp.workdps(40):
            g = (1 + mp.sqrt(1 + 2 * mp.mpf(c) ** 4)) / 2
            for i, x in enumerate(xi.tolist()):
                pref = (mp.sqrt(2) * mp.expjpi(g / 2) * mp.exp(-4j * x * mp.log(c))
                        * mp.gamma(g + 1j * x) ** 2 / mp.gamma(1j * x))
                for k in (0, 1, 5, 12):
                    s = mp.hyp3f2(-k, g + 1j * x, g - 1j * x, 2 * g, g + 0.5, 1)
                    phi = (pref * mp.sqrt(mp.gamma(k + 2 * g) / mp.factorial(k))
                           / (mp.gamma(2 * g) * mp.gamma(g + 0.5)) * s.real)
                    want = complex(mp.conj(phi))
                    assert abs(got[k, i] - want) <= 1e-11 * abs(want)

    def test_phase_convention_free_modulus(self):
        # the global i^gamma phase drops out of |phi_k|
        osc = OscParams(1.2)
        g = osc.gamma
        xi = 0.8
        val = eigenfunction(1, osc, xi)
        assert abs(abs(np.exp(-1j * math.pi * g / 2.0) * val) - abs(val)) < 1e-15
