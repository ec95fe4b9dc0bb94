"""Oscillator parameterization, spectrum, and eigenfunctions."""

import math
import tracemalloc

import numpy as np
import pytest

from relbargmann import cli, oscillator
from relbargmann.bargmann import oscillator_mode
from relbargmann.errors import DomainError, NonConvergenceError
from relbargmann.oscillator import (ModelParams, OscParams, _fine_columns,
                                    _panel_count, conj_state_factors,
                                    eigenfunction, eigenfunction_batch,
                                    energy, gamma_of_c,
                                    oscillator_gram, oscillator_gram_entries,
                                    project_states,
                                    state_end, state_polynomials, xi_layout)
from relbargmann.special import loggamma

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
            2.0 * (loggamma(g + 1j) + loggamma(g - 1j)).real
            - (loggamma(1j) + loggamma(-1j)).real
            - 2.0 * loggamma(g + 0.5).real - loggamma(2.0 * g).real)
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

    @pytest.mark.parametrize("c, kmax", [(1.0, 5), (1.0, 20), (1.0, 30),
                                         (3.0, 10), (3.0, 40)])
    def test_gram_has_the_bits_of_the_cached_layout(self, c, kmax,
                                                    cold_caches):
        # a Gram past the shared ends builds its layout uncached: the same
        # product on the cached layout at its end gives the same bits
        osc = OscParams(c)
        got = oscillator_gram(osc, kmax)
        xi, weights, conj_pref = _fine_columns(
            xi_layout(osc, state_end(kmax, osc)))
        poly, norms = state_polynomials(kmax, osc, xi)
        table = norms[:, None] * poly
        want = (table * (weights * np.abs(conj_pref) ** 2)) @ table.T
        assert got.tobytes() == want.tobytes()

    def test_long_gram_leaves_no_layout_in_the_cache(self, cold_caches):
        # only the transforms' end (40) and the isometry check's
        # (state_end(20) = 80) are cached; kmax = 50 (end 170) held a
        # 0.5 MB entry for the rest of the process
        osc = OscParams(1.0)
        oscillator_gram(osc, 50)
        assert xi_layout.cache_info().currsize == 0
        oscillator_gram(osc, 20)
        oscillator_gram(osc, 5)
        assert xi_layout.cache_info().currsize == 2
        xi_layout(osc, 40.0), xi_layout(osc, 80.0)
        assert xi_layout.cache_info().misses == 2

    @pytest.mark.parametrize("c, length", [(0.8, 40.0), (1.0, 80.0),
                                           (3.0, 1220.0)])
    def test_node_count_matches_grid(self, c, length):
        # verify's table-size guard counts the 32-point columns of the
        # layout without building it
        osc = OscParams(c)
        xi, weights, _ = _fine_columns(xi_layout(osc, length))
        assert _panel_count(osc, length) * 32 == xi.size
        assert 0.0 < xi.min() and xi.max() < length
        assert abs(weights.sum() - length) < 1e-12 * length

    @pytest.mark.parametrize("c", [12.0, 20.0])
    @pytest.mark.parametrize("kmax", [5, 20])
    def test_gram_at_very_large_c(self, c, kmax):
        # the unfolded state prefactor overflowed here, and the Gram raised
        gram = oscillator_gram(OscParams(c), kmax)
        assert gram.dtype == float
        assert np.abs(gram - np.eye(kmax + 1)).max() < 1e-11

    def test_table_is_finite_at_very_large_c(self):
        # gamma = 283 at c = 20: norm_0 alone underflows
        xi = np.linspace(0.0, 40.0, 161)
        table = eigenfunction_batch(20, OscParams(20.0), xi)
        assert np.isfinite(table).all()
        assert np.abs(table[:, 1:]).min() > 0.0

    @pytest.mark.parametrize("kmax", [-1, 1.5])
    def test_gram_order_validated(self, kmax):
        with pytest.raises(DomainError):
            oscillator_gram(OscParams(1.0), kmax)

    def test_long_gram_refused_before_any_table(self, monkeypatch):
        # kmax = 400 at c = 1 built a 401 x 89,792 table (835 MB of RSS)
        # before it raised; the CLI's table limit now refuses it first
        def never(*args):
            raise AssertionError("a table was built")

        monkeypatch.setattr(oscillator, "state_polynomials", never)
        monkeypatch.setattr(oscillator, "xi_layout", never)
        osc = OscParams(1.0)
        assert oscillator_gram_entries(osc, 400) == 401 * 89792
        with pytest.raises(DomainError, match="more than the limit of 1000000"):
            oscillator_gram(osc, 400)
        assert oscillator.MAX_TABLE_ENTRIES == cli.MAX_GRID_POINTS

    def test_gram_limit_boundary(self, monkeypatch):
        # a table of exactly the limit is built, one entry more is refused
        osc = OscParams(1.0)
        entries = oscillator_gram_entries(osc, 5)
        monkeypatch.setattr(oscillator, "MAX_TABLE_ENTRIES", entries)
        assert oscillator_gram(osc, 5).shape == (6, 6)
        monkeypatch.setattr(oscillator, "MAX_TABLE_ENTRIES", entries - 1)
        with pytest.raises(DomainError):
            oscillator_gram(osc, 5)

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

    def test_table_memory_is_blocked(self):
        # one table of all 3001 levels on the 400 xi would take ~55 MiB; the
        # blocks of at most LAYOUT_BLOCK_NODES entries write into one output
        osc, xi = OscParams(1.0), np.linspace(0.05, 20.0, 400)
        tracemalloc.start()
        try:
            vals = eigenfunction(3000, osc, xi)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 << 20
        assert np.array_equal(vals[::40],
                              eigenfunction_batch(3000, osc, xi[::40])[3000])

    def test_blocks_bit_identical(self, monkeypatch):
        # blocks of 7 // (k + 1) = 2 xi give the bits of one table
        osc, xi = OscParams(0.8), np.linspace(0.0, 9.0, 11)
        one = eigenfunction(2, osc, xi)
        seen = []
        batch = oscillator.eigenfunction_batch

        def counted(kmax, osc, xi):
            seen.append(len(xi))
            return batch(kmax, osc, xi)
        monkeypatch.setattr(oscillator, "eigenfunction_batch", counted)
        monkeypatch.setattr(oscillator, "LAYOUT_BLOCK_NODES", 7)
        assert np.array_equal(eigenfunction(2, osc, xi), one)
        assert seen == [2, 2, 2, 2, 2, 1]
        assert np.array_equal(one, batch(2, osc, xi)[2])

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
        # against the terminating 3F2 at unit argument in 40 digits, and
        # the state table is built from them
        mp = pytest.importorskip("mpmath")
        osc = OscParams(c)
        xi = np.array([0.5, 5.0, 17.0, 39.0])
        poly, norms, conj_pref = conj_state_factors(12, osc, xi)
        got = norms[:, None] * poly * conj_pref
        assert np.isfinite(got).all()
        assert np.array_equal(eigenfunction_batch(12, osc, xi), got.conj())
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
