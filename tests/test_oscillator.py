"""Oscillator parameterization, spectrum, and eigenfunctions."""

import math
import re
import tracemalloc

import numpy as np
import pytest

from relbargmann import cli, oscillator
from relbargmann.bargmann import oscillator_mode, relativistic_transform_grid
from relbargmann.disk import basis_phi
from relbargmann.errors import DomainError, NonConvergenceError
from relbargmann.oscillator import (XI_LENGTH, ModelParams, OscParams,
                                    _panel_count, _project,
                                    conj_state_prefactor, eigenfunction,
                                    eigenfunction_batch, energy, gamma_of_c,
                                    oscillator_gram, oscillator_gram_entries,
                                    state_end, state_polynomials, xi_layout)
from relbargmann.special import loggamma


def project_states(kmax, osc, xi, values):
    """sum_n conj(phi_k(xi_n)) values_n, k <= kmax, as ``isometry_check``
    takes the projections: ``_project`` on the state factors at the
    xi_n > 0."""
    xi = np.asarray(xi, dtype=float)
    pos = xi > 0
    poly, norms = state_polynomials(kmax, osc, xi[pos])
    return _project(poly, norms, conj_state_prefactor(osc, xi[pos]),
                    np.asarray(values, dtype=complex)[pos])


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

    @pytest.mark.parametrize("c", [1e77, 1.1e77, 1.2e77, 1e200,
                                   np.float64(1e200)])
    def test_gamma_past_the_double_range_is_refused(self, c):
        # 2 c^4 overflows to inf above about 9.7e76, and c^4 itself above
        # about 1.2e77, where c ** 4 raises OverflowError
        for call in (gamma_of_c, OscParams):
            with pytest.raises(DomainError, match=re.escape(repr(float(c)))):
                call(c)
        assert math.isfinite(gamma_of_c(1e76))

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
        # up to kmax = 20 the Gram reads the one layout of c; past it, it
        # builds its own uncached: the same product on the cached layout at
        # its end gives the same bits
        osc = OscParams(c)
        got = oscillator_gram(osc, kmax)
        xi, _, conj_pref, weights = xi_layout(osc,
                                              state_end(max(kmax, 20), osc))
        poly, norms = state_polynomials(kmax, osc, xi)
        table = norms[:, None] * poly
        want = (table * (weights * np.abs(conj_pref) ** 2)) @ table.T
        assert got.tobytes() == want.tobytes()

    def test_long_gram_leaves_no_layout_in_the_cache(self, cold_caches):
        # only the one layout of c (state_end(20) = 80) is cached; kmax =
        # 50 (end 170) held a 0.5 MB entry for the rest of the process
        osc = OscParams(1.0)
        oscillator_gram(osc, 50)
        assert xi_layout.cache_info().currsize == 0
        oscillator_gram(osc, 20)
        oscillator_gram(osc, 5)
        assert xi_layout.cache_info().currsize == 1
        xi_layout(osc, 80.0)
        assert xi_layout.cache_info().misses == 1

    @pytest.mark.parametrize("c", [0.8, 1.0, 3.0])
    @pytest.mark.parametrize("kmax", [5, 20, 30])
    def test_gram_entries_count_the_built_table(self, c, kmax, monkeypatch):
        # verify's table guard counts the table the Gram builds, on the
        # layout of state_end(max(kmax, 20))
        osc = OscParams(c)
        shapes = []

        def recorded(k, osc, xi):
            shapes.append((k + 1) * len(xi))
            return state_polynomials(k, osc, xi)

        monkeypatch.setattr(oscillator, "state_polynomials", recorded)
        oscillator_gram(osc, kmax)
        assert shapes == [oscillator_gram_entries(osc, kmax)]

    @pytest.mark.parametrize("c, length", [(0.8, 40.0), (1.0, 80.0),
                                           (3.0, 1220.0)])
    def test_node_count_matches_grid(self, c, length):
        # verify's table-size guard counts the nodes of the layout without
        # building it
        osc = OscParams(c)
        xi, _, _, weights = xi_layout(osc, length)
        assert _panel_count(osc, length) * 21 == xi.size
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
        # before it raised; the CLI's table limit now refuses it first (on
        # the 21-point panels its table holds 401 x 29,463 entries)
        def never(*args):
            raise AssertionError("a table was built")

        monkeypatch.setattr(oscillator, "state_polynomials", never)
        monkeypatch.setattr(oscillator, "xi_layout", never)
        osc = OscParams(1.0)
        assert oscillator_gram_entries(osc, 400) == 401 * 29463
        with pytest.raises(DomainError, match="more than the limit of 1000000"):
            oscillator_gram(osc, 400)
        assert cli.MAX_TABLE_ENTRIES == oscillator.MAX_TABLE_ENTRIES

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
        # recurrence cycles through three rows and returns the last
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
        # row k alone has the bits of row k of the whole table, and no
        # table is built for it
        osc, xi = OscParams(0.8), np.linspace(0.0, 9.0, 11)
        levels = (0, 1, 2, 40)
        want = [eigenfunction_batch(k, osc, xi)[k] for k in levels]

        def never(*args):
            raise AssertionError("a table was built")

        monkeypatch.setattr(oscillator, "eigenfunction_batch", never)
        monkeypatch.setattr(oscillator, "cdhahn_normalized_batch", never)
        for k, row in zip(levels, want):
            assert eigenfunction(k, osc, xi).tobytes() == row.tobytes()

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
            eigenfunction_batch(2, OscParams(1.0), [1.0, -0.5])

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
        poly, norms = state_polynomials(60, osc, xi)
        conj_pref = conj_state_prefactor(osc, xi)
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
        poly, norms = state_polynomials(12, osc, xi)
        conj_pref = conj_state_prefactor(osc, xi)
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


class TestWidthLaw:
    """The scan that keeps ``panel_width``'s law w(gamma) for c in
    [0.2, 20]; see its docstring for criteria (i) to (iv)."""

    GRAM_C = [0.2, 0.4, 0.6, 0.8, 1.0, 1.5, 2.0, 3.0, 5.0, 8.0, 12.0, 16.0,
              20.0]
    POINTS = [0.3 + 0.2j, -0.5 + 0.4j, 0.7j, -0.8, 0.5 - 0.6j, 0.1]

    @pytest.mark.parametrize("c", GRAM_C)
    def test_gram_meets_the_identity(self, c):
        # (i); panels of gamma/pi missed it by 2e-8 at c = 12 and 1e-3 at
        # c = 20
        gram = oscillator_gram(OscParams(c), 20)
        assert np.abs(gram - np.eye(21)).max() <= 1e-11

    def test_nodes_at_most_twice_the_former_layout(self):
        # (iv): the former layout had panels of gamma/pi with 48 nodes each
        for c in np.geomspace(0.2, 20.0, 61):
            osc = OscParams(float(c))
            for end in (XI_LENGTH, state_end(20, osc)):
                former = 48 * math.ceil(end / (osc.gamma / math.pi))
                assert 21 * _panel_count(osc, end) <= 2 * former, (c, end)

    @pytest.mark.parametrize("c", [0.2, 0.5, 1.0, 1.5, 2.0, 2.5, 3.0])
    def test_transform_against_half_width(self, c, monkeypatch, cold_caches):
        # (ii) and (iii): B[phi_j], j <= 10, m <= 2, at six points, against
        # the same transform on panels of half the width
        law = oscillator.panel_width
        factor = [1.0]
        monkeypatch.setattr(oscillator, "panel_width",
                            lambda osc: factor[0] * law(osc))

        def transform(params, f, scale):
            # the layout is the only cache that reads the width
            factor[0] = scale
            xi_layout.cache_clear()
            return relativistic_transform_grid(params, f, self.POINTS)

        for m in (0, 1, 2):
            params = ModelParams(OscParams(c), m)
            idx = params.landau_index()
            for j in range(11):
                f = oscillator_mode(j, params.osc)
                got, ref = transform(params, f, 1.0), transform(params, f, 0.5)
                for z, value, err, want in zip(self.POINTS, got.values,
                                               got.errors, ref.values):
                    size = max(1.0, abs(basis_phi(j, idx, z)))
                    case = (m, j, z)
                    assert abs(value - want) <= 1e-12 * size, case
                    # the true error, above a rounding allowance, is
                    # never above the reported one
                    assert abs(value - want) <= err + 1e-13 * size, case
                    if c <= 2.0:
                        assert err <= 1e-9 * size, case
