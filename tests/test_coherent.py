"""Coherent states: normalization, overlap, distance, and wave functions."""

import math
import re
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from relbargmann import bargmann, coherent, disk, hypergeom
from relbargmann.bargmann import (classical_bargmann, oscillator_mode,
                                  relativistic_transform,
                                  relativistic_transform_grid,
                                  relativistic_transform_m0)
from relbargmann.coherent import (K_CAP, TAIL_LEVEL, CoherentLabel,
                                  _check_cap, cs_distance, cs_wavefunction,
                                  cs_wavefunction_oracle, normalization,
                                  overlap, overlap_series, transform_kernel,
                                  transform_kernel_series,
                                  transform_kernel_series_grid,
                                  truncation_order)
from relbargmann.disk import LandauIndex, basis_phi_batch
from relbargmann.errors import DomainError, NonConvergenceError
from relbargmann.oscillator import (ModelParams, OscParams, eigenfunction,
                                    eigenfunction_batch)


def radial_profiles(kmax, idx, r):
    """The real radial profiles g_k = (1-r)^m Phi_k(sqrt(r)), k <= kmax, at
    |z|^2 = r (an array): |Phi_k(z)| = (1-r)^-m |g_k| on the circle."""
    r = np.atleast_1d(np.asarray(r, dtype=float))
    return basis_phi_batch(kmax, idx, np.sqrt(r)).real * (1.0 - r) ** idx.m


def radial_truncation_order(idx, z):
    """Reference: the truncation rule summed on the real radial profiles
    at |z| instead of the basis column at z, with the same level, bulk
    test, 2K <= n test and K_CAP refusal."""
    r = abs(complex(z)) ** 2
    total = normalization(idx, z) * (1.0 - r) ** (2 * idx.m)
    level = TAIL_LEVEL ** 2 * total
    n = 128
    while True:
        g = radial_profiles(n, idx, r)[:, 0]
        tails = np.cumsum((g * g)[::-1])[::-1]
        order = max(int(np.count_nonzero(tails > level)) - 1, 0)
        bulk = tails[0] >= 0.5 * total
        if order > K_CAP or (not bulk and n >= K_CAP):
            raise NonConvergenceError("past K_CAP")
        if bulk and 2 * order <= n:
            return order
        n *= 2


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

    def test_overflow_raises_without_warning(self):
        # c = 20, m = 0: sigma = 566.7 and N(0.85) is past the double range;
        # it raises a typed error, never inf with a RuntimeWarning
        idx = ModelParams(OscParams(20.0), 0).landau_index()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert math.isfinite(normalization(idx, 0.5))
            for z in (0.85, np.array([0.1, 0.85j])):
                with pytest.raises(NonConvergenceError,
                                   match=r"N\(z\) overflows at \|z\| = 0\.85"):
                    normalization(idx, z)


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

    @pytest.mark.parametrize("c", [0.5, 1.0, 3.0, 8.0])
    def test_against_mpmath_gauss_form(self, c):
        # the Gauss form C ((1-|z|^2)(1-|w|^2))^(sigma/2-m) (1 - zbar w)^m
        # (1 - z wbar)^(m-sigma) 2F1(-m, sigma-m; sigma-2m; rho) at 40
        # digits; its alternating 2F1 sum, summed in doubles, was off by
        # 2.7e-2 at c = 1, m = 20 and by 1.2e12 at c = 8, m = 20
        mp = pytest.importorskip("mpmath")
        rng = np.random.default_rng(25)
        for m in (0, 1, 2, 4, 8, 20):
            idx = ModelParams(OscParams(c), m).landau_index()
            r = 0.85 * np.sqrt(rng.uniform(0.0, 1.0, (2, 6)))
            z, w = r * np.exp(2j * math.pi * rng.uniform(0.0, 1.0, (2, 6)))
            # near-diagonal pairs, |z - w| <= 0.2, kept inside |w| <= 0.85
            near = z + 0.2 * np.sqrt(rng.uniform(0.0, 1.0, 6)) * np.exp(
                2j * math.pi * rng.uniform(0.0, 1.0, 6))
            near *= np.minimum(1.0, 0.85 / np.abs(near))
            zs, ws = np.concatenate([z, z]), np.concatenate([w, near])
            got = overlap(idx, zs, ws)
            with mp.workdps(40):
                s = mp.mpf(idx.sigma)
                const = ((-1) ** m * mp.gamma(s - m)
                         / (mp.gamma(s - 2 * m) * mp.factorial(m)))
                for a, b, value in zip(zs.tolist(), ws.tolist(), got):
                    a, b = mp.mpc(a), mp.mpc(b)
                    u = 1 - a * mp.conj(b)
                    prod = (1 - abs(a) ** 2) * (1 - abs(b) ** 2)
                    want = (const * prod ** (s / 2 - m)
                            * (1 - mp.conj(a) * b) ** m * u ** (m - s)
                            * mp.hyp2f1(-m, s - m, s - 2 * m,
                                        prod / abs(u) ** 2))
                    assert abs(value - complex(want)) <= 1e-12, (m, a, b)

    def test_broadcasting_matches_pairs(self):
        # array against array, point against array and array against point
        # give the one-point calls' values
        idx = LandauIndex(9.3, 2)
        zs = np.array([0.3 + 0.1j, -0.55j, 0.0, 0.7 - 0.2j])
        ws = np.array([-0.2 + 0.25j, 0.1, 0.6j, 0.69 - 0.21j])
        cases = [(zs, ws), (zs[0], ws), (zs, ws[0]),
                 (zs[:, None], ws[None, :])]
        for z, w in cases:
            got = overlap(idx, z, w)
            zb, wb = np.broadcast_arrays(z, w)
            assert isinstance(got, np.ndarray) and got.shape == zb.shape
            want = [overlap(idx, a, b)
                    for a, b in zip(zb.ravel().tolist(), wb.ravel().tolist())]
            assert np.abs(got.ravel() - want).max() <= 1e-14
        assert isinstance(overlap(idx, zs[0], ws[0]), complex)

    def test_series_on_arrays_has_the_pair_bits(self):
        # one cut of the farther labels, one table of the nearer ones: each
        # value has the bits of the one-pair call, ties |z| = |w| (cut at
        # z) and the pair z = w included, whatever the shapes
        idx = LandauIndex(7.5, 1)
        rng = np.random.default_rng(31)
        z = rng.uniform(-0.6, 0.6, (40, 2)).view(complex)[:, 0]
        w = rng.uniform(-0.6, 0.6, (40, 2)).view(complex)[:, 0]
        w[:6] = np.conj(z[:6])
        w[6:9] = -z[6:9]
        w[9] = z[9]
        assert (np.abs(w[:10]) == np.abs(z[:10])).all()
        want = [overlap_series(idx, a, b)
                for a, b in zip(z.tolist(), w.tolist())]
        assert all(type(value) is complex for value in want)
        got = overlap_series(idx, z, w)
        assert got.shape == (40,) and got.tolist() == want
        assert overlap_series(idx, z.reshape(8, 5),
                              w.reshape(8, 5)).ravel().tolist() == want
        column = overlap_series(idx, z[:, None], w[0])
        assert column.shape == (40, 1)
        assert column[:, 0].tolist() == [overlap_series(idx, a, w[0])
                                         for a in z.tolist()]
        assert overlap_series(idx, np.zeros(0), 0.1).shape == (0,)

    def test_series_on_arrays_refuses_a_pair_past_the_cap(self):
        # one pair past K_CAP refuses the call, as that pair alone does
        idx = ModelParams(OscParams(1.0), 2).landau_index()
        with pytest.raises(NonConvergenceError, match=str(K_CAP)):
            overlap_series(idx, np.array([0.1, 0.2j, 0.3]),
                           np.array([0.2, 0.999, -0.1]))

    @pytest.mark.parametrize("m, want", [
        (200, 0.0021798382814763096 - 0.0481443500221714j),
        (1000, -0.041753668902221 + 0.04301758725396876j)])
    def test_large_level(self, m, want):
        # c = 20: at m = 200 the gamma ratio of the Gauss form overflowed,
        # and at m = 1000 rho^a underflows where P_m overflows; the values
        # are those of mpmath's jacobi at 1200 digits (5.3e-41 at 0.85,
        # -0.85 for m = 1000)
        idx = ModelParams(OscParams(20.0), m).landau_index()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert abs(overlap(idx, 0.2079 + 0.3505j, 0.1591 + 0.3149j)
                       - want) < 1e-13
            far = overlap(idx, 0.85, np.array([-0.85, 0.85j, -0.85j]))
            # on the diagonal the recurrence sits at the end point x = -1
            # of the Jacobi interval, where its rounding grows like
            # m^1.5 eps: 1.8e-12 at m = 1000
            diagonal = overlap(idx, np.array([0.5j, -0.85]),
                               np.array([0.5j, -0.85]))
        assert np.isfinite(far).all() and np.abs(far).max() <= 1.0 + 1e-12
        assert np.abs(diagonal - 1.0).max() < 1e-11

    def test_past_the_double_range_raises(self):
        # c = 30, m = 1000: P_m reaches e^1559, and its product with
        # rho^a may be large where rho^a alone underflows
        idx = ModelParams(OscParams(30.0), 1000).landau_index()
        with pytest.raises(NonConvergenceError, match="past the double"):
            overlap(idx, 0.1, 0.2)


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
        for z in (1.01, complex(math.nan, 0.0), complex(0.1, math.nan),
                  complex(math.inf, 0.0)):
            with pytest.raises(DomainError):
                CoherentLabel(z, ModelParams(OscParams(1.0), 0))


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
        g = radial_profiles(4 * order + 64, idx, r)[:, 0]
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
        g = radial_profiles(4 * order + 64, idx, r)[:, 0]
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

    @pytest.mark.parametrize("c", [0.2, 1.0, 5.0, 20.0])
    def test_cut_keeps_the_radial_order(self, c):
        # the cut reads |Phi_k(z)| at z itself; K, or the refusal, is the
        # one the rule gave on the real radial profiles at |z|
        for m in (0, 1, 2, 5, 10, 20, 40):
            try:
                idx = ModelParams(OscParams(c), m).landau_index()
            except DomainError:
                continue
            for rho in (0.0, 0.3, 0.6, 0.85):
                for arg in (0.0, 0.9, 2.0, math.pi, -1.3):
                    z = rho * complex(math.cos(arg), math.sin(arg))
                    try:
                        want = radial_truncation_order(idx, z)
                    except NonConvergenceError:
                        with pytest.raises(NonConvergenceError):
                            truncation_order(idx, z)
                        continue
                    assert truncation_order(idx, z) == want, (m, z)

    @pytest.mark.parametrize("c, m, z", [(1.0, 0, 0.3 + 0.2j),
                                         (3.0, 4, 0.85j)])
    def test_cut_rows_are_the_basis_column(self, c, m, z):
        idx = ModelParams(OscParams(c), m).landau_index()
        (column,) = coherent._basis_cut(idx, z)
        assert len(column) == truncation_order(idx, z) + 1
        want = basis_phi_batch(len(column) - 1, idx, z)
        assert column.tobytes() == want.tobytes()

    @pytest.mark.parametrize("c, m", [(0.5, 0), (1.0, 1), (3.0, 4),
                                      (8.0, 2)])
    def test_grid_cut_has_the_point_bits(self, c, m):
        # one cut of the whole grid: every column, of every length, has the
        # bits of the point's own cut, and K is the one-point K
        idx = ModelParams(OscParams(c), m).landau_index()
        rng = np.random.default_rng(int(8 * c) + m)
        z = 0.85 * np.sqrt(rng.uniform(0.0, 1.0, 40)) * np.exp(
            2j * math.pi * rng.uniform(0.0, 1.0, 40))
        points = [*z.tolist(), 0.0, 0.85j, -0.85, z[3]]
        columns = coherent._basis_cut(idx, points)
        assert len(columns) == len(points)
        assert len({len(column) for column in columns}) > 3
        for point, column in zip(points, columns):
            (alone,) = coherent._basis_cut(idx, point)
            assert column.tobytes() == alone.tobytes(), point
            assert len(column) == truncation_order(idx, point) + 1

    @pytest.mark.parametrize("block", [1, 7, 45])
    def test_blocks_of_points_keep_the_columns(self, monkeypatch, block):
        # the grid is cut in blocks of CUT_BLOCK_POINTS points, the last one
        # short: the columns keep the bits of one cut of the whole grid,
        # and no table holds more points than a block
        idx = ModelParams(OscParams(3.0), 4).landau_index()
        rng = np.random.default_rng(7)
        points = 0.85 * np.sqrt(rng.uniform(0.0, 1.0, 45)) * np.exp(
            2j * math.pi * rng.uniform(0.0, 1.0, 45))
        whole = coherent._basis_cut(idx, points)
        sizes = []
        evaluate = coherent.basis_phi_batch

        def counted(kmax, idx, z):
            sizes.append(np.size(z))
            return evaluate(kmax, idx, z)

        monkeypatch.setattr(coherent, "CUT_BLOCK_POINTS", block)
        monkeypatch.setattr(coherent, "basis_phi_batch", counted)
        columns = coherent._basis_cut(idx, points)
        assert sizes == [min(block, 45 - start)
                         for start in range(0, 45, block)]
        assert [c.tobytes() for c in columns] == [c.tobytes() for c in whole]

    def test_a_large_grid_is_cut_in_bounded_memory(self):
        # 4,872 points of |z| <= 0.8 at c = 1, m = 1: one table of all
        # points peaked at 51 MB here, the blocks at 16 MB
        params = ModelParams(OscParams(1.0), 1)
        axis = np.linspace(-0.8, 0.8, 80)
        grid = (axis[:, None] + 1j * axis[None, :]).ravel()
        points = grid[np.abs(grid) <= 0.8].tolist()
        tracemalloc.start()
        try:
            coeffs, kmax = coherent._kernel_coeffs(params, points)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(coeffs) == 4872 and kmax == 186
        assert peak < 30e6


class TestOneColumnPerPoint:
    """Each disk point of a transform or a kernel grid evaluates its basis
    in the cut alone, and no row twice: ``basis_phi_batch`` gives the rows
    0..128 of the cut's table, and each doubling n -> 2n of its loop adds
    the rows n + 1 .. 2n alone, by ``disk._basis_rows``."""

    @pytest.mark.parametrize("route", ["transform", "kernel"])
    @pytest.mark.parametrize("c, m, z, orders", [
        (1.0, 1, 0.3 + 0.2j, [(0, 128)]),
        (3.0, 4, 0.85j, [(0, 128), (129, 256), (257, 512), (513, 1024)])])
    def test_basis_calls_come_from_the_cut(self, monkeypatch, route, c, m,
                                           z, orders):
        seen = []
        evaluate, extend = disk.basis_phi_batch, disk._basis_rows

        def counted(kmax, idx, z):
            seen.append((0, kmax))
            return evaluate(kmax, idx, z)

        def extended(first, last, idx, z):
            seen.append((first, last))
            return extend(first, last, idx, z)

        monkeypatch.setattr(disk, "basis_phi_batch", counted)
        monkeypatch.setattr(coherent, "basis_phi_batch", counted)
        monkeypatch.setattr(coherent, "_basis_rows", extended)
        params = ModelParams(OscParams(c), m)
        if route == "transform":
            relativistic_transform_grid(params,
                                        oscillator_mode(1, params.osc), [z])
        else:
            transform_kernel_series_grid(params, [z], [0.0, 1.5, 7.0])
        assert seen == orders

    def test_a_grid_extends_its_open_points_alone(self, monkeypatch):
        # one table for the grid: the rows past 128 are evaluated for the
        # points whose cut has not held yet, once each
        seen = []
        extend = disk._basis_rows

        def extended(first, last, idx, z):
            seen.append((first, last, np.asarray(z).tolist()))
            return extend(first, last, idx, z)

        monkeypatch.setattr(coherent, "_basis_rows", extended)
        params = ModelParams(OscParams(3.0), 4)
        points = [0.1, 0.85j, 0.3 - 0.2j, 0.6]
        transform_kernel_series_grid(params, points, [0.0, 1.5])
        assert [(first, last) for first, last, _ in seen] == [
            (129, 256), (257, 512), (513, 1024)]
        assert seen[-1][2] == [0.85j]
        assert 0.1 not in seen[0][2]


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


#: the model of the cap and one-point tests
CAP_PARAMS = ModelParams(OscParams(1.0), 1)
#: points past |z| <= 0.85, a NaN and the infinities included
FAR = [math.nan, math.inf, -math.inf, 1.5, 0.9]
#: within |z| <= 0.85, but |1 - z| = 0.15 < 0.2
NEAR_ONE = 0.85


def counted(calls):
    """phi_0 at c = 1 as f, appending the node count of each call."""
    phi0 = oscillator_mode(0, CAP_PARAMS.osc)

    def f(xi):
        calls.append(np.size(xi))
        return phi0(xi)
    return f


#: each entry that checks the kernel cap, called at z with f (if it takes
#: one); the grid calls get z after a point inside the cap
CAP_ENTRIES = {
    "relativistic_transform":
        lambda f, z: relativistic_transform(CAP_PARAMS, f, z),
    "relativistic_transform_grid":
        lambda f, z: relativistic_transform_grid(CAP_PARAMS, f, [0.1, z]),
    "relativistic_transform_m0":
        lambda f, z: relativistic_transform_m0(CAP_PARAMS.osc, f, z),
    # the m = 0 transform on a grid
    "relativistic_transform_m0_grid":
        lambda f, z: relativistic_transform_grid(
            ModelParams(CAP_PARAMS.osc, 0), f, [0.1, z]),
    "classical_bargmann": lambda f, z: classical_bargmann(3.0, f, z),
    "transform_kernel": lambda f, z: transform_kernel(CAP_PARAMS, z, 1.0),
}
#: each call that takes one point, with the entries above
ONE_POINT_CALLS = {
    "relativistic_transform": CAP_ENTRIES["relativistic_transform"],
    "relativistic_transform_m0": CAP_ENTRIES["relativistic_transform_m0"],
    "classical_bargmann": CAP_ENTRIES["classical_bargmann"],
    "transform_kernel": CAP_ENTRIES["transform_kernel"],
    "transform_kernel_series":
        lambda f, z: transform_kernel_series(CAP_PARAMS, z, 1.0),
    "CoherentLabel": lambda f, z: CoherentLabel(z, CAP_PARAMS).z,
}


@pytest.fixture
def kernel_calls(monkeypatch):
    """Counts the calls of the kernels' building blocks."""
    calls = []
    for owner, name in ((coherent, "f5_kernel_vec"),
                        (coherent, "conj_state_factors"),
                        (coherent, "basis_phi_batch"),
                        (bargmann, "state_polynomials"),
                        (hypergeom, "gauss_2f1_vec")):
        def wrapped(*args, _fn=getattr(owner, name), _name=name, **kwargs):
            calls.append(_name)
            return _fn(*args, **kwargs)
        monkeypatch.setattr(owner, name, wrapped)
    return calls


class TestEvaluationCap:
    @pytest.mark.parametrize("z", FAR)
    @pytest.mark.parametrize("entry", sorted(CAP_ENTRIES))
    def test_far_point_raises_before_f(self, kernel_calls, entry, z):
        calls = []
        with pytest.raises(DomainError, match=r"violates the evaluation cap "
                                              r"\|z\| <= 0\.85$"):
            CAP_ENTRIES[entry](counted(calls), z)
        assert calls == [] and kernel_calls == []

    @pytest.mark.parametrize("entry", sorted(CAP_ENTRIES))
    def test_near_one_raises_before_f(self, kernel_calls, entry):
        calls = []
        with pytest.raises(DomainError, match=r"^z = \(0\.85\+0j\) violates "
                                              r"the evaluation cap "
                                              r"\|1 - z\| >= 0\.2$"):
            CAP_ENTRIES[entry](counted(calls), NEAR_ONE)
        assert calls == [] and kernel_calls == []

    @pytest.mark.parametrize("z, cap", [(0.9, "|z| <= 0.85"),
                                        (NEAR_ONE, "|1 - z| >= 0.2")])
    def test_wavefunction_label_outside_cap(self, z, cap):
        # NaN, inf and 1.5 are no disk labels (see test_label_validation)
        label = CoherentLabel(z, CAP_PARAMS)
        with pytest.raises(DomainError, match=f"cap {re.escape(cap)}$"):
            cs_wavefunction(label, 1.0)

    def test_first_point_outside_is_named(self):
        far = "violates the evaluation cap |z| <= 0.85"
        near = "violates the evaluation cap |1 - z| >= 0.2"
        with pytest.raises(DomainError, match=re.escape("(0.85+0j) " + near)):
            _check_cap([0.1, 0.85, 0.9])
        with pytest.raises(DomainError, match=re.escape("(0.9+0j) " + far)):
            _check_cap([0.1, 0.9, 0.85])
        with pytest.raises(DomainError, match=re.escape("(nan+0j) " + far)):
            _check_cap(np.array([0.1, math.nan]))

    def test_points_within_cap(self):
        points = [0.1, 0.85j, -0.85, 0.3 - 0.4j]
        assert _check_cap(points) == [complex(z) for z in points]
        assert _check_cap([NEAR_ONE, *points], near_one=False) == [
            complex(z) for z in (NEAR_ONE, *points)]
        assert _check_cap(0.2j) == [0.2j] and _check_cap([]) == []
        for z in FAR:
            with pytest.raises(DomainError):
                _check_cap([0.1, z], near_one=False)


class TestOnePoint:
    @pytest.mark.parametrize("call", sorted(ONE_POINT_CALLS))
    def test_two_points_raise_before_f(self, kernel_calls, call):
        calls = []
        with pytest.raises(DomainError, match="must be one point, got 2$"):
            ONE_POINT_CALLS[call](counted(calls), np.array([0.1, 0.2]))
        assert calls == [] and kernel_calls == []

    @pytest.mark.parametrize("call", sorted(ONE_POINT_CALLS))
    def test_one_element_gives_the_point_value(self, call):
        want = ONE_POINT_CALLS[call](counted([]), 0.1 + 0.2j)
        for z in (np.array([0.1 + 0.2j]), [0.1 + 0.2j]):
            assert ONE_POINT_CALLS[call](counted([]), z) == want
