"""Disk geometry, Landau levels, eigenbasis, and the finite-difference operator."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from relbargmann.disk import (LandauIndex, _phi_coeff_matrix, basis_gram,
                              basis_phi, basis_phi_batch, basis_radial_profiles,
                              bergman_distance, landau_level,
                              maass_apply_fd, measure_density,
                              wirtinger_dzbar_fd)
from scipy.special import gammaln
from relbargmann.errors import DomainError
from relbargmann.hypergeom import ln_gamma
from relbargmann.orthopoly import jacobi_p
from relbargmann.oscillator import gamma_of_c
from relbargmann.quadrature import integrate_disk


class TestLandauIndex:
    def test_level_values(self):
        assert landau_level(LandauIndex(5.0, 0)) == 0.0
        assert landau_level(LandauIndex(7.0, 2)) == 32.0

    def test_coupled_parameter_form(self):
        # with sigma = 2(gamma + m) the level reads 4 m (m + 2 gamma - 1)
        g = gamma_of_c(1.0)
        for m in (0, 1, 2):
            idx = LandauIndex(2.0 * (g + m), m)
            assert abs(landau_level(idx) - 4.0 * m * (m + 2.0 * g - 1.0)) < 1e-12

    def test_validation(self):
        with pytest.raises(DomainError):
            LandauIndex(1.0, 0)
        with pytest.raises(DomainError):
            LandauIndex(5.0, 3)  # floor((5-1)/2) = 2
        with pytest.raises(DomainError):
            LandauIndex(5.0, -1)
        for sigma in (math.inf, math.nan):
            with pytest.raises(DomainError):
                LandauIndex(sigma, 0)


class TestBergmanDistance:
    def test_zero_at_coincidence(self):
        assert bergman_distance(0.3 + 0.2j, 0.3 + 0.2j) == 0.0

    def test_radial_value(self):
        # cosh^2 d = 1/(1 - r^2) gives d = arccosh(1.25) = ln 2 at r = 0.6
        assert abs(bergman_distance(0.0, 0.6) - math.log(2.0)) < 1e-14

    @settings(max_examples=40, deadline=None)
    @given(st.floats(-0.7, 0.7), st.floats(-0.7, 0.7),
           st.floats(-0.7, 0.7), st.floats(-0.7, 0.7))
    def test_symmetry(self, a, b, c, d):
        z, w = complex(a, b) * 0.7, complex(c, d) * 0.7
        assert abs(bergman_distance(z, w) - bergman_distance(w, z)) < 1e-12


class TestBasis:
    def test_ground_state_constant(self):
        sigma = 5.0
        idx = LandauIndex(sigma, 0)
        want = math.sqrt((sigma - 1.0) / math.pi)
        assert abs(basis_phi(0, idx, 0.0) - want) < 1e-15
        assert abs(basis_phi(0, idx, 0.3 - 0.4j) - want) < 1e-15

    def test_analytic_level_monomials(self):
        sigma = 6.5
        idx = LandauIndex(sigma, 0)
        z = 0.35 + 0.2j
        for k in range(5):
            want = math.exp(0.5 * (math.log(sigma - 1.0)
                                   + ln_gamma(sigma + k).real
                                   - math.log(math.pi) - ln_gamma(sigma).real
                                   - ln_gamma(k + 1.0).real)) * z ** k
            assert abs(basis_phi(k, idx, z) - want) < 1e-13 * (1 + abs(want))

    def test_matches_jacobi_route(self):
        # the monomial expansion equals the raw Jacobi-polynomial formula,
        # whose k > m cases exercise the negative-alpha evaluation path
        sigma, m = 7.5, 1
        idx = LandauIndex(sigma, m)
        z = 0.3 - 0.25j
        r = abs(z) ** 2
        for k in range(6):
            norm = math.exp(0.5 * (
                math.log(sigma - 2 * m - 1.0) + ln_gamma(sigma - m).real
                + ln_gamma(k + 1.0).real - math.log(math.pi)
                - ln_gamma(m + 1.0).real - ln_gamma(sigma - 2 * m + k).real))
            raw = (norm * (-1.0) ** k * np.conj(z) ** (m - k)
                   * (1.0 - r) ** (-m)
                   * jacobi_p(k, m - k, sigma - 2 * m - 1.0, 1.0 - 2.0 * r))
            assert abs(basis_phi(k, idx, z) - raw) < 1e-12 * (1 + abs(raw))

    def test_continuity_at_origin_for_high_k(self):
        # zbar^(m-k) and the degenerate polynomial fuse into a single-valued
        # function: the value at 0 is the limit along any ray
        idx = LandauIndex(7.5, 1)
        for k in (2, 4):
            at_zero = basis_phi(k, idx, 0.0)
            assert at_zero == 0.0
            near = basis_phi(k, idx, 1e-7 * np.exp(0.73j))
            assert abs(near - at_zero) < 1e-6

    def test_gram_identity(self):
        for sigma, m in ((5.0, 0), (7.5, 1), (9.0, 2)):
            gram = basis_gram(LandauIndex(sigma, m), 4)
            assert np.abs(gram - np.eye(5)).max() < 1e-12

    @pytest.mark.parametrize("kmax", [-1, -7, 2.5])
    def test_gram_order_validated(self, kmax):
        with pytest.raises(DomainError):
            basis_gram(LandauIndex(9.0, 2), kmax)

    def test_resolution_weight_orthogonality(self):
        # direct disk quadrature of conj(Phi_j) Phi_k (1-|z|^2)^(sigma-2)
        sigma = 5.0
        idx = LandauIndex(sigma, 0)
        off = integrate_disk(
            lambda z: np.conj(basis_phi(0, idx, z)) * basis_phi(1, idx, z),
            sigma - 2.0)
        diag = integrate_disk(
            lambda z: np.abs(basis_phi(1, idx, z)) ** 2, sigma - 2.0)
        assert abs(off) < 1e-12
        assert abs(diag - 1.0) < 1e-10

    def test_batch_matches_scalar(self):
        idx = LandauIndex(9.0, 2)
        z = 0.2 + 0.4j
        batch = basis_phi_batch(6, idx, z)
        for k in range(7):
            assert batch[k] == basis_phi(k, idx, z)

    @pytest.mark.parametrize("m", [0, 1, 2, 3, 4])
    def test_bits_independent_of_batching(self, m):
        # Phi_k(z) alone, in 1-D and 2-D arrays, and as row k of every
        # stack up to kmax >= k, bit for bit, z = 0 included
        idx = LandauIndex(2.0 * m + 1.5 + 0.1 * m, m)
        rng = np.random.default_rng(m)
        rho = 0.85 * np.sqrt(rng.uniform(0.0, 1.0, 60))
        z = rho * np.exp(2j * np.pi * rng.uniform(0.0, 1.0, 60))
        z[0] = 0.0
        for k in range(9):
            flat = basis_phi(k, idx, z)
            assert flat.shape == z.shape
            alone = np.array([basis_phi(k, idx, complex(w)) for w in z])
            assert np.array_equal(flat, alone)
            assert np.array_equal(basis_phi(k, idx, z.reshape(6, 10)),
                                  flat.reshape(6, 10))
            assert np.array_equal(basis_phi(k, idx, z[::3]), flat[::3])
            for kmax in range(k, 13):
                assert np.array_equal(basis_phi_batch(kmax, idx, z)[k], flat)
            assert basis_phi_batch(12, idx, complex(z[7]))[k] == alone[7]

    @pytest.mark.parametrize("kmax, m, sigma", [
        (0, 3, 9.1), (2, 4, 11.3), (60, 0, 2.5), (300, 1, 3.0000001),
        (6910, 2, 7.46)])
    def test_coeff_matrix_matches_rows(self, kmax, m, sigma):
        # reference: the coefficients built one row at a time with scalar
        # gammaln calls, as the row builder this matrix replaced did
        def row_coeffs(k):
            lead = 0.5 * (math.log(sigma - 2 * m - 1.0) + gammaln(sigma - m)
                          + gammaln(k + 1) - math.log(math.pi)
                          - gammaln(m + 1) - gammaln(sigma - 2 * m + k))
            coeffs = []
            for j in range(min(k, m) + 1):
                lt = (gammaln(m + 1) + gammaln(sigma + k - m - j)
                      - gammaln(k - j + 1) - gammaln(m - j + 1)
                      - gammaln(j + 1))
                coeffs.append((-1.0) ** j
                              * math.exp(lead + lt - gammaln(sigma - m)))
            return coeffs

        rows = np.zeros((kmax + 1, m + 1))
        for k in range(kmax + 1):
            row = row_coeffs(k)
            rows[k, :len(row)] = row
        assert np.array_equal(_phi_coeff_matrix(kmax, m, sigma), rows)

    def test_mpmath_map(self):
        # 30-digit reference from the same monomial expansion; the error is
        # measured against the size of the summed terms, since near a zero of
        # Phi_k their cancellation alone costs relative digits
        mp = pytest.importorskip("mpmath")
        mp.mp.dps = 30
        gamma = gamma_of_c(1.0)
        worst = 0.0
        for m in range(5):
            sigma = 2.0 * (gamma + m)
            idx = LandauIndex(sigma, m)
            s = mp.mpf(sigma)
            for k in (0, 1, 2, 3, 5, 8, 13, 21, 34, 60):
                lead = (mp.log(s - 2 * m - 1) + mp.loggamma(s - m)
                        + mp.loggamma(k + 1) - mp.log(mp.pi)
                        - mp.loggamma(m + 1) - mp.loggamma(s - 2 * m + k)) / 2
                coeffs = [(-1) ** j * mp.exp(
                    lead + mp.loggamma(m + 1) + mp.loggamma(s + k - m - j)
                    - mp.loggamma(k - j + 1) - mp.loggamma(m - j + 1)
                    - mp.loggamma(j + 1) - mp.loggamma(s - m))
                    for j in range(min(k, m) + 1)]
                for rho in (0.3, 0.6, 0.85):
                    for t in range(4):
                        z = rho * np.exp(1j * (0.3 + 0.5 * np.pi * t))
                        zz = mp.mpc(z)
                        terms = [cj * zz ** (k - j) * mp.conj(zz) ** (m - j)
                                 for j, cj in enumerate(coeffs)]
                        scale = (1 - abs(zz) ** 2) ** (-m)
                        want = complex(mp.fsum(terms) * scale)
                        size = float(mp.fsum(abs(t) for t in terms) * scale)
                        err = abs(basis_phi(k, idx, z) - want)
                        worst = max(worst, err / size)
        assert worst < 1e-13

    @pytest.mark.parametrize("m", [0, 1, 2])
    def test_radial_profiles_factor_the_basis(self, m):
        # Phi_k = (1-r)^-m e^(i(k-m) theta) g_k on |z|^2 = r, also at r = 0
        idx = LandauIndex(9.0, m)
        r = np.array([0.0, 0.04, 0.3, 0.81])
        profiles = basis_radial_profiles(12, idx, r)
        theta = 0.7
        for k in range(13):
            z = np.sqrt(r) * np.exp(1j * theta)
            want = (basis_phi(k, idx, z) * (1.0 - r) ** m
                    * np.exp(-1j * (k - m) * theta))
            scale = 1.0 + np.max(np.abs(want))
            assert np.max(np.abs(profiles[k] - want)) < 1e-13 * scale

    def test_normalization_guard(self):
        idx = LandauIndex(5.0, 2)  # sigma - 2m - 1 = 0
        with pytest.raises(DomainError):
            basis_phi(0, idx, 0.1)

    def test_outside_disk_rejected(self):
        with pytest.raises(DomainError):
            basis_phi(0, LandauIndex(5.0, 0), 1.2)


class TestMeasureDensity:
    def test_at_origin(self):
        idx = LandauIndex(7.5, 1)
        want = (7.5 - 2.0 - 1.0) / math.pi
        assert abs(measure_density(idx, 0.0) - want) < 1e-15

    def test_radial_growth(self):
        idx = LandauIndex(5.0, 0)
        r = 0.99
        want = (5.0 - 1.0) / (math.pi * (1.0 - r ** 2) ** 2)
        assert abs(measure_density(idx, r) - want) < 1e-9 * want


class TestMaassOperator:
    def test_kills_constants(self):
        idx = LandauIndex(6.0, 1)
        val = maass_apply_fd(idx, lambda z: 2.7 + 0.0j, 0.2 + 0.1j)
        assert abs(val) < 1e-10

    def test_eigen_equation_spot(self):
        sigma, m, k = 7.5, 1, 3
        idx = LandauIndex(sigma, m)
        psi = lambda w: basis_phi(k, idx, w)
        z = 0.3 + 0.2j
        got = maass_apply_fd(idx, psi, z, h=1e-4)
        want = landau_level(idx) * psi(z)
        assert abs(got - want) / abs(want) < 1e-5

    def test_kills_holomorphic_monomials(self):
        idx = LandauIndex(5.5, 0)
        val = maass_apply_fd(idx, lambda z: z ** 3, 0.25 - 0.15j, h=1e-4)
        assert abs(val) < 1e-6

    def test_boundary_guard(self):
        idx = LandauIndex(5.0, 0)
        with pytest.raises(DomainError):
            maass_apply_fd(idx, lambda z: z, 0.9999, h=1e-3)

    def test_wirtinger_dzbar_on_antiholomorphic(self):
        got = wirtinger_dzbar_fd(lambda z: np.conj(z) ** 2, 0.3 + 0.1j, 1e-4)
        want = 2.0 * np.conj(0.3 + 0.1j)
        assert abs(got - want) < 1e-7
