"""Disk geometry, Landau levels, eigenbasis, and the finite-difference operator."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from relbargmann import disk
from relbargmann.disk import (LandauIndex, basis_gram, basis_phi,
                              basis_phi_batch, bergman_distance, landau_level,
                              maass_apply_fd, wirtinger_dzbar_fd)
from relbargmann.errors import DomainError, NonConvergenceError
from relbargmann.orthopoly import jacobi_p
from relbargmann.oscillator import ModelParams, OscParams, gamma_of_c
from relbargmann.quadrature import integrate_disk
from relbargmann.special import loggamma
from relbargmann.verification import run_suite


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


#: every entry point that takes an order or a level number, as a function of it
ORDER_ENTRY_POINTS = {
    "basis_phi": lambda k: basis_phi(k, LandauIndex(3.0, 0), 0.1),
    "basis_phi_batch": lambda k: basis_phi_batch(k, LandauIndex(3.0, 0), 0.1),
    "basis_gram": lambda k: basis_gram(LandauIndex(3.0, 0), k),
    "LandauIndex.m": lambda m: LandauIndex(5.0, m),
    "ModelParams.m": lambda m: ModelParams(OscParams(1.0), m),
}


@pytest.mark.parametrize("order", [math.nan, math.inf, -math.inf, 2.5, -1,
                                   "one", None])
@pytest.mark.parametrize("entry", list(ORDER_ENTRY_POINTS))
def test_bad_order_raises_domain_error(entry, order):
    # NaN gave ValueError, inf OverflowError and a string or None TypeError
    with pytest.raises(DomainError):
        ORDER_ENTRY_POINTS[entry](order)


def test_integral_level_numbers_are_ints():
    for m in (1.0, np.int64(1)):
        idx = LandauIndex(5.0, m)
        assert type(idx.m) is int and idx == LandauIndex(5.0, 1)
        assert basis_phi(2, idx, 0.3 + 0.1j) == basis_phi(2, LandauIndex(5.0, 1),
                                                          0.3 + 0.1j)
        assert type(ModelParams(OscParams(1.0), m).m) is int


class TestBergmanDistance:
    def test_zero_at_coincidence(self):
        assert bergman_distance(0.3 + 0.2j, 0.3 + 0.2j) == 0.0

    def test_radial_value(self):
        # cosh^2 d = 1/(1 - r^2) gives d = arccosh(1.25) = ln 2 at r = 0.6
        assert abs(bergman_distance(0.0, 0.6) - math.log(2.0)) < 1e-14

    @pytest.mark.parametrize("z, w", [(0.1, 1.5), (0.1, 1.0), (2.0, 3.0),
                                      (complex(math.nan, 0.0), 0.1),
                                      (0.1, complex(0.2, math.nan))])
    def test_point_off_the_disk_raises(self, z, w):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DomainError):
                bergman_distance(z, w)

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
                                   + loggamma(sigma + k).real
                                   - math.log(math.pi) - loggamma(sigma).real
                                   - loggamma(k + 1.0).real)) * z ** k
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
                math.log(sigma - 2 * m - 1.0) + loggamma(sigma - m).real
                + loggamma(k + 1.0).real - math.log(math.pi)
                - loggamma(m + 1.0).real - loggamma(sigma - 2 * m + k).real))
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

    def test_gram_table_past_the_limit_is_refused(self, monkeypatch):
        # kmax = 400 at m = 2 would build 401 x 408 x 808 complex entries;
        # the count is refused before any basis value is evaluated
        def refuse(*args):
            raise AssertionError("basis_phi_batch called")

        monkeypatch.setattr(disk, "basis_phi_batch", refuse)
        with pytest.raises(DomainError, match="132195264 entries"):
            basis_gram(LandauIndex(9.0, 2), 400)
        with pytest.raises(DomainError, match="more than the limit"):
            run_suite("orthonormality-disk", {"kmax": 400})
        with pytest.raises(DomainError):
            basis_gram(LandauIndex(5.0, 0), 78)

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

    def test_coeff_overflow_raises(self):
        # sigma = 1,274 (c = 30, m = 0): the coefficients pass the double
        # range at k = 838, where math.exp raised OverflowError
        idx = LandauIndex(1273.79, 0)
        assert np.isfinite(basis_phi_batch(800, idx, 0.1)).all()
        with pytest.raises(NonConvergenceError, match="overflow"):
            basis_phi_batch(838, idx, 0.1)
        with pytest.raises(NonConvergenceError, match="overflow"):
            basis_phi(843, idx, 0.1)

    @pytest.mark.parametrize("sigma, m, k", [(1e308, 0, 2), (1e306, 2, 3),
                                             (2.6e305, 0, 0)])
    def test_log_gamma_overflow_raises(self, sigma, m, k):
        # log Gamma(sigma - m) passes the double range, where math.lgamma
        # raised OverflowError through to a traceback
        with pytest.raises(NonConvergenceError, match="overflow"):
            basis_phi(k, LandauIndex(sigma, m), 0.3)

    def test_mpmath_map(self):
        # 30-digit reference from the same monomial expansion; the error is
        # measured against the size of the summed terms, since near a zero of
        # Phi_k their cancellation alone costs relative digits
        mp = pytest.importorskip("mpmath")
        mp.mp.dps = 30
        gamma = gamma_of_c(1.0)
        zs = [rho * np.exp(1j * (0.3 + 0.5 * np.pi * t))
              for rho in (0.3, 0.6, 0.85) for t in range(4)]
        worst = 0.0
        for m in range(5):
            sigma = 2.0 * (gamma + m)
            idx = LandauIndex(sigma, m)
            for k in (0, 1, 2, 3, 5, 8, 13, 21, 34, 60):
                for z, (want, size) in zip(zs, monomial_phi(mp, sigma, m, k,
                                                            zs)):
                    err = abs(basis_phi(k, idx, z) - want)
                    worst = max(worst, err / size)
        assert worst < 1e-13

    @pytest.mark.parametrize("m", [0, 1, 2])
    def test_radial_profiles_factor_the_basis(self, m):
        # Phi_k = (1-r)^-m e^(i(k-m) theta) g_k on |z|^2 = r, also at r = 0,
        # with the real profile g_k = (1-r)^m Phi_k(sqrt(r))
        idx = LandauIndex(9.0, m)
        r = np.array([0.0, 0.04, 0.3, 0.81])
        on_axis = basis_phi_batch(12, idx, np.sqrt(r))
        assert not on_axis.imag.any()
        profiles = on_axis.real * (1.0 - r) ** m
        theta = 0.7
        for k in range(13):
            z = np.sqrt(r) * np.exp(1j * theta)
            want = (basis_phi(k, idx, z) * (1.0 - r) ** m
                    * np.exp(-1j * (k - m) * theta))
            scale = 1.0 + np.max(np.abs(want))
            assert np.max(np.abs(profiles[k] - want)) < 1e-13 * scale

    def test_overflowing_rows_raise(self):
        # at sigma = 606.7 (c = 20, m = 20) and |z| = 0.5 the recurrence
        # overflows from k = 1772 while z^(k-m) underflows: 0 inf gave NaN
        idx = ModelParams(OscParams(20.0), 20).landau_index()
        with pytest.raises(NonConvergenceError, match="from k = 1772 on"):
            basis_phi_batch(1800, idx, 0.5)
        with pytest.raises(NonConvergenceError, match="from k = 1900 on"):
            basis_phi(1900, idx, 0.5)
        rows = basis_phi_batch(1771, idx, 0.5)
        assert np.isfinite(rows).all()
        assert rows[-1].tobytes() == np.array(basis_phi(1771, idx,
                                                        0.5)).tobytes()

    def test_normalization_guard(self):
        idx = LandauIndex(5.0, 2)  # sigma - 2m - 1 = 0
        with pytest.raises(DomainError):
            basis_phi(0, idx, 0.1)

    def test_outside_disk_rejected(self):
        with pytest.raises(DomainError):
            basis_phi(0, LandauIndex(5.0, 0), 1.2)


def monomial_phi(mp, sigma: float, m: int, k: int, zs) -> list:
    """``(value, size)`` of Phi_k at each point of ``zs`` at mpmath's
    working precision, from the monomial expansion
    Phi_k = (1-|z|^2)^-m sum_j C_j z^(k-j) zbar^(m-j), j <= min(k, m); size
    is the sum of the moduli of its terms."""
    s = mp.mpf(sigma)
    lead = (mp.log(s - 2 * m - 1) + mp.loggamma(s - m) + mp.loggamma(k + 1)
            - mp.log(mp.pi) - mp.loggamma(m + 1)
            - mp.loggamma(s - 2 * m + k)) / 2
    coeffs = [(-1) ** j * mp.exp(
        lead + mp.loggamma(m + 1) + mp.loggamma(s + k - m - j)
        - mp.loggamma(k - j + 1) - mp.loggamma(m - j + 1)
        - mp.loggamma(j + 1) - mp.loggamma(s - m))
        for j in range(min(k, m) + 1)]
    out = []
    for z in zs:
        zz = mp.mpc(z)
        terms = [cj * zz ** (k - j) * mp.conj(zz) ** (m - j)
                 for j, cj in enumerate(coeffs)]
        scale = (1 - abs(zz) ** 2) ** (-m)
        out.append((complex(mp.fsum(terms) * scale),
                    float(mp.fsum(abs(t) for t in terms) * scale)))
    return out


def disk_side_error(c: float, m: int, ks, zs) -> float:
    """Largest error of Phi_k(z), k in ``ks``, z in ``zs``, at the level m of
    the coupled weight sigma = 2 (gamma(c) + m), relative to max(1, |Phi_k|),
    against the monomial expansion summed at 60 digits."""
    mp = pytest.importorskip("mpmath")
    sigma = 2.0 * (gamma_of_c(c) + m)
    idx = LandauIndex(sigma, m)
    worst = 0.0
    with mp.workdps(60):
        for k in ks:
            got = basis_phi(k, idx, np.array(zs))
            for value, (want, _) in zip(got, monomial_phi(mp, sigma, m, k,
                                                          zs)):
                worst = max(worst, abs(value - want) / max(1.0, abs(want)))
    return worst


#: the disk-side map: relative to max(1, |Phi_k|), the alternating monomial
#: sum lost up to 4.5e-8 at c = 8, m = 2 and 9e7 at c = 1, m = 20
MAP_TOL = {0.5: 1e-12, 1.0: 1e-12, 3.0: 1e-12, 8.0: 5e-12}


@pytest.mark.parametrize("c", [1.0, 8.0])
@pytest.mark.parametrize("m", [2, 5, 20])
def test_disk_side_map(c, m):
    zs = [0.85, -0.85, -0.6j, 0.5 - 0.6j]
    assert disk_side_error(c, m, (15, 100, 212), zs) <= MAP_TOL[c]


@pytest.mark.slow
@pytest.mark.parametrize("c", [0.5, 1.0, 3.0, 8.0])
@pytest.mark.parametrize("m", [0, 1, 2, 5, 20, 40])
def test_disk_side_map_full(c, m):
    zs = [0.85, -0.85, -0.6j, 0.5 - 0.6j, 0.3 + 0.2j]
    ks = (0, 1, 3, 15, 40, 100, 212, 250)
    assert disk_side_error(c, m, ks, zs) <= MAP_TOL[c]


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


def _scalar_maass_fd(idx, psi, z, h):
    """Reference: the 9-point stencil one point at a time, each stencil
    point a Python complex -- the arithmetic of a scalar z."""
    x, y = z.real, z.imag
    center = psi(z)
    east, west = psi(complex(x + h, y)), psi(complex(x - h, y))
    north, south = psi(complex(x, y + h)), psi(complex(x, y - h))
    corners = (psi(complex(x + h, y + h)) + psi(complex(x - h, y + h))
               + psi(complex(x + h, y - h)) + psi(complex(x - h, y - h)))
    lap = (4.0 * (east + west + north + south) + corners - 20.0 * center) / (6.0 * h * h)
    dzbar = 0.5 * ((east - west) / (2.0 * h) + 1j * (north - south) / (2.0 * h))
    r = abs(z) ** 2
    return -4.0 * (1.0 - r) * ((1.0 - r) * 0.25 * lap - idx.sigma * np.conj(z) * dzbar)


class TestStencilsOverArrays:
    """The FD helpers take an array of z: psi is called once, on the
    stencil points stacked along a leading axis ahead of the shape of z,
    and each element has the bits of the one-element-array call; a scalar z
    calls psi once per stencil point on Python complex scalars, with the
    scalar arithmetic."""

    IDX = LandauIndex(7.5, 1)
    Z = np.array([[0.3 + 0.2j, -0.32, 0.0], [0.1j, -0.2 - 0.25j, 0.31 - 0.3j]])

    def psi(self, w):
        return basis_phi(3, self.IDX, w)

    def test_maass_elements_have_the_one_element_bits(self):
        shapes = []

        def psi(w):
            shapes.append(np.shape(w))
            return self.psi(w)

        got = maass_apply_fd(self.IDX, psi, self.Z, 1e-4)
        assert got.shape == self.Z.shape and shapes == [(9,) + self.Z.shape]
        for i, z in np.ndenumerate(self.Z):
            alone = maass_apply_fd(self.IDX, self.psi, np.array([z]), 1e-4)
            assert alone.shape == (1,) and alone.tobytes() == got[i].tobytes()
            scalar = maass_apply_fd(self.IDX, self.psi, z, 1e-4)
            assert abs(scalar - got[i]) < 1e-7 * (1.0 + abs(scalar))

    def test_maass_scalar_z_keeps_its_arithmetic(self):
        for z in (0.3 + 0.2j, -0.32, 0.1j):
            got = maass_apply_fd(self.IDX, self.psi, z, 1e-4)
            want = _scalar_maass_fd(self.IDX, self.psi, complex(z), 1e-4)
            assert type(got) is type(want)
            assert np.array(got).tobytes() == np.array(want).tobytes()

    def test_scalar_only_psi(self):
        # a psi that takes a Python complex alone still works at a scalar z
        def psi(w):
            assert type(w) is complex
            return w * w.conjugate()

        # |w|^2: d^2/dz dzbar = 1 and d/dzbar = z, at r = |z|^2 = 0.1
        val = maass_apply_fd(LandauIndex(4.0, 0), psi, 0.3 + 0.1j, 1e-4)
        assert abs(val - (-4.0) * 0.9 * (0.9 - 4.0 * 0.1)) < 1e-6
        assert abs(wirtinger_dzbar_fd(psi, 0.3 + 0.1j) - (0.3 + 0.1j)) < 1e-7

    def test_wirtinger_keeps_the_values_axes(self):
        # psi's own trailing axes ride along, as the m = 0 kernel's xi do
        xi = np.array([1.0, 2.0, 3.0])
        shapes = []

        def psi(w):
            shapes.append(np.shape(w))
            return np.conj(w)[..., None] ** 2 * xi

        got = wirtinger_dzbar_fd(psi, self.Z, 1e-4)
        assert got.shape == self.Z.shape + (3,)
        assert shapes == [(4,) + self.Z.shape]
        for i, z in np.ndenumerate(self.Z):
            alone = wirtinger_dzbar_fd(psi, np.array([z]), 1e-4)
            assert alone.tobytes() == got[i].tobytes()
            want = 2.0 * np.conj(z) * xi
            assert np.abs(got[i] - want).max() < 1e-7
        scalar = wirtinger_dzbar_fd(lambda w: w ** 3, 0.2 + 0.1j, 1e-4)
        x, y, h = 0.2, 0.1, 1e-4
        want = 0.5 * ((complex(x + h, y) ** 3 - complex(x - h, y) ** 3)
                      / (2.0 * h) + 1j * (complex(x, y + h) ** 3
                                          - complex(x, y - h) ** 3) / (2.0 * h))
        assert type(scalar) is complex and scalar == want

    def test_empty_and_boundary(self):
        assert maass_apply_fd(self.IDX, self.psi, np.zeros(0)).shape == (0,)
        assert wirtinger_dzbar_fd(self.psi, np.zeros((2, 0))).shape == (2, 0)
        # one point of the array within 2h of the circle refuses the call
        with pytest.raises(DomainError, match="too close"):
            maass_apply_fd(self.IDX, self.psi, np.array([0.1, 0.9999]), 1e-3)
        with pytest.raises(DomainError):
            maass_apply_fd(self.IDX, self.psi, np.array([0.1, math.nan]))

    @pytest.mark.parametrize("h", [0.0, -0.0, math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("z", [0.2 + 0.1j, np.array([0.2 + 0.1j, -0.3j])],
                             ids=["scalar", "array"])
    def test_step_must_be_finite_and_nonzero(self, h, z):
        # h = 0 raised ZeroDivisionError at a scalar z and gave NaN at an
        # array z; wirtinger_dzbar_fd gave NaN at h = NaN or inf
        calls = []

        def psi(w):
            calls.append(w)
            return self.psi(w)

        with pytest.raises(DomainError, match="step"):
            maass_apply_fd(self.IDX, psi, z, h)
        with pytest.raises(DomainError, match="step"):
            wirtinger_dzbar_fd(psi, z, h)
        assert calls == []

    def test_negative_step_keeps_the_boundary_test(self):
        # the stencil reaches 2|h| from z whatever the sign of h; with
        # h = -1e-3 the point 0.9985 passed the test on |z| + 2h
        with pytest.raises(DomainError, match="too close"):
            maass_apply_fd(self.IDX, self.psi, 0.9985, -1e-3)
        z = 0.3 + 0.2j
        minus = maass_apply_fd(self.IDX, self.psi, z, -1e-4)
        plus = maass_apply_fd(self.IDX, self.psi, z, 1e-4)
        assert abs(minus - plus) < 1e-7 * (1.0 + abs(plus))
