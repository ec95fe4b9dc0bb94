"""Hypergeometric kernels and their reference oracles: frozen values,
reductions, and domain checks."""

import cmath
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.polynomial.legendre import leggauss

from relbargmann.errors import DomainError, NonConvergenceError, PoleError
from relbargmann.hypergeom import (_nonpos_int, _series_2f1_vec,
                                   f5_kernel_vec, gauss_2f1, gauss_2f1_vec,
                                   pochhammer)
from relbargmann.orthopoly import jacobi_p, laguerre_l
from relbargmann.oscillator import OscParams
from relbargmann.quadrature import gauss_jacobi, gauss_legendre
from relbargmann.reference import (F5Args, appell_f1, kdf_f5_integral,
                                   kdf_f5_series)
from relbargmann.special import loggamma
from relbargmann.verification import _f5_reduction

# mpmath loggamma(2+3i), 30 digits
LOGGAMMA_2_3I = complex(-2.0928517530927333496, 2.3023965434668676262)
# mpmath hyp2f1(0.9+0.4i, 1.3-0.2i; 2.1+0.1i; 0.35+0.2i)
HYP2F1_SPOT = complex(1.1827288309065334069, 0.26332115111934873008)
# 3F2(-3, 1.8+0.6i, 1.8-0.6i; 3.6, 2.3; 1), exact finite sum at 30 digits
HYP3F2_SPOT = 0.25588969726658213052


def _scalar_series_2f1(a, b, c, w):
    """Reference: the Gauss series summed one term at a time in Python
    complex arithmetic, stopping after 20 consecutive terms below eps times
    the sum -- the scalar summation the vector series replaced."""
    eps = float(np.finfo(float).eps)
    a, b, c, w = complex(a), complex(b), complex(c), complex(w)
    total = term = 1.0 + 0.0j
    small = 0
    for k in range(10_000):
        term *= (a + k) * (b + k) / ((c + k) * (k + 1)) * w
        total += term
        if term == 0.0:
            return total
        if abs(term) < eps * (1.0 + abs(total)):
            small += 1
            if small >= 20:
                return total
        else:
            small = 0
    raise AssertionError("reference series did not settle")


def hyp3f2_terminating_unit(n: int, a2, a3, b1, b2) -> complex:
    """3F2(-n, a2, a3; b1, b2; 1) as the exact finite sum over n+1 terms:
    the reference of the continuous dual Hahn recurrence."""
    if n < 0 or n != int(n):
        raise DomainError("3F2 termination order must be a nonnegative integer")
    n = int(n)
    for b in (b1, b2):
        q = _nonpos_int(b)
        if q is not None and q < n:
            raise PoleError(f"3F2 denominator parameter {b} hits a pole")
    a2, a3, b1, b2 = complex(a2), complex(a3), complex(b1), complex(b2)
    total = 1.0 + 0.0j
    term = 1.0 + 0.0j
    for k in range(n):
        term *= (-n + k) * (a2 + k) * (a3 + k) / ((b1 + k) * (b2 + k) * (k + 1))
        total += term
    return total


class TestLnGamma:
    """The principal log-gamma the package takes from ``special``."""

    def test_at_one(self):
        assert loggamma(1.0) == 0.0

    def test_at_half(self):
        assert abs(loggamma(0.5) - math.log(math.sqrt(math.pi))) < 1e-14

    def test_complex_reference(self):
        assert abs(loggamma(2 + 3j) - LOGGAMMA_2_3I) < 1e-12

    def test_exp_matches_factorials(self):
        for n in range(1, 10):
            assert abs(np.exp(loggamma(n + 1)) - math.factorial(n)) \
                < 1e-12 * math.factorial(n)

    @pytest.mark.parametrize("bad", [0.0, -1.0, -7.0])
    def test_poles(self, bad):
        assert np.isnan(loggamma(bad))


class TestPochhammer:
    def test_empty_product(self):
        assert pochhammer(1.7 + 0.3j, 0) == 1.0

    def test_factorial(self):
        assert pochhammer(1.0, 5) == 120.0

    def test_gamma_ratio(self):
        # (a)_n = Gamma(a + n)/Gamma(a), cross-checked through loggamma
        a, n = 2.8, 7
        ratio = np.exp(loggamma(a + n) - loggamma(a))
        assert abs(pochhammer(a, n) - ratio) < 1e-12 * abs(ratio)

    def test_large_order_switches_to_gamma(self):
        # n = 140 exceeds the direct-product threshold but stays clear of
        # double-precision overflow
        a = 0.3 + 0.2j
        direct = 1.0 + 0.0j
        for i in range(140):
            direct *= a + i
        assert abs(pochhammer(a, 140) - direct) < 1e-10 * abs(direct)

    def test_terminating_zero(self):
        assert pochhammer(-3.0, 5) == 0.0

    @pytest.mark.parametrize("q, n", [(150, 140), (129, 129), (200, 129),
                                      (250, 130), (140, 141), (150, 151)])
    def test_nonpositive_integer_past_128(self, q, n):
        # a = -q with n > 128 took exp(loggamma(a + n) - loggamma(a)) at two
        # poles and gave nan; the product is exact up to rounding (0 once
        # n > q)
        mp = pytest.importorskip("mpmath")
        with mp.workdps(30):
            want = complex(mp.rf(-q, n))
        got = pochhammer(-float(q), n)
        assert cmath.isfinite(got)
        assert abs(got - want) <= 1e-13 * abs(want)

    def test_negative_order_rejected(self):
        with pytest.raises(DomainError):
            pochhammer(1.0, -1)


class TestNonFiniteArguments:
    @pytest.mark.parametrize("args", [(math.nan, 1.0, 2.0, 0.3),
                                      (1.0, math.inf, 2.0, 0.3),
                                      (1.0, 1.0, complex(2.0, math.nan), 0.3),
                                      (-2.0, 1.0, 2.0, math.inf)])
    def test_gauss_2f1(self, args):
        # a NaN parameter raised a bare ValueError from int(nan)
        with pytest.raises(DomainError, match="not finite"):
            gauss_2f1(*args)

    @pytest.mark.parametrize("args", [
        (1.0, 1.0, 1.5, math.nan),
        (math.nan, 1.0, 1.5, 0.3),
        (np.array([1.0, math.nan]), 1.0, 1.5, 0.3),
        (1.0, 1.0, complex(1.5, math.nan), 0.3),
        (1.0, 1.0, 1.5, complex(0.2, math.inf)),
        (1.0, 1.0, 1.5, math.inf),
        (1.0, 1.0, 1.5, np.array([0.3, math.nan])),
        (1.0, 1.0, 1.5, np.array([-0.2, math.inf]))])
    def test_gauss_2f1_vec(self, args):
        # these raised NonConvergenceError (the series overflowed at
        # |w| = nan), and z = inf passed the domain test, inf/(inf - 1)
        # being NaN
        with pytest.raises(DomainError, match="not finite"):
            gauss_2f1_vec(*args)

    @pytest.mark.parametrize("name", ["c", "e", "ap", "chi", "zeta"])
    def test_f5_kernel_vec(self, name):
        # a NaN chi raised NonConvergenceError, a NaN a' gave a NaN value
        args = dict(c=1.2 + 0.5j, d=1.2 - 0.5j, e=1.7, m=1, ap=2.4, chi=0.15,
                    zeta=0.2)
        args[name] = math.nan
        with pytest.raises(DomainError, match="not finite"):
            f5_kernel_vec(**args)

    @pytest.mark.parametrize("a", [math.inf, math.nan, complex(1.0, -math.inf)])
    def test_pochhammer(self, a):
        # pochhammer(inf, 3) returned NaN
        with pytest.raises(DomainError, match="not finite"):
            pochhammer(a, 3)


class TestGauss2F1:
    def test_at_zero(self):
        assert gauss_2f1(0.3, 1.7, 2.2, 0.0) == 1.0

    def test_degree_one(self):
        b, c, x = 1.4, 2.3, 0.37
        assert abs(gauss_2f1(-1.0, b, c, x) - (1.0 - b * x / c)) < 1e-15

    def test_pfaff_spot(self):
        a, b, c, x = 0.7, 0.3, 1.9, 0.4
        lhs = gauss_2f1(a, b, c, x)
        rhs = (1.0 - x) ** (-a) * gauss_2f1(a, c - b, c, x / (x - 1.0))
        assert abs(lhs - rhs) < 1e-14

    def test_complex_reference(self):
        got = gauss_2f1(0.9 + 0.4j, 1.3 - 0.2j, 2.1 + 0.1j, 0.35 + 0.2j)
        assert abs(got - HYP2F1_SPOT) < 1e-13

    def test_domain_error_outside_disk(self):
        # min(|z|, |z/(z-1)|) >= 1: Re z >= 1/2 outside the unit disk
        for z in (1.2, 1.0, 0.6 + 0.9j):
            with pytest.raises(DomainError):
                gauss_2f1(0.5, 0.7, 1.9, z)

    def test_pfaff_domain_outside_disk(self):
        # |z| >= 1 with Re z < 1/2 is summed at the Pfaff image z/(z-1)
        a, b, c = 0.5, 0.7, 1.9
        for z in (-3.0, -0.9 + 0.5j):
            zp = z / (z - 1.0)
            want = (1.0 - z) ** (-a) * _scalar_series_2f1(a, c - b, c, zp)
            assert abs(gauss_2f1(a, b, c, z) - want) < 1e-14

    def test_terminating_outside_disk(self):
        # polynomial case is exact at any argument
        val = gauss_2f1(-2.0, 1.5, 2.5, 3.0)
        exact = 1.0 - 2 * 1.5 / 2.5 * 3.0 + (2 * 1) / 2 * (1.5 * 2.5) / (2.5 * 3.5) * 9.0
        assert abs(val - exact) < 1e-12

    def test_lower_pole(self):
        with pytest.raises(PoleError):
            gauss_2f1(0.5, 0.7, -2.0, 0.3)

    def test_pole_after_termination_is_fine(self):
        # series terminates at the -1 upper parameter before c = -3 bites
        val = gauss_2f1(-1.0, 2.0, -3.0, 0.5)
        assert abs(val - (1.0 - 2.0 * 0.5 / -3.0)) < 1e-14

    @settings(max_examples=60, deadline=None)
    @given(a=st.floats(-2.0, 3.0), b=st.floats(-2.0, 3.0),
           c=st.floats(0.5, 4.0), x=st.floats(-0.49, 0.49))
    def test_pfaff_property(self, a, b, c, x):
        lhs = gauss_2f1(a, b, c, x)
        rhs = (1.0 - x) ** (-a) * gauss_2f1(a, c - b, c, x / (x - 1.0))
        assert abs(lhs - rhs) <= 1e-10 * (1.0 + abs(lhs))

    @settings(max_examples=40, deadline=None)
    @given(g=st.floats(1.05, 2.5), xi=st.floats(0.01, 3.0),
           x=st.floats(-0.45, 0.45))
    def test_conjugation_symmetry(self, g, xi, x):
        # conjugate parameter pairs give conjugate values at real arguments
        up = gauss_2f1(g + 1j * xi, g - 1j * xi, 2 * g, x)
        dn = gauss_2f1(g - 1j * xi, g + 1j * xi, 2 * g, x)
        assert abs(up - np.conj(dn)) < 1e-12 * (1.0 + abs(up))
        assert abs(up.imag) < 1e-12 * (1.0 + abs(up))

    def test_vectorised_matches_scalar(self):
        xi = np.array([0.3, 1.1, 2.4])
        a = 1.4 - 1j * xi
        b = 0.5 - 1j * xi
        got = gauss_2f1_vec(a, b, 1.9, 0.3 + 0.1j)
        # |z| < |z/(z-1)| here, so the plain series at z is summed
        want = [_scalar_series_2f1(ai, bi, 1.9, 0.3 + 0.1j)
                for ai, bi in zip(a, b)]
        assert np.max(np.abs(got - np.asarray(want))) < 1e-13
        for ai, bi, gi in zip(a, b, got):
            assert gauss_2f1(ai, bi, 1.9, 0.3 + 0.1j) == gi


#: arguments of both kinds: summed at z (|z| < |z/(z-1)|), at the Pfaff
#: image (|z| >= 1 with Re z < 1/2 among them), and z = 0
ARRAY_Z = np.array([0.3 + 0.1j, -3.0, -0.9 + 0.5j, 0.0, 0.45j, -0.6 - 0.2j,
                    0.35 + 0.2j])


class TestGauss2F1ArrayArgument:
    """``gauss_2f1_vec`` over an array of z: the Pfaff image chosen per
    element, each element with the bits of the one-element-array call, and
    a scalar z summed as that one-element array."""

    A, B, C = 0.9 + 0.4j, 1.3 - 0.2j, 2.1 + 0.1j

    def test_elements_have_the_one_element_bits(self):
        got = gauss_2f1_vec(self.A, self.B, self.C, ARRAY_Z)
        assert got.shape == ARRAY_Z.shape
        for i in range(ARRAY_Z.size):
            alone = gauss_2f1_vec(self.A, self.B, self.C, ARRAY_Z[i:i + 1])
            assert alone.shape == (1,) and alone.tobytes() == got[i].tobytes()
        # and so has the scalar call
        scalar = [gauss_2f1_vec(self.A, self.B, self.C, z) for z in ARRAY_Z]
        assert np.array(scalar).tobytes() == got.tobytes()
        assert abs(got[-1] - HYP2F1_SPOT) < 1e-13

    def test_parameters_broadcast_with_z(self):
        xi = np.array([0.3, 1.1, 2.4])[:, None]
        got = gauss_2f1_vec(1.4 - 1j * xi, 0.5 - 1j * xi, 1.9, ARRAY_Z)
        assert got.shape == (3, ARRAY_Z.size)
        for i in range(3):
            for j in range(ARRAY_Z.size):
                alone = gauss_2f1_vec(1.4 - 1j * xi[i], 0.5 - 1j * xi[i], 1.9,
                                      ARRAY_Z[j:j + 1])
                assert alone.tobytes() == got[i, j].tobytes()
        assert gauss_2f1_vec(1.4, 0.5, 1.9,
                             ARRAY_Z.reshape(7, 1)).shape == (7, 1)

    def test_empty(self):
        assert gauss_2f1_vec(1.0, 1.0, 1.5, np.zeros(0)).shape == (0,)
        assert gauss_2f1_vec(np.zeros((0, 1)), 1.0, 1.5,
                             np.full(3, 0.2)).shape == (0, 3)

    @pytest.mark.parametrize("z", [0.3 + 0.1j, -0.9 + 0.5j, -3.0, 0.0])
    def test_scalar_z_keeps_the_scalar_series(self, z):
        # a scalar z is summed by the one series as the one-element array:
        # at z, or at its Pfaff image times (1 - z)^(-a), bit for bit, in
        # an array of the parameters' shape (z = 0 sums to exactly 1)
        xi = np.array([0.3, 1.1, 2.4])
        a, b, c = 1.4 - 1j * xi, 0.5 - 1j * xi, 1.9
        got = gauss_2f1_vec(a, b, c, z)
        one = np.array([z], dtype=complex)
        zp = one / (one - 1.0)
        if abs(zp[0]) < abs(z):
            want = (1.0 - one) ** (-a) * _series_2f1_vec(a, c - b, c, zp)
        else:
            want = _series_2f1_vec(a, b, c, one)
        assert type(got) is np.ndarray and got.shape == (3,)
        assert got.tobytes() == want.tobytes()
        if z == 0.0:
            assert got.tobytes() == np.ones(3, dtype=complex).tobytes()
        assert gauss_2f1_vec(self.A, self.B, self.C, z).shape == ()

    def test_no_pfaff_factor_at_a_direct_element(self):
        # at z = 0.99 the series is summed at z, and (1 - z)^(-200) would
        # overflow: the factor is taken at the Pfaff element -0.5 alone
        z = np.array([0.99, -0.5])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = gauss_2f1_vec(200, 0.5, 300, z)
        for i in range(z.size):
            alone = gauss_2f1_vec(200, 0.5, 300, z[i:i + 1])
            assert alone.tobytes() == got[i].tobytes()
            scalar = gauss_2f1_vec(200, 0.5, 300, z[i])
            assert scalar.tobytes() == got[i].tobytes()

    def test_domain_error_names_the_first_z_outside(self):
        for z in (1.2, 1.0, 0.6 + 0.9j):
            with pytest.raises(DomainError, match="series/Pfaff domain"):
                gauss_2f1_vec(0.5, 0.7, 1.9, np.array([0.3, z, 0.2]))
        with pytest.raises(DomainError, match=r"z = \(1\.2\+0j\)"):
            gauss_2f1_vec(0.5, 0.7, 1.9, np.array([0.3, 1.2, 1.0]))
        with pytest.raises(DomainError, match=r"z = \(1\.2\+0j\)"):
            gauss_2f1_vec(0.5, 0.7, 1.9, 1.2)


class TestF5KernelBroadcast:
    """``f5_kernel_vec`` broadcasts e, a', chi and zeta with c and d."""

    XI = np.array([0.4, 1.3, 3.0])
    G = 1.3660254037844386
    CHI = np.array([-0.3, 0.15, -1.5, 0.05])
    ZETA = np.array([0.4 + 0.2j, 0.2, 1.2 - 0.4j, -0.3j])

    @pytest.mark.parametrize("m", [0, 1, 2])
    def test_elements_have_the_one_element_bits(self, m):
        c, d = self.G - 1j * self.XI, self.G + 1j * self.XI
        e = self.G + 0.5 + np.arange(4.0)[:, None] / 8
        chi, zeta = self.CHI[:, None], self.ZETA[:, None]
        got = f5_kernel_vec(c, d, e, m, 2 * self.G, chi, zeta)
        assert got.shape == (4, 3)
        for i in range(4):
            # e, chi and zeta of one element each, shape (1,)
            alone = f5_kernel_vec(c, d, e[i], m, 2 * self.G, chi[i], zeta[i])
            assert alone.shape == (3,)
            assert alone.tobytes() == got[i].tobytes()
            # and so has the call at scalar e, chi and zeta
            scalar = f5_kernel_vec(c, d, complex(e[i, 0]), m, 2 * self.G,
                                   self.CHI[i], self.ZETA[i])
            assert scalar.tobytes() == got[i].tobytes()

    @pytest.mark.parametrize("m", [0, 1, 3])
    def test_scalar_arguments_keep_their_arithmetic(self, m):
        # scalar e, a', chi and zeta keep the arithmetic of their
        # one-element arrays, in an array of the shape of c and d
        c, d = self.G - 1j * self.XI, self.G + 1j * self.XI
        got = f5_kernel_vec(c, d, self.G + 0.5, m, 2 * self.G, 0.15 - 0.1j,
                            0.2 + 0.3j)
        want = f5_kernel_vec(c, d, [self.G + 0.5], m, [2 * self.G],
                             [0.15 - 0.1j], [0.2 + 0.3j])
        assert type(got) is np.ndarray and got.shape == self.XI.shape
        assert got.tobytes() == want.tobytes()

    def test_a_equals_aprime_is_one_gauss_call(self):
        # m = 0: the collapse F5 = 2F1(c, d; e; chi + zeta), its bits too
        c, d = 1.2 + 0.5j, 1.2 - 0.5j
        got = f5_kernel_vec(c, d, 1.7, 0, 2.4, self.CHI, self.ZETA)
        want = gauss_2f1_vec(c, d, 1.7, self.CHI + self.ZETA)
        assert got.tobytes() == want.tobytes()

    def test_empty(self):
        assert f5_kernel_vec(np.zeros(0), np.zeros(0), 1.7, 1, 2.4, 0.15,
                             0.2).shape == (0,)
        assert f5_kernel_vec(1.2, 1.2, 1.7, 1, 2.4, np.zeros(0),
                             np.zeros(0)).shape == (0,)

    def test_ray_names_the_first_argument_on_it(self):
        with pytest.raises(DomainError, match=r"off the ray.*\(1\.5\+0j\)"):
            f5_kernel_vec(1.2, 1.2, 1.7, 1, 2.4, np.array([0.1, 1.0, 2.0]),
                          np.array([0.2, 0.5, 0.5]))


def _abs_series(a, b, c, w):
    """Sum of the moduli of the Gauss series terms: the scale of the
    rounding error of any summation of the series."""
    term = total = 1.0
    for k in range(100_000):
        term *= abs((a + k) * (b + k) / ((c + k) * (k + 1)) * w)
        total += term
        if term < 1e-18 * total:
            return total
    raise AssertionError("reference series did not settle")


def _kernel_series_cases():
    """Parameters a = gamma + m - i xi, xi in (0, 82], at the series
    arguments the transform kernel sums at for disk points up to |z| = 0.85:
    s = chi + zeta = -z/(1 - z), or its Pfaff image z, whichever is smaller."""
    xi = np.linspace(82.0 / 83, 82.0, 83)
    for c_osc in (0.6, 2.0):
        gamma = OscParams(c_osc).gamma
        for m, l in ((0, 0), (2, 2)):
            for z in (0.3 + 0.2j, -0.85, 0.85j, 0.85 * np.exp(0.6j)):
                s = -z / (1.0 - z)
                a = gamma + m - 1j * xi
                if abs(s) <= abs(z):
                    yield a, gamma + l + 1j * xi, gamma + 0.5 + l, s
                else:
                    yield a, 0.5 - 1j * xi, gamma + 0.5 + l, z


def _gauss_map_cases():
    """(label, a, b, c, z) for the mpmath map of gauss_2f1: the transform
    kernel's series, the oracles' ranges, and |z| >= 1 with Re z < 1/2."""
    for a, b, c, w in _kernel_series_cases():
        for ai, bi in zip(a, b):
            yield "kernel", complex(ai), complex(bi), c, w
    rng = np.random.default_rng(20240617)
    for _ in range(200):
        a, b = rng.uniform(-2.0, 3.0, 2)
        yield "oracle", a, b, rng.uniform(0.4, 4.0), rng.uniform(-0.5, 0.5)
    for _ in range(200):
        a, b = rng.uniform(-2.0, 3.0, 2) + 1j * rng.uniform(-1.5, 1.5, 2)
        z = 0.5 * math.sqrt(rng.uniform()) * np.exp(2j * np.pi * rng.uniform())
        yield "oracle", a, b, rng.uniform(0.4, 4.0), z
    for z in (-3.0, -0.9 + 0.5j):
        for _ in range(20):
            a, b = rng.uniform(-2.0, 3.0, 2) + 1j * rng.uniform(-1.0, 1.0, 2)
            yield "wide", a, b, rng.uniform(0.4, 4.0), z


def test_gauss_2f1_mpmath_map():
    # error against 30 digits, measured on the scale of the series actually
    # summed (z or its Pfaff image); the oracles' ranges also keep it
    # relative to max(1, |F|)
    mp = pytest.importorskip("mpmath")
    mp.mp.dps = 30
    worst = {}
    for label, a, b, c, z in _gauss_map_cases():
        got = gauss_2f1(a, b, c, z)
        want = complex(mp.hyp2f1(mp.mpc(a), mp.mpc(b), mp.mpc(c), mp.mpc(z)))
        zp = z / (z - 1.0)
        if abs(zp) < abs(z):
            scale = (abs((1.0 - z) ** (-a))
                     * _abs_series(complex(a), complex(c - b), c, zp))
        else:
            scale = _abs_series(a, b, c, z)
        err = abs(got - want)
        old = worst.get(label, (0.0, 0.0))
        worst[label] = (max(old[0], err / scale),
                        max(old[1], err / max(1.0, abs(want))))
    assert set(worst) == {"kernel", "oracle", "wide"}
    assert all(on_scale <= 1e-13 for on_scale, _ in worst.values())
    assert worst["oracle"][1] <= 1e-14


class TestSeries2F1Vec:
    @pytest.mark.parametrize("case", list(_kernel_series_cases()))
    def test_matches_scalar_series(self, case):
        a, b, c, w = case
        got = _series_2f1_vec(a, b, c, w)
        want = np.array([_scalar_series_2f1(ai, bi, c, w)
                         for ai, bi in zip(a, b)])
        scale = np.array([_abs_series(ai, bi, c, w) for ai, bi in zip(a, b)])
        diff = np.abs(got - want)
        # both sums are exact up to rounding of their largest terms ...
        assert np.all(diff <= 1e-13 * scale)
        # ... which is relative accuracy where the terms do not cancel; at
        # large xi they do, and neither sum keeps relative digits there
        well = scale <= 100.0 * np.abs(want)
        assert well[0]
        assert np.all(diff[well] <= 1e-13 * np.abs(want[well]))
        # one element at a time (the eval path) gives the same bits
        for i in (0, len(a) // 2, len(a) - 1):
            one = _series_2f1_vec(a[i:i + 1], b[i:i + 1], c, w)
            assert one.shape == (1,) and one[0] == got[i]
            assert _series_2f1_vec(a[i], b[i], c, w) == got[i]

    def test_overflow_raises(self):
        xi = np.array([1.0, 3000.0])
        with pytest.raises(NonConvergenceError):
            _series_2f1_vec(1.5 - 1j * xi, 1.5 + 1j * xi, 2.0, 0.6)
        with pytest.raises(NonConvergenceError):
            gauss_2f1_vec(1.5 - 1j * xi, 0.5 - 1j * xi, 2.0, 0.6 + 0.2j)

    def test_empty_and_scalar_shapes(self):
        assert _series_2f1_vec(np.zeros(0), np.zeros(0), 1.5, 0.3).shape == (0,)
        got = _series_2f1_vec(1.2, 0.7, 1.5, 0.3)
        assert got.shape == ()
        assert abs(got - _scalar_series_2f1(1.2, 0.7, 1.5, 0.3)) < 1e-14
        assert _series_2f1_vec(np.zeros(0), 0.7, 1.5, np.zeros(0)).shape == (0,)

    def test_array_argument_elementwise(self):
        # an array of w (the F5 integral's nodes) against one call per
        # element, each with w as a length-1 array: the same bits
        rng = np.random.default_rng(3)
        w = 0.9 * np.sqrt(rng.uniform(0, 1, 40)) * np.exp(
            2j * np.pi * rng.uniform(0, 1, 40))
        for a, b, c in ((1.3 + 0.4j, 0.6 - 0.2j, 1.7), (2.5, -0.5, 0.9 + 0.3j)):
            got = _series_2f1_vec(a, b, c, w)
            assert got.shape == w.shape
            alone = np.array([_series_2f1_vec(a, b, c, w[i:i + 1])[0]
                              for i in range(w.size)])
            assert np.array_equal(got, alone)
            want = np.array([_scalar_series_2f1(a, b, c, wi) for wi in w])
            assert np.max(np.abs(got - want) / np.abs(want)) < 1e-13
        # parameters and argument broadcast against each other
        xi = np.array([0.5, 2.0, 4.0])
        got = _series_2f1_vec(1.2 - 1j * xi[:, None], 0.5 + 1j * xi[:, None],
                              1.8, w[None, :5])
        assert got.shape == (3, 5)
        for i in range(3):
            assert np.array_equal(
                got[i], _series_2f1_vec(1.2 - 1j * xi[i], 0.5 + 1j * xi[i],
                                        1.8, w[:5]))


class TestHyp3F2:
    def test_single_term(self):
        assert hyp3f2_terminating_unit(0, 1.1, 2.2, 3.3, 4.4) == 1.0

    def test_two_terms(self):
        a2, a3, b1, b2 = 2.0, 3.0, 1.5, 2.5
        want = 1.0 - a2 * a3 / (b1 * b2)
        assert abs(hyp3f2_terminating_unit(1, a2, a3, b1, b2) - want) < 1e-15

    def test_reference_value(self):
        got = hyp3f2_terminating_unit(3, 1.8 + 0.6j, 1.8 - 0.6j, 3.6, 2.3)
        assert abs(got - HYP3F2_SPOT) < 1e-14

    def test_euler_integral_oracle(self):
        # 3F2(alpha, beta, rho; tau, rho+omega; 1) equals the Euler-type
        # integral of the inner Gauss polynomial, done here with a test-local
        # logit-panel quadrature that never touches the library integrator.
        g, xi = 1.8, 0.6
        alpha, beta = -3, g + 1j * xi
        rho, tau, omega = g - 1j * xi, 2 * g, 0.5 + 1j * xi

        def inner(t):
            return np.asarray([gauss_2f1(alpha, beta, tau, tv) for tv in t])

        xg, wg = leggauss(24)
        total = 0.0 + 0.0j
        h = 0.4
        for v0 in np.arange(-60.0, 90.0, h):
            v = v0 + 0.5 * h + 0.5 * h * xg
            log_t = -np.logaddexp(0.0, -v)
            log_1mt = -np.logaddexp(0.0, v)
            t = np.exp(log_t)
            vals = np.exp(rho * log_t + omega * log_1mt) * inner(t)
            total += 0.5 * h * np.sum(wg * vals)
        total *= np.exp(loggamma(rho + omega) - loggamma(rho) - loggamma(omega))
        want = hyp3f2_terminating_unit(3, beta, rho, tau, rho + omega)
        assert abs(total - want) < 1e-9

    def test_denominator_pole(self):
        with pytest.raises(PoleError):
            hyp3f2_terminating_unit(4, 1.0, 2.0, -2.0, 3.0)


class TestAppellF1:
    def test_at_origin(self):
        assert appell_f1(0.9, 1.1, 1.3, 2.7, 0.0, 0.0) == 1.0

    def test_gauss_collapse_at_d_eq_b_plus_c(self):
        a, b, c = 1.3, 2.1, 0.4
        x, y = 0.2, -0.1
        lhs = appell_f1(a, b, c, b + c, x, y)
        rhs = (1.0 - y) ** (-a) * gauss_2f1(a, b, b + c, (x - y) / (1.0 - y))
        assert abs(lhs - rhs) < 1e-12

    def test_second_series_collapse(self):
        a, b, d, x = 0.8, 1.7, 2.9, 0.33
        got = appell_f1(a, b, 0.0, d, x, 0.64)
        assert abs(got - gauss_2f1(a, b, d, x)) < 1e-13

    def test_terminating_index_allows_large_y(self):
        # c = -2 terminates the y series; assemble the 3-term collapse by hand
        a, b, d, x, y = 0.9, 1.2, 2.6, 0.25, 4.0
        want = sum(pochhammer(a, q) * pochhammer(-2.0, q)
                   / (pochhammer(d, q) * math.factorial(q)) * y ** q
                   * gauss_2f1(a + q, b, d + q, x) for q in range(3))
        assert abs(appell_f1(a, b, -2.0, d, x, y) - want) < 1e-12

    def test_domain_error(self):
        with pytest.raises(DomainError):
            appell_f1(0.5, 0.6, 0.7, 1.8, 1.1, 0.2)

    def test_denominator_pole(self):
        with pytest.raises(PoleError):
            appell_f1(0.5, 0.6, 0.7, -1.0, 0.1, 0.2)


def _kernel_args(m=0, xi=0.7, chi=0.15, zeta=0.2):
    g = 1.3660254037844386
    return F5Args(c=g + 1j * xi, d=g - 1j * xi, e=g + 0.5, a=2 * g + m,
                  a_prime=2 * g, chi=chi, zeta=zeta)


class TestKdfF5:
    def test_chi_zero_collapse(self):
        args = F5Args(c=1.2 + 0.5j, d=1.2 - 0.5j, e=1.7, a=3.4, a_prime=2.4,
                      chi=0.0, zeta=0.2)
        want = gauss_2f1(args.c, args.d, args.e, 0.2)
        assert abs(_f5_reduction(args) - want) < 1e-11
        assert abs(kdf_f5_integral(args) - want) < 1e-10

    def test_a_equals_aprime_collapse(self):
        # the reduction itself sums this 2F1 here, so the double series
        # checks it
        args = F5Args(c=1.2 + 0.5j, d=1.2 - 0.5j, e=1.7, a=2.4, a_prime=2.4,
                      chi=0.15, zeta=0.2)
        want = gauss_2f1(args.c, args.d, args.e, 0.35)
        assert abs(kdf_f5_series(args) - want) < 1e-12

    def test_series_vs_integral_generic(self):
        args = F5Args(c=1.5 + 0.3j, d=1.5 - 0.3j, e=2.0, a=4.2, a_prime=3.0,
                      chi=0.1, zeta=0.15)
        assert abs(kdf_f5_series(args) - kdf_f5_integral(args)) < 1e-9

    @pytest.mark.parametrize("m", [0, 1, 2, 3])
    def test_three_paths_agree_integer_gap(self, m):
        args = _kernel_args(m=m)
        series = kdf_f5_series(args)
        assert abs(series - _f5_reduction(args)) < 1e-12 * (1 + abs(series))
        assert abs(series - kdf_f5_integral(args)) < 1e-10 * (1 + abs(series))

    def test_wide_domain_against_series_limit(self):
        # |zeta| > 1: the reduction path keeps working where the series cannot
        args = _kernel_args(m=1, chi=-5.0 / 3.0, zeta=4.0 / 3.0)
        with pytest.raises(DomainError):
            kdf_f5_series(args)
        val = _f5_reduction(args)
        assert np.isfinite(val.real) and np.isfinite(val.imag)

    def test_conjugation_symmetry(self):
        args = _kernel_args(m=1, xi=0.9)
        conj_args = F5Args(c=np.conj(args.c), d=np.conj(args.d), e=args.e,
                           a=args.a, a_prime=args.a_prime, chi=args.chi,
                           zeta=args.zeta)
        assert abs(_f5_reduction(conj_args)
                   - np.conj(_f5_reduction(args))) < 1e-12

    def test_validation(self):
        for route in (kdf_f5_series, kdf_f5_integral):
            with pytest.raises(DomainError):
                route(F5Args(c=1.0, d=-0.5, e=1.0, a=2.0, a_prime=2.0,
                             chi=0.1, zeta=0.1))
            with pytest.raises(DomainError):
                route(F5Args(c=1.0, d=0.5, e=0.3, a=2.0, a_prime=2.0,
                             chi=0.1, zeta=0.1))
            with pytest.raises(PoleError):
                route(F5Args(c=1.0, d=0.5, e=2.0, a=2.0, a_prime=-1.0,
                             chi=0.1, zeta=0.1))

    def test_no_valid_path_raises(self):
        # non-integer gap, far outside both series and integral domains
        args = F5Args(c=1.5 + 0.3j, d=1.5 - 0.3j, e=2.0, a=4.2, a_prime=3.0,
                      chi=-5.0, zeta=4.0 / 3.0)
        assert args.integer_gap() is None
        for route in (kdf_f5_series, kdf_f5_integral):
            with pytest.raises((DomainError, NonConvergenceError)):
                route(args)


#: every public call that takes an order (a degree, a level or a node
#: count) outside the oscillator and the disk, at that order
ORDER_CALLS = {
    "pochhammer": lambda n: pochhammer(1.0, n),
    "f5_kernel_vec": lambda n: f5_kernel_vec(1.0, 1.0, 1.5, n, 2.0, -0.5, 0.8),
    "jacobi_p": lambda n: jacobi_p(n, 0.5, 0.5, 0.3),
    "laguerre_l": lambda n: laguerre_l(n, 0.5, 0.3),
    "gauss_legendre": gauss_legendre,
    "gauss_jacobi": lambda n: gauss_jacobi(n, 0.5, 0.5),
}


@pytest.mark.parametrize("order", [math.nan, math.inf, -math.inf, 2.5,
                                   "two", None, -1])
@pytest.mark.parametrize("name", list(ORDER_CALLS))
def test_bad_order_raises_domain_error(name, order):
    with pytest.raises(DomainError, match="must be a nonnegative integer"):
        ORDER_CALLS[name](order)
