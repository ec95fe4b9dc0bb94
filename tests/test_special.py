"""The numpy replacements of the special functions, against mpmath and scipy.

``special.loggamma`` and ``special.gammaln``, the Gauss-Jacobi rules of
``quadrature.gauss_jacobi`` and the not-a-knot spline of
``spline.CubicSpline``, over the arguments the package passes them.  mpmath
(40 digits) is the reference; scipy, where it is installed, is a second
oracle for the rules' polynomials and for the spline.
"""

import math
import warnings

import numpy as np
import pytest

from relbargmann.bargmann import SampledFunction
from relbargmann.errors import InputFormatError
from relbargmann.quadrature import gauss_jacobi
from relbargmann.special import gammaln, loggamma
from relbargmann.spline import CubicSpline

mp = pytest.importorskip("mpmath")


@pytest.fixture(autouse=True)
def digits():
    with mp.workdps(40):
        yield


def mp_loggamma(z):
    return np.array([complex(mp.loggamma(mp.mpc(complex(v)))) for v in z])


RNG_SEED = 20261019


def sample(kind, n=300):
    """n points of ``kind``: gamma +- i xi or +- i xi, gamma in [1, 60]
    and xi in [0, 400]."""
    rng = np.random.default_rng(RNG_SEED)
    re = rng.uniform(1.0, 60.0, n) if kind.startswith("gamma") else 0.0
    sign = -1.0 if "-" in kind else 1.0
    return re + sign * 1j * rng.uniform(0.0, 400.0, n)


class TestLogGamma:
    @pytest.mark.parametrize("kind", ["gamma+ixi", "gamma-ixi", "+ixi",
                                      "-ixi"])
    def test_state_arguments(self, kind):
        # gamma +- i xi and +- i xi, gamma in [1, 60], xi <= 400: |loggamma|
        # reaches 2,000, and the error 4.7e-13 (scipy's is 6.8e-13)
        z = sample(kind)
        ref = mp_loggamma(z)
        assert np.all(np.abs(loggamma(z) - ref) <= 1e-15 * (1.0 + np.abs(ref)))

    def test_transform_range(self):
        # the layouts' range: gamma <= 3 (c <= 1.9), xi <= 40
        rng = np.random.default_rng(RNG_SEED)
        xi = rng.uniform(0.0, 40.0, 300)
        for gamma in (1.0001, 1.366, 2.93):
            for z in (gamma + 1j * xi, gamma - 1j * xi, 1j * xi, -1j * xi):
                ref = mp_loggamma(z)
                assert np.all(np.abs(loggamma(z) - ref)
                              <= 5e-15 + 1e-15 * np.abs(ref))

    def test_no_bias_at_fixed_gamma(self):
        # Re(z + 7) rounds gamma; uncorrected, that shifted the real part by
        # a constant over xi < 7 (-2.2e-15 at gamma = 2.2; scipy's mean
        # error is up to 7.4e-16 here), and the oscillator Gram by 7e-15
        xi = np.linspace(0.01, 7.0, 400)
        for gamma in (1.1336, 1.366, 2.2, 2.93):
            z = gamma + 1j * xi
            err = (loggamma(z) - mp_loggamma(z)).real
            assert abs(err.mean()) < 1.2e-15

    def test_small_arguments(self):
        rng = np.random.default_rng(RNG_SEED)
        z = rng.uniform(-3.0, 3.0, 300) + 1j * rng.uniform(-3.0, 3.0, 300)
        assert np.abs(loggamma(z) - mp_loggamma(z)).max() < 1e-14

    def test_exact_zeros_and_taylor_neighbourhoods(self):
        assert loggamma(1.0) == 0.0 and loggamma(2.0) == 0.0
        z = np.array([1.1, 0.85 + 0.1j, 2.15 - 0.05j, 1.9, 1.0 + 1e-7j])
        ref = mp_loggamma(z)
        assert np.all(np.abs(loggamma(z) - ref) <= 1e-15 * np.abs(ref) + 1e-17)

    @pytest.mark.parametrize("imag", [0.0, -0.0, 1e-3, -1e-3])
    def test_negative_axis_branch(self, imag):
        # the principal branch, the limit from above on the axis itself
        rng = np.random.default_rng(RNG_SEED)
        z = rng.uniform(-30.0, 0.0, 200) + 1j * imag
        z = z[np.abs(z.real - np.round(z.real)) > 1e-6]
        ref = mp_loggamma(z)
        got = loggamma(z)
        assert np.all(np.abs(got - ref) <= 2e-15 * (1.0 + np.abs(ref)))

    @pytest.mark.parametrize("pole", [0.0, -1.0, -2.0, -7.0, -30.0])
    def test_poles(self, pole):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert np.isnan(loggamma(pole))
            assert np.isnan(loggamma(np.array([1.5, pole, -0.5]))[1])

    def test_each_element_has_its_own_bits(self):
        # the layout and m = 0 caches evaluate loggamma on all nodes and
        # read it at some: an element's bits must not depend on the others
        rng = np.random.default_rng(RNG_SEED)
        xi = np.sort(rng.uniform(0.0, 40.0, 600))
        for z in (1.366 - 1j * xi, -1j * xi, 2.93 + 1j * xi):
            full = loggamma(z)
            for lo, size in ((0, 1), (3, 7), (17, 33), (5, 100)):
                part = loggamma(z[lo:lo + size].copy())
                assert part.tobytes() == full[lo:lo + size].tobytes()
            assert complex(loggamma(z[11])) == full[11]

    def test_scalar_in_scalar_out(self):
        assert np.ndim(loggamma(2.5 + 1j)) == 0
        assert loggamma(np.ones((2, 3))).shape == (2, 3)


def test_gammaln_matches_mpmath():
    rng = np.random.default_rng(RNG_SEED)
    x = np.concatenate([rng.uniform(0.5, 3.0, 200), rng.uniform(3.0, 1e3, 400),
                        np.arange(1.0, 60.0)])
    ref = np.array([float(mp.loggamma(mp.mpf(float(v)))) for v in x])
    got = gammaln(x)
    assert np.all(np.abs(got - ref) <= 2e-15 * np.maximum(1.0, np.abs(ref)))
    assert got.tobytes() == np.array([math.lgamma(v) for v in x]).tobytes()


def jacobi_table(nmax, alpha, beta, x):
    """P_0 .. P_nmax (standard normalisation) at x by DLMF 18.9.2, divided
    by the square roots of their norms: orthonormal for the weight."""
    ab = alpha + beta
    table = np.empty((nmax + 1, len(x)))
    table[0] = 1.0
    if nmax:
        table[1] = (alpha + 1.0) + (ab + 2.0) * (x - 1.0) / 2.0
    for n in range(2, nmax + 1):
        s = 2.0 * n + ab
        table[n] = ((s - 1.0) * (s * (s - 2.0) * x + alpha ** 2 - beta ** 2)
                    * table[n - 1]
                    - 2.0 * (n + alpha - 1.0) * (n + beta - 1.0) * s
                    * table[n - 2]) / (2.0 * n * (n + ab) * (s - 2.0))
    k = np.arange(nmax + 1, dtype=float)
    log_norm = ((ab + 1.0) * math.log(2.0) - np.log(2.0 * k + ab + 1.0)
                + np.array([math.lgamma(v + alpha + 1.0)
                            + math.lgamma(v + beta + 1.0)
                            - math.lgamma(v + ab + 1.0) - math.lgamma(v + 1.0)
                            for v in k]))
    return table * np.exp(-0.5 * log_norm)[:, None]


class TestGaussJacobi:
    @pytest.mark.parametrize("n", [1, 2, 30, 96, 192, 384, 1024])
    @pytest.mark.parametrize("alpha, beta", [(0.0, 0.5), (1.3, 0.0),
                                             (-0.5, 0.5), (0.0, 30.0)])
    def test_exact_to_degree_2n_minus_1(self, n, alpha, beta):
        # p_j p_k has degree j + k <= 2n - 2 for j, k < n, and p_(n-1) p_n
        # degree 2n - 1: the rule gives the identity and 0
        rule = gauss_jacobi(n, alpha, beta)
        assert np.all(rule.weights > 0)
        assert np.all(np.diff(rule.nodes) > 0)
        table = jacobi_table(n, alpha, beta, rule.nodes)
        gram = (table[:n] * rule.weights) @ table[:n].T
        assert np.abs(gram - np.eye(n)).max() < 1e-14 * n + 1e-13
        assert abs(np.sum(rule.weights * table[n - 1] * table[n])) < 1e-13

    @pytest.mark.parametrize("n, alpha, beta", [(30, 0.0, 0.5), (96, 0.0, 0.5),
                                                (96, 1.3, 0.0), (96, -0.5, 0.0)])
    def test_end_weights_keep_relative_accuracy(self, n, alpha, beta):
        # Golub-Welsch eigenvector weights lose it at the ends (scipy's are
        # 3.5e-12 off at n = 96); the Christoffel numbers stay within 1e-12
        rule = gauss_jacobi(n, alpha, beta)
        a, b = mp.mpf(alpha), mp.mpf(beta)
        const = (2 ** (a + b + 1) * mp.gamma(n + a + 1) * mp.gamma(n + b + 1)
                 / (mp.gamma(n + a + b + 1) * mp.factorial(n)))
        for i in (0, 1, n - 2, n - 1):
            x = mp.findroot(lambda t: mp.jacobi(n, a, b, t), rule.nodes[i])
            dp = (n + a + b + 1) / 2 * mp.jacobi(n - 1, a + 1, b + 1, x)
            want = const / ((1 - x * x) * dp * dp)
            assert abs(rule.nodes[i] - float(x)) < 1e-15
            assert abs(rule.weights[i] / float(want) - 1.0) < 1e-12

    def test_strongly_skewed_weight(self):
        # (1+x)^564 at n = 384: weights from 1e-241 to 1e166, which the
        # unscaled recurrence overflowed
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rule = gauss_jacobi(384, 0.0, 564.0)
        mu0 = math.exp(565.0 * math.log(2.0) - math.log(565.0))
        assert np.all(rule.weights > 0)
        assert abs(rule.weights.sum() / mu0 - 1.0) < 1e-12

    def test_rules_are_cached_read_only(self):
        one, two = gauss_jacobi(40, 0.0, 2.5), gauss_jacobi(40, 0.0, 2.5)
        assert one.nodes is two.nodes and one.weights is two.weights
        assert not one.nodes.flags.writeable
        assert not one.weights.flags.writeable


class TestSpline:
    @pytest.mark.parametrize("n", [2, 3, 4, 5, 1201])
    @pytest.mark.parametrize("grid", ["uniform", "random"])
    def test_matches_scipy_cubic_spline(self, n, grid):
        interpolate = pytest.importorskip("scipy.interpolate")
        rng = np.random.default_rng(RNG_SEED + n)
        x = (np.linspace(0.0, 30.0, n) if grid == "uniform"
             else np.sort(rng.uniform(0.0, 30.0, n)))
        y = (np.exp(-0.1 * x) * (np.cos(x) + 1j * np.sin(0.7 * x))
             + 0.1 * rng.normal(size=n))
        points = np.concatenate([x, rng.uniform(x[0], x[-1], 4000)])
        got = CubicSpline(x, y)(points)
        want = interpolate.CubicSpline(x, y)(points)
        assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()

    def test_low_orders_are_exact(self):
        # a line through two samples, a parabola through three, and a
        # cubic through four or more reproduce their polynomial
        rng = np.random.default_rng(RNG_SEED)
        for n, poly in ((2, [0.5 - 1j, 2.0]), (3, [1.0, -0.5j, 0.25]),
                        (4, [1.0, 2.0, -1.0 + 1j, 0.5]),
                        (9, [1.0, 2.0, -1.0 + 1j, 0.5])):
            x = np.sort(rng.uniform(0.0, 3.0, n))
            at = rng.uniform(x[0], x[-1], 50)
            spline = CubicSpline(x, np.polyval(poly, x))
            assert np.allclose(spline(at), np.polyval(poly, at), atol=1e-12)

    def test_sampled_function_is_zero_outside(self):
        grid = np.linspace(1.0, 3.0, 21)
        f = SampledFunction(grid, np.exp(1j * grid)).as_callable()
        vals = f(np.array([0.5, 1.0, 2.0, 3.0, 3.5]))
        assert vals[0] == 0.0 and vals[-1] == 0.0
        assert np.allclose(vals[1:4], np.exp(1j * np.array([1.0, 2.0, 3.0])))

    def test_overflow_raises_without_warnings(self):
        grid = np.array([0.0, 5e-324, 1e-323, 1.0])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(InputFormatError, match="no finite cubic"):
                SampledFunction(grid, np.array([0.0, 1.0, 0.0, 1.0])
                                ).as_callable()
