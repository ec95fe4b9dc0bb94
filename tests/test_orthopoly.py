"""Orthogonal polynomial evaluation, including degenerate Jacobi parameters."""

import math
import warnings

import numpy as np
import pytest

from relbargmann.errors import DomainError, NonConvergenceError
from relbargmann.oscillator import XI_LENGTH, OscParams, xi_layout
from relbargmann.orthopoly import (cdhahn_normalized_batch,
                                  cdhahn_normalized_row, jacobi_p, jacobi_q,
                                  jacobi_q_steps, laguerre_l)
from relbargmann.quadrature import integrate_halfline
from relbargmann.special import loggamma
from test_hypergeom import hyp3f2_terminating_unit, pochhammer


def jacobi_recurrence(n, alpha, beta, x):
    """Three-term recurrence oracle, valid away from degenerate parameters."""
    p_prev = 1.0
    if n == 0:
        return p_prev
    p_cur = 0.5 * (alpha - beta + (alpha + beta + 2.0) * x)
    for k in range(1, n):
        a1 = 2.0 * (k + 1) * (k + alpha + beta + 1) * (2 * k + alpha + beta)
        a2 = (2 * k + alpha + beta + 1) * (alpha ** 2 - beta ** 2)
        a3 = ((2 * k + alpha + beta) * (2 * k + alpha + beta + 1)
              * (2 * k + alpha + beta + 2))
        a4 = 2.0 * (k + alpha) * (k + beta) * (2 * k + alpha + beta + 2)
        p_prev, p_cur = p_cur, ((a2 + a3 * x) * p_cur - a4 * p_prev) / a1
    return p_cur


def jacobi_connection(n: int, alpha, beta, u) -> complex:
    """Right-hand side of the parameter-shift connection formula,
    ((1-u)/2)^n P_n^{(-2n-alpha-beta-1, beta)}((u+3)/(u-1)), which equals
    P_n^{(alpha, beta)}(u) wherever both are defined."""
    u = complex(u)
    if u == 1.0:
        raise DomainError("connection formula is singular at u = 1")
    shifted = -2 * n - complex(alpha) - complex(beta) - 1.0
    return ((1.0 - u) / 2.0) ** n * jacobi_p(n, shifted, beta,
                                             (u + 3.0) / (u - 1.0))


def cdhahn_s(n: int, xi: float, a: float, b: float, c: float) -> float:
    """Continuous dual Hahn polynomial S_n(xi^2; a, b, c) through the
    terminating 3F2 at unit argument,
    S_n = (a+b)_n (a+c)_n 3F2(-n, a+i xi, a-i xi; a+b, a+c; 1): the reference
    of ``cdhahn_normalized_batch``.  The terms pair into conjugates, so the
    imaginary part is pure roundoff and is truncated."""
    val = (complex(pochhammer(a + b, n) * pochhammer(a + c, n))
           * hyp3f2_terminating_unit(n, a + 1j * xi, a - 1j * xi, a + b, a + c))
    return float(val.real)


class TestJacobi:
    def test_degree_zero(self):
        assert jacobi_p(0, 2.4, -0.7, 0.3) == 1.0

    def test_value_at_one(self):
        n, alpha, beta = 4, 1.7, 0.4
        want = math.exp((loggamma(n + alpha + 1) - loggamma(alpha + 1)).real) \
            / math.factorial(n)
        assert abs(jacobi_p(n, alpha, beta, 1.0) - want) < 1e-13

    def test_value_at_one_degenerate_alpha(self):
        # (alpha+1)_n vanishes for alpha = -q, 1 <= q <= n
        assert jacobi_p(3, -2.0, 1.5, 1.0) == 0.0

    def test_negative_alpha_closed_form(self):
        # P_k^{(-k, s-1)}(1 - 2r) = (-r)^k Gamma(s+k) / (Gamma(s) k!)
        k, s, r = 3, 5.0, 0.2
        want = (-r) ** k * math.gamma(s + k) / (math.gamma(s) * math.factorial(k))
        assert abs(jacobi_p(k, -k, s - 1.0, 1.0 - 2.0 * r) - want) < 1e-14

    def test_recurrence_agreement_randomized(self):
        rng = np.random.default_rng(7)
        worst = 0.0
        for _ in range(200):
            n = int(rng.integers(1, 9))
            alpha = float(rng.uniform(-0.9, 3.0))
            beta = float(rng.uniform(-0.9, 3.0))
            x = float(rng.uniform(-0.95, 0.95))
            got = jacobi_p(n, alpha, beta, x)
            want = jacobi_recurrence(n, alpha, beta, x)
            worst = max(worst, abs(got - want) / (1.0 + abs(want)))
        assert worst < 1e-11

    def test_connection_equals_direct_randomized(self):
        rng = np.random.default_rng(11)
        worst = 0.0
        for _ in range(200):
            n = int(rng.integers(1, 8))
            alpha = float(rng.uniform(-0.9, 3.0))
            beta = float(rng.uniform(-0.9, 3.0))
            u = float(rng.uniform(-0.95, 0.95))
            got = jacobi_connection(n, alpha, beta, u)
            want = jacobi_p(n, alpha, beta, u)
            worst = max(worst, abs(got - want) / (1.0 + abs(want)))
        assert worst < 1e-11

    def test_connection_spot(self):
        g, m, r = 1.6, 1, 0.3
        got = jacobi_connection(2, 2 * g - 1.0, m - 2.0, 1.0 - 2.0 * r)
        want = jacobi_p(2, 2 * g - 1.0, m - 2.0, 1.0 - 2.0 * r)
        assert abs(got - want) < 1e-12

    def test_connection_degree_zero(self):
        assert jacobi_connection(0, 1.1, 0.2, 0.5) == 1.0

    def test_connection_singular_argument(self):
        with pytest.raises(DomainError):
            jacobi_connection(2, 1.0, 1.0, 1.0)

    def test_reflection_symmetry(self):
        m, g, rho, xi = 3, 0.7, 2.4, 0.35
        lhs = jacobi_p(m, g, rho, xi)
        rhs = (-1.0) ** m * jacobi_p(m, rho, g, -xi)
        assert abs(lhs - rhs) < 1e-13

    def test_negative_integer_alpha_matches_recurrence_limit(self):
        # approach alpha = -2 along a sequence; the degenerate path is the limit
        n, beta, x = 5, 1.3, 0.45
        target = jacobi_p(n, -2.0, beta, x)
        approached = jacobi_p(n, -2.0 + 1e-9, beta, x)
        assert abs(target - approached) < 1e-6

    def test_doubly_degenerate_falls_back(self):
        # both alpha and the shifted parameter are negative integers
        val = jacobi_p(3, -2.0, -1.0, 0.4)
        ref = jacobi_recurrence(3, -2.0 + 1e-10, -1.0 + 1e-10, 0.4)
        assert abs(val - ref) < 1e-6

    def test_negative_degree_raises(self):
        with pytest.raises(DomainError):
            jacobi_p(-1, 0.0, 0.0, 0.0)

    @pytest.mark.parametrize("n", [10, 20, 40, 80])
    def test_matches_mpmath_at_high_degree(self, n):
        # the terminating Gauss series at (1 - x)/2 cancelled: 9.3e-11 at
        # n = 10, 22 at n = 30 and 1.8e28 at n = 80, relative to max(1, |P|)
        mp = pytest.importorskip("mpmath")
        mp.mp.dps = 30
        rng = np.random.default_rng(n)
        cases = [(float(rng.uniform(-0.9, 6.0)), float(rng.uniform(-0.9, 6.0)),
                  float(x)) for x in [*rng.uniform(-1.0, 1.0, 60), -1.0, 1.0]]
        worst = 0.0
        for alpha, beta, x in cases:
            want = complex(mp.jacobi(n, alpha, beta, x))
            got = jacobi_p(n, alpha, beta, x)
            worst = max(worst, abs(got - want) / max(1.0, abs(want)))
        assert worst < 1e-11

    def test_high_degree_spots(self):
        # the series gave -103.44 and -0.446
        assert abs(jacobi_p(40, 0.5, 0.5, 0.3) - 0.18366614969821) < 1e-12
        assert abs(jacobi_p(30, 2.0, 3.0, 0.1) - 0.57521643752567) < 1e-12


#: the Saran sums of ``verify``: (g, mm) of its two levels, P_k^(alpha - k,
#: beta - k) with alpha = -2g - mm, beta = mm, k < 60
SARAN_LEVELS = ((1.15, 1), (1.3, 2))


class TestJacobiMap:
    """``jacobi_p`` against 40-digit ``mpmath.jacobi`` on the parameters of
    the bilinear sums of ``verify``, relative to max(1, |P|).  The
    terminating Gauss series was off by up to 7.1e4 on the first map, or
    overflowed."""

    def test_alpha_g_minus_n(self):
        # alpha = g - n, n <= 80, g in (0, 6), beta in (-1, 6], x in
        # [-1, 1], the end points included: the Srivastava-Rao terms
        mp = pytest.importorskip("mpmath")
        rng = np.random.default_rng(2100)
        cases = [(int(rng.integers(0, 81)), float(rng.uniform(0.0, 6.0)),
                  float(rng.uniform(-1.0, 6.0)), float(x))
                 for x in [*rng.uniform(-1.0, 1.0, 236), *[-1.0, 1.0] * 2]]
        cases += [(80, 5.99, 6.0, 0.0), (79, 3.6, 1.9, -0.2),
                  (78, 1.0, 1.9, -0.2), (60, 0.01, -0.99, 0.5)]
        n, g, beta, x = (np.array(v) for v in zip(*cases))
        got = jacobi_p(n, g - n, beta, x)
        with mp.workdps(40):
            want = [complex(mp.jacobi(int(k), mp.mpf(gk) - int(k),
                                      mp.mpf(bk), mp.mpf(xk)))
                    for k, gk, bk, xk in cases]
        err = np.abs(got - want) / np.maximum(1.0, np.abs(want))
        assert err.max() < 1e-11, cases[int(err.argmax())]

    @pytest.mark.parametrize("g, mm", SARAN_LEVELS)
    def test_saran_parameters(self, g, mm):
        mp = pytest.importorskip("mpmath")
        alpha, beta = -2.0 * g - mm, float(mm)
        k = np.arange(60)[:, None]
        v = np.linspace(-3.0, -2.0, 9)
        got = jacobi_p(k, alpha - k, beta - k, v)
        with mp.workdps(40):
            want = np.array([[complex(mp.jacobi(int(j), mp.mpf(alpha) - int(j),
                                                beta - int(j), mp.mpf(x)))
                              for x in v.tolist()] for j in range(60)])
        err = np.abs(got - want) / np.maximum(1.0, np.abs(want))
        assert err.max() < 1e-11


class TestJacobiArrays:
    def test_array_matches_one_degree_calls(self):
        # every route in one call: recurrence, connection image, explicit
        # sum (real and complex parameters)
        n = np.array([0, 3, 7, 12, 5, 4, 6, 9, 2])
        alpha = np.array([0.5, 2.0, -17.5, -9.3, -2.0, 1.0 + 0.5j, 3.0,
                          -12.0, -1.0])
        beta = np.array([0.2, -0.5, 1.2, 0.4, 1.3, 0.7, -2.5, 2.0, 0.0])
        x = np.array([0.3, -0.9, -7.0, 0.25, 0.45, -0.6, 0.1, -0.3, 1.0])
        got = jacobi_p(n, alpha, beta, x)
        assert got.dtype == complex and got.shape == (9,)
        for value, args in zip(got, zip(n.tolist(), alpha.tolist(),
                                        beta.tolist(), x.tolist())):
            alone = jacobi_p(*args)
            assert type(alone) is complex
            assert abs(value - alone) <= 1e-13 * max(1.0, abs(alone)), args

    def test_broadcast_shapes(self):
        n = np.arange(5)
        table = jacobi_p(n, 1.5 - n, 0.5, np.array([[0.3], [-0.4]]))
        assert table.shape == (2, 5)
        assert abs(table[1, 4] - jacobi_p(4, -2.5, 0.5, -0.4)) < 1e-14
        assert jacobi_p(np.zeros(0, dtype=int), 0.5, 0.5, 0.3).shape == (0,)

    def test_connection_image_takes_the_recurrence(self):
        # x < -1 with (-2n - alpha - beta - 1, beta) in alpha, beta > -1;
        # the explicit sum cancelled to 1.5e-11 of 1 + |value| here
        mp = pytest.importorskip("mpmath")
        n, a0, beta, u = 7, 1.3047152913830415, 2.922398610219809, 0.907
        x = (u + 3.0) / (u - 1.0)
        alpha = -2 * n - a0 - beta - 1.0
        with mp.workdps(40):
            want = complex(mp.jacobi(n, mp.mpf(alpha), mp.mpf(beta),
                                     mp.mpf(x)))
        assert abs(jacobi_p(n, alpha, beta, x) - want) < 1e-14 * abs(want)

    @pytest.mark.parametrize("bad", [[1, -1], [2.5], [np.nan], ["3"]])
    def test_bad_degrees_raise(self, bad):
        with pytest.raises(DomainError, match="nonnegative integer"):
            jacobi_p(np.array(bad), 0.5, 0.5, 0.3)


class TestJacobiTypedErrors:
    @pytest.mark.parametrize("args", [(3, math.nan, 0.5, 0.2),
                                      (3, 0.5, math.inf, 0.2),
                                      (3, 0.5, 0.5, math.inf),
                                      (3, -2.5, 0.5, complex(0.2, math.nan)),
                                      (np.arange(3), 0.5, 0.5,
                                       np.array([0.1, math.nan, 0.2]))])
    def test_non_finite_argument(self, args):
        # a NaN raised a bare ValueError, an inf gave NaN and a warning
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DomainError, match="finite"):
                jacobi_p(*args)

    @pytest.mark.parametrize("args", [(300, 0.5, 0.5, 1e3),
                                      (300, -1.5, 0.5, 1e3),
                                      (300, -150.5, 0.5, -1e3)])
    def test_past_the_double_range(self, args):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NonConvergenceError, match="double range"):
                jacobi_p(*args)

    def test_large_degree_in_range(self):
        # the Gauss series overflowed a Python float here (OverflowError);
        # the value is mpmath's at 40 digits
        got = jacobi_p(200, -150.3, 2.0, 0.3)
        assert abs(got - 6.821209577606172e-35) < 1e-11


class TestShiftedJacobiRecurrence:
    def test_rows_match_mpmath_jacobi(self):
        # per-row a and degree, each row stopping at its own degree, against
        # (-1)^n P_n^(a,b)(1 - 2t) of mpmath; a + b = 0 in the last row,
        # where the general first step would divide by zero
        mp = pytest.importorskip("mpmath")
        mp.mp.dps = 30
        cases = [(0, 2.0, 1.5), (1, 0.0, 1.5), (3, 5.0, 1.5), (7, 1.0, 1.5),
                 (12, 0.0, 0.0)]
        t = np.array([0.0, 0.13, 0.5, 0.87, 1.0])
        for n, a, b in cases:
            start = np.array([[2.0], [0.5]])
            got = jacobi_q(jacobi_q_steps(n, a, b), t, start)
            want = [(-1) ** n * float(mp.jacobi(n, a, b, 1.0 - 2.0 * x))
                    for x in t]
            assert np.abs(got - start * want).max() < 1e-13 * max(
                1.0, np.abs(want).max()), (n, a, b)
        n = np.array([[2], [0], [5], [1]])
        a = np.array([[3.0], [0.0], [1.0], [4.0]])
        stack = jacobi_q(jacobi_q_steps(n, a, 2.5), t, np.ones((4, 1)))
        for row, (nk, ak) in enumerate(zip(n[:, 0], a[:, 0])):
            alone = jacobi_q(jacobi_q_steps(int(nk), ak, 2.5), t, 1.0)
            assert np.array_equal(stack[row], np.broadcast_to(alone, t.shape))

    def test_degree_zero_returns_the_start(self):
        start = np.array([1.5, -2.0])
        assert jacobi_q(jacobi_q_steps(0, 3.0, 1.0), 0.4, start) is start


class TestLaguerre:
    def test_degree_zero(self):
        assert laguerre_l(0, 1.5, 2.0) == 1.0

    def test_degree_one(self):
        alpha, x = 2.5, 0.7
        assert abs(laguerre_l(1, alpha, x) - (1.0 + alpha - x)) < 1e-15

    def test_orthogonality_by_quadrature(self):
        alpha = 2.5
        worst = 0.0
        for j in range(5):
            for k in range(j, 5):
                def f(x, j=j, k=k):
                    x = np.asarray(x, dtype=float)
                    return (laguerre_l(j, alpha, x) * laguerre_l(k, alpha, x)
                            * x ** alpha * np.exp(-x))
                val, _ = integrate_halfline(f, decay_scale=2.0, tol=1e-11)
                want = (math.gamma(alpha + k + 1) / math.factorial(k)
                        if j == k else 0.0)
                worst = max(worst, abs(val.real - want))
        assert worst < 1e-8

    def test_vectorised(self):
        x = np.linspace(0.0, 5.0, 7)
        vals = laguerre_l(3, 1.2, x)
        assert vals.shape == x.shape
        assert abs(vals[0] - laguerre_l(3, 1.2, 0.0)) < 1e-15


class TestContinuousDualHahn:
    def test_degree_zero(self):
        assert cdhahn_s(0, 0.7, 1.6, 1.6, 0.5) == 1.0

    def test_degree_one(self):
        a, b, c, xi = 1.6, 1.6, 0.5, 0.5
        want = (a + b) * (a + c) - (a * a + xi * xi)
        assert abs(cdhahn_s(1, xi, a, b, c) - want) < 1e-12

    def test_against_recurrence(self):
        # normalised recurrence oracle at the working parameters
        a = b = 1.6
        c, xi = 0.5, 0.5
        batch = cdhahn_normalized_batch(4, xi, a, b, c)[:, 0]
        for n in range(5):
            norm = 1.0
            for j in range(n):
                norm *= (a + b + j) * (a + c + j)
            got = cdhahn_s(n, xi, a, b, c)
            assert abs(got - norm * batch[n]) < 1e-11 * (1.0 + abs(got))

    def test_real_output(self):
        val = cdhahn_s(5, 1.3, 1.2, 1.2, 0.5)
        assert isinstance(val, float)

    def test_batch_vectorised(self):
        xi = np.array([0.3, 1.0, 2.5])
        batch = cdhahn_normalized_batch(3, xi, 1.4, 1.4, 0.5)
        assert batch.shape == (4, 3)
        one = cdhahn_normalized_batch(3, 1.0, 1.4, 1.4, 0.5)[:, 0]
        assert np.max(np.abs(batch[:, 1] - one)) < 1e-14


def cdhahn_allocating_loop(kmax, xi, a, b, c):
    """Reference: the recurrence of ``cdhahn_normalized_batch`` with one
    fresh array per operation, as one expression a row."""
    lam = a * a + xi * xi
    out = np.empty((kmax + 1, len(xi)))
    out[0] = 1.0
    if kmax >= 1:
        out[1] = 1.0 - lam / ((a + b) * (a + c))
    for n in range(1, kmax):
        A = (n + a + b) * (n + a + c)
        C = n * (n + b + c - 1.0)
        out[n + 1] = ((A + C - lam) * out[n] - C * out[n - 1]) / A
    return out


@pytest.mark.parametrize("kmax", [0, 1, 2, 84, 400])
@pytest.mark.parametrize("c", [0.6, 1.0, 2.0, 12.0])
def test_in_place_recurrence_has_the_bits_of_the_allocating_loop(kmax, c):
    osc = OscParams(c)
    xi = xi_layout(osc, XI_LENGTH)[0]
    gamma = osc.gamma
    with np.errstate(all="ignore"):
        got = cdhahn_normalized_batch(kmax, xi, gamma, gamma, 0.5)
        want = cdhahn_allocating_loop(kmax, xi, gamma, gamma, 0.5)
        row = cdhahn_normalized_row(kmax, xi, gamma, gamma, 0.5)
    assert got.tobytes() == want.tobytes()
    # the last row alone, from three rows in a cycle
    assert row.tobytes() == want[kmax].tobytes()
