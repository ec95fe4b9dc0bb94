"""Orthogonal polynomial evaluation, including degenerate Jacobi parameters."""

import math

import numpy as np
import pytest

from relbargmann.errors import DomainError
from relbargmann.hypergeom import ln_gamma
from relbargmann.oscillator import XI_LENGTH, OscParams, xi_layout
from relbargmann.orthopoly import (cdhahn_normalized_batch, cdhahn_s,
                                   jacobi_connection, jacobi_p, laguerre_l)
from relbargmann.quadrature import integrate_halfline


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


class TestJacobi:
    def test_degree_zero(self):
        assert jacobi_p(0, 2.4, -0.7, 0.3) == 1.0

    def test_value_at_one(self):
        n, alpha, beta = 4, 1.7, 0.4
        want = math.exp((ln_gamma(n + alpha + 1) - ln_gamma(alpha + 1)).real) \
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
    xi = xi_layout(osc, XI_LENGTH)[0].ravel()
    gamma = osc.gamma
    with np.errstate(all="ignore"):
        got = cdhahn_normalized_batch(kmax, xi, gamma, gamma, 0.5)
        want = cdhahn_allocating_loop(kmax, xi, gamma, gamma, 0.5)
    assert got.tobytes() == want.tobytes()
