"""Quadrature engines: exactness, oracles, and failure modes."""

import math

import numpy as np
import pytest
from numpy.polynomial.legendre import leggauss

from relbargmann.errors import DomainError, NonConvergenceError
from relbargmann.oscillator import XI_LENGTH, OscParams, xi_layout
from relbargmann.quadrature import (_KRONROD_RULE, QuadratureRule,
                                    _jacobi_rule, _kronrod_gaps,
                                    _kronrod_panels, gauss_jacobi,
                                    integrate_disk, integrate_halfline,
                                    jacobi_rule_01)
from relbargmann.special import loggamma

# int_0^1 t^0.6 (1-t)^(-1/2) cos(0.6 ln t) dt, high-precision reference
COS_LOG_INTEGRAL = 1.4211313893733018673
# int_0^inf |Gamma(1.6+ix)|^4 / |Gamma(ix)|^2 dx
GAMMA_RATIO_HALFLINE = 1.3272818427052103919


def test_gauss_legendre_one_point():
    rule = gauss_jacobi(1, 0.0, 0.0)
    assert rule.nodes.tolist() == [0.0]
    assert rule.weights.tolist() == [2.0]


def test_gauss_legendre_degree_exactness():
    rule = gauss_jacobi(5, 0.0, 0.0)
    val = np.sum(rule.weights * rule.nodes ** 8)
    assert abs(val - 2.0 / 9.0) < 1e-14


def test_gauss_legendre_exp():
    rule = gauss_jacobi(64, 0.0, 0.0)
    val = np.sum(rule.weights * np.exp(rule.nodes))
    assert abs(val - (math.e - 1.0 / math.e)) < 1e-14


@pytest.mark.parametrize("n", [2, 5, 9, 17])
def test_gauss_legendre_monomial_exactness(n):
    rule = gauss_jacobi(n, 0.0, 0.0)
    for deg in range(2 * n):
        val = np.sum(rule.weights * rule.nodes ** deg)
        exact = 0.0 if deg % 2 else 2.0 / (deg + 1)
        assert abs(val - exact) < 5e-14


def test_gauss_legendre_symmetry():
    rule = gauss_jacobi(12, 0.0, 0.0)
    assert np.allclose(rule.nodes, -rule.nodes[::-1])


def monomial_error(nodes, weights, degree):
    """The rule's error on x^degree over (-1, 1)."""
    exact = 0.0 if degree % 2 else 2.0 / (degree + 1)
    return float(np.sum(weights * nodes ** degree)) - exact


class TestKronrodRule:
    """The 21-point Gauss-Kronrod rule of every xi panel, with the 10-point
    Gauss rule at its odd nodes."""

    def test_exact_to_degree_31(self):
        nodes, wk, _ = _KRONROD_RULE
        for degree in range(32):
            assert abs(monomial_error(nodes, wk, degree)) < 1e-15, degree
        assert abs(monomial_error(nodes, wk, 32)) > 1e-13

    def test_gauss_rule_is_embedded(self):
        nodes, _, wg = _KRONROD_RULE
        x, w = leggauss(10)
        assert np.all(np.abs(nodes[1::2] - x) <= np.spacing(np.abs(x)))
        assert np.max(np.abs(wg - w)) < 1e-14
        for degree in range(20):
            assert abs(monomial_error(nodes[1::2], wg, degree)) < 1e-15
        assert abs(monomial_error(nodes[1::2], wg, 20)) > 1e-6

    def test_shape_order_and_symmetry(self):
        nodes, wk, wg = _KRONROD_RULE
        assert nodes.shape == wk.shape == (21,) and wg.shape == (10,)
        assert np.all(np.diff(nodes) > 0) and nodes[10] == 0.0
        assert np.array_equal(nodes, -nodes[::-1])
        assert np.array_equal(wk, wk[::-1]) and np.array_equal(wg, wg[::-1])
        assert np.all(wk > 0) and np.all(wg > 0)
        assert not any(arr.flags.writeable for arr in _KRONROD_RULE)


def test_rule_size_validation():
    with pytest.raises(DomainError):
        gauss_jacobi(0, 0.0, 0.0)
    with pytest.raises(DomainError):
        gauss_jacobi(5000, 0.0, 0.0)


def test_gauss_jacobi_reduces_to_legendre():
    # alpha = beta = 0 is numpy's Gauss-Legendre rule, and the Golub-Welsch
    # rule of that weight meets it
    gj = gauss_jacobi(16, 0.0, 0.0)
    x, w = leggauss(16)
    assert gj.nodes.tobytes() == x.tobytes()
    assert gj.weights.tobytes() == w.tobytes()
    nodes, weights = _jacobi_rule(16, 0.0, 0.0)
    assert np.allclose(nodes, x) and np.allclose(weights, w)


def test_gauss_jacobi_validation():
    with pytest.raises(DomainError):
        gauss_jacobi(8, -1.0, 0.0)
    with pytest.raises(DomainError):
        gauss_jacobi(8, 0.0, -1.5)
    for alpha, beta in ((math.nan, 0.0), (0.0, math.nan), (math.inf, 0.0),
                        (0.5, math.inf)):
        with pytest.raises(DomainError, match="finite"):
            gauss_jacobi(8, alpha, beta)


def test_jacobi_beta_function():
    rule = jacobi_rule_01(32, 0.8, -0.5)
    val = float(np.sum(rule.weights))
    beta = math.exp((loggamma(1.8) + loggamma(0.5) - loggamma(2.3)).real)
    assert abs(val - beta) < 1e-12


def test_jacobi_log_oscillatory():
    # doubling the rule reaches the reference for the carried cos(xi ln t)
    errors = []
    for n in (512, 2048):
        rule = jacobi_rule_01(n, 0.6, -0.5)
        val = float(np.sum(rule.weights * np.cos(0.6 * np.log(rule.nodes))))
        errors.append(abs(val - COS_LOG_INTEGRAL))
    assert errors[1] < 1e-10
    assert errors[1] < errors[0]


def test_quadrature_rule_validation():
    with pytest.raises(DomainError):
        QuadratureRule(nodes=np.array([0.5]), weights=np.array([-1.0]))
    with pytest.raises(DomainError):
        QuadratureRule(nodes=np.array([0.5]), weights=np.array([1.0, 2.0]))


def test_halfline_exponential():
    val, err = integrate_halfline(lambda x: np.exp(-x), decay_scale=1.0,
                                  tol=1e-12)
    assert abs(val - 1.0) < 1e-12
    assert err < 1e-10


def test_halfline_gaussian_moment():
    val, _ = integrate_halfline(lambda x: x * np.exp(-x * x),
                                decay_scale=1.0, tol=1e-12)
    assert abs(val - 0.5) < 1e-12


def test_halfline_gamma_ratio_weight():
    from scipy.special import loggamma

    def f(x):
        x = np.asarray(x, dtype=float)
        out = np.zeros_like(x)
        pos = x > 0
        out[pos] = np.exp(4.0 * loggamma(1.6 + 1j * x[pos]).real
                          - 2.0 * loggamma(1j * x[pos]).real)
        return out

    val, _ = integrate_halfline(f, decay_scale=0.5, tol=1e-10)
    assert abs(val.real - GAMMA_RATIO_HALFLINE) < 1e-8 * GAMMA_RATIO_HALFLINE
    # step-halving reference run: finer panels agree
    ref, _ = integrate_halfline(f, decay_scale=0.25, tol=1e-11)
    assert abs(val - ref) < 1e-8 * abs(ref)


def test_halfline_nonconvergence():
    with pytest.raises(NonConvergenceError):
        integrate_halfline(lambda x: 1.0 / (1.0 + np.asarray(x)),
                           decay_scale=0.5, tol=1e-10)


@pytest.mark.parametrize("decay_scale, tol", [
    (math.nan, 1e-10), (math.inf, 1e-10), (0.0, 1e-10), (-1.0, 1e-10),
    (1.0, math.nan), (1.0, math.inf), (1.0, 0.0), (1.0, -1e-10)])
def test_halfline_scale_and_tol_must_be_finite_and_positive(decay_scale, tol):
    # a NaN or infinite scale raised an untyped ValueError from ceil(nan);
    # tol = inf returned 0.8647 for the integral 1 of exp(-x), and
    # tol = NaN walked all 64 panels into NonConvergenceError
    calls = []

    def f(x):
        calls.append(x.size)
        return np.exp(-x)

    with pytest.raises(DomainError, match="finite and positive"):
        integrate_halfline(f, decay_scale=decay_scale, tol=tol)
    assert calls == []


def test_halfline_fixed_layout_is_linear():
    # the transforms' fixed xi layout hands every integrand the same nodes,
    # so the integral is linear in f up to rounding
    osc = OscParams(1.0)
    seen = {}

    def recorded(name, fn):
        def integrand(x):
            seen.setdefault(name, []).append(np.array(x))
            return fn(x)
        return integrand

    def fixed_layout_integral(integrand):
        nodes, half, _, _ = xi_layout(osc, XI_LENGTH)
        values, errors = _kronrod_panels(np.asarray(integrand(nodes)), half)
        return sum(values.tolist(), 0j), sum(errors.tolist(), 0.0)

    f = lambda x: np.exp(-x)
    g = lambda x: np.exp(-2.0 * x) * np.cos(x)
    combo = lambda x: 2.0 * f(x) - 3.0 * g(x)
    vf, _ = fixed_layout_integral(recorded("f", f))
    vg, _ = fixed_layout_integral(recorded("g", g))
    vc, _ = fixed_layout_integral(recorded("combo", combo))
    for name in ("g", "combo"):
        assert len(seen[name]) == len(seen["f"])
        for a, b in zip(seen[name], seen["f"]):
            assert np.array_equal(a, b)
    assert abs(vf - 1.0) < 1e-14
    eps = np.finfo(float).eps
    assert abs(vc - (2.0 * vf - 3.0 * vg)) <= 8 * eps * (2.0 * abs(vf) + 3.0 * abs(vg))


class TestKronrodGaps:
    """``_kronrod_gaps``: the Kronrod minus Gauss values of each panel of
    the integrands table[k] * vals, a row with the bits of a one-row
    table."""

    @staticmethod
    def integrands():
        nodes, half, _, _ = xi_layout(OscParams(1.0), XI_LENGTH)
        # up to 24 radians of oscillation a panel: gaps far above rounding
        k = np.arange(7.0)[:, None]
        table = np.cos(4.0 * k * nodes) * np.exp(-nodes / (k + 1.0))
        return table, np.exp(-nodes * (0.2 + 1j)), half

    def test_moduli_are_the_panel_estimates(self):
        table, vals, half = self.integrands()
        gaps = _kronrod_gaps(table, vals, half)
        assert gaps.shape == (len(table), len(half))
        for row, gap in zip(table, gaps):
            _, errors = _kronrod_panels(row * vals, half)
            assert np.allclose(np.abs(gap), errors, rtol=1e-9, atol=1e-15)
        assert np.abs(gaps).max() > 1e-6

    def test_a_row_has_the_bits_of_a_one_row_table(self):
        table, vals, half = self.integrands()
        gaps = _kronrod_gaps(table, vals, half)
        for k in range(len(table)):
            assert (_kronrod_gaps(table[k:k + 1], vals, half).tobytes()
                    == gaps[k:k + 1].tobytes())
            assert (_kronrod_gaps(table[:k + 1], vals, half).tobytes()
                    == gaps[:k + 1].tobytes())


def test_disk_constant_weight_mass():
    sigma = 4.0
    val = integrate_disk(lambda z: np.ones(z.shape), sigma - 2.0)
    assert abs(val - math.pi / (sigma - 1.0)) < 1e-12


def test_disk_angular_symmetry():
    val = integrate_disk(lambda z: z, 2.0)
    assert abs(val) < 1e-14


def test_disk_grid_fits_the_integrand():
    # the grid starts at 24 x 32 and doubles at most four times: a step
    # does not settle by 384 x 512, the four reproducing compositions of
    # verify's resolution suite keep the values of a grid that started at
    # 96 x 128, and a value always comes from a doubled grid
    from relbargmann.disk import LandauIndex
    from relbargmann.verification import _reproducing_composition

    shapes = []

    def step(z):
        shapes.append(z.shape)
        return np.where(z.real > 0.1, 1.0, 0.0)

    with pytest.raises(NonConvergenceError):
        integrate_disk(step, 2.0)
    assert shapes == [(24 * 2 ** k, 32 * 2 ** k) for k in range(5)]
    shapes.clear()
    integrate_disk(lambda z: shapes.append(z.shape) or np.ones(z.shape), 2.0)
    assert shapes == [(24, 32), (48, 64)]
    pairs = ((0.3 + 0.1j, -0.2 - 0.25j), (0.15 - 0.3j, 0.4 + 0.05j))
    wanted = {(5.0, 0): (0.3751286667213718 + 0.0970815968469654j,
                         0.45194313891408044 - 0.35338052774928447j),
              (7.5, 1): (-0.3441630431833075 - 0.13740690899739683j,
                         -0.08723431880338421 + 0.1345012138028513j)}
    for (sigma, m), want in wanted.items():
        for (z, zp), value in zip(pairs, want):
            got = _reproducing_composition(LandauIndex(sigma, m), z, zp)
            assert abs(got - value) <= 1e-15


def test_jacobi_rule_01_nodes_inside():
    rule = jacobi_rule_01(8, 0.0, 3.0)
    assert np.all((rule.nodes > 0) & (rule.nodes < 1))


@pytest.mark.filterwarnings("error")
def test_jacobi_rule_01_overflow_raises():
    # 2^(a + b + 1) is finite up to a + b = 1,022 and overflowed past it
    # with an OverflowError; the weights' sum is the beta integral 1/(b + 1)
    rule = jacobi_rule_01(8, 0.0, 1022.0)
    assert abs(rule.weights.sum() * 1023.0 - 1.0) < 1e-12
    with pytest.raises(NonConvergenceError, match="overflows"):
        jacobi_rule_01(8, 0.0, 1023.0)


def test_disk_weight_validation():
    with pytest.raises(DomainError):
        integrate_disk(lambda z: np.ones(z.shape), -1.0)
