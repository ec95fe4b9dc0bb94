"""Quadrature engines: exactness, oracles, and failure modes."""

import math

import numpy as np
import pytest
from numpy.polynomial.legendre import leggauss

from relbargmann.bargmann import _panel_sums
from relbargmann.errors import DomainError, NonConvergenceError
from relbargmann.oscillator import XI_LENGTH, OscParams, xi_layout
from relbargmann.quadrature import (_KRONROD_RULE, QuadratureRule,
                                    gauss_jacobi,
                                    gauss_legendre, integrate_disk,
                                    integrate_halfline, jacobi_rule_01)
from relbargmann.special import loggamma

# int_0^1 t^0.6 (1-t)^(-1/2) cos(0.6 ln t) dt, high-precision reference
COS_LOG_INTEGRAL = 1.4211313893733018673
# int_0^inf |Gamma(1.6+ix)|^4 / |Gamma(ix)|^2 dx
GAMMA_RATIO_HALFLINE = 1.3272818427052103919


def test_gauss_legendre_one_point():
    rule = gauss_legendre(1)
    assert rule.nodes.tolist() == [0.0]
    assert rule.weights.tolist() == [2.0]


def test_gauss_legendre_degree_exactness():
    rule = gauss_legendre(5)
    val = np.sum(rule.weights * rule.nodes ** 8)
    assert abs(val - 2.0 / 9.0) < 1e-14


def test_gauss_legendre_exp():
    rule = gauss_legendre(64)
    val = np.sum(rule.weights * np.exp(rule.nodes))
    assert abs(val - (math.e - 1.0 / math.e)) < 1e-14


@pytest.mark.parametrize("n", [2, 5, 9, 17])
def test_gauss_legendre_monomial_exactness(n):
    rule = gauss_legendre(n)
    for deg in range(2 * n):
        val = np.sum(rule.weights * rule.nodes ** deg)
        exact = 0.0 if deg % 2 else 2.0 / (deg + 1)
        assert abs(val - exact) < 5e-14


def test_gauss_legendre_symmetry():
    rule = gauss_legendre(12)
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
        gauss_legendre(0)
    with pytest.raises(DomainError):
        gauss_legendre(5000)


def test_gauss_jacobi_reduces_to_legendre():
    gj = gauss_jacobi(16, 0.0, 0.0)
    gl = gauss_legendre(16)
    assert np.allclose(gj.nodes, gl.nodes)
    assert np.allclose(gj.weights, gl.weights)


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
        vals = np.asarray(integrand(nodes.ravel())).reshape(nodes.shape)
        return _panel_sums(vals, half)

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
