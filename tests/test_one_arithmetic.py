"""One arithmetic for a point and a grid.

``hypergeom.gauss_2f1_vec``, ``hypergeom.f5_kernel_vec``,
``reference.m0_reduced_kernel`` and ``coherent.normalization`` take a
number as the one-element array: a scalar call has the bits of the
one-element-array call, and of its element in a call on many elements,
whatever the other elements.  The draws are seeded; they put z on both
sides of the Pfaff choice (|z - 1| > 1 is summed at z/(z - 1)), at 0 and
on the axes, and give F5 scalar chi and zeta.
"""

import numpy as np
import pytest

from relbargmann.coherent import normalization
from relbargmann.disk import LandauIndex
from relbargmann.hypergeom import f5_kernel_vec, gauss_2f1_vec
from relbargmann.oscillator import OscParams
from relbargmann.reference import m0_reduced_kernel

SPECIAL_Z = np.array([0.0, 0.5, -0.5, 0.6j, -0.7j, 0.3 + 0.1j])


def disk_points(rng, n, radius):
    """n points drawn uniformly in |z| <= radius, and SPECIAL_Z."""
    r = radius * np.sqrt(rng.uniform(0.0, 1.0, n))
    return np.concatenate(
        [r * np.exp(1j * rng.uniform(-np.pi, np.pi, n)), SPECIAL_Z])


def gauss_z(rng):
    """z summed directly and at its Pfaff image: the disk |z| <= 0.8, and
    left of it, where |z| > 1 and only the Pfaff image is inside."""
    far = -rng.uniform(1.0, 3.0, 40) + 1j * rng.uniform(-0.5, 0.5, 40)
    return np.concatenate([disk_points(rng, 300, 0.8), far])


def complex_draws(rng, lo, hi, spread, n):
    return rng.uniform(lo, hi, n) + 1j * rng.uniform(-spread, spread, n)


def assert_same_bits(scalar, one, many):
    """The scalar call, the one-element-array call (with its axis of one
    element) and the element of the call on many have the same bits."""
    scalar, one, many = (np.asarray(v) for v in (scalar, one, many))
    assert scalar.shape == many.shape and one.size == many.size
    assert scalar.tobytes() == one.tobytes() == many.tobytes()


def test_gauss_2f1_vec():
    rng = np.random.default_rng(3301)
    z = gauss_z(rng)
    n = z.size
    a, b = (complex_draws(rng, -2.0, 3.0, 1.0, n) for _ in range(2))
    c = complex_draws(rng, 0.5, 4.0, 1.0, n)
    assert (np.abs(z / (z - 1.0)) < np.abs(z)).sum() > 100  # Pfaff side
    assert (np.abs(z / (z - 1.0)) > np.abs(z)).sum() > 100  # direct side
    many = gauss_2f1_vec(a, b, c, z)
    for i in range(n):
        assert_same_bits(gauss_2f1_vec(a[i], b[i], c[i], z[i]),
                         gauss_2f1_vec(a[i], b[i], c[i], z[i:i + 1]), many[i])


def test_gauss_2f1_vec_at_one_z_and_many_parameters():
    # the kernels' case: a vector of spectral parameters at one z is the
    # column of the call on every z
    xi = np.linspace(0.25, 30.0, 25)[:, None]
    a, b, c = 1.4 - 1j * xi, 0.5 - 1j * xi, 1.9 + 0.2j
    z = gauss_z(np.random.default_rng(3302))[::10]
    many = gauss_2f1_vec(a, b, c, z)
    for j in range(z.size):
        assert_same_bits(gauss_2f1_vec(a[:, 0], b[:, 0], c, z[j]),
                         gauss_2f1_vec(a[:, 0], b[:, 0], c, z[j:j + 1]),
                         many[:, j])


@pytest.mark.parametrize("m", [0, 1, 2])
def test_f5_kernel_vec(m):
    rng = np.random.default_rng(3303 + m)
    n = 60
    # chi + zeta = -z/(1 - z) and chi, zeta the kernels' tau and nu at
    # disk points, on both sides of the Pfaff choice
    z = disk_points(rng, n, 0.8)
    chi = -(1.0 - np.abs(z) ** 2) / np.abs(1.0 - z) ** 2
    zeta = 1.0 / (1.0 - z)
    g = rng.uniform(0.6, 3.0, z.size)
    c = g + m + 1j * rng.uniform(-4.0, 4.0, z.size)
    d = np.conj(c) - m
    e, ap = g + 0.5, 2.0 * g
    many = f5_kernel_vec(c, d, e, m, ap, chi, zeta)
    for i in range(z.size):
        assert_same_bits(
            f5_kernel_vec(c[i], d[i], e[i], m, ap[i], chi[i], zeta[i]),
            f5_kernel_vec(c[i], d[i], e[i], m, ap[i], chi[i:i + 1],
                          zeta[i:i + 1]),
            many[i])


@pytest.mark.parametrize("m", [0, 2])
def test_f5_kernel_vec_at_scalar_chi_and_zeta(m):
    # a vector of spectral parameters at one (chi, zeta), the transform
    # kernel's call, is the column of the call on every (chi, zeta)
    g = 1.3660254037844386
    xi = np.linspace(0.5, 20.0, 9)[:, None]
    z = disk_points(np.random.default_rng(3306), 10, 0.8)
    chi = -(1.0 - np.abs(z) ** 2) / np.abs(1.0 - z) ** 2
    zeta = 1.0 / (1.0 - z)
    many = f5_kernel_vec(g + m - 1j * xi, g + 1j * xi, g + 0.5, m, 2 * g,
                         chi, zeta)
    c, d = g + m - 1j * xi[:, 0], g + 1j * xi[:, 0]
    for j in range(z.size):
        assert_same_bits(
            f5_kernel_vec(c, d, g + 0.5, m, 2 * g, chi[j], zeta[j]),
            f5_kernel_vec(c[:, None], d[:, None], g + 0.5, m, 2 * g,
                          chi[j:j + 1], zeta[j:j + 1]),
            many[:, j])


@pytest.mark.parametrize("c", [0.3, 1.0, 5.0])
def test_m0_reduced_kernel(c):
    osc = OscParams(c)
    xi = np.linspace(0.25, 15.0, 7)
    z = disk_points(np.random.default_rng(3307), 30, 0.85)
    many = m0_reduced_kernel(osc, z, xi)
    for i in range(z.size):
        assert_same_bits(m0_reduced_kernel(osc, z[i], xi),
                         m0_reduced_kernel(osc, z[i:i + 1], xi), many[i])


def test_normalization():
    rng = np.random.default_rng(3308)
    for sigma, m in ((3.5, 0), (7.5, 1), (22.0, 3), (120.0, 10)):
        idx = LandauIndex(sigma, m)
        z = disk_points(rng, 85, 0.85)
        many = normalization(idx, z)
        for i in range(z.size):
            scalar = normalization(idx, z[i])
            assert type(scalar) is float
            assert_same_bits(scalar, normalization(idx, z[i:i + 1]), many[i])
