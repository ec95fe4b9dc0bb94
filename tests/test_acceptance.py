"""Acceptance criteria, one test per criterion, each printing a verdict line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines; the same checks back the ``relbargmann verify`` suites.
"""

import math
import time

import numpy as np

from relbargmann.bargmann import (classical_bargmann, oscillator_mode,
                                  relativistic_transform)
from relbargmann.coherent import (CoherentLabel, cs_wavefunction,
                                  cs_wavefunction_oracle, normalization,
                                  overlap, overlap_series,
                                  transform_kernel_series)
from relbargmann.disk import (LandauIndex, basis_gram, basis_phi,
                              landau_level, maass_apply_fd,
                              wirtinger_dzbar_fd)
from relbargmann.orthopoly import laguerre_l
from relbargmann.oscillator import ModelParams, OscParams, oscillator_gram
from relbargmann.reference import F5Args, kdf_f5_series, m0_reduced_kernel
from relbargmann.verification import (_f5_reduction, _reproducing_composition,
                                      _saran_sides, _srivastava_rao_sides)
from test_hypergeom import _scalar_series_2f1

DISK_CASES = ((5.0, 0), (7.5, 1), (9.0, 2))


def report(number, name, error, tol, started):
    elapsed = time.time() - started
    verdict = "PASS" if error < tol else "FAIL"
    print(f"[criterion {number:2d}] {verdict}  {name}: "
          f"error {error:.3e} < tol {tol:.1e}  ({elapsed:.1f}s)")
    assert error < tol, f"criterion {number} failed: {error:.3e} >= {tol:.1e}"
    return elapsed


def test_criterion_01_disk_orthonormality():
    t0 = time.time()
    worst = 0.0
    for sigma, m in DISK_CASES:
        gram = basis_gram(LandauIndex(sigma, m), 8)
        worst = max(worst, float(np.abs(gram - np.eye(9)).max()))
    elapsed = report(1, "disk basis Gram identity (k <= 8)", worst, 1e-8, t0)
    assert elapsed < 10.0


def test_criterion_02_eigen_equation():
    t0 = time.time()
    sigma, m, k = 7.5, 1, 3
    idx = LandauIndex(sigma, m)
    eps = landau_level(idx)
    psi = lambda w: basis_phi(k, idx, w)
    worst = 0.0
    for x in np.linspace(-0.32, 0.32, 5):
        for y in np.linspace(-0.32, 0.32, 5):
            z = complex(x, y)
            err = abs(maass_apply_fd(idx, psi, z, h=1e-4) - eps * psi(z))
            worst = max(worst, err / (1.0 + abs(psi(z))))
    elapsed = report(2, "finite-difference eigen-equation (25 points)",
                     worst, 1e-4, t0)
    assert elapsed < 5.0


def test_criterion_03_overlap_closed_form():
    t0 = time.time()
    rng = np.random.default_rng(20240603)
    worst = 0.0
    for sigma, m in DISK_CASES:
        idx = LandauIndex(sigma, m)
        for _ in range(50):
            z, w = (complex(*p) for p in rng.uniform(-0.354, 0.354, (2, 2)))
            worst = max(worst, abs(overlap(idx, z, w)
                                   - overlap_series(idx, z, w)))
    elapsed = report(3, "overlap closed form vs series (150 pairs)",
                     worst, 1e-8, t0)
    assert elapsed < 10.0


def test_criterion_04_bilinear_identities():
    t0 = time.time()
    worst = 0.0
    for case in ((0.2, 2.0, 1.5, 0.3, -0.4), (0.15, 1.3, 0.7, -0.2, 0.5),
                 (-0.25, 3.0, 2.2, 0.6, 0.1), (0.25, 1.0, 1.9, -0.7, -0.2)):
        lhs, rhs = _srivastava_rao_sides(*case)
        worst = max(worst, abs(lhs - rhs))
    for (g, mm, cpar) in ((1.15, 1, 0.8 + 0.3j), (1.3, 2, 0.6 - 0.2j)):
        for (theta, V, y) in ((0.25, -2.0, 0.3), (0.2, -3.0, -0.4),
                              (0.3, -2.5, 0.35)):
            lhs, rhs = _saran_sides(g, mm, cpar, theta, V, y)
            worst = max(worst, abs(lhs - rhs))
    elapsed = report(4, "Srivastava-Rao and Saran bilinear identities",
                     worst, 1e-8, t0)
    assert elapsed < 10.0


def test_criterion_05_oscillator_orthonormality():
    t0 = time.time()
    worst = 0.0
    for c in (0.8, 1.0, 1.5):
        gram = oscillator_gram(OscParams(c), 5)
        worst = max(worst, float(np.abs(gram - np.eye(6)).max()))
    elapsed = report(5, "oscillator Gram identity (k <= 5, three c)",
                     worst, 1e-6, t0)
    assert elapsed < 30.0


def test_criterion_06_wavefunction_closed_form():
    t0 = time.time()
    worst = 0.0
    for m in (0, 1):
        params = ModelParams(OscParams(1.0), m)
        for z in (0.25 + 0j, 0.2 + 0.15j, -0.3 + 0.2j):
            label = CoherentLabel(z, params)
            for xi in (0.4, 0.8, 1.5, 2.5):
                closed = cs_wavefunction(label, xi)
                oracle = cs_wavefunction_oracle(label, xi)
                worst = max(worst, abs(closed - oracle))
    elapsed = report(6, "coherent wave function: closed form vs oracle "
                        "(3z x 4xi x 2m)", worst, 1e-6, t0)
    assert elapsed < 60.0


def test_criterion_07_f5_and_pfaff():
    t0 = time.time()
    rng = np.random.default_rng(20240607)
    worst_f5 = 0.0
    for _ in range(30):
        gre, gim = rng.uniform(1.1, 2.0), rng.uniform(-0.8, 0.8)
        e = gre + rng.uniform(0.3, 1.0)
        a = rng.uniform(1.0, 4.0)
        chi, zeta = rng.uniform(-0.25, 0.25, 2)
        args = F5Args(c=complex(gre, gim), d=complex(gre, -gim), e=e,
                      a=a, a_prime=a, chi=chi, zeta=zeta)
        # the package's reduction sums 2F1(c, d; e; chi + zeta) itself at
        # a = a'; the double series is the independent reference
        worst_f5 = max(worst_f5,
                       abs(_f5_reduction(args) - kdf_f5_series(args)))
    worst_pfaff = 0.0
    for _ in range(100):
        a = rng.uniform(-2.0, 3.0)
        b = rng.uniform(-2.0, 3.0)
        c = rng.uniform(0.4, 4.0)
        x = rng.uniform(-0.5, 0.5)
        lhs = _scalar_series_2f1(a, b, c, x)
        rhs = (1.0 - x) ** (-a) * _scalar_series_2f1(a, c - b, c,
                                                    x / (x - 1.0))
        worst_pfaff = max(worst_pfaff, abs(lhs - rhs))
    assert worst_pfaff < 1e-10
    elapsed = report(7, "F5 collapse (1e-9) and Pfaff suite (1e-10)",
                     worst_f5, 1e-9, t0)
    assert elapsed < 5.0


def test_criterion_08_basis_mapping():
    t0 = time.time()
    points = (0.25 + 0.1j, -0.2 + 0.15j, 0.3j, -0.35 - 0.1j, 0.1 - 0.25j)
    worst = 0.0
    for m in (0, 1):
        params = ModelParams(OscParams(1.0), m)
        idx = params.landau_index()
        for j in (0, 1, 2):
            f = oscillator_mode(j, params.osc)
            for z in points:
                got = relativistic_transform(params, f, z)
                worst = max(worst, abs(got - basis_phi(j, idx, z)))
    elapsed = report(8, "transform maps oscillator modes to the disk basis",
                     worst, 1e-6, t0)
    assert elapsed < 120.0


def test_criterion_09_m0_reduction():
    # the reduced single-2F1 kernel K0 against the expansion kernel, and
    # its holomorphy in z, relative to N(z)^(1/2), for xi in (0, 15]
    t0 = time.time()
    osc = OscParams(1.0)
    params = ModelParams(osc, 0)
    idx = params.landau_index()
    xi = np.linspace(0.25, 15.0, 60)
    worst = 0.0
    for x in (-0.3, 0.0, 0.3):
        for y in (-0.3, 0.0, 0.3):
            z = complex(x, y)
            gap = np.abs(m0_reduced_kernel(osc, z, xi)
                         - transform_kernel_series(params, z, xi)).max()
            worst = max(worst, gap / math.sqrt(normalization(idx, z)))
    K0 = lambda w: m0_reduced_kernel(osc, w, xi)
    hol = max(np.abs(wirtinger_dzbar_fd(K0, z, 1e-5)).max()
              / math.sqrt(normalization(idx, z))
              for z in (0.2 + 0.1j, -0.25 - 0.2j, 0.3j))
    assert hol < 1e-5
    elapsed = report(9, "analytic-level kernel consistency and holomorphy",
                     worst, 1e-8, t0)
    assert elapsed < 60.0


def test_criterion_10_resolution_of_identity():
    t0 = time.time()
    worst = 0.0
    for sigma, m in ((5.0, 0), (7.5, 1)):
        idx = LandauIndex(sigma, m)
        for z, zp in ((0.3 + 0.1j, -0.2 - 0.25j), (0.15 - 0.3j, 0.4 + 0.05j)):
            got = _reproducing_composition(idx, z, zp)
            worst = max(worst, abs(got - overlap(idx, z, zp)))
    elapsed = report(10, "reproducing-kernel composition under the state "
                         "measure", worst, 1e-5, t0)
    assert elapsed < 120.0


def test_criterion_11_classical_baseline():
    t0 = time.time()
    worst = 0.0
    for sigma in (3.0, 5.5):
        for k in range(5):
            def mode(x, k=k, sigma=sigma):
                x = np.asarray(x, dtype=float)
                return (math.exp(0.5 * (math.lgamma(k + 1) - math.lgamma(sigma + k)))
                        * x ** (0.5 * (sigma - 1.0)) * np.exp(-0.5 * x)
                        * laguerre_l(k, sigma - 1.0, x))
            ratios = [classical_bargmann(sigma, mode, z)[0] / z ** k
                      for z in (0.1, 0.2, 0.3)]
            worst = max(worst, abs(ratios[0] - ratios[1]),
                        abs(ratios[1] - ratios[2]))
    elapsed = report(11, "classical kernel sends Laguerre modes to monomials",
                     worst, 1e-7, t0)
    assert elapsed < 10.0


def test_full_verify_suite_under_budget():
    from relbargmann.verification import run_suite

    t0 = time.time()
    rep = run_suite("all")
    elapsed = time.time() - t0
    failures = [c["name"] for c in rep["checks"] if not c["pass"]]
    print(f"[verify all] {'PASS' if rep['pass'] else 'FAIL'} "
          f"({len(rep['checks'])} checks, {elapsed:.1f}s)")
    assert rep["pass"], f"failing checks: {failures}"
    assert elapsed < 480.0
