"""Named verification suites behind the ``verify`` command.

Every suite returns a list of check records ``{name, error, tol, pass}``;
``run_suite`` wraps them into the report schema
``{suite, checks, pass, version, config}``.  A check's error is the largest
of its errors (``_worst``), NaN if any of them is, and a NaN error fails.
All randomness is seeded, so a given configuration always produces the
identical report.
"""

from __future__ import annotations

import math
import numbers

import numpy as np

from . import __version__, hypergeom
from .bargmann import (classical_bargmann, isometry_check, oscillator_mode,
                       relativistic_transform_grid)
# looked up here by the layer tracer of bench/tracing.py
from .bargmann import relativistic_transform  # noqa: F401
from .bargmann import relativistic_transform_m0  # noqa: F401
from .coherent import (normalization, overlap, overlap_series,
                       transform_kernel_series_grid)
from .disk import (LandauIndex, _gram_table_entries, basis_gram, basis_phi,
                   landau_level, maass_apply_fd, wirtinger_dzbar_fd)
from .errors import DomainError, _check_order
from .hypergeom import _series_2f1_vec, gauss_2f1
from .orthopoly import jacobi_p, laguerre_l
from .oscillator import (ModelParams, OscParams, oscillator_gram,
                         oscillator_gram_entries)
from .quadrature import integrate_disk
from .reference import (F5Args, appell_f1, kdf_f5_integral, kdf_f5_series,
                        m0_reduced_kernel)

SUITES = ("orthonormality-disk", "orthonormality-oscillator", "overlap",
          "resolution", "eigen-equation", "srivastava-rao", "saran",
          "f5-reductions", "isometry", "m0-reduction", "all")

_DISK_CASES = ((5.0, 0), (7.5, 1), (9.0, 2))
_OSC_CASES = (0.8, 1.0, 1.5)
_MAPPING_POINTS = (0.25 + 0.1j, -0.2 + 0.15j, 0.3j, -0.35 - 0.1j, 0.1 - 0.25j)
_HOLOMORPHY_POINTS = (0.2 + 0.1j, -0.25 - 0.2j, 0.3j)
#: the xi of the m = 0 kernel checks, in (0, 15]: the window where the
#: direct 2F1 series of the reduced kernel keeps its digits at the suite's
#: points (at c = 5 it is off by 6.6e-9 up to xi = 20, 1.2e-4 up to 30)
_M0_XI = np.linspace(0.25, 15.0, 60)
#: the step of the Wirtinger stencil on the reduced kernel: its O(h^2 xi^3)
#: truncation reaches 1.4e-4 at h = 1e-3 and 1.4e-8 at this step (c <= 20)
_M0_STEP = 1e-5


def _worst(errors) -> float:
    """The largest of ``errors`` (0.0 for none), or NaN if any is NaN:
    ``max`` drops a NaN that does not come first, and its check would
    pass."""
    errors = [float(e) for e in errors]
    if any(map(math.isnan, errors)):
        return math.nan
    return max(errors, default=0.0)


def _check(name: str, error: float, tol: float) -> dict:
    return {"name": name, "error": float(error), "tol": float(tol),
            "pass": bool(error < tol)}


def gram_table_entries(suite: str, kmax: int) -> int:
    """Entries of the largest basis table that ``suite`` builds for its Gram
    matrices at order ``kmax`` (0 for none), found without building it."""
    disk = [_gram_table_entries(kmax, m) for _, m in _DISK_CASES]
    osc = [oscillator_gram_entries(OscParams(c), kmax) for c in _OSC_CASES]
    sizes = {"orthonormality-disk": disk, "orthonormality-oscillator": osc,
             "all": disk + osc}
    return max(sizes.get(suite, [0]))


def suite_orthonormality_disk(config: dict) -> list[dict]:
    kmax = int(config.get("kmax", 8))
    tol = float(config.get("tol", 1e-8))
    checks = []
    for sigma, m in _DISK_CASES:
        idx = LandauIndex(sigma, m)
        gram = basis_gram(idx, kmax)
        dev = float(np.abs(gram - np.eye(kmax + 1)).max())
        checks.append(_check(f"disk-gram-sigma{sigma}-m{m}", dev, tol))
    return checks


def suite_orthonormality_oscillator(config: dict) -> list[dict]:
    kmax = int(config.get("kmax", 5))
    tol = float(config.get("tol", 1e-6))
    checks = []
    for c in _OSC_CASES:
        gram = oscillator_gram(OscParams(c), kmax)
        dev = float(np.abs(gram - np.eye(kmax + 1)).max())
        checks.append(_check(f"oscillator-gram-c{c}", dev, tol))
    return checks


def suite_overlap(config: dict) -> list[dict]:
    tol = float(config.get("tol", 1e-12))
    rng = np.random.default_rng(20240611)
    checks = []
    for sigma, m in _DISK_CASES:
        idx = LandauIndex(sigma, m)
        # 50 pairs (z, w), the draws of 50 calls of shape (2, 2) in one,
        # and one call of each overlap on them
        z, w = rng.uniform(-0.354, 0.354, (50, 2, 2)).view(complex)[..., 0].T
        zw = overlap(idx, z, w)
        series = overlap_series(idx, z, w)
        worst = float(np.max(np.abs(zw - series)))
        worst_sym = float(np.max(np.abs(zw - np.conj(overlap(idx, w, z)))))
        checks.append(_check(f"overlap-series-sigma{sigma}-m{m}", worst, tol))
        checks.append(_check(f"overlap-hermitian-sigma{sigma}-m{m}", worst_sym, 1e-12))
    return checks


def suite_resolution(config: dict) -> list[dict]:
    tol = float(config.get("tol", 1e-5))
    checks = []
    pairs = ((0.3 + 0.1j, -0.2 - 0.25j), (0.15 - 0.3j, 0.4 + 0.05j))
    for sigma, m in ((5.0, 0), (7.5, 1)):
        idx = LandauIndex(sigma, m)
        worst = _worst(abs(_reproducing_composition(idx, z, zp)
                           - overlap(idx, z, zp)) for z, zp in pairs)
        checks.append(_check(f"reproducing-sigma{sigma}-m{m}", worst, tol))
    return checks


def _reproducing_composition(idx: LandauIndex, z: complex, zp: complex) -> complex:
    """integral of overlap(z, w) overlap(w, zp) against the state measure.

    The overlap factors supply (1-|w|^2)^(sigma - 2m) which combines with the
    measure density into the Jacobi weight sigma - 2m - 2; the remainder of
    the integrand is smooth up to the boundary, so the full disk is covered.
    """
    sigma, m = idx.sigma, idx.m

    def g(w):
        # <w|z> <zp|w>, each one vector call over the grid of w
        profile = overlap(idx, z, w) * overlap(idx, w, zp)
        return profile * (1.0 - np.abs(w) ** 2) ** (-(sigma - 2.0 * m))

    val = integrate_disk(g, sigma - 2 * m - 2.0)
    return val * (sigma - 2 * m - 1.0) / math.pi


def suite_eigen_equation(config: dict) -> list[dict]:
    tol = float(config.get("tol", 1e-4))
    sigma = float(config.get("sigma", 7.5))
    m = int(config.get("m", 1))
    k = int(config.get("k", 3))
    idx = LandauIndex(sigma, m)
    eps = landau_level(idx)
    psi = lambda w: basis_phi(k, idx, w)
    # the 25 points of a 5 x 5 grid, one stencil call on all of them
    axis = np.linspace(-0.32, 0.32, 5)
    z = np.array([complex(x, y) for x in axis for y in axis])
    lhs = maass_apply_fd(idx, psi, z, 1e-4)
    value = psi(z)
    errors = np.abs(lhs - eps * value) / (1.0 + np.abs(value))
    checks = [_check(f"maass-eigen-sigma{sigma}-m{m}-k{k}", _worst(errors),
                     tol)]
    hol = _worst(np.abs(wirtinger_dzbar_fd(lambda w: w ** 3,
                                           np.array([0.2 + 0.1j, -0.3j]),
                                           1e-4)))
    checks.append(_check("holomorphic-killed", hol, 1e-6))
    return checks


#: the number of terms of the sum on the left side of each bilinear relation
_SRIVASTAVA_RAO_TERMS = 80
_SARAN_TERMS = 60


def _srivastava_rao_sides(t, g, alpha, x, y):
    """Both sides of the Srivastava-Rao bilinear generating relation,
    sum_n n! t^n / (1 + alpha)_n P_n^(g-n, alpha)(x) P_n^(g-n, alpha)(y),
    its terms from one ``jacobi_p`` call on the degrees
    n < _SRIVASTAVA_RAO_TERMS."""
    n = np.arange(_SRIVASTAVA_RAO_TERMS)
    coef = np.cumprod(np.concatenate([[1.0], n[1:] / (alpha + n[1:])]))
    px, py = jacobi_p(n, g - n, alpha, np.array([[x], [y]]))
    lhs = complex(np.sum(coef * t ** n * px * py))
    quarter = 0.25 * (x - 1.0) * (y - 1.0)
    arg = -(x + 1.0) * (y + 1.0) * t / ((1.0 - t) * (4.0 - 4.0 * quarter * t))
    rhs = ((1.0 - quarter * t) ** (-(1.0 + g + alpha)) * (1.0 - t) ** g
           * gauss_2f1(1.0 + g + alpha, -g, 1.0 + alpha, arg))
    return lhs, rhs


def suite_srivastava_rao(config: dict) -> list[dict]:
    tol = float(config.get("tol", 1e-8))
    cases = ((0.2, 2.0, 1.5, 0.3, -0.4), (0.15, 1.3, 0.7, -0.2, 0.5),
             (-0.25, 3.0, 2.2, 0.6, 0.1), (0.25, 1.0, 1.9, -0.7, -0.2))
    worst = _worst(abs(lhs - rhs) for lhs, rhs in
                   (_srivastava_rao_sides(*case) for case in cases))
    return [_check("srivastava-rao-bilinear", worst, tol)]


def _saran_sides(g, mm, cpar, theta, V, y):
    """Both sides of Saran's reduced bilinear relation,
    sum_k theta^k P_k^(alpha-k, beta-k)(V) 2F1(-k, cpar; b; y).  The
    terminating 2F1 of every k < _SARAN_TERMS is one row of a term table,
    C(k, j) (cpar)_j / (b)_j (-y)^j, j <= k, with C(k, j) = 0 past k, and
    the Jacobi factors are one ``jacobi_p`` call."""
    alpha, beta, b = -2.0 * g - mm, float(mm), 2.0 * g
    k = np.arange(_SARAN_TERMS)
    j = k[1:]
    binom = np.cumprod(np.concatenate(
        [np.ones((_SARAN_TERMS, 1)), (k[:, None] - j + 1.0) / j], axis=1),
        axis=1)
    ratio = np.cumprod(np.concatenate([[1.0], (cpar + j - 1.0) / (b + j - 1.0)
                                       * -y]))
    gauss = (binom * ratio).sum(axis=1)
    lhs = complex(np.sum(theta ** k * jacobi_p(k, alpha - k, beta - k, V)
                         * gauss))
    X = y * (V + 1.0) * theta / (2.0 + (V + 1.0) * theta)
    Y = y * (V - 1.0) * theta / (2.0 + (V - 1.0) * theta)
    pref = ((1.0 + (V + 1.0) * theta / 2.0) ** alpha
            * (1.0 + (V - 1.0) * theta / 2.0) ** beta)
    rhs = pref * appell_f1(cpar, -alpha, -beta, b, X, Y)
    return lhs, rhs


def suite_saran(config: dict) -> list[dict]:
    tol = float(config.get("tol", 1e-8))
    errors = []
    for (g, mm, cpar) in ((1.15, 1, 0.8 + 0.3j), (1.3, 2, 0.6 - 0.2j)):
        for (theta, V, y) in ((0.25, -2.0, 0.3), (0.2, -3.0, -0.4),
                              (0.3, -2.5, 0.35)):
            lhs, rhs = _saran_sides(g, mm, cpar, theta, V, y)
            errors.append(abs(lhs - rhs))
    return [_check("saran-bilinear-reduced", _worst(errors), tol)]


def _f5_reduction(args: F5Args) -> complex:
    """F5 by the package's finite 2F1 reduction, at an integer a - a'.
    Looked up on ``hypergeom``, where the layer tracer of bench/tracing.py
    counts its calls."""
    return complex(hypergeom.f5_kernel_vec(
        args.c, args.d, args.e, args.integer_gap(), args.a_prime, args.chi,
        args.zeta))


def suite_f5_reductions(config: dict) -> list[dict]:
    tol_f5 = float(config.get("tol", 1e-9))
    rng = np.random.default_rng(20240613)
    checks = []

    # collapse at a = a' to a single Gauss function, the reduction at m = 0,
    # one array call over all cases; the double series is the reference,
    # valid as |chi| + |zeta| <= 0.5
    cases = []
    for _ in range(20):
        gre, gim = rng.uniform(1.1, 2.0), rng.uniform(-0.8, 0.8)
        e = gre + rng.uniform(0.3, 1.0)
        a = rng.uniform(1.0, 4.0)
        chi, zeta = rng.uniform(-0.25, 0.25, 2)
        cases.append(F5Args(c=complex(gre, gim), d=complex(gre, -gim), e=e,
                            a=a, a_prime=a, chi=chi, zeta=zeta))
    cases.append(F5Args(c=1.2 + 0.5j, d=1.2 - 0.5j, e=1.7, a=2.4,
                        a_prime=2.4, chi=0.15, zeta=0.2))
    c, d, e, ap, chi, zeta = np.array(
        [[args.c, args.d, args.e, args.a_prime, args.chi, args.zeta]
         for args in cases]).T
    reduced = hypergeom.f5_kernel_vec(c, d, e, 0, ap, chi, zeta)
    errors = np.abs(reduced - [kdf_f5_series(args) for args in cases])
    checks.append(_check("f5-collapse-a-equals-aprime", _worst(errors),
                         tol_f5))

    # series against the integral representation
    errors = []
    for gap in (1.2, 0.7):
        args = F5Args(c=1.5 + 0.3j, d=1.5 - 0.3j, e=2.0, a=3.0 + gap,
                      a_prime=3.0, chi=0.1, zeta=0.15)
        errors.append(abs(kdf_f5_series(args) - kdf_f5_integral(args)))
    for m in (0, 1, 2):
        args = F5Args(c=1.2 + 0.5j, d=1.2 - 0.5j, e=1.7, a=2.4 + m,
                      a_prime=2.4, chi=0.15, zeta=0.2)
        series = kdf_f5_series(args)
        errors.append(abs(series - kdf_f5_integral(args)))
        errors.append(abs(series - _f5_reduction(args)))
    checks.append(_check("f5-series-vs-integral", _worst(errors), tol_f5))

    # Pfaff transformation on randomized arguments, both sides summed as
    # plain series in one call
    a, b, c, x = np.array([[rng.uniform(-2.0, 3.0), rng.uniform(-2.0, 3.0),
                            rng.uniform(0.4, 4.0), rng.uniform(-0.5, 0.5)]
                           for _ in range(100)]).T
    lhs, pfaff = _series_2f1_vec(a, np.stack([b, c - b]), c,
                                 np.stack([x, x / (x - 1.0)]))
    rhs = (1.0 - x) ** (-a) * pfaff
    worst = float(np.max(np.abs(lhs - rhs)))
    checks.append(_check("pfaff-transformation", worst, 1e-10))

    # Appell F1 collapse at d = b + c, the right-hand sides one array call
    cases = []
    for _ in range(40):
        a = rng.uniform(0.3, 2.0)
        b = rng.uniform(0.2, 2.5)
        c = rng.uniform(0.2, 2.0)
        x, y = rng.uniform(-0.3, 0.3, 2)
        cases.append((a, b, c, x, y))
    cases.append((1.3, 2.1, 0.4, 0.2, -0.1))
    lhs = [appell_f1(a, b, c, b + c, x, y) for a, b, c, x, y in cases]
    a, b, c, x, y = np.array(cases).T
    rhs = (1.0 - y) ** (-a) * hypergeom.gauss_2f1_vec(a, b, b + c,
                                                      (x - y) / (1.0 - y))
    checks.append(_check("f1-collapse-d-equals-b-plus-c",
                         _worst(np.abs(lhs - rhs)), 1e-10))
    return checks


def suite_isometry(config: dict) -> list[dict]:
    tol_map = float(config.get("tol", 1e-6))
    c = float(config.get("c", 1.0))
    osc = OscParams(c)
    checks = []
    errors = []
    for m in (0, 1):
        params = ModelParams(osc, m)
        idx = params.landau_index()
        for j in (0, 1, 2):
            # one grid call: each value has the bits of the one-point call
            got = relativistic_transform_grid(params, oscillator_mode(j, osc),
                                              _MAPPING_POINTS).values
            want = basis_phi(j, idx, np.array(_MAPPING_POINTS))
            errors += [abs(value - ref)
                       for value, ref in zip(got.tolist(), want.tolist())]
    checks.append(_check("basis-mapping", _worst(errors), tol_map))

    def mix(xi):
        return (oscillator_mode(0, osc)(xi)
                + oscillator_mode(1, osc)(xi)) / math.sqrt(2.0)

    worst = _worst(isometry_check(ModelParams(osc, m), f)["relative_gap"]
                   for m, f in ((0, oscillator_mode(0, osc)), (0, mix),
                                (1, oscillator_mode(1, osc))))
    checks.append(_check("norm-preservation", worst, 1e-10))

    # classical baseline: Laguerre modes map to monomials
    errors = []
    for sigma in (3.0, 5.5):
        for k in range(5):
            def mode(x, k=k, sigma=sigma):
                x = np.asarray(x, dtype=float)
                return (math.exp(0.5 * (math.lgamma(k + 1) - math.lgamma(sigma + k)))
                        * x ** (0.5 * (sigma - 1.0)) * np.exp(-0.5 * x)
                        * laguerre_l(k, sigma - 1.0, x))
            ratios = [classical_bargmann(sigma, mode, z)[0] / z ** k
                      for z in (0.1, 0.2, 0.3)]
            errors += [abs(ratios[0] - ratios[1]), abs(ratios[1] - ratios[2])]
    checks.append(_check("classical-monomial-image", _worst(errors), 1e-7))
    return checks


def suite_m0_reduction(config: dict) -> list[dict]:
    """The paper's m = 0 kernel identity: the reduced single-2F1 kernel
    ``reference.m0_reduced_kernel`` against the expansion kernel, and its
    holomorphy in z, both relative to N(z)^(1/2) (the size of a kernel row)
    on the xi of ``_M0_XI``."""
    tol = float(config.get("tol", 1e-8))
    osc = OscParams(float(config.get("c", 1.0)))
    idx = ModelParams(osc, 0).landau_index()
    grid = np.array([complex(x, y) for x in (-0.3, 0.0, 0.3)
                     for y in (-0.3, 0.0, 0.3)])
    expansion = transform_kernel_series_grid(ModelParams(osc, 0), grid, _M0_XI)
    gaps = (np.abs(m0_reduced_kernel(osc, grid, _M0_XI) - expansion).max(axis=1)
            / np.sqrt(normalization(idx, grid)))
    checks = [_check("m0-kernel-consistency", _worst(gaps), tol)]

    def kernel(w):
        return m0_reduced_kernel(osc, w, _M0_XI)

    points = np.array(_HOLOMORPHY_POINTS)
    hol = (np.abs(wirtinger_dzbar_fd(kernel, points, _M0_STEP)).max(axis=1)
           / np.sqrt(normalization(idx, points)))
    checks.append(_check("m0-holomorphy", _worst(hol), 1e-5))
    return checks


_SUITE_FUNCS = {
    "orthonormality-disk": suite_orthonormality_disk,
    "orthonormality-oscillator": suite_orthonormality_oscillator,
    "overlap": suite_overlap,
    "resolution": suite_resolution,
    "eigen-equation": suite_eigen_equation,
    "srivastava-rao": suite_srivastava_rao,
    "saran": suite_saran,
    "f5-reductions": suite_f5_reductions,
    "isometry": suite_isometry,
    "m0-reduction": suite_m0_reduction,
}

#: the config keys each suite reads
SUITE_KEYS = {
    "orthonormality-disk": ("kmax", "tol"),
    "orthonormality-oscillator": ("kmax", "tol"),
    "overlap": ("tol",),
    "resolution": ("tol",),
    "eigen-equation": ("sigma", "m", "k", "tol"),
    "srivastava-rao": ("tol",),
    "saran": ("tol",),
    "f5-reductions": ("tol",),
    "isometry": ("c", "tol"),
    "m0-reduction": ("c", "tol"),
}


def _suite_names(suite: str) -> list[str]:
    if suite == "all":
        return list(_SUITE_FUNCS)
    if suite in _SUITE_FUNCS:
        return [suite]
    raise DomainError(f"unknown suite {suite!r}; choose from {SUITES}")


def unread_keys(suite: str, config) -> list[str]:
    """The keys of ``config`` that no suite run by ``suite`` reads, sorted."""
    read = set().union(*(SUITE_KEYS[name] for name in _suite_names(suite)))
    return sorted(set(config) - read)


def _parse_config(config: dict) -> dict:
    """``config`` with each value as the suites read it: the orders kmax, m
    and k as ints, every other key as a finite float.  DomainError names
    the first key whose value is neither; a fractional order is refused
    rather than cut to an int."""
    parsed = {}
    for key, value in config.items():
        if key in ("kmax", "m", "k"):
            parsed[key] = _check_order(value, f"config {key}")
        elif (isinstance(value, numbers.Real) and not isinstance(value, bool)
              and math.isfinite(value)):
            parsed[key] = float(value)
        else:
            raise DomainError(
                f"config {key} must be a finite number, got {value!r}")
    return parsed


def run_suite(suite: str, config: dict | None = None) -> dict:
    """Run one named suite (or ``all``) and return the JSON-ready report,
    whose ``config`` holds the values the suites ran with.

    Raises DomainError for an unknown suite, a config key it does not read,
    a value that is not a nonnegative integer (kmax, m, k) or a finite
    number (c, sigma, tol), or a tolerance outside (0, inf): at 0 every
    check fails, at inf every check passes.
    """
    config = dict(config or {})
    unread = unread_keys(suite, config)
    if unread:
        raise DomainError(f"suite {suite} does not read {', '.join(unread)}")
    config = _parse_config(config)
    if "tol" in config and not config["tol"] > 0.0:
        raise DomainError(f"tol must lie in (0, inf), got {config['tol']!r}")
    checks = []
    for name in _suite_names(suite):
        checks.extend(_SUITE_FUNCS[name](config))
    return {
        "suite": suite,
        "checks": checks,
        "pass": all(c["pass"] for c in checks),
        "version": __version__,
        "config": {k: config[k] for k in sorted(config)},
    }
