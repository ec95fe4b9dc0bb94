"""The verify suites read exactly the config keys their table names,
their grid calls give the bits of the one-point calls, and a NaN error
fails its check."""

import json
import math

import numpy as np
import pytest

from relbargmann import verification
from relbargmann.bargmann import oscillator_mode, relativistic_transform
from relbargmann.coherent import (normalization, overlap_series,
                                  transform_kernel_series)
from relbargmann.disk import basis_phi
from relbargmann.errors import DomainError
from relbargmann.oscillator import ModelParams, OscParams
from relbargmann.reference import m0_reduced_kernel
from relbargmann.verification import SUITE_KEYS, SUITES, run_suite, unread_keys


class ReadRecorder(dict):
    """An empty config that records every key a suite looks up."""

    def __init__(self):
        super().__init__()
        self.read = set()

    def get(self, key, default=None):
        self.read.add(key)
        return super().get(key, default)

    def __getitem__(self, key):
        self.read.add(key)
        return super().__getitem__(key)

    def __contains__(self, key):
        self.read.add(key)
        return super().__contains__(key)


def test_table_covers_every_suite():
    assert set(SUITE_KEYS) == set(SUITES) - {"all"}


@pytest.mark.parametrize("suite", sorted(SUITE_KEYS))
def test_suite_reads_exactly_its_keys(suite):
    config = ReadRecorder()
    verification._SUITE_FUNCS[suite](config)
    assert config.read == set(SUITE_KEYS[suite])


def test_unread_keys():
    assert unread_keys("srivastava-rao", {"c": 2.0, "kmax": 3, "tol": 1e-8,
                                          "sigma": 9.0}) == ["c", "kmax", "sigma"]
    assert unread_keys("eigen-equation", {"sigma": 9.0, "m": 0, "k": 2}) == []
    assert unread_keys("all", {"c": 2.0, "kmax": 3, "k": 1}) == []


def test_run_suite_rejects_unread_key():
    with pytest.raises(DomainError, match="does not read kmax"):
        run_suite("saran", {"kmax": 3})


def test_run_suite_rejects_unknown_suite():
    with pytest.raises(DomainError, match="unknown suite"):
        run_suite("nope")


@pytest.mark.parametrize("suite, config, key", [
    ("overlap", {"tol": "abc"}, "tol"),
    ("overlap", {"tol": None}, "tol"),
    ("overlap", {"tol": math.inf}, "tol"),
    ("orthonormality-disk", {"kmax": "x"}, "kmax"),
    ("orthonormality-disk", {"kmax": 2.9}, "kmax"),
    ("eigen-equation", {"m": 2.7}, "m"),
    ("eigen-equation", {"k": -1}, "k"),
    ("eigen-equation", {"sigma": math.nan}, "sigma"),
    ("eigen-equation", {"sigma": "7.5"}, "sigma"),
    ("isometry", {"c": math.inf}, "c"),
    ("isometry", {"c": None}, "c")])
def test_run_suite_refuses_an_untyped_value(suite, config, key):
    # a value is refused naming its key, never cut to an int or left to
    # raise a ValueError or TypeError inside the suite
    with pytest.raises(DomainError, match=f"config {key} must be"):
        run_suite(suite, config)


def test_run_suite_reports_the_values_it_ran_with():
    # an integral float order runs as that int, and the report says so
    report = run_suite("orthonormality-disk", {"kmax": 3.0, "tol": 1})
    assert report["config"] == {"kmax": 3, "tol": 1.0}
    assert type(report["config"]["kmax"]) is int
    assert report["checks"] == run_suite(
        "orthonormality-disk", {"kmax": 3, "tol": 1.0})["checks"]


def check_error(checks, name):
    (error,) = [c["error"] for c in checks if c["name"] == name]
    return error


def test_basis_mapping_equals_point_loop():
    osc = OscParams(1.0)
    worst = 0.0
    for m in (0, 1):
        params = ModelParams(osc, m)
        for j in (0, 1, 2):
            f = oscillator_mode(j, osc)
            for z in verification._MAPPING_POINTS:
                got = relativistic_transform(params, f, z)
                worst = max(worst, abs(got - basis_phi(j, params.landau_index(), z)))
    checks = verification.suite_isometry({})
    assert check_error(checks, "basis-mapping") == worst


def test_m0_kernel_consistency_equals_point_loop():
    # the reduced kernel against the expansion, one point at a time; the
    # suite's one array call has the bits of the one-element-array calls
    osc = OscParams(1.0)
    params = ModelParams(osc, 0)
    xi = verification._M0_XI
    worst = 0.0
    for x in (-0.3, 0.0, 0.3):
        for y in (-0.3, 0.0, 0.3):
            z = complex(x, y)
            gap = np.abs(m0_reduced_kernel(osc, np.array([z]), xi)[0]
                         - transform_kernel_series(params, z, xi)).max()
            worst = max(worst, gap / math.sqrt(
                normalization(params.landau_index(), z)))
    checks = verification.suite_m0_reduction({})
    assert check_error(checks, "m0-kernel-consistency") == worst


def test_worst_keeps_a_nan():
    assert verification._worst([1.0, 3.0, 2.0]) == 3.0
    assert verification._worst([]) == 0.0
    for errors in ([math.nan, 1.0], [1.0, math.nan], [0.0, math.nan, 2.0]):
        assert math.isnan(verification._worst(errors))
        assert math.isnan(verification._worst(iter(errors)))


def test_nan_error_fails_its_check(monkeypatch):
    # a NaN at one xi of the fifth point, past the first gap: max() would
    # have dropped it and passed the check with the other points' error.
    # The suite takes the kernel of all its points in one call, a row each
    kernel = verification.m0_reduced_kernel
    rows = []

    def nan_at_origin(osc, z, xi):
        out = kernel(osc, z, xi)
        origin = np.flatnonzero(np.ravel(z) == 0)
        rows.extend(origin.tolist())
        out.reshape(-1, len(xi))[origin, 3] = math.nan
        return out

    monkeypatch.setattr(verification, "m0_reduced_kernel", nan_at_origin)
    report = run_suite("m0-reduction")
    assert rows == [4]
    (check,) = [c for c in report["checks"]
                if c["name"] == "m0-kernel-consistency"]
    assert math.isnan(check["error"]) and check["pass"] is False
    assert report["pass"] is False


def test_overlap_suite_draws_the_pairs_of_the_point_loop(monkeypatch):
    # one draw of shape (50, 2, 2) per level is the stream of 50 draws of
    # shape (2, 2), one pair each, that the suite made before; the 50 pairs
    # of a level go to one overlap_series call, as arrays
    seen = []

    def series(idx, z, w):
        seen.append((idx.sigma, idx.m, z.tolist(), w.tolist()))
        return overlap_series(idx, z, w)

    monkeypatch.setattr(verification, "overlap_series", series)
    verification.suite_overlap({})
    rng = np.random.default_rng(20240611)
    want = []
    for sigma, m in verification._DISK_CASES:
        pairs = [[complex(*p) for p in rng.uniform(-0.354, 0.354, (2, 2))]
                 for _ in range(50)]
        want.append((sigma, m, *map(list, zip(*pairs))))
    assert seen == want


def test_report_is_the_same_cold_and_warm(cold_caches):
    # every package cache empty, then filled by the first run
    cold = json.dumps(run_suite("all"), sort_keys=True)
    assert json.dumps(run_suite("all"), sort_keys=True) == cold
