"""The verify suites read exactly the config keys their table names, and
their grid calls give the bits of the one-point calls."""

import json

import pytest

from relbargmann import verification
from relbargmann.bargmann import (oscillator_mode, relativistic_transform,
                                  relativistic_transform_m0)
from relbargmann.disk import basis_phi
from relbargmann.errors import DomainError
from relbargmann.oscillator import ModelParams, OscParams
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
    osc = OscParams(1.0)
    f = oscillator_mode(1, osc)
    worst = 0.0
    for x in (-0.3, 0.0, 0.3):
        for y in (-0.3, 0.0, 0.3):
            z = complex(x, y)
            full = relativistic_transform(ModelParams(osc, 0), f, z)
            worst = max(worst, abs(full - relativistic_transform_m0(osc, f, z)))
    checks = verification.suite_m0_reduction({})
    assert check_error(checks, "m0-kernel-consistency") == worst


def test_report_is_the_same_cold_and_warm(cold_caches):
    # every package cache empty, then filled by the first run
    cold = json.dumps(run_suite("all"), sort_keys=True)
    assert json.dumps(run_suite("all"), sort_keys=True) == cold
