"""The verify suites read exactly the config keys their table names."""

import pytest

from relbargmann import verification
from relbargmann.errors import DomainError
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
