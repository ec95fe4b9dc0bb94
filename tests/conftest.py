"""Fixtures shared by the test modules."""

import importlib
import pkgutil

import pytest

import relbargmann


def package_caches() -> list:
    """Every ``functools`` cache defined in a module of the package."""
    caches = []
    for info in pkgutil.iter_modules(relbargmann.__path__):
        if info.name == "__main__":  # importing it runs the CLI
            continue
        module = importlib.import_module(f"relbargmann.{info.name}")
        caches += [obj for obj in vars(module).values()
                   if hasattr(obj, "cache_clear")
                   and getattr(obj, "__module__", None) == module.__name__]
    return caches


@pytest.fixture
def cold_caches():
    """Clear every package cache before and after the test.

    Yields the clearing function, so that a test can clear them again
    after a monkeypatch that a warm cache would hide; the clear on teardown
    drops whatever the patched code cached.
    """
    caches = package_caches()

    def clear():
        for cache in caches:
            cache.cache_clear()

    clear()
    yield clear
    clear()
