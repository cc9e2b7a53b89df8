"""Shared fixtures, and the one Hypothesis profile."""

import importlib
import pkgutil

import pytest
from hypothesis import settings

import glhecke
from glhecke import theta

# every property test runs without a deadline, since exact arithmetic on a
# shared machine has no stable time per example, and derandomized, so each
# run draws the same examples; a test's @settings names only max_examples
settings.register_profile("glhecke", deadline=None, derandomize=True)
settings.load_profile("glhecke")

_MODULES = [
    importlib.import_module(f"glhecke.{info.name}")
    for info in pkgutil.iter_modules(glhecke.__path__)
    if not info.name.startswith("_")
]


def _package_caches():
    """Every ``functools.cache`` table of the package, found by its
    ``cache_clear`` attribute, so a new one is covered too."""
    return {obj for mod in _MODULES for obj in vars(mod).values() if hasattr(obj, "cache_clear")}


@pytest.fixture
def fresh_caches(monkeypatch):
    """Empty every per-rank table of the package before the test and again
    after it: a test that plants a fault into something a table stores (a
    product, the theorem basis, its step data, a generator matrix) must
    neither read entries an earlier test built nor leave faulty ones for a
    later test.  The generator matrices of ``theta`` are a plain dict, so the
    test gets a fresh one and the old one is put back after it."""
    caches = _package_caches()
    for fn in caches:
        fn.cache_clear()
    monkeypatch.setattr(theta, "_matrix_cache", {})
    yield
    for fn in caches:
        fn.cache_clear()
