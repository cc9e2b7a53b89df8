"""Shared fixtures."""

import importlib
import pkgutil

import pytest

import glhecke

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
def fresh_caches():
    """Empty every per-rank table of the package before the test and again
    after it: a test that plants a fault into something a table stores (a
    product, the theorem basis, its step data) must neither read entries an
    earlier test built nor leave faulty ones for a later test."""
    caches = _package_caches()
    for fn in caches:
        fn.cache_clear()
    yield
    for fn in caches:
        fn.cache_clear()
