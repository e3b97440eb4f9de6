"""Shared test setup: every test starts and ends with empty G_f and
first-chunk caches."""

import sys

import pytest

from ngonspiral import spiral


def _clear_caches():
    spiral._cached_limit_series.cache_clear()
    # the first-chunk tables live in _arrays, which imports numpy: clear
    # them only once it is loaded, so the fixture imports neither
    arrays = sys.modules.get("ngonspiral._arrays")
    if arrays is not None:
        arrays._first_run.cache_clear()


@pytest.fixture(autouse=True)
def _fresh_caches():
    # continuation() keeps each (family, settings)'s G_f for the process,
    # and a run from V(2) each family's first chunk; a test that replaces
    # spiral._limit_series must see its stub summed, and a test that counts
    # a run's work must see the first run build its table, whichever tests
    # ran before it; each leaves no stubbed G_f behind
    _clear_caches()
    yield
    _clear_caches()
