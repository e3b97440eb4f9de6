"""Shared test setup: every test starts and ends with an empty G_f cache."""

import pytest

from ngonspiral import spiral


@pytest.fixture(autouse=True)
def _fresh_limit_cache():
    # continuation() keeps each (family, settings)'s G_f for the process; a
    # test that replaces spiral._limit_series must see its stub summed, and
    # must leave no stubbed G_f behind for the tests after it
    spiral._cached_limit_series.cache_clear()
    yield
    spiral._cached_limit_series.cache_clear()
