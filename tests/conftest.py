import pytest

from bwalloc import simulate


@pytest.fixture(autouse=True)
def _no_kept_pass():
    """Start every test without the Monte Carlo pass that an earlier test
    left behind."""
    simulate._kept.cache_clear()
