"""The package's public names."""

import bwalloc


def test_all_lists_each_public_name_once():
    assert [name for name in bwalloc.__all__ if not hasattr(bwalloc, name)] == []
    assert len(set(bwalloc.__all__)) == len(bwalloc.__all__)
    namespace = {}
    exec("from bwalloc import *", namespace)
    assert set(bwalloc.__all__) <= set(namespace)
