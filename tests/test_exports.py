"""The package's export list names each public object once, and every name
in it exists, so a name deleted from a module cannot linger in ``__all__``."""

import rctm


def test_every_exported_name_is_an_attribute():
    missing = [name for name in rctm.__all__ if not hasattr(rctm, name)]
    assert missing == []


def test_no_exported_name_appears_twice():
    assert len(set(rctm.__all__)) == len(rctm.__all__)


def test_star_import_runs():
    namespace = {}
    exec("from rctm import *", namespace)
    assert set(rctm.__all__) <= set(namespace)
