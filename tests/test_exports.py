"""Every exported name resolves, so a deleted helper cannot linger in __all__."""

import importlib

import pytest


@pytest.mark.parametrize(
    "module", ["lgmirror", "lgmirror.ladder", "lgmirror.plucker", "lgmirror.polytope"]
)
def test_all_names_resolve(module):
    mod = importlib.import_module(module)
    assert mod.__all__
    missing = [name for name in mod.__all__ if not hasattr(mod, name)]
    assert missing == []
