"""Every name in a module's ``__all__`` resolves (``errors`` has none)."""

import inspect

import pytest

import cohdist

MODULES = [cohdist] + [module for module in map(cohdist.__dict__.get, cohdist.__all__)
                       if inspect.ismodule(module) and hasattr(module, "__all__")]


@pytest.mark.parametrize("module", MODULES, ids=[m.__name__ for m in MODULES])
def test_all_names_resolve(module):
    assert [name for name in module.__all__ if not hasattr(module, name)] == []
