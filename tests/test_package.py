"""The package's export lists: every listed name resolves, none twice."""

import importlib
import pkgutil

import pytest

import catchup

MODULES = ["catchup"] + [f"catchup.{m.name}" for m in pkgutil.iter_modules(catchup.__path__)]


@pytest.mark.parametrize("name", MODULES)
def test_export_list_resolves_without_repeats(name):
    module = importlib.import_module(name)
    exported = module.__all__
    assert sorted(n for n in set(exported) if exported.count(n) > 1) == []
    assert [n for n in exported if not hasattr(module, n)] == []
