import importlib
import pkgutil

import pytest

import duomech

MODULES = sorted(
    info.name for info in pkgutil.iter_modules(duomech.__path__)
    if info.name != "__main__"
)


def test_package_exports_resolve_once():
    assert len(duomech.__all__) == len(set(duomech.__all__))
    for name in duomech.__all__:
        assert hasattr(duomech, name), name


@pytest.mark.parametrize("module", MODULES)
def test_module_exports_resolve(module):
    mod = importlib.import_module(f"duomech.{module}")
    for name in getattr(mod, "__all__", ()):
        assert hasattr(mod, name), f"duomech.{module}.{name}"
