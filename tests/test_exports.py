import importlib
import inspect
import pkgutil

import pytest

import fedcal

SUBMODULES = sorted(info.name for info in pkgutil.iter_modules(fedcal.__path__))


@pytest.mark.parametrize("name", SUBMODULES)
def test_each_exported_name_is_defined_in_its_module(name):
    # a name left in __all__ after its function moved would fail here
    module = importlib.import_module(f"fedcal.{name}")
    for export in module.__all__:
        assert hasattr(module, export), f"{module.__name__} has no {export}"
        value = getattr(module, export)
        if inspect.isfunction(value) or inspect.isclass(value):
            assert value.__module__ == module.__name__, (
                f"{module.__name__}.{export} is defined in {value.__module__}")

