import importlib
import pkgutil

import pytest

import delayframe

# __main__ runs the CLI on import, so it is not a library module.
MODULES = sorted(
    info.name for info in pkgutil.iter_modules(delayframe.__path__)
    if info.name != "__main__"
)


@pytest.mark.parametrize("module", ["", *MODULES])
def test_every_export_resolves(module):
    mod = importlib.import_module(f"delayframe.{module}" if module else "delayframe")
    exported = getattr(mod, "__all__", None)
    assert exported, f"{mod.__name__} declares no __all__"
    assert len(set(exported)) == len(exported)
    missing = [name for name in exported if not hasattr(mod, name)]
    assert missing == [], f"{mod.__name__}.__all__ names undefined {missing}"
