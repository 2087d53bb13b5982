import importlib
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import delayframe

DEMOS = Path(__file__).resolve().parents[1] / "demos"

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


@pytest.mark.parametrize("demo", ["lorenz_forcing.py"])
def test_demo_runs(demo):
    # A fresh interpreter with warnings as errors, importing the same
    # package as this suite.
    env = dict(os.environ)
    package_root = str(Path(delayframe.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, (package_root, env.get("PYTHONPATH")))
    )
    done = subprocess.run(
        [sys.executable, "-W", "error", str(DEMOS / demo)],
        env=env, capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stderr
