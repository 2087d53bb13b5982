import ast
import importlib
import math
import os
import pkgutil
import re
import subprocess
import sys
from pathlib import Path

import pytest

import delayframe
from delayframe import cli, csvio

ROOT = Path(__file__).resolve().parents[1]
DEMOS = ROOT / "demos"
README = ROOT / "README.md"

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


def _uses(tree, name):
    """(innermost function, line) of each reference to ``name``, as a bare
    name or an attribute, in ``tree``; the function is None at module
    level."""
    defs = [n for n in ast.walk(tree)
            if isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef))]
    found = []
    for node in ast.walk(tree):
        if getattr(node, "id", None) == name or getattr(node, "attr", None) == name:
            around = [d for d in defs if d.lineno <= node.lineno <= d.end_lineno]
            owner = max(around, key=lambda d: d.lineno).name if around else None
            found.append((owner, node.lineno))
    return found


def test_one_orthonormalization_and_one_exact_scaling():
    # linalg._project_twice is the package's one Gram-Schmidt step and
    # linalg._scale its one exact power-of-two scaling. A QR factorization
    # would be a second orthonormalization; a frexp elsewhere, a second
    # scaling. geometry.analytic_curvatures_gram's frexp splits its pivots
    # into mantissa and exponent to take a ratio: it scales nothing.
    qr, frexp = [], set()
    for path in sorted(Path(delayframe.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
        qr += [(path.stem, owner, line) for owner, line in _uses(tree, "qr")]
        frexp |= {(path.stem, owner) for owner, _ in _uses(tree, "frexp")}
    assert qr == []
    assert frexp == {("linalg", "_scale"), ("geometry", "analytic_curvatures_gram")}


def test_one_reader_of_the_central_row():
    # embedding.center_row is the package's one view of the Hankel
    # matrix's central row. Only it, center_hankel (which subtracts the
    # row) and models.fit (which passes its index to thin_svd) look the
    # row's index up.
    users = set()
    for path in sorted(Path(delayframe.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
        users |= {(path.stem, owner) for owner, _ in _uses(tree, "center_index")}
    assert users == {("embedding", "center_row"), ("embedding", "center_hankel"),
                     ("models", "fit")}


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


def test_readme_examples_run(capsys):
    # The python blocks run in order in one namespace, as a reader pasting
    # them into one session would, so a later block may use an earlier
    # block's imports.
    text = README.read_text()
    blocks = re.findall(r"^```python\n(.*?)^```", text, flags=re.M | re.S)
    assert blocks, "README has no python examples"
    namespace = {}
    for block in blocks:
        exec(compile(block, str(README), "exec"), namespace)
    out = capsys.readouterr().out
    # A dataclass whose fields all have repr=False prints as "Name()".
    assert re.search(r"^\w+\(\)$", out, flags=re.M) is None
    # Printed numbers are plain floats, not numpy scalars.
    assert "np.float64(" not in out


def test_failing_property_test_reports_its_example(tmp_path):
    # Under the suite's own settings (warnings are errors), a failing
    # @given test must end in hypothesis's report, not in an INTERNALERROR.
    (tmp_path / "test_fails.py").write_text(
        "from hypothesis import given, strategies as st\n"
        "\n"
        "@given(st.integers())\n"
        "def test_fails(n):\n"
        "    assert n < 0\n"
    )
    done = subprocess.run(
        [sys.executable, "-m", "pytest", "-p", "no:cacheprovider",
         "-c", str(ROOT / "pyproject.toml"), "--rootdir", str(tmp_path),
         "test_fails.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 1, done.stdout + done.stderr
    assert "Falsifying example" in done.stdout
    assert "INTERNALERROR" not in done.stdout + done.stderr


def _trace_targets(monkeypatch):
    """The benchmark tracer's TARGETS, imported from perfbench/spans.py
    without writing its bytecode."""
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    monkeypatch.delitem(sys.modules, "spans", raising=False)
    return importlib.import_module("spans").TARGETS


def test_every_trace_target_resolves(monkeypatch):
    # The tracer wraps each target at the name its caller looks it up by;
    # a target that no longer resolves stops a traced benchmark run.
    missing = []
    for name, _layer, _counter in _trace_targets(monkeypatch):
        module_name, _, attr = name.rpartition(".")
        if not callable(getattr(importlib.import_module(module_name), attr, None)):
            missing.append(name)
    assert missing == []


def test_fit_on_a_csv_reads_it_through_the_traced_name(monkeypatch, tmp_path):
    # The tracer times CSV reading as delayframe.cli.load_series_csv, so a
    # fit must look the reader up there, or its traced time reads 0.
    assert "delayframe.cli.load_series_csv" in [
        name for name, _, _ in _trace_targets(monkeypatch)]
    path = tmp_path / "x.csv"
    path.write_text("time,value\n" + "".join(
        f"{0.01 * k!r},{math.sin(0.1 * k)!r}\n" for k in range(200)))
    read = []

    def spy(name):
        read.append(name)
        return csvio.load_series_csv(name)

    monkeypatch.setattr(cli, "load_series_csv", spy)
    assert cli.main(["fit", "--input", str(path), "--delays", "11", "--rank", "3",
                     "--out-dir", str(tmp_path / "out")]) == 0
    assert read == [str(path)]
