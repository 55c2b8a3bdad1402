"""The declared dependencies are exactly the third-party imports of the
package, so installing it pulls in nothing unused and misses nothing; the
package runs on the standard library alone; and no check in the package is
an assert statement, which python -O strips."""

import ast
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def _third_party_imports():
    names = set()
    for path in sorted((ROOT / "src" / "rankin").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names.update(alias.name.split(".")[0] for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names.add(node.module.split(".")[0])
    return names - set(sys.stdlib_module_names)


def _declared_dependencies():
    tomllib = pytest.importorskip("tomllib")  # in the stdlib from Python 3.11
    with open(ROOT / "pyproject.toml", "rb") as fh:
        deps = tomllib.load(fh)["project"]["dependencies"]
    return {re.match(r"[A-Za-z0-9_.-]+", d).group().lower() for d in deps}


def test_no_assert_statements_in_the_package():
    # python -O strips assert statements; soundness checks raise explicitly
    found = [f"{path.name}:{node.lineno}"
             for path in sorted((ROOT / "src" / "rankin").glob("*.py"))
             for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
             if isinstance(node, ast.Assert)]
    assert found == []


def test_declared_dependencies_are_the_imports():
    assert _third_party_imports() == _declared_dependencies() == set()


@pytest.mark.parametrize("argv", [
    ["verify-norm-relations", "--identity", "weil-bounds"],
    ["euler-factor", "--f", "src/rankin/data/f11.eigenform",
     "--g", "src/rankin/data/g26.eigenform", "--prime", "3"],
])
def test_runs_without_site_packages(argv):
    # python -S leaves site-packages off sys.path: the stdlib must suffice
    run = subprocess.run([sys.executable, "-S", "-m", "rankin.cli", *argv],
                         capture_output=True, text=True, timeout=120, cwd=ROOT,
                         env={**os.environ, "PYTHONPATH": str(ROOT / "src")})
    assert run.returncode == 0, run.stderr
    assert "PASS" in run.stdout
