"""Every demo script runs to completion from a source checkout."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))

DOUBLE_COSETS_OUT = """\
right-coset representatives of the degree-3 coset at level 5:
    [2 0; 10 1]
    [2 0; 5 1]
    [2 2; 5 6]

square identity at (N, p) = (5, 2):
    S': multiplicity 1, degree 6
    <p^-1> R_p: multiplicity 3, degree 1
verdict: True | diamond constituent is diag(p, p^-1) mod N

Iwahori indices at p = 3:
    j = 0: diagonal cell diagonal(0) index 1, antidiagonal cell antidiagonal(0) index 3
    j = 1: diagonal cell diagonal(1) index 9, antidiagonal cell antidiagonal(1) index 27
    j = 2: diagonal cell diagonal(2) index 81, antidiagonal cell antidiagonal(2) index 243
"""


def _run(demo: Path):
    return subprocess.run([sys.executable, str(demo)], capture_output=True,
                          text=True, timeout=120, cwd=ROOT,
                          env={**os.environ, "PYTHONPATH": str(ROOT / "src")})


def test_all_seven_demos_are_found():
    assert len(DEMOS) == 7


@pytest.mark.parametrize("demo", DEMOS, ids=lambda path: path.name)
def test_demo_exits_zero(demo):
    run = _run(demo)
    assert run.returncode == 0, run.stderr


def test_double_coset_demo_prints_the_same_representatives():
    run = _run(ROOT / "demos" / "04_double_cosets.py")
    assert run.returncode == 0, run.stderr
    assert run.stdout == DOUBLE_COSETS_OUT
