"""tools/unreached.py on one run: the functions `qexp` enters are reported
reached, and series arithmetic it never calls is reported unreached."""

import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def test_qexp_alone():
    proc = subprocess.run([sys.executable, os.path.join(ROOT, "tools", "unreached.py"),
                           "--all", "qexp"], capture_output=True, text=True, check=True)
    marks = {}
    for line in proc.stdout.splitlines():
        mark, name = line.split()[:2]
        marks[name] = mark
    assert marks["rankin.eisenstein.eisenstein_qexp"] == "+"
    assert marks["rankin.qseries.QSeries.mul_one_minus"] == "-"
    assert "never entered by: qexp-E, qexp-F, qexp-Etilde" in proc.stderr
