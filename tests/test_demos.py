"""The demos print exact certificates, so their output must not move by
a byte."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
GOLDEN = Path(__file__).parent / "golden"


@pytest.mark.parametrize("name", ["catalog_tour", "matrix_model_walkthrough",
                                  "nonregular_locus", "orbit_atlas"])
def test_demo_stdout_matches_golden(name):
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    out = subprocess.run([sys.executable, str(ROOT / "demos" / f"{name}.py")],
                         env=env, capture_output=True, check=True).stdout
    assert out == (GOLDEN / f"demo_{name}.txt").read_bytes()
