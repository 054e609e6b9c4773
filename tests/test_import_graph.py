"""The package's import graph stays free of scipy.stats."""

import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"


def test_package_does_not_import_scipy_stats():
    # a fresh interpreter: the test session itself imports scipy.stats as an oracle
    code = ("import sys, gesdispatch, gesdispatch.cli, gesdispatch.reliability, gesdispatch.reserve; "
            "print('scipy.stats' in sys.modules)")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))}
    run = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, check=True)
    assert run.stdout.strip() == "False"
