"""The scripts under ``scripts/`` run to completion on small inputs."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("argv", [
    ["fixture_tour.py"],
    ["find_negative_controls.py", "--limit", "1"],
    ["probe_conjecture.py", "--n", "3", "--m", "2", "--trials", "1", "--seed", "0"],
    pytest.param(["probe_conjecture.py", "--n", "5", "--m", "2", "--trials", "2", "--seed", "0"],
                 id="probe_conjecture_5_2"),
], ids=lambda argv: argv[0][:-3])
def test_script_exits_zero(argv):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, str(ROOT / "scripts" / argv[0]), *argv[1:]],
                          cwd=ROOT, env=env, capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    assert done.stdout
