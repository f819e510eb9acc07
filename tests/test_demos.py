"""Every script in ``demos/`` runs to completion in a fresh process."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import acmil

DEMOS = sorted((Path(__file__).parents[1] / "demos").glob("*.py"))
SLOW = {"02_train_and_compare.py"}  # trains several models; about a minute on 2 cores


def test_there_are_five_demos():
    assert len(DEMOS) == 5


@pytest.mark.parametrize("demo", [
    pytest.param(demo, id=demo.stem, marks=[pytest.mark.slow] if demo.name in SLOW else [])
    for demo in DEMOS])
def test_the_demo_exits_0(demo, tmp_path):
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [str(Path(acmil.__file__).parents[1]), os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, str(demo)], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr[-2000:]
