import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from liewalk import example_model


@pytest.fixture(scope="session")
def model():
    return example_model(1.0, 1.0)


@pytest.fixture(scope="session")
def dist(model):
    return model.distribution()


@pytest.fixture()
def rng():
    return np.random.default_rng(20240817)


@pytest.fixture()
def fresh_python(tmp_path):
    """run(code, *argv): `python -c code *argv` in a new interpreter that
    imports liewalk from src, in tmp_path, as a CompletedProcess with text output."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))

    def run(code, *argv):
        return subprocess.run([sys.executable, "-c", code, *argv], env=env, cwd=tmp_path,
                              capture_output=True, text=True, timeout=120)
    return run
