"""Package-level properties."""

import os
import subprocess
import sys
from pathlib import Path

import coxvol


def test_import_does_not_load_scipy():
    # importing scipy.integrate alone takes most of a second, which every
    # CLI call and the benchmark's set-up time would pay
    src = str(Path(coxvol.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    code = "import coxvol, sys; print('scipy' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True)
    assert out.stdout.strip() == "False"
