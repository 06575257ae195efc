"""The package's public export list, and running ``textmath.cli`` as a module."""
import os
import subprocess
import sys
from pathlib import Path

import textmath


def test_every_export_is_unique_and_resolves():
    names = textmath.__all__
    assert len(names) == len(set(names))
    for name in names:
        assert getattr(textmath, name, None) is not None, name


def test_cli_module_runs_without_a_runtime_warning():
    """Importing the package does not import ``textmath.cli``, so ``-m``
    does not warn that the module is already in ``sys.modules``."""
    src = str(Path(textmath.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    proc = subprocess.run(
        [sys.executable, "-W", "error::RuntimeWarning", "-m", "textmath.cli", "--help"],
        capture_output=True,
        text=True,
        env=env,
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
