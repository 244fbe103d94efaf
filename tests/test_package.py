import os
import subprocess
import sys
import types
from pathlib import Path

import rfladder


def test_all_is_every_public_name_the_package_binds():
    names = rfladder.__all__
    assert len(names) == len(set(names))
    assert all(hasattr(rfladder, name) for name in names)
    bound = {
        name for name, value in vars(rfladder).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert sorted(names) == sorted(bound)


def test_python_dash_m_runs_the_cli():
    src = Path(rfladder.__file__).parents[1]  # the tree the suite imports the package from
    run = subprocess.run([sys.executable, "-m", "rfladder", "--version"], capture_output=True,
                         text=True, env={**os.environ, "PYTHONPATH": str(src)}, timeout=60)
    assert (run.returncode, run.stdout) == (0, f"rfladder {rfladder.__version__}\n")
