"""The tests' one way to start a child interpreter on this checkout's package."""

import os
import subprocess
import sys
from pathlib import Path

SRC_DIR = Path(__file__).resolve().parent.parent / "src"


def run_python(*args, cwd=None, env=None):
    """Run ``python *args`` in a child process, capturing its text output.

    The child gets ``env`` (default: this process's environment) with the
    absolute ``src`` directory first on ``PYTHONPATH``, so the package
    imports from any ``cwd``, installed or not; inherited entries are kept
    after it.
    """
    env = dict(os.environ if env is None else env)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC_DIR)] + [p for p in env.get("PYTHONPATH", "").split(os.pathsep) if p]
    )
    return subprocess.run([sys.executable, *args], capture_output=True, text=True, env=env, cwd=cwd)
