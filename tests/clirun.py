"""One way for the tests to run the CLI, or a repository script, in a
child process: under this interpreter, with the checkout's ``src`` first
on ``PYTHONPATH``, output captured as text, and a timeout."""

import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"


def run_python(*args, timeout=60):
    """``python *args`` in a child process; raises TimeoutExpired past timeout seconds."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, *args], capture_output=True, text=True, timeout=timeout, env=env
    )


def run_cli(*args, timeout=60):
    """``python -m ramify *args`` in a child process."""
    return run_python("-m", "ramify", *args, timeout=timeout)
