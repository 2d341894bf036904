"""One way for the tests to run the CLI, or a repository script, in a
child process: under this interpreter, with the checkout's ``src`` first
on ``PYTHONPATH``, output captured as text, and a timeout."""

import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"


def child_env():
    """This process's environment with the checkout's ``src`` first on ``PYTHONPATH``."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def run_python(*args, timeout=60):
    """``python *args`` in a child process; raises TimeoutExpired past timeout seconds."""
    return subprocess.run(
        [sys.executable, *args], capture_output=True, text=True, timeout=timeout, env=child_env()
    )


def run_cli(*args, timeout=60):
    """``python -m ramify *args`` in a child process."""
    return run_python("-m", "ramify", *args, timeout=timeout)


def popen_cli(*args):
    """``python -m ramify *args`` started with its stdout and stderr on text pipes."""
    return subprocess.Popen(
        [sys.executable, "-m", "ramify", *args],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, env=child_env(),
    )
