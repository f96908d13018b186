import os
import subprocess
import sys
from pathlib import Path

ACCEPTANCE_LINES = []

SRC = str(Path(__file__).resolve().parents[1] / "src")


def pytest_terminal_summary(terminalreporter):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)


def fresh_python(*args, unset=(), **env):
    """The completed `python *args` in a new process, with motivic's `src`
    on PYTHONPATH: the caller's environment without the names in `unset`,
    then updated by `env`.  Output is captured as bytes; a nonzero exit
    raises."""
    environ = dict(os.environ, PYTHONPATH=SRC)
    for name in unset:
        environ.pop(name, None)
    environ.update(env)
    return subprocess.run([sys.executable, *args], capture_output=True,
                          check=True, env=environ)
