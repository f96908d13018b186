import os
import subprocess
import sys
from pathlib import Path

import pytest

ACCEPTANCE_LINES = []

SRC = str(Path(__file__).resolve().parents[1] / "src")

# the sha256 of `motivic report --format json`; a change that adds, removes
# or relabels report rows updates it here, beside tests/golden/ and
# perfbench.oracles.GOLDEN_REPORT_SHA256
REPORT_SHA256 = (
    "a299071cc34c4a9f590cb191ff23c2a6d0f03d20ac83543d3bac65350cb510b7")


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


def spy_scans(monkeypatch, kernel):
    """The (n, p) of every `kernel._scan` call, in order, recorded in a list
    that the caller keeps: which of the two scan kernels ran."""
    calls = []
    scan = kernel._scan
    monkeypatch.setattr(kernel, "_scan", lambda n, p, stride: (
        calls.append((n, p)) or scan(n, p, stride)))
    return calls


def force_kernel(monkeypatch, name):
    """Make numpy's `_kernel` ("numpy"), as in a process that has loaded
    it, or the pure `_pykernel` ("pure"), as in one that has not, the route
    of the test's scans (the pure kernel's of at most PURE_MAX matrices);
    the other kernel's `_scan` fails the test if it runs.  Returns the
    kernel module."""
    from motivic import _kernel, _pykernel
    if name == "numpy":
        monkeypatch.setitem(sys.modules, "motivic._kernel", _kernel)
        chosen, other = _kernel, _pykernel
    else:
        monkeypatch.delitem(sys.modules, "motivic._kernel")
        chosen, other = _pykernel, _kernel
    monkeypatch.setattr(other, "_scan", lambda *args: pytest.fail(
        f"{other.__name__} ran"))
    return chosen


@pytest.fixture(params=["numpy", "pure"])
def kernel(request, monkeypatch):
    """Each scan kernel in turn, forced as the route of the test's scans."""
    return force_kernel(monkeypatch, request.param)


@pytest.fixture
def scans(monkeypatch, kernel):
    """The (n, p) of every scan of the test, each run in `kernel`."""
    return spy_scans(monkeypatch, kernel)


def flip_sign(monkeypatch, *kernels):
    """Flip the sign of the Pfaffian's a_01 term in each kernel's plan."""
    from motivic import counting
    plan = counting._plan

    def flipped(n):
        avoid, pfaffian = plan(n)
        (sign, sub), *rest = pfaffian
        return avoid, ((-sign, sub), *rest)

    for kernel in kernels:
        monkeypatch.setattr(kernel, "_plan", flipped)


def shift_det(monkeypatch, kernel, where):
    """Add `where(M)`, 0 or 1 per matrix of the stack M, to each of
    `kernel`'s determinants."""
    import numpy as np
    det = kernel._batched_det
    monkeypatch.setattr(kernel, "_batched_det",
                        lambda M: np.add(det(M), where(M)))
