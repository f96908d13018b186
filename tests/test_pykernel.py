"""The pure-Python scan kernel against numpy's, field by field and under
faults, and the rule that picks one of them; the kernel-level fault tests
run over both kernels in test_counting.py."""

import hashlib
import sys
from pathlib import Path

import numpy as np
import pytest

from conftest import (REPORT_SHA256, flip_sign, force_kernel, fresh_python,
                      shift_det, spy_scans)

from motivic import _kernel, _pykernel, counting, suites
from motivic.cli import main
from motivic.counting import PURE_MAX, SPOT_STRIDE, scan_skew
from motivic.skew import _is_prime

GOLDEN = Path(__file__).parent / "golden"

# every shape that the pure kernel takes at n = 2 and 3, and n = 1 at the
# two smallest primes, at 8191 (two class tables) and at 2^17 - 1, the
# largest prime under PURE_MAX
SHAPES = [(2, 2), (2, 3), (2, 5), (2, 7), (3, 2), (1, 2), (1, 3), (1, 8191),
          (1, 131071)]


@pytest.fixture
def no_numpy_kernel(monkeypatch):
    """Scans as in a process that has not loaded numpy's kernel."""
    monkeypatch.delitem(sys.modules, "motivic._kernel")


def _fields(kernel, n, p, stride):
    # every field but the phase seconds, as plain values
    got = kernel._scan(n, p, stride)
    assert tuple(got.pop("phases")) == counting.PHASES
    return {k: v.tolist() if isinstance(v, np.ndarray) else v
            for k, v in got.items()}


def _upper(n, index, p):
    # the upper-triangle entries of the matrix at a scan index, as
    # ((i, j), digit) in row-major order
    size = 2 * n
    pairs = [(i, j) for i in range(size) for j in range(i + 1, size)]
    return [(ij, index // p ** t % p) for t, ij in enumerate(pairs)]


def _inject(monkeypatch, fault, n, p):
    """Install one fault in both kernels: a determinant off by one on the
    middle sample, or the sign of the Pfaffian's a_01 term flipped."""
    if fault == "determinant":
        samples = -(-p ** (n * (2 * n - 1)) // SPOT_STRIDE)
        target = _upper(n, samples // 2 * SPOT_STRIDE, p)
        for kernel in (_kernel, _pykernel):
            shift_det(monkeypatch, kernel, lambda M: np.all(
                [np.equal(M[i][j], d) for (i, j), d in target], axis=0))
        return samples // 2 * SPOT_STRIDE
    if fault == "coefficient sign":
        flip_sign(monkeypatch, _kernel, _pykernel)
    return None


FAULTS = [(n, p, fault) for n, p in SHAPES
          for fault in (None, "determinant", "coefficient sign")]


@pytest.mark.parametrize("stride", [0, SPOT_STRIDE])
@pytest.mark.parametrize("n, p, fault", FAULTS)
def test_kernels_agree(monkeypatch, n, p, stride, fault):
    # the same histogram, tail ranks, sample and failures, first ones
    # included, from both kernels, faults and all
    assert p ** (n * (2 * n - 1)) <= PURE_MAX
    bad = _inject(monkeypatch, fault, n, p)
    pure = _fields(_pykernel, n, p, stride)
    assert type(pure["hist"]) is list and type(pure["tail_ranks"]) is list
    assert pure == _fields(_kernel, n, p, stride)
    if fault == "determinant" and stride:
        assert (pure["violations"], pure["first_bad"]) == (1, bad)
    elif fault == "coefficient sign" and n > 1 and p > 2:
        assert pure["tail_violations"] and pure["first_tail_bad"]
    else:
        # at n = 1 a flipped sign is unseen: adj(B) of the 1x1 tail is
        # [1] = (p - 1)^2 mod p, and Pf^2 = det on every sample
        assert pure["violations"] == pure["tail_violations"] == 0


# numpy's kernel at (1, p) with the a_01 sign flipped, in a process whose
# address space is capped at 1 GiB: its tail and sample failures, and its
# peak RSS in KiB (VmHWM, as ru_maxrss would keep the peak of the process
# that started it)
_FLIPPED_SCAN = """\
import resource, sys
resource.setrlimit(resource.RLIMIT_AS,
                   (1 << 30, resource.getrlimit(resource.RLIMIT_AS)[1]))
from motivic import _kernel, counting
plan = counting._plan
def flipped(n):
    avoid, ((sign, sub), *rest) = plan(n)
    return avoid, ((-sign, sub), *rest)
_kernel._plan = flipped
part = _kernel._scan(1, int(sys.argv[1]), counting.SPOT_STRIDE)
print(part["tail_violations"], part["violations"],
      *(line.split()[1] for line in open("/proc/self/status")
        if line.startswith("VmHWM:")))
"""


@pytest.mark.parametrize("p", [8191, 131071])
def test_a_flipped_sign_scan_stays_small(p):
    # the one coefficient is then p - 1, and its row-0 products span about
    # p^2 values; numpy's class pass reduces such a table mod p before its
    # bincount, so no tally passes max(p, _CHUNK) entries.  Tallied over
    # that span, (1, 8191) peaks at 541 MiB and (1, 131071) asks for
    # 128 GiB
    out = fresh_python("-c", _FLIPPED_SCAN, str(p))
    tail_violations, violations, peak_kib = map(int, out.stdout.split())
    assert tail_violations == violations == 0
    assert peak_kib < 64 * 1024


def test_a_small_scan_loads_no_numpy():
    # in a fresh process, nor through what the pure kernel imports
    out = fresh_python("-c", "import sys\n"
                       "from motivic.counting import scan_skew\n"
                       "scan_skew(3, 2)\n"
                       "print(*sorted(m for m in ('numpy', 'motivic._kernel',"
                       " 'motivic._pykernel') if m in sys.modules))")
    assert out.stdout.split() == [b"motivic._pykernel"]


def test_the_size_line_picks_the_kernel(monkeypatch, no_numpy_kernel):
    # up to PURE_MAX = 2^17 matrices a scan runs in pure Python while
    # numpy's kernel is not loaded; above it, in numpy's kernel
    assert PURE_MAX == 1 << 17 and _is_prime(PURE_MAX - 1)
    numpy_calls = spy_scans(monkeypatch, _kernel)
    pure_calls = spy_scans(monkeypatch, _pykernel)
    for n, p in ((2, 3), (2, 11), (3, 2), (2, 7), (1, 131071), (1, 131101)):
        scan_skew(n, p)
    assert pure_calls == [(2, 3), (3, 2), (2, 7), (1, 131071)]
    assert numpy_calls == [(2, 11), (1, 131101)]


def test_a_loaded_numpy_kernel_takes_small_scans(monkeypatch):
    # this process has loaded `_kernel`, so a (2, 3) scan runs in it
    assert "motivic._kernel" in sys.modules
    numpy_calls = spy_scans(monkeypatch, _kernel)
    pure_calls = spy_scans(monkeypatch, _pykernel)
    assert scan_skew(2, 3).pf_counts == {0: 261, 1: 234, 2: 234}
    assert (numpy_calls, pure_calls) == ([(2, 3)], [])


def test_katz_scans_largest_first(monkeypatch, no_numpy_kernel, capsys):
    # the default report's katz scans (3, 3) first, whose 3^15 matrices
    # take numpy's kernel, and the smaller shapes after it take that kernel
    # too; its rows keep their order and the report its bytes
    order = []
    scan = suites.scan_skew
    monkeypatch.setattr(suites, "scan_skew", lambda n, p, **kwargs: (
        order.append((n, p)) or scan(n, p, **kwargs)))
    numpy_calls = spy_scans(monkeypatch, _kernel)
    pure_calls = spy_scans(monkeypatch, _pykernel)
    # numpy's kernel is loaded by the first scan, as in a fresh process
    import_kernel = counting._kernel_for

    def kernel_for(total):
        kernel = import_kernel(total)
        if kernel is _kernel:
            sys.modules.setdefault("motivic._kernel", _kernel)
        return kernel

    monkeypatch.setattr(counting, "_kernel_for", kernel_for)
    assert main(["report", "--format", "json", "--workers", "1"]) == 0
    out = capsys.readouterr().out
    assert order == [(3, 3), (3, 2), (2, 3), (2, 2)]
    assert numpy_calls == order and pure_calls == []
    assert hashlib.sha256(out.encode()).hexdigest() == REPORT_SHA256


def test_report_p2_from_the_pure_kernel_matches_golden(monkeypatch, capsys):
    # every shape of a report at p = 2 is small, so in a process without
    # numpy's kernel it scans in pure Python, with the same bytes
    scans = spy_scans(monkeypatch, force_kernel(monkeypatch, "pure"))
    assert main(["report", "--p", "2", "--format", "json"]) == 0
    assert capsys.readouterr().out.encode() == \
        (GOLDEN / "report_p2.json").read_bytes()
    assert scans == [(3, 2), (2, 2)]


def test_katz_report_never_loads_the_pure_kernel():
    # the default report's first scan, (3, 3), loads numpy's kernel
    out = fresh_python("-c", "import contextlib, io, sys\n"
                       "from motivic.cli import main\n"
                       "with contextlib.redirect_stdout(io.StringIO()):\n"
                       "    assert main(['report', '--suites', 'katz']) == 0\n"
                       "print(*sorted(m for m in sys.modules "
                       "if m.startswith('motivic._')))")
    assert out.stdout.split() == [b"motivic._kernel", b"motivic._record"]
