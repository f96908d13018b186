"""The pure-Python scan kernel against numpy's, the rule that picks one of
them, and the faults of test_counting.py injected into the pure kernel."""

import hashlib
import re
import sys
from pathlib import Path

import numpy as np
import pytest

from conftest import fresh_python, spy_scans

from motivic import _kernel, _pykernel, counting, suites
from motivic.cli import main
from motivic.counting import PURE_MAX, SPOT_STRIDE, scan_skew
from motivic.errors import ConsistencyError
from motivic.skew import GF, _is_prime, parse_skew_literal

GOLDEN = Path(__file__).parent / "golden"
REPORT_SHA256 = (
    "a299071cc34c4a9f590cb191ff23c2a6d0f03d20ac83543d3bac65350cb510b7")

# every shape that the pure kernel takes at n = 2 and 3, and n = 1 at the
# two smallest primes, at 8191 (two class tables) and at 2^17 - 1, the
# largest prime under PURE_MAX
SHAPES = [(2, 2), (2, 3), (2, 5), (2, 7), (3, 2), (1, 2), (1, 3), (1, 8191),
          (1, 131071)]


@pytest.fixture
def no_numpy_kernel(monkeypatch):
    """Scans as in a process that has not loaded numpy's kernel."""
    monkeypatch.delitem(sys.modules, "motivic._kernel")


@pytest.fixture
def pure_route(monkeypatch, no_numpy_kernel):
    """The shapes that `_pykernel._scan` ran, while `_kernel._scan` must
    not run."""
    monkeypatch.setattr(_kernel, "_scan",
                        lambda *args: pytest.fail("the numpy kernel ran"))
    return spy_scans(monkeypatch, _pykernel)


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
        det = _kernel._batched_det
        monkeypatch.setattr(_kernel, "_batched_det", lambda M: det(M) + np.all(
            [M[i, j] == d for (i, j), d in target], axis=0))
        pydet = _pykernel._batched_det
        monkeypatch.setattr(_pykernel, "_batched_det", lambda M: [
            d + all(M[i][j][k] == v for (i, j), v in target)
            for k, d in enumerate(pydet(M))])
        return samples // 2 * SPOT_STRIDE
    if fault == "coefficient sign":
        plan = counting._plan

        def flipped(n):
            avoid, pfaffian = plan(n)
            (sign, sub), *rest = pfaffian
            return avoid, ((-sign, sub), *rest)

        monkeypatch.setattr(_kernel, "_plan", flipped)
        monkeypatch.setattr(_pykernel, "_plan", flipped)
    return None


# At n = 1 a flipped sign makes the one coefficient p - 1, and numpy's
# class pass tallies the unreduced products over their range, (p - 1)^2
# entries: 0.5 GB at p = 8191.  So that fault runs at the small primes.
FAULTS = [(n, p, fault) for n, p in SHAPES
          for fault in (None, "determinant", "coefficient sign")
          if fault != "coefficient sign" or n > 1 or p < 8191]


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
        assert pure["violations"] == pure["tail_violations"] == 0


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


def test_report_p2_from_the_pure_kernel_matches_golden(pure_route, capsys):
    # every shape of a report at p = 2 is small, so in a process without
    # numpy's kernel it scans in pure Python, with the same bytes
    assert main(["report", "--p", "2", "--format", "json"]) == 0
    assert capsys.readouterr().out.encode() == \
        (GOLDEN / "report_p2.json").read_bytes()
    assert pure_route == [(3, 2), (2, 2)]


def test_katz_report_never_loads_the_pure_kernel():
    # the default report's first scan, (3, 3), loads numpy's kernel
    out = fresh_python("-c", "import contextlib, io, sys\n"
                       "from motivic.cli import main\n"
                       "with contextlib.redirect_stdout(io.StringIO()):\n"
                       "    assert main(['report', '--suites', 'katz']) == 0\n"
                       "print(*sorted(m for m in sys.modules "
                       "if m.startswith('motivic._')))")
    assert out.stdout.split() == [b"motivic._kernel", b"motivic._record"]


# -- the faults of test_counting.py, in the pure kernel ----------------------


def test_pure_spot_sample_sets_every_row0_digit(monkeypatch, pure_route):
    seen = []
    det = _pykernel._batched_det
    monkeypatch.setattr(_pykernel, "_batched_det", lambda M: (
        seen.extend(zip(*M[0][1:])) or det(M)))
    for n, p in ((3, 2), (2, 5), (2, 7)):
        seen.clear()
        scan_skew(n, p, "hist")
        assert len(seen) == -(-p ** (n * (2 * n - 1)) // SPOT_STRIDE)
        assert all(any(row[k] for row in seen) for k in range(2 * n - 1))
    assert pure_route == [(3, 2), (2, 5), (2, 7)]


@pytest.mark.parametrize("chunk", [20, 40, 100])
def test_pure_class_tables_split_into_chunks(monkeypatch, pure_route, chunk):
    # a class table holds at most max(_TABLE, p^(2n-2)) row-0 values: the
    # top row-0 digit is cut into ranges; the counts are those of the
    # default tables
    def counts(n, p):
        s = scan_skew(n, p, "full")
        return dict(s.pf_counts), s.rank_counts, s.spot_checked

    shapes = ((2, 3), (3, 2), (2, 5), (1, 8191))
    whole = {shape: counts(*shape) for shape in shapes}
    tables = []
    products = _pykernel._products
    monkeypatch.setattr(_pykernel, "_products", lambda v, x: (
        tables.append(len(out := products(v, x))) or out))
    monkeypatch.setattr(_pykernel, "_TABLE", chunk)
    for (n, p), want in whole.items():
        tables.clear()
        assert counts(n, p) == want
        assert max(tables) <= max(chunk, p ** (2 * n - 2))
        assert sum(t for t in tables if t > 1) >= p ** (2 * n - 1)
    assert pure_route == [*shapes, *shapes]


def test_pure_spot_check_failure_names_first_offender(monkeypatch,
                                                      pure_route):
    # a determinant off by one wherever entry (0, 1) is 2
    det = _pykernel._batched_det
    monkeypatch.setattr(_pykernel, "_batched_det", lambda M: [
        d + (x == 2) for d, x in zip(det(M), M[0][1])])
    sampled = range(0, 5 ** 6, SPOT_STRIDE)
    bad = [i for i in sampled if i % 5 == 2]
    with pytest.raises(ConsistencyError) as exc:
        scan_skew(2, 5, "hist")
    message = str(exc.value)
    assert f"failed on {len(bad)} of {len(sampled)} sampled" in message
    assert f"index {bad[0]} at (n, p) = (2, 5)" in message
    literal = re.search(r"skew\d+ \[[^\]]*\]", message).group()
    assert parse_skew_literal(literal, GF(5)).entry(0, 1) == 2
    assert pure_route == [(2, 5)]


def test_pure_tail_check_catches_a_coefficient_sign(monkeypatch):
    # the Pfaffian's a_01 term with its sign flipped in both kernels: the
    # same tails fail, with the same first entry, as in numpy's kernel,
    # whose message test_counting.py reads against skew.pfaffian
    plan = counting._plan

    def flipped(n):
        avoid, pfaffian = plan(n)
        (sign, sub), *rest = pfaffian
        return avoid, ((-sign, sub), *rest)

    def messages():
        out = []
        for n, p in ((2, 3), (2, 5)):
            with pytest.raises(ConsistencyError) as exc:
                scan_skew(n, p, "hist", spot_stride=0)
            out.append(str(exc.value))
        return out

    monkeypatch.setattr(_kernel, "_plan", flipped)
    monkeypatch.setattr(_pykernel, "_plan", flipped)
    numpy_calls = spy_scans(monkeypatch, _kernel)
    pure_calls = spy_scans(monkeypatch, _pykernel)
    numpy_messages = messages()
    monkeypatch.delitem(sys.modules, "motivic._kernel")
    assert messages() == numpy_messages
    assert numpy_calls == pure_calls == [(2, 3), (2, 5)]
    assert all("adj(B)[0, " in m or ", 0] = " in m for m in numpy_messages)


@pytest.mark.parametrize("fault", ["product", "vector decode"])
def test_pure_class_pass_fault_is_caught_by_the_sample(monkeypatch,
                                                       pure_route, fault):
    # the sample takes the class pass's decode and product routines, so it
    # catches a fault there; with no sample, the rank-4 bucket check
    # catches a product off by one, and a reversed vector goes unseen
    if fault == "product":
        products = _pykernel._products
        monkeypatch.setattr(_pykernel, "_products", lambda v, x: [
            y + 1 for y in products(v, x)])
    else:
        vector = _pykernel._vector
        monkeypatch.setattr(_pykernel, "_vector",
                            lambda *args: vector(*args)[::-1])
    with pytest.raises(ConsistencyError, match=r"Pf\^2 = det failed on"):
        scan_skew(2, 5, "hist")
    for mode in ("hist", "full"):
        if fault == "product":
            with pytest.raises(ConsistencyError,
                               match=r"rank-4 bucket holds 12400 matrices "
                                     r"but #\{Pf != 0\} = \d+ at "
                                     r"\(n, p\) = \(2, 5\)"):
                scan_skew(2, 5, mode, spot_stride=0)
        else:
            assert scan_skew(2, 5, mode, spot_stride=0).tails_checked == 125
    assert pure_route == [(2, 5)] * 3


@pytest.mark.parametrize("exc_type", [ConsistencyError, ValueError])
def test_pure_tail_check_error_reraised_with_type_and_message(
        monkeypatch, pure_route, exc_type):
    check = _pykernel._tail_check

    def faulty(B, coeff, p):
        if any(B[3][4]):  # a_45, the top tail digit
            raise exc_type("a tail with a_45 = 1 at (n, p) = (3, 2)")
        return check(B, coeff, p)

    monkeypatch.setattr(_pykernel, "_tail_check", faulty)
    with pytest.raises(exc_type) as exc:
        scan_skew(3, 2, "hist")
    assert type(exc.value) is exc_type
    assert str(exc.value) == "a tail with a_45 = 1 at (n, p) = (3, 2)"
    assert pure_route == [(3, 2)]


def test_pure_sample_fault_names_first_offender(monkeypatch, pure_route):
    # a determinant off by one on the matrices of (3, 2) whose top tail
    # entry a_45 is 1: the first sampled index from 2^14 on
    det = _pykernel._batched_det
    monkeypatch.setattr(_pykernel, "_batched_det", lambda M: [
        d + (x == 1) for d, x in zip(det(M), M[4][5])])
    with pytest.raises(ConsistencyError) as exc:
        scan_skew(3, 2, "hist")
    first = -(-2 ** 14 // SPOT_STRIDE) * SPOT_STRIDE
    assert f"the first is index {first} at (n, p) = (3, 2)" in str(exc.value)
    assert pure_route == [(3, 2)]


@pytest.mark.parametrize("shift, message", [
    (lambda ranks: [ranks[0] + 1, *ranks[1:]],
     "the tail rank tally [2, 26] sums to 28, not to the 27 tails checked "
     "at (n, p) = (2, 3)"),
    (lambda ranks: ranks[::-1],
     "the rank-4 bucket holds 18 matrices but #{Pf != 0} = 468 at "
     "(n, p) = (2, 3)")], ids=["extra tail", "swapped ranks"])
@pytest.mark.parametrize("mode", ["hist", "full"])
def test_pure_shifted_tail_rank_tally_is_refused(monkeypatch, pure_route,
                                                 shift, message, mode):
    scan = _pykernel._scan

    def faulty(*args):
        part = scan(*args)
        assert part["tail_ranks"] == [1, 26]
        part["tail_ranks"] = shift(part["tail_ranks"])
        return part

    monkeypatch.setattr(_pykernel, "_scan", faulty)
    with pytest.raises(ConsistencyError) as exc:
        scan_skew(2, 3, mode)
    assert str(exc.value) == message
    assert pure_route == [(2, 3)]


def _pure_tails(n, p):
    # every tail of (n, p) as one stack, with its Pfaffian coefficients
    tails = p ** ((n - 1) * (2 * n - 1))
    B = _pykernel._skew_stack(range(tails), p, 2 * n - 1)
    _, pfaffian = counting._plan(n)
    return B, _pykernel._coefficients(pfaffian, _pykernel._TailMemo(B, p), p)


def _shift_entries(monkeypatch, faults):
    # adj(B)[i, j] of tail t off by one for each (t, i, j) in `faults`
    columns = _pykernel._adjugate_columns

    def shifted(B):
        for k, column in columns(B):
            for t, i, j in faults:
                if j == k:
                    column[i] = list(column[i])
                    column[i][t] += 1
            yield k, column

    monkeypatch.setattr(_pykernel, "_adjugate_columns", shifted)


def test_pure_tail_check_compares_every_entry(monkeypatch):
    # one adjugate entry off by one in every tail but the first is
    # reported at that entry
    for n, p in ((2, 3), (3, 2)):
        B, coeff = _pure_tails(n, p)
        tails = len(coeff[0])
        assert _pykernel._tail_check(B, coeff, p) == (0, None)
        for i in range(2 * n - 1):
            for j in range(2 * n - 1):
                _shift_entries(monkeypatch, {(t, i, j)
                                             for t in range(1, tails)})
                bad, first = _pykernel._tail_check(B, coeff, p)
                assert bad == tails - 1 and first[:3] == (1, i, j)
                monkeypatch.undo()


def test_pure_tail_check_names_the_first_entry_in_row_major_order(
        monkeypatch):
    # the columns come last first, so the first failure is the lowest
    # failing tail at its first entry in row-major order, as in numpy's
    # kernel
    B, coeff = _pure_tails(3, 2)
    for faults, want in (({(3, 2, 4), (3, 1, 3), (3, 1, 1), (4, 0, 0)},
                          (3, 1, 1)),
                         ({(6, 0, 4), (5, 4, 0), (7, 0, 0)}, (5, 4, 0)),
                         ({(2, 0, 3), (2, 1, 0)}, (2, 0, 3))):
        _shift_entries(monkeypatch, faults)
        bad, first = _pykernel._tail_check(B, coeff, 2)
        assert bad == len({t for t, _, _ in faults})
        assert first[:3] == want
        monkeypatch.undo()
