import gc
import hashlib
import io
import json
import os
import signal
import time
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from conftest import REPORT_SHA256, fresh_python

from motivic import _kernel, counting
from motivic.cli import main
from motivic.errors import ConsistencyError, ParseError
from motivic.laurent import MAX_INPUT_BYTES, q_power
from motivic.spaces import LEAVES, ec, parse_space_expr
from motivic.suites import (SUITE_NAMES, SuiteContext, SuiteResult,
                            emit_report, run_suite)


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_epoly_text(capsys):
    code, out, _ = run(capsys, "epoly", "cone(grass(2,6))")
    assert code == 0
    assert out.strip() == \
        "-(x*y)^2 - (x*y)^4 + (x*y)^5 + (x*y)^7 + (x*y)^9"


def test_epoly_json_with_trace_and_eval(capsys):
    code, out, _ = run(capsys, "epoly", "affine(3) * cone(grass(2,6))",
                       "--format", "json", "--trace", "--at", "2", "1")
    assert code == 0
    payload = json.loads(out)
    assert payload["expr"] == "affine(3) * cone(grass(2,6))"
    assert payload["dimension"] == 12
    assert payload["euler"] == "1"  # constant coefficients, cone has chi 1
    assert payload["value_at"]["value"] == "5216"
    assert any("cone" in s["rule"] for s in payload["trace"])


def test_epoly_trace_matches_golden(capsys):
    # each block is "# <expr>" and the exact output of `epoly <expr> --trace
    # --format json`; together they reach every rule of the evaluator: a
    # compact leaf, the converted leaves gl, sp, homM and milnorF, cone,
    # pfhyp, product, fib, complement and disjoint union
    golden = Path(__file__).parent / "golden" / "epoly_trace.txt"
    blocks = golden.read_text().split("# ")[1:]
    assert len(blocks) == 5
    for block in blocks:
        expr, want = block.split("\n", 1)
        code, out, _ = run(capsys, "epoly", expr, "--trace", "--format",
                           "json")
        assert code == 0 and out == want, expr


def test_epoly_rational_evaluation(capsys):
    code, out, _ = run(capsys, "epoly", "torus", "--format", "json",
                       "--at", "1/2", "1/3")
    assert code == 0
    assert json.loads(out)["value_at"]["value"] == "-5/6"


def test_epoly_zero_denominator_exit_2(capsys):
    code, out, err = run(capsys, "epoly", "point", "--at", "1/0", "1")
    assert code == 2 and out == ""
    assert err.startswith("error:") and len(err.splitlines()) == 1


@pytest.mark.parametrize("value", ["1e999999999", "1e-999999999", "1e5000"])
def test_epoly_huge_exponent_exit_2_at_once(capsys, value):
    # Fraction would build 10^|exponent| before the str limit could object
    start = time.perf_counter()
    code, out, err = run(capsys, "epoly", "point", "--at", value, "1")
    assert time.perf_counter() - start < 1
    assert code == 2 and out == ""
    assert err == (f"error: {value}: numerator or denominator of more than "
                   f"4300 digits\n")


@pytest.mark.parametrize("at, x, y, value", [
    (("-2.5e3", "1"), "-2500", "1", "6247501"),
    (("1", "-1e-3"), "1", "-1/1000", "999001/1000000"),
    (("-1/3", "-.5"), "-1/3", "-1/2", "43/36"),
])
def test_epoly_negative_values_in_any_notation(capsys, at, x, y, value):
    # argparse alone reads -2.5e3 and -1/3 as unknown options
    for argv in (("proj(2)", "--at") + at, ("--at",) + at + ("proj(2)",)):
        code, out, err = run(capsys, "epoly", *argv, "--format", "json")
        assert (code, err) == (0, "")
        assert json.loads(out)["value_at"] == {"x": x, "y": y,
                                               "value": value}


def test_epoly_negative_huge_exponent_exit_2_at_once(capsys):
    start = time.perf_counter()
    code, out, err = run(capsys, "epoly", "point", "--at", "-1e999999999",
                         "1")
    assert time.perf_counter() - start < 1
    assert code == 2 and out == ""
    assert err == ("error: -1e999999999: numerator or denominator of more "
                   "than 4300 digits\n")


def test_epoly_exponent_within_str_limit(capsys):
    code, out, _ = run(capsys, "epoly", "point", "--format", "json",
                       "--at", "1e4000", "1e-4299")
    assert code == 0
    value_at = json.loads(out)["value_at"]
    assert value_at["x"] == "1" + "0" * 4000
    assert value_at["y"] == "1/1" + "0" * 4299
    assert value_at["value"] == "1"


def test_epoly_large_arguments_evaluated_through_xy(capsys):
    # x = 1e4000 and y = 3e-4000 meet only as xy = 3, so the value is the
    # one at (3, 1), not a sum of 4000-digit 400th powers
    start = time.perf_counter()
    code, out, _ = run(capsys, "epoly", "gl(20)", "--format", "json",
                       "--at", "1e4000", "3e-4000")
    assert time.perf_counter() - start < 1
    assert code == 0
    code, small, _ = run(capsys, "epoly", "gl(20)", "--format", "json",
                         "--at", "3", "1")
    assert code == 0
    assert json.loads(out)["value_at"]["value"] == \
        json.loads(small)["value_at"]["value"]


def test_epoly_value_past_digit_limit_exit_2_at_once(capsys):
    # (xy)^400 at xy = 1e4000 would have 1.6 million digits
    start = time.perf_counter()
    code, out, err = run(capsys, "epoly", "gl(20)", "--at", "1e4000", "1")
    assert time.perf_counter() - start < 1
    assert code == 2 and out == ""
    assert err == ("error: --at 1e4000 1: the term of exponents (400, 400) "
                   "would have more than 4300 digits\n")


def test_epoly_value_past_digit_limit_in_the_denominator_exit_2(capsys):
    # (xy)^400 at xy = 1e-4000 would have a 1.6-million-digit denominator
    start = time.perf_counter()
    code, out, err = run(capsys, "epoly", "gl(20)", "--at", "1", "1e-4000")
    assert time.perf_counter() - start < 1
    assert code == 2 and out == ""
    assert err == ("error: --at 1 1e-4000: the term of exponents (400, 400) "
                   "would have more than 4300 digits\n")


_small_rational = st.fractions(min_value=-20, max_value=20,
                               max_denominator=12)


@settings(max_examples=100, derandomize=True, deadline=None)
@given(st.sampled_from(["gl(2) * torus", "cone(grass(2,6))", "pfhyp(3)",
                        "proj(3) + torus", "milnorF(3)"]),
       _small_rational, _small_rational)
def test_epoly_at_depends_on_xy_only(expr, x, y):
    # E_c is a polynomial in q = xy: its value at (x, y) is the one at
    # (xy, 1), and the plain sum of c x^a y^b
    def value_at(*at):
        out = io.StringIO()
        with redirect_stdout(out):
            assert main(["epoly", expr, "--format", "json", "--at", *at]) == 0
        return json.loads(out.getvalue())["value_at"]["value"]

    assert value_at(str(x), str(y)) == value_at(str(x * y), "1") == \
        str(ec(parse_space_expr(expr)).eval_at(x, y))


def test_epoly_value_within_digit_limit(capsys):
    # 1 + 10^10 + ... + 10^4000: the (400, 400) term has at most
    # 400 * 34 = 13600 bits, under the 4300-digit limit
    code, out, _ = run(capsys, "epoly", "proj(400)", "--at", "1e10", "1")
    assert code == 0
    value = out.splitlines()[-1].rsplit(" ", 1)[1]
    assert value == "1" + "0000000001" * 400 and len(value) == 4001


def test_epoly_deep_nesting_exit_2(capsys):
    expr = "(" * 3000 + "point" + ")" * 3000
    code, out, err = run(capsys, "epoly", expr)
    assert code == 2 and out == ""
    assert err.startswith("error:") and len(err.splitlines()) == 1


def test_epoly_parse_error_exit_2(capsys):
    code, _, err = run(capsys, "epoly", "nosuch(3)")
    assert code == 2
    assert "unknown space" in err
    # an error inside a leaf's parentheses keeps its own position
    code, _, err = run(capsys, "epoly", "fib(cone(point()); milnorF(2))")
    assert code == 2
    assert err == "error: line 1, column 5: cone(...) takes a Grassmannian\n"


def test_epoly_non_decimal_digit_exit_2_at_its_column(capsys):
    # '²' passes str.isdigit but int() refuses it; the lexer must stop there
    code, out, err = run(capsys, "epoly", "affine(²)")
    assert code == 2 and out == ""
    assert err == "error: line 1, column 8: unexpected character '²'\n"


def test_epoly_large_expression_exit_3_at_once(capsys):
    for expr in ("grass(200,400)", "gl(400)"):
        start = time.perf_counter()
        code, out, err = run(capsys, "epoly", expr, "--trace")
        assert time.perf_counter() - start < 2
        assert code == 3 and out == ""
        assert err.startswith("refused: leaf dimensions sum to ")
        assert len(err.splitlines()) == 1


def test_epoly_union_at_the_input_limit(capsys):
    # the longest point + point + ... that the lexer takes, and one part more
    k = (MAX_INPUT_BYTES + 1) // len("+point")
    expr = "+".join(["point"] * k)
    assert len(expr) <= MAX_INPUT_BYTES < len(expr + "+point")
    start = time.perf_counter()
    code, out, err = run(capsys, "epoly", expr)
    assert time.perf_counter() - start < 5
    assert (code, out, err) == (0, f"{k}\n", "")
    start = time.perf_counter()
    code, out, err = run(capsys, "epoly", expr + "+point")
    assert time.perf_counter() - start < 1
    assert (code, out) == (2, "")
    assert err == "error: line 1, column 1: input exceeds 64 KiB\n"


@pytest.mark.parametrize("digits", [4301, 9000, 60000])
def test_epoly_at_value_of_thousands_of_digits_exit_2(capsys, digits):
    for at in (("7" * digits, "1"), ("1", "1/" + "3" * digits)):
        start = time.perf_counter()
        code, out, err = run(capsys, "epoly", "proj(3)", "--at", *at)
        assert time.perf_counter() - start < 1
        assert code == 2 and out == ""
        assert err.startswith("error: ") and len(err.splitlines()) == 1
        assert "Traceback" not in err


# CLI text: pieces drawn evenly from both grammars' symbols (with what a
# rational may hold besides), digit runs and every leaf name; or a
# well-formed space expression; or, for --at, a rational
_digit_runs = st.integers(0, 30).map(str)
_pieces = st.lists(st.one_of(
    st.sampled_from(sorted(set("*+\\();," "+-*^()xy" " ./e_"))),
    _digit_runs, st.sampled_from(sorted(set(LEAVES) | {"fib"}))),
    max_size=60).map("".join)
_leaf = st.sampled_from(sorted(LEAVES)).flatmap(
    lambda name: st.lists(_digit_runs, min_size=LEAVES[name].arity,
                          max_size=LEAVES[name].arity).map(
        lambda args: f"{name}({','.join(args)})" if args else name))
_expr = st.recursive(_leaf, lambda inner: st.one_of(
    st.builds("{} {} {}".format, inner, st.sampled_from("*+\\"), inner),
    st.builds("({})".format, inner),
    st.builds("fib({}; {})".format, inner, inner),
    st.builds("cone({})".format, inner)), max_leaves=6)
_rational = st.one_of(
    st.fractions().map(str),
    st.builds("{}e{}".format, st.integers(-99, 99), st.integers(-99, 99)))
_expr_text = st.one_of(_pieces, _expr).map(lambda text: text[:200])
_at_text = st.one_of(_pieces, _rational).map(lambda text: text[:200])


@settings(max_examples=300, derandomize=True, deadline=None)
@given(_expr_text, _at_text, _at_text)
def test_epoly_any_text_exits_cleanly(expr, x0, y0):
    # any expression, and any pair of --at values on an expression with
    # negative and positive exponents, exits 0, 2 or 3, with no fatal line
    # and no traceback
    for argv in (["epoly", expr], ["epoly", "gl(2) * torus", "--at", x0, y0]):
        err = io.StringIO()
        with redirect_stdout(io.StringIO()), redirect_stderr(err):
            code = main(argv)
        assert code in (0, 2, 3), (argv, err.getvalue())
        assert "fatal:" not in err.getvalue(), argv
        assert "Traceback" not in err.getvalue(), argv


def test_count_rank_json(capsys):
    code, out, _ = run(capsys, "count", "rank", "--n", "2", "--p", "2",
                       "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["counts"] == {"0": 1, "2": 35, "4": 28}
    assert payload["enumeration_size"] == 64


def test_count_fibre_json(capsys):
    code, out, _ = run(capsys, "count", "pfaffian-fibre", "--n", "3",
                       "--p", "2", "--value", "1", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["observed"] == 13888
    assert payload["enumeration_size"] == 32768
    # the value is normalised mod p
    code, out, _ = run(capsys, "count", "pfaffian-fibre", "--n", "2",
                       "--p", "3", "--value", "-1", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["value"] == 2 and payload["observed"] == 234


def test_count_fibre_payload_keys(capsys):
    # every field reports what the scan observed; nothing stands for a
    # comparison that did not run
    code, out, _ = run(capsys, "count", "pfaffian-fibre", "--n", "2",
                       "--p", "3", "--value", "1", "--format", "json")
    assert code == 0
    assert json.loads(out) == {"label": "pf-fibre-n2-c1", "n": 2, "p": 3,
                               "value": 1, "observed": 234,
                               "enumeration_size": 729}


def test_count_cap_refusal_exit_3(capsys):
    code, _, err = run(capsys, "count", "rank", "--n", "3", "--p", "5")
    assert code == 3
    assert "exceeds cap" in err


def test_count_int64_overflow_exit_3(capsys, monkeypatch):
    # 751^6 matrices, the first shape whose cofactor expansions could
    # overflow int64, need a cap above SCAN_MAX, which is refused before
    # the scan starts
    monkeypatch.setattr(_kernel, "_scan",
                        lambda *args: pytest.fail("the scan started"))
    code, out, err = run(capsys, "count", "rank", "--n", "2", "--p", "751",
                         "--cap", str(10 ** 18))
    assert (code, out) == (3, "")
    assert err == (f"refused: scan cap {10 ** 18} exceeds the hard maximum "
                   f"of {counting.SCAN_MAX} matrices\n")


def test_count_long_histogram_exit_3(capsys, monkeypatch):
    # the default cap admits 99999989 matrices at n = 1 and a raised one
    # admits p up to 2^31, but a p-long int64 histogram above HIST_MAX = 2^24
    # entries is refused before the scan starts
    class Admitted(Exception):
        pass

    def scan(n, p, *rest):
        if p > counting.HIST_MAX:
            pytest.fail("the scan started")
        raise Admitted

    monkeypatch.setattr(_kernel, "_scan", scan)
    for argv in (("pfaffian-fibre", "--n", "1", "--p", "99999989",
                  "--value", "1"),
                 ("rank", "--n", "1", "--p", "16777259"),
                 ("rank", "--n", "1", "--p", "2147483647", "--cap",
                  str(1 << 31))):
        code, out, err = run(capsys, "count", *argv)
        assert (code, out) == (3, "")
        assert err.startswith("refused: ") and len(err.splitlines()) == 1
        assert "Pfaffian histogram" in err
    # the largest prime within the bound is admitted
    assert counting.HIST_MAX == 1 << 24
    with pytest.raises(Admitted):
        counting.scan_skew(1, 16777213)


def _expire(signum, frame):
    raise TimeoutError("over the time budget")


@pytest.mark.parametrize("argv", [
    # trial division of a 57-bit p took over 20 s
    ("count", "pfaffian-fibre", "--n", "1", "--p", "100000000000000003",
     "--value", "1"),
    # 2^1999000 and 10^4500 are past the int-to-str digit limit
    ("count", "rank", "--n", "1000", "--p", "2"),
    ("verify", "katz", "--p", "1" + "0" * 299 + "7"),
    # 2^19999900000 would take 2.3 GiB
    ("count", "rank", "--n", "100000", "--p", "2"),
    # a composite p above HIST_MAX is refused before the primality test
    ("count", "rank", "--n", "1", "--p", str(2 ** 24 + 1)),
    # a cap above SCAN_MAX; without the ceiling, the first two scanned
    # 17^15 matrices for over 13 minutes
    ("verify", "katz", "--p", "17", "--cap", str(10 ** 21)),
    ("count", "rank", "--n", "3", "--p", "17", "--cap", str(10 ** 19)),
    ("report", "--format", "json", "--cap", str(10 ** 21)),
])
def test_hostile_sizes_refused_at_once(capsys, monkeypatch, argv):
    # the cap and HIST_MAX are tested before any work on p or p^m; a budget
    # overrun raises TimeoutError, which main reports as a fatal exit 1.
    # Nothing forks, and a cap above SCAN_MAX runs no suite
    suites_run = []
    monkeypatch.setattr(os, "fork", lambda: pytest.fail("forked"))
    monkeypatch.setattr("motivic.cli.run_suite",
                        lambda name, ctx: suites_run.append(name)
                        or run_suite(name, ctx))
    old = signal.signal(signal.SIGALRM, _expire)
    signal.setitimer(signal.ITIMER_REAL, 2)
    try:
        code, out, err = run(capsys, *argv)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, old)
    assert (code, out) == (3, ""), err
    assert err.startswith("refused: ") and len(err.splitlines()) == 1
    if "--cap" in argv:
        assert "hard maximum" in err and suites_run == []


# argv for every command but epoly, which the test above covers: a command
# with its required options, then option-value pairs and loose tokens (any
# option, small, negative, huge and over-long numbers, names and junk),
# then, for the commands that scan, a last --cap, which wins: at most 10^5,
# so that every scan admitted is small, or above SCAN_MAX, up to 10^40
_COMMANDS = [(("count", "rank"), ("--n", "--p")),
             (("count", "pfaffian-fibre"), ("--n", "--p", "--value")),
             (("dt", "count"), ("--m",)), (("goettsche",), ("--n",)),
             (("hilb4", "total"), ()), (("hilb4", "strata"), ()),
             (("report",), ()), (("count", "all"), ())] + [
    (("verify", name), ()) for name in (*SUITE_NAMES, "nosuch")]
_OPTIONS = ["--n", "--p", "--m", "--value", "--cap", "--workers",
            "--format", "--suite", "--suites", "--trace", "--at", "--ca",
            "--", "-h"]
_WORDS = ["json", "text", "total", "strata", "count", "rank", "katz,dt",
          "katz,katz", ",", "pfaffian,milnor,mhm", *SUITE_NAMES, "all",
          "pfaffian", "rank"]
_number = st.one_of(
    st.integers(-3, 24).map(str), st.integers(-10 ** 40, 10 ** 40).map(str),
    st.sampled_from([4300, 4301, 65536]).map("9".__mul__))
_value = st.one_of(_number, st.sampled_from(_WORDS), st.text(max_size=12))
_token = st.one_of(st.sampled_from(_OPTIONS), _value)


@settings(max_examples=300, derandomize=True, deadline=None)
@given(st.sampled_from(_COMMANDS), st.lists(_number, min_size=3, max_size=3),
       st.lists(st.one_of(st.tuples(st.sampled_from(_OPTIONS), _value),
                          st.tuples(_token)), max_size=4),
       st.one_of(st.integers(-10 ** 20, 10 ** 5),
                 st.integers(counting.SCAN_MAX + 1, 10 ** 40)))
def test_any_command_line_exits_cleanly(command, numbers, body, cap):
    # whatever the command line, main exits 0, 2 or 3 in a generous budget,
    # and prints no traceback
    head, required = command
    argv = [*head, *(token for pair in zip(required, numbers)
                     for token in pair),
            *(token for tokens in body for token in tokens)]
    if head[0] in ("count", "verify", "report"):
        argv += ["--cap", str(cap)]
    old = signal.signal(signal.SIGALRM, _expire)
    signal.setitimer(signal.ITIMER_REAL, 20)
    out, err = io.StringIO(), io.StringIO()
    try:
        with redirect_stdout(out), redirect_stderr(err):
            code = main(argv)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, old)
    assert code in (0, 2, 3), (argv, err.getvalue())
    assert "Traceback" not in out.getvalue() + err.getvalue(), argv


def test_workers_below_one_exit_2(capsys):
    for argv in (("count", "rank", "--n", "1", "--p", "2"),
                 ("verify", "dt"), ("report", "--suites", "dt")):
        for w in ("0", "-1"):
            code, out, err = run(capsys, *argv, "--workers", w)
            assert code == 2 and out == ""
            assert "--workers" in err


def test_count_nonprime_exit_2(capsys):
    code, _, err = run(capsys, "count", "rank", "--n", "2", "--p", "4")
    assert code == 2
    assert "prime" in err


def test_verify_dt(capsys):
    code, out, _ = run(capsys, "verify", "dt", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["suite"] == "dt"
    assert payload["summary"]["passed"] == payload["summary"]["total"]


UNKNOWN_SUITE = ("error: unknown suite 'nosuch'; choose from pfaffian, "
                 "milnor, mhm, hilb4, dt, katz\n")


def test_verify_unknown_suite_exit_2(capsys):
    code, out, err = run(capsys, "verify", "nosuch")
    assert code == 2 and out == ""
    assert err == UNKNOWN_SUITE


def test_verify_katz_has_no_row_filter(capsys):
    # katz prints every row of each admitted shape; no option hides any
    for family in ("pfaffian", "all"):
        code, out, err = run(capsys, "verify", "katz", "--suite", family,
                             "--p", "2")
        assert (code, out) == (2, "")
        assert "unrecognized arguments: --suite" in err


@pytest.mark.parametrize("name", SUITE_NAMES)
@pytest.mark.parametrize("fmt", ("text", "json"))
def test_verify_is_a_report_of_one_suite(capsys, name, fmt):
    verify = run(capsys, "verify", name, "--p", "2", "--format", fmt)
    report = run(capsys, "report", "--suites", name, "--p", "2", "--format",
                 fmt)
    assert verify[:2] == report[:2]


def test_verify_katz_impossible_cap_exit_3(capsys):
    code, _, err = run(capsys, "verify", "katz", "--p", "2", "--cap", "10")
    assert code == 3
    assert "exceeds the cap" in err


def test_verify_katz_skips_shapes_over_the_cap(capsys):
    # a cap of exactly 3^6 keeps the 4x4 scan and skips the 6x6 one; one
    # less skips both
    code, out, _ = run(capsys, "verify", "katz", "--p", "3", "--cap", "729",
                       "--format", "json")
    rows = [check["description"] for check in json.loads(out)["checks"]]
    assert code == 0 and rows
    assert all("4x4 over F_3" in row for row in rows)
    code, out, err = run(capsys, "verify", "katz", "--p", "3", "--cap",
                         "728")
    assert (code, out) == (3, "")
    assert err == ("refused: every requested enumeration exceeds the cap "
                   "728: 729 = 3^6, 14348907 = 3^15\n")


def test_hilb4_total(capsys):
    code, out, _ = run(capsys, "hilb4", "total")
    assert code == 0
    assert out.strip() == ("(x*y)^6 + (x*y)^7 + 3*(x*y)^8 + 3*(x*y)^9 "
                           "+ 3*(x*y)^10 + (x*y)^11 + (x*y)^12")
    code, out, _ = run(capsys, "hilb4", "total", "--format", "json")
    payload = json.loads(out)
    assert payload["match"] is True and payload["euler"] == "13"


def test_hilb4_strata(capsys):
    code, out, _ = run(capsys, "hilb4", "strata", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert [s["label"] for s in payload["strata"]] == \
        ["V4", "L4", "P4minusL4"]
    assert all(s["match"] for s in payload["strata"])
    assert all(s["citation"] for s in payload["strata"])
    assert payload["match"] is True
    # three stratum rows plus the total row in text form
    code, out, _ = run(capsys, "hilb4", "strata")
    assert len(out.strip().splitlines()) == 4


def test_hilb4_mismatch_exit_1(capsys, monkeypatch):
    import motivic.hilb4 as h4
    monkeypatch.setattr(h4, "contribution_L4", lambda: q_power(6))
    code, out, _ = run(capsys, "hilb4", "strata", "--format", "json")
    assert code == 1
    payload = json.loads(out)
    assert [s["match"] for s in payload["strata"]] == [True, False, True]
    assert payload["match"] is False
    code, out, _ = run(capsys, "hilb4", "total", "--format", "json")
    assert code == 1 and json.loads(out)["match"] is False
    # the suite reports FAIL rows instead of aborting
    code, out, _ = run(capsys, "verify", "hilb4")
    assert code == 1 and "[FAIL] hilb4: module contribution of L4" in out


def test_dt_count(capsys):
    code, out, _ = run(capsys, "dt", "count", "--m", "4", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload == {"m": 4, "plane_partitions": 13,
                       "macmahon_coefficient": 13, "hilb4_euler": 13,
                       "match": True}
    code, out, _ = run(capsys, "dt", "count", "--m", "6", "--format", "json")
    assert json.loads(out)["plane_partitions"] == 48


def test_dt_cap_exit_3(capsys):
    code, _, err = run(capsys, "dt", "count", "--m", "40")
    assert code == 3


def test_dt_cap_above_hard_maximum_exit_3(capsys):
    code, out, err = run(capsys, "dt", "count", "--m", "30")
    assert code == 3 and out == ""
    assert "hard maximum weight 20" in err


def test_dt_count_runs_to_the_ceiling(capsys):
    # one ceiling, weight 20, and no default cap below it
    code, out, _ = run(capsys, "dt", "count", "--m", "13", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["plane_partitions"] == 2485 and payload["match"] is True
    code, out, _ = run(capsys, "dt", "count", "--m", "20", "--format", "json")
    assert code == 0 and json.loads(out)["plane_partitions"] == 75278
    code, out, err = run(capsys, "dt", "count", "--m", "21")
    assert (code, out) == (3, "")
    assert err.startswith("refused: ") and len(err.splitlines()) == 1


def test_dt_cap_flag_is_gone(capsys):
    code, out, err = run(capsys, "dt", "count", "--m", "4", "--cap", "12")
    assert (code, out) == (2, "")
    assert "--cap" in err


def test_goettsche(capsys):
    code, out, _ = run(capsys, "goettsche", "--n", "4")
    assert code == 0
    assert out.strip() == "(x*y)^5 + 2*(x*y)^6 + (x*y)^7 + (x*y)^8"


def test_goettsche_cap_exit_3(capsys):
    code, out, err = run(capsys, "goettsche", "--n", "41")
    assert code == 3 and out == ""
    assert err.startswith("refused:") and len(err.splitlines()) == 1


def test_goettsche_route_disagreement_fails(capsys, monkeypatch):
    import motivic.cli as cli
    import motivic.hilb4 as h4
    real = h4.goettsche_coeff

    def broken(n):
        return real(n) + q_power(n) if n == 4 else real(n)

    monkeypatch.setattr(h4, "goettsche_coeff", broken)
    monkeypatch.setattr(cli, "goettsche_coeff", broken)
    res = run_suite("hilb4")
    failed = {c.description: c for c in res.checks if not c.passed}
    agree = failed["generating-function and partition-statistic routes "
                   "agree, n <= 10"]
    assert (agree.expected, agree.observed) == ("11", "10")
    assert "strictly planar contribution" in failed
    assert any(d.startswith("four points on the affine plane")
               for d in failed)
    code, out, _ = run(capsys, "goettsche", "--n", "4", "--format", "json")
    assert code == 1 and json.loads(out)["routes_agree"] is False
    code, out, _ = run(capsys, "goettsche", "--n", "4")
    assert code == 1 and out.splitlines()[1] == \
        "generating function gives (x*y)^5 + 2*(x*y)^6 + (x*y)^7 + (x*y)^8"
    code, out, _ = run(capsys, "goettsche", "--n", "3", "--format", "json")
    assert code == 0 and json.loads(out)["routes_agree"] is True


def test_mhm_route_disagreement_fails(capsys, monkeypatch):
    import motivic.weights as weights
    monkeypatch.setattr(weights, "milnor_fibre_stalk_table",
                        lambda: {0: -8})
    res = run_suite("mhm")
    failed = {c.description for c in res.checks if not c.passed}
    assert {"ordinary E: stalk-stratum route equals weight-filtration route",
            "E_c: stalk-stratum route equals weight-filtration route"} \
        <= failed
    code, out, _ = run(capsys, "verify", "mhm")
    assert code == 1 and "[FAIL] mhm: E_c: stalk-stratum route" in out


def test_report_subset(capsys):
    code, out, _ = run(capsys, "report", "--suites", "dt,mhm",
                       "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert [s["suite"] for s in payload["suites"]] == ["dt", "mhm"]
    assert payload["summary"]["passed"] == payload["summary"]["total"]
    code, out, err = run(capsys, "report", "--suites", "dt,nosuch")
    assert code == 2 and out == ""
    assert err == UNKNOWN_SUITE


@pytest.mark.parametrize("suites", [",", "", " , "])
def test_report_of_no_suite_exit_2(capsys, suites):
    code, out, err = run(capsys, "report", "--suites", suites)
    assert code == 2 and out == ""
    assert err == f"error: --suites {suites!r} names no suite\n"


def test_usage_error_exit_2(capsys):
    assert main(["count", "rank", "--n", "2"]) == 2  # missing --p
    assert main(["bogusverb"]) == 2
    assert main([]) == 2
    assert main(["hilb4", "total", "--bogus"]) == 2  # unknown flag rejected


def test_emit_report_empty():
    assert json.loads(emit_report([], "json")) == \
        {"summary": {"total": 0, "passed": 0}}
    empty = SuiteResult(suite="x", checks=[])
    assert json.loads(emit_report([empty], "json"))["summary"] == \
        {"total": 0, "passed": 0}


def test_unexpected_exception_is_one_fatal_line(capsys, monkeypatch):
    import motivic.cli as cli

    def boom(args):
        raise OverflowError("int too large to convert")

    monkeypatch.setattr(cli, "_cmd_epoly", boom)
    code, out, err = run(capsys, "epoly", "point")
    assert code == 1 and out == ""
    assert err == "fatal: OverflowError: int too large to convert\n"


def test_keyboard_interrupt_not_caught(monkeypatch):
    import motivic.cli as cli

    def interrupted(args):
        raise KeyboardInterrupt

    monkeypatch.setattr(cli, "_cmd_epoly", interrupted)
    with pytest.raises(KeyboardInterrupt):
        main(["epoly", "point"])


def test_failing_suite_exit_1(capsys, monkeypatch):
    import motivic.suites as suites

    def broken(ctx):
        from motivic.suites import _check
        return [_check("forced failure", "none", 1, 2)]

    monkeypatch.setitem(suites.SUITES, "selftest", broken)
    code, out, _ = run(capsys, "verify", "selftest")
    assert code == 1
    assert "[FAIL]" in out and "expected: 1" in out


def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def run_reaped(capsys, *argv):
    """`run`, then check that the command left no child process."""
    result = run(capsys, *argv)
    assert_no_child_left()
    return result


def test_report_beside_katz_matches_the_sequential_report(capsys):
    # katz runs here, twice, while dt and pfaffian run in one child
    names = ["katz", "dt", "katz", "pfaffian"]
    code, out, err = run_reaped(capsys, "report", "--suites", ",".join(names),
                                "--format", "json")
    ctx = SuiteContext(p_list=(2, 3))
    assert (code, err) == (0, "")
    assert out == emit_report([run_suite(name, ctx) for name in names],
                              "json")


def _raising(exc):
    def suite(ctx):
        raise exc
    return suite


@pytest.mark.parametrize("exc, code, err", [
    (ConsistencyError("routes disagree"), 1, "fatal: routes disagree\n"),
    (ParseError("unexpected end of input", 1, 2), 2,
     "error: line 1, column 2: unexpected end of input\n"),
    (OverflowError("int too large"), 1,
     "fatal: OverflowError: int too large\n"),
    (KeyError("x"), 2, "error: 'x'\n"),
], ids=["consistency", "parse", "overflow", "key"])
def test_scan_free_suite_error_crosses_from_the_child(capsys, monkeypatch,
                                                      exc, code, err):
    import motivic.suites as suites
    monkeypatch.setitem(suites.SUITES, "dt", _raising(exc))
    # alone, dt runs in this process; beside katz, in the child, which
    # exits 1, and then again in this process
    assert run_reaped(capsys, "verify", "dt") == (code, "", err)
    assert run_reaped(capsys, "report", "--suites", "pfaffian,dt,katz",
                      "--p", "2") == (code, "", err)


def test_keyboard_interrupt_crosses_from_the_child(monkeypatch):
    import motivic.suites as suites
    monkeypatch.setitem(suites.SUITES, "dt", _raising(KeyboardInterrupt))
    with pytest.raises(KeyboardInterrupt):
        main(["report", "--suites", "katz,dt", "--p", "2"])
    assert_no_child_left()


def test_first_error_in_suite_order_wins(capsys, monkeypatch):
    import motivic.suites as suites
    monkeypatch.setitem(suites.SUITES, "dt",
                        _raising(ConsistencyError("dt broke")))
    monkeypatch.setitem(suites.SUITES, "katz",
                        _raising(ValueError("katz broke")))
    assert run_reaped(capsys, "report", "--suites", "dt,katz") == (
        1, "", "fatal: dt broke\n")
    assert run_reaped(capsys, "report", "--suites", "katz,dt") == (
        2, "", "error: katz broke\n")


def test_report_katz_cap_refusal_exit_3(capsys):
    code, out, err = run_reaped(capsys, "report", "--p", "5", "--cap", "10")
    assert (code, out) == (3, "")
    assert err.startswith("refused: ") and len(err.splitlines()) == 1


def test_child_that_dies_falls_back_to_the_plain_loop(capsys, monkeypatch):
    import motivic.suites as suites
    dt, parent = suites.SUITES["dt"], os.getpid()

    def dies_in_the_child(ctx):
        # only in the child: the calling process reruns dt itself
        if os.getpid() != parent:
            os._exit(7)
        return dt(ctx)

    monkeypatch.setitem(suites.SUITES, "dt", dies_in_the_child)
    ctx = SuiteContext(p_list=(2,))
    assert run_reaped(capsys, "report", "--suites", "dt,katz", "--p", "2") == (
        0, emit_report([run_suite(name, ctx) for name in ("dt", "katz")],
                       "text"), "")


class _TwoPartError(ValueError):
    # pickle rebuilds an exception from its `args`, here one formatted text
    def __init__(self, what, why):
        super().__init__(f"{what}: {why}")


def _holding_a_lambda(exc):
    exc.hook = lambda: None
    return exc


@pytest.mark.parametrize("exc, code, err", [
    (_TwoPartError("dt", "broke"), 2, "error: dt: broke\n"),
    (_holding_a_lambda(ConsistencyError("dt broke")), 1, "fatal: dt broke\n"),
], ids=["unrebuildable", "unpicklable"])
def test_error_pickle_cannot_carry_is_as_the_plain_loop(capsys, monkeypatch,
                                                       exc, code, err):
    # the child sends no error: the calling process reruns the suites
    import motivic.suites as suites
    monkeypatch.setitem(suites.SUITES, "dt", _raising(exc))
    assert run_reaped(capsys, "verify", "dt") == (code, "", err)
    assert run_reaped(capsys, "report", "--suites", "katz,dt",
                      "--p", "2") == (code, "", err)


def _error_types():
    import motivic.errors as errors
    return [value for value in vars(errors).values()
            if isinstance(value, type) and issubclass(value, BaseException)
            and value.__module__ == errors.__name__]


@pytest.mark.parametrize("cls", _error_types(), ids=lambda cls: cls.__name__)
def test_every_error_type_crosses_from_the_child(cls):
    # no error crosses from a report's child, which sends only results;
    # still, each type of ours survives pickle whole (same type, text and
    # attributes), as a caller that sends one between processes needs
    import pickle
    args = {ParseError: ("unexpected end of input", 1, 2)}.get(cls, ("why",))
    exc = cls(*args)
    back = pickle.loads(pickle.dumps(exc))
    assert type(back) is cls
    assert (back.args, str(back), vars(back)) == (exc.args, str(exc),
                                                  vars(exc))


def test_json_reports_byte_identical_across_runs(capsys):
    outs = set()
    for _ in range(2):
        _, out, _ = run(capsys, "verify", "mhm", "--format", "json")
        outs.add(out)
    assert len(outs) == 1


def test_report_p2_matches_golden(capsys):
    golden = Path(__file__).parent / "golden" / "report_p2.json"
    code, out, _ = run(capsys, "report", "--p", "2", "--format", "json")
    assert code == 0
    assert out.encode() == golden.read_bytes()


def test_hilb4_strata_matches_golden(capsys):
    # the only golden of phi4's weights (`coefficient`) and of V4's
    # geometry
    golden = Path(__file__).parent / "golden" / "hilb4_strata.json"
    code, out, _ = run(capsys, "hilb4", "strata", "--format", "json")
    assert code == 0
    assert out.encode() == golden.read_bytes()


def test_katz_byte_identical_across_worker_counts(capsys):
    outs = set()
    for w in ("1", "2", "8"):
        code, out, _ = run(capsys, "verify", "katz", "--p", "2",
                           "--workers", w, "--format", "json")
        assert code == 0
        outs.add(out)
    assert len(outs) == 1


def test_suite_text_report_format(capsys):
    code, out, _ = run(capsys, "verify", "mhm")
    assert code == 0
    lines = out.strip().splitlines()
    assert all(line.startswith("[PASS]") for line in lines[:-2])
    assert lines[-1].startswith("total:")


def test_run_suite_context_defaults():
    res = run_suite("hilb4", SuiteContext())
    assert res.passed
    with pytest.raises(KeyError):
        run_suite("nosuch")


def test_in_process_main_does_not_freeze_the_heap(capsys):
    frozen = gc.get_freeze_count()
    code, _, _ = run(capsys, "goettsche", "--n", "3")
    assert code == 0
    assert gc.get_freeze_count() == frozen


def test_process_entry_point_freezes_the_heap():
    # main() reading sys.argv is the process entry point (python -m
    # motivic.cli and the console script)
    out = fresh_python("-c", "import gc, sys\n"
                        "from motivic.cli import main\n"
                        "sys.argv = ['motivic', 'goettsche', '--n', '3']\n"
                        "code = main()\n"
                        "print(code, gc.get_freeze_count(), "
                        "file=sys.stderr)")
    code, frozen = map(int, out.stderr.split())
    assert code == 0 and frozen > 0
    # a scan above PURE_MAX matrices, (2, 11), loads numpy after the first
    # freeze; the second freezes it too
    out = fresh_python("-c", "import gc, sys\n"
                        "from motivic.cli import main\n"
                        "sys.argv = ['motivic', 'count', 'rank', '--n', "
                        "'2', '--p', '11']\n"
                        "code = main()\n"
                        "import numpy\n"
                        "print(code, any(o is vars(numpy) "
                        "for o in gc.get_objects()), file=sys.stderr)")
    assert out.stderr.split() == [b"0", b"False"]


def _numpy_loaded_after(*commands):
    """For each argv in `commands`, run in turn by `main` in one fresh
    process after `import motivic` and `import motivic.cli`, whether numpy
    and whether the scan kernel `motivic._kernel` had been loaded, as a
    pair; the first two entries are for the imports."""
    loaded = ("print('numpy' in sys.modules, "
              "'motivic._kernel' in sys.modules, file=sys.stderr)\n")
    code = ("import contextlib, io, sys\n"
            "import motivic\n"
            + loaded
            + "from motivic.cli import main\n"
            + loaded
            + f"for argv in {list(commands)!r}:\n"
            "    with contextlib.redirect_stdout(io.StringIO()):\n"
            "        assert main(argv) == 0, argv\n"
            "    " + loaded)
    lines = fresh_python("-c", code).stderr.decode().splitlines()
    assert len(lines) == 2 + len(commands)
    return [tuple(word == "True" for word in line.split()) for line in lines]


def test_import_loads_no_code_generation_or_rationals():
    # against a bare interpreter in the same environment, whose `site` may
    # preload modules of its own
    probe = ("import sys\n"
             "{}\n"
             "print(*sorted(m for m in ('dataclasses', 'inspect', "
             "'fractions', 'decimal', 'numpy', 'pickle', "
             "'multiprocessing') if m in sys.modules))")
    bare = fresh_python("-c", probe.format("pass")).stdout.split()
    loaded = fresh_python("-c", probe.format("import motivic.cli"))
    assert loaded.stdout.split() == bare


def test_katz_report_loads_no_rationals():
    # the katz suite evaluates its integer polynomials at q = 2 and 3 in
    # ints (`LaurentPoly2.eval_q`), so its scans share the process with
    # neither fractions nor decimal; against a bare interpreter, as above
    probe = ("import contextlib, io, sys\n"
             "{}\n"
             "print(*sorted(m for m in ('fractions', 'decimal') "
             "if m in sys.modules))")
    report = ("from motivic.cli import main\n"
              "with contextlib.redirect_stdout(io.StringIO()):\n"
              "    assert main(['report', '--suites', 'katz', '--format', "
              "'json']) == 0")
    bare = fresh_python("-c", probe.format("pass")).stdout.split()
    loaded = fresh_python("-c", probe.format(report))
    assert loaded.stdout.split() == bare


def _rationals_loaded(*argv):
    """Which of fractions and decimal `motivic *argv` imports, in its own
    process or in the one a report forks, beyond what a bare interpreter
    loads: `-X importtime` writes each first import to stderr."""
    def imported(*args):
        err = fresh_python("-X", "importtime", *args).stderr.decode()
        return {line.rsplit("|", 1)[1].strip() for line in err.splitlines()
                if line.startswith("import time:")}

    loaded = imported("-m", "motivic.cli", *argv) - imported("-c", "pass")
    return sorted(loaded & {"fractions", "decimal"})


@pytest.mark.parametrize("argv", [
    ["report", "--format", "json"], ["hilb4", "total"], ["dt", "count"],
    ["epoly", "gl(4) * cone(grass(2,6))"]],
    ids=["report", "hilb4-total", "dt-count", "epoly"])
def test_only_at_loads_rationals(argv):
    # every E-polynomial is evaluated at an int q by `eval_q`, in ints; a
    # report's scan-free suites run in a forked child, whose imports count
    assert _rationals_loaded(*argv) == []


def test_epoly_at_loads_rationals():
    assert "fractions" in _rationals_loaded("epoly", "torus", "--at", "1/2",
                                            "1/3")


def test_package_import_loads_no_module_and_cli_loads_every_layer():
    # the package re-exports nothing; the benchmark's tracer wraps the
    # layers that `import motivic.cli` loads through cli's own imports
    probe = ("import sys\n"
             "import {}\n"
             "print(*sorted(m for m in sys.modules "
             "if m.startswith('motivic.')))")
    assert fresh_python("-c", probe.format("motivic")).stdout.split() == []
    loaded = fresh_python("-c", probe.format("motivic.cli")).stdout.split()
    assert {f"motivic.{layer}".encode() for layer in (
        "laurent", "skew", "counting", "spaces", "weights", "hilb4",
        "suites")} <= set(loaded)


def test_only_a_scan_loads_numpy():
    # the algebra needs no numpy, nor does a scan of at most PURE_MAX = 2^17
    # matrices, which the pure-Python kernel takes; a larger scan imports
    # numpy's kernel, and with it numpy: (2, 11) has 11^6 matrices and the
    # default report's katz scans 3^15
    assert counting.PURE_MAX == 1 << 17
    assert _numpy_loaded_after(
        ["epoly", "gl(4) * cone(grass(2,6))"], ["hilb4", "strata"],
        ["dt", "count"], ["goettsche", "--n", "3"], ["verify", "mhm"],
        ["report", "--suites", "pfaffian,milnor,mhm,hilb4,dt"]) == \
        [(False, False)] * 8
    for argv in (["count", "rank", "--n", "3", "--p", "2"],
                 ["count", "pfaffian-fibre", "--n", "2", "--p", "7",
                  "--value", "1"],
                 ["verify", "katz", "--p", "2"]):
        assert _numpy_loaded_after(argv) == [(False, False)] * 3, argv
    for argv in (["count", "rank", "--n", "2", "--p", "11"], ["report"]):
        assert _numpy_loaded_after(argv) == \
            [(False, False), (False, False), (True, True)], argv


@pytest.mark.parametrize("workers", ["1", "2"])
def test_full_report_matches_golden_digest(workers):
    out = fresh_python("-m", "motivic.cli", "report", "--format",
                        "json", "--workers", workers)
    assert hashlib.sha256(out.stdout).hexdigest() == REPORT_SHA256
