"""Command-line front end.

Exit codes: 0 all checks pass, 1 verification or consistency failure or
any other unexpected exception (one `fatal:` line, no traceback), 2 usage
or parse error, 3 enumeration cap refusal.
"""

from __future__ import annotations

import argparse
import gc
import os
import re
import sys

from .counting import DEFAULT_CAP, SCAN_MAX, scan_skew
from .errors import CapExceededError, ConsistencyError
from .hilb4 import (dt_invariant, ec_hilb4_total, goettsche_coeff,
                    goettsche_series, hilb4_strata, macmahon_series)
from .laurent import common_exponent, format_poly, parse_poly
from .spaces import dimension, ec_traced, format_space_expr, parse_space_expr
from .suites import (HILB4_STRATA_QUOTED, HILB4_TOTAL_QUOTED, SUITE_NAMES,
                     SUITES, SuiteContext, canonical_json, emit_report,
                     run_suite)


# a rational in exponent notation, as `Fraction` reads it
_EXPONENT = re.compile(r"\s*[-+]?(?P<num>[\d_]*)(?:\.(?P<dec>[\d_]*))?"
                       r"[eE](?P<sign>[-+]?)(?P<exp>[\d_]+)\s*")


def _digit_limit():
    """The most digits Python converts between int and str."""
    return sys.get_int_max_str_digits() or sys.int_info.default_max_str_digits


def _rational(text):
    """`Fraction(text)`, refusing exponent notation whose numerator or
    denominator, as `Fraction` builds them, would have more digits than
    Python converts to str: `Fraction("1e999999999")` computes
    10^999999999 before anything can look at it."""
    m = _EXPONENT.fullmatch(text)
    if m:
        limit = _digit_limit()
        num, dec, exp = ((m[g] or "").replace("_", "")
                         for g in ("num", "dec", "exp"))
        exp = exp.lstrip("0") or "0"
        shift = int(exp) if len(exp) <= len(str(limit)) else limit + 1
        digits = [len(num.lstrip("0")) + len(dec), 1 + len(dec)]
        digits[m["sign"] == "-"] += shift
        if max(digits) > limit:
            raise ValueError(f"{text.strip()}: numerator or denominator of "
                             f"more than {limit} digits")
    from fractions import Fraction  # here: it loads decimal
    return Fraction(text)


def _check_eval_size(value, x0, y0, text):
    """Refuse an evaluation with a term (xy)^m x^(a-m) y^(b-m), as
    `eval_at` takes it, whose numerator or denominator could pass Python's
    int-to-str digit limit.  Its bit length is at most |m| bits(xy) +
    |a-m| bits(x) + |b-m| bits(y); an integer below 2^B has at most
    ceil(B log10 2) digits, and 3.321 < log2 10."""
    limit = _digit_limit()
    bits = [max(v.numerator.bit_length(), v.denominator.bit_length())
            for v in (x0 * y0, x0, y0)]
    for a, b in value.terms:
        m = common_exponent(a, b)
        bound = abs(m) * bits[0] + abs(a - m) * bits[1] + abs(b - m) * bits[2]
        if bound * 1000 > limit * 3321:
            raise ValueError(f"--at {text}: the term of exponents ({a}, "
                             f"{b}) would have more than {limit} digits")


def _add_format(p):
    p.add_argument("--format", choices=("text", "json"), default="text",
                   help="output format")


def _worker_count(text):
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"need at least 1, got {value}")
    return value


def _add_scan_flags(p):
    p.add_argument("--workers", type=_worker_count, default=1,
                   help="at least 1; kept for callers that pass it, as "
                        "a scan runs in one thread whatever the bound")
    p.add_argument("--cap", type=int, default=DEFAULT_CAP,
                   help="enumeration cap in matrices (default 10^8, at "
                        f"most 2^35 = {SCAN_MAX}; a larger one exits 3)")


def _add_suite_flags(p):
    p.add_argument("--p", type=int, nargs="+",
                   default=list(SuiteContext().p_list),
                   help="field sizes for the katz suite")
    _add_scan_flags(p)
    _add_format(p)


def build_parser():
    parser = argparse.ArgumentParser(
        prog="motivic",
        description="Exact E-polynomial calculus with finite-field "
                    "counting oracles.")
    sub = parser.add_subparsers(dest="verb", required=True)

    p = sub.add_parser("epoly", help="evaluate E_c of a space expression")
    p.add_argument("expr", help="space expression, e.g. "
                                "'affine(3) * cone(grass(2,6))'")
    p.add_argument("--trace", action="store_true",
                   help="include the derivation steps")
    p.add_argument("--at", nargs=2, metavar=("X0", "Y0"), default=None,
                   help="also evaluate at exact rationals, e.g. --at 2 1")
    # argparse takes only -12 and -1.5 for negative numbers and reads
    # -2.5e3 or -1/3 as an unknown option; here any "-" followed by a digit
    # or by "." and a digit is a value, as no option of epoly looks so
    p._negative_number_matcher = re.compile(r"-\.?\d")
    _add_format(p)
    p.set_defaults(func=_cmd_epoly)

    p = sub.add_parser("count", help="exhaustive finite-field counts")
    csub = p.add_subparsers(dest="what", required=True)
    pr = csub.add_parser("rank", help="bucket all skew matrices by rank")
    pr.add_argument("--n", type=int, required=True, help="half the size")
    pr.add_argument("--p", type=int, required=True, help="field size")
    _add_scan_flags(pr)
    _add_format(pr)
    pr.set_defaults(func=_cmd_count_rank)
    pf = csub.add_parser("pfaffian-fibre", help="count {Pf = value}")
    pf.add_argument("--n", type=int, required=True)
    pf.add_argument("--p", type=int, required=True)
    pf.add_argument("--value", type=int, required=True)
    _add_scan_flags(pf)
    _add_format(pf)
    pf.set_defaults(func=_cmd_count_fibre)

    p = sub.add_parser("verify", help="run a verification suite")
    p.add_argument("name", metavar=f"{{{','.join(SUITE_NAMES)}}}")
    _add_suite_flags(p)
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("hilb4", help="four points on affine 3-space")
    p.add_argument("what", choices=("total", "strata"))
    _add_format(p)
    p.set_defaults(func=_cmd_hilb4)

    p = sub.add_parser("dt", help="plane-partition counting")
    p.add_argument("what", choices=("count",))
    p.add_argument("--m", type=int, default=4,
                   help="partition weight (at most 20; a larger one exits 3)")
    _add_format(p)
    p.set_defaults(func=_cmd_dt)

    p = sub.add_parser("goettsche", help="points on the affine plane")
    p.add_argument("--n", type=int, required=True)
    _add_format(p)
    p.set_defaults(func=_cmd_goettsche)

    p = sub.add_parser("report", help="run suites and emit one report")
    p.add_argument("--suites", default=",".join(SUITE_NAMES),
                   help="comma-separated suite names")
    _add_suite_flags(p)
    p.set_defaults(func=_cmd_report)

    return parser


def _emit(payload, fmt, text_lines):
    if fmt == "json":
        sys.stdout.write(canonical_json(payload))
    else:
        for line in text_lines:
            print(line)


def _cmd_epoly(args):
    expr = parse_space_expr(args.expr)
    value, steps = ec_traced(expr)
    payload = {"expr": format_space_expr(expr),
               "dimension": dimension(expr),
               "ec": format_poly(value),
               "euler": str(value.eval_at(1, 1))}
    lines = []
    if args.trace:
        payload["trace"] = steps
        lines += [f"{s['space']}  ->  {s['ec']}   [{s['rule']}]"
                  for s in steps]
    lines.append(format_poly(value))
    if args.at:
        try:
            x0, y0 = (_rational(v) for v in args.at)
            _check_eval_size(value, x0, y0, ' '.join(args.at))
            at = value.eval_at(x0, y0)
        except ZeroDivisionError:
            raise ValueError(
                f"--at {' '.join(args.at)}: division by zero") from None
        payload["value_at"] = {"x": str(x0), "y": str(y0), "value": str(at)}
        lines.append(f"value at ({x0}, {y0}): {at}")
    _emit(payload, args.format, lines)
    return 0


def _cmd_count_rank(args):
    scan = scan_skew(args.n, args.p, cap=args.cap)
    payload = {"kind": "rank", "n": args.n, "p": args.p,
               "counts": {str(r): c for r, c in scan.rank_counts.items()},
               "enumeration_size": scan.total}
    lines = [f"rank {r}: {c}" for r, c in sorted(scan.rank_counts.items())]
    lines.append(f"total: {scan.total}")
    _emit(payload, args.format, lines)
    return 0


def _cmd_count_fibre(args):
    scan = scan_skew(args.n, args.p, cap=args.cap)
    c = args.value % args.p
    observed = scan.pf_counts[c]
    payload = {"label": f"pf-fibre-n{args.n}-c{c}", "n": args.n, "p": args.p,
               "value": c, "observed": observed,
               "enumeration_size": scan.total}
    _emit(payload, args.format,
          [f"#{{Pf = {c}}} = {observed} of {scan.total}"])
    return 0


def _cmd_verify(args):
    return _run_and_emit([args.name], args)


def _cmd_report(args):
    names = [s.strip() for s in args.suites.split(",") if s.strip()]
    if not names:
        # a report of no suite would pass having checked nothing
        print(f"error: --suites {args.suites!r} names no suite",
              file=sys.stderr)
        return 2
    return _run_and_emit(names, args)


def _run_and_emit(names, args):
    for name in names:
        if name not in SUITES:
            print(f"error: unknown suite {name!r}; choose from "
                  f"{', '.join(SUITES)}", file=sys.stderr)
            return 2
    ctx = SuiteContext(p_list=tuple(args.p), cap=args.cap)
    others = [name for name in names if name != "katz"]
    results = None
    if 0 < len(others) < len(names) and hasattr(os, "fork"):
        results = _run_beside_katz(names, others, ctx)
    if results is None:
        results = [run_suite(name, ctx) for name in names]
    sys.stdout.write(emit_report(results, args.format))
    return 0 if all(r.passed for r in results) else 1


def _run_beside_katz(names, others, ctx):
    """The results of `names` in order, as `run_suite` gives them one after
    another, or None if anything failed: the scan-free suites `others` run
    in one forked child while katz scans here, so that numpy and the scans
    stay in this process.  On None the caller runs the suites one after
    another, which raises any error as a report without the child does."""
    import pickle  # here: no other command sends objects between processes

    read_end, write_end = os.pipe()
    pid = os.fork()
    if pid == 0:
        # the child never returns into the caller's stack and never flushes
        # the stdio it inherited; on any error it exits 1 and sends nothing
        code = 1
        try:
            os.close(read_end)
            data = pickle.dumps([run_suite(name, ctx) for name in others])
            with open(write_end, "wb") as pipe:
                pipe.write(data)
            code = 0
        finally:
            os._exit(code)
    os.close(write_end)
    try:
        with open(read_end, "rb") as pipe:
            scanned = iter([run_suite("katz", ctx)
                            for _ in range(len(names) - len(others))])
            done = iter(pickle.loads(pipe.read()))
    except Exception:
        return None
    finally:
        # a child still writing stops at the pipe closed above
        _, status = os.waitpid(pid, 0)
    if os.waitstatus_to_exitcode(status):
        return None
    return [next(scanned if name == "katz" else done) for name in names]


def _cmd_hilb4(args):
    total = ec_hilb4_total()
    match = total == parse_poly(HILB4_TOTAL_QUOTED)
    if args.what == "total":
        payload = {"total": format_poly(total),
                   "quoted": HILB4_TOTAL_QUOTED,
                   "match": match,
                   "euler": str(total.eval_at(1, 1))}
        _emit(payload, args.format, [format_poly(total)])
        return 0 if match else 1
    strata = hilb4_strata()
    rows = []
    for s in strata:
        d = s.to_json_dict()
        d["match"] = s.contribution == parse_poly(HILB4_STRATA_QUOTED[s.label])
        rows.append(d)
    payload = {"strata": rows, "total": format_poly(total), "match": match}
    lines = [f"{s.label}: {format_poly(s.contribution)}   [{s.citation}]"
             for s in strata]
    lines.append(f"total: {format_poly(total)}")
    _emit(payload, args.format, lines)
    return 0 if match and all(d["match"] for d in rows) else 1


def _cmd_dt(args):
    m = args.m
    count = dt_invariant(m)
    coeff = macmahon_series(m).integer_coefficients()[m]
    payload = {"m": m, "plane_partitions": count,
               "macmahon_coefficient": coeff, "match": count == coeff}
    lines = [f"plane partitions of weight {m}: {count}",
             f"generating-function coefficient: {coeff}"]
    if m == 4:
        euler = int(ec_hilb4_total().eval_at(1, 1))
        payload["hilb4_euler"] = euler
        payload["match"] = payload["match"] and euler == count
        lines.append(f"Euler value of the four-point total: {euler}")
    _emit(payload, args.format, lines)
    return 0 if payload["match"] else 1


def _cmd_goettsche(args):
    value = goettsche_coeff(args.n)
    series = goettsche_series(args.n).coeff(args.n)
    agree = value == series
    payload = {"n": args.n, "ec": format_poly(value), "routes_agree": agree}
    lines = [format_poly(value)]
    if not agree:
        lines.append(f"generating function gives {format_poly(series)}")
    _emit(payload, args.format, lines)
    return 0 if agree else 1


def main(argv=None):
    if argv is None:
        # the process's entry point: what the imports built lives until
        # exit, so the collector need not walk it again, neither in a full
        # collection nor at shutdown.  A call with an argv list (a test, an
        # embedding program) leaves the caller's heap as it is.
        gc.freeze()
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        code = args.func(args)
    except (ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except RecursionError:
        print("error: input is nested too deeply", file=sys.stderr)
        return 2
    except CapExceededError as exc:
        print(f"refused: {exc}", file=sys.stderr)
        return 3
    except ConsistencyError as exc:
        print(f"fatal: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:
        print(f"fatal: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    if argv is None:
        # numpy, which a scan loads after the freeze above, and what the
        # command built live until exit too: the collector need not walk
        # them at shutdown
        gc.freeze()
    return code


if __name__ == "__main__":
    sys.exit(main())
