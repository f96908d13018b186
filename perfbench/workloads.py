"""The three workloads: seeded op generators and the checks on each op.

An op is a plain JSON-able dict; the same seed gives the same op sequence.
`report` and `sweep` ops run the `motivic` command in a fresh process;
`algebra` ops call the library in the benchmark's own process.  Every
check compares against `oracles`, which does not import `motivic`.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import random
from fractions import Fraction

from perfbench import oracles

WORKLOADS = ("report", "sweep", "algebra")

REPORT_ARGV = ["report", "--format", "json", "--workers", "1"]
# (n, p) pairs the katz suite scans in a default report: n in {2, 3}, p in {2, 3}
REPORT_MATRICES = sum(oracles.skew_space_size(n, p)
                      for n in (2, 3) for p in (2, 3))

SCAN_FREE_SUITES = ("pfaffian", "milnor", "mhm", "hilb4", "dt")
ALGEBRA_KINDS = ("space", "poly", "plane", "goettsche", "suite")


def blocks(workload, seed):
    """Endless seeded sequence of op blocks.  A run always completes the
    block it has started, so every run sees whole blocks of the fixed mix."""
    rng = random.Random(f"{workload}:{seed}")
    if workload == "report":
        return itertools.repeat([{"kind": "report", "argv": REPORT_ARGV}])
    if workload == "sweep":
        return _sweep_blocks(rng)
    if workload == "algebra":
        return _algebra_blocks(rng)
    raise KeyError(workload)


def ops(workload, seed):
    """The same sequence, op by op."""
    return itertools.chain.from_iterable(blocks(workload, seed))


def op_key(op):
    return json.dumps(op, sort_keys=True)


def digest(data):
    return hashlib.sha256(data).hexdigest()[:16]


# -- sweep ----------------------------------------------------------------------------

def _random_prime(rng, lo, hi):
    x = rng.randrange(lo, hi)
    while not oracles.is_prime(x):
        x += 1
    return x


# n = 1 primes come from [10^4, 10^6), split into this many equal strata
# that are dealt from a deck, so that every run scans nearly the same total.
PRIME_STRATA = 8
# (n, p) of the n > 1 ops of a sweep block, each run in both modes.
SWEEP_SHAPES = ((2, 5), (2, 7), (2, 11), (2, 13)) + ((3, 2),) * 4


def _sweep_blocks(rng):
    """Blocks of eighteen count commands in shuffled order: n = 1 at a prime
    drawn from [10^4, 10^6], once per mode; n = 2 at each of p = 5, 7, 11,
    13 in both modes; and n = 3 at p = 2 four times in each mode.  Twelve
    of the eighteen are short scans where start-up dominates (p = 5, 7 and
    n = 3), so the median op lies well inside that group; near its edge, the
    gap to the longer scans turns a slower host into a jump of the median."""
    strata = _deck(rng, range(PRIME_STRATA))
    width = (10 ** 6 - 10 ** 4) // PRIME_STRATA
    while True:
        lows = [10 ** 4 + next(strata) * width for _ in range(2)]
        shapes = [(1, _random_prime(rng, lo, lo + width), mode)
                  for lo, mode in zip(lows, ("hist", "full"))]
        shapes += [(n, p, mode) for n, p in SWEEP_SHAPES
                   for mode in ("hist", "full")]
        rng.shuffle(shapes)
        yield [_count_op(n, p, mode, rng) for n, p, mode in shapes]


def _count_op(n, p, mode, rng):
    common = ["--n", str(n), "--p", str(p), "--workers", "2",
              "--format", "json"]
    if mode == "full":
        return {"kind": "count", "n": n, "p": p, "mode": "full",
                "argv": ["count", "rank"] + common}
    value = 0 if rng.random() < 0.25 else rng.randrange(1, p)
    return {"kind": "count", "n": n, "p": p, "mode": "hist", "value": value,
            "argv": ["count", "pfaffian-fibre"] + common
            + ["--value", str(value)]}


def op_matrices(op):
    if op["kind"] == "report":
        return REPORT_MATRICES
    if op["kind"] == "count":
        return oracles.skew_space_size(op["n"], op["p"])
    return 0


def check_output(op, stdout):
    """True iff a process op printed the right bytes."""
    if op["kind"] == "report":
        return oracles.sha256_hex(stdout) == oracles.GOLDEN_REPORT_SHA256
    payload = json.loads(stdout)
    n, p = op["n"], op["p"]
    if payload["enumeration_size"] != oracles.skew_space_size(n, p):
        return False
    if op["mode"] == "full":
        want = {str(r): oracles.carlitz_rank_count(2 * n, r, p)
                for r in range(0, 2 * n + 1, 2)}
        return payload["counts"] == want
    return payload["observed"] == oracles.pf_fibre_count(n, p, op["value"])


# -- algebra --------------------------------------------------------------------------

def _algebra_blocks(rng):
    """Blocks holding each of the five kinds once, in shuffled order.  The
    costly parameters (plane-partition weight, Goettsche n, suite) are dealt
    from shuffled decks, so every run sees nearly the same spread of them."""
    decks = {"plane": _deck(rng, range(13)), "goettsche": _deck(rng, range(31)),
             "suite": _deck(rng, SCAN_FREE_SUITES)}
    while True:
        kinds = list(ALGEBRA_KINDS)
        rng.shuffle(kinds)
        yield [_algebra_op(kind, rng, decks) for kind in kinds]


def _deck(rng, values):
    """Endless draws using every value once per shuffled round."""
    while True:
        order = list(values)
        rng.shuffle(order)
        yield from order


def _algebra_op(kind, rng, decks):
    if kind == "space":
        text, counts = _space_expr(rng, 3)
        return {"kind": "space", "text": text, "counts": counts}
    if kind == "poly":
        return _poly_op(rng)
    if kind == "plane":
        return {"kind": "plane", "m": next(decks["plane"])}
    if kind == "goettsche":
        return {"kind": "goettsche", "n": next(decks["goettsche"])}
    return {"kind": "suite", "name": next(decks["suite"])}


_QS = (2, 3)


def _leaf(rng):
    """(text, {q: #points over F_q}) of a catalog leaf with bounded
    parameters."""
    name = rng.choice(("point", "torus", "affine", "proj", "grass", "gl",
                       "sp", "homM", "milnorF", "pfhyp", "cone"))
    if name in ("point", "torus"):
        args = ()
    elif name in ("affine", "proj"):
        args = (rng.randint(0, 6),)
    elif name in ("grass", "cone"):
        n = rng.randint(1, 7)
        args = (rng.randint(0, n), n)
    elif name == "gl":
        args = (rng.randint(1, 4),)
    elif name == "sp":
        args = (rng.choice((2, 4, 6)),)
    elif name == "milnorF":
        args = (rng.randint(2, 3),)
    else:
        args = (rng.randint(1, 3),)
    counts = {q: oracles.leaf_count(name, args, q) for q in _QS}
    if name == "cone":
        return f"cone(grass({args[0]},{args[1]}))", counts
    if args:
        return f"{name}({','.join(map(str, args))})", counts
    return name, counts


def _complement(rng):
    """A complement whose closed inclusion `motivic` recognises."""
    pick = rng.randrange(5)
    if pick == 0:
        whole, counts = _leaf(rng)
        return f"{whole} \\ point", {q: c - 1 for q, c in counts.items()}
    if pick in (1, 2):
        name = ("affine", "proj")[pick - 1]
        a = rng.randint(1, 6)
        b = rng.randint(0, a - 1)
        counts = {q: oracles.leaf_count(name, (a,), q)
                  - oracles.leaf_count(name, (b,), q) for q in _QS}
        return f"{name}({a}) \\ {name}({b})", counts
    if pick == 3:
        n = rng.randint(1, 3)
        m = n * (2 * n - 1)
        counts = {q: q ** m - oracles.leaf_count("pfhyp", (n,), q)
                  for q in _QS}
        return f"affine({m}) \\ pfhyp({n})", counts
    counts = {q: oracles.leaf_count("pfhyp", (3,), q)
              - oracles.leaf_count("cone", (2, 6), q) for q in _QS}
    return "pfhyp(3) \\ cone(grass(2,6))", counts


def _space_expr(rng, depth):
    if depth == 0 or rng.random() < 0.3:
        return _leaf(rng)
    pick = rng.randrange(4)
    if pick == 3:
        return _complement(rng)
    (a, ca), (b, cb) = _space_expr(rng, depth - 1), _space_expr(rng, depth - 1)
    if pick == 0:
        return f"({a}) * ({b})", {q: ca[q] * cb[q] for q in _QS}
    if pick == 1:
        return f"fib({a}; {b})", {q: ca[q] * cb[q] for q in _QS}
    return f"({a}) + ({b})", {q: ca[q] + cb[q] for q in _QS}


def _poly_op(rng):
    """Sum of c * (base)^k with a one- or two-term base and k <= 60."""
    terms = []
    for _ in range(rng.randint(1, 3)):
        base = []
        for _ in range(rng.randint(1, 2)):
            base.append((rng.choice((-3, -2, -1, 1, 2, 3)),
                         rng.randint(-2, 2), rng.randint(-2, 2)))
        terms.append((rng.choice((-5, -3, -1, 1, 2, 4)), base,
                      rng.randint(0, 60)))
    pieces = []
    for c, base, k in terms:
        mono = " + ".join(f"{bc}*x^{a}*y^{b}" for bc, a, b in base)
        pieces.append(f"{c}*({mono})^{k}")
    x0 = str(Fraction(rng.choice((-3, -2, 2, 3, 5)), rng.choice((1, 2, 3))))
    y0 = str(Fraction(rng.choice((-2, 1, 2, 3)), rng.choice((1, 3, 5))))
    return {"kind": "poly", "text": " + ".join(pieces).replace("+ -", "- "),
            "terms": terms, "at": [x0, y0]}


def expected_poly_value(op):
    x0, y0 = (Fraction(v) for v in op["at"])
    total = Fraction(0)
    for c, base, k in op["terms"]:
        b = sum(bc * x0 ** a * y0 ** e for bc, a, e in base)
        total += c * b ** k
    return total


def run_algebra_op(op, motivic):
    """Run one algebra op against the `motivic` package; returns (ok,
    canonical output bytes).  Library calls go through module attributes
    so that an installed tracer sees them."""
    spaces, laurent, hilb4, suites = (motivic.spaces, motivic.laurent,
                                      motivic.hilb4, motivic.suites)
    kind = op["kind"]
    if kind == "space":
        tree = spaces.parse_space_expr(op["text"])
        value, steps = spaces.ec_traced(tree)
        text = spaces.format_space_expr(tree)
        again = spaces.parse_space_expr(text)
        ok = (again == tree and spaces.ec(again) == value and bool(steps)
              and all(value.eval_q(q) == op["counts"][q] for q in _QS))
        out = f"{text}\n{laurent.format_poly(value)}"
    elif kind == "poly":
        poly = laurent.parse_poly(op["text"])
        text = laurent.format_poly(poly)
        ok = (laurent.parse_poly(text) == poly
              and poly.eval_at(*op["at"]) == expected_poly_value(op))
        out = text
    elif kind == "plane":
        found = hilb4.plane_partitions(op["m"])
        ok = (len(found) == oracles.macmahon_count(op["m"])
              and len(set(found)) == len(found)
              and all(pp.weight == op["m"] for pp in found))
        out = str(len(found))
    elif kind == "goettsche":
        value = hilb4.goettsche_coeff(op["n"])
        want = {(a, a): c for a, c in oracles.goettsche_terms(op["n"]).items()}
        ok = value.terms == want
        out = laurent.format_poly(value)
    else:
        result = suites.run_suite(op["name"], suites.SuiteContext())
        ok = result.passed
        out = suites.emit_report([result], "json")
    return ok, out.encode()
