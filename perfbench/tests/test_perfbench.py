"""Tests of the benchmark itself: generators, oracles, tracer, checks."""

import itertools
import json
import sys

import pytest

import motivic
import motivic.cli  # noqa: F401  (imports every layer)
from motivic.counting import scan_skew
from perfbench import oracles, run, tracer, workloads

ROOT = run.ROOT


def take(workload, seed, k=40):
    return list(itertools.islice(workloads.ops(workload, seed), k))


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_same_seed_gives_same_ops(workload):
    assert take(workload, 7) == take(workload, 7)
    if workload != "report":
        assert take(workload, 7) != take(workload, 8)


def test_every_block_has_the_fixed_mix():
    want = sorted([(n, p, mode) for n, p in ((2, 5), (2, 7), (2, 11), (2, 13))
                   for mode in ("hist", "full")]
                  + [(3, 2, "hist"), (3, 2, "full")] * 4)
    for block in itertools.islice(workloads.blocks("sweep", 3), 3):
        assert sorted((o["n"], o["p"], o["mode"])
                      for o in block if o["n"] > 1) == want
        assert sorted(o["mode"] for o in block if o["n"] == 1) == [
            "full", "hist"]
    for block in itertools.islice(workloads.blocks("algebra", 3), 3):
        assert sorted(o["kind"] for o in block) == sorted(
            workloads.ALGEBRA_KINDS)


@pytest.mark.parametrize("n,p", [(2, 3), (3, 2)])
def test_carlitz_matches_scan(n, p):
    scan = scan_skew(n, p, "full")
    assert scan.rank_counts == {
        r: oracles.carlitz_rank_count(2 * n, r, p)
        for r in range(0, 2 * n + 1, 2)}
    assert scan.pf_counts == {
        c: oracles.pf_fibre_count(n, p, c) for c in range(p)}


def test_macmahon_and_partition_oracles():
    assert [oracles.macmahon_count(m) for m in range(7)] == [
        1, 1, 3, 6, 13, 24, 48]
    # partitions of 4: 4, 31, 22, 211, 1111 -> lengths 1, 2, 2, 3, 4
    assert oracles.goettsche_terms(4) == {5: 1, 6: 2, 7: 1, 8: 1}


def _bindings():
    snap = {}
    for name, mod in sys.modules.items():
        if name == "motivic" or name.startswith("motivic."):
            for attr, value in vars(mod).items():
                snap[(name, attr)] = value
    snap["SUITES"] = dict(motivic.suites.SUITES)
    snap["LaurentPoly2"] = dict(vars(motivic.laurent.LaurentPoly2))
    return snap


def test_wrappers_wrap_every_binding_and_restore_it():
    before = _bindings()
    orig_scan = motivic.counting.scan_skew
    tr = tracer.Tracer()
    tr.install()
    try:
        assert motivic.counting.scan_skew is not orig_scan
        assert motivic.suites.scan_skew is motivic.counting.scan_skew
        assert motivic.cli.scan_skew is motivic.counting.scan_skew
        assert motivic.suites.SUITES["dt"] is not before["SUITES"]["dt"]
        mul = vars(motivic.laurent.LaurentPoly2)["__mul__"]
        assert mul is not before["LaurentPoly2"]["__mul__"]
        tr.begin_op(0)
        motivic.laurent.parse_poly("(x + y)^3")
        parsed = tr.summary()
        motivic.suites.run_suite("dt")
    finally:
        tr.uninstall()
    assert _bindings() == before
    assert parsed["laurent.parse_poly"][0] == 1
    assert parsed["laurent.LaurentPoly2.__pow__"][0] == 1
    assert parsed["laurent.LaurentPoly2.__mul__"][0] == 3
    assert tr.summary()["suites.dt"][0] == 1
    assert tr.counters["suites.checks"] == tr.counters["suites.checks_passed"]
    assert tr.counters["hilb4.plane_partitions.emitted"] > 0


def test_self_time_and_counted_only_mode(monkeypatch):
    monkeypatch.setattr(tracer, "SPAN_LIMIT", 3)
    tr = tracer.Tracer()
    leaf = tr.wrap("leaf", lambda: sum(range(2000)))

    def body():
        for _ in range(5):
            leaf()
    outer = tr.wrap("outer", body)
    tr.begin_op(0)
    outer()
    calls, busy, self_s = tr.summary()["outer"]
    leaf_calls, leaf_busy, leaf_self = tr.summary()["leaf"]
    assert (calls, leaf_calls) == (1, 5)
    # three leaf spans, then two counted-only calls
    assert sum(s[0] == "leaf" for s in tr.spans) == 3
    assert tr.counted["leaf"][0] == 2
    assert self_s == pytest.approx(busy - leaf_busy, abs=1e-9)
    assert leaf_self == pytest.approx(leaf_busy)


def test_tail_needs_twenty_samples():
    assert run.tail(list(range(19))) is None
    pct, value = run.tail(list(range(40)))
    assert pct == 75.0 and value == 29


def _last_json(capsys):
    return json.loads(capsys.readouterr().out.strip().splitlines()[-1])


# A run finishes the block it has started, so a run this short holds
# exactly one block: five algebra ops.
ONE_BLOCK = "0.001"


def test_correct_algebra_run(capsys):
    assert run.main(["--workload", "algebra", "--seed", "1",
                     "--seconds", ONE_BLOCK]) == 0
    result = _last_json(capsys)
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] == len(workloads.ALGEBRA_KINDS)
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert list(result["metrics"]) == [
        m["name"] for m in declared["end_to_end"]]


@pytest.mark.parametrize("workload", ["report", "sweep"])
def test_traced_metrics_match_the_declared_layers(workload):
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    probes = dict.fromkeys(("hist_nospot_s", "spot_s", "rank_s", "pool_s"),
                           1.0)
    metrics = run.layer_metrics(run.Run(workload, True), probes, (1.0, 1.0))
    assert list(metrics) == [m["name"] for m in declared["per_layer"]]


def test_algebra_traces_the_space_grammar():
    probes = dict.fromkeys(("hist_nospot_s", "spot_s", "rank_s", "pool_s"),
                           1.0)
    metrics = run.layer_metrics(run.Run("algebra", True), probes, (1.0, 1.0))
    assert all(f"{name}.calls" in metrics for name in run.ALGEBRA_ONLY)


def test_wrapper_cost_counts_every_wrapped_call():
    span_cost, counted_cost = tracer.call_cost(repeats=1)
    assert 0 < span_cost < 1e-3 and 0 < counted_cost < 1e-3
    r = run.Run("algebra", False)
    tr = tracer.Tracer()
    leaf = tr.wrap("leaf", lambda: None)
    tr.begin_op(0)
    for _ in range(tracer.SPAN_LIMIT + 5):
        leaf()
    r.add_trace(tr, tr.counters, 0)
    assert (r.span_calls, r.counted_calls) == (tracer.SPAN_LIMIT, 5)


def test_wrong_expected_value_raises_fail_ratio(monkeypatch, capsys):
    monkeypatch.setattr(oracles, "macmahon_count", lambda m: -1)
    run.main(["--workload", "algebra", "--seed", "1", "--seconds", ONE_BLOCK])
    result = _last_json(capsys)
    # each block of five ops holds one plane-partition op
    assert result["failed"] == 1 and not result["correct"]


def test_wrong_carlitz_count_fails_sweep_ops(monkeypatch):
    monkeypatch.setattr(oracles, "carlitz_rank_count", lambda *a: 0)
    r = run.Run("sweep", False)
    for i, op in enumerate(take("sweep", 1, 3)):
        run.run_process_op(r, op, i, run.bench_env(), traced=False)
    assert [o["ok"] for o in r.ops] == [False, False, False]
