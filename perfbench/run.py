"""Benchmark of `motivic`: one closed-loop client driving one workload.

    python3 perfbench/run.py --workload report|sweep|algebra --seed N \
        --seconds S --trace 0|1

Run from the root of a source checkout; `motivic` is imported from `src/`.
The run sends ops one after another until they have taken S seconds,
checking every output.  Ops come in blocks of a fixed mix (see
workloads.py), and a block once started is finished.  Between ops it times
set-up, a fresh interpreter importing `motivic.cli`, once per SETUP_EVERY
seconds of op time, so that the set-up samples span the same stretch of the
host's speed as the ops do.

With --trace 0 it prints the end-to-end metrics; with --trace 1 it runs the
layer probes and then alternates untraced and traced ops, printing the
per-layer metrics and the tracing overhead.  Human-readable lines come
first; the last line of stdout is the JSON result.  Spans of a traced run
and the per-op output digests are written under perfbench/_out/.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / "perfbench" / "_out"
sys.path[:0] = [str(ROOT), str(SRC)]

from perfbench import tracer as tracing  # noqa: E402
from perfbench import workloads  # noqa: E402

# One set-up sample (an import of about 0.25 s) per this many seconds of op
# time, plus one before the first op; set-up is their median.
SETUP_EVERY = 1.0
SETUP_ARGV = [sys.executable, "-c", "import motivic.cli"]
# Span names that only `algebra` drives: `report` and `sweep` never reach
# the space-expression grammar, so their traced runs leave these out.
ALGEBRA_ONLY = ("spaces.parse_space_expr", "spaces.ec_traced",
                "spaces.format_space_expr")
# Spans kept for writing out; later ops still count towards every metric.
SPAN_KEEP = 200_000


def bench_env():
    env = dict(os.environ, PYTHONPATH=str(SRC))
    env.pop("MOTIVIC_CAP", None)
    return env


def run_process(argv, env):
    """Run argv to completion; returns (stdout, stderr, exit code, wall s,
    CPU s of the process and the children it reaped, peak RSS MiB)."""
    start = time.perf_counter()
    proc = subprocess.Popen(argv, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, env=env, cwd=ROOT)
    err = []
    reader = threading.Thread(target=lambda: err.append(proc.stderr.read()))
    reader.start()
    out = proc.stdout.read()
    reader.join()
    _, status, usage = os.wait4(proc.pid, 0)
    wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    proc.stdout.close()
    proc.stderr.close()
    return (out, err[0], proc.returncode, wall,
            usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024)


def sample_setup(env):
    """Wall time of a fresh interpreter importing motivic.cli."""
    out, err, code, wall, _, _ = run_process(SETUP_ARGV, env)
    if code:
        raise RuntimeError(f"import motivic.cli failed: {err.decode()}")
    return wall


def run_probes(env):
    out, err, code, *_ = run_process(
        [sys.executable, str(ROOT / "perfbench" / "probe.py")], env)
    if code:
        raise RuntimeError(f"probe failed: {err.decode()}")
    return json.loads(out)


class Run:
    """Per-op records of one run."""

    def __init__(self, workload, trace):
        self.workload = workload
        self.trace = trace
        self.ops = []             # dicts: wall, cpu, rss, ok, traced, ...
        self.layer = {}           # span name -> [calls, busy_s, self_s]
        self.counters = dict.fromkeys(tracing.COUNTERS, 0)
        self.spans = []
        self.seen = set()
        self.repeats = 0
        self.span_calls = 0       # wrapped calls recorded as spans
        self.counted_calls = 0    # wrapped calls recorded as counts only

    def record(self, op, **fields):
        key = workloads.op_key(op)
        self.repeats += key in self.seen
        self.seen.add(key)
        self.ops.append(fields)

    def merge_trace(self, dump, op_id):
        tr = tracing.Tracer()
        tr.spans = dump["spans"]
        tr.hidden = {int(k): v for k, v in dump["hidden"].items()}
        tr.counted = dump["counted"]
        self.add_trace(tr, dump["counters"], op_id)

    def add_trace(self, tr, counters, op_id):
        self.span_calls += sum(s is not None for s in tr.spans)
        self.counted_calls += sum(row[0] for row in tr.counted.values())
        for name, row in tr.summary().items():
            acc = self.layer.setdefault(name, [0, 0.0, 0.0])
            for i in range(3):
                acc[i] += row[i]
        for name, value in counters.items():
            self.counters[name] += value
        if len(self.spans) + len(tr.spans) > SPAN_KEEP:
            return
        offset = len(self.spans)
        for s in tr.spans:
            parent = None if s[3] is None else s[3] + offset
            self.spans.append((s[0], s[1], s[2], parent, op_id))


def run_process_op(run, op, op_id, env, traced):
    if traced:
        argv = [sys.executable, str(ROOT / "perfbench" / "traced_cli.py")]
    else:
        argv = [sys.executable, "-m", "motivic.cli"]
    out, err, code, wall, cpu, rss = run_process(argv + op["argv"], env)
    ok = code == 0
    if ok:
        try:
            ok = workloads.check_output(op, out)
        except (ValueError, KeyError):
            ok = False
    if traced:
        lines = err.decode().splitlines()
        dumps = [ln[len(tracing.TRACE_MARKER):] for ln in lines
                 if ln.startswith(tracing.TRACE_MARKER)]
        if dumps:
            run.merge_trace(json.loads(dumps[-1]), op_id)
        else:
            ok = False
    run.record(op, wall=wall, cpu=cpu, rss=rss, ok=ok, traced=traced,
               matrices=workloads.op_matrices(op), digest=workloads.digest(out))


def run_algebra_op(run, op, op_id, motivic, traced):
    tr = None
    if traced:
        tr = tracing.Tracer()
        tr.install()
        tr.begin_op(op_id)
    cpu0 = time.process_time()
    start = time.perf_counter()
    try:
        ok, out = workloads.run_algebra_op(op, motivic)
    except Exception as exc:  # a failed op is counted, not fatal
        ok, out = False, repr(exc).encode()
    wall = time.perf_counter() - start
    cpu = time.process_time() - cpu0
    if tr is not None:
        tr.uninstall()
        run.add_trace(tr, tr.counters, op_id)
    run.record(op, wall=wall, cpu=cpu, rss=None, ok=ok, traced=traced,
               matrices=0, digest=workloads.digest(out))


def tail(samples):
    """(percentile, value) of the highest percentile with at least ten
    samples beyond it, or None below 20 samples."""
    n = len(samples)
    if n < 20:
        return None
    ordered = sorted(samples)
    return 100.0 * (n - 10) / n, ordered[n - 11]


def end_to_end(run, setup_s, loop_s):
    walls = [o["wall"] for o in run.ops]
    metrics = {
        "setup_s": (setup_s, "s"),
        "op_s.p50": (statistics.median(walls), "s"),
        "ops_per_s": (len(run.ops) / loop_s, "1/s"),
        # a mean, not a median, so that every op counts (on `sweep` the
        # median op is a short scan; the long ones show only in the mean)
        "cpu_s_per_op": (sum(o["cpu"] for o in run.ops) / len(run.ops), "s"),
    }
    if run.workload == "algebra":
        peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    else:
        peak = statistics.median(o["rss"] for o in run.ops)
    metrics["peak_rss_mib"] = (peak, "MiB")
    return metrics


def layer_metrics(run, probes, call_cost):
    traced = [o for o in run.ops if o["traced"]]
    plain = [o for o in run.ops if not o["traced"]]
    n = max(1, len(traced))
    out = {}
    for name in tracing.span_names():
        if run.workload != "algebra" and name in ALGEBRA_ONLY:
            continue
        calls, busy, self_s = run.layer.get(name, (0, 0.0, 0.0))
        out[f"{name}.calls"] = (calls / n, "count")
        out[f"{name}.busy_s"] = (busy / n, "s")
        out[f"{name}.self_s"] = (self_s / n, "s")
    c = run.counters
    scan_busy = run.layer.get("counting.scan_skew", (0, 0.0, 0.0))[1]
    out["counting.matrices"] = (c["counting.matrices"] / n, "count")
    out["counting.spot_checked"] = (c["counting.spot_checked"] / n, "count")
    out["counting.cpu_s"] = (c["counting.cpu_s"] / n, "s")
    out["counting.matrices_per_s"] = (
        c["counting.matrices"] / scan_busy if scan_busy else 0.0, "1/s")
    out["counting.spot_ratio"] = (
        c["counting.spot_checked"] / c["counting.matrices"]
        if c["counting.matrices"] else 0.0, "ratio")
    out["counting.parallel_eff"] = (
        c["counting.cpu_s"] / c["counting.worker_s"]
        if c["counting.worker_s"] else 0.0, "ratio")
    out["hilb4.plane_partitions.emitted"] = (
        c["hilb4.plane_partitions.emitted"] / n, "count")
    out["suites.checks"] = (c["suites.checks"] / n, "count")
    out["suites.checks_passed"] = (c["suites.checks_passed"] / n, "count")
    for name in ("hist_nospot_s", "spot_s", "rank_s", "pool_s"):
        out[f"counting.probe.{name}"] = (probes[name], "s")
    traced_p50 = statistics.median(o["wall"] for o in traced) if traced else 0.0
    plain_p50 = statistics.median(o["wall"] for o in plain) if plain else 0.0
    out["trace.op_s.p50"] = (traced_p50, "s")
    out["trace.overhead_s"] = (traced_p50 - plain_p50, "s")
    span_cost, counted_cost = call_cost
    out["trace.wrapper_s"] = ((run.span_calls * span_cost
                               + run.counted_calls * counted_cost) / n, "s")
    return out


def summary_lines(run, metrics, loop_s):
    walls = [o["wall"] for o in run.ops]
    failed = sum(not o["ok"] for o in run.ops)
    lines = [f"workload {run.workload}: {len(run.ops)} ops in {loop_s:.3f} s"
             f" (trace {int(run.trace)})"]
    extra = {"fail_ratio": (failed / len(run.ops), "ratio"),
             "repeat_share": (run.repeats / len(run.ops), "ratio")}
    t = tail(walls)
    if t is not None:
        extra["op_s.tail"] = (t[1], f"s at p{t[0]:.1f} of {len(walls)} ops")
    matrices = sum(o["matrices"] for o in run.ops)
    if matrices:
        extra["matrices_per_s"] = (matrices / loop_s, "1/s")
    for name, (value, unit) in {**metrics, **extra}.items():
        lines.append(f"  {name:<44} {value:>16.6g} {unit}")
    return lines


def write_outputs(run, seed):
    OUT.mkdir(parents=True, exist_ok=True)
    stem = f"{run.workload}-seed{seed}-trace{int(run.trace)}"
    (OUT / f"digests-{stem}.txt").write_text(
        "".join(f"{i} {o['digest']}\n" for i, o in enumerate(run.ops)))
    if run.trace:
        with open(OUT / f"spans-{stem}.json", "w") as fh:
            json.dump({"fields": ["name", "start", "end", "parent", "op"],
                       "spans": run.spans}, fh)


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def load_motivic():
    """Import `motivic` from this checkout's src/, or exit with status 1."""
    if not (SRC / "motivic" / "cli.py").is_file():
        sys.exit(f"perfbench: no motivic sources under {SRC}")
    import motivic
    import motivic.cli  # noqa: F401  (imports every layer)
    if Path(motivic.__file__).resolve().parent != SRC / "motivic":
        sys.exit(f"perfbench: imported motivic from {motivic.__file__}, "
                 f"not from {SRC}")
    return motivic


def main(argv=None):
    args = parse_args(argv)
    motivic = load_motivic()
    env = bench_env()
    sample_setup(env)  # untimed: fills the bytecode cache
    setup = [] if args.trace else [sample_setup(env)]
    probes = run_probes(env) if args.trace else None
    call_cost = tracing.call_cost() if args.trace else None

    run = Run(args.workload, bool(args.trace))
    block_iter = workloads.blocks(args.workload, args.seed)
    loop_s = 0.0  # time spent in ops, set-up samples excluded
    op_id = 0
    while loop_s < args.seconds:
        for op in next(block_iter):
            traced = bool(args.trace) and op_id % 2 == 1
            start = time.perf_counter()
            if args.workload == "algebra":
                run_algebra_op(run, op, op_id, motivic, traced)
            else:
                run_process_op(run, op, op_id, env, traced)
            loop_s += time.perf_counter() - start
            op_id += 1
            while setup and len(setup) < 1 + loop_s / SETUP_EVERY:
                setup.append(sample_setup(env))

    if args.trace:
        metrics = layer_metrics(run, probes, call_cost)
    else:
        metrics = end_to_end(run, statistics.median(setup), loop_s)
    for line in summary_lines(run, metrics, loop_s):
        print(line)
    write_outputs(run, args.seed)
    failed = sum(not o["ok"] for o in run.ops)
    print(json.dumps({
        "correct": failed == 0, "attempted": len(run.ops), "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
