#!/usr/bin/env python3
"""The linkbound benchmark.

    python3 perfbench/run.py --workload knot_reports --seed 1 --seconds 30 --trace 0

Run from the root of a checkout.  A run makes a fixed number of passes
over the workload, each in a fresh worker process (worker.py) started after
the previous one ended: a closed loop with one client and one thread.
Every result is checked by oracle.py after its clock stops.  The last line
of standard output is one JSON object {"correct", "attempted", "failed",
"metrics"}: with --trace 0 the end-to-end metrics, with --trace 1 the
per-layer metrics of a run whose odd passes are traced (spans.py).  The
lines above it state the same metrics with their bases, the input
properties and the machine.  See README.md in this directory.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import select
import shutil
import statistics
import subprocess
import sys
import tempfile
from time import perf_counter

from reference import REFERENCE_S, reference_s, scaled

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.getcwd()

WORKLOADS = ("knot_reports", "link_reports", "signature_queries")
# A run makes round(--seconds / PASS_S) passes, so that runs of one length
# do the same work on every commit: 7 passes at --seconds 30.  Seven passes
# put the median and the tail of each workload on the median run of one
# group of operations of about the same cost (README.md).
PASS_S = 4.3
READS_PER_PASS = 3500
# Set-ups timed in an untraced run: one per pass, and set-up-only workers
# for the rest.
SETUPS = 15
# Per-operation deadline; the slowest operation that completes at the
# seed takes under 3 s.
DEADLINE_S = 15.0
# Inputs beyond reach at the seed, attempted once per traced run.
FRONTIER = {"knot_reports": (3, 10), "link_reports": (4, 6)}

# Per-layer metrics: seconds or calls per correct traced operation.
SPAN_METRICS = (
    ("cli.main", "self_s"), ("braids.seifert_matrix_from_braid", "s"),
    ("bounds.assemble_report", "self_s"), ("bounds.lt_lower_bound", "calls"),
    ("signature.alexander_from_seifert", "s"), ("signature.alexander_from_seifert", "calls"),
    ("signature.link_nullity", "s"), ("signature.link_nullity", "calls"),
    ("signature.signature_function", "self_s"),
    ("signature.signature_nullity_at", "s"), ("signature.pointwise_signature_nullity", "s"),
    ("signature.value_at", "s"), ("signature.to_json", "s"),
    ("linalg.poly_det", "s"), ("linalg.poly_det", "calls"),
    ("linalg.poly_rank", "s"), ("linalg.poly_rank", "calls"),
    ("realroots.isolate_real_roots", "s"), ("realroots.isolate_real_roots", "calls"),
    ("realroots.sign_of", "calls"), ("realroots.refine", "s"),
    ("factor.fox_milnor_test", "s"), ("factor.factor_integer_polynomial", "s"),
)


class Worker:
    """One worker process and the JSON lines it prints."""

    def __init__(self, job: dict, err_path: str):
        self.ref_before = reference_s()
        self.started = perf_counter()
        self._err = open(err_path, "ab")
        self.proc = subprocess.Popen(
            [sys.executable, os.path.join(HERE, "worker.py")], cwd=ROOT,
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, stderr=self._err)
        self.proc.stdin.write((json.dumps(job) + "\n").encode())
        self.proc.stdin.close()
        self._buf = b""

    def read(self, timeout: float) -> dict | None:
        """The next line, or None if none arrives within `timeout` seconds."""
        deadline = perf_counter() + timeout
        while b"\n" not in self._buf:
            left = deadline - perf_counter()
            if left <= 0 or not select.select([self.proc.stdout], [], [], left)[0]:
                return None
            chunk = os.read(self.proc.stdout.fileno(), 1 << 16)
            if not chunk:
                return None
            self._buf += chunk
        line, self._buf = self._buf.split(b"\n", 1)
        return json.loads(line)

    def ready(self) -> dict:
        """The first line.  Sets `setup_s` to the set-up time, raw and
        scaled by the reference task timed just before and just after."""
        line = self.read(DEADLINE_S)
        raw = perf_counter() - self.started
        if line is None:
            raise RuntimeError("worker ended or stalled before its first operation")
        self.setup_s = (raw, scaled(raw, self.ref_before, reference_s()))
        return line

    def drain(self) -> tuple[list[dict], dict | None]:
        """The result lines up to the closing {"done": ...} line, and that
        line; None in its place if no line arrived within the deadline.
        Results are checked only after this returns, so that the checks
        never share the machine with a timed operation."""
        lines = []
        while True:
            line = self.read(DEADLINE_S)
            if line is None or line.get("done"):
                return lines, line
            lines.append(line)

    def close(self):
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()
        self.proc.stdout.close()
        self._err.close()


class Run:
    """Everything one run measured, across its passes."""

    def __init__(self, workload: str, fixed: list[dict]):
        self.workload = workload
        self.fixed = fixed
        self.setups: list[tuple[float, float]] = []  # (raw, scaled) set-up seconds
        self.refs: list[float] = []  # reference-task seconds, two per operation run
        self.rss: list[float] = []
        self.ok: dict[object, list[float]] = {}  # operation -> scaled latencies of correct runs
        self.raw_ok: list[float] = []  # the same latencies, unscaled
        self.failed_s: list[float] = []
        self.failures: list[str] = []
        self.attempted = 0
        self.traced_s: list[float] = []
        self.untraced_s: list[float] = []
        self.traces: list[dict] = []
        self.drift: list[int] = []
        self.query_facts: list[dict] = []
        self.props: dict[str, int] = {}

    def count(self, key: str, k: int = 1):
        self.props[key] = self.props.get(key, 0) + k

    def record(self, op, seconds: float, refs: list[float], problem: str | None,
               traced: bool, label: str):
        """One run of an operation that took `seconds`, with the reference
        task timed just before and just after it (`refs`).  Its latency is
        kept scaled to the reference speed."""
        self.attempted += 1
        self.refs += refs
        latency = scaled(seconds, *refs)
        (self.traced_s if traced else self.untraced_s).append(latency)
        if problem is None:
            self.ok.setdefault(op, []).append(latency)
            self.raw_ok.append(seconds)
        else:
            self.failed_s.append(latency)
            self.failures.append(f"{label}: {problem}")

    def timeout(self, traced: bool, label: str):
        self.record(None, DEADLINE_S, [REFERENCE_S, REFERENCE_S],
                    f"no result within {DEADLINE_S:g} s", traced, label)


def run_report_pass(run: Run, job: dict, checker, err_path: str):
    worker = Worker(job, err_path)
    try:
        worker.ready()
        run.setups.append(worker.setup_s)
        lines, done = worker.drain()
    finally:
        worker.close()
    by_name = {inp["name"]: inp for inp in run.fixed}
    for line in lines:
        inp = by_name[line["name"]]
        problem = checker.check(inp, line)
        run.record(inp["name"], line["s"], line["ref_s"], problem, job["trace"], inp["name"])
        if problem is None:
            ref = checker.reference(inp)
            ref["breakpoints"] = line["fn"]["breakpoints"]
            run.count("ops")
            run.count("det0", ref["beta"] > 0)
            if ref["fox_milnor"]:
                run.count(f"fox_milnor {ref['fox_milnor']}")
    if done is None:
        run.timeout(job["trace"], "report")
        return
    run.rss.append(done["rss_mb"])
    if done["trace"]:
        run.traces.append(done["trace"])


def run_query_pass(run: Run, job: dict, err_path: str):
    import oracle

    worker = Worker(job, err_path)
    try:
        ready = worker.ready()
        run.setups.append(worker.setup_s)
        lines, done = worker.drain()
    finally:
        worker.close()
    checker = oracle.QueryOracle(run.fixed, ready["before"])
    run.query_facts = ready["facts"]
    rounds = [r for line in lines for r in line["rounds"]]
    for position, r in enumerate(rounds):  # the rounds are the same in every pass
        i = r["f"]
        problem = r["err"] or next(
            filter(None, (checker.check(kind, i, x, a) for kind, x, a in r["reads"])), None)
        run.record(position, r["s"], r["ref_s"], problem, job["trace"],
                   f"round {position} on {run.fixed[i]['name']}")
        run.count("ops")
        run.count("det0", ready["facts"][i]["generic_nullity"] > 0)
        for kind, x, _ in r["reads"]:
            run.count(kind)
            if isinstance(x, list):
                bp = ready["before"][i]["breakpoints"][x[1]]
                run.count("bp algebraic" if isinstance(bp, dict) else "bp rational")
    run.count("unchecked", checker.unchecked)
    if done is None:
        run.timeout(job["trace"], "round")
        return
    run.rss.append(done["rss_mb"])
    run.drift.append(done["json_drift"])
    if done["trace"]:
        run.traces.append(done["trace"])


def setup_only_pass(run: Run, job: dict, err_path: str):
    """Start a worker that only sets up, time its set-up, and let it end."""
    worker = Worker(dict(job, setup_only=True), err_path)
    try:
        worker.ready()
        run.setups.append(worker.setup_s)
        worker.read(DEADLINE_S)  # None once the worker has closed its output
    finally:
        worker.close()


def frontier_probe(run: Run, seed: int, workdir: str, checker, err_path: str) -> str:
    """Attempt the frontier input once under the deadline: "done" or why not."""
    import inputs

    p, q = FRONTIER[run.workload]
    job = {"workload": run.workload, "seed": seed, "pass": "frontier", "trace": False,
           "workdir": workdir, "frontier": [p, q], "setup_only": False}
    worker = Worker(job, err_path)
    try:
        worker.ready()
        line = worker.read(DEADLINE_S)
        if line is None:
            return f"no result within {DEADLINE_S:g} s"
        return checker.check(inputs.torus_input(p, q), line) or "done"
    finally:
        worker.close()


def slowdown(run: Run) -> float:
    """How much slower the machine ran than at REFERENCE_S over the run:
    the median of the reference task's timings, over REFERENCE_S.  The
    reference task does not use linkbound, so a change to linkbound does
    not move it."""
    return statistics.median(run.refs) / REFERENCE_S


def tail(latencies: list[float]) -> tuple[float, float, int]:
    """(value, percentile, samples beyond): the highest percentile with at
    least ten samples above it (the maximum below 11 samples)."""
    s = sorted(latencies)
    k = max(0, len(s) - 11)
    return s[k], 100.0 * (k + 1) / len(s), len(s) - 1 - k


def end_to_end(run: Run, passes: int) -> dict:
    """Latency metrics over every correct run of every operation, and the
    set-up time, each scaled by the reference task timed around it."""
    samples = [s for runs in run.ok.values() for s in runs]
    spent = sum(samples) + sum(run.failed_s)
    value, pct, beyond = tail(samples)
    slow = slowdown(run)
    setup = statistics.median(s for _, s in run.setups)
    raw_setup = statistics.median(r for r, _ in run.setups)
    p50 = statistics.median(samples)
    raw_p50 = statistics.median(run.raw_ok)
    raw_tail = tail(run.raw_ok)[0]
    base = f"{len(samples)} samples: {passes} runs of each of {len(run.ok)} operations"
    return {
        "setup_s": (setup, "s",
                    f"median of {len(run.setups)} set-ups, {passes} of them in passes; "
                    f"raw {raw_setup:.6f} s"),
        "ops_per_s": (len(samples) / spent, "1/s",
                      f"{base}, in {spent:.3f} s with {len(run.failed_s)} failed runs; "
                      f"raw {len(run.raw_ok) / sum(run.raw_ok):.6f}/s"),
        "op_p50_ms": (1000 * p50, "ms", f"median of {base}; raw {1000 * raw_p50:.6f} ms"),
        "op_tail_ms": (1000 * value, "ms",
                       f"p{pct:.1f}, {beyond} beyond, of {base}; raw {1000 * raw_tail:.6f} ms"),
        "fail_frac": (len(run.failures) / run.attempted, "ratio",
                      f"{len(run.failures)} failed of {run.attempted} attempted"),
        "peak_rss_mb": (max(run.rss), "MB",
                        f"largest peak resident set of {len(run.rss)} worker processes"),
        "slowdown": (slow, "ratio", f"reference task {1000 * slow * REFERENCE_S:.4f} ms "
                                    f"(median) against {1000 * REFERENCE_S:g} ms"),
    }


def per_layer(run: Run, frontier: str | None) -> dict:
    ops = sum(t["ops"] for t in run.traces)
    out = {}
    for span, field in SPAN_METRICS:
        if field == "calls":
            total = sum(t["calls"].get(span, 0) for t in run.traces)
            out[f"{span}.calls"] = (total / ops, "calls/op", f"{total} calls in {ops} ops")
        else:
            key = "total_s" if field == "s" else "self_s"
            total = sum(t[key].get(span, 0.0) for t in run.traces)
            out[f"{span}.{field}"] = (total / ops, "s/op", f"{total:.4f} s in {ops} ops")
    bps = [b for t in run.traces for b in t["breakpoints"]]
    out["signature.breakpoints"] = (
        statistics.mean(bps) if bps else 0.0, "count",
        f"mean over {len(bps)} signature functions computed")
    out["signature.json_drift"] = (
        statistics.median(run.drift) if run.drift else 0, "count",
        f"functions whose to_json changed over the query stream, per pass: {run.drift}")
    attempts = sum(t["fox_milnor_attempts"] for t in run.traces)
    decided = sum(t["fox_milnor_decided"] for t in run.traces)
    out["factor.decided_frac"] = (decided / attempts if attempts else 0.0, "ratio",
                                  f"{decided} decided of {attempts} Fox-Milnor tests")
    traced = statistics.mean(run.traced_s)
    untraced = statistics.mean(run.untraced_s)
    out["trace.overhead_frac"] = (traced / untraced - 1, "ratio",
                                  f"mean operation {traced * 1000:.3f} ms traced, "
                                  f"{untraced * 1000:.3f} ms untraced")
    out["frontier.failed"] = (0 if frontier in (None, "done") else 1, "count",
                              f"frontier probe: {frontier or 'none for this workload'}")
    return out


def describe_inputs(run: Run, checker) -> list[str]:
    lines = []
    if run.workload == "signature_queries":
        lines.append("  input                    breakpoints algebraic beta")
        for inp, f in zip(run.fixed, run.query_facts):
            lines.append(f"  {inp['name']:24s} {f['breakpoints']:11d} {f['algebraic']:9d} "
                         f"{f['generic_nullity']:4d}")
        rational = run.props.get("bp rational", 0)
        algebraic = run.props.get("bp algebraic", 0)
        lines.append(f"breakpoint queries: {algebraic} algebraic, {rational} rational "
                     f"({100 * algebraic / max(1, algebraic + rational):.1f}% algebraic)")
        kinds = {k: run.props.get(k, 0) for k in
                 ("at", "pointwise", "value_at", "to_json", "csv_rows")}
        lines.append(f"reads: {kinds}, in {run.props.get('ops', 0)} rounds")
        lines.append(f"rational reads within 1e-7 of a breakpoint, not checked: "
                     f"{run.props.get('unchecked', 0)}")
    else:
        lines.append("  input                     n  m deg(Delta) breakpoints beta "
                     "fox-milnor  best_ms")
        for name, ref in sorted(checker.refs.items(), key=lambda kv: kv[1]["n"]):
            deg = len(ref["delta"]) - 1 if ref["delta"] else "-"
            best = 1000 * min(run.ok.get(name, [float("nan")]))
            lines.append(f"  {name:24s} {ref['n']:2d} {ref['m']:2d} {deg!s:>10} "
                         f"{ref.get('breakpoints', '?')!s:>11} {ref['beta']:4d} "
                         f"{ref['fox_milnor'] or '-':>10} {best:8.1f}")
        verdicts = {k.split(" ", 1)[1]: v for k, v in run.props.items()
                    if k.startswith("fox_milnor")}
        lines.append(f"Fox-Milnor verdicts over correct operations: {verdicts}")
    ops = run.props.get("ops", 0)
    det0 = run.props.get("det0", 0)
    lines.append(f"det B = 0 (beta > 0): {det0} of {ops} correct operations "
                 f"({100 * det0 / max(1, ops):.1f}%)")
    return lines


def commit_id() -> str:
    try:
        with open(os.path.join(ROOT, ".git", "HEAD")) as fh:
            ref = fh.read().strip()
        if ref.startswith("ref: "):
            with open(os.path.join(ROOT, ".git", ref[5:])) as fh:
                return fh.read().strip()
        return ref
    except OSError:
        return "unknown (not a git checkout)"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")

    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "linkbound", "__init__.py")):
        print(f"error: no linkbound sources under {src}; run from the root of a checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, src)
    sys.path.insert(0, HERE)
    import linkbound
    import inputs
    import oracle

    if not os.path.abspath(linkbound.__file__).startswith(src + os.sep):
        print(f"error: imported linkbound from {linkbound.__file__}, not {src}",
              file=sys.stderr)
        return 2

    passes = max(2 if args.trace else 1, round(args.seconds / PASS_S))
    run = Run(args.workload, inputs.INPUTS[args.workload](args.seed))
    checker = oracle.ReportOracle()
    frontier = None
    work_root = os.path.join(ROOT, ".perfbench_work")
    os.makedirs(work_root, exist_ok=True)
    workdir = tempfile.mkdtemp(dir=work_root)
    err_path = os.path.join(workdir, "worker-stderr.txt")
    try:
        for p in range(passes):
            job = {"workload": args.workload, "seed": args.seed, "pass": p,
                   "trace": bool(args.trace and p % 2), "workdir": workdir,
                   "frontier": None, "queries": READS_PER_PASS, "setup_only": False}
            if args.workload == "signature_queries":
                run_query_pass(run, job, err_path)
            else:
                run_report_pass(run, job, checker, err_path)
        for _ in range(0 if args.trace else SETUPS - passes):
            setup_only_pass(run, job, err_path)
        if args.trace and args.workload in FRONTIER:
            frontier = frontier_probe(run, args.seed, workdir, checker, err_path)
        with open(err_path, "a+") as fh:
            fh.seek(0)
            worker_stderr = fh.read()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        if not os.listdir(work_root):
            os.rmdir(work_root)

    print(f"linkbound benchmark: workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds} trace={args.trace}")
    print(f"interpreter: {platform.python_implementation()} {platform.python_version()}  "
          f"cpu: {platform.processor() or platform.machine()}  "
          f"nproc: {len(os.sched_getaffinity(0))}  commit: {commit_id()}")
    print(f"passes: {passes}, each in a fresh process, one client, closed loop; "
          f"deadline {DEADLINE_S:g} s per operation")
    print("inputs:")
    for line in describe_inputs(run, checker):
        print(line)
    for failure in run.failures[:20]:
        print(f"FAILED {failure}")
    if worker_stderr.strip():
        print("worker stderr:\n" + worker_stderr.strip()[-2000:])
    metrics = per_layer(run, frontier) if args.trace else end_to_end(run, passes)
    for name, (value, unit, base) in metrics.items():
        print(f"{name:42s} {value:14.6f} {unit:9s} {base}")
    result = {"correct": not run.failures, "attempted": run.attempted,
              "failed": len(run.failures),
              "metrics": {name: {"value": value, "unit": unit}
                          for name, (value, unit, _) in metrics.items()
                          if name not in ("fail_frac", "slowdown")}}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
