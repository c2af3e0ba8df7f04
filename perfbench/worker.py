"""One pass of a workload in a fresh process: the single client of the
closed loop.

Started by run.py with the checkout root as working directory and one JSON
job on stdin.  The worker sets up (import, input generation, and for
signature_queries the first signature_function and to_json of the fixed
set), prints {"ready": ...}, runs the timed operations one after another
and prints their results as JSON lines; the last line is {"done": ...}.
A set-up-only job ends after {"ready": ...}.
An operation is one report, or one round of signature reads.
Only the operation itself is timed; everything the oracle needs is
collected after the clock stops, with the tracer disabled.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import random
import sys
from fractions import Fraction
from time import perf_counter

ROOT = os.getcwd()
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import linkbound  # noqa: E402
import linkbound.cli  # noqa: E402

import inputs  # noqa: E402
from reference import reference_s  # noqa: E402
from spans import Tracer  # noqa: E402

ROUNDS_PER_LINE = 20
# Random rationals per round read with signature_nullity_at and with
# value_at.  A read near an algebraic breakpoint can cost ten times the
# others, and how many such reads a stream holds depends on the seed; in
# rounds this large one of them adds at most about a tenth to its round.
RANDOM_AT = 30
RANDOM_VALUE_AT = 20


def emit(obj):
    sys.stdout.write(json.dumps(obj) + "\n")
    sys.stdout.flush()


def rat(x) -> str:
    x = Fraction(x)
    return f"{x.numerator}/{x.denominator}"


def peak_rss_mb() -> float:
    """VmHWM of this process.  (ru_maxrss would also count the parent's
    resident set, which the kernel carries over into a child at exec.)"""
    with open("/proc/self/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("no VmHWM in /proc/self/status")


def function_facts(f) -> dict:
    """What the oracle checks about a SignatureFunction: samples and
    interval values, plus the input properties the run reports."""
    return {"samples": [rat(s) for s in f.samples],
            "values": [list(v) for v in f.interval_values],
            "breakpoints": len(f.breakpoints),
            "algebraic": sum(not isinstance(b, Fraction) for b in f.breakpoints),
            "generic_nullity": f.generic_nullity}


def run_reports(job: dict, tracer: Tracer | None):
    if job["frontier"]:
        ops = [inputs.torus_input(*job["frontier"])]
    else:
        ops = inputs.INPUTS[job["workload"]](job["seed"])
    paths = []
    for i, inp in enumerate(ops):
        path = os.path.join(job["workdir"], f"{job['pass']}-{i}.json")
        with open(path, "w") as fh:
            json.dump(inp["json"], fh)
        paths.append(path)
    emit({"ready": len(ops)})
    if job["setup_only"]:
        return
    for inp, path in zip(ops, paths):
        ref = reference_s()
        out, err = io.StringIO(), io.StringIO()
        if tracer:
            tracer.start()
        error = None
        t0 = perf_counter()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                rc = linkbound.cli.main(["bound", path])
        except Exception as e:  # an operation that raises counts as failed
            rc, error = None, f"{type(e).__name__}: {e}"
        dt = perf_counter() - t0
        if tracer:
            tracer.stop(commit=rc == 0)
        ref = [ref, reference_s()]
        line = {"name": inp["name"], "s": dt, "ref_s": ref, "rc": rc, "out": out.getvalue(),
                "err": error or err.getvalue()}
        if rc == 0:
            data = linkbound.seifert_data_from_json(inp["json"])
            line["fn"] = function_facts(linkbound.signature_function(data))
        emit(line)
    emit({"done": True, "rss_mb": peak_rss_mb(),
          "trace": tracer.snapshot() if tracer else None})


def query_rounds(rng: random.Random, points: list, reads: int) -> list:
    """The seeded read stream, cut into rounds of (function index, reads),
    each read a (kind, point) pair with the point a rational or
    ("bp", breakpoint index).

    A round is one request for one function of the fixed set: random
    rationals, every breakpoint, x = +-2, the unaveraged value at -2,
    value_at reads, and every fourth round of that function to_json and
    csv_rows.  The stream holds at least `reads` reads.
    """
    rounds = []
    total = 0
    while total < reads:
        i = len(rounds) % len(points)
        bps = [("bp", j) for j in range(len(points[i]))]
        batch = [("at", random_rational(rng)) for _ in range(RANDOM_AT)]
        batch += [("at", bp) for bp in bps]
        batch += [("at", Fraction(2)), ("at", Fraction(-2)), ("pointwise", Fraction(-2))]
        batch += [("value_at", random_rational(rng)) for _ in range(RANDOM_VALUE_AT)]
        batch += [("value_at", bp) for bp in bps]
        if (len(rounds) // len(points)) % 4 == 0:
            batch += [("to_json", None), ("csv_rows", None)]
        rounds.append((i, batch))
        total += len(batch)
    return rounds


def random_rational(rng: random.Random) -> Fraction:
    den = rng.randint(2, 1000)
    return Fraction(rng.randint(-2 * den + 1, 2 * den - 1), den)


def read(data, point, kind: str):
    """One read, its answer made JSON-ready."""
    if kind == "at":
        sig, nul = linkbound.signature_nullity_at(data, point)
    elif kind == "pointwise":
        sig, nul = linkbound.pointwise_signature_nullity(data, point)
    else:
        f = linkbound.signature_function(data)
        if kind == "to_json":
            return f.to_json()
        if kind == "csv_rows":
            return [list(r) for r in f.csv_rows()]
        sig, nul = f.value_at(point)
    return [rat(sig), nul]


def run_queries(job: dict, tracer: Tracer | None):
    fixed = inputs.query_inputs(job["seed"])
    data = [inputs.seifert_data(inp) for inp in fixed]
    functions = [linkbound.signature_function(d) for d in data]
    before = [f.to_json() for f in functions]
    # Breakpoint query points as a client rebuilds them from the JSON.
    points = []
    for doc in before:
        pts = []
        for bp in doc["breakpoints"]:
            if isinstance(bp, dict):
                lo, hi = (Fraction(v) for v in bp["interval"])
                pts.append(linkbound.RealAlgebraic(bp["polynomial"], lo, hi))
            else:
                pts.append(Fraction(bp))
        points.append(pts)
    rounds = query_rounds(random.Random(f"queries-{job['seed']}"), points, job["queries"])
    emit({"ready": len(rounds), "before": before,
          "facts": [function_facts(f) for f in functions]})
    if job["setup_only"]:
        return

    results = []
    for i, batch in rounds:
        ref = reference_s()
        targets = [points[i][x[1]] if isinstance(x, tuple) else x for _, x in batch]
        answers = []
        if tracer:
            tracer.start()
        error = None
        t0 = perf_counter()
        try:
            for (kind, _), point in zip(batch, targets):
                answers.append(read(data[i], point, kind))
        except Exception as e:  # an operation that raises counts as failed
            error = f"{type(e).__name__}: {e}"
        dt = perf_counter() - t0
        if tracer:
            tracer.stop(commit=error is None)
        ref = [ref, reference_s()]
        results.append({"f": i, "s": dt, "ref_s": ref, "err": error, "reads": [
            [kind, list(x) if isinstance(x, tuple) else (None if x is None else rat(x)), a]
            for (kind, x), a in zip(batch, answers)]})
        if len(results) == ROUNDS_PER_LINE:
            emit({"rounds": results})
            results = []
    if results:
        emit({"rounds": results})
    after = [f.to_json() for f in functions]
    emit({"done": True, "rss_mb": peak_rss_mb(),
          "trace": tracer.snapshot() if tracer else None,
          "json_drift": sum(a != b for a, b in zip(after, before))})


def main():
    job = json.loads(sys.stdin.readline())
    tracer = Tracer().install() if job["trace"] else None
    if job["workload"] == "signature_queries":
        run_queries(job, tracer)
    else:
        run_reports(job, tracer)


if __name__ == "__main__":
    main()
