"""One workload process of the benchmark (started by run.py).

Imports the library, generates the reference panel, prints ``READY``, then
runs the closed loop and prints one ``RESULT {json}`` line.  An untraced
run pauses between ops for run.py's set-up samples (see Pacer).  With
``--setup-only`` it exits after ``READY``; with ``--trace`` it runs every
op twice, untraced and under the span recorder.
"""

from __future__ import annotations

import argparse
import collections
import hashlib
import json
import math
import platform
import resource
import sys
import time
from dataclasses import dataclass

import numpy as np

import spans
import workloads


@dataclass
class Record:
    op: workloads.Op
    out: object
    seconds: float
    error: str | None


def run_op(op) -> Record:
    t0 = time.perf_counter()
    try:
        out, error = workloads.run(op), None
    except Exception as exc:  # an op that raises counts as failed
        out, error = None, f"{type(exc).__name__}: {exc}"
    return Record(op, out, time.perf_counter() - t0, error)


class Pacer:
    """Between ops, at most every `every` seconds, prints ``PAUSE`` and
    waits for a line on stdin while run.py times a fresh set-up process, so
    that set-up samples are spread over the run.  clock() leaves the pauses
    out."""

    def __init__(self, every: float):
        self.every = every
        self.paused = 0.0
        self.last = time.perf_counter()

    def clock(self) -> float:
        return time.perf_counter() - self.paused

    def maybe_pause(self):
        t0 = time.perf_counter()
        if t0 - self.last < self.every:
            return
        print("PAUSE", flush=True)
        sys.stdin.readline()
        self.last = time.perf_counter()
        self.paused += self.last - t0


def untraced(pacer):
    """A cycle runner that runs each op once, untraced."""
    def run_cycle(ops, first_id) -> list[Record]:
        records = []
        for op in ops:
            pacer.maybe_pause()
            records.append(run_op(op))
        return records
    return run_cycle


def paired(recorder):
    """A cycle runner that runs each op untraced and then traced, or the
    other way round on odd op ids so that neither pass always runs second.
    The recorder is installed only around the traced call."""
    def run_cycle(ops, first_id) -> list[tuple[Record, Record]]:
        pairs = []
        for op_id, op in enumerate(ops, first_id):
            recorder.start_op(op_id)
            if op_id % 2:
                with recorder:
                    traced = run_op(op)
                plain = run_op(op)
            else:
                plain = run_op(op)
                with recorder:
                    traced = run_op(op)
            pairs.append((plain, traced))
        return pairs
    return run_cycle


def run_for(wl, seed, panel, seconds, run_cycle, clock=time.perf_counter):
    """Run the reference panel, then further whole cycles while the next one
    is expected to end less than half a cycle past `seconds`.
    run_cycle(ops, first_op_id) gives one result per op.  Returns the
    results and the loop's time on `clock`."""
    t0 = clock()
    results = run_cycle(panel, 0)
    cycle = wl.ref_cycles
    while True:
        elapsed = clock() - t0
        if elapsed + 0.5 * elapsed / cycle >= seconds:
            break
        results += run_cycle(wl.make_cycle(seed, cycle), len(results))
        cycle += 1
    return results, clock() - t0


def summarize(records, ref_count) -> dict:
    """Checks every op (re-running searches on the reference panel) and
    digests the outputs of the reference panel and of the whole run."""
    failures, failed = [], 0
    for i, rec in enumerate(records):
        msgs = ([rec.error] if rec.error is not None
                else workloads.check(rec.op, rec.out, deep=i < ref_count))
        if msgs:
            failed += 1
            failures += [f"op {i} ({rec.op.kind}, cycle {rec.op.cycle}, "
                         f"slot {rec.op.slot}): {m}" for m in msgs]
    result = {"attempted": len(records), "failed": failed,
              "failures": failures[:20],
              "op_seconds": [r.seconds for r in records],
              "bound_norm_mean": None}
    for prefix, recs in (("ref_", records[:ref_count]), ("run_", records)):
        if any(r.error is not None for r in recs):
            continue
        csv_sha, val_sha = hashlib.sha256(), hashlib.sha256()
        values = []
        for rec in recs:
            csv_sha.update(workloads.digest(rec.op, rec.out))
            values.append(workloads.value(rec.op, rec.out))
            val_sha.update(f"{values[-1]!r}\n".encode())
        result[prefix + "csv_sha256"] = csv_sha.hexdigest()
        result[prefix + "values_sha256"] = val_sha.hexdigest()
        if prefix == "ref_":
            result["bound_norm_mean"] = math.fsum(values) / len(values)
    return result


def dominant_spans(records, recorder, top=3) -> dict:
    """Per slot of the cycle: the spans with the most self time per op."""
    def key(op):
        return f"slot {op.slot} {op.kind}"

    seconds: dict[str, dict[str, float]] = {}
    for op_id, per_name in recorder.self_by_op().items():
        agg = seconds.setdefault(key(records[op_id].op), {})
        for name, ns in per_name.items():
            agg[name] = agg.get(name, 0.0) + ns / 1e9
    ops = collections.Counter(key(rec.op) for rec in records)
    return {k: [[name, secs / ops[k]] for name, secs in
                sorted(agg.items(), key=lambda kv: -kv[1])[:top]]
            for k, agg in sorted(seconds.items())}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True,
                    choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--pause-every", type=float, default=math.inf,
                    help="seconds between set-up pauses (untraced runs)")
    args = ap.parse_args(argv)

    wl = workloads.WORKLOADS[args.workload]
    panel = [op for c in range(wl.ref_cycles)
             for op in wl.make_cycle(args.seed, c)]
    print("READY", flush=True)
    if args.setup_only:
        return 0

    result = {"python": platform.python_version(), "numpy": np.__version__}
    if not args.trace:
        pacer = Pacer(args.pause_every)
        records, wall = run_for(wl, args.seed, panel, args.seconds,
                                untraced(pacer), pacer.clock)
        result.update(summarize(records, len(panel)))
        result["wall_s"] = wall
    else:
        recorder = spans.Recorder()
        pairs, _ = run_for(wl, args.seed, panel, args.seconds,
                           paired(recorder))
        plain = [a for a, _ in pairs]
        traced = [b for _, b in pairs]
        result.update(summarize(plain, len(panel)))
        for i, (a, b) in enumerate(zip(plain, traced)):
            if b.error is not None:
                msg = f"traced op raised {b.error}"
            elif (a.error is None and workloads.digest(a.op, a.out)
                  != workloads.digest(b.op, b.out)):
                msg = "traced output differs"
            else:
                continue
            result["failed"] += 1
            result["failures"].append(f"op {i}: {msg}")
        result["attempted"] += len(traced)
        result["traced_ops"] = len(traced)
        result["layers"] = recorder.summary()
        result["dominant_spans"] = dominant_spans(traced, recorder)
        result["repeat_frac"] = recorder.repeat_frac()
        result["trace_overhead_frac"] = (
            math.fsum(r.seconds for r in traced)
            / math.fsum(r.seconds for r in plain) - 1.0)
    result["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                             / 1024.0)
    print("RESULT " + json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
