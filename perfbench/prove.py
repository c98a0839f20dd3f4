"""Run every workload of BENCHMARK.json over seeds 1..N at its run_seconds,
report each metric's median, quartiles and spread (quartile distance over
median) against its bound, add one traced run per workload (seed 1) and
optionally write everything to a JSON file.

    python3 perfbench/prove.py --seeds 10 --out perfbench/baseline.json

Run from the root of a source checkout, like run.py.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent


def run_once(workload, seed, seconds, trace) -> tuple[dict, dict]:
    """One run.py invocation: (its result line, its report line with the
    invocation's wall time added)."""
    t0 = time.perf_counter()
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace)]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=600,
                          check=True)
    lines = proc.stdout.strip().split("\n")
    report = next(json.loads(ln[len("report "):]) for ln in lines
                  if ln.startswith("report "))
    report["invocation_s"] = time.perf_counter() - t0
    return json.loads(lines[-1]), report


def spread(values) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else float("inf"),
            "values": values}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seeds", type=int, default=10)
    ap.add_argument("--out", default=None)
    args = ap.parse_args(argv)

    bench = json.loads(Path("BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    names = [w["name"] for w in bench["workloads"]]
    seconds = bench["run_seconds"]
    seeds = list(range(1, args.seeds + 1))
    doc = {"seconds": seconds, "seeds": seeds, "workloads": {}}
    steady = True
    for name in names:
        runs = [run_once(name, s, seconds, 0) for s in seeds]
        entry = {"correct": all(r["correct"] for r, _ in runs),
                 "attempted": [r["attempted"] for r, _ in runs],
                 "failed": [r["failed"] for r, _ in runs],
                 "failures": [f for _, rep in runs for f in rep["failures"]],
                 "invocation_s": [rep["invocation_s"] for _, rep in runs],
                 "ref_csv_sha256": {s: rep.get("ref_csv_sha256")
                                for s, (_, rep) in zip(seeds, runs)},
                 "end_to_end": {}}
        doc.setdefault("environment", {
            k: runs[0][1][k] for k in ("nproc", "python", "numpy",
                                       "blas_threads", "commit",
                                       "src_sha256")})
        print(f"{name}: correct={entry['correct']} "
              f"attempted={entry['attempted']} failed={entry['failed']} "
              f"max invocation {max(entry['invocation_s']):.1f} s")
        for metric in runs[0][0]["metrics"]:
            st = spread([r["metrics"][metric]["value"] for r, _ in runs])
            st["bound"] = bounds[metric]
            entry["end_to_end"][metric] = st
            ok = st["spread"] <= bounds[metric] / 3
            steady &= ok
            print(f"  {metric:18s} median {st['median']:<12.6g} "
                  f"q1 {st['q1']:<12.6g} q3 {st['q3']:<12.6g} "
                  f"spread {st['spread']:.4f} bound {bounds[metric]}"
                  f"{'' if ok else '  <-- above bound/3'}")
        traced, rep = run_once(name, 1, seconds, 1)
        entry["per_layer"] = {"seed": 1,
                              "traced_ops": rep["traced_ops"],
                              "invocation_s": rep["invocation_s"],
                              "dominant_spans": rep["dominant_spans"],
                              "metrics": {k: v["value"] for k, v in
                                          traced["metrics"].items()}}
        entry["correct"] &= traced["correct"]
        doc["workloads"][name] = entry
    if args.out:
        Path(args.out).write_text(json.dumps(doc, indent=1, sort_keys=True)
                                  + "\n")
    print("steady" if steady else "NOT steady: a spread exceeds bound/3")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
