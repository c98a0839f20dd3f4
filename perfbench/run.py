"""gicbounds benchmark: one seeded workload per invocation.

    python3 perfbench/run.py --workload sym3 --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout (the library is imported from
``src/``).  Each workload runs in its own fresh process with one BLAS thread.
``--trace 0`` prints every end-to-end metric; ``--trace 1`` runs the same
ops untraced and then under the span recorder and prints every per-layer
metric.  The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before it
name each metric with its unit and record the environment, the output
digests and any failed checks.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
#: set-up samples taken during an untraced run (one per pause of the
#: measuring worker, about every seconds/SETUP_SAMPLES); setup_s is the
#: median of these and of the measuring worker's own set-up
SETUP_SAMPLES = 12
#: a worker still running after this long is killed
WORKER_TIMEOUT_S = 170.0

END_TO_END = (
    ("setup_s", "s", "lower"),
    ("ops_per_s", "1/s", "higher"),
    ("op_p50_s", "s", "lower"),
    ("op_tail_s", "s", "lower"),
    ("peak_rss_mb", "MB", "lower"),
    ("bound_norm_mean", "bit", "lower"),
    ("ok_frac", "frac", "higher"),
)

_UNITS = {"calls": ("calls/op", "lower"), "points": ("points/op", "lower"),
          "self_s": ("s/op", "lower"), "feasible_frac": ("frac", "higher")}


def _layer(span: str, *stats: str) -> list[tuple[str, str, str]]:
    name = span.lstrip("_")
    return [(f"{name}.{s}",) + _UNITS[s] for s in stats]


#: per-layer metrics of the traced run: per-op means over the traced ops
LAYER_METRICS = tuple(
    _layer("genie3._hybrid_value", "calls", "points", "self_s", "feasible_frac")
    + _layer("genie3._coi_value", "calls", "points", "self_s", "feasible_frac")
    + _layer("genie3._etkin_terms", "calls", "points", "self_s",
             "feasible_frac")
    + _layer("genie3._etkin_kernel_value", "calls", "self_s")
    + _layer("genie3._gauss_inputs", "self_s")
    + [m for f in ("best_upper_three", "new_minimum_three", "etkin_optimize",
                   "coi_optimize", "hybrid_optimize", "hybrid_symmetric_bound")
       for m in _layer(f"genie3.{f}", "calls", "self_s")]
    + [("genie3.optimize.repeat_frac", "frac", "lower")]
    + _layer("baselines.gen_kramer_three", "calls", "self_s")
    + _layer("baselines.gen_kramer_objective", "points")
    + _layer("baselines.z_extension_three", "self_s")
    + _layer("baselines.lower_bounds", "calls", "self_s")
    + _layer("_optim.grid_then_golden", "calls", "self_s")
    + _layer("kuser._kuser_tied_values", "calls", "points", "self_s",
             "feasible_frac")
    + _layer("kuser._weak_chain_kernel", "calls", "self_s")
    + _layer("kuser._symmetric_inputs", "self_s")
    + [m for f in ("_tied_optimize", "closed_form_weak", "closed_form_hybrid",
                   "closed_form_strong_search")
       for m in _layer(f"kuser.{f}", "calls", "self_s")]
    + _layer("gaussnet.mutual_info", "calls", "self_s")
    + _layer("gaussnet.entropy", "calls")
    + [m for f in ("run_sweep", "run_surface", "rows_to_csv")
       for m in _layer(f"sweep.{f}", "self_s")]
    + [("sweep.csv_bytes", "B/op", "lower"),
       ("trace_overhead_frac", "frac", "lower")]
)


def tail(samples):
    """Highest order statistic with at least ten samples above it, but never
    below the 90th percentile (nearest rank), which it is when there are
    fewer than 100 samples; returns it with its percentile and the count."""
    xs = sorted(samples)
    n = len(xs)
    i = max(n - 11, (9 * n + 9) // 10 - 1)
    return xs[i], 100.0 * (i + 1) / n, n


def layer_metrics(res: dict) -> dict:
    """Per-op means of the worker's span aggregates."""
    ops = res["traced_ops"]
    layers = res["layers"]
    out = {}
    for name, unit, _ in LAYER_METRICS:
        if name == "genie3.optimize.repeat_frac":
            value = res["repeat_frac"]
        elif name == "trace_overhead_frac":
            value = res["trace_overhead_frac"]
        elif name == "sweep.csv_bytes":
            value = layers.get("sweep.rows_to_csv", {}).get("out_bytes", 0) / ops
        else:
            span, stat = name.rsplit(".", 1)
            if span.startswith("optim."):
                span = "_" + span
            agg = layers.get(span, {})
            if stat == "feasible_frac":
                pts = agg.get("points", 0)
                value = agg["feasible"] / pts if pts else 0.0
            elif stat == "self_s":
                value = agg.get("self_ns", 0) / 1e9 / ops
            else:
                value = agg.get(stat, 0) / ops
        out[name] = {"value": value, "unit": unit}
    return out


def environment(root: Path) -> dict:
    """nproc, commit (when the checkout is a git repository) and a digest
    of the library sources."""
    src = hashlib.sha256()
    for path in sorted((root / "src" / "gicbounds").glob("*.py")):
        src.update(path.name.encode() + b"\0" + path.read_bytes())
    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root,
                                capture_output=True, text=True, timeout=30,
                                check=True).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        commit = "none"
    return {"nproc": len(os.sched_getaffinity(0)), "commit": commit,
            "src_sha256": src.hexdigest()}


def spawn(cmd, env, timeout, on_pause=None):
    """Start a worker and wait for it, killing it after `timeout` seconds;
    at each ``PAUSE`` line call on_pause() and then let the worker go on.
    Return (seconds to READY, RESULT dict or None)."""
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, stdin=subprocess.PIPE,
                            stdout=subprocess.PIPE, env=env, text=True)
    watchdog = threading.Timer(timeout, proc.kill)
    watchdog.start()
    ready, result = None, None
    try:
        for line in proc.stdout:
            if line.startswith("READY") and ready is None:
                ready = time.perf_counter() - t0
            elif line.startswith("PAUSE"):
                on_pause()
                proc.stdin.write("\n")
                proc.stdin.flush()
            elif line.startswith("RESULT "):
                result = json.loads(line[len("RESULT "):])
        proc.wait()
    finally:
        watchdog.cancel()
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        proc.stdin.close()
        proc.stdout.close()
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with code {proc.returncode}")
    if ready is None:
        raise RuntimeError("worker never reported READY")
    return ready, result


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "gicbounds" / "__init__.py").is_file():
        sys.stderr.write("error: run from the root of a gicbounds checkout "
                         "(src/gicbounds not found)\n")
        return 2
    env = dict(os.environ, PYTHONPATH=str(root / "src"),
               OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
               MKL_NUM_THREADS="1")
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload",
           args.workload, "--seed", str(args.seed), "--seconds",
           str(args.seconds)]
    setups = []

    def sample_setup():
        setups.append(spawn(cmd + ["--setup-only"], env, WORKER_TIMEOUT_S)[0])

    mode = (["--trace"] if args.trace
            else ["--pause-every", str(args.seconds / SETUP_SAMPLES)])
    try:
        ready, res = spawn(cmd + mode, env, WORKER_TIMEOUT_S, sample_setup)
    except (RuntimeError, OSError) as exc:  # OSError: worker gone at a pause
        sys.stderr.write(f"error: {exc}\n")
        return 1
    setups.append(ready)
    if res is None:
        sys.stderr.write("error: worker printed no result\n")
        return 1

    if args.trace:
        metrics = layer_metrics(res)
    else:
        op_s = res["op_seconds"]
        tail_s, tail_pct, n = tail(op_s)
        res["op_tail"] = {"percentile": round(tail_pct, 2), "samples": n}
        values = {
            "setup_s": statistics.median(setups),
            "ops_per_s": res["attempted"] / res["wall_s"],
            "op_p50_s": statistics.median(op_s),
            "op_tail_s": tail_s,
            "peak_rss_mb": res["peak_rss_mb"],
            # 0 only when the reference panel raised (correct is then false)
            "bound_norm_mean": res["bound_norm_mean"] or 0.0,
            "ok_frac": 1.0 - res["failed"] / res["attempted"],
        }
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit, _ in END_TO_END}

    for name, m in metrics.items():
        print(f"{name:44s} {m['value']!r:>24} {m['unit']}")
    info = {k: v for k, v in res.items()
            if k not in ("op_seconds", "layers")}
    info.update(workload=args.workload, seed=args.seed,
                seconds=args.seconds, setup_samples_s=setups,
                blas_threads=env["OPENBLAS_NUM_THREADS"], **environment(root))
    print("report " + json.dumps(info, sort_keys=True))
    correct = res["failed"] == 0 and res["bound_norm_mean"] is not None
    print(json.dumps({"correct": correct, "attempted": res["attempted"],
                      "failed": res["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
