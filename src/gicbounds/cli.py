"""Command-line interface.

Verbs: eval, sweep, surface, largek, reproduce.  Exit codes: 0 success,
2 bad configuration, 3 every requested upper bound infeasible.
"""

from __future__ import annotations

import argparse
import json
import math
import sys

from . import kuser as ku
from .bounds import BOUNDS, UPPER
from .channel import db_to_linear
from .sweep import (
    ALL_BOUNDS,
    FIGURE_IDS,
    SWEEP_AXES,
    SurfaceSpec,
    SweepSpec,
    reproduce,
    rows_to_csv,
    run_surface,
    run_sweep,
    write_csv,
)

EXIT_OK = 0
EXIT_BAD_CONFIG = 2
EXIT_INFEASIBLE = 3


def parse_complex(text: str) -> complex:
    """Accept '0.5', '1+2i', '-0.3i', 'i', '1-0.5j', ..."""
    s = str(text).strip().replace(" ", "").replace("i", "j")
    if s in ("j", "+j"):
        return 1j
    if s == "-j":
        return -1j
    try:
        return complex(s)
    except ValueError as exc:
        raise ValueError(f"cannot parse complex number {text!r}") from exc


#: flags of each verb besides --config; a verb has only the flags it reads
VERB_FLAGS = {
    "eval": ("k", "p", "p_db", "g", "alpha", "field", "bounds", "out",
             "threads"),
    "sweep": ("axis", "start", "stop", "step", "k", "p", "p_db", "g", "field",
              "bounds", "out", "threads"),
    "surface": ("g", "g2", "p", "p_db", "bounds", "grid", "out"),
    "largek": ("k", "p", "p_db", "g", "out"),
    "reproduce": ("out", "threads"),
}

_FLAG_ARGS = {
    "k": {"type": int},
    "p": {"type": float, "help": "power, linear"},
    "p_db": {"type": float},
    "g": {"type": str, "help": "cross gain, complex as 'a+bi'"},
    "g2": {"type": str, "help": "second cross gain of the surface"},
    "alpha": {"type": float},
    "field": {"choices": ("real", "complex")},
    "bounds": {"type": str, "help": "comma-separated bound names or 'all'"},
    "grid": {"type": int},
    "out": {"type": str},
    "threads": {"type": int},
    "axis": {"choices": SWEEP_AXES},
    "start": {"type": float},
    "stop": {"type": float},
    "step": {"type": float},
}


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="gicbounds",
        description="Sum-capacity bounds for K-user Gaussian interference "
                    "channels")
    subs = ap.add_subparsers(dest="verb", required=True)
    for verb, flags in VERB_FLAGS.items():
        sub = subs.add_parser(verb)
        if verb == "reproduce":
            sub.add_argument("figure", choices=FIGURE_IDS)
        for flag in flags:
            sub.add_argument("--" + flag.replace("_", "-"), dest=flag,
                             default=None, **_FLAG_ARGS[flag])
        sub.add_argument("--config", type=str, default=None,
                         help="JSON file mirroring the flags")
    return ap


def _merge_config(args) -> dict:
    """Config file supplies defaults; explicit flags win.  A config key the
    verb has no flag for is an error."""
    merged = {}
    if args.config:
        with open(args.config, encoding="utf-8") as fh:
            doc = json.load(fh)
        if not isinstance(doc, dict):
            raise ValueError("the config file must hold a JSON object")
        unread = sorted(set(doc) - set(VERB_FLAGS[args.verb]))
        if unread:
            raise ValueError(f"{args.verb} does not read config key(s) "
                             f"{', '.join(unread)}")
        merged.update(doc)
    for key, val in vars(args).items():
        if key in ("config", "verb") or val is None:
            continue
        merged[key] = val
    return merged


def _resolve_power(cfg) -> float:
    if cfg.get("p") is not None and cfg.get("p_db") is not None:
        raise ValueError("give either --p or --p-db, not both")
    if cfg.get("p_db") is not None:
        return db_to_linear(float(cfg["p_db"]))
    return float(cfg.get("p", 10.0))


def _bounds(cfg) -> dict:
    """The spec keyword for --bounds (comma-separated names, or 'all' for
    the whole bound table); empty when not given, keeping the default."""
    raw = cfg.get("bounds")
    if raw is None:
        return {}
    if isinstance(raw, str):
        raw = (ALL_BOUNDS if raw == "all"
               else [b.strip() for b in raw.split(",") if b.strip()])
    return {"bounds": tuple(raw)}


def _resolve_gain(cfg, key="g", default=1.0):
    val = cfg.get(key)
    if val is None:
        return complex(default) if key == "g" else None
    return parse_complex(val) if isinstance(val, str) else complex(val)


def _finish(rows, cfg) -> int:
    out = cfg.get("out")
    if out:
        write_csv(rows, out)
    else:
        sys.stdout.write(rows_to_csv(rows))
    uppers = [r for r in rows if BOUNDS[r["bound"]].kind == UPPER]
    if uppers and all(not r["feasible"] for r in uppers):
        return EXIT_INFEASIBLE
    return EXIT_OK


def _cmd_eval(cfg) -> int:
    k = int(cfg.get("k", 3))
    p = _resolve_power(cfg)
    g = _resolve_gain(cfg)
    if cfg.get("alpha") is not None:
        from .channel import alpha_to_gain
        mag = math.sqrt(alpha_to_gain(float(cfg["alpha"]), p))
        g = mag * (g / abs(g) if abs(g) > 0 else 1.0)
    spec = SweepSpec("g2", abs(g) ** 2, abs(g) ** 2, 1.0, k=k, p=p,
                     g=g if abs(g) > 0 else 1.0, field=cfg.get("field"),
                     **_bounds(cfg))
    # reuse the sweep machinery for a single grid point
    rows = run_sweep(spec, threads=int(cfg.get("threads", 1)))
    for r in rows:
        r["axis"] = "eval"
    return _finish(rows, cfg)


def _cmd_sweep(cfg) -> int:
    for key in ("axis", "start", "stop", "step"):
        if cfg.get(key) is None:
            raise ValueError(f"sweep needs --{key}")
    spec = SweepSpec(cfg["axis"], float(cfg["start"]), float(cfg["stop"]),
                     float(cfg["step"]), k=int(cfg.get("k", 3)),
                     p=_resolve_power(cfg), g=_resolve_gain(cfg),
                     field=cfg.get("field"), **_bounds(cfg))
    rows = run_sweep(spec, threads=int(cfg.get("threads", 1)))
    return _finish(rows, cfg)


def _cmd_surface(cfg) -> int:
    g1 = _resolve_gain(cfg, "g")
    g2 = _resolve_gain(cfg, "g2")
    if g2 is None:
        g2 = g1
    spec = SurfaceSpec(abs(g1) ** 2, abs(g2) ** 2, p=_resolve_power(cfg),
                       grid_n=int(cfg.get("grid", 32)), **_bounds(cfg))
    _, _, rows, report = run_surface(spec)
    code = _finish(rows, cfg)
    sys.stderr.write(
        f"tdm_normalized={report.tdm_normalized:.9g} "
        f"extrema={len(report.extrema)}\n")
    for e in report.extrema[:16]:
        sys.stderr.write(
            f"  {e['kind']} phi=({e['phi1']:.4f},{e['phi2']:.4f}) "
            f"value={e['value']:.9g} d_max={e['dist_max_lines']:.4f} "
            f"d_min={e['dist_min_lines']:.4f}\n")
    return code


def _cmd_largek(cfg) -> int:
    k = int(cfg.get("k", 100000))
    p = _resolve_power(cfg)
    g = _resolve_gain(cfg)
    off = ku.eta_regime(p, g)
    cf = ku.closed_form_best(k, g, p)
    lines = [
        f"d_k={off.d_k:.9g}",
        f"ell_star_bits={off.ell_star_bits:.9g}",
        f"ell_star_db={off.ell_star_db:.9g}",
        f"eta={off.eta:.9g}",
        f"closed_form_best_normalized={cf.normalized:.9g} ({cf.name})",
    ]
    if p > 1.0 and math.isfinite(off.ell_star_bits):
        lines.append(f"affine_per_user_bits={ku.affine_approx(k, p, g):.9g}")
    sys.stdout.write("\n".join(lines) + "\n")
    if cfg.get("out"):
        from .sweep import _row
        rows = [_row(k, "real" if complex(g).imag == 0 else "complex", p, g,
                     None, "largek", 0.0, cf)]
        write_csv(rows, cfg["out"])
    return EXIT_OK


def main(argv=None) -> int:
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as exc:
        return EXIT_BAD_CONFIG if exc.code not in (0, None) else 0
    try:
        cfg = _merge_config(args)
        if args.verb == "eval":
            return _cmd_eval(cfg)
        if args.verb == "sweep":
            return _cmd_sweep(cfg)
        if args.verb == "surface":
            return _cmd_surface(cfg)
        if args.verb == "largek":
            return _cmd_largek(cfg)
        if args.verb == "reproduce":
            outdir = cfg.get("out") or "."
            paths = reproduce(cfg["figure"], outdir,
                              threads=int(cfg.get("threads", 1)))
            sys.stdout.write("\n".join(paths) + "\n")
            return EXIT_OK
        raise ValueError(f"unknown verb {args.verb!r}")
    except (ValueError, OSError, json.JSONDecodeError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_BAD_CONFIG


if __name__ == "__main__":
    sys.exit(main())
