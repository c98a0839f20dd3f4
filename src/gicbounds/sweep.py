"""Configuration-driven sweeps, semi-symmetric phase surfaces with extremum
diagnostics, figure-style reproduction recipes, and CSV emission.

CSV schema (fixed column order):
k,field,p_linear,g1_re,g1_im,g2_re,g2_im,axis,axis_value,bound,sum_rate_bits,normalized,feasible
with the g2 columns left empty for symmetric runs and all numbers printed to
9 significant digits.  Re-running a command with the same configuration
yields byte-identical files (grid-major, bound-name-minor row order, also
when a sweep runs on a thread pool).
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from . import baselines as bl
from . import genie3 as g3
from .baselines import BoundResult
from .bounds import BOUNDS, LOWER, THREE_USER, UPPER, Point, bound
from .channel import alpha_to_gain, make_semi_symmetric, make_symmetric

CSV_COLUMNS = ("k", "field", "p_linear", "g1_re", "g1_im", "g2_re", "g2_im",
               "axis", "axis_value", "bound", "sum_rate_bits", "normalized",
               "feasible")

SWEEP_AXES = ("alpha", "g2", "phase", "snr_db", "K")

ALL_BOUNDS = tuple(sorted(BOUNDS))
LOWER_BOUNDS = tuple(n for n, b in BOUNDS.items() if b.kind == LOWER)


@dataclass(frozen=True)
class SweepSpec:
    axis: str
    start: float
    stop: float
    step: float
    k: int = 3
    p: float = 10.0
    g: complex = 1.0
    field: str | None = None
    bounds: tuple = ("best_upper", "lower_best")
    normalize: bool = True

    def __post_init__(self):
        if self.axis not in SWEEP_AXES:
            raise ValueError(f"unknown axis {self.axis!r}")
        if self.step <= 0:
            raise ValueError("step must be positive")
        if self.axis == "phase" and not (
                0.0 <= self.start <= 2 * math.pi + 1e-9
                and 0.0 <= self.stop <= 2 * math.pi + 1e-9):
            raise ValueError("phase range must lie in [0, 2*pi]")
        for name in self.bounds:
            bound(name)

    def grid(self) -> np.ndarray:
        n = int(round((self.stop - self.start) / self.step)) + 1
        return self.start + self.step * np.arange(n)


@dataclass(frozen=True)
class SurfaceSpec:
    mag2_1: float
    mag2_2: float
    p: float = 10.0
    grid_n: int = 32
    bounds: tuple = ("etkin3", "zchain3")

    def __post_init__(self):
        if self.grid_n < 8:
            raise ValueError("grid_n must be at least 8")
        if self.mag2_1 < 0 or self.mag2_2 < 0:
            raise ValueError("negative squared magnitude")
        # cells are circulant channels, symmetric only where g1 = g2, so
        # only upper bounds valid for any three-user channel describe them
        for name in self.bounds:
            if (bound(name).kind, bound(name).scope) != (UPPER, THREE_USER):
                raise ValueError(f"surface bounds must be upper bounds for "
                                 f"any {THREE_USER} channel, not {name!r}")

    def phases(self) -> np.ndarray:
        # endpoint-exclusive so the torus seam is not double counted
        return np.arange(self.grid_n) * (2.0 * math.pi / self.grid_n)


@dataclass(frozen=True)
class ConjectureReport:
    """Local extrema of a phase surface and their distances to the two line
    families phi-sum combinations 2a-b+pi = 0 (maxima) and 2a-b = 0 (minima),
    all modulo 2*pi.  Diagnostic only."""

    extrema: tuple
    tdm_normalized: float


def _point_params(spec: SweepSpec, x: float):
    """Resolve one grid point to (k, g, p)."""
    k, g, p = spec.k, complex(spec.g), spec.p
    if spec.axis == "alpha":
        g2 = alpha_to_gain(x, p)
        phase = np.angle(g) if g != 0 else 0.0
        g = math.sqrt(g2) * complex(np.exp(1j * phase))
    elif spec.axis == "g2":
        phase = np.angle(g) if g != 0 else 0.0
        g = math.sqrt(x) * complex(np.exp(1j * phase))
    elif spec.axis == "phase":
        g = abs(g) * complex(np.exp(1j * x))
    elif spec.axis == "snr_db":
        p = 10.0 ** (x / 10.0)
    elif spec.axis == "K":
        k = int(round(x))
    if abs(g.imag) < 1e-15:
        g = complex(g.real)
    return k, g, p


def _row(k, field, p, g1, g2, axis, x, res: BoundResult) -> dict:
    return {
        "k": k,
        "field": field,
        "p_linear": p,
        "g1_re": float(np.real(g1)),
        "g1_im": float(np.imag(g1)),
        "g2_re": "" if g2 is None else float(np.real(g2)),
        "g2_im": "" if g2 is None else float(np.imag(g2)),
        "axis": axis,
        "axis_value": x,
        "bound": res.name if res.name != "none" else "none",
        "sum_rate_bits": res.sum_rate,
        "normalized": res.normalized,
        "feasible": res.feasible,
    }


def run_sweep(spec: SweepSpec, threads: int = 1) -> list[dict]:
    """One row per grid point per bound, grid-major and bound-name-minor."""
    grid = spec.grid()

    def eval_point(x):
        k, g, p = _point_params(spec, float(x))
        ch = make_symmetric(k, g, p, spec.field) if k == 3 else None
        field = (ch.field if ch is not None
                 else ("real" if complex(g).imag == 0 else "complex"))
        point = Point(k, g, p, ch)
        rows = []
        for name in sorted(spec.bounds):
            res = point.evaluate(name)
            row = _row(k, field, p, g, None, spec.axis, float(x), res)
            row["bound"] = name
            rows.append(row)
        return rows

    if threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            chunks = list(pool.map(eval_point, grid))
    else:
        chunks = [eval_point(x) for x in grid]
    return [row for chunk in chunks for row in chunk]


_LINE_FAMILIES = {
    "max": ((2.0, -1.0, math.pi), (-1.0, 2.0, math.pi)),
    "min": ((2.0, -1.0, 0.0), (-1.0, 2.0, 0.0)),
}


def _line_distance(phi1, phi2, family) -> float:
    """Euclidean distance on the torus to the nearest line of the family
    a*phi1 + b*phi2 + c = 0 (mod 2*pi)."""
    best = math.inf
    for a, b, c in _LINE_FAMILIES[family]:
        r = a * phi1 + b * phi2 + c
        r = (r + math.pi) % (2.0 * math.pi) - math.pi
        best = min(best, abs(r) / math.hypot(a, b))
    return best


def _torus_extrema(values):
    """(is_max, is_min) masks of the cells of a torus grid that lie strictly
    above (below) all 8 neighbours; the edges of a plateau of equal values
    are not extrema."""
    stack = np.stack([np.roll(np.roll(values, di, 0), dj, 1)
                      for di in (-1, 0, 1) for dj in (-1, 0, 1)
                      if (di, dj) != (0, 0)])
    return np.all(values > stack, axis=0), np.all(values < stack, axis=0)


def run_surface(spec: SurfaceSpec, threads: int = 1):
    """Best-upper surface over the two cross-gain phases plus extremum
    diagnostics.  Returns (phases, values, rows, report).

    The cells are evaluated one after another in the calling thread.
    ``threads`` is accepted for existing callers and has no effect: each
    cell is a small, GIL-bound Etkin search, and a thread pool made the
    surface slower (the threads take turns on the GIL, and every thread's
    freed temporaries go back to the OS and fault in again)."""
    phis = spec.phases()
    n = spec.grid_n
    m1, m2 = math.sqrt(spec.mag2_1), math.sqrt(spec.mag2_2)

    # a coarse scan plus the local 10x refinement is accurate to ~1e-4 on the
    # smooth genie objectives and keeps full surfaces tractable; it serves
    # the etkin3 bound alone, the composites keep their full searches
    surface_res = (33, 17, 16)

    def eval_point(idx):
        i, j = divmod(idx, n)
        g1 = m1 * complex(np.exp(1j * phis[i]))
        g2 = m2 * complex(np.exp(1j * phis[j]))
        ch = make_semi_symmetric(3, [g1, g2], spec.p)
        point = Point.of(ch)
        res = bl.best_result([
            g3.etkin_optimize(ch, resolution=surface_res) if b == "etkin3"
            else point.evaluate(b) for b in sorted(spec.bounds)])
        row = _row(3, ch.field, spec.p, g1, g2, "phase_surface",
                   float(phis[i]), res)
        row["bound"] = "best_upper"
        return row

    rows = [eval_point(i) for i in range(n * n)]

    values = np.array([r["normalized"] for r in rows], dtype=float).reshape(n, n)

    extrema = []
    for kind, mask in zip(("max", "min"), _torus_extrema(values)):
        for i, j in zip(*np.nonzero(mask)):
            p1, p2 = float(phis[i]), float(phis[j])
            extrema.append({
                "phi1": p1,
                "phi2": p2,
                "value": float(values[i, j]),
                "kind": kind,
                "dist_max_lines": _line_distance(p1, p2, "max"),
                "dist_min_lines": _line_distance(p1, p2, "min"),
            })
    tdm = bl.lower_bounds(3, m1, spec.p).normalized("tdm")
    report = ConjectureReport(tuple(extrema), tdm)
    return phis, values, rows, report


def _fmt(x) -> str:
    if isinstance(x, bool):
        return "true" if x else "false"
    if isinstance(x, float):
        if math.isinf(x):
            return "inf"
        return f"{x:.9g}"
    return str(x)


def rows_to_csv(rows) -> str:
    lines = [",".join(CSV_COLUMNS)]
    for r in rows:
        lines.append(",".join(_fmt(r[c]) for c in CSV_COLUMNS))
    return "\n".join(lines) + "\n"


def write_csv(rows, path) -> str:
    text = rows_to_csv(rows)
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(text)
    return str(path)


# figure-style reproduction recipes ------------------------------------------

FIGURE_IDS = ("fig1", "fig2", "fig4", "fig4a", "fig5", "fig6", "fig8",
              "fig11", "fig12", "fig13-like")


def reproduce(figure_id: str, outdir: str, threads: int = 1) -> list[str]:
    """Emit the CSV data underlying one of the canned figure recipes."""
    import os

    if figure_id not in FIGURE_IDS:
        raise ValueError(f"unknown figure id {figure_id!r}")
    os.makedirs(outdir, exist_ok=True)
    paths = []

    def emit(name, rows):
        paths.append(write_csv(rows, os.path.join(outdir, name)))

    if figure_id == "fig1":
        spec = SweepSpec("g2", 0.02, 1.0, 0.02, k=3, p=10.0, g=1.0,
                         bounds=("coi3", "etkin3", "hybrid3", "zchain3",
                                 "lower_best"))
        emit("fig1.csv", run_sweep(spec, threads))
    elif figure_id == "fig4":
        spec = SweepSpec("alpha", -1.0, 1.0, 0.05, k=3, p=10.0, g=1.0,
                         bounds=("kramer2", "etw2", "gen_kramer3", "zchain3",
                                 "new_min", "lower_best"))
        emit("fig4.csv", run_sweep(spec, threads))
    elif figure_id == "fig4a":
        spec = SweepSpec("alpha", 0.0, 2.0, 0.05, k=3, p=100.0, g=1.0,
                         bounds=("kramer2", "etw2", "gen_kramer3", "zchain3",
                                 "new_min", "lower_best"))
        emit("fig4a.csv", run_sweep(spec, threads))
    elif figure_id == "fig2":
        for g2v in (0.3, 0.5, 0.7, 1.0):
            spec = SweepSpec("phase", 0.0, 2.0 * math.pi, math.pi / 16,
                             k=3, p=10.0, g=math.sqrt(g2v), field="complex",
                             bounds=("best_upper", "lower_best"))
            emit(f"fig2_g2_{g2v:g}.csv", run_sweep(spec, threads))
    elif figure_id == "fig5":
        for i in range(5):
            phase = i * math.pi / 8
            g_dir = complex(np.exp(1j * phase))
            spec = SweepSpec("g2", 0.05, 1.0, 0.05, k=4, p=10.0,
                             g=g_dir, field="complex",
                             bounds=("kramer2", "etw2", "kuser_weak",
                                     "kuser_hybrid", "lower_best"))
            emit(f"fig5_phase_{i}.csv", run_sweep(spec, threads))
    elif figure_id in ("fig6", "fig8"):
        cases = ([(0.3, 0.3), (0.5, 0.5), (0.7, 0.7), (1.0, 1.0)]
                 if figure_id == "fig6" else [(0.3, 0.7)])
        for m1, m2 in cases:
            spec = SurfaceSpec(m1, m2, p=10.0, grid_n=32)
            _, _, rows, _ = run_surface(spec)
            emit(f"{figure_id}_{m1:g}_{m2:g}.csv", rows)
    elif figure_id == "fig11":
        for k in (3, 5, 10, 100):
            spec = SweepSpec("g2", 0.02, 2.5, 0.02, k=k, p=10.0, g=1.0,
                             bounds=("cf_best", "lower_best"))
            emit(f"fig11_k{k}.csv", run_sweep(spec, threads))
    elif figure_id == "fig12":
        for p in (5.0, 100.0):
            spec = SweepSpec("g2", 0.5, 1.5, 0.005, k=100000, p=p, g=1.0,
                             bounds=("cf_best", "kramer2", "lower_best"))
            emit(f"fig12_p{p:g}.csv", run_sweep(spec, threads))
    elif figure_id == "fig13-like":
        for g2v in (1.1, 0.7, 1.5):
            spec = SweepSpec("snr_db", 0.0, 60.0, 1.0, k=1000,
                             p=10.0, g=math.sqrt(g2v),
                             bounds=("cf_best", "affine", "lower_best"))
            emit(f"fig13_g2_{g2v:g}.csv", run_sweep(spec, threads))
    return paths
