"""Seeded workloads of the gicbounds benchmark: input generators, the user
calls each op makes, output checks, and the per-op value and digest.

Every op goes through a call a user makes (``sweep.run_sweep`` as
``gicbounds eval`` runs it, ``sweep.run_surface`` as ``gicbounds surface``
runs it, or ``genie3.best_upper_three`` on a channel) and receives only
generated inputs.  Library functions are looked up on their modules at call
time, so the traced run's wrappers see them.

Inputs come in cycles of fixed slots, one per stratum of the parameter
space.  The coordinates that set an op's cost (K and |g|^2) are fixed per
slot, so every cycle of every seed does the same work and a run's median
and tail op do not move with the number of cycles that fit in it.  The
other coordinates (signs, phases, powers, non-symmetric gains) follow a
seeded low-discrepancy sequence, so inputs do not repeat.  The first
``ref_cycles``
cycles form the reference panel: it is the same for every seed and always
runs in full, and ``bound_norm_mean`` and the reference digests are taken
over it, so they repeat exactly across runs and seeds.  Later cycles draw
gains, phases, signs and powers from the seed.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from gicbounds import baselines, genie3, sweep
from gicbounds.channel import Channel, make_semi_symmetric, make_symmetric

#: slack for comparisons between bounds computed along different paths
TOL = 1e-9

SYM3_BOUNDS = ("best_upper", "new_min", "gen_kramer3", "zchain3", "lower_best")
CHAIN_BOUNDS = ("kuser_weak", "kuser_hybrid", "cf_best", "lower_best")
LARGE_K_BOUNDS = ("cf_best", "kramer2", "lower_best")
SURFACE_GRID = 16
SURFACE_THREADS = 2


@dataclass(frozen=True)
class Op:
    """One closed-loop operation: kind is "sweep", "best_upper" or
    "surface"; arg is the SweepSpec, Channel or SurfaceSpec it is run on."""

    cycle: int
    slot: int
    kind: str
    arg: object


# low-discrepancy draws --------------------------------------------------------

#: stream of the reference panel, the same for every seed
REF_SEED = 0


def _rd_alpha(dims: int) -> np.ndarray:
    """Increments of the R_d sequence (powers of 1/phi_d, x^(d+1) = x + 1)."""
    phi = 2.0
    for _ in range(64):
        phi = (1.0 + phi) ** (1.0 / (dims + 1))
    return (1.0 / phi) ** np.arange(1, dims + 1)


def draw(seed: int, slot: int, cycle: int, dims: int) -> np.ndarray:
    """Point `cycle` of a seeded R_d sequence in [0, 1)^dims for one slot."""
    offset = np.random.default_rng([seed, slot]).random(dims)
    return (offset + (cycle + 1) * _rd_alpha(dims)) % 1.0


def schedule(slot: int, dims: int) -> np.ndarray:
    """Fixed point of one slot for the coordinates that set an op's cost
    (K and |g|^2): the same in every cycle and for every seed."""
    return draw(REF_SEED, 1000 + slot, 0, dims)


def log_uniform(u: float, lo: float, hi: float) -> float:
    return lo * (hi / lo) ** u


def log_strata(lo: float, hi: float, n: int) -> list[tuple[float, float]]:
    edges = [lo * (hi / lo) ** (i / n) for i in range(n + 1)]
    return list(zip(edges[:-1], edges[1:]))


def _sign(u: float) -> float:
    return 1.0 if u < 0.5 else -1.0


# op constructors -----------------------------------------------------------

def eval_op(cycle, slot, k, g, p, bounds) -> Op:
    """Single-point sweep built the way ``gicbounds eval`` builds it."""
    g = complex(g)
    if g.imag == 0.0:
        g = complex(g.real)
    spec = sweep.SweepSpec("g2", abs(g) ** 2, abs(g) ** 2, 1.0, k=k, p=p,
                           g=g, bounds=tuple(bounds))
    return Op(cycle, slot, "sweep", spec)


def surface_op(cycle, slot, mag2_1, mag2_2, p, grid_n=SURFACE_GRID) -> Op:
    return Op(cycle, slot, "surface",
              sweep.SurfaceSpec(mag2_1, mag2_2, p=p, grid_n=grid_n))


def channel_op(cycle, slot, channel: Channel) -> Op:
    return Op(cycle, slot, "best_upper", channel)


# workloads -----------------------------------------------------------------

def _sym3_cycle(seed: int, cycle: int) -> list[Op]:
    """Five real and three complex symmetric channels; one complex channel
    is snapped to |g|^2 = 1, the tight point.  There is no real g = 1 slot:
    there the computed upper bounds can fall below the achievable
    log2(1 + 3P) by more than TOL (defect D7, see README.md), and the
    workload must run without failing ops."""
    ops = []
    for slot, (lo, hi) in enumerate(log_strata(0.05, 4.0, 5)):
        u = draw(seed, slot, cycle, 2)
        g = _sign(u[0]) * math.sqrt(
            log_uniform(schedule(slot, 1)[0], lo, hi))
        ops.append(eval_op(cycle, slot, 3, g, log_uniform(u[1], 3, 100),
                           SYM3_BOUNDS))
    for slot, (lo, hi) in ((5, (0.05, 0.6)), (6, (0.6, 4.0)), (7, (1.0, 1.0))):
        u = draw(seed, slot, cycle, 2)
        mag = math.sqrt(log_uniform(schedule(slot, 1)[0], lo, hi))
        g = mag * cmath.exp(2j * math.pi * u[0])
        ops.append(eval_op(cycle, slot, 3, g, log_uniform(u[1], 3, 100),
                           SYM3_BOUNDS))
    return ops


def _general_channel(u, mag2_hi: float, equal_power: bool) -> Channel:
    """Real 3x3 channel: six cross gains with |h|^2 log-uniform in
    [0.05, mag2_hi] and independent signs; u has 15 coordinates."""
    h = np.eye(3)
    offdiag = [(r, c) for r in range(3) for c in range(3) if r != c]
    for i, (r, c) in enumerate(offdiag):
        h[r, c] = _sign(u[6 + i]) * math.sqrt(log_uniform(u[i], 0.05, mag2_hi))
    if equal_power:
        power = np.full(3, log_uniform(u[12], 3, 100))
    else:
        power = np.array([log_uniform(x, 3, 100) for x in u[12:15]])
    return Channel(h, power, "real")


def _asym3_cycle(seed: int, cycle: int) -> list[Op]:
    """Non-symmetric real channels: two general equal-power channels (weak
    and mixed cross gains), one general channel with unequal powers, and
    one circulant channel."""
    ops = [
        channel_op(cycle, 0, _general_channel(draw(seed, 0, cycle, 15),
                                              1.0, True)),
        channel_op(cycle, 1, _general_channel(draw(seed, 1, cycle, 15),
                                              2.0, True)),
        channel_op(cycle, 2, _general_channel(draw(seed, 2, cycle, 15),
                                              1.0, False)),
    ]
    u = draw(seed, 3, cycle, 5)
    gains = [_sign(u[2 + i]) * math.sqrt(log_uniform(u[i], 0.05, 1.5))
             for i in range(2)]
    ops.append(channel_op(cycle, 3, make_semi_symmetric(
        3, gains, log_uniform(u[4], 3, 100), "real")))
    return ops


def _kuser_cycle(seed: int, cycle: int) -> list[Op]:
    """Three real-gain chains (K strata over [3, 64]), two complex-gain
    chains (K in [3, 16) and [16, 64]; the reference panel holds K = 64, the
    peak-memory op), and two large-K closed-form ops (K strata over
    [1e3, 1e5]), one real and one complex.  |g|^2 is fixed per slot with K: it
    decides which chains are feasible and take the kernel fallback and which
    closed forms run the strong-gain gamma scan.  Seven slots of distinct
    cost put the median op in the fourth slot and the tail (about p90) in
    the costliest, the 1/7 of ops with large complex K; with 10 or 11 slots
    one of them fell on the boundary between two slots."""
    ops = []
    for slot, (lo, hi) in enumerate(log_strata(3, 64, 3)):
        u, w = draw(seed, slot, cycle, 2), schedule(slot, 2)
        k = int(round(log_uniform(w[0], lo, hi)))
        g = _sign(u[0]) * math.sqrt(log_uniform(w[1], 0.05, 2.0))
        ops.append(eval_op(cycle, slot, k, g, log_uniform(u[1], 3, 100),
                           CHAIN_BOUNDS))
    for slot, (lo, hi) in ((3, (3, 16)), (4, (16, 64))):
        u, w = draw(seed, slot, cycle, 2), schedule(slot, 2)
        k = 64 if (cycle, slot) == (0, 4) else int(log_uniform(w[0], lo, hi))
        g = (math.sqrt(log_uniform(w[1], 0.05, 2.0))
             * cmath.exp(2j * math.pi * u[0]))
        ops.append(eval_op(cycle, slot, k, g, log_uniform(u[1], 3, 100),
                           CHAIN_BOUNDS))
    for i, (lo, hi) in enumerate(log_strata(1e3, 1e5, 2)):
        slot = 5 + i
        u, w = draw(seed, slot, cycle, 2), schedule(slot, 2)
        k = int(round(log_uniform(w[0], lo, hi)))
        mag = math.sqrt(log_uniform(w[1], 0.05, 4.0))
        g = mag * cmath.exp(2j * math.pi * u[0]) if i % 2 else mag
        ops.append(eval_op(cycle, slot, k, g, log_uniform(u[1], 3, 100),
                           LARGE_K_BOUNDS))
    return ops


def _surface_cycle(seed: int, cycle: int) -> list[Op]:
    """One semi-symmetric phase surface on the SURFACE_GRID grid."""
    mags = schedule(0, 2)
    p = log_uniform(draw(seed, 0, cycle, 1)[0], 3, 30)
    return [surface_op(cycle, 0, log_uniform(mags[0], 0.1, 1.2),
                       log_uniform(mags[1], 0.1, 1.2), p)]


@dataclass(frozen=True)
class Workload:
    """A named cycle generator; the first ref_cycles cycles (the reference
    panel) come from REF_SEED whatever the seed."""

    name: str
    cycle_fn: Callable[[int, int], list]
    ref_cycles: int

    def make_cycle(self, seed: int, cycle: int) -> list[Op]:
        return self.cycle_fn(REF_SEED if cycle < self.ref_cycles else seed,
                             cycle)


WORKLOADS = {
    "sym3": Workload("sym3", _sym3_cycle, 1),
    "asym3": Workload("asym3", _asym3_cycle, 3),
    "kuser": Workload("kuser", _kuser_cycle, 1),
    "surface": Workload("surface", _surface_cycle, 1),
}


# running an op -------------------------------------------------------------

def run(op: Op):
    """The user call of one op, including CSV emission where the CLI emits
    CSV."""
    if op.kind == "sweep":
        rows = sweep.run_sweep(op.arg)
        return rows, sweep.rows_to_csv(rows)
    if op.kind == "best_upper":
        return genie3.best_upper_three(op.arg)
    if op.kind == "surface":
        _, values, rows, _ = sweep.run_surface(op.arg, threads=SURFACE_THREADS)
        return values, rows, sweep.rows_to_csv(rows)
    raise ValueError(f"unknown op kind {op.kind!r}")


def value(op: Op, out) -> float:
    """Tightest normalized upper bound of the op (bits per real dimension);
    a surface contributes the mean over its cells."""
    if op.kind == "sweep":
        rows, _ = out
        return min(r["normalized"] for r in rows
                   if r["bound"] not in sweep.LOWER_BOUNDS and r["feasible"])
    if op.kind == "best_upper":
        return out.normalized
    values, _, _ = out
    return float(np.mean(values))


def digest(op: Op, out) -> bytes:
    """Bytes the op emitted: its CSV, or its result line for a channel op."""
    if op.kind == "best_upper":
        return (f"{out.name} {out.sum_rate.hex()} {out.permutation}\n"
                .encode())
    return out[-1].encode()


# output checks -------------------------------------------------------------

def check(op: Op, out, deep: bool = False) -> list[str]:
    """Reasons the op's output is wrong; empty when it passes.  deep adds
    the checks that re-run a search (used on the reference panel)."""
    if op.kind == "sweep":
        return _check_sweep(op, out, deep)
    if op.kind == "best_upper":
        return _check_channel(op.arg, out)
    return _check_surface(op, out)


def _reproduce(channel: Channel, res) -> float | None:
    """Value of a winning genie result recomputed from its parameters, or
    None when the family has no fixed-parameter evaluator."""
    prm, perm = res.params, res.permutation
    if res.name == "etkin3":
        n2 = genie3.NoiseParam(prm["sigma"], prm["rho"])
        return genie3.etkin_bound(channel, n2, prm["branch"], perm).sum_rate
    if res.name == "coi3":
        return genie3.coi_bound(channel, prm["w"], perm).sum_rate
    if res.name == "hybrid3":
        return genie3.hybrid_bound(channel, prm["cfg"], prm["branch"],
                                   perm).sum_rate
    return None


def _check_params(channel: Channel, res) -> list[str]:
    again = _reproduce(channel, res)
    if again is not None and not abs(again - res.sum_rate) <= TOL:
        return [f"{res.name} params give {again!r}, reported {res.sum_rate!r}"]
    return []


def _tdm_sum_rate(p: float) -> float:
    return math.log2(1.0 + 3.0 * p)


def _check_channel(channel: Channel, res) -> list[str]:
    if not (res.feasible and math.isfinite(res.sum_rate)):
        return [f"best_upper not finite: {res.sum_rate!r}"]
    bad = []
    power = channel.power
    if np.all(power == power[0]) and res.sum_rate < _tdm_sum_rate(power[0]) - TOL:
        bad.append(f"best_upper {res.sum_rate!r} below TDM "
                   f"{_tdm_sum_rate(power[0])!r}")
    return bad + _check_params(channel, res)


def _check_sweep(op: Op, out, deep: bool) -> list[str]:
    rows, _ = out
    by_name = {r["bound"]: r for r in rows}
    uppers = [r for r in rows
              if r["bound"] not in sweep.LOWER_BOUNDS and r["feasible"]]
    if not uppers or not all(math.isfinite(r["sum_rate_bits"]) for r in uppers):
        return ["no finite upper bound"]
    bad = []
    lower = by_name["lower_best"]["sum_rate_bits"]
    for r in uppers:
        if r["sum_rate_bits"] < lower - TOL:
            bad.append(f"{r['bound']} {r['sum_rate_bits']!r} below "
                       f"lower_best {lower!r}")
    best = by_name.get("best_upper")
    if best is None:
        return bad
    for r in uppers:
        if best["sum_rate_bits"] > r["sum_rate_bits"] + TOL:
            bad.append(f"best_upper {best['sum_rate_bits']!r} above "
                       f"{r['bound']} {r['sum_rate_bits']!r}")
    if deep:
        g = complex(best["g1_re"], best["g1_im"])
        channel = make_symmetric(3, g, best["p_linear"], best["field"])
        res = genie3.best_upper_three(channel)
        if not abs(res.sum_rate - best["sum_rate_bits"]) <= TOL:
            bad.append(f"best_upper_three gives {res.sum_rate!r}, sweep "
                       f"{best['sum_rate_bits']!r}")
        bad += _check_params(channel, res)
    return bad


def _check_surface(op: Op, out) -> list[str]:
    """Every cell finite, at least the TDM sum rate, and at most the
    zchain3 bound of its own channel."""
    values, rows, _ = out
    spec = op.arg
    if not np.all(np.isfinite(values)):
        return ["non-finite surface cell"]
    floor = _tdm_sum_rate(spec.p) / 6.0
    bad = []
    for r in rows:
        if r["normalized"] < floor - TOL:
            bad.append(f"cell {r['normalized']!r} below TDM {floor!r}")
        channel = make_semi_symmetric(
            3, [complex(r["g1_re"], r["g1_im"]),
                complex(r["g2_re"], r["g2_im"])], spec.p)
        z = baselines.z_extension_three(channel)
        if z.feasible and r["normalized"] > z.normalized + TOL:
            bad.append(f"cell {r['normalized']!r} above zchain3 "
                       f"{z.normalized!r}")
    return bad[:5]
