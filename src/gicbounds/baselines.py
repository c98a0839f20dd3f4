"""Prior-art upper bounds and the simple lower-bound trio.

All formulas are evaluated in complex form (bits per complex channel use);
the normalized rate divides the sum rate by 2K (users x real dimensions).
Real scenarios evaluate the same expressions with real coefficients.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field as dc_field

import numpy as np

from ._optim import grid_then_golden
from .channel import Channel
from .gaussnet import REAL

FEAS_SLACK = 1e-9

# search resolutions for the correlation parameter of the generalized
# two-receiver bound: magnitude points, phase points (complex case), plus one
# local 10x refinement pass around the incumbent
RHO_MAG_POINTS = 201
RHO_PHASE_POINTS = 64


@dataclass(frozen=True)
class BoundResult:
    """Named bound value.  normalized = sum_rate / (2K); infeasible results
    carry +inf and are ignored by minimum-taking consumers."""

    name: str
    k: int
    sum_rate: float
    normalized: float
    feasible: bool
    params: dict = dc_field(default_factory=dict)
    permutation: tuple | None = None

    @classmethod
    def make(cls, name, k, sum_rate, params=None, permutation=None):
        sum_rate = float(sum_rate)
        return cls(name, k, sum_rate, sum_rate / (2 * k), True,
                   dict(params or {}), permutation)

    @classmethod
    def infeasible(cls, name, k, params=None, permutation=None):
        inf = float("inf")
        return cls(name, k, inf, inf, False, dict(params or {}), permutation)


def best_result(results) -> BoundResult:
    """Minimum feasible result; ties broken by lexicographic bound name."""
    usable = [r for r in results if r.feasible and math.isfinite(r.sum_rate)]
    if not usable:
        k = results[0].k if results else 0
        return BoundResult.infeasible("none", k)
    return min(usable, key=lambda r: (r.sum_rate, r.name))


def kramer_symmetric_rate(p: float, g: complex) -> float:
    """Two-user symmetric-rate bound, bits per user: for |g| < 1,
    (1/2)log(1+P) + (1/2)log(1+P/(1+|g|^2 P)); for |g| >= 1,
    (1/2)log(1+P+|g|^2 P).  Valid for K users by deactivation."""
    if p < 0:
        raise ValueError("negative power")
    g2 = abs(g) ** 2
    if g2 < 1.0:
        return 0.5 * math.log2(1.0 + p) + 0.5 * math.log2(1.0 + p / (1.0 + g2 * p))
    return 0.5 * math.log2(1.0 + p + g2 * p)


def kramer_two_user(p: float, g: complex, k_users: int = 2) -> BoundResult:
    rate = kramer_symmetric_rate(p, g)
    return BoundResult.make("kramer2", k_users, k_users * rate,
                            params={"per_user": rate})


def etw_symmetric_rate(p: float, g: complex) -> float:
    """Two-user bound log(1 + |g|^2 P + P/(1+|g|^2 P)), bits per user."""
    if p < 0:
        raise ValueError("negative power")
    g2 = abs(g) ** 2
    return math.log2(1.0 + g2 * p + p / (1.0 + g2 * p))


def etw_two_user(p: float, g: complex, k_users: int = 2) -> BoundResult:
    rate = etw_symmetric_rate(p, g)
    return BoundResult.make("etw2", k_users, k_users * rate,
                            params={"per_user": rate})


def gen_kramer_objective(p: float, g: complex, rho) -> np.ndarray:
    """Three-receiver correlated-noise bound objective at correlation rho:
    log((P+2|g|^2P+1)/(1-|rho|^2)) + log(P+|g|^2P+1 - |g*(g+1)P+rho*|^2/(2|g|^2P+1)).

    Evaluated in extended precision: the infimum can sit on the |rho| -> 1
    boundary (e.g. g = 1) where both factors vanish and double precision
    loses ~1e-7 of the cancellation."""
    rho = np.asarray(rho, dtype=np.clongdouble)
    g = np.clongdouble(complex(g))
    p = np.longdouble(p)
    g2 = np.abs(g) ** 2
    one_minus = 1.0 - np.abs(rho) ** 2
    num = np.abs(np.conj(g) * (g + 1.0) * p + np.conj(rho)) ** 2
    inner = p + g2 * p + 1.0 - num / (2.0 * g2 * p + 1.0)
    with np.errstate(divide="ignore", invalid="ignore"):
        out = np.log2((p + 2.0 * g2 * p + 1.0) / one_minus) + np.log2(inner)
    out = np.where((one_minus > 0) & (inner > 0), out, np.inf)
    return np.asarray(out, dtype=float)


def _gen_kramer_admissible(g: complex, rho) -> np.ndarray:
    # quadratic-form condition [g* g*] [[1,rho],[rho*,1]]^-1 [g g]^T >= 1,
    # i.e. 2|g|^2 (1 - Re rho) >= 1 - |rho|^2
    rho = np.asarray(rho, dtype=complex)
    return (2.0 * abs(g) ** 2 * (1.0 - rho.real)
            >= 1.0 - np.abs(rho) ** 2 - FEAS_SLACK) & (np.abs(rho) < 1.0)


def gen_kramer_three(channel: Channel) -> BoundResult:
    """Minimize the correlated-noise objective over admissible rho.

    Real scenarios search rho on (-1, min(1, 2|g|^2-1)] with a golden-section
    polish; complex scenarios scan a magnitude x phase grid with one 10x
    local refinement.  Infeasible when no rho is admissible.
    """
    if channel.k != 3:
        raise ValueError("three-user bound")
    g = channel.symmetric_gain()
    if g is None:
        raise ValueError("symmetric channel required")
    p = float(channel.power[0])
    g2 = abs(g) ** 2

    if channel.field == REAL or g.imag == 0.0:
        hi = min(1.0, 2.0 * g2 - 1.0)
        if hi <= -1.0:
            return BoundResult.infeasible("gen_kramer3", 3)

        def obj(x):
            return gen_kramer_objective(p, g, x.astype(complex))

        rho, val = grid_then_golden(obj, -1.0 + 1e-12, hi, n=RHO_MAG_POINTS)
        if not math.isfinite(val):
            return BoundResult.infeasible("gen_kramer3", 3)
        return BoundResult.make("gen_kramer3", 3, val, params={"rho": rho})

    mags = np.linspace(0.0, 1.0 - 1e-9, RHO_MAG_POINTS)
    phases = np.arange(RHO_PHASE_POINTS) * (2.0 * np.pi / RHO_PHASE_POINTS)
    best = (float("inf"), 0j)
    for _ in range(2):
        rho = mags[:, None] * np.exp(1j * phases)[None, :]
        vals = gen_kramer_objective(p, g, rho)
        vals = np.where(_gen_kramer_admissible(g, rho), vals, np.inf)
        i = np.unravel_index(np.argmin(vals), vals.shape)
        if vals[i] < best[0]:
            best = (float(vals[i]), complex(rho[i]))
        # 10x zoom around the incumbent
        m0, ph0 = abs(best[1]), np.angle(best[1])
        dm = (mags[1] - mags[0]) if len(mags) > 1 else 0.01
        dp = phases[1] - phases[0] if len(phases) > 1 else 0.1
        mags = np.clip(np.linspace(m0 - dm, m0 + dm, 21), 0.0, 1.0 - 1e-9)
        phases = np.linspace(ph0 - dp, ph0 + dp, 21)
    if not math.isfinite(best[0]):
        return BoundResult.infeasible("gen_kramer3", 3)
    return BoundResult.make("gen_kramer3", 3, best[0], params={"rho": best[1]})


def z_extension_three(channel: Channel) -> BoundResult:
    """Half-sum of the six chain mutual informations, minimized over the user
    orderings whose three cyclic cross gains all have |h|^2 <= 1."""
    if channel.k != 3:
        raise ValueError("three-user bound")
    h, p = channel.h, channel.power
    results = []
    for perm in itertools.permutations(range(3)):
        a, b, c = perm
        cond = (abs(h[a, b]) ** 2 <= 1.0 + FEAS_SLACK
                and abs(h[b, c]) ** 2 <= 1.0 + FEAS_SLACK
                and abs(h[c, a]) ** 2 <= 1.0 + FEAS_SLACK)
        if not cond:
            results.append(BoundResult.infeasible("zchain3", 3, permutation=perm))
            continue
        total = 0.0
        for u, v in ((a, b), (b, c), (c, a)):
            # I(Xu;Yu|all others) + I(Xu;Yu|the non-dropped interferer)
            total += math.log2(1.0 + p[u])
            inr = abs(h[u, v]) ** 2 * p[v]
            total += math.log2((p[u] + inr + 1.0) / (inr + 1.0))
        results.append(
            BoundResult.make("zchain3", 3, 0.5 * total, permutation=perm))
    res = best_result(results)
    if not res.feasible:
        return BoundResult.infeasible("zchain3", 3)
    return res


@dataclass(frozen=True)
class LowerBounds:
    """Per-user achievable rates (bits per complex use) for the symmetric
    channel: interference-as-noise, time division with power control, and
    non-unique simultaneous decoding; best = max of the three."""

    k: int
    tin: float
    tdm: float
    snd: float

    @property
    def best(self) -> float:
        return max(self.tin, self.tdm, self.snd)

    def normalized(self, name: str = "best") -> float:
        return getattr(self, name) / 2.0

    def as_result(self, name: str = "best") -> BoundResult:
        rate = getattr(self, name)
        label = "lower_best" if name == "best" else name
        return BoundResult.make(label, self.k, self.k * rate,
                                params={"per_user": rate})


def lower_bounds(k: int, g: complex, p: float) -> LowerBounds:
    g2 = abs(g) ** 2
    tin = math.log2(1.0 + p / (1.0 + (k - 1) * g2 * p))
    tdm = math.log2(1.0 + k * p) / k
    # the minimum over s = 1..K of f(s) = log2(1 + P + (s-1)|g|^2 P) / s:
    # with a = 1 + P - |g|^2 P and b = |g|^2 P the numerator of f'(s),
    # bs/(a+bs) - ln(a+bs), falls in s, so f rises then falls and takes
    # its minimum at s = 1 or s = K
    snd = min(math.log2(1.0 + p + (s - 1) * g2 * p) / s for s in (1, k))
    return LowerBounds(k, tin, tdm, snd)
