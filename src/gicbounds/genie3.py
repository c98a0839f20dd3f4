"""Three-user genie-aided sum-rate upper bounds.

Three families are implemented, all evaluated exactly at Gaussian inputs via
covariance algebra (cross-checked in the tests against the gaussnet kernel):

* change-of-interference: noisy-interference side information U_k =
  (interference at receiver k) + W_k replaces one conditioning input of the
  chain bound, at the price of penalty terms and a mixed-regime restriction;
* Etkin-type: a single receiver gets the genie S_b = (interference at the
  *lead* receiver) + N_b, giving a chain whose negative non-Gaussian entropy
  pairs off through the Gaussian-conditioning identity;
* hybrid: equal-weight time sharing of {nothing, S, U} over the three
  receivers, combining both mechanisms; valid for all cross gains.

Penalty terms arising from the conditional worst-additive-noise step are kept
in their tight conditional-entropy-difference form
h(X+Z-W | U) - h(X+Z-W+V~ | U) - log|h|^2, which is what the closed-form
symmetric simplifications below assume; V is a fresh Gaussian at the
relevant conditional variance and V~ its rescaling by the pairing
coefficient, both defined per family below.

Every optimizer takes the minimum over the user orderings that can give
distinct values (``_best_over_orderings``), and searches each ordering with
one of the deterministic searches of ``_optim``: the Etkin-type bound, and
the change-of-interference bound on symmetric channels (tied parameters),
by one grid scan and a finer scan around its argmin (``scan_then_zoom``);
the change-of-interference and hybrid bounds on other channels by one
block coordinate descent over their (sigma, rho) pairs
(``coordinate_descent``), which is not global.  The symmetric hybrid
reduction is two 1-D golden-section searches.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from ._optim import (
    PHASE_POINTS,
    RHO_POINTS,
    SIGMA_POINTS,
    by_rows,
    coordinate_descent,
    grid_then_golden,
    scan_then_zoom,
    tied_grid,
)
from .baselines import FEAS_SLACK, BoundResult
# perfbench/selfcheck.py checks that its span wrapper reaches this name too
from .baselines import gen_kramer_three  # noqa: F401
from .channel import Channel
from .gaussnet import COMPLEX, GaussianSystem, correlated_pair, mutual_info

_EPS = 1e-12


@dataclass(frozen=True)
class NoiseParam:
    """One genie noise: stddev sigma in [0,1] and complex correlation rho
    with the same-index receiver noise (E[Z N*] = rho * sigma)."""

    sigma: float
    rho: complex = 0.0

    def __post_init__(self):
        if not 0.0 <= self.sigma <= 1.0:
            raise ValueError(f"sigma={self.sigma} outside [0, 1]")
        if abs(complex(self.rho)) > 1.0 + 1e-12:
            raise ValueError("correlation magnitude exceeds 1")


@dataclass(frozen=True)
class GenieConfig3:
    """Noise parameters for the hybrid bound: w for the change-of-interference
    genies U_k, n for the Etkin-type genies S_k."""

    w: tuple
    n: tuple

    def __post_init__(self):
        if len(self.w) != 3 or len(self.n) != 3:
            raise ValueError("need exactly three W and three N parameters")

    @classmethod
    def tied(cls, w: NoiseParam, n: NoiseParam) -> "GenieConfig3":
        return cls((w, w, w), (n, n, n))


# covariance helpers (numpy broadcasting; sigma real >= 0, rho complex) -----

def _var_z_minus_cn(sigma, rho, c, s2=None):
    """Var(Z - c N) with E[Z N*] = rho sigma; s2 is sigma**2 when the
    caller has it already."""
    if s2 is None:
        s2 = sigma**2
    return (1.0 + np.abs(c) ** 2 * s2
            - 2.0 * np.real(np.conj(c) * rho * sigma))


def _var_n_minus_cz(sigma, rho, cp, s2):
    """Var(N - cp Z) with E[Z N*] = rho sigma and s2 = sigma**2."""
    return (s2 + np.abs(cp) ** 2
            - 2.0 * np.real(np.conj(cp) * np.conj(rho) * sigma))


def _cond_var(vx, cov_abs2, vy):
    """Var(X|Y) = Var(X) - |Cov|^2 / Var(Y); conditioning on an (almost)
    deterministic variable is vacuous."""
    vx, cov_abs2, vy = np.broadcast_arrays(
        np.asarray(vx, float), np.asarray(cov_abs2, float), np.asarray(vy, float))
    with np.errstate(divide="ignore", invalid="ignore"):
        out = vx - cov_abs2 / vy
    return np.where(vy > _EPS, out, vx)


def _v_w(sigma, rho):
    """sigma^2_{W | Z-W}."""
    s2 = sigma**2
    return _cond_var_n(s2, rho * sigma, 1.0,
                       _var_z_minus_cn(sigma, rho, 1.0, s2))


def _cond_var_n(s2, rs, c, vz):
    """sigma^2_{N | Z - c N} from s2 = sigma**2, rs = rho*sigma and
    vz = Var(Z - c N)."""
    return _cond_var(s2, np.abs(rs - c * s2) ** 2, vz)


def _cond_var_z(rs, cp, vn):
    """sigma^2_{Z | N - cp Z} from rs = rho*sigma and vn = Var(N - cp Z)."""
    return _cond_var(1.0, np.abs(rs - np.conj(cp)) ** 2, vn)


def _star(cv, vzw, coeff2, v_pair):
    """Tight conditional worst-noise pair:
    log cv - log(cv + var V~) - log coeff2, combined so that coeff2 -> 0 and
    exact-cancellation points stay finite."""
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.log2(cv) - np.log2(coeff2 * (cv - vzw) + v_pair)


def _safe_log2(x):
    x = np.asarray(x, dtype=float)
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.log2(x)


def _perm_channel(channel: Channel, perm) -> Channel:
    if tuple(perm) == tuple(range(channel.k)):
        return channel
    return channel.permuted(perm)


def _complex_params(channel: Channel) -> bool:
    """Whether the genie correlations range over the complex disc."""
    return channel.field == COMPLEX and bool(np.any(channel.h.imag != 0))


def _noise_params(sigmas, rhos) -> tuple:
    return tuple(NoiseParam(float(s), complex(r)) for s, r in zip(sigmas, rhos))


def _gauss_inputs(channel: Channel):
    """Single-letter Gaussian system for the channel (always built in the
    complex field; rates are in bits per complex use by convention)."""
    sysm = GaussianSystem(COMPLEX)
    xs = [sysm.gaussian(math.sqrt(pk)) for pk in channel.power]
    zs = [sysm.latent() for _ in range(channel.k)]
    ys = []
    for r in range(channel.k):
        y = xs[r] + zs[r]
        for t in range(channel.k):
            if t != r:
                y = y + xs[t] * complex(channel.h[r, t])
        ys.append(y)
    return sysm, xs, zs, ys


# Etkin-type bound ----------------------------------------------------------

def _etkin_terms(channel: Channel, sigma, rho, branch: str):
    """Vectorized sum rate and validity of the Etkin-type chain for lead user
    1 (after any relabeling); entries needing the exact 0*inf cancellation
    come back non-finite and are resolved through the kernel."""
    return by_rows(lambda sigma, rho: _etkin_rows(channel, sigma, rho, branch),
                   (np.asarray(sigma, dtype=float),
                    np.asarray(rho, dtype=complex)), 1)


def _etkin_rows(channel, sigma, rho, branch):
    h, p = channel.h, channel.power
    p1, p2, p3 = p
    h12, h13, h23 = h[0, 1], h[0, 2], h[1, 2]
    a12, a13, a23 = abs(h12) ** 2, abs(h13) ** 2, abs(h23) ** 2

    s2, rs = sigma**2, rho * sigma
    var_s = a12 * p2 + a13 * p3 + s2
    cov_ys = np.conj(h12) * p2 + h23 * np.conj(h13) * p3 + rs
    var_y = p2 + a23 * p3 + 1.0
    var_y_s = _cond_var(var_y, np.abs(cov_ys) ** 2, var_s)

    t_edge = (math.log2(1.0 + p1 / (a12 * p2 + a13 * p3 + 1.0))
              + math.log2(1.0 + p3))

    if branch == "first":
        if abs(h13) < 1e-15:
            bad = np.full(sigma.shape, False)
            return np.full(sigma.shape, np.inf), bad, bad
        c = h23 / h13
        neg = _var_z_minus_cn(sigma, rho, c, s2)
        vpair = _cond_var_n(s2, rs, c, neg)
        valid = (vpair >= a13 - FEAS_SLACK) & (vpair <= 1.0 + FEAS_SLACK)
        denom = a13 * p3 + vpair
    elif branch == "second":
        if abs(h23) < 1e-15:
            bad = np.full(sigma.shape, False)
            return np.full(sigma.shape, np.inf), bad, bad
        cp = h13 / h23
        neg = _var_n_minus_cz(sigma, rho, cp, s2)
        vpair = _cond_var_z(rs, cp, neg)
        valid = (vpair >= a23 - FEAS_SLACK) & (vpair <= 1.0 + FEAS_SLACK)
        denom = a23 * p3 + vpair
    else:
        raise ValueError(f"unknown branch {branch!r}")

    with np.errstate(invalid="ignore"):
        value = (t_edge + _safe_log2(var_s) - _safe_log2(neg)
                 + _safe_log2(var_y_s) - _safe_log2(denom))
    degenerate = (neg < 1e-9) | (var_y_s < 1e-9) | (var_s < 1e-9)
    return value, valid, degenerate


def _etkin_kernel_value(channel: Channel, sigma: float, rho: complex) -> float:
    """Joint log-det evaluation of the same chain; handles the singular
    N = Z configurations exactly (pseudo-determinant on the span)."""
    sysm, xs, zs, ys = _gauss_inputs(channel)
    n2 = correlated_pair(sigma, rho, zs[1])
    s2 = xs[1] * complex(channel.h[0, 1]) + xs[2] * complex(channel.h[0, 2]) + n2
    return (mutual_info([xs[0]], [ys[0]])
            + mutual_info([xs[1]], [ys[1], s2], [xs[0]])
            + mutual_info([xs[2]], [ys[2]], [xs[0], xs[1]]))


def etkin_bound(channel: Channel, n2: NoiseParam, branch: str = "first",
                perm=(0, 1, 2)) -> BoundResult:
    """Etkin-type genie bound at fixed N_2 parameters for one user ordering."""
    if channel.k != 3:
        raise ValueError("three-user bound")
    ch = _perm_channel(channel, perm)
    sig = np.asarray([n2.sigma])
    rho = np.asarray([complex(n2.rho)])
    value, valid, degenerate = _etkin_terms(ch, sig, rho, branch)
    params = {"sigma": n2.sigma, "rho": complex(n2.rho), "branch": branch}
    if not bool(valid[0]):
        return BoundResult.infeasible("etkin3", 3, params, tuple(perm))
    v = float(value[0])
    if degenerate[0] or not math.isfinite(v):
        v = _etkin_kernel_value(ch, n2.sigma, complex(n2.rho))
    return BoundResult.make("etkin3", 3, v, params, tuple(perm))


def _perm_classes(channel: Channel):
    """Orderings that can give distinct bounds: symmetric channels need one,
    circulant (semi-symmetric) channels two (cyclic shifts are relabelings),
    anything else all 3!."""
    if channel.symmetric_gain() is not None:
        return [(0, 1, 2)]
    if channel.is_circulant():
        return [(0, 1, 2), (0, 2, 1)]
    return list(itertools.permutations(range(3)))


def _best_over_orderings(name: str, channel: Channel, search) -> BoundResult:
    """Smallest finite value that search(relabeled channel) yields over the
    orderings of _perm_classes; search yields (value, params) candidates,
    and of equal values the earliest wins."""
    if channel.k != 3:
        raise ValueError("three-user bound")
    best = BoundResult.infeasible(name, 3)
    for perm in _perm_classes(channel):
        for val, params in search(_perm_channel(channel, perm)):
            if math.isfinite(val) and val < best.sum_rate:
                best = BoundResult.make(name, 3, val, params, tuple(perm))
    return best


def _etkin_values(channel, branch, sigma, rho):
    """_etkin_terms with invalid entries at inf and the entries that need
    the exact cancellation resolved through the kernel."""
    value, valid, degenerate = _etkin_terms(channel, sigma, rho, branch)
    value = np.where(valid, value, np.inf)
    fix = np.nonzero(valid & (degenerate | ~np.isfinite(value)))[0]
    for i in fix:
        value[i] = _etkin_kernel_value(channel, float(sigma[i]),
                                       complex(rho[i]))
    return value


def etkin_optimize(channel: Channel,
                   resolution=(SIGMA_POINTS, RHO_POINTS, PHASE_POINTS)
                   ) -> BoundResult:
    """Grid-optimized Etkin-type bound over both validity branches and the
    distinct user orderings: a scan of the (sigma, |rho|, phase) grid of the
    given resolution, then a finer scan around its argmin.  Surfaces pass
    a coarser resolution."""
    complex_params = _complex_params(channel)

    def search(ch):
        for branch in ("first", "second"):
            val, sigma, rho = scan_then_zoom(
                lambda s, r: _etkin_values(ch, branch, s, r),
                complex_params, resolution, (21, 11))
            yield val, {"sigma": sigma, "rho": rho, "branch": branch}

    return _best_over_orderings("etkin3", channel, search)


# change-of-interference bound ----------------------------------------------

def _coi_value(channel: Channel, sw, rw):
    """Sum rate of the change-of-interference bound; sw, rw have shape
    (..., 3).  Returns (value, feasible) arrays of shape (...)."""
    return by_rows(lambda sw, rw: _coi_rows(channel, sw, rw),
                   (np.asarray(sw, dtype=float), np.asarray(rw, dtype=complex)),
                   3)


def _coi_rows(channel, sw, rw):
    h, p = channel.h, channel.power
    total = 0.0
    feasible = np.full(sw.shape[:-1], True)
    vzw = _var_z_minus_cn(sw, rw, 1.0)          # (..., 3)
    v_w = _cond_var_n(sw**2, rw * sw, 1.0, vzw)
    with np.errstate(invalid="ignore"):
        for u in range(3):
            nxt, prev = (u + 1) % 3, (u + 2) % 3
            a_un = abs(h[u, nxt]) ** 2
            a_pu = abs(h[prev, u]) ** 2
            feasible &= a_un <= 1.0 + FEAS_SLACK
            inr = a_un * p[nxt]
            total = total + math.log2((p[u] + inr + 1.0) / (inr + 1.0))
            total = total + _safe_log2(inr + sw[..., u] ** 2)
            total = total - _safe_log2(vzw[..., u])
            cw = rw[..., u] * sw[..., u] - sw[..., u] ** 2
            cv = _cond_var(p[u] + vzw[..., u], np.abs(cw) ** 2,
                           inr + sw[..., u] ** 2)
            total = total + _star(cv, vzw[..., u], a_pu, v_w[..., prev])
            feasible &= v_w[..., prev] >= a_pu * vzw[..., u] - FEAS_SLACK
        value = np.where(feasible, 0.5 * total, np.inf)
        value = np.where(np.isnan(value), np.inf, value)
    return value, feasible


def coi_bound(channel: Channel, w_params, perm=(0, 1, 2)) -> BoundResult:
    """Change-of-interference bound at fixed W parameters (three NoiseParams,
    indexed by the relabeled users)."""
    if channel.k != 3:
        raise ValueError("three-user bound")
    ch = _perm_channel(channel, perm)
    sw = np.array([[w.sigma for w in w_params]])
    rw = np.array([[complex(w.rho) for w in w_params]])
    value, feasible = _coi_value(ch, sw, rw)
    params = {"w": tuple(w_params)}
    if not bool(feasible[0]):
        return BoundResult.infeasible("coi3", 3, params, tuple(perm))
    return BoundResult.make("coi3", 3, float(value[0]), params, tuple(perm))


def coi_optimize(channel: Channel) -> BoundResult:
    """Optimized change-of-interference bound: a tied (sigma, rho) scan,
    finer scan and boundary bisection for symmetric channels, a coordinate
    descent over the three users' pairs for the others."""
    complex_params = _complex_params(channel)
    if channel.symmetric_gain() is not None:
        return _best_over_orderings(
            "coi3", channel, lambda ch: [_coi_tied_search(ch, complex_params)])
    grid = tied_grid(complex_params, (41, 21, 16))
    blocks = [(0, (u,)) for u in range(3)]

    def search(ch):
        val, (sw, rw) = coordinate_descent(
            lambda sw, rw: _coi_value(ch, sw, rw)[0],
            (np.full(3, 0.6), np.zeros(3, dtype=complex)), blocks, *grid)
        yield val, {"w": _noise_params(sw, rw)}

    return _best_over_orderings("coi3", channel, search)


def _coi_eval_tied(ch, s, r):
    val, feas = _coi_value(ch, np.stack([np.atleast_1d(s)] * 3, -1),
                           np.stack([np.atleast_1d(r)] * 3, -1))
    return val, feas


def _coi_boundary_polish(ch, s0, r0, v0, dr):
    """The optimum often sits exactly on a feasibility boundary (the noise
    constraints are typically active at the best choice); bisect toward an
    infeasible rho neighbor to land on it."""
    direction = None
    for sign in (-1.0, 1.0):
        _, feas = _coi_eval_tied(ch, np.asarray([s0]),
                                 np.asarray([complex(r0 + sign * dr)]))
        if not feas[0]:
            direction = sign
            break
    if direction is None:
        return v0, s0, r0
    lo, hi = 0.0, dr
    for _ in range(50):
        mid = 0.5 * (lo + hi)
        _, feas = _coi_eval_tied(ch, np.asarray([s0]),
                                 np.asarray([complex(r0 + direction * mid)]))
        if feas[0]:
            lo = mid
        else:
            hi = mid
    rb = complex(r0 + direction * lo)
    val, feas = _coi_eval_tied(ch, np.asarray([s0]), np.asarray([rb]))
    if feas[0] and val[0] < v0:
        return float(val[0]), s0, rb
    return v0, s0, r0


def _coi_tied_search(ch, complex_params):
    v0, s0, r0 = scan_then_zoom(lambda s, r: _coi_eval_tied(ch, s, r)[0],
                                complex_params,
                                (SIGMA_POINTS, RHO_POINTS, PHASE_POINTS),
                                (15, 9))
    if math.isfinite(v0) and not complex_params:
        v0, s0, r0 = _coi_boundary_polish(ch, s0, r0, v0,
                                          2.0 / (RHO_POINTS - 1))
    w = NoiseParam(min(s0, 1.0), r0)
    return v0, {"w": (w, w, w)}


# hybrid bound ---------------------------------------------------------------

def _hybrid_value(channel: Channel, sw, rw, sn, rn, branch: str):
    """Sum rate of the hybrid bound; parameter arrays have shape (..., 3).

    Group (a, b, c) gives receiver b the genie S_b built from the
    interference at lead receiver a, and receiver c the change-of-interference
    input U_c; the three cyclic groups are averaged.
    """
    arrays = (np.asarray(sw, float), np.asarray(rw, complex),
              np.asarray(sn, float), np.asarray(rn, complex))
    with np.errstate(invalid="ignore"):
        return by_rows(lambda sw, rw, sn, rn: _hybrid_value_inner(
            channel, sw, rw, sn, rn, branch), arrays, 3)


def _hybrid_value_inner(channel, sw, rw, sn, rn, branch):
    h, p = channel.h, channel.power
    vzw = _var_z_minus_cn(sw, rw, 1.0)
    v_w = _cond_var_n(sw**2, rw * sw, 1.0, vzw)
    total = 0.0
    feasible = np.full(sw.shape[:-1], True)
    for a in range(3):
        b, c = (a + 1) % 3, (a + 2) % 3
        hab, hac, hbc = h[a, b], h[a, c], h[b, c]
        sb, rb = sn[..., b], rn[..., b]
        sb2, rsb = sb**2, rb * sb

        total = total + math.log2(
            1.0 + p[a] / (abs(hab) ** 2 * p[b] + abs(hac) ** 2 * p[c] + 1.0))

        var_s = abs(hab) ** 2 * p[b] + abs(hac) ** 2 * p[c] + sb2
        cov_ys = np.conj(hab) * p[b] + hbc * np.conj(hac) * p[c] + rsb
        var_y_s = _cond_var(p[b] + abs(hbc) ** 2 * p[c] + 1.0,
                            np.abs(cov_ys) ** 2, var_s)

        if branch == "I0":
            cgen = hbc / hac if abs(hac) > 1e-15 else np.inf
            neg = _var_z_minus_cn(sb, rb, cgen, sb2)
            vpair = _cond_var_n(sb2, rsb, cgen, neg)
            coeff2 = abs(hac) ** 2
        elif branch == "I1":
            cp = hac / hbc if abs(hbc) > 1e-15 else np.inf
            neg = _var_n_minus_cz(sb, rb, cp, sb2)
            vpair = _cond_var_z(rsb, cp, neg)
            coeff2 = abs(hbc) ** 2
        else:
            raise ValueError(f"unknown branch {branch!r}")

        total = total + _safe_log2(var_s) - _safe_log2(neg) \
            + _safe_log2(var_y_s)

        # U-user c: conditional worst-noise pair plus the rest of its chain
        var_u0 = abs(h[c, a]) ** 2 * p[a] + abs(h[c, b]) ** 2 * p[b]
        cw = rw[..., c] * sw[..., c] - sw[..., c] ** 2
        cv = _cond_var(p[c] + vzw[..., c], np.abs(cw) ** 2,
                       var_u0 + sw[..., c] ** 2)
        total = total + _star(cv, vzw[..., c], coeff2, vpair)
        total = total + _safe_log2(var_u0 + sw[..., c] ** 2) \
            - _safe_log2(var_u0 + v_w[..., c]) - _safe_log2(vzw[..., c])

        # feasibility for this group
        if branch == "I0":
            feasible &= v_w[..., a] >= sb2 - FEAS_SLACK
            feasible &= vpair >= coeff2 * vzw[..., c] - FEAS_SLACK
        else:
            feasible &= v_w[..., a] >= sw[..., a] ** 2 - FEAS_SLACK
            feasible &= vpair >= coeff2 * vzw[..., c] - FEAS_SLACK

    value = np.where(feasible, total / 3.0, np.inf)
    value = np.where(np.isnan(value), np.inf, value)
    return value, feasible


def hybrid_bound(channel: Channel, cfg: GenieConfig3, branch: str = "I0",
                 perm=(0, 1, 2)) -> BoundResult:
    """Hybrid (time-shared genie) bound at a fixed noise configuration."""
    if channel.k != 3:
        raise ValueError("three-user bound")
    ch = _perm_channel(channel, perm)
    sw = np.array([[w.sigma for w in cfg.w]])
    rw = np.array([[complex(w.rho) for w in cfg.w]])
    sn = np.array([[n.sigma for n in cfg.n]])
    rn = np.array([[complex(n.rho) for n in cfg.n]])
    value, feasible = _hybrid_value(ch, sw, rw, sn, rn, branch)
    params = {"cfg": cfg, "branch": branch}
    if not bool(feasible[0]):
        return BoundResult.infeasible("hybrid3", 3, params, tuple(perm))
    return BoundResult.make("hybrid3", 3, float(value[0]), params, tuple(perm))


def hybrid_optimize(channel: Channel) -> BoundResult:
    """Coordinate descent over the six (sigma, rho) pairs, per validity
    branch and distinct user ordering: the tied W and tied N blocks, then
    each user's W and N pair alone.  Not global; symmetric channels are
    better served by hybrid_symmetric_bound."""
    grid = tied_grid(_complex_params(channel), (33, 17, 16))
    blocks = [(0, range(3)), (1, range(3))] + [
        (group, (u,)) for group in (0, 1) for u in range(3)]
    start = (np.full(3, 1.0), np.full(3, 0.5, dtype=complex),
             np.full(3, 0.7), np.full(3, 0.5, dtype=complex))

    def search(ch):
        for branch in ("I0", "I1"):
            val, (sw, rw, sn, rn) = coordinate_descent(
                lambda *a: _hybrid_value(ch, *a, branch)[0],
                start, blocks, *grid)
            cfg = GenieConfig3(_noise_params(sw, rw), _noise_params(sn, rn))
            yield val, {"cfg": cfg, "branch": branch}

    return _best_over_orderings("hybrid3", channel, search)


# symmetric simplification (two 1-D minimizations) ---------------------------

def _sym_reduced_rate(p, g, sn, rn, sw, rw):
    """Closed-form symmetric hybrid rate
    log((P+2|g|^2P+1)/(|g|^2 s_{Z-N}^2 s_{Z-W}^2))
    + log(P+|g|^2P+1 - |g*(g+1)P + rho_N sigma_N|^2/(2|g|^2P+sigma_N^2))
    with real rho parameters.  Extended precision: the optimum can approach a
    0/0 boundary (rho -> 1 at g = 1) that double precision resolves only to
    ~1e-7."""
    g = np.clongdouble(complex(g))
    p = np.longdouble(p)
    sn = np.asarray(sn, dtype=np.longdouble)
    rn = np.asarray(rn, dtype=np.longdouble)
    sw = np.asarray(sw, dtype=np.longdouble)
    rw = np.asarray(rw, dtype=np.longdouble)
    g2 = np.abs(g) ** 2
    szn = 1.0 + sn**2 - 2.0 * rn * sn
    szw = 1.0 + sw**2 - 2.0 * rw * sw
    num = np.abs(np.conj(g) * (g + 1.0) * p + rn * sn) ** 2
    inner = p + g2 * p + 1.0 - num / (2.0 * g2 * p + sn**2)
    with np.errstate(divide="ignore", invalid="ignore"):
        val = np.log2((p + 2.0 * g2 * p + 1.0) / (g2 * szn * szw)) \
            + np.log2(inner)
    ok = (szn > _EPS) & (szw > _EPS) & (inner > 0)
    return np.asarray(np.where(ok, val, np.inf), dtype=float)


def sym_pinned_a(g, sn):
    """First-family pinned parameters at sigma_N = sn: sigma_W = 1,
    rho_W = 2 sn^2 - 1 and the rho_N root that zeroes the penalty variance.
    Returns (rho_n, rho_w, feasible)."""
    g2 = abs(complex(g)) ** 2
    sn = np.asarray(sn, dtype=float)
    t = 4.0 * g2 * (1.0 - sn**2)
    disc = (t - 1.0) * (t - sn**2)
    with np.errstate(invalid="ignore", divide="ignore"):
        rn = (t - np.sqrt(disc)) / sn
    rw = 2.0 * sn**2 - 1.0
    ok = (disc >= 0) & (sn > 0) & (np.abs(rn) <= 1.0 + 1e-12)
    return rn, rw, ok


def sym_pinned_b(g, rn):
    """Second-family pinned parameters at rho_N = rn: sigma_N = 1 and
    sigma_W = rho_W = sqrt(1 - (1+rho_N)/(2|g|^2)).
    Returns (rho_w, feasible)."""
    g2 = abs(complex(g)) ** 2
    rn = np.asarray(rn, dtype=float)
    arg = 1.0 - (1.0 + rn) / (2.0 * g2) if g2 > _EPS else np.full_like(rn, -1.0)
    with np.errstate(invalid="ignore"):
        rw = np.sqrt(arg)
    ok = (arg >= 0) & (np.abs(rw) <= 1.0 + 1e-12)
    return rw, ok


def hybrid_symmetric_bound(p: float, g: complex) -> BoundResult:
    """min(R0, R1) of the symmetric hybrid reduction: R0 sweeps sigma_N with
    the first pinned family, R1 sweeps rho_N with the second (which is the
    same optimization as the generalized Kramer bound)."""
    g = complex(g)
    g2 = abs(g) ** 2
    if g2 < _EPS:
        return BoundResult.infeasible("hybrid3_sym", 3)

    def r0_obj(sn):
        sn = np.asarray(sn, dtype=float)
        rn, rw, ok = sym_pinned_a(g, sn)
        val = _sym_reduced_rate(p, g, sn, np.where(ok, rn, 0.0),
                                1.0, np.where(ok, rw, 0.0))
        return np.where(ok, val, np.inf)

    def r1_obj(rn):
        rn = np.asarray(rn, dtype=float)
        rw, ok = sym_pinned_b(g, rn)
        val = _sym_reduced_rate(p, g, 1.0, rn, np.where(ok, rw, 0.0),
                                np.where(ok, rw, 0.0))
        return np.where(ok, val, np.inf)

    sn0, r0 = grid_then_golden(r0_obj, 1e-6, 1.0, n=SIGMA_POINTS)
    hi = min(1.0, 2.0 * g2 - 1.0)
    if hi >= -1.0:
        rn0, r1 = grid_then_golden(r1_obj, -1.0, hi, n=2 * RHO_POINTS - 1)
    else:
        rn0, r1 = float("nan"), float("inf")
    value = min(r0, r1)
    if not math.isfinite(value):
        return BoundResult.infeasible("hybrid3_sym", 3)
    return BoundResult.make(
        "hybrid3_sym", 3, value,
        {"r0": r0, "r1": r1, "sigma_n": sn0, "rho_n": rn0})


# combined minima -------------------------------------------------------------

def best_upper_three(channel: Channel) -> BoundResult:
    """The ``best_upper`` entry of the bound table: the minimum over its
    members that apply to the channel.  Ties break by bound name."""
    from .bounds import Point  # the bound table imports this module

    return Point.of(channel).evaluate("best_upper")


def new_minimum_three(channel: Channel) -> BoundResult:
    """The ``new_min`` entry of the bound table: the minimum over the three
    new bound families (no prior-art bounds)."""
    from .bounds import Point

    return Point.of(channel).evaluate("new_min")
