"""K-user symmetric bounds, their closed forms, the large-K affine
characterization, and the asymmetric K-user bounds.

The two symmetric evaluators are O(K) expansions of the genie chains (exact
at Gaussian inputs, so they coincide with the closed forms at the pinning
noise choices that cancel the chain's internal entropy pairs); the closed
forms themselves are direct O(K) summations usable at K = 1e5 and beyond.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from ._optim import by_rows, tied_grid
from .baselines import (
    FEAS_SLACK,
    BoundResult,
    best_result,
    kramer_two_user,
)
from .channel import Channel, _cyclic_condition_holds, make_symmetric
from .gaussnet import mutual_info
from .genie3 import (
    NoiseParam,
    _cond_var,
    _cond_var_n,
    _gauss_inputs,
    _safe_log2,
    _star,
    _v_w,
    _var_z_minus_cn,
)

_EPS = 1e-12

GAMMA_POINTS = 64
GAMMA_MAX = 200.0

#: dB per bit of power offset (3-dB-per-bit convention for thresholds)
DB_PER_BIT = 10.0 * math.log10(2.0)


@dataclass(frozen=True)
class KGenieConfig:
    """Genie noises for the K-user symmetric chains: n covers user indices
    2..K-1, w1 / wk the first and last users' change-of-interference noises."""

    n: tuple
    w1: NoiseParam
    wk: NoiseParam

    @classmethod
    def make_tied(cls, k: int, n: NoiseParam, w: NoiseParam | None = None):
        w = w or n
        return cls((n,) * (k - 2), w, w)

    def arrays(self):
        sn = np.array([x.sigma for x in self.n], dtype=float)
        rn = np.array([complex(x.rho) for x in self.n], dtype=complex)
        return sn, rn


def weak_pinned(g) -> NoiseParam:
    """Noise pinning rho = sigma = |g| that collapses the weak-regime chain
    to its closed form."""
    return NoiseParam(abs(complex(g)), abs(complex(g)))


def hybrid_pinned(g) -> NoiseParam:
    """rho = sigma = |g|/sqrt(1+|g|^2), collapsing the hybrid chain."""
    m = abs(complex(g)) / math.sqrt(1.0 + abs(complex(g)) ** 2)
    return NoiseParam(m, m)


def strong_pinned(g, gamma: float) -> tuple[NoiseParam, NoiseParam]:
    """(W, N) pinning for the strong-interference closed form."""
    g2 = abs(complex(g)) ** 2
    sw = math.sqrt(max(0.0, 1.0 - g2 ** (-gamma)))
    sn = math.sqrt(g2 ** (-(gamma - 1.0)))
    return NoiseParam(sw, sw), NoiseParam(sn, sn)


#: largest K for which degenerate noise configurations re-route through the
#: joint pseudo-determinant kernel (the 0*inf cancellation at |g| = 1)
KERNEL_FALLBACK_MAX_K = 64


def _symmetric_inputs(k, g, p):
    return _gauss_inputs(make_symmetric(k, g, p))


def _weak_chain_kernel(k, g, p, cfg) -> float:
    """Exact chain evaluation through the Gaussian kernel; resolves the
    degenerate N = Z configurations (value log2(1+KP) at g = 1)."""
    from .gaussnet import correlated_pair

    sysm, xs, zs, ys = _symmetric_inputs(k, g, p)
    val = mutual_info([xs[0]], [ys[0]])
    for m in range(1, k - 1):
        nm = correlated_pair(cfg.n[m - 1].sigma, complex(cfg.n[m - 1].rho),
                             zs[m])
        sm = nm
        for i in range(k):
            if i != m - 1:
                sm = sm + xs[i] * complex(g)
        val += mutual_info([xs[m]], [ys[m], sm], xs[:m])
    val += mutual_info([xs[k - 1]], [ys[k - 1]], xs[: k - 1])
    return val


def _mid_terms(k, g, p, sn, rn):
    """Middle-of-chain terms shared by both symmetric evaluators: for user
    index m = 2..K-1, the genie entropy, the conditional output entropy and
    the negative Gaussian-difference entropy."""
    g = complex(g)
    g2 = abs(g) ** 2
    m = np.arange(2, k)                      # users 2..K-1
    a = (k - m + 1) * g2 * p                 # Var of the genie's interference
    rem = (k - m) * g2 * p                   # interference left after X_m
    vzn = _var_z_minus_cn(sn, rn, 1.0)
    v_n = _cond_var_n(sn**2, rn * sn, 1.0, vzn)
    var_y = p + rem + 1.0
    cov = np.conj(g) * p + rem + rn * sn
    var_y_s = _cond_var(var_y, np.abs(cov) ** 2, a + sn**2)
    with np.errstate(invalid="ignore"):
        mid = float(np.sum(_safe_log2(a + sn**2) - _safe_log2(vzn)
                           + _safe_log2(var_y_s)))
        # V_N pairs: indices 2..K-2 pair at the next level, the last one is
        # consumed by the final user's term
        pair_sum = float(np.sum(_safe_log2(rem[:-1] + v_n[:-1])))
    return mid, pair_sum, vzn, v_n


def kuser_weak_bound(k: int, g, p: float, cfg: KGenieConfig) -> BoundResult:
    """Weak-regime (|g|^2 <= 1) K-user symmetric chain at fixed genie noises:
    genie S_m reveals the interference seen one user earlier, users are
    peeled in index order, and the last user pays only its own noise."""
    if k < 3:
        raise ValueError("need K >= 3")
    g = complex(g)
    g2 = abs(g) ** 2
    sn, rn = cfg.arrays()
    if len(sn) != k - 2:
        raise ValueError("config does not match K")
    b = (k - 1) * g2 * p
    mid, pair_sum, vzn, v_n = _mid_terms(k, g, p, sn, rn)
    value = (math.log2(1.0 + p / (b + 1.0)) + mid - pair_sum
             - float(_safe_log2(g2 * p + v_n[-1]))
             + math.log2(1.0 + p))
    feasible = g2 <= 1.0 + FEAS_SLACK
    if k > 3:
        feasible &= bool(np.all(v_n[:-1] >= sn[1:] ** 2 - FEAS_SLACK))
    feasible &= bool(v_n[-1] >= g2 - FEAS_SLACK)
    params = {"cfg": cfg}
    if feasible and not math.isfinite(value) and k <= KERNEL_FALLBACK_MAX_K:
        value = _weak_chain_kernel(k, g, p, cfg)
    if not feasible or not math.isfinite(value):
        return BoundResult.infeasible("kuser_weak", k, params)
    return BoundResult.make("kuser_weak", k, value, params)


def kuser_hybrid_bound(k: int, g, p: float, cfg: KGenieConfig) -> BoundResult:
    """Hybrid K-user symmetric chain (valid for all cross gains): the last
    user keeps its change-of-interference input and the conditional
    worst-noise pair is evaluated in its tight difference form."""
    if k < 3:
        raise ValueError("need K >= 3")
    g = complex(g)
    g2 = abs(g) ** 2
    sn, rn = cfg.arrays()
    if len(sn) != k - 2:
        raise ValueError("config does not match K")
    sw, rw = cfg.wk.sigma, complex(cfg.wk.rho)
    b = (k - 1) * g2 * p
    mid, pair_sum, vzn, v_n = _mid_terms(k, g, p, sn, rn)
    vzw = float(_var_z_minus_cn(sw, rw, 1.0))
    v_w_last = float(_v_w(sw, rw))
    cw = rw * sw - sw**2
    cv = float(_cond_var(p + vzw, abs(cw) ** 2, b + sw**2))
    star = float(_star(cv, vzw, g2, float(v_n[-1])))
    value = (math.log2(1.0 + p / (b + 1.0))
             + float(_safe_log2(b + sw**2) - _safe_log2(b + v_w_last))
             + mid - pair_sum
             - float(_safe_log2(vzw))
             + star)
    v_w_first = float(_v_w(cfg.w1.sigma, complex(cfg.w1.rho)))
    feasible = v_w_first >= float(sn[0]) ** 2 - FEAS_SLACK
    if k > 3:
        feasible &= bool(np.all(v_n[:-1] >= sn[1:] ** 2 - FEAS_SLACK))
    feasible &= bool(v_n[-1] >= g2 * vzw - FEAS_SLACK)
    params = {"cfg": cfg}
    if not feasible or not math.isfinite(value):
        return BoundResult.infeasible("kuser_hybrid", k, params)
    return BoundResult.make("kuser_hybrid", k, value, params)


def _kuser_tied_values(k, g, p, s, r, hybrid: bool):
    """Vectorized tied-parameter chain values over (s, r) grids; one noise
    pair drives every genie (the closed-form pinnings are tied).  The grid
    is evaluated in row blocks, each holding (rows x (K-2)) cells."""
    return by_rows(lambda s, r: _kuser_tied_rows(k, g, p, s, r, hybrid),
                   (np.asarray(s, float), np.asarray(r, complex)), k - 2)


def _kuser_tied_rows(k, g, p, s, r, hybrid):
    g = complex(g)
    g2 = abs(g) ** 2
    b = (k - 1) * g2 * p
    m = np.arange(2, k)[None, :]
    s2 = (s**2)[:, None]
    a = (k - m + 1) * g2 * p
    rem = (k - m) * g2 * p
    vzn = _var_z_minus_cn(s, r, 1.0)
    v_n = _cond_var_n(s**2, r * s, 1.0, vzn)
    cov = np.conj(g) * p + rem + (r * s)[:, None]
    var_y_s = _cond_var(p + rem + 1.0, np.abs(cov) ** 2, a + s2)
    with np.errstate(invalid="ignore"):
        mid = np.sum(_safe_log2(a + s2) + _safe_log2(var_y_s), axis=1) \
            - (k - 2) * _safe_log2(vzn)
        pair = np.sum(_safe_log2(rem[:, :-1] + v_n[:, None]), axis=1)
        i1 = math.log2(1.0 + p / (b + 1.0))
        if not hybrid:
            value = (i1 + mid - pair - _safe_log2(g2 * p + v_n)
                     + math.log2(1.0 + p))
            feasible = np.full(s.shape, g2 <= 1.0 + FEAS_SLACK)
            feasible &= v_n >= g2 - FEAS_SLACK
        else:
            v_w = v_n   # W and N share the tied (sigma, rho)
            cw = r * s - s**2
            cv = _cond_var(p + vzn, np.abs(cw) ** 2, b + s**2)
            star = _star(cv, vzn, g2, v_n)
            value = (i1 + _safe_log2(b + s**2) - _safe_log2(b + v_w)
                     + mid - pair - _safe_log2(vzn) + star)
            feasible = v_w >= s**2 - FEAS_SLACK
            feasible &= v_n >= g2 * vzn - FEAS_SLACK
        if k > 3:
            feasible &= v_n >= s**2 - FEAS_SLACK
        value = np.where(feasible & np.isfinite(value), value, np.inf)
    return value, feasible


def _tied_optimize(k, g, p, evaluator, hybrid):
    s_grid, r_grid = tied_grid(complex(g).imag != 0.0, (51, 51, 16))
    values, _ = _kuser_tied_values(k, g, p, s_grid, r_grid, hybrid)
    i = int(np.argmin(values))
    candidates = []
    if math.isfinite(values[i]):
        candidates.append(KGenieConfig.make_tied(
            k, NoiseParam(float(s_grid[i]), complex(r_grid[i]))))
    # the degenerate corner N = Z is the tight point at |g| = 1 and needs the
    # kernel path the vectorized scan cannot take
    candidates.append(KGenieConfig.make_tied(k, NoiseParam(1.0, 1.0)))
    name = "kuser_hybrid" if hybrid else "kuser_weak"
    return best_result([evaluator(k, g, p, cfg) for cfg in candidates]
                       + [BoundResult.infeasible(name, k)])


def kuser_weak_optimize(k, g, p) -> BoundResult:
    return _tied_optimize(k, g, p, kuser_weak_bound, hybrid=False)


def kuser_hybrid_optimize(k, g, p) -> BoundResult:
    return _tied_optimize(k, g, p, kuser_hybrid_bound, hybrid=True)


# closed forms ---------------------------------------------------------------

def closed_form_weak(k: int, g, p: float) -> BoundResult:
    """Direct O(K) sum for |g| < 1 (infeasible otherwise)."""
    g = complex(g)
    g2 = abs(g) ** 2
    if g2 >= 1.0 or k < 3:
        return BoundResult.infeasible("cf_weak", k)
    m = np.arange(2, k, dtype=float)
    ratio = abs(1.0 - g) ** 2 * p / (1.0 - g2)
    body = np.log2(1.0 + ratio * ((m - 1.0) * p + 1.0) / (m * p + 1.0))
    value = (math.log2(1.0 + p / ((k - 1) * g2 * p + 1.0))
             + math.log2(1.0 + (k - 1) * p) + float(np.sum(body)))
    return BoundResult.make("cf_weak", k, value)


def closed_form_hybrid(k: int, g, p: float) -> BoundResult:
    """Direct O(K) sum valid for every cross gain."""
    g = complex(g)
    g2 = abs(g) ** 2
    if k < 3:
        return BoundResult.infeasible("cf_hybrid", k)
    u = 1.0 / (1.0 + g2)
    m = np.arange(2, k, dtype=float)
    amp = abs(1.0 - g) ** 2 * (1.0 + g2) * p
    body = np.log2(1.0 + amp * ((m - 1.0) * p + u) / (m * p + u))
    value = (math.log2(1.0 + p / ((k - 1) * g2 * p + 1.0))
             + math.log2(1.0 + (k - 1) * (1.0 + g2) * p) + float(np.sum(body)))
    return BoundResult.make("cf_hybrid", k, value)


def closed_form_strong(k: int, g, p: float, gamma: float) -> BoundResult:
    """Tightened strong-interference closed form; needs |g| > 1 and
    a gamma > 1 with |g|^(2 gamma) - |g|^2 - 1 >= 0."""
    g = complex(g)
    g2 = abs(g) ** 2
    feas = (k >= 3 and g2 > 1.0 and gamma > 1.0
            and g2**gamma - g2 - 1.0 >= -FEAS_SLACK)
    if not feas:
        return BoundResult.infeasible("cf_strong", k, {"gamma": gamma})
    w = g2 ** (-gamma)
    m = np.arange(2, k, dtype=float)
    amp = abs(1.0 - g) ** 2 * p / (1.0 - g2 ** (-(gamma - 1.0)))
    body = np.log2(1.0 + amp * ((m - 1.0) * p + w) / (m * p + w))
    value = (math.log2(1.0 + p / ((k - 1) * g2 * p + 1.0))
             + math.log2(1.0 + (k - 1) * g2**gamma * p) + float(np.sum(body)))
    return BoundResult.make("cf_strong", k, value, {"gamma": gamma})


def gamma_candidates(n: int = GAMMA_POINTS) -> np.ndarray:
    """Log-spaced gamma grid on (1, GAMMA_MAX]."""
    return np.exp(np.linspace(math.log(1.0 + 1e-3), math.log(GAMMA_MAX), n))


def closed_form_strong_search(k: int, g, p: float) -> BoundResult:
    """Feasibility-filtered gamma scan of the strong-interference form."""
    g2 = abs(complex(g)) ** 2
    if g2 <= 1.0:
        return BoundResult.infeasible("cf_strong", k)
    gammas = gamma_candidates()
    gammas = gammas[g2**gammas - g2 - 1.0 >= 0.0]
    if gammas.size == 0:
        return BoundResult.infeasible("cf_strong", k)
    g = complex(g)
    m = np.arange(2, k, dtype=float)

    def rows(gammas):
        w = (g2 ** (-gammas))[:, None]
        amp = (abs(1.0 - g) ** 2 * p
               / (1.0 - g2 ** (-(gammas - 1.0))))[:, None]
        body = np.log2(1.0 + amp * ((m - 1.0) * p + w) / (m[None, :] * p + w))
        return (math.log2(1.0 + p / ((k - 1) * g2 * p + 1.0))
                + np.log2(1.0 + (k - 1) * g2**gammas * p)
                + np.sum(body, axis=1)),

    # each gamma row holds K - 2 cells, so blocking keeps memory O(K)
    values, = by_rows(rows, (gammas,), k - 2)
    i = int(np.argmin(values))
    return BoundResult.make("cf_strong", k, float(values[i]),
                            {"gamma": float(gammas[i])})


def closed_form_best(k: int, g, p: float) -> BoundResult:
    """Minimum of the applicable closed forms and the two-user bound."""
    g2 = abs(complex(g)) ** 2
    cands = [closed_form_hybrid(k, g, p), kramer_two_user(p, g, k_users=k)]
    if g2 < 1.0:
        cands.append(closed_form_weak(k, g, p))
    if g2 > 1.0:
        cands.append(closed_form_strong_search(k, g, p))
    return best_result(cands)


# large-K affine characterization --------------------------------------------

@dataclass(frozen=True)
class LargeKResult:
    """Per-user degrees of freedom, power offset (bits) and, when classified,
    the asymptotic rate-ratio regime eta in {0, 1, 1/2}."""

    d_k: float
    ell_star_bits: float
    eta: float | None = None

    @property
    def ell_star_db(self) -> float:
        return DB_PER_BIT * self.ell_star_bits


def power_offset(g) -> LargeKResult:
    """ell* = -log(|1-g|^2 (1+|g|^2)) for |g|^2 <= 1, -log|1-g|^2 above;
    infinite at g = 1."""
    g = complex(g)
    g2 = abs(g) ** 2
    am = abs(1.0 - g) ** 2
    if am < _EPS:
        return LargeKResult(1.0, float("inf"))
    if g2 <= 1.0:
        return LargeKResult(1.0, -math.log2(am * (1.0 + g2)))
    return LargeKResult(1.0, -math.log2(am))


def eta_regime(p: float, g) -> LargeKResult:
    """Classify eta by comparing SNR to the offset threshold in dB (the
    offset is in 3-dB units, so threshold_dB = 3.0103 * ell*_bits)."""
    off = power_offset(g)
    if not math.isfinite(off.ell_star_bits):
        return LargeKResult(off.d_k, off.ell_star_bits, 0.0)
    snr_db = 10.0 * math.log10(p) if p > 0 else float("-inf")
    thr = off.ell_star_db
    if snr_db <= thr:
        eta = 0.0
    elif snr_db <= 2.0 * thr:
        eta = 1.0
    else:
        eta = 0.5
    return LargeKResult(off.d_k, off.ell_star_bits, eta)


def affine_approx(k: int, p: float, g) -> float:
    """High-SNR affine per-user rate log2(P) - ell*(g), bits per complex use
    (independent of K to first order).

    The sign follows the offset's definition ell = lim(log P - C/(d K)),
    i.e. the rate loses ell* bits relative to interference-free; this also
    matches the closed forms, whose per-user rate tends to
    log2(|1-g|^2 (1+|g|^2) P) in the weak regime."""
    if p <= 1.0:
        raise ValueError("affine approximation needs P > 1")
    off = power_offset(g)
    return math.log2(p) - off.ell_star_bits


# asymmetric K-user bounds ---------------------------------------------------

def _perm_list(channel: Channel, perm, cap: int):
    if perm is not None:
        return [tuple(perm)]
    if channel.k > cap:
        raise ValueError(f"exhaustive permutations capped at K <= {cap}; "
                         "pass an explicit permutation")
    return list(itertools.permutations(range(channel.k)))


def asym_mixed_bound(channel: Channel, sigma_n2: float, perm=None,
                     use_reduction: bool | str = "auto") -> BoundResult:
    """Mixed-regime asymmetric chain with independent genie noise
    (rho = 0): per ordering, requires |h_{1K}|^2 <= 1 and
    sigma_N2^2 >= |h_{1K}|^2.  When the cross gains are cyclically
    proportional (use_reduction='auto'), the penalty-free symmetric-form
    chain applies; use_reduction=False forces the penalty form."""
    k = channel.k
    if k < 3:
        raise ValueError("need K >= 3")
    if not 0.0 <= sigma_n2 <= 1.0:
        raise ValueError("sigma outside [0, 1]")
    results = []
    for pm in _perm_list(channel, perm, cap=5):
        ch = channel.permuted(pm)
        h = ch.h
        h1k2 = abs(h[0, k - 1]) ** 2
        feas = h1k2 <= 1.0 + FEAS_SLACK and sigma_n2**2 >= h1k2 - FEAS_SLACK
        if not feas:
            results.append(BoundResult.infeasible("asym_mixed", k,
                                                  permutation=pm))
            continue
        reduced = (use_reduction is True
                   or (use_reduction == "auto"
                       and _cyclic_condition_holds(h, 1e-9)))
        sysm, xs, zs, ys = _gauss_inputs(ch)
        if reduced:
            value = mutual_info([xs[0]], [ys[0]])
            for m in range(1, k - 1):
                n_m = sysm.gaussian(sigma_n2)
                s_m = n_m
                for i in range(k):
                    if i != m - 1:
                        s_m = s_m + xs[i] * complex(h[m - 1, i])
                value += mutual_info([xs[m]], [ys[m], s_m], xs[:m])
            value += mutual_info([xs[k - 1]], [ys[k - 1]], xs[: k - 1])
        else:
            n2 = sysm.gaussian(sigma_n2)
            s2 = n2
            for i in range(1, k):
                s2 = s2 + xs[i] * complex(h[0, i])
            value = mutual_info([xs[0]], [ys[0]])
            value += mutual_info([xs[k - 1]], [ys[k - 1]], xs[: k - 1])
            for m in range(1, k - 1):
                value += mutual_info([xs[m]], [s2], xs[:m])
                value += mutual_info([xs[m]], [ys[m]],
                                     xs[:m] + xs[m + 1:] + [s2])
        results.append(BoundResult.make(
            "asym_mixed", k, value,
            {"sigma_n2": sigma_n2, "reduced": reduced}, pm))
    return best_result(results)


def asym_cyclic_bound(channel: Channel, cfg_w, cfg_n, perm=None,
                      perm_cap: int = 6) -> BoundResult:
    """Cyclic-shift-averaged asymmetric hybrid chain.  cfg_w / cfg_n give one
    NoiseParam per user (the shift decides which serve as W_1, W_K, N_2).
    The chain manipulation behind the shared-genie terms needs the genie
    noises independent of the receiver noises, so rho_N must be zero."""
    k = channel.k
    if k < 3:
        raise ValueError("need K >= 3")
    if len(cfg_w) != k or len(cfg_n) != k:
        raise ValueError("need one W and one N parameter per user")
    if any(abs(complex(n.rho)) > 1e-12 for n in cfg_n):
        raise ValueError("asymmetric chain requires independent genie noise "
                         "(rho_N = 0)")
    results = []
    for pm in _perm_list(channel, perm, cap=perm_cap):
        base = channel.permuted(pm)
        w_perm = [cfg_w[i] for i in pm]
        n_perm = [cfg_n[i] for i in pm]
        total = 0.0
        feasible = True
        for shift in range(k):
            order = tuple((shift + j) % k for j in range(k))
            ch = base.permuted(order)
            ws = [w_perm[i] for i in order]
            ns = [n_perm[i] for i in order]
            h = ch.h
            h1k = h[0, k - 1]
            n2 = ns[1]
            wk = ws[k - 1]
            vzw = float(_var_z_minus_cn(wk.sigma, complex(wk.rho), 1.0))
            v_w_first = float(_v_w(ws[0].sigma, complex(ws[0].rho)))
            feasible &= v_w_first >= n2.sigma**2 - FEAS_SLACK
            feasible &= n2.sigma**2 >= abs(h1k) ** 2 * vzw - FEAS_SLACK
            if not feasible:
                break

            sysm, xs, zs, ys = _gauss_inputs(ch)
            n2v = sysm.gaussian(n2.sigma)
            s2 = n2v
            for i in range(1, k):
                s2 = s2 + xs[i] * complex(h[0, i])
            part = mutual_info([xs[0]], [ys[0]])
            for m in range(1, k - 1):
                part += mutual_info([xs[m]], [s2], xs[:m])
                part += mutual_info([xs[m]], [ys[m]],
                                    xs[:m] + xs[m + 1:] + [s2])
            # last user: change-of-interference chain with the tight
            # conditional worst-noise pair (scaled copy of N_2 itself).  The
            # chain consumes the h_{1K} X_K + N_2 entropy that the last
            # shared-genie term above already subtracted, so it is restored.
            p_last = float(ch.power[k - 1])
            part += float(_safe_log2(abs(h1k) ** 2 * p_last + n2.sigma**2))
            var_u0 = float(sum(abs(h[k - 1, i]) ** 2 * ch.power[i]
                               for i in range(k - 1)))
            sw, rw = wk.sigma, complex(wk.rho)
            v_w_last = float(_v_w(sw, rw))
            cw = rw * sw - sw**2
            cv = float(_cond_var(p_last + vzw, abs(cw) ** 2, var_u0 + sw**2))
            part += float(_safe_log2(var_u0 + sw**2)
                          - _safe_log2(var_u0 + v_w_last)
                          - _safe_log2(vzw))
            part += float(_star(cv, vzw, abs(h1k) ** 2, n2.sigma**2))
            total += part
        if not feasible or not math.isfinite(total):
            results.append(BoundResult.infeasible("asym_cyclic", k,
                                                  permutation=pm))
            continue
        results.append(BoundResult.make("asym_cyclic", k, total / k,
                                        {"w": tuple(cfg_w), "n": tuple(cfg_n)},
                                        pm))
    return best_result(results)
