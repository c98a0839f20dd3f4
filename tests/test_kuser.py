"""K-user symmetric chains, closed forms, large-K characterization, and the
asymmetric bounds."""

import math
import time
import tracemalloc

import numpy as np
import pytest

from gicbounds import baselines as bl
from gicbounds import genie3 as g3
from gicbounds import kuser as ku
from gicbounds.channel import make_semi_symmetric, make_symmetric

from helpers_oracles import kuser_hybrid_oracle, kuser_weak_oracle


# closed forms: frozen values from independent term-by-term evaluation -------

def test_closed_form_frozen_values():
    # cf_weak(3, |g|^2=0.5, P=10): log2(21/11) + log2(21)
    #   + log2(1 + (1-sqrt(.5))^2*10/0.5 * 11/21)
    g = math.sqrt(0.5)
    t3 = math.log2(1 + (1 - g) ** 2 * 10 / 0.5 * (11 / 21))
    expect = math.log2(21 / 11) + math.log2(21) + t3
    assert ku.closed_form_weak(3, g, 10.0).sum_rate == pytest.approx(
        expect, abs=1e-12)
    assert expect == pytest.approx(6.2502, abs=1e-4)

    u = 1 / 1.5
    t3h = math.log2(1 + (1 - g) ** 2 * 1.5 * 10 * (10 + u) / (20 + u))
    expect_h = math.log2(21 / 11) + math.log2(31) + t3h
    assert ku.closed_form_hybrid(3, g, 10.0).sum_rate == pytest.approx(
        expect_h, abs=1e-12)
    assert expect_h == pytest.approx(6.6219, abs=1e-4)

    gs = math.sqrt(2.0)
    t3s = math.log2(1 + (1 - gs) ** 2 * 10 / (1 - 0.5) * (10.25 / 20.25))
    expect_s = math.log2(51 / 41) + math.log2(81) + t3s
    assert ku.closed_form_strong(3, gs, 10.0, 2.0).sum_rate == pytest.approx(
        expect_s, abs=1e-12)
    assert expect_s == pytest.approx(8.10727, abs=1e-4)


def test_closed_form_domains():
    assert not ku.closed_form_weak(3, 1.0, 10.0).feasible
    assert not ku.closed_form_weak(3, math.sqrt(2.0), 10.0).feasible
    assert not ku.closed_form_strong(3, math.sqrt(2.0), 10.0, 1.1).feasible
    assert not ku.closed_form_strong(3, math.sqrt(0.5), 10.0, 5.0).feasible
    assert ku.closed_form_hybrid(3, 0.0, 10.0).sum_rate >= \
        3 * bl.lower_bounds(3, 0.0, 10.0).tdm - 1e-9


def test_closed_form_weak_zero_gain_limit():
    # g -> 0: the chain collapses onto interference-free structure
    val = ku.closed_form_weak(4, 1e-9, 10.0).sum_rate
    expect = (math.log2(1 + 10.0) + math.log2(1 + 3 * 10.0)
              + math.log2(1 + 10.0 * 11 / 21) + math.log2(1 + 10.0 * 21 / 31))
    assert val == pytest.approx(expect, rel=1e-6)


# evaluator == closed form at the pinned parameters (acceptance criterion 7) -

@pytest.mark.parametrize("k", [3, 4, 10, 100])
def test_pinned_equalities(k):
    for g2 in (0.3, 0.5, 0.9, 1.5):
        g = math.sqrt(g2)
        for p in (5.0, 10.0, 100.0):
            if g2 < 1.0:
                cfg = ku.KGenieConfig.make_tied(k, ku.weak_pinned(g))
                a = ku.kuser_weak_bound(k, g, p, cfg)
                b = ku.closed_form_weak(k, g, p)
                assert a.feasible and b.feasible
                assert a.sum_rate == pytest.approx(b.sum_rate, abs=1e-9)
            cfg = ku.KGenieConfig.make_tied(k, ku.hybrid_pinned(g))
            a = ku.kuser_hybrid_bound(k, g, p, cfg)
            b = ku.closed_form_hybrid(k, g, p)
            assert a.feasible and b.feasible
            assert a.sum_rate == pytest.approx(b.sum_rate, abs=1e-9)
            if g2 > 1.0:
                gamma = 3.0
                if g2**gamma - g2 - 1.0 >= 0:
                    wpin, npin = ku.strong_pinned(g, gamma)
                    cfg = ku.KGenieConfig((npin,) * (k - 2), wpin, wpin)
                    a = ku.kuser_hybrid_bound(k, g, p, cfg)
                    b = ku.closed_form_strong(k, g, p, gamma)
                    assert a.feasible and b.feasible
                    assert a.sum_rate == pytest.approx(b.sum_rate, abs=1e-9)


# evaluators vs kernel chain oracles ------------------------------------------

@pytest.mark.parametrize("k", [3, 4, 6])
def test_weak_chain_matches_kernel(k):
    g, p = math.sqrt(0.5), 10.0
    cfg = ku.KGenieConfig.make_tied(k, ku.weak_pinned(g))
    res = ku.kuser_weak_bound(k, g, p, cfg)
    assert res.feasible
    assert res.sum_rate == pytest.approx(kuser_weak_oracle(k, g, p, cfg),
                                         abs=1e-9)
    # an untied sample, value compared regardless of feasibility flags
    params = [ku.NoiseParam(0.8 + 0.02 * i, 0.75) for i in range(k - 2)]
    cfg2 = ku.KGenieConfig(tuple(params), params[0], params[0])
    res2 = ku.kuser_weak_bound(k, g, p, cfg2)
    if res2.feasible:
        assert res2.sum_rate == pytest.approx(
            kuser_weak_oracle(k, g, p, cfg2), abs=1e-9)


@pytest.mark.parametrize("k", [3, 4, 6])
def test_hybrid_chain_matches_kernel(k):
    g, p = math.sqrt(0.5), 10.0
    cfg = ku.KGenieConfig.make_tied(k, ku.hybrid_pinned(g))
    res = ku.kuser_hybrid_bound(k, g, p, cfg)
    assert res.feasible
    assert res.sum_rate == pytest.approx(kuser_hybrid_oracle(k, g, p, cfg),
                                         abs=1e-9)


def test_hybrid_k3_matches_three_user_hybrid():
    g, p = math.sqrt(0.5), 10.0
    w = ku.NoiseParam(0.9, 0.75)
    n = ku.NoiseParam(0.85, 0.6)
    a = ku.kuser_hybrid_bound(3, g, p, ku.KGenieConfig.make_tied(3, n, w))
    b = g3.hybrid_bound(make_symmetric(3, g, p), g3.GenieConfig3.tied(w, n),
                        "I0")
    assert a.sum_rate == pytest.approx(b.sum_rate, abs=1e-9)


def test_weak_k3_matches_etkin():
    g, p = math.sqrt(0.5), 10.0
    n = ku.NoiseParam(0.92, 0.85)
    a = ku.kuser_weak_bound(3, g, p, ku.KGenieConfig.make_tied(3, n))
    b = g3.etkin_bound(make_symmetric(3, g, p), n, "first")
    assert a.feasible == b.feasible
    if a.feasible:
        assert a.sum_rate == pytest.approx(b.sum_rate, abs=1e-9)


@pytest.mark.parametrize("k", [3, 4, 5, 10])
def test_weak_chain_tight_at_unit_gain(k):
    # the degenerate genie N = Z collapses the chain onto time division
    cfg = ku.KGenieConfig.make_tied(k, ku.NoiseParam(1.0, 1.0))
    res = ku.kuser_weak_bound(k, 1.0, 10.0, cfg)
    assert res.feasible
    assert res.sum_rate == pytest.approx(math.log2(1 + 10.0 * k), abs=1e-9)
    opt = ku.kuser_weak_optimize(k, 1.0, 10.0)
    assert opt.sum_rate == pytest.approx(math.log2(1 + 10.0 * k), abs=1e-9)


def test_weak_infeasible_outside_regime():
    cfg = ku.KGenieConfig.make_tied(4, ku.NoiseParam(0.9, 0.9))
    assert not ku.kuser_weak_bound(4, math.sqrt(1.2), 10.0, cfg).feasible
    # last-chain constraint sigma^2_{V_N} >= |g|^2 violated
    cfg2 = ku.KGenieConfig.make_tied(3, ku.NoiseParam(0.3, 0.0))
    res = ku.kuser_weak_bound(3, math.sqrt(0.9), 10.0, cfg2)
    assert not res.feasible


def test_k3_optima_not_below_best_upper():
    g, p = math.sqrt(0.5), 10.0
    best = g3.best_upper_three(make_symmetric(3, g, p))
    w5 = ku.kuser_weak_optimize(3, g, p)
    w6 = ku.kuser_hybrid_optimize(3, g, p)
    assert w5.sum_rate >= best.sum_rate - 1e-9
    assert w6.sum_rate >= best.sum_rate - 1e-9


@pytest.mark.parametrize("k", [3, 5])
def test_vectorized_tied_values_match_scalar(k):
    g, p = math.sqrt(0.6), 10.0
    s = np.linspace(0.1, 1.0, 7)
    r = np.linspace(-0.9, 0.95, 7).astype(complex)
    for hybrid, evaluator in ((False, ku.kuser_weak_bound),
                              (True, ku.kuser_hybrid_bound)):
        vals, _ = ku._kuser_tied_values(k, g, p, s, r, hybrid)
        for i in range(len(s)):
            cfg = ku.KGenieConfig.make_tied(
                k, ku.NoiseParam(float(s[i]), complex(r[i])))
            res = evaluator(k, g, p, cfg)
            if res.feasible:
                assert vals[i] == pytest.approx(res.sum_rate, abs=1e-9)
            else:
                assert vals[i] == float("inf")


@pytest.mark.parametrize("optimize", [ku.kuser_weak_optimize,
                                      ku.kuser_hybrid_optimize])
def test_tied_search_memory_does_not_grow_with_grid_times_k(optimize):
    # a complex gain gives the tied scan its full complex grid; the chain's
    # K - 2 columns must not be held for every grid point at once
    tracemalloc.start()
    try:
        optimize(64, 0.5 + 0.5j, 30.0)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 64 * 2**20


def test_strong_gamma_scan_memory_is_linear_in_k():
    # D11: the gamma scan must not hold a (gammas x (K - 2)) array at once
    tracemalloc.start()
    try:
        res = ku.closed_form_strong_search(400_000, math.sqrt(1.5), 10.0)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert res.feasible
    assert peak < 32 * 2**20


# large-K behaviour -----------------------------------------------------------

def test_large_k_anchor_and_runtime():
    t0 = time.perf_counter()
    res = ku.closed_form_best(100_000, math.sqrt(0.9), 5.0)
    dt = time.perf_counter() - t0
    assert dt < 1.0
    assert 0.016 <= res.normalized <= 0.020
    # the two-user bound value the large-K chain beats
    kram = bl.kramer_two_user(5.0, math.sqrt(0.9), k_users=100_000)
    assert kram.normalized == pytest.approx(0.8795, abs=5e-4)
    assert res.normalized < kram.normalized


def test_strong_form_tightens_hybrid_for_strong_gains():
    k = 100_000
    for g2 in (1.2, 1.5, 2.0, 3.0):
        g = math.sqrt(g2)
        s = ku.closed_form_strong_search(k, g, 5.0)
        h = ku.closed_form_hybrid(k, g, 5.0)
        assert s.feasible
        assert s.sum_rate <= h.sum_rate + 1e-9


def test_gamma_search_matches_manual_scan():
    k, g, p = 100, math.sqrt(2.0), 10.0
    res = ku.closed_form_strong_search(k, g, p)
    vals = [ku.closed_form_strong(k, g, p, float(gm)).sum_rate
            for gm in ku.gamma_candidates()
            if ku.closed_form_strong(k, g, p, float(gm)).feasible]
    assert res.sum_rate == pytest.approx(min(vals), abs=1e-12)


def test_power_offset_values():
    assert ku.power_offset(1.0).ell_star_bits == float("inf")
    g = math.sqrt(0.5)
    expect = -math.log2(abs(1 - g) ** 2 * 1.5)
    r = ku.power_offset(g)
    assert r.ell_star_bits == pytest.approx(expect, abs=1e-12)
    assert r.ell_star_bits == pytest.approx(2.958, abs=1e-3)
    assert r.d_k == 1.0
    gs = math.sqrt(2.0)
    assert ku.power_offset(gs).ell_star_bits == pytest.approx(
        -math.log2(abs(1 - gs) ** 2), abs=1e-12)
    assert ku.power_offset(gs).ell_star_bits == pytest.approx(2.543, abs=1e-3)


def test_eta_regimes():
    g = math.sqrt(0.9)
    thr_db = ku.power_offset(g).ell_star_db
    assert ku.eta_regime(10 ** ((thr_db - 5) / 10), g).eta == 0.0
    assert ku.eta_regime(10 ** ((thr_db + 5) / 10), g).eta == 1.0
    assert ku.eta_regime(10 ** ((2 * thr_db + 5) / 10), g).eta == 0.5


def test_affine_approximation():
    g = math.sqrt(0.5)
    off = ku.power_offset(g).ell_star_bits
    assert ku.affine_approx(1000, 1000.0, g) == pytest.approx(
        math.log2(1000.0) - off, abs=1e-12)
    # zero crossing where log2(P) equals the offset
    p0 = 2.0 ** off
    if p0 > 1.0:
        assert ku.affine_approx(1000, p0, g) == pytest.approx(0.0, abs=1e-9)
    # within 10% of the K-user chain closed form per user at K = 1000
    cf = ku.closed_form_hybrid(1000, g, 1000.0)
    per_user = cf.sum_rate / 1000
    aff = ku.affine_approx(1000, 1000.0, g)
    assert abs(aff - per_user) / per_user < 0.10
    # same consistency in the strong regime (tightened form)
    gs = math.sqrt(2.0)
    cf2 = ku.closed_form_strong_search(1000, gs, 10_000.0)
    aff2 = ku.affine_approx(1000, 10_000.0, gs)
    assert abs(aff2 - cf2.sum_rate / 1000) / (cf2.sum_rate / 1000) < 0.10
    with pytest.raises(ValueError):
        ku.affine_approx(1000, 0.5, g)


def test_affine_offset_stays_bounded_in_p():
    g = math.sqrt(2.0)
    gaps = []
    for p in (1e3, 1e4, 1e5):
        cf = min(ku.closed_form_hybrid(1000, g, p).sum_rate,
                 ku.closed_form_strong_search(1000, g, p).sum_rate)
        gaps.append(abs(ku.affine_approx(1000, p, g) - cf / 1000))
    assert max(gaps) < 3.0
    assert abs(gaps[-1] - gaps[0]) < 1.0


# asymmetric K-user bounds ----------------------------------------------------

def test_asym_mixed_reduced_equals_symmetric_chain():
    g, p, sig = math.sqrt(0.4), 10.0, 0.8
    for k in (3, 4):
        ch = make_symmetric(k, g, p)
        res = ku.asym_mixed_bound(ch, sig, perm=tuple(range(k)))
        assert res.feasible and res.params["reduced"]
        cfg = ku.KGenieConfig.make_tied(k, ku.NoiseParam(sig, 0.0))
        assert res.sum_rate == pytest.approx(
            kuser_weak_oracle(k, g, p, cfg), abs=1e-9)


def test_asym_mixed_penalty_form_not_tighter():
    g, p, sig = math.sqrt(0.4), 10.0, 0.8
    ch = make_symmetric(3, g, p)
    red = ku.asym_mixed_bound(ch, sig, perm=(0, 1, 2))
    pen = ku.asym_mixed_bound(ch, sig, perm=(0, 1, 2), use_reduction=False)
    assert pen.sum_rate >= red.sum_rate - 1e-9
    # and the penalty form sits above the optimized symmetric chain
    w5 = ku.kuser_weak_optimize(3, g, p)
    assert pen.sum_rate >= w5.sum_rate - 1e-9


def test_asym_mixed_infeasible():
    ch = make_symmetric(3, 1.2, 10.0)
    assert not ku.asym_mixed_bound(ch, 0.9).feasible
    ch_ok = make_symmetric(3, 0.5, 10.0)
    # sigma too small for the |h_{1K}|^2 requirement
    res = ku.asym_mixed_bound(ch_ok, 0.3, perm=(0, 1, 2))
    assert not res.feasible


def test_asym_cyclic_semi_symmetric():
    chs = make_semi_symmetric(3, [0.5 * np.exp(1j * 0.7),
                                  0.6 * np.exp(-1j * 1.2)], 10.0)
    w = [ku.NoiseParam(0.9, 0.7)] * 3
    n = [ku.NoiseParam(0.8, 0.0)] * 3
    res = ku.asym_cyclic_bound(chs, w, n, perm=(0, 1, 2))
    assert res.feasible and math.isfinite(res.sum_rate)
    low = bl.lower_bounds(3, abs(0.5), 10.0)  # tdm is gain-independent
    assert res.normalized >= low.normalized("tdm") - 1e-9


def test_asym_cyclic_constraint_violation():
    chs = make_symmetric(3, 0.9, 10.0)
    w = [ku.NoiseParam(0.2, 0.0)] * 3   # sigma_V_W too small for sigma_N2
    n = [ku.NoiseParam(0.9, 0.0)] * 3
    res = ku.asym_cyclic_bound(chs, w, n, perm=(0, 1, 2))
    assert not res.feasible


def test_asym_cyclic_rejects_correlated_genie():
    ch = make_symmetric(3, 0.5, 10.0)
    with pytest.raises(ValueError):
        ku.asym_cyclic_bound(ch, [ku.NoiseParam(0.9, 0.5)] * 3,
                             [ku.NoiseParam(0.9, 0.5)] * 3, perm=(0, 1, 2))


def test_asym_cyclic_above_hybrid_optimum_on_symmetric():
    g, p = math.sqrt(0.5), 10.0
    ch = make_symmetric(3, g, p)
    opt = ku.kuser_hybrid_optimize(3, g, p)
    best = math.inf
    for sn in np.linspace(0.05, 1.0, 14):
        for sw, rw in ((0.95, 0.9), (1.0, 0.9), (0.9, 0.8), (1.0, 0.95)):
            res = ku.asym_cyclic_bound(ch, [ku.NoiseParam(sw, rw)] * 3,
                                       [ku.NoiseParam(float(sn), 0.0)] * 3,
                                       perm=(0, 1, 2))
            if res.feasible:
                best = min(best, res.sum_rate)
    assert math.isfinite(best)
    assert best >= opt.sum_rate - 1e-9


def test_continuity_near_unit_gain_small():
    # light version of the acceptance criterion at K = 100
    g2s = np.arange(0.95, 1.05 + 1e-12, 1e-3)
    vals = np.array([ku.closed_form_best(100, math.sqrt(x), 100.0).normalized
                     for x in g2s])
    diffs = np.abs(np.diff(vals))
    slope = np.median(diffs)
    assert diffs.max() <= 10 * max(slope, 1e-6)
