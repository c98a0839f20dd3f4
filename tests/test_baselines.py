"""Prior-art upper bounds and the lower-bound trio."""

import math

import numpy as np
import pytest

from gicbounds import baselines as bl
from gicbounds.channel import make_semi_symmetric, make_symmetric
from gicbounds.sweep import SweepSpec, _point_params

from helpers_oracles import build_system
from gicbounds.gaussnet import mutual_info


def test_kramer_examples():
    assert bl.kramer_two_user(10.0, 0.0).params["per_user"] == pytest.approx(
        math.log2(11.0), abs=1e-9)
    # |g| >= 1 branch at |g|^2 = 2
    assert bl.kramer_two_user(10.0, math.sqrt(2.0)).params[
        "per_user"] == pytest.approx(0.5 * math.log2(31.0), abs=1e-9)
    # normalized anchor
    assert bl.kramer_two_user(5.0, math.sqrt(0.9)).normalized == pytest.approx(
        0.8795, abs=5e-4)


def test_kramer_branch_continuity():
    p = 10.0
    lo = bl.kramer_symmetric_rate(p, 1.0 - 1e-9)
    hi = bl.kramer_symmetric_rate(p, 1.0 + 1e-9)
    at = bl.kramer_symmetric_rate(p, 1.0)
    assert abs(hi - lo) < 1e-7
    assert hi - lo > -1e-12          # no downward jump for minimum takers
    assert at == pytest.approx(0.5 * math.log2(1 + 2 * p), abs=1e-12)


def test_etw_examples():
    assert bl.etw_two_user(10.0, 0.0).params["per_user"] == pytest.approx(
        math.log2(11.0), abs=1e-9)
    assert bl.etw_two_user(10.0, math.sqrt(0.5)).params[
        "per_user"] == pytest.approx(math.log2(1 + 5 + 10 / 6), abs=1e-9)
    # independent oracle: log2(1 + 10 + 10/11) = log2(131/11)
    assert bl.etw_two_user(10.0, 1.0).params["per_user"] == pytest.approx(
        math.log2(131.0 / 11.0), abs=1e-9)


def test_gen_kramer_formula_and_brute_force():
    p, g = 10.0, math.sqrt(0.5)
    # decoupled-case formula value at rho = 0 (outside admissible region)
    val0 = float(bl.gen_kramer_objective(p, 0.0, np.array([0.0]))[0])
    assert val0 == pytest.approx(2 * math.log2(11.0), abs=1e-9)

    res = bl.gen_kramer_three(make_symmetric(3, g, p))
    # brute-force oracle: dense 10^4-point rho grid on the admissible set
    rho = np.linspace(-1.0 + 1e-9, min(1.0, 2 * 0.5 - 1.0), 10_000)
    vals = bl.gen_kramer_objective(p, g, rho.astype(complex))
    assert res.sum_rate == pytest.approx(float(vals.min()), abs=1e-6)
    assert res.sum_rate <= float(vals.min()) + 1e-9


def test_gen_kramer_infeasible_at_zero_gain():
    res = bl.gen_kramer_three(make_symmetric(3, 0.0, 10.0))
    assert not res.feasible


def test_gen_kramer_requires_symmetric():
    ch = make_semi_symmetric(3, [0.5, 0.7], 10.0)
    with pytest.raises(ValueError):
        bl.gen_kramer_three(ch)


def test_z_extension_against_kernel():
    ch = make_semi_symmetric(3, [0.6 * np.exp(1j * 0.4), 0.8], 10.0)
    res = bl.z_extension_three(ch)
    assert res.feasible
    perm = res.permutation
    chp = ch.permuted(perm)
    sysm, xs, zs, ys = build_system(chp)
    total = 0.0
    for u, v in ((0, 1), (1, 2), (2, 0)):
        total += mutual_info([xs[u]], [ys[u]],
                             [xs[i] for i in range(3) if i != u])
        total += mutual_info([xs[u]], [ys[u]], [xs[3 - u - v]])
    assert res.sum_rate == pytest.approx(0.5 * total, abs=1e-9)


def test_z_extension_symmetric_cases():
    p = 10.0
    res0 = bl.z_extension_three(make_symmetric(3, 0.0, p))
    assert res0.sum_rate == pytest.approx(3 * math.log2(1 + p), abs=1e-9)
    res = bl.z_extension_three(make_symmetric(3, math.sqrt(0.5), p))
    per_pair = math.log2(1 + p) + math.log2(1 + p / (1 + 0.5 * p))
    assert res.sum_rate == pytest.approx(1.5 * per_pair, abs=1e-9)


def test_z_extension_infeasible_strong():
    res = bl.z_extension_three(make_symmetric(3, math.sqrt(2.0), 10.0))
    assert not res.feasible
    assert res.sum_rate == float("inf")


def test_lower_bounds_anchors():
    lb = bl.lower_bounds(3, 1.0, 10.0)
    assert lb.normalized("tdm") == pytest.approx(0.8257, abs=1e-4)
    # at |g|^2 = 1 the full-set decoder matches time division
    assert lb.snd == pytest.approx(lb.tdm, abs=1e-12)
    lb0 = bl.lower_bounds(5, 0.0, 10.0)
    assert lb0.best == pytest.approx(math.log2(11.0), abs=1e-12)
    assert lb0.best == lb0.tin


def test_lower_bound_snd_minimizer():
    p, g2 = 10.0, 4.0
    lb = bl.lower_bounds(3, math.sqrt(g2), p)
    cands = [math.log2(1 + p + (s - 1) * g2 * p) / s for s in (1, 2, 3)]
    assert lb.snd == pytest.approx(min(cands), abs=1e-12)
    # the full-set decoder wins at this strong gain
    assert lb.snd == pytest.approx(cands[2], abs=1e-12)


def _snd_by_loop(k, g, p):
    """The O(K) definition: the minimum over every decoded-set size s."""
    g2 = abs(g) ** 2
    return min(math.log2(1.0 + p + (s - 1) * g2 * p) / s
               for s in range(1, k + 1))


def test_lower_bound_snd_endpoints_equal_the_full_loop():
    rng = np.random.default_rng(2015)
    cases = [(int(k), math.sqrt(g2), p) for k, g2, p in zip(
        rng.integers(1, 401, 1500), 10.0 ** rng.uniform(-3, 2, 1500),
        10.0 ** rng.uniform(-3, 5, 1500))]
    cases += [(k, math.sqrt(g2), p) for k in (1000, 44018, 100000)
              for g2 in (0.05, 4.0) for p in (0.1, 1e4)]
    cases.append((2, 0.5 + 0.5j, 10.0))
    # grid points of the large-K figures, resolved as the sweeps resolve them
    specs = [SweepSpec("snr_db", 0.0, 60.0, 1.0, k=1000, p=10.0,
                       g=math.sqrt(g2v)) for g2v in (1.1, 0.7, 1.5)]
    specs += [SweepSpec("g2", 0.5, 1.5, 0.5, k=100000, p=p, g=1.0)
              for p in (5.0, 100.0)]
    cases += [_point_params(spec, float(x)) for spec in specs
              for x in spec.grid()]
    for k, g, p in cases:
        assert bl.lower_bounds(k, g, p).snd == _snd_by_loop(k, g, p), (k, g, p)


def test_best_result_tie_breaks_by_name():
    a = bl.BoundResult.make("zzz", 3, 1.0)
    b = bl.BoundResult.make("aaa", 3, 1.0)
    assert bl.best_result([a, b]).name == "aaa"
    assert not bl.best_result([bl.BoundResult.infeasible("x", 3)]).feasible
