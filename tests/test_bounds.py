"""The bound table: composites, scopes, and agreement with direct calls."""

import math

import pytest

from gicbounds import baselines as bl
from gicbounds import genie3 as g3
from gicbounds import kuser as ku
from gicbounds.baselines import BoundResult
from gicbounds.channel import make_semi_symmetric, make_symmetric
from gicbounds.sweep import ALL_BOUNDS, LOWER_BOUNDS, SweepSpec, run_sweep

BEST_UPPER = ("kramer2", "etw2", "gen_kramer3", "zchain3", "etkin3", "coi3",
              "hybrid3")
NEW_MIN = ("etkin3", "coi3", "hybrid3")
ANY_K = ("kramer2", "etw2", "cf_weak", "cf_hybrid", "cf_strong", "cf_best",
         "kuser_weak", "kuser_hybrid", "affine", "tin", "tdm", "snd",
         "lower_best")


def _direct(k, g, p):
    """The library call behind each table name at a symmetric point."""
    ch = make_symmetric(k, g, p) if k == 3 else None
    low = bl.lower_bounds(k, g, p)
    return {
        "kramer2": lambda: bl.kramer_two_user(p, g, k_users=k),
        "etw2": lambda: bl.etw_two_user(p, g, k_users=k),
        "gen_kramer3": lambda: bl.gen_kramer_three(ch),
        "zchain3": lambda: bl.z_extension_three(ch),
        "coi3": lambda: g3.coi_optimize(ch),
        "etkin3": lambda: g3.etkin_optimize(ch),
        "hybrid3": lambda: g3.hybrid_symmetric_bound(p, g),
        "hybrid3_sym": lambda: g3.hybrid_symmetric_bound(p, g),
        "new_min": lambda: g3.new_minimum_three(ch),
        "best_upper": lambda: g3.best_upper_three(ch),
        "cf_weak": lambda: ku.closed_form_weak(k, g, p),
        "cf_hybrid": lambda: ku.closed_form_hybrid(k, g, p),
        "cf_strong": lambda: ku.closed_form_strong_search(k, g, p),
        "cf_best": lambda: ku.closed_form_best(k, g, p),
        "kuser_weak": lambda: ku.kuser_weak_optimize(k, g, p),
        "kuser_hybrid": lambda: ku.kuser_hybrid_optimize(k, g, p),
        "affine": lambda: BoundResult.make("affine", k,
                                           k * ku.affine_approx(k, p, g)),
        "tin": lambda: low.as_result("tin"),
        "tdm": lambda: low.as_result("tdm"),
        "snd": lambda: low.as_result("snd"),
        "lower_best": lambda: low.as_result("best"),
    }


def test_lower_bounds_are_the_lower_trio():
    assert set(LOWER_BOUNDS) == {"tin", "tdm", "snd", "lower_best"}
    assert set(ALL_BOUNDS) == set(_direct(3, 0.6, 10.0))


def test_composites_are_minima_over_their_member_rows():
    # one real point (phase 0) and one complex point (phase pi/4)
    spec = SweepSpec("phase", 0.0, math.pi / 4, math.pi / 4, k=3, p=10.0,
                     g=0.7, bounds=("best_upper", "new_min") + BEST_UPPER)
    rows = run_sweep(spec)
    fields = set()
    for x in {r["axis_value"] for r in rows}:
        point = {r["bound"]: r for r in rows if r["axis_value"] == x}
        fields.add(point["best_upper"]["field"])
        for name, members in (("best_upper", BEST_UPPER),
                              ("new_min", NEW_MIN)):
            want = min(point[m]["sum_rate_bits"] for m in members)
            assert point[name]["sum_rate_bits"] == want
            assert math.isfinite(want)
    assert fields == {"real", "complex"}


@pytest.mark.parametrize("k,names", [(3, ALL_BOUNDS), (5, ANY_K)])
def test_sweep_rows_match_direct_calls(k, names):
    g, p = complex(0.6), 10.0
    rows = run_sweep(SweepSpec("snr_db", 10.0, 10.0, 1.0, k=k, g=g,
                               bounds=tuple(names)))
    assert [r["bound"] for r in rows] == sorted(names)
    assert all(r["p_linear"] == p for r in rows)
    direct = _direct(k, g, p)
    for r in rows:
        assert r["sum_rate_bits"] == direct[r["bound"]]().sum_rate, r["bound"]


def test_three_user_bounds_rejected_at_five_users():
    for name in sorted(set(ALL_BOUNDS) - set(ANY_K)):
        with pytest.raises(ValueError):
            run_sweep(SweepSpec("snr_db", 10.0, 10.0, 1.0, k=5, g=0.6,
                                bounds=(name,)))


def test_circulant_best_upper_matches_six_orderings():
    res = g3.best_upper_three(
        make_semi_symmetric(3, [0.6, -0.9], 10.0, "real"))
    assert res.name == "etkin3"
    assert res.sum_rate.hex() == "0x1.721268aecdd69p+2"
    assert res.permutation == (0, 2, 1)
