"""Exact regression pins: the Etkin search, the change-of-interference and
hybrid descents and the surface CSV, bit for bit.

A change to how these are computed that keeps every output bit keeps these
pins; a change that moves a value must update them and say which values
moved, by how much and why."""

import functools
import hashlib
import math

import numpy as np
import pytest

from gicbounds import genie3 as g3
from gicbounds.bounds import Point
from gicbounds.channel import Channel, make_semi_symmetric, make_symmetric
from gicbounds.genie3 import GenieConfig3, NoiseParam
from gicbounds.sweep import SurfaceSpec, rows_to_csv, run_surface

FULL = (g3.SIGMA_POINTS, g3.RHO_POINTS, g3.PHASE_POINTS)
SURFACE = (33, 17, 16)

_PHIS = np.arange(8) * (2.0 * math.pi / 8)
CHANNELS = {
    "real": make_symmetric(3, 0.7, 10.0),
    "complex": make_symmetric(3, 0.5 + 0.5j, 10.0),
    # cell (1, 3) of the 8 x 8 surface at |g1|^2 = 0.3, |g2|^2 = 0.7
    "circulant": make_semi_symmetric(
        3, [math.sqrt(0.3) * complex(np.exp(1j * _PHIS[1])),
            math.sqrt(0.7) * complex(np.exp(1j * _PHIS[3]))], 10.0),
    # N = Z entries: the kernel fallback resolves 244 grid points
    "unit": make_symmetric(3, 1.0, 10.0),
}

# (channel, resolution) -> (sum_rate.hex(), params, permutation)
ETKIN_PINS = {
    ("real", FULL): ("0x1.7860d4ae5fcacp+2", {
        "sigma": 1.0, "rho": (-0.020000000000000018 + 0j),
        "branch": "first"}, (0, 1, 2)),
    ("real", SURFACE): ("0x1.78641c1e92918p+2", {
        "sigma": 1.0, "rho": (-0.018749999999999996 + 0j),
        "branch": "first"}, (0, 1, 2)),
    ("complex", FULL): ("0x1.a54884a4bcccap+2", {
        "sigma": 1.0, "rho": (0.037847522471128894 - 0.1902723443982267j),
        "branch": "first"}, (0, 1, 2)),
    ("complex", SURFACE): ("0x1.a6bd6af61d675p+2", {
        "sigma": 1.0, "rho": 0j, "branch": "first"}, (0, 1, 2)),
    ("circulant", FULL): ("0x1.c0364cb876cafp+2", {
        "sigma": 1.0, "rho": (0.08757625594715332 - 0.008625508349001323j),
        "branch": "first"}, (0, 1, 2)),
    ("circulant", SURFACE): ("0x1.c041222c187a3p+2", {
        "sigma": 1.0, "rho": (0.0623073333583205 - 0.004903693482990309j),
        "branch": "second"}, (0, 1, 2)),
    ("unit", FULL): ("0x1.3d118d66c4d4ep+2", {
        "sigma": 1.0, "rho": (1 + 0j), "branch": "first"}, (0, 1, 2)),
    ("unit", SURFACE): ("0x1.3d118d66c4d4ep+2", {
        "sigma": 1.0, "rho": (1 + 0j), "branch": "first"}, (0, 1, 2)),
}


@pytest.mark.parametrize("name,resolution", sorted(ETKIN_PINS),
                         ids=lambda v: v if isinstance(v, str) else
                         "full" if v == FULL else "surface")
def test_etkin_optimize_pinned(name, resolution):
    res = g3.etkin_optimize(CHANNELS[name], resolution=resolution)
    assert (res.sum_rate.hex(), res.params, res.permutation) == \
        ETKIN_PINS[name, resolution]


def test_unit_gain_pin_goes_through_the_kernel_fallback(monkeypatch):
    calls = []
    kernel = g3._etkin_kernel_value
    monkeypatch.setattr(g3, "_etkin_kernel_value",
                        lambda *a: calls.append(a) or kernel(*a))
    g3.etkin_optimize(CHANNELS["unit"], resolution=SURFACE)
    assert len(calls) == 244


def test_surface_csv_pinned():
    _, _, rows, _ = run_surface(SurfaceSpec(0.3, 0.7, p=10.0, grid_n=8))
    digest = hashlib.sha256(rows_to_csv(rows).encode()).hexdigest()
    assert digest == ("e383983ebd803ff3bd3d523a1f86eb86"
                      "a6f9c86215b0ecbdb351359397b4f00b")


# real non-symmetric channels: every ordering goes through the coordinate
# descents of coi_optimize and hybrid_optimize
_WEAK = np.array([[1, .4, -.8], [.6, 1, .3], [-.5, .9, 1]], float)
_MIXED = np.array([[1, -1.3, .5], [.7, 1, -1.1], [.9, -.4, 1]], float)
DESCENT_CHANNELS = {
    "weak": Channel(_WEAK, np.full(3, 10.0), "real"),
    # coi3 wins best_upper here
    "mixed": Channel(_MIXED, np.full(3, 30.0), "real"),
    "powers": Channel(_WEAK, np.array([3.0, 20.0, 70.0]), "real"),
    "circulant": make_semi_symmetric(3, [0.6, -0.9], 10.0),
}


def _w(*pairs):
    return tuple(NoiseParam(s, r) for s, r in pairs)


def _cfg(w, n, branch):
    return {"cfg": GenieConfig3(_w(*w), _w(*n)), "branch": branch}


# (channel, bound) -> (sum_rate.hex(), params, permutation)
DESCENT_PINS = {
    ("weak", "coi3"): ("0x1.f4d127d7f2b14p+2", {"w": _w(
        (0.6000000000000001, -0.09999999999999998 + 0j),
        (1.0, -0.29999999999999993 + 0j),
        (0.5750000000000001, -0.04999999999999993 + 0j))}, (1, 2, 0)),
    ("weak", "hybrid3"): ("0x1.00b6d9dc9a91dp+3", _cfg(
        [(0.0, -1 + 0j), (0.25, 0.25 + 0j), (0.0, -1 + 0j)],
        [(1.0, 0.375 + 0j), (1.0, 0.375 + 0j), (1.0, 0j)], "I1"), (1, 2, 0)),
    ("mixed", "coi3"): ("0x1.3d8aaec75a2f4p+3", {"w": _w(
        (0.75, -0.09999999999999998 + 0j),
        (0.925, 0.6500000000000001 + 0j),
        (1.0, -0.44999999999999996 + 0j))}, (1, 0, 2)),
    ("mixed", "hybrid3"): ("0x1.69ea5105cc761p+3", _cfg(
        [(0.8125, 0.8125 + 0j), (0.8125, 0.8125 + 0j), (0.4375, 0.4375 + 0j)],
        [(1.0, -0.4375 + 0j), (1.0, -0.375 + 0j), (1.0, -0.5625 + 0j)],
        "I1"), (0, 1, 2)),
    ("powers", "coi3"): ("0x1.2fa1d1705e28fp+3", {"w": _w(
        (0.6000000000000001, 0.15000000000000013 + 0j),
        (0.675, -0.29999999999999993 + 0j),
        (0.9500000000000001, -0.29999999999999993 + 0j))}, (0, 1, 2)),
    ("powers", "hybrid3"): ("0x1.37a2f9c671594p+3", _cfg(
        [(0.0, -1 + 0j), (0.375, 0.375 + 0j), (0.3125, 0.3125 + 0j)],
        [(1.0, 0.4375 + 0j), (1.0, 0.4375 + 0j), (1.0, 0j)], "I1"),
        (1, 2, 0)),
    ("circulant", "coi3"): ("inf", {}, None),
    ("circulant", "hybrid3"): ("0x1.a7d35071a96efp+2", _cfg(
        [(0.6875, 0.6875 + 0j)] * 3, [(1.0, 0.3125 + 0j)] * 3, "I1"),
        (0, 2, 1)),
}


@functools.lru_cache(maxsize=None)
def _point(name):
    return Point.of(DESCENT_CHANNELS[name])


@pytest.mark.parametrize("name,bound", sorted(DESCENT_PINS))
def test_descent_pinned(name, bound):
    res = _point(name).evaluate(bound)
    assert (res.sum_rate.hex(), res.params, res.permutation) == \
        DESCENT_PINS[name, bound]


def _reproduce(channel, res):
    prm, perm = res.params, res.permutation
    if res.name == "etkin3":
        return g3.etkin_bound(channel, NoiseParam(prm["sigma"], prm["rho"]),
                              prm["branch"], perm).sum_rate
    if res.name == "coi3":
        return g3.coi_bound(channel, prm["w"], perm).sum_rate
    if res.name == "hybrid3":
        return g3.hybrid_bound(channel, prm["cfg"], prm["branch"],
                               perm).sum_rate
    return None


@pytest.mark.parametrize("name", sorted(DESCENT_CHANNELS))
def test_descent_winners_reproduce_from_their_params(name):
    """The output check of a best_upper_three op: a finite result, at
    least the time-division sum rate at equal power, and winners whose
    params give their value back through the fixed-parameter bound."""
    channel, pt = DESCENT_CHANNELS[name], _point(name)
    best = pt.evaluate("best_upper")
    assert best.feasible and math.isfinite(best.sum_rate)
    if np.all(channel.power == channel.power[0]):
        assert best.sum_rate >= math.log2(1.0 + 3.0 * channel.power[0]) - 1e-9
    for res in (best, pt.evaluate("coi3"), pt.evaluate("hybrid3")):
        again = _reproduce(channel, res) if res.feasible else None
        assert again is None or abs(again - res.sum_rate) <= 1e-9
