"""Exact regression pins: the Etkin search and the surface CSV, bit for bit.

A change to how these are computed that keeps every output bit keeps these
pins; a change that moves a value must update them and say which values
moved, by how much and why."""

import hashlib
import math

import numpy as np
import pytest

from gicbounds import genie3 as g3
from gicbounds.channel import make_semi_symmetric, make_symmetric
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
