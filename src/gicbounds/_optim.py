"""The deterministic parameter searches of the bounds and the row-blocking
helper that bounds the memory of the vectorized objectives.

The genie searches range over (sigma, rho) pairs: sigma on [0, 1] and rho on
the real segment [-1, 1] or, for complex channels, on the unit disc as
magnitudes x phases.  There is one grid scan with a finer scan around its
argmin (``scan_then_zoom``), one block coordinate descent over several
pairs (``coordinate_descent``), and the 1-D ``grid_then_golden``.
"""

from __future__ import annotations

import math

import numpy as np

_INV_PHI = (math.sqrt(5.0) - 1.0) / 2.0
_INV_PHI_SQ = (3.0 - math.sqrt(5.0)) / 2.0

#: default grid sizes: sigma points, |rho| points (2 n - 1 on the real
#: segment, the same step) and phases
SIGMA_POINTS = 101
RHO_POINTS = 101
PHASE_POINTS = 64

#: most array cells (rows x width) an objective holds per block.  Each
#: temporary stays at 0.5-1 MB, which glibc's allocator reuses from block to
#: block; with 2^18 cells it handed the ~4 MB temporaries back to the OS
#: after every block and page-faulted them in again, slower than no blocking
BLOCK_CELLS = 1 << 16


def by_rows(fn, arrays, width: int):
    """fn(*arrays) evaluated on blocks of at most BLOCK_CELLS // width rows
    of the arrays' shared leading axis, each output concatenated back.
    fn must work row by row, so blocking changes no output bit; inputs that
    fit in one block go to fn whole."""
    n = len(arrays[0])
    rows = max(1, BLOCK_CELLS // width)
    if n <= rows:
        return fn(*arrays)
    parts = [fn(*(a[i:i + rows] for a in arrays)) for i in range(0, n, rows)]
    return tuple(np.concatenate(out) for out in zip(*parts))


def golden_section(obj, a: float, b: float, tol: float = 1e-10) -> tuple[float, float]:
    """Golden-section minimum of obj on [a, b]; returns (x, obj(x))."""
    dist = b - a
    if dist <= tol:
        x = 0.5 * (a + b)
        return x, obj(x)
    n = int(math.ceil(math.log(tol / dist) / math.log(_INV_PHI)))
    c = a + _INV_PHI_SQ * dist
    d = a + _INV_PHI * dist
    yc, yd = obj(c), obj(d)
    for _ in range(max(0, n - 1)):
        if yc < yd:
            b, d, yd = d, c, yc
            dist *= _INV_PHI
            c = a + _INV_PHI_SQ * dist
            yc = obj(c)
        else:
            a, c, yc = c, d, yd
            dist *= _INV_PHI
            d = a + _INV_PHI * dist
            yd = obj(d)
    x = c if yc < yd else d
    return x, min(yc, yd)


def grid_then_golden(obj, lo: float, hi: float, n: int = 201, tol: float = 1e-10):
    """Coarse grid scan followed by a golden-section polish in the winning
    bracket.  obj must accept a numpy array and may return inf at infeasible
    points; returns (x, value) or (nan, inf) when nothing is feasible."""
    xs = np.linspace(lo, hi, n)
    vals = obj(xs)
    vals = np.where(np.isfinite(vals), vals, np.inf)
    if not np.any(np.isfinite(vals)):
        return float("nan"), float("inf")
    i = int(np.argmin(vals))
    a = xs[max(0, i - 1)]
    b = xs[min(n - 1, i + 1)]

    def scalar(x):
        v = obj(np.asarray([x]))[0]
        return v if np.isfinite(v) else np.inf

    x, v = golden_section(scalar, float(a), float(b), tol)
    if v <= vals[i]:
        return float(x), float(v)
    return float(xs[i]), float(vals[i])


def _disc(mags, phases):
    return (mags[:, None] * np.exp(1j * phases)[None, :]).ravel()


def rho_axis(complex_params: bool, n_rho: int = RHO_POINTS,
             n_phase: int = PHASE_POINTS) -> np.ndarray:
    """Correlation grid: n_rho magnitudes x n_phase phases on the unit disc,
    or 2 n_rho - 1 points of [-1, 1] (real), as complex numbers."""
    if complex_params:
        return _disc(np.linspace(0.0, 1.0, n_rho),
                     np.arange(n_phase) * (2.0 * np.pi / n_phase))
    return np.linspace(-1.0, 1.0, 2 * n_rho - 1).astype(complex)


def pairs(sigmas, rhos):
    """Every (sigma, rho) pair of the two axes, sigma-major, as two flat
    arrays."""
    return np.repeat(sigmas, len(rhos)), np.tile(rhos, len(sigmas))


def tied_grid(complex_params: bool, resolution):
    """The (sigma, rho) pairs of a coordinate-descent block or of a tied
    scan, for resolution = (n_sigma, n_rho, n_phase)."""
    n_sigma, n_rho, n_phase = resolution
    if complex_params:
        # defect D1: a complex rho axis is always the default
        # RHO_POINTS x PHASE_POINTS disc, whatever n_rho and n_phase ask for;
        # fixing it moves values (ROADMAP item 4)
        n_rho, n_phase = RHO_POINTS, PHASE_POINTS
    return pairs(np.linspace(0.0, 1.0, n_sigma),
                 rho_axis(complex_params, n_rho, n_phase))


def _scan(obj, sigmas, rhos):
    s, r = pairs(sigmas, rhos)
    values = obj(s, r)
    i = int(np.argmin(values))
    return float(values[i]), float(s[i]), complex(r[i])


def scan_then_zoom(obj, complex_params: bool, resolution, zoom):
    """Grid minimum of obj over (sigma, rho) pairs, then one finer scan
    around it.

    obj(s, r) gives one value per pair, inf where infeasible.  The first
    scan covers the grid of resolution = (n_sigma, n_rho, n_phase).  The
    finer one spans one coarse step either side of the argmin with
    zoom = (n, n_disc) points: n along sigma and along real rho, n_disc
    along |rho| and along the phase.  It replaces the incumbent only when
    strictly lower, and runs only when the first scan found a finite value.
    Returns (value, sigma, rho)."""
    n_sigma, n_rho, n_phase = resolution
    n, n_disc = zoom
    val, s0, r0 = _scan(obj, np.linspace(0.0, 1.0, n_sigma),
                        rho_axis(complex_params, n_rho, n_phase))
    if not math.isfinite(val):
        return val, s0, r0
    ds = 1.0 / (n_sigma - 1)
    sigmas = np.clip(np.linspace(s0 - ds, s0 + ds, n), 0.0, 1.0)
    if complex_params:
        dm, dp = 1.0 / (n_rho - 1), 2 * np.pi / n_phase
        m0, ph0 = abs(r0), np.angle(r0)
        rhos = _disc(np.clip(np.linspace(m0 - dm, m0 + dm, n_disc), 0, 1),
                     np.linspace(ph0 - dp, ph0 + dp, n_disc))
    else:
        dr = 1.0 / (n_rho - 1)
        rhos = np.clip(np.linspace(r0.real - dr, r0.real + dr, n),
                       -1, 1).astype(complex)
    fine = _scan(obj, sigmas, rhos)
    return fine if fine[0] < val else (val, s0, r0)


def coordinate_descent(obj, start, blocks, s_grid, r_grid):
    """Block coordinate descent over groups of (sigma, rho) pairs, three
    sweeps over the blocks.

    start holds the sigmas and the rhos of group 0, then those of group 1,
    and so on.  Block (g, cols) tries each grid pair (s_grid, r_grid) in
    columns cols of group g, all other parameters held: obj(*arrays) gets
    the trial arrays, one row per grid pair, and returns one value per row.
    The incumbent moves only to a strictly lower value.  Returns
    (value, arrays); value is inf if no trial was finite."""
    arrays = list(start)
    val = np.inf
    n = len(s_grid)
    for _ in range(3):
        for group, cols in blocks:
            tiled = [np.repeat(a[None, :], n, 0) for a in arrays]
            for u in cols:
                tiled[2 * group][:, u] = s_grid
                tiled[2 * group + 1][:, u] = r_grid
            values = obj(*tiled)
            i = int(np.argmin(values))
            if values[i] < val:
                val = float(values[i])
                arrays = [t[i].copy() for t in tiled]
    return val, arrays
