"""Deterministic 1-D minimizers used by the bound parameter searches, and
the row-blocking helper that bounds the memory of the vectorized
objectives."""

from __future__ import annotations

import math

import numpy as np

_INV_PHI = (math.sqrt(5.0) - 1.0) / 2.0
_INV_PHI_SQ = (3.0 - math.sqrt(5.0)) / 2.0

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
