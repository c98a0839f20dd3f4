"""Channel matrices, scenario constructors and parameter conversions.

A channel in standard form has unit direct gains, per-user transmit powers
and additive unit-variance receiver noise; only the off-diagonal (cross)
coefficients and the powers carry information.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .gaussnet import COMPLEX, REAL


@dataclass(frozen=True)
class Channel:
    """K-user standard-form channel: h is KxK with unit diagonal."""

    h: np.ndarray
    power: np.ndarray
    field: str = COMPLEX

    def __post_init__(self):
        h = np.asarray(self.h, dtype=complex)
        p = np.asarray(self.power, dtype=float)
        if h.ndim != 2 or h.shape[0] != h.shape[1] or h.shape[0] < 2:
            raise ValueError("h must be KxK with K >= 2")
        if p.shape != (h.shape[0],):
            raise ValueError("power vector length must equal K")
        if not np.allclose(np.diag(h), 1.0, atol=1e-12):
            raise ValueError("direct gains must be exactly 1 (standard form)")
        if not (np.all(np.isfinite(h.view(float))) and np.all(np.isfinite(p))):
            raise ValueError("non-finite channel parameter")
        if np.any(p < 0):
            raise ValueError("negative power")
        if self.field not in (REAL, COMPLEX):
            raise ValueError(f"unknown field {self.field!r}")
        if self.field == REAL and np.any(np.abs(h.imag) > 0):
            raise ValueError("real-field channel with complex coefficients")
        object.__setattr__(self, "h", h)
        object.__setattr__(self, "power", p)

    @property
    def k(self) -> int:
        return self.h.shape[0]

    def permuted(self, perm) -> "Channel":
        """Relabel users: user i of the new channel is user perm[i]."""
        idx = np.asarray(perm, dtype=int)
        return Channel(self.h[np.ix_(idx, idx)], self.power[idx], self.field)

    def symmetric_gain(self) -> complex | None:
        """Common cross gain if all cross gains are exactly equal and so are
        all powers, else None."""
        off = self.h[~np.eye(self.k, dtype=bool)]
        if np.all(off == off[0]) and np.all(self.power == self.power[0]):
            return complex(off[0])
        return None

    def is_circulant(self) -> bool:
        """Exactly circulant (h[i, j] depends only on j - i mod K) with
        exactly equal powers: cyclic shifts of the users are relabelings
        that leave the channel unchanged."""
        shifted = np.roll(self.h, (1, 1), axis=(0, 1))
        return bool(np.all(self.h == shifted)
                    and np.all(self.power == self.power[0]))


def _infer_field(*values) -> str:
    for v in values:
        for x in np.atleast_1d(np.asarray(v, dtype=complex)):
            if x.imag != 0.0:
                return COMPLEX
    return REAL


def make_symmetric(k: int, g: complex, p: float, field: str | None = None) -> Channel:
    """All cross gains equal to g, all powers equal to p."""
    if k < 2:
        raise ValueError("need K >= 2")
    h = np.full((k, k), complex(g))
    np.fill_diagonal(h, 1.0)
    if field is None:
        field = _infer_field(g)
    return Channel(h, np.full(k, float(p)), field)


def make_semi_symmetric(k: int, g_list, p: float, field: str | None = None) -> Channel:
    """Circulant channel: receiver k sees gain g_i from transmitter k+i."""
    g_list = [complex(g) for g in g_list]
    if len(g_list) != k - 1:
        raise ValueError(f"need {k - 1} cross gains, got {len(g_list)}")
    h = np.eye(k, dtype=complex)
    for row in range(k):
        for i, g in enumerate(g_list, start=1):
            h[row, (row + i) % k] = g
    if field is None:
        field = _infer_field(g_list)
    return Channel(h, np.full(k, float(p)), field)


def alpha_to_gain(alpha: float, p: float) -> float:
    """Squared cross gain |g|^2 = P^(alpha-1), with alpha = log INR / log SNR."""
    if p <= 1.0:
        raise ValueError("alpha parametrization needs P > 1")
    return float(p ** (alpha - 1.0))


def gain_to_alpha(g2: float, p: float) -> float:
    if p <= 1.0 or g2 <= 0.0:
        raise ValueError("need P > 1 and |g|^2 > 0")
    return 1.0 + np.log(g2) / np.log(p)


def db_to_linear(db: float) -> float:
    return float(10.0 ** (db / 10.0))


def _cyclic_condition_holds(h: np.ndarray, rel_tol: float) -> bool:
    k = h.shape[0]
    for i in range(2, k - 1):          # 1-based user index i = 2 .. K-2
        a, b, col = i - 2, i - 1, i    # rows of users i-1, i; column of user i+1
        if abs(h[b, col]) == 0.0:
            return False
        ratio = h[a, col] / h[b, col]
        for j in range(i + 2, k + 1):  # 1-based j = i+2 .. K
            lhs = h[a, j - 1]
            rhs = ratio * h[b, j - 1]
            scale = max(abs(lhs), abs(rhs), 1e-30)
            if abs(lhs - rhs) > rel_tol * scale:
                return False
    return True


def cyclic_reduction_check(h, rel_tol: float = 1e-9):
    """Does some user relabeling make the cross gains cyclically proportional
    (h[i-1,j] = h[i-1,i+1]/h[i,i+1] * h[i,j] for i=2..K-2, j=i+2..K)?

    Vacuous (True, identity) for K = 3.  Returns (bool, witness permutation).
    """
    h = np.asarray(h, dtype=complex)
    k = h.shape[0]
    if k <= 3:
        return True, tuple(range(k))
    if k > 8:
        raise ValueError("permutation search capped at K <= 8")
    for perm in itertools.permutations(range(k)):
        idx = np.asarray(perm)
        if _cyclic_condition_holds(h[np.ix_(idx, idx)], rel_tol):
            return True, perm
    return False, None


# JSON scenario schema ------------------------------------------------------

def _c_from_json(obj) -> complex:
    if isinstance(obj, dict):
        return complex(float(obj.get("re", 0.0)), float(obj.get("im", 0.0)))
    return complex(obj)


def _c_to_json(z: complex) -> dict:
    return {"re": float(np.real(z)), "im": float(np.imag(z))}


def channel_from_json(doc: dict) -> Channel:
    """Accepts {"k","field","p","h"} with h[i][j] = {"re","im"}, or
    {"sym": {"g": {...}, "p": ...}} / {"semisym": {"g_list": [...], "p": ...}}
    (optionally with "k" and "field" alongside)."""
    field = doc.get("field")
    if "sym" in doc:
        sub = doc["sym"]
        k = int(doc.get("k", sub.get("k", 3)))
        return make_symmetric(k, _c_from_json(sub["g"]), float(sub["p"]), field)
    if "semisym" in doc:
        sub = doc["semisym"]
        gl = [_c_from_json(g) for g in sub["g_list"]]
        k = int(doc.get("k", sub.get("k", len(gl) + 1)))
        return make_semi_symmetric(k, gl, float(sub["p"]), field)
    k = int(doc["k"])
    h = np.array([[_c_from_json(x) for x in row] for row in doc["h"]])
    p = doc["p"]
    power = np.full(k, float(p)) if np.isscalar(p) else np.asarray(p, dtype=float)
    return Channel(h, power, field or _infer_field(h))


def channel_to_json(ch: Channel) -> dict:
    return {
        "k": ch.k,
        "field": ch.field,
        "p": [float(x) for x in ch.power],
        "h": [[_c_to_json(x) for x in row] for row in ch.h],
    }
