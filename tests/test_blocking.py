"""Row blocking of the vectorized objectives changes no output bit."""

import numpy as np
import pytest

from gicbounds import _optim
from gicbounds import genie3 as g3
from gicbounds import kuser as ku
from gicbounds.channel import make_symmetric

UNBLOCKED = 1 << 62

# one real channel with degenerate Etkin entries (N = Z at g = 1) and one
# complex channel
CHANNELS = {"real": make_symmetric(3, 1.0, 10.0),
            "complex": make_symmetric(3, 0.5 + 0.5j, 10.0)}


def _grid(field):
    """Tied (sigma, rho) grid of 9 x 17 (real) or 9 x 15 (complex) points:
    an odd count that 7 does not divide, so blocks of 2 and of 7 rows leave
    a short last block."""
    rho = (_optim.rho_axis(True, 3, 5) if field == "complex"
           else _optim.rho_axis(False, 9))
    return _optim.pairs(np.linspace(0.0, 1.0, 9), rho)


def _per_user(field, n, seed):
    """Independent (sigma, rho) per user and row."""
    rng = np.random.default_rng(seed)
    s = rng.uniform(0.0, 1.0, (n, 3))
    r = rng.uniform(-1.0, 1.0, (n, 3)).astype(complex)
    if field == "complex":
        r = r * np.exp(1j * rng.uniform(0.0, 2 * np.pi, (n, 3)))
    return s, r


def _objectives(field):
    ch = CHANNELS[field]
    g = complex(ch.h[0, 1])
    s, r = _grid(field)
    sw, rw = _per_user(field, len(s), 3)
    sn, rn = _per_user(field, len(s), 4)
    calls = {
        "etkin_first": lambda: g3._etkin_terms(ch, s, r, "first"),
        "etkin_second": lambda: g3._etkin_terms(ch, s, r, "second"),
        "coi": lambda: g3._coi_value(ch, sw, rw),
        "hybrid_I0": lambda: g3._hybrid_value(ch, sw, rw, sn, rn, "I0"),
        "hybrid_I1": lambda: g3._hybrid_value(ch, sw, rw, sn, rn, "I1"),
    }
    for k in (3, 17):
        for hybrid in (False, True):
            calls[f"kuser_{k}_{hybrid}"] = (
                lambda k=k, hybrid=hybrid:
                ku._kuser_tied_values(k, g, 10.0, s, r, hybrid))
        # the gamma scan of the strong closed form: rows of K - 2 cells
        calls[f"cf_strong_{k}"] = lambda k=k: _strong(k, 1.5 * g)
    return calls


def _strong(k, g):
    res = ku.closed_form_strong_search(k, g, 10.0)
    assert res.feasible
    return res.sum_rate, res.params["gamma"]


def _same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    assert a.dtype == b.dtype and a.shape == b.shape
    assert a.tobytes() == b.tobytes()


@pytest.mark.parametrize("field", sorted(CHANNELS))
def test_objectives_bitwise_equal_under_blocking(field, monkeypatch):
    calls = _objectives(field)
    monkeypatch.setattr(_optim, "BLOCK_CELLS", UNBLOCKED)
    whole = {name: call() for name, call in calls.items()}
    if field == "real":
        assert np.any(whole["etkin_first"][2])      # degenerate entries
    for cells in (7, 1):
        monkeypatch.setattr(_optim, "BLOCK_CELLS", cells)
        for name, call in calls.items():
            out = call()
            assert len(out) == len(whole[name]), name
            for got, want in zip(out, whole[name]):
                _same_bits(got, want)


def test_by_rows_splits_and_concatenates(monkeypatch):
    seen = []

    def fn(a, b):
        seen.append(len(a))
        return a + b, a * b

    a, b = np.arange(10.0), np.arange(10.0, 20.0)
    monkeypatch.setattr(_optim, "BLOCK_CELLS", 8)
    s, p = _optim.by_rows(fn, (a, b), 2)
    assert seen == [4, 4, 2]
    _same_bits(s, a + b)
    _same_bits(p, a * b)
    seen.clear()
    monkeypatch.setattr(_optim, "BLOCK_CELLS", 20)
    _optim.by_rows(fn, (a, b), 2)
    assert seen == [10]


def test_best_upper_bitwise_equal_under_blocking(monkeypatch):
    ch = make_symmetric(3, 0.5 + 0.5j, 10.0)
    results = []
    for cells in (UNBLOCKED, _optim.BLOCK_CELLS, 1 << 10):
        monkeypatch.setattr(_optim, "BLOCK_CELLS", cells)
        res = g3.best_upper_three(ch)
        results.append((res.sum_rate.hex(), res.name, res.permutation))
    assert results[1] == results[0]
    assert results[2] == results[0]
