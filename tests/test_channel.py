"""Channel constructors, parameter conversions, JSON schema, cyclic check."""

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from gicbounds.channel import (
    Channel,
    alpha_to_gain,
    channel_from_json,
    channel_to_json,
    cyclic_reduction_check,
    gain_to_alpha,
    make_semi_symmetric,
    make_symmetric,
)


def test_symmetric_constructor():
    ch = make_symmetric(3, 0.0, 10.0)
    assert np.allclose(ch.h, np.eye(3))
    ch1 = make_symmetric(3, 1.0, 10.0)
    assert np.allclose(ch1.h, np.ones((3, 3)))
    chi = make_symmetric(4, 1j, 10.0)
    off = chi.h[~np.eye(4, dtype=bool)]
    assert np.allclose(off, 1j)
    assert chi.field == "complex"
    assert ch.field == "real"


def test_semi_symmetric_rows():
    g1, g2 = 0.4 + 0.1j, 0.7 - 0.2j
    ch = make_semi_symmetric(3, [g1, g2], 5.0)
    assert np.allclose(ch.h[1], [g2, 1.0, g1])
    # degenerate case equals the symmetric constructor
    a = make_semi_symmetric(3, [g1, g1], 5.0)
    b = make_symmetric(3, g1, 5.0)
    assert np.allclose(a.h, b.h)
    # K = 4 rows are cyclic shifts
    ch4 = make_semi_symmetric(4, [1.0, 2.0, 3.0], 1.0)
    for r in range(4):
        assert np.allclose(np.roll(ch4.h[r], -r), ch4.h[0])
    with pytest.raises(ValueError):
        make_semi_symmetric(3, [g1], 5.0)


def test_symmetry_checks_are_exact():
    from gicbounds.genie3 import _perm_classes

    assert make_symmetric(3, 0.7, 10.0).symmetric_gain() == 0.7
    near = make_symmetric(3, 0.7, 10.0).h.copy()
    near[0, 1] = 0.7 * (1 + 5e-6)
    assert Channel(near, np.full(3, 10.0)).symmetric_gain() is None
    assert Channel(make_symmetric(3, 0.7, 10.0).h,
                   [10.0, 10.0, 10.00005]).symmetric_gain() is None

    circ = make_semi_symmetric(3, [0.6, -0.9], 10.0)
    assert circ.is_circulant()
    assert _perm_classes(circ) == [(0, 1, 2), (0, 2, 1)]
    h = circ.h.copy()
    h[2, 0] = 0.6 * (1 + 1e-14)
    assert not Channel(h, circ.power).is_circulant()
    assert len(_perm_classes(Channel(h, circ.power))) == 6
    uneven = Channel(circ.h, [10.0, 10.0, 10.00005])
    assert not uneven.is_circulant()
    assert len(_perm_classes(uneven)) == 6
    assert make_semi_symmetric(4, [1.0, 2.0, 3.0], 1.0).is_circulant()


def test_standard_form_enforced():
    h = np.ones((3, 3)) * 0.5
    with pytest.raises(ValueError):
        Channel(h, np.full(3, 1.0))
    with pytest.raises(ValueError):
        Channel(np.eye(3), np.full(3, -1.0))
    with pytest.raises(ValueError):
        Channel(np.eye(3) + 0j * np.eye(3), np.full(3, 1.0), field="weird")


def test_alpha_conversions():
    assert alpha_to_gain(1.0, 17.0) == pytest.approx(1.0)
    assert alpha_to_gain(0.5, 100.0) == pytest.approx(0.1)
    assert alpha_to_gain(0.0, 10.0) == pytest.approx(0.1)
    with pytest.raises(ValueError):
        alpha_to_gain(0.5, 1.0)


@settings(max_examples=50, deadline=None)
@given(st.floats(-1.0, 2.0), st.floats(1.5, 1e4))
def test_alpha_roundtrip(alpha, p):
    g2 = alpha_to_gain(alpha, p)
    assert gain_to_alpha(g2, p) == pytest.approx(alpha, abs=1e-12)


def _proportional_k4():
    rng = np.random.default_rng(42)
    h = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    np.fill_diagonal(h, 1.0)
    # impose the single K=4 proportionality h14 = (h13/h23) h24
    h[0, 3] = h[0, 2] / h[1, 2] * h[1, 3]
    return h


def test_cyclic_reduction_check():
    ok, perm = cyclic_reduction_check(make_symmetric(3, 0.3, 1.0).h)
    assert ok and perm == (0, 1, 2)

    ok, perm = cyclic_reduction_check(make_symmetric(4, 0.3, 1.0).h)
    assert ok

    h = _proportional_k4()
    ok, perm = cyclic_reduction_check(h)
    assert ok and perm == (0, 1, 2, 3)

    h_bad = h.copy()
    h_bad[0, 3] *= 1.1
    ok, perm = cyclic_reduction_check(h_bad)
    assert not ok and perm is None


def test_cyclic_check_permutation_consistent():
    h = _proportional_k4()
    for perm in [(1, 0, 3, 2), (2, 3, 1, 0), (3, 2, 0, 1)]:
        idx = np.asarray(perm)
        assert cyclic_reduction_check(h[np.ix_(idx, idx)])[0]
    h_bad = h.copy()
    h_bad[0, 3] *= 1.1
    for perm in [(1, 0, 3, 2), (2, 3, 1, 0)]:
        idx = np.asarray(perm)
        assert not cyclic_reduction_check(h_bad[np.ix_(idx, idx)])[0]


def test_json_roundtrip_full_matrix():
    ch = make_semi_symmetric(3, [0.4 + 0.1j, 0.7], 5.0)
    doc = channel_to_json(ch)
    back = channel_from_json(json.loads(json.dumps(doc)))
    assert np.allclose(back.h, ch.h)
    assert np.allclose(back.power, ch.power)
    assert back.field == ch.field


def test_json_scenario_shorthand():
    ch = channel_from_json({"k": 3, "sym": {"g": {"re": 0.5, "im": 0.2},
                                            "p": 7.0}})
    assert ch.symmetric_gain() == pytest.approx(0.5 + 0.2j)
    ch2 = channel_from_json(
        {"semisym": {"g_list": [{"re": 0.5}, {"re": 0.1, "im": -0.3}],
                     "p": 2.0}})
    assert ch2.k == 3
    assert ch2.h[0, 2] == pytest.approx(0.1 - 0.3j)
    ch3 = channel_from_json({"k": 2, "field": "real", "p": 1.0,
                             "h": [[{"re": 1}, {"re": 0.4}],
                                   [{"re": 0.2}, {"re": 1}]]})
    assert ch3.field == "real"
    assert ch3.h[1, 0] == pytest.approx(0.2)


def test_permuted_relabeling():
    ch = make_semi_symmetric(3, [0.2, 0.9], 3.0)
    pm = ch.permuted((2, 0, 1))
    assert pm.h[0, 0] == 1.0
    assert pm.h[0, 1] == ch.h[2, 0]
