"""The bound table: every bound the sweeps, the surface and the CLI know by
name, with its evaluator, its scope (the channels it applies to) and its
kind (upper or lower).

``best_upper`` and ``new_min`` are composites: the minimum (``best_result``)
over those of their members that apply to the channel.  A :class:`Point`
keeps every result it computes, so within one point each entry is evaluated
once and a composite reuses the member rows already requested there.

Evaluators call the library through its module attributes
(``g3.etkin_optimize``), never through references bound at import time, so
a wrapper installed on a module attribute (as perfbench's span recorder
does) sees every call.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from . import baselines as bl
from . import genie3 as g3
from . import kuser as ku
from .baselines import BoundResult
from .channel import Channel

UPPER, LOWER = "upper", "lower"

#: scopes, with the points they admit; large-K symmetric points carry K, g
#: and P but no channel matrix
SYMMETRIC, SYMMETRIC3, THREE_USER = "symmetric", "symmetric K = 3", "K = 3"
_ADMITS = {
    SYMMETRIC: lambda pt: pt.g is not None,
    SYMMETRIC3: lambda pt: pt.g is not None and pt.k == 3,
    THREE_USER: lambda pt: pt.k == 3,
}


@dataclass(frozen=True)
class Bound:
    """One table entry: run(point) evaluates it, or, for a composite,
    members names the entries it takes the minimum over."""

    kind: str
    scope: str
    run: Callable[["Point"], BoundResult] | None = None
    members: tuple = ()


class Point:
    """A channel at which bounds are evaluated: user count k, common cross
    gain g (None unless the channel is symmetric), power p and, for K = 3,
    the channel itself."""

    def __init__(self, k: int, g: complex | None, p: float,
                 channel: Channel | None = None):
        self.k, self.g, self.p, self.channel = k, g, p, channel
        self._results: dict[str, BoundResult] = {}

    @classmethod
    def of(cls, channel: Channel) -> "Point":
        return cls(channel.k, channel.symmetric_gain(),
                   float(channel.power[0]), channel)

    def applies(self, name: str) -> bool:
        return _ADMITS[bound(name).scope](self)

    def evaluate(self, name: str) -> BoundResult:
        """The entry's result here, computed on first request; ValueError
        if the entry does not apply to this point."""
        entry = bound(name)
        if not self.applies(name):
            raise ValueError(f"bound {name!r} needs a {entry.scope} channel")
        if name not in self._results:
            self._results[name] = (
                bl.best_result([self.evaluate(m) for m in entry.members
                                if self.applies(m)])
                if entry.members else entry.run(self))
        return self._results[name]


def bound(name: str) -> Bound:
    try:
        return BOUNDS[name]
    except KeyError:
        raise ValueError(f"unknown bound {name!r}") from None


def _hybrid3(pt: Point) -> BoundResult:
    """The symmetric reduction where it applies, else the coordinate
    descent."""
    if pt.applies("hybrid3_sym"):
        return pt.evaluate("hybrid3_sym")
    return g3.hybrid_optimize(pt.channel)


def _affine(pt: Point) -> BoundResult:
    if pt.p <= 1.0 or abs(1.0 - complex(pt.g)) < 1e-12:
        return BoundResult.infeasible("affine", pt.k)
    return BoundResult.make("affine", pt.k,
                            pt.k * ku.affine_approx(pt.k, pt.p, pt.g))


def _lower(key: str):
    return lambda pt: bl.lower_bounds(pt.k, pt.g, pt.p).as_result(key)


BOUNDS: dict[str, Bound] = {
    "kramer2": Bound(UPPER, SYMMETRIC, lambda pt: bl.kramer_two_user(
        pt.p, pt.g, k_users=pt.k)),
    "etw2": Bound(UPPER, SYMMETRIC, lambda pt: bl.etw_two_user(
        pt.p, pt.g, k_users=pt.k)),
    "gen_kramer3": Bound(UPPER, SYMMETRIC3,
                         lambda pt: bl.gen_kramer_three(pt.channel)),
    "zchain3": Bound(UPPER, THREE_USER,
                     lambda pt: bl.z_extension_three(pt.channel)),
    "coi3": Bound(UPPER, THREE_USER, lambda pt: g3.coi_optimize(pt.channel)),
    "etkin3": Bound(UPPER, THREE_USER,
                    lambda pt: g3.etkin_optimize(pt.channel)),
    "hybrid3": Bound(UPPER, THREE_USER, _hybrid3),
    "hybrid3_sym": Bound(UPPER, SYMMETRIC3, lambda pt: (
        g3.hybrid_symmetric_bound(pt.p, pt.g))),
    "new_min": Bound(UPPER, THREE_USER,
                     members=("etkin3", "coi3", "hybrid3")),
    "best_upper": Bound(UPPER, THREE_USER, members=(
        "kramer2", "etw2", "gen_kramer3", "zchain3", "etkin3", "coi3",
        "hybrid3")),
    "cf_weak": Bound(UPPER, SYMMETRIC, lambda pt: ku.closed_form_weak(
        pt.k, pt.g, pt.p)),
    "cf_hybrid": Bound(UPPER, SYMMETRIC, lambda pt: ku.closed_form_hybrid(
        pt.k, pt.g, pt.p)),
    "cf_strong": Bound(UPPER, SYMMETRIC, lambda pt: (
        ku.closed_form_strong_search(pt.k, pt.g, pt.p))),
    "cf_best": Bound(UPPER, SYMMETRIC, lambda pt: ku.closed_form_best(
        pt.k, pt.g, pt.p)),
    "kuser_weak": Bound(UPPER, SYMMETRIC, lambda pt: ku.kuser_weak_optimize(
        pt.k, pt.g, pt.p)),
    "kuser_hybrid": Bound(UPPER, SYMMETRIC, lambda pt: (
        ku.kuser_hybrid_optimize(pt.k, pt.g, pt.p))),
    "affine": Bound(UPPER, SYMMETRIC, _affine),
    "tin": Bound(LOWER, SYMMETRIC, _lower("tin")),
    "tdm": Bound(LOWER, SYMMETRIC, _lower("tdm")),
    "snd": Bound(LOWER, SYMMETRIC, _lower("snd")),
    "lower_best": Bound(LOWER, SYMMETRIC, _lower("best")),
}
