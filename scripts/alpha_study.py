#!/usr/bin/env python3
"""Where do the new genie bounds beat the prior-art bounds?

Sweeps alpha = log INR / log SNR for the three-user symmetric real channel
and prints the interval where the bound table's ``new_min`` (change of
interference, Etkin-type, hybrid) is strictly below every prior-art bound:
the ``best_upper`` members that are not ``new_min`` members.

Usage: python scripts/alpha_study.py [--p 10] [--start -1] [--stop 2] [--step 0.05]
"""

import argparse
import math
import sys

from gicbounds import baselines as bl
from gicbounds.bounds import Point, bound
from gicbounds.channel import alpha_to_gain, make_symmetric

PRIOR_ART = [m for m in bound("best_upper").members
             if m not in bound("new_min").members]


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--p", type=float, default=10.0)
    ap.add_argument("--start", type=float, default=-1.0)
    ap.add_argument("--stop", type=float, default=2.0)
    ap.add_argument("--step", type=float, default=0.05)
    args = ap.parse_args()

    p = args.p
    print(f"P = {p:g} (SNR = {10 * math.log10(p):.1f} dB)")
    print(f"{'alpha':>6} {'new':>9} {'baseline':>9} {'lower':>9}  winner")
    strict_from = strict_to = None
    a = args.start
    while a <= args.stop + 1e-9:
        g = math.sqrt(alpha_to_gain(a, p))
        pt = Point.of(make_symmetric(3, g, p))
        new = pt.evaluate("new_min")
        base = bl.best_result([pt.evaluate(m) for m in PRIOR_ART
                               if pt.applies(m)])
        low = bl.lower_bounds(3, g, p).normalized("best")
        strict = new.normalized < base.normalized - 1e-9
        mark = "*new*" if strict else base.name
        print(f"{a:6.2f} {new.normalized:9.5f} {base.normalized:9.5f} "
              f"{low:9.5f}  {mark}")
        if strict and strict_from is None:
            strict_from = a
        if strict:
            strict_to = a
        a += args.step
    if strict_from is not None:
        print(f"\nnew bounds strictly tightest on roughly "
              f"[{strict_from:.2f}, {strict_to:.2f}]")
    return 0


if __name__ == "__main__":
    sys.exit(main())
