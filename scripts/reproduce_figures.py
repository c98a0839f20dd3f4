#!/usr/bin/env python3
"""Regenerate the canned figure-style CSV datasets and the eval panel, print
one ``name sha256`` line per CSV written, and compare each digest with the
reference list in ``scripts/panel.sha256``.

The eval panel is six single-point ``gicbounds eval`` tables at P = 10:
K = 3 with every bound at g = 0.3, 0.7, 1, 1.5 and 0.5+0.5i
(eval3_0 .. eval3_4), and K = 5 at g = 0.6 with the bounds that apply to
any K (eval5).  Together with the figures these are the 32 CSVs whose
digests tell whether a change moved any output byte.  The script exits 1
and names every CSV whose digest differs from the reference (in
``sha256sum`` format, so ``sha256sum -c`` reads it too); a change that moves
outputs on purpose regenerates that file.

Usage:
    python scripts/reproduce_figures.py [--out DIR] [--threads N] [--only id ...]

fig12 and the surfaces take a few minutes at full resolution; pass --only to
restrict the set of figures.
"""

import argparse
import hashlib
import os
import sys
import time

from gicbounds.bounds import BOUNDS, SYMMETRIC
from gicbounds.cli import main as cli_main
from gicbounds.sweep import FIGURE_IDS, reproduce

PANEL = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                     "panel.sha256")
EVAL3_GAINS = ("0.3", "0.7", "1", "1.5", "0.5+0.5i")
ANY_K_BOUNDS = ",".join(sorted(n for n, b in BOUNDS.items()
                               if b.scope == SYMMETRIC))


def eval_panel(outdir: str, threads: int) -> list[str]:
    """Write the six eval CSVs; returns their paths."""
    runs = [(f"eval3_{i}.csv", ["--k", "3", "--g", g, "--bounds", "all"])
            for i, g in enumerate(EVAL3_GAINS)]
    runs.append(("eval5.csv", ["--k", "5", "--g", "0.6",
                               "--bounds", ANY_K_BOUNDS]))
    paths = []
    for name, args in runs:
        path = os.path.join(outdir, name)
        code = cli_main(["eval", "--p", "10", "--threads", str(threads),
                         "--out", path] + args)
        if code != 0:
            raise RuntimeError(f"{name}: gicbounds eval exited {code}")
        paths.append(path)
    return paths


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--out", default="out")
    ap.add_argument("--threads", type=int, default=1)
    ap.add_argument("--only", nargs="*", choices=FIGURE_IDS, default=None)
    args = ap.parse_args()

    os.makedirs(args.out, exist_ok=True)
    written = []
    for fid in args.only or FIGURE_IDS:
        t0 = time.time()
        paths = reproduce(fid, args.out, threads=args.threads)
        print(f"{fid}: {len(paths)} file(s) in {time.time() - t0:.1f}s")
        written += paths
    t0 = time.time()
    paths = eval_panel(args.out, args.threads)
    print(f"eval: {len(paths)} file(s) in {time.time() - t0:.1f}s")
    written += paths
    with open(PANEL, encoding="utf-8") as fh:
        reference = {name: digest for digest, name in
                     (line.split() for line in fh if line.strip())}
    mismatched = []
    for path in sorted(written):
        with open(path, "rb") as fh:
            digest = hashlib.sha256(fh.read()).hexdigest()
        name = os.path.basename(path)
        print(f"{os.path.splitext(name)[0]} {digest}")
        if reference.get(name) != digest:
            mismatched.append(name)
    for name in mismatched:
        print(f"MISMATCH {name}: expected {reference.get(name, 'no entry')}",
              file=sys.stderr)
    return 1 if mismatched else 0


if __name__ == "__main__":
    sys.exit(main())
