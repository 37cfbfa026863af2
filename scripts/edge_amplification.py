#!/usr/bin/env python3
"""Single-site excitation dynamics of the truncated q=6 superlattice.

Propagates a left-boundary excitation with ``ptsl evolve`` for four anchor
choices: no edge states (n0 = 0, plain discrete diffraction), one amplified
edge state (n0 = 1), four edge states (n0 = 2) and one damped edge state
(n0 = 4).  Each command writes a t/site intensity map with its summary and
manifest, and prints both growth-rate estimators.
"""

import argparse
import sys
from pathlib import Path

from ptsl.cli import main as ptsl

HARPER = ["--harper", "--delta", "0.3", "--lambda", "0.134", "--q", "6"]


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--outdir", type=Path, default=Path("out"))
    parser.add_argument("--sites", type=int, default=200)
    parser.add_argument("--tmax", type=float, default=30.0)
    parser.add_argument("--samples", type=int, default=201)
    args = parser.parse_args()
    args.outdir.mkdir(parents=True, exist_ok=True)

    for n0 in (0, 1, 2, 4):
        print(f"n0 = {n0}")
        argv = [
            "evolve", *HARPER, "--n0", str(n0), "--sites", str(args.sites), "--tmax", str(args.tmax),
            "--samples", str(args.samples), "--out", str(args.outdir / f"intensity_n0_{n0}.csv"),
        ]
        if code := ptsl(argv):
            sys.exit(code)


if __name__ == "__main__":
    main()
