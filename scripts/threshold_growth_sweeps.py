#!/usr/bin/env python3
"""Threshold and growth-rate sweeps of the sinusoidal superlattice family.

Two ``ptsl sweep`` commands: lambda_c and sigma versus the period q at p = 1,
and versus the numerator p at fixed prime period q = 19.  The growth rate is
evaluated at lambda = delta, i.e. above threshold everywhere.  Prints the
exponential decay rate of sigma(q) and the spread of sigma over p.
"""

import argparse
import sys
from pathlib import Path

import numpy as np

from ptsl.cli import main as ptsl

SWEEP = ["sweep", "--delta", "0.3", "--lambda-max", "0.5", "--tol", "1e-4", "--kpoints", "512"]


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--outdir", type=Path, default=Path("out"))
    parser.add_argument("--qmax", type=int, default=20)
    args = parser.parse_args()
    args.outdir.mkdir(parents=True, exist_ok=True)

    q_path = args.outdir / "sweep_q.csv"
    if code := ptsl([*SWEEP, "--q-range", f"3:{args.qmax}", "--out", str(q_path)]):
        sys.exit(code)
    q, sigma = np.loadtxt(q_path, delimiter=",", skiprows=1, usecols=(0, 2)).T
    grows = sigma > 0
    slope = np.polyfit(q[grows], np.log(sigma[grows]), 1)[0]
    print(f"sigma(q) exponential decay rate over q=3..{args.qmax}: {-slope:.3f}")

    p_path = args.outdir / "sweep_p_q19.csv"
    if code := ptsl([*SWEEP, "--p-range", "1:18", "--q", "19", "--out", str(p_path)]):
        sys.exit(code)
    sigma = np.loadtxt(p_path, delimiter=",", skiprows=1, usecols=2)
    print(f"sigma over p at q=19: max/min = {sigma.max() / sigma.min():.3f}")


if __name__ == "__main__":
    main()
