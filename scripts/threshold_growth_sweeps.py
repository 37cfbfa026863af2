#!/usr/bin/env python3
"""Threshold and growth-rate sweeps of the sinusoidal superlattice family.

Two sweeps: lambda_c and sigma versus the period q at p = 1, and versus the
numerator p at fixed prime period q = 19.  The growth rate is evaluated at
lambda = delta, i.e. above threshold everywhere.
"""

import argparse
import math
from pathlib import Path

from ptsl import harper_family, sweep

DELTA = 0.3


def write_rows(path: Path, rows) -> None:
    with path.open("w", encoding="utf-8") as fh:
        fh.write("param,lambda_c,sigma\n")
        for row in rows:
            fh.write(f"{row.param},{row.lambda_c:.17g},{row.sigma:.17g}\n")
    print(f"wrote {path}")


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--outdir", type=Path, default=Path("out"))
    parser.add_argument("--qmax", type=int, default=20)
    args = parser.parse_args()
    args.outdir.mkdir(parents=True, exist_ok=True)

    q_rows = sweep(
        lambda q: harper_family(DELTA, 1, q),
        range(3, args.qmax + 1),
        lambda_max=0.5,
        sigma_lambda=DELTA,
        tol_lambda=1e-4,
        num_k=512,
    )
    write_rows(args.outdir / "sweep_q.csv", q_rows)
    fit = [(row.param, math.log(row.sigma)) for row in q_rows if row.sigma > 0]
    n = len(fit)
    sx = sum(q for q, _ in fit)
    sy = sum(s for _, s in fit)
    sxx = sum(q * q for q, _ in fit)
    sxy = sum(q * s for q, s in fit)
    slope = (n * sxy - sx * sy) / (n * sxx - sx * sx)
    print(f"sigma(q) exponential decay rate over q=3..{args.qmax}: {-slope:.3f}")

    p_rows = sweep(
        lambda p: harper_family(DELTA, p, 19),
        range(1, 19),
        lambda_max=0.5,
        sigma_lambda=DELTA,
        tol_lambda=1e-4,
        num_k=512,
    )
    write_rows(args.outdir / "sweep_p_q19.csv", p_rows)
    sigmas = [row.sigma for row in p_rows]
    print(f"sigma over p at q=19: max/min = {max(sigmas) / min(sigmas):.3f}")


if __name__ == "__main__":
    main()
