#!/usr/bin/env python3
"""Edge-state census of the left-truncated q=6 superlattice, anchor by anchor.

For each anchor n0 the lattice is cut at a different position of the period;
``ptsl edges`` lists all q-1 candidate energies with |s11| and classification,
plus the overall spectrum verdict, and writes them to one CSV per anchor.
Also sweeps the non-Hermitian strength for the anchors that host edge states,
tracing their complex energies.
"""

import argparse
import sys
from pathlib import Path

from ptsl import Classification, HarperParams, build_harper, edge_spectrum
from ptsl.cli import main as ptsl

DELTA, P, Q, LAM = 0.3, 1, 6, 0.134


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--outdir", type=Path, default=Path("out"))
    args = parser.parse_args()
    args.outdir.mkdir(parents=True, exist_ok=True)

    for n0 in range(Q):
        print(f"n0 = {n0}")
        argv = [
            "edges", "--harper", "--delta", str(DELTA), "--lambda", str(LAM), "--p", str(P),
            "--q", str(Q), "--n0", str(n0), "--out", str(args.outdir / f"edges_q6_n0_{n0}.csv"),
        ]
        if code := ptsl(argv):
            sys.exit(code)

    # no command writes this trace, so it stays on the library
    trace_path = args.outdir / "edge_energies_vs_lambda.csv"
    with trace_path.open("w", encoding="utf-8") as fh:
        fh.write("n0,lambda,re_E,im_E,abs_S11\n")
        for n0 in (1, 2):
            for step in range(1, 49):
                lam = 0.005 * step
                spec = build_harper(HarperParams(DELTA, lam, P, Q, n0))
                for r in edge_spectrum(spec):
                    if r.classification is Classification.EDGE:
                        fh.write(
                            f"{n0},{lam:.3f},{r.energy.real:.17g},"
                            f"{r.energy.imag:.17g},{r.s11_abs:.17g}\n"
                        )
    print(f"wrote {trace_path}")


if __name__ == "__main__":
    main()
