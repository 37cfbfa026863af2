#!/usr/bin/env python3
"""Edge-state census of the left-truncated q=6 superlattice, anchor by anchor.

For each anchor n0 the lattice is cut at a different position of the period;
the census lists all q-1 candidate energies with |s11| and classification,
plus the overall spectrum verdict.  Also sweeps the non-Hermitian strength
for the anchors that host edge states, tracing their complex energies.
"""

import argparse
from pathlib import Path

from ptsl import Classification, HarperParams, build_harper, edge_spectrum, spectrum_reality

DELTA, P, Q, LAM = 0.3, 1, 6, 0.134


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--outdir", type=Path, default=Path("out"))
    args = parser.parse_args()
    args.outdir.mkdir(parents=True, exist_ok=True)

    census_path = args.outdir / "census_q6.csv"
    with census_path.open("w", encoding="utf-8") as fh:
        fh.write("n0,re_E,im_E,abs_S11,class,loc_length\n")
        for n0 in range(Q):
            spec = build_harper(HarperParams(DELTA, LAM, P, Q, n0))
            records = edge_spectrum(spec)
            verdict = "real" if spectrum_reality(spec, records=records).real else "complex"
            print(f"n0 = {n0}  (spectrum {verdict})")
            for r in records:
                length = f"{r.localization_length:.17g}" if r.localization_length else ""
                fh.write(
                    f"{n0},{r.energy.real:.17g},{r.energy.imag:.17g},"
                    f"{r.s11_abs:.17g},{r.classification.value},{length}\n"
                )
                print(
                    f"    E = {r.energy.real:+.4f}{r.energy.imag:+.4f}i   "
                    f"|s11| = {r.s11_abs:.4f}   {r.classification.value}"
                )
    print(f"wrote {census_path}")

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
