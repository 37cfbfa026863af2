#!/usr/bin/env python3
"""Band diagrams of the q=6 sinusoidal superlattice below and at threshold.

Runs ``ptsl threshold`` to locate the breaking point, then ``ptsl bands`` at
the hermitian point, below threshold and at the located threshold; each
command prints its gap summary and writes its data file with a manifest.
Plot re_E against k per band_index to reproduce the band-and-gap pictures.
"""

import argparse
import json
import sys
from pathlib import Path

from ptsl.cli import main as ptsl

HARPER = ["--delta", "0.3", "--q", "6"]


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--outdir", type=Path, default=Path("out"))
    parser.add_argument("--kpoints", type=int, default=512)
    args = parser.parse_args()
    args.outdir.mkdir(parents=True, exist_ok=True)

    threshold = args.outdir / "threshold_q6.json"
    if code := ptsl(["threshold", *HARPER, "--lambda-max", "0.5", "--tol", "1e-5", "--out", str(threshold)]):
        sys.exit(code)
    lam_c = json.loads(threshold.read_text(encoding="utf-8"))["lambda_c"]
    for tag, lam in (("hermitian", "0"), ("below", "0.134"), ("critical", repr(lam_c))):
        out = args.outdir / f"bands_q6_{tag}.csv"
        argv = ["bands", "--harper", *HARPER, "--lambda", lam, "--kpoints", str(args.kpoints), "--out", str(out)]
        if code := ptsl(argv):
            sys.exit(code)


if __name__ == "__main__":
    main()
