"""Command-line front end.

Subcommands map one-to-one onto the analyses: ``bands`` (band-structure CSV
plus gap summary), ``threshold`` (symmetry-breaking point, optionally swept
over q), ``edges`` (truncation census with spectrum verdict), ``evolve``
(time propagation with growth-rate summary) and ``sweep`` (threshold and
growth rate over a q or p range).

Every output file gets a ``<name>.manifest.json`` sibling recording the
command, its full parameter set, the tool version and wall-clock duration;
re-running a command with the recorded parameters reproduces the data files
byte for byte.  Exit codes: 0 success, 1 numerical failure, 2 bad usage or
invalid lattice.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
import time
from pathlib import Path

import numpy as np

from . import __version__
from .bloch import band_gaps, band_structure, breaking_threshold, sweep
from .dynamics import (
    boundary_growth_rate,
    default_site_count,
    growth_rate_estimate,
    propagate,
    single_site_excitation,
)
from .edge import edge_spectrum, spectrum_reality
from .lattice import (
    HarperParams,
    LatticeError,
    ParametricLattice,
    build_harper,
    family_from_json,
    harper_family,
    spec_from_json,
)
from .numerics import NumericsError

__all__ = ["main"]


def _fmt(x: float) -> str:
    return f"{x:.17g}"


def _write_rows(fh, leads, blocks, first_index: int = 0) -> None:
    """Write the lines ``lead,index,value,...`` of each row block.

    ``blocks`` has shape ``(rows, n)`` or ``(rows, n, fields)``: block i
    gives n lines that start with ``_fmt(leads[i])``, then the line index
    counted from ``first_index``, then the fields of that line.  One line
    template, built once, formats a whole block; ``%.17g`` and ``_fmt``
    write the same text.
    """
    blocks = np.asarray(blocks, dtype=float)
    rows, n = blocks.shape[:2]
    blocks = blocks.reshape(rows, n, -1)
    fields = blocks.shape[2]
    line = ",%.17g" * fields + "\n"
    template = "".join(f"%s,{index}{line}" for index in range(first_index, first_index + n))
    args: list = [None] * (n * (fields + 1))
    for lead, block in zip(leads, blocks):
        args[:: fields + 1] = [_fmt(lead)] * n
        for f in range(fields):
            args[f + 1 :: fields + 1] = block[:, f].tolist()
        fh.write(template % tuple(args))


def _write_manifest(command: str, params: dict, outputs: list[Path], started: float) -> None:
    manifest = {
        "command": command,
        "parameters": params,
        "version": __version__,
        "outputs": [str(p) for p in outputs],
        "duration_s": time.monotonic() - started,
    }
    for out in outputs:
        path = out.with_name(out.name + ".manifest.json")
        path.write_text(json.dumps(manifest, indent=2) + "\n", encoding="utf-8")


def _add_family_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--delta", type=float, default=None, help="cosine amplitude")
    parser.add_argument("--p", type=int, default=1)
    parser.add_argument("--q", type=int, default=None)
    parser.add_argument("--n0", type=int, default=0, help="pattern anchor site")


def _add_lattice_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--lattice", metavar="FILE", help="lattice JSON file")
    parser.add_argument("--harper", action="store_true", help="use the Harper shorthand flags")
    _add_family_args(parser)
    parser.add_argument("--lambda", dest="lam", type=float, default=None, help="sine amplitude")


def _load_spec(args, parser: argparse.ArgumentParser):
    if args.lattice:
        with open(args.lattice, encoding="utf-8") as fh:
            return spec_from_json(json.load(fh))
    if args.harper:
        if args.delta is None or args.lam is None or args.q is None:
            parser.error("--harper needs --delta, --lambda and --q")
        return build_harper(
            HarperParams(delta=args.delta, lam=args.lam, p=args.p, q=args.q, n0=args.n0)
        )
    parser.error("provide --lattice FILE or --harper with its flags")


def _load_family(args, parser: argparse.ArgumentParser) -> ParametricLattice:
    if args.lattice:
        with open(args.lattice, encoding="utf-8") as fh:
            return family_from_json(json.load(fh))
    if args.delta is None or args.q is None:
        parser.error("provide --lattice FILE or --delta and --q")
    return harper_family(args.delta, args.p, args.q, args.n0)


def _parse_range(text: str, parser: argparse.ArgumentParser) -> range:
    try:
        lo, hi = (int(part) for part in text.split(":"))
    except ValueError:
        parser.error(f"range must look like a:b, got {text!r}")
    if lo > hi:
        parser.error(f"range {text!r} is empty: its start exceeds its end")
    return range(lo, hi + 1)


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def _cmd_bands(args, parser) -> int:
    started = time.monotonic()
    spec = _load_spec(args, parser)
    if args.kpoints < 2:
        parser.error("--kpoints must be at least 2")
    bands = band_structure(spec, args.kpoints)
    out = Path(args.out)
    with out.open("w", encoding="utf-8", newline="\n") as fh:
        fh.write("k,band_index,re_E,im_E\n")
        energies = bands.energies
        _write_rows(fh, bands.k_values, np.stack([energies.real, energies.imag], axis=-1))
    gaps = band_gaps(bands)
    widths = [hi - lo for lo, hi in gaps]
    print(f"bands: {bands.q}  k-points: {args.kpoints}  max |Im E|: {bands.max_abs_imag:.3e}")
    print(f"gaps: {len(gaps)}")
    for (lo, hi), width in zip(gaps, widths):
        print(f"  [{lo:+.4f}, {hi:+.4f}]  width {width:.4f}")
    _write_manifest("bands", _params(args), [out], started)
    return 0


def _cmd_threshold(args, parser) -> int:
    started = time.monotonic()
    if args.lambda_max <= 0:
        parser.error("--lambda-max must be positive")
    if args.q_range is not None:
        if args.lattice:
            parser.error("--q-range sweeps the Harper family; it cannot be combined with --lattice")
        qs = _parse_range(args.q_range, parser)
        if args.delta is None:
            parser.error("sweeping q needs --delta")
        results = [
            breaking_threshold(
                harper_family(args.delta, args.p, q, args.n0), args.lambda_max, tol_lambda=args.tol
            )
            for q in qs
        ]
        out = Path(args.out or "threshold_sweep.csv")
        with out.open("w", encoding="utf-8", newline="\n") as fh:
            fh.write("param,lambda_c\n")
            for q, result in zip(qs, results):
                lambda_c = math.inf if result.never_broken else result.lambda_c
                fh.write(f"{q},{_fmt(lambda_c)}\n")
        print(f"wrote {len(results)} rows to {out}")
        _write_manifest("threshold", _params(args), [out], started)
        return 0
    family = _load_family(args, parser)
    result = breaking_threshold(family, args.lambda_max, tol_lambda=args.tol)
    if result.never_broken:
        print(f"no symmetry breaking up to lambda_max = {args.lambda_max}")
    else:
        lo, hi = result.bracket
        print(f"lambda_c = {result.lambda_c:.6f}  (bracket [{lo:.6f}, {hi:.6f}])")
        if result.transitions > 1:
            print(f"warning: {result.transitions} transitions found; first reported")
    if args.out:
        out = Path(args.out)
        out.write_text(
            json.dumps(
                {
                    "lambda_c": result.lambda_c,
                    "bracket": list(result.bracket),
                    "never_broken": result.never_broken,
                    "transitions": result.transitions,
                },
                indent=2,
            )
            + "\n",
            encoding="utf-8",
        )
        _write_manifest("threshold", _params(args), [out], started)
    return 0


def _cmd_edges(args, parser) -> int:
    started = time.monotonic()
    spec = _load_spec(args, parser)
    records = edge_spectrum(spec)
    reality = spectrum_reality(spec, records=records)
    print("re_E      im_E      |s11|    class            loc_length")
    for r in records:
        length = f"{r.localization_length:.4f}" if r.localization_length else ""
        print(
            f"{r.energy.real:+.4f}  {r.energy.imag:+.4f}  {r.s11_abs:.4f}  "
            f"{r.classification.value:<16} {length}"
        )
    print(f"spectrum: {'real' if reality.real else 'complex'}")
    if args.out:
        out = Path(args.out)
        with out.open("w", encoding="utf-8", newline="\n") as fh:
            fh.write("re_E,im_E,abs_S11,class,loc_length\n")
            for r in records:
                length = _fmt(r.localization_length) if r.localization_length else ""
                fh.write(
                    f"{_fmt(r.energy.real)},{_fmt(r.energy.imag)},{_fmt(r.s11_abs)},"
                    f"{r.classification.value},{length}\n"
                )
        _write_manifest("edges", _params(args), [out], started)
    return 0


def _cmd_evolve(args, parser) -> int:
    started = time.monotonic()
    spec = _load_spec(args, parser)
    if not (args.tmax > 0 and math.isfinite(args.tmax)):
        parser.error("--tmax must be positive and finite")
    n_sites = default_site_count(spec, args.tmax) if args.sites is None else args.sites
    psi0 = single_site_excitation(n_sites, args.excite)
    result = propagate(spec, psi0, args.tmax, num_samples=args.samples)
    if args.fit_window:
        try:
            t1, t2 = (float(part) for part in args.fit_window.split(":"))
        except ValueError:
            parser.error(f"--fit-window must look like t1:t2, got {args.fit_window!r}")
    else:
        t1, t2 = args.tmax / 2.0, args.tmax
    window = (t1, t2)
    summary = {
        "sites": n_sites,
        "t_max": args.tmax,
        "fit_window": [t1, t2],
        "growth_rate_total_norm": growth_rate_estimate(result, window),
        "growth_rate_boundary": boundary_growth_rate(result, window),
        "boundary_reach": result.boundary_reach_flag,
        "final_total_norm": float(result.total_norm[-1]),
    }
    out = Path(args.out)
    with out.open("w", encoding="utf-8", newline="\n") as fh:
        fh.write("t,site,intensity\n")
        _write_rows(fh, result.sample_times, result.intensities, first_index=1)
    summary_path = out.with_suffix(".summary.json")
    summary_path.write_text(json.dumps(summary, indent=2) + "\n", encoding="utf-8")
    print(
        f"growth rate (total norm): {summary['growth_rate_total_norm']:+.6f}   "
        f"(boundary): {summary['growth_rate_boundary']:+.6f}"
    )
    if result.boundary_reach_flag:
        print("warning: wavefront reached the far boundary; increase --sites")
    _write_manifest("evolve", _params(args), [out, summary_path], started)
    return 0


def _cmd_sweep(args, parser) -> int:
    started = time.monotonic()
    if (args.q_range is None) == (args.p_range is None):
        parser.error("provide exactly one of --q-range or --p-range")
    if args.delta is None:
        parser.error("sweep needs --delta")
    if args.lambda_max <= 0:
        parser.error("--lambda-max must be positive")
    if args.sigma_lambda == "delta":
        sigma_lambda = args.delta
    else:
        try:
            sigma_lambda = float(args.sigma_lambda)
        except ValueError:
            parser.error(f"--sigma-lambda must be a number or 'delta', got {args.sigma_lambda!r}")
    if args.q_range is not None:
        params = list(_parse_range(args.q_range, parser))
        make_family = lambda q: harper_family(args.delta, args.p, q, args.n0)  # noqa: E731
    else:
        if args.q is None:
            parser.error("--p-range needs a fixed --q")
        params = list(_parse_range(args.p_range, parser))
        make_family = lambda p: harper_family(args.delta, p, args.q, args.n0)  # noqa: E731
    rows = sweep(
        make_family,
        params,
        lambda_max=args.lambda_max,
        sigma_lambda=sigma_lambda,
        tol_lambda=args.tol,
        num_k=args.kpoints,
    )
    out = Path(args.out)
    with out.open("w", encoding="utf-8", newline="\n") as fh:
        fh.write("param,lambda_c,sigma\n")
        for row in rows:
            fh.write(f"{row.param},{_fmt(row.lambda_c)},{_fmt(row.sigma)}\n")
    print(f"wrote {len(rows)} rows to {out}")
    _write_manifest("sweep", _params(args), [out], started)
    return 0


# ---------------------------------------------------------------------------
# wiring
# ---------------------------------------------------------------------------


def _params(args) -> dict:
    return {k: v for k, v in vars(args).items() if k != "func"}


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The parser, built once per process; parse_args leaves it unchanged."""
    parser = argparse.ArgumentParser(
        prog="ptsl",
        description="PT-symmetric superlattice analysis: bands, thresholds, edge states, propagation",
    )
    parser.add_argument("--version", action="version", version=f"ptsl {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    # no prefix matching: threshold and sweep would read --lambda as --lambda-max
    add = functools.partial(sub.add_parser, allow_abbrev=False)

    p = add("bands", help="band structure CSV and gap summary")
    _add_lattice_args(p)
    p.add_argument("--kpoints", type=int, default=256)
    p.add_argument("--out", default="bands.csv")
    p.set_defaults(func=_cmd_bands)

    p = add("threshold", help="symmetry-breaking threshold (optionally swept over q)")
    p.add_argument("--lattice", metavar="FILE", help="lattice JSON file")
    _add_family_args(p)
    p.add_argument("--lambda-max", type=float, default=1.0)
    p.add_argument("--tol", type=float, default=1e-4)
    p.add_argument("--q-range", metavar="A:B", default=None)
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_threshold)

    p = add("edges", help="truncation census and spectrum verdict")
    _add_lattice_args(p)
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_edges)

    p = add("evolve", help="time propagation of a single-site excitation")
    _add_lattice_args(p)
    p.add_argument("--tmax", type=float, default=30.0)
    p.add_argument("--sites", type=int, default=None)
    p.add_argument("--excite", type=int, default=1)
    p.add_argument("--samples", type=int, default=200)
    p.add_argument("--fit-window", metavar="T1:T2", default=None)
    p.add_argument("--out", default="intensity.csv")
    p.set_defaults(func=_cmd_evolve)

    p = add("sweep", help="threshold and growth rate over a q or p range")
    _add_family_args(p)
    p.add_argument("--q-range", metavar="A:B", default=None)
    p.add_argument("--p-range", metavar="A:B", default=None)
    p.add_argument("--sigma-lambda", default="delta", help="strength for the growth rate")
    p.add_argument("--lambda-max", type=float, default=1.0)
    p.add_argument("--tol", type=float, default=1e-4)
    p.add_argument("--kpoints", type=int, default=256)
    p.add_argument("--out", default="sweep.csv")
    p.set_defaults(func=_cmd_sweep)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args, parser)
    except (LatticeError, ValueError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (NumericsError, FloatingPointError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
