"""Command-line front end.

Subcommands map one-to-one onto the analyses: ``bands`` (band-structure CSV
plus gap summary), ``threshold`` (symmetry-breaking point, optionally swept
over q), ``edges`` (truncation census with spectrum verdict), ``evolve``
(time propagation with growth-rate summary) and ``sweep`` (threshold and
growth rate over a q or p range; at ``--sigma-lambda`` equal to ``--delta``
the growth rate is :func:`ptsl.bloch.harper_growth_rate`'s closed form).

Each subcommand returns the files it wrote, and ``main`` gives each of them a
``<name>.manifest.json`` sibling once the command has succeeded, recording
the command, its full parameter set, the tool version and wall-clock duration;
re-running a command with the recorded parameters reproduces the data files
byte for byte.  Exit codes: 0 success, 1 numerical failure (an array too
large for memory included), 2 bad usage or invalid lattice: argparse
reports a malformed command line under the subcommand's usage, and ``main``
prints any other ``ValueError`` as ``error: ...``.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import math
import sys
import time
from pathlib import Path

import numpy as np

from . import __version__, bloch
from .bloch import band_gaps, band_structure, breaking_threshold, harper_growth_rate, max_growth_rate
from .dynamics import (
    _check_run,
    _window_mask,
    boundary_growth_rate,
    default_site_count,
    growth_rate_estimate,
    propagate,
    single_site_excitation,
)
from .edge import edge_spectrum, spectrum_reality
from .lattice import ParametricLattice, family_from_json, harper_family
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


def _write_table(out: Path, header: str, rows) -> None:
    """Write ``header`` and one line per row: a str field as is, a number with ``_fmt``."""
    with out.open("w", encoding="utf-8", newline="\n") as fh:
        fh.write(header + "\n")
        for row in rows:
            fh.write(",".join(f if isinstance(f, str) else _fmt(f) for f in row) + "\n")


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


def _add_family_args(command: argparse.ArgumentParser) -> None:
    command.add_argument("--delta", type=float, default=None, help="cosine amplitude")
    command.add_argument("--p", type=int, default=1)
    command.add_argument("--q", type=int, default=None)
    command.add_argument("--n0", type=int, default=0, help="pattern anchor site")


def _add_lattice_args(command: argparse.ArgumentParser) -> None:
    source = command.add_mutually_exclusive_group(required=True)
    source.add_argument("--lattice", metavar="FILE", help="lattice JSON file")
    source.add_argument("--harper", action="store_true", help="use the Harper shorthand flags")
    _add_family_args(command)
    command.add_argument("--lambda", dest="lam", type=float, default=None, help="sine amplitude")


# the Harper flags that a lattice file would override; --p and --n0 have defaults
_HARPER_FLAGS = {"delta": "--delta", "lam": "--lambda", "q": "--q"}


def _load_family(args) -> tuple[ParametricLattice, float | None]:
    """The family of ``--lattice FILE`` or of the Harper flags, and the strength given for it."""
    if args.lattice is not None:
        given = [flag for dest, flag in _HARPER_FLAGS.items() if vars(args).get(dest) is not None]
        if given:
            raise ValueError(f"--lattice cannot be combined with {', '.join(given)}")
        with open(args.lattice, encoding="utf-8") as fh:
            return family_from_json(json.load(fh))
    if args.delta is None or args.q is None:
        raise ValueError("provide --lattice FILE or --delta and --q")
    return harper_family(args.delta, args.p, args.q, args.n0), vars(args).get("lam")


def _load_spec(args):
    if args.harper and None in (args.delta, args.lam, args.q):
        raise ValueError("--harper needs --delta, --lambda and --q")
    family, lam = _load_family(args)
    return family.at(lam)


def _parse_range(text: str) -> range:
    try:
        lo, hi = (int(part) for part in text.split(":"))
    except ValueError:
        raise ValueError(f"range must look like a:b, got {text!r}") from None
    if lo > hi:
        raise ValueError(f"range {text!r} is empty: its start exceeds its end")
    return range(lo, hi + 1)


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def _cmd_bands(args) -> list[Path]:
    spec = _load_spec(args)
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
    return [out]


def _lambda_c(family: ParametricLattice, args) -> float:
    """The family's lambda_c, or inf when it never breaks up to --lambda-max."""
    result = breaking_threshold(family, args.lambda_max, tol_lambda=args.tol)
    return math.inf if result.never_broken else result.lambda_c


def _cmd_threshold(args) -> list[Path]:
    if args.q_range is not None:
        qs = _parse_range(args.q_range)
        if args.delta is None:
            raise ValueError("sweeping q needs --delta")
        rows = [(str(q), _lambda_c(harper_family(args.delta, args.p, q, args.n0), args)) for q in qs]
        out = Path(args.out or "threshold_sweep.csv")
        _write_table(out, "param,lambda_c", rows)
        print(f"wrote {len(rows)} rows to {out}")
        return [out]
    family, _ = _load_family(args)
    result = breaking_threshold(family, args.lambda_max, tol_lambda=args.tol)
    if result.never_broken:
        print(f"no symmetry breaking up to lambda_max = {args.lambda_max}")
    else:
        lo, hi = result.bracket
        print(f"lambda_c = {result.lambda_c:.6f}  (bracket [{lo:.6f}, {hi:.6f}])")
        if result.transitions > 1:
            print(f"warning: {result.transitions} transitions found; first reported")
    if not args.out:
        return []
    out = Path(args.out)
    out.write_text(json.dumps(dataclasses.asdict(result), indent=2) + "\n", encoding="utf-8")
    return [out]


def _cmd_edges(args) -> list[Path]:
    spec = _load_spec(args)
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
    if not args.out:
        return []
    out = Path(args.out)
    rows = [
        (r.energy.real, r.energy.imag, r.s11_abs, r.classification.value, r.localization_length or "")
        for r in records
    ]
    _write_table(out, "re_E,im_E,abs_S11,class,loc_length", rows)
    return [out]


def _cmd_evolve(args) -> list[Path]:
    spec = _load_spec(args)
    if args.fit_window:
        try:
            t1, t2 = (float(part) for part in args.fit_window.split(":"))
        except ValueError:
            raise ValueError(f"--fit-window must look like t1:t2, got {args.fit_window!r}") from None
    else:
        t1, t2 = args.tmax / 2.0, args.tmax
    window = (t1, t2)
    n_sites = default_site_count(spec, args.tmax) if args.sites is None else args.sites
    psi0 = single_site_excitation(n_sites, args.excite)
    _check_run(spec, n_sites, args.tmax, args.samples)  # first, so the grid below fits in memory
    _window_mask(np.linspace(0.0, args.tmax, args.samples), window)  # propagate's times, before a long run
    result = propagate(spec, psi0, args.tmax, num_samples=args.samples)
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
    return [out, summary_path]


def _cmd_sweep(args) -> list[Path]:
    if args.delta is None:
        raise ValueError("sweep needs --delta")
    if args.sigma_lambda == "delta":
        sigma_lambda = args.delta
    else:
        try:
            sigma_lambda = float(args.sigma_lambda)
        except ValueError:
            raise ValueError(f"--sigma-lambda must be a number or 'delta', got {args.sigma_lambda!r}") from None
    if args.q_range is not None:
        params = _parse_range(args.q_range)
        make_family = lambda q: harper_family(args.delta, args.p, q, args.n0)  # noqa: E731
    else:
        if args.q is None:
            raise ValueError("--p-range needs a fixed --q")
        params = _parse_range(args.p_range)
        make_family = lambda p: harper_family(args.delta, p, args.q, args.n0)  # noqa: E731
    bloch._check_matrix_size(params[-1] if args.q_range is not None else args.q)  # before row one builds its family
    rows = []
    for param in params:
        family = make_family(param)
        # sigma first: a bad --sigma-lambda or --kpoints exits before any threshold is solved
        if sigma_lambda == args.delta:
            sigma = harper_growth_rate(args.delta, family.q, num_k=args.kpoints)
        else:
            sigma = max_growth_rate(family.at(sigma_lambda), num_k=args.kpoints)
        rows.append((str(param), _lambda_c(family, args), sigma))
    out = Path(args.out)
    _write_table(out, "param,lambda_c,sigma", rows)
    print(f"wrote {len(rows)} rows to {out}")
    return [out]


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
    source = p.add_mutually_exclusive_group()
    source.add_argument("--lattice", metavar="FILE", help="lattice JSON file")
    _add_family_args(p)
    p.add_argument("--lambda-max", type=float, default=1.0)
    p.add_argument("--tol", type=float, default=1e-4)
    source.add_argument("--q-range", metavar="A:B", default=None)
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
    span = p.add_mutually_exclusive_group(required=True)
    span.add_argument("--q-range", metavar="A:B", default=None)
    span.add_argument("--p-range", metavar="A:B", default=None)
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
    started = time.monotonic()
    try:
        outputs = args.func(args)
        _write_manifest(args.command, _params(args), outputs, started)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (NumericsError, FloatingPointError, MemoryError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
