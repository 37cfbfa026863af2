"""The benchmark's workloads: fixed batches of ``ptsl`` command lines.

Each workload is one batch of commands that ``ptsl.cli.main`` runs in order.
Only ``census`` depends on the seed: it draws the non-Hermitian strength of
every lattice with q <= 18 from ``CENSUS_LAMBDAS``.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from pathlib import Path

DELTA = 0.3
LAMBDA_MAX = 0.5
THRESHOLD_TOL = 1e-4  # the CLI's default --tol for threshold and sweep
KPOINTS = 512
EDGE_LAMBDA = 0.134
BANDS_Q = 60

SWEEP_Q_RANGE = (3, 20)
SWEEP_P_RANGE = (1, 18)
SWEEP_P_AT_Q = 19

CENSUS_Q = range(2, 19)
CENSUS_P = (1, 2)
# Every value of this grid passes for every census lattice with q <= 18 and
# every anchor (bench/census_grid.py checks it).  Just outside it the program
# fails: at p=1, q=18, lambda=0.115 (n0 = 4, 13) and 0.157 (n0 = 8) the edge
# census raises "polynomial unimodularity identity violated".
CENSUS_LAMBDAS = tuple(round(0.116 + 0.001 * i, 3) for i in range(41))
LARGE_Q = 19
# ``ptsl edges`` exits 1 at these anchors of p=1, q=19, lambda=0.134 with
# "polynomial unimodularity identity violated"
FAILING_ANCHORS = (13, 17)
FAILURE_MESSAGE = "polynomial unimodularity identity violated"

EVOLVE_Q = 6
EVOLVE_ANCHORS = (0, 1, 2, 4)
EVOLVE_TMAX = 100.0
EVOLVE_SAMPLES = 200

WARMUP_ARGV = ("edges", "--harper", "--delta", "0.3", "--lambda", "0.134", "--q", "6", "--n0", "1")


@dataclass(frozen=True)
class Command:
    """One ``ptsl`` invocation and what the checks need to know about it."""

    argv: tuple[str, ...]
    outputs: tuple[str, ...]  # data files it writes, relative to the work directory
    case: dict = field(default_factory=dict)  # workload parameters the checks read
    fails: bool = False  # exits 1 with FAILURE_MESSAGE (a known program fault)


def _harper(lam: float, p: int, q: int, n0: int) -> tuple[str, ...]:
    return (
        "--harper", "--delta", repr(DELTA), "--lambda", repr(lam),
        "--p", str(p), "--q", str(q), "--n0", str(n0),
    )


def sweep_commands(work: Path) -> list[Command]:
    family = ("--delta", repr(DELTA), "--lambda-max", repr(LAMBDA_MAX))
    q_lo, q_hi = SWEEP_Q_RANGE
    p_lo, p_hi = SWEEP_P_RANGE
    return [
        Command(
            ("sweep", *family, "--q-range", f"{q_lo}:{q_hi}", "--kpoints", str(KPOINTS),
             "--out", str(work / "sweep_q.csv")),
            ("sweep_q.csv",),
        ),
        Command(
            ("sweep", *family, "--p-range", f"{p_lo}:{p_hi}", "--q", str(SWEEP_P_AT_Q),
             "--kpoints", str(KPOINTS), "--out", str(work / "sweep_p.csv")),
            ("sweep_p.csv",),
        ),
        Command(
            ("threshold", *family, "--q-range", f"{q_lo}:{q_hi}", "--out", str(work / "threshold_q.csv")),
            ("threshold_q.csv",),
        ),
        Command(
            ("bands", *_harper(EDGE_LAMBDA, 1, BANDS_Q, 0), "--kpoints", str(KPOINTS),
             "--out", str(work / "bands.csv")),
            ("bands.csv",),
        ),
    ]


def census_lambdas(seed: int) -> dict[tuple[int, int], float]:
    """The strength of each census lattice (p, q) with q <= 18, drawn from the seed."""
    rng = random.Random(seed)
    return {
        (p, q): rng.choice(CENSUS_LAMBDAS)
        for q in CENSUS_Q
        for p in CENSUS_P
        if math.gcd(p, q) == 1
    }


def census_commands(work: Path, seed: int) -> list[Command]:
    cases = [(lam, p, q) for (p, q), lam in census_lambdas(seed).items()]
    cases.append((EDGE_LAMBDA, 1, LARGE_Q))
    commands = []
    for lam, p, q in cases:
        for n0 in range(q):
            name = f"edges_p{p}_q{q}_n{n0}.csv"
            commands.append(
                Command(
                    ("edges", *_harper(lam, p, q, n0), "--out", str(work / name)),
                    (name,),
                    {"lam": lam, "p": p, "q": q, "n0": n0},
                    fails=q == LARGE_Q and n0 in FAILING_ANCHORS,
                )
            )
    return commands


def evolve_commands(work: Path) -> list[Command]:
    commands = []
    for n0 in EVOLVE_ANCHORS:
        name = f"evolve_n{n0}.csv"
        commands.append(
            Command(
                ("evolve", *_harper(EDGE_LAMBDA, 1, EVOLVE_Q, n0), "--tmax", repr(EVOLVE_TMAX),
                 "--samples", str(EVOLVE_SAMPLES), "--out", str(work / name)),
                (name, f"evolve_n{n0}.summary.json"),
                {"n0": n0},
            )
        )
    return commands


WORKLOADS = ("sweep", "census", "evolve")


def commands(workload: str, work: Path, seed: int) -> list[Command]:
    if workload == "sweep":
        return sweep_commands(work)
    if workload == "census":
        return census_commands(work, seed)
    if workload == "evolve":
        return evolve_commands(work)
    raise ValueError(f"unknown workload {workload!r}")
