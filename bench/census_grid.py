"""Check that every value of ``CENSUS_LAMBDAS`` passes for every census lattice.

    python3 bench/census_grid.py

Runs ``ptsl edges`` for every lattice with q <= 18 of the census workload, at
every anchor and every strength of the grid, and applies the census output
checks.  Prints one line per strength and exits 1 if any command failed or any
check did not pass.  It takes about four seconds per strength.
"""

import importlib
import os
import sys
from dataclasses import replace

import run
import workloads as wl


def main() -> int:
    for var in run.BLAS_THREAD_VARS:
        os.environ[var] = "1"
    sys.path.insert(0, str(run.SRC))
    import checks

    cli = importlib.import_module("ptsl.cli")
    work = run.RUNS / "census_grid"
    work.mkdir(parents=True, exist_ok=True)
    base = [cmd for cmd in wl.census_commands(work, 0) if cmd.case["q"] <= max(wl.CENSUS_Q)]
    bad = 0
    for lam in wl.CENSUS_LAMBDAS:
        commands = []
        for cmd in base:
            argv = list(cmd.argv)
            argv[argv.index("--lambda") + 1] = repr(lam)
            commands.append(replace(cmd, argv=tuple(argv), case={**cmd.case, "lam": lam}))
        for stale in work.iterdir():
            stale.unlink()
        errors = run.outcome_errors(commands, [run.run_command(cli, c.argv) for c in commands])
        errors = errors or checks.check_census(work, commands)[0]
        bad += bool(errors)
        print(f"lambda={lam}: {len(commands)} commands, {len(errors)} errors", *errors[:3], sep="\n  ")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
