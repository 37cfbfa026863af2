"""Benchmark of ptsl: one workload per invocation, driven through ``ptsl.cli.main``.

    python3 bench/run.py --workload {sweep,census,evolve} --seed N --seconds S --trace {0,1}

Run from the root of a source checkout; the package is imported from
``src/``.  The process runs on one thread: the BLAS pool is pinned to one
thread and ``PT_SL_THREADS`` is removed before ptsl is imported.  After a
cold set-up (import of ``ptsl.cli`` and one warm-up ``edges`` command) the
workload's fixed batch of commands runs repeatedly for about S seconds, with
the host-speed kernel of ``calibrate.py`` run while its commands run.  Every
output file is checked against a computation made apart from ptsl.

With ``--trace 0`` the last line of standard output is a JSON object with
the end-to-end metrics (see ``normalised_seconds``).  With ``--trace 1`` each
untraced batch is followed by a traced one, and the JSON object carries the
per-layer metrics; the spans of the last traced batch are written to
``bench/runs/<workload>.spans.jsonl``.  See README.md.
"""

import time

_STARTED = time.perf_counter()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import hashlib  # noqa: E402
import importlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

import tracing  # noqa: E402
import workloads as wl  # noqa: E402

BENCH = Path(__file__).resolve().parent
SRC = BENCH.parent / "src"
RUNS = BENCH / "runs"
MODULES = ("cli", "bloch", "edge", "transfer", "dynamics", "numerics", "lattice")
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=wl.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def run_command(cli, argv) -> tuple[int, str]:
    """One in-process ``ptsl`` call; returns its exit code and its printed text."""
    sink = io.StringIO()
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        try:
            code = cli.main(list(argv))
        except SystemExit as exc:  # argparse rejects the command line
            code = exc.code if isinstance(exc.code, int) else 2
    return code, sink.getvalue()


def run_batch(cli, commands, sampler=None) -> tuple[list[float], list[float], list[tuple[int, str]]]:
    """The workload's batch once: per-command wall seconds, CPU seconds and results.

    A ``calibrate.Sampler`` runs the host-speed kernel while each command
    runs; the kernel's own seconds are taken out of the command's.
    """
    walls, cpus, results = [], [], []
    for cmd in commands:
        spent = (sampler.spent_wall, sampler.spent_cpu) if sampler is not None else None
        wall, cpu = time.perf_counter(), time.process_time()
        with sampler or contextlib.nullcontext():
            results.append(run_command(cli, cmd.argv))
        cpu = time.process_time() - cpu
        wall = time.perf_counter() - wall
        if spent is not None:
            wall -= sampler.spent_wall - spent[0]
            cpu -= sampler.spent_cpu - spent[1]
        walls.append(wall)
        cpus.append(cpu)
    return walls, cpus, results


def batch_seconds(batches: list[list[float]]) -> float:
    """Time of one batch: the median of each command over the batches, summed.

    On a shared machine the speed changes every few seconds; per-command
    medians shed those slow phases better than the median of whole batches,
    and vary less from run to run than per-command minima (see README.md).
    """
    return sum(statistics.median(times) for times in zip(*batches))


def normalised_seconds(batches: list[list[float]], reps: list[list[float]], reference: float) -> float:
    """``batch_seconds`` of the times divided by the host's speed factor.

    Each batch's times are divided by the median of the kernel repetitions
    run while its commands ran, over ``reference``.  The host's speed changes
    over minutes by more than a run's own noise, and the kernel, which does
    not use ptsl, slows down with it.
    """
    factors = [statistics.median(batch_reps) / reference for batch_reps in reps]
    return batch_seconds([[t / f for t in batch] for batch, f in zip(batches, factors)])


def outcome_errors(commands, results) -> list[str]:
    """Commands that did not end as the workload expects."""
    errors = []
    for cmd, (code, text) in zip(commands, results):
        if cmd.fails:
            ok = code == 1 and wl.FAILURE_MESSAGE in text
        else:
            ok = code == 0
        if not ok:
            errors.append(f"ptsl {' '.join(cmd.argv)}: exit {code}: {text.strip()[-300:]}")
    return errors


def outputs_digest(work: Path, commands) -> str:
    digest = hashlib.sha256()
    for cmd in commands:
        if not cmd.fails:
            for name in cmd.outputs:
                digest.update((work / name).read_bytes())
    return digest.hexdigest()


def layer_metrics(tracer, commands, work: Path) -> dict[str, float]:
    calls, inclusive, own = tracer.totals()

    def layer_self(layer: str) -> float:
        return sum((s for name, s in own.items() if name.split(".", 1)[0] == layer), 0.0)

    def ratio(useful: float, attempted: float) -> float:
        return useful / attempted if attempted else 0.0

    steps = sum(run[0] for run in tracer.ode_runs)
    rhs_calls = sum(run[1] for run in tracer.ode_runs)
    # every attempted Dormand-Prince step costs six evaluations after the first
    attempted_steps = sum((run[1] - 1) // 6 for run in tracer.ode_runs)
    edges_commands = sum(1 for cmd in commands if cmd.argv[0] == "edges")
    # one growth rate per data row of a ``sweep`` output
    growth_written = sum(
        len((work / cmd.outputs[0]).read_text(encoding="utf-8").splitlines()) - 1
        for cmd in commands
        if cmd.argv[0] == "sweep"
    )
    return {
        "cli.main.calls": calls["cli.main"],
        "cli.self_s": layer_self("cli"),
        "cli.output_bytes": sum(
            (work / name).stat().st_size for cmd in commands if not cmd.fails for name in cmd.outputs
        ),
        "bloch.diagnose_pt_phase.calls": calls["bloch.diagnose_pt_phase"],
        "bloch.bloch_matrix.calls": calls["bloch.bloch_matrix"],
        "bloch.bloch_matrix.s": inclusive["bloch.bloch_matrix"],
        "bloch.self_s": layer_self("bloch"),
        "bloch.max_growth_rate.calls": calls["bloch.max_growth_rate"],
        "bloch.growth_rate.useful_ratio": ratio(growth_written, calls["bloch.max_growth_rate"]),
        "numerics.eig_complex.calls": calls["numerics.eig_complex"],
        "numerics.eig_complex.s": inclusive["numerics.eig_complex"],
        "numerics.poly_roots.calls": calls["numerics.poly_roots"],
        "numerics.poly_roots.s": inclusive["numerics.poly_roots"],
        "numerics.integrate_ode.steps": steps,
        "numerics.integrate_ode.rhs_calls": rhs_calls,
        "numerics.integrate_ode.accepted_ratio": ratio(steps, attempted_steps),
        "numerics.integrate_ode.self_s": own["numerics.integrate_ode"],
        "dynamics.rhs.s": inclusive["dynamics.rhs"],
        "dynamics.matvec_bytes_computed": sum(run[1] * run[2] for run in tracer.ode_runs),
        "dynamics.propagate.s": inclusive["dynamics.propagate"],
        "transfer.symbolic_period_matrix.calls": calls["transfer.symbolic_period_matrix"],
        "transfer.symbolic_period_matrix.s": inclusive["transfer.symbolic_period_matrix"],
        "transfer.period_matrix.calls": calls["transfer.period_matrix"],
        "transfer.period_matrix.s": inclusive["transfer.period_matrix"],
        "transfer.site_matrix.calls": calls["transfer.site_matrix"],
        "edge.edge_spectrum.calls": calls["edge.edge_spectrum"],
        "edge.census.useful_ratio": ratio(edges_commands, calls["edge.edge_spectrum"]),
        "edge.self_s": layer_self("edge"),
        "lattice.self_s": layer_self("lattice"),
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"
    os.environ.pop("PT_SL_THREADS", None)
    if not (SRC / "ptsl" / "__init__.py").is_file():
        print(f"error: no ptsl sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    work = RUNS / args.workload
    work.mkdir(parents=True, exist_ok=True)

    # cold set-up: import, then one warm-up command
    imported = time.perf_counter()
    cli = importlib.import_module("ptsl.cli")
    warmed = time.perf_counter()
    code, text = run_command(cli, wl.WARMUP_ARGV + ("--out", str(work / "warmup.csv")))
    done = time.perf_counter()
    if code != 0:
        print(f"error: warm-up command failed: {text}", file=sys.stderr)
        return 1
    setup = {
        "setup_s": done - _STARTED,
        "setup.import_s": warmed - imported,
        "setup.warmup_s": done - warmed,
    }

    import calibrate  # imports numpy: only once the BLAS pool is pinned and set-up is timed

    for stale in work.iterdir():
        if not stale.name.startswith("warmup."):
            stale.unlink()
    commands = wl.commands(args.workload, work, args.seed)
    errors: list[str] = []
    digests: set[str] = set()
    walls, cpus, traced_walls, layers = [], [], [], []
    attempted = failed = 0
    started = time.perf_counter()
    sampler = calibrate.Sampler()
    rep_walls, rep_cpus = [], []  # the kernel's repetitions in each batch

    def record(results) -> None:
        nonlocal attempted, failed
        attempted += len(results)
        failed += sum(1 for code, _ in results if code != 0)
        errors.extend(outcome_errors(commands, results))
        digests.add(outputs_digest(work, commands))

    while True:
        done_reps = len(sampler.walls)
        wall, cpu, results = run_batch(cli, commands, sampler)
        record(results)
        walls.append(wall)
        cpus.append(cpu)
        rep_walls.append(sampler.walls[done_reps:])
        rep_cpus.append(sampler.cpus[done_reps:])
        print(
            f"batch {len(walls)}: wall_s {sum(wall):.4f} s  cpu_s {sum(cpu):.4f} s  "
            f"host speed factor {calibrate.speed_factor(rep_walls[-1]):.4f}",
            flush=True,
        )
        expected = batch_seconds(walls) * (1 + sampler.spent_wall / sum(map(sum, walls)))
        if args.trace:
            tracer = tracing.Tracer()
            tracer.install(importlib.import_module(f"ptsl.{name}") for name in MODULES)
            try:
                wall, _, results = run_batch(cli, commands)
            finally:
                tracer.uninstall()
            record(results)
            traced_walls.append(wall)
            layers.append(layer_metrics(tracer, commands, work))
            print(f"traced batch {len(traced_walls)}: wall_s {sum(wall):.4f} s", flush=True)
            expected += batch_seconds(traced_walls)
        if time.perf_counter() - started + expected > args.seconds:
            break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6
    speed = calibrate.speed_factor(sampler.walls)
    times = {
        "wall_s": walls,
        "cpu_s": cpus,
        "traced_wall_s": traced_walls,
        "kernel_wall_s": rep_walls,
        "kernel_cpu_s": rep_cpus,
        "setup_s": setup["setup_s"],
    }
    (RUNS / f"{args.workload}.times.json").write_text(json.dumps(times), encoding="utf-8")

    import checks

    if len(digests) > 1:
        errors.append("output files differ between batches")
    check_errors, known = checks.CHECKS[args.workload](work, commands)
    errors += check_errors
    for error in errors[:20]:
        print(f"check failed: {error}", file=sys.stderr)
    print(f"known faults in the outputs: {len(known)} rows")
    for fault in known:
        print(f"known fault: {fault}")

    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
    if args.trace:
        tracer.write(RUNS / f"{args.workload}.spans.jsonl")
        units = {m["name"]: m["unit"] for m in spec["per_layer"]}
        values = dict(layers[0])
        for name, value in values.items():
            series = [layer[name] for layer in layers]
            if units[name] == "s":
                values[name] = statistics.median(series)
            elif any(other != value for other in series):
                print(f"warning: {name} differs between traced batches: {series}", file=sys.stderr)
        values["bloch.known_wrong_thresholds"] = len(known)
        values["setup.import_s"] = setup["setup.import_s"]
        values["setup.warmup_s"] = setup["setup.warmup_s"]
        values["trace.overhead_s"] = batch_seconds(traced_walls) - batch_seconds(walls)
        values["host.speed_factor"] = speed
        wanted = spec["per_layer"]
    else:
        print(
            f"as measured: wall_s {batch_seconds(walls)} s  cpu_s {batch_seconds(cpus)} s  "
            f"setup_s {setup['setup_s']} s  host speed factor {speed}"
        )
        values = {
            "wall_s": normalised_seconds(walls, rep_walls, calibrate.REFERENCE_REP_S),
            "cpu_s": normalised_seconds(cpus, rep_cpus, calibrate.REFERENCE_REP_CPU_S),
            "setup_s": setup["setup_s"] / speed,
            "peak_rss_mb": peak_rss_mb,
        }
        wanted = spec["end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}
    for name, metric in metrics.items():
        print(f"{name} = {metric['value']} {metric['unit']}")
    result = {"correct": not errors, "attempted": attempted, "failed": failed, "metrics": metrics}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
