import csv
import io
import json
import math
import os
import re
import signal
import subprocess
import sys
import tempfile
import time
import warnings
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ptsl.bloch as bloch
import ptsl.cli as cli
import ptsl.edge as edge
from conftest import pt_specs
from ptsl import NumericsError, family_from_json, harper_family, harper_growth_rate


def run(*argv) -> int:
    return cli.main(list(argv))


def read_csv(path):
    lines = path.read_text().strip().splitlines()
    return lines[0].split(","), [line.split(",") for line in lines[1:]]


HARPER_FLAGS = ["--harper", "--delta", "0.3", "--lambda", "0.134", "--p", "1", "--q", "6"]


# ---------------------------------------------------------------------------
# bands
# ---------------------------------------------------------------------------


def test_bands_csv_and_manifest(tmp_path, capsys):
    out = tmp_path / "bands.csv"
    code = run("bands", *HARPER_FLAGS, "--kpoints", "32", "--out", str(out))
    assert code == 0
    header, rows = read_csv(out)
    assert header == ["k", "band_index", "re_E", "im_E"]
    assert len(rows) == 32 * 6
    manifest = json.loads((tmp_path / "bands.csv.manifest.json").read_text())
    assert manifest["command"] == "bands"
    assert manifest["parameters"]["kpoints"] == 32
    assert str(out) in manifest["outputs"]
    assert "gaps: 5" in capsys.readouterr().out


def test_bands_single_band_uniform_lattice(tmp_path):
    lattice = tmp_path / "uniform.json"
    lattice.write_text(json.dumps({"q": 1, "onsite": [[0.0, 0.0]], "hopping": [1.0]}))
    out = tmp_path / "b.csv"
    assert run("bands", "--lattice", str(lattice), "--kpoints", "256", "--out", str(out)) == 0
    _, rows = read_csv(out)
    energies = np.array([float(r[2]) for r in rows])
    assert abs(energies.min() + 2.0) < 1e-3
    assert abs(energies.max() - 2.0) < 1e-3


def test_bands_usage_errors(tmp_path, capsys):
    # band_structure checks --kpoints; the CLI used to check it a second time
    assert run("bands", *HARPER_FLAGS, "--kpoints", "1", "--out", str(tmp_path / "x.csv")) == 2
    assert "need at least 2 k-points" in capsys.readouterr().err
    assert not (tmp_path / "x.csv").exists()
    with pytest.raises(SystemExit) as info:
        run("bands", "--out", str(tmp_path / "x.csv"))
    assert info.value.code == 2
    # the Harper flags of bands, edges and evolve are checked by one loader
    capsys.readouterr()
    for command in ("bands", "edges"):
        assert run(command, "--harper", "--delta", "0.3", "--q", "6", "--out", str(tmp_path / "x.csv")) == 2
        assert capsys.readouterr().err == "error: --harper needs --delta, --lambda and --q\n"
    assert not (tmp_path / "x.csv").exists()


def test_bands_invalid_lattice_file(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text('{"q": 2, "onsite": [[0,0]], "hopping": [1, 1]}')
    assert run("bands", "--lattice", str(bad), "--out", str(tmp_path / "x.csv")) == 2
    # a family from JSON names a wrong hopping count and a zero hopping as a lattice does
    bad.write_text('{"q": 2, "onsite": [[0,0], [1,0]], "hopping": [1, 1, 1]}')
    capsys.readouterr()
    assert run("bands", "--lattice", str(bad), "--out", str(tmp_path / "x.csv")) == 2
    assert capsys.readouterr().err == "error: need as many hoppings as on-site energies, got 3 vs 2\n"
    bad.write_text('{"q": 2, "onsite": [[0,0], [1,0]], "hopping": [1, 0]}')
    assert run("bands", "--lattice", str(bad), "--out", str(tmp_path / "x.csv")) == 2
    assert capsys.readouterr().err == "error: hopping rates must be finite and non-vanishing\n"
    missing = tmp_path / "missing.json"
    assert run("bands", "--lattice", str(missing), "--out", str(tmp_path / "x.csv")) == 2


@pytest.mark.parametrize(
    "command, flags",
    [
        ("bands", ["--harper", "--delta", "0.3", "--lambda", "0.1", "--q", "6"]),
        ("edges", ["--lambda", "0"]),
        ("evolve", ["--harper"]),
        ("threshold", ["--delta", "0.3", "--q", "6"]),
        ("threshold", ["--delta", "0"]),
    ],
)
def test_lattice_file_rejects_harper_flags(command, flags, tmp_path, capsys):
    # the file used to win silently and the Harper flags were ignored; argparse
    # rejects --harper, the loader any Harper value, without a usage line
    lattice = tmp_path / "l.json"
    lattice.write_text(json.dumps({"q": 2, "onsite": [[0.5, 0.1], [0.5, -0.1]], "hopping": [1.0, 1.0]}))
    out = tmp_path / "x.out"
    argv = [command, "--lattice", str(lattice), *flags, "--out", str(out)]
    if flags[0] == "--harper":
        with pytest.raises(SystemExit) as info:
            run(*argv)
        assert info.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith(f"usage: ptsl {command}")
        assert "argument --harper: not allowed with argument --lattice" in err
    else:
        assert run(*argv) == 2
        err = capsys.readouterr().err
        given = ", ".join(flag for flag in flags if flag.startswith("--"))
        assert err == f"error: --lattice cannot be combined with {given}\n"
    assert not out.exists()


def test_bands_near_float_limit_prints_no_warning(tmp_path):
    # the centre test's partner differences overflow; this used to print
    # "RuntimeWarning: overflow encountered in subtract" and exit 0
    lattice = tmp_path / "huge.json"
    lattice.write_text(json.dumps({"q": 2, "onsite": [[1e308, 1e308], [1e308, -1e308]], "hopping": [1.0, 1.0]}))
    src = str(Path(__file__).resolve().parents[1] / "src")
    done = subprocess.run(
        [sys.executable, "-m", "ptsl.cli", "bands", "--lattice", str(lattice), "--kpoints", "8",
         "--out", str(tmp_path / "b.csv")],
        env={**os.environ, "PYTHONPATH": src}, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode == 0
    assert done.stderr == ""


def test_bands_outputs_are_deterministic(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert run("bands", *HARPER_FLAGS, "--kpoints", "16", "--out", str(a)) == 0
    assert run("bands", *HARPER_FLAGS, "--kpoints", "16", "--out", str(b)) == 0
    assert a.read_bytes() == b.read_bytes()


def test_parser_is_built_once_and_keeps_defaults(tmp_path):
    assert cli._build_parser() is cli._build_parser()
    first, second = tmp_path / "a.csv", tmp_path / "b.csv"
    assert run("bands", *HARPER_FLAGS, "--kpoints", "8", "--out", str(first)) == 0
    assert run("bands", *HARPER_FLAGS, "--out", str(second)) == 0
    manifest = json.loads((tmp_path / "b.csv.manifest.json").read_text())
    assert manifest["parameters"]["kpoints"] == 256
    assert manifest["parameters"]["out"] == str(second)
    assert len(read_csv(second)[1]) == 256 * 6


@pytest.mark.parametrize("fields", [1, 2])
def test_row_writer_matches_per_value_format(fields):
    rng = np.random.default_rng(3)
    blocks = rng.normal(size=(7, 5, fields)) * 10.0 ** rng.integers(-300, 300, size=(7, 5, fields))
    blocks.flat[:6] = [0.0, -0.0, np.inf, -np.inf, np.nan, 5e-324]
    leads = np.concatenate([[-0.0, 1e-17], rng.normal(size=5)])
    expected = "".join(
        f"{lead:.17g},{index}" + "".join(f",{x:.17g}" for x in line) + "\n"
        for lead, block in zip(leads, blocks)
        for index, line in enumerate(block, start=1)
    )
    sink = io.StringIO()
    cli._write_rows(sink, leads, blocks if fields > 1 else blocks[..., 0], first_index=1)
    assert sink.getvalue() == expected


def test_numerical_failure_exit_code(tmp_path, monkeypatch):
    def boom(*args, **kwargs):
        raise NumericsError("synthetic failure")

    monkeypatch.setattr(cli, "band_structure", boom)
    assert run("bands", *HARPER_FLAGS, "--out", str(tmp_path / "x.csv")) == 1


def test_out_of_memory_is_a_numerical_failure(tmp_path, monkeypatch, capsys):
    # bands --q 100000 used to end in a numpy _ArrayMemoryError traceback
    message = "Unable to allocate 149. GiB for an array with shape (1, 1, 100000, 100000)"

    def boom(*args, **kwargs):
        raise MemoryError(message)

    monkeypatch.setattr(cli, "band_structure", boom)
    assert run("bands", *HARPER_FLAGS, "--out", str(tmp_path / "x.csv")) == 1
    assert capsys.readouterr().err == f"numerical failure: {message}\n"


# ---------------------------------------------------------------------------
# threshold
# ---------------------------------------------------------------------------


def test_threshold_single_family(tmp_path, capsys):
    out = tmp_path / "th.json"
    code = run(
        "threshold", "--delta", "0.3", "--q", "6", "--lambda-max", "0.5",
        "--tol", "1e-4", "--out", str(out),
    )
    assert code == 0
    assert "lambda_c = 0.255" in capsys.readouterr().out
    report = json.loads(out.read_text())
    assert abs(report["lambda_c"] - 0.2552) < 2e-3


def test_threshold_q_sweep(tmp_path):
    out = tmp_path / "sweep.csv"
    code = run(
        "threshold", "--delta", "0.3", "--q-range", "4:5", "--lambda-max", "0.5",
        "--tol", "1e-3", "--out", str(out),
    )
    assert code == 0
    header, rows = read_csv(out)
    assert header == ["param", "lambda_c"]
    assert [r[0] for r in rows] == ["4", "5"]
    assert float(rows[0][1]) <= 1e-3  # period-4 threshold vanishes


def test_threshold_rejects_bad_lambda_max(tmp_path, capsys):
    # breaking_threshold checks --lambda-max; 0 used to print the usage line and nan not
    out = tmp_path / "x.csv"
    for value in ("0", "-1", "nan", "inf"):
        assert run("threshold", "--delta", "0.3", "--q", "6", "--lambda-max", value) == 2
        assert "lambda_max must be positive and finite" in capsys.readouterr().err
        assert run("sweep", "--delta", "0.3", "--q-range", "3:4", "--lambda-max", value, "--out", str(out)) == 2
        assert "lambda_max must be positive and finite" in capsys.readouterr().err
        assert not out.exists()
    # threshold takes no strength: --lambda used to be ignored, and must not
    # be read as a prefix of --lambda-max; --harper used to be ignored too
    with pytest.raises(SystemExit) as info:
        run("threshold", "--delta", "0.3", "--q", "6", "--lambda", "0.1")
    assert info.value.code == 2
    with pytest.raises(SystemExit) as info:
        run("threshold", "--harper", "--delta", "0.3", "--q", "6")
    assert info.value.code == 2
    # a family needs a file or both --delta and --q, and a q sweep needs --delta
    capsys.readouterr()
    for flags in (["--q", "6"], ["--delta", "0.3"]):
        assert run("threshold", *flags) == 2
        assert capsys.readouterr().err == "error: provide --lattice FILE or --delta and --q\n"
    assert run("threshold", "--q-range", "3:4", "--out", str(out)) == 2
    assert capsys.readouterr().err == "error: sweeping q needs --delta\n"
    assert not out.exists()


@pytest.mark.parametrize("delta", ["nan", "inf", "-inf"])
@pytest.mark.parametrize("command", ["threshold", "sweep"])
def test_nonfinite_delta_is_rejected(command, delta, tmp_path, capsys):
    # used to solve 64 eigenproblems and exit 2 with "Eigenvalues did not converge"
    argv = [command, f"--delta={delta}", "--q-range", "3:4", "--out", str(tmp_path / "x.csv")]
    if command == "threshold":
        argv = [command, f"--delta={delta}", "--q", "6"]
    assert run(*argv) == 2
    assert "delta" in capsys.readouterr().err


@pytest.mark.parametrize("tol", ["0", "-1", "nan", "inf"])
def test_threshold_rejects_bad_tol(tol, capsys):
    # 0 and -1 used to bisect forever, nan and inf to return the coarse bracket
    assert run("threshold", "--delta", "0.3", "--q", "6", "--tol", tol) == 2
    assert "tol_lambda must be positive and finite" in capsys.readouterr().err
    assert run("threshold", "--delta", "0.3", "--q-range", "4:5", "--tol", tol) == 2


@pytest.mark.parametrize("command", ["threshold", "sweep"])
def test_tolerance_below_float_spacing_terminates(command, tmp_path):
    # bisection used to loop forever once lo and hi were adjacent floats
    src = str(Path(__file__).resolve().parents[1] / "src")
    argv = [
        sys.executable, "-m", "ptsl.cli", command, "--delta", "0.3", "--q-range", "6:6",
        "--lambda-max", "0.5", "--tol", "1e-300", "--out", str(tmp_path / "out.csv"),
    ]
    if command == "sweep":
        argv += ["--kpoints", "8"]
    env = {**os.environ, "PYTHONPATH": src}
    done = subprocess.run(argv, env=env, cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    _, rows = read_csv(tmp_path / "out.csv")
    assert abs(float(rows[0][1]) - 0.2552) < 2e-3


def test_threshold_huge_delta_is_unbroken_at_zero(capsys):
    # used to exit 2 with "family is already broken at lambda = 0"
    assert run("threshold", "--delta", "1e300", "--q", "3", "--lambda-max", "1") == 0
    assert "no symmetry breaking up to lambda_max = 1.0" in capsys.readouterr().out


def test_threshold_empty_range(tmp_path, capsys):
    out = tmp_path / "t.csv"
    assert run("threshold", "--delta", "0.3", "--q-range", "5:3", "--out", str(out)) == 2
    assert capsys.readouterr().err == "error: range '5:3' is empty: its start exceeds its end\n"
    assert not out.exists()


def test_threshold_q_sweep_writes_never_broken_rows(tmp_path):
    out = tmp_path / "sweep.csv"
    code = run(
        "threshold", "--delta", "0.3", "--q-range", "4:6", "--lambda-max", "0.1",
        "--tol", "1e-3", "--out", str(out),
    )
    assert code == 0
    _, rows = read_csv(out)
    assert [r[0] for r in rows] == ["4", "5", "6"]
    assert float(rows[0][1]) <= 1e-3
    assert rows[2][1] == "inf"  # q=6 stays unbroken up to lambda_c = 0.255


def test_threshold_q_range_rejects_lattice(tmp_path, capsys):
    # used to ignore the file and write the Harper rows of --delta (0.2553 at q = 6)
    lattice = tmp_path / "hermitian.json"
    lattice.write_text(json.dumps({"q": 3, "onsite": [[0.1, 0.0], [0.2, 0.0], [0.5, 0.0]], "hopping": [1.0, 1.0, 1.0]}))
    out = tmp_path / "t.csv"
    with pytest.raises(SystemExit) as info:
        run("threshold", "--lattice", str(lattice), "--delta", "0.3", "--q-range", "6:6", "--out", str(out))
    assert info.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("usage: ptsl threshold")
    assert "argument --q-range: not allowed with argument --lattice" in err
    assert not out.exists()


def test_threshold_harper_file_missing_field(tmp_path, capsys):
    lattice = tmp_path / "h.json"
    lattice.write_text(json.dumps({"harper": {"delta": 0.3, "q": 6}}))
    assert run("threshold", "--lattice", str(lattice)) == 2
    assert "invalid harper shorthand" in capsys.readouterr().err


def test_threshold_harper_file_matches_flags(tmp_path, capsys):
    lattice = tmp_path / "h.json"
    lattice.write_text(json.dumps({"harper": {"delta": 0.3, "p": 1, "q": 6}}))
    assert run("threshold", "--lattice", str(lattice), "--lambda-max", "0.5") == 0
    assert "lambda_c = 0.255" in capsys.readouterr().out


# ---------------------------------------------------------------------------
# edges
# ---------------------------------------------------------------------------


def test_edges_report_and_verdict(tmp_path, capsys):
    out = tmp_path / "edges.csv"
    code = run("edges", *HARPER_FLAGS, "--n0", "2", "--out", str(out))
    assert code == 0
    printed = capsys.readouterr().out
    assert "spectrum: complex" in printed
    header, rows = read_csv(out)
    assert header == ["re_E", "im_E", "abs_S11", "class", "loc_length"]
    assert sum(1 for r in rows if r[3] == "edge") == 4
    edge_rows = [r for r in rows if r[3] == "edge"]
    assert all(float(r[4]) > 0 for r in edge_rows)


def test_edges_real_verdict(capsys):
    assert run("edges", *HARPER_FLAGS, "--n0", "0") == 0
    printed = capsys.readouterr().out
    assert "spectrum: real" in printed
    assert printed.count("extended") == 5


def test_edges_single_site_lattice(tmp_path, capsys):
    lattice = tmp_path / "uniform.json"
    lattice.write_text(json.dumps({"q": 1, "onsite": [[0.0, 0.0]], "hopping": [1.0]}))
    assert run("edges", "--lattice", str(lattice)) == 0
    printed = capsys.readouterr().out
    assert "spectrum: real" in printed


def test_edges_route_mismatch_is_a_numerical_failure(monkeypatch, tmp_path, capsys):
    # RouteMismatchError used to escape main as a traceback
    roots = edge.poly_roots
    monkeypatch.setattr(edge, "poly_roots", lambda coeffs: roots(coeffs) + 0.1)
    out = tmp_path / "edges.csv"
    assert run("edges", *HARPER_FLAGS, "--n0", "1", "--out", str(out)) == 1
    err = capsys.readouterr().err
    assert err.startswith("numerical failure: candidate energies from the tridiagonal matrix")
    assert "disagree (worst pairing distance 1.000e-01)" in err
    assert not out.exists()


# ---------------------------------------------------------------------------
# evolve
# ---------------------------------------------------------------------------


def test_evolve_outputs(tmp_path, capsys):
    out = tmp_path / "intensity.csv"
    code = run(
        "evolve", *HARPER_FLAGS, "--n0", "1", "--tmax", "4", "--sites", "16",
        "--samples", "20", "--out", str(out),
    )
    assert code == 0
    header, rows = read_csv(out)
    assert header == ["t", "site", "intensity"]
    assert len(rows) == 20 * 16
    summary = json.loads((tmp_path / "intensity.summary.json").read_text())
    assert summary["sites"] == 16
    assert summary["fit_window"] == [2.0, 4.0]
    assert (tmp_path / "intensity.csv.manifest.json").exists()
    assert (tmp_path / "intensity.summary.json.manifest.json").exists()


def test_evolve_rejects_bad_tmax(tmp_path, capsys):
    # inf used to escape as an OverflowError, nan with a numpy message
    for tmax in ("0", "inf", "nan"):
        for sites in ([], ["--sites", "16"]):
            assert run("evolve", *HARPER_FLAGS, "--tmax", tmax, *sites, "--out", str(tmp_path / "x.csv")) == 2
            assert "t_max must be positive and finite" in capsys.readouterr().err
            assert not (tmp_path / "x.csv").exists()


def test_evolve_rejects_zero_sites(tmp_path, capsys):
    # 0 used to be taken as "not given" and replaced by the default chain length
    out = tmp_path / "x.csv"
    assert run("evolve", *HARPER_FLAGS, "--tmax", "5", "--sites", "0", "--out", str(out)) == 2
    assert "outside 1..0" in capsys.readouterr().err
    assert not out.exists()


def test_evolve_overflow_is_a_numerical_failure(tmp_path, capsys):
    lattice = tmp_path / "gain.json"
    lattice.write_text(json.dumps({"q": 1, "onsite": [[0.0, 400.0]], "hopping": [1.0]}))
    code = run(
        "evolve", "--lattice", str(lattice), "--tmax", "3", "--sites", "12",
        "--out", str(tmp_path / "x.csv"),
    )
    assert code == 1
    assert "non-finite state" in capsys.readouterr().err
    assert not (tmp_path / "x.csv").exists()


def test_evolve_intensity_overflow_is_a_numerical_failure(tmp_path, capsys):
    # the states stay finite to t = 650 but |psi|^2 overflows; this used to
    # write inf intensities and NaN growth rates and exit 0
    out = tmp_path / "x.csv"
    code = run(
        "evolve", "--harper", "--delta", "0.3", "--lambda", "1.0", "--q", "6", "--n0", "1",
        "--tmax", "650", "--sites", "60", "--out", str(out),
    )
    assert code == 1
    assert "|psi|^2 exceeds the float range" in capsys.readouterr().err
    assert not out.exists()
    assert not (tmp_path / "x.summary.json").exists()


def test_evolve_rejects_a_propagation_too_long_for_its_norm(tmp_path, capsys):
    # ||H||_1 * t_max = 2e7: expm_multiply ran for more than a minute; the
    # check needs neither scipy nor the chain, so it ends at once
    out = tmp_path / "x.csv"
    started = time.monotonic()
    code = run(
        "evolve", "--harper", "--delta", "1e6", "--lambda", "0", "--q", "2", "--tmax", "20",
        "--out", str(out),
    )
    assert time.monotonic() - started < 1.0
    assert code == 2
    assert "||H||_1 * t_max = 2e+07 lies outside the limits [2.2e-16, 10000]" in capsys.readouterr().err
    assert not out.exists()


def test_evolve_rejects_more_samples_than_the_memory_budget(tmp_path, capsys):
    # 10^8 samples of 10^4 sites need 24 TB; this used to end in exit 1
    # "Unable to allocate" or, below the host's memory, in an out-of-memory kill
    out = tmp_path / "x.csv"
    argv = [*HARPER_FLAGS, "--tmax", "100", "--sites", "10000", "--samples", str(10**8)]
    assert run("evolve", *argv, "--out", str(out)) == 2
    assert "100000000 samples x 10000 sites need 2.4e+07 MB of states and intensities" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "argv",
    [
        ["bands", *HARPER_FLAGS],
        ["threshold", "--delta", "0.3", "--q", "6"],
        ["sweep", "--delta", "0.3", "--q-range", "6:6"],
    ],
    ids=["bands", "threshold", "sweep"],
)
def test_bloch_commands_refuse_matrices_above_the_size_limit(monkeypatch, tmp_path, capsys, argv):
    # ptsl bands at q = 100000 exited 1 "Unable to allocate 149. GiB"
    monkeypatch.setattr(bloch, "_MATRIX_BYTES_LIMIT", 16 * 6**2 - 1)

    # threshold and sweep at q = 100000 used to search the centre and build
    # the (64, q) scan rows first, for 0.5 s and 237 MB
    def unexpected(*args, **kwargs):
        raise AssertionError("parity centre searched before the size check")

    monkeypatch.setattr(bloch, "_doubled_centre", unexpected)
    out = tmp_path / "x.csv"
    assert run(*argv, "--out", str(out)) == 2
    assert capsys.readouterr().err == "error: a 6 x 6 Bloch matrix needs 0.000576 MB, above the 0.000575 MB limit\n"
    assert not out.exists()


def _imported_modules(argv, cwd: Path) -> list[str]:
    """Every module a fresh ``python -m ptsl.cli *argv`` imports, in order."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    done = subprocess.run(
        [sys.executable, "-X", "importtime", "-m", "ptsl.cli", *argv], cwd=cwd,
        env={**os.environ, "PYTHONPATH": src}, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode == 0, done.stderr
    lines = [line for line in done.stderr.splitlines() if line.startswith("import time:")]
    return [line.rsplit("|", 1)[-1].strip() for line in lines]


def test_import_loads_no_scipy_submodules(tmp_path):
    # bands, threshold, sweep and edges run on numpy alone; only evolve
    # imports scipy (scipy.sparse), inside the functions that use it
    commands = [
        ["bands", *HARPER_FLAGS, "--kpoints", "8", "--out", "bands.csv"],
        ["threshold", "--delta", "0.3", "--q", "4", "--lambda-max", "0.5", "--tol", "1e-2"],
        ["sweep", "--delta", "0.3", "--q-range", "3:4", "--lambda-max", "0.5", "--tol", "1e-2",
         "--kpoints", "8", "--out", "sweep.csv"],
        ["edges", *HARPER_FLAGS, "--n0", "1", "--out", "edges.csv"],
    ]
    for argv in commands:
        imported = _imported_modules(argv, tmp_path)
        assert "numpy" in imported and "ptsl.edge" in imported, argv
        assert not [m for m in imported if m.startswith("scipy")], argv
    evolve = ["evolve", *HARPER_FLAGS, "--tmax", "1", "--sites", "12", "--samples", "4", "--out", "x.csv"]
    assert "scipy.sparse" in _imported_modules(evolve, tmp_path)


def test_evolve_rejects_bad_window(tmp_path, monkeypatch):
    # the window used to be checked only after the whole propagation
    def unreachable(*args, **kwargs):
        raise AssertionError("propagated before checking --fit-window")

    monkeypatch.setattr(cli, "propagate", unreachable)
    for window in ("abc", "900:100", "0:2000", "-1:5"):
        argv = ["evolve", *HARPER_FLAGS, "--tmax", "1000", "--fit-window", window, "--out", str(tmp_path / "x.csv")]
        try:
            code = run(*argv)
        except SystemExit as exc:
            code = exc.code
        assert code == 2, window


def test_evolve_rejects_window_past_a_short_run(tmp_path, capsys):
    # the window's end was allowed an absolute 1e-12 past --tmax, here 50 runs long
    out = tmp_path / "x.csv"
    argv = [*HARPER_FLAGS, "--tmax", "1e-14", "--samples", "10", "--fit-window", "0:5e-13"]
    assert run("evolve", *argv, "--out", str(out)) == 2
    assert "fit window [0.0, 5e-13] outside sampled range [0.0, 1e-14]" in capsys.readouterr().err
    assert not out.exists()


def test_evolve_fits_tiny_sample_times(tmp_path):
    # ||H||_1 * t_max = 1 is admitted, but polyfit squared the sample times
    # to 0 and exited 2 with LAPACK's "DLASCL parameter number 4"
    out = tmp_path / "x.csv"
    argv = ["--harper", "--delta", "1e165", "--lambda", "0", "--q", "2", "--tmax", "1e-165", "--samples", "20"]
    assert run("evolve", *argv, "--out", str(out)) == 0
    summary = json.loads((tmp_path / "x.summary.json").read_text())
    for key in ("growth_rate_total_norm", "growth_rate_boundary"):
        # the lattice is Hermitian, so neither rate may grow with ||H||_1 ~ 1e165
        assert math.isfinite(summary[key]) and abs(summary[key]) < 1e-12 * 1e165, key


# ---------------------------------------------------------------------------
# sweep
# ---------------------------------------------------------------------------


def test_sweep_q_range(tmp_path):
    out = tmp_path / "sweep.csv"
    code = run(
        "sweep", "--delta", "0.3", "--q-range", "3:5", "--lambda-max", "0.5",
        "--tol", "1e-3", "--kpoints", "64", "--out", str(out),
    )
    assert code == 0
    header, rows = read_csv(out)
    assert header == ["param", "lambda_c", "sigma"]
    assert [r[0] for r in rows] == ["3", "4", "5"]
    assert all(float(r[1]) < 0.3 for r in rows)
    assert all(float(r[2]) > 0 for r in rows)  # each family is broken at sigma-lambda = delta


def test_sweep_p_range(tmp_path):
    out = tmp_path / "sweep.csv"
    code = run(
        "sweep", "--delta", "0.3", "--p-range", "1:2", "--q", "5", "--lambda-max", "0.5",
        "--tol", "1e-3", "--kpoints", "32", "--out", str(out),
    )
    assert code == 0
    _, rows = read_csv(out)
    assert [r[0] for r in rows] == ["1", "2"]


def test_sweep_sigma_is_the_same_for_every_p(tmp_path):
    # the eigen route's sigma varied with p by up to 2.9e-5 relative at q = 19
    out = tmp_path / "sweep.csv"
    code = run(
        "sweep", "--delta", "0.3", "--p-range", "1:18", "--q", "19", "--lambda-max", "0.5",
        "--tol", "1e-2", "--kpoints", "512", "--out", str(out),
    )
    assert code == 0
    _, rows = read_csv(out)
    assert len(rows) == 18
    assert {r[2] for r in rows} == {cli._fmt(harper_growth_rate(0.3, 19, 512))}


@pytest.mark.parametrize(
    ("flags", "message"),
    [
        (["--sigma-lambda=-1"], "non-Hermitian strength must be nonnegative"),
        (["--sigma-lambda=nan"], "on-site energies must be finite"),
        (["--sigma-lambda=inf"], "on-site energies must be finite"),
        (["--kpoints=1"], "need at least 2 k-points"),
        (["--sigma-lambda=0.1", "--kpoints=1"], "need at least 2 k-points"),
    ],
)
@pytest.mark.parametrize("span", [["--q-range", "3:60"], ["--p-range", "1:18", "--q", "19"]])
def test_sweep_bad_growth_rate_flags_exit_before_any_threshold(span, flags, message, monkeypatch, tmp_path, capsys):
    # used to solve the first row's threshold before the growth rate failed
    def unexpected(*args, **kwargs):
        raise AssertionError("breaking_threshold called")

    monkeypatch.setattr(cli, "breaking_threshold", unexpected)
    out = tmp_path / "sweep.csv"
    assert run("sweep", "--delta", "0.3", *span, *flags, "--out", str(out)) == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out.exists()


def test_sweep_empty_range(tmp_path, capsys):
    # used to write a CSV with only its header and exit 0
    out = tmp_path / "sweep.csv"
    assert run("sweep", "--delta", "0.3", "--q-range", "5:4", "--out", str(out)) == 2
    assert capsys.readouterr().err == "error: range '5:4' is empty: its start exceeds its end\n"
    assert not out.exists()
    assert run("sweep", "--delta", "0.3", "--p-range", "3:1", "--q", "5", "--out", str(out)) == 2
    assert capsys.readouterr().err == "error: range '3:1' is empty: its start exceeds its end\n"
    assert not out.exists()


def test_sweep_usage_errors(tmp_path, capsys):
    # argparse requires one of --q-range and --p-range, under the usage of sweep
    with pytest.raises(SystemExit) as info:
        run("sweep", "--delta", "0.3", "--out", str(tmp_path / "x.csv"))
    assert info.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("usage: ptsl sweep")
    assert "one of the arguments --q-range --p-range is required" in err
    assert run("sweep", "--q-range", "3:5", "--out", str(tmp_path / "x.csv")) == 2
    assert capsys.readouterr().err == "error: sweep needs --delta\n"
    with pytest.raises(SystemExit) as info:
        run(
            "sweep", "--delta", "0.3", "--q-range", "3:5", "--p-range", "1:2",
            "--out", str(tmp_path / "x.csv"),
        )
    assert info.value.code == 2
    assert "argument --p-range: not allowed with argument --q-range" in capsys.readouterr().err
    errors = [
        (["--q-range", "3-20"], "range must look like a:b, got '3-20'"),
        (["--q-range", "3:5", "--sigma-lambda", "foo"], "--sigma-lambda must be a number or 'delta', got 'foo'"),
        (["--p-range", "1:3"], "--p-range needs a fixed --q"),
    ]
    for flags, message in errors:
        assert run("sweep", "--delta", "0.3", *flags, "--out", str(tmp_path / "x.csv")) == 2
        assert capsys.readouterr().err == f"error: {message}\n"
    assert not (tmp_path / "x.csv").exists()
    # the growth rate's strength is --sigma-lambda; --lambda used to be ignored
    with pytest.raises(SystemExit) as info:
        run("sweep", "--delta", "0.3", "--q-range", "3:5", "--lambda", "0.1", "--out", str(tmp_path / "x.csv"))
    assert info.value.code == 2


# ---------------------------------------------------------------------------
# generated argument vectors
# ---------------------------------------------------------------------------


class _Overrun(BaseException):
    """Raised by the alarm; not an Exception, so the CLI cannot catch it."""


def _overrun(signum, frame):
    raise _Overrun


@st.composite
def _harper_flags(draw, delta=st.floats(0.0, 1e6)) -> list[str]:
    return [
        "--delta", repr(draw(delta)),
        "--p", str(draw(st.one_of(st.just(1), st.integers(1, 12)))),
        "--q", str(draw(st.integers(1, 12))),
        "--n0", str(draw(st.integers())),
    ]


@st.composite
def _lattice_json(draw) -> dict:
    scale = draw(st.sampled_from([1e-6, 1.0, 1e3]))
    kind = draw(st.sampled_from(["centred", "free", "hermitian"]))
    if kind == "centred":
        spec = draw(pt_specs(min_q=1, max_q=8))
        onsite, hopping = spec.onsite, spec.hopping
    else:
        q = draw(st.integers(1, 8))
        part = st.floats(-1.0, 1.0)
        onsite = [complex(draw(part), 0.0 if kind == "hermitian" else draw(part)) for _ in range(q)]
        hopping = [draw(st.floats(0.5, 1.5)) * draw(st.sampled_from([-1.0, 1.0])) for _ in range(q)]
    return {
        "q": len(onsite),
        "onsite": [[scale * v.real, scale * v.imag] for v in onsite],
        "hopping": [scale * k for k in hopping],
    }


@st.composite
def _evolve_argv(draw, workdir: Path) -> list[str]:
    # ||H||_1 * tmax stays below ~300, a run of milliseconds, or with
    # delta = 1e6 and tmax >= 1 far above the limit that rejects it at once
    tmax = draw(st.floats(0.0, 20.0))
    huge = tmax >= 1.0 and draw(st.booleans())
    flags = draw(_harper_flags(st.just(1e6) if huge else st.floats(0.0, 10.0)))
    argv = [
        "evolve", "--harper", *flags, "--lambda", repr(draw(st.floats(0.0, 10.0))),
        "--tmax", repr(tmax), "--samples", str(draw(st.integers(2, 40))),
        "--out", str(workdir / "intensity.csv"),
    ]
    if draw(st.booleans()):
        argv += ["--sites", str(draw(st.integers(0, 120)))]
    if draw(st.booleans()):
        argv += ["--excite", str(draw(st.integers(0, 121)))]
    return argv


@st.composite
def _argv(draw, workdir: Path) -> list[str]:
    command = draw(st.sampled_from(["bands", "threshold", "sweep", "edges", "evolve"]))
    if command == "evolve":
        return draw(_evolve_argv(workdir))
    lambda_max = ["--lambda-max", repr(draw(st.floats(1e-3, 10.0)))]
    if command == "sweep":
        lo = draw(st.integers(1, 12))
        span = f"{lo}:{min(12, lo + draw(st.integers(0, 2)))}"
        flags = draw(_harper_flags())
        param = draw(st.sampled_from(["--q-range", "--p-range"]))
        return [
            "sweep", *flags, param, span, *lambda_max, "--kpoints", str(draw(st.integers(2, 64))),
            "--sigma-lambda", repr(draw(st.floats(0.0, 10.0))), "--out", str(workdir / "sweep.csv"),
        ]
    if draw(st.booleans()):
        lattice = workdir / "lattice.json"
        lattice.write_text(json.dumps(draw(_lattice_json())))
        source = ["--lattice", str(lattice)]
    else:
        source = draw(_harper_flags())
        if command != "threshold":
            source = ["--harper", *source, "--lambda", repr(draw(st.floats(0.0, 10.0)))]
    if command == "bands":
        return ["bands", *source, "--kpoints", str(draw(st.integers(2, 64))), "--out", str(workdir / "bands.csv")]
    if command == "edges":
        return ["edges", *source, "--out", str(workdir / "edges.csv")]
    out = ["--out", str(workdir / "threshold.json")]
    if "--lattice" not in source and draw(st.booleans()):
        out = ["--q-range", f"1:{draw(st.integers(1, 12))}", "--out", str(workdir / "threshold.csv")]
    return ["threshold", *source, *lambda_max, *out]


def _finite(value) -> bool:
    if isinstance(value, dict):
        return all(_finite(v) for v in value.values())
    if isinstance(value, list):
        return all(_finite(v) for v in value)
    return not isinstance(value, float) or math.isfinite(value)


def _assert_finite_outputs(workdir: Path) -> None:
    for table in workdir.glob("*.csv"):
        with table.open(newline="") as fh:
            header, *rows = list(csv.reader(fh))
        for row in rows:
            for name, field in zip(header, row):
                if name == "class" or (name == "loc_length" and field == ""):
                    continue  # an edges CSV: text, and no length for non-edge rows
                value = float(field)
                assert math.isfinite(value) or (name == "lambda_c" and value == math.inf), (table, row)
    for record in workdir.glob("*.json"):
        if record.name != "lattice.json":
            assert _finite(json.loads(record.read_text())), record


@given(st.data())
@settings(max_examples=400)
def test_generated_commands_end_cleanly(data):
    # every argument vector ends within 20 s with exit 0, 1 or 2, and a
    # successful run writes no nan or inf (lambda_c = inf marks a never-broken row)
    with tempfile.TemporaryDirectory() as tmp:
        workdir = Path(tmp)
        argv = data.draw(_argv(workdir))
        previous = signal.signal(signal.SIGALRM, _overrun)
        signal.alarm(20)
        try:
            with warnings.catch_warnings(), redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
                warnings.filterwarnings("ignore", r"\d+ reality transitions", UserWarning)
                code = run(*argv)
        except SystemExit as exc:
            code = exc.code
        except _Overrun:
            pytest.fail(f"ptsl {' '.join(argv)} ran for more than 20 s")
        finally:
            signal.alarm(0)
            signal.signal(signal.SIGALRM, previous)
        assert code in (0, 1, 2), argv
        if code == 0:
            _assert_finite_outputs(workdir)


# ---------------------------------------------------------------------------
# documentation
# ---------------------------------------------------------------------------


def _readme() -> str:
    return (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")


def _readme_commands() -> list[list[str]]:
    """Every ``ptsl ...`` command in README.md's code blocks, continuations joined."""
    blocks = _readme().split("```")[1::2]
    lines = "\n".join(blocks).replace("\\\n", " ").splitlines()
    return [line.split()[1:] for line in lines if line.startswith("ptsl ")]


def test_readme_commands_parse():
    commands = _readme_commands()
    assert {argv[0] for argv in commands} == {"bands", "threshold", "edges", "evolve", "sweep"}
    for argv in commands:
        assert cli._build_parser().parse_args(argv).command == argv[0], argv


def test_readme_lattices_load():
    # the explicit lattice of the json block and the inline harper shorthand
    readme = _readme()
    explicit = readme.split("```json")[1].split("```")[0]
    shorthand = re.search(r'`(\{"harper": .*?\}\})`', readme).group(1)
    family, lam = family_from_json(json.loads(explicit))
    assert lam == 1.0 and family.q == 2
    family, lam = family_from_json(json.loads(shorthand))
    assert lam == 0.134 and family == harper_family(0.3, 1, 6, 0)
