import csv
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SCRIPTS = sorted((ROOT / "scripts").glob("*.py"))


def test_scripts_found():
    assert SCRIPTS


@pytest.mark.parametrize("script", SCRIPTS, ids=lambda p: p.name)
def test_script_help_runs(script, tmp_path):
    # importing the script fails here when it names something the package dropped
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    done = subprocess.run(
        [sys.executable, str(script), "--help"],
        env=env, cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode == 0, done.stderr
    assert "usage:" in done.stdout


def _is_nan(field: str) -> bool:
    try:
        return math.isnan(float(field))
    except ValueError:
        return False


@pytest.mark.parametrize("script", SCRIPTS, ids=lambda p: p.name)
def test_script_runs_end_to_end(script, tmp_path):
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    outdir = tmp_path / "out"
    done = subprocess.run(
        [sys.executable, str(script), "--outdir", str(outdir)],
        env=env, cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    tables = sorted(outdir.glob("*.csv"))
    assert tables
    for table in tables:
        # every data file comes from a ptsl command, except the lambda trace
        if table.name != "edge_energies_vs_lambda.csv":
            assert table.with_name(table.name + ".manifest.json").is_file(), table.name
        with table.open(newline="") as fh:
            rows = list(csv.reader(fh))
        assert len(rows) > 1, table.name
        assert not any(_is_nan(field) for row in rows for field in row), table.name
