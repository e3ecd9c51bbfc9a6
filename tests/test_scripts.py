"""The scripts under scripts/ and the README quick start run end to end on
small inputs."""

import csv
import math
import os
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SCRIPTS = ROOT / "scripts"


def test_gaussian_case_study_writes_its_four_csvs(tmp_path):
    # --grid 4 keeps it small; the power ladder still crosses every regime
    # of both cases, so the region walk runs at many powers
    out = tmp_path / "case_study"
    run = subprocess.run([sys.executable, str(SCRIPTS / "gaussian_case_study.py"),
                          "--grid", "4", "--out", str(out)],
                         capture_output=True, text=True, timeout=300)
    assert run.returncode == 0, run.stderr
    assert "Traceback" not in run.stderr
    headers = {"sweep_correlated.csv": ["alpha", "deltaI"],
               "sweep_independent.csv": ["alpha", "deltaI"],
               "boundary_correlated.csv": ["P", "regime", "R", "Rd_cap"],
               "boundary_independent.csv": ["P", "regime", "R", "Rd_cap"]}
    assert sorted(p.name for p in out.iterdir()) == sorted(headers)
    tables = {}
    for name, header in headers.items():
        with open(out / name, newline="") as handle:
            tables[name] = list(csv.reader(handle))
        assert tables[name][0] == header
        assert len(tables[name]) > 1
        assert not any("nan" in cell for row in tables[name] for cell in row)
    for name in ("boundary_correlated.csv", "boundary_independent.csv"):
        assert {row[1] for row in tables[name][1:]} == {"low", "mid", "high"}


def test_binning_trend_writes_the_trend_and_baseline_csvs(tmp_path):
    # --max-n 8 runs the ladder at n = 6 and 8; the constant-tap baseline
    # must read d = 1 on every row
    out = tmp_path / "trend"
    run = subprocess.run([sys.executable, str(SCRIPTS / "binning_trend.py"),
                          "--max-n", "8", "--trials", "20", "--baseline", "--out", str(out)],
                         capture_output=True, text=True, timeout=300)
    assert run.returncode == 0, run.stderr
    assert "Traceback" not in run.stderr
    header = ["n", "pe", "pe_ci_low", "pe_ci_high", "d", "fallback"]
    assert sorted(p.name for p in out.iterdir()) == ["baseline.csv", "trend.csv"]
    tables = {}
    for name in ("trend.csv", "baseline.csv"):
        with open(out / name, newline="") as handle:
            tables[name] = list(csv.reader(handle))
        assert tables[name][0] == header
        assert [row[0] for row in tables[name][1:]] == ["6", "8"]
        assert not any("nan" in cell for row in tables[name] for cell in row)
    assert all(float(row[4]) == 1.0 for row in tables["baseline.csv"][1:])


def test_readme_quick_start_runs(tmp_path):
    # the quick start's python block, in a fresh interpreter: every public
    # name it imports must stay
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    quick_start = readme[readme.index("## Quick start"):]
    code = re.search(r"```python\n(.*?)```", quick_start, re.S).group(1)
    run = subprocess.run([sys.executable, "-c", code], cwd=tmp_path,
                         env=dict(os.environ, PYTHONPATH=str(ROOT / "src")),
                         capture_output=True, text=True, timeout=300)
    assert run.returncode == 0, run.stderr
    assert "Traceback" not in run.stderr
    summary, gaussian = run.stdout.splitlines()
    assert "'secrecy_rate'" in summary
    assert all(map(math.isfinite, map(float, gaussian.split())))
