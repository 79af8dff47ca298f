"""tools/frontier.py sweeps bounds in fresh processes and prints one row per suite."""

import re
import subprocess
import sys
from pathlib import Path

SCRIPT = Path(__file__).resolve().parent.parent / "tools" / "frontier.py"


def _rows(*args):
    result = subprocess.run(
        [sys.executable, str(SCRIPT), "--suites", "lyndon-free", *args],
        capture_output=True, text=True, timeout=120,
    )
    assert result.returncode == 0, result.stderr
    header, *rows = result.stdout.splitlines()
    assert header.startswith("suite")
    return rows


def test_sweep_stops_at_the_max_bound():
    # lyndon-free@6 and @7 take a fraction of a second; a 30 s budget holds both
    (row,) = _rows("--max-bound", "7", "--budget", "30")
    assert re.fullmatch(r"lyndon-free +@7 \d+\.\d\d s +past --max-bound", row), row


def test_sweep_stops_at_the_first_bound_over_budget():
    (row,) = _rows("--max-bound", "7", "--budget", "0")
    assert re.fullmatch(r"lyndon-free +- +@6 \d+\.\d\d s", row), row


def test_max_bound_below_the_default_runs_nothing():
    (row,) = _rows("--max-bound", "3")
    assert re.fullmatch(r"lyndon-free +- +past --max-bound", row), row
