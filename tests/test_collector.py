"""tools/collector.py runs one qsym call in process and prints its collector time."""

import re
import subprocess
import sys
from pathlib import Path

SCRIPT = Path(__file__).resolve().parent.parent / "tools" / "collector.py"


def _run(*argv):
    return subprocess.run(
        [sys.executable, str(SCRIPT), *argv], capture_output=True, text=True, timeout=120
    )


def test_prints_status_wall_collector_and_passes_per_generation():
    result = _run("mul", "[1]", "[1]")
    assert (result.returncode, result.stderr) == (0, "")
    lines = result.stdout.splitlines()
    assert lines[0] == "exit 0"
    assert re.fullmatch(r"wall_s \d+\.\d{4}", lines[1]), lines
    assert re.fullmatch(r"collector_s \d+\.\d{4}", lines[2]), lines
    assert re.fullmatch(r"passes gen0=\d+ gen1=\d+ gen2=\d+", lines[3]), lines
    assert len(lines) == 4


def test_the_exit_status_of_a_failing_call_is_kept():
    result = _run("mul", "[0]", "[1]")
    assert result.returncode == 2
    assert result.stdout.splitlines()[0] == "exit 2"
    assert result.stderr.startswith("error: ")
