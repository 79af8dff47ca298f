"""tools/output_digest.py runs on a small slice and prints one stable digest."""

import re
import subprocess
import sys
from pathlib import Path

SCRIPT = Path(__file__).resolve().parent.parent / "tools" / "output_digest.py"


def _digest(*args):
    result = subprocess.run(
        [sys.executable, str(SCRIPT), *args], capture_output=True, text=True, timeout=120
    )
    assert result.returncode == 0, result.stderr
    match = re.fullmatch(r"([0-9a-f]{64})  (\d+) calls\n", result.stdout)
    assert match, result.stdout
    return match.group(1), int(match.group(2))


def test_digest_of_a_small_slice_is_stable():
    # 2 default verify calls, 6 suites x 2 formats, 3 streams x 4 session
    # calls, 62 fixed calls
    first = _digest("--session-calls", "4", "--max-degree", "2")
    assert first[1] == 2 + 12 + 12 + 62
    assert _digest("--session-calls", "4", "--max-degree", "2") == first
    assert _digest("--session-calls", "5", "--max-degree", "2")[0] != first[0]
