"""tools/output_digest.py runs on a small slice and prints one stable digest."""

import argparse
import importlib.util
import re
import subprocess
import sys
from pathlib import Path

from qsym import cli

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
    # calls, 68 fixed calls
    first = _digest("--session-calls", "4", "--max-degree", "2")
    assert first[1] == 2 + 12 + 12 + 68
    assert _digest("--session-calls", "4", "--max-degree", "2") == first
    assert _digest("--session-calls", "5", "--max-degree", "2")[0] != first[0]


def test_digest_of_a_larger_slice_is_pinned():
    # The CLI's text, JSON and LaTeX bytes on 982 calls, including the first
    # 300 calls of each session stream; a change to any printed byte or to
    # the canonical term order moves it.
    assert _digest("--session-calls", "300", "--max-degree", "4") == (
        "72f52e99feada532cafdbd830ef3488d036fd2b1c599a942fdd59a91dc425f31", 982
    )


def _subcommands(parser):
    """The subparsers of ``parser`` by name, in help order; none if it has none."""
    actions = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    return actions[0].choices if actions else {}


def test_digest_asks_every_command_and_action_for_help(monkeypatch):
    # A command added to the CLI must join the digest's --help calls.
    monkeypatch.setattr(sys, "path", list(sys.path))  # the tool prepends src and bench
    spec = importlib.util.spec_from_file_location("_output_digest", SCRIPT)
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    known = []
    for name, parser in _subcommands(cli._build_parser()).items():
        known += [name, *(f"{name} {action}" for action in _subcommands(parser))]
    assert tool.SUBCOMMANDS == tuple(known)
