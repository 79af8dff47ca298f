"""One sha256 over the output of a fixed set of ``qsym`` CLI calls.

A change that claims to keep the CLI output byte-identical can be checked by
running this script on both sides and comparing the one line it prints::

    python3 tools/output_digest.py
    python3 tools/output_digest.py --session-calls 20 --max-degree 2   # a quick slice

The calls, all made in one process through :func:`qsym.cli.run`:

- ``qsym verify`` at default bounds, in text and JSON;
- each suite at its ``verify-deep`` bound (``bench/workloads.py``), in text
  and JSON;
- the first ``--session-calls`` calls (default 1,500) of the benchmark's
  session streams for seeds 1, 2 and 3;
- a fixed list of calls (``FIXED_CALLS``): malformed ``qsym`` and ``beta``
  operands, ``lyndon count|list`` in every format, out-of-range counts, a
  product and a coproduct with parts at and past the printers' 4096 part-text
  bound in every format, and ``--help`` of the program and of each
  subcommand.  Help is wrapped at ``COLUMNS=80`` so that it does not depend
  on the terminal.

Each call contributes its argv, exit code, stdout and stderr to the digest.
``--max-degree`` caps every verify bound, for a quick run; the full digest
uses none.  Only the standard library is used, and nothing under ``bench/``
is modified.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]

from qsym.cli import run  # noqa: E402
from workloads import DEEP_DEGREES, session_calls  # noqa: E402

SESSION_SEEDS = (1, 2, 3)
FORMATS = ("text", "json")
SUBCOMMANDS = (
    "mul", "coproduct", "antipode", "counit", "sigma", "truncate", "expand",
    "lyndon", "lyndon count", "lyndon list", "psi", "tau", "stratum", "verify",
)
BAD_QSYM = (
    "", "[", "[1", "[1 2]", "[b]", "[0]", "[1,00]", "[1]+", "2*3", "[1,]",
    "[1] [2]", "3 * [1] - 2 2", "[1] % 2", "+", "b", "(x)",
)
BAD_BETA = (
    "", "b^", "b^b", "[1]*", "*", "(x)", "([1]", "([1]]", "((1))", "b b", "b*b",
    "2*b^2*[1]*b", "[0]", "b^2 + [1] )", "[1] ? b",
)
FIXED_CALLS = [
    *(["antipode", text] for text in BAD_QSYM),
    ["mul", "[1]", "[1]]"],
    ["antipode", "--", "-b"],
    *(["tau", text] for text in BAD_BETA),
    ["tau", "--", "-b^"],
    *(["lyndon", action, "5", "--format", fmt]
      for action in ("count", "list") for fmt in ("text", "json", "latex")),
    ["lyndon", "list", "0"],
    ["lyndon", "count", "0"],
    ["lyndon", "list", "--", "-1"],
    ["expand", "[1]", "-1"],
    ["truncate", "[1]", "--", "-1"],
    ["psi", "[1]", "1", "--", "-1"],
    ["stratum", "--", "-1"],
    # Parts on both sides of the printers' 4096 part-text bound, and one of 31 digits.
    *([*call, "--format", fmt]
      for call in (["mul", "[4095,1]", "[4096]"], ["coproduct", f"[4095,{10**30}]"])
      for fmt in ("text", "json", "latex")),
    ["--help"],
    *([*command.split(), "--help"] for command in SUBCOMMANDS),
]


def digest_calls(session_count: int = 1500, max_degree: int | None = None) -> list[list[str]]:
    """The argv of every digested call, in the order they are run."""
    cap = (lambda d: d) if max_degree is None else (lambda d: min(d, max_degree))
    defaults = [] if max_degree is None else ["--max-degree", str(max_degree)]
    calls = [["verify", *defaults, "--format", fmt] for fmt in FORMATS]
    calls += [
        ["verify", suite, "--max-degree", str(cap(degree)), "--format", fmt]
        for suite, degree in DEEP_DEGREES.items()
        for fmt in FORMATS
    ]
    calls += [
        list(call.argv) for seed in SESSION_SEEDS for call in session_calls(seed, session_count)
    ]
    return calls + FIXED_CALLS


def output_digest(calls: list[list[str]]) -> str:
    """The sha256 over argv, exit code, stdout and stderr of each call."""
    os.environ["COLUMNS"] = "80"
    digest = hashlib.sha256()
    for argv in calls:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = run(argv)
        digest.update(json.dumps([argv, code, out.getvalue(), err.getvalue()]).encode())
        digest.update(b"\n")
    return digest.hexdigest()


def main(argv: list[str] | None = None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--session-calls", type=int, default=1500,
                        help="calls taken from each session stream (default: 1500)")
    parser.add_argument("--max-degree", type=int, default=None,
                        help="cap every verify bound at this degree (default: no cap)")
    args = parser.parse_args(argv)
    calls = digest_calls(args.session_calls, args.max_degree)
    print(f"{output_digest(calls)}  {len(calls)} calls")


if __name__ == "__main__":
    main()
