"""The benchmark's tracer reaches every printer the CLI calls.

``bench/tracing.py`` patches a module-level function in every ``qsym``
namespace that holds the same object, dict values included.  So each public
printer must stay one object, shared by ``syntax``, the ``qsym`` package,
``verification`` and ``cli._RENDERERS``; a printer copied or re-bound in one
of them would escape the ``syntax.format`` layer.  The tracer is loaded from
its file and never modified.
"""

import importlib.util
import sys
from pathlib import Path

import qsym
from qsym import cli, syntax, verification
from qsym.algebra import QSymElement

_TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("_bench_tracing", _TRACING)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


CALLS = [
    ["mul", "[1]", "[2]"],
    ["mul", "[1]", "[2]", "--format", "latex"],
    ["mul", "[1]", "[2]", "--format", "json"],
    ["lyndon", "list", "3"],  # one printer call per composition: [1,2] and [3]
    ["tau", "b^2"],
]


def test_tracer_counts_every_printer_call(capsys):
    tracer = _load_tracing().Tracer("printers")
    tracer.install()
    try:
        assert [cli.run(argv) for argv in CALLS] == [0] * len(CALLS)
    finally:
        tracer.uninstall()
    capsys.readouterr()
    totals = tracer.totals()
    assert totals["syntax.format.calls"] == 6
    assert totals["cli.run.calls"] == 5
    # uninstalled, every binding holds the one original printer again
    assert syntax.format_qsym is qsym.format_qsym is cli._RENDERERS[QSymElement, "text"]
    assert syntax.latex_qsym is cli._RENDERERS[QSymElement, "latex"]
    assert syntax.format_beta is qsym.format_beta is verification.format_beta
    assert syntax.format_composition is verification.format_composition
