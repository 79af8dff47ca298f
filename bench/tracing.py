"""Spans around qsym's public functions, installed from outside the package.

:class:`Tracer` replaces each traced function with a wrapper that records a
span (name, start, end, parent, run id) and keeps per-group totals: calls,
self time and extra counters.  A group is one layer metric, such as
``algebra.mul``; a call into a group made directly from a span of the same
group is not a new span, so ``calls`` counts outermost entries.

Module-level functions are patched in every ``qsym`` module that binds them,
including dict values such as ``verification.SUITES``; methods are patched on
their class.  :meth:`Tracer.uninstall` puts every original object back.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from array import array
from collections import Counter
from typing import Callable

# group -> targets, each "module:function" or "module:Class.method".
SPAN_GROUPS: dict[str, tuple[str, ...]] = {
    "compositions.enumerate": (
        "qsym.compositions:enumerate_compositions",
        "qsym.compositions:enumerate_lyndon",
    ),
    "compositions.coarsenings": ("qsym.compositions:Composition.coarsenings",),
    "compositions.splits": ("qsym.compositions:Composition.splits",),
    "algebra.mul": ("qsym.algebra:QSymElement.__mul__",),
    "algebra.coproduct": ("qsym.algebra:QSymElement.coproduct",),
    "algebra.antipode": ("qsym.algebra:QSymElement.antipode",),
    "algebra.tensor_mul": ("qsym.algebra:TensorElement.__mul__",),
    "algebra.map_slot": ("qsym.algebra:map_slot",),
    "algebra.contract_product": ("qsym.algebra:contract_product",),
    "algebra.slot_ops": (
        "qsym.algebra:coproduct_first",
        "qsym.algebra:coproduct_second",
        "qsym.algebra:counit_first",
        "qsym.algebra:counit_second",
        "qsym.algebra:tensor",
        "qsym.algebra:triple_tensor",
    ),
    "expansion.expand": ("qsym.expansion:expand",),
    "expansion.poly_mul": ("qsym.expansion:SparsePolynomial.__mul__",),
    "expansion.face_map": ("qsym.expansion:face_map",),
    "expansion.from_polynomial": ("qsym.expansion:from_polynomial",),
    "expansion.rank": ("qsym.expansion:rational_rank",),
    "expansion.generation_matrix": ("qsym.expansion:lyndon_generation_matrix",),
    "chow.gluing": (
        "qsym.chow:gluing_pullback",
        "qsym.chow:gluing_matches_coproduct",
        "qsym.chow:truncate_tensor",
    ),
    "chow.involution": ("qsym.chow:marked_point_involution",),
    "chow.beta_mul": ("qsym.chow:BetaElement.__mul__",),
    "syntax.parse": tuple(
        f"qsym.syntax:parse_{kind}" for kind in ("composition", "qsym", "tensor", "beta")
    ),
    "syntax.format": tuple(
        f"qsym.syntax:{style}_{kind}"
        for style, kinds in (
            ("format", ("composition", "qsym", "tensor", "beta", "polynomial")),
            ("json", ("qsym", "tensor", "beta", "polynomial")),
            ("latex", ("composition", "qsym", "tensor", "beta", "polynomial")),
        )
        for kind in kinds
    ),
    "cli.run": ("qsym.cli:run",),
    **{
        f"verification.{suite}": (f"qsym.verification:{suite.replace('-', '_')}_checks",)
        for suite in ("hopf", "oracle", "limit", "mu", "tau", "lyndon-free")
    },
}

# Counted, not spanned: these run millions of times per pass.
COUNTED = {"compositions.constructed": "qsym.compositions:Composition.__init__"}


def _sized(obj) -> int:
    try:
        return len(obj)
    except TypeError:
        return len(getattr(obj, "_terms", ()))


def _suite_counts(group: str) -> Callable:
    def count(result, args, counters) -> None:
        counters[f"{group}.checks"] += len(result)
        counters[f"{group}.checks_failed"] += sum(1 for c in result if not c.passed)

    return count


def _add_terms_out(group: str) -> Callable:
    def count(result, args, counters) -> None:
        if result is not NotImplemented:
            counters[f"{group}.terms_out"] += _sized(result)

    return count


def _add_rows(result, args, counters) -> None:
    counters["expansion.rank.rows"] += len(args[0])


SUITE_GROUPS = tuple(g for g in SPAN_GROUPS if g.startswith("verification."))
COUNTER_NAMES = (
    *COUNTED,
    "algebra.mul.terms_out",
    "expansion.expand.terms_out",
    "expansion.rank.rows",
    *(f"{g}.{k}" for g in SUITE_GROUPS for k in ("checks", "checks_failed")),
)

RESULT_COUNTERS: dict[str, Callable] = {
    "algebra.mul": _add_terms_out("algebra.mul"),
    "expansion.expand": _add_terms_out("expansion.expand"),
    "expansion.rank": _add_rows,
    **{g: _suite_counts(g) for g in SUITE_GROUPS},
}


def _resolve(target: str):
    """(owner, attribute name, original object) for one target string."""
    module_name, _, path = target.partition(":")
    owner = importlib.import_module(module_name)
    *classes, attr = path.split(".")
    for cls in classes:
        owner = getattr(owner, cls)
    return owner, attr, owner.__dict__[attr]


def _module_bindings(original) -> list[tuple[object, str]]:
    """Every (namespace, key) in a loaded qsym module that holds ``original``."""
    found = []
    for name, module in list(sys.modules.items()):
        if module is None or not (name == "qsym" or name.startswith("qsym.")):
            continue
        for key, value in vars(module).items():
            if value is original:
                found.append((module, key))
            elif type(value) is dict:
                found.extend((value, k) for k, v in value.items() if v is original)
    return found


class Tracer:
    """Records spans and per-group totals while installed."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.groups: list[str] = []
        self.calls: list[int] = []
        self.self_s: list[float] = []
        self.total_s: list[float] = []
        self.counters: Counter[str] = Counter()
        # span columns: id, parent id, group index, start, end
        self.span_ids = array("q")
        self.parents = array("q")
        self.names = array("H")
        self.starts = array("d")
        self.ends = array("d")
        # frames: [group index, span id, time covered by child spans]
        self._stack: list[list] = [[-1, 0, 0.0]]
        self._next_id = 1
        self._patches: list[tuple[object, str, object]] = []

    # -- installation ----------------------------------------------------------

    def install(self) -> None:
        for group, targets in SPAN_GROUPS.items():
            gid = len(self.groups)
            self.groups.append(group)
            self.calls.append(0)
            self.self_s.append(0.0)
            self.total_s.append(0.0)
            for target in targets:
                owner, attr, original = _resolve(target)
                wrapper = self._span_wrapper(gid, original, RESULT_COUNTERS.get(group))
                self._patch(owner, attr, original, wrapper)
        for counter, target in COUNTED.items():
            owner, attr, original = _resolve(target)
            self._patch(owner, attr, original, self._count_wrapper(counter, original))

    def _patch(self, owner, attr, original, wrapper) -> None:
        if isinstance(owner, type):
            places = [(owner, attr)]
        else:
            places = _module_bindings(original)
        for place, key in places:
            self._patches.append((place, key, original))
            if isinstance(place, dict):
                place[key] = wrapper
            else:
                setattr(place, key, wrapper)

    def uninstall(self) -> None:
        while self._patches:
            place, key, original = self._patches.pop()
            if isinstance(place, dict):
                place[key] = original
            else:
                setattr(place, key, original)

    # -- wrappers --------------------------------------------------------------

    def _span_wrapper(self, gid: int, fn: Callable, on_result: Callable | None) -> Callable:
        stack = self._stack
        clock = time.perf_counter
        calls, self_s, total_s = self.calls, self.self_s, self.total_s
        span_ids, parents, names = self.span_ids, self.parents, self.names
        starts, ends, counters = self.starts, self.ends, self.counters

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = stack[-1]
            if parent[0] == gid:
                return fn(*args, **kwargs)
            span_id = self._next_id
            self._next_id = span_id + 1
            frame = [gid, span_id, 0.0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                elapsed = end - start
                parent[2] += elapsed
                calls[gid] += 1
                total_s[gid] += elapsed
                self_s[gid] += elapsed - frame[2]
                span_ids.append(span_id)
                parents.append(parent[1])
                names.append(gid)
                starts.append(start)
                ends.append(end)
            if on_result is not None:
                on_result(result, args, counters)
            return result

        return wrapper

    def _count_wrapper(self, counter: str, fn: Callable) -> Callable:
        counters = self.counters

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counters[counter] += 1
            return fn(*args, **kwargs)

        return wrapper

    # -- results ---------------------------------------------------------------

    def totals(self) -> dict[str, float]:
        """Per-group ``calls``, ``self_s`` and ``wall_s``, plus the counters."""
        out: dict[str, float] = {name: self.counters[name] for name in COUNTER_NAMES}
        for gid, group in enumerate(self.groups):
            out[f"{group}.calls"] = self.calls[gid]
            out[f"{group}.self_s"] = self.self_s[gid]
            out[f"{group}.wall_s"] = self.total_s[gid]
        out["trace.spans"] = len(self.span_ids)
        return out

    def write_spans(self, path: str) -> None:
        """One tab-separated line per span, in the order spans ended."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("run_id\tspan_id\tparent_id\tname\tstart_s\tend_s\n")
            for i in range(len(self.span_ids)):
                fh.write(
                    f"{self.run_id}\t{self.span_ids[i]}\t{self.parents[i]}\t"
                    f"{self.groups[self.names[i]]}\t{self.starts[i]!r}\t{self.ends[i]!r}\n"
                )
