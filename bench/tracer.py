"""Outside-in tracer: wraps sixrde's public functions where callers resolve them.

Each wrapped call records a span (id, parent id, name, start ns, end ns) in
memory; self time is a span's duration minus its children's.  Work the
tracer itself does after a call (gauges, counters) is recorded as a
``trace.gauge`` child so it is not charged to the caller.  Coefficient
lookups are counted, not spanned, to keep their overhead small.  `restore`
puts every original attribute back.
"""

from __future__ import annotations

import importlib
from collections import Counter
from time import perf_counter_ns

GAUGE = "trace.gauge"

#: Span name -> (module, attribute) pairs bound to the same layer.  Every
#: alias a caller can resolve is listed: the package namespace for library
#: callers, the defining module for the CLI, and `sixrde.cli`'s own import of
#: `format_rational`.
LAYERS = {
    "cli.main": [("sixrde.cli", "main")],
    "core.format_rational": [
        ("sixrde.core", "format_rational"),
        ("sixrde.cli", "format_rational"),
        ("sixrde", "format_rational"),
    ],
    "oracle.iterate": [("sixrde.oracle", "iterate"), ("sixrde", "iterate")],
    "oracle.invariant": [
        ("sixrde.oracle", "invariant_sequence"),
        ("sixrde.oracle", "check_invariant_recurrence"),
        ("sixrde", "invariant_sequence"),
        ("sixrde", "check_invariant_recurrence"),
    ],
    "closedform.term": [("sixrde.closedform", "term"), ("sixrde", "term")],
    "closedform.well_defined": [
        ("sixrde.closedform", "well_defined"),
        ("sixrde", "well_defined"),
    ],
    "closedform.unified_magnitude": [
        ("sixrde.closedform", "unified_magnitude"),
        ("sixrde", "unified_magnitude"),
    ],
    "specialcases.term": [
        (module, name)
        for name in (
            "term_const_general",
            "term_const_a1",
            "term_const_a_neg1",
            "term_periodic2",
            "term_periodic4",
        )
        for module in ("sixrde.specialcases", "sixrde")
    ],
    "symmetry.lsc_residual": [
        ("sixrde.symmetry", "lsc_residual"),
        ("sixrde", "lsc_residual"),
    ],
    "symmetry.structure": [
        ("sixrde.symmetry", "verify_reduced_system"),
        ("sixrde.symmetry", "generator_annihilates_invariant"),
        ("sixrde.closedform", "verify_gamma_identities"),
        ("sixrde", "verify_reduced_system"),
        ("sixrde", "generator_annihilates_invariant"),
        ("sixrde", "verify_gamma_identities"),
    ],
}

LOOKUP_METHODS = ("a_at", "b_at", "pair_at")


class Tracer:
    def __init__(self):
        self.spans: list[tuple[int, int, str, int, int]] = []
        self.counters: Counter = Counter()
        self._stack = [0]
        self._next_id = 1
        self._term_depth = 0
        self._patches: list[tuple[object, str, object]] = []

    # -- recording -------------------------------------------------------

    def _open(self) -> tuple[int, int]:
        sid = self._next_id
        self._next_id += 1
        parent = self._stack[-1]
        self._stack.append(sid)
        return sid, parent

    def _close(self, sid: int, parent: int, name: str, t0: int) -> None:
        self.spans.append((sid, parent, name, t0, perf_counter_ns()))
        self._stack.pop()

    def _wrap(self, fn, name: str):
        after = _AFTER.get(name)
        is_term = name == "closedform.term"

        def traced(*args, **kwargs):
            sid, parent = self._open()
            if is_term:
                self._term_depth += 1
            t0 = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                self._close(sid, parent, name, t0)
                self.counters[f"{name}.raised.{type(exc).__name__}"] += 1
                raise
            finally:
                if is_term:
                    self._term_depth -= 1
            self._close(sid, parent, name, t0)
            if after is not None:
                gid, gparent = self._open()
                g0 = perf_counter_ns()
                after(self.counters, result)
                self._close(gid, gparent, GAUGE, g0)
            return result

        return traced

    def _count_lookups(self, fn):
        def counted(*args, **kwargs):
            self.counters["core.coeff_lookups"] += 1
            if self._term_depth:
                self.counters["core.coeff_lookups_in_term"] += 1
            return fn(*args, **kwargs)

        return counted

    # -- patching --------------------------------------------------------

    def _patch(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self) -> None:
        wrappers = {}
        for name, targets in LAYERS.items():
            for module_name, attr in targets:
                module = importlib.import_module(module_name)
                original = getattr(module, attr)
                if original not in wrappers:
                    wrappers[original] = self._wrap(original, name)
                self._patch(module, attr, wrappers[original])
        cls = importlib.import_module("sixrde.core").CoefficientSequence
        for attr in LOOKUP_METHODS:
            self._patch(cls, attr, self._count_lookups(getattr(cls, attr)))

    def restore(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- summary ---------------------------------------------------------

    def layer_times(self) -> tuple[Counter, Counter, Counter]:
        """Per span name: total seconds, self seconds, and call count."""
        child_ns: Counter = Counter()
        for _sid, parent, _name, t0, t1 in self.spans:
            child_ns[parent] += t1 - t0
        total, own, calls = Counter(), Counter(), Counter()
        for sid, _parent, name, t0, t1 in self.spans:
            total[name] += (t1 - t0) / 1e9
            own[name] += (t1 - t0 - child_ns[sid]) / 1e9
            calls[name] += 1
        return total, own, calls

    def write_spans(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("id,parent,name,start_ns,end_ns\n")
            fh.writelines(f"{s},{p},{n},{a},{b}\n" for s, p, n, a, b in self.spans)


def _after_iterate(counters: Counter, orbit) -> None:
    counters["oracle.steps"] += len(orbit.terms) - 6
    counters["oracle.halts"] += orbit.halt is not None


def _after_well_defined(counters: Counter, report) -> None:
    counters["closedform.well_defined.violations"] += len(report.violations)


_AFTER = {
    "oracle.iterate": _after_iterate,
    "closedform.well_defined": _after_well_defined,
}
