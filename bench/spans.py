"""Spans and counters around the public functions of redop's layers.

`install` replaces each traced function, in every redop module namespace
that bound it, by a wrapper that records a span: its name, the index of the
enclosing span, and its start and end times. `uninstall` puts the original
objects back. A layer's self time is a span's duration minus the part of it
covered by child spans (`self_times`).

The spans only live in memory; a forked job sends them to the parent over
its pipe.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time

# (label, module, attribute); the label prefix names the layer. The sympy
# and mpmath entries are the library boundary, patched on the library
# module whose attribute redop looks up at call time (`sp.cancel`).
TARGETS = (
    ("core.normalize", "redop.core", "normalize"),
    ("core.diff", "redop.core", "diff"),
    ("core.substitute", "redop.core", "substitute"),
    ("core.is_zero", "redop.core", "is_zero"),
    ("core.primitive_equation", "redop.core", "primitive_equation"),
    ("sympy.cancel", "sympy", "cancel"),
    ("sympy.powsimp", "sympy", "powsimp"),
    ("sympy.factor_list", "sympy", "factor_list"),
    ("jets.total_derivative", "redop.jets", "total_derivative"),
    ("jets.prolong", "redop.jets", "prolong"),
    ("jets.apply_prolonged", "redop.jets", "apply_prolonged"),
    ("jets.transpose", "redop.jets", "transpose"),
    ("jets.DifferentialFunction", "redop.jets", "DifferentialFunction.__init__"),
    ("singular.eliminate_on_Q", "redop.singular", "eliminate_on_Q"),
    ("singular.substitute_jets", "redop.singular", "substitute_jets"),
    ("singular.weak_coorder", "redop.singular", "weak_coorder"),
    ("singular.analyze_reduced_set", "redop.singular", "analyze_reduced_set"),
    ("reduction.determining_singular", "redop.reduction", "determining_singular"),
    ("reduction.determining_regular", "redop.reduction", "determining_regular"),
    ("reduction.conditional_invariance_test", "redop.reduction", "conditional_invariance_test"),
    ("reduction.reduce_with_ansatz", "redop.reduction", "reduce_with_ansatz"),
    ("reduction.solve_for_leader", "redop.reduction", "solve_for_leader"),
    ("families.verify_bijection", "redop.families", "verify_bijection"),
    ("families.backlund_verify", "redop.families", "backlund_verify"),
    ("mpmath.findroot", "mpmath", "findroot"),
    ("sympy.lambdify", "sympy", "lambdify"),
    ("problems.parse_problem", "redop.problems", "parse_problem"),
    ("report.render", "redop.report", "render"),
    ("report.emit_report", "redop.report", "emit_report"),
    ("runner._solved_display", "redop.runner", "_solved_display"),
    ("runner.run", "redop.runner", "run"),
    ("cli.main", "redop.cli", "main"),
)

LAYERS = ("core", "jets", "singular", "reduction", "families", "problems",
          "report", "runner", "cli", "sympy", "mpmath")

IS_ZERO_VERDICTS = ("proven_zero", "proven_nonzero", "probably_nonzero", "sampled_zero")


class Tracer:
    """In-memory spans and counters of one process."""

    def __init__(self):
        self.spans = []  # [label, parent index or -1, start, end]
        self.stack = []
        self.counters = {}
        self.max_ops = 0
        self._normalize_inputs = set()
        self._normalize_outputs = set()

    def count(self, name, n=1):
        self.counters[name] = self.counters.get(name, 0) + n

    def take(self):
        """Hand over and clear the spans and counters recorded so far.

        The sets that decide whether a normalize input or output was seen
        before stay, so distinctness is judged over the process's lifetime.
        """
        out = {"spans": self.spans, "counters": self.counters, "max_ops": self.max_ops}
        self.spans, self.counters, self.max_ops = [], {}, 0
        return out

    # observers run after the span closes, on the wrapped call's result

    def _observe_normalize(self, args, result):
        import sympy

        e = sympy.sympify(args[0])
        if result == e:
            self.count("core.normalize.noop")
        if e not in self._normalize_inputs:
            self._normalize_inputs.add(e)
            self.count("core.normalize.distinct")
        if result not in self._normalize_outputs:
            self._normalize_outputs.add(result)
            self.max_ops = max(self.max_ops, int(sympy.count_ops(result)))

    def _observe_is_zero(self, args, result):
        self.count("core.is_zero." + result.name.lower())

    def _observe_backlund_verify(self, args, result):
        self.count("families.points", len(result.points))

    def wrap(self, label, fn):
        observe = {
            "core.normalize": self._observe_normalize,
            "core.is_zero": self._observe_is_zero,
            "families.backlund_verify": self._observe_backlund_verify,
        }.get(label)
        stack, clock = self.stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            spans = self.spans
            span = [label, stack[-1] if stack else -1, clock(), 0.0]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[3] = clock()
                stack.pop()
            if observe is not None:
                observe(args, result)
            return result

        return traced


def _resolve(module, attr):
    mod = importlib.import_module(module)
    owner = mod
    path = attr.split(".")
    for part in path[:-1]:
        owner = getattr(owner, part)
    return owner, path[-1]


def _namespaces(owner):
    """Where a traced object may be bound: its owner and every redop module."""
    seen = [owner]
    for name, mod in sorted(sys.modules.items()):
        if (name == "redop" or name.startswith("redop.")) and mod is not owner:
            seen.append(mod)
    return seen


def install(tracer):
    """Wrap every target wherever it is bound; returns the undo list."""
    undo = []
    for label, module, attr in TARGETS:
        owner, name = _resolve(module, attr)
        original = vars(owner)[name]
        traced = tracer.wrap(label, original)
        for ns in _namespaces(owner):
            bound = vars(ns)
            for key, value in list(bound.items()):
                if value is original:
                    undo.append((ns, key, original))
                    setattr(ns, key, traced)
    return undo


def uninstall(undo):
    for ns, key, original in reversed(undo):
        setattr(ns, key, original)


def _covered(intervals, start, end):
    """Length of the union of intervals, clipped to [start, end]."""
    total = 0.0
    cur_s = cur_e = None
    for s, e in sorted(intervals):
        s, e = max(s, start), min(e, end)
        if e <= s:
            continue
        if cur_e is None or s > cur_e:
            if cur_e is not None:
                total += cur_e - cur_s
            cur_s, cur_e = s, e
        else:
            cur_e = max(cur_e, e)
    if cur_e is not None:
        total += cur_e - cur_s
    return total


def self_times(spans):
    """{label: [calls, self seconds]} over a list of spans."""
    children = {}
    for label, parent, start, end in spans:
        if parent >= 0:
            children.setdefault(parent, []).append((start, end))
    out = {}
    for i, (label, _parent, start, end) in enumerate(spans):
        acc = out.setdefault(label, [0, 0.0])
        acc[0] += 1
        acc[1] += (end - start) - _covered(children.get(i, ()), start, end)
    return out


def outermost_seconds(spans, label):
    """Total duration of spans of one label not nested in another of the same label."""
    total = 0.0
    for label_i, parent, start, end in spans:
        if label_i != label:
            continue
        p = parent
        while p >= 0 and spans[p][0] != label:
            p = spans[p][1]
        if p < 0:
            total += end - start
    return total
