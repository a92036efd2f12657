"""Analysis reports: verdict records, grammar-notation rendering, JSON output.

Statuses: proved (symbolic certificate), sampled (numeric evidence only),
failed (counterexample or disproof), undecidable (no certificate either
way where one was required).

Each status comes from the outcome that decided its claim: the is_zero
verdict on what a claim says vanishes (zero_claim_status) or does not
(nonzero_claim_status), consistency_closure's outcome (closure_status), or
EXACT for a value read off an exact computation with no zero test. Only a
claim with no outcome behind it is undecidable by itself.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field

import sympy as sp
from sympy.printing.str import StrPrinter

from .core import FnDerivSymbol, TriBool

PROVED = "proved"
SAMPLED = "sampled"
FAILED = "failed"
UNDECIDABLE = "undecidable"

# status of a value read off an exact computation with no zero test
EXACT = PROVED

# 500-digit chunks: the interpreter's str(int) digit limit is at least 640
_CHUNK = 10**500


def _decimal(n):
    """The decimal digits of the int n, at any size: str(int) refuses more
    digits than the interpreter's limit, so a long n is split by divmod."""
    if n < 0:
        return "-" + _decimal(-n)
    if n < _CHUNK:
        return str(n)
    high, low = divmod(n, _CHUNK)
    return _decimal(high) + str(low).zfill(500)


class GrammarPrinter(StrPrinter):
    """Prints expressions in the problem-file notation: ^ powers, ln, exp(1).

    With call_form=True undifferentiated unknown functions print as calls
    at their formal arguments (F(u), H(t, x, u, u_x, u_xx)) so the output
    parses back as problem-file text; phi stays bare since the grammar
    reserves it.
    """

    _default_settings = dict(StrPrinter._default_settings, call_form=False)

    def _print_Integer(self, expr):
        return _decimal(expr.p)

    def _print_Rational(self, expr):
        if expr.q == 1:
            return _decimal(expr.p)
        return "%s/%s" % (_decimal(expr.p), _decimal(expr.q))

    def _print_Exp1(self, expr):
        return "exp(1)"

    def _print_log(self, expr):
        return "ln(%s)" % self._print(expr.args[0])

    def _print_Symbol(self, expr):
        if self._settings["call_form"]:
            if isinstance(expr, FnDerivSymbol) and not any(expr.order) and expr.fn.name != "phi":
                fn = expr.fn
                return "%s(%s)" % (fn.name, ", ".join(a.name for a in fn.args))
        return super()._print_Symbol(expr)


def render(e, call_form=False):
    printer = GrammarPrinter({"call_form": call_form})
    return printer.doprint(sp.sympify(e)).replace("**", "^")


def zero_claim_status(verdict):
    """Status for a claim of the form 'expression vanishes'; None, a claim
    that nothing decided, is undecidable."""
    if verdict is None:
        return UNDECIDABLE
    if verdict is TriBool.PROVEN_ZERO:
        return PROVED
    if verdict is TriBool.SAMPLED_ZERO:
        return SAMPLED
    return FAILED


def nonzero_claim_status(verdict):
    """Status for a claim of the form 'expression does not vanish'.

    All-zero samples neither certify nor refute such a claim, so they map
    to undecidable rather than failed, as does None, a value with no valid
    sample point.
    """
    if verdict is TriBool.PROVEN_NONZERO:
        return PROVED
    if verdict is TriBool.PROBABLY_NONZERO:
        return SAMPLED
    if verdict is TriBool.PROVEN_ZERO:
        return FAILED
    return UNDECIDABLE


def closure_status(contradiction, member):
    """Status for a sub-branch verdict from consistency_closure's outcome:
    an inconsistent one rests on its contradicting member; a search that
    found none is sampled, or undecidable when it left a member untested."""
    if contradiction is None and member is None:
        return SAMPLED
    return nonzero_claim_status(contradiction)


@dataclass
class Verdict:
    claim: str
    status: str
    detail: str = ""


@dataclass
class CommandResult:
    command: str
    inputs: dict = field(default_factory=dict)
    verdicts: list = field(default_factory=list)
    expressions: dict = field(default_factory=dict)
    timing_ms: float = 0.0


@dataclass
class AnalysisReport:
    problem: str | None = None
    results: list = field(default_factory=list)
    version: str = "1"

    def to_dict(self):
        d = asdict(self)
        if self.problem is None:
            del d["problem"]
        return d

    @property
    def worst_status(self):
        ranking = {PROVED: 0, SAMPLED: 1, UNDECIDABLE: 2, FAILED: 3}
        worst = PROVED
        for r in self.results:
            for v in r.verdicts:
                if ranking[v.status] > ranking[worst]:
                    worst = v.status
        return worst


def emit_report(report, format="text"):
    if format == "json":
        return json.dumps(report.to_dict(), sort_keys=True)
    if format != "text":
        raise ValueError("format must be 'text' or 'json'")
    lines = []
    if report.problem is not None:
        lines.append("problem: %s" % report.problem)
    for r in report.results:
        inputs = " ".join("%s=%s" % (k, v) for k, v in sorted(r.inputs.items()))
        header = "== %s" % r.command
        if inputs:
            header += " (%s)" % inputs
        header += "  [%.1f ms]" % r.timing_ms
        lines.append(header)
        for name, text in r.expressions.items():
            lines.append("  %s: %s" % (name, text))
        for v in r.verdicts:
            line = "  [%s] %s" % (v.status, v.claim)
            if v.detail:
                line += "  (%s)" % v.detail
            lines.append(line)
    return "\n".join(lines)
