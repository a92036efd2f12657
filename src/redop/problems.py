"""Problem-file grammar: tokenizer, parser, and canonical renderer.

A problem file is a sequence of semicolon-terminated statements:

    vars t x;
    dep u;
    fn H(t, x, u, u_x, u_xx) assume nonzero H_{u_xx};
    fn F(u) assume nonzero F_u inverse Ftil;
    eq: u_t = u_xx;
    field expo: 0, 1, u;
    family grow: kappa*exp(t+x) param kappa inverse u*exp(-t-x);
    ansatz sep: phi*exp(x) omega t;

Derivative tokens spell multi-indices with the declared variable letters
(u_txx is the t-once, x-twice jet) or numerically (u[1,2]); derivatives of
declared functions use the formal argument names, braced when longer than
one character (H_{u_xx}). Comments run from '#' to end of line. Names start
with a letter and go on with letters and digits; numbers are ASCII digits
with no decimal point; a braced suffix part ends on its line.

The two axes, the dependent variable, the declared functions and their
inverses share one namespace, and a family's parameter joins it while the
family's f is parsed: no name may be declared twice, and a parameter may not
shadow any of them. A declaration its constructor refuses, such as
fn F(u, u); or fn F(u, t) inverse G; (only a one-argument function has an
inverse), is a ParseError at the statement, so the CLI exits 2, and so is an
expression whose value holds a complex constant (sqrt(-1), ln(-2)). The names
phi (of ansatz statements) and zeta (of the reduced operator set) are
reserved: every jet context holds both, but the text may use phi only in an
ansatz body, as a family's parameter only in its f, and zeta never.

render_problem gives a problem's canonical text, which parse_problem inverts,
and two parsed problems are equal when their canonical texts are.
"""

from __future__ import annotations

import functools
import operator
import re
import sys
from contextlib import contextmanager
from dataclasses import dataclass
from types import MappingProxyType

import sympy as sp

from .core import UnknownFunction, normalize
from .errors import DivisionByZeroDetected, ParseError, UndeclaredIdentifier
from .families import SolutionFamily
from .jets import DifferentialFunction, JetContext, VectorField, ord, refuse_jets

KEYWORDS = {
    "vars", "dep", "fn", "eq", "field", "family", "ansatz",
    "assume", "nonzero", "inverse", "param", "omega",
}
BUILTINS = {"exp", "ln", "sqrt"}
RESERVED = KEYWORDS | BUILTINS | {"phi", "zeta"}

# The tokens, one alternative per kind, tried in order; blanks and comments
# make none. A name starts with a letter: [^\W\d_] also holds numerals that
# are not decimal digits, such as "²", which _tokenize refuses. A number is
# ASCII digits (\d takes "３" too). The end of the text matches 'end', which
# takes a comment on the last line with it, so the end token sits at its '#'.
_TOKEN = re.compile(r"""
    (?P<newline>\n) | (?P<blank>[ \t\r]+)
  | (?P<end>(?:\#[^\n]*)?\Z) | (?P<comment>\#[^\n]*)
  | (?P<decimal>[0-9]+\.) | (?P<num>[0-9]+)
  | (?P<word>(?P<base>[^\W\d_][^\W_]*)
      (?:_(?P<suffix>(?:\{[^}\n]*\}|[^\W_])*)(?P<brace>\{)?)?)
  | (?P<punct>[;:,()\[\]+\-*/^=])
  | (?P<other>.)
""", re.VERBOSE)
# splits a suffix that _TOKEN matched into its parts: braced text or one character
_PART = re.compile(r"\{(.*?)\}|(.)")


@dataclass
class Token:
    kind: str  # num | name | deriv | punct | end
    value: object
    line: int
    col: int


def _tokenize(text):
    tokens = []
    line, line_start = 1, 0
    for m in _TOKEN.finditer(text):
        kind, col = m.lastgroup, m.start() - line_start + 1
        if kind == "newline":
            line, line_start = line + 1, m.end()
        elif kind == "end":
            tokens.append(Token("end", None, line, col))
            return tokens
        elif kind == "decimal":
            raise ParseError("decimal literals are not supported, use fractions", line, col)
        elif kind == "num":
            # int() refuses longer digit strings; the limit is process-wide
            # state and is only read here (Python before 3.10.7 has none)
            limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
            if limit and len(m[kind]) > limit:
                raise ParseError("integer literal has more than %d digits" % limit, line, col)
            tokens.append(Token("num", int(m[kind]), line, col))
        elif kind == "word" and m[0][0].isalpha():
            if m["brace"]:
                col = m.start("brace") - line_start + 1
                raise ParseError("unterminated '{' in derivative token", line, col)
            if m["suffix"] == "":
                col = m.start("suffix") - line_start + 1
                raise ParseError("derivative token needs a suffix after '_'", line, col)
            if m["suffix"] is None:
                tokens.append(Token("name", m["base"], line, col))
            else:
                parts = tuple(a or b for a, b in _PART.findall(m["suffix"]))
                tokens.append(Token("deriv", (m["base"], parts), line, col))
        elif kind == "punct":
            tokens.append(Token("punct", m[kind], line, col))
        elif kind in ("word", "other"):
            raise ParseError("unexpected character %r" % m[0][0], line, col)


def _multi_index(t, symbols, what):
    """The multi-index over symbols that derivative token t's suffix spells:
    each part names one symbol, and what says what a part must be."""
    slots = {s.name: i for i, s in enumerate(symbols)}
    order = [0] * len(symbols)
    for part in t.value[1]:
        if part not in slots:
            raise ParseError("%r is not %s" % (part, what), t.line, t.col)
        order[slots[part]] += 1
    return tuple(order)


@contextmanager
def _declaring(t):
    """A declaration its constructor refuses, or whose normal form divides
    by zero, is a ParseError at statement t."""
    try:
        yield
    except ValueError as e:
        raise ParseError(str(e), t.line, t.col)
    except DivisionByZeroDetected as e:
        raise ParseError("division by zero: %s" % e, t.line, t.col)


@dataclass(frozen=True)
class Ansatz:
    f: object
    omega: object


@dataclass(frozen=True)
class ProblemFile:
    """A parsed problem. It is read-only: the name maps are MappingProxyType
    views and the context is sealed, so any number of commands can share one
    parse."""

    ctx: JetContext
    equation: DifferentialFunction
    function_names: tuple
    fields: MappingProxyType
    families: MappingProxyType
    ansatzes: MappingProxyType

    def __eq__(self, other):
        if not isinstance(other, ProblemFile):
            return NotImplemented
        # each parse declares its own functions, so compare the canonical texts
        return render_problem(self) == render_problem(other)


class _Parser:
    def __init__(self, text):
        self.tokens = _tokenize(text)
        self.pos = 0
        self.ctx = None
        # what each name the text may use stands for: a symbol (an axis, u,
        # a family parameter) or an UnknownFunction
        self.names = {}
        self.function_names = []
        self.equation = None
        self.fields = {}
        self.families = {}
        self.ansatzes = {}

    # token plumbing

    def peek(self):
        return self.tokens[self.pos]

    def next(self):
        t = self.tokens[self.pos]
        self.pos += 1
        return t

    def expect(self, kind, value=None, what=None):
        """The next token, which must be of kind and, given value, equal it;
        anything else is "expected <what>", what defaulting to repr(value)."""
        t = self.next()
        if t.kind != kind or value is not None and t.value != value:
            raise ParseError("expected %s" % (what or repr(value)), t.line, t.col)
        return t

    def fresh_name(self, t, taken=()):
        if t.value in RESERVED:
            raise ParseError("%r is a reserved word" % t.value, t.line, t.col)
        if t.value in self.names or t.value in taken:
            raise ParseError("%r is already declared" % t.value, t.line, t.col)
        return t.value

    # statements

    def parse(self):
        while self.peek().kind != "end":
            t = self.next()
            if t.kind != "name":
                raise ParseError("expected a statement keyword", t.line, t.col)
            handler = getattr(self, "stmt_" + t.value, None)
            if t.value not in KEYWORDS or handler is None:
                raise ParseError("unknown statement %r" % t.value, t.line, t.col)
            handler(t)
        if self.ctx is None:
            raise ParseError("missing 'vars' statement", 1, 1)
        if self.equation is None:
            raise ParseError("missing 'eq:' statement", 1, 1)
        self.ctx.seal()
        return ProblemFile(
            ctx=self.ctx,
            equation=self.equation,
            function_names=tuple(self.function_names),
            fields=MappingProxyType(self.fields),
            families=MappingProxyType(self.families),
            ansatzes=MappingProxyType(self.ansatzes),
        )

    def need_ctx(self, t):
        if self.ctx is None:
            raise ParseError("'vars' and 'dep' must come first", t.line, t.col)

    def stmt_vars(self, t):
        if self.ctx is not None:
            raise ParseError("duplicate 'vars' statement", t.line, t.col)
        a = self.fresh_name(self.expect("name", what="independent variable"))
        b = self.expect("name", what="independent variable")
        if b.value in RESERVED or b.value == a:
            raise ParseError("bad independent variable %r" % b.value, b.line, b.col)
        self.expect("punct", ";")
        self._vars = (a, b.value)

    def stmt_dep(self, t):
        if self.ctx is not None:
            raise ParseError("duplicate 'dep' statement", t.line, t.col)
        if not hasattr(self, "_vars"):
            raise ParseError("'dep' must follow 'vars'", t.line, t.col)
        d = self.expect("name", what="dependent variable")
        if d.value in RESERVED or d.value in self._vars:
            raise ParseError("bad dependent variable %r" % d.value, d.line, d.col)
        self.expect("punct", ";")
        ctx = self.ctx = JetContext(self._vars[0], self._vars[1], d.value)
        self.names.update({ctx.x1.name: ctx.x1, ctx.x2.name: ctx.x2, ctx.dep: ctx.u})

    def stmt_fn(self, t):
        self.need_ctx(t)
        name = self.fresh_name(self.expect("name", what="function name"))
        self.expect("punct", "(")
        args = []
        while True:
            args.append(self.parse_fn_arg())
            nxt = self.next()
            if nxt.kind == "punct" and nxt.value == ",":
                continue
            if nxt.kind == "punct" and nxt.value == ")":
                break
            raise ParseError("expected ',' or ')'", nxt.line, nxt.col)
        nonzero = []
        inverse = None
        while True:
            nxt = self.peek()
            if nxt.kind == "name" and nxt.value == "assume":
                self.next()
                self.expect("name", "nonzero")
                nonzero.extend(self.parse_assume_tokens(name, args))
            elif nxt.kind == "name" and nxt.value == "inverse":
                self.next()
                inverse = self.fresh_name(self.expect("name", what="inverse name"), (name,))
            elif nxt.kind == "punct" and nxt.value == ";":
                self.next()
                break
            else:
                raise ParseError("expected 'assume', 'inverse' or ';'", nxt.line, nxt.col)
        with _declaring(t):
            fn = self.ctx.add_function(name, args, nonzero=nonzero, inverse=inverse)
        self.names.update((f.name, f) for f in (fn, fn.inverse) if f is not None)
        self.function_names.append(name)

    def parse_fn_arg(self):
        t = self.next()
        if t.kind == "name":
            return self.lookup_variable(t)
        if t.kind == "deriv":
            if t.value[0] != self.ctx.dep:
                raise ParseError("formal arguments must be variables or jets", t.line, t.col)
            return self.resolve_deriv(t)
        raise ParseError("expected a formal argument", t.line, t.col)

    def parse_assume_tokens(self, fname, args):
        orders = []
        while True:
            t = self.peek()
            if t.kind == "deriv" and t.value[0] == fname:
                self.next()
                orders.append(_multi_index(t, args, "an argument of %s" % fname))
            elif t.kind == "name" and t.value == fname:
                self.next()
                orders.append((0,) * len(args))
            else:
                break
        if not orders:
            t = self.peek()
            raise ParseError("expected derivative tokens after 'nonzero'", t.line, t.col)
        return orders

    def stmt_eq(self, t):
        self.need_ctx(t)
        if self.equation is not None:
            raise ParseError("duplicate 'eq:' statement", t.line, t.col)
        self.expect("punct", ":")
        body = self.parse_value(t)
        nxt = self.peek()
        if nxt.kind == "punct" and nxt.value == "=":
            self.next()
            body = body - self.parse_value(t)
        self.expect("punct", ";")
        with _declaring(t):
            L = DifferentialFunction(body, self.ctx)
        if ord(L) < 1:
            raise ParseError("the equation must involve derivatives", t.line, t.col)
        self.equation = L

    def stmt_field(self, t):
        self.need_ctx(t)
        name = self.fresh_name(self.expect("name", what="field name"))
        if name in self.fields:
            raise ParseError("duplicate field %r" % name, t.line, t.col)
        self.expect("punct", ":")
        xi1 = self.parse_value(t)
        self.expect("punct", ",")
        xi2 = self.parse_value(t)
        self.expect("punct", ",")
        eta = self.parse_value(t)
        self.expect("punct", ";")
        with _declaring(t):
            self.fields[name] = VectorField(self.ctx, xi1, xi2, eta)

    def stmt_family(self, t):
        self.need_ctx(t)
        name = self.fresh_name(self.expect("name", what="family name"))
        if name in self.families:
            raise ParseError("duplicate family %r" % name, t.line, t.col)
        self.expect("punct", ":")
        # the parameter is declared after the expression that uses it
        param = self._scan_ahead_param(t)
        kappa = self.names[param] = sp.Symbol(param)
        f = self.parse_value(t)
        self.expect("name", "param")
        self.expect("name", what="parameter name")
        self.expect("name", "inverse")
        del self.names[param]
        Phi = self.parse_value(t)
        self.expect("punct", ";")
        with _declaring(t):
            self.families[name] = SolutionFamily(self.ctx, f, Phi, kappa)

    def _scan_ahead_param(self, t):
        i = self.pos
        while i < len(self.tokens):
            tok = self.tokens[i]
            if tok.kind == "punct" and tok.value == ";":
                break
            if tok.kind == "name" and tok.value == "param":
                nxt = self.tokens[i + 1]
                if nxt.kind != "name" or nxt.value in RESERVED:
                    raise ParseError("expected parameter name", nxt.line, nxt.col)
                if nxt.value in self.names:
                    raise ParseError(
                        "parameter shadows a declared variable or function", nxt.line, nxt.col
                    )
                return nxt.value
            i += 1
        raise ParseError("family statement needs a 'param' clause", t.line, t.col)

    def stmt_ansatz(self, t):
        self.need_ctx(t)
        name = self.fresh_name(self.expect("name", what="ansatz name"))
        if name in self.ansatzes:
            raise ParseError("duplicate ansatz %r" % name, t.line, t.col)
        self.expect("punct", ":")
        self.names["phi"] = self.ctx.functions["phi"]
        f = self.parse_value(t)
        self.expect("name", "omega")
        omega = self.parse_value(t)
        del self.names["phi"]
        self.expect("punct", ";")
        with _declaring(t):
            f, omega = normalize(f), normalize(omega)
            refuse_jets("ansatz", f, self.ctx)
            refuse_jets("omega", omega, self.ctx)
        self.ansatzes[name] = Ansatz(f=f, omega=omega)

    # expressions (precedence climbing; ^ is right-associative)

    def parse_value(self, t):
        """An expression of statement t: the kernel has no complex constants,
        so one whose value holds I (sqrt(-1), ln(-2)) or a non-integer power
        of a negative number ((-8)^(1/3), a principal root) is refused at t."""
        e = self.parse_expr()
        if e.has(sp.I) or any(
            p.base.is_number and p.base.is_negative and not p.exp.is_integer for p in e.atoms(sp.Pow)
        ):
            raise ParseError("complex constants are not supported", t.line, t.col)
        return e

    _BINARY = {
        "+": (10, operator.add), "-": (10, operator.sub),
        "*": (20, operator.mul), "/": (20, operator.truediv),
        "^": (30, operator.pow),
    }

    def parse_expr(self, rbp=0):
        left = self.parse_prefix()
        while True:
            t = self.peek()
            if t.kind != "punct" or t.value not in self._BINARY:
                break
            lbp, op = self._BINARY[t.value]
            if lbp <= rbp:
                break
            self.next()
            left = op(left, self.parse_expr(lbp - 1 if t.value == "^" else lbp))
        return left

    def parse_prefix(self):
        t = self.next()
        if t.kind == "num":
            return sp.Integer(t.value)
        if t.kind == "punct" and t.value == "-":
            return -self.parse_expr(15)
        if t.kind == "punct" and t.value == "+":
            return self.parse_expr(15)
        if t.kind == "punct" and t.value == "(":
            e = self.parse_expr()
            self.expect("punct", ")")
            return e
        if t.kind == "deriv":
            return self.resolve_deriv(t)
        if t.kind == "name":
            return self.resolve_name(t)
        raise ParseError("expected an expression", t.line, t.col)

    def resolve_deriv(self, t):
        base = t.value[0]
        if base == self.ctx.dep:
            axes = (self.ctx.x1, self.ctx.x2)
            return self.ctx.jet(*_multi_index(t, axes, "an independent variable"))
        fn = self.names.get(base)
        if isinstance(fn, UnknownFunction):
            return fn.sym(_multi_index(t, fn.args, "an argument of %s" % base))
        raise UndeclaredIdentifier(base, t.line, t.col)

    def lookup_variable(self, t):
        s = self.names.get(t.value)
        if not isinstance(s, sp.Symbol):
            raise UndeclaredIdentifier(t.value, t.line, t.col)
        return s

    def resolve_name(self, t):
        callable_next = (
            self.peek().kind == "punct" and self.peek().value == "("
        )
        if t.value in BUILTINS:
            if not callable_next:
                raise ParseError("%s needs arguments" % t.value, t.line, t.col)
            args = self.parse_call_args()
            if len(args) != 1:
                raise ParseError("%s takes one argument" % t.value, t.line, t.col)
            return {"exp": sp.exp, "ln": sp.log, "sqrt": sp.sqrt}[t.value](args[0])
        fn = self.names.get(t.value)
        if isinstance(fn, UnknownFunction):
            if not callable_next:
                if t.value == "phi":
                    return fn.base
                raise ParseError("%s needs arguments" % t.value, t.line, t.col)
            args = self.parse_call_args()
            if len(args) != len(fn.args):
                raise ParseError(
                    "%s expects %d arguments" % (t.value, len(fn.args)), t.line, t.col
                )
            return fn.applied((0,) * len(fn.args), tuple(args))
        if callable_next:
            raise ParseError("%r is not a function" % t.value, t.line, t.col)
        s = self.lookup_variable(t)
        if s == self.ctx.u and self.peek().kind == "punct" and self.peek().value == "[":
            self.next()
            i1 = self.next()
            self.expect("punct", ",")
            i2 = self.next()
            self.expect("punct", "]")
            if i1.kind != "num" or i2.kind != "num":
                raise ParseError("numeric multi-index expected", i1.line, i1.col)
            return self.ctx.jet(i1.value, i2.value)
        return s

    def parse_call_args(self):
        self.expect("punct", "(")
        args = [self.parse_expr()]
        while True:
            t = self.next()
            if t.kind == "punct" and t.value == ",":
                args.append(self.parse_expr())
            elif t.kind == "punct" and t.value == ")":
                return args
            else:
                raise ParseError("expected ',' or ')'", t.line, t.col)


@functools.lru_cache(maxsize=64)
def parse_problem(text):
    """Parse problem-file text into a fully resolved ProblemFile.

    Each distinct text is parsed once per process: the last 64 texts parsed
    are kept, and every caller of a kept text gets the same read-only
    ProblemFile, whose sealed context refuses add_function. A text that
    raises is not kept.

    Expressions are parsed, built and normalized by recursion, so an
    expression nested deeper than the interpreter's recursion limit allows
    (hundreds of parentheses or unary signs) is a ParseError at the token
    the parser had reached.
    """
    parser = _Parser(text)
    try:
        return parser.parse()
    except RecursionError:
        t = parser.tokens[min(parser.pos, len(parser.tokens) - 1)]
        raise ParseError("expression nested too deeply", t.line, t.col) from None


def render_problem(problem):
    """Canonical problem-file text; parse_problem inverts it."""
    from .report import render as _render

    def render(e):
        return _render(e, call_form=True)

    ctx = problem.ctx
    lines = [
        "vars %s %s;" % (ctx.x1.name, ctx.x2.name),
        "dep %s;" % ctx.dep,
    ]
    for name in problem.function_names:
        fn = ctx.functions[name]
        stmt = "fn %s(%s)" % (name, ", ".join(a.name for a in fn.args))
        if fn.nonzero:
            stmt += " assume nonzero " + " ".join(
                fn.deriv_name(order) for order in sorted(fn.nonzero)
            )
        if fn.inverse is not None:
            stmt += " inverse %s" % fn.inverse.name
        lines.append(stmt + ";")
    lines.append("eq: %s = 0;" % render(problem.equation.body))
    for name, Q in sorted(problem.fields.items()):
        lines.append(
            "field %s: %s, %s, %s;" % (name, render(Q.xi1), render(Q.xi2), render(Q.eta))
        )
    for name, fam in sorted(problem.families.items()):
        lines.append(
            "family %s: %s param %s inverse %s;"
            % (name, render(fam.f), fam.kappa.name, render(fam.Phi))
        )
    for name, a in sorted(problem.ansatzes.items()):
        lines.append("ansatz %s: %s omega %s;" % (name, render(a.f), render(a.omega)))
    return "\n".join(lines) + "\n"
