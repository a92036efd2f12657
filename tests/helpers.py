"""Shared builders for the tests: standard equations, corpus access, random data."""

import importlib.util
import sys
from dataclasses import dataclass
from importlib import resources
from pathlib import Path

import sympy as sp
from sympy.core import random as sympy_random

from redop import DifferentialFunction, JetContext, diff, normalize, parse_problem
from redop.core import fingerprint
from redop.errors import ParseError, RedopError
from redop.report import FAILED, UNDECIDABLE, emit_report
from redop.runner import run


def heat():
    """u_t = u_xx on (t, x)."""
    ctx = JetContext("t", "x", "u")
    return ctx, DifferentialFunction(ctx.jet(1, 0) - ctx.jet(0, 2), ctx)


def liouville():
    """u_xy = exp(u) on (x, y)."""
    ctx = JetContext("x", "y", "u")
    return ctx, DifferentialFunction(ctx.jet(1, 1) - sp.exp(ctx.u), ctx)


def wave_zero():
    """u_xy = 0 on (x, y)."""
    ctx = JetContext("x", "y", "u")
    return ctx, DifferentialFunction(ctx.jet(1, 1), ctx)


def wave_generic():
    """u_xy = F(u) with F_u declared nonvanishing."""
    ctx = JetContext("x", "y", "u")
    F = ctx.add_function("F", (ctx.u,), nonzero=((1,),))
    return ctx, DifferentialFunction(ctx.jet(1, 1) - F(ctx.u), ctx), F


def third_order_t():
    """u_ttt = exp(u_xx)*(u_x + u)."""
    ctx = JetContext("t", "x", "u")
    body = ctx.jet(3, 0) - sp.exp(ctx.jet(0, 2)) * (ctx.jet(0, 1) + ctx.u)
    return ctx, DifferentialFunction(body, ctx)


def first_order_t():
    """u_t = exp(u_xx)*(u_x + u), same right-hand side as third_order_t."""
    ctx = JetContext("t", "x", "u")
    body = ctx.jet(1, 0) - sp.exp(ctx.jet(0, 2)) * (ctx.jet(0, 1) + ctx.u)
    return ctx, DifferentialFunction(body, ctx)


# heat with the family u = Ftil(x + kappa), whose inverse F(u) - x holds a
# declared function of u
INVERSE_THROUGH_A_FUNCTION = (
    "vars t x;\ndep u;\nfn F(u) assume nonzero F_u inverse Ftil;\neq: u_t = u_xx;\n"
    "family g: Ftil(x + kappa) param kappa inverse F(u) - x;\n"
)


def corpus_text(stem):
    return (resources.files("redop") / "corpus" / (stem + ".prob")).read_text()


def corpus_problem(stem):
    return parse_problem(corpus_text(stem))


def corpus_stems():
    root = resources.files("redop") / "corpus"
    return sorted(p.name[:-5] for p in root.iterdir() if p.name.endswith(".prob"))


def bench_matrix():
    """The benchmark's job matrix module, bench/matrix.py."""
    path = Path(__file__).resolve().parent.parent / "bench" / "matrix.py"
    spec = importlib.util.spec_from_file_location("bench_matrix", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def job_outcome(matrix, problem, job, seed):
    """The benchmark job's outcome as redop.cli.main would print it, run on
    the parsed problem."""
    options = dict(job.options)
    options.setdefault("xi", "0")
    if job.command == "bijection":
        options["samples"] = matrix.BIJECTION_SAMPLES
    try:
        report = run(job.command, problem, seed=seed, problem_name=job.problem, **options)
    except (RedopError, ValueError) as e:
        return matrix.outcome(2, "", "error: %s" % e)
    code = {FAILED: 1, UNDECIDABLE: 3}.get(report.worst_status, 0)
    return matrix.outcome(code, emit_report(report, "json"), "")


def split_factors(p, keep):
    """Factorization oracle: (multiplier, residual) with p = multiplier*residual,
    both unnormalized.

    The rational content and every irreducible factor power whose base
    satisfies keep go to the multiplier, the other factors to the residual.
    When p cannot be factored it is a single factor of itself.

    factor_list draws evaluation points from sympy's global generator. It
    is seeded from p for the call and restored afterwards, so the cost of
    the split depends on p alone and no other draw of that generator moves.
    """
    state = sympy_random.rng.getstate()
    sympy_random.rng.seed(fingerprint(p))
    try:
        content, factors = sp.factor_list(p)
    except Exception:
        # opaque kernels can defeat the polynomial machinery in many ways;
        # an unsplit p is always a correct answer
        content, factors = sp.S.One, [(p, 1)]
    finally:
        sympy_random.rng.setstate(state)
    multiplier = content
    residual = sp.S.One
    for base, k in factors:
        if keep(base):
            multiplier = multiplier * base**k
        else:
            residual = residual * base**k
    return multiplier, residual


def corpus_values():
    """Normal non-atom values read from the corpus: each equation body and
    its first partial derivatives, and the coefficients of every field,
    family and ansatz."""
    values = []
    for stem in corpus_stems():
        p = corpus_problem(stem)
        body = p.equation.body
        values.append(body)
        values.extend(diff(body, s) for s in sorted(body.free_symbols, key=str))
        for Q in p.fields.values():
            values += [Q.xi1, Q.xi2, Q.eta]
        for fam in p.families.values():
            values += [fam.f, fam.Phi]
        for a in p.ansatzes.values():
            values += [a.f, a.omega]
    return [v for v in map(normalize, values) if not v.is_Atom]


def rand_expr(rng, atoms, depth=3, allow_exp=True):
    """Random expression over the atoms; exponentials never nest."""
    if depth == 0 or rng.random() < 0.3:
        if rng.random() < 0.7:
            return rng.choice(atoms)
        return sp.Integer(rng.randint(1, 4))
    ops = ["add", "add", "mul", "mul", "pow"]
    if allow_exp:
        ops.append("exp")
    op = rng.choice(ops)
    if op == "add":
        a = rand_expr(rng, atoms, depth - 1, allow_exp)
        b = rand_expr(rng, atoms, depth - 1, allow_exp)
        return a - b if rng.random() < 0.3 else a + b
    if op == "mul":
        a = rand_expr(rng, atoms, depth - 1, allow_exp)
        b = rand_expr(rng, atoms, depth - 1, allow_exp)
        # denominators stay away from zero on the sampling box
        if rng.random() < 0.2:
            return a / (1 + b**2)
        return a * b
    if op == "pow":
        return rand_expr(rng, atoms, depth - 1, False) ** rng.randint(2, 3)
    return sp.exp(rand_expr(rng, atoms, depth - 1, False))


def rand_jet_body(rng, ctx, max_order=2, depth=3, extra=()):
    """Random differential function body over coordinates, low jets and
    the extra atoms."""
    atoms = [ctx.x1, ctx.x2, ctx.u, *extra]
    for a1 in range(max_order + 1):
        for a2 in range(max_order + 1 - a1):
            if a1 + a2 > 0:
                atoms.append(ctx.jet(a1, a2))
    return rand_expr(rng, atoms, depth=depth)


# The problem-file lexer as it was before it became one regular expression,
# kept verbatim (but for its name) as the reference of the differential test in
# tests/test_problems.py.

_PUNCT = set(";:,()[]+-*/^=")
# a number is a run of ASCII digits; str.isdigit also accepts "²" and "３"
_DIGITS = set("0123456789")


@dataclass
class Token:
    kind: str  # num | name | deriv | punct | end
    value: object
    line: int
    col: int


def reference_tokenize(text):
    tokens = []
    i, line, col = 0, 1, 1
    n = len(text)
    while i < n:
        c = text[i]
        if c == "\n":
            i += 1
            line += 1
            col = 1
            continue
        if c in " \t\r":
            i += 1
            col += 1
            continue
        if c == "#":
            while i < n and text[i] != "\n":
                i += 1
            continue
        start_col = col
        if c in _DIGITS:
            j = i
            while j < n and text[j] in _DIGITS:
                j += 1
            if j < n and text[j] == ".":
                raise ParseError("decimal literals are not supported, use fractions", line, start_col)
            # int() refuses longer digit strings; the limit is process-wide
            # state and is only read here (Python before 3.10.7 has none)
            limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
            if limit and j - i > limit:
                raise ParseError("integer literal has more than %d digits" % limit, line, start_col)
            tokens.append(Token("num", int(text[i:j]), line, start_col))
            col += j - i
            i = j
            continue
        if c.isalpha():
            j = i
            while j < n and text[j].isalnum():
                j += 1
            name = text[i:j]
            col += j - i
            i = j
            if i < n and text[i] == "_":
                i += 1
                col += 1
                parts = []
                while i < n:
                    if text[i] == "{":
                        k = text.find("}", i)
                        if k < 0:
                            raise ParseError("unterminated '{' in derivative token", line, col)
                        parts.append(text[i + 1 : k])
                        col += k - i + 1
                        i = k + 1
                    elif text[i].isalnum():
                        parts.append(text[i])
                        i += 1
                        col += 1
                    else:
                        break
                if not parts:
                    raise ParseError("derivative token needs a suffix after '_'", line, col)
                tokens.append(Token("deriv", (name, tuple(parts)), line, start_col))
            else:
                tokens.append(Token("name", name, line, start_col))
            continue
        if c in _PUNCT:
            tokens.append(Token("punct", c, line, start_col))
            i += 1
            col += 1
            continue
        raise ParseError("unexpected character %r" % c, line, col)
    tokens.append(Token("end", None, line, col))
    return tokens
