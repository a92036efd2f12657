"""Exact symbolic expression kernel.

Expressions are sympy objects restricted to a small language: rational
constants, plain variables, jet variables, derivative symbols of unknown
functions, sums, products, rational powers, and the kernels exp/ln/sqrt.
Construction, differentiation, substitution, normalization and zero testing
all live here. The canonical rational arithmetic is done in sympy's sparse
polynomial rings (sympy.polys.rings): normalize converts numerator and
denominator into one ring over the atoms and cancels them there. The chain
rule through unknown functions is implemented by structural recursion so
that no foreign node kinds (Derivative, Subs) ever appear.
"""

from __future__ import annotations

import enum
import itertools
import random

import sympy as sp
from sympy.polys.rings import sring

from .errors import (
    DivisionByZeroDetected,
    EvaluationExhausted,
    UnknownVariable,
    UnsupportedExpression,
)

# Expressions are immutable sympy objects; every public operation is pure.
Expr = sp.Expr

_BAD = (sp.zoo, sp.nan, sp.oo, -sp.oo)

# Runtime knobs for probabilistic zero testing. The CLI may override
# them; library callers can pass them per call instead.
CONFIG = {"samples": 5, "seed": 0}
# extra sample draws allowed per atom, and the bound on numerators and
# denominators of sampled rational coordinates
RETRIES = 50
COEFF_BOUND = 1000


class TriBool(enum.Enum):
    """Zero-test verdict.

    SAMPLED_ZERO extends the proven/probable trio: it means every sample
    evaluation was zero but no proof exists, which none of the other three
    members can express honestly.
    """

    PROVEN_ZERO = "proven-zero"
    PROVEN_NONZERO = "proven-nonzero"
    PROBABLY_NONZERO = "probably-nonzero"
    SAMPLED_ZERO = "sampled-zero"

    def __bool__(self):  # pragma: no cover - guard against accidental truthiness
        raise TypeError("TriBool verdicts must be compared explicitly")


class FnDerivSymbol(sp.Symbol):
    """Atom for a partial derivative of an unknown function.

    The atom carries its owning function and derivative multi-index. As with
    sympy.Dummy, its identity includes the function's serial number, so atoms
    of two declarations never compare equal even when they print alike.
    Atoms are immutable and their function identifies them, so a copy, deep
    or shallow, is the atom itself. Pickling is not supported.
    """

    __slots__ = ("fn", "order")

    def __new__(cls, fn, order):
        obj = sp.Symbol.__xnew__(cls, fn.deriv_name(order))
        obj.fn = fn
        obj.order = order
        return obj

    def __copy__(self):
        return self

    def __deepcopy__(self, memo):
        return self

    def _hashable_content(self):
        return sp.Symbol._hashable_content(self) + (self.fn.serial, self.order)


class AppliedMapBase(sp.Function):
    """Base class for unknown functions applied at non-formal arguments."""

    fn: "UnknownFunction" = None
    order: tuple = ()


def _applied_fdiff(self, argindex=1):
    fn = self.fn
    if fn.inverse_of is not None and not any(self.order):
        # derivative of a declared inverse: Ftil'(s) = 1/F'(Ftil(s))
        f = fn.inverse_of
        one = tuple(1 if i == 0 else 0 for i in range(len(f.args)))
        return 1 / f.applied(one, (self,))
    new = list(self.order)
    new[argindex - 1] += 1
    return fn.applied(tuple(new), self.args)


_SERIALS = itertools.count()


class UnknownFunction:
    """Named arbitrary element with formal arguments and nonvanishing facts.

    Assumptions are derivative multi-indices declared nonvanishing, e.g.
    (1,) for F_u of F(u). The optional inverse is another UnknownFunction;
    compositions F(Ftil(s)) and Ftil(F(s)) collapse to s on construction.
    """

    def __init__(self, name, args, nonzero=(), inverse=None):
        args = tuple(sp.sympify(a) for a in args)
        if not args or not all(isinstance(a, sp.Symbol) for a in args):
            raise ValueError("formal arguments must be symbols")
        if len(set(args)) != len(args):
            raise ValueError("formal arguments must be distinct")
        self.name = str(name)
        self.args = args
        self.serial = next(_SERIALS)
        self.nonzero = set()
        self.inverse = None
        self.inverse_of = None
        self._syms = {}
        self._applied = {}
        for order in nonzero:
            self.assume_nonzero(order)
        if inverse is not None:
            self.declare_inverse(inverse)

    def __repr__(self):
        return "UnknownFunction(%s%s)" % (self.name, self.args)

    def deriv_name(self, order):
        if not any(order):
            return self.name
        parts = []
        for a, k in zip(self.args, order):
            token = a.name if len(a.name) == 1 else "{%s}" % a.name
            parts.append(token * k)
        return self.name + "_" + "".join(parts)

    def _check_order(self, order):
        order = tuple(int(k) for k in order)
        if len(order) != len(self.args) or any(k < 0 for k in order):
            raise ValueError("bad derivative multi-index %r for %s" % (order, self.name))
        return order

    def assume_nonzero(self, order):
        self.nonzero.add(self._check_order(order))

    def declare_inverse(self, other):
        if len(self.args) != 1:
            raise ValueError("only single-argument functions may declare an inverse")
        if not isinstance(other, UnknownFunction):
            other = UnknownFunction(str(other), (sp.Symbol("_" + str(other)),))
        self.inverse = other
        other.inverse = self
        other.inverse_of = self
        return other

    def sym(self, order):
        """The interned derivative symbol for the given multi-index."""
        order = self._check_order(order)
        s = self._syms.get(order)
        if s is None:
            s = self._syms[order] = FnDerivSymbol(self, order)
        return s

    @property
    def base(self):
        return self.sym((0,) * len(self.args))

    def applied_cls(self, order):
        order = self._check_order(order)
        cls = self._applied.get(order)
        if cls is None:
            fn = self

            @classmethod
            def _eval(cls_, *fargs):
                if any(order) or len(fargs) != 1:
                    return None
                a = fargs[0]
                if (
                    isinstance(a, AppliedMapBase)
                    and fn.inverse is not None
                    and a.fn is fn.inverse
                    and not any(a.order)
                ):
                    return a.args[0]
                return None

            cls = type(
                self.deriv_name(order),
                (AppliedMapBase,),
                {
                    "nargs": len(self.args),
                    "fn": self,
                    "order": order,
                    "fdiff": _applied_fdiff,
                    "eval": _eval,
                },
            )
            self._applied[order] = cls
        return cls

    def applied(self, order, argexprs):
        """Apply the derivative of given multi-index at the given arguments."""
        argexprs = tuple(sp.sympify(a) for a in argexprs)
        if len(argexprs) != len(self.args):
            raise ValueError("%s expects %d arguments" % (self.name, len(self.args)))
        if argexprs == self.args:
            return self.sym(order)
        return self.applied_cls(order)(*argexprs)

    def __call__(self, *argexprs):
        return self.applied((0,) * len(self.args), argexprs)


def fn_symbol_info(s):
    """(UnknownFunction, order) for a derivative symbol, or None."""
    return (s.fn, s.order) if isinstance(s, FnDerivSymbol) else None


def _bump_symbol(s, v):
    for i, a in enumerate(s.fn.args):
        if a == v:
            new = list(s.order)
            new[i] += 1
            return s.fn.sym(tuple(new))
    return sp.S.Zero


def _d(e, v, memo):
    key = (v, e)
    r = memo.get(key)
    if r is not None:
        return r
    if e == v:
        r = sp.S.One
    elif isinstance(e, FnDerivSymbol):
        r = _bump_symbol(e, v)
    elif isinstance(e, sp.Symbol):
        r = sp.S.Zero
    elif e.is_Number or isinstance(e, sp.NumberSymbol):
        r = sp.S.Zero
    elif isinstance(e, sp.Add):
        r = sp.Add(*[_d(a, v, memo) for a in e.args])
    elif isinstance(e, sp.Mul):
        args = e.args
        terms = []
        for i, a in enumerate(args):
            da = _d(a, v, memo)
            if da != 0:
                terms.append(sp.Mul(*args[:i], da, *args[i + 1 :]))
        r = sp.Add(*terms)
    elif isinstance(e, sp.Pow):
        b, p = e.args
        db = _d(b, v, memo)
        dp = _d(p, v, memo)
        r = sp.S.Zero
        if db != 0:
            r = r + p * b ** (p - 1) * db
        if dp != 0:
            r = r + e * sp.log(b) * dp
    elif isinstance(e, (sp.exp, sp.log, AppliedMapBase)):
        r = sp.S.Zero
        for i, a in enumerate(e.args):
            da = _d(a, v, memo)
            if da != 0:
                r = r + e.fdiff(i + 1) * da
    else:
        raise UnsupportedExpression("cannot differentiate node %s" % type(e).__name__)
    memo[key] = r
    return r


def diff(e, v):
    """Partial derivative of e with respect to the atom v.

    The chain rule is applied through unknown-function symbols: the
    derivative of zeta(x1,x2,u) with respect to x1 is the symbol zeta_x1.
    Atoms that are not formal arguments of anything are treated as mutually
    independent.
    """
    if not isinstance(v, sp.Symbol):
        raise UnknownVariable(str(v))
    return normalize(_d(sp.sympify(e), v, {}))


def substitute(e, bindings):
    """Simultaneous substitution of atoms by expressions, then normalization."""
    m = {}
    for k, val in bindings.items():
        if not isinstance(k, sp.Symbol):
            raise UnknownVariable(str(k))
        m[k] = sp.sympify(val)
    return normalize(sp.sympify(e).xreplace(m))


def normalize(e):
    """Canonical quotient of polynomials over the atoms.

    An atom is returned as it is. Otherwise exp products are merged first
    (exp(a)*exp(b) -> exp(a+b)), the expression is split into numerator and
    denominator, both are converted into one sparse polynomial ring whose
    generators are the atoms and the opaque kernels (sring), and the pair
    is cancelled there (PolyElement.cancel: the gcd is divided out and the
    denominator's leading coefficient made canonical) before being
    converted back to p/q. With no generators at all the value is a number
    and is only expanded. Transcendental kernels stay opaque generators
    beyond the exp merging; in particular there is no ln(exp(a)) -> a
    rewrite.

    normalize is idempotent. Its values, and those of diff, substitute,
    substitute_jets, DifferentialFunction.body and the VectorField
    coefficients, are normal; only public functions that accept raw input,
    such as is_zero, normalize them again.
    """
    e = sp.sympify(e)
    if e.has(*_BAD):
        raise DivisionByZeroDetected(sp.sstr(e))
    if e.is_Atom:
        return e
    if e.has(sp.exp):
        e = sp.powsimp(e, combine="exp")
    p, q = e.as_numer_denom()
    ring, (P, Q) = sring((p, q))
    if not ring.ngens:
        e = e.expand()
    else:
        P, Q = P.cancel(Q)
        e = P.as_expr() / Q.as_expr()
    if e.has(*_BAD):
        raise DivisionByZeroDetected(sp.sstr(e))
    return e


def depends_on(e, v):
    """Dependence through free symbols or unknown-function formal arguments."""
    return v in e.free_symbols or any(
        isinstance(s, FnDerivSymbol) and v in s.fn.args for s in e.free_symbols
    )


def _provably_nonzero(f):
    if f.is_Number:
        return f.is_zero is False
    if isinstance(f, sp.NumberSymbol):
        return True
    if isinstance(f, sp.exp):
        return True
    if isinstance(f, FnDerivSymbol):
        return f.order in f.fn.nonzero
    if isinstance(f, sp.Pow):
        b, p = f.args
        return p.is_Rational and _provably_nonzero(b)
    if isinstance(f, sp.Mul):
        return all(_provably_nonzero(a) for a in f.args)
    return False


def _signed_primitive(p):
    """(c, f) with p = c*f: c the rational content of a nonzero p, f a Poly
    with positive leading coefficient, the sign rule of factor_list, or None
    for a number p, which Poly rejects."""
    if p.is_Number:
        return p, None
    c, f = sp.Poly(p).primitive()
    if f.LC().is_negative:
        return -c, -f
    return c, f


def split_nonvanishing(e):
    """(multiplier, residual) of a normal e = multiplier*residual.

    The multiplier, normalized and provably nonvanishing, is the numerator's
    signed rational content times the least power over its terms of each
    provably nonzero generator, over the denominator. _provably_nonzero keeps
    single generators only, so factoring would find the same split. The
    residual is returned unnormalized.
    """
    num, den = e.as_numer_denom()
    multiplier, f = _signed_primitive(num)
    if f is None:
        return normalize(multiplier / den), sp.S.One
    exponents, f = f.terms_gcd()
    residual = f.as_expr()
    for g, k in zip(f.gens, exponents):
        if _provably_nonzero(g):
            multiplier = multiplier * g**k
        else:
            residual = residual * g**k
    return normalize(multiplier / den), residual


def fingerprint(e):
    """Deterministic string identity of an expression, used to seed sampling."""
    return sp.srepr(sp.sympify(e))


def _sample_points(n, samples, seed):
    """Evaluate n at random rational points; yields exact-or-high-precision values."""
    opaque = {}
    for node in n.atoms(AppliedMapBase):
        opaque[node] = sp.Dummy(node.func.__name__)
    body = n.xreplace(opaque) if opaque else n
    atoms = sorted(body.free_symbols, key=sp.default_sort_key)
    # inside ln/sqrt keep arguments positive by sampling positive points
    positive_only = body.has(sp.log) or any(
        isinstance(p, sp.Pow) and not p.exp.is_Integer for p in body.atoms(sp.Pow)
    )
    rng = random.Random("%s:%s" % (seed, fingerprint(n)))
    budget = samples + RETRIES * max(1, len(atoms))
    got = []
    while len(got) < samples and budget > 0:
        budget -= 1
        point = {}
        for a in atoms:
            num = rng.randint(1, COEFF_BOUND)
            den = rng.randint(1, COEFF_BOUND)
            sign = 1 if positive_only or rng.random() < 0.5 else -1
            point[a] = sp.Rational(sign * num, den)
        val = body.xreplace(point)
        if val.has(*_BAD):
            continue
        if val.is_Rational:
            got.append(val)
            continue
        approx = sp.N(val, 40)
        if approx.has(*_BAD) or not approx.is_number:
            continue
        if approx.is_real is False and abs(sp.im(approx)) > sp.Float(10) ** -30:
            continue
        got.append(sp.re(approx))
    if not got:
        raise EvaluationExhausted(
            "no valid sample point found for %s" % sp.sstr(n)
        )
    return got


def is_zero(e, samples=None, seed=None):
    """Three-way-plus-one zero test.

    PROVEN_ZERO only when the normal form is the zero quotient. PROVEN_NONZERO
    for nonzero constants and for a numerator that is itself a product of
    rational powers of provably nonvanishing atoms (nonzero numbers, exp
    kernels, symbols covered by registered assumptions); no factorization is
    tried. Everything else is sampled at random rational points: any nonzero
    value gives PROBABLY_NONZERO, all-zero gives SAMPLED_ZERO.
    """
    n = normalize(e)
    if n == 0:
        return TriBool.PROVEN_ZERO
    if n.is_Number:
        z = n.is_zero
        if z is True:
            return TriBool.PROVEN_ZERO
        if z is False:
            return TriBool.PROVEN_NONZERO
    if not n.free_symbols and not n.atoms(AppliedMapBase):
        # constant the assumptions system cannot settle; decide numerically
        approx = sp.N(n, 40)
        if approx.is_number and abs(approx) > sp.Float(10) ** -30:
            return TriBool.PROBABLY_NONZERO
        return TriBool.SAMPLED_ZERO
    p, _q = n.as_numer_denom()
    if _provably_nonzero(p):
        return TriBool.PROVEN_NONZERO
    samples = CONFIG["samples"] if samples is None else samples
    seed = CONFIG["seed"] if seed is None else seed
    values = _sample_points(n, samples, seed)
    for v in values:
        if v.is_Rational:
            if v != 0:
                return TriBool.PROBABLY_NONZERO
        elif abs(v) > sp.Float(10) ** -30:
            return TriBool.PROBABLY_NONZERO
    return TriBool.SAMPLED_ZERO


def primitive_equation(e):
    """Canonical polynomial form of an equation given as an expression.

    Takes the numerator of the normal form, strips rational content and makes
    the leading coefficient positive, so that equations differing by a nonzero
    rational multiple (or a cleared nonvanishing denominator) compare equal.
    """
    p, _ = normalize(e).as_numer_denom()
    if p == 0:
        return p
    _content, f = _signed_primitive(p)
    return sp.S.One if f is None else f.as_expr()


def equations_equal(a, b):
    """Equality of equations up to nonzero rational multiples and denominators.

    The equations are compared as text, so atoms of two declarations of the
    same function match.
    """
    return fingerprint(primitive_equation(a)) == fingerprint(primitive_equation(b))
