"""Exact symbolic expression kernel.

Expressions are sympy objects restricted to a small language: rational
constants, plain variables, jet variables, derivative symbols of unknown
functions, sums, products, rational powers, and the kernels exp/ln/sqrt.
Construction, differentiation, substitution, normalization and zero testing
all live here. The canonical rational arithmetic is done in sympy's sparse
polynomial rings (sympy.polys.rings): normalize converts numerator and
denominator into one ring over the atoms and cancels them there. It builds
them by one walk of the expression tree: each leaf (a symbol, exp of a
single term, pi, E, a rational power of a symbol or a positive integer, an
unknown-function node or ln) becomes a generator power as sring would pick
it, and sums, products and integer powers are done in the ring. An input
that is already a sum of rational multiples of distinct monomials in its
leaves, or one such multiple with negative exponents too, is normal and is
returned as it is, without building the ring. Inputs whose normal form
depends on how sympy rewrites them (two exp factors in one product, exp of
a sum, I, floats, other powers and kernels, generator powers that sympy
merges into another generator) are declined by the walk and converted by
the general route of powsimp, as_numer_denom and sring. The walk ranks the
generators by their printed names with sring's own key, so both routes
order them alike. ring_form gives the ring, numerator and denominator of a
normal value, so that callers read degrees, coefficients and the
numerator's content and primitive rest (split_nonvanishing,
primitive_equation, proven) from the ring instead of the tree. Zero testing
has a proof phase, proven, which reads a normal value's form and never
samples, and a sampling phase for what it leaves open, in is_zero. The
chain rule through unknown functions is implemented by structural recursion
so that no foreign node kinds (Derivative, Subs) ever appear. formal_arguments
is the one statement that a derivative symbol depends on its function's formal
arguments, and an unknown function applied elsewhere is an AppliedMapBase node
whose eval collapses a declared inverse pair and whose fdiff differentiates it;
arbitrary_elements finds both kinds in a value. The sampling settings of a run
travel in an immutable Session passed as a parameter. Besides the serial
numbers of unknown functions, the module's one mutable state is normalize's
bounded table of normal forms, which holds values, never settings.
"""

from __future__ import annotations

import enum
import functools
import itertools
import random
from dataclasses import FrozenInstanceError, dataclass

import sympy as sp
from sympy.core.exprtools import decompose_power
from sympy.polys.domains import ZZ
from sympy.polys.monomials import monomial_div, monomial_min
from sympy.polys.orderings import lex
from sympy.polys.polyutils import _gens_order, _max_order, _re_gen
from sympy.polys.rings import PolyRing, sring

from .errors import DivisionByZeroDetected, UnknownVariable, UnsupportedExpression

# Expressions are immutable sympy objects; every public operation is pure.
Expr = sp.Expr

_BAD = (sp.zoo, sp.nan, sp.oo, -sp.oo)
# normalize's bound on general-route passes; no input drawn by the
# property tests in tests/test_core.py has needed more than three
_GENERAL_PASSES = 4
# entries in normalize's table of normal forms, one table per process
_NORMAL_TABLE_SIZE = 4096

# sample points per zero test when the session sets no count
ZERO_TEST_SAMPLES = 5
# extra sample draws allowed per atom, and the bound on numerators and
# denominators of sampled rational coordinates
RETRIES = 50
COEFF_BOUND = 1000


@dataclass(frozen=True)
class Session:
    """--samples and --seed of one run. samples None leaves each sampled test
    its own count: ZERO_TEST_SAMPLES, or families.SURFACE_SAMPLES per kappa."""

    samples: int | None = None
    seed: int = 0


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
    """Base class for unknown functions applied at non-formal arguments: the
    subclass of UnknownFunction.applied_cls names its fn and order."""

    fn: "UnknownFunction" = None
    order: tuple = ()

    @classmethod
    def eval(cls, *args):
        """F(Ftil(s)) and Ftil(F(s)) collapse to s for a declared inverse pair."""
        a = args[0]
        pair = isinstance(a, AppliedMapBase) and a.fn is cls.fn.inverse
        return a.args[0] if pair and not any(cls.order + a.order) else None

    def fdiff(self, argindex=1):
        fn = self.fn
        if fn.inverse_of is not None and not any(self.order):
            # derivative of a declared inverse: Ftil'(s) = 1/F'(Ftil(s))
            return 1 / fn.inverse_of.applied((1,), (self,))
        new = list(self.order)
        new[argindex - 1] += 1
        return fn.applied(tuple(new), self.args)


_SERIALS = itertools.count()


def _read_only(self, name, value=None):
    raise FrozenInstanceError("%s is read-only: %s" % (type(self).__name__, name))


class UnknownFunction:
    """Named arbitrary element with formal arguments and nonvanishing facts.

    Assumptions are derivative multi-indices declared nonvanishing, e.g.
    (1,) for F_u of F(u). A single-argument function may name its inverse
    Ftil, which is made with it over the one formal argument _Ftil;
    compositions F(Ftil(s)) and Ftil(F(s)) collapse to s on construction.
    A function is complete when made and read-only; only its interning
    caches of symbols and classes grow.
    """

    __setattr__ = __delattr__ = _read_only

    def __init__(self, name, args, nonzero=(), inverse=None):
        args = tuple(sp.sympify(a) for a in args)
        if not args or not all(isinstance(a, sp.Symbol) for a in args):
            raise ValueError("formal arguments must be symbols")
        if len(set(args)) != len(args):
            raise ValueError("formal arguments must be distinct")
        fields = vars(self)
        fields.update(name=str(name), args=args, serial=next(_SERIALS), _syms={}, _applied={},
                      inverse=None, inverse_of=None)
        fields["nonzero"] = frozenset(self._check_order(order) for order in nonzero)
        if inverse is not None:
            if len(args) != 1:
                raise ValueError("only single-argument functions may declare an inverse")
            other = UnknownFunction(inverse, (sp.Symbol("_%s" % inverse),))
            vars(other).update(inverse=self, inverse_of=self)
            fields["inverse"] = other

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
            cls = self._applied[order] = type(
                self.deriv_name(order),
                (AppliedMapBase,),
                {"nargs": len(self.args), "fn": self, "order": order},
            )
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
    """Simultaneous substitution of atoms by expressions, then normalization.

    Only atoms are replaced: a declared function's formal arguments keep
    their atoms, so eta(t, x, u) stays at u. jets.substitute_jets rewrites
    those too; only the Q[f] check of reduction.reduce_with_ansatz still
    calls this one.
    """
    m = {}
    for k, val in bindings.items():
        if not isinstance(k, sp.Symbol):
            raise UnknownVariable(str(k))
        m[k] = sp.sympify(val)
    return normalize(sp.sympify(e).xreplace(m))


def _opaque_kernel(e):
    """An unknown-function node or ln that as_numer_denom and expand keep."""
    return isinstance(e, (AppliedMapBase, sp.log)) and not e.has(sp.exp) and e.expand() == e


def _monomial_factor(f):
    """A factor of an exp argument that expand leaves as it is."""
    return (
        f.is_Symbol
        or f.is_Rational
        or (f.is_Pow and f.base.is_Symbol and f.exp.is_Rational)
        or _opaque_kernel(f)
    )


def _collect_leaves(e, leaves):
    """Record leaves[node] = decompose_power(node) for every leaf of e.

    False when e holds a node whose normal form depends on how sympy
    rewrites it: a product of two exp factors (powsimp merges them), exp
    of a sum (as_numer_denom and expand split it and pick each part's
    sign), a rational power of anything but a symbol or a positive
    integer, I, floats, and kernels that expand would change.
    """
    if e.is_Rational or e in leaves:
        return True
    if e.is_Add or e.is_Mul:
        if e.is_Mul and sum(isinstance(a, sp.exp) or a is sp.E for a in e.args) > 1:
            return False
        return all(_collect_leaves(a, leaves) for a in e.args)
    if e.is_Pow and e.exp.is_Integer:
        return _collect_leaves(e.base, leaves)
    if e.is_Symbol or e is sp.pi or e is sp.E:
        ok = True
    elif e.is_Pow:
        ok = e.exp.is_Rational and (e.base.is_Symbol or e.base.is_Integer and e.base > 0)
    elif isinstance(e, sp.exp):
        a = e.exp
        ok = all(_monomial_factor(f) for f in a.args) if a.is_Mul else _monomial_factor(a)
    else:
        ok = _opaque_kernel(e)
    if ok:
        leaves[e] = decompose_power(e)
    return ok


def _fraction(e, leaves, ring, gen_of, memo):
    """(N, dens) with e = N / prod(f**k for f, k in dens.items()), by ring
    arithmetic over the leaves.

    The denominator is kept as a product of factors so that a sum takes
    the least common multiple of its terms' factors: the terms of a
    derivative of P/Q lie over Q and Q**2, and a product of their
    denominators would grow as Q**(number of terms).
    """
    r = memo.get(e)
    if r is not None:
        return r
    if e.is_Rational:
        r = ring(e.p), ({ring(e.q): 1} if e.q != 1 else {})
    elif e in leaves:
        g, k = leaves[e]
        g = gen_of[g]
        r = (g**k, {}) if k > 0 else (ring.one, {g: -k})
    elif e.is_Add:
        terms = [_fraction(a, leaves, ring, gen_of, memo) for a in e.args]
        dens = {}
        for _n, d in terms:
            for f, k in d.items():
                if k > dens.get(f, 0):
                    dens[f] = k
        N = ring.zero
        for n, d in terms:
            for f, k in dens.items():
                if k > d.get(f, 0):
                    n = n * f ** (k - d.get(f, 0))
            N = N + n
        r = N, dens
    elif e.is_Mul:
        N, dens = ring.one, {}
        for a in e.args:
            n, d = _fraction(a, leaves, ring, gen_of, memo)
            N = N * n
            for f, k in d.items():
                dens[f] = dens.get(f, 0) + k
        r = N, dens
    else:
        n, d = _fraction(e.base, leaves, ring, gen_of, memo)
        k = int(e.exp)
        if k > 0:
            r = n**k, {f: j * k for f, j in d.items()}
        else:
            r = _expand_product(ring, d) ** -k, {n: -k}
    memo[e] = r
    return r


def _expand_product(ring, dens):
    """prod(f**k for f, k in dens.items()) as one polynomial."""
    p = ring.one
    for f, k in dens.items():
        p = p * f**k
    return p


def _merge_class(g):
    """(class, q, integral) of a generator g = b**(c*a) with c = 1/q.

    sympy multiplies two generators of one class into a single power, and
    turns g**k into a power of another generator when q > 1 divides k, or
    for a radical of an integer (integral) as soon as k >= q. All radicals
    of integers are one class: sqrt(2)*sqrt(3) is sqrt(6).
    """
    b, a = g.as_base_exp()
    c, a = a.as_coeff_Mul(rational=True)
    integral = b.is_Integer
    return (None if integral else b, a), c.q, integral


def _merges(gens, monoms):
    """True when one of the monomials (exponent tuples over gens) is a
    product that sympy rewrites into other generators, so that sring would
    see another polynomial."""
    classes = {}
    for i, g in enumerate(gens):
        key, q, integral = _merge_class(g)
        classes.setdefault(key, []).append((i, q, integral))
    risky = [m for m in classes.values() if len(m) > 1 or m[0][1] > 1]
    if not risky:
        return False
    for monom in monoms:
        for members in risky:
            present = [(monom[i], q, integral) for i, q, integral in members if monom[i]]
            if len(present) > 1:
                return True
            if present:
                k, q, integral = present[0]
                if q > 1 and (k >= q if integral else k % q == 0):
                    return True
    return False


def _sort_ring_gens(gens):
    """gens in sring's order: _sort_gens ranks their printed names."""
    return sorted(gens, key=lambda g: _gen_key(str(g)))


def _gen_key(name):
    """_sort_gens's rank of a printed name, ties broken by the name."""
    base, index = _re_gen.match(name).groups()
    return _gens_order.get(base, _max_order), base, int(index) if index else 0, name


def _walk(e, leaves):
    """_ring_fraction's (ring, N, D) for an e whose leaves _collect_leaves
    has recorded in leaves."""
    gens = {g for g, _k in leaves.values()}
    if not gens:
        return None
    ring = PolyRing(_sort_ring_gens(gens), ZZ, lex)
    N, dens = _fraction(e, leaves, ring, dict(zip(ring.symbols, ring.gens)), {})
    D = _expand_product(ring, dens)
    if not D or _merges(ring.symbols, itertools.chain(N.itermonoms(), D.itermonoms())):
        return None
    return ring, N, D


def _ring_fraction(e):
    """(ring, N, D) with e = N/D over ZZ, from one walk of e, or None.

    The generators are those sring would find after powsimp and
    as_numer_denom, in sring's order: each leaf's generator and exponent
    come from decompose_power and a negative exponent goes to D. Sums,
    products and integer powers are then done in the ring. None when e
    has no generator, when _collect_leaves declines a node, or when a
    monomial of N or D is a product that sympy would rewrite into other
    generators (exp(x/2)**2 is exp(x), u*sqrt(u) is u**(3/2)).
    """
    leaves = {}
    return _walk(e, leaves) if _collect_leaves(e, leaves) else None


def _kept(e, leaves):
    """True when e is the normal form that the walk, cancel and as_expr
    would rebuild, read from the leaves that _collect_leaves recorded for
    e (so that every number in e is rational) without building the ring.

    That holds for a sum of rational multiples of distinct monomials with
    nonnegative exponents in the generators (its denominator is a number,
    which sympy distributes back over the terms) and for a single rational
    multiple of a monomial with integer exponents (its numerator and
    denominator share no generator), unless sympy would rewrite a
    monomial of the numerator or the denominator into other generators.
    """
    index = {}
    for g, _k in leaves.values():
        index.setdefault(g, len(index))
    terms = sp.Add.make_args(e)
    monoms = set()
    for term in terms:
        _c, rest = term.as_coeff_Mul()
        monom = [0] * len(index)
        for f in () if rest is sp.S.One else sp.Mul.make_args(rest):
            k = 1
            if f not in leaves:
                if not (f.is_Pow and f.exp.is_Integer and f.base in leaves):
                    return False
                f, k = f.base, int(f.exp)
            g, j = leaves[f]
            if j * k < 0 and len(terms) > 1:
                return False
            monom[index[g]] += j * k
        monom = tuple(monom)
        if monom in monoms:
            return False
        monoms.add(monom)
    if len(terms) == 1:
        monoms = [tuple(max(k, 0) for k in monom), tuple(max(-k, 0) for k in monom)]
    return bool(index) and not _merges(list(index), monoms)


def _cancelled(e, leaves):
    """(ring, P, Q, den) with e = P/Q, P and Q coprime and Q's leading
    coefficient positive: the walk's ring when leaves holds e's leaves
    and the walk takes e (den is None), else sring's over
    e.as_numer_denom(), whose denominator den is. A ring with no
    generators is returned uncancelled."""
    walked = None if leaves is None else _walk(e, leaves)
    if walked is not None:
        ring, P, Q = walked
        if Q == ring.one:
            return ring, P, Q, None
        den = None
    else:
        num, den = e.as_numer_denom()
        ring, (P, Q) = sring((num, den))
        if not ring.ngens:
            return ring, P, Q, den
    return (ring,) + P.cancel(Q) + (den,)


def ring_form(e):
    """(ring, P, Q) with e = P/Q for a normal e: P and Q coprime
    polynomials in the atoms and opaque kernels, over ZZ or the domain
    sring picks, Q with a positive leading coefficient (a canonical unit
    of the domain). The ring is the walk's; where the walk declines,
    it is sring's over e.as_numer_denom(), whose split a caller that reads
    e's numerator expects, since e is already normal. Callers read degrees,
    coefficients and monomials from it instead of re-deriving them from
    the expression tree. A number has a ring with no generators."""
    return _ring_form(e)[:3]


def _ring_form(e):
    """ring_form's (ring, P, Q) and the denominator the general route read
    from e's tree, None where the walk took e."""
    e = sp.sympify(e)
    leaves = {}
    return _cancelled(e, leaves if _collect_leaves(e, leaves) else None)


def normalize(e):
    """Canonical quotient of polynomials over the atoms.

    An atom is returned as it is. Otherwise numerator and denominator are
    built in one sparse polynomial ring over ZZ whose generators are the
    atoms and the opaque kernels, and cancelled there (PolyElement.cancel:
    the gcd is divided out and the denominator's leading coefficient made
    canonical) before being converted back to p/q.

    The ring is found by one walk of e (_ring_fraction): sums, products
    and integer powers are done in the ring over the leaves, with the
    generators sring would pick, and a sum is put over the least common
    multiple of its terms' denominator factors. An e that is already
    normal is returned as it is, without building the ring (_kept): a sum
    of rational multiples of distinct monomials in the leaves' generators,
    or a single such multiple with negative exponents too, which the
    walk, cancel and as_expr would rebuild as it is.
    The walk declines the inputs whose normal form depends on how sympy
    rewrites them: products of two exp factors, exp of a sum, rational
    powers of composite bases, I, floats, kernels that expand changes, and
    monomials that sympy would merge into another generator
    (exp(x/2)**2, u*sqrt(u)). Those take the general route: exp
    products are merged first (exp(a)*exp(b) -> exp(a+b)), the expression
    is split by as_numer_denom and both parts are expanded into a ring by
    sring. With no generators at all the value is a number and is only
    expanded. Either way transcendental kernels stay opaque generators
    beyond the exp merging; in particular there is no ln(exp(a)) -> a
    rewrite. ring_form exposes the cancelled pair of a normal value.

    The general route's form depends on its input's form: the normal form
    exp(2*t)/(exp(2*u)*exp(-2*x) + 1) of exp(2*t)/(exp(2*u - 2*x) + 1)
    holds a product of two exp factors, which a second pass merges into
    exp(2*t)*exp(2*x)/(exp(2*u) + exp(2*x)). So a value of the general
    route that differs from its input and holds an exp of a negative
    argument is normalized again, until a pass returns it unchanged or
    _GENERAL_PASSES passes have run.

    normalize is idempotent. Its values, and those of diff, substitute,
    substitute_jets, DifferentialFunction.body and the VectorField
    coefficients, are normal; only public functions that accept raw input,
    such as is_zero, normalize them again.

    There is one bounded table per process (_normal_value, the
    _NORMAL_TABLE_SIZE inputs used last), so every caller that meets an
    input equal to one normalized before reads its value from there. An
    atom does not enter it, and the table records a kept input as kept,
    not as the object first stored: atoms and kept inputs come back as
    themselves. An input that raises is not stored.
    """
    e = sp.sympify(e)
    if e.is_Atom:
        return _normal_pass(e)[0]
    n = _normal_value(e)
    return e if n is None else n


@functools.lru_cache(maxsize=_NORMAL_TABLE_SIZE)
def _normal_value(e):
    """normalize's value of the non-atom e, or None when that is e itself."""
    n = e
    for _ in range(_GENERAL_PASSES):
        m, general = _normal_pass(n)
        done = not general or m == n or not _has_negative_exp(m)
        n = m
        if done:
            break
    return None if n is e else n


def _has_negative_exp(e):
    """Whether e holds an exp whose argument reads as negative (exp(-2*x),
    exp(-4)). Only such general-route values have changed in a second
    pass; the others are not passed again."""
    return any(a.exp.could_extract_minus_sign() for a in e.atoms(sp.exp))


def _normal_pass(e):
    """(n, general): normalize's n from one pass over e, and whether n came
    from the general route."""
    if e.has(*_BAD):
        raise DivisionByZeroDetected(sp.sstr(e))
    if e.is_Atom:
        return e, False
    leaves = {}
    if not _collect_leaves(e, leaves):
        leaves = None
        if e.has(sp.exp):
            e = sp.powsimp(e, combine="exp")
    elif _kept(e, leaves):
        return e, False
    ring, P, Q, den = _cancelled(e, leaves)
    if not ring.ngens:
        e = e.expand()
    else:
        e = P.as_expr() if Q == ring.one else P.as_expr() / Q.as_expr()
    if e.has(*_BAD):
        raise DivisionByZeroDetected(sp.sstr(e))
    return e, den is not None


def formal_arguments(symbols):
    """The formal arguments of the derivative symbols among the free symbols
    of an expression: H_u of H(t, x, u, u_x) depends on u_x although only
    the atom H_u is in the tree. The one statement of that rule."""
    return {a for s in symbols if isinstance(s, FnDerivSymbol) for a in s.fn.args}


def depends_on(e, v):
    """Dependence through free symbols or unknown-function formal arguments."""
    symbols = e.free_symbols
    return v in symbols or v in formal_arguments(symbols)


def arbitrary_elements(e, fn=None):
    """The unknown-function nodes of e, of fn alone when it is given: its
    derivative symbols and its applied maps, each with .fn and .order. The
    one statement of which arbitrary elements a value holds."""
    nodes = {s for s in e.free_symbols if isinstance(s, FnDerivSymbol)} | e.atoms(AppliedMapBase)
    return {n for n in nodes if fn is None or n.fn is fn}


def _provably_nonzero(f):
    """Whether the number or ring generator f vanishes nowhere: a nonzero
    number, pi, E, exp, a derivative declared nonvanishing, or a rational
    power of one of these."""
    if isinstance(f, sp.Pow):
        return f.exp.is_Rational and _provably_nonzero(f.base)
    if isinstance(f, FnDerivSymbol):
        return f.order in f.fn.nonzero
    return (f.is_Number and f.is_zero is False) or isinstance(f, (sp.NumberSymbol, sp.exp))


def _primitive_numerator(e):
    """(c, P, Q, den) with a normal nonzero e = c*P/Q, from its ring form
    (den as _ring_form gives it): c is the numerator's content, negated
    when its leading coefficient is a negative number (the sign rule of
    sympy's factorization), or the numerator itself when that is a number;
    P is the primitive rest, a ring element."""
    ring, P, Q, den = _ring_form(e)
    if P.is_ground:
        return ring.domain.to_sympy(P.LC), ring.one, Q, den
    c = P.content()
    if ring.domain.to_sympy(P.LC).is_negative:
        c = -c
    return ring.domain.to_sympy(c), P.quo_ground(c), Q, den


def split_nonvanishing(e):
    """(multiplier, residual) of a normal e = multiplier*residual.

    Both are read from e's ring form. The multiplier, normalized and
    provably nonvanishing, is the numerator's signed rational content times
    the least power over its terms of each provably nonzero generator, over
    the denominator. _provably_nonzero keeps single generators only, so
    factoring would find the same split. The residual, the primitive rest
    times the other least powers, is returned unnormalized.

    Where the general route read e's denominator from its tree and that
    expands to Q, the multiplier is put over the denominator as e writes
    it. The general route's form depends on its input's: Q expanded would
    spread an exp factor of e's denominator over its terms, where powsimp
    merges it with the exp factors beside it, and the same value would
    take another form.
    """
    multiplier, P, Q, den = _primitive_numerator(e)
    m = monomial_min(*P.itermonoms())
    residual = P.ring.from_dict({monomial_div(k, m): a for k, a in P.iterterms()}).as_expr()
    for g, k in zip(P.ring.symbols, m):
        if _provably_nonzero(g):
            multiplier = multiplier * g**k
        else:
            residual = residual * g**k
    Q = Q.as_expr()
    if den is None or den.expand() != Q:
        den = Q
    return normalize(multiplier / den), residual


def fingerprint(e):
    """Deterministic string identity of an expression, used to seed sampling."""
    return sp.srepr(sp.sympify(e))


def _sample_points(n, samples, seed):
    """Evaluate n at random rational points, yielding exact-or-high-precision
    values one at a time, so that a caller that stops early draws no
    further point; a constant has one point. Nothing is yielded when the
    draws run out of budget before a valid point."""
    opaque = {}
    for node in n.atoms(AppliedMapBase):
        opaque[node] = sp.Dummy(node.func.__name__)
    body = n.xreplace(opaque) if opaque else n
    atoms = sorted(body.free_symbols, key=sp.default_sort_key)
    samples = samples if atoms else 1
    # inside ln/sqrt keep arguments positive by sampling positive points
    positive_only = body.has(sp.log) or any(
        isinstance(p, sp.Pow) and not p.exp.is_Integer for p in body.atoms(sp.Pow)
    )
    rng = random.Random("%s:%s" % (seed, fingerprint(n)))
    budget = samples + RETRIES * len(atoms)
    found = 0
    while found < samples and budget > 0:
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
            found += 1
            yield val
            continue
        approx = sp.N(val, 40)
        if approx.has(*_BAD) or not approx.is_number:
            continue
        if approx.is_real is False and abs(sp.im(approx)) > sp.Float(10) ** -30:
            continue
        found += 1
        yield sp.re(approx)


def proven(n):
    """is_zero's proof phase on a normal n: PROVEN_ZERO, PROVEN_NONZERO or None.

    PROVEN_ZERO for the zero quotient; PROVEN_NONZERO for a nonzero number
    and for a value with no sum as a factor whose ring-form numerator is
    one term, a nonzero rational times powers of generators that
    _provably_nonzero keeps; no factorization is tried. It never samples.
    """
    if n == 0:
        return TriBool.PROVEN_ZERO
    if n.is_Number:
        return TriBool.PROVEN_NONZERO if n.is_zero is False else None
    if not any(isinstance(a, sp.Add) for a in sp.Mul.make_args(n)):
        # a normal value with a sum as a factor (or a sum) is the quotient
        # of a numerator of several terms
        c, P, _Q, _den = _primitive_numerator(n)
        if len(P) == 1 and _provably_nonzero(c) and all(
            _provably_nonzero(g) for g, k in zip(P.ring.symbols, P.LM) if k
        ):
            return TriBool.PROVEN_NONZERO
    return None


def is_zero(e, session=Session()):
    """Three-way-plus-one zero test: proven on the normal form, then sampling.

    What the proof leaves open is sampled at the session's count of random
    rational points (default ZERO_TEST_SAMPLES; a constant has one) drawn
    from a generator keyed by its seed and the value. Any nonzero value
    gives PROBABLY_NONZERO, all-zero SAMPLED_ZERO, and no valid point None,
    the outcome that decided nothing. Only reported verdicts and
    solve_for_leader's nonvanishing coefficients call it; branch decisions
    read the proof alone.
    """
    n = normalize(e)
    if (verdict := proven(n)) is not None:
        return verdict
    samples = ZERO_TEST_SAMPLES if session.samples is None else session.samples
    for v in _sample_points(n, samples, session.seed):
        if v.is_Rational:
            if v != 0:
                return TriBool.PROBABLY_NONZERO
        elif abs(v) > sp.Float(10) ** -30:
            return TriBool.PROBABLY_NONZERO
        verdict = TriBool.SAMPLED_ZERO
    return verdict


def primitive_equation(e):
    """Canonical polynomial form of an equation given as an expression.

    Takes the numerator of the normal form's ring form, strips rational
    content and makes the leading coefficient positive, so that equations
    differing by a nonzero rational multiple (or a cleared nonvanishing
    denominator) compare equal.
    """
    n = normalize(e)
    if n == 0:
        return sp.S.Zero
    return _primitive_numerator(n)[1].as_expr()


def equations_equal(a, b):
    """Equality of equations up to nonzero rational multiples and denominators.

    The equations are compared as text, so atoms of two declarations of the
    same function match.
    """
    return fingerprint(primitive_equation(a)) == fingerprint(primitive_equation(b))
