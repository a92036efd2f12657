"""Jet-space bookkeeping for two independent and one dependent variable.

Multi-indices, jet symbols, the chain rule through jets (derivation) and
its rewrite half (substitute_jets), total derivatives, order computation,
characteristics, prolongation of vector fields and transposition. The jets
a body depends on (chain_jets) are its jet atoms and the formal jet arguments
of its derivative symbols, which core.formal_arguments reads.
"""

from __future__ import annotations

from dataclasses import FrozenInstanceError
from functools import cached_property
from types import MappingProxyType
from typing import NamedTuple

import sympy as sp

from .core import (
    FnDerivSymbol,
    UnknownFunction,
    _d,
    _read_only,
    depends_on,
    formal_arguments,
    normalize,
)
from .errors import OrderUndefined


class MultiIndex(NamedTuple):
    """Differentiation counts along the two independent variables."""

    a1: int
    a2: int

    def order(self):
        return self.a1 + self.a2

    def bump(self, axis):
        if axis == 1:
            return MultiIndex(self.a1 + 1, self.a2)
        if axis == 2:
            return MultiIndex(self.a1, self.a2 + 1)
        raise ValueError("axis must be 1 or 2")


class JetSymbol(sp.Symbol):
    """Interned atom for a jet variable u_alpha (the order-0 jet is u itself)."""

    __slots__ = ()


class JetContext:
    """Variable context: the independent pair, the dependent name, functions.

    Jet symbols are interned per context; the same printed name always means
    the same multi-index within one context. Contexts with swapped axes reuse
    the same symbols with transposed indices, which is why the index map is
    per context rather than global. Assigning or deleting an attribute
    raises FrozenInstanceError; only the jet-interning tables grow.
    functions is a read-only view; only add_function declares a name, and
    only until seal is called: the parser seals every context it returns,
    so a parse that many callers share keeps the functions it declared.
    Every context makes its own zeta(x1, x2, u), the u-coefficient of the
    reduced operator set, and the ansatz function phi(w); they replace any
    functions of those names passed in. flipped, the context with the axes
    swapped, is made once, on first use, and is sealed with its parent;
    add_function and seal drop one made before them.
    """

    __setattr__ = __delattr__ = _read_only

    def __init__(self, x1="x1", x2="x2", dep="u", functions=()):
        x1, x2 = sp.Symbol(str(x1)), sp.Symbol(str(x2))
        if x1 == x2:
            raise ValueError("independent variables must be distinct")
        fields = vars(self)
        fields.update(x1=x1, x2=x2, dep=str(dep), _sealed=False, _jets={}, _index={})
        # intern the order-zero jet eagerly so chain rules over unknown
        # functions of u see it even before any derivative is requested
        self.jet(0, 0)
        fields["_functions"] = dict(
            functions,
            zeta=UnknownFunction("zeta", (x1, x2, self.u)),
            phi=UnknownFunction("phi", (sp.Symbol("w"),)),
        )
        fields["functions"] = MappingProxyType(self._functions)

    def __repr__(self):
        return "JetContext(%s, %s; %s)" % (self.x1, self.x2, self.dep)

    def var(self, axis):
        return self.x1 if axis == 1 else self.x2

    def _jet_name(self, idx):
        if idx == (0, 0):
            return self.dep
        n1, n2 = self.x1.name, self.x2.name
        if len(n1) == 1 and len(n2) == 1:
            return "%s_%s" % (self.dep, n1 * idx.a1 + n2 * idx.a2)
        return "%s[%d,%d]" % (self.dep, idx.a1, idx.a2)

    def jet(self, a1, a2=None):
        if a2 is None:
            a1, a2 = a1
        idx = MultiIndex(int(a1), int(a2))
        if idx.a1 < 0 or idx.a2 < 0:
            raise ValueError("negative multi-index")
        s = self._jets.get(idx)
        if s is None:
            s = JetSymbol(self._jet_name(idx))
            self._jets[idx] = s
        self._index[s] = idx
        return s

    @property
    def u(self):
        return self.jet(0, 0)

    def index(self, s):
        """MultiIndex of a jet symbol of this context, else None."""
        return self._index.get(s)

    @cached_property
    def flipped(self):
        """This context with x1 and x2 swapped and a copy of its functions."""
        flipped = JetContext(self.x2.name, self.x1.name, self.dep, self.functions)
        if self._sealed:
            flipped.seal()
        return flipped

    def seal(self):
        """Refuse add_function from now on."""
        vars(self)["_sealed"] = True
        vars(self).pop("flipped", None)

    def add_function(self, name, args, nonzero=(), inverse=None):
        if self._sealed:
            raise FrozenInstanceError("%r is sealed: cannot declare %s" % (self, name))
        vars(self).pop("flipped", None)
        fn = UnknownFunction(name, args, nonzero=nonzero, inverse=inverse)
        self._functions[fn.name] = fn
        if fn.inverse is not None:
            self._functions[fn.inverse.name] = fn.inverse
        return fn


def chain_jets(body, ctx):
    """Jet symbols the body depends on, directly or through unknown functions
    (core.formal_arguments): H(t,x,u,u_x) depends on u_x even though only
    the atom H appears in the expression tree."""
    symbols = body.free_symbols
    atoms = symbols | formal_arguments(symbols)
    return {s: idx for s in atoms if (idx := ctx.index(s)) is not None}


def refuse_jets(what, e, ctx):
    """ValueError when e holds a jet of positive order, directly or through
    the formal arguments of an unknown function (chain_jets); u may stay."""
    positive = (str(s) for s, idx in chain_jets(e, ctx).items() if idx.order() > 0)
    jet = min(positive, default=None)
    if jet is not None:
        raise ValueError("%s %s contains the jet variable %s" % (what, e, jet))


def derivation(body, ctx, coefficients, jet_value=None):
    """The chain rule, not normalized: the sum of c * d(body)/dv over the
    pairs (v, c) of coefficients, plus d(body)/ds * jet_value(idx) over the
    jets s = u_idx of chain_jets(body, ctx) when jet_value is given.

    Every total derivative, prolonged action and field action is one call.
    """
    memo = {}
    raw = sp.S.Zero
    for v, c in coefficients:
        dv = _d(body, v, memo)
        if dv != 0:
            raw = raw + c * dv
    if jet_value is not None:
        for s, idx in chain_jets(body, ctx).items():
            ds = _d(body, s, memo)
            if ds != 0:
                raw = raw + ds * jet_value(idx)
    return raw


def _replace_jets(body, jetmap):
    """body with jet symbols replaced everywhere, not normalized.

    A function symbol whose formal arguments intersect the map becomes the
    corresponding applied map at the rewritten arguments.
    """
    m = dict(jetmap)
    for s in body.free_symbols:
        if isinstance(s, FnDerivSymbol) and any(a in jetmap for a in s.fn.args):
            m[s] = s.fn.applied(s.order, tuple(jetmap.get(a, a) for a in s.fn.args))
    return body.xreplace(m)


def substitute_jets(body, jetmap):
    """Replace jet symbols everywhere, including unknown-function arguments."""
    return normalize(_replace_jets(body, jetmap))


class DifferentialFunction:
    """An expression over a jet context, with normalization at construction.

    A composite is normalized once: by this constructor, given the raw
    composite, or by normalize, never both. It is read-only.
    """

    __setattr__ = __delattr__ = _read_only

    def __init__(self, body, ctx):
        object.__setattr__(self, "body", normalize(body))
        object.__setattr__(self, "ctx", ctx)

    def __repr__(self):
        return "DifferentialFunction(%s)" % self.body

    def __eq__(self, other):
        return (
            isinstance(other, DifferentialFunction)
            and self.body == other.body
            and self.ctx is other.ctx
        )

    def __hash__(self):
        return hash((self.body, id(self.ctx)))

    @property
    def depends_on_u(self):
        return depends_on(self.body, self.ctx.u)


def ord(L):
    """Order of a differential function; -1 iff the body is identically zero.

    Nonzero bodies with no jet variable of positive order have order 0,
    including u-free bodies; u-dependence is exposed separately via
    DifferentialFunction.depends_on_u.
    """
    if L.body == 0:
        return -1
    jets = chain_jets(L.body, L.ctx)
    if not jets:
        return 0
    return max(idx.order() for idx in jets.values())


def total_derivative(L, axis):
    """Total derivative D_i, chain rule through jets and unknown functions."""
    ctx = L.ctx
    raw = derivation(L.body, ctx, ((ctx.var(axis), 1),), lambda idx: ctx.jet(idx.bump(axis)))
    return DifferentialFunction(raw, ctx)


class JetTable:
    """Memoized iterated derivatives: value(a, b) = outer^a inner^b root.

    The entry at (a, b) with a > 0 is outer of (a-1, b), and (0, b) is inner
    of (0, b-1); each is derived once, when it is first asked for.
    """

    def __init__(self, root, outer, inner):
        self.outer = outer
        self.inner = inner
        self._values = {(0, 0): root}

    def value(self, a, b):
        v = self._values.get((a, b))
        if v is None:
            if a > 0:
                v = self.outer(self.value(a - 1, b))
            else:
                v = self.inner(self.value(0, b - 1))
            self._values[(a, b)] = v
        return v


def jet_values(L, value, slopes=None):
    """Values of the jets L depends on when u is given by value.

    Total derivatives follow D_i p = d_i p + p_u * u_i. For an implicit u,
    value is u itself and slopes maps each axis to u_i as a function of
    (x, u). An explicit value has no u in it, so its jets are plain partial
    derivatives and need no slopes.
    """
    ctx = L.ctx

    def D(p, axis):
        coefficients = [(ctx.var(axis), 1)]
        if depends_on(p, ctx.u):
            coefficients.append((ctx.u, slopes[axis]))
        return normalize(derivation(p, ctx, coefficients))

    table = JetTable(value, lambda p: D(p, 1), lambda p: D(p, 2))
    return {s: table.value(*idx) for s, idx in chain_jets(L.body, ctx).items()}


class VectorField:
    """First-order operator xi1*d_1 + xi2*d_2 + eta*d_u with (x,u) coefficients.

    Whether (xi1, xi2) != (0, 0) holds is checked by the operations that
    need it; prolongation itself is happy with fields like x2*d_u. It is
    read-only.
    """

    __setattr__ = __delattr__ = _read_only

    def __init__(self, ctx, xi1, xi2, eta):
        object.__setattr__(self, "ctx", ctx)
        for name, c in zip(("xi1", "xi2", "eta"), (xi1, xi2, eta)):
            object.__setattr__(self, name, normalize(c))
        for c in self.coefficients():
            refuse_jets("coefficient", c, ctx)

    def __repr__(self):
        return "VectorField(%s, %s, %s)" % (self.xi1, self.xi2, self.eta)

    def coefficients(self):
        return (self.xi1, self.xi2, self.eta)

    def apply_to(self, e):
        """Action on a function of (x1, x2, u), no prolongation."""
        ctx = self.ctx
        pairs = zip((ctx.x1, ctx.x2, ctx.u), self.coefficients())
        return normalize(derivation(sp.sympify(e), ctx, pairs))


def characteristic(Q):
    """Q[u] = eta - xi1*u_{1,0} - xi2*u_{0,1}, a DifferentialFunction."""
    ctx = Q.ctx
    return DifferentialFunction(Q.eta - Q.xi1 * ctx.jet(1, 0) - Q.xi2 * ctx.jet(0, 1), ctx)


def _prolonged_coefficients(Q):
    """eta(a, b) = D_1^a D_2^b Q[u] + xi1*u_{a+1,b} + xi2*u_{a,b+1}.

    D_2^b D_1^a Q[u], with D_1 applied first, is read from one JetTable, so
    only the coefficients asked for are derived.
    """
    ctx = Q.ctx
    table = JetTable(
        characteristic(Q),
        lambda f: total_derivative(f, 2),
        lambda f: total_derivative(f, 1),
    )

    def eta(a, b):
        return normalize(
            table.value(b, a).body + Q.xi1 * ctx.jet(a + 1, b) + Q.xi2 * ctx.jet(a, b + 1)
        )

    return eta


def prolong(Q, r):
    """Prolongation coefficients eta^{a,b} for all a+b <= r.

    Computed as D_1^a D_2^b Q[u] + xi1*u_{a+1,b} + xi2*u_{a,b+1}, which also
    reproduces eta itself at (0,0).
    """
    if r < 0:
        raise ValueError("prolongation order must be non-negative")
    eta = _prolonged_coefficients(Q)
    return {MultiIndex(a, b): eta(a, b) for a in range(r + 1) for b in range(r + 1 - a)}


def apply_prolonged(Q, L):
    """Action of the prolonged field Q_(r) on L, with r = ord L."""
    if ord(L) == -1:
        raise OrderUndefined("prolonged action on an identically zero function")
    ctx = L.ctx
    eta = _prolonged_coefficients(Q)
    pairs = ((ctx.x1, Q.xi1), (ctx.x2, Q.xi2))
    return normalize(derivation(L.body, ctx, pairs, lambda idx: eta(*idx)))


def transpose(L):
    """The same differential function with the two axes swapped.

    Formal jet arguments of unknown functions keep their printed names, so
    they must denote the transposed index under the flipped naming scheme;
    single-character variable names guarantee that, positional names do not.
    When some do not, the least such name is refused.
    """
    flipped = L.ctx.flipped
    m = {s: flipped.jet(idx.a2, idx.a1) for s, idx in chain_jets(L.body, L.ctx).items()}
    formal = formal_arguments(L.body.free_symbols)
    refused = min((str(a) for a in formal if m.get(a, a) != a), default=None)
    if refused is not None:
        raise ValueError("unknown-function argument %s cannot be transposed" % refused)
    return DifferentialFunction(L.body.xreplace(m), flipped)
