"""Singularity co-order analysis of vector fields for a differential function.

Elimination of one axis's derivatives on the invariant-surface manifold,
strong and weak co-order computation, symbolic analysis of the reduced
operator sets, and representation checks in adapted jet coordinates.
"""

from __future__ import annotations

from dataclasses import dataclass

import sympy as sp

from .core import (
    Expr,
    FnDerivSymbol,
    Session,
    TriBool,
    arbitrary_elements,
    diff,
    is_zero,
    normalize,
    ring_form,
    split_nonvanishing,
)
from .errors import BothCoefficientsZero, NonPolynomialSplit, NotRepresentable
from .jets import (
    DifferentialFunction,
    JetTable,
    VectorField,
    _replace_jets,
    chain_jets,
    derivation,
    ord,
    substitute_jets,
    total_derivative,
)


class Elimination:
    """One axis's derivatives removed on the manifold of a field Q.

    On the manifold, u_axis = w_0 = (eta - xi_kept*u_kept)/xi_axis, and the
    jet with j+1 derivatives along the eliminated axis and m along the kept
    one equals D_kept^m w_j, where w_{j+1} is w_j under the restricted
    evolution operator. These values are the entries (m, j) of one JetTable.
    hat is L rewritten; apply rewrites any further body on the same manifold.
    k = ord(hat) is the strong co-order, and leader, hat's top jet along the
    kept axis, is the jet a solved restriction is solved for (None when
    k = -1).
    """

    def __init__(self, L, Q, axis):
        ctx = L.ctx
        self.ctx = ctx
        self.axis = axis
        self.kept_axis = 3 - axis
        xi = {1: Q.xi1, 2: Q.xi2}
        xi_hat = normalize(xi[self.kept_axis] / xi[axis])
        eta_hat = normalize(Q.eta / xi[axis])
        self._table = JetTable(
            DifferentialFunction(eta_hat - xi_hat * self.kept_jet(1), ctx),
            lambda f: total_derivative(f, self.kept_axis),
            self._ehat,
        )
        self.hat = self.apply(L.body)
        self.k = ord(self.hat)
        self.leader = None if self.k == -1 else self.kept_jet(self.k)

    def kept_jet(self, m):
        """The jet with m derivatives along the kept axis."""
        return self.ctx.jet((m, 0) if self.kept_axis == 1 else (0, m))

    def _counts(self, idx):
        """(eliminated-axis count, kept-axis count) of a multi-index."""
        return (idx.a1, idx.a2) if self.axis == 1 else (idx.a2, idx.a1)

    def _ehat(self, g):
        """Restricted evolution operator: d_elim plus chain through kept jets."""
        ctx = self.ctx
        r = derivation(
            g.body, ctx, ((ctx.var(self.axis), 1),),
            lambda idx: self._table.value(self._counts(idx)[1], 0).body,
        )
        return DifferentialFunction(r, ctx)

    def apply(self, body):
        """body with every jet along the eliminated axis rewritten."""
        jetmap = {}
        for s, idx in chain_jets(body, self.ctx).items():
            a_elim, a_kept = self._counts(idx)
            if a_elim >= 1:
                jetmap[s] = self._table.value(a_kept, a_elim - 1).body
        return DifferentialFunction(_replace_jets(body, jetmap), self.ctx)


def eliminate_on_Q(L, Q, axis=None):
    """Remove derivatives along one axis using the invariant-surface relation.

    The axis defaults to 2 whenever the normal xi2 is not 0, else to 1;
    forcing an axis with a zero coefficient is rejected. Nothing is sampled.
    """
    z1 = Q.xi1 == 0
    z2 = Q.xi2 == 0
    if z1 and z2:
        raise BothCoefficientsZero("vector field %s has no independent-variable part" % (Q,))
    if axis is None:
        axis = 1 if z2 else 2
    elif (axis == 2 and z2) or (axis == 1 and z1):
        raise BothCoefficientsZero("cannot eliminate along axis %d: its coefficient is zero" % axis)
    return Elimination(L, Q, axis)


@dataclass
class CoorderReport:
    """maximal_rank: is_zero on the residual's derivative by its top kept
    jet (by u at order 0 or less); None when it had no valid sample point."""

    strong: int
    weak_lower: int
    weak_upper: int
    multiplier: Expr
    residual: DifferentialFunction
    maximal_rank: TriBool | None
    elimination: Elimination

    def __post_init__(self):
        if not (self.weak_lower <= self.weak_upper <= self.strong):
            raise ValueError("co-order bounds out of order")

    @property
    def exact(self):
        return self.weak_lower == self.weak_upper


def weak_coorder(L, Q, session=Session()):
    """Strong co-order plus the best multiplier-extracted bound pair."""
    elim = eliminate_on_Q(L, Q)
    if elim.k == -1:
        return CoorderReport(
            strong=-1,
            weak_lower=-1,
            weak_upper=-1,
            multiplier=sp.S.One,
            residual=elim.hat,
            maximal_rank=TriBool.PROVEN_ZERO,
            elimination=elim,
        )
    multiplier, residual_body = split_nonvanishing(elim.hat.body)
    residual = DifferentialFunction(residual_body, elim.ctx)
    upper = ord(residual)
    if upper <= 0:
        # order cannot drop below 0 for a nonzero residual, so the bounds
        # already coincide; the rank verdict records u-dependence only
        rank = is_zero(diff(residual.body, elim.ctx.u), session)
        lower = upper
    else:
        rank = is_zero(diff(residual.body, elim.kept_jet(upper)), session)
        lower = (
            upper
            if rank in (TriBool.PROVEN_NONZERO, TriBool.PROBABLY_NONZERO)
            else 0
        )
    return CoorderReport(
        strong=elim.k,
        weak_lower=lower,
        weak_upper=upper,
        multiplier=multiplier,
        residual=residual,
        maximal_rank=rank,
        elimination=elim,
    )


def reduced_field(ctx, xi):
    """Q = xi*d_1 + d_2 + zeta(x1,x2,u)*d_u with the context's zeta."""
    return VectorField(ctx, xi, 1, ctx.functions["zeta"].base)


def _poly_split(e, gens):
    """Coefficient list of a normal e viewed as a polynomial in the given jets.

    The coefficients are read from the numerator P of e's ring form: P's
    terms grouped by their exponents in the jets, the groups in the order
    of Poly(P, *gens).coeffs(), highest first. NonPolynomialSplit when a
    jet sits inside another generator of P (exp(u_x), F(u_x), sqrt(u_x)).
    """
    gens = [g for g in gens if g in e.free_symbols]
    if not gens:
        return [e]
    ring, P, _Q = ring_form(e)
    for g, k in zip(ring.symbols, P.degrees()):
        if k and g not in gens and not g.free_symbols.isdisjoint(gens):
            raise NonPolynomialSplit("%s contains an element of the set of generators" % g)
    at = [ring.symbols.index(g) for g in gens if g in ring.symbols]
    groups = {}
    for monom, c in P.iterterms():
        rest = list(monom)
        for i in at:
            rest[i] = 0
        groups.setdefault(tuple(monom[i] for i in at), {})[tuple(rest)] = c
    return [ring.from_dict(groups[k]).as_expr() for k in sorted(groups, reverse=True)]


def _null_covers(null_orders, order):
    return any(all(a >= b for a, b in zip(order, n)) for n in null_orders)


def _reduce_by_null(e, unknown, null_orders):
    """e with every derivative of unknown at or above a vanishing order set to 0."""
    covered = [s for s in arbitrary_elements(e, unknown) if _null_covers(null_orders, s.order)]
    return normalize(e.xreplace(dict.fromkeys(covered, sp.S.Zero))) if covered else e


def _bare_symbol(e):
    """The function-derivative symbol s when e = c*s for a nonzero number c."""
    if isinstance(e, FnDerivSymbol):
        return e
    if isinstance(e, sp.Mul):
        syms = [a for a in e.args if isinstance(a, FnDerivSymbol)]
        rest = [a for a in e.args if not isinstance(a, FnDerivSymbol)]
        if len(syms) == 1 and all(a.is_Number for a in rest):
            return syms[0]
    return None


# rounds of u-differentiation consistency_closure explores
CLOSURE_DEPTH = 2


def consistency_closure(equations, unknown, u, session=Session()):
    """Search a normal ζ-system for a contradiction: (verdict, member) for
    a member free of the unknown that does not vanish, with its is_zero
    verdict; else (None, member) for the first such member whose zero test
    drew no valid point; else (None, None).

    Differentiates the system with respect to u, propagates vanishing
    derivative symbols upward, and looks for such a member in each round,
    preferring a PROVEN_NONZERO one within a round. (None, None) means only
    that no contradiction was found within CLOSURE_DEPTH rounds.
    """
    eqs = [e for e in equations if e != 0]
    null_orders = []
    untested = None
    for round_no in range(CLOSURE_DEPTH + 1):
        changed = False
        reduced = []
        seen = set()
        for e in eqs:
            e = _reduce_by_null(e, unknown, null_orders)
            if e == 0:
                continue
            if e in seen:
                continue
            seen.add(e)
            reduced.append(e)
        eqs = reduced
        sampled = None
        for e in eqs:
            if not arbitrary_elements(e, unknown):
                verdict = is_zero(e, session)
                if verdict is TriBool.PROVEN_NONZERO:
                    return verdict, e
                if verdict is TriBool.PROBABLY_NONZERO:
                    sampled = verdict, e
                if verdict is None and untested is None:
                    untested = e
                continue
            s = _bare_symbol(e)
            if s is not None and s.fn is unknown and s.order not in null_orders:
                null_orders.append(s.order)
                changed = True
        if sampled is not None:
            return sampled
        if round_no < CLOSURE_DEPTH:
            new = []
            for e in eqs:
                de = _reduce_by_null(diff(e, u), unknown, null_orders)
                if de != 0:
                    new.append(de)
            if new:
                eqs = eqs + new
                changed = True
        if not changed:
            break
    return None, untested


@dataclass
class SetAnalysis:
    """Symbolic analysis of the one-parameter reduced operator set; the
    sub-branch systems and their consistency_closure outcomes are None for
    a regular set and when the coefficient split fails."""

    k: int
    s_ultra: list | None
    s_zero: list | None
    ultra_closure: tuple | None
    zero_closure: tuple | None
    regular_value: Expr | None
    hat: DifferentialFunction


def analyze_reduced_set(L, xi, session=Session()):
    """Ultra-singular and zero-co-order systems for Q = xi*d_1 + d_2 + ζd_u."""
    ctx = L.ctx
    xi = normalize(xi)
    Q = reduced_field(ctx, xi)
    elim = eliminate_on_Q(L, Q, 2)
    hat, k = elim.hat, elim.k
    if k == ord(L):
        # a regular set has no sub-branches
        return SetAnalysis(k, None, None, None, None, None, hat)
    kept_jets = [elim.kept_jet(j) for j in range(1, max(k, 1) + 1)]
    # an unevaluated map applied to eliminated jets (xi = u pushes kept jets
    # into its arguments) admits no finite coefficient split; leave the
    # sub-branch systems undetermined in that case
    try:
        s_ultra = _poly_split(hat.body, kept_jets)
        s_zero = []
        seen = set()
        for g in kept_jets:
            dg = diff(hat.body, g)
            for c in _poly_split(dg, kept_jets):
                if c != 0 and c not in seen:
                    seen.add(c)
                    s_zero.append(c)
        zeta = ctx.functions["zeta"]
        ultra = consistency_closure(s_ultra, zeta, ctx.u, session)
        zero = consistency_closure(s_zero, zeta, ctx.u, session)
    except NonPolynomialSplit:
        s_ultra = s_zero = ultra = zero = None
    regular_value = sp.S.Zero
    if k >= 0:
        form = representation_check(L, xi, k)
        # Q^n u as an (x,u)-function, the field acting without prolongation
        powers = JetTable(ctx.u, None, Q.apply_to)
        ineq = sp.S.Zero
        for idx, w in form.omegas.items():
            if idx.a1 != k:
                continue
            coeff = diff(form.body, w)
            if coeff != 0:
                ineq = ineq + coeff * diff(powers.value(0, idx.a2), ctx.u)
        # evaluate leftover omega atoms back at their jet-space values
        back = {w: form.values[idx] for idx, w in form.omegas.items()}
        regular_value = normalize(ineq.xreplace(back))
    return SetAnalysis(k, s_ultra, s_zero, ultra, zero, regular_value, hat)


class OmegaSymbol(sp.Symbol):
    """Atom for an adapted jet coordinate omega_{(a1,a2)}."""

    __slots__ = ()


@dataclass
class OmegaForm:
    """L in adapted coordinates: omega atoms by index, and their jet values."""

    body: Expr
    omegas: dict
    values: dict


def _omega_table(ctx, xi):
    """value(a1, a2) = D_1^{a1} (xi D_1 + D_2)^{a2} u, as DifferentialFunctions."""

    def along_jet(idx):
        return xi * ctx.jet(idx.bump(1)) + ctx.jet(idx.bump(2))

    def along_field(f):
        raw = derivation(f.body, ctx, ((ctx.x1, xi), (ctx.x2, 1)), along_jet)
        return DifferentialFunction(raw, ctx)

    return JetTable(
        DifferentialFunction(ctx.u, ctx),
        lambda f: total_derivative(f, 1),
        along_field,
    )


def representation_check(L, xi, k):
    """Rewrite L in the adapted coordinates and check the co-order-k shape.

    The change omega_{(a1,a2)} = D_1^{a1}(xi*D_1 + D_2)^{a2} u is triangular
    in the second index, so the inversion recurses on it. Passes when every
    free omega atom has first index <= k and at least one atom attains k;
    raises NotRepresentable naming the offending atom otherwise.
    """
    ctx = L.ctx
    xi = normalize(xi)
    omegas = {}
    values = {}
    inverse = {}
    table = _omega_table(ctx, xi)

    def omega(idx):
        s = omegas.get(idx)
        if s is None:
            s = OmegaSymbol("w[%d,%d]" % (idx.a1, idx.a2))
            omegas[idx] = s
        return s

    def invert(idx):
        s = ctx.jet(idx)
        e = inverse.get(s)
        if e is not None:
            return e
        values[idx] = table.value(*idx).body
        rest = normalize(values[idx] - s)
        m = {}
        for a, aidx in chain_jets(rest, ctx).items():
            if aidx.a2 >= idx.a2:
                raise NotRepresentable(
                    "coordinate change is not triangular at %s" % s
                )
            m[a] = invert(aidx)
        e = normalize(omega(idx) - substitute_jets(rest, m))
        inverse[s] = e
        return e

    jetmap = {s: invert(idx) for s, idx in chain_jets(L.body, ctx).items()}
    body = substitute_jets(L.body, jetmap)
    present = [idx for idx, w in omegas.items() if w in body.free_symbols]
    bad = [idx for idx in present if idx.a1 > k]
    if bad:
        worst = max(bad, key=lambda i: (i.a1, i.a2))
        raise NotRepresentable(
            "atom w[%d,%d] exceeds first index %d" % (worst.a1, worst.a2, k)
        )
    if not any(idx.a1 == k for idx in present):
        raise NotRepresentable(
            "no omega atom with first index %d present" % k
        )
    return OmegaForm(body=body, omegas=omegas, values=values)
