"""Conditional invariance, determining systems, and ansatz reductions.

The singular route builds the single determining equation from the solved
restriction u_{1,0} = G(x1, x2, u); the regular route splits the invariance
residual polynomially as in the classical nonclassical-symmetry method.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce

import sympy as sp

from .core import (
    AppliedMapBase,
    Expr,
    Session,
    TriBool,
    _d,
    arbitrary_elements,
    depends_on,
    diff,
    is_zero,
    normalize,
    proven,
    ring_form,
    substitute,
)
from .errors import (
    LeaderNotSolvable,
    ResidualNonInvariant,
    SetNotFirstCoorder,
    UnsupportedAnsatz,
)
from .jets import (
    DifferentialFunction,
    JetTable,
    _replace_jets,
    apply_prolonged,
    chain_jets,
    derivation,
    jet_values,
    ord,
    substitute_jets,
    total_derivative,
)
from .singular import _poly_split, eliminate_on_Q, reduced_field, representation_check


def solve_for_leader(Lhat, leader, session=Session()):
    """Solve L̂ = 0 for the leader, affine case or invertible-kernel case.

    The kernel case covers bodies affine in a single node K(leader) with K
    either exp or a univariate unknown function carrying a declared inverse.
    Lhat is a DifferentialFunction.
    """
    body = Lhat.body
    a = diff(body, leader)
    if a != 0 and not depends_on(a, leader):
        b = normalize(body - a * leader)
        if not depends_on(b, leader):
            if is_zero(a, session) in (TriBool.PROVEN_NONZERO, TriBool.PROBABLY_NONZERO):
                return normalize(-b / a)
            raise LeaderNotSolvable(
                "coefficient %s of %s is not confirmably nonzero" % (a, leader)
            )
    kernels = [node for node in body.atoms(sp.exp, AppliedMapBase) if node.has(leader)]
    kernels += [s for s in body.free_symbols - {leader} if depends_on(s, leader)]
    if len(kernels) != 1:
        raise LeaderNotSolvable(
            "body is not affine in %s and has no single invertible kernel" % leader
        )
    K = kernels[0]
    c = normalize(_d(body, K, {}))
    if c == 0 or depends_on(c, leader):
        raise LeaderNotSolvable("kernel %s does not enter affinely" % K)
    rest = normalize(body - c * K)
    if depends_on(rest, leader):
        raise LeaderNotSolvable("%s appears outside the kernel %s" % (leader, K))
    if is_zero(c, session) not in (TriBool.PROVEN_NONZERO, TriBool.PROBABLY_NONZERO):
        raise LeaderNotSolvable("kernel coefficient %s may vanish" % c)
    rhs = normalize(-rest / c)
    if isinstance(K, sp.exp):
        if K.args[0] != leader:
            raise LeaderNotSolvable("exp argument %s is not the leader" % K.args[0])
        if rhs == 0:
            raise LeaderNotSolvable("logarithm of a vanishing value")
        return normalize(sp.log(rhs))
    fn, order = K.fn, K.order
    if isinstance(K, AppliedMapBase) and K.args != (leader,):
        raise LeaderNotSolvable("kernel argument %s is not the leader" % (K.args,))
    if any(order) or len(fn.args) != 1 or fn.args[0] != leader:
        raise LeaderNotSolvable("kernel %s is not a plain function of the leader" % K)
    if fn.inverse is None:
        raise LeaderNotSolvable("%s has no declared inverse" % fn.name)
    return normalize(fn.inverse(rhs))


def _consequences(elim, sol):
    """JetTable whose entry (0, j) is the order-(k + j) kept-axis jet on the
    solved relation elim.leader = sol, as a DifferentialFunction: sol, then
    the total derivative of the entry below with the leader replaced by sol.
    Each entry holds only kept-axis jets below the leader, so a total
    derivative brings in the leader and no higher jet."""
    ctx = elim.ctx

    def step(row):
        row = total_derivative(row, elim.kept_axis)
        if elim.leader in row.body.free_symbols:
            row = DifferentialFunction(_replace_jets(row.body, {elim.leader: sol}), ctx)
        return row

    return JetTable(DifferentialFunction(sol, ctx), None, step)


def _restrict_to_solved(expr, elim, sol):
    """Substitute the relation elim.leader = sol and its consequences into expr."""
    k, kept = elim.k, elim.kept_axis
    max_order = max(
        (idx.a1 if kept == 1 else idx.a2 for idx in chain_jets(expr, elim.ctx).values()),
        default=0,
    )
    if max_order < k:
        return expr
    jetmap = {elim.leader: sol}
    if max_order > k:
        table = _consequences(elim, sol)
        for m in range(k + 1, max_order + 1):
            jetmap[elim.kept_jet(m)] = table.value(0, m - k).body
    return substitute_jets(expr, jetmap)


def _restricted_action(L, Q, ip, axis, session):
    """Prolonged action ip on L ∩ Q_(r), eliminated along axis.

    Both L and ip are eliminated on Q, by the same Elimination; when the
    strong co-order of L is not -1 its leader is solved and substituted,
    with its consequences, into the eliminated ip. Raises LeaderNotSolvable
    if the leader cannot be solved for.
    """
    elim = eliminate_on_Q(L, Q, axis)
    ip_elim = elim.apply(ip).body
    if elim.k == -1:
        return ip_elim
    sol = solve_for_leader(elim.hat, elim.leader, session)
    return _restrict_to_solved(ip_elim, elim, sol)


def conditional_invariance_test(L, Q, session=Session()):
    """Definition-level test: prolonged action restricted to L ∩ Q_(r)."""
    ip = apply_prolonged(Q, L)
    if ip == 0:
        return TriBool.PROVEN_ZERO
    return is_zero(_restricted_action(L, Q, ip, None, session), session)


@dataclass
class DeterminingSystem:
    equations: list
    case: str
    G: Expr | None
    assumptions: list


def _classify(L):
    """'evolution', 'wave', or 'singular-general' by the solved-form shape."""
    ctx = L.ctx
    body = L.body
    u10 = ctx.jet(1, 0)
    a = diff(body, u10)
    if a.is_Number and a != 0:
        rest = normalize(body - a * u10)
        if all(idx.a1 == 0 for idx in chain_jets(rest, ctx).values()):
            return "evolution"
    u11 = ctx.jet(1, 1)
    c = diff(body, u11)
    if c.is_Number and c != 0:
        rest = normalize(body - c * u11)
        if all(idx.order() == 0 for idx in chain_jets(rest, ctx).values()):
            return "wave"
    return "singular-general"


def determining_singular(L, xi, session=Session()):
    """The single determining equation for first-co-order reduced sets.

    With the restriction solved as u_{1,0} = G(x1,x2,u), the equation reads
    zeta_1 + zeta_u G - (xi_1 + xi_u G) G = xi G_1 + G_2 + zeta G_u.
    """
    ctx = L.ctx
    xi = normalize(xi)
    elim = eliminate_on_Q(L, reduced_field(ctx, xi), 2)
    if 0 <= elim.k < ord(L):
        # the set must take the co-order-k shape in adapted coordinates
        representation_check(L, xi, elim.k)
    if elim.k != 1:
        raise SetNotFirstCoorder("reduced-set co-order is %d" % elim.k)
    coeff = diff(elim.hat.body, elim.leader)
    G = solve_for_leader(elim.hat, elim.leader, session)
    assumptions = []
    if proven(coeff) is not TriBool.PROVEN_NONZERO:
        assumptions.append(coeff)
    zeta = ctx.functions["zeta"]
    z = zeta.base
    z1 = zeta.sym((1, 0, 0))
    zu = zeta.sym((0, 0, 1))
    xi1 = diff(xi, ctx.x1)
    xiu = diff(xi, ctx.u)
    eq = normalize(
        z1
        + zu * G
        - (xi1 + xiu * G) * G
        - (xi * diff(G, ctx.x1) + diff(G, ctx.x2) + z * diff(G, ctx.u))
    )
    return DeterminingSystem(
        equations=[eq],
        case=_classify(L),
        G=G,
        assumptions=assumptions,
    )


def de0_equation(L):
    """Direct determining equation for evolution bodies u_{1,0} = H(...).

    Built from the substituted right-hand side H~ obtained by the chain
    Y_1 = zeta, Y_{j+1} = d_2 Y_j + zeta d_u Y_j, without going through the
    elimination machinery; serves as an independent cross-check. The
    equation is in the zeta of L's context.
    """
    ctx = L.ctx
    if _classify(L) != "evolution":
        raise ValueError("body is not in evolution form")
    u10 = ctx.jet(1, 0)
    a = diff(L.body, u10)
    H = normalize(-(L.body - a * u10) / a)
    zeta = ctx.functions["zeta"]
    z = zeta.base
    r = max((idx.a2 for idx in chain_jets(H, ctx).values()), default=0)
    Y = [z]
    for _ in range(r - 1):
        Y.append(normalize(derivation(Y[-1], ctx, ((ctx.x2, 1), (ctx.u, z)))))
    jetmap = {ctx.jet(0, j): Y[j - 1] for j in range(1, r + 1)}
    Ht = substitute_jets(H, jetmap)
    z1 = zeta.sym((1, 0, 0))
    zu = zeta.sym((0, 0, 1))
    return normalize(z1 + zu * Ht - diff(Ht, ctx.x2) - z * diff(Ht, ctx.u))


def eq6_equation(L):
    """Direct determining equation for wave bodies u_{1,1} = F(u), in the
    zeta of L's context."""
    ctx = L.ctx
    if _classify(L) != "wave":
        raise ValueError("body is not in wave form")
    u11 = ctx.jet(1, 1)
    c = diff(L.body, u11)
    F = normalize(-(L.body - c * u11) / c)
    zeta = ctx.functions["zeta"]
    z = zeta.base
    z1 = zeta.sym((1, 0, 0))
    zu = zeta.sym((0, 0, 1))
    z12 = zeta.sym((1, 1, 0))
    z1u = zeta.sym((1, 0, 1))
    z2u = zeta.sym((0, 1, 1))
    zuu = zeta.sym((0, 0, 2))
    Fu = diff(F, ctx.u)
    return normalize(
        z12 + z * z1u + (z2u + z * zuu) * (F - z1) / zu + zu * F - z * Fu
    )


def determining_regular(L, Q, session=Session()):
    """Polynomial split of the invariance residual for a symbolic template.

    The elimination axis is the one whose template coefficient is a
    proven-nonzero constant (the normalized tau = 1 direction), falling back
    to the usual axis-2 preference.
    """
    ctx = L.ctx
    z2v = proven(Q.xi2)
    tau_on_1 = proven(Q.xi1) is TriBool.PROVEN_NONZERO and z2v is not TriBool.PROVEN_NONZERO
    axis = 1 if tau_on_1 or z2v is TriBool.PROVEN_ZERO else 2
    residual = _restricted_action(L, Q, apply_prolonged(Q, L), axis, session)
    split_vars = sorted(
        {
            s
            for s, idx in chain_jets(residual, ctx).items()
            if idx.order() > 0
        },
        key=lambda s: s.name,
    )
    equations = [e for e in _poly_split(residual, split_vars) if e != 0]
    return DeterminingSystem(
        equations=equations,
        case="regular-split",
        G=None,
        assumptions=[],
    )


@dataclass
class AnsatzReduction:
    """order_verdict decides the essential order: is_zero on the coefficient
    of phi's top derivative in reduced, or on a phi-free reduced (order -1).
    Either verdict is None when its value had no valid sample point."""

    multiplier: Expr
    reduced: Expr
    essential_order: int
    order_verdict: TriBool | None
    omega: Expr
    multiplier_verdict: TriBool | None


def _phi_order(e, phi):
    return max([s.order[0] for s in arbitrary_elements(e, phi)], default=-1)


def _content_split(P, gens):
    """(cofactor, content) with the ring element P = cofactor*content.

    The content is the gcd of P's coefficients as a polynomial in the
    generators at the indices gens: the product of P's factors free of
    them, primitive and with a positive leading coefficient. The cofactor
    takes P's numeric content and sign and its factors that hold them.
    """
    groups = {}
    for monom, coeff in P.iterterms():
        rest = tuple(0 if i in gens else k for i, k in enumerate(monom))
        groups.setdefault(tuple(monom[i] for i in gens), {})[rest] = coeff
    content = reduce(lambda a, b: a.gcd(b), map(P.ring.from_dict, groups.values()))
    content = content.primitive()[1]
    if P.ring.domain.is_negative(content.LC):
        content = -content
    return P.exquo(content), content


def reduce_with_ansatz(L, Q, f, omega, session=Session()):
    """Substitute u = f(x, phi(omega)) into L and split off the multiplier.

    The multiplier is read from the content of the substituted body's ring
    form in the generators that hold the non-invariant variable (and, in
    the denominator, in those that hold phi), without factorization.

    Only coordinate invariants omega in {x1, x2} are supported; the ansatz
    must contain the context's phi, as phi or applied at omega and nowhere
    else, and any antiderivative baked into f is taken at face value (it is
    verified through the Q[f] check).
    """
    ctx = L.ctx
    omega = normalize(omega)
    if omega == ctx.x1:
        noninv = ctx.x2
    elif omega == ctx.x2:
        noninv = ctx.x1
    else:
        raise UnsupportedAnsatz("omega must be one of the independent variables")
    phi = ctx.functions["phi"]
    f = sp.sympify(f)
    nodes = arbitrary_elements(f, phi)
    if not nodes:
        raise UnsupportedAnsatz("ansatz does not involve phi")
    stray = sorted({a for s in nodes for a in s.args} - {omega}, key=sp.default_sort_key)
    if stray:
        raise UnsupportedAnsatz("phi is applied at %s, not at omega = %s" % (stray[0], omega))
    f = normalize(f.xreplace({s: phi.applied(s.order, (omega,)) for s in nodes}))
    if depends_on(f, ctx.u):
        raise UnsupportedAnsatz("ansatz body may not depend on u")

    xi1, xi2 = (substitute(c, {ctx.u: f}) for c in (Q.xi1, Q.xi2))
    char = normalize(
        substitute(Q.eta, {ctx.u: f}) - xi1 * diff(f, ctx.x1) - xi2 * diff(f, ctx.x2)
    )
    if char != 0:
        raise UnsupportedAnsatz("ansatz is not invariant under the field: Q[f] = %s" % char)
    omega_invariance = normalize(xi1 * diff(omega, ctx.x1) + xi2 * diff(omega, ctx.x2))
    if omega_invariance != 0:
        raise UnsupportedAnsatz("omega is not an invariant of the field")

    body = substitute_jets(L.body, jet_values(L, f))
    if body == 0:
        return AnsatzReduction(
            multiplier=sp.S.One,
            reduced=sp.S.Zero,
            essential_order=-1,
            order_verdict=TriBool.PROVEN_ZERO,
            omega=omega,
            multiplier_verdict=TriBool.PROVEN_NONZERO,
        )

    body = normalize(body.xreplace({s: phi.sym(s.order) for s in arbitrary_elements(body, phi)}))

    # the multiplier takes the numerator's factors with noninv in them and
    # the denominator's factors with noninv in them or free of phi
    ring, num, den = ring_form(body)
    noninv_gens = [i for i, g in enumerate(ring.symbols) if noninv in g.free_symbols]
    phi_gens = [i for i, g in enumerate(ring.symbols) if _phi_order(g, phi) >= 0]
    num_noninv, num_res = _content_split(num, noninv_gens)
    den_noninv, den_free = _content_split(den, noninv_gens)
    for where, cofactor in (("numerator", num_noninv), ("denominator", den_noninv)):
        if _phi_order(cofactor.as_expr(), phi) > 0:
            raise ResidualNonInvariant(
                "the %s's part %s that holds %s also holds derivatives of phi"
                % (where, cofactor.as_expr(), noninv)
            )
    den_res = _content_split(den_free, phi_gens)[0]
    multiplier = normalize(num_noninv.as_expr() / den.exquo(den_res).as_expr())
    residual = normalize(num_res.as_expr() / den_res.as_expr())
    order = _phi_order(residual, phi)
    top_coeff = residual if order < 0 else diff(residual, phi.sym((order,)))
    return AnsatzReduction(
        multiplier=multiplier,
        reduced=residual,
        essential_order=order,
        order_verdict=is_zero(top_coeff, session),
        omega=omega,
        multiplier_verdict=is_zero(multiplier, session),
    )
