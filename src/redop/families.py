"""Correspondence between reduction operators and parametric solution families.

One-parameter families come with a user-supplied inverse Phi (the parameter
expressed through x and u); the operator coefficient is recovered as
zeta = -(xi*Phi_1 + Phi_2)/Phi_u and cross-checked against the determining
equation, the invariance condition, and the equation itself.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

import mpmath
import sympy as sp

from .core import (
    Expr,
    Session,
    TriBool,
    UnknownFunction,
    arbitrary_elements,
    diff,
    is_zero,
    normalize,
)
from .errors import DegenerateInverse, WrongCoorderBranch
from .jets import VectorField, _replace_jets, jet_values, refuse_jets, substitute_jets
from .reduction import determining_singular, solve_for_leader
from .report import GrammarPrinter
from .singular import eliminate_on_Q


def instantiate_function(e, fn, value):
    """Replace the nodes of fn by the partials of a concrete value, taken at
    the arguments of each applied map."""
    m = {}
    for s in arbitrary_elements(e, fn):
        val = value
        for var, count in zip(fn.args, s.order):
            for _ in range(count):
                val = diff(val, var)
        m[s] = _replace_jets(val, dict(zip(fn.args, s.args)))
    return normalize(e.xreplace(m))


# surface points per kappa when the session sets no sample count
SURFACE_SAMPLES = 10


@dataclass(frozen=True)
class SolutionFamily:
    """u = f(x1, x2, kappa) together with its declared inverse kappa = Phi,
    both stored normalized. Neither may hold a jet of positive order. The
    inverse check substitutes u = f through the jet rewrite, so Phi may hold
    declared functions of u; a parameter with df/dkappa normalizing to 0 is
    rejected."""

    ctx: object
    f: Expr
    Phi: Expr
    kappa: sp.Symbol

    def __post_init__(self):
        object.__setattr__(self, "f", normalize(self.f))
        object.__setattr__(self, "Phi", normalize(self.Phi))
        refuse_jets("family", self.f, self.ctx)
        refuse_jets("inverse", self.Phi, self.ctx)
        residual = normalize(substitute_jets(self.Phi, {self.ctx.u: self.f}) - self.kappa)
        if residual != 0:
            raise ValueError(
                "inverse check failed: Phi(x, f) - kappa = %s" % residual
            )
        if normalize(diff(self.f, self.kappa)) == 0:
            raise ValueError("the family parameter is not essential")


def zeta_from_family(family, xi):
    """Operator coefficient zeta = -(xi*Phi_1 + Phi_2)/Phi_u."""
    ctx = family.ctx
    xi = normalize(xi)
    Phi_u = diff(family.Phi, ctx.u)
    if Phi_u == 0:
        raise DegenerateInverse("Phi does not depend on u")
    return normalize(
        -(xi * diff(family.Phi, ctx.x1) + diff(family.Phi, ctx.x2)) / Phi_u
    )


def verify_family_solves(L, family, session=Session()):
    """is_zero verdict of L with u = f substituted, kappa a free atom."""
    body = substitute_jets(L.body, jet_values(L, family.f))
    return is_zero(body, session)


@dataclass
class BijectionReport:
    zeta: Expr
    solves: TriBool
    determining: TriBool
    invariance: TriBool
    essential: TriBool

    @property
    def certified(self):
        return (
            self.solves is TriBool.PROVEN_ZERO
            and self.determining is TriBool.PROVEN_ZERO
            and self.invariance is TriBool.PROVEN_ZERO
        )


def verify_bijection(L, family, xi, session=Session()):
    """Family-solves, invariance, determining-equation and essential-parameter verdicts."""
    ctx = family.ctx
    xi = normalize(xi)
    solves = verify_family_solves(L, family, session)
    zeta = zeta_from_family(family, xi)
    on_f = {ctx.u: family.f}
    char = normalize(
        substitute_jets(zeta, on_f)
        - substitute_jets(xi, on_f) * diff(family.f, ctx.x1)
        - diff(family.f, ctx.x2)
    )
    invariance = is_zero(char, session)
    system = determining_singular(L, xi, session)
    residual = instantiate_function(system.equations[0], L.ctx.functions["zeta"], zeta)
    determining = is_zero(residual, session)
    return BijectionReport(
        zeta=zeta,
        solves=solves,
        determining=determining,
        invariance=invariance,
        essential=is_zero(diff(family.f, family.kappa), session),
    )


def adjoint_operator(zeta, F, coorder, ctx):
    """Adjoint coefficient on the wave-type equation u_{1,1} = F(u).

    Co-order 1: zeta* = (F - zeta_1)/zeta_u. Co-order 0: zeta* =
    zeta_11/F_u(Ftil(zeta_1)), with exp treated as its own inverse pair.
    """
    zeta = normalize(zeta)
    zu = diff(zeta, ctx.u)
    z1 = diff(zeta, ctx.x1)
    if coorder == 1:
        if zu == 0:
            raise WrongCoorderBranch("zeta does not depend on u")
        F_expr = F.base if isinstance(F, UnknownFunction) else normalize(F)
        return normalize((F_expr - z1) / zu)
    if coorder == 0:
        if zu != 0:
            raise WrongCoorderBranch("zeta depends on u; co-order 0 needs zeta_u = 0")
        z11 = diff(z1, ctx.x1)
        if isinstance(F, UnknownFunction):
            if F.inverse is None:
                raise WrongCoorderBranch("F has no declared inverse")
            denom = F.applied((1,), (F.inverse(z1),))
        else:
            F_expr = normalize(F)
            if F_expr == sp.exp(ctx.u):
                denom = z1
            else:
                raise WrongCoorderBranch(
                    "co-order 0 needs an invertible F with known derivative"
                )
        return normalize(z11 / denom)
    raise ValueError("coorder must be 0 or 1")


def coorder0_solution(L, zeta, xi, session=Session()):
    """Unique invariant solution u = G(x) and the criterion verdict.

    The criterion is zeta = xi*G_1 + G_2; the construction requires zeta
    free of u and a strong co-order of 0, so that the associated function
    is solved for u itself.
    """
    ctx = L.ctx
    zeta = normalize(zeta)
    xi = normalize(xi)
    if diff(zeta, ctx.u) != 0:
        raise WrongCoorderBranch("zeta depends on u")
    Q = VectorField(ctx, xi, 1, zeta)
    elim = eliminate_on_Q(L, Q, 2)
    if elim.k != 0:
        raise WrongCoorderBranch("strong co-order is %d; co-order 0 needs 0" % elim.k)
    G = solve_for_leader(elim.hat, elim.leader, session)
    crit = normalize(zeta - xi * diff(G, ctx.x1) - diff(G, ctx.x2))
    return G, is_zero(crit, session)


@dataclass
class BacklundReport:
    """identity_g is None when there is no G to test the flow identity on."""

    identity_q: TriBool
    identity_g: TriBool | None
    structural: TriBool
    points: list
    samples_requested: int

    @property
    def surface(self):
        """Zero verdict on the implicit-surface residual.

        PROVEN_ZERO when it is structurally zero, SAMPLED_ZERO when every
        sampled point is within 1e-9, PROBABLY_NONZERO when one is not, and
        None when no point was found.
        """
        if self.structural is TriBool.PROVEN_ZERO:
            return TriBool.PROVEN_ZERO
        if not self.points:
            return None
        if all(res <= 1e-9 for _pt, res in self.points):
            return TriBool.SAMPLED_ZERO
        return TriBool.PROBABLY_NONZERO

    @property
    def passed(self):
        return (
            self.identity_q is TriBool.PROVEN_ZERO
            and self.identity_g is TriBool.PROVEN_ZERO
            and self.surface in (TriBool.PROVEN_ZERO, TriBool.SAMPLED_ZERO)
        )


DEFAULT_KAPPAS = (
    sp.Rational(1, 2),
    sp.Integer(1),
    sp.Rational(3, 2),
    sp.Integer(2),
    sp.Rational(5, 2),
)
# the sign scan of the surface root search visits u = 2**k, then u = -2**k
_SCAN = tuple(sign * 2.0**k for sign in (1, -1) for k in range(-20, 21))


def _excess(phi, a, b, u, kv):
    """phi(a, b, u) - kv as a finite real float, or None if evaluation fails."""
    try:
        v = float(phi(a, b, u)) - kv
    except (ValueError, ZeroDivisionError, OverflowError, TypeError):
        return None
    return v if math.isfinite(v) else None


def _surface_roots(phi, a, b, kv):
    """Float roots u of phi(a, b, u) = kv, one per sign-change cell, in scan order.

    Scans u = 2**k, then u = -2**k, for k = -20..20, skipping points where
    phi fails. Each cell between consecutive evaluated points whose ends
    share the sign of u and straddle kv is bisected until its ends are
    adjacent floats, and the end nearer to kv is yielded; a cell where phi
    fails during bisection yields nothing. A cell around a pole bisects to
    the pole, so callers certify each root.
    """
    prev = None
    for u in _SCAN:
        f = _excess(phi, a, b, u, kv)
        if f is None:
            continue
        if prev and (prev[0] < 0) == (u < 0) and (prev[1] < 0) != (f < 0):
            (lo, flo), (hi, fhi) = prev, (u, f)
            while (mid := (lo + hi) / 2) not in (lo, hi):
                fm = _excess(phi, a, b, mid, kv)
                if fm is None:
                    break
                if (fm < 0) == (flo < 0):
                    lo, flo = mid, fm
                else:
                    hi, fhi = mid, fm
            else:
                yield lo if abs(flo) <= abs(fhi) else hi
        prev = (u, f)


def backlund_verify(L, zeta, Phi, xi, session=Session()):
    """Check the transformation identities, then sample the implicit surface.

    For each kappa of DEFAULT_KAPPAS the surface Phi(x, u) = kappa is
    sampled at the session's count of points (SURFACE_SAMPLES when it sets
    none), from up to 20 times as many random base points (a, b), two
    uniform draws per attempt from one generator seeded with the session's
    seed. The roots u come from one float search: a sign scan of
    Phi - kappa over u = 2**k, then u = -2**k (k = -20..20), and bisection
    of each cell that changes sign down to adjacent floats
    (_surface_roots). The roots are tried cell by cell, in scan order, and
    the first whose mpmath Phi is within 1e-20 of kappa is taken. That
    certificate runs at mpmath's default 53 bits, where the ulp of Phi near
    kappa is about 1e-16, so only a root at which Phi evaluates exactly to
    kappa passes it. A root failing it (such as a pole the bisection
    closed in on) or a cell where the evaluation fails during bisection
    passes the turn to the next cell, and an attempt where no cell gives a
    certified root is a failed attempt. The residual of L, with the
    implicit-function prolongations, is evaluated in mpmath at each
    accepted root; when it is structurally zero the points are recorded
    with exact zeros. No point is sampled when Phi, or a residual that is
    not structurally zero, holds an unknown function, which has no value
    at a point. The reported zero tests use the same session.
    """
    ctx = L.ctx
    zeta = normalize(zeta)
    Phi = normalize(Phi)
    xi = normalize(xi)
    Phi_u = diff(Phi, ctx.u)
    if Phi_u == 0:
        raise DegenerateInverse("Phi does not depend on u")
    identity_q = is_zero(
        xi * diff(Phi, ctx.x1) + diff(Phi, ctx.x2) + zeta * Phi_u, session
    )
    Q = VectorField(ctx, xi, 1, zeta)
    elim = eliminate_on_Q(L, Q, 2)
    if elim.k == 1 or elim.k == 0 and elim.hat.depends_on_u:
        G = solve_for_leader(elim.hat, elim.leader, session)
    else:
        G = None
    if G is not None and elim.k == 1:
        identity_g = is_zero(diff(Phi, ctx.x1) + G * Phi_u, session)
    elif G is not None:
        # co-order 0: the unique solution u = G(x) must lie on one surface
        identity_g = is_zero(diff(Phi, ctx.x1) + diff(G, ctx.x1) * Phi_u, session)
    else:
        identity_g = None
    # jets of the u defined implicitly by Phi(x, u) = const: u_i = -Phi_i/Phi_u
    slopes = {i: normalize(-diff(Phi, ctx.var(i)) / Phi_u) for i in (1, 2)}
    residual = substitute_jets(L.body, jet_values(L, ctx.u, slopes))
    structural = is_zero(residual, session)
    samples = SURFACE_SAMPLES if session.samples is None else session.samples
    points = []
    rng = random.Random(session.seed)
    can_evaluate = not arbitrary_elements(Phi) and (
        structural is TriBool.PROVEN_ZERO or not arbitrary_elements(residual))
    if can_evaluate:
        args = (ctx.x1, ctx.x2, ctx.u)
        phi_fn = sp.lambdify(args, Phi, "mpmath", printer=GrammarPrinter)
        res_fn = None
        if structural is not TriBool.PROVEN_ZERO:
            res_fn = sp.lambdify(args, residual, "mpmath", printer=GrammarPrinter)
        phi_float = sp.lambdify(args, Phi, "math", printer=GrammarPrinter)
        for kappa in DEFAULT_KAPPAS:
            kv = float(kappa)
            found = 0
            attempts = 0
            while found < samples and attempts < samples * 20:
                attempts += 1
                a = rng.uniform(0.2, 1.5)
                b = rng.uniform(0.2, 1.5)
                root = next(
                    (
                        r
                        for r in _surface_roots(phi_float, a, b, kv)
                        if abs(phi_fn(a, b, mpmath.mpf(r)) - kv) < 1e-20
                    ),
                    None,
                )
                if root is None:
                    continue
                if res_fn is None:
                    res = mpmath.mpf(0)
                else:
                    res = res_fn(a, b, mpmath.mpf(root))
                points.append(((a, b, root, kv), abs(res)))
                found += 1
    return BacklundReport(
        identity_q=identity_q,
        identity_g=identity_g,
        structural=structural,
        points=points,
        samples_requested=samples * len(DEFAULT_KAPPAS),
    )
