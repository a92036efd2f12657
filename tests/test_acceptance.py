"""Acceptance gate: one test per advertised capability, one PASS/FAIL line each.

Run with -s (or -rA) to see the lines. Everything here is exact-symbolic
or property-based; the only numerics are the finite-difference oracle and
the sampled surface residuals, both with explicit tolerances.
"""

import random
from contextlib import contextmanager

import sympy as sp

from redop import (
    DifferentialFunction,
    JetContext,
    SolutionFamily,
    TriBool,
    VectorField,
    adjoint_operator,
    backlund_verify,
    de0_equation,
    determining_singular,
    diff,
    eq6_equation,
    equations_equal,
    is_zero,
    normalize,
    ord,
    reduce_with_ansatz,
    total_derivative,
    verify_bijection,
    verify_family_solves,
    weak_coorder,
    zeta_from_family,
)
from redop.families import coorder0_solution, instantiate_function

from helpers import (
    corpus_problem,
    first_order_t,
    heat,
    liouville,
    rand_expr,
    rand_jet_body,
    third_order_t,
    wave_zero,
)


@contextmanager
def criterion(num, desc):
    ok = False
    try:
        yield
        ok = True
    finally:
        print("%s criterion %d: %s" % ("PASS" if ok else "FAIL", num, desc))


def test_criterion_1_coorder_pair():
    with criterion(1, "strong/weak co-order pair on the third- and first-order bodies"):
        ctx, L = third_order_t()
        rep = weak_coorder(L, VectorField(ctx, 1, 0, 0))
        assert rep.strong == 2
        assert rep.exact and rep.weak_lower == rep.weak_upper == 1

        ctx, L = first_order_t()
        rep = weak_coorder(L, VectorField(ctx, 1, 0, 0))
        assert rep.strong == 2 == ord(L)  # regular: co-order equals the order
        assert rep.exact and rep.weak_lower == rep.weak_upper == 1


def _rand_evolution(rng, ctx, r):
    t, x, u = ctx.x1, ctx.x2, ctx.u
    atoms = [t, x, u, ctx.jet(0, 1)]
    if r > 2:
        atoms.append(ctx.jet(0, 2))

    def small_poly():
        e = sp.Integer(0)
        for _ in range(rng.randint(1, 2)):
            term = sp.Rational(rng.randint(1, 4), rng.randint(1, 3))
            for _ in range(rng.randint(1, 2)):
                term *= rng.choice(atoms)
            e += term
        return e

    top = ctx.jet(0, r)
    kind = rng.randrange(3)
    if kind == 0:
        rhs = small_poly() + sp.Integer(rng.randint(1, 3)) * top
    elif kind == 1:
        rhs = sp.Integer(rng.randint(1, 3)) * sp.exp(top) + small_poly()
    else:
        rhs = small_poly() + top**2
    return DifferentialFunction(ctx.jet(1, 0) - rhs, ctx)


def _rand_coeff(rng, ctx):
    t, x, u = ctx.x1, ctx.x2, ctx.u
    return rng.choice([sp.Integer(0), sp.Integer(1), sp.Integer(2), t, x, u, t + x])


def _rand_nonzero(rng, ctx):
    return rng.choice(
        [sp.Integer(1), sp.Integer(2), sp.Integer(3), ctx.x2, sp.exp(ctx.x1)]
    )


def test_criterion_2_generic_coorder_of_evolution_bodies():
    with criterion(2, "generic co-order of random evolution bodies, 20/20"):
        rng = random.Random(0)
        failures = []
        for i in range(10):
            ctx = JetContext("t", "x", "u")
            r = rng.randint(2, 4)
            L = _rand_evolution(rng, ctx, r)
            Q = VectorField(
                ctx, _rand_nonzero(rng, ctx), _rand_coeff(rng, ctx), _rand_coeff(rng, ctx)
            )
            s = weak_coorder(L, Q).strong
            if s != r:
                failures.append(("tau!=0", i, r, s, L.body))
        for i in range(10):
            ctx = JetContext("t", "x", "u")
            r = rng.randint(2, 4)
            L = _rand_evolution(rng, ctx, r)
            Q = VectorField(ctx, 0, _rand_nonzero(rng, ctx), _rand_coeff(rng, ctx))
            s = weak_coorder(L, Q).strong
            if s != 1:
                failures.append(("tau=0", i, r, s, L.body))
        assert failures == []


def test_criterion_3_heat_determining_equation():
    with criterion(3, "evolution determining equation for the heat equation"):
        ctx, L = heat()
        de = de0_equation(L)
        zeta = ctx.functions["zeta"]
        z = zeta.base
        zt, zxx = zeta.sym((1, 0, 0)), zeta.sym((0, 2, 0))
        zxu, zuu = zeta.sym((0, 1, 1)), zeta.sym((0, 0, 2))
        assert equations_equal(de, zt - zxx - 2 * z * zxu - z**2 * zuu)

        t, x, u = ctx.x1, ctx.x2, ctx.u
        for val in (u, x, u / x, -x * u / (2 * t)):
            resid = instantiate_function(de, zeta, val)
            assert is_zero(resid) is TriBool.PROVEN_ZERO, val
        bad = instantiate_function(de, zeta, t)
        assert is_zero(bad) is TriBool.PROVEN_NONZERO


def test_criterion_4_wave_determining_equation():
    with criterion(4, "wave determining equation, direct and via the generic pipeline"):
        ctx = JetContext("x", "y", "u")
        F = ctx.add_function("F", (ctx.u,), nonzero=((1,),))
        L = DifferentialFunction(ctx.jet(1, 1) - F(ctx.u), ctx)
        gen = eq6_equation(L)
        zf = ctx.functions["zeta"]
        z = zf.base
        z1, zu = zf.sym((1, 0, 0)), zf.sym((0, 0, 1))
        z12, z1u = zf.sym((1, 1, 0)), zf.sym((1, 0, 1))
        z2u, zuu = zf.sym((0, 1, 1)), zf.sym((0, 0, 2))
        ref = (
            z12 + z * z1u + (z2u + z * zuu) * (F.base - z1) / zu
            + zu * F.base - z * F.sym((1,))
        )
        # term-by-term after clearing the zeta_u denominator
        got_terms = set(sp.Add.make_args(sp.expand(normalize(gen * zu))))
        ref_terms = set(sp.Add.make_args(sp.expand(normalize(ref * zu))))
        assert got_terms == ref_terms
        assert normalize(gen - ref) == 0

        ds = determining_singular(L, 0)
        assert ds.case == "wave"
        assert equations_equal(ds.equations[0], ref)


def test_criterion_5_liouville_bijection():
    with criterion(5, "Liouville family end-to-end with both adjoint branches"):
        ctx, L = liouville()
        x, y, u = ctx.x1, ctx.x2, ctx.u
        kappa = sp.Symbol("kappa")
        fam = SolutionFamily(
            ctx,
            sp.log(2) - 2 * sp.log(x + y + kappa),
            sp.sqrt(2) * sp.exp(-u / 2) - x - y,
            kappa,
        )
        assert verify_family_solves(L, fam) is TriBool.PROVEN_ZERO

        zeta_val = zeta_from_family(fam, 0)
        assert normalize(zeta_val + sp.sqrt(2) * sp.exp(u / 2)) == 0
        gen = eq6_equation(L)
        resid = instantiate_function(gen, ctx.functions["zeta"], zeta_val)
        assert is_zero(resid) is TriBool.PROVEN_ZERO

        star = adjoint_operator(zeta_val, sp.exp(u), 1, ctx)
        assert normalize(star - zeta_val) == 0
        assert normalize(adjoint_operator(star, sp.exp(u), 1, ctx) - zeta_val) == 0

        flat = -2 / (x + y)
        z1 = diff(flat, x)
        assert normalize(diff(z1, x) / z1 - flat) == 0
        assert normalize(adjoint_operator(flat, sp.exp(u), 0, ctx) - flat) == 0

        assert verify_bijection(L, fam, 0).certified


def test_criterion_6_ultra_singular_branch():
    with criterion(6, "ultra-singular flag and identically zero reduction"):
        ctx, L = wave_zero()
        rep = weak_coorder(L, VectorField(ctx, 0, 1, ctx.x2))
        assert rep.strong == rep.weak_lower == rep.weak_upper == -1

        p = corpus_problem("wave_zero")
        a = p.ansatzes["triv"]
        red = reduce_with_ansatz(p.equation, p.fields["ult"], a.f, a.omega)
        assert red.reduced == 0
        assert red.essential_order == -1


def test_criterion_7_hodograph_round_trips():
    with criterion(7, "surface identities proved and 50 exact sample points each"):
        ctx, L = heat()
        t, x, u = ctx.x1, ctx.x2, ctx.u
        rep = backlund_verify(L, u, u * sp.exp(-t - x), 0)
        assert rep.identity_q is TriBool.PROVEN_ZERO
        assert rep.identity_g is TriBool.PROVEN_ZERO
        assert len(rep.points) == 50 and all(res == 0 for _, res in rep.points)
        assert rep.passed

        ctx, L = liouville()
        x, y, u = ctx.x1, ctx.x2, ctx.u
        rep = backlund_verify(
            L, -sp.sqrt(2) * sp.exp(u / 2), sp.sqrt(2) * sp.exp(-u / 2) - x - y, 0
        )
        assert rep.identity_q is TriBool.PROVEN_ZERO
        assert rep.identity_g is TriBool.PROVEN_ZERO
        assert len(rep.points) == 50 and all(res == 0 for _, res in rep.points)
        assert rep.passed


def test_criterion_8_coorder_equals_parameter_count():
    with criterion(8, "essential order = exact weak co-order = parameter count, corpus-wide"):
        rows = [
            ("heat", "sep", "expo", "grow"),
            ("heat", "quad", "linear", "quad"),
            ("heat", "line", "ratio", "line"),
            ("wave_liouville", "co1", "neg", "main"),
            ("wave_liouville", "flatone", "flat", None),
        ]
        for stem, aname, fname, famname in rows:
            p = corpus_problem(stem)
            Q = p.fields[fname]
            cr = weak_coorder(p.equation, Q)
            assert cr.exact, (stem, fname)
            a = p.ansatzes[aname]
            red = reduce_with_ansatz(p.equation, Q, a.f, a.omega)
            assert red.order_verdict is TriBool.PROVEN_NONZERO, (stem, aname)
            if famname is not None:
                fam = p.families[famname]
                assert verify_bijection(p.equation, fam, Q.xi1).certified
                params = 1
            else:
                G, verdict = coorder0_solution(p.equation, Q.eta, Q.xi1)
                assert verdict is TriBool.PROVEN_ZERO
                assert not (G.free_symbols - {p.ctx.x1, p.ctx.x2})
                params = 0
            assert red.essential_order == cr.weak_upper == params, (stem, aname)


def test_criterion_9_kernel_soundness():
    with criterion(9, "differentiation vs finite differences, normalize, commutation"):
        rng = random.Random(2026)
        a, b, c = sp.symbols("a b c")
        syms = (a, b, c)
        checks = 0
        while checks < 200:
            e = rand_expr(rng, list(syms), depth=3)
            v = rng.choice(syms)
            exact = diff(e, v)
            if exact == 0:
                continue
            f = sp.lambdify(syms, e, "math")
            g = sp.lambdify(syms, exact, "math")
            pt = {s: rng.uniform(0.4, 1.6) for s in syms}
            h = 1e-5
            up = dict(pt)
            up[v] = pt[v] + h
            dn = dict(pt)
            dn[v] = pt[v] - h
            try:
                fd = (f(*(up[s] for s in syms)) - f(*(dn[s] for s in syms))) / (2 * h)
                ex = g(*(pt[s] for s in syms))
            except (OverflowError, ZeroDivisionError):
                continue
            assert abs(fd - ex) <= 1e-6 * max(1.0, abs(ex)), e
            checks += 1

        for _ in range(200):
            e = rand_expr(rng, [a, b, c], depth=3)
            n = normalize(e)
            assert normalize(n) == n, e

        for _ in range(100):
            ctx = JetContext("t", "x", "u")
            f = DifferentialFunction(rand_jet_body(rng, ctx, max_order=2, depth=2), ctx)
            ab = total_derivative(total_derivative(f, 1), 2).body
            ba = total_derivative(total_derivative(f, 2), 1).body
            assert normalize(ab - ba) == 0, f.body
