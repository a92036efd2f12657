"""Determining equations, invariance testing, ansatz reduction."""

import json
import random

import pytest
import sympy as sp
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from sympy.core import random as sympy_random

from redop import (
    DifferentialFunction,
    JetContext,
    TriBool,
    VectorField,
    conditional_invariance_test,
    de0_equation,
    determining_regular,
    determining_singular,
    diff,
    eq6_equation,
    equations_equal,
    is_zero,
    normalize,
    primitive_equation,
    reduce_with_ansatz,
    solve_for_leader,
    transpose,
)
from redop.cli import main
from redop.core import FnDerivSymbol, ring_form
from redop.errors import (
    BothCoefficientsZero,
    LeaderNotSolvable,
    ResidualNonInvariant,
    SetNotFirstCoorder,
    UnsupportedAnsatz,
)
from redop.families import instantiate_function
from redop.jets import chain_jets, total_derivative
from redop.reduction import _consequences, _phi_order, _restrict_to_solved
from redop.singular import _replace_jets, eliminate_on_Q, reduced_field

from helpers import (
    bench_matrix,
    corpus_problem,
    corpus_stems,
    heat,
    liouville,
    rand_expr,
    split_factors,
    wave_generic,
    wave_zero,
)


def heat_reference_equation(zeta):
    z = zeta.base
    return (
        zeta.sym((1, 0, 0))
        - zeta.sym((0, 2, 0))
        - 2 * z * zeta.sym((0, 1, 1))
        - z**2 * zeta.sym((0, 0, 2))
    )


class TestEvolutionDetermining:
    def test_direct_construction_for_heat(self):
        ctx, L = heat()
        eq = de0_equation(L)
        zeta = ctx.functions["zeta"]
        assert equations_equal(eq, heat_reference_equation(zeta))

    def test_pipeline_matches_direct_construction(self):
        ctx, L = heat()
        ds = determining_singular(L, 0)
        assert ds.case == "evolution"
        assert len(ds.equations) == 1
        assert equations_equal(ds.equations[0], heat_reference_equation(ctx.functions["zeta"]))

    def test_the_equation_needs_no_sub_branch_analysis(self, monkeypatch):
        import redop.singular

        def refuse(*args, **kwargs):
            raise AssertionError("consistency_closure was called")

        monkeypatch.setattr(redop.singular, "consistency_closure", refuse)
        ctx, L = heat()
        ds = determining_singular(L, 0)
        assert equations_equal(ds.equations[0], heat_reference_equation(ctx.functions["zeta"]))

    def test_leading_derivative_for_heat(self):
        ctx, L = heat()
        ds = determining_singular(L, 0)
        zeta = ctx.functions["zeta"]
        z = zeta.base
        want = z * zeta.sym((0, 0, 1)) + zeta.sym((0, 1, 0))
        assert normalize(ds.G - want) == 0

    def test_xi_u_set_of_the_transport_equation(self):
        # u_t + u*u_x restricts to an order-one relation under xi = u
        ctx = JetContext("t", "x", "u")
        L = DifferentialFunction(ctx.jet(1, 0) + ctx.u * ctx.jet(0, 1), ctx)
        ds = determining_singular(L, ctx.u)
        zeta = ctx.functions["zeta"]
        z, zt, zx = zeta.base, zeta.sym((1, 0, 0)), zeta.sym((0, 1, 0))
        want = (zt + ctx.u * zx) * (1 - ctx.u**2) + z**2
        assert equations_equal(ds.equations[0], want)
        assert any(equations_equal(a, 1 - ctx.u**2) for a in ds.assumptions)

    def test_heat_has_no_xi_u_singular_set(self):
        ctx, L = heat()
        with pytest.raises(SetNotFirstCoorder):
            determining_singular(L, ctx.u)

    def test_regular_orientation_is_rejected(self):
        ctx, L = heat()
        with pytest.raises(SetNotFirstCoorder):
            determining_singular(transpose(L), 0)

    def test_de0_requires_evolution_form(self):
        ctx, L = liouville()
        with pytest.raises(ValueError):
            de0_equation(L)


class TestWaveDetermining:
    def test_liouville_pipeline_matches_direct_construction(self):
        ctx, L = liouville()
        eq6 = eq6_equation(L)
        ds = determining_singular(L, 0)
        assert ds.case == "wave"
        assert equations_equal(ds.equations[0], eq6)

    def test_liouville_reference_solution(self):
        ctx, L = liouville()
        eq6 = eq6_equation(L)
        zeta = ctx.functions["zeta"]
        value = -sp.sqrt(2) * sp.exp(ctx.u / 2)
        residual = instantiate_function(eq6, zeta, value)
        assert residual == 0

    def test_transposed_set_ignores_zeta_of_the_other_orientation(self):
        def equation():
            ctx = JetContext("x", "y", "u")
            return DifferentialFunction(
                ctx.jet(1, 1) - sp.exp(ctx.u) - ctx.x2 * ctx.jet(1, 0), ctx
            )

        fresh = determining_singular(transpose(equation()), 0)
        L = equation()
        determining_singular(L, 0)
        after = determining_singular(transpose(L), 0)
        assert equations_equal(after.equations[0], fresh.equations[0])

    def test_generic_wave_solved_form(self):
        ctx, L, F = wave_generic()
        ds = determining_singular(L, 0)
        zeta = ctx.functions["zeta"]
        want = (F.base - zeta.sym((1, 0, 0))) / zeta.sym((0, 0, 1))
        assert normalize(ds.G - want) == 0
        # the division by zeta_u is recorded as an open assumption
        assert any(normalize(a - zeta.sym((0, 0, 1))) == 0 for a in ds.assumptions)


class TestRegularDetermining:
    def test_heat_template_system(self):
        ctx, L = heat()
        xi = ctx.add_function("xi", (ctx.x1, ctx.x2, ctx.u))
        eta = ctx.add_function("eta", (ctx.x1, ctx.x2, ctx.u))
        Q = VectorField(ctx, 1, xi.base, eta.base)
        ds = determining_regular(L, Q)
        X, E = xi, eta
        refs = [
            X.sym((0, 0, 2)),
            -E.sym((0, 0, 2)) - 2 * X.base * X.sym((0, 0, 1)) + 2 * X.sym((0, 1, 1)),
            2 * E.base * X.sym((0, 0, 1))
            - 2 * E.sym((0, 1, 1))
            - 2 * X.base * X.sym((0, 1, 0))
            - X.sym((1, 0, 0))
            + X.sym((0, 2, 0)),
            2 * E.base * X.sym((0, 1, 0)) + E.sym((1, 0, 0)) - E.sym((0, 2, 0)),
        ]
        assert {primitive_equation(e) for e in ds.equations} == {
            primitive_equation(e) for e in refs
        }

    def test_satisfying_concrete_field_leaves_nothing(self):
        ctx, L = heat()
        G = VectorField(ctx, 1, 2 * ctx.x1, -ctx.x2 * ctx.u)
        ds = determining_regular(L, G)
        assert ds.equations == []


class TestConditionalInvariance:
    def test_heat_exponential_set_member(self):
        ctx, L = heat()
        assert conditional_invariance_test(L, VectorField(ctx, 0, 1, ctx.u)) is TriBool.PROVEN_ZERO

    def test_galilei_boost(self):
        ctx, L = heat()
        G = VectorField(ctx, 0, 2 * ctx.x1, -ctx.x2 * ctx.u)
        assert conditional_invariance_test(L, G) is TriBool.PROVEN_ZERO

    def test_violating_field_is_detected(self):
        ctx, L = heat()
        bad = VectorField(ctx, 0, 1, ctx.x1)
        verdict = conditional_invariance_test(L, bad)
        assert verdict in (TriBool.PROVEN_NONZERO, TriBool.PROBABLY_NONZERO)

    def test_the_prolonged_action_is_eliminated_with_the_bodys_elimination(self, monkeypatch):
        import redop.reduction

        ctx, L = heat()
        calls = []
        original = redop.reduction.eliminate_on_Q

        def spy(*args, **kwargs):
            calls.append(args)
            return original(*args, **kwargs)

        monkeypatch.setattr(redop.reduction, "eliminate_on_Q", spy)
        verdict = conditional_invariance_test(L, VectorField(ctx, 0, 1, ctx.u))
        assert verdict is TriBool.PROVEN_ZERO
        assert len(calls) == 1

    def test_nonaffine_leader_refuses_instead_of_guessing(self):
        ctx = JetContext("t", "x", "u")
        L = DifferentialFunction(ctx.jet(1, 0) ** 2 - ctx.jet(0, 2), ctx)
        with pytest.raises(LeaderNotSolvable):
            conditional_invariance_test(L, VectorField(ctx, 0, 1, ctx.u))


class TestSolveForLeader:
    def test_affine_case(self):
        ctx, L = heat()
        hat = DifferentialFunction(2 * ctx.jet(1, 0) - ctx.u, ctx)
        assert normalize(solve_for_leader(hat, ctx.jet(1, 0)) - ctx.u / 2) == 0

    def test_exp_kernel(self):
        ctx, L = heat()
        hat = DifferentialFunction(sp.exp(ctx.jet(1, 0)) - ctx.u**2 - 1, ctx)
        got = solve_for_leader(hat, ctx.jet(1, 0))
        assert normalize(got - sp.log(ctx.u**2 + 1)) == 0

    def test_declared_inverse_kernel(self):
        ctx = JetContext("t", "x", "u")
        F = ctx.add_function("F", (ctx.u,), nonzero=((1,),), inverse="Ftil")
        hat = DifferentialFunction(F(ctx.u) - ctx.x1, ctx)
        got = solve_for_leader(hat, ctx.u)
        assert got == F.inverse(ctx.x1)

    def test_quadratic_leader_rejected(self):
        ctx, L = heat()
        hat = DifferentialFunction(ctx.jet(1, 0) ** 2 - ctx.u, ctx)
        with pytest.raises(LeaderNotSolvable):
            solve_for_leader(hat, ctx.jet(1, 0))

    def test_possibly_vanishing_coefficient_rejected(self):
        ctx, L = heat()
        a = sp.sqrt(ctx.x2**2) - ctx.x2  # zero on the sampled domain, no proof
        hat = DifferentialFunction(a * ctx.jet(1, 0) - ctx.u, ctx)
        with pytest.raises(LeaderNotSolvable):
            solve_for_leader(hat, ctx.jet(1, 0))

    @pytest.mark.parametrize("build, message", [
        pytest.param(lambda c, v, F: sp.exp(v) * v - c.u, "kernel exp(u_t) does not enter affinely",
                     id="exp-coefficient-holds-the-leader"),
        pytest.param(lambda c, v, F: F(v) ** 2 - c.u, "kernel G(u_t) does not enter affinely",
                     id="squared-kernel"),
        pytest.param(lambda c, v, F: sp.exp(v) + v**2, "u_t appears outside the kernel exp(u_t)",
                     id="leader-outside-the-kernel"),
        pytest.param(lambda c, v, F: (sp.sqrt(c.x2**2) - c.x2) * sp.exp(v) - c.u,
                     "kernel coefficient -x + sqrt(x**2) may vanish", id="coefficient-may-vanish"),
        pytest.param(lambda c, v, F: sp.sqrt(-1 - c.x2**2) * F(v) - c.u,
                     "kernel coefficient sqrt(-x**2 - 1) may vanish", id="coefficient-has-no-sample-point"),
    ])
    def test_kernel_case_refusals(self, build, message):
        ctx, L = heat()
        G = ctx.add_function("G", (ctx.u,), inverse="Gtil")
        hat = DifferentialFunction(build(ctx, ctx.jet(1, 0), G), ctx)
        with pytest.raises(LeaderNotSolvable) as ei:
            solve_for_leader(hat, ctx.jet(1, 0))
        assert str(ei.value) == message

    def test_a_function_of_the_leader_is_a_kernel_through_its_formal_argument(self):
        ctx = JetContext("t", "x", "u")
        H = ctx.add_function("H", (ctx.x2, ctx.jet(1, 0)))
        hat = DifferentialFunction(H.base - ctx.u, ctx)
        with pytest.raises(LeaderNotSolvable, match="^kernel H is not a plain function of the leader$"):
            solve_for_leader(hat, ctx.jet(1, 0))
        F = ctx.add_function("F", (ctx.jet(1, 0),), inverse="Ftil")
        hat = DifferentialFunction(F.base - ctx.u, ctx)
        assert solve_for_leader(hat, ctx.jet(1, 0)) == F.inverse(ctx.u)


class TestRestrictToSolved:
    def test_higher_consequences_substitute_the_lower_ones(self):
        ctx, L = heat()
        t, x, u = ctx.x1, ctx.x2, ctx.u
        sol = u**2 + t * x  # u_t on the solved relation

        def D_t(f):
            return normalize(diff(f, t) + diff(f, u) * sol)

        # the body has no x-jet, so Q = d_x leaves it as it is: hat = u_t - sol
        elim = eliminate_on_Q(
            DifferentialFunction(ctx.jet(1, 0) - sol, ctx), VectorField(ctx, 0, 1, 0), 2
        )
        assert (elim.k, elim.leader) == (1, ctx.jet(1, 0))
        expr = ctx.jet(3, 0) + x * ctx.jet(2, 0) + ctx.jet(1, 0)
        got = _restrict_to_solved(expr, elim, sol)
        want = D_t(D_t(sol)) + x * D_t(sol) + sol
        assert normalize(got - want) == 0


def test_corpus_reductions_neither_factor_nor_move_sympys_generator(monkeypatch, capsys):
    # factor_list drew evaluation points from sympy's global generator, which
    # the split had to seed and restore; the content split draws nothing
    matrix = bench_matrix()
    recorded = json.loads(matrix.REFERENCE.read_text())
    jobs = [job for job in matrix.symbolic_jobs() if job.command == "reduce"]
    assert len(jobs) == 25
    calls = []
    factor_list = sp.factor_list
    monkeypatch.setattr(sp, "factor_list", lambda *a, **kw: calls.append(a) or factor_list(*a, **kw))
    monkeypatch.chdir(matrix.ROOT)
    before = sympy_random.rng.getstate()
    for job in jobs:
        code = main(job.argv(recorded["seed"]))
        out, err = capsys.readouterr()
        assert matrix.outcome(code, out, err) == recorded["jobs"][job.key]
    assert calls == []
    assert sympy_random.rng.getstate() == before


# the reductions below substitute u = phi(t) with Q = d_x, so x is the
# non-invariant variable and u_t becomes phi's first derivative
_CTX = heat()[0]
_PHI = _CTX.add_function("phi", (sp.Symbol("w"),))
_X, _U_T = _CTX.x2, _CTX.jet(1, 0)
# a polynomial in (t, x, u, u_t): up to three terms, each a nonzero
# coefficient and one exponent per atom
_POLY = st.lists(
    st.tuples(st.sampled_from([-3, -2, -1, 1, 2, 3]), st.tuples(*[st.integers(0, 2)] * 4)),
    min_size=1,
    max_size=3,
)


def _poly(terms, atoms):
    return sp.Add(*(c * sp.Mul(*(a**k for a, k in zip(atoms, ks))) for c, ks in terms))


@settings(max_examples=200, deadline=None)
@given(st.lists(_POLY, min_size=2, max_size=4), st.lists(_POLY, max_size=2), st.booleans(), st.booleans())
def test_the_content_split_matches_factorization(num_polys, den_polys, with_noninv, with_derivative):
    t, u = _CTX.x1, _CTX.u
    atoms = [t, _X if with_noninv else 1, u, _U_T if with_derivative else 1]
    num, den = (sp.Mul(*(_poly(p, atoms) for p in polys)) for polys in (num_polys, den_polys))
    assume(num != 0 and den != 0)
    L = DifferentialFunction(normalize(num / den), _CTX)
    body = normalize(L.body.xreplace({u: _PHI.base, _U_T: _PHI.sym((1,))}))
    P, D = (q.as_expr() for q in ring_form(body)[1:])
    mixed = []

    def noninvariant(base):
        """A factor holding x goes to the multiplier; one that also holds a
        derivative of phi makes the reduction raise."""
        if _X not in base.free_symbols:
            return False
        mixed.append(_phi_order(base, _PHI) > 0)
        return True

    num_mult, num_res = split_factors(P, noninvariant)
    den_mult, den_res = split_factors(D, lambda b: noninvariant(b) or _phi_order(b, _PHI) < 0)
    Q = VectorField(_CTX, 0, 1, 0)
    if any(mixed):
        with pytest.raises(ResidualNonInvariant):
            reduce_with_ansatz(L, Q, _PHI.base, t)
        return
    ar = reduce_with_ansatz(L, Q, _PHI.base, t)
    assert ar.multiplier == normalize(num_mult / den_mult)
    assert ar.reduced == normalize(num_res / den_res)


class TestResidualNonInvariant:
    @pytest.mark.parametrize("body, message", [
        (_U_T * (_X + _U_T),
         "the numerator's part phi_w + x that holds x also holds derivatives of phi"),
        (_U_T / (_X**2 * (_X + _U_T)),
         "the denominator's part phi_w*x**2 + x**3 that holds x also holds derivatives of phi"),
    ], ids=["numerator", "denominator"])
    def test_the_message_names_the_noninvariant_part(self, body, message):
        L = DifferentialFunction(normalize(body), _CTX)
        with pytest.raises(ResidualNonInvariant) as raised:
            reduce_with_ansatz(L, VectorField(_CTX, 0, 1, 0), _PHI.base, _CTX.x1)
        assert str(raised.value) == message


class TestReduceWithAnsatz:
    def test_heat_separable(self):
        ctx, L = heat()
        phi = ctx.add_function("phi", (sp.Symbol("w"),))
        Q = VectorField(ctx, 0, 1, ctx.u)
        ar = reduce_with_ansatz(L, Q, phi.base * sp.exp(ctx.x2), ctx.x1)
        assert ar.essential_order == 1
        assert ar.order_verdict is TriBool.PROVEN_NONZERO
        assert equations_equal(ar.reduced, phi.sym((1,)) - phi.base)
        # multiplier * reduced must reproduce the substituted equation
        check = ar.multiplier * ar.reduced
        u_t = sp.Symbol("_ut")
        want = sp.exp(ctx.x2) * (phi.sym((1,)) - phi.base)
        assert normalize(check - want) == 0

    def test_liouville_single_solution_ansatz(self):
        ctx, L = liouville()
        phi = ctx.add_function("phi", (sp.Symbol("w"),))
        Q = VectorField(ctx, 0, 1, -2 / (ctx.x1 + ctx.x2))
        f = phi.base - 2 * sp.log(ctx.x1 + ctx.x2)
        ar = reduce_with_ansatz(L, Q, f, ctx.x1)
        assert ar.essential_order == 0
        assert equations_equal(ar.reduced, sp.exp(phi.base) - 2)

    def test_ultra_singular_reduces_to_identity(self):
        ctx, L = wave_zero()
        phi = ctx.add_function("phi", (sp.Symbol("w"),))
        Q = VectorField(ctx, 0, 1, ctx.x2)
        ar = reduce_with_ansatz(L, Q, phi.base + ctx.x2**2 / 2, ctx.x1)
        assert ar.reduced == 0
        assert ar.essential_order == -1
        assert ar.multiplier_verdict is TriBool.PROVEN_NONZERO

    def test_omega_must_be_a_coordinate(self):
        ctx, L = heat()
        phi = ctx.add_function("phi", (sp.Symbol("w"),))
        with pytest.raises(UnsupportedAnsatz):
            reduce_with_ansatz(L, VectorField(ctx, 0, 1, ctx.u), phi.base, ctx.x1 + ctx.x2)

    def test_ansatz_must_involve_phi(self):
        ctx, L = heat()
        ctx.add_function("phi", (sp.Symbol("w"),))
        with pytest.raises(UnsupportedAnsatz):
            reduce_with_ansatz(L, VectorField(ctx, 0, 1, ctx.u), sp.exp(ctx.x2), ctx.x1)

    def test_non_invariant_ansatz_rejected(self):
        ctx, L = heat()
        phi = ctx.add_function("phi", (sp.Symbol("w"),))
        with pytest.raises(UnsupportedAnsatz):
            reduce_with_ansatz(L, VectorField(ctx, 0, 1, ctx.u), phi.base * ctx.x2, ctx.x1)


class TestAtomsBelongToTheirDeclaration:
    @pytest.mark.parametrize("stem, build", [("heat", de0_equation), ("wave_liouville", eq6_equation)])
    def test_cross_checks_leave_a_parsed_problem_unchanged(self, stem, build):
        p = corpus_problem(stem)
        before = dict(p.ctx.functions)
        first, second = build(p.equation), build(p.equation)
        assert p.ctx.functions.keys() == before.keys()
        assert all(p.ctx.functions[name] is fn for name, fn in before.items())
        assert first == second
        zetas = {s.fn for s in first.free_symbols if isinstance(s, FnDerivSymbol)}
        assert zetas == {p.ctx.functions["zeta"]}

    def test_determining_equation_survives_another_problem(self):
        ctx, L = heat()
        ds = determining_singular(L, 0)
        eq, zeta = ds.equations[0], ctx.functions["zeta"]
        assert is_zero(instantiate_function(eq, zeta, ctx.u)) is TriBool.PROVEN_ZERO
        other = JetContext("t", "x", "u")
        determining_singular(
            DifferentialFunction(other.jet(1, 0) - other.jet(0, 2) - other.u, other), 0
        )
        assert is_zero(instantiate_function(eq, zeta, ctx.u)) is TriBool.PROVEN_ZERO


# _restrict_to_solved reads the leader's consequences from a JetTable; the
# chain it replaced is kept here as the oracle


def _old_consequence_table(elim, sol, max_order):
    ctx, k = elim.ctx, elim.k
    table = {k: sol}
    if max_order == k:
        return table
    row = DifferentialFunction(sol, ctx)
    for m in range(k + 1, max_order + 1):
        row = total_derivative(row, elim.kept_axis)
        jetmap = {
            elim.kept_jet(j): table[j]
            for j in range(k, m)
            if elim.kept_jet(j) in row.body.free_symbols
        }
        if jetmap:
            row = DifferentialFunction(_replace_jets(row.body, jetmap), ctx)
        table[m] = row.body
    return table


def _assert_same_consequences(L, Q, axis, above):
    """The table of L's solved leader on Q equals the old chain, and every
    entry holds only kept-axis jets below the leader; False when there is
    no solvable leader."""
    try:
        elim = eliminate_on_Q(L, Q, axis)
    except BothCoefficientsZero:
        return False
    k, kept = elim.k, elim.kept_axis
    if k == -1:
        return False
    try:
        sol = solve_for_leader(elim.hat, elim.leader)
    except LeaderNotSolvable:
        return False
    want = _old_consequence_table(elim, sol, k + above)
    table = _consequences(elim, sol)
    for m in range(k, k + above + 1):
        got = table.value(0, m - k).body
        assert got == want[m] and sp.srepr(got) == sp.srepr(want[m])
        for idx in chain_jets(got, L.ctx).values():
            along = idx.a1 if kept == 1 else idx.a2
            assert along < k and along == idx.order(), (got, idx)
    return True


def test_consequences_equal_the_old_chain_on_the_corpus():
    # the corpus's own prolonged actions stop at the leader's order, so one
    # consequence above it is asked for here
    solved = 0
    for stem in corpus_stems():
        p = corpus_problem(stem)
        L, ctx = p.equation, p.equation.ctx
        fields = list(p.fields.values()) + [reduced_field(ctx, xi) for xi in (0, ctx.u)]
        for Q in fields:
            for axis in (1, 2):
                solved += _assert_same_consequences(L, Q, axis, 1)
    assert solved >= 10


def _evolution_case(seed):
    """u_t = H(t, x, u, u_x, u_xx) with a random H and a random field."""
    rng = random.Random(seed)
    ctx = JetContext("t", "x", "u")
    atoms = [ctx.x1, ctx.x2, ctx.u, ctx.jet(0, 1), ctx.jet(0, 2)]
    L = DifferentialFunction(ctx.jet(1, 0) - rand_expr(rng, atoms, depth=2, allow_exp=False), ctx)
    coords = [ctx.x1, ctx.x2, ctx.u, sp.Integer(1)]
    xi1, xi2 = rng.choice([(0, 1), (1, 0), (1, 1), (ctx.u, 1), (1, ctx.x2)])
    eta = rng.choice(coords) * rng.choice(coords) + rng.randint(0, 2)
    return L, VectorField(ctx, xi1, xi2, eta), rng.choice([1, 2])


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 10**9).map(_evolution_case))
def test_consequences_equal_the_old_chain_on_random_evolution_bodies(case):
    _assert_same_consequences(*case, 2)
