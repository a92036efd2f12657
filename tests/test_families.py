"""Solution families, operator recovery, adjoints, transformation checks."""

import os
import subprocess
import sys
from pathlib import Path

import mpmath
import pytest
import sympy as sp

import redop
from redop import (
    DifferentialFunction,
    JetContext,
    Session,
    SolutionFamily,
    TriBool,
    VectorField,
    adjoint_operator,
    backlund_verify,
    coorder0_solution,
    normalize,
    parse_problem,
    verify_bijection,
    verify_family_solves,
    zeta_from_family,
)
from redop import core
from redop.errors import DegenerateInverse, WrongCoorderBranch
from redop.families import instantiate_function
from redop.report import SAMPLED, UNDECIDABLE, zero_claim_status
from redop.singular import eliminate_on_Q
from redop.runner import run

from helpers import (
    INVERSE_THROUGH_A_FUNCTION,
    corpus_problem,
    corpus_stems,
    heat,
    liouville,
    wave_generic,
)

kappa = sp.Symbol("kappa")


def heat_grow_family():
    ctx, L = heat()
    t, x, u = ctx.x1, ctx.x2, ctx.u
    fam = SolutionFamily(ctx, kappa * sp.exp(t + x), u * sp.exp(-t - x), kappa)
    return ctx, L, fam


def liouville_main_family():
    ctx, L = liouville()
    x, y, u = ctx.x1, ctx.x2, ctx.u
    f = sp.log(2) - 2 * sp.log(x + y + kappa)
    Phi = sp.sqrt(2) * sp.exp(-u / 2) - x - y
    fam = SolutionFamily(ctx, f, Phi, kappa)
    return ctx, L, fam


class TestSolutionFamily:
    def test_inverse_must_recover_the_parameter(self):
        ctx, L = heat()
        with pytest.raises(ValueError):
            SolutionFamily(ctx, kappa * sp.exp(ctx.x1), ctx.u, kappa)

    def test_a_parameter_the_family_does_not_hold_is_refused(self):
        # only the library can give Phi the parameter: the parser reads the
        # inverse after the parameter's scope has ended
        ctx, L = heat()
        t, u = ctx.x1, ctx.u
        with pytest.raises(ValueError, match="^the family parameter is not essential$"):
            SolutionFamily(ctx, t, kappa + u - t, kappa)

    def test_heat_families_validate(self):
        ctx, L, fam = heat_grow_family()
        assert verify_bijection(L, fam, 0).essential is TriBool.PROVEN_NONZERO
        t, x, u = ctx.x1, ctx.x2, ctx.u
        line = SolutionFamily(ctx, kappa * x, u / x, kappa)
        # df/dkappa = x vanishes on a hyperplane, so no proof is possible
        assert verify_bijection(L, line, 0).essential is TriBool.PROBABLY_NONZERO

    def test_parsing_the_corpus_does_not_sample(self, monkeypatch):
        calls = []
        monkeypatch.setattr(core, "_sample_points", lambda *args: calls.append(args) or iter(()))
        for stem in corpus_stems():
            corpus_problem(stem)
        assert calls == []

    def test_essential_verdict_samples_under_the_session(self, monkeypatch):
        ctx, L = heat()
        line = SolutionFamily(ctx, kappa * ctx.x2, ctx.u / ctx.x2, kappa)
        calls = []
        sample_points = core._sample_points

        def spy(n, samples, seed):
            calls.append((n, samples, seed))
            return sample_points(n, samples, seed)

        monkeypatch.setattr(core, "_sample_points", spy)
        rep = verify_bijection(L, line, 0, Session(samples=3, seed=7))
        assert rep.essential is TriBool.PROBABLY_NONZERO
        assert (ctx.x2, 3, 7) in calls

    def test_solves_verdicts(self):
        ctx, L, fam = heat_grow_family()
        assert verify_family_solves(L, fam) is TriBool.PROVEN_ZERO
        t, x, u = ctx.x1, ctx.x2, ctx.u
        bogus = SolutionFamily(ctx, kappa * (t + x), u / (t + x), kappa)
        assert verify_family_solves(L, bogus) is not TriBool.PROVEN_ZERO


class TestZetaFromFamily:
    def test_a_u_free_inverse_is_degenerate(self):
        ctx, L = heat()
        fam = SolutionFamily(ctx, kappa * ctx.x2, kappa, kappa)
        with pytest.raises(DegenerateInverse, match="^Phi does not depend on u$"):
            zeta_from_family(fam, 0)

    def test_heat_values(self):
        ctx, L = heat()
        t, x, u = ctx.x1, ctx.x2, ctx.u
        cases = [
            (kappa * sp.exp(t + x), u * sp.exp(-t - x), u),
            (x**2 / 2 + t + kappa, u - x**2 / 2 - t, x),
            (kappa * x, u / x, u / x),
        ]
        for f, Phi, want in cases:
            fam = SolutionFamily(ctx, f, Phi, kappa)
            assert normalize(zeta_from_family(fam, 0) - want) == 0

    def test_liouville_value(self):
        ctx, L, fam = liouville_main_family()
        want = -sp.sqrt(2) * sp.exp(ctx.u / 2)
        assert normalize(zeta_from_family(fam, 0) - want) == 0


class TestVerifyBijection:
    def test_heat_families_certify(self):
        ctx, L = heat()
        t, x, u = ctx.x1, ctx.x2, ctx.u
        for f, Phi in [
            (kappa * sp.exp(t + x), u * sp.exp(-t - x)),
            (x**2 / 2 + t + kappa, u - x**2 / 2 - t),
            (kappa * x, u / x),
        ]:
            fam = SolutionFamily(ctx, f, Phi, kappa)
            rep = verify_bijection(L, fam, 0)
            assert rep.certified, (f, rep)

    def test_liouville_family_certifies(self):
        ctx, L, fam = liouville_main_family()
        rep = verify_bijection(L, fam, 0)
        assert rep.certified
        assert normalize(rep.zeta + sp.sqrt(2) * sp.exp(ctx.u / 2)) == 0

    def test_invariance_substitutes_through_a_declared_function(self):
        # zeta = 1/F_u at u = Ftil(x + kappa) is 1/F_u(Ftil(x + kappa)) =
        # Ftil_x(x + kappa), the x-derivative of f; the family does not solve
        # the heat equation, so only invariance and the parameter are proved
        p = parse_problem(INVERSE_THROUGH_A_FUNCTION)
        rep = verify_bijection(p.equation, p.families["g"], 0)
        assert rep.invariance is TriBool.PROVEN_ZERO
        assert rep.essential is TriBool.PROVEN_NONZERO
        assert rep.solves is not TriBool.PROVEN_ZERO
        assert not rep.certified


class TestAdjoint:
    def test_liouville_coorder_one_fixed_point(self):
        ctx, L = liouville()
        zeta = -sp.sqrt(2) * sp.exp(ctx.u / 2)
        star = adjoint_operator(zeta, sp.exp(ctx.u), 1, ctx)
        assert normalize(star - zeta) == 0
        # applying it twice is the identity on this orbit
        assert normalize(adjoint_operator(star, sp.exp(ctx.u), 1, ctx) - zeta) == 0

    def test_coorder_zero_formula(self):
        ctx, L = liouville()
        zeta = -2 / (ctx.x1 + ctx.x2)
        star = adjoint_operator(zeta, sp.exp(ctx.u), 0, ctx)
        assert normalize(star - zeta) == 0

    def test_branch_guards(self):
        ctx, L = liouville()
        with pytest.raises(WrongCoorderBranch):
            adjoint_operator(-2 / (ctx.x1 + ctx.x2), sp.exp(ctx.u), 1, ctx)
        with pytest.raises(WrongCoorderBranch):
            adjoint_operator(-sp.sqrt(2) * sp.exp(ctx.u / 2), sp.exp(ctx.u), 0, ctx)
        with pytest.raises(ValueError):
            adjoint_operator(ctx.x1, sp.exp(ctx.u), 2, ctx)

    def test_generic_wave_needs_a_declared_inverse(self):
        ctx, L, F = wave_generic()
        zeta = (ctx.x1 + ctx.x2) ** 2 / 2
        with pytest.raises(WrongCoorderBranch):
            adjoint_operator(zeta, F, 0, ctx)
        F = ctx.add_function("F", (ctx.u,), nonzero=((1,),), inverse="Ftil")
        star = adjoint_operator(zeta, F, 0, ctx)
        want = 1 / F.applied((1,), (F.inverse(ctx.x1 + ctx.x2),))
        assert normalize(star - want) == 0


class TestCoorderZeroSolution:
    def test_liouville_flat_solution(self):
        ctx, L = liouville()
        x, y = ctx.x1, ctx.x2
        G, verdict = coorder0_solution(L, -2 / (x + y), 0)
        assert normalize(G - sp.log(2 / (x + y) ** 2)) == 0
        assert verdict is TriBool.PROVEN_ZERO

    def test_u_dependent_zeta_rejected(self):
        ctx, L = liouville()
        with pytest.raises(WrongCoorderBranch):
            coorder0_solution(L, ctx.u, 0)

    def test_set_of_nonzero_strong_coorder_rejected(self):
        # u_t = u_xx - u on Q = d_x: u_x = 0 leaves hat = u_t + u, of co-order
        # 1; solved for u it would give G = -u_t and the criterion 0 = 0
        ctx = JetContext("t", "x", "u")
        L = DifferentialFunction(ctx.jet(1, 0) - ctx.jet(0, 2) + ctx.u, ctx)
        with pytest.raises(WrongCoorderBranch, match="strong co-order is 1"):
            coorder0_solution(L, 0, 0)


class TestBacklundVerify:
    def test_heat_surface(self):
        ctx, L = heat()
        t, x, u = ctx.x1, ctx.x2, ctx.u
        rep = backlund_verify(L, u, u * sp.exp(-t - x), 0)
        assert rep.identity_q is TriBool.PROVEN_ZERO
        assert rep.identity_g is TriBool.PROVEN_ZERO
        assert rep.structural is TriBool.PROVEN_ZERO
        assert len(rep.points) == rep.samples_requested == 50
        assert all(res == 0 for _pt, res in rep.points)
        assert rep.passed

    def test_identity_failure_blocks_the_pass(self):
        ctx, L = heat()
        # u itself parametrizes the constants, which do solve the equation,
        # but zeta = u is not the operator attached to that inverse
        rep = backlund_verify(L, ctx.u, ctx.u, 0)
        assert rep.structural is TriBool.PROVEN_ZERO
        assert rep.identity_q is not TriBool.PROVEN_ZERO
        assert not rep.passed

    def test_sample_count_follows_the_request(self):
        ctx, L = heat()
        t, x, u = ctx.x1, ctx.x2, ctx.u
        rep = backlund_verify(L, u, u * sp.exp(-t - x), 0, Session(samples=2))
        assert rep.samples_requested == 10
        assert len(rep.points) == 10

    def test_u_free_inverse_rejected(self):
        ctx, L = heat()
        with pytest.raises(DegenerateInverse):
            backlund_verify(L, ctx.u, ctx.x1 + ctx.x2, 0)

    def test_a_bijection_job_imports_no_code_printer(self):
        # the surface evaluators are printed by the grammar printer; sympy's
        # code printers import sympy.codegen, a cost of every cold bijection job
        corpus = Path(redop.__file__).parent / "corpus" / "wave_liouville.prob"
        script = (
            "import sys\n"
            "from redop.cli import main\n"
            "code = main(['bijection', %r, '--family', 'main', '--samples', '5', '--json'])\n"
            "print(code, 'sympy.codegen' in sys.modules)\n" % str(corpus)
        )
        env = dict(os.environ, PYTHONPATH=str(Path(redop.__file__).parents[1]))
        out = subprocess.run([sys.executable, "-c", script], env=env,
                             capture_output=True, text=True, check=True).stdout
        assert out.splitlines()[-1] == "0 False"


CORPUS_FAMILIES = [
    ("heat", "grow"),
    ("heat", "quad"),
    ("heat", "line"),
    ("transport", "fan"),
    ("wave_liouville", "main"),
]


class TestSurfaceRootSearch:
    @pytest.mark.parametrize("stem,name", CORPUS_FAMILIES)
    def test_corpus_points_pass_the_certificate(self, stem, name):
        problem = corpus_problem(stem)
        L = problem.equation
        ctx = L.ctx
        fam = problem.families[name]
        zeta = zeta_from_family(fam, 0)
        phi = sp.lambdify((ctx.x1, ctx.x2, ctx.u), fam.Phi, "mpmath")
        for seed in (0, 1, 7):
            rep = backlund_verify(L, zeta, fam.Phi, 0, Session(samples=50, seed=seed))
            assert len(rep.points) == 250, (stem, name, seed)
            for (a, b, root, kv), _res in rep.points:
                assert abs(phi(a, b, mpmath.mpf(root)) - kv) < 1e-20

    @pytest.mark.parametrize("stem,name", CORPUS_FAMILIES)
    def test_no_findroot_on_a_corpus_surface(self, stem, name, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("findroot called")

        monkeypatch.setattr(mpmath, "findroot", refuse)
        problem = corpus_problem(stem)
        L = problem.equation
        fam = problem.families[name]
        zeta = zeta_from_family(fam, 0)
        for seed in (0, 1, 7):
            rep = backlund_verify(L, zeta, fam.Phi, 0, Session(samples=50, seed=seed))
            assert len(rep.points) == 250, (stem, name, seed)

    def test_roots_at_negative_u_where_positive_u_fails(self):
        ctx, L = heat()
        x, u = ctx.x2, ctx.u
        # every root lies at u = -(x + kappa)**2, and sqrt(-u) raises for u > 0
        rep = backlund_verify(L, 0, sp.sqrt(-u) - x, 0)
        assert len(rep.points) == 50
        assert all(root < 0 for (_a, _b, root, _kv), _res in rep.points)

    def test_root_past_a_pole_is_found(self):
        ctx, L = heat()
        u = ctx.u
        # the cell (1/2, 2) straddles the pole u = 1 and bisects into it; the
        # roots u = 3 (kappa = 1/2) and u = 2 (kappa = 1) lie in later cells
        rep = backlund_verify(L, 0, 1 / (u - 1), 0, Session(samples=10))
        assert len(rep.points) == 20
        assert {kv for (_a, _b, _root, kv), _res in rep.points} == {0.5, 1.0}

    def test_a_flow_identity_with_no_G_is_undecidable(self):
        # u_x = u under zeta = u leaves hat = 0, free of u, so there is no G
        ctx = JetContext("t", "x", "u")
        x, u = ctx.x2, ctx.u
        L = DifferentialFunction(ctx.jet(0, 1) - u, ctx)
        rep = backlund_verify(L, u, u * sp.exp(-x), 0, Session(samples=2))
        assert rep.identity_q is TriBool.PROVEN_ZERO
        assert rep.identity_g is None
        assert zero_claim_status(rep.identity_g) == UNDECIDABLE
        assert not rep.passed

    def test_a_surface_with_no_sample_point_is_undecidable(self):
        # Phi holds an unknown function, so no point can be evaluated
        ctx, L = heat()
        F = ctx.add_function("F", (ctx.u,), nonzero=((1,),))
        rep = backlund_verify(L, 1 / F.sym((1,)), F.base - ctx.x2, 0)
        assert rep.identity_q is TriBool.PROVEN_ZERO
        assert rep.structural is not TriBool.PROVEN_ZERO
        assert rep.points == []
        assert rep.surface is None
        assert zero_claim_status(rep.surface) == UNDECIDABLE
        assert not rep.passed

    def test_the_runner_reports_a_surface_with_no_point_as_undecidable(self):
        # -exp(u) - x is negative where the base points lie, so it never reaches kappa
        text = (
            "vars t x;\ndep u;\neq: u_t = u_xx;\n"
            "family g: ln(-kappa - x) param kappa inverse -exp(u) - x;\n"
        )
        report = run("bijection", parse_problem(text), family="g", samples=2)
        surface = [v for v in report.results[0].verdicts if v.claim.startswith("implicit-surface")]
        assert [(v.status, v.detail) for v in surface] == [(UNDECIDABLE, "no sample point found")]

    def test_a_residual_zero_at_every_point_without_a_proof_is_sampled(self):
        # sqrt(x^2) - x vanishes at the positive base points and at the
        # positive sample points of the zero test, but has no proof
        ctx = JetContext("t", "x", "u")
        t, x, u = ctx.x1, ctx.x2, ctx.u
        L = DifferentialFunction(ctx.jet(1, 0) - ctx.jet(0, 2) + (sp.sqrt(x**2) - x) * u, ctx)
        rep = backlund_verify(L, u, u * sp.exp(-t - x), 0, Session(samples=2))
        assert rep.structural is TriBool.SAMPLED_ZERO
        assert len(rep.points) == 10
        assert all(res <= 1e-9 for _pt, res in rep.points)
        assert rep.surface is TriBool.SAMPLED_ZERO
        assert zero_claim_status(rep.surface) == SAMPLED

    @pytest.mark.parametrize("Phi, identity", [
        (lambda x, y, u: u - y**2 / 2, TriBool.PROVEN_ZERO),
        (lambda x, y, u: u - y**2 / 2 + x, TriBool.PROVEN_NONZERO),
    ], ids=["on-one-surface", "across-surfaces"])
    def test_the_coorder_zero_flow_identity(self, Phi, identity):
        # the wave_linear corpus operator zeta = y: its set has strong
        # co-order 0, and the unique invariant solution is G = 0
        L = corpus_problem("wave_linear").equation
        ctx = L.ctx
        x, y, u = ctx.x1, ctx.x2, ctx.u
        elim = eliminate_on_Q(L, VectorField(ctx, 0, 1, y), 2)
        assert (elim.k, elim.hat.depends_on_u) == (0, True)
        rep = backlund_verify(L, y, Phi(x, y, u), 0, Session(samples=2))
        assert rep.identity_q is TriBool.PROVEN_ZERO
        assert rep.identity_g is identity

    def test_nonzero_residual_is_evaluated_at_each_root(self):
        ctx, L = heat()
        x, u = ctx.x2, ctx.u
        # u = x^2 + kappa gives u_t - u_xx = -2 on every surface
        rep = backlund_verify(L, 0, u - x**2, 0)
        assert rep.structural is not TriBool.PROVEN_ZERO
        assert rep.surface is TriBool.PROBABLY_NONZERO
        assert len(rep.points) == 50
        assert all(abs(res - 2) < 1e-12 for _pt, res in rep.points)


class TestInstantiate:
    def test_partials_of_the_value_replace_the_symbols(self):
        ctx, L = heat()
        zeta = ctx.add_function("zeta", (ctx.x1, ctx.x2, ctx.u))
        e = zeta.sym((0, 1, 0)) + ctx.u * zeta.sym((0, 0, 1))
        got = instantiate_function(e, zeta, ctx.x2 * ctx.u)
        assert normalize(got - (ctx.u + ctx.u * ctx.x2)) == 0

    def test_an_applied_map_takes_the_partials_at_its_arguments(self):
        ctx, L = heat()
        H = ctx.add_function("H", (ctx.x1, ctx.u))
        F = ctx.add_function("F", (ctx.u,))
        e = H.sym((0, 1)) + H.applied((0, 1), (ctx.x2, ctx.u**2)) + F(ctx.x2)
        # H_u of t*F(u) is t*F_u, and at (x, u^2) it is x*F_u(u^2)
        got = instantiate_function(e, H, ctx.x1 * F.base)
        want = ctx.x1 * F.sym((1,)) + ctx.x2 * F.applied((1,), (ctx.u**2,)) + F(ctx.x2)
        assert normalize(got - want) == 0
