"""Axis elimination, singularity co-orders, reduced-set analysis."""

import random

import pytest
import sympy as sp
from hypothesis import example, given, settings
from hypothesis import strategies as st

from redop import (
    DifferentialFunction,
    JetContext,
    TriBool,
    VectorField,
    analyze_reduced_set,
    eliminate_on_Q,
    is_zero,
    normalize,
    ord,
    representation_check,
    substitute,
    transpose,
    weak_coorder,
)
from redop.errors import BothCoefficientsZero, NonPolynomialSplit, NotRepresentable
from redop.singular import _poly_split, consistency_closure

from helpers import (
    corpus_problem,
    corpus_values,
    first_order_t,
    heat,
    liouville,
    rand_expr,
    third_order_t,
    wave_generic,
    wave_zero,
)


class TestEliminate:
    def test_heat_exponential_set(self):
        ctx, L = heat()
        Q = VectorField(ctx, 0, 1, ctx.u)
        res = eliminate_on_Q(L, Q, axis=2)
        # u_x -> u, u_xx -> u on the invariant surface
        assert normalize(res.hat.body - (ctx.jet(1, 0) - ctx.u)) == 0
        assert res.kept_axis == 1

    def test_axis_defaults_away_from_vanishing_coefficient(self):
        ctx, L = heat()
        Q = VectorField(ctx, 1, 0, 0)
        res = eliminate_on_Q(L, Q)
        # xi2 = 0 forces elimination of the first axis: u_t -> 0
        assert normalize(res.hat.body + ctx.jet(0, 2)) == 0

    def test_the_leader_is_the_top_kept_jet_of_hat(self):
        ctx, L = heat()
        res = eliminate_on_Q(L, VectorField(ctx, 1, 0, 0))
        # u_t -> 0 keeps the x axis: hat = -u_xx, of co-order 2
        assert (res.k, res.leader, res.kept_jet(3)) == (2, ctx.jet(0, 2), ctx.jet(0, 3))
        res = eliminate_on_Q(L, VectorField(ctx, 0, 1, ctx.u), axis=2)
        assert (res.k, res.leader, res.kept_jet(0)) == (1, ctx.jet(1, 0), ctx.u)
        ctx, L = wave_zero()
        res = eliminate_on_Q(L, VectorField(ctx, 0, 1, ctx.x2))
        assert (res.k, res.leader) == (-1, None)

    def test_both_coefficients_zero_rejected(self):
        ctx, L = heat()
        with pytest.raises(BothCoefficientsZero):
            eliminate_on_Q(L, VectorField(ctx, 0, 0, ctx.u))


class TestStrongCoorder:
    def test_heat_fields(self):
        ctx, L = heat()
        assert eliminate_on_Q(L, VectorField(ctx, 0, 1, ctx.u)).k == 1
        assert eliminate_on_Q(L, VectorField(ctx, 1, 0, 0)).k == 2

    def test_liouville_fields(self):
        ctx, L = liouville()
        zeta = -sp.sqrt(2) * sp.exp(ctx.u / 2)
        assert eliminate_on_Q(L, VectorField(ctx, 0, 1, zeta)).k == 1
        flat = -2 / (ctx.x1 + ctx.x2)
        assert eliminate_on_Q(L, VectorField(ctx, 0, 1, flat)).k == 0
        assert eliminate_on_Q(L, VectorField(ctx, 1, 0, 0)).k == 0

    def test_ultra_singular_is_minus_one(self):
        ctx, L = wave_zero()
        assert eliminate_on_Q(L, VectorField(ctx, 0, 1, ctx.x2)).k == -1

    @pytest.mark.parametrize("lam_label", ["exp", "poly", "coord"])
    def test_invariant_under_nonzero_rescaling(self, lam_label):
        ctx, L = heat()
        lam = {
            "exp": sp.exp(ctx.x1 + ctx.u),
            "poly": 1 + ctx.u**2,
            "coord": ctx.x2,
        }[lam_label]
        for Q in (
            VectorField(ctx, 0, 1, ctx.u),
            VectorField(ctx, 1, 0, 0),
            VectorField(ctx, 0, 2 * ctx.x1, -ctx.x2 * ctx.u),
        ):
            scaled = VectorField(ctx, lam * Q.xi1, lam * Q.xi2, lam * Q.eta)
            assert eliminate_on_Q(L, scaled).k == eliminate_on_Q(L, Q).k


class TestWeakCoorder:
    def test_multiplier_extraction_drops_the_order(self):
        ctx, L = third_order_t()
        rep = weak_coorder(L, VectorField(ctx, 1, 0, 0))
        assert rep.strong == 2
        assert (rep.weak_lower, rep.weak_upper) == (1, 1)
        assert rep.exact
        assert normalize(rep.multiplier + sp.exp(ctx.jet(0, 2))) == 0

    def test_first_order_variant_is_regular_with_weak_one(self):
        ctx, L = first_order_t()
        rep = weak_coorder(L, VectorField(ctx, 1, 0, 0))
        assert rep.strong == 2 == ord(L)
        assert (rep.weak_lower, rep.weak_upper) == (1, 1)

    def test_trivial_multiplier_keeps_bounds_tight(self):
        ctx, L = heat()
        rep = weak_coorder(L, VectorField(ctx, 0, 1, ctx.u))
        assert rep.strong == 1
        assert (rep.weak_lower, rep.weak_upper) == (1, 1)
        assert rep.multiplier in (1, -1)

    def test_ultra_singular_bounds(self):
        ctx, L = wave_zero()
        rep = weak_coorder(L, VectorField(ctx, 0, 1, ctx.x2))
        assert (rep.weak_lower, rep.weak_upper, rep.strong) == (-1, -1, -1)

    def test_bounds_are_ordered(self):
        ctx, L = liouville()
        rep = weak_coorder(L, VectorField(ctx, 0, 1, -2 / (ctx.x1 + ctx.x2)))
        assert rep.weak_lower <= rep.weak_upper <= rep.strong == 0


class TestNoFactorization:
    """The co-order split and the zero test never factor."""

    @pytest.fixture
    def factor_calls(self, monkeypatch):
        calls = []
        factor_list = sp.factor_list

        def counted(*args, **kwargs):
            calls.append(args)
            return factor_list(*args, **kwargs)

        monkeypatch.setattr(sp, "factor_list", counted)
        return calls

    def test_heat_template(self, factor_calls):
        problem = corpus_problem("heat")
        rep = weak_coorder(problem.equation, problem.fields["template"])
        assert (rep.strong, rep.weak_lower, rep.weak_upper) == (2, 2, 2)
        assert rep.multiplier == problem.ctx.functions["xi"].base ** -3
        assert normalize(rep.multiplier * rep.residual.body - rep.elimination.hat.body) == 0
        assert rep.maximal_rank is TriBool.PROBABLY_NONZERO
        assert factor_calls == []

    def test_ttt_d1(self, factor_calls):
        problem = corpus_problem("ttt")
        ctx = problem.ctx
        rep = weak_coorder(problem.equation, problem.fields["d1"])
        assert (rep.strong, rep.weak_lower, rep.weak_upper) == (2, 1, 1)
        assert rep.multiplier == -sp.exp(ctx.jet(0, 2))
        assert rep.residual.body == ctx.u + ctx.jet(0, 1)
        assert rep.maximal_rank is TriBool.PROVEN_NONZERO
        assert factor_calls == []

    def test_is_zero_of_a_polynomial(self, factor_calls):
        assert is_zero(sp.Symbol("x") + 1) is TriBool.PROBABLY_NONZERO
        assert factor_calls == []


class TestAnalyzeReducedSet:
    def test_heat_x_orientation_is_first_coorder(self):
        ctx, L = heat()
        sa = analyze_reduced_set(L, 0)
        assert sa.k == 1
        assert sa.ultra_closure[0] is TriBool.PROVEN_NONZERO
        assert sa.zero_closure[0] is TriBool.PROVEN_NONZERO

    def test_heat_t_orientation_is_regular(self):
        ctx, L = heat()
        sa = analyze_reduced_set(transpose(L), 0)
        assert sa.k == 2 == ord(L)

    def test_a_regular_set_runs_no_closure(self, monkeypatch):
        import redop.singular

        calls = []
        real = redop.singular.consistency_closure
        monkeypatch.setattr(redop.singular, "consistency_closure",
                            lambda *a, **kw: calls.append(a) or real(*a, **kw))
        ctx, L = heat()
        sa = analyze_reduced_set(transpose(L), 0)
        assert sa.k == ord(L)
        assert (sa.s_ultra, sa.s_zero, sa.ultra_closure, sa.zero_closure) == (None,) * 4
        assert calls == []
        assert analyze_reduced_set(L, 0).k == 1
        assert len(calls) == 2

    def test_closure_returns_the_deciding_verdict(self):
        ctx, L = heat()
        zeta = ctx.add_function("zeta", (ctx.x1, ctx.x2, ctx.u))
        u = ctx.u
        assert consistency_closure([-u], zeta, u) == (TriBool.PROBABLY_NONZERO, -u)
        # a proven member of the same round wins over a sampled one before it
        assert consistency_closure([-u, sp.S(2)], zeta, u) == (TriBool.PROVEN_NONZERO, 2)
        assert consistency_closure([zeta.base], zeta, u) == (None, None)

    def test_closure_names_a_member_it_could_not_test(self):
        ctx, L = heat()
        zeta = ctx.add_function("zeta", (ctx.x1, ctx.x2, ctx.u))
        u = ctx.u
        untested = normalize(sp.sqrt(-1 - u**2))
        assert consistency_closure([zeta.base, untested], zeta, u) == (None, untested)
        # contradiction evidence wins over an untested member, in any round
        assert consistency_closure([untested, -u], zeta, u) == (TriBool.PROBABLY_NONZERO, -u)
        later = [untested, zeta.sym((0, 0, 1)), zeta.base - u]
        assert consistency_closure(later, zeta, u) == (TriBool.PROVEN_NONZERO, -1)

    def test_liouville_lower_branch_requires_zeta_u(self):
        ctx, L = liouville()
        sa = analyze_reduced_set(L, 0)
        assert sa.k == 1
        assert sa.ultra_closure[0] is TriBool.PROVEN_NONZERO
        assert sa.zero_closure == (None, None)
        zeta_u = ctx.functions["zeta"].sym((0, 0, 1))
        assert normalize(sa.regular_value - zeta_u) == 0

    def test_ultra_branch_of_the_trivial_wave(self):
        ctx, L = wave_zero()
        sa = analyze_reduced_set(L, 0)
        assert sa.k == 1
        assert sa.ultra_closure == (None, None)

    def test_unknown_function_with_xi_u_degrades_to_regular(self):
        ctx = JetContext("t", "x", "u")
        H = ctx.add_function(
            "H", (ctx.x1, ctx.x2, ctx.u, ctx.jet(0, 1), ctx.jet(0, 2)),
            nonzero=((0, 0, 0, 0, 1),),
        )
        L = DifferentialFunction(ctx.jet(1, 0) - H.base, ctx)
        sa = analyze_reduced_set(L, ctx.u)
        # no finite coefficient split exists; the verdict stays regular
        assert sa.k == ord(L)
        assert sa.s_ultra is None and sa.zero_closure is None


class TestRepresentation:
    def test_heat_coorder_one_form(self):
        ctx, L = heat()
        form = representation_check(L, 0, 1)
        present = [idx for idx, w in form.omegas.items() if w in form.body.free_symbols]
        assert max(idx.a1 for idx in present) == 1

    def test_substituting_omegas_back_recovers_the_body(self):
        ctx, L = heat()
        form = representation_check(L, 0, 1)
        from redop.singular import _omega_table

        table = _omega_table(ctx, sp.S.Zero)
        back = {w: table.value(*idx).body for idx, w in form.omegas.items()}
        assert normalize(form.body.xreplace(back) - L.body) == 0

    def test_omega_values_recover_the_body_at_xi_zero(self):
        ctx, L = heat()
        form = representation_check(L, 0, 1)
        assert set(form.values) == set(form.omegas)
        back = {w: form.values[idx] for idx, w in form.omegas.items()}
        assert normalize(form.body.xreplace(back) - L.body) == 0

    def test_omega_values_recover_the_body_at_xi_u(self):
        # transport u_t + u*u_x = 0 normalized on x: the xi = u set has
        # co-order 0 below the order 1, so its analysis checks the form
        ctx = JetContext("x", "t", "u")
        L = DifferentialFunction(ctx.jet(0, 1) + ctx.u * ctx.jet(1, 0), ctx)
        assert analyze_reduced_set(L, ctx.u).k == 0
        form = representation_check(L, ctx.u, 0)
        assert form.values[(0, 1)] == normalize(ctx.u * ctx.jet(1, 0) + ctx.jet(0, 1))
        back = {w: form.values[idx] for idx, w in form.omegas.items()}
        assert normalize(form.body.xreplace(back) - L.body) == 0

    def test_wrong_coorder_is_not_representable(self):
        ctx, L = heat()
        with pytest.raises(NotRepresentable):
            representation_check(L, 0, 0)


@settings(max_examples=10, deadline=None)
@given(st.integers(0, 10**9))
def test_strong_coorder_rescaling_invariance_on_random_fields(seed):
    rng = random.Random(seed)
    ctx, L = heat()
    coords = [ctx.x1, ctx.x2, ctx.u, sp.Integer(1)]
    xi1 = rng.choice([sp.S.Zero, sp.S.One, ctx.u])
    xi2 = sp.S.One
    eta = rng.choice(coords) + rng.randint(0, 2)
    Q = VectorField(ctx, xi1, xi2, eta)
    lam = sp.exp(rng.choice([ctx.x1, ctx.x2, ctx.u]))
    scaled = VectorField(ctx, lam * Q.xi1, lam * Q.xi2, lam * Q.eta)
    assert eliminate_on_Q(L, scaled).k == eliminate_on_Q(L, Q).k


# _poly_split reads the coefficients from the ring form; the sp.Poly split
# it replaced is kept here as the oracle

def _poly_split_by_poly(e, gens):
    gens = [g for g in gens if g in e.free_symbols]
    if not gens:
        return [e]
    num, _den = e.as_numer_denom()
    try:
        p = sp.Poly(num, *gens)
    except Exception as exc:
        raise NonPolynomialSplit(str(exc))
    return [normalize(c) for c in p.coeffs()]


_SCTX = JetContext("t", "x", "u")
_SF = _SCTX.add_function("F", (_SCTX.u,), nonzero=((1,),))
_st, _sx, _su = _SCTX.x1, _SCTX.x2, _SCTX.u
_sux, _suxx, _sut = _SCTX.jet(0, 1), _SCTX.jet(0, 2), _SCTX.jet(1, 0)
_SPLIT_ATOMS = [_st, _sx, _su, _sux, _suxx, _sut, sp.exp(_su), sp.exp(_sx / 2), _SF.sym((1,)), sp.sqrt(_su)]
# jets inside exp, an unknown function and a radical, which admit no split
_SPLIT_WIDE = _SPLIT_ATOMS + [sp.exp(_sux), sp.sqrt(_suxx), _SF(_st + _sux), sp.exp(-_sx / 2), sp.log(_sx)]
_SPLIT_GENS = [[_sux], [_sux, _suxx], [_suxx, _sux], [_sut, _sux, _suxx], [_su, _sux]]


def _split_input(seed, wide):
    rng = random.Random(seed)
    atoms = _SPLIT_WIDE if wide else _SPLIT_ATOMS
    e = rand_expr(rng, atoms, depth=3, allow_exp=False)
    if rng.random() < 0.5:
        e = e / (1 + rand_expr(rng, atoms, depth=2, allow_exp=False) ** 2)
    return normalize(e)


def _corpus_split(i):
    values = corpus_values()
    v = values[i % len(values)]
    return v, sorted(v.free_symbols, key=str)[: 1 + i % 3]


def _assert_same_split(e, gens):
    try:
        want = _poly_split_by_poly(e, gens)
    except NonPolynomialSplit:
        with pytest.raises(NonPolynomialSplit):
            _poly_split(e, gens)
        return
    got = _poly_split(e, gens)
    assert got == want
    assert [sp.srepr(c) for c in got] == [sp.srepr(c) for c in want]


@settings(max_examples=60, deadline=None)
@given(
    st.builds(_split_input, st.integers(0, 10**9), st.booleans()),
    st.sampled_from(_SPLIT_GENS),
)
@example(normalize(_sux * sp.exp(_sux) + _suxx), [_sux, _suxx])
@example(normalize(_SF(_st + _sux) * _suxx**2 - _sut), [_sux, _suxx])
@example(normalize((sp.sqrt(_sux) + _suxx) / (_su + 1)), [_suxx, _sux])
@example(normalize(_sux * _suxx / (sp.exp(_sux) + 1)), [_sux, _suxx])
def test_split_from_the_ring_equals_the_poly_split(e, gens):
    _assert_same_split(e, gens)


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 10**6).map(_corpus_split))
def test_split_from_the_ring_equals_the_poly_split_on_corpus_values(case):
    _assert_same_split(*case)


def test_a_jet_inside_another_generator_admits_no_split():
    for e in (
        _sux * sp.exp(_sux) + 1,
        _SF(_st + _sux) * _suxx,
        sp.sqrt(_sux) + _suxx**2,
    ):
        with pytest.raises(NonPolynomialSplit):
            _poly_split(normalize(e), [_sux, _suxx])
    # in the denominator only, a jet inside exp does not stop the split
    assert _poly_split(normalize((_sux**2 + _st) / (sp.exp(_sux) + 1)), [_sux]) == [1, _st]
