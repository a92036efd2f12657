"""Jet contexts, total derivatives, prolongation, transposition."""

import operator
import random
from dataclasses import FrozenInstanceError

import pytest
import sympy as sp
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from redop import (
    DifferentialFunction,
    JetContext,
    MultiIndex,
    TriBool,
    VectorField,
    apply_prolonged,
    characteristic,
    diff,
    is_zero,
    normalize,
    ord,
    prolong,
    total_derivative,
    transpose,
)
from redop.core import _d, depends_on
from redop.errors import OrderUndefined
from redop.jets import _prolonged_coefficients, chain_jets
from redop.singular import _omega_table

from helpers import (
    corpus_problem,
    corpus_stems,
    heat,
    rand_expr,
    rand_jet_body,
    reference_chain_jets,
    reference_depends_on,
)


@pytest.fixture
def ctx():
    return JetContext("t", "x", "u")


class TestContext:
    def test_jet_names_repeat_variable_letters(self, ctx):
        assert ctx.jet(0, 0).name == "u"
        assert ctx.jet(1, 0).name == "u_t"
        assert ctx.jet(0, 2).name == "u_xx"
        assert ctx.jet(2, 1).name == "u_ttx"

    def test_jets_are_interned(self, ctx):
        assert ctx.jet(1, 1) is ctx.jet(1, 1)
        assert ctx.jet(MultiIndex(0, 3)) is ctx.jet(0, 3)

    def test_index_roundtrip(self, ctx):
        s = ctx.jet(2, 3)
        assert ctx.index(s) == MultiIndex(2, 3)
        assert ctx.index(sp.Symbol("u_t")) is None  # a plain symbol, not interned

    def test_multichar_variables_use_numeric_names(self):
        c = JetContext("tau", "x", "u")
        assert c.jet(1, 2).name == "u[1,2]"

    def test_negative_index_rejected(self, ctx):
        with pytest.raises(ValueError):
            ctx.jet(-1, 0)

    def test_same_variable_twice_rejected(self):
        with pytest.raises(ValueError):
            JetContext("x", "x", "u")


class TestMultiIndex:
    def test_order_and_bump(self):
        idx = MultiIndex(1, 2)
        assert idx.order() == 3
        assert idx.bump(1) == MultiIndex(2, 2)
        assert idx.bump(2) == MultiIndex(1, 3)
        with pytest.raises(ValueError):
            idx.bump(3)


class TestDifferentialFunction:
    def test_normalized_on_construction(self, ctx):
        L = DifferentialFunction((ctx.u**2 - 1) / (ctx.u - 1), ctx)
        assert L.body == ctx.u + 1

    def test_order(self, ctx):
        assert ord(DifferentialFunction(0, ctx)) == -1
        assert ord(DifferentialFunction(ctx.x1 + 7, ctx)) == 0
        assert ord(DifferentialFunction(ctx.u, ctx)) == 0
        assert ord(DifferentialFunction(ctx.jet(1, 0) - ctx.jet(0, 2), ctx)) == 2

    def test_order_through_unknown_function_arguments(self, ctx):
        H = ctx.add_function("H", (ctx.x1, ctx.x2, ctx.u, ctx.jet(0, 1), ctx.jet(0, 2)))
        L = DifferentialFunction(ctx.jet(1, 0) - H.base, ctx)
        assert ord(L) == 2

    def test_depends_on_u(self, ctx):
        assert DifferentialFunction(ctx.u + ctx.x1, ctx).depends_on_u
        assert not DifferentialFunction(ctx.jet(1, 0), ctx).depends_on_u
        zeta = ctx.add_function("zeta", (ctx.x1, ctx.x2, ctx.u))
        assert DifferentialFunction(zeta.base, ctx).depends_on_u


class TestTotalDerivative:
    def test_basic_jets(self, ctx):
        L = DifferentialFunction(ctx.u, ctx)
        assert total_derivative(L, 1).body == ctx.jet(1, 0)
        assert total_derivative(total_derivative(L, 2), 2).body == ctx.jet(0, 2)

    def test_product_rule(self, ctx):
        L = DifferentialFunction(ctx.x2 * ctx.jet(1, 0), ctx)
        got = total_derivative(L, 2).body
        assert normalize(got - (ctx.jet(1, 0) + ctx.x2 * ctx.jet(1, 1))) == 0

    def test_chain_through_unknown_function(self, ctx):
        zeta = ctx.add_function("zeta", (ctx.x1, ctx.x2, ctx.u))
        L = DifferentialFunction(zeta.base, ctx)
        got = total_derivative(L, 2).body
        want = zeta.sym((0, 1, 0)) + zeta.sym((0, 0, 1)) * ctx.jet(0, 1)
        assert normalize(got - want) == 0

    def test_order_grows_by_one_on_generic_bodies(self, ctx):
        L = DifferentialFunction(ctx.jet(0, 2) + ctx.u**2, ctx)
        assert ord(total_derivative(L, 1)) == 3
        assert ord(total_derivative(L, 2)) == 3


class TestVectorField:
    def test_coefficients_must_be_jet_free(self, ctx):
        with pytest.raises(ValueError):
            VectorField(ctx, ctx.jet(1, 0), 1, 0)

    def test_pure_eta_field_is_allowed(self, ctx):
        Q = VectorField(ctx, 0, 0, ctx.x2)
        assert Q.coefficients() == (0, 0, ctx.x2)

    def test_apply_to(self, ctx):
        Q = VectorField(ctx, 0, 1, ctx.u)
        assert Q.apply_to(ctx.x2 * ctx.u) == ctx.u + ctx.x2 * ctx.u

    def test_characteristic(self, ctx):
        Q = VectorField(ctx, ctx.u, 1, ctx.x1)
        want = ctx.x1 - ctx.u * ctx.jet(1, 0) - ctx.jet(0, 1)
        assert normalize(characteristic(Q).body - want) == 0


class TestProlongation:
    def test_zeroth_coefficient_is_eta(self, ctx):
        Q = VectorField(ctx, 0, 2 * ctx.x1, -ctx.x2 * ctx.u)
        assert prolong(Q, 0)[MultiIndex(0, 0)] == Q.eta

    def test_negative_order_rejected(self, ctx):
        with pytest.raises(ValueError):
            prolong(VectorField(ctx, 0, 1, 0), -1)

    def test_translation_field_annihilates_all_coefficients(self, ctx):
        Q = VectorField(ctx, 1, 0, 0)
        coeffs = prolong(Q, 2)
        assert all(c == 0 for c in coeffs.values())

    def test_scaling_symmetry_of_heat(self):
        ctx, L = heat()
        S = VectorField(ctx, 0, 0, ctx.u)
        assert normalize(apply_prolonged(S, L) - L.body) == 0

    def test_galilei_action_on_heat_is_a_multiple(self):
        ctx, L = heat()
        G = VectorField(ctx, 0, 2 * ctx.x1, -ctx.x2 * ctx.u)
        assert normalize(apply_prolonged(G, L) + ctx.x2 * L.body) == 0

    def test_prolonged_action_needs_a_nonzero_body(self, ctx):
        Q = VectorField(ctx, 0, 1, 0)
        with pytest.raises(OrderUndefined):
            apply_prolonged(Q, DifferentialFunction(0, ctx))

    def test_prolonged_action_derives_only_the_coefficients_it_needs(self, monkeypatch):
        # heat depends on u_t and u_xx: eta^(1,0) needs D_t Q[u] and
        # eta^(0,2) needs D_x^2 Q[u]; the full order-2 table would take 5
        import redop.jets

        ctx, L = heat()
        calls = []
        original = redop.jets.total_derivative

        def spy(f, axis):
            calls.append(axis)
            return original(f, axis)

        monkeypatch.setattr(redop.jets, "total_derivative", spy)
        apply_prolonged(VectorField(ctx, 0, 1, ctx.u), L)
        assert sorted(calls) == [1, 2, 2]


class TestTranspose:
    def test_involution_and_index_swap(self):
        ctx, L = heat()
        T = transpose(L)
        assert T.ctx.x1.name == "x" and T.ctx.x2.name == "t"
        assert T.body == T.ctx.jet(0, 1) - T.ctx.jet(2, 0)
        back = transpose(T)
        assert back.body == L.body

    def test_function_registry_is_copied_not_shared(self):
        ctx, L = heat()
        flipped = transpose(L).ctx
        assert flipped.functions["zeta"] is not ctx.functions["zeta"]
        assert flipped.functions["zeta"].args == (flipped.x1, flipped.x2, flipped.u)
        before = dict(ctx.functions)
        flipped.add_function("H", (flipped.x1, flipped.u))
        assert "H" in flipped.functions
        assert ctx.functions.keys() == before.keys()
        assert all(ctx.functions[name] is fn for name, fn in before.items())

    def test_a_parsed_problem_has_one_sealed_flipped_context(self):
        L = corpus_problem("heat").equation
        flipped = transpose(L).ctx
        assert transpose(L).ctx is flipped
        assert flipped.functions["xi"] is L.ctx.functions["xi"]
        with pytest.raises(FrozenInstanceError):
            flipped.add_function("H", (flipped.x1, flipped.u))

    def test_declaring_or_sealing_drops_the_flipped_context(self):
        ctx, L = heat()
        before = transpose(L).ctx
        ctx.add_function("H", (ctx.x1, ctx.u))
        after = transpose(L).ctx
        assert after is not before and "H" in after.functions
        ctx.seal()
        sealed = transpose(L).ctx
        assert sealed is not after
        with pytest.raises(FrozenInstanceError):
            sealed.add_function("K", (sealed.x1, sealed.u))

    def test_mixed_jet_arguments_cannot_transpose(self):
        ctx = JetContext("t", "x", "u")
        ctx.add_function("H", (ctx.u, ctx.jet(1, 1)))
        H = ctx.functions["H"]
        L = DifferentialFunction(ctx.jet(1, 0) - H.base, ctx)
        with pytest.raises(ValueError):
            transpose(L)

    def test_the_least_refused_argument_is_named(self):
        ctx = JetContext("t", "x", "u")
        H = ctx.add_function("H", (ctx.jet(1, 1), ctx.u, ctx.jet(2, 1)))
        L = DifferentialFunction(ctx.jet(2, 0) - H.base, ctx)
        with pytest.raises(ValueError, match="^unknown-function argument u_ttx cannot be transposed$"):
            transpose(L)

    def test_jet_arguments_whose_names_survive_the_swap_transpose(self):
        ctx = JetContext("t", "x", "u")
        H = ctx.add_function("H", (ctx.u, ctx.jet(1, 0), ctx.jet(0, 1)))
        L = DifferentialFunction(ctx.jet(1, 1) - ctx.jet(0, 1) * H.sym((0, 1, 0)), ctx)
        T = transpose(L)
        assert T.body == T.ctx.jet(1, 1) - T.ctx.jet(1, 0) * H.sym((0, 1, 0))


def test_total_derivatives_commute_on_a_quotient():
    # each total derivative puts its terms over Q and Q**2; normalizing
    # their sum ran for minutes while its denominator grew with the terms
    ctx = JetContext("t", "x", "u")
    t, x, v = ctx.x1, ctx.x2, ctx.u
    body = (ctx.jet(0, 1) + ctx.jet(0, 2)) ** 3 / ((v / (x**2 + 1) + 3 * t) ** 2 + 1)
    L = DifferentialFunction(body, ctx)
    ab = total_derivative(total_derivative(L, 1), 2)
    ba = total_derivative(total_derivative(L, 2), 1)
    assert normalize(ab.body - ba.body) == 0


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 10**9))
def test_total_derivatives_commute(seed):
    rng = random.Random(seed)
    ctx = JetContext("t", "x", "u")
    L = DifferentialFunction(rand_jet_body(rng, ctx, max_order=2, depth=3), ctx)
    ab = total_derivative(total_derivative(L, 1), 2)
    ba = total_derivative(total_derivative(L, 2), 1)
    assert normalize(ab.body - ba.body) == 0


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 10**9))
def test_total_derivative_raises_order_by_at_most_one(seed):
    rng = random.Random(seed)
    ctx = JetContext("t", "x", "u")
    L = DifferentialFunction(rand_jet_body(rng, ctx, max_order=2, depth=3), ctx)
    for axis in (1, 2):
        D = total_derivative(L, axis)
        assert ord(D) <= ord(L) + 1


@settings(max_examples=15, deadline=None)
@given(st.integers(0, 10**9))
def test_prolongation_recursion(seed):
    """eta^{alpha+e_i} = D_i eta^alpha - (D_i xi1) u_{alpha+e_1} - (D_i xi2) u_{alpha+e_2}."""
    rng = random.Random(seed)
    ctx = JetContext("t", "x", "u")
    coords = [ctx.x1, ctx.x2, ctx.u]

    def coeff():
        return sum(
            sp.Integer(rng.randint(-2, 2)) * rng.choice(coords) for _ in range(2)
        ) + rng.randint(-1, 1)

    Q = VectorField(ctx, coeff(), coeff(), coeff())
    coeffs = prolong(Q, 3)
    for idx, eta_a in coeffs.items():
        for axis in (1, 2):
            bumped = idx.bump(axis)
            if bumped.order() > 3:
                continue
            Df = total_derivative(DifferentialFunction(eta_a, ctx), axis).body
            Dxi1 = total_derivative(DifferentialFunction(Q.xi1, ctx), axis).body
            Dxi2 = total_derivative(DifferentialFunction(Q.xi2, ctx), axis).body
            want = Df - Dxi1 * ctx.jet(idx.bump(1)) - Dxi2 * ctx.jet(idx.bump(2))
            assert normalize(coeffs[bumped] - want) == 0


# The chain-rule loops and field actions that jets.derivation replaced,
# written out as they were, as oracles for the sites that now call it.

def _old_total_derivative(L, axis):
    body, ctx, memo = L.body, L.ctx, {}
    raw = _d(body, ctx.var(axis), memo)
    for s, idx in chain_jets(body, ctx).items():
        ds = _d(body, s, memo)
        if ds != 0:
            raw = raw + ds * ctx.jet(idx.bump(axis))
    return normalize(raw)


def _old_apply_prolonged(Q, L):
    ctx, memo = L.ctx, {}
    eta = _prolonged_coefficients(Q)
    raw = Q.xi1 * _d(L.body, ctx.x1, memo) + Q.xi2 * _d(L.body, ctx.x2, memo)
    for s, idx in chain_jets(L.body, ctx).items():
        ds = _d(L.body, s, memo)
        if ds != 0:
            raw = raw + eta(*idx) * ds
    return normalize(raw)


def _old_along_field(L, xi):
    """xi*D_1 + D_2 as the sum of two total derivatives."""
    return normalize(xi * total_derivative(L, 1).body + total_derivative(L, 2).body)


def _old_apply_to(Q, e):
    ctx = Q.ctx
    return normalize(Q.xi1 * diff(e, ctx.x1) + Q.xi2 * diff(e, ctx.x2) + Q.eta * diff(e, ctx.u))


def _check_every_site(L, Q, xi, agree):
    """The total derivative and the prolonged action sum the same raw terms
    as before, so their normal forms are equal; the other two sites now
    normalize once instead of per term, and agree decides those."""
    for axis in (1, 2):
        assert total_derivative(L, axis).body == _old_total_derivative(L, axis)
    assert apply_prolonged(Q, L) == _old_apply_prolonged(Q, L)
    assert agree(_omega_table(L.ctx, xi).inner(L).body, _old_along_field(L, xi))
    for e in (L.body, *Q.coefficients()):
        assert agree(Q.apply_to(e), _old_apply_to(Q, e))


def _same_function(a, b):
    # on exp inputs a normal form still depends on the input's form (the
    # exp-generator defect): seed 1000488 gives u_t - u_x - exp(u_xx)*exp(-t) + 1
    # and xi = exp(x - u), whose xi*D_1 + D_2 keeps exp(u_xx) and exp(-u_xx)
    # as two generators in one form and not in the other
    return is_zero(a - b) in (TriBool.PROVEN_ZERO, TriBool.SAMPLED_ZERO)


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 10**9))
def test_derivation_matches_the_loops_it_replaced(seed):
    rng = random.Random(seed)
    ctx = JetContext("t", "x", "u")
    H = ctx.add_function("H", (ctx.x1, ctx.x2, ctx.u, ctx.jet(0, 1), ctx.jet(0, 2)))
    L = DifferentialFunction(rand_jet_body(rng, ctx, extra=(H.base,)), ctx)
    assume(L.body != 0)
    coords = [ctx.x1, ctx.x2, ctx.u]
    Q = VectorField(ctx, *(rand_expr(rng, coords, depth=2) for _ in range(3)))
    _check_every_site(L, Q, rand_expr(rng, coords, depth=2), _same_function)


@pytest.mark.parametrize("stem", corpus_stems())
def test_derivation_matches_the_loops_it_replaced_on_every_corpus_field(stem):
    p = corpus_problem(stem)
    for Q in p.fields.values():
        _check_every_site(p.equation, Q, Q.eta, operator.eq)


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 10**9))
def test_formal_argument_dependence_matches_the_loops_it_replaced(seed):
    """chain_jets and depends_on read the formal arguments from
    core.formal_arguments; on bodies that hold derivative symbols of
    functions of jets, and such functions applied elsewhere, they agree with
    the loops that each stated the rule on its own."""
    rng = random.Random(seed)
    ctx = JetContext("t", "x", "u")
    t, x, u = ctx.x1, ctx.x2, ctx.u
    H = ctx.add_function("H", (t, x, u, ctx.jet(0, 1)))
    G = ctx.add_function("G", (ctx.jet(1, 1), ctx.jet(0, 2)))
    F = ctx.add_function("F", (u,), inverse="Ftil")
    kernels = (
        H.base, H.sym((0, 0, 1, 1)), G.sym((1, 0)), F.base, F.sym((1,)),
        F(ctx.jet(1, 0)), F.inverse(x + ctx.jet(0, 1)), ctx.functions["zeta"].sym((0, 1, 0)),
        ctx.functions["phi"].base,
    )
    body = rand_jet_body(rng, ctx, depth=3, extra=rng.sample(kernels, 3))
    assert chain_jets(body, ctx) == reference_chain_jets(body, ctx)
    candidates = [t, x, sp.Symbol("w"), sp.Symbol("s"), *(ctx.jet(a, b) for a in range(3) for b in range(3 - a))]
    for v in candidates:
        assert depends_on(body, v) == reference_depends_on(body, v)
