"""Kernel behavior: differentiation, normalization, zero testing, unknown maps."""

import copy
import itertools
import random
from dataclasses import FrozenInstanceError
from types import SimpleNamespace

import pytest
import sympy as sp
from hypothesis import example, given, settings
from hypothesis import strategies as st
from sympy.core.cache import clear_cache
from sympy.polys.polyutils import _sort_gens
from sympy.polys.rings import sring

from redop import JetContext, Session, TriBool, UnknownFunction, diff, equations_equal, is_zero, normalize, primitive_equation, substitute
from redop import core
from redop.core import (
    AppliedMapBase,
    _collect_leaves,
    _provably_nonzero,
    _ring_fraction,
    _sort_ring_gens,
    split_nonvanishing,
)
from redop.jets import substitute_jets
from redop.errors import DivisionByZeroDetected, UnknownVariable, UnsupportedExpression

from helpers import corpus_problem, corpus_values, rand_expr, split_factors

t, x, u, y = sp.symbols("t x u y")


class TestTriBool:
    def test_four_members(self):
        names = {v.name for v in TriBool}
        assert names == {"PROVEN_ZERO", "PROVEN_NONZERO", "PROBABLY_NONZERO", "SAMPLED_ZERO"}

    def test_truthiness_raises(self):
        with pytest.raises(TypeError):
            bool(TriBool.PROVEN_ZERO)
        with pytest.raises(TypeError):
            if TriBool.PROVEN_NONZERO:
                pass


class TestDiff:
    def test_polynomial_and_quotient(self):
        assert diff(x**3 + 2 * x, x) == 3 * x**2 + 2
        assert diff(t / x, x) == -t / x**2

    def test_exp_log_sqrt_chain(self):
        assert diff(sp.exp(x**2), x) == 2 * x * sp.exp(x**2)
        assert diff(sp.log(t * x), t) == 1 / t
        assert normalize(diff(sp.sqrt(x), x) - 1 / (2 * sp.sqrt(x))) == 0

    def test_power_with_symbolic_exponent(self):
        assert normalize(diff(x**t, t) - x**t * sp.log(x)) == 0

    def test_unknown_function_chain_rule(self):
        zeta = UnknownFunction("zeta", (t, x, u))
        assert diff(zeta.base, t) == zeta.sym((1, 0, 0))
        assert diff(zeta.base, y) == 0
        got = diff(x * zeta.base, x)
        assert got == zeta.base + x * zeta.sym((0, 1, 0))
        # second derivatives commute on the symbol lattice
        assert diff(diff(zeta.base, t), u) == diff(diff(zeta.base, u), t)

    def test_variable_must_be_a_symbol(self):
        with pytest.raises(UnknownVariable):
            diff(x**2, x**2)

    def test_foreign_nodes_rejected(self):
        with pytest.raises(UnsupportedExpression):
            diff(sp.sin(x), x)


class TestUnknownFunction:
    def test_deriv_name_repeats_and_braces(self):
        H = UnknownFunction("H", (t, x, u, sp.Symbol("u_x"), sp.Symbol("u_xx")))
        assert H.deriv_name((0, 0, 0, 0, 0)) == "H"
        assert H.deriv_name((0, 0, 2, 0, 0)) == "H_uu"
        assert H.deriv_name((0, 0, 0, 0, 1)) == "H_{u_xx}"
        assert H.deriv_name((1, 0, 1, 1, 0)) == "H_tu{u_x}"

    def test_syms_are_interned(self):
        F = UnknownFunction("F", (u,))
        assert F.sym((1,)) is F.sym((1,))
        s = F.sym((2,))
        assert (s.fn, s.order) == (F, (2,))

    def test_applied_at_formal_args_is_the_symbol(self):
        F = UnknownFunction("F", (u,))
        assert F(u) is F.base
        assert F.applied((1,), (u,)) is F.sym((1,))

    def test_applied_elsewhere_is_a_map_node(self):
        F = UnknownFunction("F", (u,))
        node = F(x + u)
        assert isinstance(node, AppliedMapBase)
        assert diff(node, x) == F.applied((1,), (x + u,))

    def test_inverse_composition_collapses(self):
        F = UnknownFunction("F", (u,), inverse="Ftil")
        Ftil = F.inverse
        s = sp.Symbol("s")
        assert F(Ftil(s)) == s
        assert Ftil(F(s)) == s

    def test_inverse_derivative_rule(self):
        F = UnknownFunction("F", (u,), inverse="Ftil")
        Ftil = F.inverse
        s = sp.Symbol("s")
        got = diff(Ftil(s), s)
        assert normalize(got - 1 / F.applied((1,), (Ftil(s),))) == 0

    def test_only_the_plain_inverse_pair_collapses(self):
        F = UnknownFunction("F", (u,), inverse="Ftil")
        Ftil = F.inverse
        H = UnknownFunction("H", (t, u))
        s = sp.Symbol("s")
        for node in (F.applied((1,), (Ftil(s),)), F(Ftil.applied((1,), (s,))), H(Ftil(s), s)):
            assert isinstance(node, AppliedMapBase)
        # the inverse rule is for Ftil itself; its derivatives bump the order
        assert diff(Ftil.applied((1,), (s,)), s) == Ftil.applied((2,), (s,))
        assert diff(H(s**2, s), s) == normalize(2 * s * H.applied((1, 0), (s**2, s)) + H.applied((0, 1), (s**2, s)))

    def test_arbitrary_elements_are_symbols_and_applied_maps(self):
        F = UnknownFunction("F", (u,), inverse="Ftil")
        H = UnknownFunction("H", (t, u))
        e = F.sym((1,)) * x + H(F(x), u) + sp.exp(F.inverse(t)) + F.applied((2,), (t,))
        assert core.arbitrary_elements(e) == {
            F.sym((1,)), H(F(x), u), F(x), F.inverse(t), F.applied((2,), (t,))}
        assert core.arbitrary_elements(e, F) == {F.sym((1,)), F(x), F.applied((2,), (t,))}
        assert core.arbitrary_elements(e, H) == {H(F(x), u)}
        assert {(n.fn, n.order) for n in core.arbitrary_elements(e, F.inverse)} == {(F.inverse, (0,))}
        assert core.arbitrary_elements(x * u + sp.exp(t)) == set()

    def test_applied_refuses_a_wrong_number_of_arguments(self):
        F = UnknownFunction("F", (u,))
        with pytest.raises(ValueError, match="^F expects 1 arguments$"):
            F.applied((0,), (u, t))
        with pytest.raises(ValueError, match="^F expects 1 arguments$"):
            F()

    def test_a_function_is_complete_when_made(self):
        F = UnknownFunction("F", (u,), nonzero=((1,),), inverse="Ftil")
        Ftil = F.inverse
        assert F.nonzero == frozenset({(1,)})
        assert (Ftil.name, Ftil.inverse, Ftil.inverse_of, F.inverse_of) == ("Ftil", F, F, None)
        for fn, name in ((F, "inverse"), (F, "nonzero"), (Ftil, "inverse"), (F, "name")):
            with pytest.raises(FrozenInstanceError):
                setattr(fn, name, None)
            with pytest.raises(FrozenInstanceError):
                delattr(fn, name)
        with pytest.raises(AttributeError):
            F.nonzero.add((2,))
        with pytest.raises(ValueError):
            UnknownFunction("H", (t, x), inverse="Htil")

    def test_formal_args_validated(self):
        with pytest.raises(ValueError):
            UnknownFunction("F", (u, u))
        with pytest.raises(ValueError):
            UnknownFunction("F", (u + 1,))
        F = UnknownFunction("F", (u,))
        with pytest.raises(ValueError):
            F.sym((1, 0))

    def test_copies_keep_the_derivative_atom(self):
        F = UnknownFunction("F", (u,))
        e = F.sym((1,)) * 2
        for c in (copy.copy(e), copy.deepcopy(e)):
            assert c == e
            assert c.free_symbols == {F.sym((1,))}
        assert copy.deepcopy(F.sym((1,))) is F.sym((1,))


class TestNormalize:
    def test_exponentials_merge(self):
        assert normalize(sp.exp(x) * sp.exp(u) - sp.exp(x + u)) == 0

    def test_rational_cancellation(self):
        e = (x**2 - 1) / (x - 1)
        assert normalize(e) == x + 1

    def test_division_by_zero_detected(self):
        with pytest.raises(DivisionByZeroDetected):
            normalize(sp.S.One / sp.S.Zero)

    def test_no_log_exp_rewrite(self):
        # ln stays an opaque kernel: no ln(exp(a)) -> a
        e = sp.log(sp.exp(x, evaluate=False), evaluate=False)
        assert normalize(e).has(sp.log)

    def test_atoms_are_returned_as_they_are(self):
        ctx = JetContext("t", "x", "u")
        F = UnknownFunction("F", (u,))
        for a in (x, ctx.jet(0, 1), F.sym((1,))):
            assert normalize(a) is a
        with pytest.raises(DivisionByZeroDetected):
            normalize(sp.zoo)


class TestSubstitute:
    def test_simultaneous(self):
        got = substitute(x * u, {x: u, u: x})
        assert got == x * u

    def test_normalizes_result(self):
        got = substitute((x**2 - u**2) / (x - u), {u: sp.Integer(1)})
        assert got == x + 1

    def test_key_must_be_symbol(self):
        with pytest.raises(UnknownVariable):
            substitute(x, {x + 1: u})

    @pytest.mark.xfail(strict=True, reason="substitute replaces atoms only, so eta(t, x, u) "
                       "keeps u; reduce prints heat template's Q[f] with eta and xi at u, and "
                       "the fix changes three recorded reports")
    def test_reaches_unknown_function_arguments(self):
        p = corpus_problem("heat")
        eta, u_, x_ = p.fields["template"].eta, p.ctx.u, p.ctx.x2
        assert substitute(eta, {u_: x_**2}) == substitute_jets(eta, {u_: x_**2})


class TestIsZero:
    def test_structural_zero(self):
        assert is_zero((x + 1) ** 2 - x**2 - 2 * x - 1) is TriBool.PROVEN_ZERO

    def test_nonzero_constant(self):
        assert is_zero(sp.Rational(3, 7)) is TriBool.PROVEN_NONZERO

    @pytest.mark.parametrize(
        "c", [sp.pi, sp.E, sp.exp(2), sp.sqrt(2)], ids=["pi", "E", "exp2", "sqrt2"]
    )
    def test_provably_nonzero_constant_is_proven(self, c):
        # a product of nonvanishing atoms is a proof, not a numeric estimate
        assert is_zero(c) is TriBool.PROVEN_NONZERO

    def test_irrational_constant_decided_numerically(self):
        assert is_zero(sp.pi - 3) is TriBool.PROBABLY_NONZERO

    def test_exp_products_proven(self):
        assert is_zero(2 * sp.exp(x * u)) is TriBool.PROVEN_NONZERO

    def test_declared_assumption_proves(self):
        F = UnknownFunction("F", (u,), nonzero=((1,),))
        assert is_zero(F.sym((1,))) is TriBool.PROVEN_NONZERO
        assert is_zero(F.sym((2,))) is TriBool.PROBABLY_NONZERO

    def test_generic_polynomial_sampled(self):
        assert is_zero(x + 1) is TriBool.PROBABLY_NONZERO

    def test_positive_domain_blind_spot_is_reported_as_sampled(self):
        # sqrt forces positive sample points, where sqrt(x^2) - x is zero;
        # the verdict must stay honest about being sample-based
        assert is_zero(sp.sqrt(x**2) - x) is TriBool.SAMPLED_ZERO

    def test_seed_and_samples_are_accepted(self):
        assert is_zero(x + 1, Session(samples=3, seed=42)) is TriBool.PROBABLY_NONZERO


class TestPrimitiveEquation:
    def test_sign_and_content_fixed(self):
        assert primitive_equation(-2 * x + 2 * u) == x - u
        assert primitive_equation(sp.Rational(1, 3) * (x - u)) == x - u

    def test_denominator_cleared(self):
        assert primitive_equation((x - u) / (1 + u**2)) == x - u

    def test_equations_equal_up_to_multiple(self):
        a = (x - u) / 5
        b = -3 * (x - u)
        assert equations_equal(a, b)
        assert not equations_equal(x - u, x + u)

    def test_constant_equation_is_one(self):
        assert primitive_equation(5) == 1
        assert primitive_equation(-5) == 1


class TestSplitNonvanishing:
    def test_constant_numerator_is_all_multiplier(self):
        assert split_nonvanishing(normalize(-5 / (x + 1))) == (-5 / (x + 1), 1)
        assert split_nonvanishing(sp.Rational(3, 7)) == (sp.Rational(3, 7), 1)

    def test_nonreal_leading_coefficient_keeps_its_sign(self):
        # a problem file may write sqrt(-1); only a negative number is negated
        assert split_nonvanishing(normalize(-sp.I * x - 1)) == (1, -sp.I * x - 1)


# F_u is declared nonvanishing, F_uu is not
_F = UnknownFunction("F", (u,), nonzero=((1,),))
_ATOMS = [t, x, u, sp.exp(u), sp.exp(x / 2), _F.sym((1,)), _F.sym((2,))]
_NONVANISHING = [sp.exp(u), sp.exp(x / 2), _F.sym((1,))]
_u_x, _u_t = sp.symbols("u_x u_t")


def _random_normal(seed):
    """A normal random expression times a random nonvanishing monomial."""
    rng = random.Random(seed)
    monomial = sp.Rational(rng.choice([-3, -1, 1, 2]), rng.randint(1, 4))
    for atom in _NONVANISHING:
        monomial *= atom ** rng.randint(0, 2)
    return normalize(rand_expr(rng, _ATOMS, depth=3) * monomial)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10**9).map(_random_normal))
@example(-sp.sqrt(2) * _u_x * sp.exp(u / 2) - 2 * sp.exp(u))
@example(2 * u * t - u * x**2 + 4 * _u_t * t**2)
# general-route quotients whose denominators hold a nonvanishing factor
# (exp(x/2), exp(4), exp(exp(x/2))) factored out or spread over the terms
@example(_random_normal(2426))
@example(_random_normal(2720834))
@example(_random_normal(2721930))
@example(_random_normal(2724318))
@example(_random_normal(2725306))
def test_split_by_least_exponent_matches_factorization(e):
    num, den = e.as_numer_denom()
    multiplier, residual = split_nonvanishing(e)
    ref_multiplier, ref_residual = split_factors(num, _provably_nonzero)
    assert multiplier == normalize(ref_multiplier / den)
    assert normalize(residual) == normalize(ref_residual)
    # is_zero's certificate against factorization: "nonzero" is proven
    # exactly when every factor of the numerator is provably nonzero
    proven = _verdict(is_zero, e) is TriBool.PROVEN_NONZERO
    assert proven == (
        ref_residual == 1 and all(_provably_nonzero(a) for a in sp.Mul.make_args(ref_multiplier))
    )


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10**9))
# exp quotients whose first general-route pass is not yet normal:
# 78817 draws exp(2*t)/(exp(2*u - 2*x) + 1)
@example(1371)
@example(1780)
@example(78817)
def test_normalize_is_idempotent(seed):
    rng = random.Random(seed)
    e = rand_expr(rng, [t, x, u], depth=3)
    n = normalize(e)
    assert normalize(n) == n


def test_normalize_is_idempotent_on_an_exp_quotient():
    # the general route's first pass gives exp(-4)*exp(3*u)/(exp(-4)*exp(2*u) + 1),
    # its second exp(3*u)/(exp(2*u) + exp(4)), its third that again
    n = normalize(sp.exp(u) / (sp.exp(4 - 2 * u) + 1))
    assert normalize(n) == n


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10**9))
def test_partial_derivatives_commute(seed):
    rng = random.Random(seed)
    e = rand_expr(rng, [t, x, u], depth=3)
    assert normalize(diff(diff(e, x), u) - diff(diff(e, u), x)) == 0


def _old_kernel(e):
    """normalize's former kernel, sympy.cancel behind the exp merging."""
    return sp.cancel(sp.powsimp(e, combine="exp"))


def _random_quotient(atoms, seed, nested_exp):
    """A depth-3 random expression, divided by another one half of the time."""
    rng = random.Random(seed)
    e = rand_expr(rng, atoms, depth=3, allow_exp=nested_exp)
    if rng.random() < 0.5:
        d = rand_expr(rng, atoms, depth=3, allow_exp=nested_exp)
        if _old_kernel(d) != 0:
            e = e / d
    return e


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10**9).map(lambda seed: _random_quotient(_ATOMS, seed, False)))
@example(-sp.sqrt(2) * _u_x * sp.exp(u / 2) - 2 * sp.exp(u))
@example(2 * u * t - u * x**2 + 4 * _u_t * t**2)
def test_ring_cancellation_matches_the_old_kernel(e):
    # exp appears at the atoms' own arguments, merged by products and powers
    assert normalize(e) == _old_kernel(e)


def _pin(build, id, reason):
    """A pinned input of a property test: build makes it when the test runs,
    and the property's assertion fails on it through the exp-generator defect."""
    xfail = pytest.mark.xfail(strict=True, raises=AssertionError, reason=reason)
    return pytest.param(build, id=id, marks=xfail)


@pytest.mark.parametrize("build", [
    # seed 11822: a quotient on which the property test above fails at random
    _pin(lambda: _random_quotient(_ATOMS, 11822, False), "an-exp-factor-of-opposite-sign",
         "exp(x) and exp(-x) are independent ring generators, "
         "so normalize keeps 4*exp(x) over a denominator the old kernel writes "
         "with exp(-x) factors: the exp-generator defect (ROADMAP direction 2)"),
    # seed 3577: a quotient on which the property test above fails at random
    _pin(lambda: _random_quotient(_ATOMS, 3577, False), "exp-factors-of-different-rational-multiples",
         "exp(x/2) and exp(2*x) are independent ring generators, "
         "so normalize keeps -exp(5*x/2) - exp(x/2) where the old kernel writes "
         "-exp(2*x) - 1 over exp(-x/2) factors: the exp-generator defect "
         "(ROADMAP direction 2)"),
    # seed 129766: a quotient on which the property test above fails at random
    _pin(lambda: _random_quotient(_ATOMS, 129766, False), "an-exp-factor-over-a-sum",
         "exp(x) and exp(-x) are independent ring generators, "
         "so normalize keeps exp(x) in the numerator where the old kernel writes "
         "exp(2*u)*exp(-x) in each denominator term: the exp-generator defect "
         "(ROADMAP direction 2)"),
    # seed 2182076: exp(-2*u)*exp(x)/(u + exp(x/2))**2, on which the property
    # test above fails at random
    _pin(lambda: _random_quotient(_ATOMS, 2182076, False), "a-square-of-an-exp-half",
         "exp(x/2), exp(x) and exp(3*x/2) are independent ring "
         "generators, so normalize keeps exp(3*x/2) over terms in all three where "
         "the old kernel writes 1 over exp(-x) and exp(-x/2) terms: the "
         "exp-generator defect (ROADMAP direction 2)"),
    # seed 1237040: (exp(x) + 1)*exp(-2*u)*exp(x/2)/(16*F_uu*(u + exp(x/2))),
    # on which the property test above fails at random
    _pin(lambda: _random_quotient(_ATOMS, 1237040, False), "an-exp-half-over-a-sum-with-it",
         "exp(x/2), exp(x) and exp(3*x/2) are independent ring "
         "generators, so normalize keeps exp(3*x/2) + exp(x/2) over terms in "
         "exp(2*u) where the old kernel writes exp(x) + 1 over exp(-x/2) terms: "
         "the exp-generator defect (ROADMAP direction 2)"),
    # seed 20267: 3*exp(-u)*exp(x/2)/(4*(F_u + u**2 + 4)), on which the
    # property test above fails at random
    _pin(lambda: _random_quotient(_ATOMS, 20267, False), "an-exp-half-over-an-exp-of-opposite-sign",
         "exp(u) and exp(-u), exp(x/2) and exp(-x/2) are "
         "independent ring generators, so normalize keeps exp(x/2) over terms in "
         "exp(u) where the old kernel writes 3 over exp(u)*exp(-x/2) terms: the "
         "exp-generator defect (ROADMAP direction 2)"),
    # seed 437294080: exp(-u)*exp(x/2)/(4*u*(u - 1)), on which the property
    # test above fails at random
    _pin(lambda: _random_quotient(_ATOMS, 437294080, False), "an-exp-half-over-a-product-with-an-exp",
         "exp(u) and exp(-u), exp(x/2) and exp(-x/2) are "
         "independent ring generators, so normalize keeps exp(x/2) over terms in "
         "exp(u) where the old kernel writes 1 over exp(u)*exp(-x/2) terms: the "
         "exp-generator defect (ROADMAP direction 2)"),
    # seed 200237: 10*exp(-u)*exp(x/2)/(t + 3), on which the property test
    # above fails at random
    _pin(lambda: _random_quotient(_ATOMS, 200237, False), "an-exp-half-over-a-binomial",
         "exp(u) and exp(-u), exp(x/2) and exp(-x/2) are "
         "independent ring generators, so normalize keeps exp(x/2) over terms in "
         "exp(u) where the old kernel writes 10 over exp(u)*exp(-x/2) terms: the "
         "exp-generator defect (ROADMAP direction 2)"),
    # a quotient drawn by the property test above, which fails on it at
    # random, written as Hypothesis printed it
    _pin(lambda: sp.exp(-3 * u) * sp.exp(6 * x) / (8 * (_Fu + _F.sym((2,))) ** 2),
         "an-exp-over-a-square-with-an-exp",
         "exp(6*x) and exp(-6*x) are independent ring generators, "
         "so normalize keeps exp(6*x) over a denominator the old kernel writes with "
         "exp(-6*x) factors: the exp-generator defect (ROADMAP direction 2)"),
])
def test_ring_cancellation_agrees_on(build):
    test_ring_cancellation_matches_the_old_kernel.hypothesis.inner_test(build())


_Fu = _F.sym((1,))
_WIDE_ATOMS = _ATOMS + [sp.exp(-x / 2), sp.sqrt(u), sp.sqrt(2), _F(t + x), sp.log(x)]


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10**9).map(lambda seed: _random_quotient(_WIDE_ATOMS, seed, True)))
@example(sp.exp(_Fu) / (sp.exp(4 - 2 * _Fu) + 1))
@example((t * u + t + sp.exp(x / 2)) ** 2 * sp.exp(-(x**3) * (x - _Fu)))
def test_ring_cancellation_denotes_the_old_value(e):
    # under exp of a composite argument the two forms may pick the sign of
    # an exp generator differently (both examples do), so only values agree
    assert _old_kernel(normalize(e) - _old_kernel(e)) == 0


def _sring_route(e):
    """normalize's general route: exp merging, as_numer_denom, sring, cancel."""
    if e.has(sp.exp):
        e = sp.powsimp(e, combine="exp")
    ring, (P, Q) = sring(e.as_numer_denom())
    if not ring.ngens:
        return e.expand()
    P, Q = P.cancel(Q)
    return P.as_expr() / Q.as_expr()


def _repeated_sring_route(e):
    """The general route applied again to its own value until that value
    comes back unchanged, as normalize does."""
    for _ in range(core._GENERAL_PASSES):
        n = _sring_route(e)
        if n == e:
            break
        e = n
    return e


def _walked(e):
    """The cancelled quotient of the one-walk ring, or None where it declines."""
    walked = _ring_fraction(e)
    if walked is None:
        return None
    _ring, P, Q = walked
    P, Q = P.cancel(Q)
    return P.as_expr() / Q.as_expr()


# one input of each class the walk declines: exp powers that sympy merges
# into another generator, a radical squared, a product of two exp factors
# after the division, exp of a sum, a kernel that expand rewrites, and
# products of a radical with its base, of two integer radicals, of an
# integer radical's cube (2*sqrt(2)) and of E with exp
_DECLINED = [
    (sp.exp(x / 2) + 1) * (sp.exp(x / 2) - 1) / (sp.exp(x) - 1),
    (sp.sqrt(u) + 1) * (sp.sqrt(u) - 1) / (u - 1),
    sp.exp(u) / (sp.exp(4 - 2 * u) + 1),
    t * sp.exp(u - x),
    x * _F(t * (x + 1)),
    (u + 1) * (sp.sqrt(u) + 1),
    (sp.sqrt(2) + 1) * (sp.sqrt(3) + 1),
    ((sp.sqrt(2) * t + sp.sqrt(2)) ** 3 + sp.sqrt(2) * x * (t + 1) ** 3) / ((x + 2) * (t + 1) ** 3),
    sp.E * sp.exp(x) + 1,
]


@settings(max_examples=60, deadline=None)
@given(st.one_of(
    st.integers(0, 10**9).map(lambda seed: _random_quotient(_ATOMS, seed, False)),
    st.integers(0, 10**9).map(lambda seed: _random_quotient(_ATOMS, seed, True)),
    st.integers(0, 10**9).map(lambda seed: _random_quotient(_WIDE_ATOMS, seed, True)),
))
@example(_DECLINED[0])
@example(_DECLINED[1])
@example(_DECLINED[2])
@example(_DECLINED[3])
@example(_DECLINED[4])
@example(_DECLINED[7])
@example((sp.exp(x / 2) + 1) ** 2 / (sp.exp(x) * u + sp.exp(-x / 2)))
@example((t * _Fu + sp.sqrt(u)) ** 3 / (_F(t + x) * sp.log(x) - sp.sqrt(2) * u))
def test_walk_and_sring_route_agree(e):
    walked = _walked(e)
    assert walked is None or walked == _sring_route(e)
    assert normalize(e) == _repeated_sring_route(e)


def test_the_walk_puts_a_sum_over_the_least_common_denominator():
    # the terms of a derivative of P/Q lie over Q and Q**2; a product of
    # the terms' denominators would be Q**18 here
    Q = x**2 + u + 1
    e = sum(t**i / Q + x**i / Q**2 for i in range(1, 7)) + u / (x**2 + 1)
    ring, _N, D = _ring_fraction(e)
    assert D == ring(Q) ** 2 * ring(x**2 + 1)
    assert normalize(e) == _sring_route(e)


def test_the_walk_takes_polynomial_bodies_and_declines_rewritten_inputs():
    ctx = JetContext("t", "x", "u")
    v, v_t, v_x, v_xx = ctx.u, ctx.jet(1, 0), ctx.jet(0, 1), ctx.jet(0, 2)
    body = v_t - v_xx * sp.exp(v) - _Fu * v_x**2 / (v + 1) + sp.sqrt(t) * _F(t + x) / 3
    walked = _ring_fraction(body)
    assert walked is not None
    ring, _N, D = walked
    assert set(ring.symbols) == {v_t, v_x, v_xx, v, sp.exp(v), _Fu, sp.sqrt(t), _F(t + x)}
    assert D == 3 * ring(v + 1)
    for e in _DECLINED:
        assert _ring_fraction(e) is None, e


# normalize keeps an input that is already normal, and _sort_ring_gens
# ranks generators by their printed names; the oracles are _rebuilt, the
# code the first replaced, and _printed_order, which calls _sort_gens

_CORPUS = []


def _corpus_value(i):
    if not _CORPUS:
        _CORPUS.extend(corpus_values())
    return _CORPUS[i % len(_CORPUS)]


def _rebuilt(e):
    """normalize as it was: a walked value is always rebuilt from the
    cancelled ring pair."""
    walked = _ring_fraction(e)
    if walked is None:
        return normalize(e)
    ring, P, Q = walked
    P, Q = P.cancel(Q)
    return P.as_expr() if Q == ring.one else P.as_expr() / Q.as_expr()


def _printed_order(gens):
    """_sort_ring_gens's order from _sort_gens itself: it ranks every
    printed name."""
    name = {
        g: g.name if g.is_Symbol and not isinstance(g, (sp.Dummy, sp.Wild)) else str(g)
        for g in gens
    }
    rank = {s: i for i, s in enumerate(_sort_gens(sorted(set(name.values()))))}
    return sorted(gens, key=lambda g: rank[name[g]])


def _corpus_combination(i, j, op):
    a, b = _corpus_value(i), _corpus_value(j)
    return [a, a + b, a * b, a - b * t, a / b][op]


_NORMAL_INPUTS = st.one_of(
    st.integers(0, 10**9).map(lambda seed: _random_quotient(_ATOMS, seed, False)),
    st.integers(0, 10**9).map(lambda seed: _random_quotient(_WIDE_ATOMS, seed, True)),
    st.builds(_corpus_combination, st.integers(0, 10**6), st.integers(0, 10**6), st.integers(0, 4)),
)


@settings(max_examples=60, deadline=None)
@given(_NORMAL_INPUTS)
@example((t * u + sp.exp(x / 2)) ** 2)
@example(sp.sqrt(2) * x + 3 * _Fu**2 * sp.pi - sp.log(x))
@example(u / 2 - sp.Rational(3, 4) * t * sp.exp(u) + sp.Rational(1, 6))
@example(-3 * u * sp.sqrt(x) * sp.exp(-u) / (2 * t**2 * _Fu))
@example(sp.sqrt(2) / (sp.sqrt(3) * x))
def test_a_kept_input_equals_its_rebuild(e):
    # the raw input, its normal form (kept when polynomial), and a sum
    n = normalize(e)
    for v in (e, n, n + t * u):
        got, want = normalize(v), _rebuilt(v)
        assert got == want and sp.srepr(got) == sp.srepr(want), v
        leaves = {}
        if _collect_leaves(v, leaves):
            gens = list({g for g, _k in leaves.values()})
            assert _sort_ring_gens(gens) == _printed_order(gens)


def test_a_normal_value_is_returned_as_it_is():
    for e in (
        (t * u + sp.exp(x / 2)) ** 2 - _Fu * sp.sqrt(u) + 3,
        (u - t) ** 2 / 6,
        -2 * u * _Fu / (3 * x**2 * sp.exp(u)),
    ):
        n = normalize(e)
        assert normalize(n) is n
    # two terms on one monomial, a negative exponent in a sum, a sum over
    # a polynomial, and a monomial that sympy merges (sqrt(2)*sqrt(3) is
    # sqrt(6)) are rebuilt
    for e in (
        sp.Add(u, u, evaluate=False),
        u + 1 / x,
        u / (x + 1),
        sp.Mul(sp.sqrt(2), sp.sqrt(3), x, evaluate=False),
    ):
        leaves = {}
        assert _collect_leaves(e, leaves) and not core._kept(e, leaves)


# normalize's table of normal forms, one per process (core._normal_value);
# the uncached function is the oracle

_table = core._normal_value


def _uncached(e):
    n = _table.__wrapped__(e)
    return e if n is None else n


def _fresh_copy(e):
    """An equal copy of e built anew, once sympy's own cache is cleared."""
    return e if e.is_Atom else e.func(*map(_fresh_copy, e.args))


def _is_kept(e):
    leaves = {}
    return _collect_leaves(e, leaves) and core._kept(e, leaves)


def test_the_normal_table_gives_the_uncached_value():
    quotients = [_random_quotient(_ATOMS, seed, False) for seed in range(60)]
    quotients += [_random_quotient(_WIDE_ATOMS, seed, True) for seed in range(60)]
    inputs = [e for e in corpus_values() + quotients if not e.is_Atom]
    wants = [_uncached(e) for e in inputs]
    kept = [_is_kept(e) for e in inputs]
    assert any(kept) and not all(kept)
    assert all(want is e for e, want, is_kept in zip(inputs, wants, kept) if is_kept)
    # cold
    for e, want in zip(inputs, wants):
        _table.cache_clear()
        _same(normalize(e), want)
    # warm: every input is read from the table, and a kept one is itself
    _table.cache_clear()
    for e in inputs:
        normalize(e)
    misses = _table.cache_info().misses
    for e, want, is_kept in zip(inputs, wants, kept):
        got = normalize(e)
        _same(got, want)
        assert got is e or not is_kept
    # an equal but distinct input reads the entry its original stored, and
    # a kept one still comes back as itself
    clear_cache()
    copies = [_fresh_copy(e) for e in inputs]
    assert all(c == e and c is not e for e, c in zip(inputs, copies))
    for c, want, is_kept in zip(copies, wants, kept):
        got = normalize(c)
        _same(got, want)
        assert got is c or not is_kept
    assert _table.cache_info().misses == misses


def test_atoms_skip_the_normal_table():
    size = _table.cache_info().currsize
    for a in (x, sp.Integer(3), sp.Rational(1, 2), sp.pi, _Fu):
        assert normalize(a) is a
    assert _table.cache_info().currsize == size


@pytest.mark.parametrize("e", [
    u / (sp.exp(u + x) - sp.exp(u) * sp.exp(x)),
    sp.Mul(u, sp.zoo, evaluate=False),
])
def test_an_input_that_raises_is_not_stored(e):
    before = _table.cache_info()
    for _ in range(3):
        with pytest.raises(DivisionByZeroDetected):
            normalize(e)
    after = _table.cache_info()
    assert after.currsize == before.currsize
    assert (after.hits, after.misses) == (before.hits, before.misses + 3)


def test_the_normal_table_holds_at_most_its_bound():
    bound = _table.cache_info().maxsize
    assert bound == core._NORMAL_TABLE_SIZE
    _table.cache_clear()
    values = [x + k for k in range(1, bound + 4)]
    for v in values:
        normalize(v)
        assert _table.cache_info().currsize <= bound
    assert _table.cache_info().currsize == bound
    # the oldest input was dropped, so it is normalized anew
    misses = _table.cache_info().misses
    assert normalize(values[0]) is values[0]
    assert _table.cache_info().misses == misses + 1
    _table.cache_clear()


_G = UnknownFunction("exp", (u,))
_GEN_POOL = [
    t, x, u, y, _Fu, _F.sym((2,)), sp.Symbol("x1"), sp.Symbol("x10"), sp.Symbol("x01"),
    sp.Symbol("kappa"), sp.Symbol("exp"), sp.Symbol("expo"), sp.Symbol("sqrt"),
    sp.Symbol("F"), sp.Symbol("pi"), sp.Symbol("E"), sp.Symbol("u**"), sp.Symbol("f(x)"),
    sp.Symbol("_d"), sp.Dummy("d"),
    sp.exp(u), sp.exp(x / 2), sp.exp(t * u), sp.sqrt(u), sp.sqrt(2), sp.sqrt(sp.pi),
    sp.Integer(2) ** sp.Rational(1, 3), u ** sp.Rational(1, 3), u ** sp.Rational(2, 3),
    sp.Symbol("_d") ** sp.Rational(1, 3), sp.Dummy("d") ** sp.Rational(1, 3),
    _F(t + x), _F(t), _G(t), sp.log(x), sp.log(2 * x), sp.pi, sp.E,
]


@settings(max_examples=200, deadline=None)
@given(st.lists(st.sampled_from(_GEN_POOL), unique=True, max_size=10))
def test_heads_order_generators_as_their_printed_names(gens):
    assert _sort_ring_gens(gens) == _printed_order(gens)


def test_the_generator_order_does_not_depend_on_the_input_order():
    # x1 and x01 tie on _sort_gens's key; the full printed name breaks the tie
    gens = [sp.Symbol("x1"), sp.Symbol("x01"), u, sp.exp(u), _F(t + x), sp.sqrt(2)]
    orders = {tuple(_sort_ring_gens(p)) for p in itertools.permutations(gens)}
    assert len(orders) == 1
    (order,) = orders
    assert order.index(sp.Symbol("x01")) + 1 == order.index(sp.Symbol("x1"))


def test_is_zero_stops_at_the_first_nonzero_value(monkeypatch):
    draws = []

    class Counting(random.Random):
        def randint(self, a, b):
            draws.append((a, b))
            return super().randint(a, b)

    monkeypatch.setattr(core, "random", SimpleNamespace(Random=Counting))
    # one point of (t, u, x) draws a numerator and a denominator per atom
    assert is_zero(t**2 * u - x, Session(samples=5)) is TriBool.PROBABLY_NONZERO
    assert len(draws) == 6
    draws.clear()
    assert is_zero(t * (1 - x) + t * x - t, Session(samples=5)) is TriBool.PROVEN_ZERO
    assert draws == []


def test_a_value_with_no_valid_sample_point_is_undecided():
    assert is_zero(sp.sqrt(-(u**2) - 1) + u) is None


@pytest.mark.parametrize("samples", [5, 50])
@pytest.mark.parametrize(
    "c, verdict",
    [
        (sp.pi - 3, TriBool.PROBABLY_NONZERO),
        (1 + sp.sqrt(2), TriBool.PROBABLY_NONZERO),
        (sp.log(2) + sp.log(3) - sp.log(6), TriBool.SAMPLED_ZERO),
    ],
    ids=["pi-3", "1+sqrt2", "log-sum"],
)
def test_a_constant_is_evaluated_once(monkeypatch, c, verdict, samples):
    # a constant takes one point, evaluated once, whatever the session's count
    evaluations = []
    N = sp.N

    def counting(*args, **kwargs):
        evaluations.append(args[0])
        return N(*args, **kwargs)

    monkeypatch.setattr(sp, "N", counting)
    assert is_zero(c, Session(samples=samples, seed=3)) is verdict
    assert len(evaluations) == 1


# split_nonvanishing, primitive_equation and is_zero's proof of "nonzero"
# read the numerator from the ring form; the as_numer_denom and sp.Poly
# code they replaced is kept here as the oracle


def _old_provably_nonzero(f):
    """The former rule, which also took products of nonvanishing factors."""
    if isinstance(f, sp.Mul):
        return all(_old_provably_nonzero(a) for a in f.args)
    return _provably_nonzero(f)


def _old_signed_primitive(p):
    if p.is_Number:
        return p, None
    c, f = sp.Poly(p).primitive()
    if f.LC().is_negative:
        return -c, -f
    return c, f


def _old_split_nonvanishing(e):
    num, den = e.as_numer_denom()
    multiplier, f = _old_signed_primitive(num)
    if f is None:
        return normalize(multiplier / den), sp.S.One
    exponents, f = f.terms_gcd()
    residual = f.as_expr()
    for g, k in zip(f.gens, exponents):
        if _provably_nonzero(g):
            multiplier = multiplier * g**k
        else:
            residual = residual * g**k
    return normalize(multiplier / den), residual


def _old_primitive_equation(e):
    p, _ = normalize(e).as_numer_denom()
    if p == 0:
        return p
    _content, f = _old_signed_primitive(p)
    return sp.S.One if f is None else f.as_expr()


def _old_is_zero(e, session):
    """is_zero with the former proof of "nonzero" on the numerator's tree."""
    n = normalize(e)
    if n == 0:
        return TriBool.PROVEN_ZERO
    if n.is_Number:
        z = n.is_zero
        if z is True:
            return TriBool.PROVEN_ZERO
        if z is False:
            return TriBool.PROVEN_NONZERO
    if _old_provably_nonzero(n.as_numer_denom()[0]):
        return TriBool.PROVEN_NONZERO
    if not n.free_symbols and not n.atoms(AppliedMapBase):
        approx = sp.N(n, 40)
        if approx.is_number and abs(approx) > sp.Float(10) ** -30:
            return TriBool.PROBABLY_NONZERO
        return TriBool.SAMPLED_ZERO
    verdict = None
    for v in core._sample_points(n, session.samples, session.seed):
        if v.is_Rational:
            if v != 0:
                return TriBool.PROBABLY_NONZERO
        elif abs(v) > sp.Float(10) ** -30:
            return TriBool.PROBABLY_NONZERO
        verdict = TriBool.SAMPLED_ZERO
    # where no valid point was drawn the former _sample_points raised; that
    # outcome is None now
    return verdict


def _verdict(is_zero_fn, e):
    return is_zero_fn(e, Session(samples=5, seed=0))


def _same(got, want):
    assert got == want
    assert sp.srepr(got) == sp.srepr(want)


_NUMERATOR_INPUTS = st.one_of(
    st.integers(0, 10**9).map(_random_normal),
    st.integers(0, 10**9).map(lambda seed: normalize(_random_quotient(_ATOMS, seed, False))),
    st.integers(0, 10**9).map(lambda seed: normalize(_random_quotient(_WIDE_ATOMS, seed, True))),
    st.integers(0, 10**6).map(_corpus_value),
)
_SCALES = st.sampled_from([1, -1, sp.Rational(-3, 2), 6, _Fu, -2 * sp.exp(u) / 5, sp.sqrt(2), sp.pi * _Fu**2 / u])


@settings(max_examples=80, deadline=None)
@given(_NUMERATOR_INPUTS, _SCALES)
@example(_random_normal(8376967), 1)
@example(normalize(-sp.sqrt(2) * _u_x * sp.exp(u / 2) - 2 * sp.exp(u)), 1)
@example(normalize(2 * u * t - u * x**2 + 4 * _u_t * t**2), -1)
@example(normalize(-sp.I * x - 1), 1)
@example(sp.exp(u) * sp.exp(x / 2) / (t + 1), 3)
@example(sp.sqrt(2) * sp.exp(x / 2) * sp.pi, -1)
@example(sp.Rational(3, 7) / (t * u), _Fu)
@example(normalize(_random_quotient(_WIDE_ATOMS, 34753, True)), 1)
def test_numerator_reads_from_the_ring_equal_the_tree_reads(e, scale):
    e = normalize(e * scale)
    _same(primitive_equation(e), _old_primitive_equation(e))
    assert _verdict(is_zero, e) is _verdict(_old_is_zero, e)
    if e == 0:
        return
    multiplier, residual = split_nonvanishing(e)
    want_multiplier, want_residual = _old_split_nonvanishing(e)
    _same(residual, want_residual)
    if _collect_leaves(e, {}):
        _same(multiplier, want_multiplier)
    else:
        # two exp factors in one product (seed 34753 of the wide quotients):
        # the old multiplier was normalized over as_numer_denom's factored
        # denominator, the new one over the ring's expanded one, and the
        # form normalize gives such a quotient depends on its input's form,
        # since exp(a) and exp(-a) are independent generators
        assert _old_kernel(multiplier - want_multiplier) == 0


@pytest.mark.parametrize("build", [
    # the quotient on which the property test above fails about once in 15 unseeded runs
    _pin(lambda: normalize(_random_quotient(_WIDE_ATOMS, 352637431, True)),
         "exp-factors-of-opposite-sign",
         "exp(4) and exp(-4) are independent ring generators, "
         "so the tree read of the primitive equation keeps a factor exp(4) that the "
         "ring read divides out: the exp-generator defect (ROADMAP direction 2)"),
    # _random_normal(4857), (-64*F_u**5*exp(t)*exp(-u)*exp(x/2) - F_u**2*exp(x/2))
    # *exp(-t)*exp(u), on which the property test above fails at random
    _pin(lambda: _random_normal(4857), "an-exp-factor-and-its-reciprocal",
         "exp(u) and exp(-u) are independent ring generators, "
         "so the tree read of the primitive equation keeps a factor exp(u) that the "
         "ring read divides out: the exp-generator defect (ROADMAP direction 2)"),
    # _random_normal(836938971), (-x*exp(F_uu)*exp(x)*exp(-exp(x/2)) - ...
    # - exp(x/2))*exp(-F_uu)*exp(exp(x/2))/3, on which the property test
    # above fails at random
    _pin(lambda: _random_normal(836938971), "an-exp-of-an-exp-and-its-reciprocal",
         "exp(exp(x/2)) and exp(-exp(x/2)) are independent ring "
         "generators, so the tree read of the primitive equation keeps a factor "
         "exp(exp(x/2)) that the ring read divides out: the exp-generator defect "
         "(ROADMAP direction 2)"),
    # _random_normal(179887), (-3*F_u**2*u**3*exp(-4)*exp(F_uu)*exp(2*u) - ...
    # - 3*F_u**2*exp(2*u))*exp(4)*exp(-F_uu), on which the property test
    # above fails at random
    _pin(lambda: _random_normal(179887), "an-exp-constant-and-its-reciprocal",
         "exp(4) and exp(-4), exp(F_uu) and exp(-F_uu) are "
         "independent ring generators, so the tree read of the primitive equation "
         "keeps a factor exp(4) that the ring read divides out: the exp-generator "
         "defect (ROADMAP direction 2)"),
    # an input drawn by the property test above, which fails on it at
    # random, written as Hypothesis printed it
    _pin(lambda: (_Fu * sp.exp(2) * sp.exp(-sp.exp(-x / 2)) + 1) * sp.exp(-2) * sp.exp(sp.exp(-x / 2)),
         "an-exp-of-a-negative-exp-and-its-reciprocal",
         "exp(exp(-x/2)) and exp(-exp(-x/2)), exp(2) and exp(-2) "
         "are independent ring generators, so the tree read of the primitive equation "
         "keeps a factor exp(exp(-x/2)) that the ring read divides out: the "
         "exp-generator defect (ROADMAP direction 2)"),
    # normalize(_random_quotient(_WIDE_ATOMS, 978595, True)), on which the
    # property test above fails at random
    _pin(lambda: normalize(_random_quotient(_WIDE_ATOMS, 978595, True)),
         "an-exp-factor-and-its-reciprocal-over-an-exp-of-an-exp",
         "exp(x) and exp(-x) are independent ring generators, "
         "so the tree read of the primitive equation keeps a factor exp(x) that the "
         "ring read divides out: the exp-generator defect (ROADMAP direction 2)"),
    # normalize(_random_quotient(_WIDE_ATOMS, 64598, True)) at the scale
    # -2*exp(u)/5, an input drawn by the property test above, which fails on
    # it at random
    _pin(lambda: normalize(normalize(_random_quotient(_WIDE_ATOMS, 64598, True)) * -2 * sp.exp(u) / 5),
         "an-exp-constant-and-its-reciprocal-at-an-exp-scale",
         "exp(-1) and exp(-3), exp(2) and exp(3) are independent ring generators, "
         "so the tree read of the primitive equation keeps a factor E that the "
         "ring read divides out: the exp-generator defect (ROADMAP direction 2)"),
])
def test_numerator_reads_agree_on(build):
    test_numerator_reads_from_the_ring_equal_the_tree_reads.hypothesis.inner_test(build(), 1)
