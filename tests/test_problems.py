"""Problem-file grammar: tokenizing, parsing, rendering, round trips."""

import string
from dataclasses import FrozenInstanceError

import pytest
import sympy as sp
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from redop import TriBool, UnknownFunction, is_zero, parse_problem, problems, render_problem, normalize, ord
from redop.errors import ParseError, UndeclaredIdentifier

from helpers import INVERSE_THROUGH_A_FUNCTION, corpus_stems, corpus_text, reference_tokenize

HEAT = "vars t x;\ndep u;\neq: u_t = u_xx;\n"


class TestTokenizer:
    def test_unexpected_character_carries_position(self):
        with pytest.raises(ParseError) as ei:
            parse_problem("vars t x;\ndep u;\neq: u_t = u @ 2;\n")
        assert "unexpected character" in str(ei.value)
        assert ei.value.line == 3
        assert ei.value.col == 13

    def test_decimal_literals_rejected(self):
        with pytest.raises(ParseError) as ei:
            parse_problem("vars t x;\ndep u;\neq: u_t = 1.5*u_xx;\n")
        assert "decimal literals" in str(ei.value)
        assert ei.value.line == 3

    def test_unterminated_brace_in_derivative(self):
        with pytest.raises(ParseError) as ei:
            parse_problem("vars t x;\ndep u;\nfn H(u_xx);\neq: u_t = H_{u_xx;\n")
        assert "unterminated" in str(ei.value)

    def test_bare_underscore_needs_a_suffix(self):
        with pytest.raises(ParseError) as ei:
            parse_problem("vars t x;\ndep u;\neq: u_ = 0;\n")
        assert "suffix" in str(ei.value)

    def test_comments_run_to_end_of_line(self):
        p = parse_problem("# heading\nvars t x; # trailing\ndep u;\neq: u_t = u_xx;\n")
        assert p.ctx.x1.name == "t"

    def test_comma_between_vars_rejected(self):
        with pytest.raises(ParseError) as ei:
            parse_problem("vars t, x;\ndep u;\neq: u_t = u_xx;\n")
        assert ei.value.line == 1

    @pytest.mark.parametrize("text, line, col, message", [
        ("vars t x;\ndep u;\neq: u_t = u @ 2;\n", 3, 13, "unexpected character '@'"),
        ("vars t x;\ndep u;\neq: u_t = 1.5*u_xx;\n", 3, 11,
         "decimal literals are not supported, use fractions"),
        ("vars t x;\ndep u;\nfn H(u_xx);\neq: u_t = H_{u_xx;\n", 4, 13,
         "unterminated '{' in derivative token"),
        ("vars t x;\ndep u;\neq: u_ = 0;\n", 3, 7, "derivative token needs a suffix after '_'"),
        ("vars t x;\ndep u;\neq: u_t = u_xx + \u00b2*u;\n", 3, 18, "unexpected character '\u00b2'"),
        ("vars t x;\ndep u;\neq: u_t = u_xx + \uff13*u;\n", 3, 18, "unexpected character '\uff13'"),
        ("vars t x;\ndep u;\neq: u_t = u_xx # no semicolon", 3, 16, "expected ';'"),
    ], ids=["character", "decimal", "brace", "underscore", "superscript", "fullwidth", "comment-end"])
    def test_each_lexical_error_names_its_position(self, text, line, col, message):
        with pytest.raises(ParseError) as ei:
            parse_problem(text)
        assert str(ei.value) == "line %d, col %d: %s" % (line, col, message)
        assert (ei.value.line, ei.value.col) == (line, col)

    def test_a_braced_suffix_ends_on_its_line(self):
        # the '}' on the next line once closed the part, which then held the
        # newline, and every later position was one line short
        with pytest.raises(ParseError) as ei:
            parse_problem("vars t x;\ndep u;\nfn H(u_xx);\neq: u_t = H_{u_x\nx};\n")
        assert str(ei.value) == "line 4, col 13: unterminated '{' in derivative token"


_LEXER_ALPHABET = (
    string.ascii_letters + string.digits + "_{}[]();:,+-*/^=.#" + " \t\r\n"
    + "\u00e9\u00df\u00b2\uff13\u0663\u216b\u0301"  # é ß ² ３ ٣ Ⅻ and a combining acute
)


def _lexed(tokenize, text):
    """The tokens of text as (kind, value, line, col), or its ParseError's
    message, line and column."""
    try:
        return [(t.kind, t.value, t.line, t.col) for t in tokenize(text)]
    except ParseError as e:
        return str(e), e.line, e.col


def _braced_part_spans_a_line(text, lexed):
    """Whether lexed is an unterminated '{' whose first '}' is on a later line,
    which the reference lexer read as a part holding the newline."""
    if not isinstance(lexed, tuple) or not lexed[0].endswith("unterminated '{' in derivative token"):
        return False
    _, line, col = lexed
    rest = text[sum(len(row) + 1 for row in text.split("\n")[: line - 1]) + col - 1 :]
    return "}" in rest and "\n" in rest[: rest.index("}")]


@settings(max_examples=1000, deadline=None)
@given(st.text(alphabet=_LEXER_ALPHABET, max_size=20))
@example("u_{a}#c")
@example("a_x{b}\n#")
@example("\u00b2x \u216b u\u0663_\u00b2")
@example("e\u0301_{}_")
@example("H_{a{b} 12.")
@example("u_x_y")
def test_the_lexer_matches_the_reference_lexer(text):
    lexed = _lexed(problems._tokenize, text)
    assume(not _braced_part_spans_a_line(text, lexed))
    assert lexed == _lexed(reference_tokenize, text)


class TestUndeclaredNames:
    def test_derivative_of_unknown_base(self):
        with pytest.raises(UndeclaredIdentifier) as ei:
            parse_problem("vars t x;\ndep u;\neq: u_t = v_xx;\n")
        assert ei.value.name == "v"
        assert "undeclared identifier 'v'" in str(ei.value)

    def test_plain_unknown_name(self):
        with pytest.raises(UndeclaredIdentifier) as ei:
            parse_problem("vars t x;\ndep u;\neq: u_t = w;\n")
        assert ei.value.name == "w"

    @pytest.mark.parametrize("rhs, name", [
        ("zeta_x", "zeta"), ("phi", "phi"), ("phi_w", "phi"),
    ])
    def test_reserved_functions_are_undeclared_before_an_ansatz(self, rhs, name):
        # every context holds zeta and phi, but the text may not name them here
        with pytest.raises(UndeclaredIdentifier) as ei:
            parse_problem("vars t x;\ndep u;\neq: u_t = %s;\nansatz sep: phi omega t;\n" % rhs)
        assert ei.value.name == name

    @pytest.mark.parametrize("rhs", ["zeta(t, x, u)", "phi(x)"])
    def test_reserved_functions_cannot_be_called_before_an_ansatz(self, rhs):
        with pytest.raises(ParseError) as ei:
            parse_problem("vars t x;\ndep u;\neq: u_t = %s;\n" % rhs)
        assert "%r is not a function" % rhs.split("(")[0] in str(ei.value)
        assert not isinstance(ei.value, UndeclaredIdentifier)

    def test_family_parameter_scope_ends_with_the_statement(self):
        text = (
            "vars t x;\ndep u;\n"
            "family grow: kap*exp(t+x) param kap inverse u*exp(-t-x);\n"
            "eq: u_t = kap;\n"
        )
        with pytest.raises(UndeclaredIdentifier) as ei:
            parse_problem(text)
        assert ei.value.name == "kap"


class TestParsing:
    def test_heat_equation(self):
        p = parse_problem(HEAT)
        ctx = p.ctx
        assert (ctx.x1.name, ctx.x2.name, ctx.dep) == ("t", "x", "u")
        assert normalize(p.equation.body - (ctx.jet(1, 0) - ctx.jet(0, 2))) == 0
        assert ord(p.equation) == 2

    def test_function_with_assumption(self):
        p = parse_problem(
            "vars t x;\ndep u;\nfn F(u) assume nonzero F_u;\neq: u_tx = F(u);\n"
        )
        F = p.ctx.functions["F"]
        assert (1,) in F.nonzero
        assert ord(p.equation) == 2
        want = p.ctx.jet(1, 1) - F(p.ctx.u)
        assert normalize(p.equation.body - want) == 0

    def test_declared_inverse(self):
        p = parse_problem(
            "vars t x;\ndep u;\nfn F(u) assume nonzero F_u inverse G;\n"
            "eq: u_tx = F(u);\n"
        )
        F = p.ctx.functions["F"]
        assert F.inverse is not None and F.inverse.name == "G"
        assert F.inverse.inverse is F

    def test_an_inverse_may_pass_through_a_declared_function(self):
        # u = Ftil(x + kappa) turns F(u) - x into F(Ftil(x + kappa)) - x = kappa
        p = parse_problem(INVERSE_THROUGH_A_FUNCTION)
        g = p.families["g"]
        F = p.ctx.functions["F"]
        assert g.f == F.inverse(p.ctx.x2 + g.kappa)
        assert g.Phi == normalize(F(p.ctx.u) - p.ctx.x2)

    def test_numeric_multi_index(self):
        p = parse_problem("vars t x;\ndep u;\neq: u_t = u[1,2];\n")
        assert normalize(p.equation.body - (p.ctx.jet(1, 0) - p.ctx.jet(1, 2))) == 0

    def test_jet_token_spells_the_multi_index(self):
        p = parse_problem("vars t x;\ndep u;\neq: u_txx = u;\n")
        assert normalize(p.equation.body - (p.ctx.jet(1, 2) - p.ctx.u)) == 0

    def test_power_is_right_associative(self):
        p = parse_problem("vars t x;\ndep u;\neq: u_t = u^2^3;\n")
        assert normalize(p.equation.body - (p.ctx.jet(1, 0) - p.ctx.u**8)) == 0

    def test_field_statement(self):
        p = parse_problem(HEAT + "field expo: 0, 1, u;\n")
        Q = p.fields["expo"]
        assert (Q.xi1, Q.xi2, Q.eta) == (0, 1, p.ctx.u)

    def test_field_with_jet_coefficient_rejected(self):
        with pytest.raises(ParseError):
            parse_problem(HEAT + "field bad: u_x, 1, 0;\n")

    def test_ansatz_statement(self):
        p = parse_problem(HEAT + "ansatz sep: phi*exp(x) omega t;\n")
        a = p.ansatzes["sep"]
        phi = p.ctx.functions["phi"]
        assert normalize(a.f - phi.base * sp.exp(p.ctx.x2)) == 0
        assert a.omega == p.ctx.x1

    @pytest.mark.parametrize("use, message", [
        pytest.param("phi", "undeclared identifier 'phi'", id="phi"),
        pytest.param("phi_w", "undeclared identifier 'phi'", id="phi_w"),
        pytest.param("phi(u)", "'phi' is not a function", id="phi-call"),
    ])
    @pytest.mark.parametrize("stmt", [
        pytest.param("field f: 0, 1, %s;", id="field"),
        pytest.param("family k: kappa*%s param kappa inverse u;", id="family"),
        pytest.param("eq: u_t = u_xx + %s;", id="eq"),
    ])
    def test_phi_is_a_name_of_ansatz_bodies_alone(self, stmt, use, message):
        # the canonical text puts every ansatz last, so a use of phi after an
        # ansatz would not parse back
        text = "vars t x;\ndep u;\nansatz sep: phi*exp(x) omega t;\n" + stmt % use + "\n"
        if not stmt.startswith("eq"):
            text += "eq: u_t = u_xx;\n"
        with pytest.raises(ParseError) as ei:
            parse_problem(text)
        assert str(ei.value).startswith("line 4, col ")
        assert str(ei.value).endswith(message)

    def test_phi_is_reserved(self):
        with pytest.raises(ParseError):
            parse_problem("vars t x;\ndep phi;\neq: phi_t = 0;\n")
        with pytest.raises(ParseError):
            parse_problem(HEAT + "fn phi(u);\n")

    def test_zeta_is_reserved(self):
        # analyze, detsys and bijection name their operator coefficient zeta
        with pytest.raises(ParseError) as ei:
            parse_problem(HEAT + "fn zeta(t, x, u);\n")
        assert "'zeta' is a reserved word" in str(ei.value)
        with pytest.raises(ParseError):
            parse_problem("vars t x;\ndep zeta;\neq: zeta_t = 0;\n")

    def test_equation_must_have_a_derivative(self):
        with pytest.raises(ParseError) as ei:
            parse_problem("vars t x;\ndep u;\neq: u = 0;\n")
        assert "must involve derivatives" in str(ei.value)

    def test_missing_statements_reported(self):
        with pytest.raises(ParseError):
            parse_problem("vars t x;\ndep u;\n")
        with pytest.raises(ParseError):
            parse_problem("dep u;\neq: u_t = 0;\n")


class TestOneNamespace:
    """Axes, u, functions, inverses and a family's parameter share one namespace,
    and a declaration its constructor refuses is a ParseError at its statement."""

    @pytest.mark.parametrize("fn, message", [
        ("fn F(u, u);", "formal arguments must be distinct"),
        ("fn F(u, t) inverse G;", "only single-argument functions may declare an inverse"),
    ])
    def test_a_refused_function_is_a_parse_error_at_its_statement(self, fn, message):
        with pytest.raises(ParseError) as ei:
            parse_problem("vars t x;\ndep u;\n%s\neq: u_t = u_xx;\n" % fn)
        assert message in str(ei.value)
        assert (ei.value.line, ei.value.col) == (3, 1)

    def test_an_inverse_may_not_take_its_function_name(self):
        with pytest.raises(ParseError) as ei:
            parse_problem("vars t x;\ndep u;\nfn F(u) inverse F;\neq: u_t = F(u);\n")
        assert "'F' is already declared" in str(ei.value)
        assert (ei.value.line, ei.value.col) == (3, 17)

    @pytest.mark.parametrize("param", ["F", "G", "t", "u"])
    def test_a_family_parameter_may_not_shadow_a_declared_name(self, param):
        text = (
            "vars t x;\ndep u;\nfn F(u) inverse G;\n"
            "family g: %s*exp(t) param %s inverse u;\neq: u_t = u_xx;\n" % (param, param)
        )
        with pytest.raises(ParseError) as ei:
            parse_problem(text)
        assert "parameter shadows a declared variable or function" in str(ei.value)
        assert (ei.value.line, ei.value.col) == (4, 26)  # the name after 'param'


class TestRefusedStatements:
    """A field coefficient, a family's f and Phi and an ansatz hold no jet of
    positive order, not even through a declared function, and a division by
    zero is a ParseError at its statement."""

    @pytest.mark.parametrize("stmt, message", [
        pytest.param(
            "fn H(t, x, u, u_x) assume nonzero H;\nfield z: 0, 1, H(t, x, u, u_x);",
            "coefficient H contains the jet variable u_x",
            id="field-through-H",
        ),
        pytest.param(
            "family k: kappa + u_x param kappa inverse u - u_x;",
            "family u_x + kappa contains the jet variable u_x",
            id="family-f",
        ),
        pytest.param(
            "family k: kappa + t param kappa inverse u - t + u_xx;",
            "inverse u + u_xx - t contains the jet variable u_xx",
            id="family-inverse",
        ),
        pytest.param(
            "field z: 0, 1, 0;\nansatz a: phi + u_t omega t;",
            "ansatz phi + u_t contains the jet variable u_t",
            id="ansatz-f",
        ),
        pytest.param(
            "ansatz a: phi omega x + u_x;",
            "omega u_x + x contains the jet variable u_x",
            id="ansatz-omega",
        ),
    ])
    def test_a_jet_of_positive_order_is_refused(self, stmt, message):
        lines = stmt.split("\n")
        with pytest.raises(ParseError) as ei:
            parse_problem(HEAT + stmt + "\n")
        assert str(ei.value) == "line %d, col 1: %s" % (3 + len(lines), message)

    @pytest.mark.parametrize("text, where", [
        pytest.param("vars t x;\ndep u;\neq: u_t = u_xx + 1/(u-u);\n", "line 3, col 1:", id="eq"),
        pytest.param(HEAT + "field z: 0, 1, 1/0;\n", "line 4, col 1:", id="field"),
        pytest.param(HEAT + "family k: kappa/0 param kappa inverse u;\n", "line 4, col 1:", id="family-f"),
        pytest.param(
            HEAT + "family k: kappa param kappa inverse u/(t-t);\n", "line 4, col 1:", id="family-inverse"
        ),
        pytest.param(HEAT + "field z: 0, 1, u;\nansatz a: phi/0 omega t;\n", "line 5, col 1:", id="ansatz-f"),
        pytest.param(HEAT + "ansatz a: phi omega t/(x-x);\n", "line 4, col 1:", id="ansatz-omega"),
    ])
    def test_a_division_by_zero_is_a_parse_error_at_its_statement(self, text, where):
        with pytest.raises(ParseError) as ei:
            parse_problem(text)
        assert str(ei.value).startswith(where + " division by zero: ")

    @pytest.mark.parametrize("stmt, line", [
        pytest.param("field z: 0, 1, u*sqrt(-1);", 4, id="sqrt"),
        pytest.param("family k: kappa + ln(-2) param kappa inverse u - ln(-2);", 4, id="ln"),
        pytest.param("field z: 0, 1, 0;\nansatz a: phi*(-1)^(1/2) omega t;", 5, id="power"),
        pytest.param("field z: 0, 1, (-8)^(1/3)*u;", 4, id="cube-root"),
        pytest.param("family k: kappa + (-1)^(2/3) param kappa inverse u - (-1)^(2/3);", 4, id="root-of-unity"),
        pytest.param("field z: 0, 1, 0;\nansatz a: phi*(-4)^(1/4) omega t;", 5, id="fourth-root"),
    ])
    def test_a_complex_constant_is_a_parse_error_at_its_statement(self, stmt, line):
        # the kernel has no complex constants: I has no derivative rule
        with pytest.raises(ParseError) as ei:
            parse_problem(HEAT + stmt + "\n")
        assert str(ei.value) == "line %d, col 1: complex constants are not supported" % line

    def test_u_stays_allowed(self):
        p = parse_problem(HEAT + "fn H(t, x, u);\nfield z: 0, 1, H(t, x, u)*u;\n")
        assert set(p.fields) == {"z"}


class TestEquality:
    def test_same_text_parses_equal(self):
        # parse_problem hands out one parse per text; __wrapped__ parses anew
        a = parse_problem(HEAT + "field expo: 0, 1, u;\n")
        b = parse_problem.__wrapped__(HEAT + "field expo: 0, 1, u;\n")
        assert a is not b
        assert a == b

    def test_different_field_name_breaks_equality(self):
        a = parse_problem(HEAT + "field expo: 0, 1, u;\n")
        b = parse_problem(HEAT + "field other: 0, 1, u;\n")
        assert a != b

    def test_equal_canonical_texts_are_equal_problems(self):
        a = parse_problem(HEAT)
        b = parse_problem("vars t x;\ndep u;\neq: u_t - u_xx = 0;\n")
        assert render_problem(a) == render_problem(b)
        assert a == b

    def test_not_a_problem_file(self):
        assert parse_problem(HEAT) != "text"


class TestReadOnly:
    """A parsed problem cannot change, so commands can share one parse."""

    def test_every_mutation_raises(self):
        p = parse_problem(corpus_text("heat"))
        grow = p.families["grow"]
        with pytest.raises(FrozenInstanceError):
            p.equation = p.equation
        with pytest.raises(TypeError):
            p.fields["other"] = p.fields["expo"]
        with pytest.raises(TypeError):
            p.families["other"] = grow
        with pytest.raises(TypeError):
            p.ansatzes["other"] = p.ansatzes["sep"]
        with pytest.raises(TypeError):
            p.ctx.functions["zeta"] = UnknownFunction("zeta", (p.ctx.x1, p.ctx.x2, p.ctx.u))
        with pytest.raises(FrozenInstanceError):
            grow.f = grow.Phi
        with pytest.raises(FrozenInstanceError):
            p.ansatzes["sep"].f = 0
        with pytest.raises(AttributeError):
            p.function_names.append("zeta")
        with pytest.raises(FrozenInstanceError):
            p.fields["expo"].eta = 0
        with pytest.raises(FrozenInstanceError):
            p.equation.body = 0
        F = parse_problem(corpus_text("wave_generic")).ctx.functions["F"]
        with pytest.raises(AttributeError):
            F.nonzero.add((2,))
        with pytest.raises(FrozenInstanceError):
            F.inverse = None

    def test_a_family_stores_its_normal_forms(self):
        p = parse_problem(HEAT + "family grow: kappa*exp(t)*exp(x) param kappa inverse u/exp(t+x);\n")
        grow = p.families["grow"]
        t, x, u = p.ctx.x1, p.ctx.x2, p.ctx.u
        assert grow.f == normalize(grow.kappa * sp.exp(t) * sp.exp(x))
        assert grow.Phi == normalize(u / sp.exp(t + x))


class TestRoundTrip:
    @pytest.mark.parametrize("text", [pytest.param(corpus_text(stem), id=stem) for stem in corpus_stems()] + [
        pytest.param("vars t x;\ndep u;\neq: u_t = u_xx + exp(1)*u;\n", id="exp-1"),
        pytest.param(INVERSE_THROUGH_A_FUNCTION, id="inverse-through-a-function"),
        pytest.param("vars t xx;\ndep u;\neq: u_t = u[0,2];\n", id="long-axis-name"),
        pytest.param(
            "vars t x;\ndep u;\nfn H(t, x, u, u_x) assume nonzero H;\n"
            "eq: u_t = u_xx + H(t, x, u, u_x);\n",
            id="function-of-a-jet",
        ),
    ])
    def test_parse_render_identity(self, text):
        p = parse_problem(text)
        rendered = render_problem(p)
        # parse_problem would hand back p itself for a text equal to its own
        p2 = parse_problem.__wrapped__(rendered)
        assert p2 == p
        # canonical text is a fixed point of another round trip
        assert render_problem(p2) == rendered


class TestDeclarationsOwnTheirAtoms:
    def test_nonvanishing_assumption_survives_a_redeclaration(self):
        p = parse_problem("vars x y;\ndep u;\nfn F(u) assume nonzero F_u;\neq: u_xy = F(u);\n")
        F_u = p.ctx.functions["F"].sym((1,))
        assert is_zero(F_u) is TriBool.PROVEN_NONZERO
        parse_problem("vars x y;\ndep u;\nfn F(u);\neq: u_xy = F_u;\n")
        assert is_zero(F_u) is TriBool.PROVEN_NONZERO
