"""Exit codes, report formats, and flag handling of the console entry point."""

import json
import os
import random
import subprocess
import sys
import time
from pathlib import Path
from types import SimpleNamespace

import pytest
import sympy as sp
import sympy.core.random as sympy_random
from hypothesis import example, given, settings
from hypothesis import strategies as st

import redop
from redop import TriBool, UnknownFunction, core, eliminate_on_Q, normalize, parse_problem, runner, zeta_from_family
from redop.cli import main
from redop.core import FnDerivSymbol, primitive_equation
from redop.errors import SetNotFirstCoorder
from redop.reduction import determining_singular
from redop.report import (
    FAILED,
    PROVED,
    SAMPLED,
    UNDECIDABLE,
    AnalysisReport,
    emit_report,
    nonzero_claim_status,
    render,
    zero_claim_status,
)
from redop.runner import _solved_display
from redop.singular import reduced_field

from helpers import (
    INVERSE_THROUGH_A_FUNCTION,
    bench_matrix,
    corpus_problem,
    corpus_stems,
    corpus_text,
    heat,
    rand_expr,
)

# heat with a field on which no real point makes sqrt(-1 - u^2) real
_NO_REAL_POINT = "vars t x;\ndep u;\neq: u_t = u_xx;\nfield w: sqrt(-1 - u^2), 1, u;\n"

# int()'s digit limit; 0 means none, as on Python before 3.10.7
_INT_DIGIT_LIMIT = getattr(sys, "get_int_max_str_digits", lambda: 0)()


@pytest.fixture
def prob(tmp_path):
    """Write a corpus problem to disk and return its path as a string."""

    def write(stem):
        p = tmp_path / ("%s.prob" % stem)
        p.write_text(corpus_text(stem))
        return str(p)

    return write


class TestExitCodes:
    def test_success_is_zero(self, prob, capsys):
        assert main(["detsys", prob("heat")]) == 0
        out = capsys.readouterr().out
        assert "problem: heat" in out
        assert "== detsys" in out
        assert "[proved]" in out

    def test_failed_verification_is_one(self, prob, capsys):
        assert main(["verify", prob("heat"), "--field", "badfield"]) == 1
        out = capsys.readouterr().out
        assert "[failed]" in out

    @pytest.mark.xfail(strict=True, reason="the leader is solved from the associated function, "
                       "not from its weak residual, and the logarithm of a vanishing value is "
                       "a usage error; the fix changes recorded reports")
    def test_detsys_on_field_d1_is_not_a_usage_error(self, prob, capsys):
        codes = {s: main(["detsys", prob(s), "--field", "d1"]) for s in ("ttt", "evo_exp", "wave_liouville")}
        assert 2 not in codes.values(), codes

    def test_missing_file_is_two(self, tmp_path, capsys):
        assert main(["analyze", str(tmp_path / "nope.prob")]) == 2
        assert "error:" in capsys.readouterr().err

    def test_a_missing_file_exits_two_without_a_traceback(self, tmp_path):
        env = dict(os.environ, PYTHONPATH=str(Path(redop.__file__).parents[1]))
        done = subprocess.run(
            [sys.executable, "-m", "redop.cli", "analyze", str(tmp_path / "nope.prob")],
            env=env, capture_output=True, text=True,
        )
        assert done.returncode == 2
        assert done.stderr.startswith("error: ")
        assert "Traceback" not in done.stderr

    def test_undecodable_file_is_two(self, tmp_path, capsys):
        # read in the locale's encoding, these bytes escaped main as a
        # UnicodeDecodeError traceback
        bad = tmp_path / "bad.prob"
        bad.write_bytes(b"\xff\xfe vars t x;")
        assert main(["analyze", str(bad)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: %s is not UTF-8 text" % bad)
        assert "Traceback" not in err

    def test_parse_error_is_two(self, tmp_path, capsys):
        bad = tmp_path / "bad.prob"
        bad.write_text("vars t x;\ndep u;\neq: u_t = v_xx;\n")
        assert main(["coorder", str(bad)]) == 2
        assert "undeclared identifier 'v'" in capsys.readouterr().err

    def test_a_refused_function_declaration_is_two(self, tmp_path, capsys):
        # the constructor's ValueError once escaped main as a traceback
        bad = tmp_path / "bad.prob"
        bad.write_text("vars t x;\ndep u;\nfn F(u, u);\neq: u_t = u_xx;\n")
        assert main(["analyze", str(bad)]) == 2
        assert "line 3, col 1: formal arguments must be distinct" in capsys.readouterr().err

    def test_missing_required_flag_is_two(self, prob, capsys):
        assert main(["verify", prob("heat")]) == 2
        assert "error:" in capsys.readouterr().err

    def test_unknown_field_name_is_two(self, prob, capsys):
        assert main(["verify", prob("heat"), "--field", "ghost"]) == 2
        assert "ghost" in capsys.readouterr().err

    @pytest.mark.parametrize("statement", [
        "eq: u_t = 1/(u_x - u_x);",
        "eq: u_t = u_xx;\nfield f: 0,1,ln(0);",
    ])
    def test_degenerate_expression_is_two(self, tmp_path, capsys, statement):
        bad = tmp_path / "degenerate.prob"
        bad.write_text("vars t x;\ndep u;\n%s\n" % statement)
        assert main(["analyze", str(bad)]) == 2
        assert capsys.readouterr().err.startswith("error: ")

    @pytest.mark.parametrize("digit", ["\u00b2", "\uff13"])
    def test_non_ascii_digit_is_a_parse_error(self, tmp_path, capsys, digit):
        # str.isdigit accepts both: int() raised on the superscript two,
        # and the fullwidth three was read as 3
        bad = tmp_path / "digit.prob"
        bad.write_text("vars t x;\ndep u;\neq: u_t = u_xx + %s*u;\n" % digit, encoding="utf-8")
        assert main(["detsys", str(bad)]) == 2
        err = capsys.readouterr().err
        assert err == "error: line 3, col 18: unexpected character %r\n" % digit
        assert "Traceback" not in err

    @pytest.mark.skipif(_INT_DIGIT_LIMIT == 0, reason="int() has no digit limit")
    def test_overlong_integer_literal_is_a_parse_error(self, tmp_path, capsys):
        # int() raised ValueError on more digits than the interpreter allows
        limit = _INT_DIGIT_LIMIT
        text = "vars t x;\ndep u;\neq: u_t = u_xx + %s*u;\n"
        parse_problem(text % ("1" * limit))
        bad = tmp_path / "long.prob"
        bad.write_text(text % ("1" * (limit + 1)))
        assert main(["detsys", str(bad)]) == 2
        err = capsys.readouterr().err
        assert err == "error: line 3, col 18: integer literal has more than %d digits\n" % limit
        assert "Traceback" not in err

    @pytest.mark.parametrize("rhs", [
        "(" * 600 + "u_xx" + ")" * 600,
        "u_xx + " + "-" * 3000 + "u",
    ], ids=["parentheses", "unary-minus"])
    def test_deep_nesting_is_a_parse_error(self, tmp_path, capsys, rhs):
        # both ended in a RecursionError traceback with exit 1
        bad = tmp_path / "deep.prob"
        bad.write_text("vars t x;\ndep u;\neq: u_t = %s;\n" % rhs)
        assert main(["detsys", str(bad)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: line 3, col ")
        assert err.endswith(": expression nested too deeply\n")
        assert "Traceback" not in err

    def test_undecidable_is_three(self, prob, capsys):
        assert main(["analyze", prob("ttt")]) == 3
        out = capsys.readouterr().out
        assert "[undecidable]" in out

    def test_coefficient_beyond_the_digit_limit_prints_exactly(self, tmp_path, capsys):
        # printing N*N raised "Exceeds the limit (4300 digits)" and exited 2
        n = _INT_DIGIT_LIMIT or 4300
        path = tmp_path / "huge.prob"
        path.write_text("vars t x;\ndep u;\neq: u_t = u_xx + %s*%s*u;\n" % ("9" * n, "9" * n))
        assert main(["detsys", str(path)]) == 0
        # (10^n - 1)^2 = 10^(2n) - 2*10^n + 1
        square = "9" * (n - 1) + "8" + "0" * (n - 1) + "1"
        out = capsys.readouterr().out
        assert "2*zeta*zeta_xu + %s*zeta - %s*zeta_u*u + zeta_xx\n" % (square, square) in out
        assert "  leading_derivative: zeta*zeta_u + zeta_x + %s*u\n" % square in out

    @pytest.mark.parametrize("rhs", ["1", "x + 1"])
    def test_reduction_to_a_nonzero_residual_is_not_the_identity(self, tmp_path, capsys, rhs):
        # a residual free of phi was reported as the proved identity 0 = 0
        path = tmp_path / "contradiction.prob"
        path.write_text("vars t x;\ndep u;\neq: u_t = %s;\nfield shift: 1, 0, 0;\n"
                        "ansatz flat: phi omega x;\n" % rhs)
        assert main(["reduce", str(path), "--field", "shift", "--ansatz", "flat"]) == 1
        out = capsys.readouterr().out
        assert "  reduced: %s = 0\n" % rhs in out
        assert "[failed] ansatz reduces the equation to the identity 0 = 0" in out

    def test_a_phi_free_nonzero_residual_is_named_as_such(self, tmp_path, capsys):
        # the detail called the reduction to 1 = 0 ultra-singular, of essential order -1
        path = tmp_path / "contradiction.prob"
        path.write_text("vars t x;\ndep u;\neq: u_t = 1;\nfield shift: 1, 0, 0;\n"
                        "ansatz flat: phi omega x;\n")
        assert main(["reduce", str(path), "--field", "shift", "--ansatz", "flat"]) == 1
        out = capsys.readouterr().out
        assert "  [failed] ansatz reduces the equation to the identity 0 = 0  (the reduced " \
            "equation is free of phi and does not vanish)\n" in out
        assert "ultra-singular" not in out

    def test_declared_zeta_is_a_parse_error(self, tmp_path, capsys):
        # the operator coefficient took the declared function's place
        path = tmp_path / "zeta.prob"
        path.write_text("vars t x;\ndep u;\nfn zeta(t, x, u);\neq: u_t = u_xx + zeta(t, x, u);\n")
        assert main(["detsys", str(path), "--xi", "0"]) == 2
        assert capsys.readouterr().err == "error: line 3, col 4: 'zeta' is a reserved word\n"

    @pytest.mark.parametrize("command, code", [("coorder", 0), ("verify", 1), ("detsys", 0)])
    def test_a_field_without_a_real_sample_point_is_analyzed(self, tmp_path, capsys, command, code):
        # the elimination axis was chosen by sampling xi2 = sqrt(-1 - u^2),
        # which has no real value, and each command exited 2 with "no valid
        # sample point found"
        path = tmp_path / "imaginary.prob"
        path.write_text("vars t x;\ndep u;\neq: u_t = u_xx;\nfield z: 0, sqrt(-1 - u^2), u;\n")
        assert main([command, str(path), "--field", "z"]) == code
        out, err = capsys.readouterr()
        assert "== %s (field=z xi=0)" % command in out
        assert err == ""

    @pytest.mark.parametrize("command, line", [
        ("coorder", "[undecidable] weak co-order is exactly 2  "
                    "(top-jet coefficient verdict: no valid sample point found)"),
        ("verify", "[undecidable] conditional invariance criterion holds on the manifold  "
                   "(residual verdict: no valid sample point found)"),
    ], ids=["coorder", "verify"])
    def test_a_claim_without_a_real_sample_point_is_undecidable(self, tmp_path, capsys, command, line):
        # the claim's own zero test, on values holding sqrt(-1 - u^2), drew no
        # valid point, and the command exited 2 with "no valid sample point found"
        path = tmp_path / "imaginary.prob"
        path.write_text(_NO_REAL_POINT)
        assert main([command, str(path), "--field", "w"]) == 3
        out, err = capsys.readouterr()
        assert "  %s\n" % line in out
        assert err == ""

    def test_detsys_on_a_field_without_a_real_sample_point_is_unchanged(self, tmp_path, capsys):
        path = tmp_path / "imaginary.prob"
        path.write_text(_NO_REAL_POINT)
        assert main(["detsys", str(path), "--field", "w"]) == 0
        out, err = capsys.readouterr()
        assert "[proved] regular-case determining system with 4 equations" in out
        assert "equation_4: 2*u^3*sqrt(-u^2 - 1) = 0" in out
        assert err == ""

    def test_a_phi_free_residual_without_a_real_sample_point_is_undecidable(self, tmp_path, capsys):
        path = tmp_path / "imaginary.prob"
        path.write_text("vars t x;\ndep u;\neq: u_t = sqrt(-1 - x^2) + x*sqrt(-1 - x^2);\n"
                        "field shift: 1, 0, 0;\nansatz flat: phi omega x;\n")
        assert main(["reduce", str(path), "--field", "shift", "--ansatz", "flat"]) == 3
        out, err = capsys.readouterr()
        assert "  [undecidable] ansatz reduces the equation to the identity 0 = 0  (the reduced " \
            "equation is free of phi and has no valid sample point)\n" in out
        assert err == ""

    def test_a_closure_member_without_a_real_sample_point_is_undecidable(self, tmp_path, capsys):
        # the closure skipped the member it could not test, and analyze exited
        # 0 with both ultra-singular sub-branches sampled consistent
        path = tmp_path / "closure.prob"
        path.write_text("vars x y; dep u; eq: u_xy = u*sqrt(-1 - u^2);\n")
        assert main(["analyze", str(path)]) == 3
        out, err = capsys.readouterr()
        for axis, other in (("y", "x"), ("x", "y")):
            where = "normalized on %s, xi = 0" % axis
            assert "  [undecidable] %s: ultra-singular sub-branch is consistent  (conditions: " \
                "zeta_u; zeta_%s - u*sqrt(-u^2 - 1); no valid sample point for " \
                "(2*u^2 + 1)/sqrt(-u^2 - 1))\n" % (where, other) in out
            assert "  [sampled] %s: lower co-order sub-branch is consistent  " \
                "(conditions: zeta_u)\n" % where in out
        assert err == ""

    def test_an_inverse_through_a_declared_function_is_accepted(self, tmp_path, capsys):
        # the inverse check once substituted u = f into atoms only, so
        # F(u) - x stayed F - x and the file was a parse error
        path = tmp_path / "ftil.prob"
        path.write_text(INVERSE_THROUGH_A_FUNCTION)
        assert main(["analyze", str(path)]) == 0
        assert "Traceback" not in capsys.readouterr().err
        # the family is invariant but does not solve the heat equation
        assert main(["bijection", str(path), "--family", "g"]) == 1
        out, err = capsys.readouterr()
        assert "[proved] family is invariant under its reduction operator" in out
        assert "[failed] family solves the equation" in out
        assert err == ""

    def test_a_jet_argument_that_is_also_a_free_atom_cannot_transpose(self, tmp_path, capsys):
        # u_tx is both an atom of the equation and a formal argument of H;
        # on the axes (x, t) the same index is named u_xt
        path = tmp_path / "transpose.prob"
        path.write_text("vars t x; dep u; fn H(t, x, u, u_tx); eq: u_tt = u_tx + H(t, x, u, u_tx);\n")
        assert main(["analyze", str(path)]) == 2
        out, err = capsys.readouterr()
        assert err == "error: unknown-function argument u_tx cannot be transposed\n"
        assert out == ""

    def test_a_failed_surface_names_its_largest_residual(self, tmp_path, capsys):
        # u = kappa*x^2 does not solve the heat equation: the residual is
        # -u_xx = -2*kappa on each of the 25 points of the five kappas
        path = tmp_path / "bad.prob"
        path.write_text(corpus_text("heat") + "family bad: kappa*x^2 param kappa inverse u/x^2;\n")
        assert main(["bijection", str(path), "--family", "bad", "--samples", "5", "--seed", "1"]) == 1
        out = capsys.readouterr().out
        assert "  [failed] implicit-surface residual vanishes at sampled points  " \
            "(max residual 5 over 25 points)\n" in out

    def test_a_residual_with_an_applied_map_samples_no_surface(self, tmp_path, capsys):
        # the residual holds H applied at u_xx, which the surface sampler
        # once evaluated and died on with a NameError
        path = tmp_path / "applied.prob"
        path.write_text("vars t x; dep u; fn H(u) assume nonzero H_u; eq: u_t = H(u_xx);\n"
                        "family g: kappa param kappa inverse u;\n")
        assert main(["bijection", str(path), "--family", "g"]) == 1
        out, err = capsys.readouterr()
        assert "  [failed] family solves the equation" in out
        assert "  [failed] flow identity " in out
        assert "  [undecidable] implicit-surface residual vanishes at sampled points  " \
            "(no sample point found)\n" in out
        assert err == ""

    def test_an_inverse_with_an_applied_map_samples_no_surface(self, tmp_path, capsys):
        # Phi = F(u + x) is an applied map, which the surface root search
        # once evaluated and died on with a NameError
        path = tmp_path / "applied.prob"
        path.write_text("vars t x; dep u; fn F(u) assume nonzero F_u inverse Ftil; eq: u_t = u_xx;\n"
                        "family g: Ftil(kappa) - x param kappa inverse F(u + x);\n")
        assert main(["bijection", str(path), "--family", "g"]) == 0
        out, err = capsys.readouterr()
        assert out.count("  [proved] ") == 7
        assert "  [proved] implicit-surface residual vanishes at sampled points  " \
            "(residual is structurally zero; 0 points exact)\n" in out
        assert err == ""

    @pytest.mark.xfail(strict=True, reason="zeta = 0 is instantiated into the determining "
                       "equation over its zeta_u denominator, and the flow solve needs an "
                       "inverse of F that is not declared")
    def test_bijection_on_a_generic_wave_equation_is_not_a_usage_error(self, tmp_path, capsys):
        path = tmp_path / "wave.prob"
        path.write_text("vars x y; dep u; fn F(u) assume nonzero F_u; eq: u_xy = F(u);\n"
                        "family g: kappa param kappa inverse u;\n")
        assert main(["bijection", str(path), "--family", "g"]) != 2

    def test_an_ansatz_may_apply_phi_at_omega_alone(self, tmp_path, capsys):
        # phi(t) with omega t was once read as an ansatz without phi
        path = tmp_path / "applied.prob"
        path.write_text(corpus_text("heat") + "field z: 0, 1, 0;\n"
                        "ansatz a: phi(t) omega t;\nansatz b: phi omega t;\nansatz c: phi(x) omega t;\n")
        reports = {}
        for name in "ab":
            assert main(["reduce", str(path), "--field", "z", "--ansatz", name, "--json"]) == 0
            reports[name] = json.loads(capsys.readouterr().out)
            reports[name]["results"][0].pop("timing_ms")
            reports[name]["results"][0].pop("inputs")
        assert reports["a"] == reports["b"]
        assert main(["reduce", str(path), "--field", "z", "--ansatz", "c"]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err == "error: phi is applied at x, not at omega = t\n"


class TestStatusFromTheDecidingVerdict:
    """A claim decided by a sampled verdict is sampled, however the claim
    is phrased; each of these was reported as proved."""

    @pytest.mark.parametrize("text, argv, claims", [
        ("eq: u_tt = u*u_x;", ["analyze"], [
            "normalized on t, xi = 0: ultra-singular sub-branch is inconsistent",
            "normalized on t, xi = 0: lower co-order sub-branch is inconsistent",
        ]),
        ("eq: u_tx = u_x + u^2;", ["analyze"], [
            "normalized on x, xi = 0: ultra-singular sub-branch is inconsistent",
        ]),
        ("eq: u_t = (x^2 - 1)*u_xx;\nfield shift: 1, 0, 0;\nansatz flat: phi omega x;",
         ["reduce", "--field", "shift", "--ansatz", "flat"],
         ["essential order of the reduced equation = 2"]),
    ], ids=["closure-u", "closure-2u", "essential-order"])
    def test_a_probably_nonzero_decision_is_sampled(self, tmp_path, capsys, text, argv, claims):
        path = tmp_path / "p.prob"
        path.write_text("vars t x;\ndep u;\n%s\n" % text)
        assert main([argv[0], str(path)] + argv[1:]) == 0
        out = capsys.readouterr().out
        for claim in claims:
            assert "  [sampled] %s  (" % claim in out

    @pytest.mark.parametrize("verdict, zero, nonzero", [
        (TriBool.PROVEN_ZERO, PROVED, FAILED),
        (TriBool.SAMPLED_ZERO, SAMPLED, UNDECIDABLE),
        (TriBool.PROBABLY_NONZERO, FAILED, SAMPLED),
        (TriBool.PROVEN_NONZERO, FAILED, PROVED),
        (None, UNDECIDABLE, UNDECIDABLE),
    ], ids=lambda v: getattr(v, "name", v))
    def test_each_verdict_gives_one_status_per_claim_form(self, verdict, zero, nonzero):
        assert (zero_claim_status(verdict), nonzero_claim_status(verdict)) == (zero, nonzero)


@pytest.mark.parametrize("n", [
    0, 7, -7, 10**500 - 1, 10**500, -10**500 - 1, 10**1000 + 10**499, 3 * 10**1200 - 1,
])
def test_numbers_render_as_their_decimals(n):
    # render splits long integers at 500 digits; below the interpreter's
    # limit its text is str's
    assert render(sp.Integer(n)) == str(n)
    q = sp.Rational(n, 10**700 + 3)
    assert render(q) == str(q)
    assert render(q * sp.Symbol("x") ** 2) == str(q * sp.Symbol("x") ** 2).replace("**", "^")


class TestJsonOutput:
    def test_single_line_round_trip(self, prob, capsys):
        assert main(["coorder", prob("heat"), "--field", "expo", "--json"]) == 0
        out = capsys.readouterr().out.strip()
        assert "\n" not in out
        d = json.loads(out)
        assert d["problem"] == "heat"
        assert d["results"][0]["command"] == "coorder"
        assert json.dumps(d, sort_keys=True) == out

    def test_empty_report_serialization(self):
        rep = AnalysisReport(problem=None, results=[])
        assert emit_report(rep, "json") == '{"results": [], "version": "1"}'
        assert json.loads(emit_report(rep, "json")) == {"results": [], "version": "1"}

    def test_json_keys_are_sorted_and_stable(self, prob, capsys):
        assert main(["verify", prob("heat"), "--field", "expo", "--json"]) == 0
        out = capsys.readouterr().out.strip()
        d = json.loads(out)
        assert list(d) == sorted(d)
        assert d["version"] == "1"
        for r in d["results"]:
            for v in r["verdicts"]:
                assert v["status"] in ("proved", "sampled", "failed", "undecidable")

    def test_unknown_format_rejected(self):
        with pytest.raises(ValueError):
            emit_report(AnalysisReport(), "yaml")


class TestOneParser:
    def test_repeated_calls_in_one_process_print_the_same_bytes(self, prob, capsys, monkeypatch):
        # a stopped clock, so that the printed timings agree too
        monkeypatch.setattr(runner, "time", SimpleNamespace(perf_counter=lambda: 0.0))
        argv = ["bijection", prob("heat"), "--family", "line"]
        outputs = []
        for _ in range(2):
            assert main(argv) == 0
            outputs.append(capsys.readouterr())
        assert outputs[0] == outputs[1]
        assert "[0.0 ms]" in outputs[0].out

    def test_a_usage_error_after_a_good_call_exits_two(self, prob, capsys):
        assert main(["detsys", prob("heat")]) == 0
        capsys.readouterr()
        with pytest.raises(SystemExit) as exc:
            main(["detsys", prob("heat"), "--xi", "2"])
        assert exc.value.code == 2
        assert "invalid choice" in capsys.readouterr().err


class TestFlags:
    def test_samples_and_seed_accepted(self, prob, capsys):
        code = main(
            ["bijection", prob("heat"), "--family", "grow",
             "--samples", "3", "--seed", "7"]
        )
        assert code == 0
        assert "[proved]" in capsys.readouterr().out

    def test_samples_below_one_is_two(self, prob, capsys):
        assert main(["detsys", prob("heat"), "--samples", "0"]) == 2
        assert "error:" in capsys.readouterr().err

    def test_every_sampled_verdict_uses_the_command_line_settings(self, monkeypatch, capsys):
        matrix = bench_matrix()
        monkeypatch.chdir(matrix.ROOT)
        sample_points = core._sample_points
        calls = {}

        def spy(n, samples, seed):
            calls.setdefault(job.key, []).append((samples, seed))
            return sample_points(n, samples, seed)

        monkeypatch.setattr(core, "_sample_points", spy)
        for job in matrix.symbolic_jobs() + matrix.bijection_jobs():
            main(job.argv(7, 3))
            capsys.readouterr()
        # the family parameter's sampled verdict among them
        assert "heat:bijection:family=line" in calls
        assert {k: v for k, v in calls.items() if set(v) != {(3, 7)}} == {}

    def test_xi_selects_the_reduced_set(self, prob, capsys):
        assert main(["detsys", prob("transport"), "--xi", "u"]) == 0
        out = capsys.readouterr().out
        assert "xi=u" in out

    def test_reduce_needs_field_and_ansatz(self, prob, capsys):
        assert main(["reduce", prob("heat"), "--field", "linear"]) == 2
        capsys.readouterr()
        code = main(
            ["reduce", prob("heat"), "--field", "linear", "--ansatz", "quad"]
        )
        assert code == 0
        assert "[proved]" in capsys.readouterr().out

    def test_bad_command_exits_argparse(self, prob):
        with pytest.raises(SystemExit) as ei:
            main(["frobnicate", prob("heat")])
        assert ei.value.code == 2


class TestBranchesNeverSample:
    """A branch decision reads the proof phase of the zero test alone; each
    of these once drew a sample point to decide a value that is structurally
    nonzero."""

    @pytest.fixture(autouse=True)
    def no_sampling(self, monkeypatch):
        def refuse(n, samples, seed):
            raise AssertionError("sampled %s" % n)

        monkeypatch.setattr(core, "_sample_points", refuse)

    def test_the_elimination_axis(self):
        ctx, L = heat()
        elim = eliminate_on_Q(L, reduced_field(ctx, ctx.u))
        assert (elim.k, elim.kept_axis, elim.leader) == (2, 1, ctx.jet(2, 0))

    def test_whether_phi_depends_on_u(self):
        fan = corpus_problem("transport").families["fan"]
        ctx = fan.ctx
        assert normalize(zeta_from_family(fan, 0) - ctx.u / ctx.x2) == 0

    def test_the_ansatz_invariance_check(self, prob, capsys):
        assert main(["reduce", prob("heat"), "--field", "expo", "--ansatz", "quad"]) == 2
        assert capsys.readouterr().err == (
            "error: ansatz is not invariant under the field: Q[f] = x**2/2 - x + phi(t)\n"
        )


def test_coorder_time_does_not_depend_on_sympys_rng(prob):
    """Seed 1 of sympy's generator once sent a factorization of this
    associated function into a Hensel lifting of over a minute."""
    states = sympy_random.rng.getstate(), sympy_random._assumptions_rng.getstate()
    sympy_random.seed(1)
    try:
        start = time.perf_counter()
        code = main(["coorder", prob("heat"), "--field", "template", "--json"])
        elapsed = time.perf_counter() - start
    finally:
        sympy_random.rng.setstate(states[0])
        sympy_random._assumptions_rng.setstate(states[1])
    assert code == 0
    assert elapsed < 10


# _solved_display reads candidates from the ring form; the scan of the
# expanded numerator's terms it replaced is kept here as the oracle

def _solved_display_by_terms(eq, zeta):
    num, den = eq.as_numer_denom()
    terms = sp.Add.make_args(sp.expand(num))
    candidates = []
    for s in eq.free_symbols:
        if not isinstance(s, FnDerivSymbol) or s.fn is not zeta or not any(s.order) or den.has(s):
            continue
        quotients = [t / s for t in terms if t.has(s)]
        if any(q.has(s) for q in quotients):
            continue
        c = normalize(sp.Add(*quotients) / den)
        if isinstance(c, sp.Number) and c != 0:
            candidates.append((s.order[0], sum(s.order), s, c))
    if not candidates:
        return "%s = 0" % render(primitive_equation(eq))
    _, _, s, c = max(candidates, key=lambda q: (q[0], q[1], q[2].name))
    rhs = normalize(s - eq / c)
    return "%s = %s" % (s.name, render(rhs))


_t, _x, _u = sp.symbols("t x u")
_ZETA = UnknownFunction("zeta", (_t, _x, _u))


def _z(*order):
    return _ZETA.sym(order)


_Z_ATOMS = [_x, _u, sp.exp(_u), _z(0, 0, 0), _z(1, 0, 0), _z(0, 1, 0), _z(0, 0, 1), _z(0, 0, 2), _z(0, 1, 1), _z(2, 0, 0)]
# derivatives inside exp, a radical and an applied map are no candidates
_Z_WIDE = _Z_ATOMS + [sp.exp(_z(0, 0, 1)), sp.sqrt(_z(0, 1, 0)), _ZETA.applied((0, 0, 1), (_t, _x, _u**2)), sp.exp(-_x / 2)]


def _determining_equation(seed):
    rng = random.Random(seed)
    atoms = _Z_WIDE if seed % 2 else _Z_ATOMS
    e = rand_expr(rng, atoms, depth=3, allow_exp=False)
    # a linear top derivative, so that some equations can be solved
    e = e + rng.randint(-2, 3) * rng.choice([_z(1, 0, 0), _z(0, 0, 2), _z(2, 0, 0)])
    if rng.random() < 0.4:
        d = rand_expr(rng, atoms, depth=1, allow_exp=False)
        if normalize(d) != 0:
            e = e / d
    return normalize(e)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10**9).map(_determining_equation))
@example(normalize(_z(0, 0, 2) + sp.exp(_z(0, 0, 2)) + _x))
@example(normalize((2 * _z(1, 0, 0) + _u) / (_z(0, 1, 0) + 1)))
def test_solved_display_from_the_ring_equals_the_term_scan(eq):
    if eq != 0:
        assert _solved_display(eq, _ZETA) == _solved_display_by_terms(eq, _ZETA)


def test_solved_display_from_the_ring_equals_the_term_scan_on_the_corpus():
    shown = 0
    for stem in corpus_stems():
        problem = corpus_problem(stem)
        for xi in (0, problem.ctx.u):
            try:
                ds = determining_singular(problem.equation, xi)
            except SetNotFirstCoorder:
                continue
            eq, zeta = ds.equations[0], problem.ctx.functions["zeta"]
            assert _solved_display(eq, zeta) == _solved_display_by_terms(eq, zeta)
            shown += 1
    assert shown == 11
