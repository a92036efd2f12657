"""Command dispatch: each CLI command maps to one analysis routine."""

from __future__ import annotations

import time

import sympy as sp

from .core import FnDerivSymbol, Session, TriBool, is_zero, normalize, primitive_equation, ring_form
from .errors import LeaderNotSolvable
from .families import backlund_verify, verify_bijection
from .jets import ord, transpose
from .reduction import (
    conditional_invariance_test,
    determining_regular,
    determining_singular,
    reduce_with_ansatz,
)
from .report import (
    EXACT,
    UNDECIDABLE,
    AnalysisReport,
    CommandResult,
    Verdict,
    closure_status,
    nonzero_claim_status,
    render,
    zero_claim_status,
)
from .singular import analyze_reduced_set, weak_coorder

COMMANDS = ("analyze", "coorder", "detsys", "verify", "reduce", "bijection")


def _xi_expr(ctx, label):
    if label == "0":
        return sp.S.Zero
    if label == "u":
        return ctx.u
    raise ValueError("xi must be '0' or 'u'")


def _outcome(verdict):
    """The name of an is_zero verdict; None is the value with no valid sample point."""
    return "no valid sample point found" if verdict is None else verdict.name


def _named(mapping, name, what):
    if name is None:
        raise ValueError("this command needs --%s" % what)
    if name not in mapping:
        raise ValueError("unknown %s %r" % (what, name))
    return mapping[name]


def _cmd_analyze(problem, options, session):
    L = problem.equation
    verdicts = []
    expressions = {}
    oriented = [(L.ctx.x2.name, L), (L.ctx.x1.name, transpose(L))]
    for axis_name, Lo in oriented:
        r = ord(Lo)
        for label in ("0", "u"):
            sa = analyze_reduced_set(Lo, _xi_expr(Lo.ctx, label), session)
            where = "normalized on %s, xi = %s" % (axis_name, label)
            key = "%s.xi=%s" % (axis_name, label)
            expressions[key + ".associated"] = render(sa.hat.body)
            if sa.k == r:
                verdicts.append(Verdict(
                    claim="%s: regular (generic co-order %d equals the order)" % (where, sa.k),
                    status=EXACT,
                ))
                continue
            verdicts.append(Verdict(
                claim="%s: singular set of co-order %d" % (where, sa.k),
                status=EXACT,
                detail="associated function of order %d" % sa.k,
            ))
            expressions[key + ".regular_value"] = render(sa.regular_value)
            if sa.s_ultra is None:
                verdicts.append(Verdict(
                    claim="%s: sub-branch systems are undetermined" % where,
                    status=UNDECIDABLE,
                    detail="no finite coefficient split in the kept jets",
                ))
                continue
            branches = [("ultra-singular", sa.ultra_closure, sa.s_ultra)]
            if sa.k >= 1:
                branches.append(("lower co-order", sa.zero_closure, sa.s_zero))
            for name, (contradiction, member), system in branches:
                detail = "conditions: %s" % "; ".join(render(e) for e in system)
                if contradiction is None and member is not None:
                    detail += "; no valid sample point for %s" % render(member)
                verdicts.append(Verdict(
                    claim="%s: %s sub-branch is %s"
                    % (where, name, "consistent" if contradiction is None else "inconsistent"),
                    status=closure_status(contradiction, member),
                    detail=detail,
                ))
    return verdicts, expressions


def _cmd_coorder(problem, options, session):
    Q = _named(problem.fields, options.get("field"), "field")
    rep = weak_coorder(problem.equation, Q, session=session)
    if rep.weak_upper <= 0:
        status, detail = EXACT, "a nonzero residual cannot drop below order 0"
    else:
        status = nonzero_claim_status(rep.maximal_rank)
        detail = "top-jet coefficient verdict: %s" % _outcome(rep.maximal_rank)
    verdicts = [
        Verdict(claim="strong singularity co-order = %d" % rep.strong, status=EXACT),
        Verdict(
            claim="weak singularity co-order bounds [%d, %d]"
            % (rep.weak_lower, rep.weak_upper),
            status=EXACT,
        ),
        Verdict(claim="weak co-order is exactly %d" % rep.weak_upper,
                status=status, detail=detail),
    ]
    if rep.multiplier != 1:
        verdicts.append(Verdict(
            claim="extracted multiplier does not vanish",
            status=nonzero_claim_status(is_zero(rep.multiplier, session)),
        ))
    expressions = {
        "associated": render(rep.elimination.hat.body),
        "multiplier": render(rep.multiplier),
        "residual": render(rep.residual.body),
    }
    return verdicts, expressions


def _solved_display(eq, zeta):
    """The equation solved for its highest zeta derivative of constant coefficient.

    A candidate s is a derivative of zeta in which the numerator P of eq's
    ring form has degree 1, that the denominator Q does not hold and that
    sits inside no other generator; its coefficient in eq is the constant
    c when the coefficient of s in P is c times Q.
    """
    ring, P, Q = ring_form(eq)
    dp, dq = P.degrees(), Q.degrees()
    used = [g for g, kp, kq in zip(ring.symbols, dp, dq) if kp or kq]
    candidates = []
    for i, s in enumerate(ring.symbols):
        if not isinstance(s, FnDerivSymbol) or s.fn is not zeta or not any(s.order):
            continue
        if dp[i] != 1 or dq[i] or any(g != s and s in g.free_symbols for g in used):
            continue
        C = P.coeff_wrt(i, 1)
        c = ring.domain.to_sympy(C.LC) / ring.domain.to_sympy(Q.LC)
        if isinstance(c, sp.Number) and C * Q.LC == Q * C.LC:
            candidates.append((s.order[0], sum(s.order), s, c))
    if not candidates:
        return "%s = 0" % render(primitive_equation(eq))
    _, _, s, c = max(candidates, key=lambda q: (q[0], q[1], q[2].name))
    rhs = normalize(s - eq / c)
    return "%s = %s" % (s.name, render(rhs))


def _cmd_detsys(problem, options, session):
    L = problem.equation
    if options.get("field") is not None:
        Q = _named(problem.fields, options["field"], "field")
        ds = determining_regular(L, Q, session=session)
        verdicts = [Verdict(
            claim="regular-case determining system with %d equations" % len(ds.equations),
            status=EXACT,
            detail="case: %s" % ds.case,
        )]
        expressions = {
            "equation_%d" % (i + 1): "%s = 0" % render(e)
            for i, e in enumerate(ds.equations)
        }
        return verdicts, expressions
    xi = _xi_expr(L.ctx, options.get("xi", "0"))
    ds = determining_singular(L, xi, session)
    verdicts = [Verdict(
        claim="single determining equation for the co-order 1 set",
        status=EXACT,
        detail="case: %s" % ds.case,
    )]
    for a in ds.assumptions:
        verdicts.append(Verdict(
            claim="solvability assumption: %s does not vanish" % render(a),
            status=nonzero_claim_status(is_zero(a, session)),
        ))
    expressions = {
        "determining": _solved_display(ds.equations[0], L.ctx.functions["zeta"]),
        "leading_derivative": render(ds.G),
    }
    return verdicts, expressions


def _cmd_verify(problem, options, session):
    Q = _named(problem.fields, options.get("field"), "field")
    try:
        verdict = conditional_invariance_test(problem.equation, Q, session=session)
        verdicts = [Verdict(
            claim="conditional invariance criterion holds on the manifold",
            status=zero_claim_status(verdict),
            detail="residual verdict: %s" % _outcome(verdict),
        )]
        return verdicts, {}
    except LeaderNotSolvable as e:
        return [Verdict(
            claim="conditional invariance criterion holds on the manifold",
            status=UNDECIDABLE,
            detail=str(e),
        )], {}


def _cmd_reduce(problem, options, session):
    Q = _named(problem.fields, options.get("field"), "field")
    a = _named(problem.ansatzes, options.get("ansatz"), "ansatz")
    ar = reduce_with_ansatz(problem.equation, Q, a.f, a.omega, session)
    if ar.essential_order < 0:
        vanishes = ar.order_verdict in (TriBool.PROVEN_ZERO, TriBool.SAMPLED_ZERO)
        verdicts = [Verdict(
            claim="ansatz reduces the equation to the identity 0 = 0",
            status=zero_claim_status(ar.order_verdict),
            detail="ultra-singular reduction, essential order -1" if vanishes
            else "the reduced equation is free of phi and %s" % (
                "has no valid sample point" if ar.order_verdict is None else "does not vanish"),
        )]
    else:
        nonvanishing = ar.order_verdict in (TriBool.PROVEN_NONZERO, TriBool.PROBABLY_NONZERO)
        verdicts = [Verdict(
            claim="essential order of the reduced equation = %d" % ar.essential_order,
            status=nonzero_claim_status(ar.order_verdict),
            detail="top derivative coefficient %s"
            % ("does not vanish" if nonvanishing else "could not be certified"),
        )]
    if ar.multiplier != 1:
        verdicts.append(Verdict(
            claim="reduction multiplier does not vanish",
            status=nonzero_claim_status(ar.multiplier_verdict),
        ))
    expressions = {
        "multiplier": render(ar.multiplier),
        "reduced": "%s = 0" % render(ar.reduced),
        "omega": render(ar.omega),
    }
    return verdicts, expressions


def _cmd_bijection(problem, options, session):
    L = problem.equation
    fam = _named(problem.families, options.get("family"), "family")
    xi = _xi_expr(L.ctx, options.get("xi", "0"))
    rep = verify_bijection(L, fam, xi, session)
    verdicts = [
        Verdict(claim="family solves the equation",
                status=zero_claim_status(rep.solves)),
        Verdict(claim="family is invariant under its reduction operator",
                status=zero_claim_status(rep.invariance)),
        Verdict(claim="recovered zeta satisfies the determining equation",
                status=zero_claim_status(rep.determining)),
        Verdict(claim="family parameter is essential",
                status=nonzero_claim_status(rep.essential)),
    ]
    bk = backlund_verify(L, rep.zeta, fam.Phi, xi, session)
    verdicts.append(Verdict(
        claim="surface identity xi*Phi_1 + Phi_2 + zeta*Phi_u = 0",
        status=zero_claim_status(bk.identity_q),
    ))
    verdicts.append(Verdict(
        claim="flow identity Phi_1 + G*Phi_u = 0",
        status=zero_claim_status(bk.identity_g),
    ))
    surface = bk.surface
    if surface is TriBool.PROVEN_ZERO:
        detail = "residual is structurally zero; %d points exact" % len(bk.points)
    elif surface is None:
        detail = "no sample point found"
    else:
        detail = "max residual %.3g over %d points" % (
            max(res for _, res in bk.points), len(bk.points))
    verdicts.append(Verdict(
        claim="implicit-surface residual vanishes at sampled points",
        status=zero_claim_status(surface), detail=detail,
    ))
    expressions = {"zeta": render(rep.zeta), "Phi": render(fam.Phi)}
    return verdicts, expressions


_DISPATCH = {
    "analyze": _cmd_analyze,
    "coorder": _cmd_coorder,
    "detsys": _cmd_detsys,
    "verify": _cmd_verify,
    "reduce": _cmd_reduce,
    "bijection": _cmd_bijection,
}


def run(command, problem, **options):
    """Execute one command against a parsed problem, returning a report;
    every sampled verdict uses the session of its samples and seed options."""
    if command not in _DISPATCH:
        raise ValueError("unknown command %r" % command)
    samples = options.get("samples")
    if samples is not None and samples < 1:
        raise ValueError("--samples must be at least 1, got %d" % samples)
    session = Session(**{k: options[k] for k in ("samples", "seed") if options.get(k) is not None})
    t0 = time.perf_counter()
    verdicts, expressions = _DISPATCH[command](problem, options, session)
    elapsed = (time.perf_counter() - t0) * 1000.0
    inputs = {
        k: str(v)
        for k, v in options.items()
        if k in ("field", "family", "ansatz", "xi") and v is not None
    }
    result = CommandResult(
        command=command,
        inputs=inputs,
        verdicts=verdicts,
        expressions=expressions,
        timing_ms=round(elapsed, 3),
    )
    return AnalysisReport(problem=options.get("problem_name"), results=[result])
