"""Commands share one parse: parse_problem keeps one sealed ProblemFile per
distinct text, and every benchmark job, run forward and then in reverse
through runner.run on one parse_problem result per corpus file, reproduces
its recorded outcome in bench/reference.json, and no command declares a
function in the problem it was given."""

import json
from dataclasses import FrozenInstanceError

import pytest
import sympy as sp

from redop import parse_problem
from redop.cli import main
from redop.errors import ParseError

from helpers import bench_matrix, job_outcome


def test_every_job_reproduces_its_reference_on_one_shared_parse():
    matrix = bench_matrix()
    recorded = json.loads(matrix.REFERENCE.read_text())
    jobs = matrix.symbolic_jobs() + matrix.bijection_jobs()
    assert sorted(job.key for job in jobs) == sorted(recorded["jobs"])
    problems = {path.stem: parse_problem(path.read_text()) for path in matrix.corpus_files()}
    declared = {name: dict(p.ctx.functions) for name, p in problems.items()}
    mismatched = []
    for job in jobs + jobs[::-1]:
        got = job_outcome(matrix, problems[job.problem], job, recorded["seed"])
        if got != recorded["jobs"][job.key]:
            mismatched.append(job.key)
    assert mismatched == []
    assert {name: dict(p.ctx.functions) for name, p in problems.items()} == declared


HEAT = "vars t x;\ndep u;\neq: u_t = u_xx;\n"


def test_one_text_gives_one_parse():
    text = HEAT + "field expo: 0, 1, u;\n"
    assert parse_problem(text) is parse_problem(text)


def test_texts_one_character_apart_get_separate_parses():
    a = parse_problem(HEAT + "field a: 0, 1, u;\n")
    b = parse_problem(HEAT + "field b: 0, 1, u;\n")
    assert a is not b and a.ctx is not b.ctx
    assert (list(a.fields), list(b.fields)) == (["a"], ["b"])


def test_a_text_that_raises_is_not_kept():
    text = HEAT + "field f: 0, 1, v;\n"
    before = parse_problem.cache_info()
    for _ in range(2):
        with pytest.raises(ParseError, match="undeclared identifier 'v'"):
            parse_problem(text)
    after = parse_problem.cache_info()
    assert (after.hits, after.misses) == (before.hits, before.misses + 2)


def test_the_table_holds_at_most_its_bound():
    bound = parse_problem.cache_info().maxsize
    texts = [HEAT + "field f: 0, 1, %d*u;\n" % k for k in range(bound + 3)]
    first = parse_problem(texts[0])
    for text in texts[1:]:
        parse_problem(text)
        assert parse_problem.cache_info().currsize <= bound
    assert parse_problem.cache_info().currsize == bound
    # the oldest text was dropped, so it is parsed anew
    assert parse_problem(texts[0]) is not first


def test_a_parsed_context_refuses_add_function():
    text = "vars x y;\ndep u;\nfn F(u);\neq: u_xy = F(u);\n"
    p = parse_problem(text)
    declared = dict(p.ctx.functions)
    with pytest.raises(FrozenInstanceError, match="sealed"):
        p.ctx.add_function("G", (p.ctx.u,))
    with pytest.raises(FrozenInstanceError, match="sealed"):
        p.ctx.add_function("F", (p.ctx.u,), nonzero=((1,),))
    again = parse_problem(text)
    assert again is p
    assert dict(again.ctx.functions) == declared


def test_a_parsed_context_is_read_only_but_still_interns_jets():
    p = parse_problem(HEAT + "field r: 0, 1, t*u;\n")
    ctx = p.ctx
    before = (ctx.x1, ctx.x2, ctx.dep, dict(ctx.functions))
    for name, value in (("dep", "v"), ("x1", sp.Symbol("y")), ("_sealed", False), ("functions", {})):
        with pytest.raises(FrozenInstanceError, match="read-only"):
            setattr(ctx, name, value)
        with pytest.raises(FrozenInstanceError, match="read-only"):
            delattr(ctx, name)
    assert (ctx.x1, ctx.x2, ctx.dep, dict(ctx.functions)) == before
    with pytest.raises(FrozenInstanceError, match="sealed"):
        ctx.add_function("G", (ctx.u,))
    # the jet-interning tables still grow after the seal
    assert (3, 0) not in [ctx.index(s) for s in p.equation.body.free_symbols]
    s = ctx.jet(3, 0)
    assert ctx.index(s) == (3, 0) and ctx.jet(3, 0) is s and s.name == "u_ttt"


def test_a_shared_parse_keeps_each_text_its_own_facts(tmp_path, capsys):
    """Two texts declare F(u), one with F_u nonvanishing; A's report is the
    same before and after B runs, and B's verdicts are not A's."""
    matrix = bench_matrix()
    body = "vars x y;\ndep u;\nfn F(u)%s;\neq: u_xy = F(u);\nfield d1: 1, 0, 0;\n"
    paths = {}
    for name, assume in (("a", " assume nonzero F_u"), ("b", "")):
        (tmp_path / name).mkdir()
        paths[name] = tmp_path / name / "wave.prob"
        paths[name].write_text(body % assume, encoding="utf-8")
    reports = []
    for name in "aba":
        hits = parse_problem.cache_info().hits
        code = main(["analyze", str(paths[name]), "--json"])
        out, err = capsys.readouterr()
        reports.append(json.dumps(matrix.outcome(code, out, err), sort_keys=True))
    # the second run of A read the parse its first run made
    assert parse_problem.cache_info().hits == hits + 1
    assert reports[0] == reports[2]
    assert reports[0] != reports[1]
    # F_u nonvanishing proves in A what B can only sample
    assert reports[1].count('"sampled"') > reports[0].count('"sampled"')
