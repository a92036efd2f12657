"""Tests of the benchmark itself: span arithmetic, wrapper hygiene, the matrix.

    python3 -m pytest bench/test_bench.py
"""

import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import matrix  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402


def test_self_times_on_synthetic_tree():
    tree = [
        ("root", -1, 0.0, 10.0),
        ("a", 0, 1.0, 4.0),
        ("leaf", 1, 2.0, 3.0),
        ("a", 0, 5.0, 7.0),
        # overlaps the second "a" and runs past the root's end
        ("b", 0, 6.0, 12.0),
    ]
    got = spans.self_times(tree)
    # root: 10 minus the union [1,4] + [5,10] of its children, clipped to it
    assert got["root"] == [1, pytest.approx(2.0)]
    assert got["a"] == [2, pytest.approx((3.0 - 1.0) + 2.0)]
    assert got["leaf"] == [1, pytest.approx(1.0)]
    assert got["b"] == [1, pytest.approx(6.0)]


def test_outermost_seconds_skips_nested_same_label():
    tree = [
        ("n", -1, 0.0, 4.0),
        ("x", 0, 1.0, 3.0),
        ("n", 1, 1.5, 2.5),
        ("n", -1, 5.0, 6.0),
    ]
    assert spans.outermost_seconds(tree, "n") == pytest.approx(5.0)


def _bindings():
    import mpmath
    import sympy

    import redop.jets

    namespaces = [m for name, m in sorted(sys.modules.items())
                  if name == "redop" or name.startswith("redop.")]
    namespaces += [sympy, mpmath, redop.jets.DifferentialFunction]
    return {id(ns): dict(vars(ns)) for ns in namespaces}


def test_install_then_uninstall_restores_every_binding():
    run.import_redop()
    import redop.core
    import redop.runner

    before = _bindings()
    original = redop.core.normalize
    undo = spans.install(spans.Tracer())
    try:
        # normalize is rebound wherever a module imported it from core
        for mod in ("core", "jets", "singular", "reduction", "families", "problems", "runner"):
            assert getattr(sys.modules["redop." + mod], "normalize") is not original
        assert redop.runner.render is redop.report.render
        assert len({label for label, _, _ in spans.TARGETS}) == len(spans.TARGETS)
    finally:
        spans.uninstall(undo)
    after = _bindings()
    assert after.keys() == before.keys()
    for key, names in before.items():
        assert after[key].keys() == names.keys()
        for name, value in names.items():
            assert after[key][name] is value, name


def test_every_target_is_bound_somewhere():
    run.import_redop()
    undo = spans.install(spans.Tracer())
    spans.uninstall(undo)
    wrapped = {id(original) for _, _, original in undo}
    assert len(wrapped) == len(spans.TARGETS)


def test_matrix_matches_corpus_declarations():
    run.import_redop()
    from redop.problems import parse_problem

    n_fields = n_pairs = 0
    for path in matrix.corpus_files():
        text = path.read_text()
        problem = parse_problem(text)
        decl = matrix.declarations(text)
        assert decl["field"] == list(problem.fields), path.name
        assert decl["family"] == list(problem.families), path.name
        assert decl["ansatz"] == list(problem.ansatzes), path.name
        n_fields += len(decl["field"])
        n_pairs += len(decl["field"]) * len(decl["ansatz"])
    n_files = len(matrix.corpus_files())
    symbolic = matrix.symbolic_jobs()
    assert len(symbolic) == 3 * n_files + 3 * n_fields + n_pairs
    assert len({j.key for j in symbolic}) == len(symbolic)
    assert [j.key for j in matrix.bijection_jobs()] == [
        "heat:bijection:family=grow",
        "heat:bijection:family=quad",
        "heat:bijection:family=line",
        "transport:bijection:family=fan",
        "wave_liouville:bijection:family=main",
    ]
    keys = {j.key for j in symbolic + matrix.bijection_jobs()}
    assert keys == set(matrix.load_reference())


def _statuses(entry):
    return [v["status"] for r in entry["report"]["results"] for v in r["verdicts"]]


def _claims(entry):
    return [v["claim"] for r in entry["report"]["results"] for v in r["verdicts"]]


def test_reference_agrees_with_corpus_comments_and_acceptance_gate():
    ref = matrix.load_reference()
    # heat.prob: "zeta = t violates the determining equation"
    assert ref["heat:verify:field=badfield"]["exit"] == 1
    # heat.prob: the Galilei boost is "conditionally invariant";
    # transport.prob: time translation is "a genuine symmetry"
    assert ref["heat:verify:field=galilei"]["exit"] == 0
    assert ref["transport:verify:field=shift"]["exit"] == 0
    # wave_linear.prob: zeta = y "is not a reduction operator"
    assert ref["wave_linear:verify:field=w"]["exit"] == 1
    # ttt.prob: strong co-order 2, weak co-order 1; its analyze is undecidable
    assert "strong singularity co-order = 2" in _claims(ref["ttt:coorder:field=d1"])
    assert "weak co-order is exactly 1" in _claims(ref["ttt:coorder:field=d1"])
    assert ref["ttt:analyze"]["exit"] == 3
    # criterion 5 and 7: the Liouville family is certified, surface included
    liouville = ref["wave_liouville:bijection:family=main"]
    assert liouville["exit"] == 0 and set(_statuses(liouville)) == {"proved"}
    for job in matrix.bijection_jobs():
        assert "%d points exact" % (5 * matrix.BIJECTION_SAMPLES) in str(ref[job.key])
    # criterion 6: the ultra-singular ansatz reduces wave_zero to 0 = 0
    assert "ansatz reduces the equation to the identity 0 = 0" in _claims(
        ref["wave_zero:reduce:field=ult,ansatz=triv"])
    # criterion 8: essential order = weak co-order = parameter count
    for key, order in [
        ("heat:reduce:field=expo,ansatz=sep", 1),
        ("heat:reduce:field=linear,ansatz=quad", 1),
        ("heat:reduce:field=ratio,ansatz=line", 1),
        ("wave_liouville:reduce:field=neg,ansatz=co1", 1),
        ("wave_liouville:reduce:field=flat,ansatz=flatone", 0),
    ]:
        claims = _claims(ref[key])
        assert "essential order of the reduced equation = %d" % order in claims, key


def test_traced_job_matches_reference_and_counts_repeat():
    symbolic, _, reference = run.setup()
    job = next(j for j in symbolic if j.key == "heat:coorder:field=expo")
    tracer = spans.Tracer()
    undo = spans.install(tracer)
    try:
        results = []
        for _ in range(2):
            def child():
                return {"outcome": run.execute(job.argv(3)), "trace": tracer.take()}
            results.append(run.forked(child, run.JOB_LIMIT_S)[0])
    finally:
        spans.uninstall(undo)
    counts = []
    for r in results:
        assert r["outcome"] == reference[job.key]
        counts.append({k: v[0] for k, v in spans.self_times(r["trace"]["spans"]).items()})
    assert counts[0] == counts[1]
    assert counts[0]["cli.main"] == 1 and counts[0]["core.normalize"] > 0


def test_outcome_drops_timing():
    stdout = '{"results": [{"command": "x", "timing_ms": 1.5}], "version": "1"}'
    assert matrix.outcome(0, stdout, "") == {
        "exit": 0, "report": {"results": [{"command": "x"}], "version": "1"}}
    assert matrix.outcome(2, "", "error: bad\n") == {"exit": 2, "error": "error: bad"}


def test_printed_metrics_are_the_declared_ones():
    import json

    declared = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    job = matrix.Job("heat", "analyze")
    outcome = {"exit": 0}
    trace = {"spans": [("cli.main", -1, 0.0, 2.0), ("core.normalize", 0, 0.5, 1.0)],
             "counters": {"core.normalize.noop": 1}, "max_ops": 3}
    r = run.Run({job.key: outcome})
    r.record(job, outcome, 2.0, trace)
    assert not r.failures
    layer = run.per_layer(r)
    assert list(layer) == [m["name"] for m in declared["per_layer"]]
    assert layer["core.self_share"][0] == pytest.approx(0.25)
    assert layer["cli.self_share"][0] == pytest.approx(0.75)
    checked, _ = run.end_to_end(r, "symbolic-cold", [0.5], 1024)
    assert list(checked) == [m["name"] for m in declared["end_to_end"]]
    assert {u for _, u in checked.values()} == {m["unit"] for m in declared["end_to_end"]}
