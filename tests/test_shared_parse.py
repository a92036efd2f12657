"""Commands can share one parse: every benchmark job, run forward and then in
reverse through runner.run on one parse_problem result per corpus file,
reproduces its recorded outcome in bench/reference.json, and no command
declares a function in the problem it was given."""

import json

from redop import parse_problem
from redop.errors import RedopError
from redop.report import FAILED, UNDECIDABLE, emit_report
from redop.runner import run

from helpers import bench_matrix


def _outcome(matrix, problem, job, seed):
    """The job's outcome as redop.cli.main would print it, from the shared parse."""
    options = dict(job.options)
    options.setdefault("xi", "0")
    if job.command == "bijection":
        options["samples"] = matrix.BIJECTION_SAMPLES
    try:
        report = run(job.command, problem, seed=seed, problem_name=job.problem, **options)
    except (RedopError, ValueError) as e:
        return matrix.outcome(2, "", "error: %s" % e)
    code = {FAILED: 1, UNDECIDABLE: 3}.get(report.worst_status, 0)
    return matrix.outcome(code, emit_report(report, "json"), "")


def test_every_job_reproduces_its_reference_on_one_shared_parse():
    matrix = bench_matrix()
    recorded = json.loads(matrix.REFERENCE.read_text())
    jobs = matrix.symbolic_jobs() + matrix.bijection_jobs()
    assert sorted(job.key for job in jobs) == sorted(recorded["jobs"])
    problems = {path.stem: parse_problem(path.read_text()) for path in matrix.corpus_files()}
    declared = {name: dict(p.ctx.functions) for name, p in problems.items()}
    mismatched = []
    for job in jobs + jobs[::-1]:
        got = _outcome(matrix, problems[job.problem], job, recorded["seed"])
        if got != recorded["jobs"][job.key]:
            mismatched.append(job.key)
    assert mismatched == []
    assert {name: dict(p.ctx.functions) for name, p in problems.items()} == declared
