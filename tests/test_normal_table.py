"""A report does not depend on what normalize's table of normal forms
(core._normal_value, one per process) held before its command ran: every
benchmark job gives its recorded outcome in bench/reference.json with the
table cleared before each job, and the same outcome again with the table
warm, forward and in reverse. The warm reverse pass adds no entry: every
input it meets was stored by the forward pass."""

import json

from redop import core, parse_problem

from helpers import bench_matrix, job_outcome


def test_every_job_gives_its_reference_with_a_cleared_and_a_warm_table():
    table = core._normal_value
    matrix = bench_matrix()
    recorded = json.loads(matrix.REFERENCE.read_text())
    jobs = matrix.symbolic_jobs() + matrix.bijection_jobs()
    assert sorted(job.key for job in jobs) == sorted(recorded["jobs"])
    problems = {path.stem: parse_problem(path.read_text()) for path in matrix.corpus_files()}

    def outcomes(order, clear):
        got = {}
        for job in order:
            if clear:
                table.cache_clear()
            got[job.key] = job_outcome(matrix, problems[job.problem], job, recorded["seed"])
        return got

    cleared = outcomes(jobs, True)
    assert [key for key, got in cleared.items() if got != recorded["jobs"][key]] == []
    hits = table.cache_info().hits
    assert outcomes(jobs, False) == cleared
    # a second warm pass meets only inputs that the first one stored: the
    # transposed orientation of analyze reuses one flipped context per parse
    misses = table.cache_info().misses
    assert outcomes(jobs[::-1], False) == cleared
    assert table.cache_info().misses == misses
    assert table.cache_info().hits > hits
