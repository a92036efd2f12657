"""A report depends only on its command line, not on what ran before it in
the same process: every benchmark job, run forward and then in reverse in one
process, reproduces its recorded outcome in bench/reference.json."""

import importlib.util
import json
from pathlib import Path

from redop.cli import main

MATRIX = Path(__file__).resolve().parent.parent / "bench" / "matrix.py"


def _load_matrix():
    spec = importlib.util.spec_from_file_location("bench_matrix", MATRIX)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_job_reproduces_its_reference_forward_then_reverse(monkeypatch, capsys):
    matrix = _load_matrix()
    recorded = json.loads(matrix.REFERENCE.read_text())
    jobs = matrix.symbolic_jobs() + matrix.bijection_jobs()
    assert sorted(job.key for job in jobs) == sorted(recorded["jobs"])
    # the job command lines name corpus files relative to the repository root
    monkeypatch.chdir(matrix.ROOT)
    mismatched = []
    for job in jobs + jobs[::-1]:
        samples = matrix.BIJECTION_SAMPLES if job.command == "bijection" else None
        code = main(job.argv(recorded["seed"], samples))
        out, err = capsys.readouterr()
        if matrix.outcome(code, out, err) != recorded["jobs"][job.key]:
            mismatched.append(job.key)
    assert mismatched == []
