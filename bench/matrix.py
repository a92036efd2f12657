"""The corpus job matrix and its recorded reference outputs.

A job is one `redop` command line over a corpus problem file. The matrix is
read from the declarations in the problem files themselves with a scan of
the statement headers, not with `redop.problems.parse_problem`: parsing
registers unknown functions in process-wide tables, and the benchmark's
parent process must hold no such state when it forks a job.
"""

from __future__ import annotations

import json
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
CORPUS = Path("src") / "redop" / "corpus"
REFERENCE = Path(__file__).resolve().parent / "reference.json"

# acceptance criterion 7 certifies surfaces with 50 samples per kappa
BIJECTION_SAMPLES = 50

_DECL = re.compile(r"^(field|family|ansatz)\s+([A-Za-z_][A-Za-z0-9_]*)\s*:")


def declarations(text):
    """{"field": [...], "family": [...], "ansatz": [...]} in file order."""
    out = {"field": [], "family": [], "ansatz": []}
    body = "\n".join(line.split("#", 1)[0] for line in text.splitlines())
    for stmt in body.split(";"):
        m = _DECL.match(stmt.strip())
        if m:
            out[m.group(1)].append(m.group(2))
    return out


def corpus_files():
    return sorted((ROOT / CORPUS).glob("*.prob"))


class Job:
    """One CLI invocation, minus the seed options the workload adds."""

    __slots__ = ("problem", "command", "options")

    def __init__(self, problem, command, options=()):
        self.problem = problem
        self.command = command
        self.options = tuple(options)

    @property
    def key(self):
        opts = ",".join("%s=%s" % kv for kv in self.options)
        return "%s:%s%s" % (self.problem, self.command, ":" + opts if opts else "")

    def argv(self, seed, samples=None):
        argv = [self.command, str(CORPUS / (self.problem + ".prob")), "--json"]
        for name, value in self.options:
            argv += ["--" + name, value]
        if samples is not None:
            argv += ["--samples", str(samples)]
        return argv + ["--seed", str(seed)]


def symbolic_jobs():
    """Every non-bijection job: analyze, detsys per xi, per-field and per-pair jobs."""
    jobs = []
    for path in corpus_files():
        name = path.stem
        decl = declarations(path.read_text())
        jobs.append(Job(name, "analyze"))
        for xi in ("0", "u"):
            jobs.append(Job(name, "detsys", [("xi", xi)]))
        for f in decl["field"]:
            jobs.append(Job(name, "coorder", [("field", f)]))
            jobs.append(Job(name, "verify", [("field", f)]))
            jobs.append(Job(name, "detsys", [("field", f)]))
        for f in decl["field"]:
            for a in decl["ansatz"]:
                jobs.append(Job(name, "reduce", [("field", f), ("ansatz", a)]))
    return jobs


def bijection_jobs():
    """One bijection job per declared solution family."""
    jobs = []
    for path in corpus_files():
        for fam in declarations(path.read_text())["family"]:
            jobs.append(Job(path.stem, "bijection", [("family", fam)]))
    return jobs


def outcome(code, stdout, stderr):
    """The part of a job's output that the reference pins.

    The exit code, plus the JSON report without its `timing_ms` fields, or
    for jobs without a report the error message.
    """
    out = {"exit": code}
    text = stdout.strip()
    if text:
        report = json.loads(text)
        for r in report.get("results", []):
            r.pop("timing_ms", None)
        out["report"] = report
    else:
        out["error"] = stderr.strip()
    return out


def load_reference():
    with open(REFERENCE) as f:
        return json.load(f)["jobs"]
