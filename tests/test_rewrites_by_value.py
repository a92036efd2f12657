"""Every rewrite that the kernel makes on the benchmark's jobs keeps the value.

All benchmark jobs run in one process, with normalize's table cleared so that
each input meets the rewrite step, core._normal_pass. Each input that a pass
rewrote, and each value that split_nonvanishing split, is evaluated beside its
result (the product multiplier*residual for a split) at seeded rational points.
Each atom and each unknown-function node gets one value per point, the same on
both sides. Where either side is not finite and real at a point, that point is
skipped and counted.
"""

import json
import random

import sympy as sp

from redop import core, singular
from redop.cli import main
from redop.core import arbitrary_elements, fingerprint

from helpers import bench_matrix

POINTS = 2
DIGITS = 40
TOLERANCE = sp.Float("1e-25", DIGITS)
# numerators and denominators of the point coordinates
BOUND = 50


def _points(a, b):
    """POINTS maps from each atom and unknown-function node of a and b to a
    nonzero rational, drawn from a generator seeded with both values."""
    rng = random.Random("%s|%s" % (fingerprint(a), fingerprint(b)))
    nodes = sorted(set().union(*(e.free_symbols | arbitrary_elements(e) for e in (a, b))),
                   key=sp.default_sort_key)
    for _ in range(POINTS):
        yield {n: sp.Rational(rng.choice((-1, 1)) * rng.randint(1, BOUND), rng.randint(1, BOUND))
               for n in nodes}


def _value(e, point):
    """e at point to DIGITS digits, or None where that is not finite and real."""
    v = sp.N(e.xreplace(point), DIGITS)
    return v if v.is_number and v.is_real and v.is_finite else None


def test_every_rewrite_on_the_benchmark_jobs_keeps_the_value(monkeypatch, capsys):
    matrix = bench_matrix()
    recorded = json.loads(matrix.REFERENCE.read_text())
    jobs = matrix.symbolic_jobs() + matrix.bijection_jobs()
    assert sorted(job.key for job in jobs) == sorted(recorded["jobs"])
    pairs = {}
    normal_pass, split = core._normal_pass, core.split_nonvanishing

    def rewrite(e):
        n, general = normal_pass(e)
        if n != e:
            pairs[e, n] = "rewrite"
        return n, general

    def split_and_record(e):
        multiplier, residual = split(e)
        pairs[e, multiplier * residual] = "split"
        return multiplier, residual

    core._normal_value.cache_clear()
    monkeypatch.setattr(core, "_normal_pass", rewrite)
    monkeypatch.setattr(singular, "split_nonvanishing", split_and_record)
    # the job command lines name corpus files relative to the repository root
    monkeypatch.chdir(matrix.ROOT)
    for job in jobs:
        samples = matrix.BIJECTION_SAMPLES if job.command == "bijection" else None
        main(job.argv(recorded["seed"], samples))
        capsys.readouterr()
    monkeypatch.undo()
    assert "rewrite" in pairs.values() and "split" in pairs.values()

    skipped = 0
    wrong = []
    for (a, b), kind in pairs.items():
        for point in _points(a, b):
            va, vb = _value(a, point), _value(b, point)
            if va is None or vb is None:
                skipped += 1
            elif abs(va - vb) > TOLERANCE * max(abs(va), abs(vb)):
                wrong.append("%s: %s -> %s (%s != %s)" % (kind, a, b, va, vb))
    kinds = list(pairs.values())
    print("%d rewrites and %d splits checked at %d points each, %d points skipped"
          % (kinds.count("rewrite"), kinds.count("split"), POINTS, skipped))
    assert wrong == []
    assert skipped < len(pairs)
