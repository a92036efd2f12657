"""Record bench/reference.json: every job's exit code and report, run cold.

    python3 bench/record.py [--seed N]

Each job runs once in a forked child, like a benchmark job. Bijection jobs
run with --samples 50. Re-record only when a change is meant to alter
reports, and say which entries changed.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

import run
from matrix import BIJECTION_SAMPLES, REFERENCE, ROOT, bijection_jobs, symbolic_jobs


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    p.add_argument("--seed", type=int, default=0)
    args = p.parse_args(argv)
    os.chdir(ROOT)
    run.import_redop()
    jobs = {}
    for job in symbolic_jobs() + bijection_jobs():
        samples = BIJECTION_SAMPLES if job.command == "bijection" else None
        argv = job.argv(args.seed, samples)
        outcome = run.forked(lambda: run.execute(argv), run.JOB_LIMIT_S)[0]
        if outcome is None:
            print("error: %s did not finish" % job.key, file=sys.stderr)
            return 1
        jobs[job.key] = outcome
        print(job.key, outcome["exit"])
    with open(REFERENCE, "w") as f:
        json.dump({"seed": args.seed, "samples": BIJECTION_SAMPLES, "jobs": jobs},
                  f, indent=1, sort_keys=True)
        f.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
