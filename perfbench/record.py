"""Record the reference answers the benchmark checks against.

    python3 perfbench/record.py

Runs every job of every workload, and of the self-test, once on its base
graph (copy 0) and writes perfbench/references.json.  Work counters
(``candidates_examined``, ``distinct_cuts``) and the per-row list of
``verify`` are left out: they are not answers, and later changes may move
them.  Re-record only at a commit whose answers are known to be right.
"""

from __future__ import annotations

import json
import sys
import time

from run import REFERENCES, ROOT
from graphs import digest
from harness import JOB_CAP_S, import_program, run_job
from workloads import SMOKE, WORKLOADS

NOT_ANSWERS = ("candidates_examined", "distinct_cuts", "rows", "passed", "skipped")


def main() -> int:
    program = import_program(ROOT / "src")
    references = {}
    jobs = [job for jobs in WORKLOADS.values() for job in jobs] + SMOKE
    for job in jobs:
        if job.key in references:
            continue
        inst = job.instances(seed=0)[0]
        assert inst.identity
        outcome = run_job(program, inst, job.argv, JOB_CAP_S)
        if outcome.status != "ok":
            print(f"{job.key}: {outcome.status} {outcome.detail}", file=sys.stderr)
            return 1
        answer = {k: v for k, v in json.loads(outcome.stdout).items() if k not in NOT_ANSWERS}
        references[job.key] = {"digest": digest(job.base.text()), "answer": answer}
        print(f"{job.key:<48} {outcome.seconds:8.3f} s")
    REFERENCES.write_text(json.dumps(references, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(references)} references, {time.process_time():.1f} s CPU")
    return 0


if __name__ == "__main__":
    sys.exit(main())
