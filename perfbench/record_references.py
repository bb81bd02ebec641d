"""Record report digests of the sample and dynamics jobs into reference.json.

Run from the root of a checkout:

    python3 perfbench/record_references.py 1 2 3 ...

Each seed's jobs run once; their reports must pass every other check
before their sha256 digests are stored.  The references pin the reports
byte for byte, so record them only on a commit whose reports are known to
be right, never to make a changed report pass.
"""

import json
import os
import shutil
import sys
from pathlib import Path

import check
import gen
import run

RECORDED_WORKLOADS = ("ensemble", "phase-space")


def main(seeds):
    root = Path.cwd()
    env = run.job_env(root)
    work = root / ".perfbench" / f"references-{os.getpid()}"
    refs = check.load_references()
    try:
        for seed in seeds:
            paths = gen.generate(seed, work / f"inputs{seed}")
            entry = refs.setdefault(str(seed), {})
            for workload in RECORDED_WORKLOADS:
                for job in run.build_jobs(workload, seed, paths, {}):
                    result = run.run_job(job, work / f"seed{seed}", False, root, env)
                    shutil.rmtree(work / f"seed{seed}" / job.name)
                    if result["problems"]:
                        raise SystemExit(f"seed {seed} {job.name}: {result['problems']}")
                    entry[job.name] = {
                        k: v for k, v in result["digests"].items() if k != "stdout.txt"
                    }
                    print(f"seed {seed} {job.name}: {entry[job.name]}")
    finally:
        shutil.rmtree(work, ignore_errors=True)
    doc = {"seeds": refs}
    check.REFERENCE_PATH.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main([int(s) for s in sys.argv[1:]])
