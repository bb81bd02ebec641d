"""Show that the output checker catches corrupted reports.

Run from the root of a checkout:

    python3 perfbench/selftest.py

Runs every job of every workload once at seed 1, keeps its outputs, then
for each job applies one deliberate corruption to a copy of them and runs
the job's checker again.  Exits 1 unless every untouched output passes and
every corrupted one is caught.
"""

import json
import os
import shutil
import sys
from pathlib import Path

import check
import gen
import run

SEED = 1


def _edit_json(path, change):
    doc = json.loads(path.read_text())
    change(doc)
    path.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")


def _bump_ncf_count(doc):
    doc["nodes"][8]["ncf_count"] += 1  # Sic1: 336 -> 337


def _drop_hidden_rules(doc):
    for node in doc["nodes"]:
        node["ncfs"] = node["ncfs"][:-1]
        node["ncf_count"] = len(node["ncfs"])


def _move_one_sample(doc):
    hist = doc["stats"]["histogram"]
    i = next(b for b, c in enumerate(hist) if c)
    hist[i] -= 1
    hist[(i + 1) % len(hist)] += 1  # still sums to -m; only the digest sees it


def _grow_first_component(doc):
    doc["component_sizes"][0] += 1


def _drop_last_line(path):
    lines = path.read_text().splitlines(keepends=True)
    path.write_text("".join(lines[:-1]))


def _mismatch(path):
    path.write_text(path.read_text().replace(": ok", ": MISMATCH"))


# job name -> (file, corruption, what it imitates)
CORRUPTIONS = {
    "infer-yeast": ("infer.json", lambda p: _edit_json(p, _bump_ncf_count), "one NCF too many"),
    "enumerate-k5": ("ncfs_k5.txt", _drop_last_line, "one NCF missing from the catalog"),
    "check-yeast": ("stdout.txt", _mismatch, "route disagreement"),
    "infer-syn16": ("infer.json", lambda p: _edit_json(p, _drop_hidden_rules), "fitting sets cut short"),
    "sample-ncf-yeast": ("sample_ncf.json", lambda p: _edit_json(p, _move_one_sample), "one sample in the wrong bin"),
    "sample-unrestricted-yeast": ("sample_unrestricted.json", lambda p: _edit_json(p, _move_one_sample), "one sample in the wrong bin"),
    "sample-ncf-syn16": ("sample_ncf.json", lambda p: _edit_json(p, _move_one_sample), "one sample in the wrong bin"),
    "dynamics-rand21": ("dynamics.json", lambda p: _edit_json(p, _grow_first_component), "component sizes off by one"),
    "dynamics-frozen20": ("dynamics.json", lambda p: _edit_json(p, _grow_first_component), "component sizes off by one"),
}


def main():
    root = Path.cwd()
    env = run.job_env(root)
    work = root / ".perfbench" / f"selftest-{os.getpid()}"
    refs = check.load_references()
    ok = True
    try:
        paths = gen.generate(SEED, work / "inputs")
        for workload in run.WORKLOADS:
            for job in run.build_jobs(workload, SEED, paths, refs):
                clean = run.run_job(job, work / "clean", False, root, env)["problems"]
                out = work / "clean" / job.name
                bad = work / "corrupt" / job.name
                shutil.copytree(out, bad)
                name, corrupt, what = CORRUPTIONS[job.name]
                corrupt(bad / name)
                caught = job.checker(job, bad)
                verdict = "ok" if not clean and caught else "FAIL"
                ok &= verdict == "ok"
                print(f"{verdict:4s} {job.name:26s} clean: {clean or 'passes'}; "
                      f"{what} in {name}: {caught or 'NOT CAUGHT'}")
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
