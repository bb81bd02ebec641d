"""Benchmark of the ncfinfer CLI: three seeded workloads of fresh-process jobs.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload inference --seed 1 --seconds 40 --trace 0

Each workload is a fixed list of ``ncfinfer`` CLI jobs (see WORKLOADS and
README.md).  A pass runs every job once, one process at a time; passes
repeat until the next one, as long as the longest so far, would end after
``--seconds`` (counted from the start of the run, input generation
included).  Every job's outputs are checked (``check.py``) and a job that
exits nonzero or fails its check counts as failed.

With ``--trace 0`` the last line of stdout is a JSON object whose metrics
are the end-to-end ones: ``wall_s`` (sum over jobs of the mean
spawn-to-exit time), ``setup_s`` (sum over jobs of the median time from
spawn until ``ncfinfer.cli`` is imported and the inputs are parsed), both
expressed at a reference host speed through a fixed control job
(``control.py``) run after every job, and ``peak_rss_mb`` (highest peak RSS
of any job process).  With ``--trace 1`` untraced and traced passes
alternate; the metrics are the per-layer ones from the traced passes
(``tracer.py``), traced reports must be byte-identical to untraced ones,
and ``trace.overhead_ratio`` compares the two kinds of pass.
``--workload all`` runs every workload both ways and prints one table;
``--record FILE`` also writes it, with a record of the machine, as JSON.
"""

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import check  # noqa: E402
import gen  # noqa: E402
from tracer import LAYERS, NCF_CENSUS, cascade_forms  # noqa: E402

JOB_TIMEOUT_S = 60  # the slowest job takes under 10 s
# The reference speed: the control job's mean spawn-to-exit time on the
# reference host.  wall_s and setup_s are scaled by REFERENCE_CONTROL_S / (the
# run's mean control time), so that they read as seconds at that speed.  The
# shared host's CPUs switch between a fast and a 1.6x slower state within
# seconds, and the share of time spent slow drifts over minutes by more than
# any bound; the control job, run after every job, samples the same states
# as the jobs do (see README.md, "Steadiness and run length").
REFERENCE_CONTROL_S = 0.45
# Thread-count variables dropped from the jobs' environment, so that every
# run uses the program's own defaults whatever the caller's shell set.
THREAD_VARS = (
    "NCF_THREADS",
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)
YEAST_WIRING = "src/ncfinfer/data/yeast_wiring.json"
YEAST_COURSE = "src/ncfinfer/data/yeast_timecourse.csv"
YEAST_NODES = 11
CHECK_NODES = ("Sic1",)  # one 5-input node: 122,880 forms on route two
YEAST_SAMPLES = 2000
SYN16_SAMPLES = 200

SPEC_PATH = HERE.parent / "BENCHMARK.json"  # metric names and units
# Counts that must repeat exactly between traced passes of one run.
EXACT_COUNTS = (
    "ncf.forms_per_table.k5",
    "infer.near_miss_embeds",
    "infer.cross_check_forms",
    "boolfun.tables_built",
    "modelspace.sample_calls",
    "dynamics.cycle_states",
    "dynamics.components",
    "cli.bytes_written",
)


@dataclass
class Job:
    """One CLI invocation and what its checker needs to know."""

    name: str
    args: list
    checker: object
    out: bool = True
    seed: int = 0
    inputs: dict = field(default_factory=dict)
    references: dict = field(default_factory=dict)
    check_nodes: tuple = ()
    sample_mode: str = ""
    samples: int = 0
    nodes: int = 0
    frozen_held: int = 0


def build_jobs(workload, seed, paths, references):
    """The workload's job list; ``paths`` come from :func:`gen.generate`."""
    yeast = ["--wiring", YEAST_WIRING, "--timecourse", YEAST_COURSE]
    syn16 = ["--wiring", str(paths["syn16_wiring"])]
    for p in paths["syn16_courses"]:
        syn16 += ["--timecourse", str(p)]
    syn16_inputs = {"wiring": paths["syn16_wiring"], "hidden": paths["syn16_hidden"]}
    common = {"seed": seed, "references": references}
    if workload == "inference":
        return [
            Job("infer-yeast", ["infer", *yeast], check.check_infer_yeast, **common),
            Job("enumerate-k5", ["enumerate-ncfs", "5"], check.check_enumerate_k5, **common),
            Job(
                "check-yeast",
                ["check", *yeast, "--node", *CHECK_NODES],
                check.check_check,
                out=False,
                check_nodes=CHECK_NODES,
                **common,
            ),
            Job(
                "infer-syn16",
                ["infer", *syn16],
                check.check_infer_hidden,
                inputs=syn16_inputs,
                **common,
            ),
        ]
    if workload == "ensemble":
        def sample(name, base, mode, m, nodes):
            return Job(
                name,
                ["sample", *base, "--mode", mode, "-m", str(m), "--seed", str(seed)],
                check.check_sample,
                sample_mode=mode,
                samples=m,
                nodes=nodes,
                **common,
            )

        return [
            sample("sample-ncf-yeast", yeast, "ncf", YEAST_SAMPLES, YEAST_NODES),
            sample("sample-unrestricted-yeast", yeast, "unrestricted", YEAST_SAMPLES, YEAST_NODES),
            sample("sample-ncf-syn16", syn16, "ncf", SYN16_SAMPLES, len(gen.SYN16_IN_DEGREES)),
        ]
    if workload == "phase-space":
        def dynamics(name, held):
            files = {"wiring": paths[f"{name}_wiring"], "rules": paths[f"{name}_rules"]}
            return Job(
                f"dynamics-{name}",
                ["dynamics", "--wiring", str(files["wiring"]), "--rules", str(files["rules"])],
                check.check_dynamics,
                inputs=files,
                frozen_held=held,
                **common,
            )

        return [dynamics("rand21", 0), dynamics("frozen20", gen.FROZEN20_HELD)]
    raise ValueError(f"unknown workload {workload!r}")


WORKLOADS = ("inference", "ensemble", "phase-space")


def job_env(root):
    env = {k: v for k, v in os.environ.items() if k not in THREAD_VARS}
    env["PYTHONPATH"] = str(root / "src")
    # bytecode is cached under the benchmark's own work directory
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    env["PYTHONPYCACHEPREFIX"] = str(root / ".perfbench" / "pycache")
    return env


def _digests(directory):
    return {p.name: check.sha256(p) for p in sorted(directory.iterdir())}


def run_job(job, pass_dir, trace, root, env):
    """Run one job to completion; returns its timings, record and verdict.

    The job's reports and stdout stay in ``pass_dir / job.name``.
    """
    out = pass_dir / job.name
    out.mkdir(parents=True)
    record_path = pass_dir / f"{job.name}.record.json"
    argv = [
        sys.executable,
        str(HERE / "job.py"),
        str(record_path),
        job.name,
        "1" if trace else "0",
        "--",
        *job.args,
    ]
    if job.out:
        argv += ["--out", str(out)]
    stderr_path = pass_dir / f"{job.name}.stderr"
    with open(out / "stdout.txt", "wb") as so, open(stderr_path, "wb") as se:
        t_spawn = time.monotonic()
        proc = subprocess.Popen(argv, stdout=so, stderr=se, env=env, cwd=root)
        timer = threading.Timer(JOB_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        t_exit = time.monotonic()
    proc.returncode = os.waitstatus_to_exitcode(status)
    result = {
        "job": job.name,
        "rc": proc.returncode,
        "wall_s": t_exit - t_spawn,
        "rss_mb": usage.ru_maxrss / 1024,
        "problems": [],
    }
    try:
        record = json.loads(record_path.read_text())
    except (OSError, ValueError):
        record = None
    if proc.returncode != 0 or record is None:
        tail = stderr_path.read_text(errors="replace")[-400:]
        result["problems"].append(f"exit status {proc.returncode}: {tail}")
    else:
        result["setup_s"] = record["t_parsed"] - t_spawn
        result["record"] = record
        try:
            result["problems"] += job.checker(job, out)
        except (OSError, ValueError, KeyError, TypeError, IndexError) as e:
            result["problems"].append(f"checker could not read the outputs: {e!r}")
    result["digests"] = _digests(out)
    result["bytes"] = sum(p.stat().st_size for p in out.iterdir())
    return result


def calibrate():
    """Fixed pure-Python and numpy reference loop, in ms; never rescales."""
    import numpy as np

    t0 = time.perf_counter()
    acc = 0
    for i in range(200_000):
        acc += (i * i) % 7
    a = np.arange(1 << 20, dtype=np.uint32)
    perm = (a * np.uint32(2_654_435_761)) & np.uint32((1 << 20) - 1)
    for _ in range(8):
        a = a[perm]
    return (time.perf_counter() - t0) * 1e3


def run_control(root, env):
    """Spawn-to-exit seconds of the control job (``control.py``)."""
    t_spawn = time.monotonic()
    subprocess.run(
        [sys.executable, str(HERE / "control.py")],
        cwd=root,
        env=env,
        check=True,
        timeout=JOB_TIMEOUT_S,
    )
    return time.monotonic() - t_spawn


def _warm_up(root, env):
    # fills the bytecode cache and the page cache before anything is timed;
    # a program that cannot even be imported shows up as failed jobs
    subprocess.run(
        [sys.executable, "-c", "import ncfinfer.cli"],
        cwd=root,
        env=env,
        stderr=subprocess.DEVNULL,
        timeout=JOB_TIMEOUT_S,
    )


def measure(workload, seed, seconds, trace, root):
    """Run passes of one workload until `seconds` is spent; summarize them."""
    env = job_env(root)
    start = time.monotonic()
    work = root / ".perfbench" / f"run-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    try:
        calib_ms = calibrate()
        paths = gen.generate(seed, work / "inputs")
        jobs = build_jobs(workload, seed, paths, check.load_references())
        _warm_up(root, env)
        controls = [run_control(root, env)]  # the host's speed, after every job too
        kinds = (False, True) if trace else (False,)
        rounds = []
        longest = 0.0
        while True:
            t_round = time.monotonic()
            rounds.append({})
            for traced in kinds:
                pass_dir = work / "pass"
                results = []
                for job in jobs:
                    results.append(run_job(job, pass_dir, traced, root, env))
                    controls.append(run_control(root, env))
                rounds[-1][traced] = results
                shutil.rmtree(pass_dir)
            now = time.monotonic()
            longest = max(longest, now - t_round)
            if now + longest > start + seconds:
                break
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return summarize(rounds, trace, calib_ms, statistics.fmean(controls))


def _median(values):
    return statistics.median(values) if values else 0.0


def summarize(rounds, trace, calib_ms, control_s):
    untraced = [r[False] for r in rounds]
    all_results = [res for r in rounds for results in r.values() for res in results]
    failed = [res for res in all_results if res["problems"]]
    names = [res["job"] for res in untraced[0]]
    per_job = {}
    for i, name in enumerate(names):
        runs = [p[i] for p in untraced if not p[i]["problems"]]
        per_job[name] = {
            "walls": [r["wall_s"] for r in runs],
            # the mean pass, like the mean control time it is scaled by:
            # both are linear in the share of time the host spent slow
            "wall_s": statistics.fmean([r["wall_s"] for r in runs]) if runs else 0.0,
            "setup_s": _median([r["setup_s"] for r in runs]),
            "rss_mb": max((r["rss_mb"] for r in runs), default=0.0),
            "passes": len(runs),
        }
    raw_wall = sum(j["wall_s"] for j in per_job.values())
    raw_setup = sum(j["setup_s"] for j in per_job.values())
    host_scale = REFERENCE_CONTROL_S / control_s
    summary = {
        "attempted": len(all_results),
        "failed": len(failed),
        "problems": sorted({f"{res['job']}: {p}" for res in failed for p in res["problems"]}),
        "passes": len(rounds),
        "per_job": per_job,
        "machine.calib_ms": calib_ms,
        "machine.control_s": control_s,
        "host_scale": host_scale,
        "raw_wall_s": raw_wall,
        "raw_setup_s": raw_setup,
        "end_to_end": {
            "wall_s": raw_wall * host_scale,
            "setup_s": raw_setup * host_scale,
            "peak_rss_mb": max(j["rss_mb"] for j in per_job.values()),
        },
    }
    if trace:
        summary.update(summarize_traced(rounds, calib_ms, control_s))
    return summary


def summarize_traced(rounds, calib_ms, control_s):
    per_pass, ratios, mismatches = [], [], []
    for r in rounds:
        plain, traced = r[False], r[True]
        for a, b in zip(plain, traced):
            if not a["problems"] and not b["problems"] and a["digests"] != b["digests"]:
                mismatches.append(f"{a['job']}: traced outputs differ from untraced")
        if any(res["problems"] for res in plain + traced):
            continue
        ratios.append(sum(x["wall_s"] for x in traced) / sum(x["wall_s"] for x in plain))
        per_pass.append(layer_metrics(traced))
    layers = {}
    if per_pass:
        for key in per_pass[0][0]:
            layers[key] = _median([p[0][key] for p in per_pass])
        for key in EXACT_COUNTS:
            if len({p[0][key] for p in per_pass}) > 1:
                mismatches.append(f"count {key} differs between traced passes")
    layers["trace.overhead_ratio"] = _median(ratios)
    layers["machine.calib_ms"] = calib_ms
    layers["machine.control_s"] = control_s
    return {
        "per_layer": layers,
        "per_job_traced": per_pass[-1][1] if per_pass else {},
        "trace_problems": mismatches,
        "spans": [res["record"] for res in rounds[-1][True] if "record" in res],
    }


def layer_metrics(results):
    """Per-layer metrics of one traced pass, plus a per-job breakdown."""
    records = [res["record"] for res in results]
    spans = [s for rec in records for s in rec["spans"] if s is not None]

    def span_ms(name, job=None):
        return 1e3 * sum(
            s["end"] - s["start"]
            for s in spans
            if s["name"] == name and (job is None or s["job"] == job)
        )

    def leaf(name, key):
        return sum(rec["leaves"].get(name, {}).get(key, 0) for rec in records)

    def counts(name, key, job=None):
        return sum(
            s["counts"].get(key, 0)
            for s in spans
            if s["name"] == name and (job is None or s["job"] == job)
        )

    def rate(name, key, job=None):
        ms = span_ms(name, job)
        return 1e3 * counts(name, key, job) / ms if ms else 0.0

    m = {
        "cli.import_ms": 1e3 * sum(r["t_import"] - r["t_start"] for r in records),
        "cli.parse_ms": sum(
            span_ms(f"cli.{p}") for p in ("parse_wiring", "parse_timecourse", "parse_rules")
        ),
        "cli.bytes_written": sum(res["bytes"] for res in results),
    }
    for layer in LAYERS:
        m[f"{layer}.self_ms"] = 1e3 * sum(r["layer_self_s"][layer] for r in records)
        m[f"{layer}.errors"] = sum(r["errors"][layer] for r in records)

    # enumeration: the first call per arity in each process is the cold one
    cold = {k: [] for k in NCF_CENSUS}
    k5_tables = 0
    for rec in records:
        seen = set()
        for s in sorted((s for s in rec["spans"] if s and s["name"] == "ncf.enumerate_ncfs"), key=lambda s: s["start"]):
            k = s["counts"].get("k")
            if k in cold and k not in seen:
                seen.add(k)
                cold[k].append(1e3 * (s["end"] - s["start"]))
            if k == 5:
                k5_tables = s["counts"]["tables"]
    for k, times in cold.items():
        m[f"ncf.enumerate_ms.k{k}"] = _median(times)
    m["ncf.forms_per_table.k5"] = cascade_forms(5) / k5_tables if k5_tables else 0.0
    m["ncf.anf_lines_ms"] = span_ms("ncf.NcfSet.anf_lines")
    m["ncf.json_records_ms"] = span_ms("ncf.NcfSet.json_records")

    m["boolfun.tables_built"] = leaf("boolfun.TruthTable", "calls") + leaf("boolfun.CoeffVector", "calls")
    m["boolfun.from_int_ms"] = 1e3 * (
        leaf("boolfun.TruthTable.from_int", "s") + leaf("boolfun.CoeffVector.from_int", "s")
    )
    m["boolfun.tt_to_anf_ms"] = 1e3 * leaf("boolfun.tt_to_anf", "s")
    m["boolfun.anf_string_ms"] = 1e3 * leaf("boolfun.anf_string", "s")
    m["modelspace.sample_calls"] = leaf("modelspace.ModelSpace.sample", "calls")
    m["modelspace.sample_ms"] = 1e3 * leaf("modelspace.ModelSpace.sample", "s")

    # local data is extracted several times per node; count each node once
    nodes = {}
    for s in spans:
        if s["name"] == "infer.local_data" and s["counts"]:
            nodes[(s["job"], s["counts"]["node"])] = s["counts"]
    m["infer.local_data_ms"] = span_ms("infer.local_data")
    m["infer.pairs"] = sum(c["pairs"] for c in nodes.values())
    m["infer.distinct_inputs"] = sum(c["distinct_inputs"] for c in nodes.values())
    m["infer.infer_ncfs_ms"] = span_ms("infer.infer_ncfs")
    candidates = counts("infer.infer_ncfs", "candidates")
    m["infer.fit_ratio"] = counts("infer.infer_ncfs", "fitting") / candidates if candidates else 0.0
    m["infer.near_misses_ms"] = span_ms("infer.near_misses")
    embeds = counts("infer.near_misses", "embeds")
    m["infer.near_miss_embeds"] = embeds
    m["infer.near_miss_hit_ratio"] = counts("infer.near_misses", "hits") / embeds if embeds else 0.0
    m["infer.cross_check_ms"] = span_ms("infer.cross_check")
    m["infer.cross_check_forms"] = counts("infer.cross_check", "forms")
    m["infer.infer_all_ms"] = span_ms("infer.infer_all")

    m["dynamics.sample_ensemble_ms"] = span_ms("dynamics.sample_ensemble")
    m["dynamics.samples_per_s"] = rate("dynamics.sample_ensemble", "samples")
    m["dynamics.phase_space_ms"] = span_ms("dynamics.phase_space")
    m["dynamics.states_per_s"] = rate("dynamics.phase_space", "states")
    m["dynamics.cycle_states"] = counts("dynamics.phase_space", "cycle_states")
    m["dynamics.components"] = counts("dynamics.phase_space", "components")
    m["dynamics.kernel_bytes"] = max(
        (s["counts"].get("kernel_bytes", 0) for s in spans if s["name"] == "dynamics.phase_space"),
        default=0,
    )

    per_job = {}
    for res in results:
        job = res["job"]
        breakdown = {
            "dynamics.sample_ensemble_ms": span_ms("dynamics.sample_ensemble", job),
            "dynamics.samples_per_s": rate("dynamics.sample_ensemble", "samples", job),
            "dynamics.phase_space_ms": span_ms("dynamics.phase_space", job),
            "dynamics.states_per_s": rate("dynamics.phase_space", "states", job),
        }
        per_job[job] = {k: v for k, v in breakdown.items() if v}
    return m, per_job


def machine_record(root):
    import numpy as np

    caches = {}
    base = Path("/sys/devices/system/cpu/cpu0/cache")
    for index in sorted(base.glob("index*")) if base.exists() else []:
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            size = (index / "size").read_text().strip()
        except OSError:
            continue
        if kind != "Instruction":
            caches[f"L{level}"] = size
    ram_mb = None
    try:
        for line in Path("/proc/meminfo").read_text().splitlines():
            if line.startswith("MemTotal:"):
                ram_mb = int(line.split()[1]) // 1024
    except OSError:
        pass
    commit = None
    if (root / ".git").exists():
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, text=True
        ).stdout.strip()
    return {
        "cpus": os.cpu_count(),
        "ram_mb": ram_mb,
        "l2": caches.get("L2"),
        "llc": caches[max(caches)] if caches else None,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "commit": commit,
        "loadavg_at_start": os.getloadavg(),
    }


def _result_line(summary, trace, spec):
    correct = summary["failed"] == 0 and not summary.get("trace_problems")
    values = summary["per_layer"] if trace else summary["end_to_end"]
    # when every traced pass failed there are no per-layer values to report
    metrics = {
        m["name"]: {
            "value": values[m["name"]] if correct else values.get(m["name"], 0.0),
            "unit": m["unit"],
        }
        for m in spec["per_layer" if trace else "end_to_end"]
    }
    return {
        "correct": correct,
        "attempted": summary["attempted"],
        "failed": summary["failed"],
        "metrics": metrics,
    }


def _report(workload, summary, trace, units):
    """Human-readable breakdown, on stderr."""
    e2e = summary["end_to_end"]
    rate = summary["failed"] / summary["attempted"]
    w = sys.stderr.write
    w(f"== {workload}: {summary['passes']} rounds, {summary['attempted']} jobs, "
      f"error_rate {rate:.4f} (ratio)\n")
    for name, j in summary["per_job"].items():
        w(f"   {name:28s} cli.job_s.{name} {j['wall_s']:.3f} s  setup {j['setup_s']:.3f} s  "
          f"rss {j['rss_mb']:.0f} MB  passes: {' '.join(f'{t:.3f}' for t in j['walls'])}\n")
    w(f"   wall_s {e2e['wall_s']:.3f} s  setup_s {e2e['setup_s']:.3f} s  "
      f"peak_rss_mb {e2e['peak_rss_mb']:.1f} MB  machine.calib_ms {summary['machine.calib_ms']:.1f} ms\n")
    w(f"   unscaled: wall_s {summary['raw_wall_s']:.3f} s  setup_s {summary['raw_setup_s']:.3f} s  "
      f"(scale {summary['host_scale']:.3f} = {REFERENCE_CONTROL_S:g} s / machine.control_s)\n")
    for p in summary["problems"] + summary.get("trace_problems", []):
        w(f"   FAILED {p}\n")
    if trace:
        for name, j in summary["per_job_traced"].items():
            for k, v in j.items():
                w(f"   {k}.{name} {v:.6g} {units[k]}\n")
        for k, v in summary["per_layer"].items():
            w(f"   {k:34s} {v:.6g} {units[k]}\n")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=40)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", help="with --workload all: write results and machine here")
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "ncfinfer" / "cli.py").is_file():
        sys.stderr.write("perfbench: run from the root of an ncfinfer checkout (no src/ncfinfer)\n")
        return 2
    spec = json.loads(SPEC_PATH.read_text())
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}

    if args.workload != "all":
        summary = measure(args.workload, args.seed, args.seconds, args.trace, root)
        _report(args.workload, summary, args.trace, units)
        if args.trace:
            spans_path = root / ".perfbench" / f"spans-{args.workload}.json"
            spans_path.write_text(json.dumps(summary["spans"]))
        print(json.dumps(_result_line(summary, args.trace, spec)))
        return 0

    machine = machine_record(root)
    sys.stderr.write(f"machine: {json.dumps(machine)}\n")
    table, recorded = [], {}
    for workload in WORKLOADS:
        recorded[workload] = {}
        for trace in (0, 1):
            summary = measure(workload, args.seed, args.seconds, trace, root)
            _report(workload, summary, trace, units)
            result = _result_line(summary, trace, spec)
            recorded[workload][f"trace{trace}"] = result
            if not trace:
                e2e = summary["end_to_end"]
                rate = summary["failed"] / summary["attempted"]
                table.append(
                    f"{workload:12s} wall_s {e2e['wall_s']:8.3f} s   setup_s {e2e['setup_s']:6.3f} s   "
                    f"peak_rss_mb {e2e['peak_rss_mb']:7.1f} MB   error_rate {rate:.3f} ratio"
                )
    print("\n".join(table))
    if args.record:
        Path(args.record).write_text(
            json.dumps(
                {"seed": args.seed, "seconds": args.seconds, "machine": machine, "results": recorded},
                indent=2,
            )
            + "\n"
        )
    print(json.dumps(recorded))
    return 0


if __name__ == "__main__":
    sys.exit(main())
