"""Checks of every job's outputs; a job whose outputs fail counts as failed.

Each checker takes a :class:`Job` and the directory its outputs went to
(reports plus ``stdout.txt``) and returns a list of problems, empty when
the outputs are right.  Ground truth comes from the paper's published
yeast numbers, from the generator's hidden rules and networks (evaluated
with ``gen.py``, not with ncfinfer), and from report digests recorded in
``reference.json`` on the commit that introduced the benchmark.
"""

import csv
import hashlib
import io
import json
from pathlib import Path

import gen

YEAST_NCF_COUNTS = (0, 2, 2, 1, 12, 14, 4, 3, 336, 61, 2)
YEAST_NONZERO_PRODUCT = 330_559_488
NCF_K5 = 10_624
# sha256 of ncfs_k5.txt; the witness JSON is left out on purpose, because
# duplicate-free enumeration may legitimately pick other witness forms
NCFS_K5_TXT_SHA256 = "2670c9b6da23818712b2bd2cae67f340cc10f6002c2d1a10c212928504b7894e"
FIXED_POINT_STRIDE = 512  # frozen20: evaluate every 512th fixed point

REFERENCE_PATH = Path(__file__).with_name("reference.json")


def sha256(path):
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def load_references():
    if not REFERENCE_PATH.exists():
        return {}
    return json.loads(REFERENCE_PATH.read_text())["seeds"]


def _load_json(path, problems):
    try:
        return json.loads(Path(path).read_text())
    except (OSError, ValueError) as e:
        problems.append(f"{Path(path).name}: unreadable ({e})")
        return None


def check_infer_yeast(job, out):
    problems = []
    doc = _load_json(out / "infer.json", problems)
    if doc is None:
        return problems
    counts = tuple(n.get("ncf_count") for n in doc.get("nodes", []))
    if counts != YEAST_NCF_COUNTS:
        problems.append(f"per-node NCF counts {counts} != {YEAST_NCF_COUNTS}")
    for node in doc.get("nodes", []):
        if len(node.get("ncfs", ())) != node.get("ncf_count"):
            problems.append(f"{node.get('name')}: ncfs list length != ncf_count")
    if doc.get("model_count_nonzero_nodes") != YEAST_NONZERO_PRODUCT:
        problems.append(
            f"nonzero-node product {doc.get('model_count_nonzero_nodes')} "
            f"!= {YEAST_NONZERO_PRODUCT}"
        )
    if doc.get("model_count") != 0:
        problems.append("model_count must be 0: Cln3 has no fitting NCF")
    if str(YEAST_NONZERO_PRODUCT) not in (out / "infer.txt").read_text():
        problems.append("infer.txt lacks the nonzero-node product")
    return problems


def check_enumerate_k5(job, out):
    problems = []
    doc = _load_json(out / "ncfs_k5.json", problems)
    if doc is not None and (doc.get("count"), len(doc.get("ncfs", ()))) != (
        NCF_K5,
        NCF_K5,
    ):
        problems.append(f"census {doc.get('count')} != {NCF_K5}")
    txt = out / "ncfs_k5.txt"
    if sha256(txt) != NCFS_K5_TXT_SHA256:
        problems.append("ncfs_k5.txt digest differs from the reference")
    if (out / "stdout.txt").read_bytes() != txt.read_bytes():
        problems.append("stdout differs from ncfs_k5.txt")
    return problems


def check_check(job, out):
    expected = "".join(f"{node}: ok\n" for node in job.check_nodes)
    got = (out / "stdout.txt").read_text()
    return [] if got == expected else [f"check printed {got!r}, expected {expected!r}"]


def check_infer_hidden(job, out):
    """Every node's hidden generating rule must be among its fitting NCFs."""
    problems = []
    doc = _load_json(out / "infer.json", problems)
    if doc is None:
        return problems
    hidden = gen.load_network(job.inputs["wiring"], job.inputs["hidden"])
    nodes = doc.get("nodes", [])
    if [n.get("name") for n in nodes] != hidden.names:
        return problems + ["node list differs from the wiring"]
    for node, regs, bits in zip(nodes, hidden.regulators, hidden.tables):
        k = len(regs)
        fitting = {gen.table_of_anf(a, k) for a in node.get("ncfs", ())}
        if bits not in fitting:
            problems.append(f"{node['name']}: hidden rule not in the fitting set")
        if len(node.get("ncfs", ())) != node.get("ncf_count"):
            problems.append(f"{node['name']}: ncfs list length != ncf_count")
    return problems


def check_sample(job, out):
    problems = []
    mode, m, n = job.sample_mode, job.samples, job.nodes
    doc = _load_json(out / f"sample_{mode}.json", problems)
    if doc is None:
        return problems
    stats = doc.get("stats", {})
    if (stats.get("mode"), stats.get("seed"), stats.get("sample_count")) != (
        mode,
        job.seed,
        m,
    ):
        problems.append("mode, seed or sample count differ from the request")
    hist = stats.get("histogram", [])
    if sum(hist) != m:
        problems.append(f"histogram sums to {sum(hist)}, not {m}")
    sizes = stats.get("trajectory_sizes", [])
    if len(sizes) != m or not all(1 <= s <= 1 << n for s in sizes):
        problems.append(f"trajectory sizes not {m} values in 1..2^{n}")
    elif abs(stats.get("mean_trajectory_component_size", -1) - sum(sizes) / m) > 1e-9:
        problems.append("mean trajectory size disagrees with the sizes")
    comps = stats.get("component_counts", [])
    if len(comps) != m or not all(1 <= c <= 1 << n for c in comps):
        problems.append(f"component counts not {m} values in 1..2^{n}")
    rows = list(csv.reader(io.StringIO((out / f"sample_{mode}.csv").read_text())))
    if sum(int(r[2]) for r in rows[1:]) != m:
        problems.append(f"histogram CSV does not sum to {m}")
    return problems + _check_digests(job, out)


def _bits_to_state(bits):
    return sum(int(c) << i for i, c in enumerate(bits))


def check_dynamics(job, out):
    problems = []
    doc = _load_json(out / "dynamics.json", problems)
    if doc is None:
        return problems
    net = gen.load_network(job.inputs["wiring"], job.inputs["rules"])
    n = len(net.names)
    sizes = doc.get("component_sizes", [])
    cycles = doc.get("attractors", [])
    if doc.get("states") != 1 << n or sum(sizes) != 1 << n:
        problems.append(f"component sizes do not sum to 2^{n}")
    if not doc.get("components") == len(sizes) == len(cycles):
        problems.append("components, sizes and attractors disagree in number")
    if job.frozen_held:
        free = n - job.frozen_held
        if len(cycles) != 1 << job.frozen_held:
            problems.append(f"{len(cycles)} attractors, expected 2^{job.frozen_held}")
        if any(s != 1 << free for s in sizes) or any(len(c) != 1 for c in cycles):
            problems.append("expected fixed points with components of 2^free states")
        cycles = cycles[::FIXED_POINT_STRIDE]
    for cycle in cycles:
        states = [_bits_to_state(b) for b in cycle]
        for s, t in zip(states, states[1:] + states[:1]):
            if net.step(s) != t:
                problems.append(f"attractor {cycle[:3]} is not a cycle")
                break
    return problems + _check_digests(job, out)


def _check_digests(job, out):
    """Reports byte-identical to the reference, for seeds that have one."""
    expected = job.references.get(str(job.seed), {}).get(job.name)
    if expected is None:
        return []
    got = {name: sha256(out / name) for name in expected}
    return [f"{name} differs from the reference" for name in expected if got[name] != expected[name]]
