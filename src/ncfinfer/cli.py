"""Command-line surface: subcommands and reports.

The subcommands, their reports and their error objects are described in
the README's ``Command line`` section.
"""

import argparse
import csv
import errno
import hashlib
import io
import json
import os
import sys
import tempfile
from json.encoder import encode_basestring_ascii as _encode_str
from math import prod
from pathlib import Path

from .boolfun import _anf_text
from .dynamics import (
    BooleanNetwork,
    _check_sampling,
    _network_size,
    phase_space,
    sample_ensemble,
    trajectory_component_size,
)
from .errors import ParseError, ToolError
# called by these bare names: the benchmark (perfbench/job.py) times parsing
# by wrapping them on this module
from .formats import parse_rules, parse_timecourse, parse_wiring
from .infer import count_models, cross_check, infer_all, states_as_ints
from .ncf import _census_size, enumerate_ncfs


def _read_input(path):
    data = Path(path).read_bytes()
    try:
        text = data.decode("utf-8-sig")
    except UnicodeDecodeError as e:
        # e.object is the data after any byte order mark; e.start indexes it
        line = e.object.count(b"\n", 0, e.start) + 1
        bad = f"byte 0x{e.object[e.start]:02x} on line {line}"
        raise ParseError(f"{path} is not UTF-8: {bad}", line=line) from e
    return text, hashlib.sha256(data).hexdigest()


class _RawJSON:
    """JSON text of a top-level report value, rendered ahead of the report
    and indented for depth 1; ``_json_chunks`` emits it verbatim."""

    __slots__ = ("text",)

    def __init__(self, text):
        self.text = text


def _json_chunks(report):
    """``json.dumps(report, indent=2, sort_keys=True) + "\\n"`` as a list of
    chunks, byte for byte once joined, for a nonempty dict with string
    keys.  Each value is rendered by ``json.dumps`` and indented one
    level, except a ``_RawJSON`` value, emitted as its own chunk."""
    chunks = []
    lead = "{\n  "
    for key in sorted(report):
        value = report[key]
        chunks.append(f"{lead}{_encode_str(key)}: ")
        if type(value) is _RawJSON:
            chunks.append(value.text)
        else:
            # no string inside a JSON text holds a raw newline, so indenting
            # every line of the stdlib's own rendering places it at depth 1
            dumped = json.dumps(value, indent=2, sort_keys=True)
            chunks.append(dumped.replace("\n", "\n  "))
        lead = ",\n  "
    chunks.append("\n}\n")
    return chunks


def _json_report(obj):
    """``json.dumps(obj, indent=2, sort_keys=True) + "\\n"``, byte for byte."""
    return "".join(_json_chunks(obj))


def _write_outputs(out_dir, outputs):
    # all or nothing: every file is staged in a temporary directory beside
    # its final place and moved in once all are written; a report given as
    # chunks is written chunk by chunk, never joined.  No file may replace
    # a directory, so every target is checked before the first move.
    out = Path(out_dir)
    for name in outputs:
        target = out / name
        if target.is_dir() and not target.is_symlink():
            raise IsADirectoryError(
                errno.EISDIR, os.strerror(errno.EISDIR), str(target)
            )
    out.mkdir(parents=True, exist_ok=True)
    with tempfile.TemporaryDirectory(prefix=".partial-", dir=out) as staging:
        for name, content in outputs.items():
            with (Path(staging) / name).open("w") as f:
                f.writelines([content] if isinstance(content, str) else content)
        for name in outputs:
            os.replace(Path(staging) / name, out / name)


def _load_course_args(args):
    courses, digests = [], []
    for p in args.timecourse:
        text, digest = _read_input(p)
        courses.append(parse_timecourse(text))
        digests.append(digest)
    return courses, digests


def _infer_payload(result, digests):
    nodes_payload = []
    for rec in result.nodes:
        space_log2 = (1 << rec.data.arity) - rec.data.distinct_inputs
        nodes_payload.append(
            {
                "name": rec.name,
                "regulators": list(rec.regulators),
                "in_degree": rec.data.arity,
                "distinct_inputs": rec.data.distinct_inputs,
                "model_space_log2": space_log2,
                "model_space_size": rec.space_size,
                "ncf_count": len(rec.ncfs),
                "ncfs": rec.ncfs.anf_lines(),
                "near_misses": [
                    {
                        "anf": _anf_text(t.to_int(), t.arity),
                        "depends_on": sorted(ess),
                    }
                    for t, ess in rec.near_misses
                ],
                "forced_function": None
                if rec.forced is None
                else _anf_text(rec.forced.to_int(), rec.forced.arity),
            }
        )
    without = [rec.name for rec in result.nodes if len(rec.ncfs) == 0]
    return {
        "inputs": digests,
        "nodes": nodes_payload,
        "model_count": count_models(result),
        "model_count_nonzero_nodes": prod(
            len(rec.ncfs) for rec in result.nodes if rec.ncfs
        ),
        "nodes_without_ncf": without,
    }


def _infer_table(payload):
    headers = ["node", "inputs", "distinct", "|f+I|", "NCFs(k)", "fitting NCFs"]
    rows = [
        [
            n["name"],
            str(n["in_degree"]),
            str(n["distinct_inputs"]),
            str(n["model_space_size"]),
            str(_census_size(n["in_degree"])),
            str(n["ncf_count"]),
        ]
        for n in payload["nodes"]
    ]
    widths = [
        max(len(h), *(len(r[c]) for r in rows)) for c, h in enumerate(headers)
    ]
    lines = [
        "  ".join(h.ljust(w) for h, w in zip(headers, widths)),
        "  ".join("-" * w for w in widths),
    ]
    lines += ["  ".join(v.ljust(w) for v, w in zip(r, widths)) for r in rows]
    lines.append("")
    lines.append(f"nested canalyzing models (product): {payload['model_count']}")
    if payload["nodes_without_ncf"]:
        lines.append(
            f"nodes with no fitting NCF: {', '.join(payload['nodes_without_ncf'])} "
            "(see near_misses in the JSON report)"
        )
        lines.append(
            "product over nodes with at least one fitting NCF: "
            f"{payload['model_count_nonzero_nodes']}"
        )
    return "\n".join(lines) + "\n"


def cmd_infer(args):
    wiring_text, wiring_digest = _read_input(args.wiring)
    wiring = parse_wiring(wiring_text)
    courses, course_digests = _load_course_args(args)
    result = infer_all(wiring, courses, only=args.node)
    payload = _infer_payload(
        result,
        {"wiring_sha256": wiring_digest, "timecourse_sha256": course_digests},
    )
    table = _infer_table(payload)
    sys.stdout.write(table)
    if args.out:
        _write_outputs(
            args.out,
            {"infer.json": _json_chunks(payload), "infer.txt": table},
        )
    return 0


def _ncf_records_json(ncfs, lines):
    # ncfs.json_records() as a top-level value, given ncfs.anf_lines(), each
    # record one f-string of cached int lists and witness heads.  ANF text
    # ([0-9x*+ ]) needs no JSON escaping; an enumerated catalog is never
    # empty.
    lists, heads = {}, {}

    def int_list(t):
        if t not in lists:
            body = ",\n          ".join(map(int.__repr__, t))
            lists[t] = f"[\n          {body}\n        ]"
        return lists[t]

    records = []
    for bits, anf, (order, inputs, outputs) in zip(ncfs._ints, lines, ncfs._forms):
        head = heads.get((inputs, order))
        if head is None:
            head = heads[inputs, order] = (
                f'\n      "witness_form": {{\n        "inputs": {int_list(inputs)},'
                f'\n        "order": {int_list(order)},\n        "outputs": '
            )
        records.append(
            f'{{\n      "anf": "{anf}",\n      "table": {bits},{head}'
            f"{int_list(outputs)}\n      }}\n    }}"
        )
    return _RawJSON("[\n    " + ",\n    ".join(records) + "\n  ]")


def cmd_enumerate(args):
    ncfs = enumerate_ncfs(args.k)
    lines = ncfs.anf_lines()
    text = "\n".join(lines) + "\n"
    sys.stdout.write(text)
    if args.out:
        records = _ncf_records_json(ncfs, lines)
        payload = {"arity": args.k, "count": len(ncfs), "ncfs": records}
        _write_outputs(
            args.out,
            {
                f"ncfs_k{args.k}.txt": text,
                f"ncfs_k{args.k}.json": _json_chunks(payload),
            },
        )
    return 0


def _dynamics_payload(space, inputs):
    from ._engine import _attractor_bits, _decimal

    n = space.n
    return {
        "inputs": inputs,
        "states": 1 << n,
        "components": space.component_count,
        # top-level keys, indented one level; the attractors come first, so
        # the peak of their rendering holds no component sizes text
        "attractors": _RawJSON(
            _attractor_bits(n, space.cycle_states, space.cycle_ends, "\n  ")
        ),
        "component_sizes": _RawJSON(
            "[\n    " + _decimal(space._sizes, ",\n    ") + "\n  ]"
        ),
    }


def _dynamics_summary(space):
    """The stdout line of ``dynamics``, its cycle lengths rendered from
    their array."""
    from ._engine import _cycle_lengths, _decimal

    lengths = _decimal(_cycle_lengths(space.cycle_ends), ", ")
    return (
        f"{1 << space.n} states, {space.component_count} components, "
        f"attractor lengths [{lengths}]\n"
    )


def cmd_dynamics(args):
    wiring_text, wiring_digest = _read_input(args.wiring)
    wiring = parse_wiring(wiring_text)
    rules_text, rules_digest = _read_input(args.rules)
    tables = parse_rules(rules_text, wiring)
    net = BooleanNetwork(wiring, tables)
    courses, digests = _load_course_args(args)
    courses = [states_as_ints(wiring, c) for c in courses]
    space = phase_space(net)
    payload = _dynamics_payload(
        space, {"wiring_sha256": wiring_digest, "rules_sha256": rules_digest}
    )
    if courses:
        payload["inputs"]["timecourse_sha256"] = digests
        payload["trajectory_component_sizes"] = [
            trajectory_component_size(space, c) for c in courses
        ]
    sys.stdout.write(_dynamics_summary(space))
    if args.out:
        _write_outputs(args.out, {"dynamics.json": _json_chunks(payload)})
    return 0


def _histogram_csv(stats):
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["basin_size_low", "basin_size_high", "networks"])
    for b, count in enumerate(stats.histogram):
        writer.writerow([b * stats.bin_width + 1, (b + 1) * stats.bin_width, count])
    return buf.getvalue()


def cmd_sample(args):
    wiring_text, wiring_digest = _read_input(args.wiring)
    wiring = parse_wiring(wiring_text)
    # fail before inference, not after it
    _network_size(wiring)
    _check_sampling(args.samples, args.seed)
    courses, course_digests = _load_course_args(args)
    result = infer_all(wiring, courses)
    stats = sample_ensemble(result, args.samples, args.seed, args.mode)
    payload = {
        "inputs": {"wiring_sha256": wiring_digest, "timecourse_sha256": course_digests},
        "stats": stats.as_dict(),
    }
    sys.stdout.write(
        f"mode={stats.mode} samples={stats.sample_count} seed={stats.seed}\n"
        f"mean components: {stats.mean_components}\n"
        f"mean trajectory component size: {stats.mean_trajectory_component_size}\n"
        f"trajectory not in largest component: "
        f"{stats.count_trajectory_not_in_largest} samples"
        + (
            f" (mean size {stats.mean_size_when_not_largest})"
            if stats.count_trajectory_not_in_largest
            else ""
        )
        + "\n"
    )
    if args.out:
        _write_outputs(
            args.out,
            {
                f"sample_{args.mode}.json": _json_chunks(payload),
                f"sample_{args.mode}.csv": _histogram_csv(stats),
            },
        )
    return 0


def cmd_check(args):
    wiring_text, _ = _read_input(args.wiring)
    wiring = parse_wiring(wiring_text)
    courses, _ = _load_course_args(args)
    names = [args.node] if args.node else list(wiring.nodes)
    failures = []
    for name in names:
        ok = cross_check(wiring, courses, wiring.index(name))
        sys.stdout.write(f"{name}: {'ok' if ok else 'MISMATCH'}\n")
        if not ok:
            failures.append(name)
    if failures:
        raise ToolError(
            f"dual-route inference disagrees on nodes {failures}",
            nodes=failures,
        )
    return 0


def build_parser():
    parser = argparse.ArgumentParser(
        prog="ncfinfer",
        description="Infer and analyze nested canalyzing Boolean network models.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_io(p, timecourse=True, out=True):
        p.add_argument("--wiring", required=True, help="wiring diagram JSON file")
        if timecourse:
            p.add_argument(
                "--timecourse",
                action="append",
                required=True,
                help="time-course CSV file (repeatable)",
            )
        if out:
            p.add_argument("--out", help="directory for report files")

    p = sub.add_parser("infer", help="all fitting NCFs per node")
    add_io(p)
    p.add_argument("--node", help="restrict inference to one node")
    p.set_defaults(func=cmd_infer)

    p = sub.add_parser("enumerate-ncfs", help="catalog of all NCFs on k inputs")
    p.add_argument("k", type=int)
    p.add_argument("--out", help="directory for report files")
    p.set_defaults(func=cmd_enumerate)

    p = sub.add_parser("dynamics", help="phase space of one specified model")
    p.add_argument("--wiring", required=True, help="wiring diagram JSON file")
    p.add_argument("--rules", required=True, help="ANF rules JSON file")
    p.add_argument(
        "--timecourse",
        action="append",
        default=[],
        help="optional time course; reports its component size",
    )
    p.add_argument("--out", help="directory for report files")
    p.set_defaults(func=cmd_dynamics)

    p = sub.add_parser("sample", help="ensemble statistics over sampled models")
    add_io(p)
    p.add_argument("--mode", choices=["ncf", "unrestricted"], required=True)
    p.add_argument("--samples", "-m", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.set_defaults(func=cmd_sample)

    p = sub.add_parser("check", help="dual-route inference validation")
    add_io(p, out=False)
    p.add_argument("--node", help="restrict the check to one node")
    p.set_defaults(func=cmd_check)

    return parser


def run(argv=None):
    # numpy's BLAS is never called, so its thread pool would only cost
    # start-up time; a value the user sets is kept
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ToolError as e:
        sys.stderr.write(
            _json_report(
                {
                    "error": {
                        "type": type(e).__name__,
                        "message": str(e),
                        **e.context,
                    }
                }
            )
        )
        return 1
    except (ValueError, KeyError, OSError) as e:
        # str(KeyError) wraps its argument in quotes; unwrap for readability
        message = e.args[0] if isinstance(e, KeyError) and e.args else str(e)
        sys.stderr.write(
            _json_report({"error": {"type": type(e).__name__, "message": message}})
        )
        return 1


def main():
    sys.exit(run())
