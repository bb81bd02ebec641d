import builtins
import hashlib
import json
import os
import random
import subprocess
import sys
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ncfinfer
import oracles
import strategies
from ncfinfer import _engine, cli, formats
from ncfinfer import ncf as ncf_module
from ncfinfer._engine import _attractor_bits, _decimal
from ncfinfer.cli import run
from ncfinfer.datasets import yeast_timecourse_path, yeast_wiring_path
from ncfinfer.dynamics import _analyze
from ncfinfer.errors import ParseError, ToolError
from ncfinfer.formats import (
    parse_rules,
    parse_timecourse,
    parse_wiring,
    serialize_timecourse,
    serialize_wiring,
)
from ncfinfer.infer import TimeCourse, WiringDiagram, infer_all
from ncfinfer.ncf import enumerate_ncfs

WIRING_AB = '{"nodes": ["A", "B"], "regulators": {"A": ["B"], "B": ["A", "B"]}}'


def test_parse_wiring():
    w = parse_wiring(WIRING_AB)
    assert w.nodes == ("A", "B")
    assert w.regulators == ((1,), (0, 1))
    single = parse_wiring('{"nodes":["A"],"regulators":{"A":["A"]}}')
    assert single.regulators == ((0,),)


def test_parse_wiring_yeast_in_degrees():
    w = parse_wiring(yeast_wiring_path().read_text())
    assert w.in_degrees == (1, 3, 3, 1, 4, 4, 3, 3, 5, 5, 3)


def test_parse_wiring_errors():
    with pytest.raises(ParseError):
        parse_wiring("not json")
    with pytest.raises(ParseError):
        parse_wiring('{"nodes": ["A"]}')
    with pytest.raises(ParseError):
        parse_wiring('{"nodes": ["A", "A"], "regulators": {"A": []}}')
    with pytest.raises(ParseError):  # absent regulator name
        parse_wiring('{"nodes": ["A"], "regulators": {"A": ["Z"]}}')
    with pytest.raises(ParseError):  # missing regulator list
        parse_wiring('{"nodes": ["A", "B"], "regulators": {"A": []}}')
    with pytest.raises(ParseError):  # in-degree above the cap
        parse_wiring(
            json.dumps(
                {
                    "nodes": list("ABCDEFG"),
                    "regulators": {
                        "A": list("ABCDEF"),
                        **{n: [] for n in "BCDEFG"},
                    },
                }
            )
        )


def test_wiring_round_trip():
    w = parse_wiring(WIRING_AB)
    assert parse_wiring(serialize_wiring(w)).regulators == w.regulators
    yw = parse_wiring(yeast_wiring_path().read_text())
    again = parse_wiring(serialize_wiring(yw))
    assert again.nodes == yw.nodes and again.regulators == yw.regulators


def test_parse_timecourse_yeast():
    tc = parse_timecourse(yeast_timecourse_path().read_text())
    assert len(tc.rows) == 13 and len(tc.nodes) == 11
    assert tc.rows[0] == (1, 0, 0, 0, 1, 0, 0, 0, 1, 0, 0)


def test_parse_timecourse_small_and_errors():
    tc = parse_timecourse("A,B\n0,1\n1,1\n")
    assert len(tc.rows) == 2  # exactly one transition pair
    with pytest.raises(ParseError) as err:
        parse_timecourse("A,B\n0,2\n1,1\n")
    assert err.value.context.get("line") == 2
    with pytest.raises(ParseError):
        parse_timecourse("A,B\n0\n")
    with pytest.raises(ParseError):
        parse_timecourse("A,B\n")


def test_timecourse_round_trip():
    text = yeast_timecourse_path().read_text()
    tc = parse_timecourse(text)
    again = parse_timecourse(serialize_timecourse(tc))
    assert again.nodes == tc.nodes and again.rows == tc.rows


def test_parse_rules():
    w = parse_wiring(WIRING_AB)
    tables = parse_rules('{"rules": {"A": "1 + x1", "B": "x1*x2"}}', w)
    assert tables[0].values == (1, 0)
    assert tables[1].values == (0, 0, 0, 1)
    with pytest.raises(ParseError):
        parse_rules('{"rules": {"A": "1 + x1"}}', w)
    with pytest.raises(ParseError):
        parse_rules('{"rules": {"A": "x2", "B": "x1"}}', w)  # arity 1 for A
    with pytest.raises(ParseError):
        parse_rules('{"rules": {"A": "x1", "B": "x1", "C": "x1"}}', w)


@pytest.fixture()
def yeast_files(tmp_path):
    wiring = tmp_path / "wiring.json"
    course = tmp_path / "course.csv"
    wiring.write_text(yeast_wiring_path().read_text())
    course.write_text(yeast_timecourse_path().read_text())
    return str(wiring), str(course)


def test_run_infer(yeast_files, tmp_path, capsys):
    wiring, course = yeast_files
    out = tmp_path / "out"
    code = run(
        ["infer", "--wiring", wiring, "--timecourse", course, "--out", str(out)]
    )
    assert code == 0
    table = capsys.readouterr().out
    assert "330559488" in table
    payload = json.loads((out / "infer.json").read_text())
    assert [n["ncf_count"] for n in payload["nodes"]] == [
        0, 2, 2, 1, 12, 14, 4, 3, 336, 61, 2,
    ]
    assert payload["model_count_nonzero_nodes"] == 330_559_488
    assert payload["inputs"]["wiring_sha256"]
    assert (out / "infer.txt").read_text() == table


def test_run_infer_single_node(yeast_files, capsys):
    wiring, course = yeast_files
    assert run(["infer", "--wiring", wiring, "--timecourse", course,
                "--node", "Swi5"]) == 0
    out = capsys.readouterr().out
    assert "Swi5" in out and "Cdh1" not in out


def test_run_infer_reads_files_led_by_a_utf8_bom(yeast_files, tmp_path, capsys):
    # spreadsheet tools save CSV led by a byte order mark; the digests stay
    # over the raw bytes, so only they differ
    wiring, course = yeast_files
    bom_wiring, bom_course = tmp_path / "bom.json", tmp_path / "bom.csv"
    bom_wiring.write_bytes(b"\xef\xbb\xbf" + Path(wiring).read_bytes())
    bom_course.write_bytes(b"\xef\xbb\xbf" + Path(course).read_bytes())
    reports = []
    for w, c, out in ((wiring, course, "plain"), (bom_wiring, bom_course, "bom")):
        assert run(["infer", "--wiring", str(w), "--timecourse", str(c),
                    "--out", str(tmp_path / out)]) == 0
        payload = json.loads((tmp_path / out / "infer.json").read_text())
        digests = payload.pop("inputs")
        reports.append((capsys.readouterr().out, payload, digests))
    (plain_out, plain, plain_digests), (bom_out, bom, bom_digests) = reports
    assert bom_out == plain_out and bom == plain
    assert bom_digests == {
        "wiring_sha256": hashlib.sha256(bom_wiring.read_bytes()).hexdigest(),
        "timecourse_sha256": [hashlib.sha256(bom_course.read_bytes()).hexdigest()],
    }
    assert bom_digests != plain_digests


def test_run_enumerate(tmp_path, capsys):
    out = tmp_path / "o"
    assert run(["enumerate-ncfs", "3", "--out", str(out)]) == 0
    lines = [l for l in capsys.readouterr().out.splitlines() if l]
    assert len(lines) == 64
    payload = json.loads((out / "ncfs_k3.json").read_text())
    assert payload["count"] == 64


def test_run_enumerate_rejects_a_negative_arity(tmp_path, capsys):
    out = tmp_path / "o"
    assert run(["enumerate-ncfs", "-1", "--out", str(out)]) == 1
    err = json.loads(capsys.readouterr().err)["error"]
    assert err["type"] == "ValueError" and "-1" in err["message"]
    assert not out.exists()


@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_catalog_report_matches_the_stdlib(k, tmp_path, capsys):
    # every cascade's table once, ascending, with its first form in the
    # oracle's generation order as witness; at k = 5 the golden digest of
    # ncfs_k5.json is the check
    out = tmp_path / "o"
    assert run(["enumerate-ncfs", str(k), "--out", str(out)]) == 0
    capsys.readouterr()
    records = [
        {
            "anf": oracles.anf_text([(bits >> p) & 1 for p in range(1 << k)], k),
            "table": bits,
            "witness_form": dict(
                zip(("order", "inputs", "outputs"), map(list, forms[0]))
            ),
        }
        for bits, forms in sorted(oracles.cascade_forms_by_table(k).items())
    ]
    payload = {"arity": k, "count": len(records), "ncfs": records}
    assert (out / f"ncfs_k{k}.json").read_text() == (
        json.dumps(payload, indent=2, sort_keys=True) + "\n"
    )


def test_run_dynamics(tmp_path, capsys):
    wiring = tmp_path / "w.json"
    rules = tmp_path / "r.json"
    wiring.write_text('{"nodes": ["A"], "regulators": {"A": ["A"]}}')
    rules.write_text('{"rules": {"A": "1 + x1"}}')
    out = tmp_path / "out"
    assert run(["dynamics", "--wiring", str(wiring), "--rules", str(rules),
                "--out", str(out)]) == 0
    payload = json.loads((out / "dynamics.json").read_text())
    assert payload["components"] == 1
    assert payload["attractors"] == [["0", "1"]]


@st.composite
def functional_graphs(draw):
    """A map on 2^n states (n <= 8) with cycles of mixed lengths.

    The cycles run through the first states of a random order; every other
    state maps to a state before it in that order, so it reaches a cycle
    and closes none of its own.
    """
    n = draw(st.integers(1, 8))
    size = 1 << n
    lengths = draw(st.lists(st.integers(1, 9), min_size=1, max_size=12))
    rng = draw(st.randoms(use_true_random=False))
    order = list(range(size))
    rng.shuffle(order)
    succ, at = [None] * size, 0
    for length in lengths:
        cycle = order[at:at + length]
        if not cycle:
            break
        for a, b in zip(cycle, cycle[1:] + cycle[:1]):
            succ[a] = b
        at += len(cycle)
    for j in range(at, size):
        succ[order[j]] = order[rng.randrange(j)]
    return n, succ


def _state_word(n, state):
    return "".join(str((state >> i) & 1) for i in range(n))


@settings(derandomize=True, max_examples=150, deadline=None)
@given(functional_graphs(), st.sampled_from([None, 1, 5]))
def test_dynamics_report_matches_the_oracle(graph, block):
    n, succ = graph
    # a small block runs the kernel's gathers and scatters over several
    # blocks
    with mock.patch.object(_engine, "_BLOCK", block or _engine._BLOCK):
        space = _analyze(np.array(succ, dtype=np.uint32), n)
        inputs = {"wiring_sha256": "w", "rules_sha256": "r"}
        report = cli._json_report(cli._dynamics_payload(space, inputs))
        alone = _attractor_bits(n, space.cycle_states, space.cycle_ends, "\n")
    _, cycles, sizes = oracles.functional_graph(succ)
    expected = {
        "inputs": inputs,
        "states": 1 << n,
        "components": len(cycles),
        "component_sizes": list(sizes),
        "attractors": [[_state_word(n, s) for s in cycle] for cycle in cycles],
    }
    assert report == json.dumps(expected, indent=2, sort_keys=True) + "\n"
    # the stdout line renders the cycle lengths from their array
    assert cli._dynamics_summary(space) == (
        f"{1 << n} states, {len(cycles)} components, "
        f"attractor lengths {str([len(c) for c in cycles])}\n"
    )
    # at depth 0 the attractor list alone is the stdlib's whole rendering
    assert alone == json.dumps(expected["attractors"], indent=2)
    # the cached tuples stay unbuilt
    assert "attractors" not in vars(space)
    assert "component_sizes" not in vars(space)


@pytest.mark.parametrize("sep", [", ", ",\n    "])
def test_decimal_matches_str_join_at_digit_boundaries(sep):
    # every power of ten and the value below it, up to 2^24 states
    edges = sorted({1, 1 << 24} | {
        v for d in range(1, 8) for v in (10 ** d - 1, 10 ** d)
    })
    for values in (edges, edges[::-1], [7], [1 << 24], [10] * 5, [1] * 9):
        for dtype in (np.int64, np.uint32):
            array = np.array(values, dtype=dtype)
            assert _decimal(array, sep) == sep.join(map(str, values))


def test_dynamics_leaves_the_attractor_tuples_unbuilt(
    yeast_files, yeast_result, tmp_path, capsys, monkeypatch
):
    wiring, course = yeast_files
    rules = tmp_path / "rules.json"
    rules.write_text(_yeast_rules(yeast_result))
    real, spaces = cli.phase_space, []

    def recorded(net):
        spaces.append(real(net))
        return spaces[-1]

    monkeypatch.setattr(cli, "phase_space", recorded)
    assert run(["dynamics", "--wiring", wiring, "--rules", str(rules),
                "--timecourse", course, "--out", str(tmp_path / "out")]) == 0
    assert capsys.readouterr().out == (
        "2048 states, 4 components, attractor lengths [1, 1, 1, 2]\n"
    )
    (space,) = spaces
    # the course's size comes from the sizes array, not from the tuple
    assert "attractors" not in vars(space)
    assert "component_sizes" not in vars(space)
    payload = json.loads((tmp_path / "out" / "dynamics.json").read_text())
    assert [len(c) for c in payload["attractors"]] == [1, 1, 1, 2]
    # the property still builds the tuples on request, matching the report
    assert [len(c) for c in space.attractors] == [1, 1, 1, 2]


def _yeast_rules(result):
    # a fully specified fitting model: one fitting NCF per node, the forced
    # constant for Cln3
    from ncfinfer.boolfun import anf_string, tt_to_anf

    anf_of = {
        rec.name: rec.ncfs.anf_lines()[0]
        if rec.ncfs.members
        else anf_string(tt_to_anf(rec.forced))
        for rec in result.nodes
    }
    return json.dumps({"rules": anf_of})


def test_run_dynamics_with_trajectory(yeast_files, yeast_result, tmp_path):
    wiring, course = yeast_files
    rules = tmp_path / "rules.json"
    rules.write_text(_yeast_rules(yeast_result))
    out = tmp_path / "out"
    assert run(["dynamics", "--wiring", wiring, "--rules", str(rules),
                "--timecourse", course, "--out", str(out)]) == 0
    payload = json.loads((out / "dynamics.json").read_text())
    assert len(payload["trajectory_component_sizes"]) == 1
    assert payload["trajectory_component_sizes"][0] >= 13


def test_run_sample_reports(yeast_files, tmp_path):
    wiring, course = yeast_files
    out1, out2 = tmp_path / "a", tmp_path / "b"
    args = ["sample", "--wiring", wiring, "--timecourse", course,
            "--mode", "ncf", "-m", "25", "--seed", "4"]
    assert run(args + ["--out", str(out1)]) == 0
    assert run(args + ["--out", str(out2)]) == 0
    assert (out1 / "sample_ncf.json").read_bytes() == (
        out2 / "sample_ncf.json"
    ).read_bytes()
    assert (out1 / "sample_ncf.csv").read_bytes() == (
        out2 / "sample_ncf.csv"
    ).read_bytes()
    rows = (out1 / "sample_ncf.csv").read_text().splitlines()
    assert rows[0] == "basin_size_low,basin_size_high,networks"
    assert len(rows) == 33
    total = sum(int(r.split(",")[2]) for r in rows[1:])
    assert total == 25


def test_run_check(yeast_files, capsys):
    wiring, course = yeast_files
    assert run(["check", "--wiring", wiring, "--timecourse", course,
                "--node", "MBF"]) == 0
    assert "MBF: ok" in capsys.readouterr().out


def test_node_without_regulators(tmp_path, capsys):
    wiring = tmp_path / "w.json"
    course = tmp_path / "c.csv"
    # A has no regulators; its constant data forces the function 1
    wiring.write_text(
        '{"nodes": ["A", "B"], "regulators": {"A": [], "B": ["A", "B"]}}'
    )
    course.write_text("A,B\n1,0\n1,1\n1,1\n")
    io_args = ["--wiring", str(wiring), "--timecourse", str(course)]
    out = tmp_path / "out"
    assert run(["infer", *io_args, "--out", str(out)]) == 0
    a = json.loads((out / "infer.json").read_text())["nodes"][0]
    assert a["ncf_count"] == 0 and a["forced_function"] == "1"
    for mode in ("ncf", "unrestricted"):
        sample = ["sample", *io_args, "--mode", mode, "-m", "5", "--seed", "1"]
        assert run(sample) == 0
    capsys.readouterr()
    assert run(["check", *io_args]) == 0
    assert capsys.readouterr().out == "A: ok\nB: ok\n"


def test_run_error_is_machine_readable(tmp_path, capsys):
    wiring = tmp_path / "w.json"
    course = tmp_path / "c.csv"
    wiring.write_text('{"nodes": ["A"], "regulators": {"A": ["A"]}}')
    course.write_text("A\n0\n1\n0\n0\n")  # (0 -> 1) vs (0 -> 0)
    code = run(["infer", "--wiring", str(wiring), "--timecourse", str(course)])
    assert code == 1
    err = json.loads(capsys.readouterr().err)
    assert err["error"]["type"] == "InconsistentDataError"
    assert err["error"]["node"] == "A"


def test_run_missing_file_error(tmp_path, capsys):
    code = run(["infer", "--wiring", str(tmp_path / "nope.json"),
                "--timecourse", str(tmp_path / "nope.csv")])
    assert code == 1
    err = json.loads(capsys.readouterr().err)
    assert "error" in err


def test_no_partial_outputs_on_failure(tmp_path, capsys):
    wiring = tmp_path / "w.json"
    course = tmp_path / "c.csv"
    wiring.write_text('{"nodes": ["A"], "regulators": {"A": ["A"]}}')
    course.write_text("A\n0\n1\n0\n0\n")
    out = tmp_path / "out"
    code = run(["infer", "--wiring", str(wiring), "--timecourse", str(course),
                "--out", str(out)])
    capsys.readouterr()
    assert code == 1
    assert not out.exists()


def _outputs(command, mode):
    """The files a successful ``command`` run writes into ``--out``."""
    return {"infer": {"infer.json", "infer.txt"}, "check": set(),
            "sample": {f"sample_{mode}.json", f"sample_{mode}.csv"},
            "dynamics": {"dynamics.json"}}[command]


def _argv(command, wiring, courses, rules, out, node=None, mode="ncf", samples=5):
    argv = [command, "--wiring", str(wiring)]
    if command == "dynamics":
        argv += ["--rules", str(rules)]
    for course in courses:
        argv += ["--timecourse", str(course)]
    if command == "sample":
        argv += ["--mode", mode, "-m", str(samples), "--seed", "1"]
    if node is not None and command in ("infer", "check"):
        argv += ["--node", node]
    if command != "check":
        argv += ["--out", str(out)]
    return argv


def _error_type(stderr):
    """The ``type`` of the one JSON error object ``stderr`` must hold."""
    error = json.loads(stderr)["error"]  # extra data would raise here
    return error["type"]


FAILURE_TYPES = {cls.__name__ for cls in (ToolError, *ToolError.__subclasses__())}


def _allowed_failure(name):
    if name in FAILURE_TYPES:
        return True
    builtin = getattr(builtins, name, None)
    return isinstance(builtin, type) and issubclass(
        builtin, (ValueError, KeyError, OSError)
    )


@pytest.mark.parametrize("command", ["infer", "check", "sample", "dynamics"])
def test_an_empty_wiring_is_a_parse_error(command, tmp_path, capsys):
    wiring, course, rules = (tmp_path / f for f in ("w.json", "c.csv", "r.json"))
    wiring.write_text('{"nodes": [], "regulators": {}}')
    course.write_text("A\n0\n1\n")
    rules.write_text('{"rules": {}}')
    out = tmp_path / "out"
    assert run(_argv(command, wiring, [course], rules, out)) == 1
    error = json.loads(capsys.readouterr().err)["error"]
    assert error == {"type": "ParseError", "message": "wiring has no nodes",
                     "field": "nodes"}
    assert not out.exists()


UTF8_FILES = {
    "w.json": b'{"nodes": ["A"],\n "regulators": {"A": ["A"]}}\n',
    "c.csv": b"A\n0\n1\n",
    "r.json": b'{\n "rules": {"A": "1 + x1"}\n}\n',
}  # each command runs on these as they are


@pytest.mark.parametrize("bom", [b"", b"\xef\xbb\xbf"])
@pytest.mark.parametrize(
    "command, bad",
    [(c, f) for c in ("infer", "check", "sample") for f in ("w.json", "c.csv")]
    + [("dynamics", f) for f in UTF8_FILES],
)
def test_a_file_that_is_not_utf8_is_a_parse_error(command, bad, bom, tmp_path, capsys):
    # the error names the file and the line of the first byte that fails to
    # decode, counted after any byte order mark
    for name, data in UTF8_FILES.items():
        if name == bad:
            data = bom + data.replace(b"\n", b"\n\xe9", 1)
        (tmp_path / name).write_bytes(data)
    wiring, course, rules = (tmp_path / name for name in UTF8_FILES)
    out = tmp_path / "out"
    assert run(_argv(command, wiring, [course], rules, out)) == 1
    error = json.loads(capsys.readouterr().err)["error"]
    assert error == {
        "type": "ParseError",
        "message": f"{tmp_path / bad} is not UTF-8: byte 0xe9 on line 2",
        "line": 2,
    }
    assert not out.exists()


def test_a_directory_in_the_way_leaves_no_new_file(yeast_files, tmp_path, capsys):
    # infer.json would move in first, then infer.txt could not replace the
    # directory: every target is checked before either moves
    wiring, course = yeast_files
    out = tmp_path / "out"
    (out / "infer.txt").mkdir(parents=True)
    (out / "infer.txt" / "kept").write_text("x")
    assert run(["infer", "--wiring", wiring, "--timecourse", course,
                "--out", str(out)]) == 1
    assert _error_type(capsys.readouterr().err) == "IsADirectoryError"
    assert sorted(p.name for p in out.iterdir()) == ["infer.txt"]
    assert [p.name for p in (out / "infer.txt").iterdir()] == ["kept"]
    assert (out / "infer.txt" / "kept").read_text() == "x"


@pytest.mark.parametrize("command", ["infer", "check", "sample", "dynamics"])
def test_failure_contract_on_generated_inputs(command, tmp_path, capsys):
    # every run exits 0 with all its files, or exits 1 with one JSON error
    # of a documented type and nothing new in --out
    rng = random.Random(f"contract-{command}")
    yeast = yeast_wiring_path().read_bytes(), yeast_timecourse_path().read_bytes()
    outcomes = {0: 0, 1: 0}
    for i in range(300):
        wiring, courses, rules = strategies.cli_inputs(rng, *yeast)
        case = tmp_path / str(i)
        case.mkdir()
        (case / "w.json").write_bytes(wiring)
        (case / "r.json").write_bytes(rules)
        course_paths = [case / f"c{j}.csv" for j in range(len(courses))]
        for path, text in zip(course_paths, courses):
            path.write_bytes(text)
        if command == "dynamics" and rng.random() < 0.5:
            course_paths = []
        node = rng.choice([None] * 7 + ["n0", "Sic1", "ghost"])
        out = case / "out"
        mode = rng.choice(["ncf", "unrestricted"])
        argv = _argv(command, case / "w.json", course_paths, case / "r.json",
                     out, node, mode, samples=rng.randint(0, 20))
        code = run(argv)
        err = capsys.readouterr().err
        if code == 0:
            assert err == ""
            files = set(os.listdir(out)) if out.exists() else set()
            assert files == _outputs(command, mode), argv
        else:
            assert code == 1, argv
            assert _allowed_failure(_error_type(err)), (argv, err)
            assert _error_type(err) != "UnicodeDecodeError", (argv, err)
            assert not out.exists() or not list(out.iterdir()), argv
        outcomes[code] += 1
    # both outcomes occur often enough to mean something
    assert min(outcomes.values()) >= 30, outcomes


@pytest.mark.parametrize(
    "wiring, rules",
    [
        ('{"nodes": ["A", "B"], "regulators": {"A": [["B"]], "B": []}}',
         '{"rules": {"A": "x1", "B": "0"}}'),
        ('{"nodes": ["A"], "regulators": {"A": ["A"]}}', '{"rules": {"A": 1}}'),
        ('{"nodes": ["A"], "regulators": {"A": ["A"]}}', '{"rules": {"A": null}}'),
        ('{"nodes": ["A"], "regulators": {"A": ["A"]}}', '{"rules": {"A": "x 1"}}'),
    ],
)
def test_malformed_input_is_a_parse_error(tmp_path, capsys, wiring, rules):
    (tmp_path / "w.json").write_text(wiring)
    (tmp_path / "r.json").write_text(rules)
    out = tmp_path / "out"
    code = run(["dynamics", "--wiring", str(tmp_path / "w.json"),
                "--rules", str(tmp_path / "r.json"), "--out", str(out)])
    assert code == 1
    err = json.loads(capsys.readouterr().err)
    assert err["error"]["type"] == "ParseError"
    assert err["error"]["field"] == "A"
    assert not out.exists()


json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=8),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(max_size=4), inner, max_size=4),
    max_leaves=12,
)
names = st.sampled_from(["A", "B", "C"])
# documents shaped like a wiring file, so that most reach the regulator lists
wiring_docs = st.lists(names, unique=True, max_size=3).flatmap(
    lambda nodes: st.fixed_dictionaries(
        {
            "nodes": st.just(nodes),
            "regulators": st.fixed_dictionaries(
                {n: json_values | st.lists(names | json_values, max_size=3)
                 for n in nodes}
            ),
        }
    )
)
# rules files for the wiring WIRING_AB, so that most reach the rule strings
rules_docs = st.fixed_dictionaries(
    {"rules": st.fixed_dictionaries(
        {n: json_values | st.sampled_from(["x1", "x1*x2 + 1", "x3", ""])
         for n in "AB"}
    )}
)


# short texts from the characters a time-course file is made of, so that
# stray carriage returns, quotes and NULs land inside rows
course_texts = (
    st.text(st.sampled_from('AB01, "\r\n\x00'), max_size=16)
    | st.text(max_size=16)
)


@settings(derandomize=True, max_examples=300, deadline=None)
@given(
    wiring=json_values | wiring_docs,
    rules=json_values | rules_docs,
    course=course_texts,
)
def test_parsers_raise_only_parse_errors(wiring, rules, course):
    try:
        parse_wiring(json.dumps(wiring))
    except ParseError:
        pass
    try:
        parse_rules(json.dumps(rules), parse_wiring(WIRING_AB))
    except ParseError:
        pass
    try:
        parse_timecourse(course)
    except ParseError:
        pass


def test_malformed_timecourse_is_a_parse_error(tmp_path, capsys):
    (tmp_path / "w.json").write_text(WIRING_AB)
    # a stray carriage return inside an unquoted row
    (tmp_path / "c.csv").write_bytes(b"A,B\r0,1\n1,\r0\n")
    out = tmp_path / "out"
    code = run(["infer", "--wiring", str(tmp_path / "w.json"),
                "--timecourse", str(tmp_path / "c.csv"), "--out", str(out)])
    assert code == 1
    err = json.loads(capsys.readouterr().err)
    assert err["error"]["type"] == "ParseError"
    assert err["error"]["line"] == 1
    message = err["error"]["message"]
    assert "line 1" in message and "carriage return" in message
    # csv's advice about Python file modes means nothing to a CLI user
    assert "universal-newline" not in message and "mode" not in message
    assert not out.exists()


def test_python_dash_m_runs_the_cli():
    env = dict(os.environ)
    env["PYTHONPATH"] = str(Path(ncfinfer.__file__).resolve().parents[1])
    done = subprocess.run(
        [sys.executable, "-m", "ncfinfer", "--help"],
        env=env, capture_output=True, text=True,
    )
    assert done.returncode == 0
    assert done.stdout.startswith("usage: ncfinfer")


def test_failed_report_write_leaves_no_report(tmp_path, capsys, monkeypatch):
    out = tmp_path / "out"
    real_open = Path.open
    written = []

    def open_(self, mode="r", *args, **kwargs):
        if "w" in mode:
            written.append(self.name)
            if len(written) == 2:
                raise OSError("no space left on device")
        return real_open(self, mode, *args, **kwargs)

    monkeypatch.setattr(Path, "open", open_)
    code = run(["enumerate-ncfs", "2", "--out", str(out)])
    monkeypatch.undo()
    assert code == 1
    assert written == ["ncfs_k2.txt", "ncfs_k2.json"]
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == {"type": "OSError", "message": "no space left on device"}
    assert not out.exists() or list(out.iterdir()) == []


def _run_fresh_python(probe):
    src = str(Path(ncfinfer.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p
    )
    subprocess.run(
        [sys.executable, "-c", probe], env=env, check=True, capture_output=True
    )


def test_load_yeast_does_not_import_cli():
    _run_fresh_python(
        "import sys\n"
        "from ncfinfer.datasets import load_yeast\n"
        "load_yeast()\n"
        "assert 'ncfinfer.cli' not in sys.modules\n"
    )


def test_inference_commands_do_not_import_numpy():
    # dynamics stays imported (its names are re-exported eagerly); only its
    # numpy kernel waits for the first phase-space call
    _run_fresh_python(
        "import sys\n"
        "from ncfinfer.cli import run\n"
        "from ncfinfer.datasets import yeast_timecourse_path, yeast_wiring_path\n"
        "io = ['--wiring', str(yeast_wiring_path()),\n"
        "      '--timecourse', str(yeast_timecourse_path())]\n"
        "for argv in (['infer', *io], ['check', *io, '--node', 'Sic1'],\n"
        "             ['enumerate-ncfs', '3']):\n"
        "    assert run(argv) == 0, argv\n"
        "    assert 'numpy' not in sys.modules, argv\n"
        "    assert 'ncfinfer.dynamics' in sys.modules, argv\n"
    )


def test_sample_loads_no_process_pool():
    # the ensemble's workers are plain forks: 100 yeast samples make four
    # chunks, so with two CPUs or more the run forks
    _run_fresh_python(
        "import contextlib, io, sys\n"
        "from ncfinfer.cli import run\n"
        "from ncfinfer.datasets import yeast_timecourse_path, yeast_wiring_path\n"
        "io_ = ['--wiring', str(yeast_wiring_path()),\n"
        "       '--timecourse', str(yeast_timecourse_path())]\n"
        "for mode in ('ncf', 'unrestricted'):\n"
        "    with contextlib.redirect_stdout(io.StringIO()):\n"
        "        argv = ['sample', *io_, '--mode', mode, '-m', '100', '--seed', '1']\n"
        "        assert run(argv) == 0\n"
        "assert 'numpy' in sys.modules\n"
        "assert 'multiprocessing' not in sys.modules\n"
        "assert 'concurrent.futures' not in sys.modules\n"
    )


def test_cli_import_loads_no_dataclasses_or_inspect():
    # the package's records are NamedTuples, so start-up imports neither;
    # sample_ensemble imports its shared mapping's modules when it runs
    _run_fresh_python(
        "import sys\n"
        "import ncfinfer.cli\n"
        "assert 'dataclasses' not in sys.modules\n"
        "assert 'inspect' not in sys.modules\n"
        "assert 'mmap' not in sys.modules\n"
        "assert 'array' not in sys.modules\n"
    )


def test_cli_import_builds_no_anf_tables():
    # the per-byte ANF tables are built on first use, so start-up never
    # pays for them; the catalog builds those of its own arity, and still
    # loads no numpy
    _run_fresh_python(
        "import contextlib, io, sys\n"
        "import ncfinfer.cli\n"
        "from ncfinfer import boolfun\n"
        "assert boolfun._anf_rows.cache_info().currsize == 0\n"
        "assert boolfun._monomial_order.cache_info().currsize == 0\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    assert ncfinfer.cli.run(['enumerate-ncfs', '5']) == 0\n"
        "assert boolfun._anf_rows.cache_info().currsize == 1\n"
        "assert 'numpy' not in sys.modules\n"
    )


def test_benchmark_tracer_installs_on_the_package():
    # perfbench/tracer.py wraps functions and methods of the package by
    # name, and its traced runs need every one to resolve
    perfbench = Path(__file__).resolve().parents[1] / "perfbench"
    _run_fresh_python(
        "import sys\n"
        f"sys.path.insert(0, {str(perfbench)!r})\n"
        "import ncfinfer.cli\n"
        "from tracer import PROBES, Tracer\n"
        "Tracer('smoke').install('ncfinfer')\n"
        "for module, path, *_ in PROBES:\n"
        "    probe = sys.modules['ncfinfer.' + module]\n"
        "    for part in path.split('.'):\n"
        "        probe = getattr(probe, part)\n"
        "    assert hasattr(probe, '__wrapped__'), path\n"
    )


def test_dynamics_checks_its_time_courses_before_the_phase_space(tmp_path):
    # a malformed course fails before the 2^n analysis, which loads numpy
    (tmp_path / "w.json").write_text('{"nodes": ["A"], "regulators": {"A": ["A"]}}')
    (tmp_path / "r.json").write_text('{"rules": {"A": "1 + x1"}}')
    (tmp_path / "c.csv").write_bytes(b"A\r0\n1\n")
    out = tmp_path / "out"
    argv = ["dynamics", "--wiring", str(tmp_path / "w.json"),
            "--rules", str(tmp_path / "r.json"),
            "--timecourse", str(tmp_path / "c.csv"), "--out", str(out)]
    _run_fresh_python(
        "import contextlib, io, json, sys\n"
        "from ncfinfer.cli import run\n"
        "err = io.StringIO()\n"
        "with contextlib.redirect_stderr(err):\n"
        f"    assert run({argv!r}) == 1\n"
        "assert json.loads(err.getvalue())['error']['type'] == 'ParseError'\n"
        "assert 'numpy' not in sys.modules\n"
    )
    assert not out.exists()


def test_sample_checks_the_node_cap_before_inference(tmp_path, capsys, monkeypatch):
    names = [f"n{i}" for i in range(25)]
    (tmp_path / "w.json").write_text(
        json.dumps({"nodes": names, "regulators": {x: [x] for x in names}})
    )
    (tmp_path / "c.csv").write_text(
        ",".join(names) + "\n" + ",".join("0" * 25) + "\n" + ",".join("0" * 25) + "\n"
    )

    def infer_all(*args, **kwargs):
        raise AssertionError("inference ran before the node cap was checked")

    monkeypatch.setattr(cli, "infer_all", infer_all)
    code = run(["sample", "--wiring", str(tmp_path / "w.json"),
                "--timecourse", str(tmp_path / "c.csv"),
                "--mode", "ncf", "-m", "5", "--seed", "1"])
    assert code == 1
    err = json.loads(capsys.readouterr().err)
    assert err["error"]["type"] == "CapacityError"
    assert err["error"]["nodes"] == 25


@pytest.mark.parametrize(
    "bad, message",
    [(["-m", "0", "--seed", "1"], "sample count must be positive"),
     (["-m", "5", "--seed", "-1"], "seed must be nonnegative")],
    ids=["samples", "seed"],
)
def test_sample_checks_its_arguments_before_inference(bad, message, capsys, monkeypatch):
    calls = []
    monkeypatch.setattr(cli, "infer_all", lambda *args, **kwargs: calls.append(args))
    code = run(["sample", *YEAST_IO, "--mode", "ncf", *bad])
    assert code == 1
    err = json.loads(capsys.readouterr().err)["error"]
    assert err == {"type": "ValueError", "message": message}
    assert calls == []


def test_cli_runs_keep_openblas_to_one_thread():
    # numpy's BLAS is never called: without a user setting, a run that
    # loads numpy starts no OpenBLAS worker threads
    if not os.path.isdir("/proc/self/task"):
        pytest.skip("needs /proc to count threads")
    src = str(Path(ncfinfer.__file__).resolve().parents[1])
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    probe = (
        "import os, sys\n"
        "from ncfinfer.cli import run\n"
        "from ncfinfer.datasets import yeast_timecourse_path, yeast_wiring_path\n"
        "assert run(['sample', '--wiring', str(yeast_wiring_path()),\n"
        "            '--timecourse', str(yeast_timecourse_path()),\n"
        "            '--mode', 'ncf', '-m', '5', '--seed', '1']) == 0\n"
        "assert 'numpy' in sys.modules\n"
        "print(os.environ.get('OPENBLAS_NUM_THREADS'), len(os.listdir('/proc/self/task')))\n"
    )
    done = subprocess.run(
        [sys.executable, "-c", probe], env=env, check=True, capture_output=True,
        text=True,
    )
    assert done.stdout.split()[-2:] == ["1", "1"]


def test_cli_runs_keep_a_user_openblas_setting(monkeypatch, capsys):
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "2")
    assert run(["enumerate-ncfs", "1"]) == 0
    assert os.environ["OPENBLAS_NUM_THREADS"] == "2"


@pytest.mark.parametrize(
    "name", ["parse_wiring", "parse_timecourse", "parse_rules"]
)
def test_cli_calls_the_format_parsers_by_module_name(name):
    # the benchmark times parsing by wrapping these names on the cli module
    assert getattr(cli, name) is getattr(formats, name)


json_scalars = (
    st.none()
    | st.booleans()
    | st.integers()
    | st.floats()  # inf, -inf and nan included
    | st.text(max_size=6)  # any code point: non-ASCII and control characters
    | st.text(st.sampled_from('a\u00e9\x00\x1f\x7f"\\/\u2028\U0001f600'), max_size=6)
)
json_payloads = st.recursive(
    json_scalars,
    lambda inner: st.lists(inner, max_size=4)
    | st.lists(inner, max_size=4).map(tuple)
    | st.lists(st.text(max_size=4), max_size=4)  # leaf lists of one type
    | st.lists(st.integers(), max_size=4)
    | st.dictionaries(st.text(max_size=4), inner, max_size=4)
    | st.dictionaries(st.integers() | st.floats(), inner, max_size=3)
    | st.dictionaries(st.booleans(), inner, max_size=2),
    max_leaves=16,
)


# top-level reports: each value paired with whether it goes in pre-rendered
json_reports = st.dictionaries(
    st.text(max_size=4), st.tuples(json_payloads, st.booleans()), min_size=1, max_size=4
)


@settings(derandomize=True, max_examples=500, deadline=None)
@given(json_reports)
def test_json_report_matches_the_stdlib(drawn):
    plain = {key: value for key, (value, _) in drawn.items()}
    report = {
        key: cli._RawJSON(json.dumps(value, indent=2, sort_keys=True).replace("\n", "\n  "))
        if raw
        else value
        for key, (value, raw) in drawn.items()
    }
    chunks = cli._json_chunks(report)
    assert "".join(chunks) == json.dumps(plain, indent=2, sort_keys=True) + "\n"
    assert cli._json_report(report) == "".join(chunks)
    # a pre-rendered value is written as it is, never copied into a larger chunk
    for value in report.values():
        if isinstance(value, cli._RawJSON):
            assert any(c is value.text for c in chunks)


YEAST_IO = ["--wiring", str(yeast_wiring_path()),
            "--timecourse", str(yeast_timecourse_path())]


# sha256 of each report as json.dumps(indent=2, sort_keys=True) renders it;
# the report emitter must reproduce them byte for byte
@pytest.mark.parametrize(
    "argv, digests",
    [
        (["enumerate-ncfs", "5"], {
            "ncfs_k5.json":
                "abde12fa6ab8fed7de003a14fcb30c01b8b7cd8ff74e4152238a261f6ccb68c6",
            "ncfs_k5.txt":
                "2670c9b6da23818712b2bd2cae67f340cc10f6002c2d1a10c212928504b7894e",
        }),
        (["infer", *YEAST_IO], {
            "infer.json":
                "8bb18db1922b41ea3c67ab9fec087aeefc6eafdf73500971f79713d69942af67",
            "infer.txt":
                "db0c727edc12315b8f76f719cf8131bc3660e2a9140fdbe32f57275e289baa7a",
        }),
        (["sample", *YEAST_IO, "--mode", "ncf", "-m", "25", "--seed", "4"], {
            "sample_ncf.json":
                "583a410b1b6ec79b372c7206b84beadfbff5855bf5662f2125652fd7e287eff3",
        }),
        (["dynamics", "--rules", "RULES", *YEAST_IO], {
            "dynamics.json":
                "8c4f70ab464a04026965736e01bcf9fa0468f5f2fa3aeff6ded056fa39c5ddcf",
        }),
    ],
    ids=["enumerate-ncfs-5", "infer-yeast", "sample-yeast", "dynamics-yeast"],
)
def test_reports_match_golden_digests(argv, digests, yeast_result, tmp_path, capsys):
    rules = tmp_path / "rules.json"
    rules.write_text(_yeast_rules(yeast_result))
    argv = [str(rules) if a == "RULES" else a for a in argv]
    out = tmp_path / "out"
    assert run([*argv, "--out", str(out)]) == 0
    capsys.readouterr()
    assert {
        name: hashlib.sha256((out / name).read_bytes()).hexdigest()
        for name in digests
    } == digests


@pytest.mark.parametrize(
    "argv, span",
    [
        (["infer", *YEAST_IO], "infer.local_data"),
        (["sample", *YEAST_IO, "--mode", "unrestricted", "-m", "50", "--seed", "1"],
         "infer.local_data"),
        (["enumerate-ncfs", "5"], "ncf.enumerate_ncfs"),
        (["check", *YEAST_IO, "--node", "Sic1"], "infer.cross_check"),
    ],
    ids=["infer", "sample-unrestricted", "enumerate-ncfs", "check"],
)
def test_benchmark_job_runs_traced(argv, span, tmp_path):
    # the benchmark's tracer wraps named functions of the package and fails
    # on a name that is gone
    repo = Path(__file__).resolve().parents[1]
    record = tmp_path / "record.json"
    env = dict(os.environ)
    env["PYTHONPATH"] = str(Path(ncfinfer.__file__).resolve().parents[1])
    done = subprocess.run(
        [sys.executable, str(repo / "perfbench" / "job.py"), str(record), "j0", "1",
         "--", *argv],
        env=env, capture_output=True, text=True,
    )
    assert done.returncode == 0, done.stderr
    rec = json.loads(record.read_text())
    assert rec["rc"] == 0
    assert span in {s["name"] for s in rec["spans"]}


def _syn16_like(rng):
    # 16 nodes with the in-degrees of the benchmark's syn16 network, random
    # local functions, three courses of nine rows each
    degrees = (5, 5, 5, 5, 4, 4, 4, 3, 3, 3, 2, 2, 2, 1, 1, 1)
    n = len(degrees)
    regulators = [rng.sample(range(n), k) for k in degrees]
    tables = [rng.getrandbits(1 << k) for k in degrees]

    def step(state):
        return sum(
            ((bits >> sum(((state >> r) & 1) << j for j, r in enumerate(regs))) & 1) << i
            for i, (regs, bits) in enumerate(zip(regulators, tables))
        )

    names = [f"g{i:02d}" for i in range(n)]
    courses = []
    for _ in range(3):
        rows = [rng.getrandbits(n)]
        for _ in range(8):
            rows.append(step(rows[-1]))
        courses.append(
            TimeCourse(names, [[(s >> i) & 1 for i in range(n)] for s in rows])
        )
    return WiringDiagram(names, regulators), courses


def test_data_path_never_builds_the_census(capsys, monkeypatch):
    # infer and sample fit the data while peeling; only check (route two)
    # and enumerate-ncfs build the census
    monkeypatch.setattr(ncf_module, "_ENUM_CACHE", {})
    wiring = parse_wiring(yeast_wiring_path().read_text())
    course = parse_timecourse(yeast_timecourse_path().read_text())
    yeast = infer_all(wiring, course)
    syn = infer_all(*_syn16_like(random.Random(1)))
    assert max(len(rec.regulators) for rec in syn.nodes) == 5
    assert run(["infer", *YEAST_IO]) == 0
    for mode in ("ncf", "unrestricted"):
        assert run(["sample", *YEAST_IO, "--mode", mode, "-m", "5", "--seed", "1"]) == 0
    assert ncf_module._ENUM_CACHE == {}
    assert run(["check", *YEAST_IO]) == 0
    capsys.readouterr()
    assert set(ncf_module._ENUM_CACHE) == set(wiring.in_degrees)
    # the peel stores the witness the census stores
    for rec in yeast.nodes:
        census = enumerate_ncfs(rec.data.arity)
        for t in rec.ncfs:
            assert rec.ncfs.witness(t) == census.witness(t)
