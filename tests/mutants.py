"""Show that the test suite catches deliberate faults in the package.

Run from the root of a checkout:

    python tests/mutants.py            # every mutant
    python tests/mutants.py NAME ...   # the named ones

Copies ``src/``, ``tests/``, ``tools/`` and ``pyproject.toml`` to a
temporary directory and runs the tests of every selected mutant there,
unmutated, which must pass.  Then it applies one mutant at a time: an
exact source fragment, which must occur once in its file, is replaced, the
mutant's tests run, and the file is restored.  A mutant is killed when its
tests fail or run past TIMEOUT_S.  Exits 1 unless the unmutated tree
passes and every mutant in MUTANTS is killed.

EQUIVALENT lists mutants that change no output, each with the reason.
They run too, and are never counted as kills; one that is killed is not
equivalent, and the script exits 1 until it is moved to MUTANTS.  A
mutant is never deleted to make the list pass.
"""

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent
COPIED = ("src", "tests", "tools", "pyproject.toml")
TIMEOUT_S = 300


class Mutant(NamedTuple):
    name: str
    path: str  # relative to src/ncfinfer
    fragment: str
    replacement: str
    tests: tuple  # pytest node ids, relative to the root
    reason: str = ""  # why an equivalent mutant changes no output


NCF = "tests/test_ncf.py"
INFER = "tests/test_infer.py"
DYN = "tests/test_dynamics.py"
MODEL = "tests/test_modelspace.py"
BOOL = "tests/test_boolfun.py"
CLI = "tests/test_cli.py"

MUTANTS = (
    # NcfSet: aligned member and witness tuples
    Mutant(
        "membership-bound", "ncf.py",
        "self._ints[i : i + 1] == (bits,)", "i < len(self._ints)",
        (f"{NCF}::test_ncf_set_membership_equality_and_hash",),
    ),
    Mutant(
        "membership-arity", "ncf.py",
        "return table.arity == self.arity and self._ints",
        "return self._ints",
        (f"{NCF}::test_ncf_set_membership_equality_and_hash",),
    ),
    Mutant(
        "equality-arity", "ncf.py",
        "return (self.arity, self._ints) == (other.arity, other._ints)",
        "return self._ints == other._ints",
        (f"{NCF}::test_ncf_set_membership_equality_and_hash",),
    ),
    Mutant(
        "fitting-filter", "ncf.py",
        "if p[0] & seen_bits == value_bits]",
        "if p[0] & value_bits == value_bits]",
        (f"{NCF}::test_fitting_keeps_the_members_equal_to_the_data_and_their_"
         "witnesses",),
    ),
    Mutant(
        "peel-unsorted", "ncf.py",
        "return sorted(zip(*found), key=itemgetter(0))",
        "return list(zip(*found))",
        (f"{NCF}::test_lazy_members_are_the_sorted_census_tables",),
    ),
    # the peel's witness rules
    Mutant(
        "peel-layer-ascending", "ncf.py",
        "for b in (1 - prev_b,) if v < prev else (0, 1):",
        "for b in (0, 1):",
        (f"{NCF}::test_census_counts_against_form_oracle",),
    ),
    Mutant(
        "peel-last-pair-ascending", "ncf.py",
        "if w < v:", "if w < v < 0:",
        (f"{NCF}::test_census_counts_against_form_oracle",),
    ),
    Mutant(
        "peel-last-input-zero", "ncf.py",
        "insw = ins + (0,)", "insw = ins + (1,)",
        (f"{NCF}::test_witness_forms_regenerate_members",),
    ),
    # the two routes of check
    Mutant(
        "cross-check-compare", "infer.py",
        "return route_peel == route_census", "return True",
        (f"{INFER}::test_cross_check_catches_a_dropped_member",),
    ),
    # the ncf-mode draw
    Mutant(
        "ncf-draw-count", "dynamics.py",
        "_below(len(ints))", "_below(len(ints) | 1)",
        (f"{DYN}::test_node_samplers_match_the_object_draw",),
    ),
    # every _check_bits call
    Mutant(
        "bits-truth-table", "boolfun.py",
        "        _check_bits(entries, self._what)\n", "",
        (f"{BOOL}::test_construction_validation",),
    ),
    Mutant(
        "bits-point-index", "boolfun.py",
        '    _check_bits(point, "point")\n', "",
        (f"{BOOL}::test_construction_validation",),
    ),
    Mutant(
        "bits-trajectory-state", "dynamics.py",
        '    _check_bits(state, "state")\n    return point_to_index(',
        "    return point_to_index(",
        (f"{DYN}::test_states_reject_entries_other_than_bits",),
    ),
    Mutant(
        "bits-timecourse-row", "infer.py",
        '            _check_bits(row, f"row {t + 1}")\n', "",
        (f"{INFER}::test_timecourse_rejects_cells_other_than_int_bits",),
    ),
    Mutant(
        "bits-local-data-point", "modelspace.py",
        '            _check_bits(point, "point")\n', "",
        (f"{MODEL}::test_local_data_rejects_entries_other_than_0_1",),
    ),
    Mutant(
        "bits-local-data-output", "modelspace.py",
        '            _check_bits((out,), "output")\n', "",
        (f"{MODEL}::test_local_data_rejects_entries_other_than_0_1",),
    ),
    Mutant(
        "bits-form-inputs", "ncf.py",
        '        _check_bits(inputs, "canalyzing inputs")\n', "",
        (f"{NCF}::test_form_rejects_values_other_than_int_bits",),
    ),
    Mutant(
        "bits-form-outputs", "ncf.py",
        '        _check_bits(outputs, "canalyzed outputs")\n', "",
        (f"{NCF}::test_form_rejects_values_other_than_int_bits",),
    ),
    # the unrestricted sampler's byte order, and the one draw behind sample
    Mutant(
        "sampler-byte-order", "modelspace.py",
        "for shift, entries in spread:", "for shift, entries in spread[::-1]:",
        (f"{MODEL}::test_int_sampler_matches_sample",),
    ),
    Mutant(
        "sample-draw", "modelspace.py",
        "table(draw(rng))", "table(draw(rng) >> 1)",
        (f"{MODEL}::test_int_sampler_matches_sample",),
    ),
    # a node without a fitting NCF draws in ncf mode only when forced
    Mutant(
        "forced-unchecked", "dynamics.py",
        "        if rec.forced is None:\n            raise ConfigurationError(",
        "        if False:\n            raise ConfigurationError(",
        (f"{DYN}::test_sample_ensemble_configuration_error",),
    ),
    # the successor map's byte lanes
    Mutant(
        "lane-byte", "_engine.py",
        "octets[:, j] = lane", "octets[:, j ^ 1] = lane",
        (f"{DYN}::test_successor_map_matches_the_oracle_across_byte_lanes",),
    ),
    Mutant(
        "lane-period", "_engine.py",
        "max(regs, default=0) + 1))", "max(regs, default=0)))",
        (f"{DYN}::test_successor_map_matches_the_oracle_across_byte_lanes",),
    ),
    # doubling and pointer jumping
    Mutant(
        "doubling-stop", "_engine.py",
        "if count == last:", "if count <= last + 1:",
        (f"{DYN}::test_analyze_matches_the_oracle_on_shaped_maps",),
    ),
    Mutant(
        "doubling-rounds", "_engine.py",
        "for _ in range(n):", "for _ in range(n // 2):",
        (f"{DYN}::test_analyze_matches_the_oracle_on_shaped_maps",),
    ),
    Mutant(
        "jump-offset", "_engine.py",
        "_gather(ahead, ptr) + w,", "_gather(ahead, ptr) + 1,",
        (f"{DYN}::test_analyze_matches_the_oracle_on_shaped_maps",),
    ),
    Mutant(
        "rotation", "_engine.py",
        "    at -= ahead\n", "",
        (f"{DYN}::test_analyze_matches_the_oracle_on_shaped_maps",),
    ),
    # a file that is not UTF-8: the line counted after any byte order mark
    Mutant(
        "decode-line-after-bom", "cli.py",
        'e.object.count(b"\\n", 0, e.start)', 'data.count(b"\\n", 0, e.start)',
        (f"{CLI}::test_a_file_that_is_not_utf8_is_a_parse_error",),
    ),
    # one entry read off the packed int
    Mutant(
        "evaluate-bit", "boolfun.py",
        ">> point_to_index(point)) & 1", ">> point_to_index(point))",
        (f"{BOOL}::test_evaluate_agrees_with_anf_evaluation",),
    ),
    # the attractor report
    Mutant(
        "separator-rewrite", "_engine.py",
        "    rows[other, n:] = seps[int(not usual)]\n", "",
        (f"{CLI}::test_dynamics_report_matches_the_oracle",),
    ),
    # the ANF tables
    Mutant(
        "anf-unit-k4", "boolfun.py",
        "units.append(sum(1 << p for p, m in enumerate(masks) if (c >> m) & 1))",
        "units.append(sum(1 << p for p, m in enumerate(masks) if (c >> m) & 1)"
        " ^ (arity == 4 and point == 5))",
        (f"{BOOL}::test_anf_text_matches_the_oracle_on_every_small_table",),
    ),
    # the variable masks, the transform and essential_vars
    Mutant(
        "mask-shift", "boolfun.py",
        "<< (1 << j) for j in range(arity))", "<< j for j in range(arity))",
        (f"{BOOL}::test_transform_involution_random_k5",),
    ),
    Mutant(
        "transform-mask", "boolfun.py",
        "bits ^= (bits << (1 << i)) & upper", "bits ^= bits << (1 << i)",
        (f"{BOOL}::test_anf_matches_direct_subset_sum",),
    ),
    Mutant(
        "essential-lane", "boolfun.py",
        "bits & (upper >> s)", "bits & (upper >> i)",
        (f"{BOOL}::test_essential_vars_empty_iff_constant",),
    ),
    # the coefficient criterion's constraints
    Mutant(
        "criterion-factors", "ncf.py",
        "missing = comp - subset", "missing = comp",
        (f"{NCF}::test_criterion_equals_cascade_definition_exhaustive",),
    ),
    # the worker count's fork rules
    Mutant(
        "fork-while-threaded", "dynamics.py",
        "threading.active_count() > 1", "threading.active_count() > 99",
        (f"{DYN}::test_no_fork_while_another_thread_runs",),
    ),
    Mutant(
        "fork-outgrown-chunk", "dynamics.py",
        "1 << n > ENSEMBLE_STATES", "1 << n > 2 * ENSEMBLE_STATES",
        (f"{DYN}::test_no_fork_when_a_sample_outgrows_a_chunk",),
    ),
    Mutant(
        "fork-without-fork", "dynamics.py",
        'not hasattr(os, "fork") or ', "",
        (f"{DYN}::test_no_fork_without_os_fork",),
    ),
    # the chunk workspace: a reset per chunk, a view per chunk size
    Mutant(
        "workspace-reset", "_engine.py",
        "succ[:] = base", "succ |= base",
        (f"{DYN}::test_one_workspace_over_a_chunk_sequence_matches_fresh_ones",
         f"{DYN}::test_one_workspace_over_small_and_large_images"),
    ),
    Mutant(
        "workspace-short-view", "_engine.py",
        "return space[name][:size]", "return space[name]",
        (f"{DYN}::test_one_workspace_over_a_chunk_sequence_matches_fresh_ones",
         f"{DYN}::test_one_workspace_over_small_and_large_images"),
    ),
    Mutant(
        "workspace-kept", "dynamics.py",
        "space = _Workspace(states)",
        "space = sample_ensemble.__dict__.setdefault(states, _Workspace(states))",
        (f"{DYN}::test_sample_ensemble_keeps_no_workspace",),
    ),
    # _forked: kill, reap, status and rerun; the shared write: length
    Mutant(
        "forked-kill", "dynamics.py",
        "                os.kill(pid, SIGKILL)\n", "",
        (f"{DYN}::test_an_error_here_kills_the_children",),
    ),
    Mutant(
        "forked-reap", "dynamics.py",
        "                os.waitpid(pid, 0)\n", "",
        (f"{DYN}::test_an_error_here_kills_the_children",),
    ),
    Mutant(
        "forked-status", "dynamics.py",
        "os.waitpid(children[k], 0)[1]", "os.waitpid(children[k], 0)[1] < 0",
        (f"{DYN}::test_a_failed_child_leaves_the_stats_unchanged",),
    ),
    Mutant(
        "forked-length", "dynamics.py",
        "shared[f * samples + start:f * samples + stop] =",
        "shared[f * samples + start:f * samples + start + len(values)] =",
        (f"{DYN}::test_a_failed_child_leaves_the_stats_unchanged",),
    ),
    Mutant(
        "forked-rerun", "dynamics.py",
        "            if failed:\n                run(parts[k])\n", "",
        (f"{DYN}::test_a_failed_child_leaves_the_stats_unchanged",),
    ),
)

EQUIVALENT = (
    Mutant(
        "peel-sort-key", "ncf.py",
        "sorted(zip(*found), key=itemgetter(0))", "sorted(zip(*found))",
        (f"{NCF}::test_lazy_members_are_the_sorted_census_tables",),
        "the peel yields each table int once, so sorting the pairs orders "
        "them by int and never compares two witnesses",
    ),
    Mutant(
        "ncf-draw-range", "dynamics.py",
        "        row = rng.getrandbits(k)\n"
        "        while row >= count:\n"
        "            row = rng.getrandbits(k)\n"
        "        return row\n",
        "        return rng.randrange(count)\n",
        (f"{DYN}::test_node_samplers_match_the_object_draw",),
        "randrange takes the same bits: k-bit words until one is below count",
    ),
    Mutant(
        "transform-mask-bit0", "boolfun.py",
        "bits ^= (bits << (1 << i)) & upper",
        "bits ^= (bits << (1 << i)) & (upper | 1)",
        (f"{BOOL}::test_anf_matches_direct_subset_sum",
         f"{BOOL}::test_transform_involution_random_k5"),
        "bit 0 of a left-shifted int is always clear",
    ),
    Mutant(
        "separator-default", "_engine.py",
        "usual = 2 * len(ends) > len(states)", "usual = True",
        (f"{CLI}::test_dynamics_report_matches_the_oracle",),
        "either default separator renders the same bytes; the rule only "
        "rewrites the fewer rows",
    ),
)


def _run(tree, tests):
    """``(passed, why)``: whether the tests pass, and the first failure."""
    env = dict(os.environ, PYTHONPATH="src", PYTHONDONTWRITEBYTECODE="1")
    argv = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider",
            *tests]
    try:
        done = subprocess.run(argv, cwd=tree, env=env, capture_output=True,
                              text=True, timeout=TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return False, f"timed out after {TIMEOUT_S} s"
    lines = done.stdout.splitlines()
    failed = [ln for ln in lines if ln.startswith(("FAILED", "ERROR"))]
    return done.returncode == 0, (failed or [f"exit status {done.returncode}"])[0]


def _applied(tree, mutant, run):
    path = tree / "src" / "ncfinfer" / mutant.path
    source = path.read_text()
    found = source.count(mutant.fragment)
    if found != 1:
        raise SystemExit(f"{mutant.name}: fragment occurs {found} times")
    mutated = source.replace(mutant.fragment, mutant.replacement)
    compile(mutated, str(path), "exec")  # a kill must come from behaviour
    path.write_text(mutated)
    try:
        return run()
    finally:
        path.write_text(source)


def main(names):
    pick = (lambda m: m.name in names) if names else (lambda m: True)
    mutants = [m for m in MUTANTS if pick(m)]
    equivalent = [m for m in EQUIVALENT if pick(m)]
    unknown = set(names) - {m.name for m in (*MUTANTS, *EQUIVALENT)}
    if unknown:
        raise SystemExit(f"unknown mutants: {sorted(unknown)}")
    survived, killed_equivalent = [], []
    with tempfile.TemporaryDirectory() as tmp:
        tree = Path(tmp)
        for name in COPIED:
            src = ROOT / name
            if src.is_dir():
                shutil.copytree(src, tree / name,
                                ignore=shutil.ignore_patterns("__pycache__"))
            else:
                shutil.copy(src, tree / name)
        tests = sorted({t for m in (*mutants, *equivalent) for t in m.tests})
        passed, why = _run(tree, tests)
        if not passed:
            raise SystemExit(f"FAIL: the unmutated tree fails: {why}")
        print(f"unmutated tree passes {len(tests)} test ids", flush=True)
        for m in mutants:
            t = time.monotonic()
            passed, why = _applied(tree, m, lambda: _run(tree, m.tests))
            print(f"{'SURVIVED' if passed else 'killed':9} {m.name}"
                  f"  ({time.monotonic() - t:.1f} s)  {'' if passed else why}",
                  flush=True)
            if passed:
                survived.append(m.name)
        for m in equivalent:
            passed, _ = _applied(tree, m, lambda: _run(tree, m.tests))
            print(f"{'equiv' if passed else 'KILLED':9} {m.name}: {m.reason}",
                  flush=True)
            if not passed:
                killed_equivalent.append(m.name)
    print(f"{len(mutants) - len(survived)} of {len(mutants)} mutants killed; "
          f"{len(equivalent)} equivalent listed apart")
    for name in survived:
        print(f"FAIL: {name} survived")
    for name in killed_equivalent:
        print(f"FAIL: {name} is listed as equivalent but was killed")
    return 1 if survived or killed_equivalent else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
