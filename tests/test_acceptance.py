"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Documented discrepancies between computed values and the published
case-study table are printed as DISCREPANCY notes with diagnostics; they
are expected, oracle-backed, and do not fail the gate.  Everything else
asserts exactly.
"""

import itertools
import random
import time

import oracles
from conftest import YEAST_NODES
from ncfinfer.boolfun import CoeffVector, TruthTable, anf_to_tt
from ncfinfer.cli import run
from ncfinfer.datasets import yeast_timecourse_path, yeast_wiring_path
from ncfinfer.dynamics import sample_ensemble
from ncfinfer.errors import InconsistentDataError
from ncfinfer.infer import TimeCourse, WiringDiagram, cross_check, local_data
from ncfinfer.modelspace import (
    LocalData,
    ModelSpace,
    coset_element,
    fits,
    model_space_size,
)
from ncfinfer.ncf import enumerate_ncfs, is_ncf

PUBLISHED_SPACE_SIZES = (1, 8, 8, 1, 2048, 2048, 8, 8, 1 << 24, 1 << 24, 8)
PUBLISHED_NCF_COUNTS = (1, 2, 2, 1, 12, 14, 4, 3, 336, 61, 2)
PUBLISHED_K5_CENSUS = 10_634
PUBLISHED_MODEL_PRODUCT = 330_559_488

COMPUTED_SPACE_SIZES = (1, 8, 8, 1, 512, 512, 8, 8, 1 << 24, 1 << 24, 8)
COMPUTED_NCF_COUNTS = (0, 2, 2, 1, 12, 14, 4, 3, 336, 61, 2)


def _report(num, name, ok, notes=()):
    print(f"[ACCEPTANCE {num}] {'PASS' if ok else 'FAIL'}: {name}")
    for note in notes:
        print(f"    {note}")


def test_criterion_1_ncf_census():
    t0 = time.time()
    notes = []
    ok = True
    for k, expected in zip((1, 2, 3, 4), (2, 8, 64, 736)):
        members = {t.to_int() for t in enumerate_ncfs(k)}
        oracle = oracles.all_cascade_ints(k)
        ok = ok and len(members) == expected and members == oracle
        notes.append(f"k={k}: {len(members)} (oracle {len(oracle)})")
    oracle5 = oracles.all_cascade_ints(5)
    members5 = {t.to_int() for t in enumerate_ncfs(5)}
    ok = ok and members5 == oracle5
    notes.append(f"k=5: {len(members5)} (122,880-form oracle {len(oracle5)})")
    if len(members5) != PUBLISHED_K5_CENSUS:
        notes.append(
            f"DISCREPANCY: k=5 census is {len(members5)}, published table "
            f"lists {PUBLISHED_K5_CENSUS}; enumeration and oracle agree, so "
            "the published value is reported, not matched"
        )
    elapsed = time.time() - t0
    ok = ok and elapsed < 30
    notes.append(f"runtime {elapsed:.1f} s (budget 30 s)")
    _report(1, "NCF census, oracle-anchored", ok, notes)
    assert ok


def _regulator_options(wiring, course, target, k):
    """(distinct inputs, fitting-NCF count) for every consistent k-subset."""
    ti = wiring.index(target)
    options = []
    for cols in itertools.combinations(range(len(wiring.nodes)), k):
        regs = [list(r) for r in wiring.regulators]
        regs[ti] = list(cols)
        probe = WiringDiagram(wiring.nodes, regs)
        try:
            data = local_data(probe, course, ti)
        except InconsistentDataError:
            continue
        count = sum(1 for t in enumerate_ncfs(k) if fits(t, data))
        options.append((data.distinct_inputs, count))
    return options


def test_criterion_2_model_space_column(yeast, yeast_result):
    wiring, course = yeast
    notes = []
    in_degrees = wiring.in_degrees
    ok = in_degrees == (1, 3, 3, 1, 4, 4, 3, 3, 5, 5, 3)
    notes.append(f"in-degrees {in_degrees}")
    sizes = tuple(rec.space_size for rec in yeast_result.nodes)
    ok = ok and sizes == COMPUTED_SPACE_SIZES
    mismatched = {
        name: (got, pub)
        for name, got, pub in zip(YEAST_NODES, sizes, PUBLISHED_SPACE_SIZES)
        if got != pub
    }
    ok = ok and set(mismatched) == {"Cdh1", "Swi5"}
    # published 2048 = 2^(16-5) needs a consistent 4-regulator assignment
    # seeing exactly 5 distinct inputs; check all C(11,4) subsets per node
    cdh1_us = {u for u, _ in _regulator_options(wiring, course, "Cdh1", 4)}
    ok = ok and 5 not in cdh1_us
    notes.append(
        "DISCREPANCY: Cdh1 model space 512, published 2048; exhaustively, "
        f"consistent 4-regulator choices see {sorted(cdh1_us)} distinct "
        "inputs, never 5, so 2048 is unattainable under any wiring"
    )
    swi5_at_u5 = [
        count for u, count in _regulator_options(wiring, course, "Swi5", 4)
        if u == 5
    ]
    ok = ok and all(count != 14 for count in swi5_at_u5)
    notes.append(
        "DISCREPANCY: Swi5 model space 512, published 2048; the "
        f"4-regulator choices seeing 5 distinct inputs admit {sorted(set(swi5_at_u5))} "
        "fitting NCFs, never the published 14, so no wiring matches both "
        "published columns; the shipped wiring matches the NCF count"
    )
    _report(2, "case-study model-space column", ok, notes)
    assert ok


def test_criterion_3_fitting_ncf_counts(yeast_result):
    t0 = time.time()
    notes = []
    counts = tuple(len(rec.ncfs) for rec in yeast_result.nodes)
    ok = counts == COMPUTED_NCF_COUNTS
    notes.append(f"fitting NCFs per node: {counts}")
    flagged = [
        (name, got, pub)
        for name, got, pub in zip(YEAST_NODES, counts, PUBLISHED_NCF_COUNTS)
        if got != pub
    ]
    ok = ok and [name for name, _, _ in flagged] == ["Cln3"]
    cln3 = yeast_result.node("Cln3")
    forced = cln3.forced
    ok = ok and forced is not None and forced.values == (0, 0)
    ok = ok and [t.values for t, _ in cln3.near_misses] == [(0, 0)]
    notes.append(
        "DISCREPANCY: Cln3 has 0 fitting NCFs, published table lists 1; its "
        "fully determined model space holds only the constant-0 function, "
        "which depends on no variable and is not nested canalyzing"
    )
    product_verified = 1
    for name, count in zip(YEAST_NODES, counts):
        if name != "Cln3":
            product_verified *= count
    ok = ok and product_verified == PUBLISHED_MODEL_PRODUCT
    notes.append(
        f"product over verified rows: {product_verified} "
        f"(published {PUBLISHED_MODEL_PRODUCT})"
    )
    elapsed = time.time() - t0
    ok = ok and elapsed < 60
    notes.append(f"runtime {elapsed:.1f} s (budget 60 s)")
    _report(3, "case-study fitting-NCF counts", ok, notes)
    assert ok


def _random_instance(rng):
    n = rng.randrange(2, 5)
    names = [f"n{i}" for i in range(n)]
    wiring = WiringDiagram(
        names,
        [rng.sample(range(n), rng.randrange(1, min(4, n) + 1)) for _ in range(n)],
    )
    while True:
        course = TimeCourse(
            names,
            [[rng.getrandbits(1) for _ in range(n)]
             for _ in range(rng.randrange(3, 8))],
        )
        try:
            for i in range(n):
                local_data(wiring, course, i)
        except InconsistentDataError:
            continue
        return wiring, course


def test_criterion_4_dual_route_equivalence(yeast):
    wiring, course = yeast
    ok = all(
        cross_check(wiring, course, i) for i in range(len(wiring.nodes))
    )
    rng = random.Random(20387)
    checked = 0
    for _ in range(100):
        w, tc = _random_instance(rng)
        for i in range(len(w.nodes)):
            ok = ok and cross_check(w, tc, i)
            checked += 1
    _report(
        4,
        "dual-route inference equivalence",
        ok,
        [f"11 case-study nodes plus {checked} nodes over 100 random instances"],
    )
    assert ok


def test_criterion_5_criterion_vs_cascade_equivalence():
    disagreements = 0
    for k in (1, 2, 3):
        oracle = oracles.all_cascade_ints(k)
        for bits in range(1 << (1 << k)):
            if is_ncf(TruthTable.from_int(k, bits)) != (bits in oracle):
                disagreements += 1
    member4 = {t.to_int() for t in enumerate_ncfs(4)}
    rng = random.Random(55)
    for _ in range(10_000):
        bits = rng.getrandbits(16)
        if is_ncf(TruthTable.from_int(4, bits)) != (bits in member4):
            disagreements += 1
    ok = disagreements == 0
    _report(
        5,
        "coefficient criterion vs cascade definition",
        ok,
        [f"exhaustive k<=3 plus 10,000 random k=4 tables; "
         f"{disagreements} disagreements"],
    )
    assert ok


def test_criterion_6_coset_identity():
    rng = random.Random(606)
    ok = True
    for _ in range(50):
        k = rng.randrange(1, 4)
        points = rng.sample(range(1 << k), rng.randrange(1, (1 << k) + 1))
        data = LocalData(
            k,
            [
                (tuple((p >> i) & 1 for i in range(k)), rng.getrandbits(1))
                for p in points
            ],
        )
        space = {t.to_int() for t in ModelSpace.from_data(data).tables()}
        image = {
            anf_to_tt(coset_element(data, CoeffVector.from_int(k, g))).to_int()
            for g in range(1 << (1 << k))
        }
        brute = set(
            oracles.fitting_table_ints(
                list(zip(data.seen_indices(), (o for _, o in data.pairs))), k
            )
        )
        ok = ok and space == image == brute
        ok = ok and len(image) == model_space_size(data) == 1 << (
            (1 << k) - data.distinct_inputs
        )
    _report(6, "coset equals fitting set (50 random data sets, k<=3)", ok)
    assert ok


def test_criterion_7_ensemble_statistics(yeast_result):
    t0 = time.time()
    notes = []
    ok = True
    ncf_means = []
    for seed in (101, 202, 303):
        stats = sample_ensemble(yeast_result, 2000, seed, "ncf")
        # sample_ensemble verifies per sample that all 13 course states
        # share one component; reaching this line certifies it for all 2000
        comp_ok = 2.6 <= stats.mean_components <= 3.6
        traj_ok = 1795 <= stats.mean_trajectory_component_size <= 1985
        ok = ok and comp_ok and traj_ok
        ncf_means.append(stats.mean_trajectory_component_size)
        notes.append(
            f"seed {seed}: mean components {stats.mean_components:.3f} "
            f"(band [2.6, 3.6]), mean trajectory component "
            f"{stats.mean_trajectory_component_size:.1f} (band [1795, 1985]), "
            f"not-in-largest {stats.count_trajectory_not_in_largest}"
        )
    unrestricted = sample_ensemble(yeast_result, 2000, 101, "unrestricted")
    directional = all(
        m > unrestricted.mean_trajectory_component_size for m in ncf_means
    )
    ok = ok and directional
    notes.append(
        f"unrestricted mean trajectory component "
        f"{unrestricted.mean_trajectory_component_size:.1f} "
        f"(directional check {'holds' if directional else 'fails'})"
    )
    elapsed = time.time() - t0
    ok = ok and elapsed < 300
    notes.append(f"runtime {elapsed:.1f} s (budget 300 s)")
    _report(7, "ensemble statistics within published bands", ok, notes)
    assert ok


def test_criterion_8_deterministic_reports(tmp_path):
    wiring = tmp_path / "wiring.json"
    course = tmp_path / "course.csv"
    wiring.write_text(yeast_wiring_path().read_text())
    course.write_text(yeast_timecourse_path().read_text())
    base = ["--wiring", str(wiring), "--timecourse", str(course)]

    outs = [tmp_path / n for n in ("s1", "s2", "s3", "i1", "i2")]
    sample_args = ["sample", *base, "--mode", "ncf", "-m", "120", "--seed", "42"]
    for o in outs[:3]:
        assert run(sample_args + ["--out", str(o)]) == 0
    assert run(["infer", *base, "--out", str(outs[3])]) == 0
    assert run(["infer", *base, "--out", str(outs[4])]) == 0

    srep = [(o / "sample_ncf.json").read_bytes() for o in outs[:3]]
    scsv = [(o / "sample_ncf.csv").read_bytes() for o in outs[:3]]
    irep = [(o / "infer.json").read_bytes() for o in outs[3:]]
    ok = (
        srep[0] == srep[1] == srep[2]
        and scsv[0] == scsv[1] == scsv[2]
        and irep[0] == irep[1]
    )
    _report(
        8,
        "byte-identical reports across reruns",
        ok,
        ["sample: 3 runs identical; infer: 2 runs identical"],
    )
    assert ok
