import itertools
import random

import numpy as np
import pytest
from hypothesis import given, settings

import oracles
from conftest import YEAST_NODES
from strategies import consistent_instances
from ncfinfer import infer as infer_module
from ncfinfer.errors import CapacityError, InconsistentDataError
from ncfinfer.infer import (
    TimeCourse,
    WiringDiagram,
    count_models,
    cross_check,
    infer_all,
    infer_ncfs,
    local_data,
    near_misses,
)
from ncfinfer.modelspace import fits
from ncfinfer.ncf import NcfSet


def test_wiring_validation():
    with pytest.raises(ValueError):
        WiringDiagram(["A", "A"], [[], []])
    with pytest.raises(ValueError):
        WiringDiagram(["A", "B"], [[0, 0], []])
    with pytest.raises(ValueError):
        WiringDiagram(["A"], [[1]])
    with pytest.raises(CapacityError):
        WiringDiagram(list("ABCDEFG"), [[0, 1, 2, 3, 4, 5]] + [[0]] * 6)
    big = WiringDiagram(
        list("ABCDEFG"), [[0, 1, 2, 3, 4, 5]] + [[0]] * 6, allow_big=True
    )
    assert big.in_degrees[0] == 6


def test_wiring_checks_the_hard_cap_before_inference():
    # infer_all on a 17-regulator node would build tables of 2^17 bits and
    # allocate until memory ran out; the wiring refuses the node at once
    names = [f"n{i}" for i in range(18)]
    with pytest.raises(CapacityError, match="hard cap") as e:
        WiringDiagram(names, [list(range(1, 18))] + [[]] * 17, allow_big=True)
    assert e.value.context == {"node": "n0"}


def test_timecourse_validation():
    with pytest.raises(ValueError):
        TimeCourse(["A"], [[0]])  # one row is not a transition
    with pytest.raises(ValueError):
        TimeCourse(["A", "B"], [[0, 1], [1]])
    with pytest.raises(ValueError):
        TimeCourse(["A"], [[0], [2]])


@pytest.mark.parametrize("cell", [2, -1, 1.0, 0.0, np.int64(1), "1", None])
def test_timecourse_rejects_cells_other_than_int_bits(cell):
    # 1.0 and numpy ints equal 1 but are not bits; the error names the row,
    # not a regulator point of the node data built from it later
    with pytest.raises(ValueError, match="row 2 must hold only the integers 0/1"):
        TimeCourse(["A", "B"], [[0, 1], [1, cell]])


def test_local_data_yeast_examples(yeast):
    wiring, course = yeast
    cln12 = local_data(wiring, course, wiring.index("Cln1,2"))
    assert cln12.pairs == (((0,), 0), ((1,), 1))
    mbf = local_data(wiring, course, wiring.index("MBF"))
    assert mbf.distinct_inputs == 5
    cln3 = local_data(wiring, course, wiring.index("Cln3"))
    assert cln3.pairs == (((0,), 0), ((1,), 0))


def test_self_loop_pair_from_repeated_row():
    wiring = WiringDiagram(["A"], [[0]])
    course = TimeCourse(["A"], [[1], [1]])
    assert local_data(wiring, course, 0).pairs == (((1,), 1),)


def test_contradiction_error_names_node_and_rows():
    wiring = WiringDiagram(["A", "B"], [[1], [1]])
    # B=1 at rows 1 and 3, but A's next value differs (1 then 0)
    course = TimeCourse(["A", "B"], [[0, 1], [1, 0], [0, 1], [0, 1]])
    with pytest.raises(InconsistentDataError) as err:
        local_data(wiring, course, 0)
    msg = str(err.value)
    assert "'A'" in msg and "row 1" in msg and "row 3" in msg
    assert err.value.context["input"] == [1]


def test_column_reconciliation_by_name(yeast):
    wiring, course = yeast
    shuffled = TimeCourse(
        tuple(reversed(course.nodes)),
        [tuple(reversed(row)) for row in course.rows],
    )
    for i in range(len(wiring.nodes)):
        assert local_data(wiring, shuffled, i) == local_data(wiring, course, i)
    with pytest.raises(ValueError):
        local_data(wiring, TimeCourse(["X"] , [[0], [1]]), 0)


def test_multiple_courses_are_pairwise_restricted():
    wiring = WiringDiagram(["A"], [[0]])
    # course 1 ends at 1, course 2 starts at 0; a cross-boundary pair
    # (1 -> 0) would clash with course 1's (1 -> 1)
    c1 = TimeCourse(["A"], [[0], [1], [1]])
    c2 = TimeCourse(["A"], [[0], [1]])
    d = local_data(wiring, [c1, c2], 0)
    assert d.pairs == (((0,), 1), ((1,), 1))


def test_infer_ncfs_yeast_spot_counts(yeast):
    wiring, course = yeast
    assert len(infer_ncfs(wiring, course, wiring.index("Cdh1"))) == 12
    assert len(infer_ncfs(wiring, course, wiring.index("Swi5"))) == 14
    assert len(infer_ncfs(wiring, course, wiring.index("Mcm1/SFF"))) == 2


def test_inferred_functions_are_sound(yeast):
    wiring, course = yeast
    for name in ("MBF", "Cdc20&Cdc14", "Clb5,6", "Cdh1"):
        i = wiring.index(name)
        d = local_data(wiring, course, i)
        ncfs = infer_ncfs(wiring, course, i)
        for t in ncfs:
            assert fits(t, d)
            assert t.to_int() in oracles.all_cascade_ints(d.arity)
            assert oracles.essential_var_ids(t.to_int(), d.arity) == list(
                range(1, d.arity + 1)
            )


def _random_instance(rng, max_k=4):
    n = rng.randrange(2, 5)
    names = [f"n{i}" for i in range(n)]
    regulators = [
        rng.sample(range(n), rng.randrange(1, min(max_k, n) + 1)) for _ in range(n)
    ]
    wiring = WiringDiagram(names, regulators)
    for _ in range(50):
        rows = [
            [rng.getrandbits(1) for _ in range(n)]
            for _ in range(rng.randrange(3, 8))
        ]
        course = TimeCourse(names, rows)
        try:
            for i in range(n):
                local_data(wiring, course, i)
        except InconsistentDataError:
            continue
        return wiring, course
    raise AssertionError("could not build a consistent instance")


def test_completeness_against_full_truth_table_filter():
    rng = random.Random(99)
    for _ in range(25):
        wiring, course = _random_instance(rng)
        for i in range(len(wiring.nodes)):
            d = local_data(wiring, course, i)
            pairs = list(zip(d.seen_indices(), (out for _, out in d.pairs)))
            expected = {
                bits
                for bits in oracles.all_cascade_ints(d.arity)
                if all((bits >> idx) & 1 == out for idx, out in pairs)
            }
            got = {t.to_int() for t in infer_ncfs(wiring, course, i)}
            assert got == expected


def test_monotonicity_more_data_never_enlarges():
    rng = random.Random(4242)
    for _ in range(20):
        wiring, course = _random_instance(rng)
        rows = list(course.rows)
        for cut in range(2, len(rows)):
            shorter = TimeCourse(course.nodes, rows[:cut])
            longer = TimeCourse(course.nodes, rows[: cut + 1])
            for i in range(len(wiring.nodes)):
                small = {t.to_int() for t in infer_ncfs(wiring, longer, i)}
                large = {t.to_int() for t in infer_ncfs(wiring, shorter, i)}
                assert small <= large


def test_cross_check_random_instances():
    rng = random.Random(31337)
    for _ in range(10):
        wiring, course = _random_instance(rng, max_k=3)
        for i in range(len(wiring.nodes)):
            assert cross_check(wiring, course, i)


def test_cross_check_constant_node():
    wiring = WiringDiagram(["A"], [[0]])
    course = TimeCourse(["A"], [[1], [0], [0]])
    assert len(infer_ncfs(wiring, course, 0)) == 0
    assert cross_check(wiring, course, 0)


def test_count_models(yeast_result):
    assert count_models(yeast_result) == 0  # Cln3 has no fitting NCF
    nonzero = 1
    for rec in yeast_result.nodes:
        if len(rec.ncfs):
            nonzero *= len(rec.ncfs)
    assert nonzero == 330_559_488


def test_count_models_single_node():
    wiring = WiringDiagram(["A"], [[0]])
    course = TimeCourse(["A"], [[0], [0]])
    res = infer_all(wiring, course)
    assert count_models(res) == 1  # only the identity fits (0 -> 0)


def test_near_misses_cln3(yeast):
    wiring, course = yeast
    misses = near_misses(wiring, course, wiring.index("Cln3"))
    assert len(misses) == 1
    table, essential = misses[0]
    assert table.values == (0, 0) and essential == frozenset()


_CASCADES = {s: oracles.all_cascade_ints(s) for s in range(1, 4)}


def _assert_near_misses_match_brute_force(wiring, course):
    for i in range(len(wiring.nodes)):
        d = local_data(wiring, course, i)
        k = d.arity
        pairs = [
            (sum(x << j for j, x in enumerate(point)), out)
            for point, out in d.pairs
        ]
        expected = {}
        for bits in oracles.fitting_table_ints(pairs, k):
            ess = oracles.essential_var_ids(bits, k)
            if len(ess) == k:
                continue
            if not ess or oracles.restrict(bits, k, ess) in _CASCADES[len(ess)]:
                expected[bits] = frozenset(ess)
        got = {t.to_int(): ess for t, ess in near_misses(wiring, course, i)}
        assert got == expected


def test_near_misses_against_brute_force():
    rng = random.Random(8086)
    for _ in range(20):
        _assert_near_misses_match_brute_force(*_random_instance(rng))


@settings(derandomize=True, max_examples=40, deadline=None)
@given(consistent_instances(max_nodes=5, max_k=4))
def test_near_misses_against_brute_force_any_instance(instance):
    _assert_near_misses_match_brute_force(*instance)


def _embedded_near_misses(d):
    # fitting constants, plus every cascade on a proper subset of the
    # variables, embedded point by point, that fits the data
    k = d.arity
    pairs = [
        (sum(x << j for j, x in enumerate(point)), out) for point, out in d.pairs
    ]

    def fit(bits):
        return all((bits >> idx) & 1 == out for idx, out in pairs)

    full = (1 << (1 << k)) - 1
    expected = {bits: frozenset() for bits in (0, full) if fit(bits)}
    for size in range(1, k):
        for positions in itertools.combinations(range(1, k + 1), size):
            for sub_bits in oracles.all_cascade_ints(size):
                bits = oracles.embed(sub_bits, k, positions)
                if fit(bits):
                    expected[bits] = frozenset(positions)
    return expected


@pytest.mark.parametrize("transitions", [1, 2, 3])
@pytest.mark.parametrize("seed", [0, 1])
def test_near_misses_k5_against_embedded_sub_cascades(seed, transitions):
    # the full truth-table filter is out of reach at k = 5 (2^32 tables)
    rng = random.Random(seed * 10 + transitions)
    names = [f"n{i}" for i in range(6)]
    wiring = WiringDiagram(names, [[1, 2, 3, 4, 5]] + [[0]] * 5)
    while True:
        rows = [[rng.getrandbits(1) for _ in names] for _ in range(transitions + 1)]
        course = TimeCourse(names, rows)
        try:
            d = local_data(wiring, course, 0)
        except InconsistentDataError:
            continue
        break
    got = {t.to_int(): ess for t, ess in near_misses(wiring, course, 0)}
    assert got == _embedded_near_misses(d)


def test_cross_check_catches_a_dropped_member(yeast, monkeypatch):
    # one member missing from either route is a mismatch
    wiring, course = yeast
    i = wiring.index("Cdh1")
    assert cross_check(wiring, course, i)
    d = local_data(wiring, course, i)
    dropped = infer_ncfs(wiring, course, i).members[0]
    real_census = infer_module.enumerate_ncfs
    with monkeypatch.context() as m:
        m.setattr(
            infer_module,
            "enumerate_ncfs",
            lambda k, allow_big=False: oracles.filtered(
                real_census(k, allow_big), lambda t: t != dropped
            ),
        )
        census = infer_module.enumerate_ncfs(d.arity)
        assert len(census.fitting(d._seen_bits, d._value_bits)) == 11
        assert not cross_check(wiring, course, i)
    assert cross_check(wiring, course, i)
    real_peel = infer_module._peeled
    monkeypatch.setattr(infer_module, "_peeled", lambda *args: real_peel(*args)[1:])
    assert len(infer_ncfs(wiring, course, i)) == 11
    assert not cross_check(wiring, course, i)


def test_cross_check_validates_the_filtered_set(yeast, monkeypatch):
    wiring, course = yeast
    i = wiring.index("Cdh1")
    assert cross_check(wiring, course, i)
    real = NcfSet.fitting

    def drop_first(self, seen_bits, value_bits):
        kept = real(self, seen_bits, value_bits)
        pairs = [(t.to_int(), kept.witness(t)) for t in kept]
        return NcfSet._of(kept.arity, pairs[1:])

    monkeypatch.setattr(NcfSet, "fitting", drop_first)
    assert not cross_check(wiring, course, i)


def test_local_data_is_extracted_once_per_node(yeast, monkeypatch):
    wiring, course = yeast
    calls = []
    real = infer_module.local_data

    def counting(wiring, timecourses, node):
        calls.append(node)
        return real(wiring, timecourses, node)

    monkeypatch.setattr(infer_module, "local_data", counting)
    infer_all(wiring, course)
    assert calls == list(range(len(wiring.nodes)))
    calls.clear()
    assert cross_check(wiring, course, wiring.index("Sic1"))
    assert calls == [wiring.index("Sic1")]


def test_near_misses_are_fitting_sub_cascades(yeast):
    wiring, course = yeast
    i = wiring.index("Cdh1")
    d = local_data(wiring, course, i)
    for table, essential in near_misses(wiring, course, i):
        assert fits(table, d)
        assert set(oracles.essential_var_ids(table.to_int(), d.arity)) == essential
        assert len(essential) < d.arity


def test_infer_all_records(yeast_result):
    assert [rec.name for rec in yeast_result.nodes] == YEAST_NODES
    cln3 = yeast_result.node("Cln3")
    assert cln3.forced is not None and cln3.forced.values == (0, 0)
    assert yeast_result.node("Sic1").forced is None
    with pytest.raises(KeyError):
        yeast_result.node("nope")


def test_infer_all_only_one_node(yeast):
    wiring, course = yeast
    res = infer_all(wiring, course, only="Swi5")
    assert [rec.name for rec in res.nodes] == ["Swi5"]
    assert len(res.nodes[0].ncfs) == 14
