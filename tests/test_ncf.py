import functools
import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from ncfinfer import ncf as ncf_module
from ncfinfer.boolfun import (
    TruthTable,
    _PackedVector,
    anf_string,
    anf_to_tt,
    essential_vars,
    parse_anf,
    tt_to_anf,
    variable_masks,
)
from ncfinfer.errors import CapacityError
from ncfinfer.infer import infer_all
from ncfinfer.ncf import (
    NcfForm,
    _census_size,
    _fitting_forms,
    completion,
    enumerate_ncfs,
    is_ncf,
    is_ncf_wrt,
    ncf_from_form,
)

AND2 = TruthTable(2, [0, 0, 0, 1])
OR2 = TruthTable(2, [0, 1, 1, 1])
XOR2 = TruthTable(2, [0, 1, 1, 0])


def test_ncf_from_form_known_functions():
    assert ncf_from_form(NcfForm((1, 2), (0, 0), (0, 0))) == AND2
    assert ncf_from_form(NcfForm((1,), (0,), (1,))).values == (1, 0)
    assert ncf_from_form(NcfForm((1, 2), (1, 1), (1, 1))) == OR2


def test_ncf_from_form_matches_case_analysis_oracle():
    for k in (1, 2, 3):
        for order in itertools.permutations(range(1, k + 1)):
            for a in itertools.product((0, 1), repeat=k):
                for b in itertools.product((0, 1), repeat=k):
                    table = ncf_from_form(NcfForm(order, a, b))
                    assert table.values == oracles.cascade_values(order, a, b)


def test_form_validation():
    with pytest.raises(ValueError):
        NcfForm((1, 1), (0, 0), (0, 0))
    with pytest.raises(ValueError):
        NcfForm((1, 2), (0,), (0, 0))
    with pytest.raises(ValueError):
        NcfForm((1, 2), (0, 2), (0, 0))


@pytest.mark.parametrize(
    "form, field",
    [
        (((1,), (0.0,), (1,)), "canalyzing inputs"),
        (((1,), (2,), (1,)), "canalyzing inputs"),
        (((1, 2), (0, 1), (1, 1.0)), "canalyzed outputs"),
        (((1, 2), (0, 1), (1, "1")), "canalyzed outputs"),
    ],
)
def test_form_rejects_values_other_than_int_bits(form, field):
    # 0.0 and 1.0 equal 0 and 1 but are not bits
    with pytest.raises(ValueError, match=f"{field} must hold only the integers 0/1"):
        NcfForm(*form)


def test_form_is_a_tuple_of_its_fields():
    form = NcfForm([2, 1], [0, 1], outputs=[1, 1])
    order, inputs, outputs = form
    assert (order, inputs, outputs) == ((2, 1), (0, 1), (1, 1))
    assert len(form) == 3 and form.arity == 2
    assert form == ((2, 1), (0, 1), (1, 1))
    assert hash(form) == hash(((2, 1), (0, 1), (1, 1)))
    assert repr(form) == "NcfForm(order=(2, 1), inputs=(0, 1), outputs=(1, 1))"
    with pytest.raises(AttributeError):
        form.order = (1, 2)


def test_completion():
    assert completion({1, 3}, (1, 2, 3, 4)) == {1, 2, 3}
    assert completion({2}, (2, 3, 1)) == {2}
    assert completion({1}, (2, 3, 1)) == {1, 2, 3}
    with pytest.raises(ValueError):
        completion(set(), (1, 2))
    with pytest.raises(ValueError):
        completion({4}, (1, 2, 3))


def test_is_ncf_wrt_examples():
    assert is_ncf_wrt(tt_to_anf(AND2), (1, 2))
    for order in itertools.permutations((1, 2)):
        assert not is_ncf_wrt(tt_to_anf(XOR2), order)
    majority = TruthTable(3, [1 if bin(m).count("1") >= 2 else 0 for m in range(8)])
    for order in itertools.permutations((1, 2, 3)):
        assert not is_ncf_wrt(tt_to_anf(majority), order)
    assert majority.to_int() not in oracles.all_cascade_ints(3)


def test_is_ncf_examples():
    assert is_ncf(OR2)
    assert is_ncf(AND2)
    assert not is_ncf(XOR2)
    assert XOR2.to_int() not in oracles.all_cascade_ints(2)


def test_census_counts_against_form_oracle():
    expected = {1: 2, 2: 8, 3: 64, 4: 736}
    for k, count in expected.items():
        members = enumerate_ncfs(k)
        oracle = oracles.all_cascade_ints(k)
        assert len(members) == count
        assert {t.to_int() for t in members} == oracle


def test_criterion_equals_cascade_definition_exhaustive():
    for k in (1, 2, 3):
        oracle = oracles.all_cascade_ints(k)
        for bits in range(1 << (1 << k)):
            assert is_ncf(TruthTable.from_int(k, bits)) == (bits in oracle)


def test_criterion_equals_cascade_definition_random_k4():
    oracle = {t.to_int() for t in enumerate_ncfs(4)}
    rng = random.Random(1729)
    for _ in range(10000):
        bits = rng.getrandbits(16)
        assert is_ncf(TruthTable.from_int(4, bits)) == (bits in oracle)


def test_criterion_equals_enumeration_random_k5():
    # random 32-value tables are almost never nested canalyzing, so members
    # and members with one value flipped are checked as well
    members = sorted(t.to_int() for t in enumerate_ncfs(5))
    member_set = set(members)
    rng = random.Random(2718)
    for _ in range(1000):
        member = rng.choice(members)
        for bits in (rng.getrandbits(32), member, member ^ (1 << rng.randrange(32))):
            assert is_ncf(TruthTable.from_int(5, bits)) == (bits in member_set)


def test_per_order_soundness():
    # whatever cascade generated a table, the criterion accepts that order
    for k in (1, 2, 3):
        for order in itertools.permutations(range(1, k + 1)):
            for a in itertools.product((0, 1), repeat=k):
                for b in itertools.product((0, 1), repeat=k):
                    form = NcfForm(order, a, b)
                    coeffs = tt_to_anf(ncf_from_form(form))
                    assert is_ncf_wrt(coeffs, order)
    rng = random.Random(7)
    for _ in range(300):
        order = tuple(rng.sample(range(1, 5), 4))
        a = tuple(rng.getrandbits(1) for _ in range(4))
        b = tuple(rng.getrandbits(1) for _ in range(4))
        coeffs = tt_to_anf(ncf_from_form(NcfForm(order, a, b)))
        assert is_ncf_wrt(coeffs, order)


def test_members_depend_on_all_variables():
    for k in (1, 2, 3, 4):
        full = frozenset(range(1, k + 1))
        assert all(essential_vars(t) == full for t in enumerate_ncfs(k))


def _relabel(table, perm):
    # perm maps old 1-based variable id to new id
    k = table.arity
    values = [0] * (1 << k)
    for m in range(1 << k):
        target = 0
        for i in range(k):
            target |= ((m >> i) & 1) << (perm[i + 1] - 1)
        values[target] = table.values[m]
    return TruthTable(k, values)


def test_relabeling_closure():
    for k in (1, 2, 3, 4):
        ncfs = enumerate_ncfs(k)
        for perm_tuple in itertools.permutations(range(1, k + 1)):
            perm = dict(zip(range(1, k + 1), perm_tuple))
            for t in ncfs:
                assert _relabel(t, perm) in ncfs


def test_enumeration_order_is_canonical():
    ints = [t.to_int() for t in enumerate_ncfs(3)]
    assert ints == sorted(ints)
    assert len(set(ints)) == len(ints)


def test_enumerate_rejects_bad_arity():
    with pytest.raises(ValueError):
        enumerate_ncfs(0)
    with pytest.raises(ValueError, match="-1 inputs"):
        enumerate_ncfs(-1)
    with pytest.raises(CapacityError):
        enumerate_ncfs(6)


def test_enumerate_checks_the_hard_cap_before_allocating():
    # the census on 17 inputs would be tables of 2^17 bits each, and the
    # peel would allocate until memory ran out
    with pytest.raises(CapacityError, match="hard cap"):
        enumerate_ncfs(17, allow_big=True)


def test_ncf_from_form_checks_the_hard_cap_before_allocating():
    # its value list has 2^k entries: 8 GB at k = 30
    k = 30
    form = NcfForm(tuple(range(1, k + 1)), (0,) * k, (0,) * k)
    with pytest.raises(CapacityError, match="hard cap"):
        ncf_from_form(form)


# Ordered Bell (Fubini) numbers: ordered partitions of an n-set.
FUBINI = (1, 1, 3, 13, 75, 541, 4683)


def test_census_matches_layer_count_recursion():
    # Jarrah, Raposa and Laubenbacher (Physica D 233, 2007): an NCF on
    # k >= 2 inputs is an ordered partition of its variables into layers
    # whose last layer has at least two variables (F(k) - k*F(k-1) ways),
    # a canalyzing input per variable and the first layer's output.
    # The CLI reads the closed-form count rather than building the census.
    counts = {k: len(enumerate_ncfs(k, allow_big=True)) for k in range(1, 7)}
    assert counts[1] == 2
    for k in range(2, 7):
        assert counts[k] == 2 ** (k + 1) * (FUBINI[k] - k * FUBINI[k - 1])
    assert counts[6] == 183_936
    assert {k: _census_size(k) for k in range(1, 7)} == counts
    assert _census_size(0) == 0


def test_witness_forms_regenerate_members():
    for k in (3, 4, 5):
        ncfs = enumerate_ncfs(k)
        for t in ncfs:
            assert _pointwise_int(*ncfs.witness(t)) == t.to_int()


def test_witness_is_first_form_of_full_scan():
    # at k = 5 the golden digest of ncfs_k5.json pins every witness
    rng = random.Random(2013)
    for k, count in ((1, 2), (2, 8), (3, 64), (4, 40)):
        ncfs = enumerate_ncfs(k)
        for t in rng.sample(ncfs.members, count):
            assert ncfs.witness(t) == _oracle_forms(k)[t.to_int()][0]


def test_ncf_set_export():
    ncfs = enumerate_ncfs(1)
    assert ncfs.anf_lines() == ["1 + x1", "x1"]
    records = ncfs.json_records()
    assert [r["table"] for r in records] == [1, 2]
    assert [r["witness_form"] for r in records] == [
        {"order": [1], "inputs": [0], "outputs": [1]},
        {"order": [1], "inputs": [0], "outputs": [0]},
    ]


def test_ncf_set_filtered_keeps_witnesses():
    ncfs = enumerate_ncfs(2)
    # a subset built from some of the census's pairs keeps their witnesses
    odd = oracles.filtered(ncfs, lambda t: t.to_int() % 2 == 1)
    assert all(t.to_int() % 2 == 1 for t in odd)
    for t in odd:
        assert ncf_from_form(odd.witness(t)) == t
        assert odd.witness(t) == ncfs.witness(t)


@functools.lru_cache(maxsize=None)
def _oracle_forms(k):
    return oracles.cascade_forms_by_table(k)


@functools.lru_cache(maxsize=None)
def _pointwise_int(order, inputs, outputs):
    values = oracles.cascade_values(order, inputs, outputs)
    return sum(v << m for m, v in enumerate(values))


@st.composite
def _local_data(draw):
    # a random set of seen points with random values, or with the values of
    # a census member so that some cascades fit
    k = draw(st.integers(1, 5))
    full = (1 << (1 << k)) - 1
    seen = draw(st.integers(0, full))
    value = draw(
        st.integers(0, full) | st.sampled_from(sorted(oracles.all_cascade_ints(k)))
    )
    return k, seen, value & seen


@settings(derandomize=True, max_examples=100, deadline=None)
@given(_local_data())
def test_peel_tables_match_the_pointwise_definition_and_the_census(case):
    # each fitting table comes out once, as the census member's witness
    k, seen, value = case
    full = (1 << (1 << k)) - 1
    census = enumerate_ncfs(k)
    tables, forms = _fitting_forms(value, seen, range(k), variable_masks(k), full)
    assert len(forms) == len(tables) == len(set(tables))
    for bits, (order, inputs, outputs) in zip(tables, forms):
        assert bits == _pointwise_int(order, inputs, outputs)
        witness = census.witness(TruthTable.from_int(k, bits))
        assert NcfForm(order, inputs, outputs) == witness
    assert set(tables) == {b for b in oracles.all_cascade_ints(k) if b & seen == value}


def _count_tables(monkeypatch):
    # list that grows by one per truth table or coefficient vector built,
    # from its integer or from its entries
    built = []
    from_int, init = _PackedVector.__dict__["_from_int"].__func__, _PackedVector._init

    def counting_from_int(cls, *args):
        built.append(cls)
        return from_int(cls, *args)

    def counting_init(self, *args):
        built.append(type(self))
        return init(self, *args)

    monkeypatch.setattr(_PackedVector, "_from_int", classmethod(counting_from_int))
    monkeypatch.setattr(_PackedVector, "_init", counting_init)
    return built


def test_census_and_catalog_lines_build_no_table(monkeypatch):
    monkeypatch.setattr(ncf_module, "_ENUM_CACHE", {})
    built = _count_tables(monkeypatch)
    ncfs = enumerate_ncfs(5)
    assert len(ncfs) == 10624
    assert built == []
    assert len(ncfs.anf_lines()) == 10624
    assert built == []
    # a table is built for each member only when a caller asks for members
    assert ncfs.members[0].to_int() == ncfs.to_ints()[0]
    assert len(built) == 10624


def test_infer_all_builds_tables_only_for_near_misses(yeast, monkeypatch):
    # a cold process: no census is cached for infer_all to read
    monkeypatch.setattr(ncf_module, "_ENUM_CACHE", {})
    built = _count_tables(monkeypatch)
    result = infer_all(*yeast)
    assert sum(len(rec.ncfs) for rec in result.nodes) == 437
    assert len(built) == sum(len(rec.near_misses) for rec in result.nodes) <= 200


def test_lazy_members_are_the_sorted_census_tables():
    for k in (1, 2, 3, 4):
        expected = tuple(
            TruthTable.from_int(k, bits) for bits in sorted(_oracle_forms(k))
        )
        assert enumerate_ncfs(k).members == expected
        assert tuple(enumerate_ncfs(k)) == expected
    big = enumerate_ncfs(6, allow_big=True)
    assert {t.arity for t in big.members} == {6}
    assert tuple(t.to_int() for t in big.members) == big.to_ints()


def test_fitting_keeps_the_members_equal_to_the_data_and_their_witnesses():
    ncfs = enumerate_ncfs(3)
    seen, value = 0b10010110, 0b10000010
    fit = ncfs.fitting(seen, value)
    assert fit.to_ints() == tuple(b for b in ncfs.to_ints() if b & seen == value)
    assert 0 < len(fit) < len(ncfs)
    for t in fit:
        assert fit.witness(t) == ncfs.witness(t)


def test_ncf_set_membership_equality_and_hash():
    census = enumerate_ncfs(2)
    nor2 = TruthTable(2, [1, 0, 0, 0])
    assert census.to_ints() == (1, 2, 4, 7, 8, 11, 13, 14)
    fit = census.fitting(0b0001, 0)
    assert fit.to_ints() == (2, 4, 8, 14)
    assert fit.witness(AND2) == census.witness(AND2)
    with pytest.raises(KeyError):
        fit.witness(nor2)
    # the same pairs make an equal set with an equal hash
    rebuilt = census.fitting(0, 0)
    assert rebuilt is not census
    assert rebuilt == census and hash(rebuilt) == hash(census)
    assert rebuilt != fit
    # the same integers at another arity make another set, empty ones too
    assert census.fitting(0b1100, 0).to_ints() == enumerate_ncfs(1).to_ints()
    assert census.fitting(0b1100, 0) != enumerate_ncfs(1)
    none1, none2 = enumerate_ncfs(1).fitting(0b11, 0b11), census.fitting(15, 15)
    assert len(none1) == len(none2) == 0 and none1 != none2
    # membership outside the members' range or arity
    low, high = census.to_ints()[0], census.to_ints()[-1]
    assert (low, high) == (1, 14)
    for bits in (0, 15):
        assert TruthTable.from_int(2, bits) not in census
    assert TruthTable.from_int(3, 8) not in census
    assert AND2 in census and XOR2 not in census
    with pytest.raises(KeyError):
        census.witness(XOR2)


def test_catalog_lines_match_anf_string_every_small_census_member():
    for k in (1, 2, 3, 4):
        ncfs = enumerate_ncfs(k)
        lines = ncfs.anf_lines()
        assert lines == [anf_string(tt_to_anf(t)) for t in ncfs.members]
        # and the parser, written apart from the renderer, reads them back
        assert [anf_to_tt(parse_anf(line, k)) for line in lines] == list(ncfs.members)


def test_catalog_lines_match_the_oracle_on_every_k5_member():
    # the oracle shares no code with the renderer that anf_lines and
    # anf_string both use
    ncfs = enumerate_ncfs(5)
    for bits, line in zip(ncfs.to_ints(), ncfs.anf_lines()):
        assert line == oracles.anf_text([(bits >> m) & 1 for m in range(32)], 5)


@settings(derandomize=True, max_examples=200, deadline=None)
@given(st.integers(0, 10623))
def test_catalog_lines_match_anf_string_k5_member(i):
    ncfs = enumerate_ncfs(5)
    t = ncfs.members[i]
    line = ncfs.anf_lines()[i]
    assert line == anf_string(tt_to_anf(t))
    assert anf_to_tt(parse_anf(line, 5)) == t
