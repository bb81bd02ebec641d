import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from ncfinfer.boolfun import (
    CoeffVector,
    TruthTable,
    _anf_text,
    anf_string,
    anf_to_tt,
    essential_vars,
    evaluate,
    index_to_point,
    parse_anf,
    point_to_index,
    tt_to_anf,
    variable_masks,
)
from ncfinfer.errors import CapacityError

AND2 = TruthTable(2, [0, 0, 0, 1])
XOR2 = TruthTable(2, [0, 1, 1, 0])
ONES2 = TruthTable(2, [1, 1, 1, 1])


def test_tt_to_anf_known_polynomials():
    assert tt_to_anf(AND2).coeffs == (0, 0, 0, 1)  # x1*x2
    assert tt_to_anf(ONES2).coeffs == (1, 0, 0, 0)  # 1
    assert tt_to_anf(XOR2).coeffs == (0, 1, 1, 0)  # x1 + x2


def test_anf_to_tt_known_tables():
    assert anf_to_tt(CoeffVector(2, [0, 0, 0, 1])).values == (0, 0, 0, 1)
    assert anf_to_tt(CoeffVector(1, [1, 1])).values == (1, 0)  # 1 + x1
    assert anf_to_tt(CoeffVector(2, [0, 0, 0, 0])).values == (0, 0, 0, 0)


def test_transform_involution_exhaustive_small():
    for k in range(5):
        for bits in range(1 << (1 << k)):
            t = TruthTable.from_int(k, bits)
            assert anf_to_tt(tt_to_anf(t)) == t


def test_transform_involution_random_k5():
    rng = random.Random(20240917)
    for _ in range(2000):
        t = TruthTable.from_int(5, rng.getrandbits(32))
        assert anf_to_tt(tt_to_anf(t)) == t


def test_anf_matches_direct_subset_sum():
    for k in range(4):
        for bits in range(1 << (1 << k)):
            t = TruthTable.from_int(k, bits)
            assert tt_to_anf(t).coeffs == oracles.anf_coeffs(t.values, k)


def test_variable_masks_match_their_definition():
    for k in range(17):
        assert variable_masks(k) == tuple(
            sum(1 << m for m in range(1 << k) if (m >> j) & 1) for j in range(k)
        )


def test_transform_matches_the_oracle_above_the_soft_cap():
    rng = random.Random(20261020)
    for k in range(6, 13):
        t = TruthTable.from_int(k, rng.getrandbits(1 << k), allow_big=True)
        c = tt_to_anf(t)
        assert c.coeffs == oracles.anf_coeffs(t.values, k)
        assert anf_to_tt(c) == t


def test_evaluate():
    assert evaluate(AND2, (1, 1)) == 1
    assert evaluate(AND2, (0, 1)) == 0
    assert evaluate(TruthTable(3, [0] * 8), (1, 0, 1)) == 0
    with pytest.raises(ValueError):
        evaluate(AND2, (1, 1, 0))


def test_evaluate_agrees_with_anf_evaluation():
    for k in range(4):
        for bits in range(1 << (1 << k)):
            t = TruthTable.from_int(k, bits)
            c = tt_to_anf(t).coeffs
            for point in range(1 << k):
                assert evaluate(t, index_to_point(k, point)) == oracles.eval_anf(
                    c, point, k
                )


def test_essential_vars():
    assert essential_vars(AND2) == {1, 2}
    assert essential_vars(TruthTable(3, [1] * 8)) == frozenset()
    # projection onto x2 embedded in three variables
    proj = TruthTable(3, [(m >> 1) & 1 for m in range(8)])
    assert essential_vars(proj) == {2}


def test_essential_vars_empty_iff_constant():
    for k in range(4):
        for bits in range(1 << (1 << k)):
            t = TruthTable.from_int(k, bits)
            is_const = bits in (0, (1 << (1 << k)) - 1)
            assert (essential_vars(t) == frozenset()) == is_const


def test_essential_vars_are_the_variables_whose_flip_matters():
    rng = random.Random(8)
    for k in range(9):
        for _ in range(20):
            ignored = rng.getrandbits(k)
            values = [rng.getrandbits(1) for _ in range(1 << k)]
            # the value at m is read at m with the ignored variables cleared
            t = TruthTable(k, [values[m & ~ignored] for m in range(1 << k)],
                           allow_big=True)
            flips = {
                i + 1
                for i in range(k)
                if any(t.values[m] != t.values[m ^ (1 << i)] for m in range(1 << k))
            }
            assert essential_vars(t) == flips
            assert not any(ignored >> (i - 1) & 1 for i in flips)


def test_point_index_round_trip():
    for k in range(5):
        for m in range(1 << k):
            assert point_to_index(index_to_point(k, m)) == m


def test_construction_validation():
    with pytest.raises(ValueError):
        TruthTable(2, [0, 1, 2, 0])
    with pytest.raises(ValueError):
        TruthTable(2, [0, 1])
    # floats equal to 0 and 1 are not bits, in tables or points
    with pytest.raises(ValueError):
        TruthTable(1, [0.0, 1.0])
    with pytest.raises(ValueError):
        evaluate(TruthTable(1, [0, 1]), [1.0])
    assert TruthTable(1, [False, True]) == TruthTable(1, [0, 1])
    with pytest.raises(CapacityError):
        TruthTable(6, [0] * 64)  # above the soft cap without the flag
    assert TruthTable(6, [0] * 64, allow_big=True).arity == 6
    with pytest.raises(CapacityError):
        TruthTable(17, [0] * (1 << 17), allow_big=True)  # hard cap
    for cls in (TruthTable, CoeffVector):
        with pytest.raises(ValueError):
            cls.from_int(2, 16)
        with pytest.raises(ValueError):
            cls.from_int(2, -1)
        with pytest.raises(CapacityError):
            cls.from_int(6, 0)
        with pytest.raises(CapacityError):
            cls.from_int(17, 0, allow_big=True)


def test_parse_anf_checks_the_arity_before_allocating():
    # its coefficient list has 2^arity entries: 8 GB at arity 30
    with pytest.raises(CapacityError, match="hard cap"):
        parse_anf("0", 30, allow_big=True)
    with pytest.raises(CapacityError, match="soft cap"):
        parse_anf("x1", 6)


def test_from_int_matches_constructor():
    rng = random.Random(5)
    for k in range(7):
        bits = rng.getrandbits(1 << k)
        values = [(bits >> m) & 1 for m in range(1 << k)]
        t = TruthTable.from_int(k, bits, allow_big=True)
        assert t == TruthTable(k, values, allow_big=True)
        assert t.values == tuple(values)
        c = CoeffVector.from_int(k, bits, allow_big=True)
        assert c.coeffs == CoeffVector(k, values, allow_big=True).coeffs


def test_anf_string():
    assert anf_string(tt_to_anf(AND2)) == "x1*x2"
    assert anf_string(CoeffVector(2, [0, 0, 0, 0])) == "0"
    assert anf_string(CoeffVector(2, [1, 0, 0, 0])) == "1"
    assert anf_string(CoeffVector(3, [1, 1, 0, 0, 0, 1, 0, 0])) == "1 + x1 + x1*x3"
    assert anf_string(CoeffVector(0, [0])) == "0"
    assert anf_string(CoeffVector(0, [1])) == "1"
    assert anf_string(CoeffVector(1, [0, 1])) == "x1"
    # monomials by degree, then by variable ids, for random k=5 polynomials
    rng = random.Random(11)
    for _ in range(200):
        bits = rng.getrandbits(32)
        monomials = sorted(
            ([i + 1 for i in range(5) if (m >> i) & 1] for m in range(32) if (bits >> m) & 1),
            key=lambda vs: (len(vs), vs),
        )
        expected = " + ".join("*".join(f"x{i}" for i in vs) or "1" for vs in monomials)
        assert anf_string(CoeffVector.from_int(5, bits)) == (expected or "0")


def _values(bits, k):
    return [(bits >> m) & 1 for m in range(1 << k)]


def _rendered(bits, k):
    # a table's ANF text, by the renderer the catalog and the infer report
    # use, checked against the public route through its coefficients
    text = _anf_text(bits, k)
    table = TruthTable.from_int(k, bits, allow_big=True)
    assert anf_string(tt_to_anf(table)) == text
    return text


@pytest.mark.parametrize("k", [0, 1, 2, 3, 4])
def test_anf_text_matches_the_oracle_on_every_small_table(k):
    for bits in range(1 << (1 << k)):
        assert _rendered(bits, k) == oracles.anf_text(_values(bits, k), k)


@settings(derandomize=True, max_examples=300, deadline=None)
@given(st.integers(0, (1 << 32) - 1))
def test_anf_text_matches_the_oracle_on_k5_tables(bits):
    assert _rendered(bits, 5) == oracles.anf_text(_values(bits, 5), 5)


@settings(derandomize=True, max_examples=40, deadline=None)
@given(st.integers(0, (1 << 64) - 1))
def test_anf_text_above_the_soft_cap_matches_the_oracle(bits):
    # allow_big arities render by a join over the monomials in print order
    assert _rendered(bits, 6) == oracles.anf_text(_values(bits, 6), 6)


def test_parse_anf_round_trip_exhaustive_k3():
    for bits in range(256):
        c = CoeffVector.from_int(3, bits)
        assert parse_anf(anf_string(c), 3) == c


def test_parse_anf_rejects_malformed():
    for bad in ["", "x1 *", "x0", "x4", "y1", "x1*x1", "x1 + x1", "2",
                "x 1", "x01", "x\u0661", "x1_0"]:
        with pytest.raises(ValueError):
            parse_anf(bad, 3)
    # int() reads "x1_0" as x10, which is in range at arity 10
    with pytest.raises(ValueError):
        parse_anf("x1_0", 10, allow_big=True)
