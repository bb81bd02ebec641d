import random

import pytest

import oracles
from ncfinfer.boolfun import CoeffVector, TruthTable, anf_string, anf_to_tt, tt_to_anf
from ncfinfer.errors import CapacityError, InconsistentDataError
from ncfinfer.modelspace import (
    LocalData,
    ModelSpace,
    coset_element,
    fits,
    ideal_generator,
    interpolant,
    model_space_size,
)


def test_interpolant_examples():
    d = LocalData(2, [((0, 0), 1)])
    assert interpolant(d).values == (1, 0, 0, 0)
    assert anf_string(tt_to_anf(interpolant(d))) == "1 + x1 + x2 + x1*x2"
    neg = LocalData(1, [((0,), 1), ((1,), 0)])
    assert interpolant(neg).values == (1, 0)
    ident = LocalData(1, [((0,), 0), ((1,), 1)])  # the Cln1,2 <- SBF data
    assert interpolant(ident).values == (0, 1)


def test_ideal_generator_examples():
    d = LocalData(2, [((0, 0), 1)])
    assert anf_string(tt_to_anf(ideal_generator(d))) == "x1 + x2 + x1*x2"
    assert ideal_generator(LocalData(1, [((0,), 0)])).values == (0, 1)  # p = x1
    full = LocalData(2, [((a, b), 0) for a in (0, 1) for b in (0, 1)])
    assert ideal_generator(full).values == (0, 0, 0, 0)


def test_ideal_generator_is_unseen_indicator():
    rng = random.Random(11)
    for _ in range(50):
        k = rng.randrange(1, 4)
        points = rng.sample(range(1 << k), rng.randrange(1, (1 << k) + 1))
        d = LocalData(
            k,
            [
                (tuple((p >> i) & 1 for i in range(k)), rng.getrandbits(1))
                for p in points
            ],
        )
        p = ideal_generator(d)
        for m in range(1 << k):
            assert p.values[m] == (0 if m in points else 1)


def test_coset_element_examples():
    d = LocalData(1, [((0,), 1)])
    zero = CoeffVector(1, [0, 0])
    assert coset_element(d, zero) == tt_to_anf(interpolant(d))
    assert anf_to_tt(coset_element(d, zero)).values == (1, 0)  # negation
    # g = 1: h = (1 + x1) + 1*x1 = 1, the other member of the 2-element coset
    one = CoeffVector(1, [1, 0])
    assert anf_to_tt(coset_element(d, one)).values == (1, 1)
    with pytest.raises(ValueError):
        coset_element(d, CoeffVector(2, [0, 0, 0, 0]))


def test_coset_image_is_exactly_the_fitting_set():
    rng = random.Random(23)
    for _ in range(30):
        k = rng.randrange(1, 4)
        points = rng.sample(range(1 << k), rng.randrange(1, (1 << k) + 1))
        pairs = [
            ((tuple((p >> i) & 1 for i in range(k))), rng.getrandbits(1))
            for p in points
        ]
        d = LocalData(k, pairs)
        image = {
            anf_to_tt(coset_element(d, CoeffVector.from_int(k, g))).to_int()
            for g in range(1 << (1 << k))
        }
        brute = set(
            oracles.fitting_table_ints(
                [(idx, val) for idx, val in zip(d.seen_indices(), [o for _, o in d.pairs])],
                k,
            )
        )
        assert image == brute
        assert len(image) == model_space_size(d)


def test_fits():
    and2 = TruthTable(2, [0, 0, 0, 1])
    assert fits(and2, LocalData(2, [((1, 1), 1), ((0, 1), 0)]))
    assert not fits(and2, LocalData(2, [((1, 1), 0)]))
    d = LocalData(2, [((1, 0), 1)])
    assert fits(interpolant(d), d)
    with pytest.raises(ValueError):
        fits(TruthTable(1, [0, 1]), d)


def test_model_space_size():
    d5 = LocalData(
        3, [((0, 0, 0), 0), ((1, 0, 0), 1), ((0, 1, 0), 1), ((1, 1, 0), 0), ((0, 0, 1), 0)]
    )
    assert model_space_size(d5) == 8
    full = LocalData(1, [((0,), 1), ((1,), 1)])
    assert model_space_size(full) == 1
    rng = random.Random(3)
    pairs = [
        (tuple((p >> i) & 1 for i in range(5)), rng.getrandbits(1))
        for p in rng.sample(range(32), 8)
    ]
    assert model_space_size(LocalData(5, pairs)) == 1 << 24


def test_interpolant_is_unique_zero_padded_fit():
    rng = random.Random(5)
    for _ in range(30):
        k = rng.randrange(1, 4)
        points = rng.sample(range(1 << k), rng.randrange(1, (1 << k) + 1))
        d = LocalData(
            k,
            [
                (tuple((p >> i) & 1 for i in range(k)), rng.getrandbits(1))
                for p in points
            ],
        )
        f = interpolant(d)
        assert fits(f, d)
        for m in range(1 << k):
            if m not in points:
                assert f.values[m] == 0


def test_local_data_collapses_duplicates_and_rejects_contradictions():
    d = LocalData(1, [((0,), 1), ((0,), 1), ((1,), 0)])
    assert d.distinct_inputs == 2
    with pytest.raises(InconsistentDataError) as err:
        LocalData(1, [((0,), 1), ((0,), 0)])
    assert "(0,)" in str(err.value)


@pytest.mark.parametrize("point", [(2,), (-1,), (0.5,), ("1",), (1.0,)])
def test_local_data_rejects_entries_other_than_0_1(point):
    # an entry 2 once passed and later broke model_space_size with a
    # negative shift count; 1.0 equals 1 but is not a bit
    with pytest.raises(ValueError, match="0/1"):
        LocalData(1, [(point, 1)])
    with pytest.raises(ValueError, match="0/1"):
        LocalData(1, [((0,), 1), ((1,), 0), (point, 1)])
    with pytest.raises(ValueError, match="0/1"):
        LocalData(1, [((0,), point[0])])


def test_model_space_materialization():
    d = LocalData(2, [((0, 0), 1), ((1, 1), 0)])
    space = ModelSpace.from_data(d)
    tables = list(space.tables())
    assert len(tables) == space.size == 4
    assert len({t.to_int() for t in tables}) == 4
    assert all(fits(t, d) for t in tables)
    assert interpolant(d) in tables


def test_local_data_checks_the_arity():
    # ModelSpace.from_data lists all 2^k table indices, so the arity is
    # capped before any data is read
    with pytest.raises(CapacityError, match="hard cap"):
        LocalData(17, [])
    with pytest.raises(ValueError, match="nonnegative"):
        LocalData(-1, [])
    assert LocalData(16, []).arity == 16


def test_model_space_materialization_cap():
    pairs = [((tuple((p >> i) & 1 for i in range(5))), 0) for p in range(4)]
    space = ModelSpace.from_data(LocalData(5, pairs))
    with pytest.raises(CapacityError):
        next(space.tables())


def test_model_space_sample_fits_and_is_deterministic():
    d = LocalData(3, [((0, 0, 0), 1), ((1, 1, 1), 0)])
    space = ModelSpace.from_data(d)
    draws1 = [space.sample(random.Random(s)).to_int() for s in range(20)]
    draws2 = [space.sample(random.Random(s)).to_int() for s in range(20)]
    assert draws1 == draws2
    assert all(fits(TruthTable.from_int(3, b), d) for b in draws1)


@pytest.mark.parametrize(
    "arity, free",
    [(3, 0), (3, 1), (4, 8), (4, 9), (5, 17), (5, 20), (6, 0), (6, 9), (7, 100)],
)
def test_int_sampler_matches_sample(arity, free):
    rng = random.Random(arity * 100 + free)
    pairs = [
        (p, rng.randrange(2))
        for p in rng.sample(range(1 << arity), (1 << arity) - free)
    ]
    data = LocalData(arity, [
        (tuple((p >> i) & 1 for i in range(arity)), out) for p, out in pairs
    ])
    space = ModelSpace.from_data(data)
    count, draw, table = space._sampler()
    assert count == space.size == 1 << free
    for s in range(50):
        # the sampler and sample both take the oracle's table from the same
        # random bits, leaving the same rng state
        ours, sampled, theirs = (random.Random(s) for _ in range(3))
        expected = oracles.scatter_draw(arity, pairs, theirs)
        assert table(draw(ours)) == space.sample(sampled).to_int() == expected
        assert ours.getstate() == sampled.getstate() == theirs.getstate()
    if free <= 9:
        # the assignment is the row of its table in the materialized order
        expected = [oracles.scatter(arity, pairs, a) for a in range(count)]
        assert [table(a) for a in range(count)] == expected
        assert [t.to_int() for t in space.tables()] == expected
