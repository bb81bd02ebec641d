"""A Boolean function is one value, whichever constructor built it.

``TruthTable(k, values)`` and ``CoeffVector(k, coeffs)`` of the same
function compare equal, hash alike, and get the same answer from every
function of the package that takes a Boolean function.  The coefficients
come from the oracle, and each shared answer is also checked against an
expected value, so that two constructors agreeing on a wrong answer fail.
"""

import itertools
import random

import pytest

import oracles
from ncfinfer.boolfun import (
    CoeffVector,
    TruthTable,
    anf_string,
    anf_to_tt,
    essential_vars,
    evaluate,
    index_to_point,
    tt_to_anf,
)
from ncfinfer.dynamics import BooleanNetwork, phase_space
from ncfinfer.infer import WiringDiagram
from ncfinfer.modelspace import LocalData, coset_element, fits
from ncfinfer.ncf import enumerate_ncfs, is_ncf, is_ncf_wrt, ncf_from_form


def _table_ints(k):
    # every function on k <= 3 inputs; at k = 4 and 5 a seeded sample of
    # random tables and census members
    if k <= 3:
        return range(1 << (1 << k))
    rng = random.Random(f"one-value-{k}")
    census = enumerate_ncfs(k).to_ints()
    picks = []
    for _ in range(12):
        picks += [rng.getrandbits(1 << k), rng.choice(census)]
    return picks


def _network(f):
    # max(k, 1) nodes, node i reading nodes i, i + 1, ... (mod n) through f
    k = f.arity
    n = max(k, 1)
    wiring = WiringDiagram(
        [f"n{i}" for i in range(n)],
        [[(i + j) % n for j in range(k)] for i in range(n)],
    )
    return BooleanNetwork(wiring, [f] * n)


def _successors(values, k):
    # the successor of every state of _network, read off the value vector
    n = max(k, 1)
    out = []
    for s in range(1 << n):
        nxt = 0
        for i in range(n):
            m = sum(((s >> ((i + j) % n)) & 1) << j for j in range(k))
            nxt |= values[m] << i
        out.append(nxt)
    return out


@pytest.mark.parametrize("k", [0, 1, 2, 3, 4, 5])
def test_both_constructors_give_one_value(k):
    census = enumerate_ncfs(k).to_ints() if k else ()
    rng = random.Random(k)
    for bits in _table_ints(k):
        values = [(bits >> m) & 1 for m in range(1 << k)]
        coeffs = oracles.anf_coeffs(values, k)
        t, c = TruthTable(k, values), CoeffVector(k, coeffs)
        both = (t, c)
        assert t == c and c == t and hash(t) == hash(c)
        for f in both:
            assert f.values == tuple(values) and f.coeffs == coeffs
            # to_int keeps each constructor's own coordinates
            assert type(f).from_int(k, f.to_int()) == f
        assert t.to_int() == bits
        assert c.to_int() == sum(v << m for m, v in enumerate(coeffs))

        for m in range(1 << k):
            point = index_to_point(k, m)
            assert evaluate(t, point) == evaluate(c, point) == values[m]
        assert essential_vars(t) == essential_vars(c)
        assert anf_string(t) == anf_string(c) == oracles.anf_text(values, k)
        for convert, cls in ((tt_to_anf, CoeffVector), (anf_to_tt, TruthTable)):
            out = [convert(f) for f in both]
            assert {type(o) for o in out} == {cls} and out[0] == out[1] == t
            assert out[0].to_int() == out[1].to_int()

        member = bits in census
        assert is_ncf(t) == is_ncf(c) == member
        wrt = [(is_ncf_wrt(t, order), is_ncf_wrt(c, order))
               for order in itertools.permutations(range(1, k + 1))]
        assert all(a == b for a, b in wrt) and any(a for a, _ in wrt) == member

        seen = [m for m in range(1 << k) if rng.getrandbits(1)] or [0]
        data = LocalData(k, [(index_to_point(k, m), values[m]) for m in seen])
        flipped = LocalData(k, [(index_to_point(k, m), values[m] ^ (m == seen[0]))
                                for m in seen])
        assert fits(t, data) and fits(c, data)
        assert not fits(t, flipped) and not fits(c, flipped)
        elements = [coset_element(flipped, g) for g in both]
        assert elements[0] == elements[1] and fits(elements[0], flipped)

        if k:
            ncfs = enumerate_ncfs(k)
            assert (t in ncfs) == (c in ncfs) == member
            if member:
                assert ncfs.witness(t) == ncfs.witness(c)
                assert ncf_from_form(ncfs.witness(c)) == t
            else:
                for f in both:
                    with pytest.raises(KeyError):
                        ncfs.witness(f)

        spaces = [phase_space(_network(f)) for f in both]
        assert spaces[0].successor.tolist() == _successors(values, k)
        for a, b in zip(*spaces):
            assert a == b if isinstance(a, int) else a.tolist() == b.tolist()


def test_the_constant_one_built_from_its_coefficients():
    one = CoeffVector(2, [1, 0, 0, 0])
    assert one == CoeffVector.from_int(2, 1) == TruthTable(2, [1, 1, 1, 1])
    assert not is_ncf(one)
    assert one not in enumerate_ncfs(2)
    with pytest.raises(KeyError):
        enumerate_ncfs(2).witness(one)
    assert evaluate(one, (1, 1)) == 1
    assert one.to_int() == 1 and anf_to_tt(one).to_int() == 0b1111
    assert repr(one) == "CoeffVector(arity=2, coeffs=[1, 0, 0, 0])"
