"""The space of Boolean functions fitting one node's observed transitions.

The fitting functions form a coset, the interpolant plus the ideal that
:func:`ideal_generator` generates, so they are counted, materialized and
sampled as assignments to the unobserved points.
"""

from typing import NamedTuple

from .boolfun import (
    TruthTable, _check_arity, _check_bits, anf_to_tt, point_to_index, tt_to_anf
)
from .errors import CapacityError, InconsistentDataError

_MATERIALIZE_CAP = 20  # free bits; 2^20 tables is the most tables() will yield


class LocalData:
    """Observed (point, bit) pairs for one node on ``arity`` regulators (at
    most HARD_ARITY_CAP), duplicates collapsed.  Two pairs with the same
    input and different outputs raise :class:`InconsistentDataError`.
    """

    __slots__ = ("arity", "pairs", "_seen_bits", "_value_bits")

    def __init__(self, arity, pairs):
        _check_arity(arity, allow_big=True)
        self.arity = arity
        collapsed = {}
        for point, out in pairs:
            point = tuple(point)
            if len(point) != arity:
                raise ValueError(
                    f"input {point} has length {len(point)}, expected {arity}"
                )
            _check_bits(point, "point")
            _check_bits((out,), "output")
            idx = point_to_index(point)
            if idx in collapsed and collapsed[idx][1] != out:
                raise InconsistentDataError(
                    f"input {point} observed with both outputs 0 and 1",
                    input=list(point),
                )
            collapsed[idx] = (point, out)
        self.pairs = tuple(collapsed[idx] for idx in sorted(collapsed))
        self._seen_bits = 0
        self._value_bits = 0
        for idx, (_, out) in sorted(collapsed.items()):
            self._seen_bits |= 1 << idx
            self._value_bits |= out << idx

    @property
    def distinct_inputs(self):
        return len(self.pairs)

    def seen_indices(self):
        """Table indices of the observed inputs, ascending."""
        return tuple(point_to_index(p) for p, _ in self.pairs)

    def __eq__(self, other):
        if not isinstance(other, LocalData):
            return NotImplemented
        return (
            self.arity == other.arity
            and self._seen_bits == other._seen_bits
            and self._value_bits == other._value_bits
        )

    def __hash__(self):
        return hash((self.arity, self._seen_bits, self._value_bits))

    def __repr__(self):
        return f"LocalData(arity={self.arity}, pairs={len(self.pairs)})"


def interpolant(data):
    """The fitting function that is 0 at every unobserved point."""
    return TruthTable.from_int(data.arity, data._value_bits, allow_big=True)


def ideal_generator(data):
    """Generator of the ideal of functions vanishing on the observed inputs:
    the indicator of the unobserved points.  Every fitting function is the
    interpolant plus a multiple of it."""
    full = (1 << (1 << data.arity)) - 1
    return TruthTable.from_int(data.arity, full ^ data._seen_bits, allow_big=True)


def coset_element(data, g):
    """ANF of interpolant + g * generator, the fitting function selected by
    g; all polynomials g sweep out exactly the fitting functions."""
    if g.arity != data.arity:
        raise ValueError(
            f"polynomial arity {g.arity} does not match data arity {data.arity}"
        )
    g_bits = anf_to_tt(g).to_int()
    p_bits = ideal_generator(data).to_int()
    h_bits = data._value_bits ^ (g_bits & p_bits)
    return tt_to_anf(TruthTable.from_int(data.arity, h_bits, allow_big=True))


def fits(table, data):
    """Does the function agree with every observed pair?"""
    if table.arity != data.arity:
        raise ValueError(
            f"table arity {table.arity} does not match data arity {data.arity}"
        )
    return table.to_int() & data._seen_bits == data._value_bits


def model_space_size(data):
    """Number of functions fitting the data: 2^(2^k - distinct inputs)."""
    return 1 << ((1 << data.arity) - data.distinct_inputs)


class ModelSpace(NamedTuple):
    """Materializable view of all functions fitting one node's data."""

    arity: int
    data: LocalData
    interpolant: TruthTable
    unseen: tuple

    @classmethod
    def from_data(cls, data):
        seen = set(data.seen_indices())
        unseen = tuple(
            idx for idx in range(1 << data.arity) if idx not in seen
        )
        return cls(data.arity, data, interpolant(data), unseen)

    @property
    def size(self):
        return 1 << len(self.unseen)

    def tables(self):
        """Yield every fitting function once, in ``_sampler()`` order: one
        step per assignment to the unobserved points."""
        free = len(self.unseen)
        if free > _MATERIALIZE_CAP:
            raise CapacityError(
                f"refusing to materialize 2^{free} tables",
                free_bits=free,
            )
        count, _, table = self._sampler()
        for assign in range(count):
            yield TruthTable.from_int(self.arity, table(assign), allow_big=True)

    def sample(self, rng):
        """One fitting function uniformly at random (rng: random.Random),
        drawn as ``_sampler()`` draws it."""
        _, draw, table = self._sampler()
        return TruthTable.from_int(self.arity, table(draw(rng)), allow_big=True)

    def _sampler(self):
        """The fitting functions as table ints, ``(count, draw, table)``.

        ``table(assign)`` is the interpolant with bit j of ``assign`` at
        the j-th smallest unobserved index, and ``draw(rng)`` picks an
        assignment uniformly, taking no random bits when there is one
        candidate.  The assignment is spread a byte at a time:
        entry v of byte b's lookup table holds bit j of v at the (8b + j)-th
        unobserved index, shifted down to the byte's first one.
        """
        free = len(self.unseen)
        spread = []
        for lo in range(0, free, 8):
            points = self.unseen[lo:lo + 8]
            entries = [0]
            for idx in points:
                entries += [e | 1 << (idx - points[0]) for e in entries]
            spread.append((points[0], entries))
        base = self.data._value_bits

        def table(assign):
            bits = base
            for shift, entries in spread:
                bits |= entries[assign & 255] << shift
                assign >>= 8
            return bits

        def draw(rng):
            return rng.getrandbits(free)

        return 1 << free, draw, table
