"""Nested canalyzing functions: cascade forms, recognition, enumeration.

Recognition uses the ANF coefficient criterion; every enumeration runs one
cascade peel, ``_fitting_forms``.  The README's ``ncf`` section describes
the design.
"""

import itertools
from bisect import bisect_left
from functools import lru_cache
from math import comb
from operator import itemgetter
from typing import NamedTuple

from .boolfun import (
    SOFT_ARITY_CAP,
    TruthTable,
    _anf_text,
    _check_arity,
    _check_bits,
    index_to_subset,
    tt_to_anf,
    variable_masks,
)

__all__ = [
    "NcfForm",
    "NcfSet",
    "ncf_from_form",
    "completion",
    "is_ncf_wrt",
    "is_ncf",
    "enumerate_ncfs",
]


class NcfForm(
    NamedTuple("NcfForm", [("order", tuple), ("inputs", tuple), ("outputs", tuple)])
):
    """Cascade description of a nested canalyzing function: order[i] is the
    (1-based) variable tested at layer i+1, inputs[i] its canalyzing value
    and outputs[i] the output it forces; when no layer fires, the function
    takes the complement of outputs[-1]."""

    __slots__ = ()

    def __new__(cls, order, inputs, outputs):
        order, inputs, outputs = tuple(order), tuple(inputs), tuple(outputs)
        k = len(order)
        if k == 0:
            raise ValueError("a cascade needs at least one layer")
        _check_order(order, k)
        if len(inputs) != k or len(outputs) != k:
            raise ValueError("inputs and outputs must have one entry per layer")
        _check_bits(inputs, "canalyzing inputs")
        _check_bits(outputs, "canalyzed outputs")
        return super().__new__(cls, order, inputs, outputs)

    @property
    def arity(self):
        return len(self.order)


def ncf_from_form(form):
    """Truth table of a cascade form, scanning its layers at each point."""
    k = form.arity
    _check_arity(k, allow_big=True)
    values = []
    for idx in range(1 << k):
        for var, a, b in zip(form.order, form.inputs, form.outputs):
            if (idx >> (var - 1)) & 1 == a:
                values.append(b)
                break
        else:
            values.append(1 - form.outputs[-1])
    return TruthTable(k, values, allow_big=True)


def _check_order(order, k):
    if sorted(order) != list(range(1, k + 1)):
        raise ValueError(f"order {order} is not a permutation of 1..{k}")


def _fitting_forms(value, seen, free, varmasks, undecided):
    # Aligned lists of table ints and their witness forms (order, inputs,
    # outputs), order 1-based, one per nested canalyzing function on the
    # 0-based variables `free` that takes `value` on the mask `seen`.
    # Variable v may come next with input a and output b when every
    # undecided seen point with x_v = a has value b; those points are then
    # decided b, and `table` holds the ones decided 1.  Two rules keep one
    # form, the witness, per function: a variable with the same output as
    # the one before it (`prev`, `prev_b`) has a larger index, so each
    # layer is in ascending order; and the last variable takes input 0 and
    # a larger index than the one before it, since flipping its input and
    # output keeps the function.  The last variable is placed inline, one
    # call above, unless it is the only one.
    tables, forms = [], []
    table_found, form_found = tables.append, forms.append

    def peel(free, undecided, table, order, inputs, outputs, prev, prev_b):
        for i, v in enumerate(free):
            rest = free[:i] + free[i + 1 :]
            o = order + (v + 1,)
            on = undecided & varmasks[v]
            if not rest:
                # a lone variable is the only one, placed by the top call
                # (prev is -1): every other call places its last two
                # variables together, so no index rule applies here
                for b, bits in ((0, table | on), (1, table | undecided ^ on)):
                    if bits & seen == value:
                        table_found(bits)
                        form_found((o, inputs + (0,), outputs + (b,)))
                continue
            if len(rest) == 1:
                w = rest[0]
                if w < v:
                    continue
                ow, mw = o + (w + 1,), varmasks[w]
            for a, hit in ((0, undecided ^ on), (1, on)):
                fixed = hit & seen
                left = undecided ^ hit
                ins = inputs + (a,)
                for b in (1 - prev_b,) if v < prev else (0, 1):
                    if value & fixed != (fixed if b else 0):
                        continue
                    decided = table | hit if b else table
                    outs = outputs + (b,)
                    if len(rest) > 1:
                        peel(rest, left, decided, o, ins, outs, v, b)
                        continue
                    # w last, input 0: its 0 half decided c, the rest 1 - c
                    onw = left & mw
                    insw = ins + (0,)
                    bits = decided | onw
                    if bits & seen == value:
                        table_found(bits)
                        form_found((ow, insw, outs + (0,)))
                    bits = decided | left ^ onw
                    if bits & seen == value:
                        table_found(bits)
                        form_found((ow, insw, outs + (1,)))

    peel(tuple(free), undecided, 0, (), (), (), -1, None)
    return tables, forms


def _peeled(k, seen, value):
    # the ascending (table int, witness) pairs of the nested canalyzing
    # functions on k inputs that take `value` on the mask `seen`
    full = (1 << (1 << k)) - 1
    found = _fitting_forms(value, seen, range(k), variable_masks(k), full)
    return sorted(zip(*found), key=itemgetter(0))


def completion(subset, order):
    """Prefix of the test order ending at the latest tested member of a
    nonempty ``subset``, as a frozenset."""
    subset = frozenset(subset)
    if not subset:
        raise ValueError("completion is undefined for the empty subset")
    order = tuple(order)
    k = len(order)
    _check_order(order, k)
    if not subset <= set(order):
        raise ValueError(f"subset {sorted(subset)} not within variables 1..{k}")
    r = max(i for i, var in enumerate(order) if var in subset)
    return frozenset(order[: r + 1])


@lru_cache(maxsize=None)
def _criterion_constraints(order):
    """``(S, completion mask, near-full masks)`` for each nonempty proper
    subset mask S: a near-full mask is the full set minus one variable of
    the completion missing from S.  See :func:`is_ncf_wrt`."""
    full = (1 << len(order)) - 1
    out = []
    for s_mask in range(1, full):
        subset = index_to_subset(s_mask)
        comp = completion(subset, order)
        missing = comp - subset
        factors = tuple(full ^ (1 << (v - 1)) for v in order if v in missing)
        out.append((s_mask, sum(1 << (v - 1) for v in comp), factors))
    return tuple(out)


def is_ncf_wrt(coeffs, order):
    """Coefficient criterion: is this ANF nested canalyzing in this order?

    True iff the full-set coefficient is 1 and each nonempty proper
    subset's coefficient is its completion's times the near-full
    coefficients of the variables completed over.
    """
    k = coeffs.arity
    order = tuple(order)
    _check_order(order, k)
    if k == 0:
        return False
    c = coeffs.to_int()
    full = (1 << k) - 1
    if not (c >> full) & 1:
        return False
    for s_mask, comp, factors in _criterion_constraints(order):
        rhs = (c >> comp) & 1
        for f in factors:
            if not rhs:
                break
            rhs &= (c >> f) & 1
        if ((c >> s_mask) & 1) != rhs:
            return False
    return True


def is_ncf(table):
    """Is the function nested canalyzing in at least one test order?  The
    criterion's full-set coefficient rejects inessential variables."""
    if table.arity == 0:
        return False
    coeffs = tt_to_anf(table)
    return any(
        is_ncf_wrt(coeffs, order)
        for order in itertools.permutations(range(1, table.arity + 1))
    )


class NcfSet:
    """Set of nested canalyzing truth tables of one arity, as the peel
    finds them: ``enumerate_ncfs``, ``infer_ncfs`` and ``fitting`` build
    every set.

    Members are held as two aligned tuples: their table integers in
    ascending order, so iteration, export and comparisons are
    deterministic, and their witnesses, the one form the peel yields for
    each, as (order, inputs, outputs) triples.  ``members`` builds the
    ``TruthTable`` objects on first access.
    """

    __slots__ = ("arity", "_ints", "_forms", "_members")

    @classmethod
    def _of(cls, arity, pairs):
        # the set of the ascending (table int, witness) pairs `pairs`
        self = object.__new__(cls)
        self.arity, self._members = arity, None
        self._ints, self._forms = zip(*pairs) if pairs else ((), ())
        return self

    @property
    def members(self):
        """Member truth tables in ascending integer order."""
        if self._members is None:
            self._members = tuple(
                TruthTable.from_int(self.arity, b, allow_big=True) for b in self._ints
            )
        return self._members

    def to_ints(self):
        """Member table integers, ascending."""
        return self._ints

    def __len__(self):
        return len(self._ints)

    def __iter__(self):
        return iter(self.members)

    def __contains__(self, table):
        bits = table.to_int()
        i = bisect_left(self._ints, bits)
        return table.arity == self.arity and self._ints[i : i + 1] == (bits,)

    def __eq__(self, other):
        if not isinstance(other, NcfSet):
            return NotImplemented
        return (self.arity, self._ints) == (other.arity, other._ints)

    def __hash__(self):
        return hash((self.arity, self._ints))

    def __repr__(self):
        return f"NcfSet(arity={self.arity}, size={len(self)})"

    def fitting(self, seen_bits, value_bits):
        """Subset of members equal to ``value_bits`` on the points of the
        mask ``seen_bits``, with their witnesses."""
        return NcfSet._of(
            self.arity,
            [p for p in zip(self._ints, self._forms) if p[0] & seen_bits == value_bits],
        )

    def witness(self, table):
        """The witness form generating the member ``table``."""
        if table not in self:
            raise KeyError(f"{table!r} is not a member")
        return NcfForm(*self._forms[bisect_left(self._ints, table.to_int())])

    def anf_lines(self):
        """Canonical ANF strings, one per member, in member order."""
        k = self.arity
        return [_anf_text(b, k) for b in self._ints]

    def json_records(self):
        """JSON-ready records: table integer, ANF, and one witness form."""
        return [
            {
                "table": bits,
                "anf": anf,
                "witness_form": dict(zip(("order", "inputs", "outputs"), map(list, w))),
            }
            for bits, anf, w in zip(self._ints, self.anf_lines(), self._forms)
        ]


_ENUM_CACHE = {}


def enumerate_ncfs(k, allow_big=False):
    """All nested canalyzing functions on exactly k inputs.

    Every NCF on k >= 2 inputs has a unique layer structure (Li, Adeyeye,
    Murrugarra, Aguilar and Laubenbacher, Theor. Comput. Sci. 481, 2013):
    an ordered partition of the variables into layers whose last layer
    holds at least two variables, one canalyzing input per variable, and
    the first layer's output, with outputs alternating from layer to
    layer.  The census is the peel run with no data, which yields each
    function once, as its witness form; every member depends on all k
    variables.  Sets up to SOFT_ARITY_CAP are cached.
    """
    if k < 1:
        raise ValueError(f"there are no nested canalyzing functions on {k} inputs")
    _check_arity(k, allow_big)
    if k in _ENUM_CACHE:
        return _ENUM_CACHE[k]
    result = NcfSet._of(k, _peeled(k, 0, 0))
    if k <= SOFT_ARITY_CAP:
        _ENUM_CACHE[k] = result
    return result


def _census_size(k):
    # len(enumerate_ncfs(k)) without building it, 0 when k = 0, by counting
    # the layer structures that enumerate_ncfs describes
    if k == 1:
        return 2
    ordered = [1]  # ordered set partitions of 0, 1, ..., k - 2 elements
    for n in range(1, k - 1):
        ordered.append(sum(comb(n, j) * ordered[n - j] for j in range(1, n + 1)))
    return 2 ** (k + 1) * sum(comb(k, j) * ordered[k - j] for j in range(2, k + 1))
