"""Independent reference implementations used only by the tests.

Everything here is written the slow, obvious way, on purpose: these
functions define expected values for the library without sharing any of
its code paths (no packed integers, no coefficient criterion, no
bit-parallel tricks).
"""

import functools
import itertools


def cascade_value(order, inputs, outputs, point):
    """Value of a canalyzing cascade at one point, by literal case analysis.

    ``point`` is the packed index of the assignment (x_i at bit i-1).
    """
    for var, a, b in zip(order, inputs, outputs):
        if (point >> (var - 1)) & 1 == a:
            return b
    return 1 - outputs[-1]


def cascade_values(order, inputs, outputs):
    """Full value vector of a cascade, index convention x_i -> bit i-1."""
    k = len(order)
    return tuple(
        cascade_value(order, inputs, outputs, point) for point in range(1 << k)
    )


@functools.lru_cache(maxsize=None)
def all_cascade_ints(k):
    """Packed truth tables of every cascade on k inputs (the form oracle).

    Computed once per k and shared, hence frozen.
    """
    out = set()
    for order in itertools.permutations(range(1, k + 1)):
        for a in itertools.product((0, 1), repeat=k):
            for b in itertools.product((0, 1), repeat=k):
                values = cascade_values(order, a, b)
                out.add(sum(v << m for m, v in enumerate(values)))
    return frozenset(out)


def cascade_forms_by_table(k):
    """Every cascade on k inputs as (order, inputs, outputs), by packed table.

    Forms are listed in generation order: orders lexicographically, then
    inputs, then outputs, each compared from the last layer back.
    """
    # reversed product tuples vary the last layer slowest
    bit_tuples = [p[::-1] for p in itertools.product((0, 1), repeat=k)]
    out = {}
    for order in itertools.permutations(range(1, k + 1)):
        for a in bit_tuples:
            for b in bit_tuples:
                values = cascade_values(order, a, b)
                bits = sum(v << m for m, v in enumerate(values))
                out.setdefault(bits, []).append((order, a, b))
    return out


def anf_coeff(values, subset_mask, k):
    """One ANF coefficient by direct subset summation over F2.

    c_S = XOR of the function over all points whose support is within S.
    """
    acc = 0
    for point in range(1 << k):
        if point & ~subset_mask == 0:
            acc ^= values[point]
    return acc


def anf_coeffs(values, k):
    return tuple(anf_coeff(values, s, k) for s in range(1 << k))


def anf_text(values, k):
    """ANF text of the function with value vector ``values``: each monomial
    of ``anf_coeffs`` written as ``*``-joined ``x<i>`` in increasing i (the
    constant as ``1``), sorted by degree and then by variable ids, and
    joined by ``" + "``; ``"0"`` when there is none."""
    coeffs = anf_coeffs(values, k)
    monomials = sorted(
        ([i + 1 for i in range(k) if (s >> i) & 1] for s in range(1 << k) if coeffs[s]),
        key=lambda ids: (len(ids), ids),
    )
    return " + ".join("*".join(f"x{i}" for i in ids) or "1" for ids in monomials) or "0"


def eval_anf(coeffs, point, k):
    """Evaluate an ANF at a point as an explicit XOR of monomials."""
    acc = 0
    for subset in range(1 << k):
        if coeffs[subset] and subset & ~point == 0:
            acc ^= 1
    return acc


def fitting_table_ints(pairs, k):
    """All packed tables agreeing with (point index, output) pairs."""
    out = []
    for bits in range(1 << (1 << k)):
        if all((bits >> idx) & 1 == val for idx, val in pairs):
            out.append(bits)
    return out


def essential_var_ids(bits, k):
    """1-based variables whose flip changes the packed table somewhere."""
    return [
        i + 1
        for i in range(k)
        if any((bits >> p) & 1 != (bits >> (p ^ (1 << i))) & 1 for p in range(1 << k))
    ]


def restrict(bits, k, positions):
    """The table read off the 1-based ``positions`` (ascending), all other
    variables held at 0; variable j of the result is ``positions[j]``."""
    out = 0
    for sub in range(1 << len(positions)):
        point = 0
        for j, pos in enumerate(positions):
            if (sub >> j) & 1:
                point |= 1 << (pos - 1)
        out |= ((bits >> point) & 1) << sub
    return out


def embed(sub_bits, k, positions):
    """The table on k inputs that reads the smaller table ``sub_bits`` off
    the 1-based ``positions`` (ascending): variable j of ``sub_bits`` is
    ``positions[j]``, and every other variable is ignored."""
    out = 0
    for point in range(1 << k):
        sub = 0
        for j, pos in enumerate(positions):
            if (point >> (pos - 1)) & 1:
                sub |= 1 << j
        out |= ((sub_bits >> sub) & 1) << point
    return out


def successor(tables, regulators, state):
    """The synchronous successor of the state int ``state`` (node i at
    bit i): node i takes the bit of its table int ``tables[i]`` at the
    point whose bit j is the value of its j-th regulator."""
    nxt = 0
    for i, (bits, regs) in enumerate(zip(tables, regulators)):
        point = 0
        for j, r in enumerate(regs):
            if (state >> r) & 1:
                point += 2 ** j
        if (bits >> point) & 1:
            nxt += 2 ** i
    return nxt


def functional_graph(succ):
    """Components, attractors and component sizes of the map m -> succ[m].

    Walks from every state until a state repeats; the states from the first
    repeat on form that state's cycle.  Components are numbered by their
    smallest cycle state, and each attractor starts at its smallest state.
    Returns (component_of, attractors, sizes) as a list and two tuples.
    """
    head_of = []
    for start in range(len(succ)):
        path = {}  # state -> step at which the walk reached it
        cur = start
        while cur not in path:
            path[cur] = len(path)
            cur = succ[cur]
        head_of.append(min(list(path)[path[cur]:]))
    heads = sorted(set(head_of))
    number = {h: c for c, h in enumerate(heads)}
    component_of = [number[h] for h in head_of]
    attractors = []
    for h in heads:
        cycle = [h]
        while succ[cycle[-1]] != h:
            cycle.append(succ[cycle[-1]])
        attractors.append(tuple(cycle))
    sizes = [0] * len(heads)
    for c in component_of:
        sizes[c] += 1
    return component_of, tuple(attractors), tuple(sizes)


def scatter(k, pairs, assign):
    """The packed table agreeing with (point index, output) ``pairs`` whose
    other entries are the bits of ``assign``: bit j of ``assign`` goes to
    the j-th smallest index not in ``pairs``."""
    values = dict(pairs)
    unseen = [p for p in range(1 << k) if p not in values]
    for j, p in enumerate(unseen):
        values[p] = (assign >> j) & 1
    return sum(values[p] << p for p in range(1 << k))


def scatter_draw(k, pairs, rng):
    """A uniform draw of the tables agreeing with ``pairs``: ``scatter`` of
    ``rng.getrandbits(free)``, free being the number of unseen indices,
    and no random bits at all when every index is seen."""
    free = (1 << k) - len(dict(pairs))
    return scatter(k, pairs, rng.getrandbits(free) if free else 0)


def candidate_draw(rec, rng, mode):
    """One node's table int for one ensemble sample, drawn as the ensemble
    defines it: uniformly from the fitting NCFs (``ncf``), else the forced
    function, or from every table fitting the node's data
    (``unrestricted``) through ``scatter_draw``."""
    if mode == "ncf":
        members = rec.ncfs.members
        table = members[rng.randrange(len(members))] if members else rec.forced
        return table.to_int()
    pairs = [
        (sum(bit << i for i, bit in enumerate(point)), out)
        for point, out in rec.data.pairs
    ]
    return scatter_draw(rec.data.arity, pairs, rng)


def filtered(ncfs, keep):
    """The members of the NcfSet ``ncfs`` passing ``keep``, with their
    witnesses, as a new set."""
    pairs = [(t.to_int(), ncfs.witness(t)) for t in ncfs if keep(t)]
    return type(ncfs)._of(ncfs.arity, pairs)
