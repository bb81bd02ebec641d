"""Per-node inference of all nested canalyzing functions fitting a time course.

Inference is per node, because the space of whole-network models is the
product of the per-node spaces; the README's ``infer`` section describes
the design.
"""

import itertools
from math import prod
from typing import NamedTuple

from .boolfun import TruthTable, _check_arity, _check_bits, variable_masks
from .errors import CapacityError, InconsistentDataError
from .modelspace import LocalData, interpolant, model_space_size
from .ncf import NcfSet, _fitting_forms, _peeled, enumerate_ncfs

__all__ = [
    "WiringDiagram",
    "TimeCourse",
    "NodeInference",
    "InferenceResult",
    "local_data",
    "infer_ncfs",
    "near_misses",
    "infer_all",
    "count_models",
    "cross_check",
]


class WiringDiagram:
    """Directed regulator -> target structure over named nodes:
    ``regulators[i]`` lists the nodes feeding node i, the j-th of them
    being the j-th variable of node i's local function."""

    __slots__ = ("nodes", "regulators")

    def __init__(self, nodes, regulators, allow_big=False):
        nodes = tuple(nodes)
        if len(set(nodes)) != len(nodes):
            raise ValueError("duplicate node names in wiring diagram")
        if len(regulators) != len(nodes):
            raise ValueError("need exactly one regulator list per node")
        regs = []
        for i, lst in enumerate(regulators):
            lst = tuple(lst)
            if len(set(lst)) != len(lst):
                raise ValueError(f"duplicate regulators for node {nodes[i]!r}")
            for r in lst:
                if not 0 <= r < len(nodes):
                    raise ValueError(
                        f"regulator index {r} of node {nodes[i]!r} out of range"
                    )
            try:
                _check_arity(len(lst), allow_big)
            except CapacityError as e:
                raise CapacityError(f"node {nodes[i]!r}: {e}", node=nodes[i]) from None
            regs.append(lst)
        self.nodes = nodes
        self.regulators = tuple(regs)

    def index(self, name):
        try:
            return self.nodes.index(name)
        except ValueError:
            raise KeyError(f"unknown node {name!r}") from None

    @property
    def in_degrees(self):
        return tuple(len(r) for r in self.regulators)

    def regulator_names(self, i):
        return tuple(self.nodes[r] for r in self.regulators[i])

    def __repr__(self):
        return f"WiringDiagram(nodes={len(self.nodes)})"


class TimeCourse:
    """Consecutive global states; rows t and t+1 form one transition pair."""

    __slots__ = ("nodes", "rows")

    def __init__(self, nodes, rows):
        nodes = tuple(nodes)
        if len(set(nodes)) != len(nodes):
            raise ValueError("duplicate node names in time course")
        rows = tuple(tuple(r) for r in rows)
        if len(rows) < 2:
            raise ValueError("a time course needs at least 2 rows")
        for t, row in enumerate(rows):
            if len(row) != len(nodes):
                raise ValueError(
                    f"row {t + 1} has {len(row)} entries, expected {len(nodes)}"
                )
            _check_bits(row, f"row {t + 1}")
        self.nodes = nodes
        self.rows = rows

    def __repr__(self):
        return f"TimeCourse(nodes={len(self.nodes)}, rows={len(self.rows)})"


def _as_courses(timecourses):
    if isinstance(timecourses, TimeCourse):
        return (timecourses,)
    courses = tuple(timecourses)
    if not courses:
        raise ValueError("need at least one time course")
    return courses


def _column_map(wiring, course):
    """Wiring node index -> time-course column, reconciled by name."""
    cols = {name: j for j, name in enumerate(course.nodes)}
    missing = [n for n in wiring.nodes if n not in cols]
    if missing:
        raise ValueError(f"time course lacks columns for nodes {missing}")
    extra = [n for n in course.nodes if n not in wiring.nodes]
    if extra:
        raise ValueError(f"time course has columns for unknown nodes {extra}")
    return [cols[n] for n in wiring.nodes]


def states_as_ints(wiring, course):
    """Course rows as state integers (wiring node i at bit i)."""
    colmap = _column_map(wiring, course)
    return tuple(
        sum(row[colmap[i]] << i for i in range(len(wiring.nodes)))
        for row in course.rows
    )


def local_data(wiring, timecourses, node):
    """Transitions restricted to one node: (regulator values, next value).

    Pairs never straddle a course boundary.  Duplicate pairs collapse;
    contradictory ones raise :class:`InconsistentDataError` naming the
    node, the input pattern and both transitions.
    """
    courses = _as_courses(timecourses)
    regs = wiring.regulators[node]
    name = wiring.nodes[node]
    seen = {}
    for ci, course in enumerate(courses):
        colmap = _column_map(wiring, course)
        reg_cols = [colmap[r] for r in regs]
        node_col = colmap[node]
        for t in range(len(course.rows) - 1):
            inp = tuple(course.rows[t][c] for c in reg_cols)
            out = course.rows[t + 1][node_col]
            if inp in seen:
                prev_out, prev_ci, prev_t = seen[inp]
                if prev_out != out:
                    raise InconsistentDataError(
                        f"node {name!r}: input {inp} maps to {prev_out} at "
                        f"course {prev_ci + 1} row {prev_t + 1} but to {out} at "
                        f"course {ci + 1} row {t + 1}",
                        node=name,
                        input=list(inp),
                        first_transition=[prev_ci + 1, prev_t + 1],
                        second_transition=[ci + 1, t + 1],
                    )
            else:
                seen[inp] = (out, ci, t)
    return LocalData(len(regs), [(inp, out) for inp, (out, _, _) in seen.items()])


def infer_ncfs(wiring, timecourses, node):
    """All nested canalyzing functions on the node's regulators fitting its
    data, from the peel pruned against the observed points; the census is
    never built.  A node without regulators has none."""
    return _fitting_ncfs(local_data(wiring, timecourses, node))


def _fitting_ncfs(data):
    k = data.arity
    return NcfSet._of(k, _peeled(k, data._seen_bits, data._value_bits))


def near_misses(wiring, timecourses, node):
    """Fitting functions that are canalyzing cascades on too few regulators.

    Returns (table, essential variable ids) pairs for every fitting
    function that is nested canalyzing on a proper nonempty subset of the
    regulators, found by the peel run on each subset, plus the fitting
    constants (essential set empty): exactly what :func:`infer_ncfs`
    excludes by requiring every regulator.
    """
    return _near_misses(local_data(wiring, timecourses, node))


def _near_misses(data):
    k = data.arity
    seen, value = data._seen_bits, data._value_bits
    full = (1 << (1 << k)) - 1
    found = {bits: frozenset() for bits in (0, full) if bits & seen == value}
    varmasks = variable_masks(k)
    for size in range(1, k):
        for free in itertools.combinations(range(k), size):
            essential = frozenset(v + 1 for v in free)
            for bits in _fitting_forms(value, seen, free, varmasks, full)[0]:
                found[bits] = essential
    return [
        (TruthTable.from_int(k, bits, allow_big=True), ess)
        for bits, ess in sorted(found.items())
    ]


class NodeInference(NamedTuple):
    """Everything inferred for one node."""

    name: str
    regulators: tuple
    data: LocalData
    space_size: int
    ncfs: NcfSet
    near_misses: tuple

    @property
    def forced(self):
        """The unique fitting function, when the data determines it fully."""
        return interpolant(self.data) if self.space_size == 1 else None


class InferenceResult(NamedTuple):
    """Per-node inference plus the inputs it came from."""

    wiring: WiringDiagram
    courses: tuple
    nodes: tuple

    def node(self, name):
        for rec in self.nodes:
            if rec.name == name:
                return rec
        raise KeyError(f"no inference record for node {name!r}")

    def trajectories(self):
        """Course rows as state integers, one tuple per course."""
        return tuple(states_as_ints(self.wiring, c) for c in self.courses)


def infer_all(wiring, timecourses, only=None):
    """Run inference for every node (or one named node) of the wiring."""
    courses = _as_courses(timecourses)
    indices = range(len(wiring.nodes))
    if only is not None:
        indices = [wiring.index(only)]
    records = []
    for i in indices:
        data = local_data(wiring, courses, i)
        records.append(
            NodeInference(
                name=wiring.nodes[i],
                regulators=wiring.regulator_names(i),
                data=data,
                space_size=model_space_size(data),
                ncfs=_fitting_ncfs(data),
                near_misses=tuple(_near_misses(data)),
            )
        )
    return InferenceResult(wiring, courses, tuple(records))


def count_models(result):
    """Number of whole-network models: product of per-node NCF counts, zero
    when some node has no fitting NCF."""
    return prod(len(rec.ncfs) for rec in result.nodes)


def cross_check(wiring, timecourses, node):
    """Compare two inference routes for one node; True when they agree.

    Route one is :func:`infer_ncfs`, the fitting set that ``infer``
    reports: the peel pruned against the observed points.  Route two
    builds the census, the same peel with no data, and keeps the members
    that fit with :meth:`NcfSet.fitting`; a node without regulators has no
    census and no member.  So ``check`` compares the data-dependent
    pruning with filtering the census, which the test suite checks against
    the tables of all k!·4^k cascade forms at every arity the CLI accepts.
    """
    data = local_data(wiring, timecourses, node)
    route_peel = _fitting_ncfs(data).to_ints()
    k = data.arity
    route_census = (
        enumerate_ncfs(k).fitting(data._seen_bits, data._value_bits).to_ints()
        if k
        else ()
    )
    return route_peel == route_census
