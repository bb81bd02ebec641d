"""Synchronous phase-space analysis and ensemble statistics.

A Boolean network updates every node at once, so its phase space is a
functional graph on the 2^n global states: each state has exactly one
successor, every weakly connected component contains exactly one cycle
(its attractor), and a component coincides with the basin of attraction of
that cycle.

Phase spaces are computed fully (capped at n <= 24 nodes) with flat
numpy arrays and no Python loop over states:

* the successor map is built node by node by a shift select: each node's
  truth table packed into a 32-bit word (a word per 32 entries above
  arity 5) is shifted right by every state's index into the table, tiled
  from the bit patterns of its regulators, and the low bit is moved to
  the node's place;
* doubling land = f^m, m = 1, 2, 4, ..., lands every state on its
  attractor cycle, and stops once the image of f^m stops shrinking, when
  that image is exactly the set of cycle states;
* pointer jumping with a running minimum over the cycle states finds each
  cycle's smallest state, which numbers the components, and the steps from
  every cycle state to it, which rotate each attractor to start there.

The cycles are kept as two flat uint32 arrays: every cycle state in
report order, and where each cycle ends.  The tuples ``attractors`` and
``component_sizes`` of a ``PhaseSpace`` are built on first access, and the
``dynamics`` report is rendered from the arrays, so no Python object per
cycle exists unless a caller asks for one.  Measured with tracemalloc at
n = 20, the analysis peaks at 17 bytes per state when few states lie on
cycles, about 290 MB at n = 24, and at 30 bytes per state when every state
is a fixed point, about 500 MB at n = 24.  Building ``attractors`` then
peaks at 136 bytes per cycle state and keeps 84.

These numpy steps live in the private module ``ncfinfer._engine``, which
``phase_space`` and ``sample_ensemble`` import on their first call: this
module imports no numpy, so inference without dynamics never loads it.

Ensemble sampling draws each node's local function independently and
uniformly from its candidate set; every sample uses its own
deterministically derived generator, so results are bit-identical for a
given seed.  Samples are analyzed in chunks of ENSEMBLE_STATES states
(32 samples of 11 nodes, one of 16): a chunk's phase spaces sit side by
side in one functional graph.  Most of its states have no predecessor,
so after one in-degree count over every state a single doubling and
pointer-jumping pass runs on the image of f alone.  The image is closed
under f and holds every cycle; a state's component is its successor's,
and a component's size is the in-degree summed over its image states.
On the benchmark's seed-1 inputs the image holds a median 2.5 % of a
sample's states on a random 16-node NCF network (6.7 % when the functions
are unrestricted) and 12 % of a 32-sample yeast chunk (21 % unrestricted).
Per state, ``sample_ensemble`` keeps one byte per node of local indices,
and the chunk analysis adds at most 34 bytes, when every state is a fixed
point: the identity network at n = 20 peaks at 54 bytes per state under
tracemalloc, about 1 GB at n = 24.
"""

import random
from dataclasses import asdict, dataclass
from functools import cached_property
from typing import TYPE_CHECKING, Any

from .boolfun import evaluate, point_to_index
from .errors import CapacityError, ConfigurationError, InvariantViolation
from .modelspace import ModelSpace

if TYPE_CHECKING:
    from numpy import ndarray
else:
    ndarray = Any  # numpy loads with the first phase space, not with this module

PHASE_SPACE_CAP = 24  # network size; 2^24 states at 17-30 bytes each is 0.3-0.5 GB
# states analyzed at once by sample_ensemble (32 samples of 11 nodes): a
# chunk of small networks is never larger than one 16-node phase space
ENSEMBLE_STATES = 1 << 16
HISTOGRAM_BINS = 32

__all__ = [
    "BooleanNetwork",
    "PhaseSpace",
    "EnsembleStats",
    "step",
    "phase_space",
    "attractors",
    "trajectory_component_size",
    "sample_ensemble",
]


class BooleanNetwork:
    """A wiring diagram plus one local truth table per node.

    Table i consumes the values of node i's regulators, in regulator-list
    order (the j-th regulator feeds the table's j-th input).
    """

    __slots__ = ("wiring", "tables")

    def __init__(self, wiring, tables):
        tables = tuple(tables)
        if len(tables) != len(wiring.nodes):
            raise ValueError("need exactly one local function per node")
        for i, t in enumerate(tables):
            if t.arity != len(wiring.regulators[i]):
                raise ValueError(
                    f"node {wiring.nodes[i]!r} has {len(wiring.regulators[i])} "
                    f"regulators but a local function of arity {t.arity}"
                )
        self.wiring = wiring
        self.tables = tables

    @property
    def size(self):
        return len(self.wiring.nodes)


def step(network, state):
    """Successor of one global state (bit vector in wiring node order)."""
    state = tuple(state)
    if len(state) != network.size:
        raise ValueError(
            f"state has length {len(state)}, expected {network.size}"
        )
    return tuple(
        evaluate(table, [state[r] for r in regs])
        for table, regs in zip(network.tables, network.wiring.regulators)
    )


@dataclass(frozen=True)
class PhaseSpace:
    """Complete synchronous dynamics of one network.

    successor[m] is the next state of state m; component_of[m] labels m's
    weakly connected component.  Component c's unique cycle, rotated to
    start at its smallest state, is cycle_states[cycle_ends[c - 1]:
    cycle_ends[c]] (from 0 for c = 0).  Components are numbered by
    ascending smallest cycle state.  The tuples ``component_sizes`` and
    ``attractors`` are built from these arrays on first access.
    """

    n: int
    successor: ndarray
    component_of: ndarray
    cycle_states: ndarray
    cycle_ends: ndarray

    @property
    def component_count(self):
        return len(self.cycle_ends)

    @cached_property
    def component_sizes(self):
        from ._engine import _component_sizes

        return _component_sizes(self)

    @cached_property
    def attractors(self):
        """The cycles as a tuple of state tuples, one per component."""
        flat = tuple(self.cycle_states.tolist())
        ends = self.cycle_ends.tolist()
        return tuple([flat[a:b] for a, b in zip([0, *ends], ends)])


def _network_size(wiring):
    n = len(wiring.nodes)
    if n > PHASE_SPACE_CAP:
        raise CapacityError(
            f"phase space of {n} nodes exceeds the cap of {PHASE_SPACE_CAP}",
            nodes=n,
        )
    if n == 0:
        raise ValueError("cannot analyze an empty network")
    return n


def phase_space(network):
    """Successor map, components, and attractors of every global state."""
    from ._engine import _analyze, _local_index, _successor_map

    n = _network_size(network.wiring)
    # each node's local index is dropped as soon as its bit is set
    indices = (_local_index(n, regs) for regs in network.wiring.regulators)
    columns = ([table] for table in network.tables)
    return _analyze(_successor_map(n, indices, columns), n)


def attractors(space):
    """The attractor cycles, one per component (fixed points have length 1)."""
    return list(space.attractors)


def _as_state_int(n, state):
    if isinstance(state, int):
        if not 0 <= state < 1 << n:
            raise ValueError(f"state {state} out of range for {n} nodes")
        return state
    state = tuple(state)
    if len(state) != n:
        raise ValueError(f"state has length {len(state)}, expected {n}")
    return point_to_index(state)


def _state_ints(n, trajectory):
    states = [_as_state_int(n, s) for s in trajectory]
    if not states:
        raise ValueError("empty trajectory")
    return states


def trajectory_component_size(space, trajectory):
    """Size of the component holding a trajectory's states.

    The states must all lie in one component; any network whose local
    functions fit the transitions guarantees that, because consecutive
    trajectory states are then successor-linked.
    """
    states = _state_ints(space.n, trajectory)
    labels = {int(space.component_of[s]) for s in states}
    if len(labels) > 1:
        raise InvariantViolation(
            "trajectory states fall in different components",
            components=sorted(labels),
        )
    return space.component_sizes[labels.pop()]


@dataclass(frozen=True)
class EnsembleStats:
    """Aggregates over sampled networks on one wiring and data set.

    The histogram counts samples by the size of the component containing
    the reference trajectory, in ``bin_width``-wide bins over [0, 2^n]
    (bin b covers sizes b*width+1 .. (b+1)*width); bins sum to
    sample_count.
    """

    mode: str
    seed: int
    sample_count: int
    mean_components: float
    mean_trajectory_component_size: float
    count_trajectory_not_in_largest: int
    mean_size_when_not_largest: float | None
    bin_width: int
    histogram: tuple
    trajectory_sizes: tuple
    component_counts: tuple

    def as_dict(self):
        return {
            k: list(v) if isinstance(v, tuple) else v
            for k, v in asdict(self).items()
        }


def _candidate_draw(rec, space, rng, mode):
    if mode == "ncf":
        members = rec.ncfs.members
        if members:
            return members[rng.randrange(len(members))]
        forced = rec.forced
        if forced is not None:
            return forced
        raise ConfigurationError(
            f"node {rec.name!r} has no fitting nested canalyzing function "
            "and its data does not force a unique function",
            node=rec.name,
        )
    if mode == "unrestricted":
        return space.sample(rng)
    raise ValueError(f"unknown sampling mode {mode!r}")


def sample_ensemble(result, samples, seed, mode):
    """Statistics over networks drawn from a node-wise uniform ensemble.

    Each sample chooses every node's local function independently and
    uniformly, either from the node's fitting nested canalyzing set (mode
    ``ncf``) or from its whole fitting model space (mode ``unrestricted``).
    A node whose data admits exactly one function contributes that
    function in both modes, even if it is not nested canalyzing; this is
    what makes a data set with a forced constant node sampleable.

    Sample j uses the Mersenne Twister seeded with seed * 2**32 + j and
    draws node by node in wiring order, so output is a pure function of
    (seed, mode, samples, result).  Samples are drawn in this order and
    analyzed in chunks of up to ENSEMBLE_STATES states, one pass per
    chunk; the chunking changes no draw and no result.  Every time course
    must lie in one component of every sample, or ``InvariantViolation``
    names the components it spans in the first such sample.  The
    reference trajectory is the first time course.
    """
    if samples <= 0:
        raise ValueError("sample count must be positive")
    if seed < 0:
        raise ValueError("seed must be nonnegative")
    covered = {rec.name for rec in result.nodes}
    missing = [name for name in result.wiring.nodes if name not in covered]
    if missing:
        raise ConfigurationError(
            f"inference covers only some nodes; missing {missing}",
            missing=missing,
        )
    from ._engine import _ensemble_chunk, _local_index

    n = _network_size(result.wiring)
    # built once, reused by every chunk
    indices = [_local_index(n, regs) for regs in result.wiring.regulators]
    spaces = [ModelSpace.from_data(rec.data) for rec in result.nodes]
    # every course must stay inside one component; the first is the
    # reference trajectory the statistics are about
    courses = [_state_ints(n, t) for t in result.trajectories()]

    chunk = max(1, ENSEMBLE_STATES >> n)
    comp_counts, traj_sizes, largest = [], [], []
    for start in range(0, samples, chunk):
        drawn = []
        for j in range(start, min(start + chunk, samples)):
            rng = random.Random((seed << 32) + j)
            drawn.append([
                _candidate_draw(rec, ms, rng, mode)
                for rec, ms in zip(result.nodes, spaces)
            ])
        counts, sizes, biggest = _ensemble_chunk(n, indices, drawn, courses)
        comp_counts += counts
        traj_sizes += sizes
        largest += biggest

    not_largest = [size for size, big in zip(traj_sizes, largest) if size < big]
    width = max(1, (1 << n) // HISTOGRAM_BINS)
    hist = [0] * ((1 << n) // width)
    for size in traj_sizes:
        hist[(size - 1) // width] += 1
    return EnsembleStats(
        mode=mode,
        seed=seed,
        sample_count=samples,
        mean_components=sum(comp_counts) / samples,
        mean_trajectory_component_size=sum(traj_sizes) / samples,
        count_trajectory_not_in_largest=len(not_largest),
        mean_size_when_not_largest=(
            sum(not_largest) / len(not_largest) if not_largest else None
        ),
        bin_width=width,
        histogram=tuple(hist),
        trajectory_sizes=tuple(traj_sizes),
        component_counts=tuple(comp_counts),
    )
