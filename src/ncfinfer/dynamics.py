"""Synchronous phase-space analysis and ensemble statistics.

A Boolean network updates every node at once, so its phase space is a
functional graph on the 2^n global states: each state has exactly one
successor, every weakly connected component contains exactly one cycle
(its attractor), and a component coincides with the basin of attraction of
that cycle.

Phase spaces are computed fully (capped at n <= 24 nodes) with flat
numpy arrays and no Python loop over states:

* the successor map is built node by node in uint8 byte lanes: each
  node's truth table, packed into its narrowest word (uint8 up to arity
  3, uint16 at arity 4, a 32-bit word per 32 entries above), is shifted
  right by every state's index into the table, built by doubling over the
  state bits; the low bit is multiplied to bit i % 8 and ORed into lane
  i // 8, and the at most 4 lanes are stored into the uint32 map once.
  A node's bits repeat with the period of its last regulator's bit, so
  they are selected on one period and ORed into every period at once;
* doubling land = f^m, m = 1, 2, 4, ..., lands every state on its
  attractor cycle, and stops once the image of f^m stops shrinking, when
  that image is exactly the set of cycle states;
* pointer jumping with a running minimum over the cycle states finds each
  cycle's smallest state, which numbers the components, and the steps from
  every cycle state to it, which rotate each attractor to start there.

The cycles are kept as two flat uint32 arrays: every cycle state in
report order, and where each cycle ends.  The tuples ``attractors`` and
``component_sizes`` of a ``PhaseSpace`` are built on first access, the
sizes from one ``bincount`` array that the ``dynamics`` report shares.
The report renders the attractors, the component sizes and the stdout
list of cycle lengths straight from the arrays, so no Python object per
cycle or component exists unless a caller asks for one.  Measured with
tracemalloc at n = 20, the map of tables up to arity 5 is built within
4 + ceil(n / 8) bytes per state, and the analysis peaks at 17 bytes per
state when few states lie on cycles, about 290 MB at n = 24, and at 30
bytes per state when every state is a fixed point, about 500 MB at
n = 24.  Building ``attractors`` then peaks at 136 bytes per cycle state
and keeps 84.

``phase_space`` builds its map with the plan that ``sample_ensemble``
uses (below), as an ensemble of one network whose every node has a
single candidate, so every node's bits are ORed into the base array.

These numpy steps live in the private module ``ncfinfer._engine``, which
``phase_space`` and ``sample_ensemble`` import on their first call: this
module imports no numpy, so inference without dynamics never loads it.

Ensemble sampling draws each node's local function independently and
uniformly from its candidate set; every sample uses its own
deterministically derived generator, so results are bit-identical for a
given seed.  Draws are table ints: a node draws a row of its candidate
set (a member of its fitting NCFs, or an assignment to its unobserved
points, spread through one lookup table per byte), with exactly the
random bits the function object would take.  A node's successor bits
depend only on the row it draws, so one plan per call builds every
sample's successor map:

* every single-candidate node (a forced function, a lone NCF, a model
  space of one) is folded into one ``base`` array;
* a node with no more candidates than samples, whose whole candidate
  set fits ENSEMBLE_CACHE_BYTES (4 MB, in absolute bytes, filled smallest
  set first), gets a cached matrix of its shifted successor bits, one
  row of 4 * 2^n bytes per candidate, so a chunk gathers its rows and
  ORs them in: all 436 yeast NCF candidates take 3.5 MB;
* every other node keeps its local index and the shift select.

Samples are analyzed in chunks of ENSEMBLE_STATES states (32 samples of
11 nodes, one of 16): a chunk's phase spaces sit side by side in one
functional graph.  Most of its states have no predecessor, so after one
in-degree count over every state a single doubling and pointer-jumping
pass runs on the image of f alone.  The image is closed
under f and holds every cycle; a state's component is its successor's,
and a component's size is the in-degree summed over its image states.
On the benchmark's seed-1 inputs the image holds a median 2.5 % of a
sample's states on a random 16-node NCF network (6.7 % when the functions
are unrestricted) and 12 % of a 32-sample yeast chunk (21 % unrestricted).
Per state, ``sample_ensemble`` keeps the 4-byte base array and a local
index (one byte, two above arity 8) per node on the shift select, beside
the cache, and the
chunk analysis adds at most 34 bytes, when every state is a fixed point:
the identity network at n = 20 peaks at 44 bytes per state under
tracemalloc in either mode (every node in the base array, or every node
on the shift select), about 0.75 GB at n = 24.

The chunks run in W worker processes, W the number of CPUs this process
may use (``os.sched_getaffinity``, else ``os.cpu_count``) but at most one
per chunk.  Once the plan is built, ``sample_ensemble`` forks W - 1
children, which share its arrays copy-on-write; each draws and analyzes
a contiguous slice of the chunks and sends its statistics back through a
pipe, while the caller's process runs the first slice.  A child that
fails or sends short data has its slice run again by the caller, so an
error surfaces in sample order with its own type.  W is 1, and nothing
is forked, when ``os.fork`` is missing, when another Python thread is
alive (a child forked from a threaded process can deadlock), and when
2^n exceeds ENSEMBLE_STATES: a chunk is then one large network, and the
bounds above hold as stated.  Otherwise each worker adds its own chunk
analysis, at most 34 bytes per state of one chunk of ENSEMBLE_STATES
states (about 2.2 MB), and the pages it copies on write.

Threads are counted by ``threading.active_count()``, which sees only
threads that Python started.  A native pool such as OpenBLAS's, idle in
a library caller that imports numpy without ``OPENBLAS_NUM_THREADS=1``,
is not counted: forking beside it is tolerated, since OpenBLAS registers
a fork handler that shuts its pool down before each fork, and the
children call no BLAS routine.
"""

import os
import random
import struct
import threading
from functools import cached_property
from typing import TYPE_CHECKING, Any, NamedTuple

from .boolfun import _check_bits, evaluate, point_to_index
from .errors import CapacityError, ConfigurationError, InvariantViolation
from .modelspace import ModelSpace, _draw_nothing

if TYPE_CHECKING:
    from numpy import ndarray
else:
    ndarray = Any  # numpy loads with the first phase space, not with this module

PHASE_SPACE_CAP = 24  # network size; 2^24 states at 17-30 bytes each is 0.3-0.5 GB
# states analyzed at once by sample_ensemble (32 samples of 11 nodes): a
# chunk of small networks is never larger than one 16-node phase space
ENSEMBLE_STATES = 1 << 16
# bytes of per-candidate successor columns sample_ensemble may cache, in
# absolute bytes: every yeast NCF candidate fits (436 columns of 2^11
# states, 3.5 MB), and no node of a 20-node network (4 MB a column)
ENSEMBLE_CACHE_BYTES = 1 << 22
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
    _check_bits(state, "state")
    return tuple(
        evaluate(table, [state[r] for r in regs])
        for table, regs in zip(network.tables, network.wiring.regulators)
    )


class PhaseSpace(
    NamedTuple(
        "PhaseSpace",
        [("n", int), ("successor", ndarray), ("component_of", ndarray),
         ("cycle_states", ndarray), ("cycle_ends", ndarray)],
    )
):
    """Complete synchronous dynamics of one network.

    successor[m] is the next state of state m; component_of[m] labels m's
    weakly connected component.  Component c's unique cycle, rotated to
    start at its smallest state, is cycle_states[cycle_ends[c - 1]:
    cycle_ends[c]] (from 0 for c = 0).  Components are numbered by
    ascending smallest cycle state.  The tuples ``component_sizes`` and
    ``attractors`` are built from these arrays on first access and kept
    in the instance ``__dict__``, which this record, alone of the
    package's records, has: it declares no ``__slots__``.
    """

    @property
    def component_count(self):
        return len(self.cycle_ends)

    @cached_property
    def component_sizes(self):
        return tuple(self._sizes.tolist())

    @cached_property
    def _sizes(self):
        """The component sizes as one array, which the report renders and
        the ``component_sizes`` tuple is built from."""
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
    from ._engine import _analyze, _ensemble_plan

    n = _network_size(network.wiring)
    # an ensemble of one network whose every node has a single candidate:
    # the plan's base array is the successor map
    nodes = [(1, (t.to_int(),).__getitem__) for t in network.tables]
    base, _, _ = _ensemble_plan(n, network.wiring.regulators, nodes, 0, 1)
    return _analyze(base, n)


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
    _check_bits(state, "state")
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
    return space._sizes[labels.pop()].item()


class EnsembleStats(NamedTuple):
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
        # every field is a number, a string, None or a tuple of numbers, so
        # a shallow walk turns the tuples into JSON lists
        return {
            k: list(v) if isinstance(v, tuple) else v
            for k, v in self._asdict().items()
        }


def _node_sampler(rec, mode):
    """Node ``rec``'s draws on table ints, as ``(count, draw, table)``.

    ``draw(rng)`` picks one of ``count`` candidates, consuming random bits
    exactly as drawing the function object would, and ``table(row)`` is
    the table int of candidate ``row``.
    """
    if mode == "ncf":
        ints = rec.ncfs.to_ints()
        if ints:
            count, width = len(ints), len(ints).bit_length()

            def draw(rng):
                # rng.randrange(count), with the same bits and rejections
                row = rng.getrandbits(width)
                while row >= count:
                    row = rng.getrandbits(width)
                return row

            return count, draw, ints.__getitem__
        forced = rec.forced
        if forced is not None:
            return 1, _draw_nothing, (forced.to_int(),).__getitem__
        raise ConfigurationError(
            f"node {rec.name!r} has no fitting nested canalyzing function "
            "and its data does not force a unique function",
            node=rec.name,
        )
    if mode == "unrestricted":
        return ModelSpace.from_data(rec.data)._sampler()
    raise ValueError(f"unknown sampling mode {mode!r}")


def _check_sampling(samples, seed):
    if samples <= 0:
        raise ValueError("sample count must be positive")
    if seed < 0:
        raise ValueError("seed must be nonnegative")


def _worker_count(n, chunks):
    """How many processes run ``sample_ensemble``'s ``chunks`` chunks of
    ``n``-node samples: one per CPU this process may use, at most one per
    chunk.  It is one when ``os.fork`` is missing, when another Python
    thread is alive (``threading.active_count()``), since a child forked
    from a threaded process can deadlock, and when a chunk is one network
    of more than ENSEMBLE_STATES states, whose analysis is then large
    enough to keep to one at a time.  Native threads, such as an idle
    OpenBLAS pool, are not counted; the module docstring says why forking
    beside them is tolerated."""
    if (not hasattr(os, "fork") or threading.active_count() > 1
            or 1 << n > ENSEMBLE_STATES):
        return 1
    if hasattr(os, "sched_getaffinity"):
        cpus = len(os.sched_getaffinity(0))
    else:
        cpus = os.cpu_count() or 1
    return min(cpus, chunks)


def _forked(run, parts, lengths):
    """``[run(part) for part in parts]``, where ``run(part)`` returns a list
    of ``lengths[k]`` ints of the int64 range, for part ``parts[k]``.

    Every part but the first runs in a child forked before any part runs,
    so the children share the caller's arrays copy-on-write; this process
    runs the first part, then reads each child's list from its pipe to
    end of file and reaps it.  A child leaves only through ``os._exit``
    and never raises into the caller.  Where a child exits nonzero, sends
    short data or cannot be forked, this process runs its part itself, so
    any error a part raises surfaces in part order with its own type.  If
    this process raises, every child still running is killed and reaped.
    """
    children, pipes = {}, {}  # part number -> child pid, read end of its pipe
    try:
        for k in range(1, len(parts)):
            r, w = os.pipe()
            try:
                pid = os.fork()
            except OSError:  # out of processes: the part runs here
                os.close(r)
                os.close(w)
                continue
            if pid == 0:
                code = 1
                try:
                    os.close(r)
                    values = run(parts[k])
                    data = memoryview(struct.pack(f"{len(values)}q", *values))
                    while data:
                        data = data[os.write(w, data):]
                    code = 0
                finally:
                    os._exit(code)
            os.close(w)
            children[k], pipes[k] = pid, r
        results = [run(parts[0])]
        for k in range(1, len(parts)):
            values = None
            if k in children:
                blocks = []
                while block := os.read(pipes[k], 1 << 16):
                    blocks.append(block)
                os.close(pipes.pop(k))
                status = os.waitpid(children[k], 0)[1]
                del children[k]
                data = b"".join(blocks)
                if status == 0 and len(data) == 8 * lengths[k]:
                    values = memoryview(data).cast("q").tolist()
            results.append(run(parts[k]) if values is None else values)
        return results
    finally:
        for r in pipes.values():
            os.close(r)
        if children:  # left only by an error; signal loads only then
            from signal import SIGKILL

            for pid in children.values():
                os.kill(pid, SIGKILL)
                os.waitpid(pid, 0)


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
    (seed, mode, samples, result).  Samples are analyzed in chunks of up
    to ENSEMBLE_STATES states, one pass per chunk, and the chunks are
    split into contiguous slices among one worker process per CPU this
    process may use (forked children beside this process; see the module
    docstring for when only this process runs, which threads count
    against forking, and for memory per worker).  Neither the chunking,
    the workers nor the cached successor columns change a draw or a
    result.  Every time course must lie in one component of every
    sample, or ``InvariantViolation`` names the components it spans in
    the first such sample.  The reference trajectory is the first time
    course.
    """
    _check_sampling(samples, seed)
    covered = {rec.name for rec in result.nodes}
    missing = [name for name in result.wiring.nodes if name not in covered]
    if missing:
        raise ConfigurationError(
            f"inference covers only some nodes; missing {missing}",
            missing=missing,
        )
    from ._engine import _ensemble_chunk, _ensemble_plan

    n = _network_size(result.wiring)
    # every course must stay inside one component; the first is the
    # reference trajectory the statistics are about
    courses = [_state_ints(n, t) for t in result.trajectories()]
    samplers = [_node_sampler(rec, mode) for rec in result.nodes]
    draws = [draw for _, draw, _ in samplers]
    plan = _ensemble_plan(
        n,
        result.wiring.regulators,
        [(count, table) for count, _, table in samplers],
        ENSEMBLE_CACHE_BYTES,
        samples,
    )

    chunk = max(1, ENSEMBLE_STATES >> n)
    starts = range(0, samples, chunk)

    def run(part):
        # three ints for each sample of the chunks starting at ``part``: its
        # component count, trajectory size and largest component size
        out = []
        for start in part:
            rows = []
            for j in range(start, min(start + chunk, samples)):
                rng = random.Random((seed << 32) + j)
                rows.append([draw(rng) for draw in draws])
            for triple in zip(*_ensemble_chunk(n, plan, rows, courses)):
                out += triple
        return out

    workers = _worker_count(n, len(starts))
    parts = [
        starts[k * len(starts) // workers:(k + 1) * len(starts) // workers]
        for k in range(workers)
    ]
    lengths = [3 * (min(p[-1] + chunk, samples) - p[0]) for p in parts]
    flat = [x for values in _forked(run, parts, lengths) for x in values]
    comp_counts, traj_sizes, largest = flat[0::3], flat[1::3], flat[2::3]

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
