"""Synchronous phase-space analysis and ensemble statistics.

The design is described once, in the README's ``dynamics`` module
section; each memory bound and fork rule is stated by the function that
keeps it.  The numpy steps live in ``ncfinfer._engine``, imported on the
first phase-space call, so inference alone never loads numpy.
"""

import os
import random
import threading
from functools import cached_property
from typing import TYPE_CHECKING, Any, NamedTuple

from .boolfun import _check_bits, point_to_index
from .errors import CapacityError, ConfigurationError, InvariantViolation
from .modelspace import ModelSpace

if TYPE_CHECKING:
    from numpy import ndarray
else:
    ndarray = Any  # numpy loads with the first phase space, not with this module

PHASE_SPACE_CAP = 24  # network size; phase_space states the bytes per state
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
    "phase_space",
    "trajectory_component_size",
    "sample_ensemble",
]


class BooleanNetwork:
    """A wiring diagram plus one local truth table per node, whose j-th
    input is the node's j-th regulator."""

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


class PhaseSpace(
    NamedTuple(
        "PhaseSpace",
        [("n", int), ("successor", ndarray), ("component_of", ndarray),
         ("cycle_states", ndarray), ("cycle_ends", ndarray)],
    )
):
    """Complete synchronous dynamics of one network.

    successor[m] is the next state of state m; component_of[m] labels m's
    weakly connected component.  Components are numbered by ascending
    smallest cycle state, and component c's cycle, rotated to start there,
    is cycle_states[cycle_ends[c - 1]:cycle_ends[c]] (from 0 for c = 0).
    ``component_sizes`` and ``attractors`` are cached in the instance
    ``__dict__``, which this record alone has: it declares no ``__slots__``.
    """

    @property
    def component_count(self):
        return len(self.cycle_ends)

    @cached_property
    def component_sizes(self):
        return tuple(self._sizes.tolist())

    @cached_property
    def _sizes(self):
        """The component sizes as one array, as the report renders them."""
        from ._engine import _component_sizes

        return _component_sizes(self)

    @cached_property
    def attractors(self):
        """The cycles as a tuple of state tuples, one per component.

        Building it peaks at 136 bytes per cycle state and keeps 84.
        """
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
    """Successor map, components, and attractors of every global state.

    Networks of more than PHASE_SPACE_CAP nodes raise ``CapacityError``.
    With tables up to arity 5 the analysis peaks, under tracemalloc at
    n = 20, at 17 bytes per state when few states lie on cycles (about
    290 MB at n = 24) and at 30 bytes per state when every state is a
    fixed point (about 500 MB at n = 24).
    """
    from ._engine import _base_map

    n = _network_size(network.wiring)
    singles = [(i, t.to_int()) for i, t in enumerate(network.tables)]
    return _analyze(_base_map(n, network.wiring.regulators, singles), n)


def _analyze(succ, n):
    """The ``PhaseSpace`` of the successor map ``succ`` on n nodes."""
    from ._engine import _components

    return PhaseSpace(n, succ, *_components(succ, n))


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
    """Size of the component holding a trajectory's states, which must all
    lie in one component, as they do when the network fits them."""
    states = _state_ints(space.n, trajectory)
    labels = {int(space.component_of[s]) for s in states}
    if len(labels) > 1:
        raise InvariantViolation(
            "trajectory states fall in different components",
            components=sorted(labels),
        )
    return space._sizes[labels.pop()].item()


class EnsembleStats(NamedTuple):
    """Aggregates over sampled networks on one wiring and data set.  The
    histogram counts samples by the size of the reference trajectory's
    component: bin b covers sizes b*bin_width+1 .. (b+1)*bin_width."""

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


def _below(count):
    """A draw of ``rng.randrange(count)`` from the same bits, the rule it
    follows: k-bit words, k the bit length of ``count``, until one is below
    ``count``.  It skips ``randrange``'s argument checks, half its cost."""
    k = count.bit_length()

    def draw(rng):
        row = rng.getrandbits(k)
        while row >= count:
            row = rng.getrandbits(k)
        return row

    return draw


def _node_sampler(rec, mode):
    """Node ``rec``'s draws on table ints, as ``(count, draw, table)``.

    ``draw(rng)`` picks one of ``count`` candidates, consuming random bits
    exactly as drawing the function object would, and ``table(row)`` is
    the table int of candidate ``row``.  In ncf mode the draw is
    ``rng.randrange(count)``'s.  In unrestricted mode, and for a forced
    node without a fitting NCF, it is the model space's draw.
    """
    if mode == "ncf":
        ints = rec.ncfs.to_ints()
        if ints:
            return len(ints), _below(len(ints)), ints.__getitem__
        if rec.forced is None:
            raise ConfigurationError(
                f"node {rec.name!r} has no fitting nested canalyzing function "
                "and its data does not force a unique function",
                node=rec.name,
            )
    elif mode != "unrestricted":
        raise ValueError(f"unknown sampling mode {mode!r}")
    return ModelSpace.from_data(rec.data)._sampler()


def _check_sampling(samples, seed):
    if samples <= 0:
        raise ValueError("sample count must be positive")
    if seed < 0:
        raise ValueError("seed must be nonnegative")


def _worker_count(n, chunks):
    """How many processes run ``sample_ensemble``'s ``chunks`` chunks of
    ``n``-node samples: one per usable CPU, at most one per chunk.

    It is one without ``os.fork``; while another Python thread is alive,
    since a child forked from a threaded process can deadlock; and when
    2^n exceeds ENSEMBLE_STATES, so that a chunk, one network, is large
    enough to analyze one at a time.  ``threading.active_count()`` sees
    no native thread, such as the idle OpenBLAS pool of a caller that
    imports numpy without ``OPENBLAS_NUM_THREADS=1``.  Forking beside it
    is tolerated: OpenBLAS shuts its pool down in a fork handler, and the
    children call no BLAS routine.
    """
    if (not hasattr(os, "fork") or threading.active_count() > 1
            or 1 << n > ENSEMBLE_STATES):
        return 1
    if hasattr(os, "sched_getaffinity"):
        cpus = len(os.sched_getaffinity(0))
    else:
        cpus = os.cpu_count() or 1
    return min(cpus, chunks)


def _forked(run, parts):
    """Run ``run(part)`` for every part of ``parts``, for its effect.

    Every part but the first runs in a child forked before any part runs,
    sharing the caller's arrays copy-on-write and its shared mappings;
    this process runs the first part, then reaps each child.  A child
    leaves only through ``os._exit``.  Where a child exits nonzero or
    cannot be forked, this process runs its part again itself, so errors
    surface in part order with their own type and whatever the child
    wrote is overwritten.  If this process raises, every child still
    running is killed and reaped.
    """
    children = {}  # part number -> child pid
    try:
        for k in range(1, len(parts)):
            try:
                pid = os.fork()
            except OSError:  # out of processes: the part runs here
                continue
            if pid == 0:
                code = 1
                try:
                    run(parts[k])
                    code = 0
                finally:
                    os._exit(code)
            children[k] = pid
        run(parts[0])
        for k in range(1, len(parts)):
            failed = k not in children or os.waitpid(children[k], 0)[1]
            children.pop(k, None)
            if failed:
                run(parts[k])
    finally:
        if children:  # left only by an error; signal loads only then
            from signal import SIGKILL

            for pid in children.values():
                os.kill(pid, SIGKILL)
                os.waitpid(pid, 0)


def sample_ensemble(result, samples, seed, mode):
    """Statistics over networks drawn from a node-wise uniform ensemble.

    Each sample draws every node's local function uniformly from its
    fitting NCFs (mode ``ncf``) or its whole model space (``unrestricted``);
    a node whose data forces one function takes it in both modes, NCF or
    not.  Sample j uses the Mersenne Twister seeded with seed * 2**32 + j
    and draws node by node in wiring order, so neither the chunking, the
    ``_worker_count`` processes nor the cached columns change a result.
    Every time course must lie in one component of every sample, or
    ``InvariantViolation`` names the components it spans in the first
    such sample.  The first time course is the reference trajectory.

    Memory per state in one process, which is how networks of more than
    16 nodes run: beside the cached columns, the 4-byte base array, a
    local index per node on the shift select (one byte, two above arity
    8) and at most 41 bytes of chunk analysis, when every state is a
    fixed point.  So at most n + 45 bytes per state up to arity 8, about
    1.16 GB at n = 24; tracemalloc reads 64 at n = 20 with every node on
    the shift select, 44 with none.  Up to 16 nodes each process keeps
    its chunks' successor maps, shift-select bits, intp copies and
    positions in one workspace, 20 bytes per chunk state, so a chunk's
    analysis peaks at 61 bytes per state under tracemalloc, 4.0 MB: each
    extra worker adds that and the pages it copies on write.  The
    statistics take 24 bytes per sample, in one mapping all processes
    share.
    """
    _check_sampling(samples, seed)
    covered = {rec.name for rec in result.nodes}
    missing = [name for name in result.wiring.nodes if name not in covered]
    if missing:
        raise ConfigurationError(
            f"inference covers only some nodes; missing {missing}",
            missing=missing,
        )
    from array import array
    from mmap import mmap

    from ._engine import _ensemble_chunk, _ensemble_plan, _Workspace

    n = _network_size(result.wiring)
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
    states = min(samples, chunk) << n
    # per sample, its component count, trajectory size and largest
    # component size, as three runs of ``samples`` slots seen by every worker
    shared = memoryview(mmap(-1, 24 * samples)).cast("q")

    def run(part):
        # One workspace for the part's chunks, made in the process that
        # runs them.  A chunk of one network past ENSEMBLE_STATES takes
        # fresh arrays instead, freed before its component analysis.
        space = _Workspace(states) if states <= ENSEMBLE_STATES else None
        for start in part:
            stop = min(start + chunk, samples)
            rows = []
            for j in range(start, stop):
                rng = random.Random((seed << 32) + j)
                rows.append([draw(rng) for draw in draws])
            out = _ensemble_chunk(n, plan, rows, courses, space)
            for f, values in enumerate(out):
                # a field of the wrong length raises here: it never writes short
                shared[f * samples + start:f * samples + stop] = array("q", values)

    workers = _worker_count(n, len(starts))
    _forked(run, [
        starts[k * len(starts) // workers:(k + 1) * len(starts) // workers]
        for k in range(workers)
    ])
    flat = shared.tolist()
    comp_counts, traj_sizes = flat[:samples], flat[samples:-samples]
    largest = flat[-samples:]

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
