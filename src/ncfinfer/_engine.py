"""The numpy kernel behind :mod:`ncfinfer.dynamics` and the attractor report.

This is the only module of the package that imports numpy.  It is loaded
on the first phase-space call (``phase_space``, ``sample_ensemble``, the
``dynamics`` subcommand), so ``infer``, ``check`` and ``enumerate-ncfs``
never pay for the numpy import.

The analysis works on any functional graph, so a chunk of S sampled
networks on one wiring is analyzed as one graph on S * 2^n states, sample
s taking the states s * 2^n .. (s + 1) * 2^n - 1.
"""

from itertools import accumulate, chain

import numpy as np

from .dynamics import PhaseSpace
from .errors import InvariantViolation

_BLOCK = 1 << 16  # index entries per np.take call or scatter


def _gather(a, idx):
    """``a[..., idx]``, through bounds-checked ``np.take``.

    ``np.take`` is about twice as fast as fancy indexing, but copies its
    index to intp first; taking at most 2^16 indices at a time keeps that
    copy small.  Its default mode raises on an out-of-range index.
    """
    if len(idx) <= _BLOCK:
        return np.take(a, idx, axis=-1)
    out = np.empty(a.shape[:-1] + idx.shape, dtype=a.dtype)
    for lo in range(0, len(idx), _BLOCK):
        out[..., lo:lo + _BLOCK] = np.take(a, idx[lo:lo + _BLOCK], axis=-1)
    return out


def _mark(size, idx):
    """A mask of ``size`` entries, true at ``idx``.

    The index goes to the scatter as intp, 2^16 entries at a time: numpy
    scatters a uint32 index about half as fast.
    """
    mask = np.zeros(size, dtype=bool)
    for lo in range(0, len(idx), _BLOCK):
        mask[idx[lo:lo + _BLOCK].astype(np.intp)] = True
    return mask


def _local_index(n, regs):
    """Every global state's index into a node's truth table.

    Over the states 0 .. 2^n - 1, bit r repeats 2^r zeros and 2^r ones, so
    each regulator's contribution is one period tiled 2^(n-r-1) times.
    """
    dtype = np.uint8 if len(regs) <= 8 else np.uint16
    idx = np.zeros(1 << n, dtype=dtype)
    for j, r in enumerate(regs):
        period = np.zeros(2 << r, dtype=dtype)
        period[1 << r:] = 1 << j
        idx |= np.tile(period, 1 << (n - r - 1))
    return idx


def _table_rows(tables, shift):
    """Truth tables of one arity as rows of 2^k values, each shifted left.

    The packed integers are unpacked by numpy, not one value at a time.
    """
    k = tables[0].arity
    width = ((1 << k) + 7) >> 3  # bytes per table
    packed = b"".join(table.to_int().to_bytes(width, "little") for table in tables)
    bits = np.unpackbits(
        np.frombuffer(packed, dtype=np.uint8).reshape(len(tables), width),
        axis=1,
        count=1 << k,
        bitorder="little",
    )
    return bits.astype(np.uint32) << np.uint32(shift)


def _successor_map(n, local_indices, columns, networks=1):
    """The successor map of several networks on one wiring, as one array.

    ``columns[i]`` holds node i's truth table in each network; network s's
    states are offset by s * 2^n.
    """
    succ = np.zeros((networks, 1 << n), dtype=np.uint32)
    for i, (idx, tables) in enumerate(zip(local_indices, columns)):
        succ |= _gather(_table_rows(tables, i), idx)
    if networks > 1:
        succ += np.arange(networks, dtype=np.uint32)[:, None] << np.uint32(n)
    return succ.ravel()


def _cycle_components(succ, cycle):
    """Component of each cycle state, and all cycle states in report order.

    ``cycle`` holds the sorted cycle states.  Components are numbered by
    their smallest state, and each cycle is rotated to start there; the
    second array lists the cycles one after another, cut at ``ends``.
    """
    nxt = np.searchsorted(cycle, _gather(succ, cycle))
    # Pointer jumping with a running minimum: after r rounds low[i] is the
    # least position among the w = 2^r states from i on, ahead[i] steps
    # on.  Once a round lowers nothing, low[i] is the least position on
    # i's cycle, its head, and ahead[i] the steps from i to the head.
    low, ptr, w = np.arange(len(cycle)), nxt, 1
    ahead = np.zeros(len(cycle), dtype=np.intp)
    while True:
        there = _gather(low, ptr)
        lower = there < low
        if not lower.any():
            break
        low = np.where(lower, there, low)
        ahead = np.where(lower, _gather(ahead, ptr) + w, ahead)
        ptr, w = _gather(ptr, ptr), 2 * w
    comp = _gather(np.cumsum(ahead == 0), low) - 1
    lengths = np.bincount(comp)
    ends = np.cumsum(lengths)
    length = _gather(lengths, comp)
    rotated = np.empty_like(cycle)
    rotated[_gather(ends, comp) - length + -ahead % length] = cycle
    return comp, rotated, ends


def _components(succ, n):
    """Each state's component, the component sizes, and the cycles.

    ``succ`` is any functional graph whose tails are shorter than 2^n
    steps, such as S phase spaces of 2^n states each side by side.  The
    cycles come as ``_cycle_components`` gives them.
    """
    size = len(succ)
    # Doubling land = f^m, m = 1, 2, 4, ...: the images of f^m shrink as m
    # grows, and once f^2m has the image of f^m, f^m permutes that image,
    # which is then exactly the set of cycle states.  Im f^2m is f^m taken
    # on Im f^m alone, and 2^n steps always suffice.  Side by side phase
    # spaces have disjoint images that each only shrink, so the total
    # stops shrinking only when every one has.
    land = succ
    image = _mark(size, land)
    count = np.count_nonzero(image)
    for _ in range(n):
        next_image = _mark(size, land[image])
        count, last = np.count_nonzero(next_image), count
        if count == last:
            break
        land, image = _gather(land, land), next_image
    # every state-sized array is dropped once used: their peak is what
    # bounds n
    cycle = np.flatnonzero(image)
    del image, next_image
    comp, rotated, ends = _cycle_components(succ, cycle)
    label = np.zeros(size, dtype=np.int32)
    label[cycle] = comp
    del cycle, comp
    component_of = _gather(label, land)
    del label, land
    sizes = np.bincount(component_of, minlength=len(ends))
    return component_of, sizes, rotated, ends


def _analyze(succ, n):
    component_of, sizes, rotated, ends = _components(succ, n)
    flat = tuple(rotated.tolist())
    del rotated
    ends = ends.tolist()
    return PhaseSpace(
        n=n,
        successor=succ,
        component_of=component_of,
        component_sizes=tuple(sizes.tolist()),
        attractors=tuple([flat[a:b] for a, b in zip([0, *ends], ends)]),
    )


def _ensemble_chunk(n, local_indices, drawn, courses):
    """Statistics of S networks on one wiring, analyzed as one graph.

    ``drawn[s][i]`` is node i's table in network s, and ``courses`` lists
    state integers.  Returns, one entry per network, its component count,
    the size of the component holding the first course, and the size of
    its largest component.  Raises ``InvariantViolation`` at the first
    network, in order, where a course spans components.
    """
    samples = len(drawn)
    component_of, sizes, rotated, ends = _components(
        _successor_map(n, local_indices, zip(*drawn), samples), n
    )
    # components are numbered by their smallest state, so sample by sample
    heads = _gather(rotated, ends - np.diff(ends, prepend=0))
    counts = np.bincount(heads >> n, minlength=samples)
    first = np.cumsum(counts) - counts
    offsets = np.arange(samples)[:, None] << n
    labels = [
        _gather(component_of, (offsets + course).ravel()).reshape(samples, -1)
        for course in courses
    ]
    split = np.flatnonzero(
        np.any([lab.min(axis=1) != lab.max(axis=1) for lab in labels], axis=0)
    )
    if len(split):
        s = split[0]
        for lab in labels:
            ids = set((lab[s] - first[s]).tolist())
            if len(ids) > 1:
                raise InvariantViolation(
                    "trajectory states fall in different components",
                    components=sorted(ids),
                )
    return (
        counts.tolist(),
        _gather(sizes, labels[0][:, 0]).tolist(),
        np.maximum.reduceat(sizes, first).tolist(),
    )


def _attractor_bits(n, cycles):
    """Each attractor as a list of its states in n '0'/'1' characters, node 0
    first; every state is rendered in one numpy pass."""
    ends = list(accumulate(map(len, cycles)))
    states = np.fromiter(chain.from_iterable(cycles), dtype=np.int64, count=ends[-1])
    chars = ((states[:, None] >> np.arange(n)) & 1).astype(np.uint8) + ord("0")
    words = chars.view(f"S{n}")[:, 0].astype(str).tolist()
    return [words[a:b] for a, b in zip([0, *ends], ends)]
