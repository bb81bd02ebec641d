"""The numpy kernel behind :mod:`ncfinfer.dynamics` and the attractor report.

This is the only module of the package that imports numpy.  It is loaded
on the first phase-space call (``phase_space``, ``sample_ensemble``, the
``dynamics`` subcommand), so ``infer``, ``check`` and ``enumerate-ncfs``
never pay for the numpy import.

The analysis works on any functional graph, so a chunk of S sampled
networks on one wiring is analyzed as one graph on S * 2^n states, sample
s taking the states s * 2^n .. (s + 1) * 2^n - 1.  ``_components`` gets
only the chunk's image, the states with a predecessor, renumbered by
their position in it: the same routine ``phase_space`` runs, on a graph
a fifth to a fiftieth of the size.
"""

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


def _scatter(out, idx, values):
    """``out[idx] = values``, returning ``out``.

    The index goes to numpy as intp, 2^16 entries at a time: numpy
    scatters a uint32 index about half as fast, and a whole intp copy
    would take 8 bytes per entry.
    """
    for lo in range(0, len(idx), _BLOCK):
        part = values if np.ndim(values) == 0 else values[lo:lo + _BLOCK]
        out[idx[lo:lo + _BLOCK].astype(np.intp)] = part
    return out


def _mark(size, idx):
    """A mask of ``size`` entries, true at ``idx``."""
    return _scatter(np.zeros(size, dtype=bool), idx, True)


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


def _table_words(tables):
    """Truth tables of one arity as rows of 32-bit words, entry j at bit
    j % 32 of word j // 32: one word per table up to arity 5."""
    width = max(4, (1 << tables[0].arity) >> 3)  # bytes per table
    packed = b"".join(table.to_int().to_bytes(width, "little") for table in tables)
    return np.frombuffer(packed, dtype="<u4").reshape(len(tables), -1)


def _successor_map(n, local_indices, columns, networks=1):
    """The successor map of several networks on one wiring, as one array.

    ``columns[i]`` holds node i's truth table in each network; network s's
    states are offset by s * 2^n.  Node i's bit is its table word shifted
    right by the local index, masked to one bit and shifted left by i; a
    table of more than 32 entries first selects each state's word.
    """
    succ = np.zeros((networks, 1 << n), dtype=np.uint32)
    bit = np.empty_like(succ)
    for i, (idx, tables) in enumerate(zip(local_indices, columns)):
        words = _table_words(tables)
        if words.shape[1] > 1:
            words = _gather(words, idx >> 5)
            idx = idx & 31
        np.right_shift(words, idx, out=bit)
        bit &= 1
        bit <<= i
        succ |= bit
    if networks > 1:
        succ += np.arange(networks, dtype=np.uint32)[:, None] << np.uint32(n)
    return succ.ravel()


def _cycle_components(succ, cycle):
    """Component of each cycle state, and all cycle states in report order.

    ``cycle`` holds the sorted cycle states.  Components are numbered by
    their smallest state, and each cycle is rotated to start there; the
    second array lists the cycles one after another, cut at ``ends``.
    Every array here is uint32, 4 bytes per cycle state.
    """
    nxt = np.searchsorted(cycle, _gather(succ, cycle)).astype(np.uint32)
    # Pointer jumping with a running minimum: after r rounds low[i] is the
    # least position among the w = 2^r states from i on, ahead[i] steps
    # on.  Once a round lowers nothing, low[i] is the least position on
    # i's cycle, its head, and ahead[i] the steps from i to the head.
    low = np.arange(len(cycle), dtype=np.uint32)
    ahead = np.zeros(len(cycle), dtype=np.uint32)
    ptr, w = nxt, 1
    while True:
        there = _gather(low, ptr)
        lower = there < low
        if not lower.any():
            break
        low = np.where(lower, there, low)
        ahead = np.where(lower, _gather(ahead, ptr) + w, ahead)
        ptr, w = _gather(ptr, ptr), 2 * w
    del there, lower, ptr
    head = ahead == 0
    number = np.cumsum(head, dtype=np.uint32)
    number -= 1
    comp = _gather(number, low)
    del number, low
    # a head's successor reaches the head one step short of a full turn
    lengths = _gather(ahead, nxt[head])
    lengths += 1
    del nxt
    ends = np.cumsum(lengths, dtype=np.uint32)
    # a state a > 0 steps short of its head goes a places before its
    # cycle's end, and the head itself to the cycle's start
    at = _gather(ends, comp)
    at -= ahead
    del ahead
    at[head] = np.subtract(ends, lengths, out=lengths)  # the cycles' starts
    del head, lengths
    return comp, _scatter(np.empty_like(cycle), at, cycle), ends


def _components(succ, n):
    """Each state's component, and the cycles.

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
    cycle = np.flatnonzero(image).astype(np.uint32)
    del image, next_image
    comp, rotated, ends = _cycle_components(succ, cycle)
    label = _scatter(np.zeros(size, dtype=np.int32), cycle, comp)
    del cycle, comp
    return _gather(label, land), rotated, ends


def _analyze(succ, n):
    component_of, cycle_states, cycle_ends = _components(succ, n)
    return PhaseSpace(
        n=n,
        successor=succ,
        component_of=component_of,
        cycle_states=cycle_states,
        cycle_ends=cycle_ends,
    )


def _component_sizes(space):
    """The number of states in each component of ``space``, as a tuple."""
    return tuple(
        np.bincount(space.component_of, minlength=space.component_count).tolist()
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
    succ = _successor_map(n, local_indices, zip(*drawn), samples)
    # Most states have no predecessor, so the chunk is analyzed on the
    # image of f alone: it is closed under f and holds every cycle, and a
    # state's component is its successor's.  Positions in the sorted image
    # keep the order of the states, and with it the component numbering.
    # numpy counts an intp array 2-3 times as fast as a uint32 one.
    indeg = np.bincount(succ.astype(np.intp), minlength=len(succ))
    image = np.flatnonzero(indeg != 0).astype(np.uint32)
    weight = _gather(indeg, image).astype(np.uint32)
    del indeg
    # each image state's position: a scatter and a gather, where a binary
    # search costs 8 times as much on a yeast chunk
    position = np.empty(len(succ), dtype=np.uint32)
    _scatter(position, image, np.arange(len(image), dtype=np.uint32))
    offsets = np.arange(samples, dtype=np.uint32)[:, None] << np.uint32(n)
    course_at = [
        _gather(position, _gather(succ, (offsets + np.uint32(c)).ravel()))
        for c in courses
    ]
    sub = _gather(position, _gather(succ, image))
    bounds = np.searchsorted(image, offsets.ravel())  # where each sample starts
    del succ, position, image
    component_of, rotated, ends = _components(sub, n)
    del sub
    # components are numbered by their smallest state, so sample by sample:
    # sample s's first component is the first whose head lies in it
    heads = _gather(rotated, ends - np.diff(ends, prepend=0))
    del rotated, ends
    first = np.searchsorted(heads, bounds)
    counts = np.diff(first, append=len(heads))
    del heads
    labels = [
        _gather(component_of, at).reshape(samples, -1) for at in course_at
    ]
    # a component's size is the in-degree summed over its image states,
    # exact in float64
    sizes = np.bincount(component_of.astype(np.intp), weights=weight)
    del component_of, weight
    sizes = sizes.astype(np.intp)
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


def _cycle_lengths(ends):
    """The length of each cycle, as a list, from where the cycles end."""
    return np.diff(ends, prepend=0).tolist()


def _attractor_bits(n, states, ends, newline):
    """The attractor list as JSON text, as ``json.dumps(indent=2)`` renders
    it on a line that ``newline``, a newline and that line's indentation,
    ends.

    ``states`` lists the cycles one after another, cut at ``ends``; each
    state is written as n '0'/'1' characters, node 0 first.  Row i of one
    byte array holds state i's characters and the separator after it, to
    the next state of its cycle or to the next cycle, and a mask cuts each
    row to its length: every state is rendered in one numpy pass.
    """
    inner = newline + "  "
    within = f'",{inner}  "'.encode()
    between = f'"{inner}],{inner}[{inner}  "'.encode()
    rows = np.empty((len(states), n + len(between)), dtype=np.uint8)
    octets = states.astype("<u4", copy=False).view(np.uint8).reshape(-1, 4)
    rows[:, :n] = np.unpackbits(octets, axis=1, count=n, bitorder="little")
    rows[:, :n] += ord("0")
    rows[:, n:] = np.frombuffer(within.ljust(len(between)), dtype=np.uint8)
    keep = np.zeros(rows.shape, dtype=bool)
    keep[:, :n + len(within)] = True
    last = ends[:-1] - 1
    rows[last, n:] = np.frombuffer(between, dtype=np.uint8)
    keep[last, n:] = True
    keep[-1, n:] = False
    text = rows[keep]
    del rows, keep
    body = str(text.data, "ascii")
    del text
    return f'[{inner}[{inner}  "{body}"{inner}]{newline}]'
