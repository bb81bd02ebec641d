"""The numpy kernel behind :mod:`ncfinfer.dynamics` and the ``dynamics``
report: the only module that imports numpy, loaded on the first
phase-space call.  The README's ``dynamics`` section describes its design.
"""

import numpy as np

from .errors import InvariantViolation

_BLOCK = 1 << 16  # index entries per np.take call or scatter


def _gather(a, idx):
    """``a[..., idx]``, through ``np.take``, about twice as fast as fancy
    indexing and as bounds-checked; at most 2^16 indices a call keep its
    intp copy of the index small."""
    if len(idx) <= _BLOCK:
        return np.take(a, idx, axis=-1)
    out = np.empty(a.shape[:-1] + idx.shape, dtype=a.dtype)
    for lo in range(0, len(idx), _BLOCK):
        out[..., lo:lo + _BLOCK] = np.take(a, idx[lo:lo + _BLOCK], axis=-1)
    return out


def _scatter(out, idx, values):
    """``out[idx] = values``, returning ``out``.  The index goes to numpy
    as intp, which scatters twice as fast as uint32, 2^16 entries at a
    time, where a whole intp copy would take 8 bytes per entry."""
    for lo in range(0, len(idx), _BLOCK):
        part = values if np.ndim(values) == 0 else values[lo:lo + _BLOCK]
        out[idx[lo:lo + _BLOCK].astype(np.intp)] = part
    return out


def _mark(size, idx):
    """A mask of ``size`` entries, true at ``idx``."""
    return _scatter(np.zeros(size, dtype=bool), idx, True)


def _local_index(n, regs, idx=None):
    """The index of each state below 2^n into the truth table of a node
    with regulators ``regs`` below bit n, into ``idx`` (new if not given:
    uint8, uint16 above arity 8).  It is built by doubling, with no
    state-sized temporary: fresh pages for one per regulator cost more
    than the copies."""
    if idx is None:
        idx = np.empty(1 << n, dtype=np.uint8 if len(regs) <= 8 else np.uint16)
    place = {r: j for j, r in enumerate(regs)}
    idx[0] = 0
    for b in range(n):
        upper = idx[1 << b:2 << b]
        upper[:] = idx[:1 << b]
        if b in place:
            upper |= 1 << place[b]
    return idx


def _table_words(arity, ints, narrow=False):
    """Truth tables of one arity, given as ints, as rows of 32-bit words,
    entry j at bit j % 32 of word j // 32.  ``narrow`` takes the narrowest
    word that holds a table, for the byte lanes; the uint32 shift select
    keeps 32-bit words, which a uint8 word was about 10 % slower than."""
    width = max(1 if narrow else 4, (1 << arity) >> 3)  # bytes per table
    packed = b"".join(bits.to_bytes(width, "little") for bits in ints)
    dtype = {1: np.uint8, 2: "<u2"}.get(width, "<u4")
    return np.frombuffer(packed, dtype=dtype).reshape(len(ints), -1)


def _shift_select(words, idx, place, out):
    """A node's successor bit at every state, times ``place``, into ``out``.

    ``words`` holds one table per row, or one table as a 1-d array, and
    ``idx`` the node's local index.  The bit moves to its place by a
    multiply: numpy shifts uint8 arrays by a scalar at five times the cost.
    """
    if words.shape[-1] > 1:
        words = _gather(words, idx >> 5)
        idx = idx & 31
    # the low bit survives the cast of a wider word into a uint8 ``out``
    np.right_shift(words, idx, out=out, casting="unsafe")
    out &= 1
    out *= place
    return out


def _base_map(n, regulators, singles):
    """The successor bits of the nodes ``singles``, pairs of a node i and
    its table int, in one uint32 array: the successor map, when every node
    is single.  Node i's bit goes to bit i % 8 of uint8 lane i // 8, on
    one period of 2^m states, m past its last regulator but at least 10,
    so that numpy's OR runs on long rows.  A build whose tables fit one
    word, up to arity 5, holds at most 4 + ceil(n / 8) bytes per state.
    """
    lanes = np.zeros(((n + 7) >> 3, 1 << n), dtype=np.uint8)
    spare, bit = np.empty_like(lanes[0]), np.empty_like(lanes[0])
    for i, bits in singles:
        regs = regulators[i]
        m = min(n, max(10, max(regs, default=0) + 1))
        words = _table_words(len(regs), [bits], narrow=True)[0]
        idx = _local_index(m, regs, spare[:1 << m] if len(regs) <= 8 else None)
        place = np.uint8(1 << (i & 7))
        rows = lanes[i >> 3].reshape(-1, 1 << m)
        rows |= _shift_select(words, idx, place, bit[:1 << m])
        del idx
    del spare, bit  # freed before the map's own 4 bytes per state
    base = np.zeros(1 << n, dtype="<u4")
    octets = base.view(np.uint8).reshape(-1, 4)  # byte j is lane j
    for j, lane in enumerate(lanes):
        octets[:, j] = lane
    return base


def _ensemble_plan(n, regulators, nodes, budget, samples):
    """How ``_ensemble_successors`` builds the successor maps of an
    ensemble of ``samples`` networks, as ``(base, cached, shifted)``.

    ``nodes[i]`` is node i's ``(count, table)``: how many candidates it
    draws from, and ``table(row)``, the table int of candidate ``row``.
    ``base`` holds the bits of every single-candidate node.  A node with
    no more candidates than samples, whose whole set fits what is left of
    ``budget`` bytes, smallest set first, is in ``cached`` with its
    ``(count, 2^n)`` matrix of shifted successor bits.  Every other node
    is in ``shifted`` with its local index, for a shift select per sample.
    """
    base = _base_map(
        n, regulators, [(i, t(0)) for i, (c, t) in enumerate(nodes) if c == 1]
    )
    cached, shifted = [], []
    column = 4 << n  # bytes per cached candidate
    for i in sorted(range(len(nodes)), key=lambda i: nodes[i][0]):
        count, table = nodes[i]
        if count == 1:
            continue
        k, idx = len(regulators[i]), _local_index(n, regulators[i])
        if count <= samples and count * column <= budget:
            budget -= count * column
            words = _table_words(k, [table(row) for row in range(count)])
            matrix = np.empty((count, 1 << n), dtype=np.uint32)
            place = np.uint32(1 << i)
            cached.append((i, _shift_select(words, idx, place, matrix)))
        else:
            shifted.append((i, k, table, idx))
    return base, cached, shifted


class _Workspace(dict):
    """Buffers of ``states`` entries each, by name, made at first use, that
    consecutive ensemble chunks overwrite: no chunk after the first faults
    in fresh pages for them.  A chunk writes every entry it reads."""

    def __init__(self, states):
        super().__init__()
        self.states = states


def _buffer(space, name, dtype, size):
    """``size`` entries of workspace ``space``'s buffer ``name``, or fresh
    ones, freed once the chunk drops them, when ``space`` is None."""
    if space is None:
        return np.empty(size, dtype=dtype)
    if name not in space:
        space[name] = np.empty(space.states, dtype=dtype)
    return space[name][:size]


def _ensemble_successors(n, plan, rows, space=None):
    """The successor maps of S sampled networks side by side, as one array
    in ``space`` (a ``_Workspace`` or None): ``rows[s][i]`` is node i's
    candidate in network s, offset by s * 2^n."""
    base, cached, shifted = plan
    succ = _buffer(space, "succ", np.uint32, len(rows) << n)
    succ = succ.reshape(len(rows), -1)
    succ[:] = base
    for i, matrix in cached:
        # np.take into an ``out`` array buffers the copy, at 2.5 times the cost
        succ |= np.take(matrix, [row[i] for row in rows], axis=0)
    if shifted:
        bits = _buffer(space, "bits", np.uint32, succ.size).reshape(succ.shape)
    for i, k, table, idx in shifted:
        words = _table_words(k, [table(row[i]) for row in rows])
        succ |= _shift_select(words, idx, np.uint32(1 << i), bits)
    succ += np.arange(len(rows), dtype=np.uint32)[:, None] << np.uint32(n)
    return succ.ravel()


def _cycle_components(succ, cycle):
    """Component of each cycle state, the cycle states in report order, and
    where each cycle ends there, all uint32.

    ``cycle`` holds the sorted cycle states.  Components are numbered by
    their smallest state, and each cycle is rotated to start there.
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
    """Each state's component, and the cycles as ``_cycle_components``
    gives them, of any functional graph ``succ`` whose tails are shorter
    than 2^n steps, such as S phase spaces of 2^n states side by side."""
    size = len(succ)
    # Doubling land = f^m, m = 1, 2, 4, ...: once f^2m has the image of
    # f^m, f^m permutes it, so it is exactly the set of cycle states.  Side
    # by side graphs have disjoint images that each only shrink, so the
    # total stops shrinking only when every one has.
    land = succ
    image = _mark(size, land)
    count = np.count_nonzero(image)
    for _ in range(n):
        next_image = _mark(size, land[image])
        count, last = np.count_nonzero(next_image), count
        if count == last:
            break
        land, image = _gather(land, land), next_image
    # state-sized arrays are dropped once used: their peak bounds n
    cycle = np.flatnonzero(image).astype(np.uint32)
    del image, next_image
    comp, rotated, ends = _cycle_components(succ, cycle)
    label = _scatter(np.zeros(size, dtype=np.int32), cycle, comp)
    del cycle, comp
    return _gather(label, land), rotated, ends


def _component_sizes(space):
    """The number of states in each component of ``space``, as an array."""
    return np.bincount(space.component_of, minlength=space.component_count)


def _ensemble_chunk(n, plan, rows, courses, space=None):
    """Per network of ``rows`` (as ``_ensemble_successors`` takes them),
    its component count, the size of the component holding the first of
    ``courses`` (lists of state ints), and the size of its largest one.
    The state-sized arrays before the component analysis are views into
    ``space``, a ``_Workspace``, or fresh ones when it is None.

    Raises ``InvariantViolation`` at the first network where a course
    spans components.
    """
    samples = len(rows)
    succ = _ensemble_successors(n, plan, rows, space)
    # The chunk is analyzed on the image of f, closed under f and holding
    # every cycle; a state's component is its successor's.  Positions in
    # the sorted image keep the component numbering.  numpy counts an intp
    # array 2-3 times as fast as a uint32 one.
    wide = _buffer(space, "wide", np.intp, len(succ))
    wide[:] = succ
    indeg = np.bincount(wide, minlength=len(succ))
    del wide
    image = np.flatnonzero(indeg != 0).astype(np.uint32)
    weight = _gather(indeg, image).astype(np.uint32)
    del indeg
    # each image state's position: a scatter and a gather, where a binary
    # search costs 8 times as much on a yeast chunk.  Only image states
    # are written, and only they are read.
    position = _buffer(space, "position", np.uint32, len(succ))
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
    """The length of each cycle, as an array, from where the cycles end."""
    return np.diff(ends, prepend=0)


def _decimal(values, sep):
    """``sep.join(map(str, values))`` for a nonempty array of nonnegative
    ints, with no Python int or str per value: row i of one byte array
    holds value i's digits and ``sep``, and a mask drops the leading zeros
    and the last separator."""
    sep = sep.encode()
    top = values.max()
    width = len(str(top))
    rows = np.empty((len(values), width + len(sep)), dtype=np.uint8)
    rest = values.astype(np.min_scalar_type(top))
    for j in range(width - 1, -1, -1):
        rows[:, j] = rest % 10
        rest //= 10
    del rest
    keep = np.ones(rows.shape, dtype=bool)
    # digits from the first nonzero one on; the units always
    lead = rows[:, :width - 1] != 0
    np.logical_or.accumulate(lead, axis=1, out=keep[:, :width - 1])
    del lead
    rows[:, :width] += ord("0")
    rows[:, width:] = np.frombuffer(sep, dtype=np.uint8)
    keep[-1, width:] = False
    text = rows[keep]
    del rows, keep
    return str(text.data, "ascii")


def _attractor_bits(n, states, ends, newline):
    """The attractor list as JSON text, as ``json.dumps(indent=2)`` renders
    it on a line that ``newline`` (a newline and that line's indentation)
    ends; ``states`` lists the cycles one after another, cut at ``ends``.

    Each state is n '0'/'1' characters, node 0 first.  Row i of one byte
    array holds state i's and the separator after it, and a mask cuts
    each row to its length, so every state is rendered in one numpy pass.
    """
    inner = newline + "  "
    within = f'",{inner}  "'.encode()
    between = f'"{inner}],{inner}[{inner}  "'.encode()
    rows = np.empty((len(states), n + len(between)), dtype=np.uint8)
    octets = states.astype("<u4", copy=False).view(np.uint8).reshape(-1, 4)
    rows[:, :n] = np.unpackbits(octets, axis=1, count=n, bitorder="little")
    rows[:, :n] += ord("0")
    seps = np.frombuffer(within.ljust(len(between)) + between, dtype=np.uint8)
    seps = seps.reshape(2, -1)
    # Every row takes the separator most states take, and the other rows
    # are rewritten: that costs per row, so it runs on the fewer.
    usual = 2 * len(ends) > len(states)
    other = np.flatnonzero(_mark(len(states), ends - 1) != usual)
    rows[:, n:] = seps[int(usual)]
    rows[other, n:] = seps[int(not usual)]
    keep = np.ones(rows.shape, dtype=bool)
    tail = keep[:, n + len(within):]  # the bytes only the between-cycle one has
    if not usual:
        tail[:] = False
    tail[other] = not usual
    del other, tail
    keep[-1, n:] = False
    text = rows[keep]
    del rows, keep
    body = str(text.data, "ascii")
    del text
    return f'[{inner}[{inner}  "{body}"{inner}]{newline}]'
