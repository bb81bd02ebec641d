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


def _local_index(n, regs, idx=None):
    """The index of each state below 2^n into the truth table of a node
    whose regulators ``regs`` all lie below bit n, in ``idx``.

    The states 2^b .. 2^(b+1) - 1 are the states below 2^b with bit b
    set, so the index is built by doubling: each step copies the filled
    half and, when node b is the node's j-th regulator, sets bit j.  No
    state-sized temporary is allocated: fresh pages for one per regulator
    cost more than the copies.  ``idx``, uint8 (uint16 above arity 8) and
    new if not given, is overwritten.
    """
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
    entry j at bit j % 32 of word j // 32: one word per table up to arity 5.

    ``narrow`` takes the narrowest word that holds a table instead, uint8
    up to arity 3 and uint16 at arity 4, for the uint8 selects of the
    byte lanes.  The shift select into uint32 rows keeps 32-bit words,
    which a uint8 word was about 10 % slower than on one-network chunks.
    """
    width = max(1 if narrow else 4, (1 << arity) >> 3)  # bytes per table
    packed = b"".join(bits.to_bytes(width, "little") for bits in ints)
    dtype = {1: np.uint8, 2: "<u2"}.get(width, "<u4")
    return np.frombuffer(packed, dtype=dtype).reshape(len(ints), -1)


def _shift_select(words, idx, place, out):
    """A node's successor bit at every state, times ``place``, into ``out``.

    ``words`` holds one table per row, or one table as a 1-d array, and
    ``idx`` the node's local index.  The bit is the table word shifted
    right by the local index and masked; a table of more than 32 entries
    first selects each state's word.  The bit moves to its place by a
    multiply: numpy shifts uint8 arrays by a scalar element by element,
    at about five times the multiply's cost.
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
    its table int, ORed into one uint32 array.

    The array is built in byte lanes: node i's bit, selected from its
    table's narrowest word into one reused uint8 buffer, goes to bit
    i % 8 of lane i // 8, and the at most 4 lanes are stored into the
    array once, at the end.  A node's bit depends only on the state bits
    up to its last regulator, so it repeats every 2^m states, m past that
    regulator's place: it is selected on the first 2^m states alone and
    ORed into each 2^m-state row of its lane at once.  Rows are at least
    2^10 states long, so that numpy's OR runs on long rows.  Nodes of
    arity 8 or less share one reused uint8 local index; a wider node gets
    a uint16 one of its own.  So a build whose tables fit one word, up to
    arity 5, holds at most 4 + ceil(n / 8) bytes per state.
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
    ensemble of ``samples`` networks.

    ``nodes[i]`` is node i's ``(count, table)``: how many candidates it
    draws from, and the table int of candidate ``row``.  A node's successor
    bits depend only on the candidate it draws, so

    * the bits of every single-candidate node go into one ``base`` array,
      which ``_base_map`` builds in uint8 byte lanes;
    * a node with no more candidates than samples, whose whole candidate
      set fits what is left of ``budget`` bytes, smallest set first, gets
      its ``(count, 2^n)`` uint32 matrix of shifted successor bits, one row
      per candidate, computed once;
    * every other node keeps its local index for the uint32 shift select,
      which computes one row per sample.

    ``phase_space`` plans one network whose every node has one candidate,
    and its ``base`` array is that network's successor map.
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


def _ensemble_successors(n, plan, rows):
    """The successor maps of S sampled networks side by side, as one array.

    ``rows[s][i]`` is the candidate node i drew in network s, and network
    s's states are offset by s * 2^n.
    """
    base, cached, shifted = plan
    succ = np.tile(base, (len(rows), 1))
    for i, matrix in cached:
        # np.take into an ``out`` array buffers the copy, at 2.5 times the cost
        succ |= np.take(matrix, [row[i] for row in rows], axis=0)
    bits = np.empty_like(succ) if shifted else None
    for i, k, table, idx in shifted:
        words = _table_words(k, [table(row[i]) for row in rows])
        succ |= _shift_select(words, idx, np.uint32(1 << i), bits)
    succ += np.arange(len(rows), dtype=np.uint32)[:, None] << np.uint32(n)
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
    """The number of states in each component of ``space``, as an array."""
    return np.bincount(space.component_of, minlength=space.component_count)


def _ensemble_chunk(n, plan, rows, courses):
    """Statistics of S networks on one wiring, analyzed as one graph.

    ``rows[s][i]`` is the candidate node i drew in network s, as
    ``_ensemble_plan`` numbers them, and ``courses`` lists state integers.
    Returns, one entry per network, its component count, the size of the
    component holding the first course, and the size of its largest
    component.  Raises ``InvariantViolation`` at the first network, in
    order, where a course spans components.
    """
    samples = len(rows)
    succ = _ensemble_successors(n, plan, rows)
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
    """The length of each cycle, as an array, from where the cycles end."""
    return np.diff(ends, prepend=0)


def _decimal(values, sep):
    """``sep.join(map(str, values))`` for a nonempty array of nonnegative
    ints.

    Row i of one byte array holds value i's digits, right-aligned with
    leading zeros, and ``sep``; a mask drops the leading zeros and the
    last separator, so no Python int or str per value is made, as in
    ``_attractor_bits``.
    """
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
    # a digit is kept from the value's first nonzero digit on; the units
    # always
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
    seps = np.frombuffer(within.ljust(len(between)) + between, dtype=np.uint8)
    seps = seps.reshape(2, -1)
    # Every row is filled with the separator most states take, the
    # between-cycle one when most states end their cycle, as fixed points
    # do, and the other states are then rewritten: that costs per row, so
    # it runs on the fewer rows either way.
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
