"""The numpy kernel behind :mod:`ncfinfer.dynamics` and the attractor report.

This is the only module of the package that imports numpy.  It is loaded
on the first phase-space call (``phase_space``, ``sample_ensemble``, the
``dynamics`` subcommand), so ``infer``, ``check`` and ``enumerate-ncfs``
never pay for the numpy import.
"""

from itertools import accumulate, chain

import numpy as np

from .dynamics import PhaseSpace


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


def _successor_map(n, local_indices, tables):
    succ = np.zeros(1 << n, dtype=np.uint32)
    for i, (idx, table) in enumerate(zip(local_indices, tables)):
        succ |= (np.array(table.values, dtype=np.uint32) << np.uint32(i))[idx]
    return succ


def _cycle_components(succ, cycle):
    """Component of each cycle state, and all cycle states in report order.

    ``cycle`` holds the sorted cycle states.  Components are numbered by
    their smallest state, and each cycle is rotated to start there; the
    second array lists the cycles one after another, cut at ``ends``.
    """
    nxt = np.searchsorted(cycle, succ[cycle])
    # Pointer jumping with a running minimum: after r rounds low[i] is the
    # least position among the w = 2^r states from i on, ahead[i] steps
    # on.  Once a round lowers nothing, low[i] is the least position on
    # i's cycle, its head, and ahead[i] the steps from i to the head.
    low, ptr, w = np.arange(len(cycle)), nxt, 1
    ahead = np.zeros(len(cycle), dtype=np.intp)
    while True:
        there = low[ptr]
        lower = there < low
        if not lower.any():
            break
        low = np.where(lower, there, low)
        ahead = np.where(lower, ahead[ptr] + w, ahead)
        ptr, w = ptr[ptr], 2 * w
    comp = np.cumsum(ahead == 0)[low] - 1
    lengths = np.bincount(comp)
    ends = np.cumsum(lengths)
    length = lengths[comp]
    rotated = np.empty_like(cycle)
    rotated[ends[comp] - length + -ahead % length] = cycle
    return comp, rotated, ends


def _analyze(succ, n):
    size = 1 << n
    # Doubling land = f^m, m = 1, 2, 4, ...: the images of f^m shrink as m
    # grows, and once f^2m has the image of f^m, f^m permutes that image,
    # which is then exactly the set of cycle states.  Im f^2m is f^m taken
    # on Im f^m alone, and 2^n steps always suffice.
    land = succ
    image = np.zeros(size, dtype=bool)
    image[land] = True
    count = np.count_nonzero(image)
    for _ in range(n):
        next_image = np.zeros(size, dtype=bool)
        next_image[land[image]] = True
        count, last = np.count_nonzero(next_image), count
        if count == last:
            break
        land, image = land[land], next_image
    # every 2^n array is dropped once used: their peak is what bounds n
    cycle = np.flatnonzero(image)
    del image, next_image
    comp, rotated, ends = _cycle_components(succ, cycle)
    label = np.zeros(size, dtype=np.int32)
    label[cycle] = comp
    del cycle, comp
    component_of = label[land]
    del label, land
    sizes = np.bincount(component_of, minlength=len(ends))
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


def _attractor_bits(n, cycles):
    """Each attractor as a list of its states in n '0'/'1' characters, node 0
    first; every state is rendered in one numpy pass."""
    ends = list(accumulate(map(len, cycles)))
    states = np.fromiter(chain.from_iterable(cycles), dtype=np.int64, count=ends[-1])
    chars = ((states[:, None] >> np.arange(n)) & 1).astype(np.uint8) + ord("0")
    words = chars.view(f"S{n}")[:, 0].astype(str).tolist()
    return [words[a:b] for a, b in zip([0, *ends], ends)]
