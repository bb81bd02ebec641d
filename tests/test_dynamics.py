import copy
import errno
import itertools
import json
import os
import random
import sys
import threading
import time
import tracemalloc
import typing
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from ncfinfer import _engine
from ncfinfer import dynamics as dynamics_module
from ncfinfer.boolfun import TruthTable, point_to_index
from ncfinfer.dynamics import (
    BooleanNetwork,
    EnsembleStats,
    PhaseSpace,
    _analyze,
    phase_space,
    sample_ensemble,
    trajectory_component_size,
)
from strategies import consistent_instances
from ncfinfer.errors import CapacityError, ConfigurationError, InvariantViolation
from ncfinfer.infer import (
    InferenceResult,
    NodeInference,
    TimeCourse,
    WiringDiagram,
    infer_all,
    states_as_ints,
)
from ncfinfer.modelspace import LocalData
from ncfinfer.ncf import NcfSet

IDENTITY1 = TruthTable(1, [0, 1])
NEGATION1 = TruthTable(1, [1, 0])
ZERO1 = TruthTable(1, [0, 0])


def _self_loop_net(n, table):
    wiring = WiringDiagram([f"n{i}" for i in range(n)], [[i] for i in range(n)])
    return BooleanNetwork(wiring, [table] * n)


def _oracle_successors(tables, regulators):
    """The successor map of the network with table ints ``tables``."""
    n = len(tables)
    return [oracles.successor(tables, regulators, m) for m in range(1 << n)]


def test_step_identity_and_constant():
    regulators = [[i] for i in range(3)]
    ident = phase_space(_self_loop_net(3, IDENTITY1))
    zero = phase_space(_self_loop_net(3, ZERO1))
    assert ident.successor.tolist() == list(range(8))
    assert ident.successor.tolist() == _oracle_successors([2] * 3, regulators)
    assert zero.successor.tolist() == [0] * 8
    assert zero.successor.tolist() == _oracle_successors([0] * 3, regulators)
    with pytest.raises(ValueError):
        trajectory_component_size(ident, [(0, 1)])


def test_step_reproduces_yeast_trajectory(yeast_result):
    # any model whose locals all fit the data must walk the course exactly
    rng = random.Random(5)
    for _ in range(5):
        tables = [
            rec.forced
            if not rec.ncfs.members
            else rec.ncfs.members[rng.randrange(len(rec.ncfs.members))]
            for rec in yeast_result.nodes
        ]
        succ = phase_space(BooleanNetwork(yeast_result.wiring, tables)).successor
        states = yeast_result.trajectories()[0]
        for a, b in zip(states, states[1:]):
            assert succ[a] == b


def test_phase_space_identity_network():
    space = phase_space(_self_loop_net(3, IDENTITY1))
    assert space.component_count == 8
    assert space.component_sizes == (1,) * 8
    assert sorted(space.attractors) == [(s,) for s in range(8)]


def test_phase_space_constant_network():
    space = phase_space(_self_loop_net(3, ZERO1))
    assert space.component_count == 1
    assert space.component_sizes == (8,)
    assert space.attractors == ((0,),)


def test_phase_space_negation_network():
    space = phase_space(_self_loop_net(1, NEGATION1))
    assert space.component_count == 1
    assert space.attractors == ((0, 1),)


def test_phase_space_capacity_cap():
    n = 25
    wiring = WiringDiagram([f"n{i}" for i in range(n)], [[i] for i in range(n)])
    with pytest.raises(CapacityError):
        phase_space(BooleanNetwork(wiring, [IDENTITY1] * n))


def _random_network(rng, n):
    wiring = WiringDiagram(
        [f"n{i}" for i in range(n)],
        [rng.sample(range(n), rng.randrange(1, min(3, n) + 1)) for _ in range(n)],
    )
    tables = [
        TruthTable.from_int(len(regs), rng.getrandbits(1 << len(regs)))
        for regs in wiring.regulators
    ]
    return BooleanNetwork(wiring, tables)


def test_functional_graph_sanity_random_networks():
    rng = random.Random(77)
    for _ in range(20):
        net = _random_network(rng, rng.randrange(2, 7))
        n = net.size
        space = phase_space(net)
        assert sum(space.component_sizes) == 1 << n
        assert space.component_count == len(space.attractors)
        succ = space.successor
        for cycle in space.attractors:
            # the cycle is closed and disjoint from other cycles
            for a, b in zip(cycle, cycle[1:] + cycle[:1]):
                assert int(succ[a]) == b
        # iterating the map from any state reaches its component's cycle
        cycle_sets = [set(c) for c in space.attractors]
        for s in range(1 << n):
            comp = int(space.component_of[s])
            cur = s
            for _ in range(1 << n):
                if cur in cycle_sets[comp]:
                    break
                cur = int(succ[cur])
            assert cur in cycle_sets[comp]


@st.composite
def networks(draw):
    n = draw(st.sampled_from(range(1, 11)))
    regulators = [
        draw(st.lists(st.integers(0, n - 1), unique=True, max_size=min(3, n)))
        for _ in range(n)
    ]
    tables = [
        TruthTable.from_int(len(regs), draw(st.integers(0, 2 ** 2 ** len(regs) - 1)))
        for regs in regulators
    ]
    return BooleanNetwork(
        WiringDiagram([f"n{i}" for i in range(n)], regulators), tables
    )


@settings(derandomize=True, max_examples=200, deadline=None)
@given(networks())
def test_phase_space_matches_the_oracle(net):
    n = net.size
    space = phase_space(net)
    succ = space.successor.tolist()
    tables = [t.to_int() for t in net.tables]
    assert succ == _oracle_successors(tables, net.wiring.regulators)
    component_of, cycles, sizes = oracles.functional_graph(succ)
    assert space.component_of.tolist() == component_of
    assert space.attractors == cycles
    assert space.component_sizes == sizes


def test_successor_map_matches_the_oracle_on_wide_tables():
    # arities 0..10: one-word tables (k <= 5), multi-word tables (k >= 6)
    # and the uint16 local index (k >= 9), several networks side by side;
    # no cached column, some, or every one (no budget)
    rng = random.Random(909)
    for k, budget in itertools.product(range(11), [0, 1 << 16, None]):
        n = rng.randint(max(k, 1), 11)
        regulators = [rng.sample(range(n), k)] + [
            rng.sample(range(n), rng.randint(0, min(n, 10))) for _ in range(n - 1)
        ]
        wiring = WiringDiagram(
            [f"n{i}" for i in range(n)], regulators, allow_big=True
        )
        candidates = [
            [rng.getrandbits(1 << len(regs)) for _ in range(3)] for regs in regulators
        ]
        if n > 1:
            candidates[1] = candidates[1][:1]  # folded into the base array
        base, cached, shifted = plan = _engine._ensemble_plan(
            n,
            regulators,
            [(len(c), c.__getitem__) for c in candidates],
            1 << 62 if budget is None else budget,
            3,
        )
        assert len(cached) + len(shifted) == sum(len(c) > 1 for c in candidates)
        assert (budget == 0) <= (not cached) and (budget is None) <= (not shifted)
        # three networks side by side, network s drawing candidate s
        rows = [[min(s, len(c) - 1) for c in candidates] for s in range(3)]
        succ = _engine._ensemble_successors(n, plan, rows).tolist()
        for s, network in enumerate(rows):
            tables = [c[row] for c, row in zip(candidates, network)]
            net = BooleanNetwork(wiring, [
                TruthTable.from_int(len(regs), bits, allow_big=True)
                for regs, bits in zip(regulators, tables)
            ])
            phase = phase_space(net).successor.tolist()
            assert phase == _oracle_successors(tables, regulators)
            assert succ[s << n:(s + 1) << n] == [(s << n) + m for m in phase]


def test_successor_map_matches_the_oracle_across_byte_lanes():
    # 17-20 nodes fill three byte lanes of the base array.  The nodes at
    # the lane edges, i = 7, 8, 15 and 16, take every arity 0..10 between
    # them: the uint8 table word up to arity 3, the uint16 word at 4,
    # 32-bit words above, several words from 6 on and the uint16 local
    # index from 9 on.  Their last regulators fall below and above bit 10,
    # so some bits repeat with a period shorter than the map
    rng = random.Random(1718)
    arities = itertools.cycle(range(11))
    for n in range(17, 21):
        edges = {i: next(arities) for i in (7, 8, 15, 16)}
        regulators = [
            rng.sample(range(n), edges.get(i, rng.randint(0, 3)))
            for i in range(n)
        ]
        wiring = WiringDiagram(
            [f"n{i}" for i in range(n)], regulators, allow_big=True
        )
        tables = [rng.getrandbits(1 << len(regs)) for regs in regulators]
        net = BooleanNetwork(wiring, [
            TruthTable.from_int(len(regs), bits, allow_big=True)
            for regs, bits in zip(regulators, tables)
        ])
        succ = phase_space(net).successor
        assert succ.dtype == np.uint32
        for m in [0, (1 << n) - 1] + [rng.getrandbits(n) for _ in range(2000)]:
            assert succ[m] == oracles.successor(tables, regulators, m)


def _shaped_maps(rng, n):
    size = 1 << n
    perm = list(range(size))
    rng.shuffle(perm)
    # one cycle through every state, in a random order
    tour = [0] * size
    for a, b in zip(perm, perm[1:] + perm[:1]):
        tour[a] = b
    yield perm
    yield tour
    yield list(range(size))  # identity: every state a fixed point
    yield [max(m - 1, 0) for m in range(size)]  # a tail of 2^n - 1 steps
    yield [rng.randrange(size) for _ in range(size)]


def test_analyze_matches_the_oracle_on_shaped_maps():
    # permutations end the doubling at once, the chain needs all n rounds,
    # and the single 2^n-cycle needs the most pointer-jumping rounds
    rng = random.Random(2024)
    for n in range(1, 11):
        for succ in _shaped_maps(rng, n):
            space = _analyze(np.array(succ, dtype=np.uint32), n)
            component_of, cycles, sizes = oracles.functional_graph(succ)
            assert space.component_of.dtype == np.int32
            assert space.component_of.tolist() == component_of
            assert space.attractors == cycles
            assert space.component_sizes == sizes


def test_phase_space_memory_per_state():
    # a shift register: node 0 is constant 0 and node i copies node i - 1,
    # so every state reaches the all-zero fixed point within n steps
    n = 20
    wiring = WiringDiagram(
        [f"n{i}" for i in range(n)], [[]] + [[i - 1] for i in range(1, n)]
    )
    net = BooleanNetwork(wiring, [TruthTable(0, [0])] + [IDENTITY1] * (n - 1))
    tracemalloc.start()
    try:
        space = phase_space(net)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert space.attractors == ((0,),)
    assert peak <= 32 << n


def test_phase_space_memory_per_state_all_fixed_points():
    # the identity network: every one of the 2^n states is a fixed point,
    # so every state is a cycle state and a component of its own
    n = 20
    net = _self_loop_net(n, IDENTITY1)
    tracemalloc.start()
    try:
        space = phase_space(net)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert space.component_count == 1 << n
    assert peak <= 32 << n


def test_sample_ensemble_memory_per_state_all_fixed_points():
    # the identity network again: the image of f is every state, so the
    # ensemble analysis gains nothing from it and holds the most.  In ncf
    # mode every node has the identity alone and is folded into the base
    # array.  Unrestricted, every node draws the identity or the constant
    # of its course value, two candidates for one sample, so each keeps
    # its uint8 local index: the n bytes per state.  Seed 970910 is the
    # first whose sample draws the identity at every node, so every state
    # is a fixed point as well: the worst case of sample_ensemble's bound
    n = 20
    wiring = WiringDiagram([f"n{i}" for i in range(n)], [[i] for i in range(n)])
    state = [i % 2 for i in range(n)]
    result = infer_all(wiring, TimeCourse(wiring.nodes, [state, state]))
    for mode, seed in (("ncf", 0), ("unrestricted", 0), ("unrestricted", 970910)):
        tracemalloc.start()
        try:
            stats = sample_ensemble(result, 1, seed, mode)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        (count,), (size,) = stats.component_counts, stats.trajectory_sizes
        # each component is one fixed point and the states that differ from
        # it only at constant nodes
        assert count * size == 1 << n, mode
        assert (mode, seed) == ("unrestricted", 0) or count == 1 << n
        assert peak <= (n + 48) << n, mode


def test_trajectory_component_size():
    space = phase_space(_self_loop_net(3, ZERO1))
    assert trajectory_component_size(space, [(0, 0, 0)]) == 8
    ident = phase_space(_self_loop_net(3, IDENTITY1))
    assert trajectory_component_size(ident, [(1, 0, 1)]) == 1
    assert trajectory_component_size(ident, [5]) == 1
    with pytest.raises(InvariantViolation):
        trajectory_component_size(ident, [(0, 0, 0), (1, 0, 0)])
    with pytest.raises(ValueError):
        trajectory_component_size(ident, [])


@pytest.mark.parametrize("entry", [2, -1, 1.0, "1", None])
def test_states_reject_entries_other_than_bits(entry):
    # unchecked, (0, 2, 0) would be read as state 4 and (0, 1.0, 0) would
    # raise TypeError
    net = _self_loop_net(3, IDENTITY1)
    space = phase_space(net)
    with pytest.raises(ValueError, match="state must hold only the integers 0/1"):
        trajectory_component_size(space, [(0, 0, 0), (0, entry, 0)])


def test_sample_ensemble_deterministic(yeast_result):
    a = sample_ensemble(yeast_result, 60, 9, "ncf")
    b = sample_ensemble(yeast_result, 60, 9, "ncf")
    assert a == b
    assert sum(a.histogram) == a.sample_count == 60
    assert len(a.trajectory_sizes) == 60
    assert a.bin_width == 64 and len(a.histogram) == 32


def test_ensemble_stats_as_dict_matches_a_deep_copy(yeast_result):
    stats = sample_ensemble(yeast_result, 40, 2, "unrestricted")
    deep = {}
    for name in EnsembleStats._fields:
        value = copy.deepcopy(getattr(stats, name))
        deep[name] = list(value) if isinstance(value, tuple) else value
    assert json.dumps(stats.as_dict()) == json.dumps(deep)
    assert all(type(v) is not tuple for v in stats.as_dict().values())


def test_sample_ensemble_seed_changes_draws(yeast_result):
    a = sample_ensemble(yeast_result, 40, 1, "ncf")
    b = sample_ensemble(yeast_result, 40, 2, "ncf")
    assert a.trajectory_sizes != b.trajectory_sizes


def test_sample_ensemble_single_node_both_ncfs():
    wiring = WiringDiagram(["A"], [[0]])
    course = TimeCourse(["A"], [[0], [0]])  # only the identity fits
    res = infer_all(wiring, course)
    stats = sample_ensemble(res, 4, 123, "ncf")
    assert stats.sample_count == 4
    assert stats.trajectory_sizes == (1, 1, 1, 1)
    assert stats == sample_ensemble(res, 4, 123, "ncf")


def test_sample_ensemble_unrestricted_covers_space():
    wiring = WiringDiagram(["A"], [[0]])
    course = TimeCourse(["A"], [[0], [0]])  # value at input 1 is free
    res = infer_all(wiring, course)
    stats = sample_ensemble(res, 64, 5, "unrestricted")
    # both completions occur: identity gives fixed points, constant-0 merges
    assert set(stats.component_counts) == {1, 2}


def test_sample_ensemble_forced_non_ncf_node(yeast_result):
    # Cln3's only fitting function is constant 0, which is not an NCF; the
    # sampler must still run by pinning that node to its forced function
    stats = sample_ensemble(yeast_result, 5, 3, "ncf")
    assert stats.sample_count == 5


def test_sample_ensemble_configuration_error():
    data = LocalData(1, [((0,), 1)])  # 2 fitting functions
    rec = NodeInference(
        name="A",
        regulators=("A",),
        data=data,
        space_size=2,
        ncfs=NcfSet._of(1, []),  # pretend neither is an NCF
        near_misses=(),
    )
    wiring = WiringDiagram(["A"], [[0]])
    course = TimeCourse(["A"], [[0], [1]])
    res = InferenceResult(wiring, (course,), (rec,))
    with pytest.raises(ConfigurationError):
        sample_ensemble(res, 2, 0, "ncf")
    # unrestricted mode has no such constraint
    assert sample_ensemble(res, 2, 0, "unrestricted").sample_count == 2


def test_sample_ensemble_rejects_a_partial_inference(yeast, monkeypatch):
    wiring, course = yeast
    partial = infer_all(wiring, course, only="Sic1")
    samplers = []
    monkeypatch.setattr(
        dynamics_module, "_node_sampler", lambda *args: samplers.append(args)
    )
    with pytest.raises(ConfigurationError) as caught:
        sample_ensemble(partial, 3, 0, "ncf")
    missing = [name for name in wiring.nodes if name != "Sic1"]
    assert caught.value.context == {"missing": missing}
    assert samplers == []


def test_sample_ensemble_argument_validation(yeast_result):
    with pytest.raises(ValueError):
        sample_ensemble(yeast_result, 0, 1, "ncf")
    with pytest.raises(ValueError):
        sample_ensemble(yeast_result, 1, -1, "ncf")
    with pytest.raises(ValueError):
        sample_ensemble(yeast_result, 1, 1, "bogus")


def test_sample_ensemble_refuses_a_count_beyond_its_mapping(yeast_result, monkeypatch):
    # the statistics take 24 bytes per sample in one mapping, whose length
    # must fit in a C ssize_t and in physical memory: a larger count is
    # refused before any work
    samplers = []
    monkeypatch.setattr(
        dynamics_module, "_node_sampler", lambda *args: samplers.append(args)
    )
    huge = sys.maxsize // 24 + 1
    with pytest.raises(CapacityError, match=str(huge)) as caught:
        sample_ensemble(yeast_result, huge, 1, "ncf")
    assert caught.value.context == {"samples": huge}
    assert samplers == []
    # the largest count whose mapping fits passes the check, which maps nothing
    largest = min(sys.maxsize, dynamics_module._physical_memory()) // 24
    dynamics_module._check_sampling(largest, 1)
    with pytest.raises(CapacityError, match=str(largest + 1)):
        dynamics_module._check_sampling(largest + 1, 1)


def test_the_sample_count_is_bounded_by_physical_memory(monkeypatch):
    # 3 pages of 4 KiB hold the statistics of 512 samples
    sizes = {"SC_PAGE_SIZE": 4096, "SC_PHYS_PAGES": 3}
    monkeypatch.setattr(os, "sysconf", sizes.__getitem__)
    assert dynamics_module._physical_memory() == 12288
    dynamics_module._check_sampling(512, 1)
    with pytest.raises(CapacityError, match="513 samples") as caught:
        dynamics_module._check_sampling(513, 1)
    assert caught.value.context == {"samples": 513}
    # where sysconf cannot tell, only sys.maxsize bounds the count
    sizes["SC_PHYS_PAGES"] = -1
    assert dynamics_module._physical_memory() == sys.maxsize
    monkeypatch.delattr(os, "sysconf")
    assert dynamics_module._physical_memory() == sys.maxsize


def _cpus(count):
    """Let this process use ``count`` CPUs, so that ``sample_ensemble`` runs
    its chunks in up to that many processes."""
    return mock.patch.object(
        os, "sched_getaffinity", lambda pid: set(range(count)), create=True
    )


@settings(derandomize=True, max_examples=60, deadline=None)
@given(
    consistent_instances(max_nodes=6, max_k=3, ncf_rules=True),
    st.sampled_from(["ncf", "unrestricted"]),
    st.integers(1, 40),
    st.integers(0, 2**40),
    st.sampled_from([None, 1, 3, 7]),
)
def test_batched_ensemble_matches_per_sample_phase_spaces(
    instance, mode, samples, seed, chunk
):
    wiring, courses = instance
    result = infer_all(wiring, courses)
    n = len(wiring.nodes)
    # by default every sample shares one chunk of 2^16 states; a smaller
    # budget cuts the samples into chunks of `chunk`, the last one partial
    budget = dynamics_module.ENSEMBLE_STATES if chunk is None else chunk << n
    outputs, real = [], _engine._ensemble_chunk

    def recorded(*args):
        outputs.append(real(*args))
        return outputs[-1]

    # one CPU: every chunk runs in this process, where its calls are seen
    with mock.patch.object(dynamics_module, "ENSEMBLE_STATES", budget), \
            mock.patch.object(_engine, "_ensemble_chunk", recorded), _cpus(1):
        stats = sample_ensemble(result, samples, seed, mode)
    assert len(outputs) == -(-samples // max(1, budget >> n))
    counts, sizes, largest = (
        [x for out in outputs for x in out[i]] for i in range(3)
    )

    reference = result.trajectories()[0]
    for j in range(samples):
        rng = random.Random((seed << 32) + j)
        tables = [
            TruthTable.from_int(
                rec.data.arity, oracles.candidate_draw(rec, rng, mode), allow_big=True
            )
            for rec in result.nodes
        ]
        space = phase_space(BooleanNetwork(wiring, tables))
        assert counts[j] == stats.component_counts[j] == space.component_count
        size = trajectory_component_size(space, reference)
        assert sizes[j] == stats.trajectory_sizes[j] == size
        assert largest[j] == max(space.component_sizes)
    not_largest = [s for s, big in zip(sizes, largest) if s < big]
    assert stats.count_trajectory_not_in_largest == len(not_largest)


@pytest.mark.parametrize("mode", ["ncf", "unrestricted"])
def test_node_samplers_match_the_object_draw(yeast_result, mode):
    # the same table from the same random bits, leaving the same rng state
    for rec in yeast_result.nodes:
        count, draw, table = dynamics_module._node_sampler(rec, mode)
        assert count == (len(rec.ncfs) or 1 if mode == "ncf" else rec.space_size)
        for s in range(30):
            ours, theirs = random.Random(s), random.Random(s)
            row = draw(ours)
            assert 0 <= row < count
            assert table(row) == oracles.candidate_draw(rec, theirs, mode)
            assert ours.getstate() == theirs.getstate()


@settings(derandomize=True, max_examples=40, deadline=None)
@given(
    consistent_instances(max_nodes=6, max_k=3, ncf_rules=True),
    st.integers(1, 40),
    st.integers(0, 2**40),
)
def test_ensemble_stats_do_not_depend_on_the_column_cache(instance, samples, seed):
    result = infer_all(*instance)
    for mode in ("ncf", "unrestricted"):
        stats = []
        for budget in (0, dynamics_module.ENSEMBLE_CACHE_BYTES, 1 << 62):
            with mock.patch.object(dynamics_module, "ENSEMBLE_CACHE_BYTES", budget):
                stats.append(sample_ensemble(result, samples, seed, mode))
        assert stats[0] == stats[1] == stats[2]


def test_yeast_ensemble_does_not_depend_on_the_column_cache(yeast_result):
    stats = []
    for budget in (0, 1 << 62):
        with mock.patch.object(dynamics_module, "ENSEMBLE_CACHE_BYTES", budget):
            stats.append(sample_ensemble(yeast_result, 400, 3, "ncf"))
    assert stats[0] == stats[1]
    assert stats[0] == sample_ensemble(yeast_result, 400, 3, "ncf")


def test_ensemble_plan_keeps_to_its_budget():
    # columns are cached smallest candidate set first, ties in node order,
    # while they fit and number no more than the samples; single
    # candidates go to the base array
    rng = random.Random(31)
    for _ in range(200):
        n = rng.randint(1, 8)
        regulators = [rng.sample(range(n), rng.randint(0, n)) for _ in range(n)]
        counts = [rng.choice([1, 2, 3, 5, 16, 1 << 40]) for _ in range(n)]
        budget = rng.choice([0, 1, 4 << n, rng.randrange(64 << n), 128 << n])
        samples = rng.choice([1, 3, 16, 1 << 62])
        tables = [
            (c, lambda row, k=len(regs): row % (1 << (1 << k)))
            for c, regs in zip(counts, regulators)
        ]
        base, cached, shifted = _engine._ensemble_plan(
            n, regulators, tables, budget, samples
        )
        assert sum(matrix.nbytes for _, matrix in cached) <= budget
        order = sorted((c, i) for i, c in enumerate(counts) if c > 1)
        kept = [i for _, i in order[:len(cached)]]
        assert [i for i, _ in cached] == kept
        assert [i for i, *_ in shifted] == [i for _, i in order[len(cached):]]
        if len(cached) < len(order):
            spent = sum(matrix.nbytes for _, matrix in cached)
            count = order[len(cached)][0]
            assert count > samples or spent + count * (4 << n) > budget


def _inject_networks(monkeypatch, wiring, networks):
    """Make sample j of the next ``sample_ensemble`` call with seed 0
    ``networks[j]``: node i draws from the networks' i-th tables, row j
    from sample j's generator, which no draw advances, so that a chunk
    draws the same in a forked child as in this process."""
    sample_of = {random.Random(j).getstate(): j for j in range(len(networks))}

    def node_sampler(rec, mode):
        ints = [tables[wiring.index(rec.name)].to_int() for tables in networks]
        return len(ints), lambda rng: sample_of[rng.getstate()], ints.__getitem__

    monkeypatch.setattr(dynamics_module, "_node_sampler", node_sampler)


def _ring_networks(n, rng):
    """Networks on the ring wiring i <- (i, i + 1): permutations (every
    state in the image of f), constants (one state of in-degree 2^n), then
    ordinary random ones."""
    self_, not_self, nxt = (
        TruthTable(2, v) for v in ([0, 1, 0, 1], [1, 0, 1, 0], [0, 0, 1, 1])
    )
    zero, one = TruthTable(2, [0] * 4), TruthTable(2, [1] * 4)
    yield from ([self_] * n, [not_self] * n, [nxt] * n, [zero] * n, [one] * n)
    for _ in range(4):
        yield [TruthTable(2, [rng.randrange(2) for _ in range(4)]) for _ in range(n)]


@pytest.mark.parametrize("n", [2, 5])
@pytest.mark.parametrize("chunk", [None, 1, 2, 3])
def test_ensemble_chunks_of_permutations_and_constants_match_the_oracle(
    n, chunk, monkeypatch
):
    # by default one chunk mixes every kind; a budget of 1 gives chunks of
    # one permutation or one constant network, 3 a chunk of permutations
    # and one of constants beside an ordinary network
    wiring = WiringDiagram(
        [f"n{i}" for i in range(n)], [[i, (i + 1) % n] for i in range(n)]
    )
    state = [1] + [0] * (n - 1)
    result = infer_all(wiring, TimeCourse(wiring.nodes, [state, state]))
    networks = list(_ring_networks(n, random.Random(n)))
    budget = dynamics_module.ENSEMBLE_STATES if chunk is None else chunk << n
    monkeypatch.setattr(dynamics_module, "ENSEMBLE_STATES", budget)
    # one CPU: every chunk runs in this process, where its calls are seen
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
    real = _engine._ensemble_chunk
    # every column cached, then every node on the shift select
    for cache in (dynamics_module.ENSEMBLE_CACHE_BYTES, 0):
        _inject_networks(monkeypatch, wiring, networks)
        outputs = []

        def recorded(*args):
            outputs.append(real(*args))
            return outputs[-1]

        monkeypatch.setattr(dynamics_module, "ENSEMBLE_CACHE_BYTES", cache)
        monkeypatch.setattr(_engine, "_ensemble_chunk", recorded)
        stats = sample_ensemble(result, len(networks), 0, "ncf")
        assert len(outputs) == -(-len(networks) // max(1, budget >> n))
        counts, sizes, largest = (
            [x for out in outputs for x in out[i]] for i in range(3)
        )
        for j, tables in enumerate(networks):
            succ = _oracle_successors(
                [t.to_int() for t in tables], wiring.regulators
            )
            component_of, _, oracle_sizes = oracles.functional_graph(succ)
            assert counts[j] == stats.component_counts[j] == len(oracle_sizes)
            size = oracle_sizes[component_of[1]]  # the course's state
            assert sizes[j] == stats.trajectory_sizes[j] == size
            assert largest[j] == max(oracle_sizes)


def _chunk_in_three_workspaces(n, plan, rows, courses, space):
    """``_ensemble_chunk``'s result in ``space``, checked against a fresh
    workspace of the same size and against fresh arrays."""
    out = _engine._ensemble_chunk(n, plan, rows, courses, space)
    fresh = _engine._Workspace(space.states)
    assert out == _engine._ensemble_chunk(n, plan, rows, courses, fresh)
    assert out == _engine._ensemble_chunk(n, plan, rows, courses)
    return out


def _phase_space_stats(wiring, tables, reference):
    space = phase_space(BooleanNetwork(wiring, tables))
    size = trajectory_component_size(space, reference)
    return space.component_count, size, max(space.component_sizes)


@pytest.mark.parametrize("mode", ["ncf", "unrestricted"])
@pytest.mark.parametrize("budget", ["default", "none"])
def test_one_workspace_over_a_chunk_sequence_matches_fresh_ones(
    yeast_result, mode, budget
):
    # 19 samples in chunks of 8, 8 and 3, drawn as sample_ensemble draws
    # them, analyzed one after another in one workspace.  With the default
    # cache both modes have cached and shifted nodes; with none every node
    # with several candidates is on the shift select
    result, n, samples, chunk = yeast_result, 11, 19, 8
    cache = dynamics_module.ENSEMBLE_CACHE_BYTES if budget == "default" else 0
    samplers = [dynamics_module._node_sampler(rec, mode) for rec in result.nodes]
    plan = _engine._ensemble_plan(
        n,
        result.wiring.regulators,
        [(count, table) for count, _, table in samplers],
        cache,
        samples,
    )
    _, cached, shifted = plan
    assert shifted and bool(cached) == (budget == "default")
    courses = [list(course) for course in result.trajectories()]
    space = _engine._Workspace(chunk << n)
    outputs = []
    for start in range(0, samples, chunk):
        rows = []
        for j in range(start, min(start + chunk, samples)):
            rng = random.Random((7 << 32) + j)
            rows.append([draw(rng) for _, draw, _ in samplers])
        out = _chunk_in_three_workspaces(n, plan, rows, courses, space)
        outputs.append(out)
        tables = [
            [TruthTable.from_int(len(regs), t(r), allow_big=True)
             for regs, (_, _, t), r in zip(result.wiring.regulators, samplers, row)]
            for row in rows
        ]
        assert list(zip(*out)) == [
            _phase_space_stats(result.wiring, net, courses[0]) for net in tables
        ]
    assert [len(out[0]) for out in outputs] == [8, 8, 3]
    # sample_ensemble runs the same chunks, in one workspace per process:
    # one process, or two, the second taking the last full and the short chunk
    merged = [sum((out[f] for out in outputs), []) for f in range(3)]
    with mock.patch.object(dynamics_module, "ENSEMBLE_STATES", chunk << n), \
            mock.patch.object(dynamics_module, "ENSEMBLE_CACHE_BYTES", cache):
        for workers in (1, 2):
            forks, counting = _counting_forks()
            with _cpus(workers), counting:
                stats = sample_ensemble(result, samples, 7, mode)
            assert len(forks) == workers - 1
            assert [list(stats.component_counts), list(stats.trajectory_sizes)] \
                == merged[:2]


@pytest.mark.parametrize("cache", [1 << 62, 0])
def test_one_workspace_over_small_and_large_images(cache):
    # chunks of two ring networks: constants (an image of one state each),
    # permutations (every state in the image), constants again, then a
    # short chunk of one; every column cached, or every node shifted
    n = 5
    wiring = WiringDiagram(
        [f"n{i}" for i in range(n)], [[i, (i + 1) % n] for i in range(n)]
    )
    self_, not_self, nxt, zero, one, *rest = _ring_networks(n, random.Random(n))
    order = [zero, one, self_, not_self, zero, nxt, one, *rest[:3], zero]
    networks = [order[k:k + 2] for k in range(0, len(order), 2)]
    candidates = [sorted({t.to_int() for net in order for t in [net[i]]})
                  for i in range(n)]
    plan = _engine._ensemble_plan(
        n, wiring.regulators, [(len(c), c.__getitem__) for c in candidates],
        cache, len(order),
    )
    assert bool(plan[1]) == bool(cache) and bool(plan[2]) != bool(cache)
    state = [1] + [0] * (n - 1)
    courses = [[point_to_index(state)]]
    space = _engine._Workspace(2 << n)
    images = []
    for chunk in networks:
        rows = [[c.index(t.to_int()) for c, t in zip(candidates, net)]
                for net in chunk]
        succ = _engine._ensemble_successors(n, plan, rows)
        images.append(len(np.unique(succ)))
        out = _chunk_in_three_workspaces(n, plan, rows, courses, space)
        assert list(zip(*out)) == [
            _phase_space_stats(wiring, net, courses[0]) for net in chunk
        ]
    assert images[:3] == [2, 2 << n, 1 + (1 << n)]
    assert [len(chunk) for chunk in networks] == [2, 2, 2, 2, 2, 1]


def test_sample_ensemble_keeps_no_workspace(yeast_result):
    # the workspace lives for one part: once sample_ensemble returns, none
    # of its 2^16-state buffers (the smallest is 256 KB) is still held
    with _cpus(1):
        sample_ensemble(yeast_result, 100, 4, "unrestricted")  # imports
        tracemalloc.start()
        try:
            sample_ensemble(yeast_result, 100, 4, "unrestricted")
            held, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
    assert peak >= 20 << 16  # the workspace was there
    assert held < 64 << 10


def test_ensemble_chunks_analyze_only_the_image(yeast_result):
    # each chunk's graph handed to _components must be the image of its
    # successor map, never the whole chunk
    distinct, analyzed = [], []
    real_map, real_components = _engine._ensemble_successors, _engine._components

    def successor_map(*args):
        succ = real_map(*args)
        distinct.append(len(np.unique(succ)))
        return succ

    def components(succ, n):
        analyzed.append(len(succ))
        return real_components(succ, n)

    # one CPU: every chunk runs in this process, where its calls are seen
    with mock.patch.object(_engine, "_ensemble_successors", successor_map), \
            mock.patch.object(_engine, "_components", components), _cpus(1):
        for mode in ("ncf", "unrestricted"):
            sample_ensemble(yeast_result, 100, 4, mode)
    assert len(analyzed) == 2 * 4  # 100 samples of 11 nodes: 4 chunks a mode
    assert analyzed == distinct
    assert max(analyzed) < 32 << 11


def test_sample_ensemble_catches_a_course_split_across_components(monkeypatch):
    # both nodes fit negation; from sample 3 on every node is drawn as the
    # identity, whose fixed points split the course 00 -> 11
    wiring = WiringDiagram(["A", "B"], [[0], [1]])
    result = infer_all(wiring, TimeCourse(["A", "B"], [[0, 0], [1, 1]]))
    _inject_networks(
        monkeypatch, wiring, [[NEGATION1] * 2] * 3 + [[IDENTITY1] * 2] * 5
    )
    with pytest.raises(InvariantViolation) as caught:
        sample_ensemble(result, 8, 0, "ncf")
    # samples 0-2 have two components each, sample 3 four fixed points;
    # the ids are sample 3's own, counted from its first component
    assert caught.value.context == {"components": [0, 3]}


def _counting_forks():
    """A list of the ``os.fork`` calls made in this process, and the patch
    that records them."""
    forks, real = [], os.fork

    def fork():
        forks.append(os.getpid())
        return real()

    return forks, mock.patch.object(os, "fork", fork)


def _no_fork():
    def fork():
        raise AssertionError("sample_ensemble forked")

    return mock.patch.object(os, "fork", fork)


@settings(derandomize=True, max_examples=40, deadline=None)
@given(
    consistent_instances(max_nodes=6, max_k=3, ncf_rules=True),
    st.integers(1, 40),
    st.integers(0, 2**40),
    st.sampled_from([1, 3, 7]),
)
def test_ensemble_stats_do_not_depend_on_the_worker_count(
    instance, samples, seed, chunk
):
    # chunks of `chunk` samples, split among 1, 2 and 3 processes
    result = infer_all(*instance)
    n = len(instance[0].nodes)
    chunks = -(-samples // chunk)
    with mock.patch.object(dynamics_module, "ENSEMBLE_STATES", chunk << n):
        for mode in ("ncf", "unrestricted"):
            stats = []
            for workers in (1, 2, 3):
                forks, counting = _counting_forks()
                with _cpus(workers), counting:
                    stats.append(sample_ensemble(result, samples, seed, mode))
                assert len(forks) == min(workers, chunks) - 1
            assert stats[0] == stats[1] == stats[2]


def _split_courses(monkeypatch, split):
    """An ensemble of 8 two-node samples, one a chunk, and the networks it
    draws: both nodes negate, except at the samples ``split`` maps to
    "both" (two fixed points split the course 00 -> 11, at components 0
    and 3) or "one" (two 2-cycles split it, at components 0 and 1)."""
    wiring = WiringDiagram(["A", "B"], [[0], [1]])
    result = infer_all(wiring, TimeCourse(["A", "B"], [[0, 0], [1, 1]]))
    kinds = {"both": [IDENTITY1] * 2, "one": [IDENTITY1, NEGATION1]}
    networks = [kinds[split[j]] if j in split else [NEGATION1] * 2 for j in range(8)]
    _inject_networks(monkeypatch, wiring, networks)
    monkeypatch.setattr(dynamics_module, "ENSEMBLE_STATES", 1 << 2)
    return result


@pytest.mark.parametrize("workers", [2, 3])
def test_a_course_split_in_a_child_raises_as_in_one_process(monkeypatch, workers):
    # sample 5 lies in the last process's part: chunks 4-7 of two parts,
    # 5-7 of three
    result = _split_courses(monkeypatch, {5: "both"})
    with _cpus(1), pytest.raises(InvariantViolation) as alone:
        sample_ensemble(result, 8, 0, "ncf")
    forks, counting = _counting_forks()
    with _cpus(workers), counting, pytest.raises(InvariantViolation) as forked:
        sample_ensemble(result, 8, 0, "ncf")
    assert len(forks) == workers - 1
    assert forked.value.context == alone.value.context == {"components": [0, 3]}


@pytest.mark.parametrize(
    "workers, first, later",
    [(2, 1, 6), (3, 1, 6), (3, 3, 6)],
    ids=["parent-child", "parent-child2", "child1-child2"],
)
def test_the_first_split_course_wins_across_processes(
    monkeypatch, workers, first, later
):
    # with three processes the parts are chunks 0-1, 2-4 and 5-7
    result = _split_courses(monkeypatch, {first: "one", later: "both"})
    with _cpus(workers), pytest.raises(InvariantViolation) as caught:
        sample_ensemble(result, 8, 0, "ncf")
    assert caught.value.context == {"components": [0, 1]}


def test_an_error_here_kills_the_children(monkeypatch):
    # sample 1, in this process's part, splits the course while the child
    # would take 10 s over its part: the error comes at once, and the child
    # is killed and reaped
    result = _split_courses(monkeypatch, {1: "both"})
    parent, real = os.getpid(), _engine._ensemble_chunk
    slept = []

    def chunk(*args):
        if os.getpid() != parent and not slept:  # before the child's first chunk
            slept.append(True)
            time.sleep(10)
        return real(*args)

    start = time.monotonic()
    with _cpus(2), mock.patch.object(_engine, "_ensemble_chunk", chunk), \
            pytest.raises(InvariantViolation):
        sample_ensemble(result, 8, 0, "ncf")
    assert time.monotonic() - start < 5


@pytest.mark.parametrize("fault", ["die", "exit", "short"])
def test_a_failed_child_leaves_the_stats_unchanged(yeast_result, fault):
    # the child dies with status 3 in its first chunk, exits with status 3
    # after writing every field of its samples one too large, or returns
    # each chunk one sample short, which raises at the write and exits 1;
    # this process then runs the child's part itself
    parent, real_chunk, real_exit = os.getpid(), _engine._ensemble_chunk, os._exit
    here = []

    def chunk(*args):
        out = real_chunk(*args)
        if os.getpid() == parent:
            here.append(len(args[2]))
        elif fault == "die":
            real_exit(3)
        elif fault == "exit":
            out = [[x + 1 for x in field] for field in out]
        elif fault == "short":
            out = [field[:-1] for field in out]
        return out

    def exit_(code):
        real_exit(3 if fault == "exit" else code)

    with _cpus(1):
        expected = sample_ensemble(yeast_result, 100, 5, "ncf")
    forks, counting = _counting_forks()
    with _cpus(2), counting, mock.patch.object(_engine, "_ensemble_chunk", chunk), \
            mock.patch.object(os, "_exit", exit_):
        assert sample_ensemble(yeast_result, 100, 5, "ncf") == expected
    assert len(forks) == 1
    assert sum(here) == 100  # the child's samples too


def test_a_fork_that_fails_runs_its_part_here(yeast_result):
    def fork():
        raise BlockingIOError(errno.EAGAIN, "Resource temporarily unavailable")

    with _cpus(1):
        expected = sample_ensemble(yeast_result, 100, 6, "unrestricted")
    with _cpus(3), mock.patch.object(os, "fork", fork):
        assert sample_ensemble(yeast_result, 100, 6, "unrestricted") == expected


def test_no_fork_when_a_sample_outgrows_a_chunk():
    # past 16 nodes every chunk is one network of 2^17 states or more
    n = 17
    wiring = WiringDiagram([f"n{i}" for i in range(n)], [[i] for i in range(n)])
    state = [i % 2 for i in range(n)]
    result = infer_all(wiring, TimeCourse(wiring.nodes, [state, state]))
    with _cpus(2):
        assert dynamics_module._worker_count(16, 2) == 2
        assert dynamics_module._worker_count(n, 2) == 1
        with _no_fork():
            stats = sample_ensemble(result, 2, 0, "ncf")
    assert stats.component_counts == (1 << n, 1 << n)


def test_no_fork_while_another_thread_runs(yeast_result):
    with _cpus(1):
        expected = sample_ensemble(yeast_result, 100, 2, "ncf")
    release = threading.Event()
    thread = threading.Thread(target=release.wait, args=(60,))
    thread.start()
    try:
        with _cpus(2), _no_fork():
            stats = sample_ensemble(yeast_result, 100, 2, "ncf")
    finally:
        release.set()
        thread.join(timeout=60)
    assert not thread.is_alive()
    assert stats == expected


def test_no_fork_without_os_fork(yeast_result, monkeypatch):
    with _cpus(1):
        expected = sample_ensemble(yeast_result, 100, 2, "ncf")
    monkeypatch.delattr(os, "fork")
    with _cpus(2):
        assert sample_ensemble(yeast_result, 100, 2, "ncf") == expected


def test_records_are_tuples_of_their_fields(yeast_result):
    stats = sample_ensemble(yeast_result, 5, 3, "ncf")
    assert len(stats) == len(EnsembleStats._fields) == 11
    mode, seed, count, *_ = stats
    assert (mode, seed, count) == ("ncf", 3, 5)
    assert stats == tuple(stats) and hash(stats) == hash(tuple(stats))
    # the phase space alone keeps an instance dict, for its cached tuples
    space = phase_space(_self_loop_net(2, IDENTITY1))
    assert len(space) == 5 and space.n == 2
    assert space.attractors is space.attractors
    assert set(vars(space)) == {"attractors"}
    assert not hasattr(stats, "__dict__")


def test_phase_space_type_hints_resolve():
    hints = typing.get_type_hints(PhaseSpace)
    assert list(hints) == [
        "n", "successor", "component_of", "cycle_states", "cycle_ends"
    ]
    assert hints["n"] is int


def test_mode_contrast_directional(yeast_result):
    ncf = sample_ensemble(yeast_result, 150, 11, "ncf")
    unr = sample_ensemble(yeast_result, 150, 11, "unrestricted")
    assert (
        ncf.mean_trajectory_component_size > unr.mean_trajectory_component_size
    )


def test_states_as_ints_round_trip(yeast):
    wiring, course = yeast
    ints = states_as_ints(wiring, course)
    assert len(ints) == 13
    assert ints[0] == sum(
        bit << i for i, bit in enumerate(course.rows[0])
    )
