import itertools
import random
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
from ncfinfer._engine import _analyze
from ncfinfer.boolfun import TruthTable, point_to_index
from ncfinfer.dynamics import (
    BooleanNetwork,
    PhaseSpace,
    attractors,
    phase_space,
    sample_ensemble,
    step,
    trajectory_component_size,
)
from ncfinfer.modelspace import ModelSpace
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


def test_step_identity_and_constant():
    ident = _self_loop_net(3, IDENTITY1)
    zero = _self_loop_net(3, ZERO1)
    for state in [(0, 0, 0), (1, 0, 1), (1, 1, 1)]:
        assert step(ident, state) == state
        assert step(zero, state) == (0, 0, 0)
    with pytest.raises(ValueError):
        step(ident, (0, 1))


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
        net = BooleanNetwork(yeast_result.wiring, tables)
        rows = yeast_result.courses[0].rows
        for t in range(len(rows) - 1):
            assert step(net, rows[t]) == rows[t + 1]


def test_phase_space_identity_network():
    space = phase_space(_self_loop_net(3, IDENTITY1))
    assert space.component_count == 8
    assert space.component_sizes == (1,) * 8
    assert sorted(attractors(space)) == [(s,) for s in range(8)]


def test_phase_space_constant_network():
    space = phase_space(_self_loop_net(3, ZERO1))
    assert space.component_count == 1
    assert space.component_sizes == (8,)
    assert attractors(space) == [(0,)]


def test_phase_space_negation_network():
    space = phase_space(_self_loop_net(1, NEGATION1))
    assert space.component_count == 1
    assert attractors(space) == [(0, 1)]


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
    for m in range(1 << n):
        assert succ[m] == point_to_index(step(net, [(m >> i) & 1 for i in range(n)]))
    component_of, cycles, sizes = oracles.functional_graph(succ)
    assert space.component_of.tolist() == component_of
    assert space.attractors == cycles
    assert space.component_sizes == sizes


def test_successor_map_matches_step_on_wide_tables():
    # arities 0..10: one-word tables (k <= 5), multi-word tables (k >= 6)
    # and the uint16 local index (k >= 9), several networks side by side
    rng = random.Random(909)
    for k in range(11):
        n = rng.randint(max(k, 1), 11)
        regulators = [rng.sample(range(n), k)] + [
            rng.sample(range(n), rng.randint(0, min(n, 10))) for _ in range(n - 1)
        ]
        wiring = WiringDiagram(
            [f"n{i}" for i in range(n)], regulators, allow_big=True
        )
        nets = [
            BooleanNetwork(wiring, [
                TruthTable.from_int(
                    len(regs), rng.getrandbits(1 << len(regs)), allow_big=True
                )
                for regs in regulators
            ])
            for _ in range(3)
        ]
        succ = _engine._successor_map(
            n,
            [_engine._local_index(n, regs) for regs in regulators],
            [[net.tables[i] for net in nets] for i in range(n)],
            len(nets),
        ).tolist()
        for s, net in enumerate(nets):
            for m in range(1 << n):
                state = [(m >> i) & 1 for i in range(n)]
                assert succ[(s << n) + m] == (s << n) + point_to_index(step(net, state))


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


def test_sample_ensemble_deterministic(yeast_result):
    a = sample_ensemble(yeast_result, 60, 9, "ncf")
    b = sample_ensemble(yeast_result, 60, 9, "ncf")
    assert a == b
    assert sum(a.histogram) == a.sample_count == 60
    assert len(a.trajectory_sizes) == 60
    assert a.bin_width == 64 and len(a.histogram) == 32


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
        ncfs=NcfSet(1, []),  # pretend neither is an NCF
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
    draws = []
    monkeypatch.setattr(
        dynamics_module, "_candidate_draw", lambda *args: draws.append(args)
    )
    with pytest.raises(ConfigurationError) as caught:
        sample_ensemble(partial, 3, 0, "ncf")
    missing = [name for name in wiring.nodes if name != "Sic1"]
    assert caught.value.context == {"missing": missing}
    assert draws == []


def test_sample_ensemble_argument_validation(yeast_result):
    with pytest.raises(ValueError):
        sample_ensemble(yeast_result, 0, 1, "ncf")
    with pytest.raises(ValueError):
        sample_ensemble(yeast_result, 1, -1, "ncf")
    with pytest.raises(ValueError):
        sample_ensemble(yeast_result, 1, 1, "bogus")


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

    with mock.patch.object(dynamics_module, "ENSEMBLE_STATES", budget), \
            mock.patch.object(_engine, "_ensemble_chunk", recorded):
        stats = sample_ensemble(result, samples, seed, mode)
    assert len(outputs) == -(-samples // max(1, budget >> n))
    counts, sizes, largest = (
        [x for out in outputs for x in out[i]] for i in range(3)
    )

    spaces = [ModelSpace.from_data(rec.data) for rec in result.nodes]
    reference = result.trajectories()[0]
    for j in range(samples):
        rng = random.Random((seed << 32) + j)
        tables = [
            dynamics_module._candidate_draw(rec, ms, rng, mode)
            for rec, ms in zip(result.nodes, spaces)
        ]
        space = phase_space(BooleanNetwork(wiring, tables))
        assert counts[j] == stats.component_counts[j] == space.component_count
        size = trajectory_component_size(space, reference)
        assert sizes[j] == stats.trajectory_sizes[j] == size
        assert largest[j] == max(space.component_sizes)
    not_largest = [s for s, big in zip(sizes, largest) if s < big]
    assert stats.count_trajectory_not_in_largest == len(not_largest)


def test_sample_ensemble_catches_a_course_split_across_components(monkeypatch):
    # both nodes fit negation; from sample 3 on every node is drawn as the
    # identity, whose fixed points split the course 00 -> 11
    wiring = WiringDiagram(["A", "B"], [[0], [1]])
    result = infer_all(wiring, TimeCourse(["A", "B"], [[0, 0], [1, 1]]))
    draws = itertools.count()

    def draw(rec, space, rng, mode):
        return IDENTITY1 if next(draws) >= 3 * 2 else NEGATION1

    monkeypatch.setattr(dynamics_module, "_candidate_draw", draw)
    with pytest.raises(InvariantViolation) as caught:
        sample_ensemble(result, 8, 0, "ncf")
    # samples 0-2 have two components each, sample 3 four fixed points;
    # the ids are sample 3's own, counted from its first component
    assert caught.value.context == {"components": [0, 3]}


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
