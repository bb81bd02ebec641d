"""Hypothesis strategies shared by the tests.

Time courses are walked by a random network on the drawn wiring, so the
data is consistent by construction: every node's transitions are fitted
at least by the table that produced them.
"""

from hypothesis import strategies as st

from ncfinfer.infer import TimeCourse, WiringDiagram
from ncfinfer.ncf import enumerate_ncfs


def _walk(regulators, tables, state, steps):
    rows = [state]
    for _ in range(steps):
        state = [
            (bits >> sum(state[r] << j for j, r in enumerate(regs))) & 1
            for regs, bits in zip(regulators, tables)
        ]
        rows.append(state)
    return rows


@st.composite
def consistent_instances(draw, max_nodes=4, max_k=4, ncf_rules=False):
    """A wiring and a list of time courses walked by one network on it.

    Every node has 1 .. max_k regulators.  With ``ncf_rules`` the walking
    network's tables are nested canalyzing, so every node has at least one
    fitting NCF.
    """
    n = draw(st.integers(2, max_nodes))
    regulators = [
        draw(st.lists(st.integers(0, n - 1), min_size=1,
                      max_size=min(max_k, n), unique=True))
        for _ in range(n)
    ]
    if ncf_rules:
        tables = [
            draw(st.sampled_from(enumerate_ncfs(len(regs)).members)).to_int()
            for regs in regulators
        ]
    else:
        tables = [draw(st.integers(0, 2 ** 2 ** len(regs) - 1)) for regs in regulators]
    names = [f"n{i}" for i in range(n)]
    courses = [
        TimeCourse(names, _walk(
            regulators, tables,
            draw(st.lists(st.integers(0, 1), min_size=n, max_size=n)),
            draw(st.integers(1, 5)),
        ))
        for _ in range(draw(st.integers(1, 2)))
    ]
    return WiringDiagram(names, regulators), courses
