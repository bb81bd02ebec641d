"""Hypothesis strategies and seeded input generators shared by the tests.

Time courses are walked by a random network on the drawn wiring, so the
data is consistent by construction: every node's transitions are fitted
at least by the table that produced them.  ``cli_inputs`` breaks that on
purpose, for the command line's failure contract.
"""

import json

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


def _anf(rng, arity):
    """A random ANF rule on ``arity`` variables, in the rules file syntax."""
    monomials = {
        "*".join(f"x{j + 1}" for j in range(arity) if rng.random() < 0.5) or "1"
        for _ in range(rng.randint(0, 3))
    }
    return " + ".join(sorted(monomials)) or "0"


def _bad_anf(rng, arity):
    return rng.choice([
        f"x{arity + 1}", "x0", "x1 +", "x1 ** x2", "y1", "", "1 + + 1",
        rng.randint(0, 9), None, ["x1"],
    ])


def _random_network(rng):
    """The bytes of a wiring, time courses and rules for 0-6 nodes, each
    kind of file broken now and then.  Regulators repeat and loop onto their
    own node; courses are walked by random tables, then may lose a column
    or gain one."""
    n = rng.randint(1, 6) if rng.random() < 0.95 else 0
    names = [f"n{i}" for i in range(n)]
    regulators = []
    for _ in range(n):
        k = rng.choice([0, 1, 2, 2, 3, 3, 4, 5, 6])
        if rng.random() < 0.1:
            regulators.append([rng.randrange(n) for _ in range(k)])
        else:
            regulators.append(rng.sample(range(n), min(k, n)))
    doc = {
        "nodes": list(names),
        "regulators": {
            name: [names[r] for r in regs] for name, regs in zip(names, regulators)
        },
    }
    if n and rng.random() < 0.1:
        doc["regulators"][rng.choice(names)].append("ghost")
    if n and rng.random() < 0.05:
        del doc["regulators"][rng.choice(names)]
    if n and rng.random() < 0.05:
        doc["nodes"].append(names[0])
    tables = [rng.getrandbits(1 << len(regs)) for regs in regulators]
    courses = []
    for _ in range(rng.randint(1, 2)):
        steps = rng.randint(1, 5) if rng.random() < 0.95 else 0
        rows = _walk(regulators, tables, [rng.randint(0, 1) for _ in range(n)], steps)
        header = list(names)
        if header and rng.random() < 0.1:
            drop = rng.randrange(len(header))
            header.pop(drop)
            rows = [row[:drop] + row[drop + 1:] for row in rows]
        if rng.random() < 0.1:
            header.append("extra")
            rows = [row + [rng.randint(0, 1)] for row in rows]
        if rows[0] and rng.random() < 0.05:
            rows[-1][rng.randrange(len(rows[0]))] = 2
        courses.append("\n".join(
            ",".join(map(str, row)) for row in [header, *rows]
        ) + "\n")
    rules = {
        name: _bad_anf(rng, len(regs)) if rng.random() < 0.1 else _anf(rng, len(regs))
        for name, regs in zip(names, regulators)
    }
    if n and rng.random() < 0.05:
        del rules[rng.choice(names)]
    return (
        json.dumps(doc).encode(),
        [course.encode() for course in courses],
        json.dumps({"rules": rules}).encode(),
    )


def _mutated(rng, data):
    """``data`` with one to three bytes replaced, dropped or inserted."""
    data = bytearray(data)
    for _ in range(rng.randint(1, 3)):
        at = rng.randrange(len(data) + 1)
        byte = rng.choice(b'01,:"[]{}\n\r x+*')
        if rng.random() < 0.2:
            byte = rng.randrange(256)
        kind = rng.randrange(3)
        if kind == 0 and at < len(data):
            data[at] = byte
        elif kind == 1 and at < len(data):
            del data[at]
        else:
            data.insert(at, byte)
    return bytes(data)


def cli_inputs(rng, wiring, course):
    """Seeded bytes of one wiring file, one or two time-course files and a
    rules file for the command line: two draws in three from
    ``_random_network``, the rest the yeast files ``wiring`` and ``course``
    (bytes) with a rule x1 for every node, one or more of them mutated."""
    if rng.random() < 2 / 3:
        return _random_network(rng)
    nodes = json.loads(wiring)["nodes"]
    rules = json.dumps({"rules": dict.fromkeys(nodes, "x1")}).encode()
    texts = [wiring, course, rules]
    for i in rng.sample(range(3), rng.choice([1, 1, 1, 2, 3])):
        texts[i] = _mutated(rng, texts[i])
    return texts[0], [texts[1]], texts[2]
