"""Seeded benchmark inputs, built without importing ncfinfer.

Writes the synthetic networks the workloads use into a directory:

* ``syn16``: a 16-node wiring (four 5-input nodes, the rest 1-4 inputs),
  three 9-row time courses simulated from hidden random nested canalyzing
  rules, and the hidden rules themselves (kept for the checker only).
* ``rand21``: a 21-node random nested canalyzing network with in-degrees
  2-3, as wiring plus ANF rules.  Few attractors; almost every one of its
  2^21 states is transient.
* ``frozen20``: a 20-node network in which 17 nodes hold their own value
  and 3 read only those 17, so it has exactly 2^17 fixed points, each
  heading a component of 8 states.

The same seed always gives byte-identical files.  The Boolean logic here
is a separate implementation, so the checker's ground truth does not come
from the code under test.
"""

import json
import random
from pathlib import Path

SYN16_IN_DEGREES = (5, 5, 5, 5, 4, 4, 4, 3, 3, 3, 2, 2, 2, 1, 1, 1)
SYN16_COURSES = 3
SYN16_ROWS = 9
RAND21_NODES = 21
FROZEN20_HELD = 17
FROZEN20_FREE = 3


def cascade_table(order, inputs, outputs):
    """Packed truth table of a cascade: bit m is the value at point m.

    ``order`` lists 0-based variables; the first one equal to its
    canalyzing input decides the value, else the last output flips.
    """
    k = len(order)
    bits = 0
    for m in range(1 << k):
        value = 1 - outputs[-1]
        for var, a, b in zip(order, inputs, outputs):
            if (m >> var) & 1 == a:
                value = b
                break
        bits |= value << m
    return bits


def random_cascade(rng, k):
    order = list(range(k))
    rng.shuffle(order)
    inputs = [rng.randrange(2) for _ in range(k)]
    outputs = [rng.randrange(2) for _ in range(k)]
    return cascade_table(order, inputs, outputs)


def anf_masks(bits, k):
    """Monomial masks of the algebraic normal form (Moebius transform)."""
    coeffs = [(bits >> m) & 1 for m in range(1 << k)]
    for i in range(k):
        for m in range(1 << k):
            if m >> i & 1:
                coeffs[m] ^= coeffs[m ^ (1 << i)]
    return [m for m in range(1 << k) if coeffs[m]]


def anf_text(bits, k):
    terms = [
        "*".join(f"x{i + 1}" for i in range(k) if m >> i & 1) or "1"
        for m in anf_masks(bits, k)
    ]
    return " + ".join(terms) or "0"


def table_of_anf(text, k):
    """Packed truth table of an ANF string written as ``1 + x1*x3 + ...``."""
    coeffs = 0
    if text.strip() != "0":
        for term in text.split("+"):
            term = term.strip()
            mask = 0
            if term != "1":
                for factor in term.split("*"):
                    mask |= 1 << (int(factor.strip()[1:]) - 1)
            coeffs ^= 1 << mask
    bits = 0
    for m in range(1 << k):
        value = 0
        sub = m
        while True:  # XOR of the coefficients over every submask of m
            value ^= (coeffs >> sub) & 1
            if sub == 0:
                break
            sub = (sub - 1) & m
        bits |= value << m
    return bits


class Network:
    """Named nodes, regulator index lists and packed local truth tables."""

    def __init__(self, names, regulators, tables):
        self.names = names
        self.regulators = regulators
        self.tables = tables

    def step(self, state):
        nxt = 0
        for i, (regs, bits) in enumerate(zip(self.regulators, self.tables)):
            m = 0
            for j, r in enumerate(regs):
                m |= ((state >> r) & 1) << j
            nxt |= ((bits >> m) & 1) << i
        return nxt

    def wiring_doc(self):
        return {
            "nodes": self.names,
            "regulators": {
                n: [self.names[r] for r in regs]
                for n, regs in zip(self.names, self.regulators)
            },
        }

    def rules_doc(self):
        return {
            "rules": {
                n: anf_text(bits, len(regs))
                for n, regs, bits in zip(self.names, self.regulators, self.tables)
            }
        }


def _random_ncf_network(rng, names, in_degrees, allowed=None):
    n = len(names)
    regulators, tables = [], []
    for i, k in enumerate(in_degrees):
        pool = list(range(n)) if allowed is None else list(allowed[i])
        regulators.append(rng.sample(pool, k))
        tables.append(random_cascade(rng, k))
    return Network(names, regulators, tables)


def syn16(rng):
    names = [f"g{i:02d}" for i in range(len(SYN16_IN_DEGREES))]
    net = _random_ncf_network(rng, names, SYN16_IN_DEGREES)
    courses = []
    for _ in range(SYN16_COURSES):
        state = rng.getrandbits(len(names))
        rows = [state]
        for _ in range(SYN16_ROWS - 1):
            state = net.step(state)
            rows.append(state)
        courses.append(rows)
    return net, courses


def rand21(rng):
    names = [f"r{i:02d}" for i in range(RAND21_NODES)]
    degrees = [rng.choice((2, 3)) for _ in names]
    return _random_ncf_network(rng, names, degrees)


def frozen20(rng):
    n = FROZEN20_HELD + FROZEN20_FREE
    names = [f"h{i:02d}" for i in range(n)]
    held = range(FROZEN20_HELD)
    net = _random_ncf_network(
        rng,
        names,
        [1] * FROZEN20_HELD + [rng.choice((2, 3)) for _ in range(FROZEN20_FREE)],
        allowed=[[i] for i in held] + [held] * FROZEN20_FREE,
    )
    # a held node's rule is the identity on itself
    net.tables[:FROZEN20_HELD] = [0b10] * FROZEN20_HELD
    return net


def _course_csv(names, rows):
    lines = [",".join(names)]
    lines += [
        ",".join(str((s >> i) & 1) for i in range(len(names))) for s in rows
    ]
    return "\n".join(lines) + "\n"


def _dump(path, doc):
    path.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")


def generate(seed, out_dir):
    """Write every synthetic input for ``seed`` under ``out_dir``.

    Returns a dict of file paths keyed by role.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    rng = random.Random(f"perfbench-{seed}")
    paths = {}

    net, courses = syn16(rng)
    paths["syn16_wiring"] = out / "syn16_wiring.json"
    _dump(paths["syn16_wiring"], net.wiring_doc())
    paths["syn16_courses"] = []
    for c, rows in enumerate(courses):
        p = out / f"syn16_course{c + 1}.csv"
        p.write_text(_course_csv(net.names, rows))
        paths["syn16_courses"].append(p)
    paths["syn16_hidden"] = out / "syn16_hidden_rules.json"
    _dump(paths["syn16_hidden"], net.rules_doc())

    for name, build in (("rand21", rand21), ("frozen20", frozen20)):
        net = build(rng)
        paths[f"{name}_wiring"] = out / f"{name}_wiring.json"
        _dump(paths[f"{name}_wiring"], net.wiring_doc())
        paths[f"{name}_rules"] = out / f"{name}_rules.json"
        _dump(paths[f"{name}_rules"], net.rules_doc())
    return paths


def load_network(wiring_path, rules_path):
    """Read a generated wiring and rules pair back into a :class:`Network`."""
    wiring = json.loads(Path(wiring_path).read_text())
    rules = json.loads(Path(rules_path).read_text())["rules"]
    names = wiring["nodes"]
    index = {n: i for i, n in enumerate(names)}
    regulators = [[index[r] for r in wiring["regulators"][n]] for n in names]
    tables = [
        table_of_anf(rules[n], len(regs)) for n, regs in zip(names, regulators)
    ]
    return Network(names, regulators, tables)
