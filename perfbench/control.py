"""Fixed reference job: the host's speed, measured the way a job is.

Usage: python3 perfbench/control.py

It does what the benchmark's jobs do, in a fresh process, without
``ncfinfer``: it starts the interpreter, imports numpy, steps a fixed
14-node nested canalyzing network through all 2^14 states in pure Python
(``gen.py``) and follows the successor map by pointer doubling in numpy.
Its input never changes, so a change to its spawn-to-exit time is a change
of the host's speed, which ``run.py`` divides out of ``wall_s`` and
``setup_s``.
"""

import random
import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent))

import gen  # noqa: E402

NODES = 14
DOUBLINGS = 40


def main():
    rng = random.Random("perfbench-control")
    names = [f"c{i:02d}" for i in range(NODES)]
    net = gen._random_ncf_network(rng, names, [rng.choice((2, 3)) for _ in names])
    succ = np.array([net.step(s) for s in range(1 << NODES)], dtype=np.int64)
    for _ in range(DOUBLINGS):
        succ = succ[succ]
    return 0


if __name__ == "__main__":
    sys.exit(main())
