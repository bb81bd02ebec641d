import os

import pytest

from ncfinfer.datasets import load_yeast
from ncfinfer.infer import infer_all

# Table-2 row order; used across the inference and acceptance tests.
YEAST_NODES = [
    "Cln3", "MBF", "SBF", "Cln1,2", "Cdh1", "Swi5",
    "Cdc20&Cdc14", "Clb5,6", "Sic1", "Clb1,2", "Mcm1/SFF",
]


@pytest.fixture(scope="session")
def yeast():
    return load_yeast()


@pytest.fixture(scope="session")
def yeast_result(yeast):
    wiring, course = yeast
    return infer_all(wiring, course)


@pytest.fixture(autouse=True)
def no_child_process_left():
    # sample_ensemble forks workers: every test must leave each child it
    # made reaped, so this process has none, running or exited
    yield
    if not hasattr(os, "WNOHANG"):
        return
    try:
        pid, _ = os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:
        return
    pytest.fail(f"the test left a child process behind (pid {pid or 'still running'})")
