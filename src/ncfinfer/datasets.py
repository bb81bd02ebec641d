"""Access to the bundled budding-yeast cell-cycle dataset.

See data/README.md for provenance: the time course is the published
cell-cycle sequence of the Li et al. (2004) Boolean threshold model, and
the wiring is a documented reconstruction of that model's interaction
graph.
"""

from importlib.resources import files

from .formats import parse_timecourse, parse_wiring


def yeast_wiring_path():
    return files("ncfinfer").joinpath("data/yeast_wiring.json")


def yeast_timecourse_path():
    return files("ncfinfer").joinpath("data/yeast_timecourse.csv")


def load_yeast():
    """The bundled wiring diagram and time course, parsed."""
    wiring = parse_wiring(yeast_wiring_path().read_text())
    course = parse_timecourse(yeast_timecourse_path().read_text())
    return wiring, course
