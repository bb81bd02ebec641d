"""Access to the bundled budding-yeast cell-cycle dataset; data/README.md
gives its provenance."""

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
