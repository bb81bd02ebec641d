"""Spans and counters recorded around calls into each ncfinfer module.

The tracer wraps public entry points from outside the package: every
module global, class attribute and package re-export that refers to a
probed object is replaced by a timing wrapper, so calls are caught no
matter which module imported the name.  Nothing under ``src/`` changes.

Two kinds of probe share one stack of open calls:

* spans (coarse calls such as ``infer.near_misses``) keep a record each:
  name, layer, start, end, parent span id, job id, self time and counts;
* leaves (hot calls such as ``boolfun.TruthTable``) only add to a
  per-name call count and inclusive time, so a job building a quarter of
  a million tables keeps a few bytes per name instead of a record per call.

A call's self time is its duration minus that of the probed calls it
made; summing self time by layer splits the job's wall time between the
modules without double counting.  An exception is charged to a layer
once, where it leaves that layer.
"""

import functools
import math
import sys
import time

# Number of nested canalyzing functions on exactly k inputs.
NCF_CENSUS = {1: 2, 2: 8, 3: 64, 4: 736, 5: 10624}

LAYERS = ("cli", "ncf", "boolfun", "modelspace", "infer", "dynamics")


def cascade_forms(k):
    """Cascade forms on k inputs: k! orders times 2^k inputs times 2^k outputs."""
    return math.factorial(k) * 4**k


def _count_enumerate(args, kwargs, result):
    return {"k": args[0], "tables": len(result)}


def _count_records(args, kwargs, result):
    return {"records": len(result)}


def _count_local_data(args, kwargs, result):
    courses = args[1]
    if not isinstance(courses, (list, tuple)):
        courses = (courses,)
    return {
        "node": args[2],
        "pairs": sum(len(c.rows) - 1 for c in courses),
        "distinct_inputs": result.distinct_inputs,
    }


def _count_infer_ncfs(args, kwargs, result):
    return {"fitting": len(result), "candidates": NCF_CENSUS[result.arity]}


def _count_near_misses(args, kwargs, result):
    k = len(args[0].regulators[args[2]])
    embeds = sum(math.comb(k, s) * NCF_CENSUS[s] for s in range(1, k))
    return {"hits": sum(1 for _, ess in result if ess), "embeds": embeds}


def _count_cross_check(args, kwargs, result):
    return {"forms": cascade_forms(len(args[0].regulators[args[2]]))}


def _count_sample_ensemble(args, kwargs, result):
    return {"samples": result.sample_count}


def _count_phase_space(args, kwargs, result):
    n = result.n
    states = 1 << n
    # computed, not observed: n per-node local-index arrays taken at the
    # successor map's dtype, plus the successor and component arrays
    item = result.successor.dtype.itemsize
    kernel = (n + 1) * states * item + states * result.component_of.dtype.itemsize
    return {
        "states": states,
        "components": result.component_count,
        "cycle_states": sum(len(c) for c in result.attractors),
        "kernel_bytes": kernel,
    }


# (module, attribute path, layer, kind, counter); kind is "span" or "leaf"
PROBES = (
    ("cli", "run", "cli", "span", None),
    ("cli", "parse_wiring", "cli", "span", None),
    ("cli", "parse_timecourse", "cli", "span", None),
    ("cli", "parse_rules", "cli", "span", None),
    ("ncf", "enumerate_ncfs", "ncf", "span", _count_enumerate),
    ("ncf", "NcfSet.anf_lines", "ncf", "span", _count_records),
    ("ncf", "NcfSet.json_records", "ncf", "span", _count_records),
    ("boolfun", "TruthTable.__init__", "boolfun", "leaf", None),
    ("boolfun", "CoeffVector.__init__", "boolfun", "leaf", None),
    ("boolfun", "TruthTable.from_int", "boolfun", "leaf", None),
    ("boolfun", "CoeffVector.from_int", "boolfun", "leaf", None),
    ("boolfun", "tt_to_anf", "boolfun", "leaf", None),
    ("boolfun", "anf_string", "boolfun", "leaf", None),
    ("modelspace", "ModelSpace.sample", "modelspace", "leaf", None),
    ("infer", "infer_all", "infer", "span", None),
    ("infer", "local_data", "infer", "span", _count_local_data),
    ("infer", "infer_ncfs", "infer", "span", _count_infer_ncfs),
    ("infer", "near_misses", "infer", "span", _count_near_misses),
    ("infer", "cross_check", "infer", "span", _count_cross_check),
    ("dynamics", "sample_ensemble", "dynamics", "span", _count_sample_ensemble),
    ("dynamics", "phase_space", "dynamics", "span", _count_phase_space),
)


class Tracer:
    """In-memory spans and leaf totals for one job process."""

    def __init__(self, job):
        self.job = job
        self.spans = []
        self.leaves = {}
        self.layer_self_s = dict.fromkeys(LAYERS, 0.0)
        self.errors = dict.fromkeys(LAYERS, 0)
        self._stack = []  # open calls: [start, child seconds, layer, span id]

    def wrap(self, name, layer, kind, counter, fn):
        """``fn`` timed as a span or a leaf; ``counter`` maps its call to counts."""
        stack = self._stack
        clock = time.perf_counter
        if kind == "leaf":
            totals = self.leaves.setdefault(name, [0, 0.0])

        @functools.wraps(fn)
        def probe(*args, **kwargs):
            parent = stack[-1] if stack else None
            span_id = None
            if kind == "span":
                span_id = len(self.spans)
                self.spans.append(None)  # reserve the id; filled on exit
            frame = [clock(), 0.0, layer, span_id]
            stack.append(frame)
            ok = False
            try:
                result = fn(*args, **kwargs)
                ok = True
                return result
            except BaseException:
                if parent is None or parent[2] != layer:
                    self.errors[layer] += 1
                raise
            finally:
                end = clock()
                stack.pop()
                duration = end - frame[0]
                self.layer_self_s[layer] += duration - frame[1]
                if parent is not None:
                    parent[1] += duration
                if kind == "leaf":
                    totals[0] += 1
                    totals[1] += duration
                else:
                    self.spans[span_id] = {
                        "name": name,
                        "layer": layer,
                        "start": frame[0],
                        "end": end,
                        "parent": _enclosing_span(stack),
                        "job": self.job,
                        "self_s": duration - frame[1],
                        "counts": counter(args, kwargs, result)
                        if ok and counter
                        else {},
                    }

        return probe

    def install(self, package):
        """Replace every reference to each probed object inside ``package``."""
        modules = [
            m
            for key, m in list(sys.modules.items())
            if m is not None
            and (key == package or key.startswith(package + "."))
        ]
        for module_name, path, layer, kind, counter in PROBES:
            owner = sys.modules[f"{package}.{module_name}"]
            *outer, attr = path.split(".")
            for part in outer:
                owner = getattr(owner, part)
            name = f"{layer}.{path.replace('.__init__', '')}"
            if isinstance(owner, type):
                # a method or classmethod: every caller looks it up on the class
                raw = vars(owner)[attr]
                if isinstance(raw, classmethod):
                    wrapped = classmethod(self.wrap(name, layer, kind, counter, raw.__func__))
                else:
                    wrapped = self.wrap(name, layer, kind, counter, raw)
                setattr(owner, attr, wrapped)
                continue
            raw = getattr(owner, attr)
            wrapped = self.wrap(name, layer, kind, counter, raw)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is raw:
                        setattr(module, key, wrapped)

    def record(self):
        return {
            "spans": self.spans,
            "leaves": {k: {"calls": c, "s": s} for k, (c, s) in self.leaves.items()},
            "layer_self_s": self.layer_self_s,
            "errors": self.errors,
        }


def _enclosing_span(stack):
    for frame in reversed(stack):
        if frame[3] is not None:
            return frame[3]
    return None
