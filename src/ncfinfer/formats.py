"""Input file formats: wiring diagrams, time courses and ANF rules, as the
README describes them.  Each ``parse_*`` raises :class:`ParseError`, with
a line or field where known; each ``serialize_*`` writes the format back.
"""

import csv
import io
import json

from .boolfun import anf_to_tt, parse_anf
from .errors import ParseError, ToolError
from .infer import TimeCourse, WiringDiagram


def parse_wiring(text):
    """Wiring file: {"nodes": [names...], "regulators": {name: [names...]}}."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as e:
        raise ParseError(f"wiring file is not valid JSON: {e}", line=e.lineno)
    if not isinstance(doc, dict) or "nodes" not in doc or "regulators" not in doc:
        raise ParseError('wiring file needs "nodes" and "regulators" entries')
    nodes = doc["nodes"]
    if not isinstance(nodes, list) or not all(isinstance(n, str) for n in nodes):
        raise ParseError('"nodes" must be a list of names', field="nodes")
    if not nodes:
        raise ParseError("wiring has no nodes", field="nodes")
    if len(set(nodes)) != len(nodes):
        dup = sorted(n for n in set(nodes) if nodes.count(n) > 1)
        raise ParseError(f"duplicate node names {dup}", field="nodes")
    regs_doc = doc["regulators"]
    if not isinstance(regs_doc, dict):
        raise ParseError('"regulators" must map node names to name lists',
                         field="regulators")
    index = {n: i for i, n in enumerate(nodes)}
    unknown = sorted(set(regs_doc) - set(nodes))
    if unknown:
        raise ParseError(f"regulators given for unknown nodes {unknown}",
                         field="regulators")
    missing = sorted(set(nodes) - set(regs_doc))
    if missing:
        raise ParseError(f"no regulator list for nodes {missing}",
                         field="regulators")
    regulators = []
    for n in nodes:
        lst = regs_doc[n]
        if not isinstance(lst, list):
            raise ParseError(f"regulator list of {n!r} must be a list", field=n)
        for r in lst:
            if not isinstance(r, str):
                raise ParseError(f"regulator {r!r} of {n!r} must be a name",
                                 field=n)
            if r not in index:
                raise ParseError(f"node {n!r} names absent regulator {r!r}",
                                 field=n)
        regulators.append([index[r] for r in lst])
    try:
        return WiringDiagram(nodes, regulators)
    except (ValueError, ToolError) as e:
        raise ParseError(f"invalid wiring: {e}") from e


def serialize_wiring(wiring):
    return json.dumps(
        {
            "nodes": list(wiring.nodes),
            "regulators": {
                n: list(wiring.regulator_names(i))
                for i, n in enumerate(wiring.nodes)
            },
        },
        indent=2,
    ) + "\n"


def parse_timecourse(text):
    """Time-course file: CSV, header of node names, one 0/1 row per step."""
    reader = csv.reader(io.StringIO(text))
    try:
        rows = [r for r in reader if r]  # tolerate trailing blank lines
    except csv.Error as e:
        # csv's text for a lone carriage return gives advice on Python file
        # modes, which means nothing for text already decoded
        reason = str(e)
        if reason.startswith("new-line character"):
            reason = "a carriage return is not followed by a newline"
        raise ParseError(
            f"time course line {reader.line_num} is not valid CSV: {reason}",
            line=reader.line_num,
        ) from e
    if len(rows) < 2:
        raise ParseError("time course needs a header and at least one row")
    header = [h.strip() for h in rows[0]]
    states = []
    for lineno, row in enumerate(rows[1:], start=2):
        if len(row) != len(header):
            raise ParseError(
                f"row has {len(row)} cells, header has {len(header)}",
                line=lineno,
            )
        state = []
        for col, cell in zip(header, row):
            cell = cell.strip()
            if cell not in ("0", "1"):
                raise ParseError(
                    f"cell {cell!r} in column {col!r} is not 0/1",
                    line=lineno, field=col,
                )
            state.append(int(cell))
        states.append(state)
    try:
        return TimeCourse(header, states)
    except ValueError as e:
        raise ParseError(f"invalid time course: {e}") from e


def serialize_timecourse(course):
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(course.nodes)
    writer.writerows(course.rows)
    return buf.getvalue()


def parse_rules(text, wiring):
    """Rules file: {"rules": {node: ANF string}}, x_j = node's j-th regulator."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as e:
        raise ParseError(f"rules file is not valid JSON: {e}", line=e.lineno)
    rules = doc.get("rules") if isinstance(doc, dict) else None
    if not isinstance(rules, dict):
        raise ParseError('rules file needs a "rules" mapping')
    missing = sorted(set(wiring.nodes) - set(rules))
    if missing:
        raise ParseError(f"no rule for nodes {missing}")
    unknown = sorted(set(rules) - set(wiring.nodes))
    if unknown:
        raise ParseError(f"rules for unknown nodes {unknown}")
    tables = []
    for i, name in enumerate(wiring.nodes):
        arity = len(wiring.regulators[i])
        if not isinstance(rules[name], str):
            raise ParseError(f"rule for {name!r} must be an ANF string",
                             field=name)
        try:
            tables.append(anf_to_tt(parse_anf(rules[name], arity)))
        except ValueError as e:
            raise ParseError(f"rule for {name!r}: {e}", field=name) from e
    return tables
