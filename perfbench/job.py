"""Run one ncfinfer CLI job in this process and record when its phases ended.

Usage: python3 perfbench/job.py RECORD_JSON JOB_ID TRACE -- CLI_ARGS...

``ncfinfer`` must be importable (the benchmark puts ``src`` on
PYTHONPATH).  With TRACE 0 only the end of the import and the end of the
last input-file parse are marked, one clock read per parse call.  With
TRACE 1 the spans and counters of ``tracer.py`` are installed as well.
The record is written after the job, even when it fails.
"""

import sys
import time

t_start = time.monotonic()
import ncfinfer.cli as cli  # noqa: E402  (timed import)

t_import = time.monotonic()

import json  # noqa: E402

PARSERS = ("parse_wiring", "parse_timecourse", "parse_rules")


def _mark_parse_ends(marks):
    for name in PARSERS:
        parse = getattr(cli, name)

        def marked(*args, _parse=parse, **kwargs):
            try:
                return _parse(*args, **kwargs)
            finally:
                marks.append(time.monotonic())

        setattr(cli, name, marked)


def main():
    record_path, job_id, trace = sys.argv[1], sys.argv[2], sys.argv[3] == "1"
    if sys.argv[4] != "--":
        raise SystemExit("usage: job.py RECORD_JSON JOB_ID TRACE -- CLI_ARGS...")
    tracer = None
    if trace:
        from tracer import Tracer

        tracer = Tracer(job_id)
        tracer.install("ncfinfer")
    # outermost, so the mark falls after the traced parse span has closed
    parse_ends = []
    _mark_parse_ends(parse_ends)
    rc = 1
    try:
        rc = cli.run(sys.argv[5:])
    finally:
        sys.stdout.flush()
        record = {
            "rc": rc,
            "t_start": t_start,
            "t_import": t_import,
            "t_parsed": max(parse_ends, default=t_import),
            "t_end": time.monotonic(),
        }
        if tracer is not None:
            record.update(tracer.record())
        with open(record_path, "w") as f:
            json.dump(record, f)
    return rc


if __name__ == "__main__":
    sys.exit(main())
