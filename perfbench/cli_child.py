"""Run one ``lieschouten`` CLI call under the speed probe, optionally traced.

    python3 perfbench/cli_child.py REPORT.json [--trace] verify --only 3.3.7 --format machine

Standard output and the exit code are the CLI's own.  REPORT.json receives
the call's speed factor (reference seconds per wall second) and, with
``--trace``, the tracer's summary and spans.  The ``queries`` workload runs
every call through this file.
"""

import json
import sys
import time

import tracer
from speed import SpeedProbe


def main() -> int:
    report_path, argv = sys.argv[1], sys.argv[2:]
    traced = argv[:1] == ["--trace"]
    if traced:
        argv = argv[1:]
    with SpeedProbe() as probe:
        start = time.perf_counter()
        active = tracer.install() if traced else None
        from lieschouten import cli

        code = cli.main(argv)
        end = time.perf_counter()
    report = {"speed_factor": probe.speed_factor(start, end)}
    if traced:
        report.update(summary=active.summary(), spans=active.spans)
    with open(report_path, "w", encoding="utf-8") as fh:
        json.dump(report, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
