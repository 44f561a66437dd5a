"""One sample of a workload: run its CLI chain in this fresh interpreter.

Usage: python3 perfbench/sample.py PLAN.json

The plan (written by run.py) lists the corrseg commands to run through
`corrseg.cli.main`, whether to trace them, and where to write the
result: each command's exit code and wall time, the process's peak
resident memory and, when traced, the spans. corrseg is imported before
the first command, so command times exclude the import (set-up is
measured on its own by run.py).
"""

from __future__ import annotations

import json
import resource
import sys
import time
import traceback
from contextlib import nullcontext


def _call(main, argv: list[str]) -> int:
    try:
        return main(argv)
    except SystemExit as exc:  # argparse rejects flags by exiting
        return exc.code if isinstance(exc.code, int) else 1
    except Exception:
        traceback.print_exc()
        return 1


def main() -> int:
    with open(sys.argv[1]) as fh:
        plan = json.load(fh)
    from corrseg import cli

    tracer = None
    if plan["trace"]:
        from tracing import Tracer

        tracer = Tracer(plan["trace_id"])
        tracer.install()
    commands = []
    for argv in plan["steps"]:
        span = tracer.span(f"cli.{argv[0]}") if tracer else nullcontext()
        start = time.perf_counter()
        with span:
            rc = _call(cli.main, argv)
        commands.append({"name": argv[0], "rc": rc, "seconds": time.perf_counter() - start})
    result = {
        "commands": commands,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "spans": tracer.spans if tracer else [],
    }
    with open(plan["result"], "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
