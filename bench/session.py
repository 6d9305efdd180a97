"""One benchmark pass in a fresh interpreter.

    python3 bench/session.py T0 [SPEC]

bench/run.py starts this from the root of a checkout with only the
checkout's ``src`` on PYTHONPATH.  T0 is the parent's CLOCK_MONOTONIC
reading just before it started the process, so ``ready_s`` below is the
set-up time a CLI user pays: interpreter start, ``trifree.cli`` imported,
``catalog()`` built and the parser ready.  Without SPEC the process stops
there.  SPEC is a JSON file ``{"commands": [argv, ...], "trace": bool}``;
the commands run through ``trifree.cli.main`` in SPEC's directory, with
their output captured and timed.  A fixed reference computation is timed
once after set-up and again after every command.  The last line of
standard output is the pass's result as JSON.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import resource
import sys
import time
import traceback
from fractions import Fraction

REFERENCE_TERMS = 1200


def _now() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def reference_s() -> float:
    """Seconds for a fixed exact-rational sum that does not touch trifree.

    It measures how fast the machine runs exact-rational Python at the moment.
    bench/run.py divides each command's latency by the reference times
    taken just before and just after it.
    """
    start = time.perf_counter()
    total = Fraction(0)
    for i in range(1, REFERENCE_TERMS):
        total += Fraction(1, i)
    return time.perf_counter() - start


def main(argv: list[str]) -> int:
    t0 = float(argv[0])
    from trifree import cli
    from trifree.shapes import catalog

    catalog()
    cli._parser()
    ready_s = _now() - t0

    src = os.path.realpath(os.environ.get("PYTHONPATH", ""))
    if os.path.dirname(os.path.dirname(os.path.realpath(cli.__file__))) != src:
        print(f"trifree was imported from {cli.__file__}, not from {src}", file=sys.stderr)
        return 2
    refs = [reference_s()]
    result: dict = {"ready_s": ready_s, "reference_s": refs}
    if len(argv) > 1:
        with open(argv[1], encoding="utf-8") as fh:
            spec = json.load(fh)
        os.chdir(os.path.dirname(os.path.abspath(argv[1])))
        tracer = None
        if spec["trace"]:
            from tracer import Tracer

            tracer = Tracer()
            tracer.install()
        result["commands"] = []
        for command in spec["commands"]:
            result["commands"].append(_run(cli, command))
            refs.append(reference_s())
        if tracer is not None:
            result["trace"] = tracer.dump()
    result["peak_rss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    print(json.dumps(result))
    return 0


def _run(cli, command: list[str]) -> dict:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        start = time.perf_counter()
        try:
            rc = cli.main(command)
        except SystemExit as exc:  # argparse rejects flags this way
            rc = exc.code
        except Exception:  # a crash is a failed command; the pass goes on
            rc = None
            traceback.print_exc()
        seconds = time.perf_counter() - start
    return {"rc": rc, "seconds": seconds, "stdout": out.getvalue(),
            "stderr": err.getvalue()[-2000:]}


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
