"""Micro-timings of the exact predicates, in microseconds per call.

    python3 bench/micro.py

bench/run.py starts this from the root of a checkout with only the
checkout's ``src`` on PYTHONPATH.  It builds the augmented independent k=4
frame family once, untimed, and records the argument lists the program
itself produces: the ``copy_meets_rect`` calls made by ``build`` and
``augment``, every pair of copies for ``copies_intersect``, and the
``seg_intersect`` calls those pairs make.  Then it replays each list in a
loop.  Hits (true or non-None results) and misses are timed apart,
because bounding-box rejection makes misses several times cheaper.  The
last line of standard output is the result as JSON.
"""

from __future__ import annotations

import json
import statistics
import sys
from time import perf_counter

from tracer import replace_everywhere

MIN_LOOP_S = 0.1
MIN_LOOPS = 5


def _recording(fn, calls: list):
    def wrapper(*args):
        result = fn(*args)
        calls.append((args, result is not None and result is not False))
        return result

    return wrapper


def _record(module, name: str, run) -> list:
    """Run ``run()`` with ``module.name`` recorded everywhere trifree calls it."""
    orig = getattr(module, name)
    calls: list = []
    rec = _recording(orig, calls)
    replace_everywhere(orig, rec)
    try:
        run()
    finally:
        replace_everywhere(rec, orig)
    return calls


def _us_per_op(fn, arg_lists: list[tuple]) -> float:
    """Median over loops of the mean time of one call, in microseconds."""
    if not arg_lists:
        return 0.0
    per_op = []
    spent = 0.0
    while len(per_op) < MIN_LOOPS or spent < MIN_LOOP_S:
        start = perf_counter()
        for args in arg_lists:
            fn(*args)
        elapsed = perf_counter() - start
        spent += elapsed
        per_op.append(elapsed / len(arg_lists))
    return statistics.median(per_op) * 1e6


def main() -> int:
    from trifree import geometry, independent, shapes

    frame = shapes.catalog()["frame"]
    family: list = []
    meets = _record(shapes, "copy_meets_rect",
                    lambda: family.extend(independent.augment(independent.build(4, frame),
                                                              frame)))
    pairs = [(a, b) for i, a in enumerate(family) for b in family[i + 1:]]
    hits: list = []
    segs = _record(geometry, "seg_intersect",
                   lambda: hits.extend(shapes.copies_intersect(a, b) for a, b in pairs))
    intersecting = list(zip(pairs, hits))

    metrics = {}
    for name, fn, calls in (
            ("shapes.copies_intersect", shapes.copies_intersect, intersecting),
            ("shapes.copy_meets_rect", shapes.copy_meets_rect, meets),
            ("geometry.seg_intersect", geometry.seg_intersect, segs)):
        metrics[f"{name}.us_per_op"] = _us_per_op(fn, [a for a, _ in calls])
        metrics[f"{name}.hit_us_per_op"] = _us_per_op(fn, [a for a, hit in calls if hit])
        metrics[f"{name}.miss_us_per_op"] = _us_per_op(fn, [a for a, hit in calls if not hit])
        metrics[f"{name}.replayed"] = len(calls)
    print(json.dumps(metrics))
    return 0


if __name__ == "__main__":
    sys.exit(main())
