"""Benchmark of the trifree command line: runs one workload, checks every
answer, and prints its metrics.

    python3 bench/run.py --workload independent-k4 --seed 1 --seconds 30 --trace 0

Run it from the root of a checkout; it uses the checkout's ``src`` and
writes only under ``.bench_tmp/`` there, which it removes again.
bench/README.md explains the workloads and the metrics.

Each pass of a workload's session runs in a fresh interpreter
(bench/session.py), so no cache outlives a pass, as for a user who starts
a new process for every command.  Passes run one at a time until the next
one would end after ``--seconds``.  With ``--trace 0`` the last line of
output holds the end-to-end metrics.  With ``--trace 1`` passes alternate
between untraced and traced, the predicates are timed on their own
(bench/micro.py), and the last line holds the per-layer metrics.  The
line before the last is a report: Python version, nproc, commit, seed,
sample counts, latencies in seconds with their tails, and any failures.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field
from typing import Optional

from tracer import SPANS, layer_times
from workloads import WORKLOADS, Step, check, max_denominator_bits, session

HERE = os.path.dirname(os.path.abspath(__file__))
TMP_DIR = ".bench_tmp"
SETUP_SAMPLES = 7
MIN_UNTRACED = 2
MIN_TRACED = 2      # traced passes, so exact counts can be compared
LAST_START_S = 140  # no pass starts later than this into the run ...
HARD_LIMIT_S = 170  # ... and every child is stopped by this, inside the 180 s allowed
TAIL_PERCENTILES = (99, 95, 90, 75, 50)
COMMANDS = ("build", "verify", "chi", "game")

# Latencies are divided by the time of a fixed exact-rational sum
# (session.reference_s) taken just before and after each command in the
# same process, so they read in units of that sum ("ref").  The shared
# 2-vCPU machine this was tuned on runs at two speeds about 1.7x apart,
# switching within seconds and staying at one for minutes.  Over ten
# 30-second runs, the quartile spread of a latency in seconds reached
# 0.15-0.37 of its median; in reference units it stayed at 0.01-0.09.
# setup_s must be in seconds, so it is the set-up time in reference units
# times NOMINAL_REFERENCE_S: seconds at a nominal speed at which one
# reference sum takes 6.0 ms, about the slower speed of that machine.  In
# raw seconds the median of ten runs moved by 38% between two sets of runs.
NOMINAL_REFERENCE_S = 0.006
END_TO_END = {
    "setup_s": "s",
    "build_ref": "ref",
    "verify_ref": "ref",
    "chi_ref": "ref",
    "session_ref": "ref",
    "peak_rss_mb": "MB",
}

PREDICATES = ("shapes.copies_intersect", "shapes.copy_meets_rect")
SPAN_NAMES = tuple(f"{m}.{f}" for m, fns in SPANS.items() for f in fns if m != "cli")
EXACT_COUNTS = (
    *(f"{p}.{c}" for p in PREDICATES for c in ("calls", "hits")),
    "graphs.intersection_graph.pairs",
    "uniform.max_denominator_bits",
    "serialize.json_bytes",
    "game.presenter_sessions",
    "game.presenter_moves",
    "encoding.tree_nodes",
)
PER_LAYER = {
    **{f"{p}.{m}": u for p in PREDICATES
       for m, u in (("calls", "count"), ("hit_ratio", "ratio"), ("us_per_op", "us"),
                    ("hit_us_per_op", "us"), ("miss_us_per_op", "us"))},
    "geometry.seg_intersect.us_per_op": "us",
    "geometry.seg_intersect.hit_us_per_op": "us",
    "geometry.seg_intersect.miss_us_per_op": "us",
    **{f"{name}.s": "s" for name in SPAN_NAMES},
    "verify.verify_family.self_s": "s",
    "cli.main.self_s": "s",
    "graphs.intersection_graph.pairs": "count",
    "uniform.max_denominator_bits": "bits",
    "serialize.json_bytes": "bytes",
    "game.presenter_sessions": "count",
    "game.presenter_moves": "count",
    "encoding.tree_nodes": "count",
    "trace.overhead_ratio": "ratio",
}


def _clock() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


@dataclass
class Pass:
    traced: bool
    wall_s: float
    ready_s: Optional[float] = None
    reference_s: float = 0.0  # median of the pass's reference times
    setup_reference_s: float = 0.0  # the reference time right after set-up
    seconds: dict[str, list[float]] = field(default_factory=dict)
    refs: dict[str, list[float]] = field(default_factory=dict)
    command_ref: float = 0.0
    sets_verified: int = 0
    peak_rss_kb: int = 0
    attempted: int = 0
    failures: list[str] = field(default_factory=list)
    layers: dict[str, float] = field(default_factory=dict)


class Run:
    def __init__(self, root: str, tmp: str) -> None:
        self.root = root
        self.tmp = tmp
        self.start = _clock()
        self.errors: list[str] = []

    def elapsed(self) -> float:
        return _clock() - self.start

    def child(self, script: str, *args: str, stamp: bool = False) -> Optional[dict]:
        """Run a bench script in a fresh interpreter on the checkout's ``src``.

        Returns its JSON result plus ``wall_s``, or None on failure, which
        is recorded in ``errors``.  With ``stamp`` the script gets the start
        time on CLOCK_MONOTONIC as its first argument.
        """
        env = dict(os.environ, PYTHONPATH=os.path.join(self.root, "src"))
        env.pop("TRIFREE_TIMEOUT", None)
        timeout = max(HARD_LIMIT_S - self.elapsed(), 1.0)
        started = _clock()
        argv = [sys.executable, "-s", os.path.join(HERE, script),
                *([repr(started)] if stamp else []), *args]
        proc = subprocess.Popen(argv, cwd=self.root, env=env, text=True,
                                stdout=subprocess.PIPE, stderr=subprocess.PIPE)
        try:
            out, err = proc.communicate(timeout=timeout)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.communicate()
            self.errors.append(f"{script} stopped after {timeout:.0f} s")
            return None
        wall = _clock() - started
        lines = out.strip().splitlines()
        if proc.returncode != 0 or not lines:
            self.errors.append(f"{script} exited {proc.returncode}: {err.strip()[-500:]}")
            return None
        return {**json.loads(lines[-1]), "wall_s": wall}

    def setup_sample(self) -> Optional[tuple[float, float]]:
        """(set-up seconds, reference seconds right after) of a fresh interpreter."""
        result = self.child("session.py", stamp=True)
        return None if result is None else (result["ready_s"], result["reference_s"][0])

    def run_pass(self, index: int, steps: list[Step], traced: bool) -> Pass:
        workdir = os.path.join(self.tmp, f"pass-{index}")
        os.mkdir(workdir)
        spec = os.path.join(workdir, "spec.json")
        with open(spec, "w", encoding="utf-8") as fh:
            json.dump({"commands": [list(s.argv) for s in steps], "trace": traced}, fh)
        result = self.child("session.py", spec, stamp=True)
        if result is None:
            p = Pass(traced, 0.0, attempted=len(steps))
            p.failures = [f"pass {index}: {self.errors[-1]}"] * len(steps)
        else:
            p = Pass(traced, result["wall_s"], attempted=len(steps))
            self._check(p, steps, result, workdir)
        shutil.rmtree(workdir)
        return p

    def _check(self, p: Pass, steps: list[Step], result: dict, workdir: str) -> None:
        refs = result["reference_s"]
        p.ready_s = result["ready_s"]
        p.reference_s = statistics.median(refs)
        p.setup_reference_s = refs[0]
        p.peak_rss_kb = result["peak_rss_kb"]
        counts: dict[str, float] = {}
        for i, (step, cmd) in enumerate(zip(steps, result["commands"])):
            in_refs = cmd["seconds"] / ((refs[i] + refs[i + 1]) / 2)
            p.command_ref += in_refs
            problem = check(step, cmd["rc"], cmd["stdout"], workdir)
            if problem is not None:
                stderr = cmd["stderr"].strip()[-300:]
                p.failures.append(f"{' '.join(step.argv)}: {problem}; {stderr}")
                continue
            p.seconds.setdefault(step.metric, []).append(cmd["seconds"])
            p.refs.setdefault(step.metric, []).append(in_refs)
            if step.kind == "verify":
                p.sets_verified += step.copies
            if step.kind == "family" and step.mode == "uniform":
                bits = max_denominator_bits(os.path.join(workdir, step.file))
                counts["uniform.max_denominator_bits"] = max(
                    bits, counts.get("uniform.max_denominator_bits", 0))
        if "trace" in result:
            p.layers = _layers(result["trace"], counts)


def _layers(trace: dict, counts: dict[str, float]) -> dict[str, float]:
    """Per-layer values of one traced pass: seconds per span name, self
    seconds, and exact counts."""
    total, self_s = layer_times(trace["spans"])
    got = trace["counts"]
    values = {f"{name}.s": total.get(name, 0.0) for name in SPAN_NAMES}
    values["verify.verify_family.self_s"] = self_s.get("verify.verify_family", 0.0)
    values["cli.main.self_s"] = self_s.get("cli.main", 0.0)
    for name in EXACT_COUNTS:
        values[name] = got.get(name, 0)
    values["graphs.intersection_graph.pairs"] = got.get(
        "shapes.copies_intersect.calls_in.graphs.intersection_graph", 0)
    values.update(counts)
    return values


def _median(values: list[float]) -> float:
    """Median; 0.0 only when every sample failed, which the result marks incorrect."""
    return statistics.median(values) if values else 0.0


def tail(samples: list[float]) -> Optional[dict]:
    """The highest of TAIL_PERCENTILES with at least ten samples beyond it."""
    n = len(samples)
    for pct in TAIL_PERCENTILES:
        rank = math.ceil(pct * n / 100)
        if rank >= 1 and n - rank >= 10:
            return {"pct": pct, "value": sorted(samples)[rank - 1], "n": n}
    return None


def end_to_end(passes: list[Pass], setup: list[tuple[float, float]]) -> tuple[dict, dict]:
    """The end-to-end metrics, and the report's latencies in seconds.

    A latency metric is the median over passes of the pass's mean: every
    pass runs the same mix of commands (augmented and bare builds, three
    shapes), whose sample median would jump between the mix's clusters.
    """
    untraced = [p for p in passes if not p.traced]
    ok = [p for p in untraced if not p.failures]
    seconds = {m: [x for p in untraced for x in p.seconds.get(m, [])] for m in COMMANDS}
    refs = {m: [x for p in untraced for x in p.refs.get(m, [])] for m in COMMANDS}
    metrics = {
        "setup_s": _median([s / ref for s, ref in setup]) * NOMINAL_REFERENCE_S,
        **{f"{m}_ref": _median([statistics.fmean(p.refs[m]) for p in untraced if m in p.refs])
           for m in ("build", "verify", "chi")},
        "session_ref": _median([p.ready_s / p.setup_reference_s + p.command_ref for p in ok]),
        "peak_rss_mb": _median([p.peak_rss_kb / 1024 for p in ok]),
    }
    report = {
        **{f"{m}_s": {"median": _median(s), "tail": tail(s), "n": len(s)}
           for m, s in seconds.items() if s},
        **({"game_ref": _median(refs["game"])} if refs["game"] else {}),
        "setup_wall_s": _median([s for s, _ in setup]),
        "session_s": _median([p.wall_s for p in ok]),
        "sets_per_s": _median([p.sets_verified / p.wall_s for p in ok]),
        "reference_s": _median([p.reference_s for p in ok]),
    }
    return metrics, report


def per_layer(run: Run, passes: list[Pass], micro: Optional[dict]) -> tuple[dict, dict]:
    traced = [p for p in passes if p.traced and not p.failures]
    untraced = [p for p in passes if not p.traced and not p.failures]
    counts = {}
    for name in EXACT_COUNTS:
        seen = sorted({p.layers[name] for p in traced})
        if len(seen) > 1:
            run.errors.append(f"count {name} differs between traced passes: {seen}")
        counts[name] = seen[0] if seen else 0
    metrics: dict[str, float] = {}
    for name, unit in PER_LAYER.items():
        if unit == "s":
            metrics[name] = _median([p.layers[name] for p in traced])
        elif name in counts:
            metrics[name] = counts[name]
    for pred in PREDICATES:
        calls = counts[f"{pred}.calls"]
        metrics[f"{pred}.hit_ratio"] = counts[f"{pred}.hits"] / calls if calls else 0.0
    for name, value in (micro or {}).items():
        if name in PER_LAYER:
            metrics[name] = value
    untraced_ref = _median([p.command_ref for p in untraced])
    metrics["trace.overhead_ratio"] = (
        _median([p.command_ref for p in traced]) / untraced_ref if untraced_ref else 0.0)
    missing = sorted(set(PER_LAYER) - set(metrics))
    if missing:
        run.errors.append(f"per-layer metrics missing: {missing}")
    for name in missing:
        metrics[name] = 0.0
    return metrics, counts


def commit(root: str) -> str:
    """The checked-out commit, read from .git without running git."""
    git = os.path.join(root, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if os.path.isfile(os.path.join(git, ref)):
            with open(os.path.join(git, ref), encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def measure(run: Run, args: argparse.Namespace) -> int:
    steps = session(args.workload, args.seed)
    run.setup_sample()  # warm-up: compiles bytecode, as an installed package has it
    setup = [s for s in (run.setup_sample() for _ in range(SETUP_SAMPLES)) if s is not None]
    micro = run.child("micro.py") if args.trace else None

    passes: list[Pass] = []
    window_end = _clock() + args.seconds
    while True:
        traced = bool(args.trace) and len(passes) % 2 == 1
        passes.append(run.run_pass(len(passes), steps, traced))
        n_traced = sum(p.traced for p in passes)
        enough = (len(passes) - n_traced >= MIN_UNTRACED
                  and (not args.trace or n_traced >= MIN_TRACED))
        typical = statistics.median(p.wall_s for p in passes)
        if enough and _clock() + typical > window_end:
            break
        if run.elapsed() > LAST_START_S:
            if not enough:
                run.errors.append("time ran out before the minimum number of passes")
            break
    setup += [(p.ready_s, p.setup_reference_s) for p in passes if p.ready_s is not None]

    attempted = sum(p.attempted for p in passes)
    failures = [f for p in passes for f in p.failures]
    e2e, latency = end_to_end(passes, setup)
    report = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "commit": commit(run.root),
        "passes": {"untraced": sum(not p.traced for p in passes),
                   "traced": sum(p.traced for p in passes)},
        "setup_samples": len(setup),
        "latency": latency,
        "failed_frac": len(failures) / attempted,
        "failures": failures[:10],
    }
    if args.trace:
        metrics, report["counts"] = per_layer(run, passes, micro)
        report["micro"] = micro
        units = PER_LAYER
    else:
        report["end_to_end"] = e2e
        metrics, units = e2e, END_TO_END
    report["errors"] = run.errors
    report["run_s"] = run.elapsed()
    print(json.dumps({"report": report}))
    print(json.dumps({
        "correct": not failures and not run.errors,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0


def main(argv: Optional[list[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "trifree", "cli.py")):
        print("bench/run.py: no src/trifree here; run it from the root of a trifree checkout",
              file=sys.stderr)
        return 2
    os.makedirs(os.path.join(root, TMP_DIR), exist_ok=True)
    tmp = tempfile.mkdtemp(dir=os.path.join(root, TMP_DIR))
    try:
        return measure(Run(root, tmp), args)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            os.rmdir(os.path.join(root, TMP_DIR))
        except OSError:
            pass  # another run still uses it


if __name__ == "__main__":
    sys.exit(main())
