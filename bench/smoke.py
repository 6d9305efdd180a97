"""Smoke check of the benchmark.

    python3 bench/smoke.py

Run it from the root of a checkout; it takes about two minutes.  For every
workload in BENCHMARK.json it makes one short run with ``--trace 0`` and
one with ``--trace 1`` and asserts that every metric BENCHMARK.json names
appears with its unit, that every end-to-end value is above zero, and that
no command failed.  It also asserts that the benchmark refuses to run,
without printing a result, where there is no ``src/trifree``.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import tempfile


def _run(spec: dict, cwd: str, workload: str, trace: int) -> subprocess.CompletedProcess:
    """Run the benchmark's command as BENCHMARK.json gives it, in ``cwd``."""
    return subprocess.run(
        [*spec["command"], "--workload", workload, "--seed", "1", "--seconds", "1",
         "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=200)


def check_run(spec: dict, workload: str, trace: int) -> list[str]:
    where = f"{workload} --trace {trace}"
    proc = _run(spec, os.getcwd(), workload, trace)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or len(lines) < 2:
        return [f"{where}: exit {proc.returncode}, {proc.stderr.strip()[-500:]}"]
    result = json.loads(lines[-1])
    report = json.loads(lines[-2])["report"]
    kind = "per_layer" if trace else "end_to_end"
    want = {m["name"]: m["unit"] for m in spec[kind]}
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    problems = []
    if got != want:
        wrong = sorted(n for n in set(want) | set(got) if want.get(n) != got.get(n))
        problems.append(f"{where}: metrics or units differ from BENCHMARK.json: {wrong}")
    if not trace:
        zero = sorted(n for n, m in result["metrics"].items() if not m["value"] > 0)
        if zero:
            problems.append(f"{where}: end-to-end metrics not above zero: {zero}")
    if report["failed_frac"] != 0 or result["failed"] != 0 or not result["correct"]:
        problems.append(f"{where}: failed_frac {report['failed_frac']}, "
                        f"failures {report['failures']}, errors {report['errors']}")
    print(f"{where}: {'ok' if not problems else 'FAILED'} "
          f"({result['attempted']} commands, {report['run_s']:.1f} s)", flush=True)
    return problems


def check_refuses_without_source(spec: dict) -> list[str]:
    """In a directory with only BENCHMARK.json and the benchmark, exit non-zero silently."""
    os.makedirs(".bench_tmp", exist_ok=True)
    bare = tempfile.mkdtemp(dir=".bench_tmp")
    try:
        shutil.copy("BENCHMARK.json", bare)
        for path in spec["paths"]:
            shutil.copytree(path, os.path.join(bare, path),
                            ignore=shutil.ignore_patterns("__pycache__"))
        proc = _run(spec, bare, spec["workloads"][0]["name"], 0)
    finally:
        shutil.rmtree(bare)
    if proc.returncode == 0 or proc.stdout.strip():
        return [f"without src/trifree: exit {proc.returncode}, printed {proc.stdout.strip()!r}"]
    print("without src/trifree: refused", flush=True)
    return []


def main() -> int:
    with open("BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    problems = check_refuses_without_source(spec)
    for workload in spec["workloads"]:
        for trace in (0, 1):
            problems += check_run(spec, workload["name"], trace)
    try:
        os.rmdir(".bench_tmp")
    except OSError:
        pass
    for problem in problems:
        print(problem, file=sys.stderr)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
