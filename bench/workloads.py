"""The benchmark's three sessions of real ``trifree`` commands, and the
checks on every answer.

Every expected value comes from the paper, not from earlier output:
family sizes from the recurrence s_1 = p_1 = 1,
s_{k+1} = (p_k + 1) s_k + p_k^2, p_{k+1} = 2 p_k^2; a chromatic number of
at least k + 1 for closed (augmented or encoded) families and at least k
for the bare level; and a game that forces k + 1 colours within 2^k
intervals.
"""

from __future__ import annotations

import json
import os
import random
import re
from dataclasses import dataclass
from fractions import Fraction
from math import gcd
from typing import Callable, Optional

SHAPES = ("frame", "lshape", "cross")
EPS_MAX_DENOMINATOR = 16
EPS_PER_PASS = 16
# A chi search that has not finished by then exits 4 and counts as failed,
# so a slowed solver cannot push a run past its time limit.
CHI_TIMEOUT = "60"

_CHI_LINE = re.compile(r"chi = (\d+) \(.*\)")
_RATIONAL = re.compile(r"-?\d+/(\d+)")


def sizes(k: int) -> tuple[int, int]:
    """(s_k, p_k): copies and probes of the bare level k."""
    s = p = 1
    for _ in range(k - 1):
        s, p = (p + 1) * s + p * p, 2 * p * p
    return s, p


@dataclass(frozen=True)
class Step:
    """One CLI command, the latency it counts toward, and what its answer must be.

    ``metric`` is ``build`` (for ``build`` and ``encode``), ``verify``,
    ``chi`` or ``game``.  ``kind`` picks the check: ``family`` for a command that writes a family
    file, ``verify``, ``chi`` or ``game``.
    """

    argv: tuple[str, ...]
    metric: str
    kind: str
    k: int
    mode: str = ""
    copies: int = 0
    file: str = ""
    augmented: bool = True
    epsilon: str = ""
    min_chi: int = 0


def _family(argv: tuple[str, ...], metric: str, k: int, mode: str, copies: int,
            file: str, **extra) -> Step:
    return Step(argv, metric, "family", k, mode, copies, file, **extra)


def _verify(file: str, k: int, mode: str, copies: int) -> Step:
    return Step(("verify", "--family", file), "verify", "verify", k, mode, copies)


def _chi(file: str, k: int, min_chi: int) -> Step:
    return Step(("chi", "--family", file, "--timeout", CHI_TIMEOUT), "chi", "chi", k,
                min_chi=min_chi)


def independent_k4(rng: random.Random) -> list[Step]:
    """Per catalog shape: augmented build, verify, bare build, chi of the bare level."""
    k = 4
    s, p = sizes(k)
    shapes = list(SHAPES)
    rng.shuffle(shapes)
    steps = []
    for shape in shapes:
        closed, bare = f"{shape}.json", f"{shape}-bare.json"
        steps += [
            _family(("build", "--k", str(k), "--shape", shape, "--out", closed),
                    "build", k, "independent", s + p, closed),
            _verify(closed, k, "independent", s + p),
            _family(("build", "--k", str(k), "--shape", shape, "--no-augment", "--out", bare),
                    "build", k, "independent", s, bare, augmented=False),
            _chi(bare, k, k),
        ]
    return steps


def epsilon_pool() -> list[str]:
    """Every reduced p/q in (0, 1) with q <= EPS_MAX_DENOMINATOR."""
    return [f"{p}/{q}" for q in range(2, EPS_MAX_DENOMINATOR + 1)
            for p in range(1, q) if gcd(p, q) == 1]


def uniform_k3(rng: random.Random) -> list[Step]:
    """Per drawn epsilon: uniform build, verify, chi."""
    k = 3
    s, p = sizes(k)
    steps = []
    for i, eps in enumerate(rng.sample(epsilon_pool(), EPS_PER_PASS)):
        out = f"uniform-{i}.json"
        steps += [
            _family(("build", "--mode", "uniform", "--k", str(k), "--epsilon", eps,
                     "--out", out), "build", k, "uniform", s + p, out, epsilon=eps),
            _verify(out, k, "uniform", s + p),
            _chi(out, k, k + 1),
        ]
    return steps


def game_k3(rng: random.Random) -> list[Step]:
    """Encode the k=3 strategy tree, verify it, chi, then play against minimax.

    The k=3 game and its tree are unique, so the seed changes nothing here.
    """
    k = 3
    s, p = sizes(k)
    return [
        _family(("encode", "--k", str(k), "--out", "tree.json"), "build", k,
                "encoded-frames", s + p, "tree.json"),
        _verify("tree.json", k, "encoded-frames", s + p),
        _chi("tree.json", k, k + 1),
        Step(("game", "--k", str(k), "--painter", "minimax", "--out", "game.json"),
             "game", "game", k, file="game.json"),
    ]


WORKLOADS: dict[str, Callable[[random.Random], list[Step]]] = {
    "independent-k4": independent_k4,
    "uniform-k3": uniform_k3,
    "game-k3": game_k3,
}


def session(workload: str, seed: int) -> list[Step]:
    return WORKLOADS[workload](random.Random(seed))


def _load(path: str) -> dict:
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def _check_family(step: Step, doc: dict) -> Optional[str]:
    if doc.get("mode") != step.mode or doc.get("k") != step.k:
        return f"wrote mode={doc.get('mode')!r} k={doc.get('k')!r}"
    n = len(doc.get("copies", ()))
    if n != step.copies:
        return f"wrote {n} copies, the recurrence gives {step.copies}"
    if step.mode != "encoded-frames" and doc.get("augmented") is not step.augmented:
        return f"wrote augmented={doc.get('augmented')!r}"
    if step.epsilon and doc.get("epsilon") != step.epsilon:
        return f"wrote epsilon={doc.get('epsilon')!r}"
    return None


def _overlaps(a: tuple[Fraction, Fraction], b: tuple[Fraction, Fraction]) -> bool:
    """Intersecting but not nested: the edge relation of the game."""
    if a[1] < b[0] or b[1] < a[0]:
        return False
    nested = (a[0] <= b[0] and b[1] <= a[1]) or (b[0] <= a[0] and a[1] <= b[1])
    return not nested


def _check_game(step: Step, doc: dict) -> Optional[str]:
    moves = [((Fraction(m["lo"]), Fraction(m["hi"])), m["color"]) for m in doc["moves"]]
    colors = {c for _, c in moves}
    if len(colors) < step.k + 1:
        return f"game used {len(colors)} colours, fewer than k+1 = {step.k + 1}"
    if len(moves) > 2 ** step.k:
        return f"game used {len(moves)} intervals, more than 2^k = {2 ** step.k}"
    if doc.get("intervals") != len(moves) or doc.get("colors_used") != len(colors):
        return "transcript totals disagree with its moves"
    for i, (iv, c) in enumerate(moves):
        for jv, d in moves[:i]:
            if c == d and _overlaps(iv, jv):
                return f"move {i} repeats an overlapping interval's colour"
    return None


def check(step: Step, rc: Optional[int], stdout: str, workdir: str) -> Optional[str]:
    """None if the command's answer is right, else what is wrong with it."""
    if rc != 0:
        return f"exit code {rc}"
    text = stdout.strip()
    try:
        if step.kind == "family":
            return _check_family(step, _load(os.path.join(workdir, step.file)))
        if step.kind == "game":
            return _check_game(step, _load(os.path.join(workdir, step.file)))
    except (OSError, ValueError, KeyError, TypeError) as exc:
        return f"unreadable output: {exc}"
    if step.kind == "verify":
        want = f"ok: {step.mode} family, k={step.k}, {step.copies} copies"
        return None if text == want else f"printed {text!r}, expected {want!r}"
    match = _CHI_LINE.fullmatch(text)
    if match is None:
        return f"printed {text!r}, not an exact chi"
    if int(match.group(1)) < step.min_chi:
        return f"chi = {match.group(1)}, below the bound {step.min_chi}"
    return None


def max_denominator_bits(path: str) -> int:
    """Bit length of the largest denominator among a family file's rationals."""
    with open(path, encoding="utf-8") as fh:
        text = fh.read()
    return max((int(q).bit_length() for q in _RATIONAL.findall(text)), default=0)
