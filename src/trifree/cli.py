"""Command-line surface: build, verify, certify, play, encode, render, export.

Exit codes: 0 success, 2 bad flags (argparse), 3 invariant violation,
4 solver timeout (interval printed), 5 broken interactive input stream.
"""

from __future__ import annotations

import argparse
import functools
import math
import os
import sys
import time
from typing import Callable, Optional, Sequence, TypeVar

from . import serialize
from .encoding import encode, expand_tree
from .errors import ConstructionError
from .game import MAX_K, SEARCH_LIMIT, first_fit, make_minimax_painter, make_repl_painter, run_game
from .geometry import as_rat
from .graphs import chromatic_number, intersection_graph, to_dimacs
from .independent import augment, build
from .shapes import catalog
from .uniform import augment_uniform, build_uniform
from .verify import verify_family

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_VIOLATION = 3
EXIT_TIMEOUT = 4
EXIT_BAD_STREAM = 5

TIMEOUT_ENV = "TRIFREE_TIMEOUT"

# The largest build --k per mode, past which a build runs until memory is
# gone: independent k=6 has s_6 = 2,375,752,501 copies, and uniform k=4's
# rationals already stop it at the file write.
BUILD_MAX_K = {"independent": 5, "uniform": 4}

T = TypeVar("T")


def _write(path: str, text: str) -> None:
    if path == "-":
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)


def _read(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


def _load_family(path: str) -> serialize.LoadedFamily:
    return serialize.doc_to_family(serialize.loads(_read(path)))


def _flag_type(parse: Callable[[str], T], ok: Callable[[T], bool],
               what: str) -> Callable[[str], T]:
    """An argparse type: the value ``parse`` reads from the text, refused
    (exit 2) unless ``ok`` holds for it."""
    def convert(text: str) -> T:
        try:
            if ok(value := parse(text)):
                return value
        except ValueError:
            pass
        raise argparse.ArgumentTypeError(f"not {what}: {text!r}")
    return convert


_seconds = _flag_type(float, lambda v: math.isfinite(v) and v >= 0,
                      "a finite number of seconds >= 0")
_epsilon = _flag_type(as_rat, lambda v: 0 < v < 1, "a rational 'p/q' in (0,1)")
_positive = _flag_type(int, lambda v: v >= 1, "an integer >= 1")
_game_k = _flag_type(int, lambda v: 1 <= v <= MAX_K, f"an integer in 1..{MAX_K}")
_search_k = _flag_type(int, lambda v: 1 <= v <= SEARCH_LIMIT, f"an integer in 1..{SEARCH_LIMIT}")


def _cmd_build(args: argparse.Namespace) -> int:
    shape = catalog()[args.shape]
    if args.mode == "independent":
        level = build(args.k, shape)
        extra = augment(level, shape) if args.augment else None
    else:
        level = build_uniform(args.k, args.epsilon, shape)
        extra = augment_uniform(level, shape) if args.augment else None
    _write(args.out, serialize.dumps(serialize.level_to_doc(level, shape, extra)))
    return EXIT_OK


def _cmd_verify(args: argparse.Namespace) -> int:
    fam = _load_family(args.family)
    violations = verify_family(fam)
    if violations:
        for v in violations:
            print(f"VIOLATION: {v}", file=sys.stderr)
        return EXIT_VIOLATION
    print(f"ok: {fam.mode} family, k={fam.k}, {len(fam.copies)} copies")
    return EXIT_OK


def _cmd_chi(args: argparse.Namespace) -> int:
    start = time.monotonic()  # the timeout counts from here, the load included
    fam = _load_family(args.family)
    g = intersection_graph(fam.copies)
    timeout, setup_s = args.timeout, time.monotonic() - start
    if timeout is not None:
        timeout = max(0, timeout - setup_s)
    result = chromatic_number(g, timeout)
    if args.coloring_out:
        coloring = {str(i): c for i, c in enumerate(result.coloring)}
        _write(args.coloring_out, serialize.dumps(coloring))
    if not result.exact:
        print(f"chi in [{result.lower}, {result.upper}]; {result.certificate()}")
        print(f"search explored {result.nodes} nodes after "
              f"{setup_s + result.bounds_s:.3f} s of load, graph and bounds")
        return EXIT_TIMEOUT
    print(f"chi = {result.chi} ({result.certificate()})")
    return EXIT_OK


def _cmd_game(args: argparse.Namespace) -> int:
    if args.painter == "firstfit":
        painter = first_fit
    elif args.painter == "minimax":
        painter = make_minimax_painter(args.k)
    else:
        painter = make_repl_painter()
    try:
        result = run_game(args.k, painter)
    except EOFError:
        print("input stream closed mid-game", file=sys.stderr)
        return EXIT_BAD_STREAM
    doc = serialize.transcript_to_doc(result, args.painter)
    _write(args.out, serialize.dumps(doc))
    if args.out != "-":
        print(f"{result.intervals} intervals, {result.colors_used} colors")
    return EXIT_OK


def _cmd_encode(args: argparse.Namespace) -> int:
    tree = expand_tree(args.k, args.budget)
    doc = serialize.encoded_to_doc(tree, encode(tree), catalog()["frame"])
    _write(args.out, serialize.dumps(doc))
    return EXIT_OK


def _cmd_render(args: argparse.Namespace) -> int:
    from .render import render_family  # only this command draws, so no other start loads it

    fam = _load_family(args.family)
    _write(args.out, render_family(fam))
    return EXIT_OK


def _cmd_export_dimacs(args: argparse.Namespace) -> int:
    fam = _load_family(args.family)
    g = intersection_graph(fam.copies)
    comment = f"intersection graph: mode={fam.mode} k={fam.k} n={g.n}"
    _write(args.out, to_dimacs(g, comment))
    return EXIT_OK


@functools.cache
def _parser() -> tuple[argparse.ArgumentParser, dict[str, argparse.ArgumentParser]]:
    """The command-line parser and its subcommands' parsers by name, built
    once per process and reused by every ``main`` call.  It holds only
    what is fixed for the process: anything that reads the environment or
    depends on one call's arguments belongs in ``main``."""
    parser = argparse.ArgumentParser(
        prog="trifree",
        description="Build and certify triangle-free families of axis-aligned "
                    "shapes with large chromatic number.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("build", help="construct a family and write its JSON")
    p.add_argument("--mode", choices=["independent", "uniform"], default="independent")
    p.add_argument("--shape", choices=sorted(catalog()), default="frame")
    p.add_argument("--k", type=_positive, required=True)
    p.add_argument("--epsilon", type=_epsilon, help="rational in (0,1); uniform mode only")
    p.add_argument("--no-augment", dest="augment", action="store_false",
                   help="emit the bare level without the closing diagonals")
    p.add_argument("--out", default="-")
    p.set_defaults(func=_cmd_build)

    p = sub.add_parser("verify", help="re-run the invariant suite on a family file")
    p.add_argument("--family", required=True)
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("chi", help="exact chromatic number of a family file")
    p.add_argument("--family", required=True)
    p.add_argument("--timeout", type=_seconds, default=None,
                   help=f"seconds before giving up (default from {TIMEOUT_ENV})")
    p.add_argument("--coloring-out", default=None)
    p.set_defaults(func=_cmd_chi)

    p = sub.add_parser("game", help="play the on-line interval coloring game")
    p.add_argument("--k", type=_game_k, required=True)
    p.add_argument("--painter", choices=["firstfit", "repl", "minimax"],
                   default="firstfit")
    p.add_argument("--out", default="-")
    p.set_defaults(func=_cmd_game)

    p = sub.add_parser("encode", help="encode the strategy tree as rectangular frames")
    p.add_argument("--k", type=_search_k, required=True)
    p.add_argument("--budget", type=_positive, default=None,
                   help="painter color budget (default k+1)")
    p.add_argument("--out", default="-")
    p.set_defaults(func=_cmd_encode)

    p = sub.add_parser("render", help="write a deterministic SVG of a family file")
    p.add_argument("--family", required=True)
    p.add_argument("--out", default="-")
    p.set_defaults(func=_cmd_render)

    p = sub.add_parser("export-dimacs", help="write the intersection graph in "
                       "DIMACS edge format")
    p.add_argument("--family", required=True)
    p.add_argument("--out", default="-")
    p.set_defaults(func=_cmd_export_dimacs)
    return parser, sub.choices


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser, commands = _parser()
    args = parser.parse_args(argv)
    error = commands[args.command].error  # shows the refused command's usage
    if args.command == "build":
        if args.mode == "uniform" and args.epsilon is None:
            error("uniform mode requires --epsilon")
        if args.mode == "independent" and args.epsilon is not None:
            error("--epsilon only applies to uniform mode")
        anchored = sorted(name for name, d in catalog().items() if d.anchor is not None)
        if args.mode == "uniform" and args.shape not in anchored:
            error(f"uniform mode needs a shape with an anchor: {', '.join(anchored)}")
        if args.k > BUILD_MAX_K[args.mode]:
            error(f"--k must be at most {BUILD_MAX_K[args.mode]} in {args.mode} mode")
    if args.command == "game" and args.painter == "minimax" and args.k > SEARCH_LIMIT:
        error(f"--k must be at most {SEARCH_LIMIT} with --painter minimax")
    if args.command == "chi" and args.timeout is None and os.environ.get(TIMEOUT_ENV):
        try:
            args.timeout = _seconds(os.environ[TIMEOUT_ENV])
        except argparse.ArgumentTypeError as exc:
            error(f"{TIMEOUT_ENV}: {exc}")
    try:
        return args.func(args)
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (ConstructionError, ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VIOLATION


if __name__ == "__main__":
    sys.exit(main())
