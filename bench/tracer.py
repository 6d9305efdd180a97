"""Trace of the trifree layers, attached from outside the package.

``Tracer.install`` replaces public functions with timing wrappers in every
``trifree`` module namespace that holds them.  That matters because the
modules import names directly: ``trifree.cli.build`` and
``trifree.graphs.copies_intersect`` are the names the program calls, so a
wrapper only on ``trifree.independent.build`` would see nothing.

Layer functions get spans (name, start, end, parent), kept in memory and
returned by ``dump``.  The predicates run about 10^5 times per command, so
they get counters only: calls, hits (true results) and calls per enclosing
span.
"""

from __future__ import annotations

import sys
from time import perf_counter
from typing import Any, Callable, Optional

SPANS = {
    "cli": ("main",),
    "independent": ("build", "next_level", "augment"),
    "uniform": ("build_uniform", "augment_uniform"),
    "graphs": ("intersection_graph", "chromatic_number", "is_triangle_free"),
    "verify": ("verify_family",),
    "serialize": ("dumps", "doc_to_family"),
    "game": ("run_game",),
    "encoding": ("expand_tree", "encode"),
}
PREDICATES = {"shapes": ("copies_intersect", "copy_meets_rect")}


def replace_everywhere(orig: Any, new: Any) -> None:
    """Rebind every ``trifree`` module attribute that is ``orig`` to ``new``."""
    for name, module in list(sys.modules.items()):
        if name != "trifree" and not name.startswith("trifree."):
            continue
        for attr, value in list(vars(module).items()):
            if value is orig:
                setattr(module, attr, new)


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []  # [name, start, end, parent index or -1]
        self.counts: dict[str, int] = {}
        self._stack: list[int] = []

    def _add(self, key: str, n: int = 1) -> None:
        self.counts[key] = self.counts.get(key, 0) + n

    def _span(self, name: str, fn: Callable,
              observe: Optional[Callable[[Any], None]] = None) -> Callable:
        spans, stack = self.spans, self._stack

        def wrapper(*args, **kwargs):
            record = [name, 0.0, 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(record)
            record[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                record[2] = perf_counter()
                stack.pop()
            if observe is not None:
                observe(result)
            return result

        return wrapper

    def _counter(self, name: str, fn: Callable) -> Callable:
        spans, stack, add = self.spans, self._stack, self._add

        def wrapper(*args):
            result = fn(*args)
            add(name + ".calls")
            if result:
                add(name + ".hits")
            if stack:
                add(f"{name}.calls_in.{spans[stack[-1]][0]}")
            return result

        return wrapper

    def install(self) -> None:
        import trifree.cli  # noqa: F401  (loads every module the CLI calls)
        from trifree import game

        observers = {
            "serialize.dumps": lambda text: self._add("serialize.json_bytes",
                                                      len(text.encode("utf-8"))),
            "encoding.expand_tree": lambda tree: self._add("encoding.tree_nodes",
                                                           len(tree.nodes())),
        }
        for module, names in SPANS.items():
            for fn_name in names:
                name = f"{module}.{fn_name}"
                orig = getattr(sys.modules[f"trifree.{module}"], fn_name)
                replace_everywhere(orig, self._span(name, orig, observers.get(name)))
        for module, names in PREDICATES.items():
            for fn_name in names:
                orig = getattr(sys.modules[f"trifree.{module}"], fn_name)
                replace_everywhere(orig, self._counter(f"{module}.{fn_name}", orig))

        session = game.PresenterSession
        init, respond = session.__init__, session.respond

        def counted_init(obj, *args, **kwargs):
            self._add("game.presenter_sessions")
            init(obj, *args, **kwargs)

        def counted_respond(obj, color):
            self._add("game.presenter_moves")
            return respond(obj, color)

        session.__init__ = counted_init
        session.respond = counted_respond

    def dump(self) -> dict:
        return {"spans": self.spans, "counts": self.counts}


def layer_times(spans: list[list]) -> tuple[dict[str, float], dict[str, float]]:
    """Total and self seconds per span name.

    A span nested inside one of its own name counts once, through the
    outer span.  Self time is a span's duration minus its children's; one
    thread runs them, so children never overlap.
    """
    total: dict[str, float] = {}
    self_s: dict[str, float] = {}
    child_s = [0.0] * len(spans)
    for name, start, end, parent in spans:
        if parent >= 0:
            child_s[parent] += end - start
    for i, (name, start, end, parent) in enumerate(spans):
        self_s[name] = self_s.get(name, 0.0) + (end - start) - child_s[i]
        p = parent
        while p >= 0 and spans[p][0] != name:
            p = spans[p][3]
        if p < 0:
            total[name] = total.get(name, 0.0) + end - start
    return total, self_s
