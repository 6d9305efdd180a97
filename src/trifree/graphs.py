"""Intersection-graph extraction and exact coloring certification.

``intersection_graph`` lifts the family onto one integer grid
(``shapes.FamilyGrid``) and runs the exact contact test only on the
candidate pairs whose bounding boxes meet, which one y-sweep over the
boxes on that grid finds; any other pair is disjoint.

The chromatic-number solver is a saturation-order branch and bound with
a clique lower bound and first-use color symmetry pruning.  It either
proves the exact value by exhausting the search or, on timeout, returns
the honest interval it has established so far.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Iterator, Optional, Sequence

from .shapes import FamilyGrid, TransformedCopy


@dataclass(frozen=True)
class Graph:
    n: int
    adj: tuple[frozenset[int], ...]
    labels: tuple[str, ...] = ()

    def __post_init__(self):
        if len(self.adj) != self.n:
            raise ValueError("adjacency size mismatch")
        for u, nbrs in enumerate(self.adj):
            if u in nbrs:
                raise ValueError(f"self loop at {u}")
            for v in nbrs:
                if u not in self.adj[v]:
                    raise ValueError(f"asymmetric edge {u}-{v}")

    @classmethod
    def from_edges(cls, n: int, edges: Sequence[tuple[int, int]],
                   labels: Sequence[str] = ()) -> "Graph":
        adj = [set() for _ in range(n)]
        for u, v in edges:
            if u == v:
                raise ValueError(f"self loop at {u}")
            adj[u].add(v)
            adj[v].add(u)
        return cls(n, tuple(frozenset(a) for a in adj), tuple(labels))

    def edges(self) -> Iterator[tuple[int, int]]:
        for u in range(self.n):
            for v in self.adj[u]:
                if u < v:
                    yield (u, v)

    @property
    def m(self) -> int:
        return sum(len(a) for a in self.adj) // 2


def intersection_graph(copies: Sequence[TransformedCopy]) -> Graph:
    """Edges are the exactly-intersecting pairs; vertex order = family order.
    The family is lifted onto one grid once, and every pair decided on it."""
    return Graph.from_edges(len(copies), FamilyGrid(copies).contacts(),
                            tuple(c.lineage for c in copies))


def _masks(g: Graph) -> list[int]:
    return [sum(1 << v for v in g.adj[u]) for u in range(g.n)]


def is_triangle_free(g: Graph) -> bool:
    masks = _masks(g)
    for u, v in g.edges():
        if masks[u] & masks[v]:
            return False
    return True


def max_clique(g: Graph) -> tuple[int, ...]:
    """A maximum clique, found by pivoted Bron-Kerbosch.  Deterministic."""
    if g.n == 0:
        return ()
    masks = _masks(g)
    best: list[int] = [0]

    def expand(r: list[int], p: int, x: int) -> None:
        if p == 0 and x == 0:
            if len(r) > len(best):
                best[:] = r
            return
        pivot_pool = p | x
        pivot = max((u for u in range(g.n) if pivot_pool >> u & 1),
                    key=lambda u: (bin(p & masks[u]).count("1"), -u))
        cand = p & ~masks[pivot]
        for u in range(g.n):
            if cand >> u & 1:
                expand(r + [u], p & masks[u], x & masks[u])
                p &= ~(1 << u)
                x |= 1 << u

    expand([], (1 << g.n) - 1, 0)
    return tuple(sorted(best))


def verify_coloring(g: Graph, colors: Sequence[int]) -> bool:
    if len(colors) != g.n or any(c < 1 for c in colors):
        return False
    return all(colors[u] != colors[v] for u, v in g.edges())


def dsatur_order_coloring(g: Graph) -> list[int]:
    """Greedy coloring choosing the most saturated vertex each step."""
    colors = [0] * g.n
    neigh_colors: list[set[int]] = [set() for _ in range(g.n)]
    for _ in range(g.n):
        v = max((u for u in range(g.n) if colors[u] == 0),
                key=lambda u: (len(neigh_colors[u]), len(g.adj[u]), -u))
        c = 1
        while c in neigh_colors[v]:
            c += 1
        colors[v] = c
        for u in g.adj[v]:
            neigh_colors[u].add(c)
    assert verify_coloring(g, colors)
    return colors


class _Deadline(Exception):
    pass


@dataclass(frozen=True)
class ChromaticResult:
    """Outcome of the exact solver.

    When ``exact`` is true, lower == upper == chromatic number and
    ``coloring`` is an optimal witness.  Otherwise the bounds bracket
    the true value and ``coloring`` witnesses the upper bound.
    """

    lower: int
    upper: int
    exact: bool
    coloring: tuple[int, ...]
    clique: tuple[int, ...]

    @property
    def chi(self) -> Optional[int]:
        return self.upper if self.exact else None

    def certificate(self) -> str:
        if not self.exact:
            return f"interval [{self.lower}, {self.upper}] (search timed out)"
        if len(self.clique) == self.upper:
            return f"clique {list(self.clique)} meets a {self.upper}-coloring"
        return f"exhaustive search: no proper ({self.upper - 1})-coloring exists"


def chromatic_number(g: Graph, timeout: Optional[float] = None) -> ChromaticResult:
    """Exact chromatic number by DSATUR branch and bound.

    Deterministic: identical graphs produce identical witnesses.  With a
    timeout, an interval result is returned instead of raising.
    """
    if g.n == 0:
        return ChromaticResult(0, 0, True, (), ())
    clique = max_clique(g)
    lb = len(clique)
    best = dsatur_order_coloring(g)
    best_num = max(best)
    if best_num == lb:
        return ChromaticResult(lb, best_num, True, tuple(best), clique)

    deadline = time.monotonic() + timeout if timeout is not None else None
    colors = [0] * g.n
    neigh_colors: list[set[int]] = [set() for _ in range(g.n)]
    # Seed the clique: its vertices must all receive distinct colors, and
    # fixing them breaks a factorial amount of symmetry.
    for i, v in enumerate(clique):
        colors[v] = i + 1
        for u in g.adj[v]:
            neigh_colors[u].add(i + 1)
    ticks = 0
    state = {"best": best_num, "coloring": list(best)}

    def select() -> int:
        return max((u for u in range(g.n) if colors[u] == 0),
                   key=lambda u: (len(neigh_colors[u]), len(g.adj[u]), -u))

    def assign(v: int, c: int) -> list[int]:
        colors[v] = c
        touched = []
        for u in g.adj[v]:
            if colors[u] == 0 and c not in neigh_colors[u]:
                neigh_colors[u].add(c)
                touched.append(u)
        return touched

    def unassign(v: int, c: int, touched: list[int]) -> None:
        for u in touched:
            neigh_colors[u].discard(c)
        colors[v] = 0

    def search(colored: int, used: int) -> None:
        nonlocal ticks
        ticks += 1
        if deadline is not None and ticks % 256 == 0 and time.monotonic() > deadline:
            raise _Deadline
        if used >= state["best"]:
            return
        if colored == g.n:
            state["best"] = used
            state["coloring"] = list(colors)
            return
        v = select()
        limit = min(used + 1, state["best"] - 1)
        for c in range(1, limit + 1):
            if c in neigh_colors[v]:
                continue
            touched = assign(v, c)
            search(colored + 1, max(used, c))
            unassign(v, c, touched)

    try:
        search(len(clique), lb)
        exact = True
    except _Deadline:
        exact = False
    best_num = state["best"]
    witness = tuple(state["coloring"])
    assert verify_coloring(g, witness)
    if exact:
        return ChromaticResult(best_num, best_num, True, witness, clique)
    return ChromaticResult(lb, best_num, False, witness, clique)


def to_dimacs(g: Graph, comment: str = "") -> str:
    lines = []
    if comment:
        for part in comment.splitlines():
            lines.append(f"c {part}")
    lines.append(f"p edge {g.n} {g.m}")
    for u, v in sorted(g.edges()):
        lines.append(f"e {u + 1} {v + 1}")
    return "\n".join(lines) + "\n"
