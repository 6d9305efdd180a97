"""Intersection-graph extraction and exact coloring certification.

``intersection_graph`` lifts the family onto one integer grid
(``shapes.FamilyGrid``) and takes its edges from the grid's ``contacts()``:
the exact test on the pairs whose bounding boxes meet, found by one
y-sweep.  A geometric family's level check makes no ``Graph``: it
compares the contacts with B_k (``independent.claimed_graph``).

The chromatic-number solver is a saturation-order branch and bound with
a clique lower bound and first-use color symmetry pruning, run on an
explicit stack so that no search depth meets Python's recursion limit.
It either proves the exact value by exhausting the search or, on
timeout, returns the honest interval it has established so far.  The
search and the greedy DSATUR coloring that starts it pick each vertex
from one saturation structure (``_Saturation``): the uncolored vertices
sit in one bucket per saturation level, each an int bitmask over a
static (degree, -vertex) rank, so a pick reads the top bit of the top
non-empty bucket and a color move touches only the neighbours it
changes.  The clique bound walks the set bits of its candidate masks,
and the triangle test intersects the two neighbourhoods of each edge.
"""

from __future__ import annotations

import time
from typing import Iterator, Optional, Sequence

from .record import Value, set_field
from .shapes import FamilyGrid, TransformedCopy


class Graph(Value):
    def __init__(self, n: int, adj: tuple[frozenset[int], ...]) -> None:
        if len(adj) != n:
            raise ValueError("adjacency size mismatch")
        for u, nbrs in enumerate(adj):
            if u in nbrs:
                raise ValueError(f"self loop at {u}")
            for v in nbrs:
                if u not in adj[v]:
                    raise ValueError(f"asymmetric edge {u}-{v}")
        set_field(self, "n", n)
        set_field(self, "adj", adj)

    def _key(self) -> tuple:
        return self.n, self.adj

    @classmethod
    def from_edges(cls, n: int, edges: Sequence[tuple[int, int]]) -> "Graph":
        adj = [set() for _ in range(n)]
        for u, v in edges:
            if u == v:
                raise ValueError(f"self loop at {u}")
            adj[u].add(v)
            adj[v].add(u)
        adj.reverse()  # each set is freed once frozen, so the two copies never coexist in full
        return cls(n, tuple([frozenset(adj.pop()) for _ in range(n)]))

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
    return Graph.from_edges(len(copies), FamilyGrid(copies).contacts()[0])


def _masks(g: Graph) -> list[int]:
    return [sum(1 << v for v in g.adj[u]) for u in range(g.n)]


def is_triangle_free(g: Graph) -> bool:
    adj = g.adj
    return all(adj[u].isdisjoint(adj[v]) for u, v in g.edges())


def max_clique(g: Graph) -> tuple[int, ...]:
    """A maximum clique, found by pivoted Bron-Kerbosch on an explicit
    stack, so a clique of any size stays clear of the recursion limit.
    Deterministic: the pivot maximizes (candidates it covers, -vertex), and
    the candidates are expanded in increasing vertex order."""
    if g.n == 0:
        return ()
    masks = _masks(g)

    def frame(p: int, x: int) -> list[int]:
        """[candidates, excluded, the candidates left to expand] of one
        call: those of p outside the pivot's neighbourhood."""
        pool, pivot, covered = p | x, -1, -1
        while pool:
            low = pool & -pool
            u = low.bit_length() - 1
            count = (p & masks[u]).bit_count()
            if count > covered:
                pivot, covered = u, count
            pool ^= low
        return [p, x, p & ~masks[pivot]]

    best: list[int] = []
    clique: list[int] = []  # one vertex per frame above the first
    stack = [frame((1 << g.n) - 1, 0)]
    while stack:
        top = stack[-1]
        p, x, cand = top
        if not cand:
            stack.pop()
            if clique:
                clique.pop()
            continue
        low = cand & -cand
        u = low.bit_length() - 1
        top[:] = p ^ low, x | low, cand ^ low
        p, x = p & masks[u], x & masks[u]
        if p:
            clique.append(u)
            stack.append(frame(p, x))
        elif not x and len(clique) + 1 > len(best):
            best = clique + [u]
    return tuple(sorted(best))


def verify_coloring(g: Graph, colors: Sequence[int]) -> bool:
    if len(colors) != g.n or any(c < 1 for c in colors):
        return False
    return all(colors[u] != colors[v] for u, v in g.edges())


class _Saturation:
    """A partial coloring whose uncolored vertices are bucketed by saturation.

    A vertex's saturation is the number of distinct colors on its colored
    neighbours.  The vertices are ranked once by (degree, -vertex), and each
    saturation level keeps its uncolored vertices as one int bitmask over
    rank, so the top bit of the highest non-empty bucket is the DSATUR
    choice: the uncolored vertex of highest (saturation, degree, -vertex).
    ``assign`` moves only the neighbours whose saturation it raises and
    returns them; ``unassign`` undoes the last ``assign`` still in force.
    """

    def __init__(self, g: Graph) -> None:
        self.adj = g.adj
        self.order = sorted(range(g.n), key=lambda u: (len(g.adj[u]), -u))
        self.rank = [0] * g.n
        for r, u in enumerate(self.order):
            self.rank[u] = r
        self.colors = [0] * g.n
        self.neigh_colors: list[set[int]] = [set() for _ in range(g.n)]
        self.buckets = [(1 << g.n) - 1]

    def select(self) -> int:
        buckets = self.buckets
        s = len(buckets) - 1
        while not buckets[s]:
            s -= 1
        return self.order[buckets[s].bit_length() - 1]

    def assign(self, v: int, c: int) -> list[int]:
        colors, neigh_colors, buckets, rank = self.colors, self.neigh_colors, self.buckets, self.rank
        buckets[len(neigh_colors[v])] ^= 1 << rank[v]
        colors[v] = c
        touched = []
        for u in self.adj[v]:
            seen = neigh_colors[u]
            if colors[u] == 0 and c not in seen:
                s = len(seen)
                if s + 1 == len(buckets):
                    buckets.append(0)
                bit = 1 << rank[u]
                buckets[s] ^= bit
                buckets[s + 1] |= bit
                seen.add(c)
                touched.append(u)
        return touched

    def unassign(self, v: int, c: int, touched: list[int]) -> None:
        neigh_colors, buckets, rank = self.neigh_colors, self.buckets, self.rank
        for u in touched:
            seen = neigh_colors[u]
            seen.discard(c)
            s = len(seen)
            bit = 1 << rank[u]
            buckets[s + 1] ^= bit
            buckets[s] |= bit
        self.colors[v] = 0
        buckets[len(neigh_colors[v])] |= 1 << rank[v]


def dsatur_order_coloring(g: Graph) -> list[int]:
    """Greedy coloring choosing the most saturated vertex each step."""
    sat = _Saturation(g)
    for _ in range(g.n):
        v = sat.select()
        c = 1
        while c in sat.neigh_colors[v]:
            c += 1
        sat.assign(v, c)
    assert verify_coloring(g, sat.colors)
    return sat.colors


class ChromaticResult(Value):
    """Outcome of the exact solver.

    When ``exact`` is true, lower == upper == chromatic number and
    ``coloring`` is an optimal witness.  Otherwise the bounds bracket
    the true value and ``coloring`` witnesses the upper bound.
    """

    def __init__(self, lower: int, upper: int, exact: bool, coloring: tuple[int, ...],
                 clique: tuple[int, ...], nodes: int = 0, bounds_s: float = 0.0) -> None:
        set_field(self, "lower", lower)
        set_field(self, "upper", upper)
        set_field(self, "exact", exact)
        set_field(self, "coloring", coloring)
        set_field(self, "clique", clique)
        # the colorings the branch and bound tried, and the seconds spent
        # before it: the triangle test, the clique bound and DSATUR
        set_field(self, "nodes", nodes)
        set_field(self, "bounds_s", bounds_s)

    def _key(self) -> tuple:
        return self.lower, self.upper, self.exact, self.coloring, self.clique

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
    timeout, counted from entry (the triangle test, the clique bound and
    DSATUR included), an interval result is returned instead of raising.
    The clique bound comes from ``max_clique`` only on a graph with a
    triangle; on a triangle-free one it is the least edge (u, v), u < v.
    The result also counts the colorings the search tried and the seconds
    spent before it.
    """
    start = time.monotonic()
    deadline = start + timeout if timeout is not None else None
    if g.n == 0:
        return ChromaticResult(0, 0, True, (), ())
    # a triangle-free graph's largest clique is its least edge, or a vertex
    clique = max_clique(g) if not is_triangle_free(g) else min(g.edges(), default=(0,))
    lb = len(clique)
    best = dsatur_order_coloring(g)
    best_num = max(best)
    if best_num == lb:
        return ChromaticResult(lb, best_num, True, tuple(best), clique)

    bounds_s = time.monotonic() - start
    sat = _Saturation(g)
    colors, neigh_colors = sat.colors, sat.neigh_colors
    # Seed the clique: its vertices must all receive distinct colors, and
    # fixing them breaks a factorial amount of symmetry.
    for i, v in enumerate(clique):
        sat.assign(v, i + 1)
    # Depth first, one frame per vertex colored beyond the clique: [vertex,
    # colors used before it, the color limit fixed on entry, its color (0
    # before the first), the neighbours that color touched].
    stack: list[list] = []
    used, ticks, exact, witness = lb, 0, True, tuple(best)
    while True:
        ticks += 1
        if deadline is not None and ticks % 256 == 0 and time.monotonic() > deadline:
            exact = False
            break
        if used < best_num:
            if len(clique) + len(stack) == g.n:
                best_num, witness = used, tuple(colors)
            else:
                stack.append([sat.select(), used, min(used + 1, best_num - 1), 0, []])
        while stack:  # move to the next color of the deepest open frame
            frame = stack[-1]
            v, before, limit, c, touched = frame
            if c:
                sat.unassign(v, c, touched)
            c += 1
            while c in neigh_colors[v]:
                c += 1
            if c <= limit:
                frame[3:] = c, sat.assign(v, c)
                used = max(before, c)
                break
            stack.pop()
        if not stack:
            break
    assert verify_coloring(g, witness)
    # every pass but the last colored one vertex
    lower = best_num if exact else lb
    return ChromaticResult(lower, best_num, exact, witness, clique, ticks - 1, bounds_s)


def to_dimacs(g: Graph, comment: str = "") -> str:
    lines = []
    if comment:
        for part in comment.splitlines():
            lines.append(f"c {part}")
    lines.append(f"p edge {g.n} {g.m}")
    for u, v in sorted(g.edges()):
        lines.append(f"e {u + 1} {v + 1}")
    return "\n".join(lines) + "\n"
