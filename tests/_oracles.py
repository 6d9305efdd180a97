"""Independent oracles for cross-validation, and helpers only tests use.

These deliberately avoid the implementation's code paths: the geometry
oracle rasterizes over the integer grid (exact for integer-coordinate
inputs), the coloring oracle is a static-order backtracking over all
colorings up to color renaming, with no saturation ordering, no clique
bounds, and no branch-and-bound pruning, and the box and graph oracles
test every pair instead of sweeping.
"""

from __future__ import annotations

from enum import Enum
from itertools import combinations
from typing import Iterator, Optional, Sequence

from trifree.geometry import HORIZONTAL, Rect, Seg, clip_seg_to_rect, seg_intersect
from trifree.graphs import Graph
from trifree.independent import ConstructionLevel, make_diagonal, split_probe
from trifree.shapes import ShapeDef, TransformedCopy, copies_intersect, copy_meets_rect, family_bbox


def grid_points_on_seg(s: Seg) -> set[tuple[int, int]]:
    lo, hi = int(s.lo), int(s.hi)
    if s.orientation == HORIZONTAL:
        return {(x, int(s.fixed)) for x in range(lo, hi + 1)}
    return {(int(s.fixed), y) for y in range(lo, hi + 1)}


def grid_points_in_rect(r: Rect) -> set[tuple[int, int]]:
    return {(x, y)
            for x in range(int(r.x_lo), int(r.x_hi) + 1)
            for y in range(int(r.y_lo), int(r.y_hi) + 1)}


def segs_intersect_grid(a: Seg, b: Seg) -> bool:
    """Exact for integer-coordinate axis-aligned segments: any nonempty
    closed intersection of such segments contains an integer point."""
    return bool(grid_points_on_seg(a) & grid_points_on_seg(b))


def rect_relation_grid(a: Rect, b: Rect) -> str:
    """Disjoint/containment/overlap via integer point sets (exact for
    integer-coordinate rectangles)."""
    pa, pb = grid_points_in_rect(a), grid_points_in_rect(b)
    if not pa & pb:
        return "disjoint"
    if pb <= pa:
        return "a_contains_b"
    if pa <= pb:
        return "b_contains_a"
    return "overlap"


class RectRelation(Enum):
    DISJOINT = "disjoint"
    OVERLAP = "overlap"
    A_CONTAINS_B = "a_contains_b"
    B_CONTAINS_A = "b_contains_a"


def rect_relations(a: Rect, b: Rect) -> RectRelation:
    """Classify two closed rectangles.  Equal rectangles report a_contains_b."""
    if not a.intersects(b):
        return RectRelation.DISJOINT
    if a.contains_rect(b):
        return RectRelation.A_CONTAINS_B
    if b.contains_rect(a):
        return RectRelation.B_CONTAINS_A
    return RectRelation.OVERLAP


def copies_intersect_within(a: TransformedCopy, b: TransformedCopy, r: Rect) -> bool:
    """True iff the parts of the two copies inside r share a point."""
    sa = [c for s in a.segments if (c := clip_seg_to_rect(s, r)) is not None]
    sb = [c for s in b.segments if (c := clip_seg_to_rect(s, r)) is not None]
    return any(seg_intersect(s, t) is not None for s in sa for t in sb)


def meeting_pairs_bruteforce(boxes: Sequence[Rect],
                             others: Optional[Sequence[Rect]] = None) -> list[tuple[int, int]]:
    """Every pair of meeting boxes by testing all pairs: (i, j), i < j, within
    ``boxes``, or (i, j) with boxes[i] meeting others[j]."""
    if others is None:
        return [(i, j) for i, j in combinations(range(len(boxes)), 2)
                if boxes[i].intersects(boxes[j])]
    return [(i, j) for i, a in enumerate(boxes) for j, b in enumerate(others)
            if a.intersects(b)]


def intersection_graph_bruteforce(copies: Sequence[TransformedCopy]) -> Graph:
    """The intersection graph from ``copies_intersect`` on every pair."""
    return Graph.from_edges(len(copies),
                            [(i, j) for i, j in combinations(range(len(copies)), 2)
                             if copies_intersect(copies[i], copies[j])],
                            tuple(c.lineage for c in copies))


def pierced_bruteforce(copies: Sequence[TransformedCopy], rect: Rect) -> list[int]:
    """Every copy meeting ``rect``, by testing each one."""
    return [i for i, c in enumerate(copies) if copy_meets_rect(c, rect)]


def step_contact_law_violations(prev: ConstructionLevel, level: ConstructionLevel,
                                shape: ShapeDef) -> list[str]:
    """The paper's contact laws for the recursion step ``prev`` -> ``level``,
    checked with all-pairs scans; empty when they hold.

    Diagonal law: the diagonal of each previous probe meets exactly the
    copies the probe pierces, and so does the probe's upper part.  Probe
    law, read from ``level.probes`` in claim order (outer probe P, previous
    probe Q, upper before lower): the upper probe pierces P's copies and
    the embedded diagonal of Q; the lower probe pierces P's copies and the
    embedded copies Q pierces, never the diagonal of Q.
    """
    out: list[str] = []
    bbox = family_bbox(prev.family)
    for i, p in enumerate(prev.probes):
        diag = make_diagonal(p, shape, bbox)
        neighbors = [j for j, c in enumerate(prev.family) if copies_intersect(diag, c)]
        upper_pierced = pierced_bruteforce(prev.family, split_probe(p)[0])
        if not neighbors == upper_pierced == sorted(p.pierced):
            out.append(f"diagonal {i}: pierced {sorted(p.pierced)}, "
                       f"neighbors {neighbors}, upper part {upper_pierced}")
    s, n = len(prev.family), len(prev.probes)
    if len(level.probes) != 2 * n * n:
        return out + [f"{len(level.probes)} probes, expected {2 * n * n}"]
    for i, outer in enumerate(prev.probes):
        offset = s + i * (s + n)
        for j, inner in enumerate(prev.probes):
            dq = offset + s + j
            laws = (("upper", set(outer.pierced) | {dq}),
                    ("lower", set(outer.pierced) | {offset + t for t in inner.pierced}))
            for t, (kind, expected) in enumerate(laws):
                probe = level.probes[2 * (i * n + j) + t]
                actual = pierced_bruteforce(level.family, probe.rect)
                if not actual == list(probe.pierced) == sorted(expected):
                    out.append(f"{kind} probe of ({i}, {j}): law {sorted(expected)}, "
                               f"claimed {list(probe.pierced)}, actual {actual}")
                if kind == "lower" and dq in actual:
                    out.append(f"lower probe of ({i}, {j}) meets the diagonal of {j}")
    return out


def proper_colorings(g: Graph, max_colors: int) -> Iterator[tuple[int, ...]]:
    """All proper colorings with colors drawn from 1..max_colors.

    Plain backtracking in vertex order; intended for exhaustive audits on
    small instances, not for solving.
    """
    colors = [0] * g.n

    def rec(v: int) -> Iterator[tuple[int, ...]]:
        if v == g.n:
            yield tuple(colors)
            return
        for c in range(1, max_colors + 1):
            if any(colors[u] == c for u in g.adj[v] if u < v):
                continue
            colors[v] = c
            yield from rec(v + 1)
            colors[v] = 0

    yield from rec(0)


def _exists_coloring(g: Graph, colors: int) -> bool:
    assignment = [0] * g.n

    def backtrack(v: int) -> bool:
        if v == g.n:
            return True
        # cap at one fresh color: covers all colorings up to renaming
        top = min(colors, max(assignment[:v], default=0) + 1)
        for c in range(1, top + 1):
            if any(assignment[u] == c for u in g.adj[v] if u < v):
                continue
            assignment[v] = c
            if backtrack(v + 1):
                return True
            assignment[v] = 0
        return False

    return backtrack(0)


def chromatic_number_bruteforce(g: Graph) -> int:
    if g.n == 0:
        return 0
    c = 1
    while not _exists_coloring(g, c):
        c += 1
    return c
