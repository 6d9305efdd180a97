"""Independent oracles for cross-validation, and helpers only tests use.

These deliberately avoid the implementation's code paths: the geometry
oracle rasterizes over the integer grid (exact for integer-coordinate
inputs), the references of the integer predicates test every segment on
exact rationals, the probe-condition and diagonal-law references test
every copy through those, on no shared grid, the diagonal,
rectangle-map and composition references are the chains of Fraction
operators, on a transform of four Fractions (``XYTransform``), that the
closed-form, lifted paths on integer axis maps replaced, the render
scene maps' reference works them out from the scene's sides, the references
of a probe's split parts, half-size root and lower root compute on its
Fraction sides, not on its ints, the coloring
oracle is a static-order backtracking over all colorings up to color
renaming, with no saturation ordering, no clique bounds, and no
branch-and-bound pruning, and the box and graph
oracles test every pair instead of sweeping; the triangle oracle tests
every triple, the solver's references are the bodies that scanned
every vertex at each selection step, and the clique search's second
one its body with one recursive call per clique vertex, the interval
predicates' references compare the Fraction ends, and the game-tree
reference replays every history from the root through a fresh
``PresenterSession``.  The helpers below them (whether two rectangles
meet and the box of many, the sorted pairs of one sweep over boxes,
whether an interval holds another, on their ints, whether a copy stabs
a rectangle, on the two's ``FamilyGrid``, or one segment alone spans
it, on exact rationals, random shapes drawn against a rectangle for the
stabbing test's slow paths, the colors of an interval's overlap
neighbors and a transcript's chain at a point, clique number, first-fit
coloring, DIMACS parsing, probe color audits, the encoded family's
certificate, the digest of a JSON text in the ``indent=2`` layout and a
record with some of its fields changed) have no caller in the package.
"""

from __future__ import annotations

import hashlib
import inspect
import json
import random
import time
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from itertools import combinations
from typing import Iterable, Iterator, Optional, Sequence

from trifree.game import Chain, GameTranscript, Interval, Position, PresenterSession
from trifree.errors import ConstructionError
from trifree.geometry import (
    HORIZONTAL,
    VERTICAL,
    AxisMap,
    Rat,
    Rect,
    Seg,
    as_rat,
    h_seg,
    seg_intersect,
    v_seg,
)
from trifree.graphs import (
    ChromaticResult,
    Graph,
    chromatic_number,
    intersection_graph,
    is_triangle_free,
    max_clique,
    verify_coloring,
)
from trifree.independent import Level, Probe
from trifree.shapes import (
    FamilyGrid,
    RectilinearShape,
    ShapeDef,
    TransformedCopy,
    _on_one_grid,
    _sweep_pairs,
    copies_intersect,
    copy_meets_rect,
    family_bbox,
)


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


def rects_meet(a: Rect, b: Rect) -> bool:
    """True iff the two closed rectangles share a point."""
    return not (a.x_hi < b.x_lo or b.x_hi < a.x_lo or a.y_hi < b.y_lo or b.y_hi < a.y_lo)


def rect_union_all(rects: Iterable[Rect]) -> Rect:
    """The smallest rectangle holding every one given, by Fraction min/max."""
    rects = list(rects)
    if not rects:
        raise ValueError("empty rectangle union")
    return Rect(min(r.x_lo for r in rects), max(r.x_hi for r in rects),
                min(r.y_lo for r in rects), max(r.y_hi for r in rects))


class RectRelation(Enum):
    DISJOINT = "disjoint"
    OVERLAP = "overlap"
    A_CONTAINS_B = "a_contains_b"
    B_CONTAINS_A = "b_contains_a"


def rect_relations(a: Rect, b: Rect) -> RectRelation:
    """Classify two closed rectangles.  Equal rectangles report a_contains_b."""
    if not rects_meet(a, b):
        return RectRelation.DISJOINT
    if a.contains_rect(b):
        return RectRelation.A_CONTAINS_B
    if b.contains_rect(a):
        return RectRelation.B_CONTAINS_A
    return RectRelation.OVERLAP


def clip_seg_to_rect(s: Seg, r: Rect) -> Optional[Seg]:
    """The exact closed portion of s inside r, or None if empty."""
    if s.orientation == HORIZONTAL:
        if not (r.y_lo <= s.fixed <= r.y_hi):
            return None
        lo = max(s.lo, r.x_lo)
        hi = min(s.hi, r.x_hi)
    else:
        if not (r.x_lo <= s.fixed <= r.x_hi):
            return None
        lo = max(s.lo, r.y_lo)
        hi = min(s.hi, r.y_hi)
    if lo > hi:
        return None
    return Seg(s.orientation, s.fixed, lo, hi)


def segment_covered(shape_segments: Sequence[Seg], s: Seg) -> bool:
    """The cover test of ``shapes.validate_features`` on exact rationals:
    True iff the closed segment s lies inside the union of shape segments.
    A point needs one segment through it; a longer segment needs its
    collinear pieces to merge into one range around it."""
    if s.lo == s.hi:
        return any(seg_intersect(t, s) is not None for t in shape_segments)
    merged: list[tuple[Rat, Rat]] = []
    for lo, hi in sorted((max(t.lo, s.lo), min(t.hi, s.hi)) for t in shape_segments
                         if t.orientation == s.orientation and t.fixed == s.fixed
                         and max(t.lo, s.lo) <= min(t.hi, s.hi)):
        if merged and lo <= merged[-1][1]:
            merged[-1] = (merged[-1][0], max(merged[-1][1], hi))
        else:
            merged.append((lo, hi))
    return len(merged) == 1 and merged[0][0] <= s.lo and merged[0][1] >= s.hi


def axis_map(scale: Rat, shift: Rat) -> AxisMap:
    """(a, b, q) with scale * u + shift == (a * u + b) / q for every rational u."""
    p, q = scale.numerator, scale.denominator
    r, s = shift.numerator, shift.denominator
    return p * s, r * q, q * s


@dataclass(frozen=True)
class XYTransform:
    """(x, y) -> (sx*x + tx, sy*y + ty) by Fraction operators: the
    reference for the two integer axis maps (``axis_map``) that place every
    copy and map every rectangle."""

    sx: Rat
    sy: Rat
    tx: Rat
    ty: Rat

    def __post_init__(self):
        for name in ("sx", "sy", "tx", "ty"):
            object.__setattr__(self, name, as_rat(getattr(self, name)))

    @classmethod
    def rect_map(cls, src: Rect, dst: Rect) -> "XYTransform":
        """The transform carrying the fat ``src`` onto ``dst``, on the sides:
        the reference for ``geometry.rect_map``, which reads the lifts."""
        sx, sy = dst.width / src.width, dst.height / src.height
        return cls(sx, sy, dst.x_lo - sx * src.x_lo, dst.y_lo - sy * src.y_lo)

    def x(self, v: Rat) -> Rat:
        return self.sx * v + self.tx

    def y(self, v: Rat) -> Rat:
        return self.sy * v + self.ty

    def axis_maps(self) -> tuple[AxisMap, AxisMap]:
        return axis_map(self.sx, self.tx), axis_map(self.sy, self.ty)

    def apply(self, obj):
        """The image of a Seg or a Rect (``apply_ref``)."""
        if isinstance(obj, Rect):
            return apply_ref(self, obj)
        if obj.orientation == HORIZONTAL:
            return Seg(HORIZONTAL, self.y(obj.fixed), self.x(obj.lo), self.x(obj.hi))
        return Seg(VERTICAL, self.x(obj.fixed), self.y(obj.lo), self.y(obj.hi))


def from_maps(x_map: AxisMap, y_map: AxisMap) -> XYTransform:
    """The transform of two axis maps (a, b, q): scale a/q, shift b/q."""
    (ax, bx, qx), (ay, by, qy) = x_map, y_map
    return XYTransform(Fraction(ax, qx), Fraction(ay, qy), Fraction(bx, qx), Fraction(by, qy))


def then(first: XYTransform, after: XYTransform) -> XYTransform:
    """The composite transform, ``first`` then ``after``, by Fraction
    operators: the reference for ``TransformedCopy.rebase``, which composes
    on integer axis maps."""
    return XYTransform(after.sx * first.sx, after.sy * first.sy,
                       after.sx * first.tx + after.tx, after.sy * first.ty + after.ty)


def apply_ref(t: XYTransform, r: Rect) -> Rect:
    """A Rect's image as Fraction operators, each side through ``t.x`` or
    ``t.y``, with no lift: the reference for ``geometry.map_rect``."""
    return Rect(t.x(r.x_lo), t.x(r.x_hi), t.y(r.y_lo), t.y(r.y_hi))


def scene_maps_ref(scene: Rect) -> tuple[AxisMap, AxisMap]:
    """The axis maps carrying the scene into the 1024-unit viewbox, 24 units
    in from each side, worked out from its Fraction sides: the reference
    for ``render._scene_maps``, which maps the scene's square by
    ``geometry.rect_map``."""
    side = max(scene.width, scene.height) or Fraction(1)
    scale = Fraction(1024 - 2 * 24) / side
    return axis_map(scale, 24 - scale * scene.x_lo), axis_map(scale, 24 - scale * scene.y_lo)


def root_cut_x(p: Probe) -> Rat:
    """The x of the probe's root cut, its int pair ``cut`` as a Fraction."""
    return Fraction(*p.cut)


def split_probe_ref(p: Probe) -> tuple[Rect, Rect]:
    """``independent.split_probe`` on the Fraction sides: the top and the
    bottom 2/5 of the probe rectangle."""
    r = p.rect
    h = r.height * Fraction(2, 5)
    return Rect(r.x_lo, r.x_hi, r.y_hi - h, r.y_hi), Rect(r.x_lo, r.x_hi, r.y_lo, r.y_lo + h)


def concentric_ref(r: Rect, fx: Rat, fy: Rat) -> Rect:
    """The rectangle with the same center as ``r`` and side fractions fx,
    fy, on the Fraction sides: the reference for the half-size root that
    ``independent.step_roots`` makes from the root's ints."""
    dx, dy = r.width * (1 - fx) / 2, r.height * (1 - fy) / 2
    return Rect(r.x_lo + dx, r.x_hi - dx, r.y_lo + dy, r.y_hi - dy)


def lower_root_ref(p: Probe) -> Rect:
    """The lower root of ``p`` (``independent.step_roots``) on the Fraction
    sides: the lower split part left of the cut line."""
    lower = split_probe_ref(p)[1]
    return Rect(lower.x_lo, root_cut_x(p), lower.y_lo, lower.y_hi)


def make_diagonal_ref(probe: Probe, shape: ShapeDef, bbox: Rect,
                      lineage: str = "diagonal") -> TransformedCopy:
    """``independent.make_diagonal`` as a chain of Fraction operators: the
    map of the shape's box onto the probe's upper part (``split_probe_ref``),
    then the horizontal stretch by 2*w2/w1 about the part's left edge, and
    the whole empty rectangle mapped to check that it clears ``bbox``."""
    feats = shape.features
    upper, _ = split_probe_ref(probe)
    factor = 2 * feats.w2 / feats.w1
    stretch = XYTransform(factor, Fraction(1), (1 - factor) * upper.x_lo, Fraction(0))
    t = then(XYTransform.rect_map(feats.bbox, upper), stretch)
    copy = TransformedCopy(shape.name, shape.shape, *t.axis_maps(), lineage)
    empty = apply_ref(t, feats.empty_rect)
    if not empty.x_lo > bbox.x_hi:
        raise ConstructionError(
            f"diagonal empty rectangle does not clear the family box: "
            f"{empty.x_lo} <= {bbox.x_hi}")
    return copy


def copies_intersect_ref(a: TransformedCopy, b: TransformedCopy) -> bool:
    """``shapes.copies_intersect`` on exact rationals: every pair of the
    copies' segments through ``seg_intersect``."""
    if not rects_meet(a.bbox, b.bbox):
        return False
    return any(seg_intersect(s, t) is not None for s in a.segments for t in b.segments)


def copy_meets_rect_ref(c: TransformedCopy, r: Rect) -> bool:
    """``shapes.copy_meets_rect`` on exact rationals, through ``clip_seg_to_rect``."""
    if not rects_meet(c.bbox, r):
        return False
    return any(clip_seg_to_rect(s, r) is not None for s in c.segments)


def _components_ref(segs: Sequence[Seg]) -> list[set[int]]:
    """Connected components of segments under nonempty pairwise intersection."""
    n = len(segs)
    parent = list(range(n))

    def find(i: int) -> int:
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for i in range(n):
        for j in range(i + 1, n):
            if seg_intersect(segs[i], segs[j]) is not None:
                ri, rj = find(i), find(j)
                if ri != rj:
                    parent[rj] = ri
    groups: dict[int, set[int]] = {}
    for i in range(n):
        groups.setdefault(find(i), set()).add(i)
    return list(groups.values())


def curve_stabs_ref(segs: Sequence[Seg], rect: Rect, *, vertical: bool) -> bool:
    """The stabbing test of ``stabs_vertically``/``stabs_horizontally``
    on exact rationals: some connected component of ``segs`` clipped to
    ``rect`` joins its top and bottom (vertical) or left and right sides."""
    clipped = [c for s in segs if (c := clip_seg_to_rect(s, rect)) is not None]
    if vertical:
        lo_line, hi_line, touch_axis = rect.y_lo, rect.y_hi, VERTICAL
    else:
        lo_line, hi_line, touch_axis = rect.x_lo, rect.x_hi, HORIZONTAL

    def touches(s: Seg, line: Rat) -> bool:
        if s.orientation == touch_axis:
            return s.lo <= line <= s.hi
        return s.fixed == line

    return any(any(touches(clipped[i], lo_line) for i in comp)
               and any(touches(clipped[i], hi_line) for i in comp)
               for comp in _components_ref(clipped))


def spans_ref(segs: Sequence[Seg], rect: Rect, *, vertical: bool) -> bool:
    """True iff one of ``segs`` alone joins two opposite sides of ``rect``,
    on exact rationals: its bottom and top when vertical, else its left and
    right.  Where this holds, ``curve_stabs_ref`` needs no component walk."""
    if vertical:
        return any(s.orientation == VERTICAL and rect.x_lo <= s.fixed <= rect.x_hi
                   and s.lo <= rect.y_lo and rect.y_hi <= s.hi for s in segs)
    return any(s.orientation == HORIZONTAL and rect.y_lo <= s.fixed <= rect.y_hi
               and s.lo <= rect.x_lo and rect.x_hi <= s.hi for s in segs)


def stab_case(rng: random.Random, rect: Rect, *, vertical: bool) -> RectilinearShape:
    """A random rectilinear shape drawn against ``rect``, a rectangle of
    positive width and height, on the sixths of its sides, for the paths of
    the stabbing test that no single spanning segment decides.  A piece
    *along* runs in the stabbing direction (vertical when ``vertical``), a
    piece *across* at right angles to it.  One of three kinds:

    * a staircase: two to four pieces along, end to end in that direction,
      from beyond the near side of ``rect`` to beyond the far side, joined
      by pieces across; sometimes a joint is dropped, one piece moved out of
      the rectangle, or the last piece ends short of the far side;
    * two halves: one piece along from the near side to a middle line, one
      from that line or a sixth past it to the far side, at two positions
      across that may coincide;
    * touches: one to three pieces that end on a side of ``rect`` from
      outside, or a sixth short of it.

    The shape need not be connected."""
    (a0, a1, b0, b1) = ((rect.x_lo, rect.x_hi, rect.y_lo, rect.y_hi) if vertical
                        else (rect.y_lo, rect.y_hi, rect.x_lo, rect.x_hi))

    def across_at(j: int) -> Rat:
        return a0 + (a1 - a0) * Fraction(j, 6)

    def along_at(j: int) -> Rat:
        return b0 + (b1 - b0) * Fraction(j, 6)

    def along(col: int, lo: int, hi: int) -> Seg:
        return (v_seg if vertical else h_seg)(across_at(col), along_at(lo), along_at(hi))

    def across(row: int, lo: int, hi: int) -> Seg:
        return (h_seg if vertical else v_seg)(along_at(row), across_at(lo), across_at(hi))

    kind = rng.choice(("staircase", "halves", "touches"))
    if kind == "staircase":
        m = rng.randint(2, 4)
        cols = [rng.randint(0, 6) for _ in range(m)]
        ends = [-rng.randint(0, 2), *sorted(rng.sample(range(1, 6), m - 1)), 6 + rng.randint(0, 2)]
        fault = rng.choice((None, "joint", "out", "short"))
        if fault == "out":
            cols[rng.randrange(m)] = rng.choice((-1, 7))
        if fault == "short":
            ends[-1] = rng.randint(ends[-2], 5)
        joints = [across(ends[i + 1], min(cols[i], cols[i + 1]), max(cols[i], cols[i + 1]))
                  for i in range(m - 1)]
        if fault == "joint":
            del joints[rng.randrange(m - 1)]
        segs = [along(cols[i], ends[i], ends[i + 1]) for i in range(m)] + joints
    elif kind == "halves":
        mid, gap = rng.randint(1, 5), rng.choice((0, 0, 1))
        segs = [along(rng.randint(0, 6), -rng.randint(0, 2), mid),
                along(rng.randint(0, 6), mid + gap, 6 + rng.randint(0, 2))]
    else:
        segs = []
        for _ in range(rng.randint(1, 3)):
            at, short = rng.randint(0, 6), rng.randint(0, 1)
            segs.append(rng.choice((along(at, -3, -short), along(at, 6 + short, 9),
                                    across(at, -3, -short), across(at, 6 + short, 9))))
    return RectilinearShape(tuple(segs))


def probe_of(rect: Rect, root: Rect, root_cut_x: Rat, pierced: Sequence[int]) -> Probe:
    """The probe with these Rects, cut and pierced set, its cut held as ints."""
    return Probe(rect, root, (root_cut_x.numerator, root_cut_x.denominator), tuple(pierced))


def replace(obj, **changes):
    """A record like ``obj`` with some of its fields changed: its class is
    called again, each other argument of its ``__init__`` read off ``obj``
    by name.  An argument that is no attribute (``Level``'s ``box``) keeps
    its default."""
    params = inspect.signature(type(obj)).parameters
    kept = {name: getattr(obj, name) for name in params if hasattr(obj, name)}
    return type(obj)(**{**kept, **changes})


def replace_probe(p: Probe, **changes) -> Probe:
    """``p`` with some of its ``rect``, ``root``, ``root_cut_x`` and
    ``pierced`` replaced: ``replace`` on the probe's Rects and its cut as a
    Fraction, which a probe keeps as an int pair."""
    fields = dict(rect=p.rect, root=p.root, root_cut_x=root_cut_x(p), pierced=p.pierced)
    return probe_of(**{**fields, **changes})


def probe_conditions_ref(probes: Sequence[Probe], copies: Sequence[TransformedCopy], bbox: Rect,
                         epsilon: Optional[Rat] = None) -> list[list[str]]:
    """``independent.probe_conditions`` on exact rationals: every probe
    against every copy through ``copy_meets_rect_ref``,
    ``copies_intersect_ref`` and ``curve_stabs_ref``, with no sweep, no
    grid and no memo, giving the same messages in the same order."""
    out: list[list[str]] = []
    for probe in probes:
        msgs: list[str] = []
        rect, root, cut = probe.rect, probe.root, root_cut_x(probe)
        if rect.is_degenerate:
            msgs.append("probe rectangle is degenerate")
        if not bbox.contains_rect(rect):
            msgs.append("probe leaves the family bounding box")
        if rect.x_hi != bbox.x_hi:
            msgs.append("probe does not touch the family's right side")
        if not (rect.x_lo < cut < rect.x_hi):
            msgs.append("root cut line is not interior to the probe")
        if (root.x_lo, root.x_hi, root.y_lo, root.y_hi) != (rect.x_lo, cut, rect.y_lo, rect.y_hi):
            msgs.append("root is not the left part of the probe at the cut line")
        if epsilon is not None:
            if root.width != root.height:
                msgs.append("root is not a square")
            if rect.width != (1 + epsilon) * rect.height:
                msgs.append("width/height ratio is not exactly 1+eps")
        actual = [i for i, c in enumerate(copies) if copy_meets_rect_ref(c, rect)]
        if actual != sorted(probe.pierced):
            msgs.append(f"pierced set mismatch: claimed {sorted(probe.pierced)}, actual {actual}")
        msgs.extend(f"pierced copies {a} and {b} intersect" for a, b in combinations(actual, 2)
                    if copies_intersect_ref(copies[a], copies[b]))
        msgs.extend(f"pierced copy {i} does not stab the probe vertically" for i in actual
                    if not curve_stabs_ref(copies[i].segments, rect, vertical=True))
        msgs.extend(f"root meets copy {i}" for i, c in enumerate(copies)
                    if copy_meets_rect_ref(c, root))
        out.append(msgs)
    return out


def diagonal_law_ref(base: Sequence[TransformedCopy], diagonals: Sequence[TransformedCopy],
                     probes: Sequence[Probe]) -> list[str]:
    """``independent.diagonal_law`` through ``copies_intersect_ref`` on every pair."""
    out = []
    for i, (diag, probe) in enumerate(zip(diagonals, probes, strict=True)):
        neighbors = [j for j, c in enumerate(base) if copies_intersect_ref(diag, c)]
        if set(neighbors) != set(probe.pierced):
            out.append(f"diagonal {i} meets {neighbors}, expected {sorted(probe.pierced)}")
    return out + [f"diagonals {i} and {j} intersect"
                  for i, j in combinations(range(len(diagonals)), 2)
                  if copies_intersect_ref(diagonals[i], diagonals[j])]


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
                if rects_meet(boxes[i], boxes[j])]
    return [(i, j) for i, a in enumerate(boxes) for j, b in enumerate(others)
            if rects_meet(a, b)]


def meeting_pairs(boxes: Sequence[Rect | TransformedCopy]) -> list[tuple[int, int]]:
    """The pairs (i, j), i < j, of closed boxes that meet, in sorted order,
    from one ``_sweep_pairs`` over the boxes lifted onto one grid.  A copy
    stands for its bounding box."""
    return sorted(_sweep_pairs(_on_one_grid(boxes)[1][0]))


def intersection_graph_bruteforce(copies: Sequence[TransformedCopy]) -> Graph:
    """The intersection graph from ``copies_intersect`` on every pair."""
    return Graph.from_edges(len(copies),
                            [(i, j) for i, j in combinations(range(len(copies)), 2)
                             if copies_intersect(copies[i], copies[j])])


def _stabs(c: TransformedCopy, r: Rect, *, vertical: bool) -> bool:
    grid = FamilyGrid([c], [r])
    return grid.stabs(0, grid.rect_boxes[0], vertical=vertical)


def stabs_vertically(c: TransformedCopy, r: Rect) -> bool:
    """True iff some connected part of ``c`` clipped to ``r`` joins r's
    bottom and top sides, decided on the grid of the two."""
    return _stabs(c, r, vertical=True)


def stabs_horizontally(c: TransformedCopy, r: Rect) -> bool:
    """True iff some connected part of ``c`` clipped to ``r`` joins r's
    left and right sides, decided on the grid of the two."""
    return _stabs(c, r, vertical=False)


def pierced_bruteforce(copies: Sequence[TransformedCopy], rect: Rect) -> list[int]:
    """Every copy meeting ``rect``, by testing each one."""
    return [i for i, c in enumerate(copies) if copy_meets_rect(c, rect)]


def step_contact_law_violations(prev: Level, level: Level,
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
        diag = make_diagonal_ref(p, shape, bbox)
        neighbors = [j for j, c in enumerate(prev.family) if copies_intersect(diag, c)]
        upper_pierced = pierced_bruteforce(prev.family, split_probe_ref(p)[0])
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


def is_triangle_free_bruteforce(g: Graph) -> bool:
    """No three vertices pairwise adjacent, by testing every triple."""
    return not any(b in g.adj[a] and c in g.adj[a] and c in g.adj[b]
                   for a, b, c in combinations(range(g.n), 3))


# The vertex-selection bodies that ``graphs`` replaced with its saturation
# buckets: every step scans all vertices for the maximum of
# (saturation, degree, -vertex), and the clique search scans range(n).
# The solver must return exactly what these return.

def _masks_ref(g: Graph) -> list[int]:
    return [sum(1 << v for v in g.adj[u]) for u in range(g.n)]


def max_clique_ref(g: Graph) -> tuple[int, ...]:
    if g.n == 0:
        return ()
    masks = _masks_ref(g)
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


def max_clique_recursive_ref(g: Graph) -> tuple[int, ...]:
    """``graphs.max_clique`` as one recursive call per clique vertex, with
    the same pivot rule and expansion order: exact, but a clique deeper than
    the recursion limit raises ``RecursionError``."""
    if g.n == 0:
        return ()
    masks = _masks_ref(g)
    best: list[int] = [0]

    def expand(r: list[int], p: int, x: int) -> None:
        if p == 0 and x == 0:
            if len(r) > len(best):
                best[:] = r
            return
        pool, pivot, covered = p | x, -1, -1
        while pool:
            low = pool & -pool
            u = low.bit_length() - 1
            count = (p & masks[u]).bit_count()
            if count > covered:
                pivot, covered = u, count
            pool ^= low
        cand = p & ~masks[pivot]
        while cand:
            low = cand & -cand
            u = low.bit_length() - 1
            expand(r + [u], p & masks[u], x & masks[u])
            p ^= low
            x |= low
            cand ^= low

    expand([], (1 << g.n) - 1, 0)
    return tuple(sorted(best))


def dsatur_order_coloring_ref(g: Graph) -> list[int]:
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


class _DeadlineRef(Exception):
    pass


def chromatic_number_ref(g: Graph, timeout: Optional[float] = None) -> ChromaticResult:
    if g.n == 0:
        return ChromaticResult(0, 0, True, (), ())
    clique = (min(((u, v) for u in range(g.n) for v in g.adj[u] if u < v), default=(0,))
              if is_triangle_free_bruteforce(g) else max_clique_ref(g))
    lb = len(clique)
    best = dsatur_order_coloring_ref(g)
    best_num = max(best)
    if best_num == lb:
        return ChromaticResult(lb, best_num, True, tuple(best), clique)

    deadline = time.monotonic() + timeout if timeout is not None else None
    colors = [0] * g.n
    neigh_colors: list[set[int]] = [set() for _ in range(g.n)]
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
            raise _DeadlineRef
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
    except _DeadlineRef:
        exact = False
    best_num = state["best"]
    witness = tuple(state["coloring"])
    assert verify_coloring(g, witness)
    if exact:
        return ChromaticResult(best_num, best_num, True, witness, clique)
    return ChromaticResult(lb, best_num, False, witness, clique)


def contains(a: Interval, b: Interval) -> bool:
    """True iff ``a`` holds ``b``, decided on the two intervals' ints."""
    return a.ilo * b.den <= b.ilo * a.den and b.ihi * a.den <= a.ihi * b.den


def contains_ref(a: Interval, b: Interval) -> bool:
    """``contains`` on the Fraction ends."""
    return a.lo <= b.lo and b.hi <= a.hi


def overlaps_ref(a: Interval, b: Interval) -> bool:
    """``game.overlaps`` on the Fraction ends: intersecting but not nested."""
    if a.hi < b.lo or b.hi < a.lo:
        return False
    return not (contains_ref(a, b) or contains_ref(b, a))


def neighbor_colors(transcript: GameTranscript, iv: Interval) -> set[int]:
    """The colors of ``iv``'s overlap neighbors in ``transcript``."""
    return {transcript.moves[i][1] for i in transcript.neighbors(iv)}


def replay(k: int, colors: Sequence[int]) -> tuple[GameTranscript, Optional[Interval]]:
    """Rebuild the state after the given Painter responses; returns the
    transcript so far and the next presented interval (None = game over)."""
    session = PresenterSession(k)
    transcript = GameTranscript()
    for color in colors:
        assert session.current is not None
        transcript.add(session.current, color)
        session.respond(color)
    return transcript, session.current


def game_tree_ref(k: int, budget: int) -> dict[tuple[int, ...], Position]:
    """``game.game_tree`` by replay: each history, in preorder, is played
    again from the root instead of forked from its parent's position."""
    tree: dict[tuple[int, ...], Position] = {}
    stack: list[tuple[int, ...]] = [()]
    while stack:
        colors = stack.pop()
        transcript, iv = replay(k, colors)
        legal: tuple[int, ...] = ()
        if iv is not None:
            forbidden = neighbor_colors(transcript, iv)
            top = min(max(colors, default=0) + 1, budget)
            legal = tuple(c for c in range(1, top + 1) if c not in forbidden)
        tree[colors] = Position(iv, legal)
        stack.extend(colors + (c,) for c in reversed(legal))
    return tree


def chain_at(transcript: GameTranscript, x: Rat) -> Chain:
    """The presented intervals meeting [x, infinity), in move order."""
    return tuple((iv, c) for iv, c in transcript.moves if iv.hi >= x)


def clique_number(g: Graph) -> int:
    if g.n == 0:
        return 0
    if g.m == 0:
        return 1
    if is_triangle_free(g):
        return 2
    return len(max_clique(g))


def greedy_coloring(g: Graph, order: Optional[Sequence[int]] = None) -> list[int]:
    """First-fit along the given order (default: vertex index order)."""
    order = list(order) if order is not None else list(range(g.n))
    colors = [0] * g.n
    for v in order:
        used = {colors[u] for u in g.adj[v] if colors[u]}
        c = 1
        while c in used:
            c += 1
        colors[v] = c
    assert verify_coloring(g, colors)
    return colors


def canonical_sha256(text: str) -> str:
    """The SHA-256 of the JSON document in ``text`` written as
    ``json.dumps(doc, indent=2)`` plus a newline: a digest of the document,
    whatever its whitespace, equal to that of a file in the indented
    layout."""
    canonical = json.dumps(json.loads(text), indent=2) + "\n"
    return hashlib.sha256(canonical.encode()).hexdigest()


def parse_dimacs(text: str) -> Graph:
    n = None
    edges: list[tuple[int, int]] = []
    for line in text.splitlines():
        line = line.strip()
        if not line or line.startswith("c"):
            continue
        parts = line.split()
        if parts[0] == "p":
            if len(parts) != 4 or parts[1] != "edge":
                raise ValueError(f"bad problem line: {line!r}")
            n = int(parts[2])
        elif parts[0] == "e":
            edges.append((int(parts[1]) - 1, int(parts[2]) - 1))
        else:
            raise ValueError(f"unknown dimacs line: {line!r}")
    if n is None:
        raise ValueError("missing problem line")
    return Graph.from_edges(n, edges)


@dataclass(frozen=True)
class ProbeAudit:
    per_probe: tuple[frozenset[int], ...]  # color set on each probe's pierced copies
    max_colors: int


def probe_coloring_audit(level: Level, coloring: Sequence[int]) -> ProbeAudit:
    """Color sets seen on each probe's pierced copies under a proper coloring.

    The coloring must be proper for the family's intersection graph or the
    audit refuses to run.
    """
    g = intersection_graph(level.family)
    if not verify_coloring(g, coloring):
        raise ValueError("coloring is not a proper coloring of the family")
    per_probe = tuple(frozenset(coloring[i] for i in p.pierced) for p in level.probes)
    return ProbeAudit(per_probe, max((len(s) for s in per_probe), default=0))


@dataclass(frozen=True)
class CertifyReport:
    k: int
    n: int
    triangle_free: bool
    chi: ChromaticResult

    @property
    def ok(self) -> bool:
        bound = self.chi.upper if self.chi.exact else self.chi.lower
        return self.triangle_free and bound >= self.k + 1


def certify(copies: Sequence[TransformedCopy], k: int,
            timeout: Optional[float] = None) -> CertifyReport:
    """Triangle-freeness and the exact chromatic number of the encoded
    family's frames ``copies``."""
    g = intersection_graph(copies)
    return CertifyReport(k, g.n, is_triangle_free(g), chromatic_number(g, timeout))
