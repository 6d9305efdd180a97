"""Shape catalog and exact stabbing predicates.

A base shape is a connected union of closed axis-aligned segments.  Each
catalog entry declares, rather than derives, the structure that the
recursive constructions consume:

* ``bbox``       the bounding box U of the material,
* ``empty_rect`` a rectangle E interior to U and disjoint from the shape,
* a *left stabber*, a curve of the shape crossing the strip left of E
  from the left side of U to the line through E's left edge,
* a *right stabber*, a curve crossing the band right of E from the line
  through E's top edge to the line through its bottom edge.

``validate_features`` checks all of that exactly; violations are data,
not exceptions.  ``stabs_vertically``/``stabs_horizontally`` generalize
the stabbing notion to transformed copies clipped to a query rectangle.
``meeting_pairs`` and ``boxes_meeting`` find the closed boxes that meet
with one exact sweep in y, so callers run the exact predicates on those
pairs alone.

The frame entry additionally carries an *anchored* variant used by the
uniform-scaling construction: a copy of the shape inside the open-ended
unit square together with closed-form rules producing, for every
rational eps in (0,1), an eps-empty square and matching stabbers.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cache
from typing import Iterable, Optional, Sequence

from .geometry import (
    HORIZONTAL,
    VERTICAL,
    Point,
    Rat,
    Rect,
    Seg,
    XYTransform,
    clip_seg_to_rect,
    h_seg,
    rect_union_all,
    seg_intersect,
    v_seg,
)


@dataclass(frozen=True)
class RectilinearShape:
    """A nonempty, connected union of closed axis-aligned segments."""

    segments: tuple[Seg, ...]

    def __post_init__(self):
        object.__setattr__(self, "segments", tuple(self.segments))
        if not self.segments:
            raise ValueError("a shape needs at least one segment")

    def bbox(self) -> Rect:
        return rect_union_all(s.bbox() for s in self.segments)

    def is_connected(self) -> bool:
        return len(_components(self.segments)) == 1


@dataclass(frozen=True)
class ShapeFeatures:
    bbox: Rect
    empty_rect: Rect
    left_stabber: tuple[Seg, ...]
    right_stabber: tuple[Seg, ...]
    w1: Rat
    w2: Rat

    def __post_init__(self):
        object.__setattr__(self, "left_stabber", tuple(self.left_stabber))
        object.__setattr__(self, "right_stabber", tuple(self.right_stabber))

    def left_strip(self) -> Rect:
        """V_L: from U's left edge to the line through E's left edge."""
        return Rect(self.bbox.x_lo, self.empty_rect.x_lo, self.bbox.y_lo, self.bbox.y_hi)

    def right_band(self) -> Rect:
        """V_R: from the line through E's right edge to U's right edge."""
        return Rect(self.empty_rect.x_hi, self.bbox.x_hi,
                    self.empty_rect.y_lo, self.empty_rect.y_hi)


def _components(segs: Sequence[Seg]) -> list[set[int]]:
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


def _merge_ranges(ranges: list[tuple[Rat, Rat]]) -> list[tuple[Rat, Rat]]:
    out: list[tuple[Rat, Rat]] = []
    for lo, hi in sorted(ranges):
        if out and lo <= out[-1][1]:
            out[-1] = (out[-1][0], max(out[-1][1], hi))
        else:
            out.append((lo, hi))
    return out


def segment_covered(shape_segments: Sequence[Seg], s: Seg) -> bool:
    """True iff the closed segment s lies inside the union of shape segments."""
    if s.is_point:
        p = Point(s.fixed, s.lo) if s.orientation == VERTICAL else Point(s.lo, s.fixed)
        return any(t.contains_point(p) for t in shape_segments)
    collinear = [(max(t.lo, s.lo), min(t.hi, s.hi))
                 for t in shape_segments
                 if t.orientation == s.orientation and t.fixed == s.fixed
                 and max(t.lo, s.lo) <= min(t.hi, s.hi)]
    merged = _merge_ranges(collinear)
    return len(merged) == 1 and merged[0][0] <= s.lo and merged[0][1] >= s.hi


def curve_stabs(segs: Iterable[Seg], rect: Rect, *, vertical: bool) -> bool:
    """True iff some connected component of segs clipped to rect joins the
    two opposite sides of rect: top/bottom when vertical, left/right otherwise."""
    clipped = [c for s in segs if (c := clip_seg_to_rect(s, rect)) is not None]
    if not clipped:
        return False
    if vertical:
        lo_line, hi_line = rect.y_lo, rect.y_hi
        touch_axis = VERTICAL
    else:
        lo_line, hi_line = rect.x_lo, rect.x_hi
        touch_axis = HORIZONTAL

    def touches(s: Seg, line: Rat) -> bool:
        if s.orientation == touch_axis:
            return s.lo <= line <= s.hi
        return s.fixed == line

    for comp in _components(clipped):
        if any(touches(clipped[i], lo_line) for i in comp) and \
           any(touches(clipped[i], hi_line) for i in comp):
            return True
    return False


def validate_features(shape: RectilinearShape, feats: ShapeFeatures) -> list[str]:
    """Check the declared features exactly; an empty list means valid.

    The empty-rectangle condition (ii) and the two stabbing conditions
    (iii)/(iv) are checked on the declared data.  Bookkeeping checks on
    the bounding box, connectivity, and the derived widths w1/w2 are
    reported with their own prefixes.
    """
    out: list[str] = []
    u = feats.bbox
    if shape.bbox() != u:
        out.append("bbox: declared bounding box differs from the segments' bounds")
    if u.is_degenerate:
        out.append("bbox: bounding box is degenerate")
    if not shape.is_connected():
        out.append("connected: segment union is not connected")

    e = feats.empty_rect
    if not u.interior_contains_rect(e):
        out.append("ii: empty rectangle is not in the interior of the bounding box")
    if any(clip_seg_to_rect(s, e) is not None for s in shape.segments):
        out.append("ii: empty rectangle meets the shape")

    vl = feats.left_strip()
    if not feats.left_stabber:
        out.append("iii: no left stabber declared")
    else:
        if any(clip_seg_to_rect(s, vl) != s for s in feats.left_stabber):
            out.append("iii: left stabber leaves the left strip")
        if not all(segment_covered(shape.segments, s) for s in feats.left_stabber):
            out.append("iii: left stabber is not part of the shape")
        if not curve_stabs(feats.left_stabber, vl, vertical=False):
            out.append("iii: left stabber does not cross the left strip")

    vr = feats.right_band()
    if not feats.right_stabber:
        out.append("iv: no right stabber declared")
    else:
        if any(clip_seg_to_rect(s, vr) != s for s in feats.right_stabber):
            out.append("iv: right stabber leaves the right band")
        if not all(segment_covered(shape.segments, s) for s in feats.right_stabber):
            out.append("iv: right stabber is not part of the shape")
        if not curve_stabs(feats.right_stabber, vr, vertical=True):
            out.append("iv: right stabber does not cross the right band")

    if feats.w1 != e.x_lo - u.x_lo:
        out.append("w1: does not equal the E-to-U left gap")
    if feats.w2 != u.width:
        out.append("w2: does not equal the bounding box width")
    return out


@dataclass(frozen=True)
class TransformedCopy:
    """A placed copy of a base shape: transform plus provenance tag."""

    shape_id: str
    base: RectilinearShape = field(compare=False)
    transform: XYTransform = XYTransform.identity()
    lineage: str = "outer"
    segments: tuple[Seg, ...] = field(init=False, compare=False, repr=False)
    bbox: Rect = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        segs = tuple(self.transform.apply(s) for s in self.base.segments)
        object.__setattr__(self, "segments", segs)
        object.__setattr__(self, "bbox", rect_union_all(s.bbox() for s in segs))

    def rebase(self, after: XYTransform, lineage: Optional[str] = None) -> "TransformedCopy":
        """The same copy pushed through one more transform."""
        return TransformedCopy(self.shape_id, self.base,
                               self.transform.then(after),
                               lineage if lineage is not None else self.lineage)


def copies_intersect(a: TransformedCopy, b: TransformedCopy) -> bool:
    """True iff the two closed copies share a point (exact)."""
    if not a.bbox.intersects(b.bbox):
        return False
    for s in a.segments:
        for t in b.segments:
            if seg_intersect(s, t) is not None:
                return True
    return False


def copy_meets_rect(c: TransformedCopy, r: Rect) -> bool:
    if not c.bbox.intersects(r):
        return False
    return any(clip_seg_to_rect(s, r) is not None for s in c.segments)


def _by_bottom(boxes: Sequence[Rect]) -> tuple[list[int], list[Rat]]:
    """Indices of ``boxes`` in order of their bottom edges, and those bottoms."""
    order = sorted(range(len(boxes)), key=lambda i: boxes[i].y_lo)
    return order, [boxes[i].y_lo for i in order]


def _x_ranges_meet(a: Rect, b: Rect) -> bool:
    return a.x_lo <= b.x_hi and b.x_lo <= a.x_hi


def meeting_pairs(boxes: Sequence[Rect]) -> list[tuple[int, int]]:
    """The pairs (i, j), i < j, of closed boxes that meet, in sorted order.

    One exact sweep in y: each box is paired with the boxes after it in
    bottom-edge order whose bottom lies in its y range (found by bisection),
    so each pair that overlaps in y is met once and only those compare x
    ranges.
    """
    order, bottoms = _by_bottom(boxes)
    out: list[tuple[int, int]] = []
    for pos, i in enumerate(order):
        a = boxes[i]
        for j in order[pos + 1:bisect_right(bottoms, a.y_hi, pos + 1)]:
            if _x_ranges_meet(a, boxes[j]):
                out.append((i, j) if i < j else (j, i))
    out.sort()
    return out


def boxes_meeting(queries: Sequence[Rect], boxes: Sequence[Rect]) -> list[list[int]]:
    """For each query box, the ascending indices of the ``boxes`` it meets.

    The same sweep across two lists: of two boxes that overlap in y,
    exactly one has its bottom in the other's y range (a query's when the
    bottoms tie), so each pair is met once, from one side.
    """
    q_order, q_bottoms = _by_bottom(queries)
    b_order, b_bottoms = _by_bottom(boxes)
    out: list[list[int]] = [[] for _ in queries]
    for i, q in enumerate(queries):
        lo = bisect_left(b_bottoms, q.y_lo)
        out[i].extend(j for j in b_order[lo:bisect_right(b_bottoms, q.y_hi, lo)]
                      if _x_ranges_meet(q, boxes[j]))
    for j, b in enumerate(boxes):
        lo = bisect_right(q_bottoms, b.y_lo)
        for i in q_order[lo:bisect_right(q_bottoms, b.y_hi, lo)]:
            if _x_ranges_meet(queries[i], b):
                out[i].append(j)
    for near in out:
        near.sort()
    return out


def stabs_vertically(c: TransformedCopy, r: Rect) -> bool:
    return curve_stabs(c.segments, r, vertical=True)


def stabs_horizontally(c: TransformedCopy, r: Rect) -> bool:
    return curve_stabs(c.segments, r, vertical=False)


def family_bbox(copies: Sequence[TransformedCopy]) -> Rect:
    return rect_union_all(c.bbox for c in copies)


class AnchoredFrame:
    """The anchored representative of the rectangular frame.

    The material is the boundary of [0,1] x [1/4,3/4], held inside the
    bounding square [0,1] x (0,1).  The eps-empty square uses the width
    rule xi(eps) = eps / (2*(1+eps)), which keeps (1+eps)*xi(eps) =
    eps/2 < eps for every eps in (0,1), and sits at horizontal distance
    eps*xi(eps) from the square's right side.
    """

    def __init__(self):
        q = Fraction(1, 4)
        self.shape = RectilinearShape((
            h_seg(q, 0, 1),
            h_seg(3 * q, 0, 1),
            v_seg(0, q, 3 * q),
            v_seg(1, q, 3 * q),
        ))
        self.bounding_square = Rect(0, 1, 0, 1)

    @staticmethod
    def _check_eps(eps: Rat) -> None:
        if not (0 < eps < 1):
            raise ValueError(f"eps must lie in (0,1): {eps}")

    def xi(self, eps: Rat) -> Rat:
        self._check_eps(eps)
        return eps / (2 * (1 + eps))

    def empty_square(self, eps: Rat) -> Rect:
        xi = self.xi(eps)
        x_hi = 1 - eps * xi
        half = Fraction(1, 2)
        return Rect(x_hi - xi, x_hi, half - xi / 2, half + xi / 2)

    def left_stabber(self, eps: Rat) -> tuple[Seg, ...]:
        e = self.empty_square(eps)
        return (h_seg(Fraction(1, 4), 0, e.x_lo),)

    def right_stabber(self, eps: Rat) -> tuple[Seg, ...]:
        e = self.empty_square(eps)
        return (v_seg(1, e.y_lo, e.y_hi),)


def anchored_violations(anchor: AnchoredFrame, eps: Rat) -> list[str]:
    """Check the anchoring conditions for one eps value exactly."""
    out: list[str] = []
    u = anchor.bounding_square
    mat = anchor.shape.bbox()
    if not (u.contains_rect(mat) and u.y_lo < mat.y_lo and mat.y_hi < u.y_hi):
        out.append("i: shape leaves the open-ended bounding square")

    e = anchor.empty_square(eps)
    xi = anchor.xi(eps)
    if e.width != xi or e.height != xi:
        out.append("ii: empty square is not a square of width xi")
    if not u.contains_rect(e):
        out.append("ii: empty square leaves the bounding square")
    if (1 + eps) * xi >= eps:
        out.append("ii: (1+eps)*xi(eps) is not below eps")
    if u.x_hi - e.x_hi != eps * xi:
        out.append("ii: right-side gap is not eps*xi(eps)")
    if any(clip_seg_to_rect(s, e) is not None for s in anchor.shape.segments):
        out.append("ii: empty square meets the shape")

    vl = Rect(u.x_lo, e.x_lo, u.y_lo, u.y_hi)
    ls = anchor.left_stabber(eps)
    if any(clip_seg_to_rect(s, vl) != s for s in ls) or \
       not all(segment_covered(anchor.shape.segments, s) for s in ls) or \
       not curve_stabs(ls, vl, vertical=False):
        out.append("iii: left eps-stabber invalid")

    vr = Rect(e.x_hi, u.x_hi, e.y_lo, e.y_hi)
    rs = anchor.right_stabber(eps)
    if any(clip_seg_to_rect(s, vr) != s for s in rs) or \
       not all(segment_covered(anchor.shape.segments, s) for s in rs) or \
       not curve_stabs(rs, vr, vertical=True):
        out.append("iv: right eps-stabber invalid")
    return out


@dataclass(frozen=True)
class ShapeDef:
    name: str
    shape: RectilinearShape
    features: ShapeFeatures
    anchor: Optional[AnchoredFrame] = field(default=None, compare=False)


def _frame_def() -> ShapeDef:
    q = Fraction(1, 4)
    shape = RectilinearShape((h_seg(0, 0, 1), h_seg(1, 0, 1), v_seg(0, 0, 1), v_seg(1, 0, 1)))
    feats = ShapeFeatures(
        bbox=Rect(0, 1, 0, 1),
        empty_rect=Rect(q, 3 * q, q, 3 * q),
        left_stabber=(h_seg(0, 0, q),),
        right_stabber=(v_seg(1, q, 3 * q),),
        w1=q,
        w2=Fraction(1),
    )
    return ShapeDef("frame", shape, feats, anchor=AnchoredFrame())


def _lshape_def() -> ShapeDef:
    # Stored pre-mirrored: bottom plus right edge, so the right band of E
    # actually contains a vertical stabber.
    q = Fraction(1, 4)
    shape = RectilinearShape((h_seg(0, 0, 1), v_seg(1, 0, 1)))
    feats = ShapeFeatures(
        bbox=Rect(0, 1, 0, 1),
        empty_rect=Rect(q, 3 * q, q, 3 * q),
        left_stabber=(h_seg(0, 0, q),),
        right_stabber=(v_seg(1, q, 3 * q),),
        w1=q,
        w2=Fraction(1),
    )
    return ShapeDef("lshape", shape, feats)


def _cross_def() -> ShapeDef:
    half = Fraction(1, 2)
    e = Fraction(1, 8)
    shape = RectilinearShape((h_seg(half, 0, 1), v_seg(half, 0, 1)))
    feats = ShapeFeatures(
        bbox=Rect(0, 1, 0, 1),
        empty_rect=Rect(e, 3 * e, e, 3 * e),
        left_stabber=(h_seg(half, 0, e),),
        right_stabber=(v_seg(half, e, 3 * e),),
        w1=e,
        w2=Fraction(1),
    )
    return ShapeDef("cross", shape, feats)


@cache
def catalog() -> dict[str, ShapeDef]:
    """Named base shapes with validated features."""
    defs = [_frame_def(), _lshape_def(), _cross_def()]
    for d in defs:
        bad = validate_features(d.shape, d.features)
        if bad:
            raise AssertionError(f"catalog shape {d.name!r} invalid: {bad}")
    return {d.name: d for d in defs}
