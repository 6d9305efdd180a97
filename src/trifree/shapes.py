"""Shape catalog and exact stabbing predicates on integer grids.

A base shape is a connected union of closed axis-aligned segments.  Each
catalog entry declares the structure that the recursive constructions
consume and that cannot be read off the segments (``ShapeFeatures``):

* ``empty_rect`` a rectangle E interior to the shape's bounding box U and
  disjoint from the shape,
* a *left stabber*, a curve of the shape crossing the strip left of E
  from the left side of U to the line through E's left edge,
* a *right stabber*, a curve crossing the band right of E from the line
  through E's top edge to the line through its bottom edge.

U, and the widths w1 (E's left gap in U) and w2 (U's width) that the
independent recursion scales by, are derived from the shape and E when
the features are made.  ``validate_features`` checks the declarations
exactly; violations are data, not exceptions.

Every shape and copy is lifted once, when it is made, onto the grid of
multiples of 1/den, den the least common denominator of its coordinates.
A shape keeps its segments there as integer tuples ``(orientation,
fixed, lo, hi)`` (``int_segs``), its bounding box as ``int_box``,
``(x_lo, x_hi, y_lo, y_hi)``, both in units of 1/den, and its distinct x
and y ints as ``axes``, with each segment as positions in them
(``slots``); a ``Rect`` is its own ``den`` and ``int_box`` alone, and
every box below is made from ints (``geometry.grid_rect``).  A copy holds
ints only: its placement as two axis maps (a, b, q) in lowest terms
(``geometry.lowest``) and its ``axes``, each of the base's x and y ints
mapped once; its box is their ends.  ``rebase``
and ``make_diagonal``'s closed form compose and lift on ints, and a
copy's Fractions (its ``segments``) are made only on request.  Every
contact, clip and stabbing decision compares Python ints, in one set of
kernels that take boxes and segments already on one grid.
Whether a copy meets a box is one scan that allocates nothing
(``_meets``), and a probe check scans each copy near it once
(``_pierce``): does the copy meet the probe rectangle, does one of its
segments span the rectangle, does it meet the root.  A spanning segment
(``_spans``) is a connected piece that touches both sides, so it decides
a stab alone; only a copy with no such segment is clipped (``_clip``)
and its pieces walked into components (``_crosses``, which tries
``_spans`` on the pieces first).  The segment-pair test ``_curves_meet``
decides contacts, and skips the segments of one copy that miss the
other's box.

``FamilyGrid`` is the one way a copy's segments are made for a
decision: it puts copies (or shapes) and the rectangles checked against
them on the grid of their least common denominator, scales each copy's
axes onto it once and reads the base's slots on them, and runs the
kernels there.  A family check lifts its family once; the feature checks,
through ``copy_meets_rect``, and ``copies_intersect``, which only the
benchmark and the tests call, each make a grid of one or two objects.  A
grid's ``contacts`` finds the closed boxes that meet with one sweep in y
(``_sweep_pairs``) over its copies and any query boxes, and runs the
exact contact test on the pairs of copies alone; a level check reads
everything from that one pass.

The frame entry additionally carries an *anchored* variant used by the
uniform-scaling construction: a copy of the shape inside the open-ended
unit square together with closed-form rules producing, for every
rational eps in (0,1), an eps-empty square and matching stabbers.
"""

from __future__ import annotations

from bisect import bisect_right
from fractions import Fraction
from functools import cache
from math import gcd, lcm
from typing import Iterable, Iterator, Optional, Sequence

from .geometry import (
    HORIZONTAL,
    AxisMap,
    VERTICAL,
    IntBox,
    Rat,
    Rect,
    Seg,
    grid_rect,
    h_seg,
    lift,
    lowest,
    map_rect,
    v_seg,
)
from .record import Record, Value, set_field

IntSeg = tuple[str, int, int, int]  # (orientation, fixed, lo, hi) in units of 1/den


def _segs_meet(s: IntSeg, t: IntSeg) -> bool:
    """True iff two closed segments on one grid share a point."""
    o, f, lo, hi = s
    o2, f2, lo2, hi2 = t
    if o == o2:
        return f == f2 and lo <= hi2 and lo2 <= hi
    return lo <= f2 <= hi and lo2 <= f <= hi2


def _scaled_box(box: IntBox, m: int) -> IntBox:
    if m == 1:
        return box
    x0, x1, y0, y1 = box
    return x0 * m, x1 * m, y0 * m, y1 * m


def _components(segs: Sequence[IntSeg]) -> list[list[int]]:
    """Connected components of segments on one grid under pairwise meeting."""
    n = len(segs)
    parent = list(range(n))

    def find(i: int) -> int:
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for i in range(n):
        for j in range(i + 1, n):
            if _segs_meet(segs[i], segs[j]):
                ri, rj = find(i), find(j)
                if ri != rj:
                    parent[rj] = ri
    groups: dict[int, list[int]] = {}
    for i in range(n):
        groups.setdefault(find(i), []).append(i)
    return list(groups.values())


def _clip(box: IntBox, segs: Sequence[IntSeg]) -> list[IntSeg]:
    """The closed parts of ``segs`` inside ``box``, both on one grid."""
    x0, x1, y0, y1 = box
    out: list[IntSeg] = []
    for o, f, lo, hi in segs:
        if o == HORIZONTAL:
            inside, lo, hi = y0 <= f <= y1, max(lo, x0), min(hi, x1)
        else:
            inside, lo, hi = x0 <= f <= x1, max(lo, y0), min(hi, y1)
        if inside and lo <= hi:
            out.append((o, f, lo, hi))
    return out


def _meets(box: IntBox, segs: Sequence[IntSeg]) -> bool:
    """True iff some segment of ``segs`` meets ``box``, both on one grid."""
    x0, x1, y0, y1 = box
    for o, f, lo, hi in segs:
        if (y0 <= f <= y1 and lo <= x1 and x0 <= hi if o == HORIZONTAL
                else x0 <= f <= x1 and lo <= y1 and y0 <= hi):
            return True
    return False


def _spans(box: IntBox, segs: Sequence[IntSeg], *, vertical: bool) -> bool:
    """True iff one segment of ``segs`` alone joins two opposite sides of
    ``box``, both on one grid: a vertical segment in the box's x range
    covering [y0, y1] when vertical, a horizontal one in its y range
    covering [x0, x1] otherwise.  Such a segment is a connected piece that
    touches both sides, so it stabs the box; clipping to the box keeps it
    spanning, so the test reads clipped and unclipped segments alike."""
    x0, x1, y0, y1 = box
    if vertical:
        for o, f, lo, hi in segs:
            if o == VERTICAL and x0 <= f <= x1 and lo <= y0 and y1 <= hi:
                return True
    else:
        for o, f, lo, hi in segs:
            if o == HORIZONTAL and y0 <= f <= y1 and lo <= x0 and x1 <= hi:
                return True
    return False


def _pierce(rect: IntBox, root: IntBox, segs: Sequence[IntSeg]) -> tuple[bool, bool, bool]:
    """One pass over ``segs`` against a probe's rectangle and root, all on
    one grid: (the segments meet ``rect``, one of them spans it vertically
    as in ``_spans``, they meet ``root``)."""
    x0, x1, y0, y1 = rect
    r0, r1, r2, r3 = root
    meets = spans = rooted = False
    for o, f, lo, hi in segs:
        if o == HORIZONTAL:
            if y0 <= f <= y1 and lo <= x1 and x0 <= hi:
                meets = True
            if r2 <= f <= r3 and lo <= r1 and r0 <= hi:
                rooted = True
        else:
            if x0 <= f <= x1 and lo <= y1 and y0 <= hi:
                meets = True
                if lo <= y0 and y1 <= hi:
                    spans = True
            if r0 <= f <= r1 and lo <= r3 and r2 <= hi:
                rooted = True
    return meets, spans, rooted


def _crosses(box: IntBox, pieces: Sequence[IntSeg], *, vertical: bool) -> bool:
    """True iff some connected component of ``pieces``, segments already
    clipped to ``box`` on its grid, joins the two opposite sides of the
    box: top/bottom when vertical, left/right otherwise.  A single piece
    that spans the box (``_spans``) decides it before the component walk."""
    if _spans(box, pieces, vertical=vertical):
        return True
    x0, x1, y0, y1 = box
    lo_line, hi_line, axis = (y0, y1, VERTICAL) if vertical else (x0, x1, HORIZONTAL)

    def touches(s: IntSeg, line: int) -> bool:
        o, f, lo, hi = s
        return lo <= line <= hi if o == axis else f == line

    return any(any(touches(pieces[i], lo_line) for i in comp)
               and any(touches(pieces[i], hi_line) for i in comp)
               for comp in _components(pieces))


def _curves_meet(segs_a: Sequence[IntSeg], segs_b: Sequence[IntSeg], box_b: IntBox) -> bool:
    """True iff some segment of ``segs_a`` meets some segment of ``segs_b``,
    all on one grid, ``box_b`` the box of ``segs_b``: the contact test of two
    copies whose boxes meet.  A shared point lies in ``box_b``, so a segment
    of ``segs_a`` that misses it is skipped before the segment-pair loop: of
    two nested frames, the outer one's sides all miss the inner box, and 16
    segment tests become 4 box tests."""
    x0, x1, y0, y1 = box_b
    for s in segs_a:
        o, f, lo, hi = s
        if (y0 <= f <= y1 and lo <= x1 and x0 <= hi if o == HORIZONTAL
                else x0 <= f <= x1 and lo <= y1 and y0 <= hi):
            for t in segs_b:
                if _segs_meet(s, t):
                    return True
    return False


class RectilinearShape(Record):
    """A nonempty, connected union of closed axis-aligned segments, with
    its segments and bounding box also kept on the grid of 1/den: ``axes``
    are its distinct x and y ints, ascending, and ``slots`` its segments
    as positions in them."""

    def __init__(self, segments: Iterable[Seg]) -> None:
        segments = tuple(segments)
        if not segments:
            raise ValueError("a shape needs at least one segment")
        den, ints = lift([v for s in segments for v in (s.fixed, s.lo, s.hi)])
        segs = tuple((s.orientation, *ints[3 * i:3 * i + 3]) for i, s in enumerate(segments))
        xs = sorted({v for o, f, lo, hi in segs for v in ((lo, hi) if o == HORIZONTAL else (f,))})
        ys = sorted({v for o, f, lo, hi in segs for v in ((f,) if o == HORIZONTAL else (lo, hi))})
        x, y = ({v: i for i, v in enumerate(vs)} for vs in (xs, ys))
        set_field(self, "segments", segments)
        set_field(self, "den", den)
        set_field(self, "int_segs", segs)
        set_field(self, "int_box", (xs[0], xs[-1], ys[0], ys[-1]))
        set_field(self, "axes", (tuple(xs), tuple(ys)))
        set_field(self, "slots", tuple(_on_axes(s, x, y) for s in segs))

    def bbox(self) -> Rect:
        return grid_rect(self.den, self.int_box)

    def is_connected(self) -> bool:
        return len(_components(self.int_segs)) == 1


def _on_axes(s: IntSeg, x: Sequence[int] | dict, y: Sequence[int] | dict) -> IntSeg:
    """``s`` with each x int v read as x[v] and each y int as y[v]."""
    o, f, lo, hi = s
    return (o, y[f], x[lo], x[hi]) if o == HORIZONTAL else (o, x[f], y[lo], y[hi])


class ShapeFeatures(Record):
    """The empty rectangle E and the two stabbers declared for ``shape``,
    with what they imply worked out once, when the features are made: the
    box U of the shape, w1 = E.x_lo - U.x_lo and w2 = U.width."""

    def __init__(self, shape: RectilinearShape, empty_rect: Rect,
                 left_stabber: Iterable[Seg], right_stabber: Iterable[Seg]) -> None:
        bbox = shape.bbox()
        set_field(self, "shape", shape)
        set_field(self, "bbox", bbox)
        set_field(self, "empty_rect", empty_rect)
        set_field(self, "left_stabber", tuple(left_stabber))
        set_field(self, "right_stabber", tuple(right_stabber))
        set_field(self, "w1", empty_rect.x_lo - bbox.x_lo)
        set_field(self, "w2", bbox.width)

    def left_strip(self) -> Rect:
        """V_L: from U's left edge to the line through E's left edge."""
        return Rect(self.bbox.x_lo, self.empty_rect.x_lo, self.bbox.y_lo, self.bbox.y_hi)

    def right_band(self) -> Rect:
        """V_R: from the line through E's right edge to U's right edge."""
        return Rect(self.empty_rect.x_hi, self.bbox.x_hi,
                    self.empty_rect.y_lo, self.empty_rect.y_hi)


def _covers(shape: RectilinearShape, s: Seg) -> bool:
    """True iff the closed segment ``s`` lies in the shape: the shape's
    pieces inside s, projected onto s's axis, leave no gap in it."""
    (x0, x1, y0, y1), pieces = _inside(shape, s.bbox())
    reach, end = (x0, x1) if s.orientation == HORIZONTAL else (y0, y1)
    for lo, hi in sorted((lo, hi) if o == s.orientation else (f, f)
                         for o, f, lo, hi in pieces):
        if lo > reach:
            return False
        reach = max(reach, hi)
    return bool(pieces) and reach == end


def _stabber_faults(shape: RectilinearShape, stabber: Sequence[Seg], region: Rect,
                    *, vertical: bool) -> list[str]:
    """Why ``stabber`` fails condition iv (vertical, across the right band
    ``region``) or iii (horizontal, across the left strip); empty if valid."""
    cond, side, where = (("iv", "right", "right band") if vertical
                         else ("iii", "left", "left strip"))
    if not stabber:
        return [f"{cond}: no {side} stabber declared"]
    out: list[str] = []
    if not all(region.contains_rect(s.bbox()) for s in stabber):
        out.append(f"{cond}: {side} stabber leaves the {where}")
    if not all(_covers(shape, s) for s in stabber):
        out.append(f"{cond}: {side} stabber is not part of the shape")
    if not _crosses(*_inside(RectilinearShape(stabber), region), vertical=vertical):
        out.append(f"{cond}: {side} stabber does not cross the {where}")
    return out


def validate_features(feats: ShapeFeatures) -> list[str]:
    """Check the features against their shape exactly; an empty list
    means valid.

    The empty-rectangle condition (ii) and the two stabbing conditions
    (iii)/(iv) are checked on the declared data.  Bookkeeping checks on
    the bounding box and connectivity are reported with their own
    prefixes.
    """
    shape, u, e = feats.shape, feats.bbox, feats.empty_rect
    out: list[str] = []
    if u.is_degenerate:
        out.append("bbox: bounding box is degenerate")
    if not shape.is_connected():
        out.append("connected: segment union is not connected")

    if not u.interior_contains_rect(e):
        out.append("ii: empty rectangle is not in the interior of the bounding box")
    if copy_meets_rect(shape, e):
        out.append("ii: empty rectangle meets the shape")

    out.extend(_stabber_faults(shape, feats.left_stabber, feats.left_strip(), vertical=False))
    out.extend(_stabber_faults(shape, feats.right_stabber, feats.right_band(), vertical=True))
    return out


class TransformedCopy(Value):
    """A placed copy of a base shape, in ints: two axis maps plus a
    provenance tag, held in slots (a copy has no instance dict).

    ``x_map`` and ``y_map`` are the copy's placement, each an axis map
    (a, b, q) for u -> (a*u + b)/q, a > 0 and q > 0, kept in lowest terms
    (``geometry.lowest``): two copies are equal iff they have the same
    shape, axis maps and lineage.  The copy is lifted once, when it is
    made, onto the grid of 1/den, den the least common denominator of its
    coordinates: ``axes`` are the images of its base's distinct x and y
    ints, each mapped once, and its box is their ends.  Its segments on
    that grid (``int_segs``, the base's ``slots`` read on ``axes``) and as
    Fractions (``segments``) are made on each call, never on a build, load
    or check path: ``FamilyGrid`` reads the slots on the axes scaled to its
    grid.
    """

    __slots__ = ("shape_id", "base", "x_map", "y_map", "lineage", "den", "axes")

    def __init__(self, shape_id: str, base: RectilinearShape, x_map: AxisMap = (1, 0, 1),
                 y_map: AxisMap = (1, 0, 1), lineage: str = "outer"):
        (ax, bx, qx), (ay, by, qy) = x_map, y_map = lowest(x_map), lowest(y_map)
        if ax <= 0 or ay <= 0:
            raise ValueError(f"scale factors must be positive: "
                             f"sx={Fraction(ax, qx)}, sy={Fraction(ay, qy)}")
        # the base int v is v/d, which goes to (a*v + b*d)/(q*d); both axes
        # over one denominator, lcm(qx, qy)*d
        (bxs, bys), d = base.axes, base.den
        g = gcd(qx, qy)
        ux, uy = qy // g, qx // g
        ax, bx, ay, by = ax * ux, bx * ux * d, ay * uy, by * uy * d
        xs, ys = [ax * v + bx for v in bxs], [ay * v + by for v in bys]
        den = qx * ux * d
        g = gcd(den, *xs, *ys)  # den over what it shares with every int is the least one
        if g > 1:
            den, xs, ys = den // g, [v // g for v in xs], [v // g for v in ys]
        set_field(self, "shape_id", shape_id)
        set_field(self, "base", base)
        set_field(self, "x_map", x_map)
        set_field(self, "y_map", y_map)
        set_field(self, "lineage", lineage)
        set_field(self, "den", den)
        set_field(self, "axes", (tuple(xs), tuple(ys)))

    def _key(self) -> tuple:
        return self.shape_id, self.x_map, self.y_map, self.lineage

    @property
    def int_box(self) -> IntBox:
        xs, ys = self.axes
        return xs[0], xs[-1], ys[0], ys[-1]

    @property
    def slots(self) -> tuple[IntSeg, ...]:
        return self.base.slots

    @property
    def int_segs(self) -> tuple[IntSeg, ...]:
        xs, ys = self.axes
        return tuple(_on_axes(s, xs, ys) for s in self.base.slots)

    @property
    def is_uniform(self) -> bool:
        """True iff the copy is a homothet: its x and y scales are equal."""
        return self.x_map[0] * self.y_map[2] == self.y_map[0] * self.x_map[2]

    @property
    def segments(self) -> tuple[Seg, ...]:
        """The copy's segments as exact rationals, ``int_segs`` over ``den``,
        made on each call."""
        den = self.den
        return tuple(Seg(o, Fraction(f, den), Fraction(lo, den), Fraction(hi, den))
                     for o, f, lo, hi in self.int_segs)

    @property
    def bbox(self) -> Rect:
        return grid_rect(self.den, self.int_box)

    def apply(self, r: Rect) -> Rect:
        """The image of ``r``, a rectangle in the base's coordinates."""
        return map_rect(self.x_map, self.y_map, r)

    def rebase(self, maps: tuple[AxisMap, AxisMap],
               lineage: Optional[str] = None) -> "TransformedCopy":
        """The same copy pushed through one more placement, the axis maps
        ``maps``: each axis map (a, b, q) followed by (A, B, Q) is
        (A*a, A*b + B*q, Q*q)."""
        (ax, bx, qx), (ay, by, qy) = self.x_map, self.y_map
        (Ax, Bx, Qx), (Ay, By, Qy) = maps
        return TransformedCopy(self.shape_id, self.base, (Ax * ax, Ax * bx + Bx * qx, Qx * qx),
                               (Ay * ay, Ay * by + By * qy, Qy * qy),
                               lineage if lineage is not None else self.lineage)


def _on_one_grid(*groups: Sequence[Rect | TransformedCopy]
                 ) -> tuple[int, list[list[IntBox]]]:
    """The boxes of each group (a copy stands for its bounding box) in
    units of 1/den, den the least common denominator of all of them."""
    den = lcm(*{b.den for group in groups for b in group})
    return den, [[_scaled_box(b.int_box, den // b.den) for b in group] for group in groups]


def _sweep_pairs(boxes: Sequence[IntBox]) -> Iterator[tuple[int, int]]:
    """The pairs (i, j), i < j, of closed boxes on one grid that meet, in
    the sweep's order.  One sweep in y: each box is paired with the boxes
    after it in bottom-edge order whose bottom lies in its y range (found
    by bisection), so each pair that overlaps in y is met once and only
    those compare x ranges."""
    order = sorted(range(len(boxes)), key=lambda i: boxes[i][2])
    bottoms = [boxes[i][2] for i in order]
    for pos, i in enumerate(order):
        a = boxes[i]
        for j in order[pos + 1:bisect_right(bottoms, a[3], pos + 1)]:
            b = boxes[j]
            if a[0] <= b[1] and b[0] <= a[1]:
                yield (i, j) if i < j else (j, i)


def box_hull(boxes: Iterable[IntBox]) -> IntBox:
    """The smallest box holding every box given, all on one grid."""
    x0, x1, y0, y1 = zip(*boxes)
    return min(x0), max(x1), min(y0), max(y1)


def family_bbox(copies: Sequence[Rect | TransformedCopy]) -> Rect:
    """The smallest box holding every copy (and rectangle) given."""
    den, (grid,) = _on_one_grid(copies)
    return grid_rect(den, box_hull(grid))


class FamilyGrid:
    """A family's copies and the rectangles checked against them, on one
    integer grid: multiples of 1/den, den the least common denominator of
    all of them.  Each copy's box and segments are put on it once, when the
    grid is made (``boxes[i]``, ``segs[i]``): its ``axes`` are scaled onto
    the grid and its base's ``slots`` read on them, so a segment's ints are
    its box's, and a frame's segments hold no int of their own.  Each
    rectangle's box is scaled onto it too (``rect_boxes``, in the order
    given).  Every decision below compares ints on this grid.  A
    ``RectilinearShape`` goes on it as a copy does.
    """

    def __init__(self, copies: Sequence[TransformedCopy | RectilinearShape],
                 rects: Sequence[Rect] = ()):
        self.den = den = lcm(*{c.den for c in copies}, *{r.den for r in rects})
        self.boxes: list[IntBox] = []
        self.segs: list[tuple[IntSeg, ...]] = []
        for c in copies:
            (xs, ys), m = c.axes, den // c.den
            if m != 1:
                xs, ys = [v * m for v in xs], [v * m for v in ys]
            self.boxes.append((xs[0], xs[-1], ys[0], ys[-1]))
            self.segs.append(tuple([_on_axes(s, xs, ys) for s in c.slots]))
        self.rect_boxes = [_scaled_box(r.int_box, den // r.den) for r in rects]

    def meets(self, i: int, box: IntBox) -> bool:
        """True iff copy i meets ``box``, a box on this grid."""
        return _meets(box, self.segs[i])

    def stabs(self, i: int, box: IntBox, *, vertical: bool) -> bool:
        """True iff copy i clipped to ``box``, a box on this grid, crosses it.
        A probe check asks only after ``pierce`` found no spanning segment,
        so the copy is clipped at once."""
        return _crosses(box, _clip(box, self.segs[i]), vertical=vertical)

    def pierce(self, i: int, rect: IntBox, root: IntBox) -> tuple[bool, bool, bool]:
        """Copy i against a probe's rectangle and root, boxes on this grid,
        in one pass: whether it meets the rectangle, whether one of its
        segments spans the rectangle vertically, whether it meets the root."""
        return _pierce(rect, root, self.segs[i])

    def contacts(self, start: int = 0, queries: Sequence[IntBox] = ()
                 ) -> tuple[list[tuple[int, int]], list[list[int]]]:
        """One sweep over the copies' boxes followed by ``queries``, boxes on
        this grid numbered on from the copies.  Returns the sorted pairs
        (i, j), i < j, of copies that share a point, the one place two
        copies are decided to meet, and for each query the ascending
        indices of the copies and earlier queries whose boxes meet its box.
        With ``start``, only the copy pairs with j >= start are decided and
        returned: those that hold a copy from index ``start`` on, such as
        the diagonals that follow a checked base family."""
        boxes, segs, n = self.boxes, self.segs, len(self.boxes)
        pairs: list[tuple[int, int]] = []
        hits: list[list[int]] = [[] for _ in queries]
        for i, j in _sweep_pairs([*boxes, *queries]):
            if j >= n:
                hits[j - n].append(i)
            elif j >= start and _curves_meet(segs[i], segs[j], boxes[j]):
                pairs.append((i, j))
        pairs.sort()
        for h in hits:
            h.sort()
        return pairs, hits


def _inside(c: TransformedCopy | RectilinearShape, r: Rect) -> tuple[IntBox, list[IntSeg]]:
    """``r``'s box on the grid of ``c`` and ``r``, and the closed parts of
    ``c`` inside it."""
    grid = FamilyGrid([c], [r])
    box = grid.rect_boxes[0]
    return box, _clip(box, grid.segs[0])


def copies_intersect(a: TransformedCopy, b: TransformedCopy) -> bool:
    """True iff the two closed copies share a point (exact)."""
    return bool(FamilyGrid([a, b]).contacts()[0])


def copy_meets_rect(c: TransformedCopy | RectilinearShape, r: Rect) -> bool:
    """True iff the closed copy (or shape) meets the closed rectangle (exact)."""
    grid = FamilyGrid([c], [r])
    return grid.meets(0, grid.rect_boxes[0])


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
    if copy_meets_rect(anchor.shape, e):
        out.append("ii: empty square meets the shape")

    if _stabber_faults(anchor.shape, anchor.left_stabber(eps),
                       Rect(u.x_lo, e.x_lo, u.y_lo, u.y_hi), vertical=False):
        out.append("iii: left eps-stabber invalid")
    if _stabber_faults(anchor.shape, anchor.right_stabber(eps),
                       Rect(e.x_hi, u.x_hi, e.y_lo, e.y_hi), vertical=True):
        out.append("iv: right eps-stabber invalid")
    return out


class ShapeDef(Record):
    def __init__(self, name: str, features: ShapeFeatures,
                 anchor: Optional[AnchoredFrame] = None) -> None:
        set_field(self, "name", name)
        set_field(self, "shape", features.shape)
        set_field(self, "features", features)
        set_field(self, "anchor", anchor)


def _corner_features(shape: RectilinearShape) -> ShapeFeatures:
    """E = [1/4, 3/4]^2, stabbed by the bottom edge on its left and the
    right edge on its right: the features of the frame and the L-shape."""
    q = Fraction(1, 4)
    return ShapeFeatures(shape, Rect(q, 3 * q, q, 3 * q), (h_seg(0, 0, q),),
                         (v_seg(1, q, 3 * q),))


def _frame_def() -> ShapeDef:
    shape = RectilinearShape((h_seg(0, 0, 1), h_seg(1, 0, 1), v_seg(0, 0, 1), v_seg(1, 0, 1)))
    return ShapeDef("frame", _corner_features(shape), anchor=AnchoredFrame())


def _lshape_def() -> ShapeDef:
    # Stored pre-mirrored: bottom plus right edge, so the right band of E
    # actually contains a vertical stabber.
    shape = RectilinearShape((h_seg(0, 0, 1), v_seg(1, 0, 1)))
    return ShapeDef("lshape", _corner_features(shape))


def _cross_def() -> ShapeDef:
    half = Fraction(1, 2)
    e = Fraction(1, 8)
    shape = RectilinearShape((h_seg(half, 0, 1), v_seg(half, 0, 1)))
    return ShapeDef("cross", ShapeFeatures(shape, Rect(e, 3 * e, e, 3 * e),
                                           (h_seg(half, 0, e),), (v_seg(half, e, 3 * e),)))


@cache
def catalog() -> dict[str, ShapeDef]:
    """Named base shapes with validated features."""
    defs = [_frame_def(), _lshape_def(), _cross_def()]
    for d in defs:
        bad = validate_features(d.features)
        if bad:
            raise AssertionError(f"catalog shape {d.name!r} invalid: {bad}")
    return {d.name: d for d in defs}
