"""Exact rational plane primitives.

Coordinates are arbitrary-precision rationals (fractions.Fraction), so
every predicate in this module is decidable and exact.  All sets are
closed: a shared boundary point counts as an intersection.  Floats are
refused at construction time to keep the arithmetic honest.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from typing import Iterable, Optional, Union

Rat = Fraction

HORIZONTAL = "H"
VERTICAL = "V"

RatLike = Union[int, str, Fraction]


def as_rat(value: RatLike) -> Rat:
    """Coerce an int, a 'p/q' string, or a Fraction to an exact rational."""
    if isinstance(value, (int, Fraction)):
        return Fraction(value)
    if isinstance(value, str):
        return Fraction(value)
    raise TypeError(f"not an exact rational: {value!r} (floats are refused)")


def rat_str(value: Rat) -> str:
    """Serialize a rational as 'p/q', with '/1' omitted for integers."""
    return str(value)


@dataclass(frozen=True)
class Point:
    x: Rat
    y: Rat

    def __post_init__(self):
        object.__setattr__(self, "x", as_rat(self.x))
        object.__setattr__(self, "y", as_rat(self.y))


@dataclass(frozen=True)
class Seg:
    """A closed axis-aligned segment.

    ``fixed`` is the constant coordinate (y for horizontal, x for vertical)
    and ``lo..hi`` the varying range.  Zero-length segments (points) are
    permitted; clipping can produce them and the predicates stay well
    defined.
    """

    orientation: str
    fixed: Rat
    lo: Rat
    hi: Rat

    def __post_init__(self):
        if self.orientation not in (HORIZONTAL, VERTICAL):
            raise ValueError(f"bad orientation: {self.orientation!r}")
        object.__setattr__(self, "fixed", as_rat(self.fixed))
        object.__setattr__(self, "lo", as_rat(self.lo))
        object.__setattr__(self, "hi", as_rat(self.hi))
        if self.lo > self.hi:
            raise ValueError(f"segment range reversed: {self.lo} > {self.hi}")

    @property
    def is_point(self) -> bool:
        return self.lo == self.hi

    def bbox(self) -> "Rect":
        if self.orientation == HORIZONTAL:
            return Rect(self.lo, self.hi, self.fixed, self.fixed)
        return Rect(self.fixed, self.fixed, self.lo, self.hi)

    def contains_point(self, p: Point) -> bool:
        if self.orientation == HORIZONTAL:
            return p.y == self.fixed and self.lo <= p.x <= self.hi
        return p.x == self.fixed and self.lo <= p.y <= self.hi


def h_seg(y: RatLike, x0: RatLike, x1: RatLike) -> Seg:
    return Seg(HORIZONTAL, as_rat(y), as_rat(x0), as_rat(x1))


def v_seg(x: RatLike, y0: RatLike, y1: RatLike) -> Seg:
    return Seg(VERTICAL, as_rat(x), as_rat(y0), as_rat(y1))


@dataclass(frozen=True)
class Rect:
    """A closed axis-aligned rectangle, possibly degenerate."""

    x_lo: Rat
    x_hi: Rat
    y_lo: Rat
    y_hi: Rat

    def __post_init__(self):
        for name in ("x_lo", "x_hi", "y_lo", "y_hi"):
            object.__setattr__(self, name, as_rat(getattr(self, name)))
        if self.x_lo > self.x_hi or self.y_lo > self.y_hi:
            raise ValueError(f"rectangle sides reversed: {self}")

    @property
    def width(self) -> Rat:
        return self.x_hi - self.x_lo

    @property
    def height(self) -> Rat:
        return self.y_hi - self.y_lo

    @property
    def is_degenerate(self) -> bool:
        return self.width == 0 or self.height == 0

    def contains_point(self, p: Point) -> bool:
        return self.x_lo <= p.x <= self.x_hi and self.y_lo <= p.y <= self.y_hi

    def contains_rect(self, other: "Rect") -> bool:
        return (self.x_lo <= other.x_lo and other.x_hi <= self.x_hi
                and self.y_lo <= other.y_lo and other.y_hi <= self.y_hi)

    def interior_contains_rect(self, other: "Rect") -> bool:
        return (self.x_lo < other.x_lo and other.x_hi < self.x_hi
                and self.y_lo < other.y_lo and other.y_hi < self.y_hi)

    def intersects(self, other: "Rect") -> bool:
        return not (self.x_hi < other.x_lo or other.x_hi < self.x_lo
                    or self.y_hi < other.y_lo or other.y_hi < self.y_lo)

    def union(self, other: "Rect") -> "Rect":
        return Rect(min(self.x_lo, other.x_lo), max(self.x_hi, other.x_hi),
                    min(self.y_lo, other.y_lo), max(self.y_hi, other.y_hi))

    def concentric(self, fx: RatLike, fy: RatLike) -> "Rect":
        """The rectangle with the same center and side fractions fx, fy."""
        fx, fy = as_rat(fx), as_rat(fy)
        dx = self.width * (1 - fx) / 2
        dy = self.height * (1 - fy) / 2
        return Rect(self.x_lo + dx, self.x_hi - dx, self.y_lo + dy, self.y_hi - dy)


def rect_union_all(rects: Iterable[Rect]) -> Rect:
    out: Optional[Rect] = None
    for r in rects:
        out = r if out is None else out.union(r)
    if out is None:
        raise ValueError("empty rectangle union")
    return out


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


def seg_intersect(a: Seg, b: Seg) -> Optional[Union[Point, Seg]]:
    """Exact intersection of two closed axis-aligned segments.

    Returns a Point for a single shared point, a Seg for a collinear
    overlap, or None.  Symmetric in its arguments.
    """
    if a.orientation == b.orientation:
        if a.fixed != b.fixed:
            return None
        lo = max(a.lo, b.lo)
        hi = min(a.hi, b.hi)
        if lo > hi:
            return None
        if lo == hi:
            if a.orientation == HORIZONTAL:
                return Point(lo, a.fixed)
            return Point(a.fixed, lo)
        return Seg(a.orientation, a.fixed, lo, hi)
    h, v = (a, b) if a.orientation == HORIZONTAL else (b, a)
    if h.lo <= v.fixed <= h.hi and v.lo <= h.fixed <= v.hi:
        return Point(v.fixed, h.fixed)
    return None


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


@dataclass(frozen=True)
class XYTransform:
    """Axis-independent positive scaling followed by translation.

    Maps (x, y) to (sx*x + tx, sy*y + ty).  Only positive scale factors
    are admitted, so orientation and axis alignment are preserved and no
    reflections can sneak in.
    """

    sx: Rat
    sy: Rat
    tx: Rat
    ty: Rat

    def __post_init__(self):
        for name in ("sx", "sy", "tx", "ty"):
            object.__setattr__(self, name, as_rat(getattr(self, name)))
        if self.sx <= 0 or self.sy <= 0:
            raise ValueError(f"scale factors must be positive: sx={self.sx}, sy={self.sy}")

    @classmethod
    def identity(cls) -> "XYTransform":
        return cls(Fraction(1), Fraction(1), Fraction(0), Fraction(0))

    @classmethod
    def rect_map(cls, src: Rect, dst: Rect) -> "XYTransform":
        """The transform carrying src onto dst exactly.  src must be fat."""
        if src.width == 0 or src.height == 0:
            raise ValueError("source rectangle is degenerate")
        sx = dst.width / src.width
        sy = dst.height / src.height
        return cls(sx, sy, dst.x_lo - sx * src.x_lo, dst.y_lo - sy * src.y_lo)

    def x(self, v: Rat) -> Rat:
        return self.sx * v + self.tx

    def y(self, v: Rat) -> Rat:
        return self.sy * v + self.ty

    def then(self, after: "XYTransform") -> "XYTransform":
        """The composite transform: self first, then ``after``."""
        return XYTransform(after.sx * self.sx, after.sy * self.sy,
                           after.sx * self.tx + after.tx,
                           after.sy * self.ty + after.ty)

    @property
    def is_uniform(self) -> bool:
        return self.sx == self.sy

    def apply(self, obj):
        """Apply to a Point, Seg, or Rect."""
        if isinstance(obj, Point):
            return Point(self.x(obj.x), self.y(obj.y))
        if isinstance(obj, Seg):
            if obj.orientation == HORIZONTAL:
                return Seg(HORIZONTAL, self.y(obj.fixed), self.x(obj.lo), self.x(obj.hi))
            return Seg(VERTICAL, self.x(obj.fixed), self.y(obj.lo), self.y(obj.hi))
        if isinstance(obj, Rect):
            return Rect(self.x(obj.x_lo), self.x(obj.x_hi), self.y(obj.y_lo), self.y(obj.y_hi))
        raise TypeError(f"cannot transform {type(obj).__name__}")
