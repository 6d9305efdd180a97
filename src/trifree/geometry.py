"""Exact rational plane primitives.

Coordinates are arbitrary-precision rationals (fractions.Fraction), so
every predicate in this module is decidable and exact.  All sets are
closed: a shared boundary point counts as an intersection.  Floats are
refused at construction time to keep the arithmetic honest.

These are the types that constructions, files and tests speak in: every
stored value, a Rect's sides and an XYTransform's fields, is a Fraction.
``shapes`` decides every contact on integer grids: ``lift`` puts
rationals on the grid of their least common denominator, and every
``Rect`` is lifted once, when it is made, so no query lifts it again.
``shapes.FamilyGrid`` then puts a whole family and its query rectangles
on one grid, once per check.

Fractions are made, not computed with, where ints can do the work:
``XYTransform.apply`` maps a Rect from its lift through ``axis_map``, so
each new side is one ratio of ints normalised once.  ``Rect`` checks
reversed sides on its lift and ``XYTransform`` positive scales on
numerators, each skipping ``as_rat`` when every field is a Fraction
already.  ``rect_map`` and a Point's or Seg's image still use Fraction
operators.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from fractions import Fraction
from math import lcm
from typing import Optional, Sequence, Union

Rat = Fraction

HORIZONTAL = "H"
VERTICAL = "V"

RatLike = Union[int, str, Fraction]

IntBox = tuple[int, int, int, int]  # (x_lo, x_hi, y_lo, y_hi) in units of 1/den
AxisMap = tuple[int, int, int]  # (a, b, q): the int v in units of 1/den goes to (a*v + b)/q


_RAT_TEXT = re.compile(r"(-?[0-9]+)(?:/([0-9]+))?")


def as_rat(value: RatLike) -> Rat:
    """Coerce an int, a Fraction, or a 'p' or 'p/q' string as ``rat_str``
    writes it to an exact rational; any other string raises ValueError.
    A value whose type is exactly Fraction is returned as it is."""
    if type(value) is Fraction:
        return value
    if isinstance(value, (int, Fraction)):
        return Fraction(value)
    if isinstance(value, str):
        match = _RAT_TEXT.fullmatch(value)
        if match is None or match[2] is not None and int(match[2]) == 0:
            raise ValueError(f"not a rational 'p' or 'p/q' with q > 0: {value!r}")
        return Fraction(int(match[1]), int(match[2] or 1))
    raise TypeError(f"not an exact rational: {value!r} (floats are refused)")


def rat_str(value: Rat) -> str:
    """Serialize a rational as 'p/q', with '/1' omitted for integers."""
    return str(value)


def lift(values: Sequence[Rat]) -> tuple[int, list[int]]:
    """The least common denominator of ``values`` and each value in its units."""
    den = lcm(*(v.denominator for v in values))
    return den, [v.numerator * (den // v.denominator) for v in values]


def _coerce(obj, names: tuple[str, ...]) -> tuple[Rat, ...]:
    """The fields ``names`` of the frozen dataclass ``obj``, each coerced
    by ``as_rat`` and stored back."""
    for name in names:
        object.__setattr__(obj, name, as_rat(getattr(obj, name)))
    return tuple(getattr(obj, name) for name in names)


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

    def bbox(self) -> "Rect":
        if self.orientation == HORIZONTAL:
            return Rect(self.lo, self.hi, self.fixed, self.fixed)
        return Rect(self.fixed, self.fixed, self.lo, self.hi)


def h_seg(y: RatLike, x0: RatLike, x1: RatLike) -> Seg:
    return Seg(HORIZONTAL, as_rat(y), as_rat(x0), as_rat(x1))


def v_seg(x: RatLike, y0: RatLike, y1: RatLike) -> Seg:
    return Seg(VERTICAL, as_rat(x), as_rat(y0), as_rat(y1))


@dataclass(frozen=True)
class Rect:
    """A closed axis-aligned rectangle, possibly degenerate.  ``den`` and
    ``int_box`` are its sides' ``lift``, made once, when it is made."""

    x_lo: Rat
    x_hi: Rat
    y_lo: Rat
    y_hi: Rat
    den: int = field(init=False, compare=False, repr=False)
    int_box: IntBox = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        sides = self.x_lo, self.x_hi, self.y_lo, self.y_hi
        if not type(sides[0]) is type(sides[1]) is type(sides[2]) is type(sides[3]) is Fraction:
            sides = _coerce(self, ("x_lo", "x_hi", "y_lo", "y_hi"))
        den, box = lift(sides)
        if box[0] > box[1] or box[2] > box[3]:
            raise ValueError(f"rectangle sides reversed: {self}")
        object.__setattr__(self, "den", den)
        object.__setattr__(self, "int_box", tuple(box))

    @property
    def width(self) -> Rat:
        return self.x_hi - self.x_lo

    @property
    def height(self) -> Rat:
        return self.y_hi - self.y_lo

    @property
    def is_degenerate(self) -> bool:
        return self.width == 0 or self.height == 0

    def contains_rect(self, other: "Rect") -> bool:
        return (self.x_lo <= other.x_lo and other.x_hi <= self.x_hi
                and self.y_lo <= other.y_lo and other.y_hi <= self.y_hi)

    def interior_contains_rect(self, other: "Rect") -> bool:
        return (self.x_lo < other.x_lo and other.x_hi < self.x_hi
                and self.y_lo < other.y_lo and other.y_hi < self.y_hi)

    def concentric(self, fx: RatLike, fy: RatLike) -> "Rect":
        """The rectangle with the same center and side fractions fx, fy."""
        fx, fy = as_rat(fx), as_rat(fy)
        dx = self.width * (1 - fx) / 2
        dy = self.height * (1 - fy) / 2
        return Rect(self.x_lo + dx, self.x_hi - dx, self.y_lo + dy, self.y_hi - dy)


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


def axis_map(scale: Rat, shift: Rat, den: int) -> AxisMap:
    """(a, b, q) with scale * (v / den) + shift == (a * v + b) / q for every int v."""
    p, q = scale.numerator, scale.denominator
    r, s = shift.numerator, shift.denominator
    return p * s, r * q * den, q * s * den


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
        sx, sy, tx, ty = self.sx, self.sy, self.tx, self.ty
        if not type(sx) is type(sy) is type(tx) is type(ty) is Fraction:
            sx, sy, tx, ty = _coerce(self, ("sx", "sy", "tx", "ty"))
        if sx.numerator <= 0 or sy.numerator <= 0:
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

    @property
    def is_uniform(self) -> bool:
        return self.sx == self.sy

    def apply(self, obj):
        """Apply to a Point, Seg, or Rect.  A Rect is mapped on its lift:
        each side is (a*v + b) / q for its int v, one normalisation each."""
        if isinstance(obj, Rect):
            den, (x0, x1, y0, y1) = obj.den, obj.int_box
            ax, bx, qx = axis_map(self.sx, self.tx, den)
            ay, by, qy = axis_map(self.sy, self.ty, den)
            return Rect(Fraction(ax * x0 + bx, qx), Fraction(ax * x1 + bx, qx),
                        Fraction(ay * y0 + by, qy), Fraction(ay * y1 + by, qy))
        if isinstance(obj, Point):
            return Point(self.x(obj.x), self.y(obj.y))
        if isinstance(obj, Seg):
            if obj.orientation == HORIZONTAL:
                return Seg(HORIZONTAL, self.y(obj.fixed), self.x(obj.lo), self.x(obj.hi))
            return Seg(VERTICAL, self.x(obj.fixed), self.y(obj.lo), self.y(obj.hi))
        raise TypeError(f"cannot transform {type(obj).__name__}")
