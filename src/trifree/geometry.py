"""Exact rational plane primitives.

Coordinates are arbitrary-precision rationals (fractions.Fraction), so
every predicate in this module is decidable and exact.  All sets are
closed: a shared boundary point counts as an intersection.  Floats are
refused at construction time to keep the arithmetic honest.

A Rect's sides are Fractions.  A placement is two axis maps, each
(a, b, q) for u -> (a*u + b)/q (``axis_map``, ``lowest``): a placed copy
(``shapes.TransformedCopy``) holds its two maps and its lift, ints only.
``shapes`` decides every contact on integer grids: ``lift`` puts
rationals on the grid of their least common denominator, and every
``Rect`` is lifted once, when it is made, so no query lifts it again.
``shapes.FamilyGrid`` then puts a whole family and its query rectangles
on one grid, once per check.

Fractions are made, not computed with, where ints can do the work: the
maps carrying one Rect onto another are read off the two lifts
(``rect_map``).  A ``Lift`` is a rectangle's lift alone; it stands in for
the Rect wherever only the lift is read, and ``lift_pairs`` makes one
from four int pairs (p, q), reduced or not, with no Fraction: a rectangle
read from a file, whose rationals are spelt 'p' or 'p/q' (``rat_pair``),
and the image of a rectangle under two axis maps (``map_lift``, and
``map_rect`` for its Rect).  ``Rect`` checks reversed sides on its lift,
skipping ``as_rat`` when every side is a Fraction already.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from fractions import Fraction
from math import gcd, lcm
from typing import NamedTuple, Optional, Sequence, Union

Rat = Fraction

HORIZONTAL = "H"
VERTICAL = "V"

RatLike = Union[int, str, Fraction]

IntBox = tuple[int, int, int, int]  # (x_lo, x_hi, y_lo, y_hi) in units of 1/den
AxisMap = tuple[int, int, int]  # (a, b, q), q > 0: the rational u goes to (a*u + b)/q


_RAT_TEXT = re.compile(r"(-?[0-9]+)(?:/([0-9]+))?")


def rat_pair(text: str) -> tuple[int, int]:
    """The ints (p, q) of a 'p' or 'p/q' string as ``rat_str`` writes it,
    q > 0 and not reduced; any other string raises ValueError."""
    match = _RAT_TEXT.fullmatch(text)
    if match is not None:
        p, q = match.groups()
        q = int(q) if q is not None else 1
        if q:
            return int(p), q
    raise ValueError(f"not a rational 'p' or 'p/q' with q > 0: {text!r}")


def as_rat(value: RatLike) -> Rat:
    """Coerce an int, a Fraction, or a 'p' or 'p/q' string (``rat_pair``)
    to an exact rational; a bool, a float or any other value raises
    TypeError.  A value whose type is exactly Fraction is returned as it is."""
    if type(value) is Fraction:
        return value
    if isinstance(value, (int, Fraction)) and type(value) is not bool:
        return Fraction(value)
    if isinstance(value, str):
        return Fraction(*rat_pair(value))
    refused = " (floats are refused)" if isinstance(value, float) else ""
    raise TypeError(f"not an exact rational: {value!r}{refused}")


def rat_str(value: Rat) -> str:
    """Serialize a rational as 'p/q', with '/1' omitted for integers."""
    return str(value)


def lift(values: Sequence[Rat]) -> tuple[int, list[int]]:
    """The least common denominator of ``values`` and each value in its units."""
    dens = [v.denominator for v in values]
    den = lcm(*dens)
    return den, [v.numerator * (den // d) for v, d in zip(values, dens)]


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
            sides = tuple(map(as_rat, sides))
            for name, value in zip(("x_lo", "x_hi", "y_lo", "y_hi"), sides):
                object.__setattr__(self, name, value)
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


class Lift(NamedTuple):
    """A rectangle as its lift alone: its sides are ``int_box`` over ``den``,
    den least, exactly a ``Rect``'s ``den`` and ``int_box``.  It stands in
    for the Rect wherever only those two are read (``map_lift``,
    ``shapes.FamilyGrid``, ``shapes.family_bbox``); ``rect`` makes the Rect."""

    den: int
    int_box: IntBox

    @property
    def rect(self) -> Rect:
        den = self.den
        return Rect(*(Fraction(v, den) for v in self.int_box))

    def contains(self, other: Rect | Lift) -> bool:
        """``Rect.contains_rect`` on the two lifts, by cross-multiplication."""
        (d, (x0, x1, y0, y1)), e = self, other.den
        u0, u1, v0, v1 = other.int_box
        return x0 * e <= u0 * d and u1 * d <= x1 * e and y0 * e <= v0 * d and v1 * d <= y1 * e


def lift_pairs(x_lo: tuple[int, int], x_hi: tuple[int, int],
               y_lo: tuple[int, int], y_hi: tuple[int, int]) -> Lift:
    """The lift of the rectangle whose sides are the pairs (p, q), q > 0,
    reduced or not, equal to ``Rect``'s: over D, the lcm of the q's, each
    side is p*(D/q), and one gcd takes D down to the least denominator.
    Reversed sides raise ``Rect``'s ValueError."""
    (a, qa), (b, qb), (c, qc), (d, qd) = x_lo, x_hi, y_lo, y_hi
    den = lcm(qa, qb, qc, qd)
    a, b, c, d = a * (den // qa), b * (den // qb), c * (den // qc), d * (den // qd)
    g = gcd(den, a, b, c, d)
    if g > 1:
        den, a, b, c, d = den // g, a // g, b // g, c // g, d // g
    lifted = Lift(den, (a, b, c, d))
    if a > b or c > d:
        _ = lifted.rect  # Rect refuses the reversed sides with its own message
    return lifted


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


def axis_map(scale: Rat, shift: Rat) -> AxisMap:
    """(a, b, q) with scale * u + shift == (a * u + b) / q for every rational u."""
    p, q = scale.numerator, scale.denominator
    r, s = shift.numerator, shift.denominator
    return p * s, r * q, q * s


def lowest(m: AxisMap) -> AxisMap:
    """The axis map ``m``, q > 0, in lowest terms: the one (a, b, q) with
    gcd 1 for its map, so two maps are equal iff their lowest forms are."""
    g = gcd(*m)
    return m if g == 1 else (m[0] // g, m[1] // g, m[2] // g)


def map_lift(x_map: AxisMap, y_map: AxisMap, r: Rect | Lift) -> Lift:
    """The lift of the image of ``r`` under the two axis maps, made from r's
    lift: the int v goes to (a*v + b*den) / (q*den), and ``lift_pairs``
    puts the four sides on their least grid."""
    den, (x0, x1, y0, y1) = r.den, r.int_box
    (ax, bx, qx), (ay, by, qy) = x_map, y_map
    bx, qx, by, qy = bx * den, qx * den, by * den, qy * den
    return lift_pairs((ax * x0 + bx, qx), (ax * x1 + bx, qx),
                      (ay * y0 + by, qy), (ay * y1 + by, qy))


def map_rect(x_map: AxisMap, y_map: AxisMap, r: Rect | Lift) -> Rect:
    """The image of ``r`` under the two axis maps, made from its lift
    (``map_lift``)."""
    return map_lift(x_map, y_map, r).rect


def rect_map(src: Rect, dst: Rect) -> tuple[AxisMap, AxisMap]:
    """The axis maps carrying ``src`` onto ``dst`` exactly, made from the
    two lifts: on each axis the side (s0, s1) over sd goes to (d0, d1) over
    dd by a = (d1-d0)*sd, b = d0*(s1-s0) - (d1-d0)*s0, q = dd*(s1-s0).
    ``src`` must be fat."""
    sd, (sx0, sx1, sy0, sy1) = src.den, src.int_box
    dd, (dx0, dx1, dy0, dy1) = dst.den, dst.int_box
    if sx0 == sx1 or sy0 == sy1:
        raise ValueError("source rectangle is degenerate")
    return tuple(lowest(((d1 - d0) * sd, d0 * (s1 - s0) - (d1 - d0) * s0, dd * (s1 - s0)))
                 for s0, s1, d0, d1 in ((sx0, sx1, dx0, dx1), (sy0, sy1, dy0, dy1)))
