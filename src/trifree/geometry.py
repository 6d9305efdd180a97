"""Exact rational plane primitives.

Coordinates are arbitrary-precision rationals (fractions.Fraction), so
every predicate in this module is decidable and exact.  All sets are
closed: a shared boundary point counts as an intersection.  Floats are
refused at construction time to keep the arithmetic honest.

A Rect is its lift alone: ``den``, the least common denominator of its
sides, and ``int_box``, each side in units of 1/den, so equal Rects have
equal lifts; its sides are Fractions made on request.  A placement is two
axis maps, each (a, b, q) for u -> (a*u + b)/q, made on ints and kept in
lowest terms (``lowest``): a placed copy (``shapes.TransformedCopy``)
holds its two maps and its lift, ints only.  ``shapes`` decides every
contact on integer grids: ``lift`` puts rationals on the grid of their
least common denominator, and ``shapes.FamilyGrid`` puts a whole family
and its query rectangles on one grid, once per check.

Fractions are made, not computed with, where ints can do the work.
``grid_rect`` and ``lift_pairs`` make a Rect from ints with no Fraction:
from a box over one denominator, or from four int pairs (p, q), reduced
or not, such as a rectangle read from a file, whose rationals are spelt
'p' or 'p/q' (``rat_pair``).  The image of a Rect under two axis maps
(``map_rect``), the maps carrying one Rect onto another (``rect_map``)
and containment are all decided on the lifts.
"""

from __future__ import annotations

import re
import sys
from fractions import Fraction
from math import gcd, lcm
from typing import Optional, Sequence, Union

from .record import Value, set_field

Rat = Fraction

HORIZONTAL = "H"
VERTICAL = "V"

RatLike = Union[int, str, Fraction]

IntBox = tuple[int, int, int, int]  # (x_lo, x_hi, y_lo, y_hi) in units of 1/den
AxisMap = tuple[int, int, int]  # (a, b, q), q > 0: the rational u goes to (a*u + b)/q


_RAT_TEXT = re.compile(r"(-?[0-9]+)(?:/([0-9]+))?")


def rat_pair(text: str) -> tuple[int, int]:
    """The ints (p, q) of a 'p' or 'p/q' string as ``rat_str`` writes it,
    q > 0 and not reduced; any other string, or one with more digits than
    Python converts (``digit_limit_error``), raises ValueError."""
    match = _RAT_TEXT.fullmatch(text)
    if match is not None:
        p, q = match.groups()
        try:
            p, q = int(p), int(q) if q is not None else 1
        except ValueError:
            shown = f"{text[:20]}...{text[-20:]}"
            raise digit_limit_error(max(len(p.lstrip("-")), len(q or "")), shown) from None
        if q:
            return p, q
    raise ValueError(f"not a rational 'p' or 'p/q' with q > 0: {text!r}")


def digit_limit_error(digits: int, shown: str) -> ValueError:
    """The ValueError for a rational, ``shown`` by the ends of its text,
    whose longest int has ``digits`` decimal digits: more than Python
    converts to or from text (``sys.get_int_max_str_digits``)."""
    return ValueError(f"rational {shown} has {digits:,} decimal digits, more than the "
                      f"{sys.get_int_max_str_digits():,} that Python converts")


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


class Point(Value):
    def __init__(self, x: RatLike, y: RatLike) -> None:
        set_field(self, "x", as_rat(x))
        set_field(self, "y", as_rat(y))

    def _key(self) -> tuple:
        return self.x, self.y


class Seg(Value):
    """A closed axis-aligned segment.

    ``fixed`` is the constant coordinate (y for horizontal, x for vertical)
    and ``lo..hi`` the varying range.  Zero-length segments (points) are
    permitted; clipping can produce them and the predicates stay well
    defined.
    """

    def __init__(self, orientation: str, fixed: RatLike, lo: RatLike, hi: RatLike) -> None:
        if orientation not in (HORIZONTAL, VERTICAL):
            raise ValueError(f"bad orientation: {orientation!r}")
        fixed, lo, hi = as_rat(fixed), as_rat(lo), as_rat(hi)
        if lo > hi:
            raise ValueError(f"segment range reversed: {lo} > {hi}")
        set_field(self, "orientation", orientation)
        set_field(self, "fixed", fixed)
        set_field(self, "lo", lo)
        set_field(self, "hi", hi)

    def _key(self) -> tuple:
        return self.orientation, self.fixed, self.lo, self.hi

    def bbox(self) -> "Rect":
        if self.orientation == HORIZONTAL:
            return Rect(self.lo, self.hi, self.fixed, self.fixed)
        return Rect(self.fixed, self.fixed, self.lo, self.hi)


def h_seg(y: RatLike, x0: RatLike, x1: RatLike) -> Seg:
    return Seg(HORIZONTAL, y, x0, x1)


def v_seg(x: RatLike, y0: RatLike, y1: RatLike) -> Seg:
    return Seg(VERTICAL, x, y0, y1)


def _side(i: int) -> property:
    return property(lambda r: Fraction(r.int_box[i], r.den))


class Rect(Value):
    """A closed axis-aligned rectangle, possibly degenerate, held as its
    lift alone, in slots: its sides are ``int_box`` over ``den``, den least,
    so two Rects are equal iff their lifts are.  The sides, width and
    height are Fractions made on each call."""

    __slots__ = ("den", "int_box")

    def __init__(self, x_lo: RatLike, x_hi: RatLike, y_lo: RatLike, y_hi: RatLike) -> None:
        self._fill(*lift([as_rat(x_lo), as_rat(x_hi), as_rat(y_lo), as_rat(y_hi)]))

    def _fill(self, den: int, box: Sequence[int]) -> Rect:
        """Hold ``box`` over ``den``, both divided by what they share;
        reversed sides raise ValueError."""
        g = gcd(den, *box)
        if g > 1:
            den, box = den // g, [v // g for v in box]
        set_field(self, "den", den)
        set_field(self, "int_box", tuple(box))
        if box[0] > box[1] or box[2] > box[3]:
            raise ValueError(f"rectangle sides reversed: {self!r}")
        return self

    x_lo, x_hi, y_lo, y_hi = map(_side, range(4))

    def _key(self) -> tuple:
        return self.den, self.int_box

    def __repr__(self) -> str:
        return (f"Rect(x_lo={self.x_lo!r}, x_hi={self.x_hi!r}, "
                f"y_lo={self.y_lo!r}, y_hi={self.y_hi!r})")

    @property
    def width(self) -> Rat:
        return Fraction(self.int_box[1] - self.int_box[0], self.den)

    @property
    def height(self) -> Rat:
        return Fraction(self.int_box[3] - self.int_box[2], self.den)

    @property
    def is_degenerate(self) -> bool:
        x0, x1, y0, y1 = self.int_box
        return x0 == x1 or y0 == y1

    def contains_rect(self, other: Rect) -> bool:
        """True iff ``other`` lies in this rectangle, decided on the two
        lifts by cross-multiplication."""
        (x0, x1, y0, y1), d = self.int_box, self.den
        (u0, u1, v0, v1), e = other.int_box, other.den
        return x0 * e <= u0 * d and u1 * d <= x1 * e and y0 * e <= v0 * d and v1 * d <= y1 * e

    def interior_contains_rect(self, other: Rect) -> bool:
        (x0, x1, y0, y1), d = self.int_box, self.den
        (u0, u1, v0, v1), e = other.int_box, other.den
        return x0 * e < u0 * d and u1 * d < x1 * e and y0 * e < v0 * d and v1 * d < y1 * e


def grid_rect(den: int, box: Sequence[int]) -> Rect:
    """The Rect whose sides are ``box`` over ``den``, den > 0, made from the
    ints: one gcd takes den down to the least denominator."""
    return object.__new__(Rect)._fill(den, box)


def lift_pairs(x_lo: tuple[int, int], x_hi: tuple[int, int],
               y_lo: tuple[int, int], y_hi: tuple[int, int]) -> Rect:
    """The Rect whose sides are the pairs (p, q), q > 0, reduced or not:
    over D, the lcm of the q's, each side is p*(D/q) (``grid_rect``)."""
    (a, qa), (b, qb), (c, qc), (d, qd) = x_lo, x_hi, y_lo, y_hi
    den = lcm(qa, qb, qc, qd)
    return grid_rect(den, (a * (den // qa), b * (den // qb), c * (den // qc), d * (den // qd)))


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


def lowest(m: AxisMap) -> AxisMap:
    """The axis map ``m``, q > 0, in lowest terms: the one (a, b, q) with
    gcd 1 for its map, so two maps are equal iff their lowest forms are."""
    g = gcd(*m)
    return m if g == 1 else (m[0] // g, m[1] // g, m[2] // g)


def map_rect(x_map: AxisMap, y_map: AxisMap, r: Rect) -> Rect:
    """The image of ``r`` under the two axis maps, made from its lift: the
    int v goes to (a*v + b*den) / (q*den), and ``lift_pairs`` puts the four
    sides on their least grid."""
    den, (x0, x1, y0, y1) = r.den, r.int_box
    (ax, bx, qx), (ay, by, qy) = x_map, y_map
    bx, qx, by, qy = bx * den, qx * den, by * den, qy * den
    return lift_pairs((ax * x0 + bx, qx), (ax * x1 + bx, qx),
                      (ay * y0 + by, qy), (ay * y1 + by, qy))


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
