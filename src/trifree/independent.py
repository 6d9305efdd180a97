"""Recursive construction of triangle-free families under independent
horizontal/vertical scaling, with per-level probe certificates.

Level k holds s_k copies and p_k pairwise disjoint probes, where

    s_1 = p_1 = 1,   s_{k+1} = (p_k + 1) * s_k + p_k^2,   p_{k+1} = 2 * p_k^2.

A probe is a rectangle reaching the family's right edge whose pierced
copies are pairwise disjoint vertical stabbers, with an empty left part
(the root).  Every proper coloring of level k is forced to spend at
least k colors on the pierced set of some probe; attaching one final
diagonal per probe then pushes the chromatic number past k.

This construction and the homothet one in ``uniform`` share one
recursion step, ``embed_helpers``: it embeds a helper family in every
outer probe's root and claims the new probes by one contact law.  The two
differ only in geometry: where the helper and the new roots go.  Both
return the one ``Level`` record, whose ``epsilon`` is set for homothet
levels alone, and ``serialize.level_to_doc`` writes either.

Nothing here is trusted.  ``seal`` ends every level: it grows the
probes from their claimed roots and raises ConstructionError unless
``level_law``, the one statement of what a level claims, holds; ``verify``
runs the same law on a stored family.  The law lifts the copies, the
diagonals and the probes onto one integer grid (``shapes.FamilyGrid``)
and reads all it needs from one y-sweep over bounding boxes on it: each
contact, decided once, for the probe conditions, the diagonal law and
the triangle test, each probe's candidates and the probes that may meet.
``augment`` adds to a sealed level only what the diagonals claim, so
``check_diagonals`` decides only the pairs that hold a diagonal.  A
recursion step's claims are decided by those two checks alone:
``next_level`` and ``uniform._make_helper`` re-check none of them.

The per-probe work runs on ints that are already lifted.  ``make_diagonal``
computes each diagonal's transform in closed form from the probe
rectangle's lift and decides its clearance on cross-multiplied ints; the
claimed roots are mapped to lifts (``geometry.map_lift``); and
``_probe_messages`` decides every side condition of a probe on its grid
boxes, the cut by cross-multiplication.  It scans each copy near a probe
once (``FamilyGrid.pierce``) for whether the copy is pierced, whether one
of its segments spans the probe from bottom to top and whether it meets
the root; only a pierced copy with no spanning segment is clipped and
walked into components, and on every level the constructions build each
pierced copy has one.  An embedding is two axis maps, read off the lifts
of the helper's box and its target (``geometry.rect_map``): each helper
copy is embedded by ``TransformedCopy.rebase``, which composes its axis
maps on ints, and each claimed root is mapped on its lift.  A probe
stores ints only (``Probe``): its rectangle and root as their lifts and
its cut as a pair, which the checks read as they are.  ``grow_probe``
makes each probe, an eps-probe too, on the lifts of its claimed root
and the family box; only the build steps (``split_probe``,
``next_level`` and ``uniform``) make a probe's Rects and cut.
"""

from __future__ import annotations

from bisect import bisect_left
from fractions import Fraction
from functools import cached_property
from itertools import combinations, islice, takewhile
from math import gcd
from typing import Iterator, Optional, Sequence

from .errors import ConstructionError, fail_on
from .geometry import AxisMap, IntBox, Lift, Rat, Rect, lift_pairs, map_lift, rect_map
from .graphs import Graph, is_triangle_free
from .record import Record, Value, set_field
from .shapes import FamilyGrid, ShapeDef, TransformedCopy, box_hull, family_bbox

# P-up takes the top 2/5 of a probe, P-down the bottom 2/5; the middle
# fifth is the separating margin.
_SPLIT = Fraction(2, 5)


class Probe(Value):
    """A probe in ints, held in slots (a probe has no instance dict): its
    rectangle and its root, each as its lift (``geometry.Lift``), the x of
    its root's cut as a lowest-terms pair (p, q), q > 0, and the indices of
    the copies it is claimed to pierce.  The checks, the loader and the
    writer read the ints; ``rect``, ``root`` and ``root_cut_x`` are made on
    each call, for the build steps and ``uniform``, so a loop binds them
    once."""

    __slots__ = ("rect_lift", "root_lift", "cut", "pierced")

    def __init__(self, rect_lift: Lift, root_lift: Lift, cut: tuple[int, int],
                 pierced: tuple[int, ...]) -> None:
        set_field(self, "rect_lift", rect_lift)
        set_field(self, "root_lift", root_lift)
        set_field(self, "cut", cut)
        set_field(self, "pierced", pierced)

    def _key(self) -> tuple:
        return self.rect_lift, self.root_lift, self.cut, self.pierced

    @property
    def rect(self) -> Rect:
        return self.rect_lift.rect

    @property
    def root(self) -> Rect:
        return self.root_lift.rect

    @property
    def root_cut_x(self) -> Rat:
        return Fraction(*self.cut)


class Level(Record):
    """Level k of either construction: s_k copies and p_k probes.  A level
    of the homothet construction carries its probe parameter ``epsilon``;
    one built under independent scaling has None.  ``box`` is the
    family's box, when the caller has it."""

    def __init__(self, k: int, family: tuple[TransformedCopy, ...], probes: tuple[Probe, ...],
                 epsilon: Optional[Rat] = None, box: Optional[Rect] = None) -> None:
        set_field(self, "k", k)
        set_field(self, "family", family)
        set_field(self, "probes", probes)
        set_field(self, "epsilon", epsilon)
        if box is not None:
            set_field(self, "bbox", box)  # fills bbox's cache

    @cached_property
    def bbox(self) -> Rect:
        return family_bbox(self.family)


def _sizes() -> Iterator[tuple[int, int]]:
    """(s_k, p_k) for k = 1, 2, 3, ... by the recurrence."""
    s, p = 1, 1
    while True:
        yield s, p
        s, p = (p + 1) * s + p * p, 2 * p * p


def size_formulas(k: int) -> tuple[int, int]:
    """(s_k, p_k) by the recurrence, cross-checked against the closed bounds."""
    if k < 1:
        raise ValueError("k must be at least 1")
    s, p = next(islice(_sizes(), k - 1, None))
    exponent = 2 ** (k - 1)
    if p != 2 ** (exponent - 1) or not s <= 2 ** exponent - 1:
        raise AssertionError(f"size recurrence left its proven bounds at k={k}")
    return s, p


def max_level(copies: int) -> int:
    """The largest k with s_k <= copies, or 0.  Cheap for any ``copies``:
    s_k grows doubly exponentially, so the recurrence stops early."""
    return sum(1 for _ in takewhile(lambda sp: sp[0] <= copies, _sizes()))


def split_probe(p: Probe) -> tuple[Rect, Rect]:
    """(upper, lower) parts of the probe rectangle with a margin between."""
    r = p.rect
    h = r.height * _SPLIT
    upper = Rect(r.x_lo, r.x_hi, r.y_hi - h, r.y_hi)
    lower = Rect(r.x_lo, r.x_hi, r.y_lo, r.y_lo + h)
    return upper, lower


def make_diagonal(probe: Probe, shape: ShapeDef, bbox: Rect,
                  lineage: str = "diagonal") -> TransformedCopy:
    """The diagonal copy of a probe: bounding box equal to the probe's
    upper part, then stretched horizontally by f = 2*w2/w1 about its left edge.

    The transform comes in closed form from the probe rectangle's lift.
    For the rectangle [x_lo, x_hi] x [y_lo, y_hi] the upper part (see
    ``split_probe``) has height h = (2/5)*height and top y_hi.  Carrying the
    shape's box U onto it takes sx0 = width/U.width, sy = h/U.height,
    tx0 = x_lo - sx0*U.x_lo and ty = y_hi - h - sy*U.y_lo; the stretch
    x -> f*x + (1 - f)*x_lo after it leaves y alone and gives

        sx = f*sx0,  tx = f*tx0 + (1 - f)*x_lo = x_lo - sx*U.x_lo.

    With the rectangle lifted to ints (a, b, c, d) over den, U to (u0, u1,
    u2, u3) over ud, f = fn/fd and 2/5 = m/n, every field is one ratio of
    ints, normalised once: sx = fn*(b-a)*ud / q and
    tx = (a*fd*(u1-u0) - fn*(b-a)*u0) / q with q = fd*den*(u1-u0);
    sy = m*(d-c)*ud / r and ty = (((n-m)*d + m*c)*(u3-u2) - m*(d-c)*u2) / r
    with r = n*den*(u3-u2).  The copy is made from those ints as its axis
    maps (sx_num, tx_num, q) and (sy_num, ty_num, r).

    The stretch factor guarantees the copy's empty rectangle E clears the
    family's bounding box on the right.  That is re-verified here on the
    one coordinate it needs, sx*E.x_lo + tx > bbox.x_hi, by
    cross-multiplied ints, and a failure signals a feature or placement bug.
    """
    feats = shape.features
    ud, (u0, u1, u2, u3) = feats.bbox.den, feats.bbox.int_box
    if u0 == u1 or u2 == u3:
        raise ValueError("source rectangle is degenerate")
    den, (a, b, c, d) = probe.rect_lift
    fn = 2 * feats.w2.numerator * feats.w1.denominator
    fd = feats.w2.denominator * feats.w1.numerator
    m, n = _SPLIT.numerator, _SPLIT.denominator
    q, r = fd * den * (u1 - u0), n * den * (u3 - u2)
    sx_num, tx_num = fn * (b - a) * ud, a * fd * (u1 - u0) - fn * (b - a) * u0
    copy = TransformedCopy(
        shape.name, shape.shape, (sx_num, tx_num, q),
        (m * (d - c) * ud, ((n - m) * d + m * c) * (u3 - u2) - m * (d - c) * u2, r), lineage)
    # E.x_lo = e/ed maps to (sx_num*e + tx_num*ed) / (q*ed)
    ed, e = feats.empty_rect.den, feats.empty_rect.int_box[0]
    empty_num, empty_den = sx_num * e + tx_num * ed, q * ed
    if not empty_num * bbox.x_hi.denominator > bbox.x_hi.numerator * empty_den:
        raise ConstructionError(
            f"diagonal empty rectangle does not clear the family box: "
            f"{Fraction(empty_num, empty_den)} <= {bbox.x_hi}")
    return copy


def _boxes_meet(a: IntBox, b: IntBox) -> bool:
    return a[0] <= b[1] and b[0] <= a[1] and a[2] <= b[3] and b[2] <= a[3]


def level_pass(grid: FamilyGrid, n: int) -> tuple[
        list[tuple[int, int]], list[list[int]], list[tuple[int, int]]]:
    """A level check's one pass (``FamilyGrid.contacts``) over the family on
    ``grid`` and the box around each probe's rectangle and root, the grid's
    rectangles in turn: the sorted pairs of copies that share a point, each
    probe's candidates (the first ``n`` copies whose boxes meet its box, so
    a root moved off its rectangle still meets every copy it could) and the
    sorted pairs of probes whose rectangles meet."""
    m, rects = len(grid.boxes), grid.rect_boxes
    contacts, hits = grid.contacts(queries=[box_hull(r) for r in zip(rects[::2], rects[1::2])])
    meeting = sorted((i - m, q) for q, h in enumerate(hits) for i in h
                     if i >= m and _boxes_meet(rects[2 * (i - m)], rects[2 * q]))
    # each list is ascending, so its base copies come first
    return contacts, [h[:bisect_left(h, n)] for h in hits], meeting


def probe_conditions(probes: Sequence[Probe], grid: FamilyGrid, n: int,
                     near: Sequence[Sequence[int]], contacts: set[tuple[int, int]],
                     epsilon: Optional[Rat] = None) -> list[list[str]]:
    """The probe conditions of each probe, checked exactly: one list of
    messages per probe, empty when it is valid.

    ``grid`` holds the family, whose first ``n`` copies are the ones the
    probes may pierce and whose box the probes must fit, and as rectangles
    each probe's rectangle and root in turn; ``near`` and ``contacts`` are
    the candidates and the contact pairs of its one pass (``level_pass``).
    The copies a probe rectangle meets must be exactly ``probe.pierced``
    (the expected contact set while building, the stored set when
    verifying), pairwise disjoint and vertical stabbers, and the root left
    of the cut must be empty.  Passing ``epsilon`` makes these eps-probe
    checks: the root must also be a square and the width/height ratio
    exactly 1 + eps.

    One scan of each candidate's segments decides whether the copy is
    pierced, whether it meets the root and, through a segment spanning the
    rectangle, most stabs; a pierced copy without one is clipped and walked
    into components.  Whether two pierced copies meet is read from
    ``contacts``, not decided here.
    """
    box, rects = box_hull(grid.boxes[:n]), grid.rect_boxes
    return [_probe_messages(p, grid, rect, root, ids, box, epsilon, contacts)
            for p, rect, root, ids in zip(probes, rects[::2], rects[1::2], near)]


def _probe_messages(probe: Probe, grid: FamilyGrid, rect_box: IntBox, root_box: IntBox,
                    near: Sequence[int], box: IntBox, epsilon: Optional[Rat],
                    contacts: set[tuple[int, int]]) -> list[str]:
    """One probe's messages, every side condition decided on grid ints:
    ``rect_box``, ``root_box`` and the family box ``box``.  The cut n/d
    need not lie on the grid, so it is compared by cross-multiplication:
    v/den < n/d iff v*d < n*den."""
    out: list[str] = []
    x0, x1, y0, y1 = rect_box
    r0, r1, r2, r3 = root_box
    cut, cut_d = probe.cut
    cut *= grid.den  # the cut times den*cut_d
    if x0 == x1 or y0 == y1:
        out.append("probe rectangle is degenerate")
    if not (box[0] <= x0 and x1 <= box[1] and box[2] <= y0 and y1 <= box[3]):
        out.append("probe leaves the family bounding box")
    if x1 != box[1]:
        out.append("probe does not touch the family's right side")
    if not (x0 * cut_d < cut < x1 * cut_d):
        out.append("root cut line is not interior to the probe")
    if (r0, r1 * cut_d, r2, r3) != (x0, cut, y0, y1):
        out.append("root is not the left part of the probe at the cut line")
    if epsilon is not None:
        if r1 - r0 != r3 - r2:
            out.append("root is not a square")
        p, q = epsilon.numerator, epsilon.denominator
        if (x1 - x0) * q != (p + q) * (y1 - y0):
            out.append("width/height ratio is not exactly 1+eps")
    actual: list[int] = []
    unstabbed: list[int] = []
    rooted: list[int] = []
    for i in near:
        meets, spans, in_root = grid.pierce(i, rect_box, root_box)
        if meets:
            actual.append(i)
            if not (spans or grid.stabs(i, rect_box, vertical=True)):
                unstabbed.append(i)
        if in_root:
            rooted.append(i)
    if actual != sorted(probe.pierced):
        out.append(f"pierced set mismatch: claimed {sorted(probe.pierced)}, actual {actual}")
    out.extend(f"pierced copies {a} and {b} intersect"
               for a, b in combinations(actual, 2) if (a, b) in contacts)
    out.extend(f"pierced copy {i} does not stab the probe vertically" for i in unstabbed)
    out.extend(f"root meets copy {i}" for i in rooted)
    return out


def diagonal_law(pairs: Sequence[tuple[int, int]], n: int, probes: Sequence[Probe]) -> list[str]:
    """The closing diagonals' contact law, read from ``pairs``, the sorted
    contact pairs (``FamilyGrid.contacts``) of n base copies followed by
    one diagonal per probe.  Empty list = it holds.

    Diagonal i, copy n + i, meets exactly the base copies pierced by
    probe i, and no two diagonals meet.  Only pairs that hold a diagonal
    are read, so ``contacts(n)`` is enough.
    """
    met: list[list[int]] = [[] for _ in probes]
    for a, b in pairs:
        if a < n <= b:
            met[b - n].append(a)
    out = [f"diagonal {i} meets {neighbors}, expected {sorted(probe.pierced)}"
           for i, (neighbors, probe) in enumerate(zip(met, probes))
           if frozenset(neighbors) != frozenset(probe.pierced)]
    return out + [f"diagonals {a - n} and {b - n} intersect" for a, b in pairs if a >= n]


def check_diagonals(grid: FamilyGrid, n: int, probes: Sequence[Probe]) -> None:
    """Raise ConstructionError unless the diagonal law holds on ``grid``, n
    base copies and then one diagonal per probe.  Only the pairs that hold
    a diagonal are decided: the base's were decided when it was sealed."""
    fail_on(diagonal_law(grid.contacts(n)[0], n, probes))


def grow_probe(root: Rect | Lift, bbox: Rect, epsilon: Optional[Rat] = None,
               pierced: Sequence[int] = ()) -> Probe:
    """The probe grown from an empty root to the family's right side,
    claimed to pierce ``pierced``, made from the lifts of the root and
    ``bbox``.

    Without ``epsilon`` the probe is the root extended to the right side,
    cut at the root's right side.  With ``epsilon`` the root must be an
    empty square, and the probe is an exact eps-probe whose root sits flush
    left and bottom in it: the square's distance d to the right side must
    be at most eps times its side, and the probe height
    h = (side + d) / (1 + eps) then makes the ratio exact while keeping the
    root inside the square.  With eps = e/f, side + d is the probe's width,
    and every side is an int over one denominator, rd*bd*(e + f) for the
    root's and the box's rd and bd, lifted once (``lift_pairs``).
    """
    rd, (r0, r1, r2, r3) = root.den, root.int_box
    bd, b1 = bbox.den, bbox.int_box[1]
    if epsilon is None:
        g = gcd(r1, rd)
        return Probe(lift_pairs((r0, rd), (b1, bd), (r2, rd), (r3, rd)), Lift(rd, root.int_box),
                     (r1 // g, rd // g), tuple(pierced))
    if r1 - r0 != r3 - r2:
        raise ValueError("an eps-probe needs a square root")
    side, d = (r1 - r0) * bd, b1 * rd - r1 * bd  # over rd*bd
    if d < 0:
        raise ValueError("square lies beyond the family's right side")
    e, f = epsilon.numerator, epsilon.denominator
    if d * f > e * side:
        raise ValueError(f"square too far from the right side: {Fraction(d, rd * bd)} > "
                         f"{epsilon * Fraction(side, rd * bd)}")
    den, h = rd * bd * (e + f), (side + d) * f
    x0, y0 = r0 * bd * (e + f), r2 * bd * (e + f)
    g = gcd(x0 + h, den)
    return Probe(lift_pairs((x0, den), (b1 * rd * (e + f), den), (y0, den), (y0 + h, den)),
                 lift_pairs((x0, den), (x0 + h, den), (y0, den), (y0 + h, den)),
                 ((x0 + h) // g, den // g), tuple(pierced))


def level_law(level: Level, diagonals: Optional[Sequence[TransformedCopy]] = None) -> list[str]:
    """Everything ``level`` claims, checked exactly.  Empty list = it holds.

    s_k copies and p_k probes; every copy, ``diagonals`` included, a
    homothet when the level carries an epsilon; the probe conditions of
    each probe; pairwise disjoint probes; the diagonal law of
    ``diagonals`` when given; and no triangle, ``diagonals`` included.
    All of it is read from one pass (``level_pass``) on one ``FamilyGrid``:
    the contacts, the probes' candidates and the pairs of probes that meet.
    One graph of the contacts, made once the grid is released, serves the
    triangle test.
    """
    out: list[str] = []
    k, n = level.k, len(level.family)
    family = (*level.family, *(diagonals or ()))
    # Level k holds s_k copies at least: checking that first keeps a huge
    # claimed k from growing the recurrence's integers.
    if k > max_level(n):
        out.append(f"size: k={k} needs more than {n} base copies")
    else:
        s_k, p_k = size_formulas(k)
        if n != s_k:
            out.append(f"size: {n} copies, expected s_{k} = {s_k}")
        if len(level.probes) != p_k:
            out.append(f"size: {len(level.probes)} probes, expected p_{k} = {p_k}")
    if level.epsilon is not None:
        out.extend(f"uniform: copy with lineage {c.lineage!r} is not a homothet"
                   for c in family if not c.is_uniform)
    grid = FamilyGrid(family, [r for p in level.probes for r in (p.rect_lift, p.root_lift)])
    contacts, near, meeting = level_pass(grid, n)
    # the probes pierce base copies only, so only their contacts are looked up
    base_contacts = {(i, j) for i, j in contacts if j < n}
    for i, bad in enumerate(probe_conditions(level.probes, grid, n, near, base_contacts,
                                             level.epsilon)):
        out.extend(f"probe {i}: {msg}" for msg in bad)
    del grid, near  # freed before the graph is made, so they never coexist
    g = Graph.from_edges(len(family), contacts)
    out.extend(f"probes {i} and {j} are not disjoint" for i, j in meeting)
    if diagonals is not None:
        law = (diagonal_law(contacts, n, level.probes) if len(diagonals) == len(level.probes)
               else ["diagonal count differs from probe count"])
        out.extend(f"augmented: {msg}" for msg in law)
    if not is_triangle_free(g):
        out.append("family is not triangle-free")
    return out


def seal(k: int, copies: Sequence[TransformedCopy],
         claims: Sequence[tuple[Rect | Lift, frozenset[int]]], epsilon: Optional[Rat] = None
         ) -> Level:
    """Level k of ``copies``, with one probe per claim (root, expected):
    the probe ``grow_probe`` grows from ``root``, claimed to pierce exactly
    ``expected``.  The family box the probes grow to is the level's
    ``bbox``.  Raises ConstructionError unless ``level_law`` holds."""
    bbox = family_bbox(copies)
    probes = tuple(grow_probe(root, bbox, epsilon, sorted(expected))
                   for root, expected in claims)
    level = Level(k, tuple(copies), probes, epsilon, bbox)
    fail_on(level_law(level))
    return level


def base_level(shape: ShapeDef) -> Level:
    """Level 1: the shape itself; the probe extends E to the right edge."""
    copy = TransformedCopy(shape.name, shape.shape, lineage="outer")
    return seal(1, [copy], [(shape.features.empty_rect, frozenset({0}))])


def embed_helpers(k: int, outer: Level, helper: Sequence[TransformedCopy],
                  base_probes: Sequence[Probe],
                  embeds: Sequence[tuple[AxisMap, AxisMap]],
                  uppers: Sequence[Rect], lowers: Sequence[Rect],
                  epsilon: Optional[Rat] = None) -> Level:
    """The recursion step both constructions share: level k, sealed.

    The helper is a base family followed by one diagonal per base probe.
    ``embeds[i]``, a pair of axis maps, places a copy of it in the empty
    root of outer probe i, and ``uppers[j]``, ``lowers[j]`` are the upper
    and lower roots of base probe j in helper coordinates.  Each pair
    (outer P, base Q) claims an upper probe, then a lower probe, by the one
    contact law: the upper probe pierces P's copies and the embedded
    diagonal of Q, the lower one P's copies and the embedded copies Q
    pierces.  ``seal`` checks the level, and its box must be the outer
    level's.
    """
    n_base = len(helper) - len(base_probes)
    copies = list(outer.family)
    claims: list[tuple[Lift, frozenset[int]]] = []
    for p, embed in zip(outer.probes, embeds):
        offset = len(copies)
        copies.extend(c.rebase(embed, f"inner({k})/{c.lineage}") for c in helper)
        outer_pierced = frozenset(p.pierced)
        for qi, q in enumerate(base_probes):
            claims.append((map_lift(*embed, uppers[qi]), outer_pierced | {offset + n_base + qi}))
            claims.append((map_lift(*embed, lowers[qi]),
                           outer_pierced | frozenset(offset + j for j in q.pierced)))

    level = seal(k, copies, claims, epsilon)
    if level.bbox != outer.bbox:
        raise ConstructionError("embedded helpers escaped the outer bounding box")
    return level


def next_level(prev: Level, shape: ShapeDef) -> Level:
    """One recursion step: the augmented previous level is the helper, and
    a copy shrunk to half size goes in the middle of every probe's root.

    The upper root of a probe is its diagonal's empty rectangle, the lower
    root the lower split part left of the cut line.

    Each pierced copy stabs both split parts, as it stabs the sealed
    probe: a split part is a band of the probe over its full x range.
    ``augment`` checks the diagonals, and ``seal`` every new probe.
    """
    helper = augment(prev, shape)
    n = len(prev.family)
    splits = [split_probe(p) for p in prev.probes]
    helper_bbox = family_bbox(helper)
    half = Fraction(1, 2)
    embeds = [rect_map(helper_bbox, p.root.concentric(half, half)) for p in prev.probes]
    uppers = [d.apply(shape.features.empty_rect) for d in helper[n:]]
    lowers = [Rect(lower.x_lo, p.root_cut_x, lower.y_lo, lower.y_hi)
              for p, (_, lower) in zip(prev.probes, splits)]
    return embed_helpers(prev.k + 1, prev, helper, prev.probes, embeds, uppers, lowers)


def build(k: int, shape: ShapeDef) -> Level:
    """Level k of the construction for the given catalog shape."""
    if k < 1:
        raise ValueError("k must be at least 1")
    level = base_level(shape)
    for _ in range(k - 1):
        level = next_level(level, shape)
    return level


def augment(level: Level, shape: ShapeDef) -> tuple[TransformedCopy, ...]:
    """Attach one diagonal per probe, raising the forced color count by one.

    The result has s_k + p_k members; each new diagonal meets exactly the
    copies pierced by its probe, and the diagonals are pairwise disjoint.
    """
    diagonals = tuple(make_diagonal(p, shape, level.bbox, f"diagonal(P{i})")
                      for i, p in enumerate(level.probes))
    family = level.family + diagonals
    check_diagonals(FamilyGrid(family), len(level.family), level.probes)
    return family
