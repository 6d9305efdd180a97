"""Recursive construction of triangle-free families under independent
horizontal/vertical scaling, with per-level probe certificates.

Level k holds s_k copies and p_k pairwise disjoint probes, where

    s_1 = p_1 = 1,   s_{k+1} = (p_k + 1) * s_k + p_k^2,   p_{k+1} = 2 * p_k^2.

A probe is a rectangle reaching the family's right edge whose pierced
copies are pairwise disjoint vertical stabbers, with an empty left part
(the root).  Every proper coloring of level k is forced to spend at
least k colors on the pierced set of some probe; attaching one final
diagonal per probe then pushes the chromatic number past k.

Every level of either construction claims one graph, B_k, whose rule
``claimed_graph`` states once.  The two constructions share one recursion
step, ``embed_helpers``: it embeds a helper family in every outer probe's
root and claims each new probe's pierced set from B_k.  The two differ
only in geometry: where the helper and the new roots go.  Both return the
one ``Level`` record, whose ``epsilon`` is set for homothet levels alone,
and ``serialize.level_to_doc`` writes either.

Nothing here is trusted.  ``seal`` ends every level: it grows the
probes from their claimed roots and raises ConstructionError unless
``level_law``, the one statement of what a level claims, holds; ``verify``
runs the same law on a stored family.  The law lifts the copies, the
diagonals and the probes onto one integer grid (``shapes.FamilyGrid``)
and itself runs one y-sweep over bounding boxes on it: each contact,
decided once, each probe's candidates, which ``_probe_messages`` judges,
and the probes that may meet; it then compares the pierced sets and the
contacts with B_k.  ``augment`` adds to a sealed level only what the
diagonals claim, so ``check_diagonals`` decides only the pairs that hold
a diagonal, against B_k.  A recursion step's claims are decided by those
two checks alone: ``next_level`` and ``uniform._make_helper`` re-check
none of them.

The per-probe work runs on lifted ints: ``make_diagonal`` computes each
diagonal's transform in closed form, ``_probe_messages`` decides every
side condition of a probe on its grid boxes, and an embedding is two
axis maps (``geometry.rect_map``) that ``TransformedCopy.rebase`` and
``geometry.map_rect`` apply.  A ``Probe`` holds ints only, and
``grow_probe``, ``split_probe`` and ``step_roots`` work on them; only
``uniform`` reads a root's Fraction sides, where it computes with them.
On every level the constructions build, each pierced copy has a segment
spanning its probe, so one scan of the copy decides it.
"""

from __future__ import annotations

from bisect import bisect_left
from fractions import Fraction
from functools import cache, cached_property
from math import gcd
from typing import Collection, NamedTuple, Optional, Sequence

from .errors import ConstructionError, fail_on
from .geometry import AxisMap, IntBox, Rat, Rect, grid_rect, lift_pairs, map_rect, rect_map
from .record import Record, Value, set_field
from .shapes import FamilyGrid, ShapeDef, TransformedCopy, box_hull, family_bbox

# P-up takes the top 2/5 of a probe, P-down the bottom 2/5; the middle
# fifth is the separating margin.
_SPLIT = Fraction(2, 5)


class Probe(Value):
    """A probe in ints, held in slots (a probe has no instance dict): its
    rectangle and its root, each a ``Rect`` (its lift alone), the x of its
    root's cut as a lowest-terms pair (p, q), q > 0, and the indices of the
    copies it is claimed to pierce."""

    __slots__ = ("rect", "root", "cut", "pierced")

    def __init__(self, rect: Rect, root: Rect, cut: tuple[int, int],
                 pierced: tuple[int, ...]) -> None:
        set_field(self, "rect", rect)
        set_field(self, "root", root)
        set_field(self, "cut", cut)
        set_field(self, "pierced", pierced)

    def _key(self) -> tuple:
        return self.rect, self.root, self.cut, self.pierced


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


class ClaimedGraph(NamedTuple):
    """B_k: s_k vertices, the bare level's sorted edges (a, b), a < b, and
    each probe's sorted pierced set, in claim order.  Augmented B_k adds
    vertex s_k + i, the diagonal of probe i."""

    size: int
    edges: tuple[tuple[int, int], ...]
    pierced: tuple[tuple[int, ...], ...]

    def diagonal_edges(self) -> list[tuple[int, int]]:
        """Augmented B_k's other edges, sorted: (j, s_k + i), j pierced by probe i."""
        return sorted((j, d) for d, ps in enumerate(self.pierced, self.size) for j in ps)


@cache
def claimed_graph(k: int) -> ClaimedGraph:
    """B_k, the graph every level k of either construction claims, its
    copies and probes in construction order: the one statement of the rule
    that ``embed_helpers`` builds by and ``level_law`` checks.

    Bare B_1 is one vertex, pierced by its one probe.  Bare B_{k+1} is bare
    B_k, then per probe P_i of B_k a copy H_i of augmented B_k from vertex
    s_k + i*(s_k + p_k) on, with no edge between the parts.  Each pair
    (P_i, Q), Q a probe of B_k, claims an upper probe, piercing P_i's set
    and Q's diagonal in H_i, then a lower one, piercing P_i's set and Q's
    copies in H_i.  Augmented B_k adds diagonal i, adjacent to exactly
    probe i's pierced set.

    By induction B_k has no triangle and its pierced sets are independent:
    a triangle in augmented B_k needs two meeting diagonals or an edge in a
    pierced set, bare B_{k+1} is a disjoint union of triangle-free parts, and
    a new pierced set is the union of independent sets in two unjoined parts.
    """
    if k < 1:
        raise ValueError("k must be at least 1")
    if k == 1:
        return ClaimedGraph(1, (), ((0,),))
    prev = claimed_graph(k - 1)
    s, p = prev.size, len(prev.pierced)
    size = s + p * (s + p)
    helper = sorted([*prev.edges, *prev.diagonal_edges()])
    # one int per vertex, held by every pair and set it is in (it halves
    # B_5); each part's edges follow the last part's, so they stay sorted
    v = list(range(size))
    edges = list(prev.edges)
    pierced: list[tuple[int, ...]] = []
    for i, outer in enumerate(prev.pierced):
        offset = s + i * (s + p)
        h = v[offset:offset + s + p]  # H_i's vertices
        edges.extend((h[a], h[b]) for a, b in helper)
        for q, inner in enumerate(prev.pierced):
            pierced.append((*outer, h[s + q]))
            pierced.append((*outer, *map(h.__getitem__, inner)))
    return ClaimedGraph(size, tuple(edges), tuple(pierced))


def max_level(copies: int) -> int:
    """The largest k with s_k <= copies, or 0, by the sizes of B_k's rule,
    with no graph built: cheap for any ``copies``, as s_k grows so fast."""
    k, s, p = 0, 1, 1
    while s <= copies:
        k, s, p = k + 1, s + p * (s + p), 2 * p * p
    return k


def contact_law(contacts: list[tuple[int, int]], expected: list[tuple[int, int]]) -> list[str]:
    """One message per pair, in sorted order, in just one of ``contacts``,
    the sorted pairs of copies that meet, and ``expected``, B_k's."""
    if contacts == expected:
        return []
    met, want = set(contacts), set(expected)
    return [f"contact law fails at copies {i}, {j}: "
            f"expected {'meet' if (i, j) in want else 'disjoint'}" for i, j in sorted(met ^ want)]


def split_probe(p: Probe) -> tuple[Rect, Rect]:
    """(upper, lower) parts of the probe rectangle with a margin between,
    made from its lift: with 2/5 = m/n, the rectangle (a, b, c, d) over den
    has height h = m*(d-c) over n*den, so the upper part starts at
    (n-m)*d + m*c and the lower part ends at (n-m)*c + m*d."""
    (a, b, c, d), den = p.rect.int_box, p.rect.den * _SPLIT.denominator
    m, n = _SPLIT.numerator, _SPLIT.denominator
    return (grid_rect(den, (n * a, n * b, (n - m) * d + m * c, n * d)),
            grid_rect(den, (n * a, n * b, n * c, (n - m) * c + m * d)))


def step_roots(p: Probe) -> tuple[Rect, Rect]:
    """What ``next_level`` reads off probe ``p``, made from its ints: its
    root shrunk to half size about its center, where the helper goes, and
    its lower root, the lower split part left of the cut line.  The root
    (r0, r1, r2, r3) over rd shrinks to (3*r0 + r1, r0 + 3*r1, 3*r2 + r3,
    r2 + 3*r3) over 4*rd."""
    rd, (r0, r1, r2, r3) = p.root.den, p.root.int_box
    lower = split_probe(p)[1]
    ld, (x0, _, y0, y1) = lower.den, lower.int_box
    return (grid_rect(4 * rd, (3 * r0 + r1, r0 + 3 * r1, 3 * r2 + r3, r2 + 3 * r3)),
            lift_pairs((x0, ld), p.cut, (y0, ld), (y1, ld)))


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
    den, (a, b, c, d) = probe.rect.den, probe.rect.int_box
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
    if not empty_num * bbox.den > bbox.int_box[1] * empty_den:
        raise ConstructionError(
            f"diagonal empty rectangle does not clear the family box: "
            f"{Fraction(empty_num, empty_den)} <= {bbox.x_hi}")
    return copy


def _boxes_meet(a: IntBox, b: IntBox) -> bool:
    return a[0] <= b[1] and b[0] <= a[1] and a[2] <= b[3] and b[2] <= a[3]


def _probe_messages(probe: Probe, grid: FamilyGrid, rect_box: IntBox, root_box: IntBox,
                    near: Sequence[int], box: IntBox, epsilon: Optional[Rat]) -> list[str]:
    """The probe conditions of ``probe``, decided on grid ints: its messages,
    empty when it holds.  The copies its rectangle meets must be exactly
    ``probe.pierced`` (expected while building, stored when verifying) and
    vertical stabbers, and the root left of the cut must be empty; with
    ``epsilon`` (an eps-probe) the root must also be a square and the
    width/height ratio exactly 1 + eps.  They are pairwise disjoint by
    ``level_law``'s comparison with B_k, whose pierced sets are independent.

    ``rect_box``, ``root_box`` and the family box ``box`` are on ``grid``.
    ``near`` holds the copies whose boxes meet the box around the rectangle
    and root, so a root moved off its rectangle still meets every copy it
    could.  One scan of each (``FamilyGrid.pierce``) decides whether the
    copy is pierced, whether it meets the root and, through a segment
    spanning the rectangle, most stabs; a pierced copy without one is
    clipped and walked into components.  The cut n/d, maybe off the grid,
    is compared by cross-multiplication: v/den < n/d iff v*d < n*den.
    """
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
    out.extend(f"pierced copy {i} does not stab the probe vertically" for i in unstabbed)
    out.extend(f"root meets copy {i}" for i in rooted)
    return out


def check_diagonals(grid: FamilyGrid, k: int, n: int) -> None:
    """Raise ConstructionError unless the contacts that hold a diagonal on
    ``grid``, n base copies and then one diagonal per probe, are B_k's
    diagonal edges: the base's were decided when it was sealed."""
    fail_on(contact_law(grid.contacts(n)[0], claimed_graph(k).diagonal_edges()))


def grow_probe(root: Rect, bbox: Rect, epsilon: Optional[Rat] = None,
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
        return Probe(lift_pairs((r0, rd), (b1, bd), (r2, rd), (r3, rd)), root,
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
    each probe; pairwise disjoint probes; and B_k (``claimed_graph``), in
    construction order: its pierced sets, and its edges as the contacts,
    with its diagonal edges when ``diagonals`` are given.  The family,
    ``diagonals`` included, and each probe's rectangle and root go on one
    ``FamilyGrid``, and all of it is read from one pass
    (``FamilyGrid.contacts``) over the family and the box around each
    probe: the contacts, each probe's candidates (the base copies whose
    boxes meet its box), judged by ``_probe_messages``, and the pairs of
    probes whose rectangles meet.
    """
    out: list[str] = []
    k, n, probes = level.k, len(level.family), level.probes
    family = (*level.family, *(diagonals or ()))
    # checked first, so that a huge claimed k never grows B_k
    claimed = None
    if k > max_level(n):
        out.append(f"size: k={k} needs more than {n} base copies")
    else:
        claimed = claimed_graph(k)
        if n != claimed.size:
            out.append(f"size: {n} copies, expected s_{k} = {claimed.size}")
        if len(probes) != len(claimed.pierced):
            out.append(f"size: {len(probes)} probes, expected p_{k} = {len(claimed.pierced)}")
    if level.epsilon is not None:
        out.extend(f"uniform: copy with lineage {c.lineage!r} is not a homothet"
                   for c in family if not c.is_uniform)
    grid = FamilyGrid(family, [r for p in probes for r in (p.rect, p.root)])
    rects, m = grid.rect_boxes, len(family)
    contacts, hits = grid.contacts(queries=[box_hull(r) for r in zip(rects[::2], rects[1::2])])
    box = box_hull(grid.boxes[:n])
    for i, (p, rect, root, h) in enumerate(zip(probes, rects[::2], rects[1::2], hits)):
        # each hit list is ascending, so its base copies come first
        out.extend(f"probe {i}: {msg}" for msg in _probe_messages(
            p, grid, rect, root, h[:bisect_left(h, n)], box, level.epsilon))
    out.extend(f"probes {i - m} and {q} are not disjoint"
               for i, q in sorted((i, q) for q, h in enumerate(hits) for i in h
                                  if i >= m and _boxes_meet(rects[2 * (i - m)], rects[2 * q])))
    del grid, rects, hits  # freed before the contact law's sets are made
    if claimed is not None:
        out.extend(f"pierced law fails at probe {i}: stored {sorted(p.pierced)}, expected "
                   f"{list(want)}" for i, (p, want) in enumerate(zip(probes, claimed.pierced))
                   if sorted(p.pierced) != list(want))
        out.extend(contact_law(contacts, list(claimed.edges) if diagonals is None
                               else sorted([*claimed.edges, *claimed.diagonal_edges()])))
    return out


def seal(k: int, copies: Sequence[TransformedCopy],
         claims: Sequence[tuple[Rect, Collection[int]]], epsilon: Optional[Rat] = None
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
    return seal(1, [copy], [(shape.features.empty_rect, claimed_graph(1).pierced[0])])


def embed_helpers(k: int, outer: Level, helper: Sequence[TransformedCopy],
                  embeds: Sequence[tuple[AxisMap, AxisMap]],
                  uppers: Sequence[Rect], lowers: Sequence[Rect],
                  epsilon: Optional[Rat] = None) -> Level:
    """The recursion step both constructions share: level k, sealed.

    The helper is a base family followed by one diagonal per base probe.
    ``embeds[i]``, a pair of axis maps, places a copy of it in the empty
    root of outer probe i, and ``uppers[j]``, ``lowers[j]`` are the upper
    and lower roots of base probe j in helper coordinates.  Each pair
    (outer P, base Q) claims an upper probe, then a lower probe, each
    claimed to pierce its set in B_k (``claimed_graph``).  ``seal`` checks
    the level, and its box must be the outer level's.
    """
    copies = list(outer.family)
    roots: list[Rect] = []
    for embed in embeds:
        copies.extend(c.rebase(embed, f"inner({k})/{c.lineage}") for c in helper)
        roots.extend(map_rect(*embed, r) for pair in zip(uppers, lowers) for r in pair)
    level = seal(k, copies, list(zip(roots, claimed_graph(k).pierced, strict=True)), epsilon)
    if level.bbox != outer.bbox:
        raise ConstructionError("embedded helpers escaped the outer bounding box")
    return level


def next_level(prev: Level, shape: ShapeDef) -> Level:
    """One recursion step: the augmented previous level is the helper, and
    a copy shrunk to half size goes in the middle of every probe's root.

    The upper root of a probe is its diagonal's empty rectangle, the lower
    root the lower split part left of the cut line (``step_roots``).

    Each pierced copy stabs both split parts, as it stabs the sealed
    probe: a split part is a band of the probe over its full x range.
    ``augment`` checks the diagonals, and ``seal`` every new probe.
    """
    helper = augment(prev, shape)
    helper_bbox = family_bbox(helper)
    halves, lowers = zip(*map(step_roots, prev.probes))
    embeds = [rect_map(helper_bbox, half) for half in halves]
    uppers = [d.apply(shape.features.empty_rect) for d in helper[len(prev.family):]]
    return embed_helpers(prev.k + 1, prev, helper, embeds, uppers, lowers)


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
    check_diagonals(FamilyGrid(family), level.k, len(level.family))
    return family
