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

Nothing here is trusted: every structural claim used by the recursion
(diagonal contact sets, probe conditions, disjointness) is re-verified
exactly after each step, and a violation raises ConstructionError.
Each check takes its candidates from one y-sweep over bounding boxes
(``shapes.meeting_pairs``, ``shapes.boxes_meeting``) and runs the exact
predicates on those alone: a copy whose box misses a probe's rectangle
and root, a diagonal or another diagonal cannot meet it.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from fractions import Fraction
from itertools import combinations, islice, takewhile
from typing import Iterator, Optional, Sequence

from .errors import ConstructionError, fail_on
from .geometry import Rat, Rect, XYTransform
from .shapes import (
    ShapeDef,
    TransformedCopy,
    boxes_meeting,
    copies_intersect,
    copy_meets_rect,
    family_bbox,
    meeting_pairs,
    stabs_horizontally,
    stabs_vertically,
)

# P-up takes the top 2/5 of a probe, P-down the bottom 2/5; the middle
# fifth is the separating margin.
_SPLIT = Fraction(2, 5)


@dataclass(frozen=True)
class Probe:
    rect: Rect
    root: Rect
    root_cut_x: Rat
    pierced: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "pierced", tuple(self.pierced))


@dataclass(frozen=True)
class Level:
    """Level k of either construction: s_k copies and p_k probes.  A level
    of the homothet construction carries its probe parameter ``epsilon``;
    one built under independent scaling has None."""

    k: int
    shape_id: str
    family: tuple[TransformedCopy, ...]
    probes: tuple[Probe, ...]
    epsilon: Optional[Rat] = None


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
    upper part, then stretched horizontally by 2*w2/w1 about its left edge.

    The stretch factor guarantees the copy's empty rectangle clears the
    family's bounding box on the right; that is re-verified here and a
    failure signals a feature or placement bug.
    """
    feats = shape.features
    upper, _ = split_probe(probe)
    onto_upper = XYTransform.rect_map(feats.bbox, upper)
    factor = 2 * feats.w2 / feats.w1
    stretch = XYTransform(factor, Fraction(1), (1 - factor) * upper.x_lo, Fraction(0))
    copy = TransformedCopy(shape.name, shape.shape, onto_upper.then(stretch), lineage)
    empty = copy.transform.apply(feats.empty_rect)
    if not empty.x_lo > bbox.x_hi:
        raise ConstructionError(
            f"diagonal empty rectangle does not clear the family box: "
            f"{empty.x_lo} <= {bbox.x_hi}")
    return copy


def probe_conditions(probes: Sequence[Probe], copies: Sequence[TransformedCopy], bbox: Rect,
                     epsilon: Optional[Rat] = None) -> list[list[str]]:
    """The probe conditions of each probe, checked exactly: one list of
    messages per probe, empty when it is valid.

    The copies a probe rectangle meets must be exactly ``probe.pierced``
    (the expected contact set while building, the stored set when
    verifying), pairwise disjoint and vertical stabbers, and the root left
    of the cut must be empty.  Passing ``epsilon`` makes these eps-probe
    checks: the root must also be a square and the width/height ratio
    exactly 1 + eps.  One sweep finds, for every probe, the copies whose
    boxes meet the box around its rectangle and its root, so a root moved
    off its rectangle is still checked against every copy it could meet.
    """
    near = boxes_meeting([p.rect.union(p.root) for p in probes], [c.bbox for c in copies])
    return [_probe_messages(p, copies, ids, bbox, epsilon) for p, ids in zip(probes, near)]


def _probe_messages(probe: Probe, copies: Sequence[TransformedCopy], near: Sequence[int],
                    bbox: Rect, epsilon: Optional[Rat]) -> list[str]:
    out: list[str] = []
    rect, root, cut = probe.rect, probe.root, probe.root_cut_x
    if rect.is_degenerate:
        out.append("probe rectangle is degenerate")
    if not bbox.contains_rect(rect):
        out.append("probe leaves the family bounding box")
    if rect.x_hi != bbox.x_hi:
        out.append("probe does not touch the family's right side")
    if not (rect.x_lo < cut < rect.x_hi):
        out.append("root cut line is not interior to the probe")
    if (root.x_lo, root.x_hi, root.y_lo, root.y_hi) != (rect.x_lo, cut, rect.y_lo, rect.y_hi):
        out.append("root is not the left part of the probe at the cut line")
    if epsilon is not None:
        if root.width != root.height:
            out.append("root is not a square")
        if rect.width != (1 + epsilon) * rect.height:
            out.append("width/height ratio is not exactly 1+eps")
    actual = [i for i in near if copy_meets_rect(copies[i], rect)]
    if actual != sorted(probe.pierced):
        out.append(f"pierced set mismatch: claimed {sorted(probe.pierced)}, actual {actual}")
    for a, b in combinations(actual, 2):
        if copies_intersect(copies[a], copies[b]):
            out.append(f"pierced copies {a} and {b} intersect")
    for i in actual:
        if not stabs_vertically(copies[i], rect):
            out.append(f"pierced copy {i} does not stab the probe vertically")
    for i in near:
        if copy_meets_rect(copies[i], root):
            out.append(f"root meets copy {i}")
    return out


def probe_overlaps(probes: Sequence[Probe]) -> list[str]:
    """One message per pair of probes whose rectangles meet."""
    return [f"probes {i} and {j} are not disjoint"
            for i, j in meeting_pairs([p.rect for p in probes])]


def diagonal_law(base: Sequence[TransformedCopy], diagonals: Sequence[TransformedCopy],
                 probes: Sequence[Probe]) -> list[str]:
    """The closing diagonals' contact law.  Empty list = it holds.

    Diagonal i meets exactly the copies of ``base`` pierced by probe i, and
    no two diagonals meet.
    """
    if len(diagonals) != len(probes):
        return ["diagonal count differs from probe count"]
    out: list[str] = []
    diag_boxes = [d.bbox for d in diagonals]
    near = boxes_meeting(diag_boxes, [c.bbox for c in base])
    for i, (diag, probe, ids) in enumerate(zip(diagonals, probes, near)):
        neighbors = [j for j in ids if copies_intersect(diag, base[j])]
        if frozenset(neighbors) != frozenset(probe.pierced):
            out.append(f"diagonal {i} meets {neighbors}, expected {sorted(probe.pierced)}")
    for i, j in meeting_pairs(diag_boxes):
        if copies_intersect(diagonals[i], diagonals[j]):
            out.append(f"diagonals {i} and {j} intersect")
    return out


def grow_probe(root: Rect, bbox: Rect, epsilon: Optional[Rat] = None) -> Probe:
    """The probe grown from an empty root to the family's right side, with
    an empty pierced set.

    Without ``epsilon`` the probe is the root extended to the right side,
    cut at the root's right side.  With ``epsilon`` the root must be an
    empty square, and the probe is an exact eps-probe whose root sits flush
    left and bottom in it: the square's distance d to the right side must
    be at most eps times its side, and the probe height
    h = (side + d) / (1 + eps) then makes the ratio exact while keeping the
    root inside the square.
    """
    if epsilon is None:
        return Probe(Rect(root.x_lo, bbox.x_hi, root.y_lo, root.y_hi), root, root.x_hi, ())
    if root.width != root.height:
        raise ValueError("an eps-probe needs a square root")
    side = root.width
    d = bbox.x_hi - root.x_hi
    if d < 0:
        raise ValueError("square lies beyond the family's right side")
    if d > epsilon * side:
        raise ValueError(f"square too far from the right side: {d} > {epsilon * side}")
    h = (side + d) / (1 + epsilon)
    carved = Rect(root.x_lo, root.x_lo + h, root.y_lo, root.y_lo + h)
    return Probe(Rect(root.x_lo, bbox.x_hi, root.y_lo, root.y_lo + h), carved, carved.x_hi, ())


def finish_probes(claims: Sequence[tuple[Rect, frozenset[int]]],
                  copies: Sequence[TransformedCopy], bbox: Rect,
                  epsilon: Optional[Rat] = None) -> list[Probe]:
    """For each claim (root, expected), the probe ``grow_probe`` grows from
    ``root``, all certified in one batch to pierce exactly their
    ``expected`` sets; the first probe that fails raises its messages."""
    probes = [replace(grow_probe(root, bbox, epsilon), pierced=sorted(expected))
              for root, expected in claims]
    for messages in probe_conditions(probes, copies, bbox, epsilon):
        fail_on(messages)
    return probes


def base_level(shape: ShapeDef) -> Level:
    """Level 1: the shape itself; the probe extends E to the right edge."""
    copy = TransformedCopy(shape.name, shape.shape, XYTransform.identity(), "outer")
    probes = finish_probes([(shape.features.empty_rect, frozenset({0}))], [copy], copy.bbox)
    return Level(1, shape.name, (copy,), tuple(probes))


def embed_helpers(k: int, outer_family: Sequence[TransformedCopy],
                  outer_probes: Sequence[Probe], helper: Sequence[TransformedCopy],
                  base_probes: Sequence[Probe], embeds: Sequence[XYTransform],
                  uppers: Sequence[Rect], lowers: Sequence[Rect],
                  epsilon: Optional[Rat] = None) -> tuple[list[TransformedCopy], list[Probe]]:
    """The recursion step both constructions share: the copies and probes
    of level k, sealed.

    The helper is a base family followed by one diagonal per base probe.
    ``embeds[i]`` places a copy of it in the empty root of outer probe i,
    and ``uppers[j]``, ``lowers[j]`` are the upper and lower roots of base
    probe j in helper coordinates.  Each pair (outer P, base Q) claims an
    upper probe, then a lower probe, by the one contact law: the upper
    probe pierces P's copies and the embedded diagonal of Q, the lower one
    P's copies and the embedded copies Q pierces.  The seal checks that the
    family box is unchanged, the sizes s_k and p_k, every probe condition
    and that the probes are pairwise disjoint.
    """
    bbox = family_bbox(outer_family)
    n_base = len(helper) - len(base_probes)
    copies = list(outer_family)
    claims: list[tuple[Rect, frozenset[int]]] = []
    for p, embed in zip(outer_probes, embeds):
        offset = len(copies)
        copies.extend(c.rebase(embed, f"inner({k})/{c.lineage}") for c in helper)
        outer_pierced = frozenset(p.pierced)
        for qi, q in enumerate(base_probes):
            claims.append((embed.apply(uppers[qi]), outer_pierced | {offset + n_base + qi}))
            claims.append((embed.apply(lowers[qi]),
                           outer_pierced | frozenset(offset + j for j in q.pierced)))

    if family_bbox(copies) != bbox:
        raise ConstructionError("embedded helpers escaped the outer bounding box")
    s_k, p_k = size_formulas(k)
    if len(copies) != s_k:
        raise ConstructionError(f"family size {len(copies)} != s_{k} = {s_k}")
    if len(claims) != p_k:
        raise ConstructionError(f"probe count {len(claims)} != p_{k} = {p_k}")
    probes = finish_probes(claims, copies, bbox, epsilon)
    fail_on(probe_overlaps(probes))
    return copies, probes


def next_level(prev: Level, shape: ShapeDef) -> Level:
    """One recursion step: the augmented previous level is the helper, and
    a copy shrunk to half size goes in the middle of every probe's root.

    The upper root of a probe is its diagonal's empty rectangle, the lower
    root the lower split part left of the cut line.
    """
    helper = augment(prev, shape)
    diagonals = helper[len(prev.family):]
    splits = [split_probe(p) for p in prev.probes]
    near = boxes_meeting([upper for upper, _ in splits], [c.bbox for c in prev.family])
    for i, (p, diag, (upper, lower), ids) in enumerate(
            zip(prev.probes, diagonals, splits, near)):
        upper_pierced = [j for j in ids if copy_meets_rect(prev.family[j], upper)]
        if upper_pierced != sorted(p.pierced):
            raise ConstructionError(
                f"upper part of probe {i} meets {upper_pierced}, expected {sorted(p.pierced)}")
        for j in p.pierced:
            if not (stabs_vertically(prev.family[j], upper)
                    and stabs_vertically(prev.family[j], lower)):
                raise ConstructionError(
                    f"copy {j} fails to stab a split part of probe {i}")
        if not stabs_horizontally(diag, upper):
            raise ConstructionError(f"diagonal {i} does not cross its probe's upper part")

    helper_bbox = family_bbox(helper)
    half = Fraction(1, 2)
    embeds = [XYTransform.rect_map(helper_bbox, p.root.concentric(half, half))
              for p in prev.probes]
    uppers = [d.transform.apply(shape.features.empty_rect) for d in diagonals]
    lowers = [Rect(lower.x_lo, p.root_cut_x, lower.y_lo, lower.y_hi)
              for p, (_, lower) in zip(prev.probes, splits)]
    copies, probes = embed_helpers(prev.k + 1, prev.family, prev.probes, helper,
                                   prev.probes, embeds, uppers, lowers)
    return Level(prev.k + 1, shape.name, tuple(copies), tuple(probes))


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
    bbox = family_bbox(level.family)
    diagonals = tuple(make_diagonal(p, shape, bbox, f"diagonal(P{i})")
                      for i, p in enumerate(level.probes))
    fail_on(diagonal_law(level.family, diagonals, level.probes))
    return level.family + diagonals
