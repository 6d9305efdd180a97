"""Recursive construction of triangle-free families under independent
horizontal/vertical scaling, with per-level probe certificates.

Level k holds s_k copies and p_k pairwise disjoint probes, where

    s_1 = p_1 = 1,   s_{k+1} = (p_k + 1) * s_k + p_k^2,   p_{k+1} = 2 * p_k^2.

A probe is a rectangle reaching the family's right edge whose pierced
copies are pairwise disjoint vertical stabbers, with an empty left part
(the root).  Every proper coloring of level k is forced to spend at
least k colors on the pierced set of some probe; attaching one final
diagonal per probe then pushes the chromatic number past k.

Nothing here is trusted: every structural claim used by the recursion
(diagonal contact sets, probe conditions, disjointness) is re-verified
exactly after each step, and a violation raises ConstructionError.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations, islice, takewhile
from typing import Iterator, Optional, Sequence

from .errors import ConstructionError, fail_on
from .geometry import Rat, Rect, XYTransform
from .shapes import (
    ShapeDef,
    TransformedCopy,
    copies_intersect,
    copy_meets_rect,
    family_bbox,
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
class ConstructionLevel:
    k: int
    shape_id: str
    family: tuple[TransformedCopy, ...]
    probes: tuple[Probe, ...]


@dataclass(frozen=True)
class ProbeLaw:
    """Expected-versus-actual contact record for one new probe."""

    kind: str  # "upper" or "lower"
    outer_probe: int
    inner_probe: int
    expected: frozenset[int]
    actual: frozenset[int]


@dataclass(frozen=True)
class DiagonalLaw:
    """Contact record for one helper diagonal against the previous family."""

    probe: int
    pierced: frozenset[int]
    neighbors: frozenset[int]
    upper_pierced: frozenset[int]


@dataclass(frozen=True)
class LevelReport:
    diagonals: tuple[DiagonalLaw, ...]
    probes: tuple[ProbeLaw, ...]


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


def probe_conditions(probe: Probe, copies: Sequence[TransformedCopy], bbox: Rect,
                     epsilon: Optional[Rat] = None) -> list[str]:
    """The probe conditions, checked exactly.  Empty list = valid.

    The copies the probe rectangle meets must be exactly ``probe.pierced``
    (the expected contact set while building, the stored set when
    verifying), pairwise disjoint and vertical stabbers, and the root left
    of the cut must be empty.  Passing ``epsilon`` makes it an eps-probe
    check: the root must also be a square and the width/height ratio
    exactly 1 + eps.
    """
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
    actual = [i for i, c in enumerate(copies) if copy_meets_rect(c, rect)]
    if actual != sorted(probe.pierced):
        out.append(f"pierced set mismatch: claimed {sorted(probe.pierced)}, actual {actual}")
    for a, b in combinations(actual, 2):
        if copies_intersect(copies[a], copies[b]):
            out.append(f"pierced copies {a} and {b} intersect")
    for i in actual:
        if not stabs_vertically(copies[i], rect):
            out.append(f"pierced copy {i} does not stab the probe vertically")
    for i, c in enumerate(copies):
        if copy_meets_rect(c, root):
            out.append(f"root meets copy {i}")
    return out


def probe_overlaps(probes: Sequence[Probe]) -> list[str]:
    """One message per pair of probes whose rectangles meet."""
    return [f"probes {i} and {j} are not disjoint"
            for (i, p), (j, q) in combinations(enumerate(probes), 2)
            if p.rect.intersects(q.rect)]


def diagonal_law(base: Sequence[TransformedCopy], diagonals: Sequence[TransformedCopy],
                 probes: Sequence[Probe]) -> list[str]:
    """The closing diagonals' contact law.  Empty list = it holds.

    Diagonal i meets exactly the copies of ``base`` pierced by probe i, and
    no two diagonals meet.
    """
    if len(diagonals) != len(probes):
        return ["diagonal count differs from probe count"]
    out: list[str] = []
    for i, (diag, probe) in enumerate(zip(diagonals, probes)):
        neighbors = [j for j, c in enumerate(base) if copies_intersect(diag, c)]
        if frozenset(neighbors) != frozenset(probe.pierced):
            out.append(f"diagonal {i} meets {neighbors}, expected {sorted(probe.pierced)}")
    for (i, a), (j, b) in combinations(enumerate(diagonals), 2):
        if copies_intersect(a, b):
            out.append(f"diagonals {i} and {j} intersect")
    return out


def finish_probe(rect: Rect, cut: Rat, expected: frozenset[int],
                 copies: Sequence[TransformedCopy], bbox: Rect,
                 epsilon: Optional[Rat] = None) -> Probe:
    """The probe on ``rect`` rooted left of ``cut``, certified to pierce
    exactly ``expected``."""
    probe = Probe(rect, Rect(rect.x_lo, cut, rect.y_lo, rect.y_hi), cut, sorted(expected))
    fail_on(probe_conditions(probe, copies, bbox, epsilon))
    return probe


def base_level(shape: ShapeDef) -> ConstructionLevel:
    """Level 1: the shape itself; the probe extends E to the right edge."""
    copy = TransformedCopy(shape.name, shape.shape, XYTransform.identity(), "outer")
    feats = shape.features
    e = feats.empty_rect
    bbox = copy.bbox
    rect = Rect(e.x_lo, bbox.x_hi, e.y_lo, e.y_hi)
    probe = finish_probe(rect, e.x_hi, frozenset({0}), [copy], bbox)
    return ConstructionLevel(1, shape.name, (copy,), (probe,))


def next_level(prev: ConstructionLevel,
               shape: ShapeDef) -> tuple[ConstructionLevel, LevelReport]:
    """One recursion step: helper diagonals, inner embeddings, new probes."""
    bbox = family_bbox(prev.family)
    diagonals: list[TransformedCopy] = []
    diag_empties: list[Rect] = []
    diag_laws: list[DiagonalLaw] = []
    for i, p in enumerate(prev.probes):
        diag = make_diagonal(p, shape, bbox, f"diagonal(P{i})")
        upper, lower = split_probe(p)
        neighbors = frozenset(j for j, c in enumerate(prev.family)
                              if copies_intersect(diag, c))
        upper_pierced = frozenset(j for j, c in enumerate(prev.family)
                                  if copy_meets_rect(c, upper))
        pierced = frozenset(p.pierced)
        if neighbors != pierced or upper_pierced != pierced:
            raise ConstructionError(
                f"diagonal contact law violated at probe {i}: pierced {sorted(pierced)}, "
                f"neighbors {sorted(neighbors)}, upper {sorted(upper_pierced)}")
        for j in p.pierced:
            if not (stabs_vertically(prev.family[j], upper)
                    and stabs_vertically(prev.family[j], lower)):
                raise ConstructionError(
                    f"copy {j} fails to stab a split part of probe {i}")
        if not stabs_horizontally(diag, upper):
            raise ConstructionError(f"diagonal {i} does not cross its probe's upper part")
        diagonals.append(diag)
        diag_empties.append(diag.transform.apply(shape.features.empty_rect))
        diag_laws.append(DiagonalLaw(i, pierced, neighbors, upper_pierced))

    helper = list(prev.family) + diagonals
    helper_bbox = family_bbox(helper)
    new_k = prev.k + 1

    copies: list[TransformedCopy] = list(prev.family)
    pending: list[tuple[str, int, int, Rect, Rat, frozenset[int]]] = []
    for pi, p in enumerate(prev.probes):
        target = p.root.concentric(Fraction(1, 2), Fraction(1, 2))
        embed = XYTransform.rect_map(helper_bbox, target)
        offset = len(copies)
        copies.extend(c.rebase(embed, f"inner({new_k})/{c.lineage}") for c in helper)
        base_ids = range(offset, offset + len(prev.family))
        diag_ids = range(offset + len(prev.family), offset + len(helper))
        outer_pierced = frozenset(p.pierced)
        for qi, q in enumerate(prev.probes):
            q_rect = embed.apply(q.rect)
            q_cut = embed.x(q.root_cut_x)
            e_dq = embed.apply(diag_empties[qi])
            upper_expected = outer_pierced | {diag_ids[qi]}
            pending.append(("upper", pi, qi,
                            Rect(e_dq.x_lo, bbox.x_hi, e_dq.y_lo, e_dq.y_hi),
                            e_dq.x_hi, upper_expected))
            q_h = q_rect.height * _SPLIT
            lower_expected = outer_pierced | frozenset(base_ids[j] for j in q.pierced)
            pending.append(("lower", pi, qi,
                            Rect(q_rect.x_lo, bbox.x_hi, q_rect.y_lo, q_rect.y_lo + q_h),
                            q_cut, lower_expected))

    if family_bbox(copies) != bbox:
        raise ConstructionError("inner families escaped the previous bounding box")
    s_k, p_k = size_formulas(new_k)
    if len(copies) != s_k:
        raise ConstructionError(f"family size {len(copies)} != s_{new_k} = {s_k}")
    if len(pending) != p_k:
        raise ConstructionError(f"probe count {len(pending)} != p_{new_k} = {p_k}")

    probes: list[Probe] = []
    laws: list[ProbeLaw] = []
    for kind, pi, qi, rect, cut, expected in pending:
        probe = finish_probe(rect, cut, expected, copies, bbox)
        probes.append(probe)
        laws.append(ProbeLaw(kind, pi, qi, expected, frozenset(probe.pierced)))
    fail_on(probe_overlaps(probes))

    level = ConstructionLevel(new_k, shape.name, tuple(copies), tuple(probes))
    return level, LevelReport(tuple(diag_laws), tuple(laws))


def build(k: int, shape: ShapeDef) -> ConstructionLevel:
    """Level k of the construction for the given catalog shape."""
    if k < 1:
        raise ValueError("k must be at least 1")
    level = base_level(shape)
    for _ in range(k - 1):
        level, _ = next_level(level, shape)
    return level


def augment(level: ConstructionLevel, shape: ShapeDef) -> tuple[TransformedCopy, ...]:
    """Attach one diagonal per probe, raising the forced color count by one.

    The result has s_k + p_k members; each new diagonal meets exactly the
    copies pierced by its probe, and the diagonals are pairwise disjoint.
    """
    bbox = family_bbox(level.family)
    diagonals = tuple(make_diagonal(p, shape, bbox, f"diagonal(P{i})")
                      for i, p in enumerate(level.probes))
    fail_on(diagonal_law(level.family, diagonals, level.probes))
    return level.family + diagonals
