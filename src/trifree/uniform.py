"""Recursive construction of triangle-free families of homothets
(uniform scale plus translation) of an anchored shape.

Level (k, eps) mirrors the independent-scaling recursion, but every
copy is a homothet and every probe is an eps-probe: its root is an
empty *square* and its width/height ratio is exactly 1 + eps.  Probes are
``independent.Probe`` records (cut line at the root's right side), and the
claims shared with that recursion are checked by the same code:
``independent.probe_conditions`` with ``epsilon`` for the probes,
``independent.probe_overlaps`` for their disjointness, and
``independent.diagonal_law`` for the closing diagonals.

One recursion step, for the target parameter eps:

* build the inner template at parameter eps/8, whose probes have square
  roots of widths s; with m = (eps/8) * s_min and eps1 = 2m / s_max,
  place a diagonal homothet in each root's top-right quadrant shifted
  right by (eps/8) * s + m.  Each diagonal then protrudes from the
  template's box by exactly m and its eps1-empty square clears the box;
* the template plus diagonals is the helper family; each probe gains an
  upper root (the diagonal's eps1-empty square) and a lower root (the
  root's lower-right quadrant), both empty squares sitting close enough
  to the right edge;
* build the outer family at parameter eps*t/(2s), where s is the side
  of the smallest square containing the helper and t the smallest root;
  embed a helper homothet flush against the right side of each outer
  root, and carve one exact eps-probe out of every embedded upper and
  lower root.

All quantitative claims along the way are asserted, never assumed.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .errors import ConstructionError, fail_on
from .geometry import Rat, Rect, XYTransform
from .shapes import (
    AnchoredFrame,
    ShapeDef,
    TransformedCopy,
    boxes_meeting,
    copy_meets_rect,
    family_bbox,
)
from .independent import (
    Probe,
    diagonal_law,
    finish_probes,
    probe_overlaps,
    size_formulas,
)


@dataclass(frozen=True)
class HelperAudit:
    """Template-frame data needed to re-verify the diagonal claims."""

    delta: Rat          # the inner template's probe parameter (eps/8)
    m: Rat
    eps1: Rat
    template_bbox: Rect
    roots: tuple[Rect, ...]
    diagonals: tuple[TransformedCopy, ...]
    empty_squares: tuple[Rect, ...]
    square_side: Rat    # side of the smallest square containing the helper
    min_root: Rat       # smallest upper/lower root side


@dataclass(frozen=True)
class UniformLevel:
    k: int
    epsilon: Rat
    shape_id: str
    family: tuple[TransformedCopy, ...]
    probes: tuple[Probe, ...]
    audit: Optional[HelperAudit] = None


@dataclass(frozen=True)
class DiagonalCheck:
    probe: int
    sticks_out_exactly_m: bool
    empty_square_clear: bool
    root_meets_diagonal: bool
    shift_inequality: bool

    @property
    def ok(self) -> bool:
        return (self.sticks_out_exactly_m and self.empty_square_clear
                and self.root_meets_diagonal and self.shift_inequality)


def _require_anchor(shape: ShapeDef) -> AnchoredFrame:
    if shape.anchor is None:
        raise ValueError(f"shape {shape.name!r} has no anchored representative")
    return shape.anchor


def carve_probe(root_sq: Rect, epsilon: Rat, bbox: Rect) -> Probe:
    """An exact eps-probe whose root sits flush left and bottom in an
    empty square.

    Requires the square's distance d to the family's right side to be at
    most eps times its side; the probe height h = (side + d) / (1 + eps)
    then makes the ratio exact while keeping the root inside the square.
    """
    if root_sq.width != root_sq.height:
        raise ValueError("carve_probe needs a square")
    side = root_sq.width
    d = bbox.x_hi - root_sq.x_hi
    if d < 0:
        raise ValueError("square lies beyond the family's right side")
    if d > epsilon * side:
        raise ValueError(f"square too far from the right side: {d} > {epsilon * side}")
    h = (side + d) / (1 + epsilon)
    rect = Rect(root_sq.x_lo, bbox.x_hi, root_sq.y_lo, root_sq.y_lo + h)
    root = Rect(root_sq.x_lo, root_sq.x_lo + h, root_sq.y_lo, root_sq.y_lo + h)
    return Probe(rect, root, root.x_hi, ())


def _top_right_quadrant(r: Rect) -> Rect:
    return Rect(r.x_lo + r.width / 2, r.x_hi, r.y_lo + r.height / 2, r.y_hi)


def _lower_right_quadrant(r: Rect) -> Rect:
    return Rect(r.x_lo + r.width / 2, r.x_hi, r.y_lo, r.y_lo + r.height / 2)


def _square_homothet(shape: ShapeDef, anchor: AnchoredFrame, square: Rect,
                     lineage: str) -> TransformedCopy:
    """A homothet whose bounding square fills the given square."""
    if square.width != square.height:
        raise ConstructionError("homothet target is not a square")
    scale = square.width / anchor.bounding_square.width
    t = XYTransform(scale, scale,
                    square.x_lo - scale * anchor.bounding_square.x_lo,
                    square.y_lo - scale * anchor.bounding_square.y_lo)
    return TransformedCopy(shape.name, anchor.shape, t, lineage)


def _make_helper(inner: UniformLevel, eps: Rat, shape: ShapeDef) -> tuple[
        list[TransformedCopy], list[Rect], list[Rect], HelperAudit]:
    """Diagonals plus upper/lower roots for the inner template."""
    anchor = _require_anchor(shape)
    delta = inner.epsilon
    root_widths = [p.root.width for p in inner.probes]
    s_min, s_max = min(root_widths), max(root_widths)
    m = delta * s_min
    eps1 = 2 * m / s_max
    if not (0 < eps1 < 1):
        raise ConstructionError(f"eps1 = {eps1} escaped (0,1)")
    if eps1 > eps / 2:
        raise ConstructionError(f"eps1 = {eps1} exceeds eps/2 = {eps / 2}")
    bbox0 = family_bbox(inner.family)

    diagonals: list[TransformedCopy] = []
    uppers: list[Rect] = []
    lowers: list[Rect] = []
    for i, p in enumerate(inner.probes):
        shift = delta * p.root.width + m
        quad = _top_right_quadrant(p.root)
        square = Rect(quad.x_lo + shift, quad.x_hi + shift, quad.y_lo, quad.y_hi)
        diag = _square_homothet(shape, anchor, square, f"diagonal(P{i})")
        e1 = diag.transform.apply(anchor.empty_square(eps1))
        if copy_meets_rect(diag, e1):
            raise ConstructionError(f"eps1-empty square of diagonal {i} meets its own material")
        diagonals.append(diag)
        uppers.append(e1)
        lowers.append(_lower_right_quadrant(p.root))

    helper = list(inner.family) + diagonals
    helper_boxes = [c.bbox for c in helper]
    for name, roots in (("upper", uppers), ("lower", lowers)):
        for i, (r, ids) in enumerate(zip(roots, boxes_meeting(roots, helper_boxes))):
            if r.width != r.height:
                raise ConstructionError(f"{name} root {i} is not a square")
            if any(copy_meets_rect(helper[j], r) for j in ids):
                raise ConstructionError(f"{name} root {i} is not empty")
    helper_bbox = family_bbox(helper)
    if helper_bbox.x_hi != bbox0.x_hi + m:
        raise ConstructionError("helper box does not end exactly m past the template box")
    audit = HelperAudit(delta, m, eps1, bbox0,
                        tuple(p.root for p in inner.probes),
                        tuple(diagonals), tuple(uppers),
                        max(helper_bbox.width, helper_bbox.height),
                        min(r.width for r in uppers + lowers))
    failed = [c for c in _audit_checks(audit) if not c.ok]
    if failed:
        raise ConstructionError(f"diagonal claims fail: {failed}")
    return helper, uppers, lowers, audit


def build_uniform(k: int, epsilon: Rat, shape: ShapeDef) -> UniformLevel:
    """Level (k, eps) of the homothet construction."""
    anchor = _require_anchor(shape)
    if not (0 < epsilon < 1):
        raise ValueError(f"epsilon must lie in (0,1): {epsilon}")
    if k < 1:
        raise ValueError("k must be at least 1")

    if k == 1:
        copy = TransformedCopy(shape.name, anchor.shape, XYTransform.identity(), "outer")
        e = anchor.empty_square(epsilon)
        bbox = copy.bbox
        probes = finish_probes([(Rect(e.x_lo, bbox.x_hi, e.y_lo, e.y_hi), e.x_hi,
                                 frozenset({0}))], [copy], bbox, epsilon)
        return UniformLevel(1, epsilon, shape.name, (copy,), tuple(probes))

    inner = build_uniform(k - 1, epsilon / 8, shape)
    helper, uppers, lowers, audit = _make_helper(inner, epsilon, shape)
    helper_bbox = family_bbox(helper)
    square_side = audit.square_side
    outer = build_uniform(k - 1, epsilon * audit.min_root / (2 * square_side), shape)
    bbox = family_bbox(outer.family)

    copies: list[TransformedCopy] = list(outer.family)
    pending: list[tuple[Rect, frozenset[int]]] = []
    n_inner = len(inner.family)
    for pi, p in enumerate(outer.probes):
        factor = p.root.width / square_side
        embed = XYTransform(
            factor, factor,
            p.root.x_hi - factor * helper_bbox.x_hi,
            p.root.y_lo + (p.root.width - factor * helper_bbox.height) / 2
            - factor * helper_bbox.y_lo)
        offset = len(copies)
        copies.extend(c.rebase(embed, f"inner({k})/{c.lineage}") for c in helper)
        outer_pierced = frozenset(p.pierced)
        for qi in range(len(inner.probes)):
            upper_expected = outer_pierced | {offset + n_inner + qi}
            pending.append((embed.apply(uppers[qi]), upper_expected))
            lower_expected = outer_pierced | frozenset(
                offset + j for j in inner.probes[qi].pierced)
            pending.append((embed.apply(lowers[qi]), lower_expected))

    if family_bbox(copies) != bbox:
        raise ConstructionError("embedded helpers escaped the outer bounding box")
    s_k, p_k = size_formulas(k)
    if len(copies) != s_k:
        raise ConstructionError(f"family size {len(copies)} != s_{k} = {s_k}")
    if len(pending) != p_k:
        raise ConstructionError(f"probe count {len(pending)} != p_{k} = {p_k}")
    if any(not c.transform.is_uniform for c in copies):
        raise ConstructionError("a copy is not a homothet")

    carved = [(carve_probe(root_sq, epsilon, bbox), expected) for root_sq, expected in pending]
    probes = finish_probes([(c.rect, c.root_cut_x, expected) for c, expected in carved],
                           copies, bbox, epsilon)
    fail_on(probe_overlaps(probes))
    return UniformLevel(k, epsilon, shape.name, tuple(copies), tuple(probes), audit)


def _audit_checks(a: HelperAudit) -> tuple[DiagonalCheck, ...]:
    # The shift bound is delta*s + m <= (eps/2)*(s/2) with eps = 8*delta.
    return tuple(
        DiagonalCheck(
            probe=i,
            sticks_out_exactly_m=(diag.bbox.x_hi - a.template_bbox.x_hi == a.m),
            empty_square_clear=(e1.x_lo > a.template_bbox.x_hi),
            root_meets_diagonal=copy_meets_rect(diag, root),
            shift_inequality=(a.delta * root.width + a.m
                              <= (8 * a.delta / 2) * (root.width / 2)))
        for i, (root, diag, e1) in enumerate(zip(a.roots, a.diagonals, a.empty_squares)))


def diagonal_checks(level: UniformLevel) -> tuple[DiagonalCheck, ...]:
    """Re-verify the diagonal claims of the level's top recursion step
    from the stored audit data; the construction runs the same checks.
    Vacuously empty for level 1."""
    return () if level.audit is None else _audit_checks(level.audit)


def augment_uniform(level: UniformLevel, shape: ShapeDef) -> tuple[TransformedCopy, ...]:
    """Attach one diagonal homothet per probe, forcing one extra color.

    Each diagonal's bounding square has side max(s/2, eps*s) for a root
    of side s, is top-aligned with the root, and ends flush with the
    family's right edge.  That makes its material span the whole strip
    between the root and the right edge, so it meets every copy pierced
    by the probe and nothing else; both facts are verified exactly.
    """
    anchor = _require_anchor(shape)
    eps = level.epsilon
    bbox = family_bbox(level.family)
    diagonals: list[TransformedCopy] = []
    for i, p in enumerate(level.probes):
        s = p.root.width
        side = max(s / 2, eps * s)
        square = Rect(bbox.x_hi - side, bbox.x_hi, p.root.y_hi - side, p.root.y_hi)
        if not p.rect.contains_rect(square):
            raise ConstructionError(f"augmenting square escapes probe {i}")
        diagonals.append(_square_homothet(shape, anchor, square, f"diagonal(P{i})"))
    fail_on(diagonal_law(level.family, diagonals, level.probes))
    return level.family + tuple(diagonals)
