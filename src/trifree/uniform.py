"""Recursive construction of triangle-free families of homothets
(uniform scale plus translation) of an anchored shape.

Level (k, eps) mirrors the independent-scaling recursion, but every
copy is a homothet and every probe is an eps-probe: its root is an
empty *square* and its width/height ratio is exactly 1 + eps.  A level is
an ``independent.Level`` that carries its eps, its probes are
``independent.Probe`` records (cut line at the root's right side), and the
recursion step is the one ``independent.embed_helpers`` shared by both
constructions: the same embedding of a helper per outer root, the same
contact law for the upper and lower probes, and the same seal, with
``epsilon`` making every probe an eps-probe (``independent.grow_probe``
carves it) checked as one.  ``independent.diagonal_law`` checks the
closing diagonals.  The helper law is checked on each helper as it is
built, from the ``HelperAudit`` that ``_make_helper`` returns.

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
from .independent import Level, diagonal_law, embed_helpers, finish_probes


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


def _require_anchor(shape: ShapeDef) -> AnchoredFrame:
    if shape.anchor is None:
        raise ValueError(f"shape {shape.name!r} has no anchored representative")
    return shape.anchor


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


def _make_helper(inner: Level, eps: Rat, shape: ShapeDef) -> tuple[
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
        diagonals.append(diag)
        uppers.append(diag.transform.apply(anchor.empty_square(eps1)))
        lowers.append(_lower_right_quadrant(p.root))

    helper = list(inner.family) + diagonals
    helper_boxes = [c.bbox for c in helper]
    for name, roots in (("upper", uppers), ("lower", lowers)):
        for i, (r, ids) in enumerate(zip(roots, boxes_meeting(roots, helper_boxes))):
            if r.width != r.height:
                raise ConstructionError(f"{name} root {i} is not a square")
            if any(copy_meets_rect(helper[j], r) for j in ids):
                raise ConstructionError(f"{name} root {i} is not empty")
    audit = HelperAudit(delta, m, eps1, bbox0,
                        tuple(p.root for p in inner.probes),
                        tuple(diagonals), tuple(uppers))
    fail_on(helper_law(audit))
    return helper, uppers, lowers, audit


def build_uniform(k: int, epsilon: Rat, shape: ShapeDef) -> Level:
    """Level (k, eps) of the homothet construction."""
    anchor = _require_anchor(shape)
    if not (0 < epsilon < 1):
        raise ValueError(f"epsilon must lie in (0,1): {epsilon}")
    if k < 1:
        raise ValueError("k must be at least 1")

    if k == 1:
        copy = TransformedCopy(shape.name, anchor.shape, XYTransform.identity(), "outer")
        probes = finish_probes([(anchor.empty_square(epsilon), frozenset({0}))], [copy],
                               copy.bbox, epsilon)
        return Level(1, shape.name, (copy,), tuple(probes), epsilon)

    inner = build_uniform(k - 1, epsilon / 8, shape)
    helper, uppers, lowers, _ = _make_helper(inner, epsilon, shape)
    helper_bbox = family_bbox(helper)
    side = max(helper_bbox.width, helper_bbox.height)
    min_root = min(r.width for r in uppers + lowers)
    outer = build_uniform(k - 1, epsilon * min_root / (2 * side), shape)
    embeds = []
    for p in outer.probes:
        factor = p.root.width / side
        embeds.append(XYTransform(
            factor, factor,
            p.root.x_hi - factor * helper_bbox.x_hi,
            p.root.y_lo + (p.root.width - factor * helper_bbox.height) / 2
            - factor * helper_bbox.y_lo))
    copies, probes = embed_helpers(k, outer.family, outer.probes, helper, inner.probes,
                                   embeds, uppers, lowers, epsilon)
    if any(not c.transform.is_uniform for c in copies):
        raise ConstructionError("a copy is not a homothet")
    return Level(k, shape.name, tuple(copies), tuple(probes), epsilon)


def helper_law(audit: HelperAudit) -> list[str]:
    """The diagonal claims of one helper, re-checked from its audit data:
    one message per failed claim per diagonal, empty when all hold.

    Each diagonal sticks out of the template box by exactly m, its
    eps1-empty square clears that box, it meets its root, and its shift
    obeys delta*s + m <= (eps/2)*(s/2) with eps = 8*delta.
    """
    a = audit
    out: list[str] = []
    for i, (root, diag, e1) in enumerate(zip(a.roots, a.diagonals, a.empty_squares)):
        if diag.bbox.x_hi - a.template_bbox.x_hi != a.m:
            out.append(f"diagonal {i} does not stick out of the template box by exactly m")
        if not e1.x_lo > a.template_bbox.x_hi:
            out.append(f"eps1-empty square of diagonal {i} does not clear the template box")
        if not copy_meets_rect(diag, root):
            out.append(f"diagonal {i} does not meet its root")
        if not a.delta * root.width + a.m <= (8 * a.delta / 2) * (root.width / 2):
            out.append(f"diagonal {i} breaks the shift bound")
    return out


def augment_uniform(level: Level, shape: ShapeDef) -> tuple[TransformedCopy, ...]:
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
