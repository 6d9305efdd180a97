"""Recursive construction of triangle-free families of homothets
(uniform scale plus translation) of an anchored shape.

Level (k, eps) mirrors the independent-scaling recursion, but every
copy is a homothet and every probe is an eps-probe: its root is an
empty *square* and its width/height ratio is exactly 1 + eps.  A level is
an ``independent.Level`` that carries its eps, and the recursion step is
the one ``independent.embed_helpers`` that both constructions share.
Every level, the first included, is sealed by ``independent.seal``: with
``epsilon`` set, ``grow_probe`` carves each probe as an eps-probe and
``level_law`` checks that every copy is a homothet, every probe an
eps-probe and the level B_k, as ``verify`` does on the stored family.
``independent.check_diagonals`` checks the diagonals against B_k, the
closing ones and, on a grid of the helper and its roots, each helper's;
the helper's upper and lower roots are left to the ``seal`` of the level
that embeds them.

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
  embed a helper homothet in each outer root by ``geometry.rect_map``
  from that square, flush with the helper's right side and centred on it
  in y, onto the root, and carve one exact eps-probe out of every
  embedded upper and lower root.

Each entry point takes the shape's anchor from ``ShapeDef.anchored``, which
refuses a shape with none, and reads its eps-empty squares; the tests check
``shapes.anchored_violations`` at every eps a build hands the anchor.
All other quantitative claims along the way are asserted, never assumed.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import ConstructionError, fail_on
from .geometry import Rat, Rect, grid_rect, lift_pairs, rect_map
from .shapes import AnchoredFrame, FamilyGrid, ShapeDef, TransformedCopy, family_bbox
from .independent import Level, check_diagonals, claimed_graph, embed_helpers, seal


def _square_homothet(shape: ShapeDef, anchor: AnchoredFrame, square: Rect,
                     lineage: str) -> TransformedCopy:
    """A homothet whose bounding square fills the given square, read from
    its lift."""
    x0, x1, y0, y1 = square.int_box
    if x1 - x0 != y1 - y0:
        raise ConstructionError("homothet target is not a square")
    return TransformedCopy(shape.name, anchor.shape,
                           *rect_map(anchor.bounding_square, square), lineage)


def _make_helper(inner: Level, eps: Rat, shape: ShapeDef) -> tuple[
        list[TransformedCopy], list[Rect], list[Rect]]:
    """Diagonals plus upper/lower roots for the inner template.

    Each diagonal's claims are checked on the helper's grid, one message
    per failed claim per diagonal: it sticks out of the template box by
    exactly m, its eps1-empty square clears that box, it meets its root,
    and its shift obeys delta*s + m <= (eps/2)*(s/2).  Their contacts
    follow on the same grid (``check_diagonals``).  The upper and lower
    roots are squares by construction (``grow_probe`` refuses others), and
    ``seal`` checks the root carved from each for emptiness.
    """
    anchor = shape.anchored()
    delta = inner.epsilon
    roots = [p.root for p in inner.probes]
    s_min, s_max = min(r.width for r in roots), max(r.width for r in roots)
    m = delta * s_min
    eps1 = 2 * m / s_max
    if not (0 < eps1 < 1):
        raise ConstructionError(f"eps1 = {eps1} escaped (0,1)")
    if eps1 > eps / 2:
        raise ConstructionError(f"eps1 = {eps1} exceeds eps/2 = {eps / 2}")
    bbox0 = inner.bbox
    empty = anchor.empty_square(eps1)

    diagonals: list[TransformedCopy] = []
    uppers: list[Rect] = []
    lowers: list[Rect] = []
    for i, r in enumerate(roots):
        # the diagonal fills the root's top-right quadrant, shifted right;
        # the lower root is the root's lower-right quadrant
        x_mid, y_mid, shift = r.x_lo + r.width / 2, r.y_lo + r.height / 2, delta * r.width + m
        square = Rect(x_mid + shift, r.x_hi + shift, y_mid, r.y_hi)
        diagonals.append(_square_homothet(shape, anchor, square, f"diagonal(P{i})"))
        uppers.append(diagonals[-1].apply(empty))
        lowers.append(Rect(x_mid, r.x_hi, r.y_lo, y_mid))

    helper = list(inner.family) + diagonals
    n_base = len(inner.family)
    grid = FamilyGrid(helper, roots)
    faults: list[str] = []
    for i, (root, box, diag, e1) in enumerate(
            zip(roots, grid.rect_boxes, diagonals, uppers)):
        if diag.bbox.x_hi - bbox0.x_hi != m:
            faults.append(f"diagonal {i} does not stick out of the template box by exactly m")
        if not e1.x_lo > bbox0.x_hi:
            faults.append(f"eps1-empty square of diagonal {i} does not clear the template box")
        if not grid.meets(n_base + i, box):
            faults.append(f"diagonal {i} does not meet its root")
        if not delta * root.width + m <= (eps / 2) * (root.width / 2):
            faults.append(f"diagonal {i} breaks the shift bound")
    fail_on(faults)
    check_diagonals(grid, inner.k, n_base)
    return helper, uppers, lowers


def build_uniform(k: int, epsilon: Rat, shape: ShapeDef) -> Level:
    """Level (k, eps) of the homothet construction."""
    anchor = shape.anchored()
    if not (0 < epsilon < 1):
        raise ValueError(f"epsilon must lie in (0,1): {epsilon}")
    if k < 1:
        raise ValueError("k must be at least 1")

    if k == 1:
        copy = TransformedCopy(shape.name, anchor.shape, lineage="outer")
        return seal(1, [copy], [(anchor.empty_square(epsilon), claimed_graph(1).pierced[0])],
                    epsilon)

    inner = build_uniform(k - 1, epsilon / 8, shape)
    helper, uppers, lowers = _make_helper(inner, epsilon, shape)
    # the helper's square: side s = max(width, height) of its box, flush
    # with the box's right side and centred on it in y, over 2*den
    box = family_bbox(helper)
    bd, (b0, b1, b2, b3) = box.den, box.int_box
    s = max(b1 - b0, b3 - b2)
    square = grid_rect(2 * bd, (2 * (b1 - s), 2 * b1, b2 + b3 - s, b2 + b3 + s))
    min_root = min(r.width for r in uppers + lowers)
    outer = build_uniform(k - 1, epsilon * min_root / (2 * Fraction(s, bd)), shape)
    embeds = [rect_map(square, p.root) for p in outer.probes]
    return embed_helpers(k, outer, helper, embeds, uppers, lowers, epsilon)


def augment_uniform(level: Level, shape: ShapeDef) -> tuple[TransformedCopy, ...]:
    """Attach one diagonal homothet per probe, forcing one extra color.

    Each diagonal's bounding square has side max(s/2, eps*s) for a root
    of side s, is top-aligned with the root, and ends flush with the
    family's right edge.  That makes its material span the whole strip
    between the root and the right edge, so it meets every copy pierced
    by the probe and nothing else; both facts are verified exactly.
    """
    anchor = shape.anchored()
    # the square's side is m*s, m = max(1/2, eps) = mp/mq
    m = max(Fraction(1, 2), level.epsilon)
    mp, mq = m.numerator, m.denominator
    bd, b1 = level.bbox.den, level.bbox.int_box[1]
    diagonals: list[TransformedCopy] = []
    for i, p in enumerate(level.probes):
        rd, (r0, r1, _, r3) = p.root.den, p.root.int_box
        # the square [x_hi - side, x_hi] x [y_hi - side, y_hi] over rd*bd*mq
        den, side, x_hi, y_hi = rd * bd * mq, (r1 - r0) * mp * bd, b1 * rd * mq, r3 * bd * mq
        square = lift_pairs((x_hi - side, den), (x_hi, den), (y_hi - side, den), (y_hi, den))
        if not p.rect.contains_rect(square):
            raise ConstructionError(f"augmenting square escapes probe {i}")
        diagonals.append(_square_homothet(shape, anchor, square, f"diagonal(P{i})"))
    family = level.family + tuple(diagonals)
    check_diagonals(FamilyGrid(family), level.k, len(level.family))
    return family
