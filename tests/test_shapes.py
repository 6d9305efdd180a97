import random
from fractions import Fraction
from functools import cache
from math import lcm

import pytest

from trifree.geometry import Rect, Seg, h_seg, map_rect, rect_map, seg_intersect, v_seg
from trifree.independent import augment, build
from trifree.shapes import (
    AnchoredFrame,
    FamilyGrid,
    RectilinearShape,
    ShapeFeatures,
    TransformedCopy,
    _covers,
    anchored_violations,
    catalog,
    copies_intersect,
    copy_meets_rect,
    family_bbox,
    validate_features,
)
from trifree.uniform import augment_uniform, build_uniform

from _oracles import (
    XYTransform,
    anchored_features_ref,
    axis_map,
    copies_intersect_ref,
    copies_intersect_within,
    copy_meets_rect_ref,
    curve_stabs_ref,
    meeting_pairs,
    meeting_pairs_bruteforce,
    rect_union_all,
    segment_covered,
    spans_ref,
    stab_case,
    stabs_horizontally,
    stabs_vertically,
    from_maps,
    then,
)


def _frame_copy(x0, x1, y0, y1, lineage="t"):
    frame = catalog()["frame"]
    return TransformedCopy("frame", frame.shape,
                           *rect_map(frame.features.bbox, Rect(x0, x1, y0, y1)), lineage)


def test_catalog_shapes_all_validate():
    for name, d in catalog().items():
        assert d.features.shape is d.shape, name
        assert validate_features(d.features) == [], name


@pytest.mark.parametrize("name, w1", [("frame", Fraction(1, 4)), ("lshape", Fraction(1, 4)),
                                      ("cross", Fraction(1, 8))])
def test_catalog_features_derive_box_and_widths(name, w1):
    # the values each catalog entry once declared: U = [0, 1]^2, w2 = 1
    feats = catalog()[name].features
    assert feats.bbox == feats.shape.bbox() == Rect(0, 1, 0, 1)
    assert (feats.w1, feats.w2) == (w1, 1)


def test_catalog_has_required_entries():
    cat = catalog()
    assert {"frame", "lshape", "cross"} <= set(cat)
    assert cat["frame"].features.w1 == Fraction(1, 4)
    assert cat["frame"].features.w2 == 1
    assert cat["frame"].anchor is not None


def test_empty_rect_touching_boundary_violates_ii():
    frame = catalog()["frame"]
    feats = ShapeFeatures(
        frame.shape,
        empty_rect=Rect(Fraction(1, 4), Fraction(3, 4), 0, Fraction(1, 2)),
        left_stabber=frame.features.left_stabber,
        right_stabber=frame.features.right_stabber,
    )
    bad = validate_features(feats)
    assert any(v.startswith("ii") for v in bad)


def test_unmirrored_lshape_fails_iv_and_mirror_passes():
    # Left-and-bottom L: nothing in the band right of E can cross it
    # vertically, whichever curve of the shape is declared.
    q = Fraction(1, 4)
    raw = RectilinearShape((v_seg(0, 0, 1), h_seg(0, 0, 1)))
    feats = ShapeFeatures(
        raw,
        empty_rect=Rect(q, 3 * q, q, 3 * q),
        left_stabber=(h_seg(0, 0, q),),
        right_stabber=(h_seg(0, 3 * q, 1),),  # best available piece; still fails
    )
    bad = validate_features(feats)
    assert any(v.startswith("iv") for v in bad)

    mirrored = catalog()["lshape"]
    assert validate_features(mirrored.features) == []


_Q, _E = Fraction(1, 4), Fraction(1, 8)
_FRAME = (h_seg(0, 0, 1), h_seg(1, 0, 1), v_seg(0, 0, 1), v_seg(1, 0, 1))
# bottom edge cut open over (1/8, 3/16), right edge over (3/8, 1/2)
_FRAME_GAP_LEFT = (h_seg(0, 0, _E), h_seg(0, 3 * _E / 2, 1)) + _FRAME[1:]
_FRAME_GAP_RIGHT = _FRAME[:3] + (v_seg(1, 0, 3 * _E), v_seg(1, 4 * _E, 1))

_III, _IV = "iii: left stabber", "iv: right stabber"
_STABBER_FAULT_IDS = [f"{side}-{fault}" for side in ("iii", "iv") for fault in (
    "no-stabber", "leaves-region", "spans-gap", "point-off-shape", "short")]
# what validate_features reports for each case, a catalog shape's or the anchor's
_STABBER_FAULTS = [
    ["iii: no left stabber declared"],
    [f"{_III} leaves the left strip"],
    [f"{_III} is not part of the shape"],
    [f"{_III} is not part of the shape", f"{_III} does not cross the left strip"],
    [f"{_III} does not cross the left strip"],
    ["iv: no right stabber declared"],
    [f"{_IV} leaves the right band"],
    [f"{_IV} is not part of the shape"],
    [f"{_IV} is not part of the shape", f"{_IV} does not cross the right band"],
    [f"{_IV} does not cross the right band"],
]


@pytest.mark.parametrize("vertical, segments, stabber, faults", [
    (*case, faults) for case, faults in zip([
        (False, _FRAME, ()),
        (False, _FRAME, (h_seg(0, 0, 2 * _Q),)),
        (False, _FRAME_GAP_LEFT, (h_seg(0, 0, _Q),)),
        (False, _FRAME, (h_seg(_E, _E, _E),)),
        (False, _FRAME, (h_seg(0, 0, _E),)),
        (True, _FRAME, ()),
        (True, _FRAME, (v_seg(1, 0, 3 * _Q),)),
        (True, _FRAME_GAP_RIGHT, (v_seg(1, _Q, 3 * _Q),)),
        (True, _FRAME, (v_seg(7 * _E, 4 * _E, 4 * _E),)),
        (True, _FRAME, (v_seg(1, _Q, 2 * _Q),)),
    ], _STABBER_FAULTS, strict=True)], ids=_STABBER_FAULT_IDS)
def test_validate_features_reports_each_stabber_fault(vertical, segments, stabber, faults):
    frame = catalog()["frame"].features
    feats = ShapeFeatures(RectilinearShape(segments), frame.empty_rect,
                          frame.left_stabber if vertical else stabber,
                          stabber if vertical else frame.right_stabber)
    assert feats.bbox == frame.bbox
    assert validate_features(feats) == faults


def test_shape_features_derive_widths_from_a_given_box():
    frame = catalog()["frame"].features
    feats = ShapeFeatures(frame.shape, frame.empty_rect, frame.left_stabber,
                          frame.right_stabber, box=Rect(-1, 1, -1, 1))
    assert feats.bbox == Rect(-1, 1, -1, 1) != frame.shape.bbox()
    assert (feats.w1, feats.w2) == (Fraction(5, 4), 2)
    # the anchor's U is its bounding square, not its material's box
    anchored = catalog()["frame"].anchored().features(Fraction(1, 2))
    assert anchored.bbox == Rect(0, 1, 0, 1) != anchored.shape.bbox()
    assert (anchored.w1, anchored.w2) == (Fraction(3, 4), 1)


class _AnchoredWith(AnchoredFrame):
    """The anchored frame with other material, or another stabber on a side."""

    def __init__(self, segments, left=None, right=None):
        super().__init__()
        self.shape = RectilinearShape(segments)
        self.left, self.right = left, right

    def features(self, eps):
        f = super().features(eps)
        return ShapeFeatures(f.shape, f.empty_rect,
                             f.left_stabber if self.left is None else self.left,
                             f.right_stabber if self.right is None else self.right, box=f.bbox)


# At eps = 1/2 the empty square is [3/4, 11/12] x [5/12, 7/12]: the left
# region is [0, 3/4] x [0, 1], the right one [11/12, 1] x [5/12, 7/12].
_ANCHORED = (h_seg(_Q, 0, 1), h_seg(3 * _Q, 0, 1), v_seg(0, _Q, 3 * _Q), v_seg(1, _Q, 3 * _Q))
_ANCHORED_GAP_LEFT = (h_seg(_Q, 0, _E), h_seg(_Q, 3 * _E / 2, 1)) + _ANCHORED[1:]
_ANCHORED_GAP_RIGHT = _ANCHORED[:3] + (v_seg(1, _Q, 2 * _Q), v_seg(1, 9 * _Q / 4, 3 * _Q))


@pytest.mark.parametrize("vertical, segments, stabber, faults", [
    (*case, faults) for case, faults in zip([
        (False, _ANCHORED, ()),
        (False, _ANCHORED, (h_seg(_Q, 0, 1),)),
        (False, _ANCHORED_GAP_LEFT, None),
        (False, _ANCHORED, (h_seg(2 * _Q, 2 * _Q, 2 * _Q),)),
        (False, _ANCHORED, (h_seg(_Q, 0, 2 * _Q),)),
        (True, _ANCHORED, ()),
        (True, _ANCHORED, (v_seg(1, _Q, Fraction(7, 12)),)),
        (True, _ANCHORED_GAP_RIGHT, None),
        (True, _ANCHORED, (v_seg(Fraction(23, 24), 2 * _Q, 2 * _Q),)),
        (True, _ANCHORED, (v_seg(1, Fraction(5, 12), 2 * _Q),)),
    ], _STABBER_FAULTS, strict=True)], ids=_STABBER_FAULT_IDS)
def test_anchored_violations_reports_each_stabber_fault(vertical, segments, stabber, faults):
    # the anchor's stabbers go through validate_features, so each case
    # reports what the catalog case of the same id reports
    half = Fraction(1, 2)
    assert anchored_violations(_AnchoredWith(_ANCHORED), half) == []
    anchor = (_AnchoredWith(segments, right=stabber) if vertical
              else _AnchoredWith(segments, left=stabber))
    assert anchored_violations(anchor, half) == faults


def test_cover_test_matches_the_fraction_reference():
    # Segments on few lines and short ranges, so zero-length segments,
    # pieces touching end to end and perpendicular-only contacts are common.
    rng = random.Random(20261018)
    values = [Fraction(n, d) for d in (1, 2, 3) for n in range(0, 2 * d + 1)]
    lengths = (0, 0, Fraction(1, 3), Fraction(1, 2), 1)

    def seg():
        fixed, lo = rng.choice((0, Fraction(1, 2), 1)), rng.choice(values)
        return (h_seg if rng.random() < 0.5 else v_seg)(fixed, lo, lo + rng.choice(lengths))

    def chain():
        # pieces on one line, each starting where the last ends or just after
        make, fixed = rng.choice((h_seg, v_seg)), rng.choice((0, Fraction(1, 2), 1))
        at, out = rng.choice(values), []
        for _ in range(rng.randint(2, 3)):
            out.append(make(fixed, at, at + rng.choice(lengths)))
            at = out[-1].hi + rng.choice((0, 0, 0, Fraction(1, 6)))
        return out

    seen = dict.fromkeys(("covered", "not", "point covered", "joined end to end",
                          "perpendicular contacts only"), 0)
    for _ in range(5000):
        pieces = chain()
        segs = [seg() for _ in range(rng.randint(0, 4))] + pieces
        if rng.random() < 0.5:
            s = seg()
        else:  # along the chain, between two of its ends
            lo, hi = sorted(rng.choice([v for t in pieces for v in (t.lo, t.hi)])
                            for _ in range(2))
            s = Seg(pieces[0].orientation, pieces[0].fixed, lo, hi)
        covered = segment_covered(segs, s)
        assert _covers(RectilinearShape(tuple(segs)), s) == covered, (segs, s)
        seen["covered" if covered else "not"] += 1
        meeting = [t for t in segs if seg_intersect(s, t) is not None]
        if s.lo == s.hi:
            seen["point covered"] += covered
        elif covered and not any(t.orientation == s.orientation and t.lo <= s.lo
                                 and s.hi <= t.hi for t in meeting):
            seen["joined end to end"] += 1
        elif meeting and all(t.orientation != s.orientation for t in meeting):
            seen["perpendicular contacts only"] += 1
    assert min(seen.values()) > 50, seen


def test_nested_frames_do_not_intersect():
    assert not copies_intersect(_frame_copy(0, 4, 0, 4), _frame_copy(1, 3, 1, 3))


def test_crossing_frames_intersect():
    assert copies_intersect(_frame_copy(0, 4, 0, 4), _frame_copy(2, 6, 2, 6))


def test_far_translation_does_not_intersect():
    assert not copies_intersect(_frame_copy(0, 1, 0, 1), _frame_copy(5, 6, 0, 1))


def test_copies_intersect_symmetric_and_transform_invariant():
    rng = random.Random(31)
    for _ in range(60):
        def rect():
            x = sorted(Fraction(rng.randint(0, 12), rng.randint(1, 3)) for _ in range(2))
            y = sorted(Fraction(rng.randint(0, 12), rng.randint(1, 3)) for _ in range(2))
            if x[0] == x[1]:
                x = (x[0], x[1] + 1)
            if y[0] == y[1]:
                y = (y[0], y[1] + 1)
            return Rect(x[0], x[1], y[0], y[1])

        a, b = _frame_copy(*_rect_args(rect())), _frame_copy(*_rect_args(rect()))
        sx, sy = (Fraction(rng.randint(1, 5), rng.randint(1, 5)) for _ in range(2))
        t = axis_map(sx, rng.randint(-4, 4)), axis_map(sy, rng.randint(-4, 4))
        base = copies_intersect(a, b)
        assert base == copies_intersect(b, a)
        assert base == copies_intersect(a.rebase(t), b.rebase(t))


def _lifted(c):
    return c.x_map, c.y_map, c.den, c.int_box, c.int_segs


def test_rebase_is_then_followed_by_a_fresh_copy():
    """``rebase`` composes the axis maps on ints; the reference composes the
    transforms with Fraction operators and lifts a new copy from them.
    Placed copies of every catalog shape and of the anchored frame are
    pushed through embeds whose denominators share nothing with theirs
    (primes from 7 on), through embeds on their own grid, and through
    random transforms, repeatedly."""
    rng = random.Random(20261019)
    cat = catalog()
    families = [(name, augment(build(2, d), d)) for name, d in cat.items()]
    uniform = build_uniform(2, Fraction(5, 8), cat["frame"])
    families.append(("anchored", augment_uniform(uniform, cat["frame"])))
    primes = (7, 11, 13, 101, 2 ** 61 - 1)

    def rat(lo, den):
        return Fraction(rng.randint(lo, 60), den)

    for name, family in families:
        for c in family:
            for _ in range(3):
                den = rng.choice([*primes, c.den, 2 * c.den, 1])
                after = XYTransform(rat(1, den), rat(1, rng.choice(primes)),
                                    rat(-60, den), rat(-60, rng.choice(primes) * c.den))
                got = c.rebase(after.axis_maps(), f"{name}/r")
                want = TransformedCopy(c.shape_id, c.base,
                                       *then(from_maps(c.x_map, c.y_map), after).axis_maps(),
                                       f"{name}/r")
                assert _lifted(got) == _lifted(want) and got == want
                assert c.rebase(after.axis_maps()).lineage == c.lineage
                c = got


def _rect_args(r):
    return r.x_lo, r.x_hi, r.y_lo, r.y_hi


def test_stabs_right_edge_spans_query():
    assert stabs_vertically(_frame_copy(0, 4, 0, 4), Rect(3, 4, 1, 3))


def test_interior_rect_sees_no_material():
    assert not stabs_vertically(_frame_copy(0, 4, 0, 4), Rect(1, 3, 1, 3))


def test_single_horizontal_piece_does_not_stab_vertically():
    lshape = catalog()["lshape"]
    copy = TransformedCopy("lshape", lshape.shape, lineage="t")
    # only the bottom edge enters this query band
    assert not stabs_vertically(copy, Rect(Fraction(1, 4), Fraction(3, 4),
                                           0, Fraction(1, 2)))


def test_crossing_stabbers_must_meet():
    # Whenever one copy crosses a rectangle top-to-bottom and another
    # crosses it left-to-right, the copies meet inside that rectangle.
    rng = random.Random(8)
    hits = 0
    for _ in range(300):
        r = Rect(rng.randint(0, 3), rng.randint(4, 8), rng.randint(0, 3), rng.randint(4, 8))
        a = _frame_copy(rng.randint(-2, 2), rng.randint(3, 9),
                        rng.randint(-2, 2), rng.randint(3, 9))
        b = _frame_copy(rng.randint(-2, 2), rng.randint(3, 9),
                        rng.randint(-2, 2), rng.randint(3, 9))
        if stabs_vertically(a, r) and stabs_horizontally(b, r):
            hits += 1
            assert copies_intersect_within(a, b, r)
    assert hits > 20  # the sample actually exercised the law


def test_anchored_frame_frozen_values_at_half():
    anchor = catalog()["frame"].anchor
    half = Fraction(1, 2)
    xi = anchor.features(half).empty_rect.width
    assert xi == Fraction(1, 6)
    e = anchor.empty_square(half)
    assert e == Rect(Fraction(3, 4), Fraction(11, 12), Fraction(5, 12), Fraction(7, 12))
    assert (1 + half) * xi == Fraction(1, 4) < half
    # gap from E's right side to the square's right side is eps*xi
    assert 1 - e.x_hi == half * xi == Fraction(1, 12)


def _seeded_eps():
    rng = random.Random(1234)
    seen = set()
    while len(seen) < 40:
        eps = Fraction(rng.randint(1, 199), rng.randint(2, 200))
        if 0 < eps < 1:
            seen.add(eps)
    return sorted(seen)


@cache
def _construction_eps():
    """Every eps the anchor's empty square is asked for while uniform k=3
    is built and augmented at eps 1/2 and 3/16."""
    frame, seen = catalog()["frame"], set()
    real = AnchoredFrame.empty_square

    def recorded(self, eps):
        seen.add(eps)
        return real(self, eps)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(AnchoredFrame, "empty_square", recorded)
        for eps in (Fraction(1, 2), Fraction(3, 16)):
            augment_uniform(build_uniform(3, eps, frame), frame)
    return sorted(seen)


def test_anchored_conditions_over_random_rationals():
    anchor = catalog()["frame"].anchor
    for eps in _seeded_eps():
        assert anchored_violations(anchor, eps) == [], eps


def test_anchored_conditions_at_every_eps_the_construction_uses():
    anchor = catalog()["frame"].anchor
    used = _construction_eps()
    assert len(used) == 14
    assert max(eps.denominator.bit_length() for eps in used) > 256
    for eps in used:
        assert anchored_violations(anchor, eps) == [], eps


def test_anchored_features_match_the_closed_form():
    anchor = catalog()["frame"].anchor
    for eps in _seeded_eps() + _construction_eps():
        feats = anchor.features(eps)
        xi, e, left, right = anchored_features_ref(eps)
        assert (feats.empty_rect.width, feats.empty_rect) == (xi, e), eps
        assert (feats.left_stabber, feats.right_stabber) == (left, right), eps
        assert feats.bbox == anchor.bounding_square and feats.shape is anchor.shape


def test_anchored_frame_standalone_instance():
    anchor = AnchoredFrame()
    assert anchor.shape.is_connected()
    assert anchor.shape.bbox() == Rect(0, 1, Fraction(1, 4), Fraction(3, 4))


def _random_boxes(rng, n):
    """Small-integer boxes on a 6x6 grid, so shared edges, tied bottoms and
    zero-width or zero-height boxes all occur often."""
    out = []
    for _ in range(n):
        x0, y0 = rng.randint(0, 6), rng.randint(0, 6)
        out.append(Rect(x0, x0 + rng.choice((0, 0, 1, 2, 3)),
                        y0, y0 + rng.choice((0, 0, 1, 2, 3))))
    return out


def test_meeting_pairs_matches_all_pairs_oracle():
    rng = random.Random(20261018)
    for n in (0, 1, 2, 3, 8, 40, 120):
        for _ in range(5):
            boxes = _random_boxes(rng, n)
            assert meeting_pairs(boxes) == meeting_pairs_bruteforce(boxes)


def _query_pairs(queries, boxes):
    """The pairs (i, j) of queries[i] and boxes[j] that meet, from one
    ``FamilyGrid.contacts`` pass over a grid of no copies with both lists
    as its queries."""
    grid, n = FamilyGrid([], [*queries, *boxes]), len(queries)
    _, hits = grid.contacts(queries=grid.rect_boxes)
    return sorted((i, j) for j, h in enumerate(hits[n:]) for i in h if i < n)


def test_boxes_meeting_matches_all_pairs_oracle():
    rng = random.Random(4181)
    for n, m in ((0, 5), (5, 0), (1, 1), (3, 7), (30, 30), (80, 20)):
        for _ in range(5):
            queries, boxes = _random_boxes(rng, n), _random_boxes(rng, m)
            assert _query_pairs(queries, boxes) == meeting_pairs_bruteforce(queries, boxes)


def test_sweep_counts_touching_and_degenerate_boxes():
    corner = [Rect(0, 1, 0, 1), Rect(1, 2, 1, 2)]
    point_on_edge = [Rect(0, 2, 0, 2), Rect(1, 1, 2, 2)]
    tied_apart = [Rect(0, 1, 0, 1), Rect(3, 4, 0, 1)]
    assert meeting_pairs(corner) == [(0, 1)]
    assert meeting_pairs(point_on_edge) == [(0, 1)]
    assert meeting_pairs(tied_apart) == []
    assert _query_pairs([Rect(1, 1, 0, 5)], corner + tied_apart) == [(0, 0), (0, 1), (0, 2)]


# A Mersenne prime: copies scaled by 1/_BIG_PRIME have denominators of
# more than 600 bits, as deep uniform families do.
_BIG_PRIME = 2 ** 607 - 1
_SCALES = tuple(Fraction(p, q) for p, q in ((1, 1), (1, 2), (2, 3), (3, 2), (1, 3), (2, 1), (5, 6)))


def _random_shape(rng):
    """One to four segments on the sixths of the unit square, a third of
    them of zero length; connectedness does not matter to the predicates."""
    segs = []
    for _ in range(rng.randint(1, 4)):
        fixed, lo = Fraction(rng.randint(0, 6), 6), Fraction(rng.randint(0, 6), 6)
        hi = lo + Fraction(rng.choice((0, 1, 2, 3, 6, 0)), 6)
        segs.append((h_seg if rng.random() < 0.5 else v_seg)(fixed, lo, hi))
    return RectilinearShape(tuple(segs))


def _random_copy(rng, unit=1):
    """A random shape under a transform whose scales and shifts mix the
    denominators 1 to 6, so shared edges and touching corners are common."""
    def shift():
        return Fraction(rng.randint(0, 12), rng.choice((1, 2, 3, 4, 6))) * unit

    sx, sy, tx, ty = rng.choice(_SCALES) * unit, rng.choice(_SCALES) * unit, shift(), shift()
    return TransformedCopy("random", _random_shape(rng), axis_map(sx, tx), axis_map(sy, ty), "t")


def _random_rect(rng, unit=1):
    x0, y0 = Fraction(rng.randint(0, 18), 6), Fraction(rng.randint(0, 18), 6)
    w, h = (Fraction(rng.choice((0, 1, 3, 6, 9)), rng.choice((2, 3, 6))) for _ in range(2))
    return Rect(x0 * unit, (x0 + w) * unit, y0 * unit, (y0 + h) * unit)


def _kernel_vs_references(a, b, r, seen):
    """Assert that each integer predicate agrees with its Fraction reference
    on the copies a, b and the rectangle r; tally the answers in ``seen``."""
    meet = copies_intersect_ref(a, b)
    assert copies_intersect(a, b) == copies_intersect(b, a) == meet
    seen.add(("meet", meet))
    for c in (a, b):
        hit = copy_meets_rect_ref(c, r)
        assert copy_meets_rect(c, r) == hit
        seen.add(("rect", hit))
        for vertical, stabs in ((True, stabs_vertically), (False, stabs_horizontally)):
            crossed = curve_stabs_ref(c.segments, r, vertical=vertical)
            assert stabs(c, r) == crossed
            seen.add(("stab", crossed))


def test_integer_kernel_matches_fraction_references():
    rng = random.Random(20261019)
    seen: set = set()
    for _ in range(1500):
        _kernel_vs_references(_random_copy(rng), _random_copy(rng), _random_rect(rng), seen)
    assert seen == {(name, v) for name in ("meet", "rect", "stab") for v in (True, False)}


def test_integer_kernel_matches_fraction_references_on_drawn_stab_cases():
    # shapes drawn against the rectangle (``stab_case``), all under one
    # random transform, so that no single segment decides most stabs
    rng = random.Random(4242)
    seen: set = set()
    for _ in range(600):
        x0, y0 = Fraction(rng.randint(0, 18), 6), Fraction(rng.randint(0, 18), 6)
        w, h = (Fraction(rng.choice((1, 3, 6, 9)), rng.choice((2, 3, 6))) for _ in range(2))
        r = Rect(x0, x0 + w, y0, y0 + h)
        sx, sy = rng.choice(_SCALES), rng.choice(_SCALES)
        tx = Fraction(rng.randint(-6, 6), rng.choice((5, 7)))
        t = axis_map(sx, tx), axis_map(sy, Fraction(1, 3))
        a, b = (TransformedCopy("drawn", stab_case(rng, r, vertical=vertical), *t, "t")
                for vertical in (True, rng.random() < 0.5))
        r = map_rect(*t, r)
        _kernel_vs_references(a, b, r, seen)
        for c in (a, b):
            for vertical in (True, False):
                if not spans_ref(c.segments, r, vertical=vertical):
                    seen.add(("walk", curve_stabs_ref(c.segments, r, vertical=vertical)))
    assert seen == {(name, v) for name in ("meet", "rect", "stab", "walk") for v in (True, False)}


def test_integer_kernel_matches_fraction_references_above_600_bits():
    rng = random.Random(607)
    seen: set = set()
    unit = Fraction(1, _BIG_PRIME)
    for _ in range(300):
        a, b = _random_copy(rng, unit), _random_copy(rng, unit)
        assert a.den.bit_length() > 600
        _kernel_vs_references(a, b, _random_rect(rng, unit), seen)
    assert seen == {(name, v) for name in ("meet", "rect", "stab") for v in (True, False)}
    frame = catalog()["frame"]
    level = build_uniform(3, Fraction(1, 100), frame)
    family = augment_uniform(level, frame)
    assert max(c.den.bit_length() for c in family) > 800
    for i, a in enumerate(family):
        for b in family[i + 1:]:
            assert copies_intersect(a, b) == copies_intersect_ref(a, b)
        for p in level.probes:
            for r in (p.rect, p.root):
                assert copy_meets_rect(a, r) == copy_meets_rect_ref(a, r)
                assert stabs_vertically(a, r) == curve_stabs_ref(a.segments, r, vertical=True)


def test_integer_kernel_on_shared_edges_corners_and_points():
    tiny = Fraction(1, 2 ** 200)
    square = _frame_copy(0, 1, 0, 1)
    point = RectilinearShape((h_seg(1, 1, 1),))
    inner_point = RectilinearShape((v_seg(Fraction(1, 2), Fraction(1, 2), Fraction(1, 2)),))
    cases = [
        (_frame_copy(1, 2, 0, 1), True),               # shared edge
        (_frame_copy(1, 2, 1, 2), True),               # touching corner
        (_frame_copy(Fraction(1, 3), Fraction(2, 3), 1, 2), True),  # edge inside an edge
        (_frame_copy(1 + tiny, 2, 0, 1), False),       # apart by 2^-200
        (_frame_copy(tiny, 1 - tiny, tiny, 1 - tiny), False),  # nested, not touching
        (TransformedCopy("point", point), True),       # a point on a corner
        (TransformedCopy("point", inner_point), False),  # a point inside the frame
    ]
    for other, expected in cases:
        assert copies_intersect(square, other) == copies_intersect_ref(square, other) == expected
    left, right = (TransformedCopy("bar", RectilinearShape((h_seg(0, lo, hi),)))
                   for lo, hi in ((0, 1), (1, 2)))
    assert copies_intersect(left, right) and copies_intersect(right, left)  # end to end
    for r, expected in ((Rect(1, 2, 1, 2), True), (Rect(1 + tiny, 2, 0, 1), False),
                        (Rect(Fraction(1, 2), Fraction(1, 2), 0, 0), True),
                        (Rect(tiny, 1 - tiny, tiny, 1 - tiny), False)):
        assert copy_meets_rect(square, r) == copy_meets_rect_ref(square, r) == expected
    for r, expected in ((Rect(1, 1, 0, 1), True), (Rect(1, 1, 0, 1 + tiny), False)):
        assert stabs_vertically(square, r) == curve_stabs_ref(square.segments, r,
                                                              vertical=True) == expected


def test_copies_are_lifted_onto_their_least_common_denominator():
    rng = random.Random(66)
    frame = catalog()["frame"]
    copies = [_random_copy(rng, unit) for unit in (1, Fraction(1, _BIG_PRIME)) for _ in range(50)]
    copies += list(build(3, frame).family) + list(build_uniform(3, Fraction(5, 8), frame).family)
    for c in copies:
        # the base's segments through the Fraction transform of the copy's maps
        t = from_maps(c.x_map, c.y_map)
        segs = tuple(t.apply(s) for s in c.base.segments)
        assert c.segments == segs
        coords = [v for s in segs for v in (s.fixed, s.lo, s.hi)]
        assert c.den == lcm(*(v.denominator for v in coords))
        assert c.int_segs == tuple((s.orientation, *(v * c.den for v in (s.fixed, s.lo, s.hi)))
                                   for s in segs)
        assert c.bbox == rect_union_all(s.bbox() for s in segs)
    assert family_bbox(copies) == rect_union_all(c.bbox for c in copies)


def test_sweeps_take_copies_for_their_bounding_boxes():
    rng = random.Random(1019)
    for unit in (1, Fraction(1, _BIG_PRIME)):
        copies = [_random_copy(rng, unit) for _ in range(60)]
        rects = [_random_rect(rng, unit) for _ in range(20)]
        boxes = [c.bbox for c in copies]
        assert meeting_pairs(copies) == meeting_pairs_bruteforce(boxes)
        # one pass over the copies and the rectangles as queries
        grid, n = FamilyGrid(copies, rects), len(copies)
        pairs, hits = grid.contacts(queries=grid.rect_boxes)
        assert (pairs, []) == grid.contacts()
        assert all(h == sorted(h) for h in hits)
        got = sorted((q, i) for q, h in enumerate(hits) for i in h if i < n)
        assert got == meeting_pairs_bruteforce(rects, boxes)
        got = sorted((i - n, q) for q, h in enumerate(hits) for i in h if i >= n)
        assert got == meeting_pairs_bruteforce(rects)
