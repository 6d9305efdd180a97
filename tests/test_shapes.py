import random
from fractions import Fraction

from trifree.geometry import Rect, XYTransform, h_seg, v_seg
from trifree.shapes import (
    AnchoredFrame,
    RectilinearShape,
    ShapeFeatures,
    TransformedCopy,
    anchored_violations,
    catalog,
    boxes_meeting,
    copies_intersect,
    meeting_pairs,
    stabs_horizontally,
    stabs_vertically,
    validate_features,
)

from _oracles import copies_intersect_within, meeting_pairs_bruteforce


def _frame_copy(x0, x1, y0, y1, lineage="t"):
    frame = catalog()["frame"]
    t = XYTransform.rect_map(frame.features.bbox, Rect(x0, x1, y0, y1))
    return TransformedCopy("frame", frame.shape, t, lineage)


def test_catalog_shapes_all_validate():
    for name, d in catalog().items():
        assert validate_features(d.shape, d.features) == [], name


def test_catalog_has_required_entries():
    cat = catalog()
    assert {"frame", "lshape", "cross"} <= set(cat)
    assert cat["frame"].features.w1 == Fraction(1, 4)
    assert cat["frame"].features.w2 == 1
    assert cat["frame"].anchor is not None


def test_empty_rect_touching_boundary_violates_ii():
    frame = catalog()["frame"]
    feats = ShapeFeatures(
        bbox=frame.features.bbox,
        empty_rect=Rect(Fraction(1, 4), Fraction(3, 4), 0, Fraction(1, 2)),
        left_stabber=frame.features.left_stabber,
        right_stabber=frame.features.right_stabber,
        w1=frame.features.w1,
        w2=frame.features.w2,
    )
    bad = validate_features(frame.shape, feats)
    assert any(v.startswith("ii") for v in bad)


def test_unmirrored_lshape_fails_iv_and_mirror_passes():
    # Left-and-bottom L: nothing in the band right of E can cross it
    # vertically, whichever curve of the shape is declared.
    q = Fraction(1, 4)
    raw = RectilinearShape((v_seg(0, 0, 1), h_seg(0, 0, 1)))
    feats = ShapeFeatures(
        bbox=Rect(0, 1, 0, 1),
        empty_rect=Rect(q, 3 * q, q, 3 * q),
        left_stabber=(h_seg(0, 0, q),),
        right_stabber=(h_seg(0, 3 * q, 1),),  # best available piece; still fails
        w1=q,
        w2=Fraction(1),
    )
    bad = validate_features(raw, feats)
    assert any(v.startswith("iv") for v in bad)

    mirrored = catalog()["lshape"]
    assert validate_features(mirrored.shape, mirrored.features) == []


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
        t = XYTransform(Fraction(rng.randint(1, 5), rng.randint(1, 5)),
                        Fraction(rng.randint(1, 5), rng.randint(1, 5)),
                        rng.randint(-4, 4), rng.randint(-4, 4))
        base = copies_intersect(a, b)
        assert base == copies_intersect(b, a)
        assert base == copies_intersect(a.rebase(t), b.rebase(t))


def _rect_args(r):
    return r.x_lo, r.x_hi, r.y_lo, r.y_hi


def test_stabs_right_edge_spans_query():
    assert stabs_vertically(_frame_copy(0, 4, 0, 4), Rect(3, 4, 1, 3))


def test_interior_rect_sees_no_material():
    assert not stabs_vertically(_frame_copy(0, 4, 0, 4), Rect(1, 3, 1, 3))


def test_single_horizontal_piece_does_not_stab_vertically():
    lshape = catalog()["lshape"]
    copy = TransformedCopy("lshape", lshape.shape, XYTransform.identity(), "t")
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
    assert anchor.xi(half) == Fraction(1, 6)
    e = anchor.empty_square(half)
    assert e == Rect(Fraction(3, 4), Fraction(11, 12), Fraction(5, 12), Fraction(7, 12))
    assert (1 + half) * anchor.xi(half) == Fraction(1, 4) < half
    # gap from E's right side to the square's right side is eps*xi
    assert 1 - e.x_hi == half * anchor.xi(half) == Fraction(1, 12)


def test_anchored_conditions_over_random_rationals():
    anchor = catalog()["frame"].anchor
    rng = random.Random(1234)
    seen = set()
    while len(seen) < 40:
        eps = Fraction(rng.randint(1, 199), rng.randint(2, 200))
        if 0 < eps < 1:
            seen.add(eps)
    for eps in sorted(seen):
        assert anchored_violations(anchor, eps) == [], eps


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


def test_boxes_meeting_matches_all_pairs_oracle():
    rng = random.Random(4181)
    for n, m in ((0, 5), (5, 0), (1, 1), (3, 7), (30, 30), (80, 20)):
        for _ in range(5):
            queries, boxes = _random_boxes(rng, n), _random_boxes(rng, m)
            got = [(i, j) for i, ids in enumerate(boxes_meeting(queries, boxes)) for j in ids]
            assert got == meeting_pairs_bruteforce(queries, boxes)


def test_sweep_counts_touching_and_degenerate_boxes():
    corner = [Rect(0, 1, 0, 1), Rect(1, 2, 1, 2)]
    point_on_edge = [Rect(0, 2, 0, 2), Rect(1, 1, 2, 2)]
    tied_apart = [Rect(0, 1, 0, 1), Rect(3, 4, 0, 1)]
    assert meeting_pairs(corner) == [(0, 1)]
    assert meeting_pairs(point_on_edge) == [(0, 1)]
    assert meeting_pairs(tied_apart) == []
    assert boxes_meeting([Rect(1, 1, 0, 5)], corner + tied_apart) == [[0, 1, 2]]
