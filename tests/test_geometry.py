import inspect
import random
from fractions import Fraction

import pytest

from trifree.geometry import (
    HORIZONTAL,
    VERTICAL,
    Lift,
    Point,
    Rect,
    Seg,
    as_rat,
    axis_map,
    h_seg,
    lift,
    lowest,
    map_rect,
    rat_str,
    rect_map,
    seg_intersect,
    v_seg,
)
from trifree.serialize import _lift_from_json, _rat_readers
from trifree.shapes import RectilinearShape, TransformedCopy, catalog, family_bbox

from _oracles import (
    RectRelation,
    XYTransform,
    apply_ref,
    clip_seg_to_rect,
    rect_relation_grid,
    rect_relations,
    segs_intersect_grid,
    then,
)


def test_perpendicular_crossing_gives_point():
    assert seg_intersect(h_seg(1, 0, 2), v_seg(1, 0, 2)) == Point(1, 1)


def test_disjoint_collinear_is_empty():
    assert seg_intersect(h_seg(0, 0, 1), h_seg(0, 2, 3)) is None


def test_collinear_overlap_gives_subsegment():
    assert seg_intersect(h_seg(0, 0, 2), h_seg(0, 1, 3)) == h_seg(0, 1, 2)


def test_collinear_touching_gives_point():
    assert seg_intersect(v_seg(0, 0, 1), v_seg(0, 1, 2)) == Point(0, 1)


def test_clip_vertical_to_rect():
    assert clip_seg_to_rect(v_seg(1, 0, 10), Rect(0, 2, 3, 5)) == v_seg(1, 3, 5)


def test_clip_identity_when_inside():
    s = h_seg(4, 1, 2)
    assert clip_seg_to_rect(s, Rect(0, 3, 3, 5)) == s


def test_clip_outside_fixed_range_is_empty():
    assert clip_seg_to_rect(h_seg(7, 0, 10), Rect(0, 10, 0, 5)) is None


def test_clip_can_degenerate_to_point_segment():
    got = clip_seg_to_rect(h_seg(0, 0, 5), Rect(5, 9, 0, 1))
    assert got == h_seg(0, 5, 5) and got.lo == got.hi


def test_rect_relations_basic():
    assert rect_relations(Rect(0, 1, 0, 1), Rect(2, 3, 2, 3)) is RectRelation.DISJOINT
    assert rect_relations(Rect(0, 4, 0, 4), Rect(1, 2, 1, 2)) is RectRelation.A_CONTAINS_B
    assert rect_relations(Rect(1, 2, 1, 2), Rect(0, 4, 0, 4)) is RectRelation.B_CONTAINS_A
    assert rect_relations(Rect(0, 2, 0, 2), Rect(1, 3, 1, 3)) is RectRelation.OVERLAP


def test_shared_boundary_counts_as_overlap():
    assert rect_relations(Rect(0, 1, 0, 1), Rect(1, 2, 0, 1)) is RectRelation.OVERLAP


def test_transform_identity_and_shift():
    stick = RectilinearShape((h_seg(1, 0, 1),))
    assert TransformedCopy("stick", stick).segments == (h_seg(1, 0, 1),)
    assert TransformedCopy("stick", stick, (2, 3, 1)).segments == (h_seg(1, 3, 5),)


def test_transform_rejects_nonpositive_scale():
    frame = catalog()["frame"].shape
    with pytest.raises(ValueError):
        TransformedCopy("frame", frame, (0, 0, 1), (1, 0, 1))
    with pytest.raises(ValueError):
        TransformedCopy("frame", frame, (1, 0, 1), (-1, 0, 2))


@pytest.mark.parametrize("make, message", [
    (lambda: Rect(Fraction(1, 3), Fraction(2, 7), Fraction(0), Fraction(1)),
     "rectangle sides reversed"),
    (lambda: Rect(Fraction(0), Fraction(1), Fraction(-1, 5), Fraction(-2, 9)),
     "rectangle sides reversed"),
    (lambda: TransformedCopy("frame", catalog()["frame"].shape, (0, 0, 1), (1, 0, 1)),
     "scale factors must be positive: sx=0, sy=1"),
    (lambda: TransformedCopy("frame", catalog()["frame"].shape, (3, 0, 4), (-1, 0, 3)),
     "scale factors must be positive: sx=3/4, sy=-1/3"),
], ids=["x-reversed", "y-reversed", "zero-scale", "negative-scale"])
def test_all_fraction_fields_are_still_checked(make, message):
    # four Fraction sides skip the coercion, not the checks, and a copy's
    # scales are checked on its int axis maps
    with pytest.raises(ValueError, match=message):
        make()


def test_rect_apply_on_the_lift_matches_fraction_sides():
    rng = random.Random(77)

    def rat():
        return Fraction(rng.randint(-50, 50), rng.choice((1, 2, 3, 6, 7, 12, 35, 1024)))

    for _ in range(300):
        t = XYTransform(abs(rat()) + Fraction(1, 9), abs(rat()) + Fraction(1, 11), rat(), rat())
        x, y = sorted((rat(), rat())), sorted((rat(), rat()))
        r = Rect(x[0], x[1], y[0], y[1])
        assert map_rect(*t.axis_maps(), r) == apply_ref(t, r)


def _fat_rect(rng):
    def rat():
        return Fraction(rng.randint(-50, 50), rng.choice((1, 2, 3, 6, 7, 12, 35, 1024)))

    x, y = sorted({rat(), rat()}), sorted({rat(), rat()})
    return Rect(x[0], x[-1], y[0], y[-1]) if len(x) == len(y) == 2 else _fat_rect(rng)


def test_rect_map_carries_the_source_box_onto_the_target_exactly():
    rng = random.Random(20261020)
    for _ in range(300):
        src, dst = _fat_rect(rng), _fat_rect(rng)
        maps = rect_map(src, dst)
        boundary = RectilinearShape((h_seg(src.y_lo, src.x_lo, src.x_hi),
                                     h_seg(src.y_hi, src.x_lo, src.x_hi),
                                     v_seg(src.x_lo, src.y_lo, src.y_hi),
                                     v_seg(src.x_hi, src.y_lo, src.y_hi)))
        assert TransformedCopy("box", boundary, *maps).bbox == dst
        ref = XYTransform.rect_map(src, dst).axis_maps()
        assert maps == (lowest(ref[0]), lowest(ref[1]))


@pytest.mark.parametrize("src", [Rect(0, 0, 0, 1), Rect(0, 1, Fraction(1, 3), Fraction(1, 3))],
                         ids=["zero-width", "zero-height"])
def test_rect_map_refuses_a_degenerate_source(src):
    with pytest.raises(ValueError, match="^source rectangle is degenerate$"):
        rect_map(src, Rect(0, 1, 0, 1))


def test_floats_are_refused():
    with pytest.raises(TypeError):
        as_rat(0.5)
    with pytest.raises(TypeError):
        Rect(0.0, 1, 0, 1)


def test_booleans_are_refused_and_only_floats_are_named_floats():
    for value in (True, False):
        with pytest.raises(TypeError, match=r"^not an exact rational: (True|False)$"):
            as_rat(value)
    for value in (None, [1, 2], {"p": 1}):
        with pytest.raises(TypeError, match=r"^not an exact rational: .*[^)]$"):
            as_rat(value)
    with pytest.raises(TypeError, match=r"\(floats are refused\)$"):
        as_rat(0.5)


def test_an_exact_fraction_is_returned_as_it_is():
    value = Fraction(22, 7)
    assert as_rat(value) is value
    assert Rect(value, 4, 0, 1).x_lo is value


def test_ints_and_strings_become_fractions():
    for value, expected in ((3, Fraction(3)), (-2, Fraction(-2)), ("5/6", Fraction(5, 6)),
                            ("-4", Fraction(-4))):
        got = as_rat(value)
        assert type(got) is Fraction and got == expected


def test_a_fraction_subclass_becomes_an_exact_fraction():
    class Tagged(Fraction):
        pass

    value = Tagged(3, 4)
    got = as_rat(value)
    assert type(got) is Fraction and got == Fraction(3, 4) and got is not value


def test_floats_are_refused_also_next_to_fractions():
    for value in (0.5, 1.0, float("nan")):
        with pytest.raises(TypeError):
            as_rat(value)
    with pytest.raises(TypeError):
        Rect(Fraction(0), 1.0, 0, 1)


def test_rect_is_lifted_once_when_it_is_made():
    r = Rect(Fraction(1, 6), Fraction(1, 2), 0, Fraction(3, 4))
    assert vars(r)["den"] == 12 and vars(r)["int_box"] == (2, 6, 0, 9)
    # the lift is no argument, is not compared and is not shown
    assert list(inspect.signature(Rect).parameters) == ["x_lo", "x_hi", "y_lo", "y_hi"]
    twin = Rect(Fraction(1, 6), Fraction(1, 2), 0, Fraction(3, 4))
    assert r == twin and hash(r) == hash(twin)
    object.__setattr__(twin, "den", 24)
    object.__setattr__(twin, "int_box", (4, 12, 0, 18))
    assert r == twin and hash(r) == hash(twin)
    assert repr(r) == repr(twin) == ("Rect(x_lo=Fraction(1, 6), x_hi=Fraction(1, 2), "
                                     "y_lo=Fraction(0, 1), y_hi=Fraction(3, 4))")
    assert r != Rect(Fraction(1, 6), Fraction(1, 2), 0, 1)


def _copy_bbox():
    frame = catalog()["frame"]
    return TransformedCopy("frame", frame.shape, axis_map(Fraction(1, 2), Fraction(1, 4)),
                           axis_map(Fraction(3, 4), Fraction(5, 6))).bbox


def _family_bbox():
    frame = catalog()["frame"]
    return family_bbox([TransformedCopy("frame", frame.shape,
                                        axis_map(Fraction(2, 3), Fraction(-1, 6)),
                                        axis_map(Fraction(2), Fraction(1, 10))),
                        Rect(Fraction(-1, 3), 0, Fraction(7, 2), Fraction(15, 4))])


_RECT_MAKERS = {
    "ints": lambda: Rect(-3, 4, 0, 7),
    "strings": lambda: Rect("1/6", "2/4", "-5/9", "3"),
    "fractions": lambda: Rect(Fraction(1, 6), Fraction(1, 2), Fraction(-5, 9), Fraction(3)),
    "apply": lambda: map_rect(axis_map(Fraction(3, 4), Fraction(1, 3)),
                              axis_map(Fraction(2, 5), Fraction(-1, 2)),
                              Rect("1/6", "1/2", "-5/9", "3")),
    "concentric": lambda: Rect(0, Fraction(2, 3), Fraction(1, 5), 1).concentric("1/2", "3/7"),
    "copy-bbox": _copy_bbox,
    "family-bbox": _family_bbox,
    "loader": lambda: _lift_from_json({"x_lo": "1/6", "x_hi": "2/4", "y_lo": "-5/9",
                                       "y_hi": "3"}, _rat_readers()[0]).rect,
}


@pytest.mark.parametrize("make", list(_RECT_MAKERS.values()), ids=list(_RECT_MAKERS))
def test_every_way_a_rect_is_made_lifts_it_once_on_its_least_grid(make):
    r = make()
    sides = (r.x_lo, r.x_hi, r.y_lo, r.y_hi)
    assert all(type(v) is Fraction for v in sides)
    den, box = lift(sides)
    assert (vars(r)["den"], vars(r)["int_box"]) == (den, tuple(box))


@pytest.mark.parametrize("x, y", [
    ((Fraction(1, 3), Fraction(2, 7)), (0, 1)),
    ((0, 1), (Fraction(1, 3), Fraction(2, 7))),
    (("1/3", "2/7"), ("0", "1")),
], ids=["x", "y", "strings"])
def test_sides_reversed_across_denominators_are_refused(x, y):
    with pytest.raises(ValueError, match="rectangle sides reversed"):
        Rect(x[0], x[1], y[0], y[1])


def test_lift_contains_as_contains_rect_decides():
    rng = random.Random(3131)

    def drawn(near=()):
        """A rectangle whose sides are drawn, or taken from ``near``."""
        d = rng.choice((1, 3, 8, 2 ** 61 - 1))
        sides = [rng.choice(near) if near and rng.random() < 0.5
                 else Fraction(rng.randint(-40, 40), d) for _ in range(4)]
        return Rect(*sorted(sides[:2]), *sorted(sides[2:]))

    seen = set()
    for _ in range(1000):
        a = drawn()
        b = drawn([a.x_lo, a.x_hi, a.y_lo, a.y_hi])
        want = a.contains_rect(b)
        assert Lift(a.den, a.int_box).contains(b) == want
        assert Lift(a.den, a.int_box).contains(Lift(b.den, b.int_box)) == want
        seen.add(want)
    assert seen == {True, False}


def test_a_degenerate_rect_on_unreduced_sides_is_accepted():
    for r, box in ((Rect(Fraction(2, 4), Fraction(1, 2), 0, 1), (1, 1, 0, 2)),
                   (Rect("0", "1", "2/4", "1/2"), (0, 2, 1, 1))):
        assert r.is_degenerate and (r.den, r.int_box) == (2, box)


def test_rat_string_round_trip():
    for text in ("-3/4", "7", "22/7", "0"):
        assert rat_str(as_rat(text)) == text


@pytest.mark.parametrize("text", ["1/0", "-3/0", "1e10000000", "0.0", " 0 ", "+1", "1/-2",
                                  "", "1/", "/2", "1/2\n", "\u0663", "inf", "nan"])
def test_rat_strings_outside_the_written_grammar_are_refused(text):
    with pytest.raises(ValueError):
        as_rat(text)


def _random_seg(rng, span=8):
    o = rng.choice((HORIZONTAL, VERTICAL))
    a, b = sorted(rng.randint(0, span) for _ in range(2))
    return Seg(o, rng.randint(0, span), a, b)


def _random_rect(rng, span=8):
    x = sorted(rng.randint(0, span) for _ in range(2))
    y = sorted(rng.randint(0, span) for _ in range(2))
    return Rect(x[0], x[1], y[0], y[1])


def test_seg_intersect_matches_grid_oracle():
    rng = random.Random(20240811)
    for _ in range(400):
        a, b = _random_seg(rng), _random_seg(rng)
        assert (seg_intersect(a, b) is not None) == segs_intersect_grid(a, b)
        assert (seg_intersect(a, b) is None) == (seg_intersect(b, a) is None)


def test_rect_relations_match_grid_oracle():
    rng = random.Random(7)
    for _ in range(300):
        a, b = _random_rect(rng), _random_rect(rng)
        got = rect_relations(a, b).value
        want = rect_relation_grid(a, b)
        # ties between the two containment answers resolve to a_contains_b
        if want == "b_contains_a" and a == b:
            want = "a_contains_b"
        assert got == want


def test_clip_is_idempotent():
    rng = random.Random(99)
    for _ in range(200):
        s, r = _random_seg(rng), _random_rect(rng)
        once = clip_seg_to_rect(s, r)
        if once is not None:
            assert clip_seg_to_rect(once, r) == once


def _random_transform(rng):
    def pos():
        return Fraction(rng.randint(1, 9), rng.randint(1, 9))

    def any_():
        return Fraction(rng.randint(-9, 9), rng.randint(1, 9))

    return XYTransform(pos(), pos(), any_(), any_())


def test_clip_commutes_with_positive_transforms():
    rng = random.Random(4242)
    for _ in range(200):
        s, r, t = _random_seg(rng), _random_rect(rng), _random_transform(rng)
        direct = clip_seg_to_rect(t.apply(s), t.apply(r))
        via = clip_seg_to_rect(s, r)
        assert direct == (t.apply(via) if via is not None else None)


def test_intersection_commutes_with_positive_transforms():
    rng = random.Random(11)
    for _ in range(200):
        a, b, t = _random_seg(rng), _random_seg(rng), _random_transform(rng)
        assert (seg_intersect(a, b) is None) == \
               (seg_intersect(t.apply(a), t.apply(b)) is None)


def test_transform_composition_is_the_group_law():
    # rebase composes on int axis maps as ``then`` composes the Fractions
    rng = random.Random(5)
    for _ in range(100):
        t1, t2 = _random_transform(rng), _random_transform(rng)
        s = _random_seg(rng)
        assert then(t1, t2).apply(s) == t2.apply(t1.apply(s))
        c = TransformedCopy("stick", RectilinearShape((s,)))
        composed = c.rebase(t1.axis_maps()).rebase(t2.axis_maps())
        assert composed == c.rebase(then(t1, t2).axis_maps())
        assert composed.segments == (t2.apply(t1.apply(s)),)
