import itertools
from fractions import Fraction

import pytest

from trifree import shapes, uniform
from trifree.errors import ConstructionError
from trifree.geometry import Rect
from trifree.graphs import chromatic_number, intersection_graph, is_triangle_free
from trifree.independent import Level, grow_probe, size_formulas
from trifree.shapes import catalog, copy_meets_rect, family_bbox
from trifree.uniform import _make_helper, augment_uniform, build_uniform

from _oracles import (
    RectRelation,
    from_maps,
    probe_coloring_audit,
    proper_colorings,
    rect_relations,
    replace,
    replace_probe,
)

HALF = Fraction(1, 2)


@pytest.fixture(scope="module")
def templates(frame):
    """The inner template of the helper that level k = 2, 3 at eps 1/2
    embeds, built as ``build_uniform`` builds it: at eps/8."""
    return {k: build_uniform(k - 1, HALF / 8, frame) for k in (2, 3)}


def _helper_params(template):
    """delta, m and eps1 of the helper on ``template``, from its root widths."""
    widths = [p.root.width for p in template.probes]
    delta = HALF / 8
    m = delta * min(widths)
    return delta, m, 2 * m / max(widths)


def test_carve_probe_frozen_examples():
    # side 1, gap 0: height (1+0)/(1+eps) = 2/3
    probe = grow_probe(Rect(0, 1, 0, 1), Rect(-5, 1, -5, 5), HALF)
    assert probe.rect == Rect(0, 1, 0, Fraction(2, 3))
    assert probe.root == Rect(0, Fraction(2, 3), 0, Fraction(2, 3))
    # extreme allowed gap d = eps * side: the root fills the square
    probe = grow_probe(Rect(0, 1, 0, 1), Rect(-5, Fraction(3, 2), -5, 5), HALF)
    assert probe.root == Rect(0, 1, 0, 1)
    assert probe.rect.width == (1 + HALF) * probe.rect.height


def test_carve_probe_rejects_wide_gap():
    with pytest.raises(ValueError):
        grow_probe(Rect(0, 1, 0, 1), Rect(-5, 2, -5, 5), HALF)
    with pytest.raises(ValueError):  # square past the right edge
        grow_probe(Rect(0, 1, 0, 1), Rect(-5, Fraction(1, 2), -5, 5), HALF)
    with pytest.raises(ValueError):  # not a square
        grow_probe(Rect(0, 2, 0, 1), Rect(-5, 2, -5, 5), HALF)


def test_base_uniform_probe_at_half(uniform_levels):
    level = uniform_levels[1]
    probe = level.probes[0]
    assert probe.root == Rect(Fraction(3, 4), Fraction(11, 12),
                              Fraction(5, 12), Fraction(7, 12))
    assert probe.rect == Rect(Fraction(3, 4), 1, Fraction(5, 12), Fraction(7, 12))
    assert probe.rect.width / probe.rect.height == Fraction(3, 2)


def test_uniform_sizes_and_probe_counts(uniform_levels):
    for k, level in uniform_levels.items():
        s, p = size_formulas(k)
        assert len(level.family) == s
        assert len(level.probes) == p


def test_every_copy_is_a_homothet(uniform_levels, frame):
    for level in uniform_levels.values():
        for c in (*level.family, *augment_uniform(level, frame)):
            t = from_maps(c.x_map, c.y_map)
            assert t.sx == t.sy


def test_aspect_ratio_law_exact(uniform_levels):
    for level in uniform_levels.values():
        for p in level.probes:
            assert p.rect.width == (1 + level.epsilon) * p.rect.height
            assert p.root.width == p.root.height


def test_probes_pairwise_disjoint(uniform_levels):
    for level in uniform_levels.values():
        for a, b in itertools.combinations(level.probes, 2):
            assert rect_relations(a.rect, b.rect) is RectRelation.DISJOINT


def test_eps1_stays_below_half_eps(templates):
    for template in templates.values():
        _, _, eps1 = _helper_params(template)
        assert eps1 <= HALF / 2
        assert 0 < eps1 < 1


def test_helper_claims_hold_on_built_levels(templates, frame):
    for template in templates.values():
        helper, uppers, lowers = _make_helper(template, HALF, frame)
        n = len(template.probes)
        assert len(helper) == len(template.family) + n
        assert len(uppers) == len(lowers) == n


def _shifted_diagonals(monkeypatch, shift):
    """Make ``_make_helper`` move diagonal i right by ``shift(i)``."""
    real = uniform._square_homothet
    index = itertools.count()

    def moved(shape, anchor, square, lineage):
        dx = shift(next(index))
        return real(shape, anchor,
                    Rect(square.x_lo + dx, square.x_hi + dx, square.y_lo, square.y_hi), lineage)

    monkeypatch.setattr(uniform, "_square_homothet", moved)


def test_helper_reports_tampered_diagonals(templates, frame, monkeypatch):
    template = templates[3]
    n = len(template.probes)
    _, m, _ = _helper_params(template)
    # every diagonal moved right by m: each sticks out by 2m
    _shifted_diagonals(monkeypatch, lambda i: m)
    with pytest.raises(ConstructionError) as err:
        _make_helper(template, HALF, frame)
    assert str(err.value) == "; ".join(
        f"diagonal {i} does not stick out of the template box by exactly m" for i in range(n))
    # diagonal 0 moved right by a whole root: off its root, and sticking out too far
    width = template.probes[0].root.width
    monkeypatch.undo()
    _shifted_diagonals(monkeypatch, lambda i: width if i == 0 else 0)
    with pytest.raises(ConstructionError) as err:
        _make_helper(template, HALF, frame)
    assert str(err.value) == ("diagonal 0 does not stick out of the template box by exactly m; "
                              "diagonal 0 does not meet its root")


def test_helper_checks_its_diagonals_against_the_pierced_sets(templates, frame):
    template = templates[3]
    probe = template.probes[0]
    tampered = Level(template.k, template.family,
                     (replace(probe, pierced=()), *template.probes[1:]), template.epsilon)
    with pytest.raises(ConstructionError) as err:
        _make_helper(tampered, HALF, frame)
    assert str(err.value) == f"diagonal 0 meets {sorted(probe.pierced)}, expected []"


def test_helper_lifts_one_grid_of_its_roots(templates, frame, monkeypatch):
    grids = []
    init = shapes.FamilyGrid.__init__

    def counted(grid, *args, **kwargs):
        init(grid, *args, **kwargs)
        grids.append(grid)

    monkeypatch.setattr(shapes.FamilyGrid, "__init__", counted)
    for template in templates.values():
        grids.clear()
        _make_helper(template, HALF, frame)
        assert [len(grid.rect_boxes) for grid in grids] == [len(template.probes)]


def test_seal_refuses_a_lower_root_that_meets_a_copy(frame, monkeypatch):
    make_helper = uniform._make_helper

    def tampered(inner, eps, shape):
        helper, uppers, lowers = make_helper(inner, eps, shape)
        # lower root 0 moved onto its diagonal's bounding square
        square = helper[len(inner.family)].apply(shape.anchor.bounding_square)
        return helper, uppers, [square, *lowers[1:]]

    monkeypatch.setattr(uniform, "_make_helper", tampered)
    with pytest.raises(ConstructionError) as err:
        build_uniform(2, HALF, frame)
    # copy 2 is the embedded diagonal, and probe 1 the lower probe
    assert str(err.value) == (
        "probe 1: pierced set mismatch: claimed [0, 1], actual [0, 1, 2]; "
        "probe 1: pierced copies 1 and 2 intersect; "
        "probe 1: pierced copy 2 does not stab the probe vertically; "
        "probe 1: root meets copy 2; probes 0 and 1 are not disjoint")


def test_diagonal_shift_inequality_holds(templates):
    for template in templates.values():
        delta, m, _ = _helper_params(template)
        for p in template.probes:
            s = p.root.width
            assert delta * s + m <= (HALF / 2) * (s / 2)


def test_triangle_freeness_level_and_augmented(uniform_levels, frame):
    for level in uniform_levels.values():
        assert is_triangle_free(intersection_graph(level.family))
        aug = augment_uniform(level, frame)
        assert is_triangle_free(intersection_graph(aug))


def test_augmented_uniform_chromatic_numbers(uniform_levels, frame):
    expect = {1: 2, 2: 3, 3: 4}
    for k, level in uniform_levels.items():
        aug = augment_uniform(level, frame)
        s, p = size_formulas(k)
        assert len(aug) == s + p
        res = chromatic_number(intersection_graph(aug))
        assert res.exact and res.chi == expect[k]


def test_probe_color_forcing_small_k_uniform(uniform_levels):
    for k in (1, 2):
        level = uniform_levels[k]
        g = intersection_graph(level.family)
        count = 0
        for coloring in proper_colorings(g, k):
            audit = probe_coloring_audit(level, coloring)
            assert audit.max_colors >= k
            count += 1
        assert count > 0


def test_probe_roots_avoid_every_copy(uniform_levels):
    for level in uniform_levels.values():
        for p in level.probes:
            assert all(not copy_meets_rect(c, p.root) for c in level.family)


def test_family_box_is_preserved_by_embedding(uniform_levels):
    # the bounding box of every level equals the anchored material box
    for level in uniform_levels.values():
        assert family_bbox(level.family) == Rect(0, 1, Fraction(1, 4), Fraction(3, 4))


@pytest.mark.parametrize("eps", [Fraction(1, 3), Fraction(2, 5), Fraction(7, 9)])
def test_other_epsilons_build_exactly(eps, frame):
    level = build_uniform(2, eps, frame)
    assert len(level.family) == 3 and len(level.probes) == 2
    for p in level.probes:
        assert p.rect.width == (1 + eps) * p.rect.height
    aug = augment_uniform(level, frame)
    res = chromatic_number(intersection_graph(aug))
    assert res.exact and res.chi == 3


def test_uniform_requires_anchor():
    with pytest.raises(ValueError):
        build_uniform(1, HALF, catalog()["lshape"])


def test_uniform_rejects_bad_epsilon(frame):
    with pytest.raises(ValueError):
        build_uniform(1, Fraction(3, 2), frame)
    with pytest.raises(ValueError):
        build_uniform(1, Fraction(0), frame)


def test_uniform_build_is_deterministic(frame):
    a = build_uniform(3, HALF, frame)
    b = build_uniform(3, HALF, frame)
    assert a.family == b.family
    assert a.probes == b.probes


def test_augment_uniform_refuses_a_square_that_escapes_its_probe(uniform_levels, frame):
    """A probe rectangle lowered by one grid unit of its own no longer holds
    the augmenting square, which is top-aligned with its root."""
    level = uniform_levels[2]
    p = level.probes[1]
    r = p.rect
    lowered = Rect(r.x_lo, r.x_hi, r.y_lo, r.y_hi - Fraction(1, p.rect.den))
    s = p.root.width
    side = max(s / 2, level.epsilon * s)
    square = Rect(level.bbox.x_hi - side, level.bbox.x_hi, p.root.y_hi - side, p.root.y_hi)
    assert r.contains_rect(square) and not lowered.contains_rect(square)
    tampered = replace(level, probes=(level.probes[0], replace_probe(p, rect=lowered),
                                      *level.probes[2:]))
    with pytest.raises(ConstructionError, match="augmenting square escapes probe 1"):
        augment_uniform(tampered, frame)


def test_square_homothet_refuses_a_target_that_is_not_a_square(frame):
    with pytest.raises(ConstructionError, match="homothet target is not a square"):
        uniform._square_homothet(frame, frame.anchor, Rect(0, 1, 0, Fraction(3, 2)), "x")
