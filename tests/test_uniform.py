import itertools
from dataclasses import replace
from fractions import Fraction

import pytest

from trifree.geometry import Rect, XYTransform
from trifree.graphs import chromatic_number, intersection_graph, is_triangle_free
from trifree.independent import grow_probe, size_formulas
from trifree.shapes import catalog, copy_meets_rect, family_bbox
from trifree.uniform import _make_helper, augment_uniform, build_uniform, helper_law

from _oracles import RectRelation, probe_coloring_audit, proper_colorings, rect_relations

HALF = Fraction(1, 2)


@pytest.fixture(scope="module")
def helper_audits(frame):
    """The audit of the helper that level k = 2, 3 at eps 1/2 embeds, built
    as ``build_uniform`` builds it: from the inner template at eps/8."""
    return {k: _make_helper(build_uniform(k - 1, HALF / 8, frame), HALF, frame)[3]
            for k in (2, 3)}


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
        for c in level.family:
            assert c.transform.sx == c.transform.sy
        for c in augment_uniform(level, frame):
            assert c.transform.sx == c.transform.sy


def test_aspect_ratio_law_exact(uniform_levels):
    for level in uniform_levels.values():
        for p in level.probes:
            assert p.rect.width == (1 + level.epsilon) * p.rect.height
            assert p.root.width == p.root.height


def test_probes_pairwise_disjoint(uniform_levels):
    for level in uniform_levels.values():
        for a, b in itertools.combinations(level.probes, 2):
            assert rect_relations(a.rect, b.rect) is RectRelation.DISJOINT


def test_eps1_stays_below_half_eps(helper_audits):
    for audit in helper_audits.values():
        assert audit.eps1 <= HALF / 2
        assert 0 < audit.eps1 < 1


def test_helper_law_holds_on_built_levels(helper_audits):
    for audit in helper_audits.values():
        assert helper_law(audit) == []


def test_helper_law_reports_a_tampered_audit(helper_audits):
    audit = helper_audits[3]
    n = len(audit.diagonals)
    doubled = helper_law(replace(audit, m=2 * audit.m))
    assert [f"diagonal {i} does not stick out of the template box by exactly m"
            for i in range(n)] == [msg for msg in doubled if "stick out" in msg]
    # moved right by a whole root: off its root, and sticking out too far
    off = audit.diagonals[0].rebase(XYTransform(1, 1, audit.roots[0].width, 0))
    moved = helper_law(replace(audit, diagonals=(off,) + audit.diagonals[1:]))
    assert moved == ["diagonal 0 does not stick out of the template box by exactly m",
                     "diagonal 0 does not meet its root"]


def test_diagonal_shift_inequality_holds(helper_audits):
    for audit in helper_audits.values():
        for root in audit.roots:
            s = root.width
            assert audit.delta * s + audit.m <= (8 * audit.delta / 2) * (s / 2)


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
