import itertools
import random
from dataclasses import replace
from fractions import Fraction

import pytest

from trifree import shapes
from trifree.errors import ConstructionError
from trifree.geometry import Rect, XYTransform
from trifree.graphs import (
    chromatic_number,
    intersection_graph,
    is_triangle_free,
)
from trifree.independent import (
    Probe,
    augment,
    base_level,
    build,
    diagonal_law,
    make_diagonal,
    next_level,
    probe_conditions,
    seal,
    size_formulas,
    split_probe,
)
from trifree.shapes import (
    catalog,
    copy_meets_rect,
    family_bbox,
)
from trifree.uniform import augment_uniform, build_uniform

from _oracles import (
    RectRelation,
    copies_intersect_ref,
    diagonal_law_ref,
    intersection_graph_bruteforce,
    probe_coloring_audit,
    probe_conditions_ref,
    proper_colorings,
    rect_relations,
    stabs_horizontally,
    stabs_vertically,
    step_contact_law_violations,
)


def test_size_formulas_frozen_values():
    assert size_formulas(1) == (1, 1)
    assert size_formulas(2) == (3, 2)
    assert size_formulas(3) == (13, 8)
    assert size_formulas(4) == (181, 128)


def test_size_formulas_closed_bounds_up_to_six():
    for k in range(1, 7):
        s, p = size_formulas(k)
        e = 2 ** (k - 1)
        assert p == 2 ** (e - 1)
        assert p <= s <= 2 ** e - 1


def test_split_probe_two_fifths_rule():
    probe = Probe(Rect(0, 10, 0, 5), Rect(0, 3, 0, 5), 3, ())
    upper, lower = split_probe(probe)
    assert upper == Rect(0, 10, 3, 5)
    assert lower == Rect(0, 10, 0, 2)
    assert not upper.intersects(lower)
    assert probe.rect.contains_rect(upper) and probe.rect.contains_rect(lower)


def test_every_stabber_of_probe_stabs_both_parts(independent_levels):
    level = independent_levels[2]
    for p in level.probes:
        upper, lower = split_probe(p)
        for i in p.pierced:
            assert stabs_vertically(level.family[i], upper)
            assert stabs_vertically(level.family[i], lower)


def test_diagonal_frame_scale_factor_is_eight(frame):
    level = base_level(frame)
    probe = level.probes[0]
    upper, _ = split_probe(probe)
    diag = make_diagonal(probe, frame, family_bbox(level.family))
    # horizontal stretch by 2*w2/w1 = 8 about the upper part's left edge
    assert diag.bbox == Rect(upper.x_lo, upper.x_lo + 8 * upper.width,
                             upper.y_lo, upper.y_hi)
    assert stabs_horizontally(diag, upper)


def test_diagonal_empty_rect_clears_family_box(frame):
    level = base_level(frame)
    diag = make_diagonal(level.probes[0], frame, family_bbox(level.family))
    empty = diag.transform.apply(frame.features.empty_rect)
    assert empty.x_lo > family_bbox(level.family).x_hi


def test_base_level_probe_is_the_extended_empty_rect(frame):
    level = base_level(frame)
    assert len(level.family) == 1 and len(level.probes) == 1
    probe = level.probes[0]
    assert probe.root == frame.features.empty_rect
    assert probe.rect == Rect(Fraction(1, 4), 1, Fraction(1, 4), Fraction(3, 4))
    assert probe.pierced == (0,)


def test_level_two_graph_is_one_edge(independent_levels):
    g = intersection_graph(independent_levels[2].family)
    assert g.n == 3
    assert sorted(g.edges()) == [(1, 2)]


def test_level_sizes_and_probe_disjointness(independent_levels):
    for k, level in independent_levels.items():
        s, p = size_formulas(k)
        assert len(level.family) == s
        assert len(level.probes) == p
        for a, b in itertools.combinations(level.probes, 2):
            assert rect_relations(a.rect, b.rect) is RectRelation.DISJOINT


def test_family_stays_inside_unit_box(independent_levels):
    for level in independent_levels.values():
        assert family_bbox(level.family) == Rect(0, 1, 0, 1)


def test_contact_laws_reported_per_step():
    for shape in catalog().values():
        level = base_level(shape)
        for _ in range(2):
            prev, level = level, next_level(level, shape)
            assert step_contact_law_violations(prev, level, shape) == []


def test_lower_probe_is_disjoint_from_its_diagonal(frame):
    # the lower probe of (P, Q) must not meet Q's diagonal, which lives in
    # the upper split of Q; walk one step and check geometrically
    level2 = next_level(base_level(frame), frame)
    diag_ids = [i for i, c in enumerate(level2.family) if "diagonal" in c.lineage]
    assert diag_ids
    for probe in level2.probes[1::2]:  # claim order: upper, then lower
        for d in diag_ids:
            assert d not in probe.pierced
            assert not copy_meets_rect(level2.family[d], probe.rect)


def test_diagonal_neighborhoods_are_independent_sets(independent_levels, frame):
    level = independent_levels[2]
    aug = augment(level, frame)
    g = intersection_graph(aug)
    base_n = len(level.family)
    for d in range(base_n, len(aug)):
        nbrs = sorted(g.adj[d])
        for a, b in itertools.combinations(nbrs, 2):
            assert b not in g.adj[a]


def test_augmented_sizes_and_chromatic_numbers(independent_levels, frame):
    expect_chi = {1: 2, 2: 3, 3: 4}
    for k, level in independent_levels.items():
        aug = augment(level, frame)
        s, p = size_formulas(k)
        assert len(aug) == s + p
        g = intersection_graph(aug)
        assert is_triangle_free(g)
        res = chromatic_number(g)
        assert res.exact and res.chi == expect_chi[k]


def test_augmented_level_two_is_a_five_cycle(independent_levels, frame):
    aug = augment(independent_levels[2], frame)
    g = intersection_graph(aug)
    assert g.n == 5 and g.m == 5
    assert all(len(g.adj[v]) == 2 for v in range(5))
    assert is_triangle_free(g)


def test_exhaustive_two_coloring_fails_on_augmented_two(independent_levels, frame):
    aug = augment(independent_levels[2], frame)
    g = intersection_graph(aug)
    assert not any(True for _ in proper_colorings(g, 2))


@pytest.mark.parametrize("shape_name", ["lshape", "cross"])
def test_other_catalog_shapes_build_and_augment(shape_name):
    shape = catalog()[shape_name]
    level = build(2, shape)
    aug = augment(level, shape)
    assert len(aug) == 5
    g = intersection_graph(aug)
    assert is_triangle_free(g)
    res = chromatic_number(g)
    assert res.exact and res.chi == 3


def test_probe_color_forcing_small_k(independent_levels):
    # every proper coloring with at most k colors spends k colors on the
    # pierced set of some probe
    for k in (1, 2):
        level = independent_levels[k]
        g = intersection_graph(level.family)
        count = 0
        for coloring in proper_colorings(g, k):
            audit = probe_coloring_audit(level, coloring)
            assert audit.max_colors >= k
            count += 1
        assert count > 0


def test_probe_color_forcing_extends_to_k3(independent_levels):
    # same exhaustive statement at k = 3; the enumerator only yields proper
    # colorings, so the per-probe sets can be read off directly
    level = independent_levels[3]
    g = intersection_graph(level.family)
    count = 0
    for coloring in proper_colorings(g, 3):
        assert any(len({coloring[i] for i in p.pierced}) >= 3
                   for p in level.probes)
        count += 1
    assert count == 16200  # frozen: |proper 3-colorings of F(3)|


def test_probe_audit_rejects_improper_colorings(independent_levels):
    level = independent_levels[2]
    with pytest.raises(ValueError):
        probe_coloring_audit(level, [1] * len(level.family))


def test_probe_roots_avoid_every_copy(independent_levels):
    for level in independent_levels.values():
        for p in level.probes:
            assert all(not copy_meets_rect(c, p.root) for c in level.family)


def test_augment_rejects_tampered_probe(independent_levels, frame):
    level = independent_levels[2]
    bad_probe = Probe(level.probes[0].rect, level.probes[0].root,
                      level.probes[0].root_cut_x, (0,))  # wrong pierced set
    tampered = type(level)(level.k, level.family, (bad_probe,) + level.probes[1:])
    with pytest.raises(ConstructionError):
        augment(tampered, frame)


@pytest.mark.parametrize("k, pierced, message", [
    (1, frozenset(), "probe 0: pierced set mismatch: claimed [], actual [0]"),
    (2, frozenset({0}), "size: k=2 needs more than 1 base copies"),
], ids=["wrong-pierced-set", "wrong-k"])
def test_seal_refuses_a_level_that_breaks_its_law(frame, k, pierced, message):
    copy = shapes.TransformedCopy(frame.name, frame.shape, XYTransform.identity(), "outer")
    with pytest.raises(ConstructionError) as err:
        seal(k, [copy], [(frame.features.empty_rect, pierced)])
    assert str(err.value) == message


def test_build_is_deterministic(frame):
    a = build(3, frame)
    b = build(3, frame)
    assert a.family == b.family
    assert a.probes == b.probes


# Denominators that no construction uses, so that a rebased family and its
# probes sit on grids that share little.
_PRIMES = (7, 11, 13, 17, 19, 23, 29, 31)


def _random_transform(rng):
    def rat():
        return Fraction(rng.randint(1, 9), rng.choice(_PRIMES))

    return XYTransform(rat(), rat(), rat() - 1, rat() - 1)


def _nudged(rng, rect):
    """A transform that leaves ``rect`` near where it is: about its lower
    left corner, a scale within 1/p of 1 and a shift of a few p-ths of its
    size, p a random prime."""
    scale = [1 + Fraction(rng.randint(-1, 1), rng.choice(_PRIMES)) for _ in range(2)]
    shift = [size * Fraction(rng.randint(-2, 2), rng.choice(_PRIMES))
             for size in (rect.width, rect.height)]
    return XYTransform(scale[0], scale[1], (1 - scale[0]) * rect.x_lo + shift[0],
                       (1 - scale[1]) * rect.y_lo + shift[1])


def _rebased(rng, level, diagonals):
    """The level's copies, probes and diagonals pushed through one random
    rational transform, then about half of the copies and diagonals and a
    third of the probes nudged each by a transform of its own."""
    outer = _random_transform(rng)

    def copy(c):
        c = c.rebase(outer)
        return c.rebase(_nudged(rng, c.bbox)) if rng.random() < 0.5 else c

    def probe(p):
        rect, root, cut = (outer.apply(p.rect), outer.apply(p.root), outer.x(p.root_cut_x))
        if rng.random() < 1 / 3:
            rect = _nudged(rng, rect).apply(rect)
        return Probe(rect, root, cut, p.pierced)

    copies = [copy(c) for c in level.family]
    return copies, [probe(p) for p in level.probes], [copy(d) for d in diagonals]


def _seeded_levels():
    for name in ("frame", "lshape", "cross"):
        shape = catalog()[name]
        level = build(3, shape)
        yield level, augment(level, shape)[len(level.family):]
    frame = catalog()["frame"]
    for eps in (Fraction(1, 2), Fraction(2, 7)):
        level = build_uniform(3, eps, frame)
        yield level, augment_uniform(level, frame)[len(level.family):]


def test_grid_checks_match_fraction_references_on_unrelated_grids():
    rng = random.Random(909)
    seen: set[str] = set()
    for level, diagonals in _seeded_levels():
        for _ in range(6):
            copies, probes, diags = _rebased(rng, level, diagonals)
            bbox = family_bbox(copies)
            assert len({c.den for c in copies} | {p.rect.den for p in probes}) > 4
            got = probe_conditions(probes, copies, bbox, level.epsilon)
            assert got == probe_conditions_ref(probes, copies, bbox, level.epsilon)
            seen.update(" ".join(msg.split()[:2]) for msgs in got for msg in msgs)
            seen.add("valid" if [] in got else "all invalid")
            law = diagonal_law(copies, diags, probes)
            assert law == diagonal_law_ref(copies, diags, probes)
            seen.add("diagonal law " + ("holds" if not law else "fails"))
            family = copies + diags
            g = intersection_graph(family)
            assert set(g.edges()) == set(intersection_graph_bruteforce(family).edges()) == {
                (i, j) for i, j in itertools.combinations(range(len(family)), 2)
                if copies_intersect_ref(family[i], family[j])}
    assert {"valid", "pierced set", "pierced copies", "pierced copy", "root meets",
            "diagonal law holds", "diagonal law fails"} <= seen


def test_an_intersecting_pair_is_reported_by_every_probe_it_shares(independent_levels):
    level = independent_levels[3]
    occurrences: dict[tuple[int, int], list[int]] = {}
    for i, p in enumerate(level.probes):
        for pair in itertools.combinations(sorted(p.pierced), 2):
            occurrences.setdefault(pair, []).append(i)
    (a, b), sharing = max(occurrences.items(), key=lambda item: len(item[1]))
    assert len(sharing) >= 2
    # copy b made a second copy of a: the two meet wherever a is pierced
    copies = list(level.family)
    copies[b] = replace(copies[a], lineage="tampered")
    bbox = family_bbox(copies)
    got = probe_conditions(level.probes, copies, bbox)
    assert got == probe_conditions_ref(level.probes, copies, bbox)
    message = f"pierced copies {a} and {b} intersect"
    assert all(message in got[i] for i in sharing)


def test_probe_conditions_tests_each_distinct_pierced_pair_once(frame, monkeypatch):
    level = build(4, frame)
    calls = [0]
    kernel = shapes._curves_meet

    def counted(*args):
        calls[0] += 1
        return kernel(*args)

    monkeypatch.setattr(shapes, "_curves_meet", counted)
    assert probe_conditions(level.probes, level.family, family_bbox(level.family)) \
        == [[]] * len(level.probes)
    pairs = [pair for p in level.probes for pair in itertools.combinations(sorted(p.pierced), 2)]
    assert (len(pairs), len(set(pairs)), calls[0]) == (1872, 822, 822)
