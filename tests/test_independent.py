import itertools
import random
from fractions import Fraction

import pytest

from trifree import independent, serialize, shapes
from trifree.errors import ConstructionError
from trifree.geometry import Rect, axis_map, h_seg, v_seg
from trifree.graphs import (
    chromatic_number,
    intersection_graph,
    is_triangle_free,
)
from trifree.independent import (
    Level,
    augment,
    base_level,
    build,
    diagonal_law,
    level_pass,
    make_diagonal,
    next_level,
    probe_conditions,
    seal,
    size_formulas,
    split_probe,
)
from trifree.shapes import (
    catalog,
    copies_intersect,
    copy_meets_rect,
    family_bbox,
)
from trifree.uniform import augment_uniform, build_uniform
from trifree.verify import verify_family

from _oracles import (
    RectRelation,
    XYTransform,
    apply_ref,
    copies_intersect_ref,
    copy_meets_rect_ref,
    curve_stabs_ref,
    diagonal_law_ref,
    from_maps,
    intersection_graph_bruteforce,
    make_diagonal_ref,
    meeting_pairs,
    meeting_pairs_bruteforce,
    probe_coloring_audit,
    probe_conditions_ref,
    probe_of,
    proper_colorings,
    rect_relations,
    rect_union_all,
    rects_meet,
    replace,
    replace_probe,
    spans_ref,
    stab_case,
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
    probe = probe_of(Rect(0, 10, 0, 5), Rect(0, 3, 0, 5), 3, ())
    upper, lower = split_probe(probe)
    assert upper == Rect(0, 10, 3, 5)
    assert lower == Rect(0, 10, 0, 2)
    assert not rects_meet(upper, lower)
    assert probe.rect.contains_rect(upper) and probe.rect.contains_rect(lower)


def test_every_stabber_of_probe_stabs_both_parts():
    # what next_level relies on without checking it: on every built level,
    # each pierced copy stabs both split parts of its probe, and the
    # probe's diagonal crosses the upper part
    for shape in catalog().values():
        level = base_level(shape)
        for k in (1, 2, 3):
            diagonals = augment(level, shape)[len(level.family):]
            for p, diagonal in zip(level.probes, diagonals):
                upper, lower = split_probe(p)
                for i in p.pierced:
                    assert stabs_vertically(level.family[i], upper)
                    assert stabs_vertically(level.family[i], lower)
                assert stabs_horizontally(diagonal, upper)
            if k < 3:
                level = next_level(level, shape)


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
    empty = diag.apply(frame.features.empty_rect)
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
    bad_probe = probe_of(level.probes[0].rect, level.probes[0].root,
                      level.probes[0].root_cut_x, (0,))  # wrong pierced set
    tampered = type(level)(level.k, level.family, (bad_probe,) + level.probes[1:])
    with pytest.raises(ConstructionError):
        augment(tampered, frame)


@pytest.mark.parametrize("k, pierced, message", [
    (1, frozenset(), "probe 0: pierced set mismatch: claimed [], actual [0]"),
    (2, frozenset({0}), "size: k=2 needs more than 1 base copies"),
], ids=["wrong-pierced-set", "wrong-k"])
def test_seal_refuses_a_level_that_breaks_its_law(frame, k, pierced, message):
    copy = shapes.TransformedCopy(frame.name, frame.shape, lineage="outer")
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
        c = c.rebase(outer.axis_maps())
        return c.rebase(_nudged(rng, c.bbox).axis_maps()) if rng.random() < 0.5 else c

    def probe(p):
        rect, root, cut = (outer.apply(p.rect), outer.apply(p.root), outer.x(p.root_cut_x))
        if rng.random() < 1 / 3:
            rect = _nudged(rng, rect).apply(rect)
        return probe_of(rect, root, cut, p.pierced)

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
            got = _probe_conditions(probes, copies, level.epsilon, diags)
            assert got == probe_conditions_ref(probes, copies, bbox, level.epsilon)
            seen.update(" ".join(msg.split()[:2]) for msgs in got for msg in msgs)
            seen.add("valid" if [] in got else "all invalid")
            family, n = copies + diags, len(copies)
            grid = shapes.FamilyGrid(family)
            contacts, diagonal_pairs = grid.contacts()[0], grid.contacts(n)[0]
            assert diagonal_pairs == [(i, j) for i, j in contacts if j >= n]
            law = diagonal_law(diagonal_pairs, n, probes)
            assert law == diagonal_law_ref(copies, diags, probes)
            seen.add("diagonal law " + ("holds" if not law else "fails"))
            assert set(contacts) == set(intersection_graph_bruteforce(family).edges()) == {
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
    got = _probe_conditions(level.probes, copies)
    assert got == probe_conditions_ref(level.probes, copies, bbox)
    message = f"pierced copies {a} and {b} intersect"
    assert all(message in got[i] for i in sharing)


def _drawn_level(rng):
    """Three probes, bands of a 12-wide box reaching its right side, with two
    to four copies drawn against each (``stab_case``): most against the probe
    rectangle, the others against its root.  Each probe claims the copies
    its rectangle meets, or one of them fewer or more now and then."""
    copies, bands = [], []
    for row in range(3):
        x_lo, y_lo = rng.randint(0, 4), 4 * row + Fraction(rng.randint(0, 2), 3)
        cut, y_hi = x_lo + rng.randint(1, 3), y_lo + rng.randint(2, 3)
        rect, root = Rect(x_lo, 12, y_lo, y_hi), Rect(x_lo, cut, y_lo, y_hi)
        for _ in range(rng.randint(2, 4)):
            target = rect if rng.random() < 0.7 else root
            copies.append(shapes.TransformedCopy(
                "drawn", stab_case(rng, target, vertical=rng.random() < 0.8)))
        bands.append((x_lo, y_lo, y_hi, cut))
    x_hi = family_bbox(copies).x_hi
    probes = []
    for x_lo, y_lo, y_hi, cut in bands:
        rect = Rect(x_lo, x_hi, y_lo, y_hi)
        pierced = {i for i, c in enumerate(copies) if copy_meets_rect_ref(c, rect)}
        if rng.random() < 0.2:
            pierced ^= {rng.randrange(len(copies))}
        probes.append(probe_of(rect, Rect(x_lo, cut, y_lo, y_hi), cut, sorted(pierced)))
    return Level(1, tuple(copies), tuple(probes))


def test_probe_scan_falls_back_as_the_fraction_reference_decides():
    rng = random.Random(5150)
    seen: set[str] = set()
    for _ in range(60):
        copies, probes, _ = _rebased(rng, _drawn_level(rng), ())
        bbox = family_bbox(copies)
        got = _probe_conditions(probes, copies)
        assert got == probe_conditions_ref(probes, copies, bbox)
        seen.update(" ".join(msg.split()[:2]) for msgs in got for msg in msgs)
        for p in probes:
            for c in copies:
                if copy_meets_rect_ref(c, p.rect) and not spans_ref(c.segments, p.rect,
                                                                     vertical=True):
                    stabs = curve_stabs_ref(c.segments, p.rect, vertical=True)
                    seen.add(f"walk {stabs}")
    assert {"pierced set", "pierced copies", "pierced copy", "root meets", "walk True",
            "walk False"} <= seen


def _count_probe_scans(monkeypatch) -> dict[str, list]:
    """From now on: each scan of a copy against a probe (its rectangle, its
    root and the copy's segments), each clip and each component walk."""
    seen: dict[str, list] = {"scans": [], "clips": [], "walks": []}
    pierce, clip, components = shapes._pierce, shapes._clip, shapes._components

    def counted_pierce(rect, root, segs):
        seen["scans"].append((rect, root, id(segs)))
        return pierce(rect, root, segs)

    def counted_clip(box, segs):
        seen["clips"].append(box)
        return clip(box, segs)

    def counted_components(segs):
        seen["walks"].append(segs)
        return components(segs)

    monkeypatch.setattr(shapes, "_pierce", counted_pierce)
    monkeypatch.setattr(shapes, "_clip", counted_clip)
    monkeypatch.setattr(shapes, "_components", counted_components)
    return seen


@pytest.mark.parametrize("name", ["frame", "lshape", "cross"])
def test_level_law_scans_each_probe_and_near_copy_once(name, monkeypatch):
    # every pierced copy of a built level has one segment spanning its
    # probe, so no probe check clips a copy or walks its components
    shape = catalog()[name]
    level = build(4, shape)
    diagonals = augment(level, shape)[len(level.family):]
    near = sum(rects_meet(c.bbox, rect_union_all([p.rect, p.root]))
               for p in level.probes for c in level.family)
    seen = _count_probe_scans(monkeypatch)
    assert independent.level_law(level, diagonals) == []
    assert len(seen["scans"]) == len(set(seen["scans"])) == near
    assert seen["clips"] == seen["walks"] == []
    # copies drawn to be pierced without a spanning segment are clipped
    drawn = _drawn_level(random.Random(5150))
    _probe_conditions(drawn.probes, drawn.family)
    assert seen["clips"] and seen["walks"]


def _count_contact_work(monkeypatch) -> dict[str, list]:
    """From now on: each ``FamilyGrid`` made, each ``contacts()`` pass and
    each pair of segment lists the contact kernel decides."""
    seen: dict[str, list] = {"grids": [], "passes": [], "kernel": []}
    init, contacts = shapes.FamilyGrid.__init__, shapes.FamilyGrid.contacts
    kernel = shapes._curves_meet

    def counted_init(grid, *args, **kwargs):
        seen["grids"].append(grid)
        init(grid, *args, **kwargs)

    def counted_contacts(grid, start=0, queries=()):
        seen["passes"].append(grid)
        return contacts(grid, start, queries)

    def counted_kernel(segs_a, segs_b, box_b):
        seen["kernel"].append((id(segs_a), id(segs_b)))
        return kernel(segs_a, segs_b, box_b)

    monkeypatch.setattr(shapes.FamilyGrid, "__init__", counted_init)
    monkeypatch.setattr(shapes.FamilyGrid, "contacts", counted_contacts)
    monkeypatch.setattr(shapes, "_curves_meet", counted_kernel)
    return seen


def test_level_law_decides_each_box_meeting_pair_once_on_one_grid(frame, monkeypatch):
    level = build(4, frame)
    pairs = len(meeting_pairs(level.family))
    seen = _count_contact_work(monkeypatch)
    assert independent.level_law(level) == []
    assert len(seen["grids"]) == len(seen["passes"]) == 1
    assert seen["grids"] == seen["passes"]
    assert len(seen["kernel"]) == len(set(seen["kernel"])) == pairs == 1145


@pytest.mark.parametrize("build_level, close, want", [
    (lambda shape: build(4, shape), augment, 736),
    (lambda shape: build_uniform(3, Fraction(1, 2), shape), augment_uniform, 28),
], ids=["independent-k4", "uniform-k3"])
def test_augment_decides_only_the_pairs_that_hold_a_diagonal(frame, monkeypatch,
                                                             build_level, close, want):
    # the base contacts were decided when the level was sealed
    level = build_level(frame)
    n = len(level.family)
    seen = _count_contact_work(monkeypatch)
    family = close(level, frame)
    diagonal_pairs = [(i, j) for i, j in meeting_pairs(family) if j >= n]
    assert len(seen["grids"]) == len(seen["passes"]) == 1
    assert len(seen["kernel"]) == len(set(seen["kernel"])) == len(diagonal_pairs) == want


@pytest.mark.parametrize("name", ["frame", "lshape", "cross"])
def test_build_lifts_one_grid_per_seal_and_per_augment(name, monkeypatch):
    # seal of level 1, then per step the helper's augment and the seal,
    # then the closing augment: next_level lifts no grid of its own
    shape = catalog()[name]
    seen = _count_contact_work(monkeypatch)
    augment(build(4, shape), shape)
    assert len(seen["grids"]) == 1 + 2 * 3 + 1 == 8


def _count_sweeps_and_lifts(monkeypatch) -> dict[str, int]:
    """From now on: each sweep over boxes and each lift of boxes onto one
    grid, by a ``FamilyGrid`` or by ``family_bbox``."""
    seen = {"sweeps": 0, "lifts": 0}
    sweep, lift, grid = shapes._sweep_pairs, shapes._on_one_grid, shapes.FamilyGrid.__init__

    def counted_sweep(boxes):
        seen["sweeps"] += 1
        return sweep(boxes)

    def counted_lift(*groups):
        seen["lifts"] += 1
        return lift(*groups)

    def counted_grid(self, *args):
        seen["lifts"] += 1
        grid(self, *args)

    monkeypatch.setattr(shapes, "_sweep_pairs", counted_sweep)
    monkeypatch.setattr(shapes, "_on_one_grid", counted_lift)
    monkeypatch.setattr(shapes.FamilyGrid, "__init__", counted_grid)
    return seen


@pytest.mark.parametrize("name", ["frame", "lshape", "cross"])
def test_level_check_lifts_one_grid_and_runs_one_sweep(name, monkeypatch):
    shape = catalog()[name]
    level = build(4, shape)
    family = augment(level, shape)
    doc = serialize.level_to_doc(level, shape, family)
    fam = serialize.doc_to_family(serialize.loads(serialize.dumps(doc)))
    stored = Level(level.k, level.family, level.probes)  # no box kept, as verify makes it
    seen = _count_sweeps_and_lifts(monkeypatch)
    assert independent.level_law(stored, family[len(level.family):]) == []
    assert seen == {"sweeps": 1, "lifts": 1}
    seen.update(sweeps=0, lifts=0)
    assert verify_family(fam) == []
    assert seen == {"sweeps": 1, "lifts": 1}
    # per seal the box its probes grow to and the level check's grid; per
    # augment one grid and one pass; per step the helper's box
    seen.update(sweeps=0, lifts=0)
    augment(build(4, shape), shape)
    assert seen == {"sweeps": 4 + 4, "lifts": 2 * 4 + 4 + 3}


def _tampered(probes, i, j, tamper):
    """``probes`` with probe i's root set to probe j's rectangle, its
    rectangle set to probe j's root, or probe i repeated at the end."""
    probes = list(probes)
    if tamper == "root-on-another-rectangle":
        probes[i] = replace_probe(probes[i], root=probes[j].rect)
    elif tamper == "rectangle-on-another-root":
        probes[i] = replace_probe(probes[i], rect=probes[j].root)
    else:
        probes.append(probes[i])
    return probes


@pytest.mark.parametrize("name", ["frame", "lshape", "cross"])
def test_one_pass_judges_tampered_probes_as_the_references_do(name):
    # the probe references test every copy on exact rationals, so beyond
    # the tampered probe they run on a seeded sample: the other probes are
    # untouched probes of a sealed level, and the law must find them valid
    shape, rng, seen = catalog()[name], random.Random(2323), set()
    for level in _levels_up_to(4, shape):
        n, p = len(level.family), len(level.probes)
        diagonals = augment(level, shape)[n:]
        for tamper in ("root-on-another-rectangle", "rectangle-on-another-root",
                       "probe-repeated"):
            i = rng.randrange(p)
            j = rng.choice([j for j in range(p) if j != i] or [i])
            probes = _tampered(level.probes, i, j, tamper)
            checked = sorted({i, len(probes) - 1, *rng.sample(range(p), min(p, 4))})
            refs = probe_conditions_ref([probes[x] for x in checked], level.family, level.bbox)
            want = [f"probe {x}: {msg}" for x, msgs in zip(checked, refs) for msg in msgs]
            want += [f"probes {a} and {b} are not disjoint"
                     for a, b in meeting_pairs_bruteforce([q.rect for q in probes])]
            law = (diagonal_law_ref(level.family, diagonals, probes) if len(probes) == p
                   else ["diagonal count differs from probe count"])
            sizes = [f"size: {p + 1} probes, expected p_{level.k} = {p}"] * (len(probes) > p)
            tampered = replace(level, probes=tuple(probes))
            assert independent.level_law(tampered) == sizes + want
            assert independent.level_law(tampered, diagonals) == sizes + want + [
                f"augmented: {msg}" for msg in law]
            seen.update(msg.split()[0] for msg in want)
    assert seen == {"probe", "probes"}


def test_probes_are_disjoint_unless_their_rectangles_meet(independent_levels):
    level = independent_levels[2]
    p0, p1 = level.probes
    # probe 1's root moved onto probe 0's rectangle: the boxes around each
    # probe's rectangle and root meet, the two rectangles do not
    moved = replace_probe(p1, root=p0.rect)
    assert rects_meet(rect_union_all([moved.rect, moved.root]), p0.rect)
    assert not rects_meet(moved.rect, p0.rect)
    got = independent.level_law(replace(level, probes=(p0, moved)))
    assert "probe 1: root meets copy 0" in got
    assert not any(msg.endswith("are not disjoint") for msg in got)
    # probe 1's rectangle sharing only one corner with probe 0's
    r = p0.rect
    corner = replace_probe(p1, rect=Rect(r.x_hi, r.x_hi + 1, r.y_hi, r.y_hi + 1))
    assert meeting_pairs_bruteforce([p0.rect, corner.rect]) == [(0, 1)]
    got = independent.level_law(replace(level, probes=(p0, corner)))
    assert "probes 0 and 1 are not disjoint" in got


def test_next_level_refuses_a_diagonal_moved_off_a_pierced_copy(independent_levels, frame,
                                                                 monkeypatch):
    prev = independent_levels[2]
    make = independent.make_diagonal

    def moved(probe, shape, bbox, lineage="diagonal"):
        diagonal = make(probe, shape, bbox, lineage)
        if probe == prev.probes[0]:  # lifted clear above the family
            diagonal = diagonal.rebase(((1, 0, 1), axis_map(1, 2 * bbox.height)), lineage)
        return diagonal

    monkeypatch.setattr(independent, "make_diagonal", moved)
    with pytest.raises(ConstructionError) as err:
        next_level(prev, frame)
    assert str(err.value) == "diagonal 0 meets [], expected [0, 2]"


def test_next_level_refuses_a_lower_part_grown_into_its_diagonal(frame, monkeypatch):
    split = independent.split_probe

    def grown(p):
        upper, lower = split(p)  # the lower part grown up to the diagonal's bottom side
        return upper, Rect(lower.x_lo, lower.x_hi, lower.y_lo, upper.y_lo)

    monkeypatch.setattr(independent, "split_probe", grown)
    with pytest.raises(ConstructionError) as err:
        next_level(base_level(frame), frame)
    # copy 2 is the embedded diagonal, and probe 1 the lower probe
    assert str(err.value) == (
        "probe 1: pierced set mismatch: claimed [0, 1], actual [0, 1, 2]; "
        "probe 1: pierced copies 1 and 2 intersect; "
        "probe 1: pierced copy 2 does not stab the probe vertically; "
        "probe 1: root meets copy 2")


def test_verify_decides_an_augmented_family_on_one_grid(frame, monkeypatch):
    level = build(4, frame)
    doc = serialize.level_to_doc(level, frame, augment(level, frame))
    fam = serialize.doc_to_family(serialize.loads(serialize.dumps(doc)))
    seen = _count_contact_work(monkeypatch)
    assert verify_family(fam) == []
    assert len(seen["grids"]) == len(seen["passes"]) == 1
    assert len(seen["kernel"]) == len(set(seen["kernel"])) == 1881


def test_seal_refuses_a_level_whose_copies_form_a_triangle(frame):
    level = build(2, frame)
    claims = [(p.root, frozenset(p.pierced)) for p in level.probes]
    assert seal(2, level.family, claims).family == level.family
    # copies 1 and 2 moved onto copy 0: the three pairwise meet
    copies = [replace(level.family[0], lineage=f"moved({i})") for i in range(3)]
    with pytest.raises(ConstructionError) as exc:
        seal(2, copies, claims)
    assert "family is not triangle-free" in str(exc.value).split("; ")


def _levels_up_to(k, shape):
    level = base_level(shape)
    yield level
    for _ in range(k - 1):
        level = next_level(level, shape)
        yield level


@pytest.mark.parametrize("shape_name", ["frame", "lshape", "cross"])
def test_closed_form_diagonal_equals_the_fraction_chain(shape_name):
    shape = catalog()[shape_name]
    count = 0
    for level in _levels_up_to(4, shape):
        for i, p in enumerate(level.probes):
            got = make_diagonal(p, shape, level.bbox, f"diagonal(P{i})")
            want = make_diagonal_ref(p, shape, level.bbox, f"diagonal(P{i})")
            assert from_maps(got.x_map, got.y_map) == from_maps(want.x_map, want.y_map)
            assert got == want
            count += 1
    assert count == 1 + 2 + 8 + 128


@pytest.mark.parametrize("x_hi", [Fraction(7, 4), Fraction(7, 4) - Fraction(1, 10**9), 100],
                         ids=["at-the-empty-side", "just-left-of-it", "far-right"])
def test_diagonal_clearance_is_decided_as_the_fraction_chain_decides_it(frame, x_hi):
    # the base frame's diagonal maps E's left side to 7/4: only a box
    # ending strictly left of it is cleared
    probe = base_level(frame).probes[0]
    box = Rect(0, x_hi, 0, 1)
    outcomes = []
    for make in (make_diagonal, make_diagonal_ref):
        try:
            outcomes.append(make(probe, frame, box))
        except ConstructionError as exc:
            outcomes.append(str(exc))
    assert outcomes[0] == outcomes[1]
    assert isinstance(outcomes[0], str) == (x_hi >= Fraction(7, 4))


def test_mapped_roots_equal_their_fraction_sides(frame, monkeypatch):
    # every claimed root that embed_helpers maps, under both constructions
    mapped = []
    map_lift = independent.map_lift

    def recorded(x_map, y_map, r):
        out = map_lift(x_map, y_map, r)
        mapped.append((out, apply_ref(from_maps(x_map, y_map), r)))
        return out

    monkeypatch.setattr(independent, "map_lift", recorded)
    for k in (1, 2, 3):
        for eps in (Fraction(1, 2), Fraction(5, 8), Fraction(2, 7)):
            build_uniform(k, eps, frame)
    uniform = len(mapped)
    for shape in catalog().values():
        build(3, shape)
    assert 0 < uniform < len(mapped)
    # each is the least lift of the Fraction image
    assert all(got == (want.den, want.int_box) for got, want in mapped)


def test_seal_keeps_the_box_its_probes_grew_to(frame, monkeypatch):
    boxes = []
    family_box = independent.family_bbox

    def counted(copies):
        boxes.append(family_box(copies))
        return boxes[-1]

    monkeypatch.setattr(independent, "family_bbox", counted)
    copy = shapes.TransformedCopy(frame.name, frame.shape, lineage="outer")
    level = seal(1, [copy], [(frame.features.empty_rect, frozenset({0}))])
    # one box per seal: the one the probe grew to, which the level law read
    assert len(boxes) == 1 and level.bbox is boxes[0]
    level = next_level(level, frame)
    assert level.bbox is boxes[-1]
    # a level made from another one by replace() boxes its own family
    inner = replace(level, family=level.family[1:])
    assert inner.bbox == family_box(level.family[1:]) != level.bbox


def _probe_conditions(probes, copies, epsilon=None, diagonals=()):
    """``probe_conditions`` as ``level_law`` runs it: the copies, then the
    diagonals, on one grid with every probe's rectangle and root, and that
    grid's one pass."""
    grid = shapes.FamilyGrid([*copies, *diagonals],
                             [r for p in probes for r in (p.rect, p.root)])
    contacts, near, _ = level_pass(grid, len(copies))
    return probe_conditions(probes, grid, len(copies), near, set(contacts), epsilon)


def _grid_unit(level):
    """One unit of the grid that ``level_law`` puts the level on."""
    rects = [r for p in level.probes for r in (p.rect, p.root)]
    return Fraction(1, shapes.FamilyGrid(level.family, rects).den)


def _moved(rect, unit, side):
    sides = dict(x_lo=rect.x_lo, x_hi=rect.x_hi, y_lo=rect.y_lo, y_hi=rect.y_hi)
    sides[side] += unit
    return Rect(**sides)


# each tamper of one probe, given the grid unit, and a message it must raise
_TAMPERS = {
    "cut-off-the-grid": (lambda p, u: replace_probe(p, root_cut_x=p.root_cut_x + u / 7919),
                         "root is not the left part of the probe at the cut line"),
    "cut-at-x-lo": (lambda p, u: replace_probe(p, root_cut_x=p.rect.x_lo),
                    "root cut line is not interior to the probe"),
    "cut-at-x-hi": (lambda p, u: replace_probe(p, root_cut_x=p.rect.x_hi),
                    "root cut line is not interior to the probe"),
    "flat-rectangle": (lambda p, u: replace_probe(p, rect=Rect(p.rect.x_lo, p.rect.x_hi,
                                                                p.rect.y_lo, p.rect.y_lo)),
                       "probe rectangle is degenerate"),
    "thin-rectangle": (lambda p, u: replace_probe(p, rect=Rect(p.rect.x_hi, p.rect.x_hi,
                                                                p.rect.y_lo, p.rect.y_hi)),
                       "probe rectangle is degenerate"),
    "rectangle-past-the-right-side": (
        lambda p, u: replace_probe(p, rect=_moved(p.rect, u, "x_hi")),
        "probe leaves the family bounding box"),
    "rectangle-short-of-the-right-side": (
        lambda p, u: replace_probe(p, rect=_moved(p.rect, -u, "x_hi")),
        "probe does not touch the family's right side"),
    **{f"root-{side}-off-by-one-unit": (
        lambda p, u, side=side: replace_probe(p, root=_moved(p.root, u, side)),
        "root is not the left part of the probe at the cut line")
       for side in ("x_lo", "x_hi", "y_lo", "y_hi")},
}
_EPS_TAMPERS = {
    "height-off-by-one-unit": (lambda p, u: replace_probe(p, rect=_moved(p.rect, u, "y_lo"),
                                                          root=_moved(p.root, u, "y_lo")),
                               "width/height ratio is not exactly 1+eps"),
    "width-off-by-one-unit": (lambda p, u: replace_probe(p, rect=_moved(p.rect, u, "x_lo"),
                                                         root=_moved(p.root, u, "x_lo")),
                              "width/height ratio is not exactly 1+eps"),
    # on the first probe of uniform level 2 at eps 1/2 this leaves
    # width*q and (p+q)*height one apart, 62 against 63 grid units
    "width-two-and-height-one-unit-off": (
        lambda p, u: replace_probe(p, rect=_moved(_moved(p.rect, 2 * u, "x_lo"), u, "y_lo"),
                                   root=_moved(_moved(p.root, 2 * u, "x_lo"), u, "y_lo")),
        "width/height ratio is not exactly 1+eps"),
    "root-not-square": (lambda p, u: replace_probe(p, root=_moved(p.root, -u, "y_hi"),
                                                   rect=_moved(p.rect, -u, "y_hi")),
                        "root is not a square"),
}


@pytest.mark.parametrize("name", [*_TAMPERS, *_EPS_TAMPERS])
def test_tampered_probe_sides_are_judged_as_the_reference_judges_them(
        name, independent_levels, uniform_levels):
    cases = [(independent_levels[3], _TAMPERS), (uniform_levels[2], {**_TAMPERS, **_EPS_TAMPERS})]
    checked = 0
    for level, tampers in cases:
        if name not in tampers:
            continue
        tamper, message = tampers[name]
        unit = _grid_unit(level)
        assert (1 / unit) % 7919 != 0
        for i in range(0, len(level.probes), 3):
            probes = list(level.probes)
            probes[i] = tamper(probes[i], unit)
            got = _probe_conditions(probes, level.family, level.epsilon)
            assert got == probe_conditions_ref(probes, level.family, level.bbox, level.epsilon)
            assert message in got[i]
            assert all(got[j] == [] for j in range(len(probes)) if j != i)
            checked += 1
    assert checked


@pytest.mark.parametrize("make", [
    *(lambda name=name: augment(build(3, catalog()[name]), catalog()[name])
      for name in ("frame", "lshape", "cross")),
    lambda: augment_uniform(build_uniform(3, Fraction(1, 2), catalog()["frame"]),
                            catalog()["frame"]),
], ids=["frame", "lshape", "cross", "uniform"])
def test_box_filtered_meet_matches_the_fraction_reference_on_every_pair(make):
    family = make()
    want = {(i, j) for i, j in itertools.combinations(range(len(family)), 2)
            if copies_intersect_ref(family[i], family[j])}
    assert want
    for i, j in itertools.permutations(range(len(family)), 2):
        assert copies_intersect(family[i], family[j]) == ((min(i, j), max(i, j)) in want)
    assert set(shapes.FamilyGrid(family).contacts()[0]) == want


@pytest.mark.parametrize("seg, dx, dy", [
    (h_seg(0, Fraction(1, 2), 2), 0, -1), (h_seg(1, Fraction(1, 2), 2), 0, 1),
    (v_seg(0, Fraction(1, 2), 2), -1, 0), (v_seg(1, Fraction(1, 2), 2), 1, 0),
    (h_seg(Fraction(1, 2), 1, 2), 1, 0), (h_seg(Fraction(1, 2), -1, 0), -1, 0),
    (v_seg(Fraction(1, 2), 1, 2), 0, 1), (v_seg(Fraction(1, 2), -1, 0), 0, -1),
], ids=["on-bottom", "on-top", "on-left", "on-right",
        "from-right", "from-left", "from-above", "from-below"])
def test_meet_counts_a_touch_on_each_side_of_the_box(frame, seg, dx, dy):
    # the unit frame is its box's boundary, so every contact lies on a side
    # of that box, where the box filter must keep the segment; moved out
    # by (dx, dy)/7, the segment meets nothing
    unit = shapes.TransformedCopy(frame.name, frame.shape, lineage="outer")
    for step, touches in ((0, True), (Fraction(1, 7), False)):
        stick = shapes.TransformedCopy("stick", shapes.RectilinearShape((seg,)),
                                       axis_map(1, dx * step), axis_map(1, dy * step), "stick")
        assert copies_intersect(unit, stick) == copies_intersect(stick, unit) == touches
        assert shapes.FamilyGrid([unit, stick]).contacts()[0] == ([(0, 1)] if touches else [])
        assert copies_intersect_ref(unit, stick) == touches
