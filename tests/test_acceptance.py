"""Acceptance suite: one test per criterion, each printing a PASS line
with its measured runtime (run pytest with -s to see them live)."""

import itertools
import os
import random
import time
from fractions import Fraction

import pytest

from trifree.encoding import encode, expand_tree
from trifree.game import first_fit, minimax_verify, run_game
from trifree.geometry import HORIZONTAL, VERTICAL, Rect, Seg, seg_intersect
from trifree.graphs import (
    chromatic_number,
    intersection_graph,
    is_triangle_free,
    verify_coloring,
)
from trifree.independent import augment, base_level, build, next_level, size_formulas
from trifree.shapes import catalog
from trifree.uniform import augment_uniform, build_uniform

from _oracles import (
    certify,
    chromatic_number_bruteforce,
    probe_coloring_audit,
    proper_colorings,
    rect_relation_grid,
    rect_relations,
    segs_intersect_grid,
    step_contact_law_violations,
)

HALF = Fraction(1, 2)


def _report(criterion: int, started: float, detail: str) -> None:
    print(f"ACCEPTANCE {criterion} PASS ({time.time() - started:.1f}s): {detail}")


def test_criterion_1_size_recurrences():
    t0 = time.time()
    frame = catalog()["frame"]
    want_family = {1: 1, 2: 3, 3: 13, 4: 181}
    want_probes = {1: 1, 2: 2, 3: 8, 4: 128}
    want_augmented = {1: 2, 2: 5, 3: 21, 4: 309}
    for k in (1, 2, 3, 4):
        tk = time.time()
        level = build(k, frame)
        aug = augment(level, frame)
        assert len(level.family) == want_family[k]
        assert len(level.probes) == want_probes[k]
        assert len(aug) == want_augmented[k]
        elapsed = time.time() - tk
        assert elapsed < (60 if k <= 3 else 600), f"k={k} took {elapsed:.1f}s"
    _report(1, t0, "family sizes 1,3,13,181; probes 1,2,8,128; augmented 2,5,21,309")


def test_criterion_2_closed_bounds():
    t0 = time.time()
    for k in range(1, 7):
        s, p = size_formulas(k)
        e = 2 ** (k - 1)
        assert p == 2 ** (e - 1)
        assert p <= s <= 2 ** e - 1
    _report(2, t0, "p_k = 2^(2^(k-1)-1) and p_k <= s_k <= 2^(2^(k-1))-1 for k <= 6")


def test_criterion_3_triangle_freeness():
    t0 = time.time()
    frame = catalog()["frame"]
    for k in (1, 2, 3, 4):
        aug = augment(build(k, frame), frame)
        assert is_triangle_free(intersection_graph(aug)), f"independent k={k}"
    for k in (1, 2, 3):
        level = build_uniform(k, HALF, frame)
        assert is_triangle_free(intersection_graph(level.family)), f"uniform k={k}"
        aug = augment_uniform(level, frame)
        assert is_triangle_free(intersection_graph(aug)), f"uniform augmented k={k}"
    for k in (1, 2, 3):
        fam = encode(expand_tree(k))
        assert is_triangle_free(intersection_graph(fam.copies)), f"encoded k={k}"
    elapsed = time.time() - t0
    assert elapsed < 300, f"took {elapsed:.1f}s"
    _report(3, t0, "omega <= 2: independent k<=4 (309 copies), uniform k<=3, encoded k<=3")


def test_criterion_4_chromatic_lower_bound():
    t0 = time.time()
    frame = catalog()["frame"]
    expected = {1: 2, 2: 3, 3: 4}
    for k, chi in expected.items():
        aug = augment(build(k, frame), frame)
        res = chromatic_number(aug_graph := intersection_graph(aug))
        assert res.exact, f"k={k} did not finish exactly"
        assert res.chi >= k + 1, f"k={k}: chi={res.chi}"
        assert res.chi == chi, f"k={k}: chi={res.chi}, expected exactly {chi}"
        assert verify_coloring(aug_graph, res.coloring)
    elapsed = time.time() - t0
    assert elapsed < 300, f"took {elapsed:.1f}s"
    _report(4, t0, "exact chi = 2, 3, 4 (>= k+1) for augmented frame families k = 1, 2, 3")


@pytest.mark.skipif(not os.environ.get("TRIFREE_STRETCH"),
                    reason="stretch goal; set TRIFREE_STRETCH=1 to attempt k=4")
def test_criterion_4_stretch_k4():
    t0 = time.time()
    frame = catalog()["frame"]
    aug = augment(build(4, frame), frame)
    res = chromatic_number(intersection_graph(aug), timeout=1800.0)
    detail = (f"k=4 chi = {res.chi}" if res.exact
              else f"k=4 interval [{res.lower}, {res.upper}] after 30 min")
    if res.exact:
        assert res.chi >= 5
    _report(4, t0, detail + " (stretch)")


def test_criterion_5_uniform_scaling():
    t0 = time.time()
    frame = catalog()["frame"]
    expected = {1: 2, 2: 3, 3: 4}
    for k in (1, 2, 3):
        level = build_uniform(k, HALF, frame)
        for c in level.family:
            assert c.transform.sx == c.transform.sy, "copy is not a homothet"
        for p in level.probes:
            assert p.rect.width == (1 + HALF) * p.rect.height, "ratio not exactly 1+eps"
        aug = augment_uniform(level, frame)
        for c in aug:
            assert c.transform.sx == c.transform.sy
        res = chromatic_number(intersection_graph(aug))
        assert res.exact and res.chi >= k + 1
        assert res.chi == expected[k]
    elapsed = time.time() - t0
    assert elapsed < 300, f"took {elapsed:.1f}s"
    _report(5, t0, "eps=1/2, k<=3: homothets exact, ratio exactly 3/2, chi >= k+1")


def test_criterion_6_probe_color_forcing_small_k():
    t0 = time.time()
    frame = catalog()["frame"]
    for k in (1, 2):
        for level in (build(k, frame), build_uniform(k, HALF, frame)):
            g = intersection_graph(level.family)
            total = 0
            for coloring in proper_colorings(g, k):
                audit = probe_coloring_audit(level, coloring)
                assert audit.max_colors >= k
                total += 1
            assert total > 0
    elapsed = time.time() - t0
    assert elapsed < 60, f"took {elapsed:.1f}s"
    _report(6, t0, "every proper <=k-coloring puts k colors on some probe, k <= 2, both modes")


def test_criterion_7_online_game():
    t0 = time.time()
    for k in range(1, 9):
        res = run_game(k, first_fit)
        assert res.colors_used >= k + 1
        assert res.intervals <= 2 ** k
    first_fit_elapsed = time.time() - t0
    assert first_fit_elapsed < 60, f"first-fit sweep took {first_fit_elapsed:.1f}s"
    t1 = time.time()
    for k in (1, 2, 3):
        assert minimax_verify(k, k) is True
    minimax_elapsed = time.time() - t1
    assert minimax_elapsed < 600, f"minimax took {minimax_elapsed:.1f}s"
    _report(7, t0, "first-fit forced past k within 2^k intervals for k<=8; "
                   "minimax certifies all painters for k<=3")


def test_criterion_8_encoding_law():
    t0 = time.time()
    from trifree.game import overlaps
    from trifree.shapes import copies_intersect

    for k in (1, 2, 3):
        fam = encode(expand_tree(k))
        for i, j in itertools.combinations(range(len(fam.nodes)), 2):
            same_branch = j in fam.ancestors(i) or i in fam.ancestors(j)
            expected = same_branch and overlaps(fam.nodes[i].interval,
                                                fam.nodes[j].interval)
            assert copies_intersect(fam.copies[i], fam.copies[j]) == expected
    rep = certify(encode(expand_tree(2)), 2)
    assert rep.chi.exact and rep.chi.chi == 3
    elapsed = time.time() - t0
    assert elapsed < 300, f"took {elapsed:.1f}s"
    _report(8, t0, "intersect iff overlap and common branch, k <= 3; chi = 3 at k = 2")


def test_criterion_9_contact_laws():
    t0 = time.time()
    frame = catalog()["frame"]
    level = base_level(frame)
    for _ in range(2):  # steps to k = 2 and k = 3
        prev, level = level, next_level(level, frame)
        assert step_contact_law_violations(prev, level, frame) == []
    _report(9, t0, "diagonal, upper, and lower contact laws as exact set "
                   "equalities at every step up to k = 3")


def test_criterion_10_oracle_equivalence():
    t0 = time.time()
    rng = random.Random(20260810)
    for _ in range(200):
        n = rng.randint(1, 12)
        p = rng.choice((0.2, 0.4, 0.6))
        edges = [(i, j) for i in range(n) for j in range(i + 1, n)
                 if rng.random() < p]
        from trifree.graphs import Graph
        g = Graph.from_edges(n, edges)
        res = chromatic_number(g)
        assert res.exact
        assert res.chi == chromatic_number_bruteforce(g)

    def rand_seg():
        o = rng.choice((HORIZONTAL, VERTICAL))
        a, b = sorted(rng.randint(0, 8) for _ in range(2))
        return Seg(o, rng.randint(0, 8), a, b)

    def rand_rect():
        x = sorted(rng.randint(0, 8) for _ in range(2))
        y = sorted(rng.randint(0, 8) for _ in range(2))
        return Rect(x[0], x[1], y[0], y[1])

    for _ in range(200):
        a, b = rand_seg(), rand_seg()
        assert (seg_intersect(a, b) is not None) == segs_intersect_grid(a, b)
        ra, rb = rand_rect(), rand_rect()
        want = rect_relation_grid(ra, rb)
        if want == "b_contains_a" and ra == rb:
            want = "a_contains_b"
        assert rect_relations(ra, rb).value == want
    elapsed = time.time() - t0
    assert elapsed < 300, f"took {elapsed:.1f}s"
    _report(10, t0, "solver matches brute force on 200 graphs (n <= 12); "
                    "predicates match the grid oracle on 200 integer instances")
