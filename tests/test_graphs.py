import random
import sys

import pytest

from trifree.graphs import (
    Graph,
    chromatic_number,
    dsatur_order_coloring,
    intersection_graph,
    is_triangle_free,
    max_clique,
    to_dimacs,
    verify_coloring,
)

from _oracles import (
    chromatic_number_bruteforce,
    chromatic_number_ref,
    clique_number,
    dsatur_order_coloring_ref,
    greedy_coloring,
    intersection_graph_bruteforce,
    is_triangle_free_bruteforce,
    max_clique_recursive_ref,
    max_clique_ref,
    parse_dimacs,
    proper_colorings,
)


def cycle(n: int) -> Graph:
    return Graph.from_edges(n, [(i, (i + 1) % n) for i in range(n)])


def complete(n: int) -> Graph:
    return Graph.from_edges(n, [(i, j) for i in range(n) for j in range(i + 1, n)])


def random_graph(rng: random.Random, n: int, p: float) -> Graph:
    edges = [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < p]
    return Graph.from_edges(n, edges)


def test_c5_is_triangle_free_with_omega_two_chi_three():
    g = cycle(5)
    assert is_triangle_free(g)
    assert clique_number(g) == 2
    res = chromatic_number(g)
    assert res.exact and res.chi == 3


def test_k3_has_omega_three_chi_three():
    g = complete(3)
    assert not is_triangle_free(g)
    assert clique_number(g) == 3
    res = chromatic_number(g)
    assert res.exact and res.chi == 3
    assert len(res.clique) == 3


def test_empty_and_edgeless_graphs():
    res = chromatic_number(Graph.from_edges(0, []))
    assert res.exact and res.chi == 0
    g = Graph.from_edges(4, [])
    assert clique_number(g) == 1
    assert greedy_coloring(g) == [1, 1, 1, 1]


def test_greedy_on_complete_graph_uses_n_colors():
    g = complete(5)
    colors = greedy_coloring(g)
    assert sorted(colors) == [1, 2, 3, 4, 5]
    assert verify_coloring(g, colors)


def test_greedy_output_always_proper():
    rng = random.Random(2)
    for _ in range(30):
        g = random_graph(rng, rng.randint(1, 10), 0.4)
        assert verify_coloring(g, greedy_coloring(g))
        assert verify_coloring(g, dsatur_order_coloring(g))


def test_solver_matches_bruteforce_oracle():
    rng = random.Random(20240811)
    for _ in range(60):
        n = rng.randint(1, 11)
        g = random_graph(rng, n, rng.choice((0.2, 0.4, 0.6)))
        res = chromatic_number(g)
        assert res.exact
        assert res.chi == chromatic_number_bruteforce(g)
        assert verify_coloring(g, res.coloring)
        assert max(res.coloring, default=0) == res.chi


def test_solver_lower_bound_certificate_is_real():
    rng = random.Random(5)
    for _ in range(20):
        g = random_graph(rng, 10, 0.5)
        res = chromatic_number(g)
        clique = max_clique(g)
        for a in range(len(clique)):
            for b in range(a + 1, len(clique)):
                assert clique[b] in g.adj[clique[a]]
        assert res.chi >= len(clique)


def test_solver_is_deterministic():
    rng = random.Random(9)
    g = random_graph(rng, 12, 0.5)
    a = chromatic_number(g)
    b = chromatic_number(g)
    assert a == b


def test_solver_timeout_yields_interval():
    # an adversarial budget of zero seconds must still return honest bounds
    rng = random.Random(13)
    g = random_graph(rng, 40, 0.5)
    res = chromatic_number(g, timeout=0.0)
    assert res.lower <= res.upper
    assert verify_coloring(g, res.coloring)
    if not res.exact:
        assert res.chi is None
        assert "interval" in res.certificate()


def _seeded_graphs(seed: int, count: int):
    rng = random.Random(seed)
    for _ in range(count):
        yield random_graph(rng, rng.randint(0, 26), rng.choice((0.1, 0.25, 0.4, 0.6, 0.85)))


def test_solver_matches_reference_bodies_on_random_graphs():
    searched = 0
    for g in _seeded_graphs(20261018, 400):
        res = chromatic_number(g)
        assert res == chromatic_number_ref(g)
        searched += res.coloring != tuple(dsatur_order_coloring(g))
    # the search, not only its DSATUR start, decided some of the witnesses
    assert searched >= 10


def test_selection_layers_match_references_on_random_graphs():
    for g in _seeded_graphs(77, 400):
        assert max_clique(g) == max_clique_ref(g) == max_clique_recursive_ref(g)
        assert dsatur_order_coloring(g) == dsatur_order_coloring_ref(g)


def test_solver_matches_reference_bodies_on_families():
    from trifree.independent import augment, build
    from trifree.shapes import catalog

    for name in ("frame", "lshape", "cross"):
        shape = catalog()[name]
        g = intersection_graph(build(4, shape).family)
        assert chromatic_number(g) == chromatic_number_ref(g), f"bare {name} k=4"
        assert max_clique(g) == max_clique_ref(g) == max_clique_recursive_ref(g), \
            f"bare {name} k=4"
        assert dsatur_order_coloring(g) == dsatur_order_coloring_ref(g), f"bare {name} k=4"
        for k in (1, 2, 3):
            g = intersection_graph(augment(build(k, shape), shape))
            assert chromatic_number(g) == chromatic_number_ref(g), f"augmented {name} k={k}"


def test_solver_timeout_stops_at_the_first_deadline_check(frame):
    from trifree.independent import augment, build

    # the augmented k=4 search needs far more than the 256 nodes between two
    # deadline checks, so a zero budget always stops it at the 256th node
    g = intersection_graph(augment(build(4, frame), frame))
    res = chromatic_number(g, timeout=0)
    assert not res.exact and res.chi is None
    assert res.lower == len(res.clique) == len(max_clique(g))
    assert res.upper == max(res.coloring)
    assert verify_coloring(g, res.coloring)
    assert res == chromatic_number_ref(g, timeout=0)


def test_solver_searches_deeper_than_the_recursion_limit():
    # a 3,000-vertex path that ends in a 5-cycle: the search that proves no
    # 2-coloring exists colors the path one vertex per level
    n = 3000
    g = Graph.from_edges(n, [(i, i + 1) for i in range(n - 1)] + [(n - 5, n - 1)])
    res = chromatic_number(g)
    assert res.exact and res.chi == 3
    assert verify_coloring(g, res.coloring)


def test_solver_finds_a_clique_deeper_than_the_recursion_limit():
    # the clique search goes one level deeper per clique vertex
    n = 1100
    assert n > sys.getrecursionlimit()
    res = chromatic_number(complete(n))
    assert res.exact and res.chi == n
    assert res.clique == tuple(range(n))
    assert res.certificate().startswith("clique [0, 1, 2")


def test_triangle_test_matches_all_triples():
    rng = random.Random(31)
    seen = set()
    for _ in range(300):
        g = random_graph(rng, rng.randint(0, 14), rng.choice((0.1, 0.2, 0.35, 0.6)))
        want = is_triangle_free_bruteforce(g)
        assert is_triangle_free(g) == want
        seen.add(want)
    assert seen == {True, False}


def test_proper_colorings_enumeration_count():
    # a path on 3 vertices has 2*1*2... with 2 colors: 2 proper colorings
    g = Graph.from_edges(3, [(0, 1), (1, 2)])
    assert sum(1 for _ in proper_colorings(g, 2)) == 2
    assert all(verify_coloring(g, c) for c in proper_colorings(g, 3))


def test_intersection_graph_of_disjoint_copies_is_empty(frame):
    from trifree.geometry import Rect, XYTransform
    from trifree.shapes import TransformedCopy

    def copy_at(x0):
        t = XYTransform.rect_map(frame.features.bbox, Rect(x0, x0 + 1, 0, 1))
        return TransformedCopy("frame", frame.shape, *t.axis_maps(), "t")

    g = intersection_graph([copy_at(0), copy_at(5)])
    assert g.n == 2 and g.m == 0


def test_triangle_free_graphs_never_run_the_clique_search(monkeypatch):
    """On a triangle-free graph the clique bound is its least edge, or
    vertex 0 if it has none; ``max_clique`` runs only on a graph with a
    triangle, and the result is what the clique search gave."""
    from trifree import graphs
    from trifree.independent import build
    from trifree.shapes import catalog

    rng = random.Random(20261020)
    cases = [cycle(5), cycle(8), Graph.from_edges(4, []), Graph.from_edges(6, [(4, 5), (2, 5)])]
    cases += [g for g in (random_graph(rng, rng.randint(1, 14), 0.2) for _ in range(60))
              if is_triangle_free_bruteforce(g)]
    cases += [intersection_graph(build(3, catalog()[name]).family)
              for name in ("frame", "lshape", "cross")]
    cliques = [max_clique(g) for g in cases]

    def refused(g):
        raise AssertionError("max_clique ran on a triangle-free graph")

    monkeypatch.setattr(graphs, "max_clique", refused)
    for g, clique in zip(cases, cliques):
        res = chromatic_number(g)
        assert res.clique == min(g.edges(), default=(0,))
        assert len(res.clique) == len(clique)
        assert res.exact and res.chi == chromatic_number_bruteforce(g)
        assert verify_coloring(g, res.coloring)
    assert chromatic_number(Graph.from_edges(0, [])).clique == ()
    with pytest.raises(AssertionError, match="max_clique ran"):
        chromatic_number(complete(3))


def _families():
    from fractions import Fraction

    from trifree.encoding import encode, expand_tree
    from trifree.independent import augment, build
    from trifree.shapes import catalog
    from trifree.uniform import augment_uniform, build_uniform

    for name in ("frame", "lshape", "cross"):
        shape = catalog()[name]
        for k in (1, 2, 3):
            yield f"independent {name} k={k}", augment(build(k, shape), shape)
    frame = catalog()["frame"]
    for eps in (Fraction(1, 2), Fraction(1, 7)):
        for k in (2, 3):
            yield f"uniform eps={eps} k={k}", augment_uniform(build_uniform(k, eps, frame), frame)
    yield "encoded k=3", encode(expand_tree(3))


def test_intersection_graph_matches_all_pairs_oracle():
    for label, copies in _families():
        g, want = intersection_graph(copies), intersection_graph_bruteforce(copies)
        assert g == want, label


def test_dimacs_round_trip():
    g = cycle(5)
    text = to_dimacs(g, comment="five cycle")
    assert text.startswith("c five cycle\np edge 5 5\n")
    back = parse_dimacs(text)
    assert back.n == g.n and sorted(back.edges()) == sorted(g.edges())


def test_dimacs_rejects_garbage():
    with pytest.raises(ValueError):
        parse_dimacs("p edge nonsense\n")
    with pytest.raises(ValueError):
        parse_dimacs("e 1 2\n")
