import random

import pytest

from trifree.graphs import (
    Graph,
    chromatic_number,
    clique_number,
    dsatur_order_coloring,
    greedy_coloring,
    intersection_graph,
    is_triangle_free,
    max_clique,
    parse_dimacs,
    to_dimacs,
    verify_coloring,
)

from _oracles import chromatic_number_bruteforce, intersection_graph_bruteforce, proper_colorings


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
        return TransformedCopy("frame", frame.shape, t, "t")

    g = intersection_graph([copy_at(0), copy_at(5)])
    assert g.n == 2 and g.m == 0


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
    yield "encoded k=3", encode(expand_tree(3)).copies


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
