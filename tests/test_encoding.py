import itertools
from fractions import Fraction

import pytest

from trifree.encoding import encode, expand_tree
from trifree.errors import ConstructionError
from trifree.game import SEARCH_LIMIT, GameTranscript, game_tree, overlaps
from trifree.graphs import intersection_graph, is_triangle_free
from trifree.shapes import copies_intersect

from _oracles import certify, neighbor_colors, replace, replay


def _enumerate_branch_count(k: int, budget: int) -> int:
    """Oracle: count distinct interval-sequence prefixes by direct
    enumeration of canonical color sequences."""
    prefixes: set[tuple] = set()

    def explore(colors: tuple, path: tuple) -> None:
        transcript, iv = replay(k, colors)
        if iv is None:
            return
        path = path + ((iv.lo, iv.hi),)
        prefixes.add(path)
        forbidden = neighbor_colors(transcript, iv)
        top = min(max(colors, default=0) + 1, budget)
        for c in range(1, top + 1):
            if c not in forbidden:
                explore(colors + (c,), path)

    explore((), ())
    return len(prefixes)


def test_tree_for_k1_is_one_branch_of_two_nodes():
    tree = expand_tree(1)
    nodes = tree.nodes()
    assert len(nodes) == 2
    assert len(tree.root.children) == 1
    assert not tree.root.children[0].children


def test_tree_node_count_matches_enumeration_oracle():
    for k in (1, 2, 3):
        tree = expand_tree(k)
        assert len(tree.nodes()) == _enumerate_branch_count(k, k + 1)


def test_every_branch_is_a_legal_transcript():
    # the terminal histories of expand_tree(2)'s walk: no legal color remains
    branches = [colors for colors, pos in game_tree(2, 3).items() if not pos.legal]
    assert branches
    for colors in branches:
        replayed = GameTranscript()
        session_colors = []
        for c in colors:
            _, iv = replay(2, tuple(session_colors))
            assert iv is not None
            replayed.add(iv, c)  # raises on any illegal move
            session_colors.append(c)


def test_slots_interleave_strictly():
    tree = expand_tree(3)

    def walk(node):
        lo, hi = node.slot
        assert lo < hi
        last = lo
        for child in node.children:
            clo, chi = child.slot
            assert last < clo < chi < hi
            last = chi
            walk(child)

    walk(tree.root)


def test_intersection_law_exhaustive():
    for k in (1, 2, 3):
        tree = expand_tree(k)
        nodes, copies = tree.nodes(), encode(tree)
        for i, j in itertools.combinations(range(len(nodes)), 2):
            same_branch = j in nodes[i].ancestors or i in nodes[j].ancestors
            expected = same_branch and overlaps(nodes[i].interval, nodes[j].interval)
            assert copies_intersect(copies[i], copies[j]) == expected


def test_nested_same_branch_frames_do_not_meet():
    tree = expand_tree(2)
    nodes, copies = tree.nodes(), encode(tree)
    found = False
    for i in range(len(nodes)):
        for j in nodes[i].ancestors:
            a, b = nodes[i].interval, nodes[j].interval
            if not overlaps(a, b):
                found = True
                assert not copies_intersect(copies[i], copies[j])
    assert found


def test_overlapping_same_branch_frames_cross():
    tree = expand_tree(2)
    nodes, copies = tree.nodes(), encode(tree)
    found = False
    for i in range(len(nodes)):
        for j in nodes[i].ancestors:
            if overlaps(nodes[i].interval, nodes[j].interval):
                found = True
                assert copies_intersect(copies[i], copies[j])
    assert found


def test_divergent_branches_stay_disjoint_even_when_intervals_overlap():
    tree = expand_tree(3)
    nodes, copies = tree.nodes(), encode(tree)
    checked = 0
    for i, j in itertools.combinations(range(len(nodes)), 2):
        same_branch = j in nodes[i].ancestors or i in nodes[j].ancestors
        if not same_branch and overlaps(nodes[i].interval, nodes[j].interval):
            checked += 1
            assert not copies_intersect(copies[i], copies[j])
    assert checked > 0


def test_encode_rechecks_the_whole_encoded_law():
    tree = expand_tree(2)
    with pytest.raises(ConstructionError) as exc:
        encode(replace(tree, color_budget=0))
    assert str(exc.value) == "encoded: color budget 0 is below 1"
    # node 4, a leaf, and its sibling node 2 are the children of node 1;
    # node 4's slot, moved below node 2's, still keeps its frame on the
    # intersection law
    nodes = tree.nodes()
    assert [c.index for c in nodes[1].children] == [2, 4] and not nodes[4].children
    assert (nodes[1].slot[0], nodes[2].slot[0]) == (Fraction(15, 45), Fraction(18, 45))
    moved = nodes[:4] + (replace(nodes[4], slot=(Fraction(16, 45), Fraction(17, 45))),)
    with pytest.raises(ConstructionError) as exc:
        encode(replace(tree, _nodes=moved))
    assert str(exc.value) == "encoded: child slots of node 1 fail to interleave"


def test_certify_small_ks():
    rep1 = certify(encode(expand_tree(1)), 1)
    assert rep1.triangle_free and rep1.chi.chi == 2 and rep1.ok
    rep2 = certify(encode(expand_tree(2)), 2)
    assert rep2.triangle_free and rep2.chi.chi == 3 and rep2.ok
    rep3 = certify(encode(expand_tree(3)), 3)
    assert rep3.triangle_free and rep3.chi.exact and rep3.chi.chi >= 4


def test_clique_transfer():
    # every edge of the frame family joins two nodes of a common branch
    tree = expand_tree(3)
    nodes = tree.nodes()
    g = intersection_graph(encode(tree))
    assert is_triangle_free(g)
    for u, v in g.edges():
        assert u in nodes[v].ancestors or v in nodes[u].ancestors


def test_encoding_matches_recursive_frame_construction():
    # the recursive frame construction and the strategy encoding certify
    # the same chromatic lower bound at each k
    from trifree.graphs import chromatic_number
    from trifree.independent import augment, build
    from trifree.shapes import catalog

    frame = catalog()["frame"]
    for k in (1, 2, 3):
        direct = chromatic_number(intersection_graph(augment(build(k, frame), frame)))
        encoded = certify(encode(expand_tree(k)), k)
        assert direct.exact and encoded.chi.exact
        assert direct.chi == encoded.chi.chi == k + 1


def test_expand_tree_rejects_large_k_by_default():
    with pytest.raises(ValueError):
        expand_tree(SEARCH_LIMIT + 1)
