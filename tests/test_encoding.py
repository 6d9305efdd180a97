import itertools

import pytest

from trifree.encoding import encode, expand_tree
from trifree.game import SEARCH_LIMIT, GameTranscript, overlaps
from trifree.graphs import intersection_graph, is_triangle_free
from trifree.shapes import copies_intersect

from _oracles import certify, neighbor_colors, replay


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
    tree = expand_tree(2)
    for colors in tree.histories:
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
        fam = encode(expand_tree(k))
        for i, j in itertools.combinations(range(len(fam.nodes)), 2):
            same_branch = j in fam.nodes[i].ancestors or i in fam.nodes[j].ancestors
            expected = same_branch and overlaps(fam.nodes[i].interval,
                                                fam.nodes[j].interval)
            assert copies_intersect(fam.copies[i], fam.copies[j]) == expected


def test_nested_same_branch_frames_do_not_meet():
    fam = encode(expand_tree(2))
    found = False
    for i in range(len(fam.nodes)):
        for j in fam.nodes[i].ancestors:
            a, b = fam.nodes[i].interval, fam.nodes[j].interval
            if not overlaps(a, b):
                found = True
                assert not copies_intersect(fam.copies[i], fam.copies[j])
    assert found


def test_overlapping_same_branch_frames_cross():
    fam = encode(expand_tree(2))
    found = False
    for i in range(len(fam.nodes)):
        for j in fam.nodes[i].ancestors:
            if overlaps(fam.nodes[i].interval, fam.nodes[j].interval):
                found = True
                assert copies_intersect(fam.copies[i], fam.copies[j])
    assert found


def test_divergent_branches_stay_disjoint_even_when_intervals_overlap():
    fam = encode(expand_tree(3))
    checked = 0
    for i, j in itertools.combinations(range(len(fam.nodes)), 2):
        same_branch = j in fam.nodes[i].ancestors or i in fam.nodes[j].ancestors
        if not same_branch and overlaps(fam.nodes[i].interval, fam.nodes[j].interval):
            checked += 1
            assert not copies_intersect(fam.copies[i], fam.copies[j])
    assert checked > 0


def test_certify_small_ks():
    rep1 = certify(encode(expand_tree(1)), 1)
    assert rep1.triangle_free and rep1.chi.chi == 2 and rep1.ok
    rep2 = certify(encode(expand_tree(2)), 2)
    assert rep2.triangle_free and rep2.chi.chi == 3 and rep2.ok
    rep3 = certify(encode(expand_tree(3)), 3)
    assert rep3.triangle_free and rep3.chi.exact and rep3.chi.chi >= 4


def test_clique_transfer():
    # every edge of the frame family joins two nodes of a common branch
    fam = encode(expand_tree(3))
    g = intersection_graph(fam.copies)
    assert is_triangle_free(g)
    for u, v in g.edges():
        assert u in fam.nodes[v].ancestors or v in fam.nodes[u].ancestors


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
