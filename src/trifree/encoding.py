"""Encoding of the Presenter strategy tree into rectangular frames.

Every interval that can occur in some branch of the shortest forcing
strategy becomes one node of a tree (branches diverge where Painter's
canonical color choices lead to different continuations): a frozen
``TreeNode``, built once in preorder by ``expand_tree`` or the loader.
Each node I gets a y-slot [c, d] strictly inside its parent's slot,
siblings strictly interleaved, and is drawn as the boundary of I x [c, d].

Two frames then intersect exactly when their intervals overlap and one
node is an ancestor of the other, so cliques of the frame family are
cliques of a single branch's overlap graph: the family stays
triangle-free while inheriting the game's forced color count.

``encoded_law`` states everything an encoded family claims: the bounds
on its k and color budget, one frame per node, nested and interleaved
slots, the intersection law and triangle-freeness.  ``encode`` ends with
it and ``verify`` runs it on a loaded file, as ``independent.level_law``
serves both the seal of a level and ``verify``.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Any, Callable, Optional, Sequence

from .errors import fail_on
from .game import SEARCH_LIMIT, Interval, game_tree, overlaps
from .geometry import Rat, XYTransform
from .graphs import intersection_graph, is_triangle_free
from .shapes import TransformedCopy, catalog


@dataclass(frozen=True)
class TreeNode:
    index: int  # in preorder
    parent: Optional[int]
    interval: Interval
    slot: tuple[Rat, Rat]
    ancestors: frozenset[int]
    children: tuple["TreeNode", ...]

    @cached_property  # encode places the frame with it, and encoded_law compares it
    def transform(self) -> XYTransform:
        """Carries the unit frame onto the node's interval times its slot."""
        (lo, hi), iv = self.slot, self.interval
        return XYTransform(iv.hi - iv.lo, hi - lo, iv.lo, lo)


def _preorder(root: Any, read: Callable[[Any], tuple]) -> tuple[TreeNode, ...]:
    """Nodes in preorder from ``root``; ``read(item)`` gives interval, slot, child items."""
    nodes: list = []

    def grow(item: Any, parent: Optional[int], ancestors: frozenset[int]) -> TreeNode:
        interval, slot, kids = read(item)
        index = len(nodes)
        nodes.append(None)  # the index is taken before the children's
        children = []
        for kid in kids:  # a loop, not a comprehension: one stack frame per level
            children.append(grow(kid, index, ancestors | {index}))
        nodes[index] = TreeNode(index, parent, interval, slot, ancestors, tuple(children))
        return nodes[index]

    grow(root, None, frozenset())
    return tuple(nodes)


@dataclass(frozen=True)
class StrategyTree:
    k: int
    color_budget: int
    _nodes: tuple[TreeNode, ...]  # preorder

    @property
    def root(self) -> TreeNode:
        return self._nodes[0]

    def nodes(self) -> tuple[TreeNode, ...]:
        return self._nodes


def expand_tree(k: int, color_budget: Optional[int] = None) -> StrategyTree:
    """The tree of the shortest k-strategy against canonical Painter colors
    within the budget (default k+1), read off ``game.game_tree``: histories
    that reach an interval become nodes, merged with their siblings by
    interval; a branch ends at game over or where no legal color remains."""
    budget = color_budget if color_budget is not None else k + 1
    walk = game_tree(k, budget)
    # a node is named by the first history that reaches it
    node_of: dict[tuple[int, ...], tuple[int, ...]] = {}
    kids: defaultdict[tuple[int, ...], list[tuple[int, ...]]] = defaultdict(list)
    for colors, pos in walk.items():
        if pos.interval is not None:
            siblings = kids[node_of[colors[:-1]]] if colors else []
            node_of[colors] = next((s for s in siblings if walk[s].interval == pos.interval),
                                   colors)
            if node_of[colors] == colors:
                siblings.append(colors)

    def read(item: tuple[tuple[int, ...], Rat, Rat]) -> tuple:
        node, lo, hi = item
        step = (hi - lo) / (2 * len(kids[node]) + 1)
        return walk[node].interval, (lo, hi), [
            (kid, lo + (2 * i - 1) * step, lo + 2 * i * step)
            for i, kid in enumerate(kids[node], start=1)]

    return StrategyTree(k, budget, _preorder(((), Fraction(0), Fraction(1)), read))


def encoded_law(k: int, color_budget: int, nodes: Sequence[TreeNode],
                copies: Sequence[TransformedCopy]) -> list[str]:
    """Everything an encoded family claims, one ``encoded:`` message per
    broken claim; an empty list means it holds.  ``nodes`` are the tree's
    in preorder and ``copies`` their frames, in the same order.  The
    intersection law is checked on every pair: frames meet iff their
    intervals overlap and the nodes lie on a common branch.  The pairs
    that break it are the symmetric difference of the pairs expected to
    meet and the edges of the frames' intersection graph, one message
    each in sorted order; the triangle test reads that same graph."""
    out: list[str] = []
    # No tree fixes k (at budget 1, k=2 and k=3 give the same tree), but no
    # encode run writes k above the search cap or a branch longer than 2^k.
    if k > SEARCH_LIMIT:
        out.append(f"encoded: k={k} is above the search cap {SEARCH_LIMIT}")
    depth = max(len(node.ancestors) for node in nodes)
    if depth.bit_length() > k:  # depth + 1 > 2^k
        out.append(f"encoded: a branch of {depth + 1} intervals is longer than 2^k")
    if color_budget < 1:
        out.append(f"encoded: color budget {color_budget} is below 1")
    if len(nodes) != len(copies):
        out.append(f"encoded: {len(nodes)} tree nodes but {len(copies)} frames")
        return out
    last_child_hi: dict[int, Rat] = {}
    for node, stored in zip(nodes, copies):
        if node.transform != stored.transform:
            out.append(f"encoded: frame {node.index} does not match its tree node")
        if node.parent is None:
            continue
        (plo, phi), (lo, hi) = nodes[node.parent].slot, node.slot
        if not (plo < lo and hi < phi):
            out.append(f"encoded: slot of node {node.index} leaves its parent's slot")
        if not last_child_hi.get(node.parent, plo) < lo:
            out.append(f"encoded: child slots of node {node.parent} fail to interleave")
        last_child_hi[node.parent] = hi
    g = intersection_graph(copies)
    expected_meet = {(a, node.index) for node in nodes for a in node.ancestors
                     if overlaps(nodes[a].interval, node.interval)}
    broken = expected_meet.symmetric_difference(g.edges())
    out.extend(f"encoded: intersection law fails at nodes {i}, {j}: "
               f"expected {'meet' if (i, j) in expected_meet else 'disjoint'}"
               for i, j in sorted(broken))
    if not is_triangle_free(g):
        out.append("encoded: family is not triangle-free")
    return out


def encode(tree: StrategyTree) -> tuple[TransformedCopy, ...]:
    """One rectangular frame per tree node, in preorder, with every claim
    of ``encoded_law`` re-checked."""
    frame = catalog()["frame"]
    nodes = tree.nodes()
    copies = tuple(TransformedCopy(frame.name, frame.shape, n.transform,
                                   f"frame(node{n.index})") for n in nodes)
    fail_on(encoded_law(tree.k, tree.color_budget, nodes, copies))
    return copies
