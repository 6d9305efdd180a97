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
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from fractions import Fraction
from typing import Any, Callable, Optional, Sequence

from .errors import fail_on
from .game import Interval, game_tree, overlaps
from .geometry import Rat, XYTransform
from .graphs import Graph, intersection_graph
from .shapes import TransformedCopy, catalog


@dataclass(frozen=True)
class TreeNode:
    index: int  # in preorder
    parent: Optional[int]
    interval: Interval
    slot: tuple[Rat, Rat]
    ancestors: frozenset[int]
    children: tuple["TreeNode", ...]

    @property
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
    histories: tuple[tuple[int, ...], ...]  # one complete color sequence per leaf path

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

    branches = tuple(colors for colors, pos in walk.items() if not pos.legal)
    return StrategyTree(k, budget, _preorder(((), Fraction(0), Fraction(1)), read), branches)


@dataclass(frozen=True)
class FrameFamily:
    copies: tuple[TransformedCopy, ...]
    nodes: tuple[TreeNode, ...]


def frame_law(nodes: Sequence[TreeNode], g: Graph) -> list[str]:
    """The intersection law, checked on every pair: frames meet iff their
    intervals overlap and the nodes lie on a common branch.  Empty list =
    it holds.  The pairs that break it are the symmetric difference of the
    pairs expected to meet and the edges of the frames' intersection graph
    ``g``, one message each in sorted order."""
    expected_meet = {(a, node.index) for node in nodes for a in node.ancestors
                     if overlaps(nodes[a].interval, node.interval)}
    broken = expected_meet.symmetric_difference(g.edges())
    return [f"intersection law fails at nodes {i}, {j}: "
            f"expected {'meet' if (i, j) in expected_meet else 'disjoint'}"
            for i, j in sorted(broken)]


def encode(tree: StrategyTree) -> FrameFamily:
    """One rectangular frame per tree node, with the intersection law
    verified exhaustively."""
    frame = catalog()["frame"]
    nodes = tree.nodes()
    copies = tuple(TransformedCopy(frame.name, frame.shape, n.transform,
                                   f"frame(node{n.index})") for n in nodes)
    fail_on(frame_law(nodes, intersection_graph(copies)))
    return FrameFamily(copies, nodes)
