"""Encoding of the Presenter strategy tree into rectangular frames.

Every interval that can occur in some branch of the shortest forcing
strategy becomes one node of a tree (branches diverge where Painter's
canonical color choices lead to different continuations).  Each node I
receives a y-slot [c, d] strictly inside its parent's slot, siblings
strictly interleaved, and is drawn as the boundary of I x [c, d].

Two frames then intersect exactly when their intervals overlap and one
node is an ancestor of the other, so cliques of the frame family are
cliques of a single branch's overlap graph: the family stays
triangle-free while inheriting the game's forced color count.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional, Sequence

from .errors import fail_on
from .game import Interval, game_tree, overlaps
from .geometry import Rat, XYTransform
from .shapes import ShapeDef, TransformedCopy, catalog, copies_intersect, meeting_pairs


@dataclass
class TreeNode:
    interval: Interval
    children: list["TreeNode"] = field(default_factory=list)
    slot: Optional[tuple[Rat, Rat]] = None

    def child_for(self, iv: Interval) -> "TreeNode":
        for child in self.children:
            if child.interval == iv:
                return child
        child = TreeNode(iv)
        self.children.append(child)
        return child


@dataclass(frozen=True)
class StrategyTree:
    k: int
    color_budget: int
    root: TreeNode
    histories: tuple[tuple[int, ...], ...]  # one complete color sequence per leaf path

    def nodes(self) -> list[TreeNode]:
        out: list[TreeNode] = []
        stack = [self.root]
        while stack:
            node = stack.pop()
            out.append(node)
            stack.extend(reversed(node.children))
        return out


def expand_tree(k: int, color_budget: Optional[int] = None) -> StrategyTree:
    """The tree of the shortest k-strategy against canonical Painter colors
    within the budget (default k+1), read off ``game.game_tree``: histories
    that reach an interval become nodes, merged with their siblings by
    interval; a branch ends at game over or where no legal color remains."""
    budget = color_budget if color_budget is not None else k + 1
    walk = game_tree(k, budget)
    node_of: dict[tuple[int, ...], TreeNode] = {}
    for colors, pos in walk.items():
        if pos.interval is not None:
            node_of[colors] = (node_of[colors[:-1]].child_for(pos.interval)
                               if colors else TreeNode(pos.interval))
    root = node_of[()]

    def assign_slots(node: TreeNode, lo: Rat, hi: Rat) -> None:
        node.slot = (lo, hi)
        r = len(node.children)
        if r == 0:
            return
        step = (hi - lo) / (2 * r + 1)
        for i, child in enumerate(node.children, start=1):
            assign_slots(child, lo + (2 * i - 1) * step, lo + 2 * i * step)

    assign_slots(root, Fraction(0), Fraction(1))
    branches = tuple(colors for colors, pos in walk.items() if not pos.legal)
    return StrategyTree(k, budget, root, branches)


@dataclass(frozen=True)
class FrameNode:
    index: int
    parent: Optional[int]
    interval: Interval
    slot: tuple[Rat, Rat]
    ancestors: frozenset[int]

    @property
    def transform(self) -> XYTransform:
        """Carries the unit frame onto the node's interval times its slot."""
        (lo, hi), iv = self.slot, self.interval
        return XYTransform(iv.hi - iv.lo, hi - lo, iv.lo, lo)


@dataclass(frozen=True)
class FrameFamily:
    copies: tuple[TransformedCopy, ...]
    nodes: tuple[FrameNode, ...]

    def ancestors(self, i: int) -> frozenset[int]:
        return self.nodes[i].ancestors


def frame_nodes(root: TreeNode) -> tuple[FrameNode, ...]:
    """The tree's nodes in preorder, each with its set of ancestors."""
    nodes: list[FrameNode] = []

    def walk(node: TreeNode, parent: Optional[int]) -> None:
        assert node.slot is not None
        idx = len(nodes)
        ancestors = frozenset() if parent is None else nodes[parent].ancestors | {parent}
        nodes.append(FrameNode(idx, parent, node.interval, node.slot, ancestors))
        for child in node.children:
            walk(child, idx)

    walk(root, None)
    return tuple(nodes)


def frame_law(nodes: Sequence[FrameNode], copies: Sequence[TransformedCopy]) -> list[str]:
    """The intersection law, checked on every pair: frames meet iff their
    intervals overlap and the nodes lie on a common branch.  Empty list =
    it holds.  Only the pairs expected to meet and the pairs whose boxes
    meet (``shapes.meeting_pairs``) are tested; any other pair is expected
    disjoint and is."""
    expected_meet = {(a, node.index) for node in nodes for a in node.ancestors
                     if overlaps(nodes[a].interval, node.interval)}
    out: list[str] = []
    for i, j in sorted(expected_meet.union(meeting_pairs([c.bbox for c in copies]))):
        expected = (i, j) in expected_meet
        if copies_intersect(copies[i], copies[j]) != expected:
            out.append(f"intersection law fails at nodes {i}, {j}: "
                       f"expected {'meet' if expected else 'disjoint'}")
    return out


def encode(tree: StrategyTree, shape: Optional[ShapeDef] = None) -> FrameFamily:
    """One rectangular frame per tree node, with the intersection law
    verified exhaustively."""
    frame_shape = shape if shape is not None else catalog()["frame"]
    nodes = frame_nodes(tree.root)
    copies = tuple(TransformedCopy(frame_shape.name, frame_shape.shape, n.transform,
                                   f"frame(node{n.index})") for n in nodes)
    fail_on(frame_law(nodes, copies))
    return FrameFamily(copies, nodes)
