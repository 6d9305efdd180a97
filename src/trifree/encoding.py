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
from itertools import combinations
from typing import Optional, Sequence

from .errors import ConstructionError, fail_on
from .game import Interval, _replay, overlaps
from .geometry import Rat, XYTransform
from .graphs import ChromaticResult, chromatic_number, intersection_graph, is_triangle_free
from .shapes import ShapeDef, TransformedCopy, catalog, copies_intersect

DEFAULT_TREE_LIMIT = 3


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


def expand_tree(k: int, color_budget: Optional[int] = None, *,
                limit: int = DEFAULT_TREE_LIMIT) -> StrategyTree:
    """The complete tree of the shortest k-strategy over canonical Painter
    responses within the color budget (default k+1).

    Canonical responses try colors 1..min(max_used+1, budget); a branch
    where no legal color remains ends at the presented interval.  Every
    explored history is replayed through full game-rule validation.
    """
    if k > limit:
        raise ValueError(f"tree expansion capped at k <= {limit}; raise limit explicitly")
    budget = color_budget if color_budget is not None else k + 1
    sequences: list[tuple[tuple[Interval, ...], tuple[int, ...]]] = []

    def explore(colors: tuple[int, ...], path: tuple[Interval, ...]) -> None:
        transcript, iv = _replay(k, colors, Interval(0, 1))
        if iv is None:
            sequences.append((path, colors))
            return
        path = path + (iv,)
        forbidden = transcript.neighbor_colors(iv)
        top = min(max(colors, default=0) + 1, budget)
        legal = [c for c in range(1, top + 1) if c not in forbidden]
        if not legal:
            sequences.append((path, colors))
            return
        for c in legal:
            explore(colors + (c,), path)

    explore((), ())
    first = sequences[0][0][0]
    root = TreeNode(first)
    for path, _ in sequences:
        if path[0] != first:
            raise ConstructionError("strategy produced diverging first intervals")
        node = root
        for iv in path[1:]:
            node = node.child_for(iv)

    def assign_slots(node: TreeNode, lo: Rat, hi: Rat) -> None:
        node.slot = (lo, hi)
        r = len(node.children)
        if r == 0:
            return
        step = (hi - lo) / (2 * r + 1)
        for i, child in enumerate(node.children, start=1):
            assign_slots(child, lo + (2 * i - 1) * step, lo + 2 * i * step)

    assign_slots(root, Fraction(0), Fraction(1))
    return StrategyTree(k, budget, root, tuple(colors for _, colors in sequences))


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
    it holds."""
    out: list[str] = []
    for (i, a), (j, b) in combinations(enumerate(nodes), 2):
        same_branch = i in b.ancestors or j in a.ancestors
        expected = same_branch and overlaps(a.interval, b.interval)
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


@dataclass(frozen=True)
class CertifyReport:
    k: int
    n: int
    triangle_free: bool
    chi: ChromaticResult

    @property
    def ok(self) -> bool:
        bound = self.chi.upper if self.chi.exact else self.chi.lower
        return self.triangle_free and bound >= self.k + 1


def certify(family: FrameFamily, k: int,
            timeout: Optional[float] = None) -> CertifyReport:
    """Triangle-freeness and the exact chromatic number of the encoded family."""
    g = intersection_graph(family.copies)
    return CertifyReport(k, g.n, is_triangle_free(g), chromatic_number(g, timeout))
