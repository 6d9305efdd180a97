"""Invariant suite over persisted families.

Re-checks, from the flat artifact alone, everything that does not need
the recursion's internal bookkeeping.  A family of either construction
is checked by ``independent.level_law``, the law every level is sealed
with as it is built: s_k copies and p_k probes, the probe conditions of
every stored probe (with the eps-probe extras and homothety in uniform
mode), pairwise disjoint probes, in an augmented family the diagonal
law, and triangle-freeness.  On top of it comes the base size of a bare
family.  An encoded family is checked by
``encoding.frame_law`` over the stored tree's nodes, which the loader
reads in preorder, after each stored frame is compared with the one its
node gives, and by the slot nesting of the tree and the bounds its k and
color budget obey in every ``encode`` run.  The deeper step-by-step
contact laws are enforced at construction time.

No check tests all pairs or all copies: each takes its candidates from
one y-sweep over bounding boxes, which the exact predicates then decide.
``level_law`` lifts the family, its diagonals and the rectangles it
queries onto one integer grid (``shapes.FamilyGrid``) and decides every
contact in one pass on it: the probe conditions read those contacts,
and the diagonal law and the triangle test one graph built from them.
An encoded family's frame law and triangle test read one intersection
graph.  All the stored probes are checked against one sweep, each with
the box around its rectangle and its root, so a root stored away from
its rectangle still meets every copy it could.
"""

from __future__ import annotations

from .encoding import frame_law
from .game import SEARCH_LIMIT
from .geometry import Rat
from .graphs import intersection_graph, is_triangle_free
from .independent import Level, level_law
from .serialize import LoadedFamily


def _verify_geometric(fam: LoadedFamily) -> list[str]:
    out: list[str] = []
    if not fam.augmented and fam.base_size != len(fam.copies):
        out.append(f"size: base size {fam.base_size}, expected {len(fam.copies)} in a bare family")
    cut = fam.base_size if fam.augmented else len(fam.copies)
    level = Level(fam.k, fam.copies[:cut], fam.probes, fam.epsilon)
    return out + level_law(level, fam.copies[cut:] if fam.augmented else None)


def _verify_encoded(fam: LoadedFamily) -> list[str]:
    out: list[str] = []
    nodes = fam.tree_nodes
    assert nodes is not None and fam.color_budget is not None
    # No tree fixes k (at budget 1, k=2 and k=3 give the same tree), but no
    # encode run writes k above the search cap or a branch longer than 2^k.
    if fam.k > SEARCH_LIMIT:
        out.append(f"encoded: k={fam.k} is above the search cap {SEARCH_LIMIT}")
    depth = max(len(node.ancestors) for node in nodes)
    if depth.bit_length() > fam.k:  # depth + 1 > 2^k
        out.append(f"encoded: a branch of {depth + 1} intervals is longer than 2^k")
    if fam.color_budget < 1:
        out.append(f"encoded: color budget {fam.color_budget} is below 1")
    if len(nodes) != len(fam.copies):
        out.append(f"encoded: {len(nodes)} tree nodes but {len(fam.copies)} frames")
        return out
    last_child_hi: dict[int, Rat] = {}
    for node, stored in zip(nodes, fam.copies):
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
    g = intersection_graph(fam.copies)
    out.extend(f"encoded: {msg}" for msg in frame_law(nodes, g))
    if not is_triangle_free(g):
        out.append("encoded: family is not triangle-free")
    return out


def verify_family(fam: LoadedFamily) -> list[str]:
    """All artifact-level invariants; an empty list means the family checks out."""
    if fam.mode == "encoded-frames":
        return _verify_encoded(fam)
    return _verify_geometric(fam)
