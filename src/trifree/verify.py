"""Invariant suite over persisted families.

Re-checks, from the flat artifact alone, everything that does not need
the recursion's internal bookkeeping, with the same checks the
constructions run on themselves: ``independent.probe_conditions`` on
every stored probe (with the eps-probe extras in uniform mode),
``independent.probe_overlaps``, ``independent.diagonal_law`` in
augmented families, and ``encoding.frame_law`` over the stored tree's
nodes, which the loader reads in preorder, after each stored frame is
compared with the one its node gives.  On top of those come the
size recurrences, triangle-freeness, homothety in uniform mode, and the
slot nesting of an encoded tree and the bounds its k and color budget
obey in every ``encode`` run.  The deeper step-by-step contact laws
are enforced at construction time.

No check tests all pairs or all copies: each takes its candidates from
one y-sweep over bounding boxes, which the exact predicates then decide.
The probe conditions, the diagonal law and the intersection graph each
lift the family, with the rectangles they query, onto one integer grid
(``shapes.FamilyGrid``) once, and sweep and decide on it; an encoded
family's frame law and triangle test read one intersection graph.  All
the stored probes are checked against one sweep, each with the box
around its rectangle and its root, so a root stored away from its
rectangle still meets every copy it could.
"""

from __future__ import annotations

from .encoding import frame_law
from .game import SEARCH_LIMIT
from .geometry import Rat
from .graphs import intersection_graph, is_triangle_free
from .independent import (
    diagonal_law,
    max_level,
    probe_conditions,
    probe_overlaps,
    size_formulas,
)
from .serialize import LoadedFamily
from .shapes import family_bbox


def _check_sizes(fam: LoadedFamily, out: list[str]) -> None:
    # A level k family holds s_k copies at least.  Checking that first keeps
    # a huge claimed k from growing the recurrence's integers.
    if fam.k > max_level(len(fam.copies)):
        out.append(f"size: k={fam.k} needs more than the {len(fam.copies)} copies stored")
        return
    s_k, p_k = size_formulas(fam.k)
    expected = s_k + p_k if fam.augmented else s_k
    if len(fam.copies) != expected:
        out.append(f"size: {len(fam.copies)} copies, expected {expected}")
    if fam.base_size != s_k:
        out.append(f"size: base size {fam.base_size}, expected s_{fam.k} = {s_k}")
    if len(fam.probes) != p_k:
        out.append(f"size: {len(fam.probes)} probes, expected p_{fam.k} = {p_k}")


def _verify_geometric(fam: LoadedFamily) -> list[str]:
    out: list[str] = []
    _check_sizes(fam, out)
    base = fam.copies[:fam.base_size] if fam.augmented else fam.copies
    bbox = family_bbox(base)

    if fam.mode == "uniform":
        for c in fam.copies:
            if not c.transform.is_uniform:
                out.append(f"uniform: copy with lineage {c.lineage!r} is not a homothet")
    for i, bad in enumerate(probe_conditions(fam.probes, base, bbox, fam.epsilon)):
        out.extend(f"probe {i}: {msg}" for msg in bad)
    out.extend(probe_overlaps(fam.probes))

    if fam.augmented:
        diagonals = fam.copies[fam.base_size:]
        out.extend(f"augmented: {msg}" for msg in diagonal_law(base, diagonals, fam.probes))
    g = intersection_graph(fam.copies)
    if not is_triangle_free(g):
        out.append("family is not triangle-free")
    return out


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
