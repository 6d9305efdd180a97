"""Invariant suite over persisted families.

Re-checks, from the flat artifact alone, everything that does not need
the recursion's internal bookkeeping.  A family of either construction
is checked by ``independent.level_law``, the law every level is sealed
with as it is built: s_k copies and p_k probes, the probe conditions of
every stored probe (with the eps-probe extras and homothety in uniform
mode), pairwise disjoint probes, in an augmented family the diagonal
law, and triangle-freeness.  On top of it comes the base size of a bare
family.  An encoded family is checked by ``encoding.encoded_law``, the
law every ``encode`` run ends with, over the stored tree's nodes, which
the loader reads in preorder, and the stored frames.  The deeper
step-by-step contact laws are enforced at construction time.

No check tests all pairs or all copies: each takes its candidates from
one y-sweep over bounding boxes, which the exact predicates then decide.
``level_law`` lifts the family, its diagonals and its probes onto one
integer grid (``shapes.FamilyGrid``) and runs one sweep on it, over the
copies and the box around each stored probe's rectangle and root, so a
root stored away from its rectangle still meets every copy it could.
That pass decides every contact, which the probe conditions and the
diagonal law read as pairs and the triangle test as one graph, and gives
the probes their candidates and the pairs of probes that may meet.  An
encoded family's intersection law and triangle test read one
intersection graph.
"""

from __future__ import annotations

from .encoding import encoded_law
from .independent import Level, level_law
from .serialize import LoadedFamily


def _verify_geometric(fam: LoadedFamily) -> list[str]:
    out: list[str] = []
    if not fam.augmented and fam.base_size != len(fam.copies):
        out.append(f"size: base size {fam.base_size}, expected {len(fam.copies)} in a bare family")
    cut = fam.base_size if fam.augmented else len(fam.copies)
    level = Level(fam.k, fam.copies[:cut], fam.probes, fam.epsilon)
    return out + level_law(level, fam.copies[cut:] if fam.augmented else None)


def verify_family(fam: LoadedFamily) -> list[str]:
    """All artifact-level invariants; an empty list means the family checks out."""
    if fam.mode == "encoded-frames":
        assert fam.tree_nodes is not None and fam.color_budget is not None
        return encoded_law(fam.k, fam.color_budget, fam.tree_nodes, fam.copies)
    return _verify_geometric(fam)
