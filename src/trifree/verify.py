"""Invariant suite over persisted families.

Re-checks, from the flat artifact alone, what a family claims, with the
law its construction ends with.  A family of either geometric
construction goes through ``independent.level_law``, which ``seal`` runs
on every level: its sizes, homothety in uniform mode, every stored
probe's conditions, pairwise disjoint probes, and equality with B_k
(``independent.claimed_graph``) of its pierced sets and its contacts,
diagonals included in an augmented family.  B_k numbers the copies and
probes in construction order, so a file must list them in that order.
A bare family's base size is checked here.  An encoded family goes
through ``encoding.encoded_law``, which ``encode`` ends with, over the
stored tree's nodes in preorder and the stored frames.  Each law takes
its candidate pairs from one y-sweep on one integer grid
(``shapes.FamilyGrid``), never from all pairs.  On success the command
prints one ``ok:`` line with the mode, k and copy count, and no word of
B_k: the benchmark compares that line byte for byte.
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
