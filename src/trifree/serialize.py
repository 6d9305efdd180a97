"""JSON persistence for families, strategy trees, and game transcripts.

Rationals travel as 'p/q' strings (integers may omit '/1'), so a parse
of a serialize reproduces every coordinate bit for bit.  One writer,
``level_to_doc``, serves both constructions: a level's ``epsilon`` makes
its document a uniform one, with the anchored shape and the ``epsilon``
field.  ``encoded_to_doc`` writes strategy-tree families, and
``doc_to_family`` reads all three modes back.  It refuses a shape block
that is not its catalog entry's, as ``shape_to_json`` writes it, and a
family whose copies and probes share no grid near their finest
denominator, because the predicates and sweeps decide everything on one
common grid.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from math import lcm
from typing import Any, Optional, Sequence

from .encoding import FrameFamily, StrategyTree, TreeNode, _preorder
from .game import GameResult, Interval
from .geometry import Rat, Rect, Seg, XYTransform, as_rat, rat_str
from .independent import Level, Probe
from .shapes import ShapeDef, TransformedCopy, catalog


def seg_to_json(s: Seg) -> dict:
    return {"o": s.orientation, "fixed": rat_str(s.fixed),
            "lo": rat_str(s.lo), "hi": rat_str(s.hi)}


def rect_to_json(r: Rect) -> dict:
    return {"x_lo": rat_str(r.x_lo), "x_hi": rat_str(r.x_hi),
            "y_lo": rat_str(r.y_lo), "y_hi": rat_str(r.y_hi)}


def rect_from_json(d: dict) -> Rect:
    return Rect(as_rat(d["x_lo"]), as_rat(d["x_hi"]),
                as_rat(d["y_lo"]), as_rat(d["y_hi"]))


def shape_to_json(shape: ShapeDef, *, anchored: bool) -> dict:
    base = shape.anchor.shape if anchored else shape.shape
    doc: dict[str, Any] = {
        "name": shape.name,
        "segments": [seg_to_json(s) for s in base.segments],
    }
    if not anchored:
        f = shape.features
        doc["features"] = {
            "bbox": rect_to_json(f.bbox),
            "empty_rect": rect_to_json(f.empty_rect),
            "left_stabber": [seg_to_json(s) for s in f.left_stabber],
            "right_stabber": [seg_to_json(s) for s in f.right_stabber],
            "w1": rat_str(f.w1),
            "w2": rat_str(f.w2),
        }
    doc["anchor"] = {"name": shape.name} if anchored else None
    return doc


def copy_to_json(c: TransformedCopy) -> dict:
    t = c.transform
    return {"sx": rat_str(t.sx), "sy": rat_str(t.sy),
            "tx": rat_str(t.tx), "ty": rat_str(t.ty), "lineage": c.lineage}


def _probe_to_json(p: Probe) -> dict:
    return {"rect": rect_to_json(p.rect), "root": rect_to_json(p.root),
            "root_cut_x": rat_str(p.root_cut_x), "pierced": list(p.pierced)}


def _typed(value: Any, kind: type, field: str) -> Any:
    if type(value) is not kind:
        raise TypeError(f"{field} must be of type {kind.__name__}, got {value!r}")
    return value


def _probe_from_json(d: dict) -> Probe:
    return Probe(rect_from_json(d["rect"]), rect_from_json(d["root"]),
                 as_rat(d["root_cut_x"]),
                 tuple(_typed(i, int, "pierced index") for i in d["pierced"]))


# Families that trifree builds lie on a grid at most a few bits finer than
# their finest copy's; see _check_grid.
GRID_SLACK_BITS = 64


def _check_grid(copies: Sequence[TransformedCopy], probes: Sequence[Probe]) -> None:
    """Refuse copies and probe rectangles that share no grid within
    GRID_SLACK_BITS bits of the finest denominator among them.

    The sweeps lift a family onto the least common multiple of its
    denominators.  Unrelated denominators would make that multiple, and
    all work on it, grow with the square of the file's size.
    """
    dens = {c.den for c in copies}
    dens.update(r.den for p in probes for r in (p.rect, p.root))
    limit = max(dens).bit_length() + GRID_SLACK_BITS
    grid = 1
    for d in dens:
        grid = lcm(grid, d)
        if grid.bit_length() > limit:
            raise ValueError(f"copies and probes share no grid within {GRID_SLACK_BITS} "
                             f"bits of the finest denominator ({limit - GRID_SLACK_BITS} bits)")


def _tree_node_to_json(node: TreeNode) -> dict:
    return {"lo": rat_str(node.interval.lo), "hi": rat_str(node.interval.hi),
            "slot_lo": rat_str(node.slot[0]), "slot_hi": rat_str(node.slot[1]),
            "children": [_tree_node_to_json(c) for c in node.children]}


def _tree_node_from_json(d: dict) -> tuple[Interval, tuple[Rat, Rat], list]:
    interval = Interval(as_rat(d["lo"]), as_rat(d["hi"]))
    slot = (as_rat(d["slot_lo"]), as_rat(d["slot_hi"]))
    if not slot[0] < slot[1]:
        raise ValueError(f"empty tree slot [{slot[0]}, {slot[1]}]")
    return interval, slot, d["children"]


def level_to_doc(level: Level, shape: ShapeDef,
                 augmented: Optional[Sequence[TransformedCopy]] = None) -> dict:
    """The document of a built level, independent or uniform by whether it
    carries an ``epsilon``; ``augmented`` (the level plus its diagonals)
    replaces the level's copies when given."""
    uniform = level.epsilon is not None
    doc: dict[str, Any] = {
        "shape": shape_to_json(shape, anchored=uniform),
        "mode": "uniform" if uniform else "independent",
        "k": level.k,
    }
    if uniform:
        doc["epsilon"] = rat_str(level.epsilon)
    copies = augmented if augmented is not None else level.family
    doc.update({
        "augmented": augmented is not None,
        "base_size": len(level.family),
        "copies": [copy_to_json(c) for c in copies],
        "probes": [_probe_to_json(p) for p in level.probes],
    })
    return doc


def encoded_to_doc(tree: StrategyTree, family: FrameFamily, shape: ShapeDef) -> dict:
    return {
        "shape": shape_to_json(shape, anchored=False),
        "mode": "encoded-frames",
        "k": tree.k,
        "augmented": False,
        "copies": [copy_to_json(c) for c in family.copies],
        "probes": [],
        "tree": {"color_budget": tree.color_budget,
                 "root": _tree_node_to_json(tree.root),
                 "branch_colorings": [list(h) for h in tree.histories]},
    }


def transcript_to_doc(result: GameResult, painter: str) -> dict:
    return {
        "k": result.k,
        "painter": painter,
        "moves": [{"lo": rat_str(iv.lo), "hi": rat_str(iv.hi), "color": c}
                  for iv, c in result.transcript.moves],
        "intervals": result.intervals,
        "colors_used": result.colors_used,
        "certified_point": rat_str(result.certified_point),
    }


@dataclass(frozen=True)
class LoadedFamily:
    """A family document parsed back into exact objects."""

    mode: str
    k: int
    shape: ShapeDef
    augmented: bool
    base_size: int
    copies: tuple[TransformedCopy, ...]
    probes: tuple[Probe, ...]
    epsilon: Optional[Rat]
    tree_nodes: Optional[tuple[TreeNode, ...]]  # preorder
    color_budget: Optional[int]


def doc_to_family(doc: Any) -> LoadedFamily:
    """Parse a family document; any malformed field raises ValueError."""
    if not isinstance(doc, dict):
        raise ValueError("family document is not a JSON object")
    try:
        return _doc_to_family(doc)
    except KeyError as exc:
        raise ValueError(f"family document is missing field {exc}") from None
    except TypeError as exc:
        raise ValueError(f"family document has a malformed field: {exc}") from None


def _doc_to_family(doc: dict) -> LoadedFamily:
    mode = doc["mode"]
    if mode not in ("independent", "uniform", "encoded-frames"):
        raise ValueError(f"unknown mode: {mode!r}")
    k = _typed(doc["k"], int, "k")
    if k < 1:
        raise ValueError(f"k must be at least 1, got {k}")
    name = doc["shape"]["name"]
    try:
        shape = catalog()[name]
    except KeyError:
        raise ValueError(f"unknown catalog shape: {name!r}") from None
    anchored = mode == "uniform"
    # the whole block, features and anchor included, is the catalog entry's
    if doc["shape"] != shape_to_json(shape, anchored=anchored):
        raise ValueError(f"shape does not match catalog entry {name!r}")
    base = shape.anchor.shape if anchored else shape.shape
    copies = tuple(
        TransformedCopy(name, base,
                        XYTransform(as_rat(c["sx"]), as_rat(c["sy"]),
                                    as_rat(c["tx"]), as_rat(c["ty"])),
                        _typed(c["lineage"], str, "lineage"))
        for c in doc["copies"])
    if not copies:
        raise ValueError("family document has no copies")
    base_size = _typed(doc.get("base_size", len(copies)), int, "base_size")
    if not 1 <= base_size <= len(copies):
        raise ValueError(f"base_size {base_size} is outside 1..{len(copies)}")
    probes: tuple[Probe, ...] = ()
    tree_nodes = color_budget = None
    if mode == "encoded-frames":
        tree_nodes = _preorder(doc["tree"]["root"], _tree_node_from_json)
        color_budget = _typed(doc["tree"]["color_budget"], int, "color_budget")
    else:
        probes = tuple(_probe_from_json(p) for p in doc["probes"])
        for p in probes:
            if not all(0 <= i < base_size for i in p.pierced):
                raise ValueError(f"pierced index outside 0..{base_size - 1}")
    _check_grid(copies, probes)
    return LoadedFamily(
        mode=mode,
        k=k,
        shape=shape,
        augmented=_typed(doc.get("augmented", False), bool, "augmented"),
        base_size=base_size,
        copies=copies,
        probes=probes,
        epsilon=as_rat(doc["epsilon"]) if mode == "uniform" else None,
        tree_nodes=tree_nodes,
        color_budget=color_budget,
    )


def dumps(doc: dict) -> str:
    return json.dumps(doc, indent=2) + "\n"


def loads(text: str) -> Any:
    """Parse JSON text; malformed or too deeply nested text raises ValueError."""
    try:
        return json.loads(text)
    except RecursionError:
        raise ValueError("JSON document is nested too deeply") from None
