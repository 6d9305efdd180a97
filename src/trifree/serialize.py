"""JSON persistence for families, strategy trees, and game transcripts.

Rationals travel as 'p/q' strings (integers may omit '/1'), written and
read by ``geometry`` alone (``rat_text``, ``rat_pair``), so a parse of a
serialize reproduces every coordinate bit for bit.  One writer,
``level_to_doc``, serves both constructions: a level's ``epsilon`` makes
its document a uniform one, with the anchored shape and the ``epsilon``
field.  ``encoded_to_doc`` writes strategy-tree families: the frames and
the tree, each node's interval, slot and children, with the color
budget.  Files from earlier versions also carry the tree's
``branch_colorings``, which the loader ignores.  ``doc_to_family`` reads
all three modes back.  It refuses a shape block that is not its catalog
entry's, as ``shape_to_json`` writes it, and a family whose copies and
probes share no grid near their finest denominator, because the
predicates and sweeps decide everything on one common grid.

``dumps`` writes every file as compact JSON, one record per line: each
top-level field on a line of its own, and each element of a top-level
list (copies, probes, a transcript's moves) on one line.  It runs json's
C encoder, which ``indent`` would turn off.  Only whitespace differs from
the indented layout of earlier files, and the loader reads any layout.

A file repeats most of its rationals (every probe ends at the family's
right side, sibling copies share scales), so the loader parses each
distinct text once per file, by the strict grammar of ``as_rat``, into an
int pair (``geometry.rat_pair``).  Each copy is made straight from its
pairs: sx = a/b and tx = e/f are the axis map (a*f, e*b, b*f), and the
copy holds ints only.  So does each probe: each of its rectangles is a
``Rect`` made straight from its four pairs (``geometry.lift_pairs``),
which holds their lift alone, its cut is its pair in lowest terms, and
its pierced indices are checked for type and range in one pass.  Only
the epsilon and the tree nodes become Fractions, read through the same
memo.  The writer formats every copy and probe field from the ints
(``geometry.rat_text``).  An encoded family carries no probes, is not
augmented, and has no ``base_size`` but its frame count.
"""

from __future__ import annotations

import json
from fractions import Fraction
from math import gcd, lcm
from typing import Any, Callable, Optional, Sequence

from .encoding import StrategyTree, TreeNode, _preorder
from .game import GameResult, Interval
from .geometry import (
    Rat,
    Rect,
    Seg,
    as_rat,
    lift_pairs,
    rat_pair,
    rat_str,
    rat_text,
)
from .independent import Level, Probe
from .record import Record, set_field
from .shapes import ShapeDef, TransformedCopy, catalog


def seg_to_json(s: Seg) -> dict:
    return {"o": s.orientation, "fixed": rat_str(s.fixed),
            "lo": rat_str(s.lo), "hi": rat_str(s.hi)}


def rect_to_json(r: Rect) -> dict:
    """The rectangle's sides, each formatted from its lift's ints."""
    den, (x0, x1, y0, y1) = r.den, r.int_box
    return {"x_lo": rat_text(x0, den), "x_hi": rat_text(x1, den),
            "y_lo": rat_text(y0, den), "y_hi": rat_text(y1, den)}


def _rect_from_json(d: dict, pair: Callable[[Any], tuple[int, int]]) -> Rect:
    """The rectangle ``d``, made from its sides' pairs, each read by ``pair``."""
    return lift_pairs(pair(d["x_lo"]), pair(d["x_hi"]), pair(d["y_lo"]), pair(d["y_hi"]))


def _rat_readers() -> tuple[Callable[[Any], tuple[int, int]], Callable[[Any], Rat]]:
    """Two readers of one file's rationals, by the grammar of ``as_rat``,
    through one memo: ``pair`` gives (p, q), q > 0, for the copies and the
    probes, and ``rat`` a Fraction for the epsilon and the tree nodes.  Each
    distinct text is parsed once (``rat_pair``); any other value goes to
    ``as_rat`` every time."""
    pairs: dict[str, tuple[int, int]] = {}

    def pair(value: Any) -> tuple[int, int]:
        if type(value) is str:
            p = pairs.get(value)
            if p is None:
                p = pairs[value] = rat_pair(value)
            return p
        r = as_rat(value)
        return r.numerator, r.denominator

    def rat(value: Any) -> Rat:
        return Fraction(*pair(value)) if type(value) is str else as_rat(value)
    return pair, rat


def shape_to_json(shape: ShapeDef, *, anchored: bool) -> dict:
    base = shape.anchored().shape if anchored else shape.shape
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
    """The copy's fields, each formatted from its axis maps' ints."""
    (ax, bx, qx), (ay, by, qy) = c.x_map, c.y_map
    return {"sx": rat_text(ax, qx), "sy": rat_text(ay, qy),
            "tx": rat_text(bx, qx), "ty": rat_text(by, qy), "lineage": c.lineage}


def _probe_to_json(p: Probe) -> dict:
    """The probe's fields, each formatted from its ints."""
    return {"rect": rect_to_json(p.rect), "root": rect_to_json(p.root),
            "root_cut_x": rat_text(*p.cut), "pierced": list(p.pierced)}


def _typed(value: Any, kind: type, field: str) -> Any:
    if type(value) is not kind:
        raise TypeError(f"{field} must be of type {kind.__name__}, got {value!r}")
    return value


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


def _tree_node_from_json(d: dict, rat: Callable[[Any], Rat]
                         ) -> tuple[Interval, tuple[Rat, Rat], list]:
    interval = Interval(rat(d["lo"]), rat(d["hi"]))
    slot = (rat(d["slot_lo"]), rat(d["slot_hi"]))
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


def encoded_to_doc(tree: StrategyTree, copies: Sequence[TransformedCopy],
                   shape: ShapeDef) -> dict:
    """The document of ``tree`` and its frames ``copies``, as ``encode``
    gives them."""
    return {
        "shape": shape_to_json(shape, anchored=False),
        "mode": "encoded-frames",
        "k": tree.k,
        "augmented": False,
        "copies": [copy_to_json(c) for c in copies],
        "probes": [],
        "tree": {"color_budget": tree.color_budget,
                 "root": _tree_node_to_json(tree.root)},
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


class LoadedFamily(Record):
    """A family document parsed back into exact objects."""

    def __init__(self, mode: str, k: int, shape: ShapeDef, augmented: bool, base_size: int,
                 copies: tuple[TransformedCopy, ...], probes: tuple[Probe, ...],
                 epsilon: Optional[Rat], tree_nodes: Optional[tuple[TreeNode, ...]],
                 color_budget: Optional[int]) -> None:
        set_field(self, "mode", mode)
        set_field(self, "k", k)
        set_field(self, "shape", shape)
        set_field(self, "augmented", augmented)
        set_field(self, "base_size", base_size)
        set_field(self, "copies", copies)
        set_field(self, "probes", probes)
        set_field(self, "epsilon", epsilon)
        set_field(self, "tree_nodes", tree_nodes)  # preorder
        set_field(self, "color_budget", color_budget)


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
    base = shape.anchored().shape if anchored else shape.shape
    pair, rat = _rat_readers()
    epsilon = rat(doc["epsilon"]) if anchored else None
    if epsilon is not None and not 0 < epsilon < 1:
        raise ValueError(f"epsilon must lie in (0,1): {epsilon}")
    copies = []
    for item in doc["copies"]:
        # sx = a/b and tx = e/f give the x map (a*f, e*b, b*f), sy and ty the y map
        (a, b), (c, d), (e, f), (g, h) = (pair(item["sx"]), pair(item["sy"]),
                                          pair(item["tx"]), pair(item["ty"]))
        copies.append(TransformedCopy(name, base, (a * f, e * b, b * f), (c * h, g * d, d * h),
                                      _typed(item["lineage"], str, "lineage")))
    if not copies:
        raise ValueError("family document has no copies")
    base_size = _typed(doc.get("base_size", len(copies)), int, "base_size")
    if not 1 <= base_size <= len(copies):
        raise ValueError(f"base_size {base_size} is outside 1..{len(copies)}")
    probes: list[Probe] = []
    tree_nodes = color_budget = None
    if mode == "encoded-frames":
        tree_nodes = _preorder(doc["tree"]["root"], lambda d: _tree_node_from_json(d, rat))
        color_budget = _typed(doc["tree"]["color_budget"], int, "color_budget")
    else:
        in_range = True
        for p in doc["probes"]:
            rect, root = _rect_from_json(p["rect"], pair), _rect_from_json(p["root"], pair)
            n, d = pair(p["root_cut_x"])
            g = gcd(n, d)
            probe = Probe(rect, root, (n // g, d // g), tuple(p["pierced"]))
            # one pass checks the type and the range of every index
            if not all(type(i) is int and 0 <= i < base_size for i in probe.pierced):
                for i in probe.pierced:
                    _typed(i, int, "pierced index")
                in_range = False
            probes.append(probe)
        if not in_range:
            raise ValueError(f"pierced index outside 0..{base_size - 1}")
    _check_grid(copies, probes)
    augmented = _typed(doc.get("augmented", False), bool, "augmented")
    if mode == "encoded-frames":
        if doc.get("probes", []) != []:
            raise ValueError("an encoded family must have no probes")
        if augmented:
            raise ValueError("an encoded family cannot be augmented")
        if base_size != len(copies):
            raise ValueError(f"base_size {base_size} is not the frame count {len(copies)} "
                             f"of an encoded family")
    return LoadedFamily(
        mode=mode,
        k=k,
        shape=shape,
        augmented=augmented,
        base_size=base_size,
        copies=tuple(copies),
        probes=tuple(probes),
        epsilon=epsilon,
        tree_nodes=tree_nodes,
        color_budget=color_budget,
    )


# indent=None keeps json on its C encoder; indent=2 runs the pure-Python one
_encode = json.JSONEncoder(separators=(",", ":")).encode


def dumps(doc: dict) -> str:
    """``doc`` as compact JSON, one record per line: ``{``, then each
    top-level field as ``"key":value`` on its own line, a non-empty list
    as ``"key":[``, one element per line and ``]``.  Lines end in a comma
    but the last of each list and of the document, and the text ends with
    ``}`` and a newline.  Only whitespace differs from
    ``json.dumps(doc, indent=2)``; the loader reads either."""
    fields = []
    for key, value in doc.items():
        head = _encode(key) + ":"
        if isinstance(value, list) and value:
            fields.append(head + "[\n" + ",\n".join(map(_encode, value)) + "\n]")
        else:
            fields.append(head + _encode(value))
    return "{\n" + ",\n".join(fields) + "\n}\n"


def loads(text: str) -> Any:
    """Parse JSON text; malformed or too deeply nested text raises ValueError."""
    try:
        return json.loads(text)
    except RecursionError:
        raise ValueError("JSON document is nested too deeply") from None
