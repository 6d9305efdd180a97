"""Deterministic SVG rendering of families for visual debugging.

The scene, the box of the copies and the probes made from their lifts
(``shapes.family_bbox``), is mapped into a fixed 1024-unit viewbox by
the two exact axis maps that carry the scene's square onto the viewport
(``geometry.rect_map``), applied first: probes and roots on their lifts
through ``geometry.map_rect``, and each copy rebased onto them
(``TransformedCopy.rebase``).  Decimal
conversion (12 significant digits) happens only at emission time, so
rendering never feeds back into any geometric check.
"""

from __future__ import annotations

from fractions import Fraction
from .geometry import HORIZONTAL, AxisMap, Rect, Seg, grid_rect, map_rect, rect_map
from .serialize import LoadedFamily
from .shapes import family_bbox

VIEW = Fraction(1024)
MARGIN = Fraction(24)
_VIEWPORT = Rect(MARGIN, VIEW - MARGIN, MARGIN, VIEW - MARGIN)

_COPY_STROKE = "#1b2631"
_DIAGONAL_STROKE = "#c0392b"
_PROBE_FILL = "#2e86c1"
_ROOT_FILL = "#28b463"


def _num(value: Fraction) -> str:
    return format(float(value), ".12g")


def _scene_maps(scene: Rect) -> tuple[AxisMap, AxisMap]:
    """The maps carrying the scene's square, its lower-left corner and side
    max(width, height), or 1 for a scene of one point, onto the viewport."""
    den, (x0, x1, y0, y1) = scene.den, scene.int_box
    side = max(x1 - x0, y1 - y0) or den
    return rect_map(grid_rect(den, (x0, x0 + side, y0, y0 + side)), _VIEWPORT)


def _flip_y(v: Fraction) -> Fraction:
    return VIEW - v


def _line(s: Seg, stroke: str, width: str) -> str:
    if s.orientation == HORIZONTAL:
        x1, x2 = s.lo, s.hi
        y1 = y2 = _flip_y(s.fixed)
    else:
        x1 = x2 = s.fixed
        y1, y2 = _flip_y(s.lo), _flip_y(s.hi)
    return (f'<line x1="{_num(x1)}" y1="{_num(y1)}" x2="{_num(x2)}" y2="{_num(y2)}" '
            f'stroke="{stroke}" stroke-width="{width}" stroke-linecap="round"/>')


def _rect(r: Rect, fill: str, opacity: str) -> str:
    return (f'<rect x="{_num(r.x_lo)}" y="{_num(_flip_y(r.y_hi))}" '
            f'width="{_num(r.width)}" height="{_num(r.height)}" '
            f'fill="{fill}" fill-opacity="{opacity}"/>')


def render_family(fam: LoadedFamily) -> str:
    """A standalone SVG document; byte-identical across runs on equal input."""
    scene = family_bbox([*fam.copies, *(p.rect for p in fam.probes)])
    scene_maps = _scene_maps(scene)

    parts = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" viewBox="0 0 {int(VIEW)} {int(VIEW)}">',
        f'<rect x="0" y="0" width="{int(VIEW)}" height="{int(VIEW)}" fill="#ffffff"/>',
    ]
    for p in fam.probes:
        parts.append(_rect(map_rect(*scene_maps, p.rect), _PROBE_FILL, "0.15"))
    for p in fam.probes:
        parts.append(_rect(map_rect(*scene_maps, p.root), _ROOT_FILL, "0.25"))
    for c in fam.copies:
        diagonal = "diagonal" in c.lineage
        stroke = _DIAGONAL_STROKE if diagonal else _COPY_STROKE
        width = "2.5" if diagonal else "1.5"
        for s in c.rebase(scene_maps).segments:
            parts.append(_line(s, stroke, width))
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
