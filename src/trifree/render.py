"""Deterministic SVG rendering of families for visual debugging.

The scene is mapped into a fixed 1024-unit viewbox with the exact
rational affine map applied first; decimal conversion (12 significant
digits) happens only at emission time, so rendering never feeds back
into any geometric check.
"""

from __future__ import annotations

from fractions import Fraction
from .geometry import HORIZONTAL, Rect, Seg, XYTransform
from .serialize import LoadedFamily
from .shapes import family_bbox

VIEW = Fraction(1024)
MARGIN = Fraction(24)

_COPY_STROKE = "#1b2631"
_DIAGONAL_STROKE = "#c0392b"
_PROBE_FILL = "#2e86c1"
_ROOT_FILL = "#28b463"


def _num(value: Fraction) -> str:
    return format(float(value), ".12g")


def _scene_transform(scene: Rect) -> XYTransform:
    side = max(scene.width, scene.height)
    if side == 0:
        side = Fraction(1)
    scale = (VIEW - 2 * MARGIN) / side
    return XYTransform(scale, scale,
                       MARGIN - scale * scene.x_lo, MARGIN - scale * scene.y_lo)


def _flip_y(v: Fraction) -> Fraction:
    return VIEW - v


def _line(s: Seg, t: XYTransform, stroke: str, width: str) -> str:
    m = t.apply(s)
    if m.orientation == HORIZONTAL:
        x1, x2 = m.lo, m.hi
        y1 = y2 = _flip_y(m.fixed)
    else:
        x1 = x2 = m.fixed
        y1, y2 = _flip_y(m.lo), _flip_y(m.hi)
    return (f'<line x1="{_num(x1)}" y1="{_num(y1)}" x2="{_num(x2)}" y2="{_num(y2)}" '
            f'stroke="{stroke}" stroke-width="{width}" stroke-linecap="round"/>')


def _rect(r: Rect, t: XYTransform, fill: str, opacity: str) -> str:
    m = t.apply(r)
    return (f'<rect x="{_num(m.x_lo)}" y="{_num(_flip_y(m.y_hi))}" '
            f'width="{_num(m.width)}" height="{_num(m.height)}" '
            f'fill="{fill}" fill-opacity="{opacity}"/>')


def render_family(fam: LoadedFamily) -> str:
    """A standalone SVG document; byte-identical across runs on equal input."""
    scene = family_bbox([*fam.copies, *(p.rect for p in fam.probes)])
    t = _scene_transform(scene)

    parts = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" viewBox="0 0 {int(VIEW)} {int(VIEW)}">',
        f'<rect x="0" y="0" width="{int(VIEW)}" height="{int(VIEW)}" fill="#ffffff"/>',
    ]
    for p in fam.probes:
        parts.append(_rect(p.rect, t, _PROBE_FILL, "0.15"))
    for p in fam.probes:
        parts.append(_rect(p.root, t, _ROOT_FILL, "0.25"))
    for c in fam.copies:
        diagonal = "diagonal" in c.lineage
        stroke = _DIAGONAL_STROKE if diagonal else _COPY_STROKE
        width = "2.5" if diagonal else "1.5"
        for s in c.segments:
            parts.append(_line(s, t, stroke, width))
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
