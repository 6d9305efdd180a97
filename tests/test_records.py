"""The package's records are immutable, and those compared by value
compare on their fields, leaving out what they are not compared on."""

from fractions import Fraction

import pytest

from trifree.encoding import TreeNode
from trifree.game import Interval
from trifree.geometry import Point, Rect, h_seg
from trifree.graphs import ChromaticResult, Graph
from trifree.independent import Probe
from trifree.shapes import TransformedCopy, catalog


def _node():
    leaf = TreeNode(1, 0, Interval(Fraction(1, 3), Fraction(2, 3)),
                    (Fraction(1, 3), Fraction(2, 3)), frozenset({0}), ())
    return TreeNode(0, None, Interval(0, 1), (Fraction(0), Fraction(1)), frozenset(), (leaf,))


# (make one record, make a twin that differs from it in a field it is not
# compared on, or None where it is compared on every field)
_CASES = {
    "Point": (lambda: Point(Fraction(1, 2), 3), None),
    "Seg": (lambda: h_seg(0, Fraction(1, 3), 1), None),
    "Rect": (lambda: Rect(Fraction(1, 6), Fraction(1, 2), 0, Fraction(3, 4)), None),
    "TransformedCopy": (
        lambda: TransformedCopy("frame", catalog()["frame"].shape, (1, 1, 2), (1, 0, 3)),
        # another base: base, den and axes all differ
        lambda: TransformedCopy("frame", catalog()["cross"].shape, (1, 1, 2), (1, 0, 3))),
    "Probe": (lambda: Probe(Rect(Fraction(1, 4), 1, 0, Fraction(1, 2)),
                            Rect(0, 1, 0, Fraction(1, 2)), (1, 4), (0, 2)), None),
    "Graph": (lambda: Graph.from_edges(3, [(0, 1), (1, 2)]), None),
    "ChromaticResult": (lambda: ChromaticResult(2, 2, True, (1, 2, 1), (0, 1)),
                        lambda: ChromaticResult(2, 2, True, (1, 2, 1), (0, 1), 9, 0.5)),
    "TreeNode": (_node, None),
}


def _fields(record):
    """A record's fields: its instance dict's keys, or its slots."""
    return tuple(vars(record)) if hasattr(record, "__dict__") else type(record).__slots__


@pytest.mark.parametrize("make, other", _CASES.values(), ids=_CASES.keys())
def test_records_compare_by_value_and_are_immutable(make, other):
    record, twin = make(), make()
    assert record is not twin
    assert record == twin and hash(record) == hash(twin)
    if other is not None:
        differing = other()
        assert any(getattr(differing, name) != getattr(record, name) for name in _fields(record))
        assert record == differing and hash(record) == hash(differing)
    for name in (*_fields(record), "extra"):
        with pytest.raises(AttributeError):
            setattr(record, name, 0)
        with pytest.raises(AttributeError):
            delattr(record, name)
    assert record == twin
