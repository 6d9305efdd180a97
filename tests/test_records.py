"""The package's records are immutable, and those compared by value
compare on their fields, leaving out what they are not compared on."""

import copy
import pickle
from fractions import Fraction

import pytest

from trifree.encoding import TreeNode
from trifree.game import Interval
from trifree.geometry import Point, Rect, h_seg
from trifree.graphs import ChromaticResult, Graph
from trifree.independent import Probe, build
from trifree.record import Record
from trifree.shapes import TransformedCopy, catalog
from trifree.uniform import build_uniform


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


_ROUND_TRIPS = {
    "pickle": lambda record: pickle.loads(pickle.dumps(record)),
    "copy": copy.copy,
    "deepcopy": copy.deepcopy,
}


def _restorable():
    frame = catalog()["frame"]
    level = build(2, frame)
    return {
        "independent-probe": level.probes[-1],
        "uniform-probe": build_uniform(2, Fraction(1, 2), frame).probes[-1],
        "TransformedCopy": level.family[-1],
        "Rect": level.probes[-1].rect,
        "Interval": Interval(Fraction(1, 3), Fraction(5, 6)),
        "TreeNode": _node(),
    }


def _same(a, b) -> bool:
    """Equal, or, for records compared by identity (a copy's base shape),
    of one class with equal fields."""
    if isinstance(a, Record) and type(a).__eq__ is object.__eq__:
        return type(a) is type(b) and all(getattr(a, f) == getattr(b, f) for f in _fields(a))
    return a == b


@pytest.mark.parametrize("how", _ROUND_TRIPS)
def test_records_survive_pickle_and_copy(how):
    # restoring a record writes its fields past __setattr__ (Record.__setstate__)
    restore = _ROUND_TRIPS[how]
    for name, record in _restorable().items():
        restored = restore(record)
        assert type(restored) is type(record), name
        assert restored == record and hash(restored) == hash(record), name
        assert all(_same(getattr(restored, f), getattr(record, f)) for f in _fields(record)), name
        with pytest.raises(AttributeError):
            setattr(restored, _fields(record)[0], 0)
    level = build(2, catalog()["frame"])
    restored = restore(level)
    assert (restored.k, restored.family, restored.probes, restored.epsilon, restored.bbox) == \
        (level.k, level.family, level.probes, level.epsilon, level.bbox)
