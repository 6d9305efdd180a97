"""The benchmark traces trifree from outside the package, by name.

bench/tracer.py wraps the functions named in its SPANS and PREDICATES
tables, counts PresenterSession.respond, and bench/micro.py calls a few
functions directly.  A rename in src/ would break the traced benchmark
run; these tests make it fail here instead.
"""

import importlib
import runpy
from pathlib import Path

import pytest

# run_path compiles in memory, so no bytecode cache lands in bench/
_TRACER = runpy.run_path(str(Path(__file__).resolve().parent.parent / "bench" / "tracer.py"))
_TRACED = [(module, name)
           for table in (_TRACER["SPANS"], _TRACER["PREDICATES"])
           for module, names in table.items()
           for name in names]
_CALLED_BY_MICRO = [("independent", "build"), ("independent", "augment"),
                    ("geometry", "seg_intersect")]


@pytest.mark.parametrize("module, name", _TRACED + _CALLED_BY_MICRO,
                         ids=[f"{m}.{n}" for m, n in _TRACED + _CALLED_BY_MICRO])
def test_named_function_exists(module, name):
    assert callable(getattr(importlib.import_module(f"trifree.{module}"), name))


def test_presenter_session_respond_exists():
    from trifree.game import PresenterSession

    assert callable(PresenterSession.respond)


def test_strategy_tree_nodes_exists():
    from trifree.encoding import expand_tree

    # the encoding.tree_nodes observer takes the length of what it returns
    assert len(expand_tree(1).nodes()) == 2
