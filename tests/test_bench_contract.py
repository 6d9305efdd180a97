"""The benchmark traces trifree from outside the package, by name.

bench/tracer.py wraps the functions named in its SPANS and PREDICATES
tables, counts PresenterSession.respond, and bench/micro.py calls a few
functions directly.  A rename in src/ would break the traced benchmark
run; these tests make it fail here instead.  A benchmark pass starts
the CLI in a fresh interpreter, and what that start imports is pinned
here too.
"""

import importlib
import json
import os
import runpy
import subprocess
import sys
from pathlib import Path

import pytest

import trifree

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


def test_a_cli_start_loads_every_traced_module_and_no_dataclasses():
    """Importing the CLI and readying its catalog and parser, as a pass
    does before its first command, loads every module the tracer looks up
    in sys.modules, and neither ``dataclasses`` with the ``inspect`` it
    pulls in, which no record needs, nor ``render``, which only the render
    command uses.  ``-S``: the imports are the package's alone."""
    src = Path(trifree.__file__).resolve().parents[1]
    code = ("import json, sys, trifree.cli\n"
            "from trifree.shapes import catalog\n"
            "catalog()\n"
            "trifree.cli._parser()\n"
            "print(json.dumps(sorted(sys.modules)))")
    run = subprocess.run([sys.executable, "-S", "-c", code], capture_output=True, text=True,
                         env={**os.environ, "PYTHONPATH": str(src)}, check=True)
    loaded = set(json.loads(run.stdout))
    assert {f"trifree.{m}" for m in _TRACER["SPANS"]} <= loaded
    assert not loaded & {"dataclasses", "inspect", "trifree.render"}
