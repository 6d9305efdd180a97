"""Triangle-free families of axis-aligned shapes with large chromatic
number, built and certified with exact rational arithmetic, together
with the on-line interval coloring game the constructions come from.

The package root exports only ``__version__``; callers import from the
submodules (``trifree.independent``, ``trifree.uniform``, ...)."""

__version__ = "0.1.0"
