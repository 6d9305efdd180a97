"""Triangle-free families of axis-aligned shapes with large chromatic
number, built and certified with exact rational arithmetic, together
with the on-line interval coloring game the constructions come from."""

from .geometry import (
    HORIZONTAL,
    VERTICAL,
    Point,
    Rat,
    Rect,
    Seg,
    XYTransform,
    as_rat,
    clip_seg_to_rect,
    seg_intersect,
)
from .shapes import (
    RectilinearShape,
    ShapeDef,
    ShapeFeatures,
    TransformedCopy,
    catalog,
    copies_intersect,
    stabs_horizontally,
    stabs_vertically,
    validate_features,
)
from .independent import (
    Level,
    Probe,
    augment,
    build,
    grow_probe,
    make_diagonal,
    next_level,
    size_formulas,
    split_probe,
)
from .uniform import (
    augment_uniform,
    build_uniform,
    helper_law,
)
from .game import (
    GameTranscript,
    Interval,
    PresenterSession,
    first_fit,
    game_tree,
    make_minimax_painter,
    make_repl_painter,
    minimax_verify,
    overlaps,
    run_game,
)
from .encoding import FrameFamily, StrategyTree, encode, expand_tree
from .graphs import (
    ChromaticResult,
    Graph,
    chromatic_number,
    intersection_graph,
    is_triangle_free,
    to_dimacs,
)
from .verify import verify_family

__version__ = "0.1.0"
