"""On-line coloring game on triangle-free overlap graphs.

Presenter reveals closed intervals with strictly increasing left
endpoints, never letting three presented intervals pairwise overlap;
Painter must immediately give each interval a color unused by its
overlap neighbors (intervals that intersect it without nesting).

The forcing strategy for a target k works inside a region R: it runs
the (k-1)-strategy, restricts attention to the nested chain of
intervals covering the certified point, replays the (k-1)-strategy
inside that chain, and either the two chains already show k colors
together or one bridging interval overlapping exactly the inner chain
forces a fresh color.  The shortest variant appends one last interval
overlapping the whole final chain, forcing color k+1.

The game is played on integers: an ``Interval`` holds its lift, ints
``ilo < ihi`` on the grid of multiples of 1/den.  The shortest
k-strategy plays in [0, den], den = ``grid(k)``, on which each of its
placements divides exactly; overlap, containment, the left-endpoint
rule, nested chains and the certificate are decided on the ints, across
denominators for intervals from elsewhere (a loaded file).  Fractions
are made only where values leave the game: ``Interval.lo``/``hi`` and
the certified point of a finished game.

The strategy is written once, as immutable steps: a ``Step`` holds
the interval shown and ``respond(color)``, which returns the next step
or, after the last move, the certified point and chain.

``game_tree`` is the one walk over Painter's side of the game: every
history of canonical colors, where a move may reuse a color already seen
or open the next fresh one (colors 1..min(max_used+1, budget)), so every
Painter strategy appears once up to renaming.  It forks a position by
answering its step once per legal color.  Each position scans the
transcript once, in ``check_interval`` (left endpoint, no triangle,
overlap neighbors), and its child edges reuse those neighbors for the
color rule, so an edge costs one step and one ``GameTranscript.add``
that scans nothing.  ``minimax_verify``, the minimax Painter and
``encoding.expand_tree`` all read that walk.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm
from typing import Callable, NamedTuple, Optional, Sequence

from .errors import IllegalColorError, IllegalIntervalError
from .geometry import Rat, as_rat
from .record import Record, set_field

Chain = tuple[tuple["Interval", int], ...]
Outcome = tuple[int, Chain]  # a finished strategy's certified point (grid units) and chain


class Interval(Record):
    """A closed interval [lo, hi], lo < hi, held as its lift onto the grid
    of multiples of 1/den: lo = ilo/den and hi = ihi/den.  ``Interval(lo,
    hi)`` takes any two rationals and lifts them onto their own least
    common denominator; ``on_grid`` places one on a given grid."""

    __slots__ = ("ilo", "ihi", "den")

    def __init__(self, lo: Rat, hi: Rat) -> None:
        lo, hi = as_rat(lo), as_rat(hi)
        den = lcm(lo.denominator, hi.denominator)
        self._set(lo.numerator * (den // lo.denominator),
                  hi.numerator * (den // hi.denominator), den)

    @classmethod
    def on_grid(cls, ilo: int, ihi: int, den: int) -> "Interval":
        iv = object.__new__(cls)
        iv._set(ilo, ihi, den)
        return iv

    def _set(self, ilo: int, ihi: int, den: int) -> None:
        if ilo >= ihi:
            raise ValueError(f"empty interval [{Fraction(ilo, den)}, {Fraction(ihi, den)}]")
        set_field(self, "ilo", ilo)
        set_field(self, "ihi", ihi)
        set_field(self, "den", den)

    def __reduce__(self) -> tuple:
        return Interval.on_grid, (self.ilo, self.ihi, self.den)

    @property
    def lo(self) -> Rat:
        return Fraction(self.ilo, self.den)

    @property
    def hi(self) -> Rat:
        return Fraction(self.ihi, self.den)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Interval):
            return NotImplemented
        alo, ahi, blo, bhi = _ends(self, other)
        return alo == blo and ahi == bhi

    def __hash__(self) -> int:
        return hash((self.lo, self.hi))

    def __repr__(self) -> str:
        return f"Interval(lo={self.lo!r}, hi={self.hi!r})"


def _ends(a: Interval, b: Interval) -> tuple[int, int, int, int]:
    """The ends of ``a`` and then of ``b``, as ints on one grid."""
    if a.den == b.den:
        return a.ilo, a.ihi, b.ilo, b.ihi
    return a.ilo * b.den, a.ihi * b.den, b.ilo * a.den, b.ihi * a.den


def overlaps(a: Interval, b: Interval) -> bool:
    """Intersecting but not nested: one starts strictly first and ends
    strictly first, no earlier than the other starts."""
    alo, ahi, blo, bhi = _ends(a, b)
    return alo < blo <= ahi < bhi or blo < alo <= bhi < ahi


class GameTranscript:
    """The presented intervals with their colors, with both game rules and
    the coloring rule enforced on every move."""

    def __init__(self) -> None:
        self.moves: list[tuple[Interval, int]] = []

    def __len__(self) -> int:
        return len(self.moves)

    def neighbors(self, iv: Interval) -> list[int]:
        return [i for i, (other, _) in enumerate(self.moves) if overlaps(iv, other)]

    def check_interval(self, iv: Interval) -> list[int]:
        """Validate a presenter move; returns the overlap neighbors."""
        if self.moves:
            last = self.moves[-1][0]
            lo, _, last_lo, _ = _ends(iv, last)
            if lo <= last_lo:
                raise IllegalIntervalError(
                    f"left endpoint {iv.lo} does not increase past {last.lo}")
        nbrs = self.neighbors(iv)
        # Every earlier move starts before iv, so each neighbor holds iv's
        # left end: two of them overlap iff two consecutive ones do.
        for a, b in zip(nbrs, nbrs[1:]):
            if overlaps(self.moves[a][0], self.moves[b][0]):
                raise IllegalIntervalError(
                    f"interval would close a triangle with moves {a} and {b}")
        return nbrs

    def add(self, iv: Interval, color: int, nbrs: Optional[list[int]] = None) -> None:
        """Play ``iv`` in ``color``.  ``nbrs``, when given, must be what
        ``check_interval(iv)`` returned on this transcript as it stands;
        the color is checked against them instead of a fresh scan."""
        if nbrs is None:
            nbrs = self.check_interval(iv)
        if isinstance(color, bool) or not isinstance(color, int) or color < 1:
            raise IllegalColorError(f"colors are positive integers, got {color!r}")
        if any(self.moves[i][1] == color for i in nbrs):
            raise IllegalColorError(f"color {color} already used by an overlap neighbor")
        self.moves.append((iv, color))

    @property
    def colors_used(self) -> int:
        return len({c for _, c in self.moves})


def is_nested_chain(chain: Sequence[tuple[Interval, int]]) -> bool:
    """Whether every two intervals of ``chain`` are nested: sorted by left
    end, and by right end downwards on ties, each contains the next."""
    den = lcm(*{iv.den for iv, _ in chain})
    ends = sorted((iv.ilo * (den // iv.den), -iv.ihi * (den // iv.den)) for iv, _ in chain)
    return all(p[1] <= q[1] for p, q in zip(ends, ends[1:]))


def _assert_certificate(chain: Chain, k: int, lo: int, hi: int) -> None:
    """The certificate of a strategy run in the region [lo, hi] (grid units)."""
    if not chain:
        raise AssertionError("empty certified chain")
    if not is_nested_chain(chain):
        raise AssertionError("certified family is not a nested chain")
    if len({c for _, c in chain}) < k:
        raise AssertionError(f"certified chain carries fewer than {k} colors")
    for iv, _ in chain:
        if not (lo < iv.ilo and iv.ihi < hi):
            raise AssertionError("chain interval leaves the interior of its region")


class Step(Record):
    """One Presenter move, shared by every history that reaches it: the
    interval shown, and ``respond(color)`` giving the next step or the Outcome."""

    def __init__(self, interval: Interval, respond: Callable[[int], Step | Outcome]) -> None:
        set_field(self, "interval", interval)
        set_field(self, "respond", respond)


def grid(k: int) -> int:
    """The denominator of the shortest k-strategy's grid: 2*D(k), with
    D(1) = 6 and D(k) = 8*D(k-1)^2 (12, 576, 1,327,104, 2^26*3^8, ...).

    In [0, 1] the k-strategy computes only multiples of 1/D(k): thirds
    and a midpoint for k = 1.  For k > 1, D = D(k-1) even, the first run
    gives multiples of 1/D; the second runs in [x + s/4, x + 3s/4] (left
    end on 1/(4D), width on 1/(2D)), so gives multiples of 1/(2D^2); the
    bridge's ends and point are means of those, on 1/(8D^2).  The closing
    move halves once more.  So every division in ``_steps`` is exact.
    """
    d = 6
    for _ in range(k - 1):
        d = 8 * d * d
    return 2 * d


def _steps(k: int, den: int, lo: int, hi: int,
           then: Callable[[int, Chain], Step | Outcome]) -> Step:
    """The first step of the k-strategy inside the region [lo, hi] (units
    of 1/den); play goes on with ``then(point, chain)`` once the strategy
    has certified them."""
    def certified(point: int, chain: Chain) -> Step | Outcome:
        _assert_certificate(chain, k, lo, hi)
        return then(point, chain)

    if k == 1:
        third, mid = (hi - lo) // 3, (lo + hi) // 2
        iv = Interval.on_grid(lo + third, hi - third, den)
        return Step(iv, lambda color: certified(mid, ((iv, color),)))

    def inner(x: int, chain: Chain) -> Step | Outcome:
        min_hi = min(iv.ihi for iv, _ in chain)

        def joined(x2: int, chain2: Chain) -> Step | Outcome:
            if {c for _, c in chain} != {c for _, c in chain2}:
                return certified(x2, chain + chain2)
            min_hi2 = min(iv.ihi for iv, _ in chain2)
            max_hi2 = max(iv.ihi for iv, _ in chain2)
            bridge = Interval.on_grid((x2 + min_hi2) // 2, (max_hi2 + min_hi) // 2, den)
            y = (max_hi2 + bridge.ihi) // 2
            return Step(bridge, lambda color: certified(y, chain + ((bridge, color),)))
        quarter = (min_hi - x) // 4
        return _steps(k - 1, den, x + quarter, min_hi - quarter, joined)
    return _steps(k - 1, den, lo, hi, inner)


# The largest k the game is played at: the strategy shows up to 2^k
# intervals, and a first-fit game takes about 6 s at k = 12 (4,096 moves),
# each k more about 4x as long.  Building the first step also nests one
# call per level, so an unbounded k would end in a RecursionError.
MAX_K = 12


def first_step(k: int) -> Step:
    """The shortest k-strategy: the forcing strategy plus one final interval
    overlapping the whole certified chain, pushing Painter to k+1 colors."""
    if k < 1:
        raise ValueError("k must be at least 1")
    if k > MAX_K:
        raise ValueError(f"k must be at most {MAX_K}")
    den = grid(k)

    def close(y: int, chain: Chain) -> Step:
        lo = (y + min(iv.ihi for iv, _ in chain)) // 2
        closer = Interval.on_grid(lo, max(iv.ihi for iv, _ in chain) + (lo - y), den)

        def respond(color: int) -> Outcome:
            final = chain + ((closer, color),)
            if len({c for _, c in final}) < k + 1:
                raise AssertionError("closing interval failed to force a fresh color")
            return y, final
        return Step(closer, respond)
    return _steps(k, den, 0, den, close)


class PresenterSession:
    """A cursor over the shortest strategy's steps for one game."""

    def __init__(self, k: int):
        self._at: Step | Outcome = first_step(k)
        self.current: Optional[Interval] = self._at.interval
        self.certified: Optional[Chain] = None
        self.point: Optional[Rat] = None

    def respond(self, color: int) -> Optional[Interval]:
        """Feed Painter's color for the current interval; returns the next
        interval, or None when the game is over."""
        if not isinstance(self._at, Step):
            raise RuntimeError("game is already over")
        den = self._at.interval.den
        self._at = self._at.respond(color)
        self.current = self._at.interval if isinstance(self._at, Step) else None
        if self.current is None:
            point, self.certified = self._at
            self.point = Fraction(point, den)
        return self.current


Painter = Callable[[GameTranscript, Interval, list[int]], int]


def first_fit(transcript: GameTranscript, iv: Interval, nbrs: list[int]) -> int:
    used = {transcript.moves[i][1] for i in nbrs}
    c = 1
    while c in used:
        c += 1
    return c


def make_repl_painter(input_fn=input, output_fn=print) -> Painter:
    """Interactive Painter: shows the new interval, its overlap neighbors
    and their colors, and re-prompts until it reads a legal color."""

    def painter(transcript: GameTranscript, iv: Interval, nbrs: list[int]) -> int:
        output_fn(f"interval #{len(transcript)}: [{iv.lo}, {iv.hi}]")
        if nbrs:
            for i in nbrs:
                other, c = transcript.moves[i]
                output_fn(f"  overlaps #{i} [{other.lo}, {other.hi}] color {c}")
        else:
            output_fn("  no overlap neighbors")
        forbidden = {transcript.moves[i][1] for i in nbrs}
        while True:
            raw = input_fn("color> ")
            try:
                color = int(raw)
            except ValueError:
                output_fn(f"  not a number: {raw!r}")
                continue
            if color < 1:
                output_fn("  colors are positive integers")
                continue
            if color in forbidden:
                output_fn(f"  color {color} is used by an overlap neighbor")
                continue
            return color

    return painter


class GameResult(Record):
    def __init__(self, k: int, transcript: GameTranscript, colors_used: int, intervals: int,
                 certified_point: Rat, certified_chain: Chain) -> None:
        set_field(self, "k", k)
        set_field(self, "transcript", transcript)
        set_field(self, "colors_used", colors_used)
        set_field(self, "intervals", intervals)
        set_field(self, "certified_point", certified_point)
        set_field(self, "certified_chain", certified_chain)


def run_game(k: int, painter: Painter) -> GameResult:
    """Play the shortest forcing strategy against a Painter policy.

    The transcript enforces legality move by move, and is scanned once per
    move: ``check_interval``'s neighbors go to the Painter and to ``add``.
    The result is checked to use at least k+1 colors within 2**k intervals.
    """
    session = PresenterSession(k)
    transcript = GameTranscript()
    while session.current is not None:
        iv = session.current
        nbrs = transcript.check_interval(iv)
        color = painter(transcript, iv, nbrs)
        transcript.add(iv, color, nbrs)
        session.respond(color)
    if transcript.colors_used < k + 1:
        raise AssertionError(
            f"painter escaped with {transcript.colors_used} colors, expected > {k}")
    if len(transcript) > 2 ** k:
        raise AssertionError(f"strategy used {len(transcript)} > 2^{k} intervals")
    assert session.point is not None and session.certified is not None
    return GameResult(k, transcript, transcript.colors_used, len(transcript),
                      session.point, session.certified)


# Histories grow exponentially in k.  On a 2-vCPU host (Python 3.11) the
# k=4 walk takes about 2 s at budget 5 (66,189 histories, ``encode --k 4``)
# and 2-2.7 s at budget 16 (89,573, the minimax Painter).
SEARCH_LIMIT = 4


class Position(NamedTuple):
    interval: Optional[Interval]  # the next presented interval; None = game over
    legal: tuple[int, ...]        # the canonical colors Painter may give it


def game_tree(k: int, budget: int) -> dict[tuple[int, ...], Position]:
    """Every canonical Painter history against the shortest k-strategy with
    its position, in preorder, on one transcript cut back at each fork."""
    if k > SEARCH_LIMIT:
        raise ValueError(f"game tree search capped at k <= {SEARCH_LIMIT}")
    root = first_step(k)  # refuses k < 1 before the budget is read
    if budget < 1:
        raise ValueError(f"color budget must be at least 1, got {budget}")
    tree: dict[tuple[int, ...], Position] = {}
    transcript = GameTranscript()
    # each entry: a history, the parent's step and the neighbors of its interval
    stack: list[tuple[tuple[int, ...], Step | Outcome, list[int]]] = [((), root, [])]
    while stack:
        colors, step, nbrs = stack.pop()
        if colors:  # play the parent's interval in color colors[-1]
            del transcript.moves[len(colors) - 1:]
            transcript.add(step.interval, colors[-1], nbrs)
            step = step.respond(colors[-1])
        iv = step.interval if isinstance(step, Step) else None
        legal: tuple[int, ...] = ()
        if iv is not None:
            nbrs = transcript.check_interval(iv)
            forbidden = {transcript.moves[i][1] for i in nbrs}
            top = min(max(colors, default=0) + 1, budget)
            legal = tuple(c for c in range(1, top + 1) if c not in forbidden)
        tree[colors] = Position(iv, legal)
        stack.extend((colors + (c,), step, nbrs) for c in reversed(legal))
    return tree


def minimax_verify(k: int, color_budget: Optional[int] = None) -> bool:
    """True iff no Painter strategy survives the shortest k-strategy within
    the color budget (default k): no canonical history ends the game."""
    budget = color_budget if color_budget is not None else k
    return all(pos.interval is not None for pos in game_tree(k, budget).values())


def make_minimax_painter(k: int) -> Painter:
    """A Painter that plays optimally against the shortest k-strategy,
    choosing at each step the smallest color that still achieves the best
    reachable final color count.

    A game has at most 2^k moves, so budget 2^k never caps a color.
    """
    tree = game_tree(k, 2 ** k)
    best: dict[tuple[int, ...], int] = {}
    for colors, pos in reversed(tree.items()):  # children before parents
        best[colors] = (max(colors, default=0) if pos.interval is None
                        else min(best[colors + (c,)] for c in pos.legal))

    def painter(transcript: GameTranscript, iv: Interval, nbrs: list[int]) -> int:
        history = tuple(c for _, c in transcript.moves)
        return min(tree[history].legal, key=lambda c: (best[history + (c,)], c))

    return painter
