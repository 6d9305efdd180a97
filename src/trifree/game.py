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

All placements are fixed rational rules, so runs are reproducible and
every claimed containment is asserted during play.

``game_tree`` is the one walk over Painter's side of the game: every
history of canonical colors, where a move may reuse a color already seen
or open the next fresh one (colors 1..min(max_used+1, budget)), so every
Painter strategy appears once up to renaming.  ``minimax_verify``, the
minimax Painter and ``encoding.expand_tree`` all read that walk.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Iterator, NamedTuple, Optional, Sequence

from .errors import IllegalColorError, IllegalIntervalError
from .geometry import Rat, as_rat

Chain = tuple[tuple["Interval", int], ...]


@dataclass(frozen=True)
class Interval:
    lo: Rat
    hi: Rat

    def __post_init__(self):
        object.__setattr__(self, "lo", as_rat(self.lo))
        object.__setattr__(self, "hi", as_rat(self.hi))
        if self.lo >= self.hi:
            raise ValueError(f"empty interval [{self.lo}, {self.hi}]")

    def contains(self, other: "Interval") -> bool:
        return self.lo <= other.lo and other.hi <= self.hi

    @property
    def midpoint(self) -> Rat:
        return (self.lo + self.hi) / 2


def overlaps(a: Interval, b: Interval) -> bool:
    """Intersecting but not nested."""
    if a.hi < b.lo or b.hi < a.lo:
        return False
    return not (a.contains(b) or b.contains(a))


class GameTranscript:
    """The presented intervals with their colors, with both game rules and
    the coloring rule enforced on every move."""

    def __init__(self) -> None:
        self.moves: list[tuple[Interval, int]] = []

    def __len__(self) -> int:
        return len(self.moves)

    def neighbors(self, iv: Interval) -> list[int]:
        return [i for i, (other, _) in enumerate(self.moves) if overlaps(iv, other)]

    def neighbor_colors(self, iv: Interval) -> set[int]:
        return {self.moves[i][1] for i in self.neighbors(iv)}

    def check_interval(self, iv: Interval) -> list[int]:
        """Validate a presenter move; returns the overlap neighbors."""
        if self.moves and iv.lo <= self.moves[-1][0].lo:
            raise IllegalIntervalError(
                f"left endpoint {iv.lo} does not increase past {self.moves[-1][0].lo}")
        nbrs = self.neighbors(iv)
        for a in range(len(nbrs)):
            for b in range(a + 1, len(nbrs)):
                if overlaps(self.moves[nbrs[a]][0], self.moves[nbrs[b]][0]):
                    raise IllegalIntervalError(
                        f"interval would close a triangle with moves "
                        f"{nbrs[a]} and {nbrs[b]}")
        return nbrs

    def add(self, iv: Interval, color: int) -> None:
        nbrs = self.check_interval(iv)
        if not isinstance(color, int) or color < 1:
            raise IllegalColorError(f"colors are positive integers, got {color!r}")
        clash = {self.moves[i][1] for i in nbrs}
        if color in clash:
            raise IllegalColorError(f"color {color} already used by an overlap neighbor")
        self.moves.append((iv, color))

    @property
    def colors_used(self) -> int:
        return len({c for _, c in self.moves})


def is_nested_chain(chain: Sequence[tuple[Interval, int]]) -> bool:
    ivs = sorted((iv for iv, _ in chain), key=lambda v: (v.lo, -v.hi))
    return all(ivs[i].contains(ivs[i + 1]) for i in range(len(ivs) - 1))


def _assert_certificate(chain: Chain, k: int, region: Interval) -> None:
    if not chain:
        raise AssertionError("empty certified chain")
    if not is_nested_chain(chain):
        raise AssertionError("certified family is not a nested chain")
    if len({c for _, c in chain}) < k:
        raise AssertionError(f"certified chain carries fewer than {k} colors")
    for iv, _ in chain:
        if not (region.lo < iv.lo and iv.hi < region.hi):
            raise AssertionError("chain interval leaves the interior of its region")


def _strategy(k: int, region: Interval) -> Iterator[Interval]:
    """Generator protocol: yields each interval, receives its color via
    send(); returns (certified point, certified chain)."""
    if k == 1:
        third = (region.hi - region.lo) / 3
        iv = Interval(region.lo + third, region.hi - third)
        color = yield iv
        chain: Chain = ((iv, color),)
        _assert_certificate(chain, 1, region)
        return iv.midpoint, chain

    x, chain = yield from _strategy(k - 1, region)
    min_hi = min(iv.hi for iv, _ in chain)
    span = min_hi - x
    inner_region = Interval(x + span / 4, x + 3 * span / 4)
    x2, chain2 = yield from _strategy(k - 1, inner_region)

    colors1 = {c for _, c in chain}
    colors2 = {c for _, c in chain2}
    if colors1 != colors2:
        combined = chain + chain2
        _assert_certificate(combined, k, region)
        return x2, combined

    min_hi2 = min(iv.hi for iv, _ in chain2)
    max_hi2 = max(iv.hi for iv, _ in chain2)
    bridge = Interval((x2 + min_hi2) / 2, (max_hi2 + min_hi) / 2)
    color = yield bridge
    y = (max_hi2 + bridge.hi) / 2
    combined = chain + ((bridge, color),)
    _assert_certificate(combined, k, region)
    return y, combined


def shortest_strategy(k: int, region: Interval = Interval(0, 1)) -> Iterator[Interval]:
    """The forcing strategy plus one final interval overlapping the whole
    certified chain, pushing Painter to k+1 colors."""
    y, chain = yield from _strategy(k, region)
    min_hi = min(iv.hi for iv, _ in chain)
    max_hi = max(iv.hi for iv, _ in chain)
    lo = (y + min_hi) / 2
    closer = Interval(lo, max_hi + (lo - y))
    color = yield closer
    final = chain + ((closer, color),)
    if len({c for _, c in final}) < k + 1:
        raise AssertionError("closing interval failed to force a fresh color")
    return y, final


class PresenterSession:
    """Step interface over the shortest strategy for one game."""

    def __init__(self, k: int, region: Interval = Interval(0, 1)):
        self.k = k
        self._gen = shortest_strategy(k, region)
        self.current: Optional[Interval] = next(self._gen)
        self.certified: Optional[Chain] = None
        self.point: Optional[Rat] = None

    def respond(self, color: int) -> Optional[Interval]:
        """Feed Painter's color for the current interval; returns the next
        interval, or None when the game is over."""
        if self.current is None:
            raise RuntimeError("game is already over")
        try:
            self.current = self._gen.send(color)
        except StopIteration as stop:
            self.current = None
            self.point, self.certified = stop.value
        return self.current


Painter = Callable[[GameTranscript, Interval], int]


def first_fit(transcript: GameTranscript, iv: Interval) -> int:
    used = transcript.neighbor_colors(iv)
    c = 1
    while c in used:
        c += 1
    return c


def make_repl_painter(input_fn=input, output_fn=print) -> Painter:
    """Interactive Painter: shows the new interval, its overlap neighbors
    and their colors, and re-prompts until it reads a legal color."""

    def painter(transcript: GameTranscript, iv: Interval) -> int:
        nbrs = transcript.neighbors(iv)
        output_fn(f"interval #{len(transcript)}: [{iv.lo}, {iv.hi}]")
        if nbrs:
            for i in nbrs:
                other, c = transcript.moves[i]
                output_fn(f"  overlaps #{i} [{other.lo}, {other.hi}] color {c}")
        else:
            output_fn("  no overlap neighbors")
        forbidden = transcript.neighbor_colors(iv)
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


@dataclass(frozen=True)
class GameResult:
    k: int
    transcript: GameTranscript = field(compare=False)
    colors_used: int
    intervals: int
    certified_point: Rat
    certified_chain: Chain


def run_game(k: int, painter: Painter) -> GameResult:
    """Play the shortest forcing strategy against a Painter policy.

    The transcript enforces legality move by move; the result is checked
    to use at least k+1 colors within at most 2**k intervals.
    """
    session = PresenterSession(k)
    transcript = GameTranscript()
    while session.current is not None:
        iv = session.current
        color = painter(transcript, iv)
        transcript.add(iv, color)
        session.respond(color)
    if transcript.colors_used < k + 1:
        raise AssertionError(
            f"painter escaped with {transcript.colors_used} colors, expected > {k}")
    if len(transcript) > 2 ** k:
        raise AssertionError(f"strategy used {len(transcript)} > 2^{k} intervals")
    assert session.point is not None and session.certified is not None
    return GameResult(k, transcript, transcript.colors_used, len(transcript),
                      session.point, session.certified)


# Histories grow exponentially in k: one k=4 walk takes tens of seconds.
SEARCH_LIMIT = 3


class Position(NamedTuple):
    interval: Optional[Interval]  # the next presented interval; None = game over
    legal: tuple[int, ...]        # the canonical colors Painter may give it


def _replay(k: int, colors: Sequence[int],
            region: Interval) -> tuple[GameTranscript, Optional[Interval]]:
    """Rebuild the state after the given Painter responses; returns the
    transcript so far and the next presented interval (None = game over)."""
    session = PresenterSession(k, region)
    transcript = GameTranscript()
    for color in colors:
        assert session.current is not None
        transcript.add(session.current, color)
        session.respond(color)
    return transcript, session.current


def game_tree(k: int, budget: int) -> dict[tuple[int, ...], Position]:
    """Every canonical Painter history against the shortest k-strategy with
    its position, in preorder; each is replayed once under the game rules."""
    if k > SEARCH_LIMIT:
        raise ValueError(f"game tree search capped at k <= {SEARCH_LIMIT}")
    if budget < 1:
        raise ValueError(f"color budget must be at least 1, got {budget}")
    tree: dict[tuple[int, ...], Position] = {}
    stack: list[tuple[int, ...]] = [()]
    while stack:
        colors = stack.pop()
        transcript, iv = _replay(k, colors, Interval(0, 1))
        legal: tuple[int, ...] = ()
        if iv is not None:
            forbidden = transcript.neighbor_colors(iv)
            top = min(max(colors, default=0) + 1, budget)
            legal = tuple(c for c in range(1, top + 1) if c not in forbidden)
        tree[colors] = Position(iv, legal)
        stack.extend(colors + (c,) for c in reversed(legal))
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

    def painter(transcript: GameTranscript, iv: Interval) -> int:
        history = tuple(c for _, c in transcript.moves)
        return min(tree[history].legal, key=lambda c: (best[history + (c,)], c))

    return painter
