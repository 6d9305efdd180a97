import hashlib
import json
import random
from fractions import Fraction

import pytest

from trifree import game, serialize
from trifree.encoding import encode, expand_tree
from trifree.errors import IllegalColorError, IllegalIntervalError
from trifree.game import (
    MAX_K,
    SEARCH_LIMIT,
    GameTranscript,
    Interval,
    PresenterSession,
    Step,
    first_fit,
    game_tree,
    is_nested_chain,
    make_minimax_painter,
    make_repl_painter,
    minimax_verify,
    overlaps,
    run_game,
)
from trifree.shapes import catalog

from _oracles import (
    canonical_sha256,
    chain_at,
    contains,
    contains_ref,
    game_tree_ref,
    neighbor_colors,
    overlaps_ref,
    replay,
)


def test_overlap_predicate():
    assert overlaps(Interval(0, 2), Interval(1, 3))
    assert not overlaps(Interval(0, 4), Interval(1, 2))  # nested
    assert not overlaps(Interval(0, 1), Interval(2, 3))  # disjoint
    assert overlaps(Interval(0, 2), Interval(2, 3))      # closed: touching counts


def _off_grid_tree_intervals(rng: random.Random) -> list[Interval]:
    """The intervals of an encoded k=2 file whose tree ends were edited to
    denominators off the game grid, some made to touch or equal others."""
    tree = expand_tree(2)
    doc = json.loads(serialize.dumps(
        serialize.encoded_to_doc(tree, encode(tree), catalog()["frame"])))
    nodes, stack = [], [doc["tree"]["root"]]
    while stack:
        nodes.append(stack.pop())
        stack.extend(nodes[-1]["children"])
    for node in nodes:
        lo = Fraction(rng.randrange(0, 60), rng.choice((7, 11, 13, 1_000_003)))
        node["lo"], node["hi"] = str(lo), str(lo + Fraction(rng.randrange(1, 40), 17))
    nodes[1]["lo"], nodes[1]["hi"] = nodes[0]["hi"], "999/7"         # touching
    nodes[2]["lo"], nodes[2]["hi"] = nodes[0]["lo"], nodes[0]["hi"]  # equal
    loaded = serialize.doc_to_family(doc)
    return [node.interval for node in loaded.tree_nodes]


def test_interval_predicates_match_the_fraction_oracle():
    rng = random.Random(16)
    small = sorted({Fraction(p, q) for q in (1, 2, 3, 4, 6) for p in range(0, 2 * q + 1)})
    ivs = [Interval(*sorted(rng.sample(small, 2))) for _ in range(60)]
    ivs += [Interval(0, 1), Interval(1, 2), Interval(0, 2), Interval(0, 1),
            Interval(Fraction(1, 3), Fraction(2, 3)), Interval.on_grid(4, 8, 12)]
    ivs += [iv for iv, _ in run_game(4, first_fit).transcript.moves]  # the k=4 grid
    ivs += _off_grid_tree_intervals(rng)
    seen = {"overlap": 0, "touch": 0, "equal": 0, "nested": 0, "cross-grid": 0}
    for a in ivs:
        for b in ivs:
            assert overlaps(a, b) == overlaps_ref(a, b), (a, b)
            assert contains(a, b) == contains_ref(a, b), (a, b)
            assert (a == b) == ((a.lo, a.hi) == (b.lo, b.hi)), (a, b)
            assert a != b or hash(a) == hash(b)
            seen["overlap"] += overlaps_ref(a, b)
            seen["touch"] += a.hi == b.lo
            seen["equal"] += a is not b and a == b
            seen["nested"] += a != b and contains_ref(a, b)
            seen["cross-grid"] += a.den != b.den and a == b
    assert all(seen.values()), seen


def test_first_interval_is_the_middle_third():
    session = PresenterSession(1)
    assert session.current == Interval(Fraction(1, 3), Fraction(2, 3))
    res = run_game(1, first_fit)
    assert res.certified_point == Fraction(1, 2)


def test_sigma_two_versus_first_fit_transcript():
    # before the closing move: 3 intervals, certified chain colored {1, 2}
    session = PresenterSession(2)
    transcript = GameTranscript()
    count = 0
    while session.current is not None:
        iv = session.current
        nbrs = transcript.check_interval(iv)
        color = first_fit(transcript, iv, nbrs)
        transcript.add(iv, color, nbrs)
        session.respond(color)
        count += 1
        if count == 3:
            assert session.certified is None  # strategy body done only after close
    assert count == 4
    chain = session.certified
    body = chain[:-1]  # the certified chain before the closing interval
    assert is_nested_chain(body)
    assert {c for _, c in body} == {1, 2}


def test_run_game_first_fit_counts():
    res = run_game(1, first_fit)
    assert res.intervals == 2 and res.colors_used == 2
    res = run_game(2, first_fit)
    assert res.intervals == 4 and res.colors_used == 3
    res = run_game(8, first_fit)
    assert res.intervals <= 2 ** 8 and res.colors_used >= 9


def test_interval_counts_within_doubling_recurrence():
    bound = {k: 2 ** k for k in (1, 2, 3, 4, 5, 6)}
    for k, cap in bound.items():
        res = run_game(k, first_fit)
        assert res.intervals <= cap


def test_transcript_rules_enforced():
    tr = GameTranscript()
    tr.add(Interval(0, 4), 1)
    with pytest.raises(IllegalIntervalError):
        tr.check_interval(Interval(0, 2))  # left endpoint not increasing
    tr.add(Interval(1, 6), 2)
    with pytest.raises(IllegalIntervalError):
        tr.check_interval(Interval(2, 8))  # would close a triangle
    with pytest.raises(IllegalColorError):
        tr.add(Interval(2, 5), 1)  # overlaps both, color 1 taken
    tr.add(Interval(2, 3), 1)  # nested inside both: color 1 fine


def test_run_game_rejects_cheating_painter():
    def stubborn(transcript, iv, nbrs):
        return 1

    with pytest.raises(IllegalColorError):
        run_game(2, stubborn)


def test_bool_is_not_a_color():
    # True == 1, but a transcript holding it would serialize as "color": true
    with pytest.raises(IllegalColorError):
        run_game(1, lambda transcript, iv, nbrs: 2 if transcript.moves else True)
    with pytest.raises(IllegalColorError):
        GameTranscript().add(Interval(0, 1), True)


def test_legality_checked_after_every_presenter_move():
    for k in (1, 2, 3, 4):
        res = run_game(k, first_fit)
        replay = GameTranscript()
        for iv, c in res.transcript.moves:
            replay.add(iv, c)  # raises if any move was illegal


def test_certified_chain_is_nested_with_enough_colors():
    for k in (1, 2, 3, 4):
        res = run_game(k, first_fit)
        body, closer = res.certified_chain[:-1], res.certified_chain[-1]
        assert is_nested_chain(body)
        assert len({c for _, c in body}) >= k
        assert all(overlaps(closer[0], iv) for iv, _ in body)
        assert len({c for _, c in res.certified_chain}) >= k + 1
        # the certified family is exactly the transcript's tail at the point
        tail = chain_at(res.transcript, res.certified_point)
        assert set(tail) == set(res.certified_chain)


def test_minimax_small_cases():
    assert minimax_verify(1, 1) is True
    assert minimax_verify(2, 2) is True
    assert minimax_verify(2, 3) is False  # three colors suffice at k=2
    assert minimax_verify(3, 3) is True


def test_minimax_rejects_large_k_by_default():
    with pytest.raises(ValueError):
        minimax_verify(SEARCH_LIMIT + 1)


def test_game_tree_rejects_an_empty_budget():
    with pytest.raises(ValueError):
        game_tree(2, 0)


@pytest.mark.parametrize("entry", [
    lambda: PresenterSession(0),
    lambda: run_game(0, first_fit),
    lambda: game_tree(0, 1),
    lambda: game_tree(-1, 0),
    lambda: minimax_verify(0),
    lambda: expand_tree(0),
], ids=["session", "run-game", "game-tree", "game-tree-no-budget", "minimax", "expand-tree"])
def test_k_below_one_is_refused(entry):
    with pytest.raises(ValueError, match="k must be at least 1"):
        entry()


@pytest.mark.parametrize("entry", [
    lambda: PresenterSession(MAX_K + 1),
    lambda: PresenterSession(3000),
    lambda: run_game(MAX_K + 1, first_fit),
    lambda: run_game(3000, first_fit),
], ids=["session", "session-3000", "run-game", "run-game-3000"])
def test_k_above_the_cap_is_refused(entry):
    # the first step nests one call per level: k=3000 must be refused before it
    with pytest.raises(ValueError, match=f"k must be at most {MAX_K}"):
        entry()


def test_minimax_painter_matches_lower_bound():
    for k in (1, 2, 3):
        res = run_game(k, make_minimax_painter(k))
        assert res.colors_used == k + 1  # optimal play still loses, barely


def test_minimax_painter_tie_break_is_pinned():
    # the smallest color among the best-scoring ones, move by move
    res = run_game(3, make_minimax_painter(3))
    assert [c for _, c in res.transcript.moves] == [1, 1, 2, 1, 1, 2, 3, 4]


def test_minimax_painter_replays_each_history_once(monkeypatch):
    histories = len(game_tree(3, 2 ** 3))
    sessions = []
    init = PresenterSession.__init__

    def counted_init(session, *args, **kwargs):
        sessions.append(session)
        init(session, *args, **kwargs)

    monkeypatch.setattr(PresenterSession, "__init__", counted_init)
    run_game(3, make_minimax_painter(3))
    assert len(sessions) <= histories + 1  # one per history, one for the game


def test_game_tree_equals_the_replay_walk():
    # positions and preorder both: make_minimax_painter reads the order
    for k in (1, 2, 3):
        for budget in range(1, 2 ** k + 1):
            assert list(game_tree(k, budget).items()) == \
                list(game_tree_ref(k, budget).items()), (k, budget)


def test_game_tree_plays_each_edge_once(monkeypatch):
    adds, scans, sessions = [], [], []
    add, check = GameTranscript.add, GameTranscript.check_interval
    monkeypatch.setattr(GameTranscript, "add",
                        lambda tr, iv, c, nbrs: adds.append(nbrs) or add(tr, iv, c, nbrs))
    monkeypatch.setattr(GameTranscript, "check_interval",
                        lambda tr, iv: scans.append(iv) or check(tr, iv))
    monkeypatch.setattr(PresenterSession, "__init__",
                        lambda *args, **kwargs: sessions.append(args))
    tree = game_tree(3, 8)
    assert len(adds) == len(tree) - 1
    # one neighbor scan per position with a next interval; each edge reuses it
    assert len(scans) == sum(pos.interval is not None for pos in tree.values())
    assert all(nbrs is not None for nbrs in adds)
    assert sessions == []


def _scripted(*intervals: Interval) -> Step:
    """A Presenter that shows ``intervals`` in order whatever the colors."""
    def step(i: int):
        return Step(intervals[i], lambda color: step(i + 1)) if i < len(intervals) else (0, ())
    return step(0)


@pytest.mark.parametrize("intervals, message", [
    ((Interval(0, 4), Interval(0, 2)), "left endpoint"),
    ((Interval(0, 4), Interval(1, 6), Interval(2, 8)), "triangle"),
], ids=["left-endpoint", "triangle"])
def test_game_tree_checks_every_presented_interval(monkeypatch, intervals, message):
    monkeypatch.setattr(game, "first_step", lambda k: _scripted(*intervals))
    with pytest.raises(IllegalIntervalError, match=message):
        game_tree(2, 2)


def test_game_tree_checks_every_color(monkeypatch):
    add = GameTranscript.add

    def recolor(tr, iv, color, nbrs):  # a walk that gives an interval its neighbor's color
        return add(tr, iv, tr.moves[nbrs[0]][1] if nbrs else color, nbrs)

    monkeypatch.setattr(GameTranscript, "add", recolor)
    with pytest.raises(IllegalColorError, match="already used by an overlap neighbor"):
        game_tree(2, 3)


def test_game_tree_checks_every_certificate(monkeypatch):
    monkeypatch.setattr(game, "is_nested_chain", lambda chain: False)
    with pytest.raises(AssertionError, match="not a nested chain"):
        game_tree(2, 2)


def test_color_renaming_equivariance():
    # the presenter's next move depends only on the color partition
    rng = random.Random(73)
    for _ in range(40):
        colors: list[int] = []
        while True:
            _, iv = replay(2, tuple(colors))
            if iv is None or len(colors) >= 3:
                break
            tr, _ = replay(2, tuple(colors))
            forbidden = neighbor_colors(tr, iv)
            choices = [c for c in range(1, 5) if c not in forbidden]
            colors.append(rng.choice(choices))
        perm = {c: p for c, p in zip((1, 2, 3, 4), rng.sample((5, 6, 7, 8), 4))}
        renamed = tuple(perm[c] for c in colors)
        _, iv_a = replay(2, tuple(colors))
        _, iv_b = replay(2, renamed)
        assert iv_a == iv_b


def test_repl_painter_reprompts_then_plays():
    feed = iter(["zap", "0", "1", "1", "2", "2", "3"])
    lines: list[str] = []
    painter = make_repl_painter(input_fn=lambda _: next(feed),
                                output_fn=lines.append)
    res = run_game(1, painter)
    assert res.colors_used == 2
    assert any("not a number" in line for line in lines)
    assert any("overlaps" in line for line in lines)


def _count_scans(monkeypatch) -> list[Interval]:
    """The intervals ``GameTranscript.neighbors`` is called with from now on."""
    scans: list[Interval] = []
    neighbors = GameTranscript.neighbors

    def counted(transcript, iv):
        scans.append(iv)
        return neighbors(transcript, iv)

    monkeypatch.setattr(GameTranscript, "neighbors", counted)
    return scans


def test_repl_painter_scans_the_transcript_once_per_prompt(monkeypatch):
    feed = iter(["1", "1", "2", "3"])
    painter = make_repl_painter(input_fn=lambda _: next(feed), output_fn=lambda _: None)
    scans = _count_scans(monkeypatch)
    res = run_game(2, painter)
    assert scans == [iv for iv, _ in res.transcript.moves]


def test_run_game_scans_the_transcript_once_per_move(monkeypatch):
    scans = _count_scans(monkeypatch)
    res = run_game(10, first_fit)
    assert res.intervals == len(scans) == 1024


def test_repl_replay_equals_batch_replay():
    feed = iter(["1", "1", "2", "3"])
    painter = make_repl_painter(input_fn=lambda _prompt: next(feed),
                                output_fn=lambda _: None)
    res_a = run_game(2, painter)
    scripted = iter([1, 1, 2, 3])
    res_b = run_game(2, lambda tr, iv, nbrs: next(scripted))
    assert res_a.transcript.moves == res_b.transcript.moves


# SHA-256 of each output, pinned on the Fraction implementation of the game.
_ENCODED_GOLDEN = [
    (1, None, "baeaf85f2df9231a8815302a6e04b9f187153db79ab84b7132eb879b83113855"),
    (2, None, "5bf3517330179a914e1b5dc9fa26b40c544261b089ba8fe9fe53875fb9f2259f"),
    (3, None, "4b11c97f50905ca4c5cf8e908d998a08e681b91019ec176045100f4aa0970192"),
    (2, 2, "ab523d4d05ec3af2e1d98bea36c6ac079bcb826bfec5314866ce3d326aa2bde7"),
]
_TRANSCRIPT_GOLDEN = [
    ("minimax", 1, "957e821c415c10f9d28187f9a41b43947b2232abf60e9d9dd54613f89f5b3936"),
    ("minimax", 2, "d25a4ccf810d1d3028f5d9ecc8511114692493cc8aa18a000fc1277f5437aae2"),
    ("minimax", 3, "d18ad99056710ab6b26372e265e5baa4e7f572a9eb4bf6c19b8f2b50446c4b06"),
    ("firstfit", 1, "05738f4b5a9c9d9d6fb759c0f80f342166d5f2bca75d5ebdb0e42196e2024aa5"),
    ("firstfit", 2, "dbc1ca1862ea53f5d84f91e38e6f0e29903f1d1f7c67766bed10679276c4aae6"),
    ("firstfit", 3, "06ff626c5bfb54484c76eb0b0c06b6e3499097e6c16b0d60704c658791472b11"),
    ("firstfit", 4, "b536614a52e35a37efb2d8cc8c46a0eb9c380e0b8e655c604ed8484c9299e5e4"),
    ("firstfit", 5, "2fc37c765402ea9e9d68c6b831ec062a3840436eb7480717058c33464efd19a3"),
    ("firstfit", 6, "25e97e08b37b307451344c92dadd82a4cd5104687d2e70856879a04abc3a0861"),
]
_TREE_GOLDEN = [
    (1, 1, "16bf77a18a34e2b1f4ca4e0e31c04c88f85c3093cf0f1edae832830b5e364567"),
    (1, 2, "b9c2007aad4c9755e856716a6117283d47f045436497b66826efc8b31a1b4abe"),
    (2, 1, "152cefef4f1434b6b267ad73656cc7a52e538b9463ce0e79e9aadc027d24b64b"),
    (2, 2, "33f92ec76477d6b70bf54c8955fc779d9371a596877ca6a885f20cd47d6da1e8"),
    (2, 3, "823b16770cc763b772cb7b43e8b6154c728c6fa5d3b571da5d18cbaeab22fb0f"),
    (2, 4, "823b16770cc763b772cb7b43e8b6154c728c6fa5d3b571da5d18cbaeab22fb0f"),
    (3, 1, "152cefef4f1434b6b267ad73656cc7a52e538b9463ce0e79e9aadc027d24b64b"),
    (3, 2, "ab060a5808cce9a47d6d4266792d1eb0870443755d11a490ec9295b75c682030"),
    (3, 3, "5f65b417e6c4764df179abf7c9752c3665a0d06993b6696a0431f4a7e77a9c41"),
    (3, 4, "24cb3a936158e5f25410ee380b3c29a173c9bab7563d3793c73b4aa6efb4177c"),
    (3, 8, "916685641b61116ad2b03e648514508a30f7209b272dba7e71488a9ef0850ff6"),
]


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


@pytest.mark.parametrize("k, budget, digest", _ENCODED_GOLDEN,
                         ids=[f"k{k}-budget-{b or 'default'}" for k, b, _ in _ENCODED_GOLDEN])
def test_encoded_output_is_byte_identical(k, budget, digest):
    tree = expand_tree(k, budget)
    doc = serialize.encoded_to_doc(tree, encode(tree), catalog()["frame"])
    assert canonical_sha256(serialize.dumps(doc)) == digest


@pytest.mark.parametrize("painter, k, digest", _TRANSCRIPT_GOLDEN,
                         ids=[f"{p}-k{k}" for p, k, _ in _TRANSCRIPT_GOLDEN])
def test_game_transcript_is_byte_identical(painter, k, digest):
    policy = make_minimax_painter(k) if painter == "minimax" else first_fit
    doc = serialize.transcript_to_doc(run_game(k, policy), painter)
    assert canonical_sha256(serialize.dumps(doc)) == digest


@pytest.mark.parametrize("k, budget, digest", _TREE_GOLDEN,
                         ids=[f"k{k}-budget{b}" for k, b, _ in _TREE_GOLDEN])
def test_game_tree_is_pinned(k, budget, digest):
    assert _sha256(repr(sorted(game_tree(k, budget).items()))) == digest
