import random
from fractions import Fraction

import pytest

from trifree.encoding import expand_tree
from trifree.errors import IllegalColorError, IllegalIntervalError
from trifree.game import (
    MAX_K,
    GameTranscript,
    Interval,
    PresenterSession,
    first_fit,
    game_tree,
    is_nested_chain,
    make_minimax_painter,
    make_repl_painter,
    minimax_verify,
    overlaps,
    run_game,
)

from _oracles import chain_at, game_tree_ref, replay


def test_overlap_predicate():
    assert overlaps(Interval(0, 2), Interval(1, 3))
    assert not overlaps(Interval(0, 4), Interval(1, 2))  # nested
    assert not overlaps(Interval(0, 1), Interval(2, 3))  # disjoint
    assert overlaps(Interval(0, 2), Interval(2, 3))      # closed: touching counts


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
        color = first_fit(transcript, iv)
        transcript.add(iv, color)
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
    def stubborn(transcript, iv):
        return 1

    with pytest.raises(IllegalColorError):
        run_game(2, stubborn)


def test_bool_is_not_a_color():
    # True == 1, but a transcript holding it would serialize as "color": true
    with pytest.raises(IllegalColorError):
        run_game(1, lambda transcript, iv: 2 if transcript.moves else True)
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
        minimax_verify(4)


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
    adds, sessions = [], []
    add = GameTranscript.add
    monkeypatch.setattr(GameTranscript, "add",
                        lambda tr, iv, c: adds.append(c) or add(tr, iv, c))
    monkeypatch.setattr(PresenterSession, "__init__",
                        lambda *args, **kwargs: sessions.append(args))
    tree = game_tree(3, 8)
    assert len(adds) == len(tree) - 1
    assert sessions == []


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
            forbidden = tr.neighbor_colors(iv)
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


def test_repl_replay_equals_batch_replay():
    feed = iter(["1", "1", "2", "3"])
    painter = make_repl_painter(input_fn=lambda _prompt: next(feed),
                                output_fn=lambda _: None)
    res_a = run_game(2, painter)
    scripted = iter([1, 1, 2, 3])
    res_b = run_game(2, lambda tr, iv: next(scripted))
    assert res_a.transcript.moves == res_b.transcript.moves
