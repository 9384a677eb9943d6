"""Equivariance referee: renaming strategies or players carries every
solution set along.

A move is a strategy permutation sigma[i] per player and a player
permutation pi.  Player i of the game becomes player pi[i] of the moved
game, and their strategy a becomes strategy sigma[i][a], label and all;
the moved game pays player pi[i] at the moved profile what the game paid
player i.  A symmetric game takes one sigma shared by every player, so its
moved game is symmetric too.  The moved game is built cell by cell
through ``new_game``, not through any library helper.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from nonnash import (
    NotSymmetric,
    build_report,
    gen_random_game,
    gen_random_symmetric_game,
    is_symmetric,
    new_game,
    profiles,
)
from nonnash.verify import CHECKERS


@st.composite
def moved_games(draw):
    """(game, sigma, pi) with 1-4 players; payoffs in 0..3 make ties and
    eliminations common."""
    n = draw(st.integers(1, 4))
    seed = draw(st.integers(0, 2**64 - 1))
    if draw(st.booleans()):
        g = gen_random_symmetric_game(n, draw(st.integers(2, 3)), 0, 3, seed)
    else:
        counts = draw(st.lists(st.integers(1, 3), min_size=n, max_size=n))
        g = gen_random_game(n, counts, 0, 3, seed)
    if is_symmetric(g):
        sigma = [draw(st.permutations(range(g.strategy_counts[0])))] * n
    else:
        sigma = [draw(st.permutations(range(k))) for k in g.strategy_counts]
    pi = draw(st.permutations(range(n)))
    return g, sigma, pi


def move_game(g, sigma, pi):
    n = g.n_players
    labels = [None] * n
    for i, player_labels in enumerate(g.strategy_labels):
        moved = [None] * len(player_labels)
        for a, label in enumerate(player_labels):
            moved[sigma[i][a]] = label
        labels[pi[i]] = moved
    cells = []
    for p, vec in zip(profiles(g), g.payoffs):
        moved_vec = [None] * n
        for i in range(n):
            moved_vec[pi[i]] = vec[i]
        cells.append((move_profile(p, sigma, pi), tuple(moved_vec)))
    return new_game(labels, cells)


def move_profile(p, sigma, pi):
    moved = [None] * len(p)
    for i, a in enumerate(p):
        moved[pi[i]] = sigma[i][a]
    return tuple(moved)


def move_pairs(pairs, sigma, pi):
    """(player, strategy) pairs, moved."""
    return {(pi[i], sigma[i][a]) for i, a in pairs}


def alive_pairs(report):
    """(player, strategy) pairs that survive elimination."""
    return [
        (i, a) for i, alive in enumerate(report.trace.final_survivors) for a in alive
    ]


def verdicts(report):
    """Each checker's `passed`, or None where it needs a symmetric game."""
    out = {}
    for name, checker in CHECKERS.items():
        try:
            out[name] = checker(report, 3, 0).passed
        except NotSymmetric:
            out[name] = None
    return out


@given(moved_games())
@settings(max_examples=300, deadline=None)
def test_solutions_follow_relabelling(case):
    g, sigma, pi = case
    h = move_game(g, sigma, pi)
    r, m = build_report(g), build_report(h)

    def moved(collection):
        return {move_profile(p, sigma, pi) for p in collection}

    assert m.symmetric == r.symmetric
    assert set(m.nash) == moved(r.nash)
    assert set(m.individually_rational) == moved(r.individually_rational)
    assert [m.maximin[pi[i]] for i in range(g.n_players)] == list(r.maximin)
    if r.symmetric:
        assert set(m.hofstadter) == moved(r.hofstadter)
        assert {move_profile(p, sigma, pi): t for p, t in r.regions.items()} == m.regions
    else:
        assert m.hofstadter is None and m.regions is None

    assert set(alive_pairs(m)) == move_pairs(alive_pairs(r), sigma, pi)
    assert len(m.trace.rounds) == len(r.trace.rounds)
    for batch, moved_batch in zip(r.trace.rounds, m.trace.rounds):
        assert set(moved_batch) == move_pairs(batch, sigma, pi)

    assert verdicts(m) == verdicts(r)

