"""Differential tests of the row-based solvers against the brute-force
oracles, on games with heavy payoff ties, 1 to 4 players, random
survivor sets and long elimination ladders."""

import random

from nonnash import (
    SplitMix64,
    build_report,
    eliminate_round,
    gen_random_game,
    gen_random_symmetric_game,
    is_minimax_dominated,
    is_symmetric,
    iterate_elimination,
    maximin_values,
    new_game,
    pure_nash,
)
from nonnash.game_core import full_sets, profiles

from oracles import (
    dominators_oracle,
    elimination_oracle,
    maximin_oracle,
    nash_oracle,
    symmetric_oracle,
)

# (players, largest strategy count) keeping every game below ~100 cells.
SHAPES = ((1, 6), (2, 6), (3, 4), (4, 3))


def ladder_game(k: int, seed: int):
    """A 2-player symmetric game on which elimination deletes one strategy
    per player in each of k - 1 rounds: u_i(p) = (k - max(p))·2k + (k - p_i)
    under a seeded increasing payoff relabelling and strategy permutation."""
    rng = random.Random(seed)
    perm = sorted(range(k), key=lambda _: rng.random())
    raw = {(a, b): (k - max(a, b)) * 2 * k + (k - a) for a in range(k) for b in range(k)}
    relabel = {}
    level = 0
    for value in sorted(set(raw.values())):
        level += 1 + int(rng.random() * 1000)
        relabel[value] = level
    cells = [
        ((perm[a], perm[b]), (relabel[raw[a, b]], relabel[raw[b, a]]))
        for a in range(k)
        for b in range(k)
    ]
    return new_game([[f"s{v}" for v in range(k)]] * 2, cells)


def sample_games():
    rng = SplitMix64(20170)
    for hi in (2, 99):
        for n, k_max in SHAPES:
            for _ in range(12):
                counts = [rng.next_in_range(1, k_max) for _ in range(n)]
                yield gen_random_game(n, counts, 0, hi, rng.next_u64())
                k = rng.next_in_range(1, k_max)
                yield gen_random_symmetric_game(n, k, 0, hi, rng.next_u64())
    for k in (2, 3, 7, 12):
        yield ladder_game(k, seed=k)


GAMES = list(sample_games())


def random_survivors(g, rng):
    """A random non-empty subset of every player's strategies."""
    out = []
    for k in g.strategy_counts:
        alive = [v for v in range(k) if rng.next_u64() % 3]
        out.append(tuple(alive) or (rng.next_in_range(0, k - 1),))
    return tuple(out)


def test_sample_exercises_deep_and_multiplayer_eliminations():
    traces = [iterate_elimination(g) for g in GAMES]
    assert max(len(t.rounds) for t in traces) == 11
    assert any(t.rounds and g.n_players >= 3 for g, t in zip(GAMES, traces))
    # Both elimination paths stay under the oracle: a round 1 that deletes
    # nothing is decided from row minima and maxima, one that deletes
    # something sorts the rows.  (nothing deleted, something deleted):
    by_players = {n: [0, 0] for n in (2, 3, 4)}
    for g, t in zip(GAMES, traces):
        if g.n_players in by_players:
            by_players[g.n_players][bool(t.rounds)] += 1
    assert by_players == {2: [31, 21], 3: [39, 9], 4: [41, 7]}


def test_iterate_elimination_matches_oracle():
    for index, g in enumerate(GAMES):
        trace = iterate_elimination(g)
        expected = elimination_oracle(g, full_sets(g))
        assert (trace.rounds, trace.final_survivors) == expected, index


def test_report_maximin_matches_oracle():
    """A report reads maximin off round 1 of its elimination run, which
    mirrors player 0 on symmetric games and tracks every player otherwise."""
    shapes = {
        "unequal counts": 0, "round 1 deletes": 0, "one player": 0,
        "one strategy": 0, "4-player symmetric": 0,
    }
    for index, g in enumerate(GAMES):
        report = build_report(g)
        assert report.maximin == maximin_values(g) == maximin_oracle(g), index
        counts = g.strategy_counts
        shapes["unequal counts"] += len(set(counts)) > 1
        shapes["round 1 deletes"] += bool(report.trace.rounds)
        shapes["one player"] += g.n_players == 1
        shapes["one strategy"] += 1 in counts
        shapes["4-player symmetric"] += g.n_players == 4 and report.symmetric and counts[0] > 1
    assert min(shapes.values()) >= 10, shapes
    # the ladders, the last four games, delete in round 1 on player 0's rows
    assert all(build_report(g).trace.rounds for g in GAMES[-4:])


def test_eliminate_round_and_dominance_match_oracle():
    rng = SplitMix64(2017)
    for index, g in enumerate(GAMES):
        for _ in range(4):
            s = random_survivors(g, rng)
            rounds, _ = elimination_oracle(g, s)
            batch = list(rounds[0]) if rounds else []
            expected = tuple(
                tuple(a for a in alive if (i, a) not in batch)
                for i, alive in enumerate(s)
            )
            assert eliminate_round(g, s) == (expected, batch), (index, s)
            for i, alive in enumerate(s):
                for a in alive:
                    dominators = dominators_oracle(g, s, i, a)
                    witness = dominators[0] if dominators else None
                    result = is_minimax_dominated(g, s, i, a)
                    assert result == (bool(dominators), witness), (index, s, i, a)


def test_pure_nash_matches_oracle():
    for index, g in enumerate(GAMES):
        assert pure_nash(g) == nash_oracle(g), index


def test_is_symmetric_matches_oracle_under_one_payoff_edit():
    rng = SplitMix64(99)
    symmetric = [g for g in GAMES if g.n_players > 1 and is_symmetric(g)]
    assert len(symmetric) > 20
    for g in symmetric:
        n, k = g.n_players, g.strategy_counts[0]
        on_diagonal = (rng.next_in_range(0, k - 1),) * n
        anywhere = tuple(rng.next_in_range(0, k - 1) for _ in range(n))
        for target in (on_diagonal, anywhere):
            edit = (target, rng.next_in_range(0, n - 1))
            cells = [
                (p, tuple(v + 1 if (p, i) == edit else v for i, v in enumerate(u)))
                for p, u in zip(profiles(g), g.payoffs)
            ]
            h = new_game(g.strategy_labels, cells)
            assert is_symmetric(h) == symmetric_oracle(h), edit
