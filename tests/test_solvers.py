import itertools
import random

import pytest

import nonnash.solvers
from nonnash import (
    DeadStrategy,
    EliminationTrace,
    GameDocument,
    IndexOutOfRange,
    NotSymmetric,
    RegionTag,
    SplitMix64,
    build_report,
    elimination_ladder,
    eliminate_round,
    gen_random_game,
    gen_random_symmetric_game,
    hofstadter_equilibria,
    individually_rational_profiles,
    is_minimax_dominated,
    is_symmetric,
    iterate_elimination,
    maximin_values,
    minimax_rationalizable_profiles,
    new_game,
    parse_game,
    payoff,
    prisoners_dilemma,
    pure_nash,
    restrict,
    serialize_game,
)
from nonnash.game_core import full_sets, profiles

from oracles import (
    all_profiles,
    apply_payoff_map,
    flags_oracle,
    maximin_oracle,
    nash_oracle,
    random_increasing_map,
)
from pinned_games import PINNED_GAMES


class TestPureNash:
    def test_pd(self, pd):
        assert pure_nash(pd) == [(0, 0)]

    def test_chicken(self, chicken_game):
        assert pure_nash(chicken_game) == [(0, 1), (1, 0)]

    def test_coordination(self, coordination_game):
        assert pure_nash(coordination_game) == [(0, 0), (1, 1)]

    def test_3x3(self, g3x3):
        assert pure_nash(g3x3) == [(0, 0)]

    def test_matches_oracle_random(self):
        for j in range(50):
            g = gen_random_game(2, (3, 3), 0, 5, seed=1000 + j)
            assert pure_nash(g) == nash_oracle(g)


class TestHofstadter:
    def test_pd(self, pd):
        assert hofstadter_equilibria(pd) == [(1, 1)]

    def test_chicken(self, chicken_game):
        assert hofstadter_equilibria(chicken_game) == [(1, 1)]

    def test_coordination(self, coordination_game):
        assert hofstadter_equilibria(coordination_game) == [(1, 1)]

    def test_3x3_diagonal_scan(self, g3x3):
        # diagonal payoffs are (9, 7, 3); the max sits at (A, A)
        assert hofstadter_equilibria(g3x3) == [(0, 0)]

    def test_rejects_asymmetric(self):
        g = gen_random_game(2, (2, 3), 0, 9, seed=2)
        with pytest.raises(NotSymmetric):
            hofstadter_equilibria(g)

    def test_all_ties_returned(self):
        g = new_game(
            [["x", "y"], ["x", "y"]],
            [((0, 0), (5, 5)), ((0, 1), (1, 2)), ((1, 0), (2, 1)), ((1, 1), (5, 5))],
        )
        assert hofstadter_equilibria(g) == [(0, 0), (1, 1)]

    def test_nonempty_subset_of_diagonal(self):
        for j in range(40):
            g = gen_random_symmetric_game(2, 2 + j % 4, 0, 20, seed=500 + j)
            eq = hofstadter_equilibria(g)
            assert eq
            assert set(eq) <= {(a, a) for a in range(2 + j % 4)}

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_best_of_every_diagonal_profile(self, n):
        # a diagonal profile read cell by cell, not off the strided slice
        for j in range(12):
            k = 2 + j % 3
            g = gen_random_symmetric_game(n, k, 0, 3, seed=700 + j)
            diagonal = [(a,) * n for a in range(k)]
            best = max(payoff(g, p, 0) for p in diagonal)
            assert hofstadter_equilibria(g) == [p for p in diagonal if payoff(g, p, 0) == best]


class TestMaximin:
    def test_pd(self, pd):
        assert maximin_values(pd) == (1, 1)

    def test_chicken(self, chicken_game):
        assert maximin_values(chicken_game) == (1, 1)

    def test_coordination_brute_force(self, coordination_game):
        # row minima are 0 for both strategies, for both players
        assert maximin_values(coordination_game) == (0, 0)
        assert maximin_oracle(coordination_game) == (0, 0)

    def test_3x3(self, g3x3):
        assert maximin_values(g3x3) == (5, 5)

    def test_single_player(self):
        g = new_game([["a", "b"]], [((0,), (4,)), ((1,), (9,))])
        assert maximin_values(g) == (9,)

    def test_matches_oracle_random(self):
        for j in range(50):
            g = gen_random_game(3, (2, 3, 2), -9, 9, seed=4000 + j)
            assert maximin_values(g) == maximin_oracle(g)


class TestIndividuallyRational:
    def test_pd(self, pd):
        assert individually_rational_profiles(pd) == [(0, 0), (1, 1)]

    def test_chicken(self, chicken_game):
        assert individually_rational_profiles(chicken_game) == [(0, 1), (1, 0), (1, 1)]

    def test_coordination_all(self, coordination_game):
        assert individually_rational_profiles(coordination_game) == [
            (0, 0), (0, 1), (1, 0), (1, 1),
        ]

    def test_3x3(self, g3x3):
        assert individually_rational_profiles(g3x3) == [(0, 0), (0, 1), (1, 0), (1, 1)]

    # Asymmetric shapes with unequal strategy counts and a one-cell game, with
    # payoffs over -9..9, over 0..1 (mostly ties) and all equal.
    @pytest.mark.parametrize("seed", range(3))
    @pytest.mark.parametrize("lo, hi", [(-9, 9), (0, 1), (5, 5)])
    @pytest.mark.parametrize("counts", [(2, 3), (3, 1), (2, 3, 4), (1, 1)])
    def test_mask_matches_the_oracle(self, counts, lo, hi, seed):
        g = gen_random_game(len(counts), counts, lo, hi, seed=seed)
        r = build_report(g)
        floors = maximin_oracle(g)
        assert r.ir_mask == bytes(
            all(payoff(g, p, i) >= floors[i] for i in range(g.n_players))
            for p in all_profiles(g)
        )
        assert r.individually_rational == tuple(individually_rational_profiles(g))
        assert bytes(code >> 2 & 1 for code in r.codes) == r.ir_mask


class TestMinimaxDominance:
    def test_3x3_full_sets_c_dominated(self, g3x3):
        dominated, witness = is_minimax_dominated(g3x3, full_sets(g3x3), 0, 2)
        assert dominated
        assert witness == 0  # both A and B qualify; lowest index returned

    def test_3x3_reduced_b_dominated_by_a(self, g3x3):
        dominated, witness = is_minimax_dominated(g3x3, [(0, 1), (0, 1)], 0, 1)
        assert dominated
        assert witness == 0

    def test_3x3_b_not_dominated_in_full_game(self, g3x3):
        dominated, witness = is_minimax_dominated(g3x3, full_sets(g3x3), 0, 1)
        assert not dominated
        assert witness is None

    def test_pd_nothing_dominated(self, pd):
        for player in range(2):
            for strategy in range(2):
                dominated, _ = is_minimax_dominated(pd, full_sets(pd), player, strategy)
                assert not dominated

    def test_dead_strategy_rejected(self, g3x3):
        with pytest.raises(DeadStrategy):
            is_minimax_dominated(g3x3, [(0, 1), (0, 1)], 0, 2)

    def test_bad_indices(self, g3x3):
        with pytest.raises(IndexOutOfRange):
            is_minimax_dominated(g3x3, full_sets(g3x3), 2, 0)
        with pytest.raises(IndexOutOfRange):
            is_minimax_dominated(g3x3, full_sets(g3x3), 0, 5)


class TestEliminateRound:
    def test_3x3_first_round(self, g3x3):
        survivors, batch = eliminate_round(g3x3, full_sets(g3x3))
        assert batch == [(0, 2), (1, 2)]
        assert survivors == ((0, 1), (0, 1))

    def test_3x3_second_round(self, g3x3):
        survivors, batch = eliminate_round(g3x3, ((0, 1), (0, 1)))
        assert batch == [(0, 1), (1, 1)]
        assert survivors == ((0,), (0,))

    def test_pd_empty_batch(self, pd):
        survivors, batch = eliminate_round(pd, full_sets(pd))
        assert batch == []
        assert survivors == full_sets(pd)


class TestIterateElimination:
    def test_3x3_trace(self, g3x3):
        trace = iterate_elimination(g3x3)
        assert trace.rounds == (((0, 2), (1, 2)), ((0, 1), (1, 1)))
        assert trace.final_survivors == ((0,), (0,))
        assert trace.total_deletions == 4

    def test_no_rounds_on_undominated_games(self, pd, chicken_game, coordination_game):
        for g in (pd, chicken_game, coordination_game):
            trace = iterate_elimination(g)
            assert trace.rounds == ()
            assert trace.final_survivors == full_sets(g)

    def test_nothing_sorted_when_nothing_deleted(
        self, pd, chicken_game, coordination_game, monkeypatch
    ):
        """A run from the full sets has nothing to delete up front, so a game
        that deletes nothing never sorts a row, mirrored or not."""

        def refuse(state):
            raise AssertionError("sorted the rows of a game that deletes nothing")

        monkeypatch.setattr(nonnash.solvers._Elimination, "_sort", refuse)
        games = [
            pd, chicken_game, coordination_game,
            gen_random_symmetric_game(3, 3, 0, 9, seed=0),
            gen_random_game(3, (2, 3, 2), 0, 9, seed=0),
        ]
        for g in games:
            assert iterate_elimination(g) == EliminationTrace((), full_sets(g)), g
            assert nonnash.solvers.sequential_elimination(g, min) == full_sets(g), g

    def test_survivors_never_empty(self):
        for j in range(80):
            shape = [(2, (2, 5)), (2, (4, 2)), (3, (2, 2, 3))][j % 3]
            g = gen_random_game(shape[0], shape[1], 0, 4, seed=7000 + j)
            trace = iterate_elimination(g)
            assert all(trace.final_survivors)

    def test_symmetry_preserved_per_round(self):
        for j in range(30):
            g = gen_random_symmetric_game(2, 4, 0, 9, seed=8000 + j)
            s = full_sets(g)
            while True:
                s_next, batch = eliminate_round(g, s)
                if not batch:
                    break
                # a strategy deleted for one player is deleted for all
                deleted = {}
                for player, strategy in batch:
                    deleted.setdefault(strategy, set()).add(player)
                for players_hit in deleted.values():
                    assert players_hit == set(range(g.n_players))
                s = s_next
                assert is_symmetric(restrict(g, s))

    def test_hofstadter_stable_under_elimination(self):
        for j in range(30):
            g = gen_random_symmetric_game(2, 5, 0, 9, seed=9000 + j)
            original = hofstadter_equilibria(g)
            s = full_sets(g)
            while True:
                s_next, batch = eliminate_round(g, s)
                if not batch:
                    break
                s = s_next
                reduced = hofstadter_equilibria(restrict(g, s))
                # translate restricted indices back to the original game
                translated = [
                    tuple(s[i][v] for i, v in enumerate(p)) for p in reduced
                ]
                assert translated == original


def shared_rows_game(kind: str, n: int, k: int, rng: random.Random):
    """A game of `n` players with `k` strategies and payoffs 0..3, built
    cell by cell with `new_game`.  Its kind is one of:

    * "symmetric": a payoff depends on the own strategy and the multiset of
      the opponents' strategies;
    * "ordered": a payoff depends on the own strategy and the opponents'
      strategies in player order, so every player has the same rows but
      reordering the opponents may change a payoff;
    * "relabelled": a symmetric game whose last player names its strategies
      differently;
    * "asymmetric": every payoff drawn on its own.

    Each own strategy draws from its own window of 0..3, so that some
    strategies are dominated and elimination runs for several rounds.
    """
    spread = rng.randint(1, 3)
    lows = [[rng.randint(0, 3) for _ in range(k)] for _ in range(n)]
    if kind != "asymmetric":
        lows = [lows[0]] * n
    values = {}
    cells = []
    for p in itertools.product(range(k), repeat=n):
        payoffs = []
        for i in range(n):
            others = p[:i] + p[i + 1 :]
            if kind == "asymmetric":
                key = (i, p)
            elif kind == "ordered":
                key = (p[i], others)
            else:
                key = (p[i], tuple(sorted(others)))
            if key not in values:
                lo = lows[i][p[i]]
                values[key] = rng.randint(lo, min(3, lo + spread))
            payoffs.append(values[key])
        cells.append((p, tuple(payoffs)))
    labels = [[f"s{v}" for v in range(k)] for _ in range(n)]
    if kind == "relabelled":
        labels[-1] = [f"t{v}" for v in range(k)]
    return new_game(labels, cells)


def eliminate_round_loop(g):
    """Batch elimination as a loop of `eliminate_round` from the full sets,
    which tracks every player in every round."""
    s = full_sets(g)
    rounds = []
    while True:
        s, batch = eliminate_round(g, s)
        if not batch:
            return tuple(rounds), s
        rounds.append(tuple(batch))


class TestMirroredElimination:
    """`iterate_elimination` mirrors player 0 exactly on symmetric games;
    the general path of `eliminate_round` referees.  Games whose players
    share rows without being symmetric ("ordered", "relabelled") take the
    per-player path, which the same loop referees."""

    SHAPES = ((2, 4), (3, 3), (4, 3))

    @pytest.fixture
    def mirrored(self, monkeypatch):
        """One entry per `_Elimination.mirror` call."""
        calls = []
        original = nonnash.solvers._Elimination.mirror

        def counted(state):
            calls.append(1)
            return original(state)

        monkeypatch.setattr(nonnash.solvers._Elimination, "mirror", counted)
        return calls

    @pytest.mark.parametrize("kind", ["symmetric", "ordered", "relabelled", "asymmetric"])
    def test_equals_the_eliminate_round_loop(self, kind, mirrored):
        rng = random.Random(f"mirror-{kind}")
        shared_rows = kind != "asymmetric"
        checked = bitten = deep = 0
        for n, k_max in self.SHAPES:
            if kind == "ordered" and n == 2:
                continue  # one opponent has no order to depend on
            for _ in range(200):
                g = shared_rows_game(kind, n, rng.randint(2, k_max), rng)
                if not shared_rows and len(set(g.own_rows)) == 1:
                    continue  # an asymmetric draw whose rows happen to agree
                if kind == "ordered" and is_symmetric(g):
                    continue  # an ordered draw that ignores the order
                assert is_symmetric(g) == (kind == "symmetric"), g
                mirrored.clear()
                trace = iterate_elimination(g)
                assert mirrored == [1] * (kind == "symmetric"), g
                assert (trace.rounds, trace.final_survivors) == eliminate_round_loop(g), g
                checked += 1
                bitten += bool(trace.rounds)
                deep += len(trace.rounds) > 1
        # Several rounds are rare on games with shared rows: 2 of the 359
        # "ordered" games run more than one, about 15 of 600 of the others.
        assert checked >= 300
        assert bitten >= 80 and deep >= 2, (bitten, deep)

    @pytest.mark.parametrize("kind, mirrors", [("symmetric", 1), ("ordered", 0)])
    def test_report_scans_once_and_mirrors_symmetric_games(
        self, kind, mirrors, mirrored, monkeypatch
    ):
        """A parsed game carries no symmetry fact: `build_report` runs the
        scan once, and elimination reads its result instead of comparing
        rows, mirroring only the symmetric game."""
        scans = []
        scan = nonnash.game_core._symmetry_scan

        def counted_scan(g):
            scans.append(1)
            return scan(g)

        monkeypatch.setattr(nonnash.game_core, "_symmetry_scan", counted_scan)
        rng = random.Random(f"parsed-{kind}")
        g = shared_rows_game(kind, 3, 3, rng)
        assert is_symmetric(g) == (kind == "symmetric")
        assert all(rows == g.own_rows[0] for rows in g.own_rows)
        parsed = parse_game(serialize_game(GameDocument(game=g))).game
        scans.clear()
        mirrored.clear()
        report = build_report(parsed)
        assert (scans, mirrored) == ([1], [1] * mirrors)
        assert report.maximin == maximin_values(g)
        assert report.trace == iterate_elimination(g)

    def test_bounds_once_per_round(self, monkeypatch):
        scans = []
        original = nonnash.solvers._Elimination.bounds

        def counted(state, player):
            scans.append(player)
            return original(state, player)

        monkeypatch.setattr(nonnash.solvers._Elimination, "bounds", counted)
        trace = iterate_elimination(elimination_ladder())
        # two rounds that delete and the empty round that ends the run
        assert len(trace.rounds) == 2
        assert scans == [0, 0, 0]
        scans.clear()
        eliminate_round_loop(elimination_ladder())
        assert scans == [0, 1] * 3


class TestRationalizableProfiles:
    def test_pd_all(self, pd):
        assert minimax_rationalizable_profiles(pd) == [(0, 0), (0, 1), (1, 0), (1, 1)]

    def test_chicken_all(self, chicken_game):
        assert len(minimax_rationalizable_profiles(chicken_game)) == 4

    def test_3x3_single(self, g3x3):
        assert minimax_rationalizable_profiles(g3x3) == [(0, 0)]


class TestFlagRecords:
    GAMES = {
        "pd": prisoners_dilemma,
        "sym3p": lambda: gen_random_symmetric_game(3, 3, 0, 9, seed=22),
        "asym": lambda: gen_random_game(2, (2, 3), 0, 9, seed=4),
    }

    @pytest.mark.parametrize("name", sorted(GAMES))
    def test_flags_are_region_tags(self, name):
        r = build_report(self.GAMES[name]())
        for tag in r.flags:
            assert type(tag) is RegionTag
            assert tag == tuple(tag)
            assert (tag.hofstadter is None) == (not r.symmetric)
        assert len(set(map(id, r.flags))) == len(set(r.flags))  # interned

    @pytest.mark.parametrize("name", ["pd", "sym3p"])
    def test_regions_are_the_flags_records(self, name):
        r = build_report(self.GAMES[name]())
        assert list(r.regions) == list(profiles(r.game))
        for p, tag in zip(profiles(r.game), r.flags):
            assert r.regions[p] is tag

    def test_asymmetric_report_has_no_regions(self):
        r = build_report(self.GAMES["asym"]())
        assert r.regions is None


# Random 4-player asymmetric games with unequal strategy counts, besides
# the pinned games.
CODED_GAMES = {
    **PINNED_GAMES,
    **{
        f"asym4-{seed}": lambda seed=seed: gen_random_game(4, (3, 2, 1, 2), -3, 3, seed=seed)
        for seed in range(8)
    },
}


class TestCodes:
    @pytest.mark.parametrize("name", sorted(CODED_GAMES))
    def test_flags_match_the_oracle(self, name):
        r = build_report(CODED_GAMES[name]())
        assert len(r.codes) == len(r.game.columns[0])
        assert r.flags == flags_oracle(r)

    def test_codes_map_to_one_shared_record_per_code(self):
        tables = nonnash.solvers._RECORDS
        assert set(tables) == {False, True}
        for symmetric, records in tables.items():
            # bits 1, 2, 4 and 8 are the fields in order; an asymmetric
            # table holds None as every record's Hofstadter flag
            assert len(records) == 16
            for code, tag in enumerate(records):
                assert type(tag) is RegionTag
                assert tag.nash is (code & 1 == 1)
                assert tag.hofstadter is (code & 2 == 2 if symmetric else None)
                assert tag.individually_rational is (code & 4 == 4)
                assert tag.rationalizable is (code & 8 == 8)
        assert len(set(tables[True])) == 16
        for make in CODED_GAMES.values():
            r = build_report(make())
            assert set(map(id, r.flags)) <= set(map(id, tables[r.symmetric]))

    @pytest.mark.parametrize("name", [n for n in sorted(CODED_GAMES) if "asym" in n])
    def test_asymmetric_codes_never_set_the_hofstadter_bit(self, name):
        r = build_report(CODED_GAMES[name]())
        assert not r.symmetric
        assert not any(code & 2 for code in r.codes)
        assert {tag.hofstadter for tag in r.flags} == {None}


def biting_game(dead, seed):
    """A game in which strategy v of player i pays 0..9 at random if
    ``dead[i][v]``, and else 10 plus the sum of the opponents' indices mod
    10, so round 1 deletes exactly the dead strategies and no round after."""
    rng = random.Random(seed)
    counts = [len(d) for d in dead]
    cells = [
        (p, tuple(
            rng.randrange(10) if dead[i][v] else 10 + (sum(p) - v) % 10
            for i, v in enumerate(p)
        ))
        for p in itertools.product(*map(range, counts))
    ]
    return new_game([[f"s{v}" for v in range(k)] for k in counts], cells)


# Per player, whether each strategy is dominated: every player loses one,
# the middle players among them (stride above 1).
BITING_GAMES = {
    "3-4-2": [(0, 1, 0), (1, 0, 1, 0), (0, 1)],
    "2-3-2-3": [(1, 0), (0, 0, 1), (0, 1), (1, 1, 0)],
}


class TestRationalizableCodes:
    @pytest.mark.parametrize("seed", range(3))
    @pytest.mark.parametrize("shape", sorted(BITING_GAMES))
    def test_bit_matches_the_survivors_when_every_player_loses(self, shape, seed):
        dead = BITING_GAMES[shape]
        r = build_report(biting_game(dead, seed))
        survivors = r.trace.final_survivors
        assert survivors == tuple(
            tuple(v for v, gone in enumerate(d) if not gone) for d in dead
        )
        assert all(len(alive) < k for alive, k in zip(survivors, r.game.strategy_counts))
        expected = [all(v in alive for v, alive in zip(p, survivors)) for p in profiles(r.game)]
        assert [code >> 3 & 1 == 1 for code in r.codes] == expected
        assert r.flags == flags_oracle(r)


class TestOrdinalInvariance:
    def test_solution_sets_unchanged_under_increasing_maps(self):
        rng = SplitMix64(42)
        for j in range(15):
            g = gen_random_symmetric_game(2, 4, 0, 30, seed=600 + j)
            mapping = random_increasing_map(
                [u for cell in zip(*g.columns) for u in cell], rng
            )
            h = apply_payoff_map(g, mapping)
            assert pure_nash(h) == pure_nash(g)
            assert hofstadter_equilibria(h) == hofstadter_equilibria(g)
            assert iterate_elimination(h) == iterate_elimination(g)
            assert individually_rational_profiles(h) == individually_rational_profiles(g)
            assert maximin_values(h) == tuple(mapping[v] for v in maximin_values(g))
