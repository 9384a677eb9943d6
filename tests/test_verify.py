import dataclasses
import hashlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import nonnash.cli
import nonnash.game_core
import nonnash.game_io
import nonnash.solvers
import nonnash.verify
from nonnash import (
    BadRange,
    GameDocument,
    NotSymmetric,
    RegionTag,
    SizeGuardExceeded,
    SplitMix64,
    SweepConfig,
    build_report,
    check_hofstadter_individually_rational,
    check_hofstadter_rationalizable,
    check_ir_survives_round1,
    check_order_independence,
    classify_regions,
    derive_seed,
    elimination_ladder,
    gen_random_game,
    gen_random_symmetric_game,
    is_symmetric,
    new_game,
    profiles,
    serialize_game,
    strict_inclusion_witnesses,
    sweep,
)
from nonnash.game_core import PAYOFF_MAX, PAYOFF_MIN
from nonnash.verify import (
    ALL_PROPERTIES,
    CHECKERS,
    HOFSTADTER_INDIVIDUALLY_RATIONAL,
    HOFSTADTER_RATIONALIZABLE,
    IR_SURVIVES_ROUND_1,
    ORDER_INDEPENDENCE,
    Verdict,
)

from oracles import deleted_sets, sweep_game, symmetric_oracle


@pytest.fixture
def draws(monkeypatch):
    """One entry per value drawn from a stream the verify module makes."""
    drawn = []

    class CountingStream(SplitMix64):
        def next_u64(self):
            drawn.append(1)
            return super().next_u64()

    monkeypatch.setattr(nonnash.verify, "SplitMix64", CountingStream)
    return drawn


class TestGenerators:
    def test_same_seed_same_game(self):
        a = gen_random_game(2, (2, 2), 0, 9, seed=1)
        b = gen_random_game(2, (2, 2), 0, 9, seed=1)
        assert a == b

    def test_different_seeds_differ(self):
        a = gen_random_game(2, (3, 3), 0, 99, seed=1)
        b = gen_random_game(2, (3, 3), 0, 99, seed=2)
        assert a != b

    def test_degenerate_range(self):
        g = gen_random_game(1, (3,), 5, 5, seed=0)
        assert all(cell == (5,) for cell in g.payoffs)

    def test_size_guard(self):
        with pytest.raises(SizeGuardExceeded):
            gen_random_game(2, (100, 100), 0, 9, seed=0, max_entries=1000)

    def test_size_guard_trips_before_any_draw(self, draws):
        with pytest.raises(SizeGuardExceeded):
            gen_random_game(2, (100, 100), 0, 9, seed=0, max_entries=1000)
        with pytest.raises(SizeGuardExceeded):
            gen_random_symmetric_game(3, 40, 0, 9, seed=0, max_entries=1000)
        assert draws == []
        # the generators do draw from the patched stream once under the guard
        gen_random_game(2, (2, 2), 0, 9, seed=0)
        assert len(draws) == 8

    def test_bad_ranges(self):
        with pytest.raises(BadRange):
            gen_random_game(2, (2, 2), 5, 4, seed=0)
        with pytest.raises(BadRange):
            gen_random_game(0, (), 0, 9, seed=0)
        with pytest.raises(BadRange):
            gen_random_game(2, (2, 0), 0, 9, seed=0)
        with pytest.raises(BadRange, match="3 strategy counts for 2 players"):
            gen_random_game(2, (2, 2, 2), 0, 9, seed=0)

    def test_values_within_range(self):
        g = gen_random_game(2, (4, 4), -3, 3, seed=77)
        assert all(-3 <= u <= 3 for cell in g.payoffs for u in cell)

    @given(st.integers(min_value=0, max_value=2**63))
    @settings(max_examples=80, deadline=None)
    def test_symmetric_generator_sound(self, seed):
        g = gen_random_symmetric_game(2, 2 + seed % 5, 0, 9, seed=seed)
        assert is_symmetric(g)

    def test_symmetric_generator_sound_mass(self):
        # 10,000 seeded samples across shapes, every one symmetric
        from nonnash import derive_seed

        for j in range(10_000):
            n = 2 + j % 2
            k = 2 + j % 3
            g = gen_random_symmetric_game(n, k, 0, 99, seed=derive_seed(19, j))
            assert is_symmetric(g)

    def test_symmetric_three_player_permutations(self):
        g = gen_random_symmetric_game(3, 2, 0, 9, seed=123)
        assert is_symmetric(g)
        assert symmetric_oracle(g)

    def test_symmetric_single_strategy(self):
        g = gen_random_symmetric_game(2, 1, 0, 9, seed=5)
        assert is_symmetric(g)
        assert g.strategy_counts == (1, 1)

    # sha256 of the canonical text of seeded games.  A digest that moves
    # breaks the determinism contract in the verify module docstring.
    PINNED = [
        (gen_random_game, (1, (3,), -5, 5, 11),
         "77b273d6c852046824e4c6e17f5a08e31a4960e28907aba7527922bdf8af6b36"),
        (gen_random_game, (2, (3, 4), 0, 99, 12),
         "5d59837e8b245cefb3b91197deb07d7f692d9d4be1c43eb177bb41fc6a372f8a"),
        (gen_random_game, (3, (3, 1, 2), -5, 5, 13),
         "b4a1158abfe6ffc0bbd5ca6767d22eda838e529ae83ac1ea127e07e023bb7410"),
        (gen_random_game, (4, 2, PAYOFF_MIN, PAYOFF_MAX, 14),
         "50a833b8879981a6d1e0f2b0b3b3511d54573a45649da2d9bb3120a3aa86a89a"),
        (gen_random_symmetric_game, (1, 4, 0, 99, 15),
         "8271556946fdfe5b91a1b6d6321926d37544640774c434c5603b167e68c0377c"),
        (gen_random_symmetric_game, (2, 1, -5, 5, 16),
         "2e6844b6222cada55c4022588b135639b61204459dcf614c2844290b00f8c5f8"),
        (gen_random_symmetric_game, (3, 3, PAYOFF_MIN, PAYOFF_MAX, 17),
         "b060ccf032c299e0929e19ec1df786e11447dcd4bdfb68de795b44622e1acb9a"),
        (gen_random_symmetric_game, (4, 2, -5, 5, 18),
         "8e4388a9562add80ea323560e8a25101f442f3cdabb35186e51b5e54b99b9c10"),
        (gen_random_symmetric_game, (3, 6, 0, 99, 21),
         "37ac34d22b9f15bdc734926f594949dcec403b3de564717b7378192825a99f71"),
        (gen_random_symmetric_game, (4, 4, 0, 2, 22),
         "b4b5028a2bdcef8e9033710213e3920d116c7ce2b53f38bc85dfd3eeb5a329fd"),
        (gen_random_symmetric_game, (5, 3, 0, 99, 23),
         "22f578b52491f17c84b8f2882c5aa50548c016bb111d796c9063bc3206bc782b"),
        (gen_random_symmetric_game, (50, 1, 0, 99, 24),
         "e39041fff3dfb84f751c4991d0429648a6a3ef1b9da76dbf1062271a00225717"),
    ]

    @pytest.mark.parametrize(
        "generate, args, digest", PINNED, ids=[f"{f.__name__}{a}" for f, a, _ in PINNED]
    )
    def test_pinned_output(self, generate, args, digest):
        g = generate(*args)
        text = serialize_game(GameDocument(game=g))
        assert hashlib.sha256(text.encode("ascii")).hexdigest() == digest
        # the generators skip new_game; its validation still accepts the table
        assert new_game(g.strategy_labels, zip(profiles(g), g.payoffs)) == g


SWEEP_INT_FIELDS = (
    "players", "min_strategies", "max_strategies", "payoff_lo", "payoff_hi",
    "games", "orders_per_game", "seed",
)

# Entry points that take an integer argument, called with `v` in one place.
INT_ARGUMENT_CALLS = {
    "gen_random_game-players": lambda v: gen_random_game(v, 2, 0, 9, seed=0),
    "gen_random_game-shared-count": lambda v: gen_random_game(2, v, 0, 9, seed=0),
    "gen_random_game-count-entry": lambda v: gen_random_game(2, (v, 2), 0, 9, seed=0),
    "gen_random_game-lo": lambda v: gen_random_game(2, 2, v, 9, seed=0),
    "gen_random_game-hi": lambda v: gen_random_game(2, 2, 0, v, seed=0),
    "gen_random_symmetric_game-players":
        lambda v: gen_random_symmetric_game(v, 2, 0, 9, seed=0),
    "gen_random_symmetric_game-count":
        lambda v: gen_random_symmetric_game(2, v, 0, 9, seed=0),
    "gen_random_game-seed": lambda v: gen_random_game(2, 2, 0, 9, seed=v),
    "gen_random_symmetric_game-seed":
        lambda v: gen_random_symmetric_game(2, 2, 0, 9, seed=v),
    # 4 deletions, so the random-order branch runs
    "check_order_independence-n_orders":
        lambda v: check_order_independence(elimination_ladder(), v),
    "check_order_independence-seed":
        lambda v: check_order_independence(elimination_ladder(), 3, seed=v),
    **{
        f"sweep-{field}":
            lambda v, field=field: sweep(SweepConfig(**{"games": 2, field: v}))
        for field in SWEEP_INT_FIELDS
    },
    "sweep-workers": lambda v: sweep(SweepConfig(games=2), workers=v),
}

# Entry points that take max_entries, each with the size (cells x players)
# of the game it builds: the smallest valid max_entries.
MAX_ENTRIES_CALLS = {
    "new_game": (lambda v: new_game([["a"], ["b", "c"]], [
        ((0, 0), (1, 2)), ((0, 1), (3, 4)),
    ], max_entries=v), 4),
    "gen_random_game": (lambda v: gen_random_game(2, (2, 3), 0, 9, seed=0, max_entries=v), 12),
    "gen_random_symmetric_game":
        (lambda v: gen_random_symmetric_game(3, 2, 0, 9, seed=0, max_entries=v), 24),
    "sweep": (lambda v: sweep(SweepConfig(
        min_strategies=3, max_strategies=3, games=2, max_entries=v,
    )), 18),
}


class TestIntegerArguments:
    """An integer argument is an int, not a bool: every entry point that
    takes one refuses other values before it draws."""

    @pytest.mark.parametrize("bad", [0.5, 2.0, True, None, "2"], ids=repr)
    @pytest.mark.parametrize("call", INT_ARGUMENT_CALLS)
    def test_bad_value_rejected_before_any_draw(self, draws, inline_pool, call, bad):
        with pytest.raises(BadRange):
            INT_ARGUMENT_CALLS[call](bad)
        assert draws == []

    @pytest.mark.parametrize("call", INT_ARGUMENT_CALLS)
    def test_valid_value_draws(self, draws, inline_pool, call):
        # the counting stream sees these calls, so no draw above means none
        INT_ARGUMENT_CALLS[call](2)
        assert draws

    @pytest.mark.parametrize("bad", [0.5, 1.5, True, None, "big", 0, -1], ids=repr)
    @pytest.mark.parametrize("call", MAX_ENTRIES_CALLS)
    def test_bad_max_entries_rejected_before_any_draw(self, draws, inline_pool, call, bad):
        with pytest.raises(BadRange, match="max_entries"):
            MAX_ENTRIES_CALLS[call][0](bad)
        assert draws == []

    @pytest.mark.parametrize("call", MAX_ENTRIES_CALLS)
    def test_max_entries_at_the_game_size(self, inline_pool, call):
        build, size = MAX_ENTRIES_CALLS[call]
        build(size)
        with pytest.raises(SizeGuardExceeded):
            build(size - 1)

    def test_seed_read_mod_2_64(self):
        # negative and wider-than-64-bit seeds stay valid
        for seed in (-1, 2**64 + 5):
            reduced = seed % 2**64
            assert gen_random_game(2, 3, 0, 9, seed) == gen_random_game(2, 3, 0, 9, reduced)
            assert gen_random_symmetric_game(3, 2, 0, 9, seed) == (
                gen_random_symmetric_game(3, 2, 0, 9, reduced)
            )
            a, b = (sweep(SweepConfig(games=5, seed=s)) for s in (seed, reduced))
            assert dataclasses.replace(a, config=b.config, elapsed=0) == (
                dataclasses.replace(b, elapsed=0)
            )

    @pytest.mark.parametrize("workers", [0, -3])
    def test_workers_below_one_run_in_process(self, inline_pool, workers):
        report = sweep(SweepConfig(games=2, seed=41), workers=workers)
        assert (report.games_checked, inline_pool) == (2, [])


class TestCheckers:
    def test_all_properties_is_the_registry(self):
        assert ALL_PROPERTIES == tuple(CHECKERS)

    def test_canonical_games_pass(self, pd, chicken_game, coordination_game, g3x3):
        for g in (pd, chicken_game, coordination_game, g3x3):
            assert check_hofstadter_rationalizable(g).passed
            assert check_hofstadter_individually_rational(g).passed
            assert check_ir_survives_round1(g).passed
            assert check_order_independence(g).passed

    def test_hofstadter_checks_require_symmetry(self):
        g = gen_random_game(2, (2, 3), 0, 9, seed=9)
        with pytest.raises(NotSymmetric):
            check_hofstadter_rationalizable(g)
        with pytest.raises(NotSymmetric):
            check_hofstadter_individually_rational(g)

    def test_ir_round2_note(self, g3x3):
        verdict = check_ir_survives_round1(g3x3)
        assert verdict.passed
        assert verdict.detail == "IR profiles eliminated in round 2: (A,B),(B,A),(B,B)"

    def test_ir_check_runs_on_asymmetric_games(self):
        g = gen_random_game(2, (2, 3), 0, 9, seed=9)
        assert check_ir_survives_round1(g).passed

    def test_hofstadter_eliminated_verdict(self, pd):
        r = build_report(pd)
        assert r.hofstadter == ((1, 1),)
        r = dataclasses.replace(
            r, trace=dataclasses.replace(r.trace, final_survivors=((0,), (0,)))
        )
        verdict = CHECKERS[HOFSTADTER_RATIONALIZABLE](r, 20, 0)
        assert verdict == Verdict(
            HOFSTADTER_RATIONALIZABLE,
            False,
            "Hofstadter equilibrium (Cooperate,Cooperate) was eliminated",
            game=pd,
            profile=(1, 1),
        )

    @pytest.mark.parametrize("maximin, player", [((3, 3), 0), ((2, 3), 1)])
    def test_hofstadter_below_maximin_verdict(self, pd, maximin, player):
        # (Cooperate,Cooperate) pays (2, 2); the true maximin is (1, 1)
        r = dataclasses.replace(build_report(pd), maximin=maximin)
        verdict = CHECKERS[HOFSTADTER_INDIVIDUALLY_RATIONAL](r, 20, 0)
        assert verdict == Verdict(
            HOFSTADTER_INDIVIDUALLY_RATIONAL,
            False,
            f"Hofstadter equilibrium (Cooperate,Cooperate) pays player {player} "
            f"2 below the maximin {maximin[player]}",
            game=pd,
            profile=(1, 1),
        )

    def test_ir_profile_deleted_in_round_1_verdict(self, g3x3):
        # C is deleted in round 1 and B in round 2; (C,A) is not truly IR
        r = dataclasses.replace(
            build_report(g3x3), individually_rational=((0, 1), (2, 0))
        )
        verdict = CHECKERS[IR_SURVIVES_ROUND_1](r, 20, 0)
        assert verdict == Verdict(
            IR_SURVIVES_ROUND_1,
            False,
            "individually rational profile (C,A) uses a strategy deleted in round 1",
            game=g3x3,
            profile=(2, 0),
        )


class TestOrderIndependence:
    def test_pd_nothing_to_delete(self, pd):
        verdict = check_order_independence(pd)
        assert verdict.passed
        assert "no strategies" in verdict.detail

    def test_3x3_exhaustive_interleavings(self):
        # the batch trace deletes one strategy of each of the 3 players, at
        # most EXHAUSTIVE_LIMIT pairs, so every deletion order is enumerated
        g = gen_random_symmetric_game(3, 3, 0, 9, seed=27)
        assert build_report(g).trace.total_deletions == 3
        verdict = check_order_independence(g)
        assert verdict == Verdict(
            ORDER_INDEPENDENCE, True, "all sequential orders agree (8 states)"
        )

    def test_3x3_random_orders(self, g3x3):
        verdict = check_order_independence(g3x3, n_orders=30, seed=5)
        assert verdict.passed

    @pytest.mark.parametrize("rounds, detail", [
        # 2 deletions in the altered trace: every order is enumerated
        (
            (((0, 2), (1, 2)),),
            "a sequential order ended at ((0,), (0,)), batch ended at ((0, 1), (0, 1))",
        ),
        # the true 4 deletions: random orders are sampled
        (
            (((0, 2), (1, 2)), ((0, 1), (1, 1))),
            "random order 0 ended at ((0,), (0,)), batch ended at ((0, 1), (0, 1))",
        ),
    ], ids=["exhaustive", "random"])
    def test_disagreement_verdict(self, g3x3, rounds, detail):
        # the batch trace is altered to stop at {A,B}, which no order reaches
        r = build_report(g3x3)
        trace = dataclasses.replace(r.trace, rounds=rounds, final_survivors=((0, 1),) * 2)
        verdict = CHECKERS[ORDER_INDEPENDENCE](
            dataclasses.replace(r, trace=trace), 3, 0
        )
        assert verdict == Verdict(ORDER_INDEPENDENCE, False, detail, game=g3x3)

    def test_rejects_fewer_than_one_order(self, pd, g3x3):
        for g in (pd, g3x3):
            for n_orders in (0, -5):
                with pytest.raises(BadRange):
                    check_order_independence(g, n_orders)
        with pytest.raises(BadRange):
            sweep(SweepConfig(games=5, orders_per_game=0))

    def test_random_symmetric_sample(self):
        for j in range(60):
            g = gen_random_symmetric_game(2, 2 + j % 5, 0, 30, seed=300 + j)
            assert check_order_independence(g, n_orders=10, seed=j).passed


class TestClassifyRegions:
    def test_pd_defect_cooperate(self, pd):
        tags = classify_regions(pd)
        tag = tags[(0, 1)]
        assert tag.rationalizable
        assert not tag.individually_rational
        assert not tag.hofstadter

    def test_chicken_swerve_straight(self, chicken_game):
        tag = classify_regions(chicken_game)[(1, 0)]
        assert tag.individually_rational
        assert not tag.hofstadter

    def test_coordination_sushi_sushi(self, coordination_game):
        tag = classify_regions(coordination_game)[(0, 0)]
        assert tag.individually_rational
        assert tag.rationalizable
        assert not tag.hofstadter

    def test_requires_symmetry(self):
        g = gen_random_game(2, (2, 3), 0, 9, seed=4)
        with pytest.raises(NotSymmetric):
            classify_regions(g)

    def test_hofstadter_implies_both_flags(self):
        for j in range(40):
            g = gen_random_symmetric_game(2, 2 + j % 5, 0, 50, seed=1300 + j)
            for tag in classify_regions(g).values():
                if tag.hofstadter:
                    assert tag.rationalizable
                    assert tag.individually_rational

    def test_witness_counts(self, pd):
        rationalizable, rational = strict_inclusion_witnesses(classify_regions(pd))
        assert rationalizable == 3  # DD, DC, CD
        assert rational == 1  # DD

    def test_regions_follow_replaced_fields(self, pd):
        r = build_report(pd)
        assert r.regions[(1, 1)] == RegionTag(True, True, True)
        eliminated = dataclasses.replace(
            r, trace=dataclasses.replace(r.trace, final_survivors=((0,), (0,)))
        )
        assert [p for p, t in eliminated.regions.items() if t.rationalizable] == [(0, 0)]
        moved = dataclasses.replace(r, hofstadter=((0, 0),))
        assert [p for p, t in moved.regions.items() if t.hofstadter] == [(0, 0)]
        assert r.regions[(1, 1)] == RegionTag(True, True, True)


class TestSweep:
    def test_empty_sweep(self):
        # a sweep that checks no game must not pass
        with pytest.raises(BadRange):
            sweep(SweepConfig(games=0))

    def test_small_sweep_clean(self):
        report = sweep(SweepConfig(games=300, seed=77))
        assert report.passed
        assert report.games_checked == 300
        assert report.games_skipped == 0
        assert report.rationalizable_not_hofstadter > 0
        assert report.ir_not_hofstadter > 0

    @pytest.mark.parametrize("workers", [1, 2])
    def test_every_game_over_the_guard_raises(self, inline_pool, monkeypatch, workers):
        # counts 2..10 pass the guard, but this seed draws 57, 18, 49, 34
        monkeypatch.setattr(nonnash.verify.os, "cpu_count", lambda: 2)
        config = SweepConfig(
            min_strategies=2, max_strategies=60, games=4, seed=4, max_entries=200
        )
        with pytest.raises(SizeGuardExceeded, match="no game was checked: 4 skipped"):
            sweep(config, workers=workers)
        assert inline_pool == [2] * (workers - 1)

    @pytest.mark.parametrize("workers", [1, 2])
    def test_violations_in_game_then_property_order(
        self, injected_violations, inline_pool, monkeypatch, workers
    ):
        monkeypatch.setattr(nonnash.verify.os, "cpu_count", lambda: 2)
        config, expected = injected_violations
        report = sweep(config, workers=workers)
        assert not report.passed
        # game 7 fails both properties: in the order config.properties lists them
        first, second = (
            p for p in config.properties
            if p in (HOFSTADTER_RATIONALIZABLE, HOFSTADTER_INDIVIDUALLY_RATIONAL)
        )
        assert expected == [
            (1, HOFSTADTER_INDIVIDUALLY_RATIONAL),
            (3, HOFSTADTER_RATIONALIZABLE),
            (7, first),
            (7, second),
        ]
        assert report.violations == tuple(
            (serialize_game(GameDocument(game=sweep_game(config, j)[0])), prop)
            for j, prop in expected
        )
        assert report.games_checked == config.games
        assert inline_pool == [2] * (workers - 1)

    def test_three_player_sweep(self):
        config = SweepConfig(players=3, min_strategies=2, max_strategies=4, games=100, seed=5)
        assert sweep(config).passed

    def test_order_independence_property(self):
        config = SweepConfig(
            games=50, seed=3, properties=(ORDER_INDEPENDENCE,), orders_per_game=5
        )
        assert sweep(config).passed

    def test_deterministic_across_runs(self):
        config = SweepConfig(games=120, seed=99)
        a = sweep(config)
        b = sweep(config)
        assert dataclasses.replace(a, elapsed=0.0) == dataclasses.replace(b, elapsed=0.0)

    def test_deterministic_across_worker_counts(self):
        config = SweepConfig(games=90, seed=41)
        a = sweep(config, workers=1)
        b = sweep(config, workers=3)
        assert dataclasses.replace(a, elapsed=0.0) == dataclasses.replace(b, elapsed=0.0)

    def test_workers_clamped_to_cpus_and_games(self, monkeypatch, inline_pool):
        monkeypatch.setattr(nonnash.verify.os, "cpu_count", lambda: 3)
        config = SweepConfig(games=10, seed=41)
        report = sweep(config, workers=64)
        sweep(SweepConfig(games=2, seed=41), workers=64)
        assert inline_pool == [3, 2]
        assert dataclasses.replace(report, elapsed=0.0) == dataclasses.replace(
            sweep(config), elapsed=0.0
        )

    def test_size_guard_skips_and_counts(self):
        # when even the smallest strategy count trips the guard, no game
        # could be checked: an input error, raised before any draw
        with pytest.raises(SizeGuardExceeded):
            sweep(SweepConfig(
                min_strategies=50, max_strategies=60, games=5, seed=1, max_entries=100
            ))
        config = SweepConfig(
            min_strategies=2, max_strategies=60, games=20, seed=2, max_entries=200
        )
        report = sweep(config)
        assert report.games_skipped == 15
        assert report.games_checked == 5
        assert report.passed

    @staticmethod
    def replay(config):
        """The sweep's counts, rebuilt game by game through the public
        generator with the sweep's derived seeds."""
        checked = skipped = rationalizable = rational = 0
        violations = []
        for j in range(config.games):
            try:
                g, order_seed = sweep_game(config, j)
            except SizeGuardExceeded:
                skipped += 1
                continue
            checked += 1
            r = build_report(g)
            for batch in r.trace.rounds:
                assert len(deleted_sets(config.players, batch)) == 1, (g, batch)
            for prop in config.properties:
                if not CHECKERS[prop](r, config.orders_per_game, order_seed).passed:
                    violations.append((serialize_game(GameDocument(game=g)), prop))
            w_rationalizable, w_rational = strict_inclusion_witnesses(r.regions)
            rationalizable += w_rationalizable
            rational += w_rational
        return checked, skipped, tuple(violations), rationalizable, rational

    @pytest.mark.parametrize("config", [
        SweepConfig(min_strategies=2, max_strategies=60, games=20, seed=2, max_entries=200),
        SweepConfig(
            players=3, min_strategies=1, max_strategies=4, games=60, seed=6,
            properties=ALL_PROPERTIES, orders_per_game=3,
        ),
    ], ids=["2p-size-guard", "3p"])
    def test_sweep_equals_its_replay(self, config, monkeypatch, inline_pool):
        expected = self.replay(config)
        assert expected[0] and expected[3] and expected[4]
        monkeypatch.setattr(nonnash.verify.os, "cpu_count", lambda: 2)
        for workers in (1, 2):
            report = sweep(config, workers=workers)
            assert (
                report.games_checked,
                report.games_skipped,
                report.violations,
                report.rationalizable_not_hofstadter,
                report.ir_not_hofstadter,
            ) == expected, workers
        assert inline_pool == [2]

    def test_bad_config(self):
        with pytest.raises(BadRange):
            sweep(SweepConfig(min_strategies=0))
        with pytest.raises(BadRange):
            sweep(SweepConfig(games=-1))
        with pytest.raises(BadRange):
            sweep(SweepConfig(properties=("no-such-property",)))
        with pytest.raises(BadRange):
            sweep(SweepConfig(properties=()))
        with pytest.raises(BadRange):
            sweep(SweepConfig(properties=(ORDER_INDEPENDENCE, ORDER_INDEPENDENCE)))
        # one bare name is not a tuple of one name
        with pytest.raises(BadRange, match=repr(HOFSTADTER_RATIONALIZABLE)):
            sweep(SweepConfig(properties=HOFSTADTER_RATIONALIZABLE))

    def test_linear_in_players(self):
        # one cell holding 20,000 payoff entries: the work of generating,
        # analyzing and checking it must grow linearly with the players
        config = SweepConfig(
            players=20_000, min_strategies=1, max_strategies=1, games=1,
            properties=ALL_PROPERTIES,
        )
        report = sweep(config)
        assert report.passed
        assert report.games_checked == 1
        assert report.elapsed < 5

    def test_selected_properties_echoed(self):
        config = SweepConfig(
            games=10,
            seed=8,
            properties=(HOFSTADTER_RATIONALIZABLE, HOFSTADTER_INDIVIDUALLY_RATIONAL),
        )
        report = sweep(config)
        assert report.config.properties == (
            HOFSTADTER_RATIONALIZABLE,
            HOFSTADTER_INDIVIDUALLY_RATIONAL,
        )
        assert IR_SURVIVES_ROUND_1 not in report.config.properties


class TestOneAnalysisPerGame:
    COUNTED = (
        "is_symmetric", "maximin_values", "iterate_elimination", "_best_diagonal",
        "pure_nash",
    )

    def per_game(self, n):
        """Expected counts for `n` reports: no reader of a sweep or of
        `nonnash check` needs pure Nash, which is derived on read."""
        return {**dict.fromkeys(self.COUNTED, n), "pure_nash": 0}

    @pytest.fixture
    def calls(self, monkeypatch):
        """Count calls of each COUNTED function under every module name."""
        counts = dict.fromkeys(self.COUNTED, 0)
        modules = (nonnash.game_core, nonnash.solvers, nonnash.verify, nonnash.cli)
        for name in self.COUNTED:
            original = getattr(nonnash.solvers, name)

            def counted(*args, _name=name, _original=original):
                counts[_name] += 1
                return _original(*args)

            for module in modules:
                if hasattr(module, name):
                    monkeypatch.setattr(module, name, counted)
        return counts

    def test_build_report_computes_each_fact_once(self, calls, g3x3):
        report = build_report(g3x3)
        assert calls == self.per_game(1)
        # the report stores solver outputs only
        assert [f.name for f in dataclasses.fields(report)] == [
            "name", "game", "symmetric", "hofstadter", "maximin",
            "individually_rational", "trace",
        ]
        assert report.nash == report.nash == ((0, 0),)
        assert calls == dict.fromkeys(self.COUNTED, 1)

    def test_check_command_skips_nash(self, calls, games_dir, capsys):
        assert nonnash.cli.main(["check", str(games_dir / "g3x3.gnf")]) == 0
        assert calls == self.per_game(1)

    def test_sweep_computes_each_fact_once_per_game(self, calls, monkeypatch):
        built = []

        def counted_new_game(*args, **kwargs):
            built.append(1)
            return new_game(*args, **kwargs)

        # generated tables are valid by construction and skip new_game
        for module in (nonnash.game_core, nonnash.verify, nonnash.game_io):
            if hasattr(module, "new_game"):
                monkeypatch.setattr(module, "new_game", counted_new_game)
        report = sweep(SweepConfig(games=40, seed=3, properties=ALL_PROPERTIES))
        assert report.games_checked == 40
        assert calls == self.per_game(40)
        assert built == []

    def test_sweep_builds_one_layout_per_strategy_count(self, monkeypatch):
        config = SweepConfig(games=40, seed=3)
        built = []
        original = nonnash.verify._symmetric_layout

        def counted(n_players, k):
            built.append(k)
            return original(n_players, k)

        monkeypatch.setattr(nonnash.verify, "_symmetric_layout", counted)
        sweep(config)
        drawn = {
            SplitMix64(derive_seed(config.seed, j)).next_in_range(
                config.min_strategies, config.max_strategies
            )
            for j in range(config.games)
        }
        assert sorted(built) == sorted(drawn)
        assert len(built) == len(drawn) < config.games
