import dataclasses
from concurrent.futures import Future

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import nonnash.cli
import nonnash.game_core
import nonnash.solvers
import nonnash.verify
from nonnash import (
    BadRange,
    NotSymmetric,
    SizeGuardExceeded,
    SplitMix64,
    SweepConfig,
    build_report,
    check_hofstadter_individually_rational,
    check_hofstadter_rationalizable,
    check_ir_survives_round1,
    check_order_independence,
    classify_regions,
    gen_random_game,
    gen_random_symmetric_game,
    is_symmetric,
    strict_inclusion_witnesses,
    sweep,
)
from nonnash.verify import (
    ALL_PROPERTIES,
    HOFSTADTER_INDIVIDUALLY_RATIONAL,
    HOFSTADTER_RATIONALIZABLE,
    IR_SURVIVES_ROUND_1,
    ORDER_INDEPENDENCE,
)

from oracles import symmetric_oracle


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

    def test_size_guard_trips_before_any_draw(self, monkeypatch):
        draws = []

        class CountingStream(SplitMix64):
            def next_u64(self):
                draws.append(1)
                return super().next_u64()

        monkeypatch.setattr(nonnash.verify, "SplitMix64", CountingStream)
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


class TestCheckers:
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


class TestOrderIndependence:
    def test_pd_nothing_to_delete(self, pd):
        verdict = check_order_independence(pd)
        assert verdict.passed
        assert "no strategies" in verdict.detail

    def test_3x3_exhaustive_interleavings(self, g3x3):
        # force full enumeration of the 4-deletion trace
        verdict = check_order_independence(g3x3, exhaustive_limit=4)
        assert verdict.passed
        assert "all sequential orders" in verdict.detail

    def test_3x3_random_orders(self, g3x3):
        verdict = check_order_independence(g3x3, n_orders=30, seed=5)
        assert verdict.passed

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


class TestSweep:
    def test_empty_sweep(self):
        report = sweep(SweepConfig(games=0))
        assert report.passed
        assert report.games_checked == 0
        assert report.violations == ()

    def test_small_sweep_clean(self):
        report = sweep(SweepConfig(games=300, seed=77))
        assert report.passed
        assert report.games_checked == 300
        assert report.games_skipped == 0
        assert report.rationalizable_not_hofstadter > 0
        assert report.ir_not_hofstadter > 0

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

    def test_workers_clamped_to_cpus_and_games(self, monkeypatch):
        pool_sizes = []

        class InlinePool:
            """Stands in for ProcessPoolExecutor; runs chunks in-process."""

            def __init__(self, max_workers):
                pool_sizes.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def submit(self, fn, *args):
                future = Future()
                future.set_result(fn(*args))
                return future

        monkeypatch.setattr(nonnash.verify, "ProcessPoolExecutor", InlinePool)
        monkeypatch.setattr(nonnash.verify.os, "cpu_count", lambda: 3)
        config = SweepConfig(games=10, seed=41)
        report = sweep(config, workers=64)
        sweep(SweepConfig(games=2, seed=41), workers=64)
        assert pool_sizes == [3, 2]
        assert dataclasses.replace(report, elapsed=0.0) == dataclasses.replace(
            sweep(config), elapsed=0.0
        )

    def test_size_guard_skips_and_counts(self):
        config = SweepConfig(
            min_strategies=50, max_strategies=60, games=5, seed=1, max_entries=100
        )
        report = sweep(config)
        assert report.games_skipped == 5
        assert report.games_checked == 0
        assert report.passed

    def test_bad_config(self):
        with pytest.raises(BadRange):
            sweep(SweepConfig(min_strategies=0))
        with pytest.raises(BadRange):
            sweep(SweepConfig(games=-1))
        with pytest.raises(BadRange):
            sweep(SweepConfig(properties=("no-such-property",)))

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
    COUNTED = ("is_symmetric", "maximin_values", "iterate_elimination", "_best_diagonal")

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
        build_report(g3x3)
        assert calls == dict.fromkeys(self.COUNTED, 1)

    def test_sweep_computes_each_fact_once_per_game(self, calls):
        report = sweep(SweepConfig(games=40, seed=3, properties=ALL_PROPERTIES))
        assert report.games_checked == 40
        assert calls == dict.fromkeys(self.COUNTED, 40)
