"""Acceptance suite.

Each test implements one acceptance criterion exactly, at zero tolerance
(every quantity in this library is an exact integer or an exact set), and
prints one pass line on success; run with ``pytest tests/test_acceptance.py -v``
or ``-s`` to see the lines.
"""

import time

from nonnash import (
    check_ir_survives_round1,
    check_order_independence,
    classify_regions,
    gen_random_game,
    gen_random_symmetric_game,
    hofstadter_equilibria,
    individually_rational_profiles,
    iterate_elimination,
    maximin_values,
    minimax_rationalizable_profiles,
    parse_game,
    pure_nash,
    SplitMix64,
    SweepConfig,
    derive_seed,
    sweep,
)
from nonnash.cli import main
from nonnash.verify import (
    HOFSTADTER_INDIVIDUALLY_RATIONAL,
    HOFSTADTER_RATIONALIZABLE,
    IR_SURVIVES_ROUND_1,
)

from oracles import (
    apply_payoff_map,
    maximin_oracle,
    nash_oracle,
    random_increasing_map,
)


def _ok(number: int, text: str) -> None:
    print(f"acceptance criterion {number}: PASS ({text})")


def _load(games_dir, name):
    return parse_game((games_dir / f"{name}.gnf").read_text()).game


def test_criterion_1_fixture_reproduction(games_dir):
    started = time.perf_counter()
    pd = _load(games_dir, "pd")
    chicken = _load(games_dir, "chicken")
    coordination = _load(games_dir, "coordination")
    g3x3 = _load(games_dir, "g3x3")

    assert pure_nash(pd) == [(0, 0)]
    assert pure_nash(chicken) == [(0, 1), (1, 0)]
    assert pure_nash(coordination) == [(0, 0), (1, 1)]

    assert hofstadter_equilibria(pd) == [(1, 1)]
    assert hofstadter_equilibria(chicken) == [(1, 1)]
    assert hofstadter_equilibria(coordination) == [(1, 1)]

    assert maximin_values(pd) == (1, 1)
    assert maximin_values(chicken) == (1, 1)
    assert maximin_values(g3x3) == (5, 5)

    assert individually_rational_profiles(pd) == [(0, 0), (1, 1)]
    assert individually_rational_profiles(chicken) == [(0, 1), (1, 0), (1, 1)]
    assert individually_rational_profiles(coordination) == [
        (0, 0), (0, 1), (1, 0), (1, 1),
    ]
    assert individually_rational_profiles(g3x3) == [(0, 0), (0, 1), (1, 0), (1, 1)]

    elapsed = time.perf_counter() - started
    assert elapsed < 1.0, f"fixture reproduction took {elapsed:.3f}s"
    _ok(1, f"all four fixture analyses exact in {elapsed * 1000:.0f}ms")


def test_criterion_2_elimination_trace(games_dir):
    trace = iterate_elimination(_load(games_dir, "g3x3"))
    assert trace.rounds == (((0, 2), (1, 2)), ((0, 1), (1, 1)))
    assert trace.final_survivors == ((0,), (0,))
    for name in ("pd", "chicken", "coordination"):
        assert iterate_elimination(_load(games_dir, name)).rounds == ()
    _ok(2, "two-round 3x3 trace and zero-round traces exact")


def test_criterion_3_symmetric_game_sweep():
    properties = (
        HOFSTADTER_RATIONALIZABLE,
        HOFSTADTER_INDIVIDUALLY_RATIONAL,
        IR_SURVIVES_ROUND_1,
    )
    two_player = sweep(
        SweepConfig(
            players=2, min_strategies=2, max_strategies=6,
            payoff_lo=0, payoff_hi=99, games=10_000, seed=2024,
            properties=properties,
        )
    )
    three_player = sweep(
        SweepConfig(
            players=3, min_strategies=2, max_strategies=4,
            payoff_lo=0, payoff_hi=99, games=1_000, seed=2025,
            properties=properties,
        )
    )
    assert two_player.violations == ()
    assert three_player.violations == ()
    assert two_player.games_checked == 10_000
    assert three_player.games_checked == 1_000
    # the witness lines of `nonnash search` for these two configurations
    assert (
        two_player.rationalizable_not_hofstadter, two_player.ir_not_hofstadter
    ) == (161_891, 82_235)
    assert (
        three_player.rationalizable_not_hofstadter, three_player.ir_not_hofstadter
    ) == (31_638, 20_400)
    elapsed = two_player.elapsed + three_player.elapsed
    assert elapsed < 60.0, f"sweep took {elapsed:.1f}s"
    _ok(3, f"11,000 symmetric games, zero violations, {elapsed:.1f}s")


def test_criterion_4_order_independence():
    disagreements = 0
    for j in range(500):
        if j < 350:
            k = 2 + derive_seed(101, j) % 5  # 2..6 strategies, 2 players
            g = gen_random_symmetric_game(2, k, 0, 99, seed=derive_seed(202, j))
        else:
            k = 2 + derive_seed(101, j) % 2  # 2..3 strategies, 3 players
            g = gen_random_symmetric_game(3, k, 0, 99, seed=derive_seed(202, j))
        verdict = check_order_independence(g, n_orders=20, seed=derive_seed(303, j))
        if not verdict.passed:
            disagreements += 1
    assert disagreements == 0
    _ok(4, "500 games x 20 deletion orders, zero disagreements")


def test_criterion_5_strict_inclusions(games_dir):
    pd_tags = classify_regions(_load(games_dir, "pd"))
    rationalizable_not_hof = {
        p for p, t in pd_tags.items() if t.rationalizable and not t.hofstadter
    }
    assert rationalizable_not_hof == {(0, 0), (0, 1), (1, 0)}  # DD, DC, CD

    chicken_tags = classify_regions(_load(games_dir, "chicken"))
    ir_not_hof = {
        p for p, t in chicken_tags.items()
        if t.individually_rational and not t.hofstadter
    }
    assert (1, 0) in ir_not_hof  # (Swerve, Straight)

    verdict = check_ir_survives_round1(_load(games_dir, "g3x3"))
    assert verdict.passed
    assert verdict.detail == "IR profiles eliminated in round 2: (A,B),(B,A),(B,B)"
    _ok(5, "strict-inclusion witnesses present in all three fixtures")


def test_criterion_6_oracle_equivalence():
    checked = 0
    for j in range(100):
        rng = SplitMix64(derive_seed(404, j))
        counts = (rng.next_in_range(1, 4), rng.next_in_range(1, 4))
        g = gen_random_game(2, counts, -20, 20, seed=rng.next_u64())
        assert pure_nash(g) == nash_oracle(g)
        assert maximin_values(g) == maximin_oracle(g)
        checked += 1
    for j in range(100):
        rng = SplitMix64(derive_seed(505, j))
        k = rng.next_in_range(1, 4)
        g = gen_random_symmetric_game(2, k, -20, 20, seed=rng.next_u64())
        assert pure_nash(g) == nash_oracle(g)
        assert maximin_values(g) == maximin_oracle(g)
        checked += 1
    assert checked == 200
    _ok(6, "200 games: nash and maximin match independent oracles exactly")


def test_criterion_7_ordinal_invariance():
    for j in range(100):
        rng = SplitMix64(derive_seed(606, j))
        k = rng.next_in_range(2, 5)
        g = gen_random_symmetric_game(2, k, 0, 60, seed=rng.next_u64())
        base = (
            pure_nash(g),
            hofstadter_equilibria(g),
            iterate_elimination(g),
            minimax_rationalizable_profiles(g),
            individually_rational_profiles(g),
        )
        values = [u for cell in zip(*g.columns) for u in cell]
        for _ in range(5):
            mapping = random_increasing_map(values, rng)
            h = apply_payoff_map(g, mapping)
            assert (
                pure_nash(h),
                hofstadter_equilibria(h),
                iterate_elimination(h),
                minimax_rationalizable_profiles(h),
                individually_rational_profiles(h),
            ) == base
            assert maximin_values(h) == tuple(mapping[v] for v in maximin_values(g))
    _ok(7, "100 games x 5 increasing maps: all solution sets unchanged")


def test_criterion_8_search_determinism(capsys):
    flags = ["search", "--players", "2", "--strategies", "2..4",
             "--games", "300", "--seed", "99"]

    def run(extra=()):
        code = main(flags + list(extra))
        out = capsys.readouterr().out
        assert code == 0
        return "\n".join(
            line for line in out.splitlines() if not line.startswith("elapsed:")
        )

    first = run()
    second = run()
    assert first == second
    with_two_workers = run(["--workers", "2"])
    with_three_workers = run(["--workers", "3"])
    assert first == with_two_workers == with_three_workers
    _ok(8, "search output byte-identical across runs and worker counts")
