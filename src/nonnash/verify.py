"""Randomized verification: game generators, property checkers, sweeps.

Two facts are checked empirically here (they hold by proof; the sweeps
guard the implementation): on every symmetric game, a Hofstadter
equilibrium survives iterated minimax-dominance elimination, and grants
every player at least their maximin value.  Two more properties come
along for free: individually rational profiles always survive the first
elimination round, and batch elimination lands on the same survivors as
any one-at-a-time deletion order.

Determinism contract
--------------------
``gen_random_game(args, seed)`` draws one splitmix64 value per payoff
entry in profile enumeration order, player index fastest within a cell.
``gen_random_symmetric_game`` draws one value per payoff class instead
(a class is an own strategy plus the multiset of opponent strategies,
enumerated own-strategy-major, multisets in lexicographic order).  A
sweep gives game ``j`` the substream ``derive_seed(seed, j)`` and draws,
in order: the strategy count, the game seed, the deletion-order seed.
Identical configurations therefore produce identical reports on any
machine and under any worker count.
"""

import itertools
import os
import time
from collections.abc import Callable
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

from .errors import BadRange, NotSymmetric, SizeGuardExceeded
from .game_core import (
    MAX_ENTRIES,
    PAYOFF_MAX,
    PAYOFF_MIN,
    Game,
    Profile,
    check_size_guard,
    format_profile,
    full_sets,
    new_game,
)
from .game_io import GameDocument, serialize_game
from .rng import SplitMix64, derive_seed
from .solvers import AnalysisReport, RegionTag, build_report, eliminate_round

HOFSTADTER_RATIONALIZABLE = "hofstadter-rationalizable"
HOFSTADTER_INDIVIDUALLY_RATIONAL = "hofstadter-individually-rational"
ORDER_INDEPENDENCE = "order-independence"
IR_SURVIVES_ROUND_1 = "ir-survives-round-1"

ALL_PROPERTIES = (
    HOFSTADTER_RATIONALIZABLE,
    HOFSTADTER_INDIVIDUALLY_RATIONAL,
    IR_SURVIVES_ROUND_1,
    ORDER_INDEPENDENCE,
)


@dataclass(frozen=True)
class Verdict:
    """Outcome of one property check on one game.

    A failing verdict always carries the game (and the offending profile
    when one exists) so the counterexample can be re-checked on its own.
    """

    name: str
    passed: bool
    detail: str = ""
    game: Game | None = None
    profile: Profile | None = None


def _check_counts(n_players: int, counts) -> tuple[int, ...]:
    if n_players < 1:
        raise BadRange(f"need at least one player, got {n_players}")
    if isinstance(counts, int):
        counts = (counts,) * n_players
    counts = tuple(counts)
    if len(counts) != n_players:
        raise BadRange(f"{len(counts)} strategy counts for {n_players} players")
    for k in counts:
        if k < 1:
            raise BadRange(f"every player needs at least one strategy, got {k}")
    return counts


def _check_payoff_range(lo: int, hi: int) -> None:
    if lo > hi:
        raise BadRange(f"empty payoff range {lo}..{hi}")
    if lo < PAYOFF_MIN or hi > PAYOFF_MAX:
        raise BadRange(f"payoff range {lo}..{hi} outside [-2**62, 2**62]")


def gen_random_game(
    n_players: int,
    strategy_counts,
    lo: int,
    hi: int,
    seed: int,
    *,
    max_entries: int = MAX_ENTRIES,
) -> Game:
    """Uniform random game over [lo, hi] payoffs, fully seed-determined.

    `strategy_counts` is a per-player sequence, or one int shared by all
    players.  Player i's labels are ``s0 .. s{k_i - 1}``.
    """
    counts = _check_counts(n_players, strategy_counts)
    _check_payoff_range(lo, hi)
    check_size_guard(counts, max_entries)
    labels = tuple(tuple(f"s{v}" for v in range(k)) for k in counts)
    rng = SplitMix64(seed)
    cells = []
    for p in itertools.product(*(range(k) for k in counts)):
        cells.append((p, tuple(rng.next_in_range(lo, hi) for _ in range(n_players))))
    return new_game(labels, cells, max_entries=max_entries)


def gen_random_symmetric_game(
    n_players: int,
    strategy_count: int,
    lo: int,
    hi: int,
    seed: int,
    *,
    max_entries: int = MAX_ENTRIES,
) -> Game:
    """Random game that is symmetric by construction.

    One payoff value is drawn per class (own strategy, multiset of the
    opponents' strategies); a player's payoff at any profile is the value
    of their class, which makes the payoff tensor invariant under every
    permutation of players.
    """
    counts = _check_counts(n_players, strategy_count)
    k = counts[0]
    if any(c != k for c in counts):
        raise BadRange("symmetric games need one shared strategy count")
    _check_payoff_range(lo, hi)
    check_size_guard(counts, max_entries)
    rng = SplitMix64(seed)
    class_value: dict[tuple[int, tuple[int, ...]], int] = {}
    for own in range(k):
        for others in itertools.combinations_with_replacement(range(k), n_players - 1):
            class_value[(own, others)] = rng.next_in_range(lo, hi)
    labels = (tuple(f"s{v}" for v in range(k)),) * n_players
    cells = []
    for p in itertools.product(range(k), repeat=n_players):
        vec = tuple(
            class_value[(p[i], tuple(sorted(p[:i] + p[i + 1 :])))]
            for i in range(n_players)
        )
        cells.append((p, vec))
    return new_game(labels, cells, max_entries=max_entries)


def _require_symmetric(r: AnalysisReport, what: str) -> None:
    if not r.symmetric:
        raise NotSymmetric(f"{what} requires a symmetric game")


# The property predicates below read one AnalysisReport.  Each takes
# (report, n_orders, seed) so CHECKERS can call them alike; only
# order-independence uses the last two.


def _hofstadter_rationalizable(r: AnalysisReport, *_) -> Verdict:
    _require_symmetric(r, "the Hofstadter check")
    for p in r.hofstadter:
        if not r.regions[p].rationalizable:
            return Verdict(
                HOFSTADTER_RATIONALIZABLE,
                False,
                f"Hofstadter equilibrium {format_profile(r.game, p)} was eliminated",
                game=r.game,
                profile=p,
            )
    return Verdict(HOFSTADTER_RATIONALIZABLE, True)


def _hofstadter_individually_rational(r: AnalysisReport, *_) -> Verdict:
    _require_symmetric(r, "the Hofstadter check")
    g = r.game
    for p in r.hofstadter:
        u = g.payoffs[g.cell_index(p)]
        for i in range(g.n_players):
            if u[i] < r.maximin[i]:
                return Verdict(
                    HOFSTADTER_INDIVIDUALLY_RATIONAL,
                    False,
                    f"Hofstadter equilibrium {format_profile(g, p)} pays player {i} "
                    f"{u[i]} below the maximin {r.maximin[i]}",
                    game=g,
                    profile=p,
                )
    return Verdict(HOFSTADTER_INDIVIDUALLY_RATIONAL, True)


def _delete_pair(survivors, player: int, strategy: int):
    return tuple(
        tuple(v for v in alive if not (i == player and v == strategy))
        for i, alive in enumerate(survivors)
    )


def _order_independence(
    r: AnalysisReport, n_orders: int, seed: int, exhaustive_limit: int = 3
) -> Verdict:
    if n_orders < 1:
        raise BadRange(f"need at least one deletion order, got {n_orders}")
    g = r.game
    target = r.trace.final_survivors
    if r.trace.total_deletions == 0:
        return Verdict(ORDER_INDEPENDENCE, True, "no strategies to eliminate")

    if r.trace.total_deletions <= exhaustive_limit:
        seen = set()
        stack = [full_sets(g)]
        while stack:
            s = stack.pop()
            if s in seen:
                continue
            seen.add(s)
            _, pairs = eliminate_round(g, s)
            if not pairs:
                if s != target:
                    return Verdict(
                        ORDER_INDEPENDENCE,
                        False,
                        f"a sequential order ended at {s}, batch ended at {target}",
                        game=g,
                    )
                continue
            for player, strategy in pairs:
                stack.append(_delete_pair(s, player, strategy))
        return Verdict(
            ORDER_INDEPENDENCE, True, f"all sequential orders agree ({len(seen)} states)"
        )

    for run in range(n_orders):
        rng = SplitMix64(derive_seed(seed, run))
        s = full_sets(g)
        while True:
            _, pairs = eliminate_round(g, s)
            if not pairs:
                break
            player, strategy = pairs[rng.next_u64() % len(pairs)]
            s = _delete_pair(s, player, strategy)
        if s != target:
            return Verdict(
                ORDER_INDEPENDENCE,
                False,
                f"random order {run} ended at {s}, batch ended at {target}",
                game=g,
            )
    return Verdict(ORDER_INDEPENDENCE, True, f"{n_orders} random orders agree")


def _ir_survives_round1(r: AnalysisReport, *_) -> Verdict:
    g = r.game
    if not r.trace.rounds:
        return Verdict(IR_SURVIVES_ROUND_1, True)

    death_round: dict[tuple[int, int], int] = {}
    for round_no, batch in enumerate(r.trace.rounds, start=1):
        for pair in batch:
            death_round[pair] = round_no

    by_round: dict[int, list[Profile]] = {}
    for p in r.individually_rational:
        hits = [death_round[(i, v)] for i, v in enumerate(p) if (i, v) in death_round]
        if not hits:
            continue
        first = min(hits)
        if first == 1:
            return Verdict(
                IR_SURVIVES_ROUND_1,
                False,
                f"individually rational profile {format_profile(g, p)} uses a "
                "strategy deleted in round 1",
                game=g,
                profile=p,
            )
        by_round.setdefault(first, []).append(p)

    notes = [
        f"IR profiles eliminated in round {round_no}: "
        + ",".join(format_profile(g, p) for p in by_round[round_no])
        for round_no in sorted(by_round)
    ]
    return Verdict(IR_SURVIVES_ROUND_1, True, "; ".join(notes))


# Property name -> predicate, in the order `nonnash check` prints them.
CHECKERS: dict[str, Callable[[AnalysisReport, int, int], Verdict]] = {
    HOFSTADTER_RATIONALIZABLE: _hofstadter_rationalizable,
    HOFSTADTER_INDIVIDUALLY_RATIONAL: _hofstadter_individually_rational,
    ORDER_INDEPENDENCE: _order_independence,
    IR_SURVIVES_ROUND_1: _ir_survives_round1,
}


def check_hofstadter_rationalizable(g: Game) -> Verdict:
    """Every Hofstadter equilibrium must survive iterated elimination."""
    return _hofstadter_rationalizable(build_report(g))


def check_hofstadter_individually_rational(g: Game) -> Verdict:
    """Every Hofstadter equilibrium must reach every player's maximin."""
    return _hofstadter_individually_rational(build_report(g))


def check_order_independence(
    g: Game, n_orders: int = 20, seed: int = 0, *, exhaustive_limit: int = 3
) -> Verdict:
    """Sequential one-at-a-time deletion must match batch elimination.

    Each sequential step deletes a single currently dominated pair and
    re-scans.  When the batch trace deletes at most `exhaustive_limit`
    pairs in total, every deletion order is enumerated (with memoization
    over reached survivor states); otherwise `n_orders` random orders are
    sampled from the substreams of `seed`.  `n_orders` must be positive.
    """
    return _order_independence(build_report(g), n_orders, seed, exhaustive_limit)


def check_ir_survives_round1(g: Game) -> Verdict:
    """No individually rational profile may lose a strategy in round 1.

    Later rounds are allowed to kill them; when that happens the verdict
    still passes but reports which IR profiles die in which round.
    """
    return _ir_survives_round1(build_report(g))


def classify_regions(g: Game) -> dict[Profile, RegionTag]:
    """Tag every profile with its three region memberships.

    Only defined for symmetric games (the Hofstadter flag needs one).
    Iteration order of the result is profile enumeration order.
    """
    r = build_report(g)
    _require_symmetric(r, "region classification")
    return r.regions


def strict_inclusion_witnesses(tags: dict[Profile, RegionTag]) -> tuple[int, int]:
    """Counts of (rationalizable and not Hofstadter, IR and not Hofstadter)
    profiles; both being positive on some game shows the inclusions are
    strict, not equalities."""
    rationalizable = sum(
        1 for t in tags.values() if t.rationalizable and not t.hofstadter
    )
    rational = sum(
        1 for t in tags.values() if t.individually_rational and not t.hofstadter
    )
    return rationalizable, rational


@dataclass(frozen=True)
class SweepConfig:
    """Parameters of one sweep campaign; fully determines its report."""

    players: int = 2
    min_strategies: int = 2
    max_strategies: int = 6
    payoff_lo: int = 0
    payoff_hi: int = 99
    games: int = 1000
    seed: int = 2024
    properties: tuple[str, ...] = (
        HOFSTADTER_RATIONALIZABLE,
        HOFSTADTER_INDIVIDUALLY_RATIONAL,
        IR_SURVIVES_ROUND_1,
    )
    orders_per_game: int = 20
    max_entries: int = MAX_ENTRIES


@dataclass(frozen=True)
class SweepReport:
    """Aggregated result of a sweep campaign.

    `violations` holds (canonical game text, property name) pairs so any
    finding can be replayed through the CLI; it is empty exactly when the
    verdict is PASS.  Witness counts tally profiles over all checked
    games.  Everything except `elapsed` is a pure function of the config.
    """

    config: SweepConfig
    games_checked: int
    games_skipped: int
    violations: tuple[tuple[str, str], ...]
    rationalizable_not_hofstadter: int
    ir_not_hofstadter: int
    elapsed: float

    @property
    def passed(self) -> bool:
        return not self.violations


def _validate_config(config: SweepConfig) -> None:
    if config.games < 0:
        raise BadRange(f"negative game count {config.games}")
    if config.players < 1:
        raise BadRange(f"need at least one player, got {config.players}")
    if config.min_strategies < 1 or config.min_strategies > config.max_strategies:
        raise BadRange(
            f"bad strategy range {config.min_strategies}..{config.max_strategies}"
        )
    _check_payoff_range(config.payoff_lo, config.payoff_hi)
    if config.orders_per_game < 1:
        raise BadRange(f"need at least one deletion order, got {config.orders_per_game}")
    for prop in config.properties:
        if prop not in ALL_PROPERTIES:
            raise BadRange(f"unknown property {prop!r}")


def _sweep_chunk(config: SweepConfig, start: int, stop: int):
    checked = 0
    skipped = 0
    violations: list[tuple[int, str, str]] = []
    rationalizable_witnesses = 0
    ir_witnesses = 0
    for j in range(start, stop):
        stream = SplitMix64(derive_seed(config.seed, j))
        k = stream.next_in_range(config.min_strategies, config.max_strategies)
        game_seed = stream.next_u64()
        order_seed = stream.next_u64()
        try:
            g = gen_random_symmetric_game(
                config.players,
                k,
                config.payoff_lo,
                config.payoff_hi,
                game_seed,
                max_entries=config.max_entries,
            )
        except SizeGuardExceeded:
            skipped += 1
            continue
        checked += 1
        report = build_report(g)
        for prop in config.properties:
            if not CHECKERS[prop](report, config.orders_per_game, order_seed).passed:
                violations.append((j, serialize_game(GameDocument(game=g)), prop))
        w_rationalizable, w_ir = strict_inclusion_witnesses(report.regions)
        rationalizable_witnesses += w_rationalizable
        ir_witnesses += w_ir
    return checked, skipped, violations, rationalizable_witnesses, ir_witnesses


def sweep(config: SweepConfig, workers: int = 1) -> SweepReport:
    """Run a campaign of `config.games` random symmetric games.

    Games that trip the size guard are skipped and counted, not fatal.
    Work may be spread over up to `workers` processes, never more than
    there are CPUs or games; per-game seeding makes the report
    independent of the worker count.
    """
    _validate_config(config)
    started = time.perf_counter()
    workers = min(workers, config.games, os.cpu_count() or 1)
    if workers <= 1:
        parts = [_sweep_chunk(config, 0, config.games)]
    else:
        bounds = [
            (config.games * w // workers, config.games * (w + 1) // workers)
            for w in range(workers)
        ]
        with ProcessPoolExecutor(max_workers=workers) as pool:
            futures = [pool.submit(_sweep_chunk, config, a, b) for a, b in bounds]
            parts = [f.result() for f in futures]
    checked = sum(p[0] for p in parts)
    skipped = sum(p[1] for p in parts)
    indexed = sorted(
        (item for p in parts for item in p[2]), key=lambda item: (item[0], item[2])
    )
    return SweepReport(
        config=config,
        games_checked=checked,
        games_skipped=skipped,
        violations=tuple((text, prop) for _, text, prop in indexed),
        rationalizable_not_hofstadter=sum(p[3] for p in parts),
        ir_not_hofstadter=sum(p[4] for p in parts),
        elapsed=time.perf_counter() - started,
    )
