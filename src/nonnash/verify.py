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
entry in profile enumeration order, player index fastest within a cell,
and ``gen_random_symmetric_game`` one value per payoff class, in one batch
in the class order of ``game_core._symmetric_layout``, and places them
through ``game_core._symmetric_game``.  Both generators check their
arguments through ``game_core`` before any draw and write the table in
cell order with no ``new_game`` pass: it is valid by construction.  A
seed is any int, not a bool, read mod 2**64.  Sweep game ``j`` draws from
the substream ``derive_seed(seed, j)``, in order: the strategy count, the
game seed, the deletion-order seed.  A sweep builds one layout per
strategy count and fills it for every game of that count, so its games
equal the generator's.  Per batch of up to ``_BATCH`` games it draws
through ``rng.draw_streams`` the substream seeds (seed j is draw j of the
master stream), then those three values per game, then the class values
of its games not skipped.  Each value is the one its stream would draw
alone, so identical configurations give identical reports on any machine
and under any worker count.
"""

import itertools
import math
import os
import time
from collections.abc import Callable
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

from .errors import BadRange, NotSymmetric, SizeGuardExceeded
from .game_core import (
    MAX_ENTRIES,
    Game,
    Profile,
    _symmetric_game,
    _symmetric_layout,
    _SymmetricLayout,
    are_ints,
    check_count,
    check_payoff_range,
    check_shape,
    check_size_guard,
    full_sets,
    profiles,
    remove_pairs,
)
from .game_io import GameDocument, format_profile, serialize_game
from .rng import GOLDEN, MASK64, SplitMix64, derive_seed, draw_streams
from .solvers import (
    AnalysisReport,
    RegionTag,
    build_report,
    eliminate_round,
    sequential_elimination,
)

HOFSTADTER_RATIONALIZABLE = "hofstadter-rationalizable"
HOFSTADTER_INDIVIDUALLY_RATIONAL = "hofstadter-individually-rational"
ORDER_INDEPENDENCE = "order-independence"
IR_SURVIVES_ROUND_1 = "ir-survives-round-1"

# Order-independence enumerates every deletion order when the batch trace
# deletes at most this many pairs, and samples random orders above it.
EXHAUSTIVE_LIMIT = 3

# A sweep draws the class values of up to this many games at once.
_BATCH = 64


@dataclass(frozen=True)
class Verdict:
    """Outcome of one property check on one game, which the caller holds.

    A failing verdict names the offending profile when there is one.
    """

    name: str
    passed: bool
    detail: str = ""
    profile: Profile | None = None


def _labels(k: int) -> tuple[str, ...]:
    return tuple(f"s{v}" for v in range(k))


def _check_seed(seed) -> None:
    """BadRange unless `seed` is an int, not a bool."""
    if not are_ints(seed):
        raise BadRange(f"seed {seed!r} is not an integer")


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
    counts = check_shape(n_players, strategy_counts)
    check_payoff_range(lo, hi)
    check_size_guard(counts, max_entries)
    _check_seed(seed)
    labels = tuple(map(_labels, counts))
    draws = next(draw_streams([(seed, math.prod(counts) * n_players)], lo, hi))
    # The draws run cell by cell, so player i's column is every n-th from i.
    return Game(labels, tuple(tuple(draws[i::n_players]) for i in range(n_players)))


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
    counts = check_shape(n_players, strategy_count)
    k = check_count(strategy_count, "symmetric games need one shared strategy count")
    check_payoff_range(lo, hi)
    check_size_guard(counts, max_entries)
    _check_seed(seed)
    layout = _symmetric_layout(n_players, _labels(k))
    return _symmetric_game(layout, next(draw_streams([(seed, layout[2])], lo, hi)))


def _require_symmetric(r: AnalysisReport, what: str) -> None:
    if not r.symmetric:
        raise NotSymmetric(f"{what} requires a symmetric game")


# The property predicates below read one AnalysisReport.  Each takes
# (report, n_orders, seed) so CHECKERS can call them alike; only
# order-independence uses the last two.


def _hofstadter_rationalizable(r: AnalysisReport, *_) -> Verdict:
    _require_symmetric(r, "the Hofstadter check")
    for p in r.hofstadter:
        if any(v not in alive for v, alive in zip(p, r.trace.final_survivors)):
            return Verdict(
                HOFSTADTER_RATIONALIZABLE,
                False,
                f"Hofstadter equilibrium {format_profile(r.game, p)} was eliminated",
                profile=p,
            )
    return Verdict(HOFSTADTER_RATIONALIZABLE, True)


def _hofstadter_individually_rational(r: AnalysisReport, *_) -> Verdict:
    _require_symmetric(r, "the Hofstadter check")
    g = r.game
    # Hofstadter profile (a, ..., a) is cell a * sum(strides): read only those.
    for p in r.hofstadter:
        cell = p[0] * sum(g.strides)
        for i, (column, floor) in enumerate(zip(g.columns, r.maximin)):
            if (u := column[cell]) < floor:
                return Verdict(
                    HOFSTADTER_INDIVIDUALLY_RATIONAL,
                    False,
                    f"Hofstadter equilibrium {format_profile(g, p)} pays player {i} "
                    f"{u} below the maximin {floor}",
                    profile=p,
                )
    return Verdict(HOFSTADTER_INDIVIDUALLY_RATIONAL, True)


def _order_independence(r: AnalysisReport, n_orders: int, seed: int) -> Verdict:
    check_count(n_orders, "need at least one deletion order")
    _check_seed(seed)
    g = r.game
    target = r.trace.final_survivors
    if r.trace.total_deletions == 0:
        return Verdict(ORDER_INDEPENDENCE, True, "no strategies to eliminate")

    if r.trace.total_deletions <= EXHAUSTIVE_LIMIT:
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
                    )
                continue
            for player, strategy in pairs:
                stack.append(remove_pairs(s, {(player, strategy)}))
        return Verdict(
            ORDER_INDEPENDENCE, True, f"all sequential orders agree ({len(seen)} states)"
        )

    for run in range(n_orders):
        rng = SplitMix64(derive_seed(seed, run))
        s = sequential_elimination(g, lambda pairs: pairs[rng.next_u64() % len(pairs)])
        if s != target:
            return Verdict(
                ORDER_INDEPENDENCE,
                False,
                f"random order {run} ended at {s}, batch ended at {target}",
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
    for p in itertools.compress(profiles(g), r.ir_mask):
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
                profile=p,
            )
        by_round.setdefault(first, []).append(p)

    notes = [
        f"IR profiles eliminated in round {round_no}: "
        + ",".join(format_profile(g, p) for p in by_round[round_no])
        for round_no in sorted(by_round)
    ]
    return Verdict(IR_SURVIVES_ROUND_1, True, "; ".join(notes))


# Property name -> predicate: the one list of properties, in the order
# `nonnash check` prints them.
CHECKERS: dict[str, Callable[[AnalysisReport, int, int], Verdict]] = {
    HOFSTADTER_RATIONALIZABLE: _hofstadter_rationalizable,
    HOFSTADTER_INDIVIDUALLY_RATIONAL: _hofstadter_individually_rational,
    ORDER_INDEPENDENCE: _order_independence,
    IR_SURVIVES_ROUND_1: _ir_survives_round1,
}
ALL_PROPERTIES = tuple(CHECKERS)


def check_hofstadter_rationalizable(g: Game) -> Verdict:
    """Every Hofstadter equilibrium must survive iterated elimination."""
    return _hofstadter_rationalizable(build_report(g))


def check_hofstadter_individually_rational(g: Game) -> Verdict:
    """Every Hofstadter equilibrium must reach every player's maximin."""
    return _hofstadter_individually_rational(build_report(g))


def check_order_independence(g: Game, n_orders: int = 20, seed: int = 0) -> Verdict:
    """Sequential one-at-a-time deletion must match batch elimination.

    Each sequential step deletes a single currently dominated pair and
    re-scans.  When the batch trace deletes at most :data:`EXHAUSTIVE_LIMIT`
    pairs in total, every deletion order is enumerated (with memoization
    over reached survivor states); otherwise `n_orders` random orders are
    sampled from the substreams of `seed`.  `n_orders` must be positive and
    `seed` an int.
    """
    return _order_independence(build_report(g), n_orders, seed)


def check_ir_survives_round1(g: Game) -> Verdict:
    """No individually rational profile may lose a strategy in round 1.

    Later rounds are allowed to kill them; when that happens the verdict
    still passes but reports which IR profiles die in which round.
    """
    return _ir_survives_round1(build_report(g))


def classify_regions(g: Game) -> dict[Profile, RegionTag]:
    """Tag every profile with its flags, one :class:`RegionTag` each.

    Only defined for symmetric games (the Hofstadter flag needs one).
    Iteration order of the result is profile enumeration order.
    """
    r = build_report(g)
    _require_symmetric(r, "region classification")
    return r.regions


def strict_inclusion_witnesses(tags: dict[Profile, RegionTag]) -> tuple[int, int]:
    """:func:`_check_game`'s two witness counts, read from region tags; both
    positive on some game shows the paper's inclusions are strict."""
    rationalizable = sum(1 for t in tags.values() if t.rationalizable and not t.hofstadter)
    rational = sum(1 for t in tags.values() if t.individually_rational and not t.hofstadter)
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
    properties: tuple[str, ...] = tuple(p for p in CHECKERS if p != ORDER_INDEPENDENCE)
    orders_per_game: int = 20
    max_entries: int = MAX_ENTRIES


@dataclass(frozen=True)
class SweepReport:
    """Aggregated result of a sweep campaign.

    `violations` holds (canonical game text, property name) pairs, by
    game, then in ``config.properties`` order, so any finding can be
    replayed through the CLI; it is empty exactly when the verdict is
    PASS.  Witness counts sum :func:`_check_game`'s over the checked
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
    # A sweep that can check no game must not pass: every check here runs
    # before the first draw.
    check_count(config.games, "need at least one game")
    # An int max_strategies not below the count min_strategies is a count.
    k_min, k_max = config.min_strategies, config.max_strategies
    if not are_ints(k_min, k_max) or k_min > k_max:
        raise BadRange(f"bad strategy range {k_min!r}..{k_max!r}")
    check_size_guard(check_shape(config.players, k_min), config.max_entries)
    check_payoff_range(config.payoff_lo, config.payoff_hi)
    check_count(config.orders_per_game, "need at least one deletion order")
    _check_seed(config.seed)
    choices = f"(choose from: {', '.join(ALL_PROPERTIES)})"
    if not isinstance(config.properties, (tuple, list)):
        raise BadRange(f"properties must be a tuple of names, got {config.properties!r}")
    if not config.properties:
        raise BadRange(f"no property to check {choices}")
    for n, prop in enumerate(config.properties):
        if prop not in ALL_PROPERTIES:
            raise BadRange(f"unknown property {prop!r} {choices}")
        if prop in config.properties[:n]:
            raise BadRange(f"property {prop!r} listed twice")


def _sweep_games(config: SweepConfig, start: int, stop: int):
    """Sweep games ``start .. stop - 1`` not skipped, in order, with their order seeds."""
    # One layout per strategy count, None for a count over the size guard.
    # _validate_config has checked the payoff range and the player count;
    # each new count gets the generator's shape and size checks here.
    layouts: dict[int, _SymmetricLayout | None] = {}
    for a in range(start, stop, _BATCH):
        # game j's substream seed is draw j of the master stream
        seeds = next(draw_streams([(config.seed + a * GOLDEN, min(_BATCH, stop - a))], 0, MASK64))
        games = []
        for raw, game_seed, order_seed in draw_streams([(s, 3) for s in seeds], 0, MASK64):
            # the strategy count, as next_in_range reduces its draw
            k = config.min_strategies + raw % (config.max_strategies - config.min_strategies + 1)
            if k not in layouts:
                try:
                    check_size_guard(check_shape(config.players, k), config.max_entries)
                except SizeGuardExceeded:
                    layouts[k] = None
                else:
                    layouts[k] = _symmetric_layout(config.players, _labels(k))
            if (layout := layouts[k]) is not None:
                games.append((layout, game_seed, order_seed))
        streams = [(game_seed, layout[2]) for layout, game_seed, _ in games]
        draws = draw_streams(streams, config.payoff_lo, config.payoff_hi)
        for (layout, _, order_seed), values in zip(games, draws):
            yield _symmetric_game(layout, values), order_seed


def _check_game(config: SweepConfig, g: Game, order_seed: int) -> tuple[list, int, int]:
    """One sweep game's violations, as (canonical game text, property name)
    pairs in ``config.properties`` order, and its witness counts: profiles
    rationalizable, and profiles IR, that are not Hofstadter.  Both read the
    one report: the survivor sets' product and the IR mask bytes set, less
    the Hofstadter profiles (a, ..., a) among them, at cells a * sum(strides)."""
    report = build_report(g)
    violations = []
    for prop in config.properties:
        if not CHECKERS[prop](report, config.orders_per_game, order_seed).passed:
            violations.append((serialize_game(GameDocument(game=g)), prop))
    survivors = report.trace.final_survivors
    mask = report.ir_mask
    rationalizable = math.prod(map(len, survivors)) - sum(
        all(v in alive for v, alive in zip(p, survivors)) for p in report.hofstadter
    )
    rational = mask.count(1) - sum(mask[p[0] * sum(g.strides)] for p in report.hofstadter)
    return violations, rationalizable, rational


def _sweep_chunk(config: SweepConfig, start: int, stop: int):
    checked = rationalizable = rational = 0
    violations: list[tuple[str, str]] = []
    for checked, (g, order_seed) in enumerate(_sweep_games(config, start, stop), 1):
        found, w_rationalizable, w_rational = _check_game(config, g, order_seed)
        violations += found
        rationalizable += w_rationalizable
        rational += w_rational
    return checked, violations, rationalizable, rational


def sweep(config: SweepConfig, workers: int = 1) -> SweepReport:
    """Run a campaign of `config.games` random symmetric games.

    Games that trip the size guard are skipped and counted, not fatal;
    a config under which no game could be checked (no games, or a guard
    tripped by the smallest strategy count) raises before any draw, and a
    sweep whose draws all trip the guard raises SizeGuardExceeded after
    them, so a sweep that checks no game never passes.
    Work may be spread over up to `workers` processes, never more than
    there are CPUs or games, and runs in this process when `workers` is
    below 2 (a `workers` that is not an int raises BadRange); per-game
    seeding makes the report independent of the worker count.  Workers
    take contiguous ranges of games, joined in order, so violations come
    out by game, then in ``config.properties`` order, unsorted.  Each game
    is checked, and its witnesses counted, by :func:`_check_game`.
    """
    _validate_config(config)
    if not are_ints(workers):
        raise BadRange(f"worker count {workers!r} is not an integer")
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
    # The chunks partition range(config.games).
    skipped = config.games - checked
    if not checked:
        raise SizeGuardExceeded(
            f"no game was checked: {skipped} skipped, each needing more than "
            f"{config.max_entries} payoff entries (cells x players)"
        )
    return SweepReport(
        config=config,
        games_checked=checked,
        games_skipped=skipped,
        violations=tuple(v for p in parts for v in p[1]),
        rationalizable_not_hofstadter=sum(p[2] for p in parts),
        ir_not_hofstadter=sum(p[3] for p in parts),
        elapsed=time.perf_counter() - started,
    )
