"""Solution concepts for normal-form games.

Five families are implemented:

* pure Nash equilibria: no player gains by a unilateral deviation;
* Hofstadter (superrational) equilibria: on symmetric games, the diagonal
  profiles with the best diagonal payoff;
* minimax-dominance elimination: iterated deletion of strategies whose
  best case is strictly worse than another strategy's worst case, and the
  profiles surviving it;
* maximin values: each player's best guaranteed payoff;
* individually rational profiles: profiles granting every player at least
  their maximin value.

Everything is exact integer comparison; no payoff arithmetic anywhere.
:func:`build_report` runs each solver once per game and stores maximin,
the IR mask (one 0/1 byte per profile), the elimination trace and the
Hofstadter profiles (symmetry is read off them); the rest is derived on
read.  The codes are the one per-profile pass: one byte of flag bits per
profile, built in C-level passes (the rationalizable byte one player at a
time from strides), which every report format reads; `flags` and `regions`
read each code's :class:`RegionTag` record.

The solvers read :attr:`Game.own_rows`: for each player and own strategy,
the player's payoffs over every joint opponent profile, in one shared
opponent order.  Maximin is the best row minimum, and pure Nash compares
each cell with the per-opponent-profile maximum over the player's rows.
Pure Nash's cells, the IR mask and the Hofstadter diagonal read the one
stored table, :attr:`Game.columns`: each player's payoffs in cell order.

Elimination keeps one state per run (:class:`_Elimination`).  A run from
the full sets (:func:`iterate_elimination`, :func:`sequential_elimination`)
starts with every strategy alive and no pass over the sets; a run from
given sets deletes what they leave out.  Until the first deletion nothing
is sorted: round 1 is decided from each row's minimum and maximum over the
full game, so the best guarantees that :meth:`_Elimination.dominated`
returns with round 1's batch are the maximin values, which
:func:`build_report` reads off its one run.  The first deletion sorts each
row's entries once by payoff and adds a dead flag per opponent profile and
a pointer to the least and to the greatest alive entry of each row.  A
deletion only sets the dead flags of the opponent profiles that use the
deleted strategy.  Since flags are never cleared, both pointers only move
inward, so a run scans each row at most once in total instead of once per
round.  :func:`iterate_elimination`, :func:`eliminate_round`,
:func:`is_minimax_dominated` and :func:`sequential_elimination` all use it.

On a symmetric game (:attr:`Game.symmetric`) every player has player 0's
rows and the sets start full, hence equal; equal sets give every player
the same alive opponent profile indices, so each round deletes the same
strategies for every player and the sets stay equal.  So a Hofstadter
profile (a, ..., a) can be followed round by round, and
:func:`iterate_elimination` mirrors player 0: the state sorts, flags and
scans player 0's rows alone and repeats player 0's batch and guarantee
for every player.  Any other game, even one whose players share rows,
tracks every player.
"""

import itertools
from array import array
from collections.abc import Callable
from dataclasses import dataclass
from functools import cached_property
from operator import eq, ge, mul
from typing import NamedTuple

from .errors import DeadStrategy, NotSymmetric
from .game_core import (
    Game,
    Profile,
    Survivors,
    check_index,
    is_symmetric,
    normalize_survivors,
    profiles,
)

# One best-worst payoff per player.
MaximinVector = tuple[int, ...]


@dataclass(frozen=True)
class EliminationTrace:
    """Record of one batch-elimination run.

    `rounds` holds one sorted tuple of deleted (player, strategy) pairs
    per non-empty round; the run stops at the first round that deletes
    nothing, which is not recorded.  `final_survivors` always keeps at
    least one strategy per player: a strategy attaining the (current)
    maximin can never be minimax-dominated, since a dominator's worst
    payoff would have to beat that strategy's best one.
    """

    rounds: tuple[tuple[tuple[int, int], ...], ...]
    final_survivors: Survivors

    @property
    def total_deletions(self) -> int:
        return sum(len(r) for r in self.rounds)


def pure_nash(g: Game) -> list[Profile]:
    """All pure Nash equilibria, in profile enumeration order.

    A profile qualifies when every unilateral deviation of every player
    yields at most the player's current payoff.
    """
    best_by_cell = [
        _by_cell(list(map(max, zip(*rows))), stride, len(rows))
        for rows, stride in zip(g.own_rows, g.strides)
    ]
    # u_i never exceeds player i's best, so u equals the bests iff Nash.
    return list(itertools.compress(profiles(g), map(eq, zip(*g.columns), zip(*best_by_cell))))


def _by_cell(values: list[int], stride: int, k: int):
    """Spread `values`, one per opponent profile of a player with `k`
    strategies and place value `stride`, lazily over the cells in order."""
    return itertools.chain.from_iterable(
        values[x : x + stride] * k for x in range(0, len(values), stride)
    )


def hofstadter_equilibria(g: Game) -> list[Profile]:
    """Diagonal profiles maximizing the (shared) diagonal payoff.

    Superrational players reason identically, so they only consider
    outcomes where everyone picks the same strategy, and settle on the
    best of those.  By symmetry the player-0 payoff decides; every
    maximizer is returned on ties.  Undefined off the symmetric class.
    """
    if not is_symmetric(g):
        raise NotSymmetric("Hofstadter equilibria are defined only for symmetric games")
    return _best_diagonal(g)


def _best_diagonal(g: Game) -> list[Profile]:
    """Diagonal profiles of symmetric `g` best for player 0, in order."""
    # Profile (a, ..., a) is cell a * sum(strides): the slice is the diagonal.
    values = g.columns[0][:: sum(g.strides)]
    best = max(values)
    return [(a,) * g.n_players for a, u in enumerate(values) if u == best]


def maximin_values(g: Game) -> MaximinVector:
    """Each player's best worst payoff.

    Entry i is the max over player i's strategies of the min over all
    joint opponent profiles of player i's payoff.  :func:`build_report`
    reads the same values off round 1 of its elimination run instead.
    """
    return tuple(max(map(min, rows)) for rows in g.own_rows)


def individually_rational_profiles(g: Game) -> list[Profile]:
    """Profiles granting every player at least their maximin value.

    Thresholds are always computed against the full game, never a reduced
    one.
    """
    return list(itertools.compress(profiles(g), _rational_mask(g, maximin_values(g))))


def _rational_mask(g: Game, thresholds: MaximinVector) -> bytes:
    """Per profile, in order, 1 if every player meets their threshold, else
    0, from each player's :attr:`Game.columns` entry."""
    # Player i's column becomes one 0/1 byte per cell; read as big-endian
    # ints, the players' bytes AND byte by byte.
    mask = -1
    for column, floor in zip(g.columns, thresholds):
        mask &= int.from_bytes(bytes(map(ge, column, itertools.repeat(floor))), "big")
    return mask.to_bytes(len(g.columns[0]), "big")


class _Elimination:
    """Alive strategies and per-row min/max pointers of one elimination run.

    Until the first deletion every opponent profile is alive, so
    :meth:`bounds` takes each row's minimum and maximum directly: round 1
    of a game that deletes nothing never sorts.  The first :meth:`delete`
    sorts the rows.  From then on, for each tracked player i,
    `_orders[i][a]` lists the opponent-profile indices of row
    ``own_rows[i][a]`` in ascending payoff order, `_dead[i]` flags the
    opponent profiles that use a deleted strategy, and `_lo[i][a]` and
    `_hi[i][a]` point into the order at the least and greatest alive entry.
    Every player is tracked unless :meth:`mirror` narrows the run to
    player 0.  A run given no `survivors` starts from the full sets.
    """

    def __init__(self, g: Game, survivors: Survivors | None = None):
        self._rows = g.own_rows
        self._orders: list[list[array]] | None = None
        self._strides = g.strides
        self._counts = counts = g.strategy_counts
        self.alive = [list(range(k)) for k in counts]
        for i, keep in enumerate(survivors or ()):
            for v in set(range(counts[i])) - set(keep):
                self.delete(i, v)

    def mirror(self) -> None:
        """Track player 0 alone, whose bounds then decide every player's
        batch; sound on a symmetric game run from the full sets (module
        docstring).  Any player's deletion still sets player 0's dead flags."""
        self._rows = self._rows[:1]

    def _sort(self) -> None:
        self._orders = [
            [array("I", sorted(range(len(row)), key=row.__getitem__)) for row in rows]
            for rows in self._rows
        ]
        self._lo = [[0] * len(rows) for rows in self._rows]
        self._hi = [[len(rows[0]) - 1] * len(rows) for rows in self._rows]
        self._dead = [bytearray(len(rows[0])) for rows in self._rows]

    def delete(self, player: int, strategy: int) -> None:
        """Remove one alive strategy and kill the opponent profiles using it."""
        if self._orders is None:
            self._sort()
        self.alive[player].remove(strategy)
        k = self._counts[player]
        for i, dead in enumerate(self._dead):
            if i == player:
                continue
            # `player`'s place value among i's opponents
            stride = self._strides[player]
            if player < i:
                stride //= self._counts[i]
            for h in range(strategy * stride, len(dead), k * stride):
                dead[h : h + stride] = b"\x01" * stride

    def bounds(self, player: int) -> tuple[list[int], list[int]]:
        """Min and max payoff of each alive strategy of tracked `player`
        over the alive opponent profiles, aligned with ``alive[player]``."""
        rows = self._rows[player]
        if self._orders is None:
            return list(map(min, rows)), list(map(max, rows))
        orders = self._orders[player]
        lo, hi, dead = self._lo[player], self._hi[player], self._dead[player]
        mins, maxs = [], []
        for a in self.alive[player]:
            order = orders[a]
            x, y = lo[a], hi[a]
            while dead[order[x]]:
                x += 1
            while dead[order[y]]:
                y -= 1
            lo[a], hi[a] = x, y
            mins.append(rows[a][order[x]])
            maxs.append(rows[a][order[y]])
        return mins, maxs

    def dominated(self) -> tuple[list[tuple[int, int]], MaximinVector]:
        """Every minimax-dominated (player, strategy) pair, sorted, and each
        player's best guarantee; a strategy attaining it is never among the
        pairs.  A mirrored run repeats player 0's pairs and guarantee for
        every player (module docstring)."""
        batch, best = [], []
        for i, alive in enumerate(self.alive[: len(self._rows)]):
            mins, maxs = self.bounds(i)
            best.append(max(mins))
            batch.extend((i, a) for a, top in zip(alive, maxs) if top < best[-1])
        if len(self._rows) < len(self.alive):
            batch = [(i, a) for i in range(len(self.alive)) for _, a in batch]
            best *= len(self.alive)
        return batch, tuple(best)

    def survivors(self) -> Survivors:
        return tuple(map(tuple, self.alive))


def is_minimax_dominated(
    g: Game, survivors, player: int, strategy: int
) -> tuple[bool, int | None]:
    """Whether `strategy` is minimax-dominated within the surviving sets.

    True when some alive strategy of the same player has a *strictly*
    greater minimum payoff than `strategy`'s maximum payoff, both taken
    over alive joint opponent profiles.  Ties never dominate.  Returns
    the lowest-index witness dominator on True.
    """
    s = normalize_survivors(g, survivors)
    check_index(player, g.n_players, "player")
    check_index(strategy, g.strategy_counts[player], f"player {player}: strategy")
    if strategy not in s[player]:
        raise DeadStrategy(f"player {player} strategy {strategy} is not in the surviving set")
    mins, maxs = _Elimination(g, s).bounds(player)
    cap = maxs[s[player].index(strategy)]
    for candidate, low in zip(s[player], mins):
        if low > cap:
            return True, candidate
    return False, None


def eliminate_round(g: Game, survivors) -> tuple[Survivors, list[tuple[int, int]]]:
    """One batch round: find all dominated pairs, then delete them at once.

    Every domination test in the round is evaluated against the incoming
    sets, never against partial deletions of the same round, so the batch
    is deterministic and keeps symmetric games symmetric (the lemma in the
    module docstring, which lets :func:`iterate_elimination` mirror player
    0).  This round tracks every player, as its incoming sets may differ.
    An empty batch is a legal result.
    """
    state = _Elimination(g, normalize_survivors(g, survivors))
    batch, _ = state.dominated()
    for pair in batch:
        state.delete(*pair)
    return state.survivors(), batch


def iterate_elimination(g: Game) -> EliminationTrace:
    """Run batch elimination from the full sets to a fixed point."""
    return _iterate(g)[0]


def _iterate(g: Game) -> tuple[EliminationTrace, MaximinVector]:
    """:func:`iterate_elimination`'s run, mirrored when `g` is symmetric,
    and its round 1 guarantees, the maximin values (module docstring)."""
    state = _Elimination(g)
    if g.symmetric:
        state.mirror()
    batch, maximin = state.dominated()
    rounds: list[tuple[tuple[int, int], ...]] = []
    while batch:
        rounds.append(tuple(batch))
        for pair in batch:
            state.delete(*pair)
        batch, _ = state.dominated()
    return EliminationTrace(tuple(rounds), state.survivors()), maximin


def sequential_elimination(
    g: Game, choose: Callable[[list[tuple[int, int]]], tuple[int, int]]
) -> Survivors:
    """Delete one dominated pair at a time until none is left.

    At each step `choose` receives every currently dominated pair, sorted,
    and returns the one to delete; returns the final surviving sets.
    """
    state = _Elimination(g)
    while pairs := state.dominated()[0]:
        state.delete(*choose(pairs))
    return state.survivors()


def minimax_rationalizable_profiles(g: Game) -> list[Profile]:
    """Profiles made only of strategies that survive iterated elimination,
    in profile enumeration order."""
    return list(itertools.product(*iterate_elimination(g).final_survivors))


class RegionTag(NamedTuple):
    """The flags of one profile: a pure Nash equilibrium, a Hofstadter
    profile (None on an asymmetric game), individually rational and
    minimax-rationalizable."""

    nash: bool
    hofstadter: bool | None
    individually_rational: bool
    rationalizable: bool


# The bit layout of AnalysisReport.codes: bit j of a code is field j of its
# record.  _RECORDS[symmetric][code] is the code's record, one per code per
# table, shared by every report's `flags`, which would otherwise hold one per
# profile for as long as the report lives.  An asymmetric game's codes never
# set the Hofstadter bit (j = 1), and its records hold None there.  Records
# the theorem rules out stay, so a violation reaches `check` as a verdict
# rather than as a KeyError.
_RECORDS = {
    symmetric: tuple(
        RegionTag(*(code >> j & 1 == 1 if symmetric or j != 1 else None for j in range(4)))
        for code in range(16)
    )
    for symmetric in (False, True)
}


@dataclass(frozen=True)
class AnalysisReport:
    """Every solution concept of one game, ready for rendering.

    Fields hold solver outputs, `ir_mask` as one byte per profile (1 if
    individually rational).  `individually_rational` (the profiles it
    marks), `symmetric`, `nash`, `codes` and `flags` are derived on read.
    `codes` is the one per-profile pass; `flags` and `regions` read each
    code's record.  Profiles are in enumeration order; `hofstadter` and
    `regions` are None exactly on asymmetric games.
    """

    name: str
    game: Game
    hofstadter: tuple[Profile, ...] | None
    maximin: MaximinVector
    ir_mask: bytes
    trace: EliminationTrace

    @property
    def symmetric(self) -> bool:
        """Read off the Hofstadter set, which only symmetric games have."""
        return self.hofstadter is not None

    @cached_property
    def nash(self) -> tuple[Profile, ...]:
        return tuple(pure_nash(self.game))

    @cached_property
    def individually_rational(self) -> tuple[Profile, ...]:
        return tuple(itertools.compress(profiles(self.game), self.ir_mask))

    @cached_property
    def codes(self) -> bytes:
        """One byte per profile, in enumeration order, holding its flags as
        bits: 1 pure Nash, 2 Hofstadter, 4 individually rational and 8
        minimax-rationalizable, the last built one player at a time from
        strides (:attr:`_records` reads them back)."""
        g = self.game
        # The few Nash (bit 0) and Hofstadter (bit 1) profiles go in by cell
        # index.
        few = bytearray(len(g.columns[0]))
        for j, found in enumerate((self.nash, self.hofstadter or ())):
            for p in found:
                few[sum(map(mul, p, g.strides))] |= 1 << j
        # Rationalizable: per player, one 0/1 byte per cell, 1 where the
        # player's strategy survives elimination.  Player i's strategy runs
        # `stride` cells and the k runs repeat over the table, so the bytes
        # are one block of k runs, repeated; as big-endian ints the players'
        # bytes AND, as in _rational_mask.
        rationalizable = -1
        for k, stride, alive in zip(g.strategy_counts, g.strides, self.trace.final_survivors):
            block = b"".join(bytes([v in alive]) * stride for v in range(k))
            rationalizable &= int.from_bytes(block * (len(few) // len(block)), "big")
        # The IR mask and the rationalizable bytes are one byte of 0 or 1 per
        # profile; a shift moves every byte's bit into place (individually
        # rational to bit 2, rationalizable to bit 3) and no byte carries.
        code = int.from_bytes(few, "big") | int.from_bytes(self.ir_mask, "big") << 2
        return (code | rationalizable << 3).to_bytes(len(few), "big")

    @property
    def _records(self) -> tuple[RegionTag, ...]:
        """The shared :class:`RegionTag` record of each code, by code."""
        return _RECORDS[self.symmetric]

    @cached_property
    def flags(self) -> tuple[RegionTag, ...]:
        """One :class:`RegionTag` per profile, in enumeration order."""
        return tuple(map(self._records.__getitem__, self.codes))

    @cached_property
    def regions(self) -> dict[Profile, RegionTag] | None:
        if self.hofstadter is None:
            return None
        return dict(zip(profiles(self.game), self.flags))


def build_report(game: Game, name: str = "") -> AnalysisReport:
    """Run every solver on `game` once; maximin is elimination's round 1."""
    trace, maximin = _iterate(game)
    return AnalysisReport(
        name=name,
        game=game,
        hofstadter=tuple(_best_diagonal(game)) if is_symmetric(game) else None,
        maximin=maximin,
        ir_mask=_rational_mask(game, maximin),
        trace=trace,
    )
