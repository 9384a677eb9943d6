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
:func:`build_report` computes each of these once per game; the checkers,
sweeps, renderers and CLI all read its record.
"""

from dataclasses import dataclass

from .errors import DeadStrategy, IndexOutOfRange
from .game_core import (
    Game,
    Profile,
    Survivors,
    diagonal_profiles,
    full_sets,
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


def _strategy_bounds(g: Game, s: Survivors, player: int):
    """Min and max payoff of each alive strategy of `player`, taken over
    the joint profiles of the *alive* opponent strategies."""
    strides = g.strides
    payoff_table = g.payoffs
    offsets = [0]
    for j in range(g.n_players):
        if j == player:
            continue
        stride = strides[j]
        offsets = [base + stride * v for base in offsets for v in s[j]]
    own_stride = strides[player]
    mins: dict[int, int] = {}
    maxs: dict[int, int] = {}
    for own in s[player]:
        base = own * own_stride
        values = [payoff_table[base + off][player] for off in offsets]
        mins[own] = min(values)
        maxs[own] = max(values)
    return mins, maxs


def pure_nash(g: Game) -> list[Profile]:
    """All pure Nash equilibria, in profile enumeration order.

    A profile qualifies when every unilateral deviation of every player
    yields at most the player's current payoff.
    """
    counts = g.strategy_counts
    strides = g.strides
    payoff_table = g.payoffs
    result = []
    for p in profiles(g):
        idx = g.cell_index(p)
        stable = True
        for i, k in enumerate(counts):
            u = payoff_table[idx][i]
            base = idx - p[i] * strides[i]
            stride = strides[i]
            for alt in range(k):
                if payoff_table[base + alt * stride][i] > u:
                    stable = False
                    break
            if not stable:
                break
        if stable:
            result.append(p)
    return result


def hofstadter_equilibria(g: Game) -> list[Profile]:
    """Diagonal profiles maximizing the (shared) diagonal payoff.

    Superrational players reason identically, so they only consider
    outcomes where everyone picks the same strategy, and settle on the
    best of those.  By symmetry the player-0 payoff decides; every
    maximizer is returned on ties.  Undefined off the symmetric class.
    """
    return _best_diagonal(g, diagonal_profiles(g))


def _best_diagonal(g: Game, diagonal: list[Profile]) -> list[Profile]:
    """Profiles of `diagonal` with the top player-0 payoff; `g` is symmetric."""
    values = [g.payoffs[g.cell_index(p)][0] for p in diagonal]
    best = max(values)
    return [p for p, u in zip(diagonal, values) if u == best]


def maximin_values(g: Game) -> MaximinVector:
    """Each player's best worst payoff.

    Entry i is the max over player i's strategies of the min over all
    joint opponent profiles of player i's payoff.
    """
    s = full_sets(g)
    out = []
    for i in range(g.n_players):
        mins, _ = _strategy_bounds(g, s, i)
        out.append(max(mins.values()))
    return tuple(out)


def individually_rational_profiles(g: Game) -> list[Profile]:
    """Profiles granting every player at least their maximin value.

    Thresholds are always computed against the full game, never a reduced
    one.
    """
    return _rational_profiles(g, maximin_values(g))


def _rational_profiles(g: Game, thresholds: MaximinVector) -> list[Profile]:
    n = g.n_players
    payoff_table = g.payoffs
    out = []
    for p in profiles(g):
        u = payoff_table[g.cell_index(p)]
        if all(u[i] >= thresholds[i] for i in range(n)):
            out.append(p)
    return out


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
    if not 0 <= player < g.n_players:
        raise IndexOutOfRange(f"player {player} out of range")
    if not 0 <= strategy < g.strategy_counts[player]:
        raise IndexOutOfRange(f"strategy {strategy} out of range for player {player}")
    if strategy not in s[player]:
        raise DeadStrategy(
            f"player {player} strategy {strategy} is not in the surviving set"
        )
    mins, maxs = _strategy_bounds(g, s, player)
    cap = maxs[strategy]
    for candidate in s[player]:
        if mins[candidate] > cap:
            return True, candidate
    return False, None


def eliminate_round(g: Game, survivors) -> tuple[Survivors, list[tuple[int, int]]]:
    """One batch round: find all dominated pairs, then delete them at once.

    Every domination test in the round is evaluated against the incoming
    sets, never against partial deletions of the same round, so the batch
    is deterministic and keeps symmetric games symmetric.  An empty batch
    is a legal result.
    """
    s = normalize_survivors(g, survivors)
    batch: list[tuple[int, int]] = []
    new_sets = []
    for i in range(g.n_players):
        mins, maxs = _strategy_bounds(g, s, i)
        best_guarantee = max(mins.values())
        dead = {own for own in s[i] if best_guarantee > maxs[own]}
        batch.extend((i, own) for own in sorted(dead))
        keep = tuple(own for own in s[i] if own not in dead)
        # the strategy attaining best_guarantee is never dominated
        assert keep, "elimination emptied a survivor set"
        new_sets.append(keep)
    batch.sort()
    return tuple(new_sets), batch


def iterate_elimination(g: Game) -> EliminationTrace:
    """Run batch elimination from the full sets to a fixed point."""
    s = full_sets(g)
    rounds: list[tuple[tuple[int, int], ...]] = []
    while True:
        s_next, batch = eliminate_round(g, s)
        if not batch:
            break
        rounds.append(tuple(batch))
        s = s_next
    return EliminationTrace(rounds=tuple(rounds), final_survivors=s)


def minimax_rationalizable_profiles(g: Game) -> list[Profile]:
    """Profiles made only of strategies that survive iterated elimination,
    in profile enumeration order."""
    alive = [set(x) for x in iterate_elimination(g).final_survivors]
    return [p for p in profiles(g) if all(v in alive[i] for i, v in enumerate(p))]


@dataclass(frozen=True)
class RegionTag:
    """Membership flags of one profile in the three profile regions."""

    rationalizable: bool
    individually_rational: bool
    hofstadter: bool


@dataclass(frozen=True)
class AnalysisReport:
    """Every solution concept of one game, ready for rendering.

    All profile collections are in enumeration order; `hofstadter` and
    `regions` are None for asymmetric games, where those concepts are
    undefined.  `regions` maps every profile to its :class:`RegionTag`.
    """

    name: str
    game: Game
    symmetric: bool
    nash: tuple[Profile, ...]
    hofstadter: tuple[Profile, ...] | None
    maximin: MaximinVector
    individually_rational: tuple[Profile, ...]
    trace: EliminationTrace
    regions: dict[Profile, RegionTag] | None = None


def build_report(game: Game, name: str = "") -> AnalysisReport:
    """Run every solver on `game` once and collect the results."""
    symmetric = is_symmetric(game)
    maximin = maximin_values(game)
    rational = tuple(_rational_profiles(game, maximin))
    trace = iterate_elimination(game)
    hofstadter = regions = None
    if symmetric:
        diagonal = [(k,) * game.n_players for k in range(game.strategy_counts[0])]
        hofstadter = tuple(_best_diagonal(game, diagonal))
        hof_set = set(hofstadter)
        rational_set = set(rational)
        alive = [set(x) for x in trace.final_survivors]
        regions = {
            p: RegionTag(
                rationalizable=all(v in alive[i] for i, v in enumerate(p)),
                individually_rational=p in rational_set,
                hofstadter=p in hof_set,
            )
            for p in profiles(game)
        }
    return AnalysisReport(
        name=name,
        game=game,
        symmetric=symmetric,
        nash=tuple(pure_nash(game)),
        hofstadter=hofstadter,
        maximin=maximin,
        individually_rational=rational,
        trace=trace,
        regions=regions,
    )
