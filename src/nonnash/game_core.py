"""Immutable finite games in normal form with ordinal integer payoffs.

A game holds one payoff vector (one integer per player) for every joint
strategy choice.  Payoffs are *ordinals*: the library only ever compares
them, it never adds, scales or averages them, so replacing all payoffs by
any strictly increasing map leaves every solution concept unchanged.

Cells are stored flat in mixed-radix order with player 0 most significant
(the last player's index varies fastest).  That order is also the
canonical enumeration order used by every operation that returns profile
lists, by the text serializer, and by the random generators.
"""

import itertools
import math
import re
from dataclasses import dataclass
from functools import cached_property

from .errors import (
    DuplicateCell,
    DuplicateLabel,
    EmptySurvivorSet,
    IndexOutOfRange,
    InvalidGame,
    InvalidLabel,
    MissingCell,
    NotSymmetric,
    PayoffOutOfRange,
    SizeGuardExceeded,
)

# One strategy index per player; addresses one cell of the payoff table.
Profile = tuple[int, ...]

# Per-player sorted tuples of still-alive strategy indices.
Survivors = tuple[tuple[int, ...], ...]

PAYOFF_MIN = -(2**62)
PAYOFF_MAX = 2**62

# Construction refuses games whose payoff table would exceed this many
# integer entries (cells x players).  This is a desk-scale tool; the guard
# turns an accidental 12-player request into an error instead of a hang.
MAX_ENTRIES = 10_000_000

_LABEL_RE = re.compile(r"[A-Za-z0-9_-]+\Z")


@dataclass(frozen=True)
class Game:
    """A finite n-player normal-form game.

    Attributes
    ----------
    strategy_labels:
        One tuple of distinct labels per player.  Labels are restricted to
        ``[A-Za-z0-9_-]+`` so any game can be written in the whitespace
        separated text format.
    payoffs:
        Flat tuple with one entry per cell, each entry one payoff per
        player, indexed by :meth:`cell_index`.

    Games are immutable; all operations on them are pure functions, so
    values can be shared freely across threads or worker processes.
    """

    strategy_labels: tuple[tuple[str, ...], ...]
    payoffs: tuple[tuple[int, ...], ...]

    @property
    def n_players(self) -> int:
        return len(self.strategy_labels)

    @cached_property
    def strategy_counts(self) -> tuple[int, ...]:
        return tuple(len(labels) for labels in self.strategy_labels)

    @cached_property
    def strides(self) -> tuple[int, ...]:
        return _strides(self.strategy_counts)

    def cell_index(self, profile: Profile) -> int:
        """Mixed-radix index of a profile (player 0 most significant)."""
        idx = 0
        for v, stride in zip(profile, self.strides):
            idx += v * stride
        return idx


def _strides(counts: tuple[int, ...]) -> tuple[int, ...]:
    """Mixed-radix place values of `counts`, player 0 most significant."""
    strides = [1] * len(counts)
    for i in range(len(counts) - 2, -1, -1):
        strides[i] = strides[i + 1] * counts[i + 1]
    return tuple(strides)


def check_size_guard(counts: tuple[int, ...], max_entries: int = MAX_ENTRIES) -> None:
    """Raise SizeGuardExceeded if cells x players exceeds `max_entries`;
    callers run it before materializing any cell."""
    n_cells = math.prod(counts)
    n = len(counts)
    if n_cells * n > max_entries:
        raise SizeGuardExceeded(
            f"{n_cells} cells x {n} players = {n_cells * n} payoff entries "
            f"exceeds the guard of {max_entries}"
        )


def _profile_from_index(counts: tuple[int, ...], idx: int) -> Profile:
    out = []
    for k in reversed(counts):
        idx, v = divmod(idx, k)
        out.append(v)
    return tuple(reversed(out))


def new_game(strategy_labels, cells, *, max_entries: int = MAX_ENTRIES) -> Game:
    """Build and validate an immutable game.

    Parameters
    ----------
    strategy_labels:
        Per-player sequences of strategy labels.
    cells:
        Iterable of ``(profile, payoff_vector)`` pairs covering every
        profile exactly once, in any order.
    max_entries:
        Size guard; construction fails if cells x players exceeds it.

    Raises
    ------
    InvalidGame, InvalidLabel, DuplicateLabel, IndexOutOfRange,
    PayoffOutOfRange, DuplicateCell, MissingCell, SizeGuardExceeded
    """
    labels = tuple(tuple(player_labels) for player_labels in strategy_labels)
    if not labels:
        raise InvalidGame("a game needs at least one player")
    for i, player_labels in enumerate(labels):
        if not player_labels:
            raise InvalidGame(f"player {i} has no strategies")
        seen = set()
        for label in player_labels:
            if not isinstance(label, str) or not _LABEL_RE.match(label):
                raise InvalidLabel(
                    f"player {i}: label {label!r} (labels must match [A-Za-z0-9_-]+)"
                )
            if label in seen:
                raise DuplicateLabel(f"player {i}: duplicate strategy label {label!r}")
            seen.add(label)

    n = len(labels)
    counts = tuple(len(player_labels) for player_labels in labels)
    check_size_guard(counts, max_entries)
    strides = _strides(counts)

    slots: list = [None] * math.prod(counts)
    for profile, values in cells:
        profile = tuple(profile)
        if len(profile) != n:
            raise IndexOutOfRange(
                f"profile {profile} has {len(profile)} entries for {n} players"
            )
        for i, v in enumerate(profile):
            if not isinstance(v, int) or isinstance(v, bool) or not 0 <= v < counts[i]:
                raise IndexOutOfRange(
                    f"profile {profile}: strategy {v!r} out of range for player {i}"
                )
        vec = tuple(values)
        if len(vec) != n:
            raise InvalidGame(
                f"cell {profile}: expected {n} payoff values, got {len(vec)}"
            )
        for u in vec:
            if not isinstance(u, int) or isinstance(u, bool):
                raise PayoffOutOfRange(f"cell {profile}: payoff {u!r} is not an integer")
            if not PAYOFF_MIN <= u <= PAYOFF_MAX:
                raise PayoffOutOfRange(
                    f"cell {profile}: payoff {u} outside [-2**62, 2**62]"
                )
        idx = sum(v * s for v, s in zip(profile, strides))
        if slots[idx] is not None:
            raise DuplicateCell(f"profile {profile} listed more than once")
        slots[idx] = vec

    for idx, slot in enumerate(slots):
        if slot is None:
            raise MissingCell(
                f"no payoffs for profile {_profile_from_index(counts, idx)}"
            )

    return Game(strategy_labels=labels, payoffs=tuple(slots))


def payoff(g: Game, profile: Profile, player: int) -> int:
    """Payoff of `player` at `profile`; validates both arguments."""
    counts = g.strategy_counts
    if not 0 <= player < g.n_players:
        raise IndexOutOfRange(f"player {player} out of range for {g.n_players} players")
    if len(profile) != g.n_players:
        raise IndexOutOfRange(
            f"profile {tuple(profile)} has {len(profile)} entries for {g.n_players} players"
        )
    for i, v in enumerate(profile):
        if not 0 <= v < counts[i]:
            raise IndexOutOfRange(
                f"profile {tuple(profile)}: strategy {v!r} out of range for player {i}"
            )
    return g.payoffs[g.cell_index(profile)][player]


def profiles(g: Game):
    """All strategy profiles in canonical mixed-radix order.

    Yields each of the prod(|strategies_i|) profiles exactly once, last
    player varying fastest.
    """
    return itertools.product(*(range(k) for k in g.strategy_counts))


def is_symmetric(g: Game) -> bool:
    """Whether all players are interchangeable.

    Requires the strategy label lists to be identical *as sequences* (a
    game that is symmetric only after relabeling is reported asymmetric)
    and the payoffs to be invariant under every permutation of players.
    Checking the adjacent transpositions (k, k+1) suffices because they
    generate the full permutation group; the test suite cross-checks this
    against an all-permutations scan.
    """
    labels = g.strategy_labels
    first = labels[0]
    for other in labels[1:]:
        if other != first:
            return False
    n = g.n_players
    if n == 1:
        return True
    payoff_table = g.payoffs
    for k in range(n - 1):
        for p in profiles(g):
            q = list(p)
            q[k], q[k + 1] = q[k + 1], q[k]
            up = payoff_table[g.cell_index(p)]
            uq = payoff_table[g.cell_index(tuple(q))]
            if up[k] != uq[k + 1] or up[k + 1] != uq[k]:
                return False
            for i in range(n):
                if i != k and i != k + 1 and up[i] != uq[i]:
                    return False
    return True


def diagonal_profiles(g: Game) -> list[Profile]:
    """The profiles assigning one shared strategy to every player.

    Only defined for symmetric games, where all players share a strategy
    list.
    """
    if not is_symmetric(g):
        raise NotSymmetric("diagonal profiles are defined only for symmetric games")
    n = g.n_players
    return [(k,) * n for k in range(g.strategy_counts[0])]


def full_sets(g: Game) -> Survivors:
    """Surviving sets containing every strategy of every player."""
    return tuple(tuple(range(k)) for k in g.strategy_counts)


def normalize_survivors(g: Game, survivors) -> Survivors:
    """Validate and canonicalize surviving sets (sorted, deduplicated)."""
    s = tuple(tuple(sorted(set(alive))) for alive in survivors)
    if len(s) != g.n_players:
        raise IndexOutOfRange(
            f"{len(s)} survivor sets given for {g.n_players} players"
        )
    counts = g.strategy_counts
    for i, alive in enumerate(s):
        if not alive:
            raise EmptySurvivorSet(f"player {i} has no surviving strategies")
        for v in alive:
            if not isinstance(v, int) or isinstance(v, bool) or not 0 <= v < counts[i]:
                raise IndexOutOfRange(
                    f"player {i}: surviving strategy {v!r} out of range"
                )
    return s


def restrict(g: Game, survivors) -> Game:
    """The game induced on the surviving strategies.

    Strategy j of player i in the restricted game is strategy
    ``survivors[i][j]`` of the original (survivor tuples are sorted, so
    the translation is order preserving); payoffs are taken from the
    original table unchanged.
    """
    s = normalize_survivors(g, survivors)
    labels = tuple(
        tuple(g.strategy_labels[i][v] for v in alive) for i, alive in enumerate(s)
    )
    # A valid game's sub-table needs no re-validation; product over the
    # sorted survivor tuples walks it in the restricted game's cell order.
    payoffs = tuple(g.payoffs[g.cell_index(p)] for p in itertools.product(*s))
    return Game(strategy_labels=labels, payoffs=payoffs)


def format_profile(g: Game, profile: Profile) -> str:
    """Render a profile with labels, e.g. ``(Defect,Cooperate)``."""
    return "(" + ",".join(g.strategy_labels[i][v] for i, v in enumerate(profile)) + ")"
