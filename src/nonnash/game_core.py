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
from operator import contains, itemgetter, mul

from .errors import (
    BadRange,
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
        Flat tuple with one entry per cell (one payoff per player), in
        profile enumeration order; :meth:`cell_index` is for random access.

    The derived layout :attr:`own_rows` is built on first use and cached:
    ``own_rows[i][a]`` is the tuple of player i's payoffs when i plays
    strategy a, one entry per joint opponent profile.  Opponent profiles
    are enumerated in the same mixed-radix order as cells with player i
    left out, so entry x of every row of player i refers to the same
    opponent profile.  The solvers read rows instead of indexing cells.
    In a symmetric game every player has the same rows (see
    :func:`is_symmetric`).

    The rules a game obeys (labels, size guard, indices and payoffs in
    range, each cell exactly once) live in :func:`build_game`, which both
    :func:`new_game` and :func:`nonnash.game_io.parse_game` go through.
    The generators in ``verify`` and :func:`restrict` build tables that
    obey them by construction.

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

    @cached_property
    def own_rows(self) -> tuple[tuple[tuple[int, ...], ...], ...]:
        n_cells = len(self.payoffs)
        out = []
        for i, (k, stride) in enumerate(zip(self.strategy_counts, self.strides)):
            column = list(map(itemgetter(i), self.payoffs))
            if stride == 1:
                rows = [tuple(column[a::k]) for a in range(k)]
            else:
                block = k * stride
                rows = [
                    tuple(
                        itertools.chain.from_iterable(
                            column[h : h + stride]
                            for h in range(a * stride, n_cells, block)
                        )
                    )
                    for a in range(k)
                ]
            out.append(tuple(rows))
        return tuple(out)

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
    """Raise SizeGuardExceeded if cells x players exceeds `max_entries`,
    itself a count (BadRange unless an int, not a bool, of at least 1);
    callers run it before materializing any cell.  The message never holds
    the cell count, which may have more digits than ``str()`` allows."""
    check_count(max_entries, "max_entries must be a positive integer")
    n = len(counts)
    if math.prod(counts) * n > max_entries:
        raise SizeGuardExceeded(
            f"{n} players with {min(counts)}..{max(counts)} strategies each need "
            f"more than {max_entries} payoff entries (cells x players)"
        )


def are_ints(*values) -> bool:
    """Whether every value is an int, not a bool (which subclasses int)."""
    for v in values:
        # An exact int, the common case, needs no isinstance call.
        if type(v) is not int and (not isinstance(v, int) or isinstance(v, bool)):
            return False
    return True


def check_count(v, what: str) -> int:
    """`v` if it is an int of at least 1, else BadRange ``<what>, got <v>``."""
    if not are_ints(v) or v < 1:
        raise BadRange(f"{what}, got {v!r}")
    return v


def check_shape(n_players, strategy_counts) -> tuple[int, ...]:
    """Counts for `n_players` players from one shared count or a tuple or list."""
    check_count(n_players, "need at least one player")
    shared = not isinstance(strategy_counts, (tuple, list))
    counts = (strategy_counts,) * n_players if shared else tuple(strategy_counts)
    if len(counts) != n_players:
        raise BadRange(f"{len(counts)} strategy counts for {n_players} players")
    for k in counts:
        check_count(k, "every player needs at least one strategy")
    return counts


def check_payoff_range(lo, hi) -> None:
    """Raise BadRange unless lo <= hi are ints in [PAYOFF_MIN, PAYOFF_MAX]."""
    if not are_ints(lo, hi):
        raise BadRange(f"payoff range {lo!r}..{hi!r} needs integer bounds")
    if lo > hi:
        raise BadRange(f"empty payoff range {lo}..{hi}")
    if lo < PAYOFF_MIN or hi > PAYOFF_MAX:
        raise BadRange(f"payoff range {lo}..{hi} outside [-2**62, 2**62]")


def check_profile(profile, counts: tuple[int, ...]) -> Profile:
    """`profile` as a tuple; IndexOutOfRange unless it has one index per count."""
    profile = tuple(profile)
    if len(profile) != len(counts):
        raise IndexOutOfRange(
            f"profile {profile} has {len(profile)} entries for {len(counts)} players"
        )
    for i, v in enumerate(profile):
        if not are_ints(v) or not 0 <= v < counts[i]:
            raise IndexOutOfRange(
                f"profile {profile}: strategy {v!r} out of range for player {i}"
            )
    return profile


def check_index(v, k: int, what: str) -> None:
    """Raise IndexOutOfRange naming `v` as `what` unless it is an index below `k`."""
    if not are_ints(v) or not 0 <= v < k:
        raise IndexOutOfRange(f"{what} {v!r} out of range")


def _profile_from_index(counts: tuple[int, ...], idx: int) -> Profile:
    out = []
    for k in reversed(counts):
        idx, v = divmod(idx, k)
        out.append(v)
    return tuple(reversed(out))


def build_game(strategy_labels, cells, max_entries: int = MAX_ENTRIES) -> Game:
    """Build a game from cells whose types are already known to be right.

    This is the one home of the rules on labels, size and cells; both
    :func:`new_game` and :func:`nonnash.game_io.parse_game` build their
    games here.  `cells` yields ``(profile, payoffs)`` pairs of int tuples,
    one entry per player, and is consumed only after the labels and the
    size guard pass.  The first broken rule raises, in this order:

    1. labels: at least one player (InvalidGame), at least one strategy per
       player (InvalidGame), labels matching ``[A-Za-z0-9_-]+``
       (InvalidLabel), distinct within a player (DuplicateLabel);
    2. the size guard (SizeGuardExceeded), before any cell is stored;
    3. per cell, in the order `cells` yields them: every index in range
       (IndexOutOfRange, named by :func:`check_profile`), every payoff in
       ``[PAYOFF_MIN, PAYOFF_MAX]`` (PayoffOutOfRange), a profile not seen
       before (DuplicateCell);
    4. after the last cell, no profile left without payoffs (MissingCell).
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

    counts = tuple(map(len, labels))
    check_size_guard(counts, max_entries)
    strides = _strides(counts)
    ranges = tuple(map(range, counts))
    slots: list = [None] * math.prod(counts)
    for profile, vec in cells:
        if not all(map(contains, ranges, profile)):
            check_profile(profile, counts)
        if min(vec) < PAYOFF_MIN or max(vec) > PAYOFF_MAX:
            _check_payoffs(profile, vec)
        idx = sum(map(mul, profile, strides))
        if slots[idx] is not None:
            raise DuplicateCell(f"profile {profile} listed more than once")
        slots[idx] = vec
    if None in slots:
        missing = _profile_from_index(counts, slots.index(None))
        raise MissingCell(f"no payoffs for profile {missing}")
    return Game(strategy_labels=labels, payoffs=tuple(slots))


def _check_payoffs(profile: Profile, payoffs) -> None:
    """Raise PayoffOutOfRange naming the first payoff, an int, outside
    ``[PAYOFF_MIN, PAYOFF_MAX]``."""
    for u in payoffs:
        if not PAYOFF_MIN <= u <= PAYOFF_MAX:
            raise PayoffOutOfRange(f"cell {profile}: payoff {u} outside [-2**62, 2**62]")


def _typed_cells(cells, counts: tuple[int, ...]):
    """`cells` as int tuples, after the type and length checks that
    :func:`build_game` leaves to its callers."""
    n = len(counts)
    for profile, values in cells:
        profile, vec = tuple(profile), tuple(values)
        # One predicate call per cell; a cell that fails it is checked again
        # entry by entry, indices first, so the first broken rule is named.
        if len(profile) != n or len(vec) != n or not are_ints(*profile, *vec):
            profile = check_profile(profile, counts)
            if len(vec) != n:
                raise InvalidGame(
                    f"cell {profile}: expected {n} payoff values, got {len(vec)}"
                )
            first = next(j for j, u in enumerate(vec) if not are_ints(u))
            _check_payoffs(profile, vec[:first])
            raise PayoffOutOfRange(
                f"cell {profile}: payoff {vec[first]!r} is not an integer"
            )
        yield profile, vec


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

    Each cell's indices and payoffs must be ints (not bools), one per
    player: that is checked here.  Every other rule is checked, and
    described, in :func:`build_game`.

    Raises
    ------
    InvalidGame, InvalidLabel, DuplicateLabel, IndexOutOfRange,
    PayoffOutOfRange, DuplicateCell, MissingCell, SizeGuardExceeded
    """
    labels = tuple(tuple(player_labels) for player_labels in strategy_labels)
    counts = tuple(map(len, labels))
    return build_game(labels, _typed_cells(cells, counts), max_entries)


def payoff(g: Game, profile: Profile, player: int) -> int:
    """Payoff of `player` at `profile`; IndexOutOfRange unless both are indices."""
    check_index(player, g.n_players, "player")
    return _payoffs_at(g, profile)[player]


def _payoffs_at(g: Game, profile: Profile) -> tuple[int, ...]:
    """Every player's payoff at `profile`, checked once: a read of all n
    payoffs through :func:`payoff` would check the profile n times."""
    return g.payoffs[g.cell_index(check_profile(profile, g.strategy_counts))]


def profiles(g: Game):
    """All strategy profiles in canonical mixed-radix order.

    Yields each of the prod(|strategies_i|) profiles exactly once, last
    player varying fastest.
    """
    return itertools.product(*(range(k) for k in g.strategy_counts))


def is_symmetric(g: Game) -> bool:
    """Whether all players are interchangeable.

    Requires the strategy label lists to be identical *as sequences* (a
    game that is symmetric only after relabeling is reported asymmetric).
    The payoffs are then symmetric exactly when, in :attr:`Game.own_rows`,
    every player's rows equal player 0's and player 0's rows do not change
    when the opponents are reordered:

    * if both hold, a payoff depends only on the player's own strategy and
      the multiset of the opponents' strategies, so every permutation of
      players maps each payoff to an equal one;
    * conversely, swapping players 0 and i turns player i's payoff into
      player 0's at a reordering of the opponents.

    Reordering is checked on two moves that generate every permutation of
    the n - 1 opponents: rotating them by one place and swapping the first
    two.  With two players there is nothing to reorder.  The test suite
    cross-checks this against an all-permutations scan.
    """
    labels = g.strategy_labels
    first = labels[0]
    if any(other != first for other in labels[1:]):
        return False
    rows = g.own_rows
    if any(other != rows[0] for other in rows[1:]):
        return False
    if g.n_players < 3:
        return True
    k = len(first)
    # Opponent profiles per strategy of the first opponent, and per
    # strategy pair of the first two.
    wide = k ** (g.n_players - 2)
    narrow = wide // k
    for row in rows[0]:
        # Rotation (x1, rest) -> (rest, x1): the x1 = d block read in order
        # must equal every k-th entry from d.
        for d in range(k):
            if row[d * wide : (d + 1) * wide] != row[d::k]:
                return False
        # Swap of the first two: block (b, c) must equal block (c, b).
        for b, c in itertools.combinations(range(k), 2):
            here, there = (b * k + c) * narrow, (c * k + b) * narrow
            if row[here : here + narrow] != row[there : there + narrow]:
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
    """Surviving sets, sorted and deduplicated: one non-empty index set per player."""
    s = tuple(map(tuple, survivors))
    if len(s) != g.n_players:
        raise IndexOutOfRange(
            f"{len(s)} survivor sets given for {g.n_players} players"
        )
    for i, (alive, k) in enumerate(zip(s, g.strategy_counts)):
        if not alive:
            raise EmptySurvivorSet(f"player {i} has no surviving strategies")
        for v in alive:
            check_index(v, k, f"player {i}: surviving strategy")
    return tuple(tuple(sorted(set(alive))) for alive in s)


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
