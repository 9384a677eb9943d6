"""Immutable finite games in normal form with ordinal integer payoffs.

A game holds one integer payoff per player for every joint strategy
choice.  Payoffs are *ordinals*: the library only ever compares them, it
never adds, scales or averages them, so replacing all payoffs by any
strictly increasing map leaves every solution concept unchanged.

Each player's column lists the cells in mixed-radix order, player 0 most
significant (the last player's index varies fastest): the canonical
enumeration order of every operation that returns profile lists, of the
text serializer and of the random generators.
"""

import itertools
import math
import re
from array import array
from dataclasses import dataclass
from functools import cached_property
from operator import itemgetter, mul

from .errors import (
    BadRange,
    DuplicateCell,
    DuplicateLabel,
    EmptySurvivorSet,
    IndexOutOfRange,
    InvalidGame,
    InvalidLabel,
    MissingCell,
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
    columns:
        The one stored table: one tuple per player of that player's payoffs
        in profile enumeration order, passed in by every constructor;
        :meth:`cell_index` is a cell's place in each.

    :attr:`payoffs`, the table as one payoff vector per cell, is a view
    derived from the columns for callers that want cells; no library path
    reads it.  :attr:`strategy_counts`, :attr:`strides`, :attr:`own_rows`
    and :attr:`symmetric` are computed on first use and cached.
    ``own_rows[i][a]`` is player i's payoffs when i plays strategy a, one
    entry per joint opponent profile.  Opponent profiles are enumerated in the same mixed-radix order as cells
    with player i left out, so entry x of every row of player i refers to
    the same opponent profile.  The solvers read rows and columns instead of
    indexing cells.  In a symmetric game every player has the same rows (see
    :func:`is_symmetric`).  :func:`_symmetric_game`, which builds the
    generated and catalog symmetric games, sets all four from its layout:
    ``symmetric`` is True, the counts and strides are the layout's, and
    every player's rows are player 0's column cut into blocks.  So no such
    game runs the symmetry scan.

    The rules a game obeys are listed, and checked, in :func:`new_game`.
    :func:`_symmetric_game`, ``verify.gen_random_game`` and
    :func:`restrict` build tables that obey them by construction.

    Games are immutable; all operations on them are pure functions, so
    values can be shared freely across threads or worker processes.
    """

    strategy_labels: tuple[tuple[str, ...], ...]
    columns: tuple[tuple[int, ...], ...]

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
    def symmetric(self) -> bool:
        return _symmetry_scan(self)

    @cached_property
    def payoffs(self) -> tuple[tuple[int, ...], ...]:
        return tuple(zip(*self.columns))

    @cached_property
    def own_rows(self) -> tuple[tuple[tuple[int, ...], ...], ...]:
        n_cells = len(self.columns[0])
        out = []
        for column, k, stride in zip(self.columns, self.strategy_counts, self.strides):
            if stride == 1:
                rows = [column[a::k] for a in range(k)]
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


def _checked_counts(strategy_labels, max_entries: int) -> tuple[int, ...]:
    """Strategy counts of `strategy_labels`, once they pass rules 2 and 3
    of :func:`new_game`."""
    if not strategy_labels:
        raise InvalidGame("a game needs at least one player")
    for i, player_labels in enumerate(strategy_labels):
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

    counts = tuple(map(len, strategy_labels))
    check_size_guard(counts, max_entries)
    return counts


def _place_cells(strategy_labels, counts: tuple[int, ...], cells) -> Game:
    """The game of `cells` under rules 4 and 5 of :func:`new_game`, its
    columns read off the slots; `strategy_labels` is kept as given."""
    n = len(counts)
    strides = _strides(counts)
    ranges = tuple(map(range, counts))
    try:
        cells = iter(cells)
    except TypeError:
        raise InvalidGame(f"cells {cells!r}: expected (profile, payoffs) pairs") from None
    slots = [None] * math.prod(counts)
    for cell in cells:
        try:
            profile, values = cell
            profile, vec = tuple(profile), tuple(values)
        except (TypeError, ValueError):
            raise InvalidGame(f"cell {cell!r}: expected a (profile, payoffs) pair") from None
        profile = check_profile(profile, counts)
        if len(vec) != n:
            raise InvalidGame(f"cell {profile}: expected {n} payoff values, got {len(vec)}")
        for u in vec:
            if not are_ints(u):
                raise PayoffOutOfRange(f"cell {profile}: payoff {u!r} is not an integer")
            if not PAYOFF_MIN <= u <= PAYOFF_MAX:
                raise PayoffOutOfRange(f"cell {profile}: payoff {u} outside [-2**62, 2**62]")
        idx = sum(map(mul, profile, strides))
        if slots[idx] is not None:
            raise DuplicateCell(f"profile {profile} listed more than once")
        slots[idx] = vec
    if None in slots:
        missing = next(itertools.islice(itertools.product(*ranges), slots.index(None), None))
        raise MissingCell(f"no payoffs for profile {missing}")
    return Game(strategy_labels, tuple(tuple(map(itemgetter(i), slots)) for i in range(n)))


def _build_flat_game(strategy_labels, values) -> Game:
    """The game of cells given flat, under the rules of :func:`new_game`:
    `values` yields ints, the n indices and then the n payoffs of each cell
    in turn, and is consumed only after the labels and the size guard pass.
    `strategy_labels` is a tuple of label tuples, kept as given.

    A complete table in enumeration order is accepted in bulk, with one
    comparison per index column and one range test per payoff column; its
    payoff columns, sliced off `values`, are the game's :attr:`Game.columns`.
    Any other table goes through :func:`_place_cells`, so it fails with the
    same error as in :func:`new_game`.
    """
    counts = _checked_counts(strategy_labels, MAX_ENTRIES)
    values = list(values)
    n = len(counts)
    width = 2 * n
    n_cells = math.prod(counts)
    if len(values) == width * n_cells:
        for i, (k, stride) in enumerate(zip(counts, _strides(counts))):
            # player i's index column: each strategy `stride` times, cycled
            block = itertools.chain.from_iterable(itertools.repeat(a, stride) for a in range(k))
            block = list(block)
            if values[i::width] != block * (n_cells // len(block)):
                break
        else:
            columns = tuple(tuple(values[j::width]) for j in range(n, width))
            if min(map(min, columns)) >= PAYOFF_MIN and max(map(max, columns)) <= PAYOFF_MAX:
                return Game(strategy_labels, columns)
    cells = zip(*[iter(values)] * width)
    return _place_cells(strategy_labels, counts, ((v[:n], v[n:]) for v in cells))


# Labels, each player's column of classes (the class of the player's entry
# of every cell, in cell order), the number of classes and the cached facts
# every game of the layout shares (symmetric, strategy_counts and strides,
# keyed by the Game attribute that caches them): everything of a symmetric
# game but its class values.
_SymmetricLayout = tuple[tuple[tuple[str, ...], ...], tuple[array, ...], int, dict[str, object]]


def _symmetric_layout(n_players: int, labels: tuple[str, ...]) -> _SymmetricLayout:
    """The layout shared by every symmetric game of `n_players` players,
    each with the strategies `labels`.

    A class is an own strategy against a multiset of opponent strategies:
    class ``a*M + r`` is own strategy a against the multiset of rank r, the
    M multisets ranked in ``combinations_with_replacement`` order.  Ranking
    the sorted opponents of each opponent profile once gives player 0's
    rows: row a is ``a*M`` plus those ranks.  Every player reads the same
    rows: with s = k**(n-1-i), player i's entry at the cell of prefix h (the
    players before i), own strategy a and suffix t is row a at ``h*s + t``,
    the place of its opponents' profile.  So player i's column is the rows
    re-blocked by slice assignment: per row, k**i blocks of s entries or s
    strided runs of k**i, whichever is fewer copies.  Player 0's column is
    its rows one after another.
    """
    n, k = n_players, len(labels)
    multisets = itertools.combinations_with_replacement(range(k), n - 1)
    rank = {m: r for r, m in enumerate(multisets)}
    ranks = [rank[tuple(sorted(q))] for q in itertools.product(range(k), repeat=n - 1)]
    rows = [array("I", map((a * len(rank)).__add__, ranks)) for a in range(k)]
    columns = tuple(array("I", [0]) * k**n for _ in range(n))
    for i, column in enumerate(columns):
        s = k ** (n - 1 - i)
        blocks = k**i
        for a, row in enumerate(rows):
            if blocks <= s:
                for h in range(blocks):
                    column[(h * k + a) * s : (h * k + a + 1) * s] = row[h * s : (h + 1) * s]
            else:
                for t in range(s):
                    column[a * s + t :: k * s] = row[t::s]
    counts = (k,) * n
    facts = {"symmetric": True, "strategy_counts": counts, "strides": _strides(counts)}
    return (labels,) * n, columns, k * len(rank), facts


def _symmetric_game(layout: _SymmetricLayout, values) -> Game:
    """The symmetric game of `layout` in which class c pays ``values[c]``, an
    int in ``[PAYOFF_MIN, PAYOFF_MAX]``: the layout's columns filled with the
    values, preset with the layout's facts and with every player's own_rows
    cut from player 0's column; the table is valid by construction."""
    labels, class_columns, _, facts = layout
    value = values.__getitem__
    columns = tuple([tuple(map(value, column)) for column in class_columns])
    g = Game(labels, columns)
    # Player 0's rows are its column cut into one block per own strategy.
    s = facts["strides"][0]
    rows = tuple([columns[0][h : h + s] for h in range(0, len(columns[0]), s)])
    g.__dict__.update(facts, own_rows=(rows,) * len(labels))
    return g


def new_game(strategy_labels, cells, *, max_entries: int = MAX_ENTRIES) -> Game:
    """Build and validate an immutable game.

    Parameters
    ----------
    strategy_labels:
        Per-player sequences of strategy labels.
    cells:
        Iterable of ``(profile, payoff_vector)`` pairs covering every
        profile exactly once, in any order; consumed only after the labels
        and the size guard pass.
    max_entries:
        Size guard; construction fails if cells x players exceeds it.

    This is the one home of the rules a game obeys;
    :func:`nonnash.game_io.parse_game` checks them through
    :func:`_build_flat_game`.  The first broken rule raises:

    1. `strategy_labels` not one sequence per player (InvalidGame);
    2. labels: at least one player (InvalidGame), at least one strategy per
       player (InvalidGame), labels matching ``[A-Za-z0-9_-]+``
       (InvalidLabel), distinct within a player (DuplicateLabel);
    3. the size guard (SizeGuardExceeded), before any cell is stored;
    4. `cells` not iterable (InvalidGame); then per cell, in the order
       `cells` yields them: a ``(profile, payoffs)`` pair (InvalidGame), one
       int index per player, each in range (IndexOutOfRange, named by
       :func:`check_profile`), one payoff per player (InvalidGame), each an
       int in ``[PAYOFF_MIN, PAYOFF_MAX]`` (PayoffOutOfRange), a profile
       not seen before (DuplicateCell).  An int is never a bool;
    5. after the last cell, no profile left without payoffs (MissingCell).
    """
    try:
        labels = tuple(map(tuple, strategy_labels))
    except TypeError:
        what = f"strategy labels {strategy_labels!r}"
        raise InvalidGame(f"{what}: expected one sequence per player") from None
    return _place_cells(labels, _checked_counts(labels, max_entries), cells)


def payoff(g: Game, profile: Profile, player: int) -> int:
    """Payoff of `player` at `profile`; IndexOutOfRange unless both are indices."""
    check_index(player, g.n_players, "player")
    return g.columns[player][g.cell_index(check_profile(profile, g.strategy_counts))]


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
    Reads the cached fact :attr:`Game.symmetric`, so the scan
    (:func:`_symmetry_scan`) runs at most once per game, and never on a
    game built by :func:`_symmetric_game`, which sets the fact.
    """
    return g.symmetric


def _symmetry_scan(g: Game) -> bool:
    """The scan behind :attr:`Game.symmetric`: whether the label lists of
    `g` are equal and its payoffs symmetric.

    The payoffs are symmetric exactly when, in :attr:`Game.own_rows`, every
    player's rows equal player 0's and player 0's rows do not change when
    the opponents are reordered:

    * if both hold, a payoff depends only on the player's own strategy and
      the multiset of the opponents' strategies, so every permutation of
      players maps each payoff to an equal one;
    * conversely, swapping players 0 and i turns player i's payoff into
      player 0's at a reordering of the opponents.

    Reordering is checked on two moves that generate every permutation of
    the n - 1 opponents: rotating them by one place and swapping the first
    two.  With two opponents the rotation is the swap, so only the rotation
    runs; with two players there is nothing to reorder.  No other code
    compares players' rows.  The test suite cross-checks this against an
    all-permutations scan.
    """
    if len(set(g.strategy_labels)) > 1:
        return False
    rows = g.own_rows
    if any(other != rows[0] for other in rows[1:]):
        return False
    if g.n_players < 3:
        return True
    k = g.strategy_counts[0]
    # Opponent profiles per strategy of the first opponent, and per
    # strategy pair of the first two.
    wide = k ** (g.n_players - 2)
    narrow = wide // k
    # Rotation (x1, rest) -> (rest, x1): the x1 = d block read in order
    # must equal every k-th entry from d.
    for row in rows[0]:
        for d in range(k):
            if row[d * wide : (d + 1) * wide] != row[d::k]:
                return False
        # Swap of the first two: block (b, c) must equal block (c, b).
        for b, c in itertools.combinations(range(k), 2) if g.n_players > 3 else ():
            here, there = (b * k + c) * narrow, (c * k + b) * narrow
            if row[here : here + narrow] != row[there : there + narrow]:
                return False
    return True


def full_sets(g: Game) -> Survivors:
    """Surviving sets containing every strategy of every player."""
    return tuple(tuple(range(k)) for k in g.strategy_counts)


def remove_pairs(survivors, pairs) -> Survivors:
    """`survivors` less every (player, strategy) pair in `pairs`."""
    return tuple(
        tuple(v for v in alive if (i, v) not in pairs) for i, alive in enumerate(survivors)
    )


def normalize_survivors(g: Game, survivors) -> Survivors:
    """Surviving sets, sorted and deduplicated: one non-empty index set per player."""
    s = tuple(map(tuple, survivors))
    if len(s) != g.n_players:
        raise IndexOutOfRange(f"{len(s)} survivor sets given for {g.n_players} players")
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
    the translation is order preserving); each player's column is the
    original column gathered at the kept cells, payoffs unchanged.
    """
    s = normalize_survivors(g, survivors)
    labels = tuple(
        tuple(g.strategy_labels[i][v] for v in alive) for i, alive in enumerate(s)
    )
    # A valid game's sub-table needs no re-validation.  The kept cells are
    # mixed-radix sums built one player at a time, player 0 outermost, so
    # over sorted survivor tuples they come in the restricted game's order.
    kept = [0]
    for alive, stride in zip(s, g.strides):
        kept = [b + v * stride for b in kept for v in alive]
    return Game(labels, tuple(tuple(map(column.__getitem__, kept)) for column in g.columns))
