"""Independent brute-force oracles used to cross-check the solvers and
the parser.

Everything here is deliberately written against the raw definitions, via
different code paths than the library (itertools over full profile lists,
no stride arithmetic, no shared helpers), so agreement is meaningful.
"""

import itertools
from array import array

from nonnash import (
    Game,
    GameError,
    GnfSyntaxError,
    RegionTag,
    SplitMix64,
    VersionUnsupported,
    derive_seed,
    gen_random_symmetric_game,
    new_game,
    payoff,
)


def all_profiles(g: Game) -> list[tuple[int, ...]]:
    return list(itertools.product(*(range(k) for k in g.strategy_counts)))


def outcome(build):
    """``build()``, or the (class, message) of the GameError it raises."""
    try:
        return build()
    except GameError as e:
        return type(e), str(e)


def document_referee(text: str):
    """What ``new_game`` makes of a .gnf document free of syntax errors,
    tokenized plainly: the game, or the (class, message) of its error."""
    rows = [tokens for line in text.split("\n") if (tokens := line.partition("#")[0].split())]
    n = int(rows[1][1])
    labels = [row[2:] for row in rows[2 : 2 + n]]
    # rows[2 + n] is "payoffs" and rows[-1] is "end"
    cells = [(tuple(map(int, row[:n])), tuple(map(int, row[n:]))) for row in rows[3 + n : -1]]
    return outcome(lambda: new_game(labels, cells))


def _is_format_int(token: str) -> bool:
    """An optional minus sign, then 1 to 640 of the digits 0-9."""
    digits = token[1:] if token.startswith("-") else token
    return 0 < len(digits) <= 640 and all(c in "0123456789" for c in digits)


def syntax_referee(text: str):
    """The (class, message) of the first character or syntax error that
    ``parse_game`` must raise on `text`, or None when it has neither.

    Every line is checked for its characters and tokenized up front; the
    rows that have tokens are then indexed through the grammar of
    ``game_io``'s module docstring.  A syntax error past the last row is
    reported at the last line of the text.
    """
    lines = text.split("\n")
    for lineno, line in enumerate(lines, start=1):
        body = line.rstrip("\r").partition("#")[0]
        if any(ord(c) > 127 for c in body):
            return GnfSyntaxError, f"line {lineno}: expected ASCII text outside comments"
        if any(ord(c) < 32 and c != "\t" or ord(c) == 127 for c in body):
            return GnfSyntaxError, (
                f"line {lineno}: expected no control character other than tab outside comments"
            )
    rows = [(lineno, line.partition("#")[0].split()) for lineno, line in enumerate(lines, 1)]
    rows = [(lineno, tokens) for lineno, tokens in rows if tokens]

    def error(r: int, expected: str):
        lineno = rows[r][0] if r < len(rows) else len(lines)
        return GnfSyntaxError, f"line {lineno}: expected {expected}"

    def row(r: int) -> list[str]:
        return rows[r][1] if r < len(rows) else []

    header = row(0)
    if len(header) != 2 or header[0] != "gnf":
        return error(0, "header 'gnf 1'")
    if header[1] != "1":
        return VersionUnsupported, (
            f"line {rows[0][0]}: format version {header[1]!r} not supported "
            "(this reader understands version 1)"
        )
    players = row(1)
    if len(players) != 2 or players[0] != "players" or not _is_format_int(players[1]):
        return error(1, "'players <n>'")
    n = int(players[1])
    if n < 1:
        return error(1, "a positive player count")
    for i in range(n):
        strategies = row(2 + i)
        if len(strategies) < 3 or strategies[:2] != ["strategies", str(i)]:
            return error(2 + i, f"'strategies {i} <label> ...'")
    if row(2 + n) != ["payoffs"]:
        return error(2 + n, "'payoffs'")
    r = 3 + n
    while row(r) != ["end"]:
        if r == len(rows):
            return error(r, "a payoff cell or 'end'")
        if len(row(r)) != 2 * n or not all(map(_is_format_int, row(r))):
            return error(r, f"{n} strategy indices and {n} integer payoffs, or 'end'")
        r += 1
    if r + 1 < len(rows):
        return error(r + 1, "end of file after 'end'")
    return None


def serialize_referee(g: Game) -> str:
    """Canonical .gnf text of `g`, each cell line a ``" ".join`` of str()
    of its indices, then its payoffs."""
    lines = ["gnf 1", f"players {g.n_players}"]
    for i, player_labels in enumerate(g.strategy_labels):
        lines.append(f"strategies {i} " + " ".join(player_labels))
    lines.append("payoffs")
    lines.extend(" ".join(map(str, p + u)) for p, u in zip(all_profiles(g), zip(*g.columns)))
    lines.append("end")
    return "\n".join(lines) + "\n"


def symmetric_layout_referee(n_players: int, k: int):
    """The symmetric layout of `n_players` players with `k` strategies
    each, by a sort of every cell: the labels, each player's column of
    classes (the class of the player's entry of every cell, in cell order,
    an ``array("I")``), the number of classes and the facts every game of
    the shape has, keyed by the Game attribute that caches them.  Class
    (own, others) is numbered own-major, the sorted others in
    ``combinations_with_replacement`` order."""
    # Class (own, others) is stored under the sorted whole profile, then
    # under own, so a cell needs one sort to reach every player's class.
    class_index: dict[tuple[int, ...], dict[int, int]] = {}
    n_classes = 0
    for own in range(k):
        for others in itertools.combinations_with_replacement(range(k), n_players - 1):
            key = tuple(sorted(others + (own,)))
            class_index.setdefault(key, {})[own] = n_classes
            n_classes += 1
    cells = array("I")
    for p in itertools.product(range(k), repeat=n_players):
        cells.extend(map(class_index[tuple(sorted(p))].__getitem__, p))
    labels = (tuple(f"s{v}" for v in range(k)),) * n_players
    columns = tuple(cells[i::n_players] for i in range(n_players))
    # Player i's strategy moves the cell index by the number of profiles of
    # the players after i.
    facts = {
        "symmetric": True,
        "strategy_counts": (k,) * n_players,
        "strides": tuple(k ** (n_players - 1 - i) for i in range(n_players)),
    }
    return labels, columns, n_classes, facts


def nash_oracle(g: Game) -> list[tuple[int, ...]]:
    """Best-response formulation: a profile is Nash iff every player's
    payoff equals the best payoff available against the others' fixed
    choices."""
    result = []
    for p in all_profiles(g):
        is_nash = True
        for i in range(g.n_players):
            best = max(
                payoff(g, p[:i] + (alt,) + p[i + 1 :], i)
                for alt in range(g.strategy_counts[i])
            )
            if payoff(g, p, i) != best:
                is_nash = False
                break
        if is_nash:
            result.append(p)
    return result


def flags_oracle(report) -> tuple[RegionTag, ...]:
    """One RegionTag per profile of `report`'s game, in enumeration order,
    by membership of the profile in the report's sets: its Nash,
    Hofstadter (None on an asymmetric game) and individually rational
    profiles, and the product of its elimination survivors."""
    nash = set(report.nash)
    hofstadter = set(report.hofstadter or ())
    rational = set(report.individually_rational)
    survivors = report.trace.final_survivors
    return tuple(
        RegionTag(
            p in nash,
            p in hofstadter if report.symmetric else None,
            p in rational,
            all(v in alive for v, alive in zip(p, survivors)),
        )
        for p in all_profiles(report.game)
    )


def maximin_oracle(g: Game) -> tuple[int, ...]:
    """Group the full profile list by the player's own strategy and take
    max over groups of the group minimum."""
    values = []
    for i in range(g.n_players):
        worst: dict[int, int] = {}
        for p in all_profiles(g):
            u = payoff(g, p, i)
            own = p[i]
            if own not in worst or u < worst[own]:
                worst[own] = u
        values.append(max(worst.values()))
    return tuple(values)


def symmetric_oracle(g: Game) -> bool:
    """Invariance under all |P|! player permutations (feasible for n <= 4).

    A permutation acts by relabeling players: in the permuted profile,
    player perm[i] plays what player i played, and must earn what player
    i earned.  This reading coincides with the transposition condition on
    involutions and, unlike pairing the same permutation on both sides,
    is closed under composition, so transpositions generate all of it.
    """
    first = g.strategy_labels[0]
    if any(labels != first for labels in g.strategy_labels[1:]):
        return False
    n = g.n_players
    for perm in itertools.permutations(range(n)):
        for p in all_profiles(g):
            permuted = [0] * n
            for i in range(n):
                permuted[perm[i]] = p[i]
            permuted = tuple(permuted)
            for i in range(n):
                if payoff(g, p, i) != payoff(g, permuted, perm[i]):
                    return False
    return True


def apply_payoff_map(g: Game, mapping) -> Game:
    """Rebuild `g` with every payoff passed through `mapping` (a dict or
    callable); used for ordinal-invariance checks."""
    lookup = mapping.__getitem__ if isinstance(mapping, dict) else mapping
    cells = [
        (p, tuple(lookup(payoff(g, p, i)) for i in range(g.n_players)))
        for p in all_profiles(g)
    ]
    return new_game(g.strategy_labels, cells)


def random_increasing_map(values, rng) -> dict[int, int]:
    """A strictly increasing integer map over `values`, with a random
    base offset and random positive gaps."""
    ordered = sorted(set(values))
    out = {}
    current = rng.next_in_range(-1000, 1000)
    for v in ordered:
        out[v] = current
        current += rng.next_in_range(1, 7)
    return out


def _alive_payoffs(g: Game, survivors, player: int, strategy: int) -> list[int]:
    """`player`'s payoffs at `strategy` against every alive opponent profile."""
    others = [survivors[j] for j in range(g.n_players) if j != player]
    return [
        payoff(g, q[:player] + (strategy,) + q[player:], player)
        for q in itertools.product(*others)
    ]


def dominators_oracle(g: Game, survivors, player: int, strategy: int) -> list[int]:
    """Alive strategies of `player` whose worst payoff strictly beats the
    best payoff of `strategy`, both over alive opponent profiles."""
    cap = max(_alive_payoffs(g, survivors, player, strategy))
    return [
        b for b in survivors[player] if min(_alive_payoffs(g, survivors, player, b)) > cap
    ]


def elimination_oracle(g: Game, survivors):
    """Batch elimination from `survivors` to a fixed point, every round
    recomputed from the definition; returns (rounds, final survivors)."""
    s = tuple(tuple(sorted(set(alive))) for alive in survivors)
    rounds = []
    while True:
        batch = tuple(
            (i, a)
            for i in range(g.n_players)
            for a in s[i]
            if dominators_oracle(g, s, i, a)
        )
        if not batch:
            return tuple(rounds), s
        rounds.append(batch)
        s = tuple(
            tuple(a for a in alive if (i, a) not in batch) for i, alive in enumerate(s)
        )


def deleted_sets(n_players: int, batch) -> set[frozenset[int]]:
    """The distinct sets of strategies the players lose in one elimination
    round.  On a symmetric game the paper's symmetry lemma says every
    player loses the same set, so there is exactly one."""
    return {frozenset(v for i, v in batch if i == player) for player in range(n_players)}


def proof_referee(report):
    """The name of the first step of the paper's proof that fails on the
    symmetric `report`, or None when every step holds.

    Let d(b) be the payoff when every player plays b, d* the largest d(b),
    and a* a strategy of a Hofstadter profile.  A Hofstadter profile pays
    every player d* (`hofstadter pays d*`).  A strategy b attaining a
    player's maximin (`maximin`) has a worst payoff of at most d(b), which
    is at most d* (`ir: worst <= d(b)`, `ir: d(b) <= d*`): the profile is
    individually rational.  At the start of every elimination round, up to
    the one that deletes nothing, all players' alive sets are equal
    (`mirror`), a* is alive (`hofstadter alive`), d* is at most a*'s best
    alive payoff (`d* <= max(a*)`), and every alive b has a worst alive
    payoff of at most d(b) (`min(b) <= d(b)`); these two are read for
    player 0, whom the other players mirror on a symmetric game.  So no b
    dominates a*: it would need min(b) > max(a*) >= d* >= d(b) >= min(b).
    A round's steps are named ``round r: <step>``; ``round r`` alone fails
    when a player has no alive strategy, or batch r is empty or deletes a
    strategy that is not alive.  Replaying the batches must reach the
    trace's final survivors (`final survivors`).  Every min and max is
    taken by brute force over ``_alive_payoffs``.
    """
    g = report.game
    n, k = g.n_players, g.strategy_counts[0]
    d = [payoff(g, (b,) * n, 0) for b in range(k)]
    top = max(d)
    if any(payoff(g, p, i) != top for p in report.hofstadter for i in range(n)):
        return "hofstadter pays d*"
    full = [range(k)] * n
    worst = [[min(_alive_payoffs(g, full, i, b)) for b in range(k)] for i in range(n)]
    if list(report.maximin) != [max(row) for row in worst]:
        return "maximin"
    for row in worst:
        b = row.index(max(row))
        if row[b] > d[b]:
            return "ir: worst <= d(b)"
        if d[b] > top:
            return "ir: d(b) <= d*"
    stars = sorted({a for p in report.hofstadter for a in p})
    alive = [list(range(k)) for _ in range(n)]
    rounds = report.trace.rounds
    for r, batch in enumerate(rounds + ((),), start=1):
        step = f"round {r}"
        if not all(alive) or r <= len(rounds) and (
            not batch or any(v not in alive[i] for i, v in batch)
        ):
            return step
        if any(s != alive[0] for s in alive):
            return f"{step}: mirror"
        if any(a not in alive[0] for a in stars):
            return f"{step}: hofstadter alive"
        if any(top > max(_alive_payoffs(g, alive, 0, a)) for a in stars):
            return f"{step}: d* <= max(a*)"
        if any(min(_alive_payoffs(g, alive, 0, b)) > d[b] for b in alive[0]):
            return f"{step}: min(b) <= d(b)"
        alive = [[v for v in s if (i, v) not in batch] for i, s in enumerate(alive)]
    if tuple(map(tuple, alive)) != report.trace.final_survivors:
        return "final survivors"
    return None


def draws_referee(state: int, lo: int, hi: int, count: int) -> list[int]:
    """`count` draws from [lo, hi] of a splitmix64 stream now at `state`:
    the scalar loop, one step and one finalizer pass per draw, with the
    published constants written out."""
    mask = (1 << 64) - 1
    out = []
    for _ in range(count):
        state = (state + 0x9E3779B97F4A7C15) & mask
        z = ((state ^ (state >> 30)) * 0xBF58476D1CE4E5B9) & mask
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & mask
        out.append(lo + (z ^ (z >> 31)) % (hi - lo + 1))
    return out


def sweep_game(config, j: int):
    """Game `j` of a sweep and its deletion-order seed, rebuilt through the
    public generator from the substream ``derive_seed(config.seed, j)`` as
    the verify module's determinism contract says; the generator raises
    SizeGuardExceeded for a game the sweep skips."""
    stream = SplitMix64(derive_seed(config.seed, j))
    k = stream.next_in_range(config.min_strategies, config.max_strategies)
    game_seed = stream.next_u64()
    order_seed = stream.next_u64()
    g = gen_random_symmetric_game(
        config.players, k, config.payoff_lo, config.payoff_hi, game_seed,
        max_entries=config.max_entries,
    )
    return g, order_seed


def _class_games(n: int, k: int, assignments):
    """One symmetric game of `n` players with `k` strategies each per value
    tuple of `assignments(m)`, which gives one payoff to each of the `m`
    payoff classes (own strategy, sorted opponent strategies)."""
    classes = [
        (own, others)
        for own in range(k)
        for others in itertools.combinations_with_replacement(range(k), n - 1)
    ]
    cells = list(itertools.product(range(k), repeat=n))
    cell_classes = [
        [classes.index((p[i], tuple(sorted(p[:i] + p[i + 1 :])))) for i in range(n)]
        for p in cells
    ]
    labels = [[f"s{v}" for v in range(k)]] * n
    for values in assignments(len(classes)):
        yield new_game(
            labels,
            [
                (p, tuple(map(values.__getitem__, row)))
                for p, row in zip(cells, cell_classes)
            ],
        )


def every_symmetric_game(n: int, k: int, levels: int):
    """Every symmetric game of `n` players with `k` strategies each whose
    payoffs lie in range(`levels`), one per assignment of a level to each
    payoff class (own strategy, sorted opponent strategies)."""
    return _class_games(n, k, lambda m: itertools.product(range(levels), repeat=m))


def every_ordinal_type(n: int, k: int):
    """One symmetric game of `n` players with `k` strategies each per weak
    order of the payoff classes: the value tuples whose set of values is
    exactly range(d), for d distinct payoffs.  Every symmetric game of the
    shape has the solution sets of exactly one of them."""

    def weak_orders(m):
        return (
            values
            for values in itertools.product(range(m), repeat=m)
            if len(set(values)) == max(values) + 1
        )

    return _class_games(n, k, weak_orders)
