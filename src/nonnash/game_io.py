"""Text serialization of games and rendering of analysis reports.

This module only parses, serializes and renders; it never solves.  The
reports it renders are built by :func:`nonnash.solvers.build_report` and
:func:`nonnash.verify.sweep`.

Game file format, version 1 (conventional extension ``.gnf``)::

    gnf 1
    players <n>
    strategies 0 <label> <label> ...
    ...                                  (one line per player, in order)
    payoffs
    <i_0> ... <i_{n-1}> <u_0> ... <u_{n-1}>   (one line per cell, any order)
    end

Tokens are whitespace separated; ``#`` starts a comment to end of line;
blank lines are ignored; LF and CRLF both accepted.  Serialization is
canonical: LF endings, cells in profile enumeration order, single spaces,
no comments, no trailing whitespace, so two runs (or two implementations)
given the same game emit identical bytes.
"""

import json
from dataclasses import dataclass

from .errors import GnfSyntaxError, UnknownFormat, VersionUnsupported
from .game_core import Game, Profile, format_profile, new_game, profiles

FORMAT_VERSION = 1


def _is_int(token: str) -> bool:
    if token.startswith("-"):
        token = token[1:]
    return token.isdigit() and token != ""


@dataclass(frozen=True)
class GameDocument:
    """A game plus file-level metadata.

    The grammar carries no name; callers (the CLI uses the file stem) may
    attach one for reports.  Comments found while parsing are kept for
    reference but never re-serialized: the canonical form is comment-free.
    """

    game: Game
    name: str = ""
    comments: tuple[str, ...] = ()
    version: int = FORMAT_VERSION


def parse_game(text: str) -> GameDocument:
    """Parse a version-1 game document.

    Raises :class:`GnfSyntaxError` with the offending line number and
    what was expected there; totality errors (missing or duplicated
    cells) propagate from game construction.
    """
    all_lines = text.split("\n")
    items: list[tuple[int, list[str]]] = []
    comments: list[str] = []
    for lineno, raw in enumerate(all_lines, start=1):
        line = raw.rstrip("\r")
        if "#" in line:
            line, _, comment = line.partition("#")
            comment = comment.strip()
            if comment:
                comments.append(comment)
        tokens = line.split()
        if tokens:
            items.append((lineno, tokens))

    cursor = 0

    def take(expected: str) -> tuple[int, list[str]]:
        nonlocal cursor
        if cursor >= len(items):
            raise GnfSyntaxError(len(all_lines), expected)
        item = items[cursor]
        cursor += 1
        return item

    lineno, tokens = take("header 'gnf 1'")
    if tokens[0] != "gnf" or len(tokens) != 2:
        raise GnfSyntaxError(lineno, "header 'gnf 1'")
    if tokens[1] != str(FORMAT_VERSION):
        raise VersionUnsupported(
            f"line {lineno}: format version {tokens[1]!r} not supported "
            f"(this reader understands version {FORMAT_VERSION})"
        )

    lineno, tokens = take("'players <n>'")
    if tokens[0] != "players" or len(tokens) != 2 or not _is_int(tokens[1]):
        raise GnfSyntaxError(lineno, "'players <n>'")
    n = int(tokens[1])
    if n < 1:
        raise GnfSyntaxError(lineno, "a positive player count")

    labels = []
    for i in range(n):
        expected = f"'strategies {i} <label> ...'"
        lineno, tokens = take(expected)
        if tokens[0] != "strategies" or len(tokens) < 3 or tokens[1] != str(i):
            raise GnfSyntaxError(lineno, expected)
        labels.append(tuple(tokens[2:]))

    lineno, tokens = take("'payoffs'")
    if tokens != ["payoffs"]:
        raise GnfSyntaxError(lineno, "'payoffs'")

    cells = []
    while True:
        lineno, tokens = take("a payoff cell or 'end'")
        if tokens == ["end"]:
            break
        if len(tokens) != 2 * n or not all(_is_int(t) for t in tokens):
            raise GnfSyntaxError(
                lineno, f"{n} strategy indices and {n} integer payoffs, or 'end'"
            )
        profile = tuple(int(t) for t in tokens[:n])
        values = tuple(int(t) for t in tokens[n:])
        cells.append((profile, values))

    if cursor != len(items):
        lineno, _ = items[cursor]
        raise GnfSyntaxError(lineno, "end of file after 'end'")

    game = new_game(labels, cells)
    return GameDocument(game=game, comments=tuple(comments))


def serialize_game(doc: GameDocument) -> str:
    """Canonical text form of a document's game."""
    g = doc.game
    lines = [f"gnf {FORMAT_VERSION}", f"players {g.n_players}"]
    for i, player_labels in enumerate(g.strategy_labels):
        lines.append(f"strategies {i} " + " ".join(player_labels))
    lines.append("payoffs")
    for p in profiles(g):
        u = g.payoffs[g.cell_index(p)]
        lines.append(" ".join(str(v) for v in p) + " " + " ".join(str(v) for v in u))
    lines.append("end")
    return "\n".join(lines) + "\n"


def format_round(g: Game, round_no: int, batch) -> str:
    """One elimination round as text, e.g.
    ``round 1: player 0: C; player 1: C``."""
    by_player: dict[int, list[str]] = {}
    for player, strategy in batch:
        by_player.setdefault(player, []).append(g.strategy_labels[player][strategy])
    parts = [
        f"player {player}: " + " ".join(by_player[player])
        for player in sorted(by_player)
    ]
    return f"round {round_no}: " + "; ".join(parts)


def format_survivors(g: Game, survivors) -> str:
    parts = [
        f"player {i}: {{" + ",".join(g.strategy_labels[i][v] for v in alive) + "}"
        for i, alive in enumerate(survivors)
    ]
    return "; ".join(parts)


def _bool(value: bool) -> str:
    return "true" if value else "false"


def _profile_set_text(g: Game, collection) -> str:
    if not collection:
        return "none"
    return ", ".join(format_profile(g, p) for p in collection)


def matrix_lines(g: Game, markers: dict | None = None) -> list[str]:
    """Payoff table as aligned text.

    Two-player games render as a grid (rows = player 0); other player
    counts render one line per profile.  `markers` maps profiles to short
    annotation strings shown next to the payoffs.
    """
    markers = markers or {}

    def cell_text(p: Profile) -> str:
        u = g.payoffs[g.cell_index(p)]
        text = ",".join(str(v) for v in u)
        mark = markers.get(p, "")
        return f"{text} [{mark}]" if mark else text

    if g.n_players != 2:
        return [f"{format_profile(g, p)} -> {cell_text(p)}" for p in profiles(g)]

    row_labels, col_labels = g.strategy_labels
    cells = {p: cell_text(p) for p in profiles(g)}
    left = max(len(label) for label in row_labels)
    widths = [
        max(len(col_labels[c]), max(len(cells[(r, c)]) for r in range(len(row_labels))))
        for c in range(len(col_labels))
    ]
    lines = [
        " " * left
        + "  "
        + "  ".join(label.ljust(w) for label, w in zip(col_labels, widths))
    ]
    for r, row_label in enumerate(row_labels):
        lines.append(
            row_label.ljust(left)
            + "  "
            + "  ".join(cells[(r, c)].ljust(w) for c, w in enumerate(widths))
        )
    return [line.rstrip() for line in lines]


def _render_text(r) -> str:
    g = r.game
    nash = set(r.nash)
    ir = set(r.individually_rational)
    hof = set(r.hofstadter) if r.hofstadter is not None else set()
    alive = [set(x) for x in r.trace.final_survivors]

    markers = {}
    for p in profiles(g):
        mark = ""
        if p in nash:
            mark += "N"
        if p in hof:
            mark += "H"
        if p in ir:
            mark += "I"
        if all(v in alive[i] for i, v in enumerate(p)):
            mark += "M"
        if mark:
            markers[p] = mark

    lines = [f"game: {r.name}" if r.name else "game: (unnamed)"]
    lines.append(f"players: {g.n_players}")
    lines.append("strategies: " + format_survivors(g, [range(k) for k in g.strategy_counts]))
    lines.append("symmetric: " + ("yes" if r.symmetric else "no"))
    lines.append("")
    lines.extend(matrix_lines(g, markers))
    lines.append("")
    lines.append(
        "markers: N = pure Nash, H = Hofstadter, I = individually rational, "
        "M = minimax-rationalizable"
    )
    lines.append("")
    lines.append("pure nash: " + _profile_set_text(g, r.nash))
    if r.hofstadter is None:
        lines.append("hofstadter: n/a (asymmetric)")
    else:
        lines.append("hofstadter: " + _profile_set_text(g, r.hofstadter))
    lines.append("maximin: (" + ",".join(str(v) for v in r.maximin) + ")")
    lines.append("individually rational: " + _profile_set_text(g, r.individually_rational))
    if not r.trace.rounds:
        lines.append("elimination: no strategies eliminated")
    else:
        lines.append("elimination:")
        for round_no, batch in enumerate(r.trace.rounds, start=1):
            lines.append("  " + format_round(g, round_no, batch))
    lines.append("survivors: " + format_survivors(g, r.trace.final_survivors))
    if r.regions is None:
        lines.append("regions: n/a (asymmetric)")
    else:
        tags = r.regions.values()
        lines.append(
            "regions: minimax-rationalizable=%d, individually-rational=%d, hofstadter=%d"
            % (
                sum(t.rationalizable for t in tags),
                sum(t.individually_rational for t in tags),
                sum(t.hofstadter for t in tags),
            )
        )
    return "\n".join(lines) + "\n"


def _render_csv(r) -> str:
    g = r.game
    n = g.n_players
    nash = set(r.nash)
    ir = set(r.individually_rational)
    hof = set(r.hofstadter) if r.hofstadter is not None else None
    alive = [set(x) for x in r.trace.final_survivors]
    rows = [
        ",".join([f"i{i}" for i in range(n)] + ["labels", "nash", "hofstadter", "ir", "rationalizable"])
    ]
    for p in profiles(g):
        labels = "(" + ";".join(g.strategy_labels[i][v] for i, v in enumerate(p)) + ")"
        rows.append(
            ",".join(
                [str(v) for v in p]
                + [
                    labels,
                    _bool(p in nash),
                    "" if hof is None else _bool(p in hof),
                    _bool(p in ir),
                    _bool(all(v in alive[i] for i, v in enumerate(p))),
                ]
            )
        )
    return "\n".join(rows) + "\n"


def _render_json(r) -> str:
    g = r.game
    obj = {
        "name": r.name,
        "players": g.n_players,
        "strategies": [list(x) for x in g.strategy_labels],
        "symmetric": r.symmetric,
        "nash": [list(p) for p in r.nash],
        "hofstadter": None if r.hofstadter is None else [list(p) for p in r.hofstadter],
        "maximin": list(r.maximin),
        "individually_rational": [list(p) for p in r.individually_rational],
        "elimination_rounds": [
            [list(pair) for pair in batch] for batch in r.trace.rounds
        ],
        "survivors": [list(x) for x in r.trace.final_survivors],
        "regions": None
        if r.regions is None
        else [
            {
                "profile": list(p),
                "rationalizable": tag.rationalizable,
                "individually_rational": tag.individually_rational,
                "hofstadter": tag.hofstadter,
            }
            for p, tag in r.regions.items()
        ],
    }
    return json.dumps(obj, indent=2) + "\n"


def render_report(r, fmt: str = "text") -> str:
    """Render an :class:`~nonnash.solvers.AnalysisReport` as ``text``,
    ``csv`` or ``json``."""
    if fmt == "text":
        return _render_text(r)
    if fmt == "csv":
        return _render_csv(r)
    if fmt == "json":
        return _render_json(r)
    raise UnknownFormat(f"unknown report format {fmt!r} (text, csv, json)")


def render_sweep_report(report, fmt: str = "text") -> str:
    """Render a sweep campaign report.

    Apart from the elapsed-time line the text is a pure function of the
    sweep configuration, so reruns compare byte-identical after dropping
    that line.
    """
    cfg = report.config
    if fmt == "json":
        obj = {
            "players": cfg.players,
            "strategies": [cfg.min_strategies, cfg.max_strategies],
            "payoffs": [cfg.payoff_lo, cfg.payoff_hi],
            "games": cfg.games,
            "seed": cfg.seed,
            "properties": list(cfg.properties),
            "checked": report.games_checked,
            "skipped": report.games_skipped,
            "violations": [
                {"property": prop, "game": text} for text, prop in report.violations
            ],
            "witnesses": {
                "rationalizable_not_hofstadter": report.rationalizable_not_hofstadter,
                "ir_not_hofstadter": report.ir_not_hofstadter,
            },
            "elapsed": report.elapsed,
            "verdict": "PASS" if report.passed else "FAIL",
        }
        return json.dumps(obj, indent=2) + "\n"
    if fmt != "text":
        raise UnknownFormat(f"unknown report format {fmt!r} (text, json)")
    lines = [
        f"sweep: players={cfg.players} strategies={cfg.min_strategies}..{cfg.max_strategies}"
        f" payoffs={cfg.payoff_lo}..{cfg.payoff_hi} games={cfg.games} seed={cfg.seed}",
        "properties: " + ", ".join(cfg.properties),
        f"checked: {report.games_checked}",
        f"skipped: {report.games_skipped}",
        f"violations: {len(report.violations)}",
        "witnesses: rationalizable-not-hofstadter=%d ir-not-hofstadter=%d"
        % (report.rationalizable_not_hofstadter, report.ir_not_hofstadter),
    ]
    for idx, (text, prop) in enumerate(report.violations, start=1):
        lines.append(f"violation {idx}: {prop}")
        lines.append(text.rstrip("\n"))
    lines.append(f"elapsed: {report.elapsed:.3f}s")
    lines.append("verdict: " + ("PASS" if report.passed else "FAIL"))
    return "\n".join(lines) + "\n"
