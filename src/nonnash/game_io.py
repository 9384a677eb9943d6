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

Tokens are separated by spaces and tabs; ``#`` starts a comment to end of
line; outside comments the text is ASCII with no control character other
than tab; blank lines are ignored; LF and CRLF both accepted.
Serialization is canonical: LF endings, cells in profile enumeration
order, single spaces, no comments, no trailing whitespace, so two runs (or
two implementations) given the same game emit identical bytes.
"""

import itertools
import json
import math
import re
from dataclasses import dataclass

from .errors import GnfSyntaxError, UnknownFormat, VersionUnsupported
from .game_core import Game, build_game, profiles

FORMAT_VERSION = 1


# ASCII digits only: str.isdigit also accepts characters such as "²",
# which int() rejects, and "٠", which int() reads as 0.  At most 640
# digits, the lowest limit sys.set_int_max_str_digits allows, so int()
# never raises; no valid payoff, player count or index needs as many.
_INT = "-?[0-9]{1,640}"
_INT_RE = re.compile(_INT + r"\Z")

# ASCII control characters other than tab and line feed.  str.split()
# takes several of them (and U+001C..U+001F) for whitespace; the format
# separates tokens with spaces and tabs only.
_CONTROL_RE = re.compile(r"[\x00-\x08\x0b-\x1f\x7f]")


def parse_int(text: str) -> int | None:
    """`text` as an int if it is an integer of the format (an optional
    minus sign and 1 to 640 ASCII digits), else None."""
    return int(text) if _INT_RE.match(text) else None


@dataclass(frozen=True)
class GameDocument:
    """A game plus file-level metadata.

    The grammar carries no name; callers (the CLI uses the file stem) may
    attach one for reports.  Comments found while parsing are kept for
    reference but never re-serialized: the canonical form is comment-free.
    The format version is not kept: only ``FORMAT_VERSION`` is read or written.
    """

    game: Game
    name: str = ""
    comments: tuple[str, ...] = ()


def _check_characters(text: str, lines: list[str]) -> None:
    """Raise GnfSyntaxError for the first line that holds, outside its
    comment, a non-ASCII character or a control character other than tab
    (a carriage return may only end the line)."""
    if text.isascii() and _CONTROL_RE.search(text.replace("\r\n", "\n")) is None:
        return
    for lineno, raw in enumerate(lines, start=1):
        line = raw.rstrip("\r").partition("#")[0]
        # str.split() also splits on non-ASCII spaces such as U+00A0.
        if not line.isascii():
            raise GnfSyntaxError(lineno, "ASCII text outside comments")
        if _CONTROL_RE.search(line):
            raise GnfSyntaxError(
                lineno, "no control character other than tab outside comments"
            )


def parse_game(text: str) -> GameDocument:
    """Parse a version-1 game document.

    The document is read in three passes.  The first refuses a line with a
    non-ASCII or control character outside its comment.  The second checks
    the syntax, line by line in file order: the header, every payoff cell
    (one index and one payoff per player, all integer tokens), ``end``, and
    nothing but blank or comment lines after it.  The third hands the cells
    to :func:`nonnash.game_core.build_game`, which checks every rule of the
    game itself (labels, the size guard, indices and payoffs in range, each
    profile exactly once), as for :func:`nonnash.game_core.new_game`.

    Raises :class:`GnfSyntaxError` with the offending line number and what
    was expected there, :class:`VersionUnsupported`, or the error of the
    first game rule the document breaks.  The order of the passes is the
    order of the errors: a character error first, then any other syntax
    error in file order, then the game rules, on a document free of syntax
    errors.
    """
    lines = text.split("\n")
    _check_characters(text, lines)
    comments: list[str] = []

    def tokens_at(i: int) -> list[str]:
        """Tokens of line i (from 0), keeping its comment."""
        line = lines[i].rstrip("\r")
        if "#" in line:
            line, _, comment = line.partition("#")
            comment = comment.strip()
            if comment:
                comments.append(comment)
        return line.split()

    pos = 0

    def take(expected: str) -> tuple[int, list[str]]:
        """Line number and tokens of the next line that has tokens."""
        nonlocal pos
        while pos < len(lines):
            pos += 1
            tokens = tokens_at(pos - 1)
            if tokens:
                return pos, tokens
        raise GnfSyntaxError(len(lines), expected)

    lineno, tokens = take("header 'gnf 1'")
    if tokens[0] != "gnf" or len(tokens) != 2:
        raise GnfSyntaxError(lineno, "header 'gnf 1'")
    if tokens[1] != str(FORMAT_VERSION):
        raise VersionUnsupported(
            f"line {lineno}: format version {tokens[1]!r} not supported "
            f"(this reader understands version {FORMAT_VERSION})"
        )

    lineno, tokens = take("'players <n>'")
    n = parse_int(tokens[1]) if tokens[0] == "players" and len(tokens) == 2 else None
    if n is None:
        raise GnfSyntaxError(lineno, "'players <n>'")
    if n < 1:
        raise GnfSyntaxError(lineno, "a positive player count")

    labels = []
    for i in range(n):
        expected = f"'strategies {i} <label> ...'"
        lineno, tokens = take(expected)
        if tokens[0] != "strategies" or len(tokens) < 3 or tokens[1] != str(i):
            raise GnfSyntaxError(lineno, expected)
        labels.append(tokens[2:])

    lineno, tokens = take("'payoffs'")
    if tokens != ["payoffs"]:
        raise GnfSyntaxError(lineno, "'payoffs'")

    # A cell is 2n integers; canonical lines match as they stand, others
    # (tabs, extra spaces, comments, CRLF) once their tokens are rejoined.
    cell = re.compile(f"(?:{_INT} ){{{2 * n - 1}}}{_INT}\\Z").match
    bad_cell = f"{n} strategy indices and {n} integer payoffs, or 'end'"
    cells = []
    for i in range(pos, len(lines)):
        line = lines[i]
        if cell(line) is None:
            tokens = tokens_at(i)
            if not tokens:
                continue
            if tokens == ["end"]:
                break
            line = " ".join(tokens)
            if cell(line) is None:
                raise GnfSyntaxError(i + 1, bad_cell)
        cells.append(line)
    else:
        raise GnfSyntaxError(len(lines), "a payoff cell or 'end'")
    for j in range(i + 1, len(lines)):
        if tokens_at(j):
            raise GnfSyntaxError(j + 1, "end of file after 'end'")

    values = (tuple(map(int, line.split(" "))) for line in cells)
    game = build_game(labels, ((v[:n], v[n:]) for v in values))
    return GameDocument(game=game, comments=tuple(comments))


def serialize_game(doc: GameDocument) -> str:
    """Canonical text form of a document's game."""
    g = doc.game
    lines = [f"gnf {FORMAT_VERSION}", f"players {g.n_players}"]
    for i, player_labels in enumerate(g.strategy_labels):
        lines.append(f"strategies {i} " + " ".join(player_labels))
    lines.append("payoffs")
    lines.extend(" ".join(map(str, p + u)) for p, u in zip(profiles(g), g.payoffs))
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


def _profile_names(g: Game) -> list[str]:
    """``(label,label,...)`` for every profile, in enumeration order."""
    template = "(" + ",".join(["%s"] * g.n_players) + ")"
    return list(map(template.__mod__, itertools.product(*g.strategy_labels)))


def _profile_set_text(names: dict, collection) -> str:
    if not collection:
        return "none"
    return ", ".join(map(names.__getitem__, collection))


def matrix_lines(g: Game, marks=None) -> list[str]:
    """Payoff table as aligned text.

    Two-player games render as a grid (rows = player 0); other player
    counts render one line per profile.  `marks` holds one short
    annotation string per cell, in enumeration order, shown next to the
    payoffs when it is not empty.
    """
    template = ",".join(["%d"] * g.n_players)
    cells = [template % u for u in g.payoffs]
    if marks is not None:
        cells = [f"{text} [{mark}]" if mark else text for text, mark in zip(cells, marks)]

    if g.n_players != 2:
        return [f"{name} -> {text}" for name, text in zip(_profile_names(g), cells)]

    row_labels, col_labels = g.strategy_labels
    k = len(col_labels)
    rows = [cells[h : h + k] for h in range(0, len(cells), k)]
    left = max(map(len, row_labels))
    widths = [max(map(len, column)) for column in zip(col_labels, *rows)]
    lines = [" " * left + "  " + "  ".join(map(str.ljust, col_labels, widths))]
    lines += [
        label.ljust(left) + "  " + "  ".join(map(str.ljust, row, widths))
        for label, row in zip(row_labels, rows)
    ]
    return [line.rstrip() for line in lines]


# Every (nash, hofstadter, individually rational, minimax-rationalizable)
# combination of _profile_flags, with its text marker and its CSV columns.
_FLAG_SETS = list(
    itertools.product((False, True), (None, False, True), (False, True), (False, True))
)
_MARKERS = {
    flags: "".join(letter for letter, flag in zip("NHIM", flags) if flag)
    for flags in _FLAG_SETS
}
_CSV_FLAGS = {
    flags: ",".join("" if flag is None else _bool(flag) for flag in flags)
    for flags in _FLAG_SETS
}


def _profile_flags(r) -> list:
    """(nash, hofstadter, individually rational, minimax-rationalizable)
    for every profile of the report's game, in enumeration order; the
    Hofstadter flag is None for asymmetric games.  This is the one
    per-profile pass behind all three report formats."""
    g = r.game
    nash = set(r.nash)
    symmetric = r.hofstadter is not None
    hof = set(r.hofstadter or ())
    ir = set(r.individually_rational)
    # mask[i][v]: strategy v of player i survives elimination.
    masks = [[False] * k for k in g.strategy_counts]
    for mask, alive in zip(masks, r.trace.final_survivors):
        for v in alive:
            mask[v] = True
    return [
        (p in nash, p in hof if symmetric else None, p in ir, rationalizable)
        for p, rationalizable in zip(profiles(g), map(all, itertools.product(*masks)))
    ]


def _render_text(r) -> str:
    g = r.game
    marks = [_MARKERS[flags] for flags in _profile_flags(r)]
    names = dict(zip(profiles(g), _profile_names(g)))

    lines = [f"game: {r.name}" if r.name else "game: (unnamed)"]
    lines.append(f"players: {g.n_players}")
    lines.append("strategies: " + format_survivors(g, [range(k) for k in g.strategy_counts]))
    lines.append("symmetric: " + ("yes" if r.symmetric else "no"))
    lines.append("")
    lines.extend(matrix_lines(g, marks))
    lines.append("")
    lines.append(
        "markers: N = pure Nash, H = Hofstadter, I = individually rational, "
        "M = minimax-rationalizable"
    )
    lines.append("")
    lines.append("pure nash: " + _profile_set_text(names, r.nash))
    if r.hofstadter is None:
        lines.append("hofstadter: n/a (asymmetric)")
    else:
        lines.append("hofstadter: " + _profile_set_text(names, r.hofstadter))
    lines.append("maximin: (" + ",".join(str(v) for v in r.maximin) + ")")
    lines.append("individually rational: " + _profile_set_text(names, r.individually_rational))
    if not r.trace.rounds:
        lines.append("elimination: no strategies eliminated")
    else:
        lines.append("elimination:")
        for round_no, batch in enumerate(r.trace.rounds, start=1):
            lines.append("  " + format_round(g, round_no, batch))
    lines.append("survivors: " + format_survivors(g, r.trace.final_survivors))
    if r.hofstadter is None:
        lines.append("regions: n/a (asymmetric)")
    else:
        lines.append(
            "regions: minimax-rationalizable=%d, individually-rational=%d, hofstadter=%d"
            % (
                math.prod(map(len, r.trace.final_survivors)),
                len(r.individually_rational),
                len(r.hofstadter),
            )
        )
    return "\n".join(lines) + "\n"


def _render_csv(r) -> str:
    g = r.game
    n = g.n_players
    header = [f"i{i}" for i in range(n)] + ["labels", "nash", "hofstadter", "ir", "rationalizable"]
    template = ",".join(["%s"] * n) + ",(" + ";".join(["%s"] * n) + "),"
    indices = itertools.product(*(list(map(str, range(k))) for k in g.strategy_counts))
    rows = [",".join(header)]
    rows += [
        template % (index + labels) + _CSV_FLAGS[flags]
        for index, labels, flags in zip(
            indices, itertools.product(*g.strategy_labels), _profile_flags(r)
        )
    ]
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
        if r.hofstadter is None
        else [
            {
                "profile": list(p),
                "rationalizable": rationalizable,
                "individually_rational": ir,
                "hofstadter": hofstadter,
            }
            for p, (_, hofstadter, ir, rationalizable) in zip(
                profiles(g), _profile_flags(r)
            )
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
