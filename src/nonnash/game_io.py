"""Text serialization of games and rendering of analysis reports.

This module only parses, serializes and renders; it never solves.  The
reports it renders are built by :func:`nonnash.solvers.build_report` and
:func:`nonnash.verify.sweep`, and every report format reads its per-profile
facts from one pass, :attr:`nonnash.solvers.AnalysisReport.codes`: each
marker and CSV flag column is spelled once per code from the report's
record of that code, so this module states no bit layout, and JSON reads
the records per profile through ``flags``.

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
import operator
import re
from dataclasses import dataclass

from .errors import GnfSyntaxError, UnknownFormat, VersionUnsupported
from .game_core import Game, Profile, _build_flat_game, check_index, check_profile, full_sets
from .game_core import normalize_survivors, profiles

FORMAT_VERSION = 1


# ASCII digits only: str.isdigit also accepts characters such as "²",
# which int() rejects, and "٠", which int() reads as 0.  At most 640
# digits, the lowest limit sys.set_int_max_str_digits allows, so int()
# never raises; no valid payoff, player count or index needs as many.
_INT = "-?[0-9]{1,640}"
_INT_RE = re.compile(_INT + r"\Z")

# The characters allowed outside comments: printable ASCII, tab and line
# feed.  str.split() takes several control characters for whitespace; the
# format separates tokens with spaces and tabs only.
_ALLOWED = bytes(range(0x20, 0x7F)) + b"\t\n"

# An integer of the format as JSON writes one: no leading zeros.  Every
# token of a block of canonical cell lines has this form.  The lookahead
# rather than an alternation makes a line that is not canonical fail
# sooner.
_JSON_INT = "-?(?!0[0-9])[0-9]{1,640}"

# The most canonical cell lines parse_game matches at once.  The re module
# keeps backtracking state for every repeat it has taken, so a block stays
# small.
_BLOCK = 256

# Cells read alone, outside blocks, that parse_game converts to ints with
# one join and one split: few enough that a large table never holds all
# its tokens as strings at once.
_CELL_SLICE = 2048


def _block_ints(block: str) -> list[int]:
    """The integers of a block of canonical cell lines, each ending in a
    line feed, in order: one json.loads."""
    return json.loads("[" + block.replace(" ", ",").replace("\n", ",")[:-1] + "]")


def parse_int(text: str) -> int | None:
    """`text` as an int if it is an integer of the format (an optional
    minus sign and 1 to 640 ASCII digits), else None."""
    return int(text) if _INT_RE.match(text) else None


@dataclass(frozen=True)
class GameDocument:
    """A game as a document holds it.

    The grammar carries no name and the canonical form no comments, and
    only ``FORMAT_VERSION`` is read or written, so only the game is kept.
    """

    game: Game


def _check_characters(text: str) -> None:
    """Raise GnfSyntaxError for the first line that holds, outside its
    comment, a non-ASCII character or a control character other than tab
    (a carriage return may only end the line)."""
    # Deleting every allowed byte leaves nothing.
    if text.isascii() and not text.encode("ascii").translate(None, _ALLOWED):
        return
    # Only a text that fails the fast test is split into lines.
    for lineno, raw in enumerate(text.split("\n"), start=1):
        line = raw.rstrip("\r").partition("#")[0]
        # str.split() also splits on non-ASCII spaces such as U+00A0.
        if not line.isascii():
            raise GnfSyntaxError(lineno, "ASCII text outside comments")
        if line.encode("ascii").translate(None, _ALLOWED):
            raise GnfSyntaxError(lineno, "no control character other than tab outside comments")


def _line_tokens(text: str, pos: int) -> tuple[list[str], int]:
    """Tokens of the line at offset `pos`, outside its comment, and the offset after it."""
    # The line feed, kept in the slice, is whitespace to str.split().
    end = text.find("\n", pos) + 1 or len(text) + 1
    return text[pos:end].partition("#")[0].split(), end


def _filled_line(text: str, pos: int) -> tuple[int, list[str], int]:
    """Offset, tokens and next offset of the first line at or after `pos`
    that has tokens; past the last line, ``len(text)`` and no tokens."""
    while pos <= len(text):
        tokens, end = _line_tokens(text, pos)
        if tokens:
            return pos, tokens, end
        pos = end
    return len(text), [], pos


def parse_game(text: str) -> GameDocument:
    """Parse a version-1 game document.

    First a line with a non-ASCII or control character outside its comment
    is refused.  Then one offset walks the text, checking the syntax in file
    order: the header, every payoff cell (one index and one payoff per
    player, all integer tokens), ``end``, and nothing but blank or comment
    lines after it.  The payoff table takes two routes.  A run of canonical
    cell lines (single spaces, no leading zeros, LF or CRLF endings) is
    matched up to ``_BLOCK`` lines at a time by one regex, and each such
    block becomes ints through one ``json.loads``.  Any other line (a
    comment, a blank line, tabs, extra spaces, a leading zero) is read alone
    and has its rejoined tokens converted by ``int()``; block reading
    resumes on the next line.  Last the cells, in file order, go to
    ``game_core``, which checks the rules of the game itself, as listed in
    :func:`nonnash.game_core.new_game`, with the same errors; the labels and
    the size guard pass before a single cell token becomes an int.

    Raises :class:`GnfSyntaxError` with the offending line's number, counted
    only then, and what was expected there, :class:`VersionUnsupported`, or
    the error of the first game rule the document breaks.  The checks run in
    the order of the errors: characters first, then any other syntax error
    in file order, then the game rules, on a document free of syntax errors.
    """
    # A carriage return before a line feed ends its line, where the
    # tokenizer takes it for a space: dropping it moves no line and
    # changes no token, and a CRLF table reads as a canonical one.
    text = text.replace("\r\n", "\n")
    _check_characters(text)

    # The number of the line that holds `offset`; the end of `text` is on
    # its last line.
    def line_at(offset: int) -> int:
        return text.count("\n", 0, offset) + 1

    # One offset into `text`, `pos`, where the next unread line starts:
    # the header lines, the blocks, the lines read alone and the
    # after-'end' check all advance it.  Past the last line a header line
    # has no tokens, so it fails its test on the last line.
    start, tokens, pos = _filled_line(text, 0)
    if len(tokens) != 2 or tokens[0] != "gnf":
        raise GnfSyntaxError(line_at(start), "header 'gnf 1'")
    if tokens[1] != str(FORMAT_VERSION):
        raise VersionUnsupported(
            f"line {line_at(start)}: format version {tokens[1]!r} not supported "
            f"(this reader understands version {FORMAT_VERSION})"
        )

    start, tokens, pos = _filled_line(text, pos)
    n = parse_int(tokens[1]) if len(tokens) == 2 and tokens[0] == "players" else None
    if n is None:
        raise GnfSyntaxError(line_at(start), "'players <n>'")
    if n < 1:
        raise GnfSyntaxError(line_at(start), "a positive player count")

    labels = []
    for i in range(n):
        start, tokens, pos = _filled_line(text, pos)
        if len(tokens) < 3 or tokens[0] != "strategies" or tokens[1] != str(i):
            raise GnfSyntaxError(line_at(start), f"'strategies {i} <label> ...'")
        labels.append(tuple(tokens[2:]))

    start, tokens, pos = _filled_line(text, pos)
    if tokens != ["payoffs"]:
        raise GnfSyntaxError(line_at(start), "'payoffs'")

    # A cell is 2n integers.  Each turn of the loop matches a block of
    # canonical lines at `pos`, or else reads the line there alone.
    block = re.compile(f"(?:(?:{_JSON_INT} ){{{2 * n - 1}}}{_JSON_INT}\\n){{1,{_BLOCK}}}").match
    cell = re.compile(f"(?:{_INT} ){{{2 * n - 1}}}{_INT}\\Z").match
    bad_cell = f"{n} strategy indices and {n} integer payoffs, or 'end'"
    # Blocks, as slices of `text`, and runs of cells read alone, in file
    # order; an empty run converts to no ints.
    run = []
    parts = [run]
    while pos <= len(text):
        m = block(text, pos)
        if m is not None:
            start, pos = m.span()
            run = []
            parts += slice(start, pos), run
            continue
        start = pos
        tokens, pos = _line_tokens(text, pos)
        if not tokens:
            continue
        if tokens == ["end"]:
            break
        line = " ".join(tokens)
        if cell(line) is None:
            raise GnfSyntaxError(line_at(start), bad_cell)
        if len(run) == _CELL_SLICE:
            run = []
            parts.append(run)
        run.append(line)
    else:
        raise GnfSyntaxError(line_at(len(text)), "a payoff cell or 'end'")
    start, tokens, _ = _filled_line(text, pos)
    if tokens:
        raise GnfSyntaxError(line_at(start), "end of file after 'end'")

    # Lazy, so that game_core converts no token before the labels and the
    # size guard pass.
    values = itertools.chain.from_iterable(
        map(int, " ".join(part).split()) if type(part) is list else _block_ints(text[part])
        for part in parts
    )
    return GameDocument(game=_build_flat_game(tuple(labels), values))


def serialize_game(doc: GameDocument) -> str:
    """Canonical text form of a document's game."""
    g = doc.game
    lines = [f"gnf {FORMAT_VERSION}", f"players {g.n_players}"]
    for i, player_labels in enumerate(g.strategy_labels):
        lines.append(f"strategies {i} " + " ".join(player_labels))
    lines.append("payoffs")
    # One %s per index and payoff: %s writes an int as str() does.
    cell = " ".join(["%s"] * (2 * g.n_players)).__mod__
    lines.extend(map(cell, map(operator.add, profiles(g), zip(*g.columns))))
    lines.append("end")
    return "\n".join(lines) + "\n"


def format_profile(g: Game, profile: Profile) -> str:
    """Render a profile with labels, e.g. ``(Defect,Cooperate)``;
    IndexOutOfRange unless it has one index per player, each in range."""
    profile = check_profile(profile, g.strategy_counts)
    return "(" + ",".join(g.strategy_labels[i][v] for i, v in enumerate(profile)) + ")"


def format_round(g: Game, round_no: int, batch) -> str:
    """One elimination round as text, e.g.
    ``round 1: player 0: C; player 1: C``; IndexOutOfRange unless each
    (player, strategy) pair of `batch` names a player and one of its strategies."""
    by_player: dict[int, list[str]] = {}
    for player, strategy in batch:
        check_index(player, g.n_players, "player")
        check_index(strategy, g.strategy_counts[player], f"player {player}: strategy")
        by_player.setdefault(player, []).append(g.strategy_labels[player][strategy])
    parts = [
        f"player {player}: " + " ".join(by_player[player])
        for player in sorted(by_player)
    ]
    return f"round {round_no}: " + "; ".join(parts)


def format_survivors(g: Game, survivors) -> str:
    """Surviving sets as text, e.g. ``player 0: {C,D}; player 1: {D}``, after
    :func:`~nonnash.game_core.normalize_survivors` has sorted and checked them."""
    parts = [
        f"player {i}: {{" + ",".join(g.strategy_labels[i][v] for v in alive) + "}"
        for i, alive in enumerate(normalize_survivors(g, survivors))
    ]
    return "; ".join(parts)


def _profile_names(g: Game) -> list[str]:
    """``(label,label,...)`` for every profile, in enumeration order."""
    # Every player's labels, each with the comma or parenthesis after it,
    # extend every name so far: one join per name and player.
    names = ["("]
    ends = [","] * (g.n_players - 1) + [")"]
    for labels, end in zip(g.strategy_labels, ends):
        names = list(map("".join, itertools.product(names, [label + end for label in labels])))
    return names


def matrix_lines(g: Game) -> list[str]:
    """Payoff table as aligned text, one string per line: a grid (rows =
    player 0) for two players, else one line per profile."""
    return "\n".join(_matrix_lines(g, [""] * len(g.columns[0]), None)).split("\n")


def _matrix_lines(g: Game, marks, names) -> list[str]:
    """The lines of :func:`matrix_lines` (the 2-player grid one string per
    line, any other table one string) with `marks`, one string per cell in
    enumeration order written after the payoffs (`` [NI]`` or empty), and
    `names` the :func:`_profile_names` of `g` or None if the caller has none.
    Both read the payoffs from :attr:`Game.columns`."""
    n = g.n_players
    if n != 2:
        # One line per cell, its name, n payoffs and mark: one flat list,
        # filled a column at a time, formats the table with one %.
        n_cells = len(g.columns[0])
        values = [None] * ((n + 2) * n_cells)
        values[:: n + 2] = names or _profile_names(g)
        for i, column in enumerate(g.columns):
            values[i + 1 :: n + 2] = column
        values[n + 1 :: n + 2] = marks
        line = "%s -> " + ",".join(["%d"] * n) + "%s"
        return ["\n".join([line] * n_cells) % tuple(values)]

    cells = list(map(operator.add, map("%d,%d".__mod__, zip(*g.columns)), marks))
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


# A flag's CSV column: true, false, or empty where it is undefined (None).
_CSV_FLAG = {None: "", False: "false", True: "true"}


def _render_text(r) -> str:
    g = r.game
    # Each code's marker, spelled once per code: the letters of its true
    # flags in brackets, or nothing when it has none.
    letters = ("".join(itertools.compress("NHIM", flags)) for flags in r._records)
    mark = [f" [{text}]" if text else "" for text in letters]
    profile_names = _profile_names(g)
    # The Nash, Hofstadter and individually rational profiles by name, read
    # off their codes in enumeration order: `f` holds one flag of every
    # code, and translating the codes through it, as a 256-byte table of 0
    # and 1, marks the profiles; "none" for an empty set.
    nash, hofstadter, rational = (
        ", ".join(itertools.compress(profile_names, r.codes.translate(table))) or "none"
        for table in [bytes(map(bool, f)).ljust(256, b"\0") for f in list(zip(*r._records))[:3]]
    )

    lines = [f"game: {r.name}" if r.name else "game: (unnamed)"]
    lines.append(f"players: {g.n_players}")
    lines.append("strategies: " + format_survivors(g, full_sets(g)))
    lines.append("symmetric: " + ("yes" if r.symmetric else "no"))
    lines.append("")
    lines.extend(_matrix_lines(g, map(mark.__getitem__, r.codes), profile_names))
    lines.append("")
    lines.append(
        "markers: N = pure Nash, H = Hofstadter, I = individually rational, "
        "M = minimax-rationalizable"
    )
    lines.append("")
    lines.append("pure nash: " + nash)
    if r.hofstadter is None:
        lines.append("hofstadter: n/a (asymmetric)")
    else:
        lines.append("hofstadter: " + hofstadter)
    lines.append("maximin: (" + ",".join(str(v) for v in r.maximin) + ")")
    lines.append("individually rational: " + rational)
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
                r.ir_mask.count(1),
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
    # Each code's flag columns, spelled once per code.
    tail = [",".join(map(_CSV_FLAG.get, flags)) for flags in r._records]
    rows = [",".join(header)]
    rows += [
        template % (index + labels) + tail[code]
        for index, labels, code in zip(
            indices, itertools.product(*g.strategy_labels), r.codes
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
            for p, (_, hofstadter, ir, rationalizable) in zip(profiles(g), r.flags)
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
