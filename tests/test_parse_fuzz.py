"""Fuzz the .gnf parser: any text either parses or raises GameError.

Two generators feed the same properties: free text over an alphabet of
format characters, and canonical documents of small random games with a
few tokens replaced.  Both include non-ASCII digits such as "²" and "٠",
which are not integers in the format, and ASCII control characters, which
are not separators.  A document that passes the syntax pass must give
what ``new_game`` gives on its plainly tokenized cells: the same game or
the same error, whether ``parse_game`` read a line in a block of
canonical lines or alone.  On any document, the first character or syntax error it raises,
with its line number, must be the one ``syntax_referee`` finds by
tokenizing every line up front.
"""

import math

from hypothesis import event, given, settings
from hypothesis import strategies as st

from oracles import document_referee, outcome, syntax_referee

from nonnash import (
    GameDocument,
    GameError,
    GnfSyntaxError,
    VersionUnsupported,
    gen_random_game,
    parse_game,
    serialize_game,
)
from nonnash.game_io import _BLOCK

TOKENS = (
    "gnf", "1", "2", "players", "strategies", "payoffs", "end", "0", "-1",
    "01", "7", "99999999999999999999", "-0", "s0", "s1", "x", "#", "²", "٠",
    "١٢", "３", "-", "+1", "1.0", "", "0" * 5000 + "1", "\x1f", "s0\x0bs1",
)
ALPHABET = st.sampled_from(
    list("gnfplayerstuodx0123456789-+# \t\r\n") + ["²", "٠", "３", " ", "\x85"]
    + ["\x00", "\x0b", "\x0c", "\x1c", "\x1f", "\x7f"]
)


def _check_total(text: str) -> None:
    try:
        doc = parse_game(text)
    except GameError:
        return
    # Outside comments the grammar is printable ASCII: keywords, ASCII
    # labels, integers written with the digits 0-9, and spaces or tabs
    # between them; a carriage return may only end a line.
    for line in text.split("\n"):
        before_comment = line.rstrip("\r").partition("#")[0]
        assert before_comment.isascii(), line
        assert before_comment.replace("\t", " ").isprintable(), line
    canonical = serialize_game(doc)
    assert serialize_game(parse_game(canonical)) == canonical


def _check_against_new_game(text: str) -> None:
    parsed = outcome(lambda: parse_game(text).game)
    if isinstance(parsed, tuple) and parsed[0] in (GnfSyntaxError, VersionUnsupported):
        return
    assert parsed == document_referee(text)


def _check_against_syntax_referee(text: str) -> None:
    expected = syntax_referee(text)
    # what the syntax error expected, without its line number, or its class
    kind = expected and (expected[1].partition(": expected ")[2] or expected[0].__name__)
    event(kind or "no syntax error")
    parsed = outcome(lambda: parse_game(text))
    if not (isinstance(parsed, tuple) and parsed[0] in (GnfSyntaxError, VersionUnsupported)):
        parsed = None  # parsed, or a game rule's error
    assert parsed == expected


@st.composite
def mutated_documents(draw):
    n = draw(st.integers(1, 3))
    counts = draw(st.lists(st.integers(1, 3), min_size=n, max_size=n))
    g = gen_random_game(n, counts, -5, 5, draw(st.integers(0, 2**32)))
    lines = [line.split(" ") for line in serialize_game(GameDocument(game=g)).split("\n")]
    for _ in range(draw(st.integers(1, 3))):
        row = draw(st.integers(0, len(lines) - 1))
        col = draw(st.integers(0, len(lines[row])))
        token = draw(st.sampled_from(TOKENS))
        if draw(st.booleans()) and col < len(lines[row]):
            lines[row][col] = token
        else:
            lines[row].insert(col, token)
    return "\n".join(" ".join(line) for line in lines)


# Whole lines a document may gain: blank and comment lines, which move the
# line numbers of what follows, and lines of each part of the grammar.
LINES = (
    "", " \t", "# note", "\r", "gnf 1", "players 2", "strategies 0 a", "payoffs",
    "0 0 1 1", "0\t1 -1 # cell", "0 1", "x", "end", "end # done",
)


@st.composite
def line_edited_documents(draw):
    """Canonical documents with whole lines inserted, dropped or replaced,
    so that a syntax error can fall on any line, after blank lines, at the
    end of the text or after 'end'."""
    n = draw(st.integers(1, 3))
    counts = draw(st.lists(st.integers(1, 3), min_size=n, max_size=n))
    g = gen_random_game(n, counts, -5, 5, draw(st.integers(0, 2**32)))
    lines = serialize_game(GameDocument(game=g)).split("\n")
    for _ in range(draw(st.integers(1, 3))):
        j = draw(st.integers(0, len(lines)))
        action = draw(st.sampled_from(("insert", "drop", "replace")))
        if action == "insert":
            lines.insert(j, draw(st.sampled_from(LINES)))
        elif action == "drop" and j < len(lines):
            del lines[j]
        elif j < len(lines):
            lines[j] = draw(st.sampled_from(LINES))
    return "\n".join(lines)


# Integer tokens a cell may hold: in and out of range as indices and
# payoffs, with the non-canonical spellings "00" and "-0".
CELL_TOKENS = (
    "0", "00", "-0", "1", "2", "3", "-1", str(2**62), str(-(2**62)), str(2**62 + 1),
    str(-(2**62) - 1),
)


@st.composite
def cell_mutated_documents(draw):
    """Canonical documents with cells edited, dropped, repeated or moved,
    so that every edit leaves the syntax valid."""
    n = draw(st.integers(1, 3))
    counts = draw(st.lists(st.integers(1, 4), min_size=n, max_size=n))
    g = gen_random_game(n, counts, -5, 5, draw(st.integers(0, 2**32)))
    lines = serialize_game(GameDocument(game=g)).split("\n")
    head, cells, tail = lines[: n + 3], lines[n + 3 : -2], lines[-2:]
    cells = [line.split(" ") for line in cells]
    for _ in range(draw(st.integers(0, 3))):
        j = draw(st.integers(0, len(cells) - 1))
        action = draw(st.sampled_from(("token", "drop", "repeat", "move")))
        if action == "token":
            cells[j][draw(st.integers(0, 2 * n - 1))] = draw(st.sampled_from(CELL_TOKENS))
        elif action == "drop" and len(cells) > 1:
            del cells[j]
        elif action == "repeat":
            cells.insert(draw(st.integers(0, len(cells))), list(cells[j]))
        elif action == "move":
            cells.insert(draw(st.integers(0, len(cells) - 1)), cells.pop(j))
    return "\n".join(head + [" ".join(cell) for cell in cells] + tail)


def _leading_zero(line: str, col: int) -> str:
    """`line` with token `col` (modulo the token count) written with a
    leading zero."""
    tokens = line.split(" ")
    col %= len(tokens)
    sign = "-" if tokens[col].startswith("-") else ""
    tokens[col] = sign + "0" + tokens[col].removeprefix("-")
    return " ".join(tokens)


@st.composite
def spliced_documents(draw):
    """Canonical 2-player documents of at least two blocks with comment,
    blank, CRLF, tab and leading-zero lines spliced in, some of them next
    to a block boundary, and now and then a line that is not a cell.  Now
    and then the document is cut at a line, with or without its line feed,
    or ends in blank, whitespace-only or comment lines after 'end' with no
    final line feed."""
    k = math.isqrt(2 * _BLOCK) + 1
    g = gen_random_game(2, k, -5, 5, draw(st.integers(0, 2**32)))
    lines = serialize_game(GameDocument(game=g)).split("\n")
    head = 5  # gnf, players, two strategies lines, payoffs
    near_boundary = [head + b + d for b in (_BLOCK, 2 * _BLOCK) for d in (-1, 0, 1)]
    for _ in range(draw(st.integers(1, 8))):
        j = draw(st.one_of(st.integers(0, len(lines) - 1), st.sampled_from(near_boundary)))
        kind = draw(st.sampled_from(
            ("comment", "blank", "crlf", "tab", "zero", "zero", "not a cell")
        ))
        if kind == "comment":
            lines.insert(j, "# note")
        elif kind == "blank":
            lines.insert(j, draw(st.sampled_from(("", " \t", "\r"))))
        elif kind == "crlf":
            lines[j] += "\r"
        elif kind == "tab":
            lines[j] = lines[j].replace(" ", "\t")
        elif kind == "zero":
            lines[j] = _leading_zero(lines[j], draw(st.integers(0, 3)))
        else:
            lines.insert(j, draw(st.sampled_from(("x", "0 1", "0 0 1 1 1", "end"))))
    ending = draw(st.sampled_from(("whole", "whole", "cut", "after end")))
    event(f"ending: {ending}")
    if ending == "cut":
        j = draw(st.one_of(st.integers(0, len(lines)), st.sampled_from(near_boundary)))
        return "\n".join(lines[:j]) + draw(st.sampled_from(("", "\n")))
    if ending == "after end":
        # in place of the final line feed's empty last line
        blank = st.sampled_from(("", " \t", "# note"))
        tail = draw(st.lists(blank, max_size=3)) + [draw(st.sampled_from((" \t", "\t", "# note")))]
        lines[-1:] = tail
    return "\n".join(lines)


@given(spliced_documents())
@settings(max_examples=200, deadline=None)
def test_spliced_block_documents_match_both_referees(text):
    _check_against_new_game(text)
    _check_against_syntax_referee(text)


@given(st.text(ALPHABET, max_size=200))
@settings(max_examples=300, deadline=None)
def test_free_text_parses_or_raises_game_error(text):
    _check_total(text)
    _check_against_new_game(text)


@given(mutated_documents())
@settings(max_examples=400, deadline=None)
def test_mutated_documents_parse_or_raise_game_error(text):
    _check_total(text)
    _check_against_new_game(text)


@given(st.text(ALPHABET, max_size=200))
@settings(max_examples=300, deadline=None)
def test_free_text_syntax_errors_match_the_referee(text):
    _check_against_syntax_referee(text)


@given(mutated_documents())
@settings(max_examples=400, deadline=None)
def test_mutated_document_syntax_errors_match_the_referee(text):
    _check_against_syntax_referee(text)


@given(line_edited_documents())
@settings(max_examples=400, deadline=None)
def test_line_edited_document_syntax_errors_match_the_referee(text):
    _check_against_syntax_referee(text)


@given(cell_mutated_documents())
@settings(max_examples=400, deadline=None)
def test_cell_mutations_match_new_game(text):
    _check_against_new_game(text)
