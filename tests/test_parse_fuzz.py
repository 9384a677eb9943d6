"""Fuzz the .gnf parser: any text either parses or raises GameError.

Two generators feed the same properties: free text over an alphabet of
format characters, and canonical documents of small random games with a
few tokens replaced.  Both include non-ASCII digits such as "²" and "٠",
which are not integers in the format, and ASCII control characters, which
are not separators.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from nonnash import GameDocument, GameError, gen_random_game, parse_game, serialize_game

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


@given(st.text(ALPHABET, max_size=200))
@settings(max_examples=300, deadline=None)
def test_free_text_parses_or_raises_game_error(text):
    _check_total(text)


@given(mutated_documents())
@settings(max_examples=400, deadline=None)
def test_mutated_documents_parse_or_raise_game_error(text):
    _check_total(text)

