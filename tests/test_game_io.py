import json
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pinned_games import PINNED_GAMES, sha256

from nonnash import (
    DuplicateCell,
    DuplicateLabel,
    GameDocument,
    GnfSyntaxError,
    IndexOutOfRange,
    InvalidLabel,
    MissingCell,
    PayoffOutOfRange,
    SizeGuardExceeded,
    SweepConfig,
    UnknownFormat,
    VersionUnsupported,
    build_report,
    gen_random_game,
    new_game,
    parse_game,
    profiles,
    render_report,
    render_sweep_report,
    serialize_game,
    sweep,
)

CANONICAL_PD = """gnf 1
players 2
strategies 0 Defect Cooperate
strategies 1 Defect Cooperate
payoffs
0 0 1 1
0 1 3 0
1 0 0 3
1 1 2 2
end
"""


class TestParse:
    def test_canonical_pd(self, pd):
        doc = parse_game(CANONICAL_PD)
        assert doc.game == pd
        assert doc.name == ""

    def test_comments_blank_lines_crlf(self, pd):
        text = (
            "# a whole-line comment\r\n"
            "gnf 1\r\n\r\n"
            "players 2   # trailing comment\r\n"
            "strategies 0 Defect Cooperate\r\n"
            "strategies 1 Defect Cooperate\r\n"
            "payoffs\r\n"
            "0 0 1 1\r\n0 1 3 0\r\n1 0 0 3\r\n1 1 2 2\r\n"
            "end\r\n"
        )
        doc = parse_game(text)
        assert doc.game == pd
        assert "a whole-line comment" in doc.comments

    def test_cells_in_any_order(self, pd):
        text = CANONICAL_PD.replace("0 0 1 1\n0 1 3 0", "0 1 3 0\n0 0 1 1")
        assert parse_game(text).game == pd

    def test_missing_cell(self):
        text = CANONICAL_PD.replace("1 1 2 2\n", "")
        with pytest.raises(MissingCell, match=r"\(1, 1\)"):
            parse_game(text)

    def test_version_unsupported(self):
        with pytest.raises(VersionUnsupported):
            parse_game(CANONICAL_PD.replace("gnf 1", "gnf 2"))

    def test_bad_header(self):
        with pytest.raises(GnfSyntaxError) as exc:
            parse_game("nope\n")
        assert exc.value.line == 1

    def test_bad_cell_line_reports_line_number(self):
        text = CANONICAL_PD.replace("1 0 0 3", "1 0 three 3")
        with pytest.raises(GnfSyntaxError) as exc:
            parse_game(text)
        assert exc.value.line == 8

    def test_strategies_out_of_order(self):
        text = CANONICAL_PD.replace("strategies 0", "strategies 1", 1)
        with pytest.raises(GnfSyntaxError):
            parse_game(text)

    def test_trailing_garbage(self):
        with pytest.raises(GnfSyntaxError):
            parse_game(CANONICAL_PD + "extra stuff\n")

    def test_truncated_file(self):
        with pytest.raises(GnfSyntaxError):
            parse_game("gnf 1\nplayers 2\n")


class TestControlCharacters:
    """Tokens are separated by spaces and tabs only; str.split() would also
    split on several ASCII control characters."""

    @pytest.mark.parametrize(
        "char", ["\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x1f", "\x00", "\x7f", "\r"],
        ids=repr,
    )
    def test_refused_outside_comments(self, char):
        text = CANONICAL_PD.replace("Defect Cooperate\n", f"Defect{char}Cooperate\n", 1)
        with pytest.raises(GnfSyntaxError) as exc:
            parse_game(text)
        assert str(exc.value) == (
            "line 3: expected no control character other than tab outside comments"
        )

    def test_refused_in_a_cell_line(self):
        with pytest.raises(GnfSyntaxError, match="^line 9: expected no control"):
            parse_game(CANONICAL_PD.replace("1 1 2 2", "1 1\x0c2 2"))

    def test_allowed_in_comments(self, pd):
        text = CANONICAL_PD.replace("payoffs\n", "payoffs # a\x1fb\x0bc\r\n", 1)
        assert parse_game(text).game == pd

    def test_tabs_and_line_end_carriage_returns_allowed(self, pd):
        text = CANONICAL_PD.replace(" ", "\t").replace("\n", "\r\r\n")
        assert parse_game(text).game == pd


class TestSerialize:
    def test_canonical_pd_bytes(self, pd):
        assert serialize_game(GameDocument(game=pd)) == CANONICAL_PD

    def test_single_cell_is_six_lines(self):
        g = new_game([["only"]], [((0,), (7,))])
        text = serialize_game(GameDocument(game=g))
        assert text == "gnf 1\nplayers 1\nstrategies 0 only\npayoffs\n0 7\nend\n"
        assert len(text.rstrip("\n").split("\n")) == 6

    def test_roundtrip_random_games(self):
        for j in range(100):
            g = gen_random_game(2 + j % 2, (2 + j % 3, 3, 2)[: 2 + j % 2], -50, 50, seed=j)
            assert parse_game(serialize_game(GameDocument(game=g))).game == g

    @given(st.integers(min_value=0, max_value=2**63))
    @settings(max_examples=40, deadline=None)
    def test_roundtrip_property(self, seed):
        g = gen_random_game(2, (3, 4), -1000, 1000, seed=seed)
        assert parse_game(serialize_game(GameDocument(game=g))).game == g

    def test_fixture_files_are_canonical(self, games_dir):
        for name in ("pd", "chicken", "coordination", "g3x3"):
            text = (games_dir / f"{name}.gnf").read_text()
            assert serialize_game(parse_game(text)) == text


class TestRenderReport:
    def test_csv_pd(self, pd):
        report = build_report(pd, name="pd")
        lines = render_report(report, "csv").splitlines()
        assert lines[0] == "i0,i1,labels,nash,hofstadter,ir,rationalizable"
        assert len(lines) == 5
        assert lines[4] == "1,1,(Cooperate;Cooperate),false,true,true,true"

    def test_csv_row_count(self, g3x3):
        lines = render_report(build_report(g3x3), "csv").splitlines()
        assert len(lines) == 10  # 9 profiles + header

    def test_text_3x3_trace(self, g3x3):
        text = render_report(build_report(g3x3, name="g3x3"), "text")
        assert "round 1: player 0: C; player 1: C" in text
        assert "round 2: player 0: B; player 1: B" in text

    def test_text_pd_no_elimination(self, pd):
        text = render_report(build_report(pd, name="pd"), "text")
        assert "no strategies eliminated" in text
        assert "hofstadter: (Cooperate,Cooperate)" in text

    def test_empty_name_allowed(self, pd):
        text = render_report(build_report(pd), "text")
        assert "game:" in text
        obj = json.loads(render_report(build_report(pd), "json"))
        assert obj["name"] == ""

    def test_json_structure(self, g3x3):
        obj = json.loads(render_report(build_report(g3x3, name="g3x3"), "json"))
        assert obj["symmetric"] is True
        assert obj["nash"] == [[0, 0]]
        assert obj["maximin"] == [5, 5]
        assert obj["elimination_rounds"] == [[[0, 2], [1, 2]], [[0, 1], [1, 1]]]
        assert obj["survivors"] == [[0], [0]]

    def test_json_stable_bytes(self, g3x3):
        a = render_report(build_report(g3x3, name="x"), "json")
        b = render_report(build_report(g3x3, name="x"), "json")
        assert a == b

    def test_asymmetric_report(self):
        g = gen_random_game(2, (2, 3), 0, 9, seed=6)
        report = build_report(g, name="rand")
        assert report.hofstadter is None
        text = render_report(report, "text")
        assert "hofstadter: n/a (asymmetric)" in text
        obj = json.loads(render_report(report, "json"))
        assert obj["hofstadter"] is None
        assert obj["regions"] is None
        csv_lines = render_report(report, "csv").splitlines()
        assert csv_lines[1].split(",")[4] == ""  # empty hofstadter column

    def test_unknown_format(self, pd):
        with pytest.raises(UnknownFormat):
            render_report(build_report(pd), "yaml")
        with pytest.raises(UnknownFormat):
            render_sweep_report(sweep(SweepConfig(games=1)), "csv")


# sha256 of render_report(build_report(game, name=<key>), fmt).
PINNED_RENDERS = [
    ("pd", "text", "0fb03a67a8ceb24e72a6abb57b8ef2baa0d355b6589090f0411d320b8d56b02c"),
    ("pd", "csv", "bcc2fe23140f0266aa43268d19861b4c794ae2b5906a59b9539d151eeec826f8"),
    ("pd", "json", "a4674674d54410a9e94dfde8432f68956c6c2e2302abc18a5faf19705d33987e"),
    ("chicken", "text", "8a2bda092b29929641bc365203b7be88d3e391191834c6f8d3b689d6b801df5b"),
    ("chicken", "csv", "fec062e94d1e940ee5c43f80ab6b7b371534593d9c2d3ead9903d15cd52b6589"),
    ("chicken", "json", "c150a8ebdc1c632a294cee2e91003a797e8529e0e4ceeac10206582b1db5513d"),
    ("coordination", "text", "8ad6ec1d7b6b18d3aa1e0de139793586daf83cd4db517095410152d30efbfd09"),
    ("coordination", "csv", "e1e164a1de64ca72e2badf8775975b6e45c2d458af43f29ff5d3aaab22ed8c55"),
    ("coordination", "json", "7402f0f9b100836c7ba2fe11dabb533dd7af37c968e541b3aa213e9e34276a3b"),
    ("g3x3", "text", "71e7d4bd511a16da3172dd9eb509738f7fa75f558a3a2658f7be7fa42c4e7f0d"),
    ("g3x3", "csv", "390c281f660e038fca8c19453f402fcdcd71d8c2260c7e5233d71a97032700a4"),
    ("g3x3", "json", "dc685975180bb6f4d07ad9b2587e31bd80eddd766c4b31b5840cc20839ba9985"),
    ("sym3-random", "text", "c4c5edf26c42a620b5dfb5d88cd590405caca8291befba1060a96a35cb265345"),
    ("sym3-random", "csv", "e4f58aa7dada2fe00fe081f57e8af4f3d2229f7fe7da95fc2e9b88bed152a33f"),
    ("sym3-random", "json", "0a1de82494aea006b265ff94a684686385a59c6d33c03421554e6729d58eb1f6"),
    ("sym3-ladder", "text", "987122405230b63c64b6a7652971d9718009bd6375c55229af7ef3a94952c89b"),
    ("sym3-ladder", "csv", "7c82e8ea0395a0efb08d482a66683eea635345b61e9e61276c00802fce1d0d0b"),
    ("sym3-ladder", "json", "af5f90cf2b800677792e5377f5c1b114112e7124595720db96634f6744d5935b"),
    ("asym-2-3-2", "text", "4c9231d735d6918a1eb2051df7cdd613a48656c3ee68eca8bc8e7022fb21e64e"),
    ("asym-2-3-2", "csv", "1f2ef4e7acbc2386df7aba0ff5743693485fe4b4f071f2a029ed465c380c3153"),
    ("asym-2-3-2", "json", "ec117693b62b0acf777d25ec12cbe1494e7a160d9fa26868e9b3832e80d03fee"),
    ("asym-5x5", "text", "0eec473f791a531e73648426745536e71d8698b5f35a9359d2269ea6c9abca41"),
    ("asym-5x5", "csv", "99431492b1a52bb146165c8409e5e783779b79e606eb3b8c6af0ddd3abc62f98"),
    ("asym-5x5", "json", "489ceb59a04c9d32b90c0f75fe27eb58f8a9bf07ea4b783fdb5b8cae7a0a7eaf"),
    ("one-player", "text", "35ef1cccc76ba383542ed7b98ec484e2e5261b4e8841bafc419be9552cbdce1e"),
    ("one-player", "csv", "55681a678162583c1bb1a4d5d14f77cab0f7b6f0e7fce1218a1725c89685d81a"),
    ("one-player", "json", "822283e1b4380f45d9639d76d46835ad326ebfb31f59f3ba0b0530f4ab0693ec"),
    ("rps", "text", "412d80452bec88bb0dc9a60ce339c18ed5b5edce508204cf0c4729e225fa83c9"),
    ("rps", "csv", "1d350f206821177c9c2482d896e5f076ed8389529865c96e4a674987d7c7466f"),
    ("rps", "json", "fecfc2f640842e8937c635c03894ec60c4977169f8200316f7c56969c45a602d"),
]


@pytest.mark.parametrize(
    "name, fmt, digest", PINNED_RENDERS, ids=[f"{n}-{f}" for n, f, _ in PINNED_RENDERS]
)
def test_pinned_render(name, fmt, digest):
    report = build_report(PINNED_GAMES[name](), name=name)
    assert sha256(render_report(report, fmt)) == digest


def _edit(*replacements, text=CANONICAL_PD):
    for old, new in replacements:
        assert old in text
        text = text.replace(old, new, 1)
    return text


_WIDE = (
    ("strategies 0 Defect Cooperate", "strategies 0 " + " ".join(f"s{v}" for v in range(2300))),
    ("strategies 1 Defect Cooperate", "strategies 1 " + " ".join(f"s{v}" for v in range(2300))),
)
_BAD_LABEL = ("strategies 0 Defect Cooperate", "strategies 0 Defect Co-op!")
_DUPLICATE = ("0 1 3 0", "0 0 3 0")
_SIZE_GUARD = (
    "2 players with 2300..2300 strategies each need more than 10000000 payoff "
    "entries (cells x players)"
)
_BAD_CELL_LINE = "expected 2 strategy indices and 2 integer payoffs, or 'end'"

# (document, exception class, str(exception)) from parse_game.  The
# precedence: syntax errors in file order (non-ASCII lines first), then
# labels, then the size guard, then the first bad cell in file order.
BAD_DOCUMENTS = {
    "index-out-of-range": (
        _edit(("1 1 2 2", "1 2 2 2")),
        IndexOutOfRange, "profile (1, 2): strategy 2 out of range for player 1",
    ),
    "negative-index": (
        _edit(("1 0 0 3", "-1 0 0 3")),
        IndexOutOfRange, "profile (-1, 0): strategy -1 out of range for player 0",
    ),
    "three-player-index": (
        "gnf 1\nplayers 3\nstrategies 0 a\nstrategies 1 a b\nstrategies 2 a\n"
        "payoffs\n0 1 0 1 2 3\n0 0 1 1 2 3\nend\n",
        IndexOutOfRange, "profile (0, 0, 1): strategy 1 out of range for player 2",
    ),
    "payoff-above-max": (
        _edit(("1 1 2 2", "1 1 2 4611686018427387905")),
        PayoffOutOfRange, "cell (1, 1): payoff 4611686018427387905 outside [-2**62, 2**62]",
    ),
    "payoff-below-min": (
        _edit(("0 1 3 0", "0 1 -4611686018427387905 0")),
        PayoffOutOfRange, "cell (0, 1): payoff -4611686018427387905 outside [-2**62, 2**62]",
    ),
    "duplicate-cell": (
        _edit(_DUPLICATE), DuplicateCell, "profile (0, 0) listed more than once",
    ),
    "missing-cell": (
        _edit(("1 1 2 2\n", "")), MissingCell, "no payoffs for profile (1, 1)",
    ),
    "one-player-missing": (
        "gnf 1\nplayers 1\nstrategies 0 a b c\npayoffs\n2 5\n0 1\nend\n",
        MissingCell, "no payoffs for profile (1,)",
    ),
    "bad-label": (
        _edit(_BAD_LABEL),
        InvalidLabel, "player 0: label 'Co-op!' (labels must match [A-Za-z0-9_-]+)",
    ),
    "duplicate-label": (
        _edit(("strategies 1 Defect Cooperate", "strategies 1 Defect Defect")),
        DuplicateLabel, "player 1: duplicate strategy label 'Defect'",
    ),
    "size-guard": (_edit(*_WIDE), SizeGuardExceeded, _SIZE_GUARD),
    "short-cell": (
        _edit(("1 0 0 3", "1 0 0")), GnfSyntaxError, f"line 8: {_BAD_CELL_LINE}",
    ),
    "syntax-after-bad-cell": (
        _edit(("0 1 3 0", "0 9 3 0"), ("1 0 0 3", "1 0 three 3")),
        GnfSyntaxError, f"line 8: {_BAD_CELL_LINE}",
    ),
    "syntax-after-bad-label": (
        _edit(_BAD_LABEL, ("1 1 2 2", "1 1 2")),
        GnfSyntaxError, f"line 9: {_BAD_CELL_LINE}",
    ),
    "syntax-after-size-guard": (
        _edit(*_WIDE, ("1 1 2 2", "1 1 2 2 2 2")),
        GnfSyntaxError, f"line 9: {_BAD_CELL_LINE}",
    ),
    "trailing-garbage-after-bad-cell": (
        _edit(_DUPLICATE, ("end\n", "end\nmore\n")),
        GnfSyntaxError, "line 11: expected end of file after 'end'",
    ),
    "truncated-after-bad-cell": (
        _edit(_DUPLICATE, ("end\n", "")),
        GnfSyntaxError, "line 10: expected a payoff cell or 'end'",
    ),
    "non-ascii-before-earlier-syntax-error": (
        _edit(("players 2", "players two"), ("1 0 0 3", "1 0 0 3")),
        GnfSyntaxError, "line 8: expected ASCII text outside comments",
    ),
    "version-before-later-syntax-error": (
        _edit(("gnf 1", "gnf 2"), ("1 0 0 3", "1 0 x 3")),
        VersionUnsupported,
        "line 1: format version '2' not supported (this reader understands version 1)",
    ),
    "label-before-size-guard": (
        _edit(("strategies 0 s0", "strategies 0 Co-op! s0"), text=_edit(*_WIDE)),
        InvalidLabel, "player 0: label 'Co-op!' (labels must match [A-Za-z0-9_-]+)",
    ),
    "size-guard-before-bad-cell": (
        _edit(*_WIDE, _DUPLICATE), SizeGuardExceeded, _SIZE_GUARD,
    ),
    "first-bad-cell-in-file-order": (
        _edit(_DUPLICATE, ("1 0 0 3", "1 0 0 4611686018427387905")),
        DuplicateCell, "profile (0, 0) listed more than once",
    ),
    "index-before-payoff-in-one-cell": (
        _edit(("1 1 2 2", "1 2 2 4611686018427387905")),
        IndexOutOfRange, "profile (1, 2): strategy 2 out of range for player 1",
    ),
    "index-before-later-duplicate": (
        _edit(("1 1 2 2", "0 0 2 2"), ("0 0 1 1", "0 5 1 1")),
        IndexOutOfRange, "profile (0, 5): strategy 5 out of range for player 1",
    ),
}


@pytest.mark.parametrize("case", BAD_DOCUMENTS)
def test_bad_document(case):
    text, cls, message = BAD_DOCUMENTS[case]
    with pytest.raises(Exception) as exc:
        parse_game(text)
    assert (type(exc.value), str(exc.value)) == (cls, message)


def _cell_lines(g, rng):
    """The cell lines of `g` in a shuffled order, each written with its own
    mix of separators, comments and line endings."""
    lines = []
    for p, u in zip(profiles(g), g.payoffs):
        tokens = [str(v) for v in p + u]
        line = "".join(tok + rng.choice((" ", "  ", "\t", " \t ")) for tok in tokens)
        line = rng.choice(("", " ", "\t")) + line.rstrip()
        line += rng.choice(("", " ", "  # note", "#"))
        lines.append(line + rng.choice(("\n", "\r\n", "\n\n")))
    rng.shuffle(lines)
    return lines


def test_parse_matches_new_game_on_shuffled_cells():
    rng = random.Random(7)
    for j in range(150):
        n = rng.randint(1, 3)
        counts = tuple(rng.randint(1, 4) for _ in range(n))
        g = gen_random_game(n, counts, -(10 ** rng.randint(1, 18)), 99, seed=j)
        head = [f"gnf 1\nplayers {n}\n"]
        head += [f"strategies {i} " + " ".join(g.strategy_labels[i]) + "\n" for i in range(n)]
        text = "".join(head + ["payoffs\n"] + _cell_lines(g, rng) + ["end\n"])
        cells = list(zip(profiles(g), g.payoffs))
        rng.shuffle(cells)
        assert parse_game(text).game == new_game(g.strategy_labels, cells) == g
