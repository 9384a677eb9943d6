import dataclasses
import itertools
import json
import math
import random
import re
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import document_referee, every_ordinal_type, outcome, serialize_referee
from oracles import syntax_referee
from pinned_games import PINNED_GAMES, sha256

import nonnash.game_io
from nonnash import (
    DuplicateCell,
    DuplicateLabel,
    EmptySurvivorSet,
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
    chicken,
    coordination,
    elimination_ladder,
    format_profile,
    gen_random_game,
    gen_random_symmetric_game,
    new_game,
    parse_game,
    prisoners_dilemma,
    profiles,
    render_report,
    render_sweep_report,
    serialize_game,
    sweep,
)
from nonnash.game_core import PAYOFF_MAX, PAYOFF_MIN
from nonnash.game_io import _BLOCK, _CELL_SLICE, _profile_names, format_round, format_survivors
from nonnash.game_io import matrix_lines

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
        # the grammar carries no name and the canonical form no comments
        assert [f.name for f in dataclasses.fields(doc)] == ["game"]

    @pytest.mark.parametrize("name, build", [
        ("pd", prisoners_dilemma),
        ("chicken", chicken),
        ("coordination", coordination),
        ("g3x3", elimination_ladder),
    ])
    def test_catalog_games_equal_their_fixtures(self, games_dir, name, build):
        # the catalog states class values and hands over its rows; the
        # fixture lists every cell, and the parsed game derives its rows
        parsed = parse_game((games_dir / f"{name}.gnf").read_text()).game
        g = build()
        assert g == parsed
        assert g.own_rows == parsed.own_rows

    @pytest.mark.parametrize("count", ["0", "-1"])
    def test_player_count_below_one(self, count):
        with pytest.raises(GnfSyntaxError) as exc:
            parse_game(CANONICAL_PD.replace("players 2", f"players {count}"))
        assert str(exc.value) == "line 2: expected a positive player count"

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
        assert parse_game(text).game == pd

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

    def test_carriage_return_only_before_a_line_feed(self, pd):
        assert parse_game(CANONICAL_PD.replace("\n", "\r\n")).game == pd
        with pytest.raises(GnfSyntaxError, match="^line 9: expected no control"):
            parse_game(CANONICAL_PD.replace("1 1 2 2\n", "1 1 2 2\r"))

    # Every ASCII character inside the cell line "1 1 2 2", line 9, and
    # inside a comment after it.  In the cell a space or a tab separates
    # tokens, any other control character is refused as one, and anything
    # else (a line feed too) leaves no valid cell on line 9.  In the
    # comment only a line feed matters: it ends the comment.
    @pytest.mark.parametrize("code", range(128))
    def test_every_ascii_character(self, pd, code):
        char = chr(code)
        bad_cell = "line 9: expected 2 strategy indices and 2 integer payoffs, or 'end'"
        control = "line 9: expected no control character other than tab outside comments"
        if char in " \t":
            expected = pd
        elif char != "\n" and (code < 0x20 or code == 0x7F):
            expected = (GnfSyntaxError, control)
        else:
            expected = (GnfSyntaxError, bad_cell)
        text = CANONICAL_PD.replace("1 1 2 2", f"1 1{char}2 2")
        assert outcome(lambda: parse_game(text).game) == expected
        text = CANONICAL_PD.replace("1 1 2 2", f"1 1 2 2 # a{char}b")
        if char == "\n":
            expected = (GnfSyntaxError, bad_cell.replace("line 9", "line 10"))
        else:
            expected = pd
        assert outcome(lambda: parse_game(text).game) == expected


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

    @given(
        st.integers(min_value=1, max_value=4),
        st.lists(st.integers(min_value=1, max_value=4), min_size=4, max_size=4),
        st.sampled_from([
            (PAYOFF_MIN, PAYOFF_MAX),
            (PAYOFF_MIN, PAYOFF_MIN + 3),
            (PAYOFF_MAX - 3, PAYOFF_MAX),
            (-1000, -1),
            (-5, 5),
        ]),
        st.booleans(),
        st.integers(min_value=0, max_value=2**64 - 1),
    )
    @settings(max_examples=60, deadline=None)
    def test_bytes_match_the_join_referee(self, n, counts, payoff_range, symmetric, seed):
        if symmetric:
            g = gen_random_symmetric_game(n, counts[0], *payoff_range, seed)
        else:
            g = gen_random_game(n, counts[:n], *payoff_range, seed)
        assert serialize_game(GameDocument(game=g)) == serialize_referee(g)

    def test_fixture_files_are_canonical(self, games_dir):
        for name in ("pd", "chicken", "coordination", "g3x3"):
            text = (games_dir / f"{name}.gnf").read_text()
            assert serialize_game(parse_game(text)) == text


class TestFormatProfile:
    def test_renders_labels(self, pd):
        assert format_profile(pd, (1, 0)) == "(Cooperate,Defect)"

    @pytest.mark.parametrize("profile", [(0,), (-1, 0), (True, 0), (2, 0)])
    def test_refuses_a_malformed_profile(self, pd, profile):
        with pytest.raises(IndexOutOfRange):
            format_profile(pd, profile)


class TestFormatRound:
    def test_renders_labels_by_player(self, pd):
        assert (
            format_round(pd, 3, [(1, 1), (0, 1), (1, 0)])
            == "round 3: player 0: Cooperate; player 1: Cooperate Defect"
        )

    @pytest.mark.parametrize("pair", [(0, -1), (2, 0), (0, True), (True, 0), (0, 2)])
    def test_refuses_a_malformed_pair(self, pd, pair):
        with pytest.raises(IndexOutOfRange):
            format_round(pd, 1, [(0, 0), pair])


class TestFormatSurvivors:
    def test_renders_labels(self, pd):
        assert (
            format_survivors(pd, [(0, 1), (1,)])
            == "player 0: {Defect,Cooperate}; player 1: {Cooperate}"
        )

    def test_renders_the_normalized_sets(self, pd):
        assert format_survivors(pd, [(1, 0, 1), (1, 1)]) == format_survivors(pd, [(0, 1), (1,)])

    @pytest.mark.parametrize(
        "survivors",
        [[(True, 0)], [(0,), (0,), (0,)], [(0,), (True,)], [(0,), (2,)], [(-1,), (0,)]],
    )
    def test_refuses_a_malformed_index(self, pd, survivors):
        with pytest.raises(IndexOutOfRange):
            format_survivors(pd, survivors)

    def test_refuses_an_empty_set(self, pd):
        with pytest.raises(EmptySurvivorSet):
            format_survivors(pd, [(0,), ()])


class TestMatrixLines:
    def test_pd(self, pd):
        assert matrix_lines(pd) == [
            "           Defect  Cooperate",
            "Defect     1,1     3,0",
            "Cooperate  0,3     2,2",
        ]

    def test_g3x3(self, g3x3):
        assert matrix_lines(g3x3) == [
            "   A    B    C",
            "A  9,9  8,6  5,1",
            "B  6,8  7,7  4,2",
            "C  1,5  2,4  3,3",
        ]

    @pytest.mark.parametrize("counts", [(3,), (2, 3, 1), (2, 1, 3, 2)])
    def test_one_line_per_profile_off_two_players(self, counts):
        g = gen_random_game(len(counts), counts, -5, 5, seed=3)
        # the extremes and a negative payoff in the first and last cells
        payoffs = list(g.payoffs)
        payoffs[0] = (PAYOFF_MIN,) + payoffs[0][1:]
        payoffs[-1] = (PAYOFF_MAX,) * (len(counts) - 1) + (-1,)
        g = new_game(g.strategy_labels, zip(profiles(g), payoffs))
        lines = matrix_lines(g)
        assert type(lines) is list and len(lines) == len(payoffs)
        assert not any("\n" in line for line in lines)
        assert lines == [
            f"{format_profile(g, p)} -> " + ",".join(map(str, u))
            for p, u in zip(profiles(g), payoffs)
        ]

    def test_grid_with_extreme_payoffs(self):
        g = new_game(
            [["a", "bb"], ["x", "y"]],
            [((0, 0), (PAYOFF_MIN, -1)), ((0, 1), (0, PAYOFF_MAX)),
             ((1, 0), (-7, 3)), ((1, 1), (PAYOFF_MAX, PAYOFF_MIN))],
        )
        assert matrix_lines(g) == [
            "    x                        y",
            "a   -4611686018427387904,-1  0,4611686018427387904",
            "bb  -7,3                     4611686018427387904,-4611686018427387904",
        ]


# Label lists of different shapes and lengths, for the profile names.
NAMED_SHAPES = {
    "1p": [["Up", "Down", "x"]],
    "2p-3-5": [["a", "b", "c"], ["v", "w", "x", "y", "z"]],
    "4p-2-3-1-2": [["p", "q"], ["r", "s", "t"], ["only"], ["u", "v"]],
    "mixed-lengths": [["s", "long-label_9", "mid"], ["X", "a_b"], ["L" * 40, "m"]],
}


@pytest.mark.parametrize("shape", sorted(NAMED_SHAPES))
def test_profile_names_match_the_template_form(shape):
    labels = NAMED_SHAPES[shape]
    cells = [(p, (0,) * len(labels)) for p in itertools.product(*map(range, map(len, labels)))]
    g = new_game(labels, cells)
    template = "(" + ",".join(["%s"] * g.n_players) + ")"
    expected = [template % names for names in itertools.product(*labels)]
    assert _profile_names(g) == expected
    assert _profile_names(g) == [format_profile(g, p) for p in profiles(g)]


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


def _table_marks(text: str, n_players: int) -> list[str]:
    """The ``[marker]`` of each cell of a text report's payoff table, in
    profile enumeration order; "" for a cell shown without one."""
    table = text.split("\n\n")[1].splitlines()
    if n_players != 2:
        return [re.fullmatch(r"\S+ -> \S+(?: \[(\w+)\])?", line)[1] or "" for line in table]
    # a grid: a header line, then each row's label and its cells
    cell = re.compile(r"\S+(?: \[(\w+)\])?")
    return [mark for row in table[1:] for mark in cell.findall(row.split(None, 1)[1])]


def test_flag_texts_match_the_records():
    # Every profile's text marker and CSV flag columns against its flags
    # record: the letters N, H, I and M for its true flags, and the columns
    # true, false, or empty for an undefined (None) flag.
    seen = set()
    games = [make() for make in PINNED_GAMES.values()] + list(every_ordinal_type(2, 2))
    for g in games:
        report = build_report(g)
        values = [
            (rec.nash, rec.hofstadter, rec.individually_rational, rec.rationalizable)
            for rec in report.flags
        ]
        marks = ["".join(c for c, flag in zip("NHIM", v) if flag is True) for v in values]
        columns = [[{True: "true", False: "false", None: ""}[flag] for flag in v] for v in values]
        assert _table_marks(render_report(report, "text"), g.n_players) == marks
        rows = render_report(report, "csv").splitlines()[1:]
        assert [row.split(",")[-4:] for row in rows] == columns
        seen.update(values)
    # A Nash or Hofstadter profile is individually rational and
    # rationalizable, which leaves 12 possible records; these games reach
    # 11 of them, asymmetric ones (hofstadter None) among them.
    assert len(seen) == 11
    assert any(hofstadter is None for _, hofstadter, _, _ in seen)


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
    ("sym3-k25", "text", "cc09fe8b3b5fb5ed6b1db6facfa4b77e27535ac91ad523b67f24fa6d5239c8fc"),
    ("sym3-k25", "csv", "959995918fcb6219f830aa25c78da60518153113416ce7c0795faacc9f9078d1"),
    ("sym3-k25", "json", "53a07a6554c46d50290bcabad5cc5a8271ab53d1dd853a6d7cc7b87918c63411"),
    ("asym4-3-4-2-3", "text", "95085ce3b2bcf2b667db58a1c8b3c65e4f24dc3320c48281d17c738fd4df96f2"),
    ("asym4-3-4-2-3", "csv", "63214383f690e6e75540b07059c711641ed5cda5c70b3714e729a551a518f9fb"),
    ("asym4-3-4-2-3", "json", "d551579f0cb8aa8734131d587570bded3c141f8f6e622167c9a24e45845cf3ff"),
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


def _count_conversions(monkeypatch) -> tuple[list, list]:
    """Record every token game_io converts: each int() call's arguments, and
    for each block json.loads reads, its tokens as one-argument tuples.
    Returns (conversions, blocks read)."""
    calls, blocks = [], []

    def counting_int(*args):
        calls.append(args)
        return int(*args)

    def counting_block_ints(block):
        blocks.append(block)
        calls.extend((token,) for token in block.split())
        return block_ints(block)

    block_ints = nonnash.game_io._block_ints
    monkeypatch.setattr(nonnash.game_io, "int", counting_int, raising=False)
    monkeypatch.setattr(nonnash.game_io, "_block_ints", counting_block_ints)
    return calls, blocks


def test_long_header_reaches_the_size_guard_in_linear_time():
    # 60,000 strategies lines: numbering each header line from the start of
    # the text, rather than only the line an error names, takes about 30 s
    lines = [f"strategies {i} a b" for i in range(60_000)]
    text = "\n".join(["gnf 1", "players 60000", *lines, "payoffs", "end", ""])
    start = time.perf_counter()
    with pytest.raises(SizeGuardExceeded):
        parse_game(text)
    assert time.perf_counter() - start < 3


def test_size_guard_before_any_cell_token_is_converted(monkeypatch):
    calls, _ = _count_conversions(monkeypatch)
    cells = "0 0 1 1\n" * 5000
    with pytest.raises(DuplicateCell):
        parse_game(_edit(("0 0 1 1\n", cells)))
    assert len(calls) > 4 * 5000  # every cell token is converted
    calls.clear()
    with pytest.raises(SizeGuardExceeded) as exc:
        parse_game(_edit(*_WIDE, ("0 0 1 1\n", cells)))
    assert str(exc.value) == _SIZE_GUARD
    assert calls == [("2",)]  # only the player count, read by parse_int


class TestLargeDocument:
    """A canonical 3-player, 25-strategy document (15,625 cells, spanning
    many blocks) is read in blocks; lines that are not canonical are read
    alone, and either route gives what ``new_game`` gives, the same game or
    the same error."""

    HEAD = 6  # gnf, players, three strategies lines, payoffs

    @pytest.fixture(scope="class")
    def big(self):
        g = gen_random_game(3, 25, 0, 99, seed=11)
        return g, serialize_game(GameDocument(game=g)).split("\n")

    @staticmethod
    def parse(lines):
        """parse_game's outcome on `lines`, after checking that it equals
        the plain referee's."""
        text = "\n".join(lines)
        parsed = outcome(lambda: parse_game(text).game)
        assert parsed == document_referee(text)
        return parsed

    def edit(self, lines, j, col, token):
        """`lines` with token `col` of cell `j` replaced by `token`."""
        lines = list(lines)
        tokens = lines[self.HEAD + j].split(" ")
        tokens[col] = token
        lines[self.HEAD + j] = " ".join(tokens)
        return lines

    def test_canonical_document(self, big):
        g, lines = big
        assert len(lines) - self.HEAD - 2 == 15_625 > 4 * _CELL_SLICE
        assert self.parse(lines) == g

    def test_columns_on_every_route(self, big):
        """_build_flat_game's bulk route slices the columns of a table in
        order, whether parse_game read it in blocks or, tabbed, line by
        line; a shuffled table and new_game's cells go through _place_cells.
        Every route gives the generated game's columns, and a game equal to
        it, hash included."""
        g, lines = big
        assert len(g.columns) == 3 and all(len(column) == 15_625 for column in g.columns)
        table = lines[self.HEAD : -2]
        shuffled = lines[: self.HEAD] + random.Random(5).sample(table, len(table)) + lines[-2:]
        tabbed = [line.replace(" ", "\t") for line in lines]
        built = [parse_game("\n".join(copy)).game for copy in (lines, tabbed, shuffled)]
        built.append(new_game(g.strategy_labels, zip(profiles(g), g.payoffs)))
        for route in built:
            assert route.columns == g.columns
            assert route == g and hash(route) == hash(g)

    def test_payoff_out_of_range(self, big):
        g, lines = big
        lines = self.edit(lines, 10_000, 4, str(2**62 + 1))
        assert self.parse(lines) == (
            PayoffOutOfRange,
            "cell (16, 0, 0): payoff 4611686018427387905 outside [-2**62, 2**62]",
        )

    def test_extra_cell_after_a_complete_table(self, big):
        g, lines = big
        lines = lines[:-2] + ["3 1 4 1 5 9"] + lines[-2:]
        assert self.parse(lines) == (DuplicateCell, "profile (3, 1, 4) listed more than once")

    def test_missing_last_cell(self, big):
        g, lines = big
        assert self.parse(lines[:-3] + lines[-2:]) == (
            MissingCell, "no payoffs for profile (24, 24, 24)"
        )

    def test_non_canonical_zeros(self, big):
        g, lines = big
        lines = self.edit(lines, 0, 0, "00")
        lines = self.edit(lines, 0, 1, "-0")
        lines = self.edit(lines, 1, 3, "-0")
        lines = self.edit(lines, 1, 4, "00")
        parsed = self.parse(lines)
        assert parsed.payoffs[0] == g.payoffs[0]
        assert parsed.payoffs[1] == (0, 0, g.payoffs[1][2])
        assert parsed.payoffs[2:] == g.payoffs[2:]

    def test_payoffs_at_the_bounds(self, big):
        g, lines = big
        lines = self.edit(lines, 0, 3, str(PAYOFF_MIN))
        lines = self.edit(lines, 15_624, 5, str(PAYOFF_MAX))
        parsed = self.parse(lines)
        assert parsed.payoffs[0][0] == PAYOFF_MIN
        assert parsed.payoffs[-1][2] == PAYOFF_MAX

    @pytest.mark.parametrize(
        "j", [_CELL_SLICE - 1, _CELL_SLICE, 2 * _CELL_SLICE - 1, 2 * _CELL_SLICE]
    )
    def test_bad_cell_on_a_slice_boundary(self, big, j):
        g, lines = big
        profile = (j // 625, j // 25 % 25, 25)
        assert self.parse(self.edit(lines, j, 2, "25")) == (
            IndexOutOfRange, f"profile {profile}: strategy 25 out of range for player 2"
        )

    # Table lines around block boundaries, and two lines in a row.
    BOUNDARIES = (0, _BLOCK - 1, _BLOCK, _BLOCK + 1, 2 * _BLOCK - 1, 2 * _BLOCK, 15_624)

    # Ways to write a cell line that a block does not match: each gives
    # the same cell, and "comment line" puts a line of its own before it.
    NOT_CANONICAL = {
        "comment line": lambda line: "# note\n" + line,
        "trailing comment": lambda line: line + " # note",
        "crlf": lambda line: line + "\r",
        "tabs": lambda line: line.replace(" ", "\t"),
        # the last payoff, which is not negative, with a leading zero
        "leading zero": lambda line: " 0".join(line.rsplit(" ", 1)),
    }

    @pytest.mark.parametrize("kind", sorted(NOT_CANONICAL))
    def test_lines_read_alone_around_block_boundaries(self, big, kind):
        g, lines = big
        lines = list(lines)
        for j in self.BOUNDARIES:
            lines[self.HEAD + j] = self.NOT_CANONICAL[kind](lines[self.HEAD + j])
        assert self.parse(lines) == g

    def test_every_kind_in_a_row_across_a_boundary(self, big):
        g, lines = big
        lines = list(lines)
        for j, rewrite in enumerate(self.NOT_CANONICAL.values(), start=_BLOCK - 2):
            lines[self.HEAD + j] = rewrite(lines[self.HEAD + j])
        assert self.parse(lines) == g

    def test_line_numbers_after_blocks_and_lines_read_alone(self, big):
        g, lines = big
        lines = list(lines)
        lines[self.HEAD + _BLOCK] = "# note\n" + lines[self.HEAD + _BLOCK]
        lines[self.HEAD + 2 * _BLOCK] += "\r"
        j = 3 * _BLOCK + 5
        lines[self.HEAD + j] = lines[self.HEAD + j].replace(" ", " x ", 1)
        text = "\n".join(lines)
        # line HEAD + j + 1, moved down by the comment line
        expected = (GnfSyntaxError, f"line {self.HEAD + j + 2}: expected "
                    "3 strategy indices and 3 integer payoffs, or 'end'")
        assert outcome(lambda: parse_game(text)) == syntax_referee(text) == expected

    @pytest.mark.parametrize("final_lf", ["", "\n"], ids=["no final LF", "final LF"])
    @pytest.mark.parametrize("cut", [_BLOCK, _BLOCK + 1, 2 * _BLOCK])
    def test_end_of_file_after_blocks(self, big, cut, final_lf):
        # the text ends after `cut` table lines, in a block or right after
        # one, and has no 'end': the error names its last line
        g, lines = big
        text = "\n".join(lines[: self.HEAD + cut]) + final_lf
        last = text.count("\n") + 1
        expected = (GnfSyntaxError, f"line {last}: expected a payoff cell or 'end'")
        assert outcome(lambda: parse_game(text)) == syntax_referee(text) == expected

    def test_end_as_the_last_line_without_a_line_feed(self, big):
        g, lines = big
        assert lines[-2:] == ["end", ""]
        assert self.parse(lines[:-1]) == g

    def test_minus_zero_in_a_block(self, big, monkeypatch):
        g, lines = big
        j = _BLOCK + 3
        _, blocks = _count_conversions(monkeypatch)
        parsed = self.parse(self.edit(lines, j, 4, "-0"))
        assert parsed.payoffs[j] == (g.payoffs[j][0], 0, g.payoffs[j][2])
        assert any(" -0 " in block for block in blocks)

    def test_payoff_of_640_digits(self, big):
        g, lines = big
        token = "9" * 640
        assert self.parse(self.edit(lines, 700, 3, token)) == (
            PayoffOutOfRange, f"cell (1, 3, 0): payoff {token} outside [-2**62, 2**62]"
        )

    def test_token_of_641_digits(self, big):
        g, lines = big
        text = "\n".join(self.edit(lines, 700, 3, "9" * 641))
        expected = (GnfSyntaxError, f"line {self.HEAD + 701}: expected "
                    "3 strategy indices and 3 integer payoffs, or 'end'")
        assert outcome(lambda: parse_game(text)) == syntax_referee(text) == expected

    def test_canonical_tables_are_read_in_blocks(self, big, monkeypatch):
        g, lines = big
        calls, blocks = _count_conversions(monkeypatch)
        # A CRLF table reads as a canonical one; a table of tabs is read
        # line by line.
        full = math.ceil(15_625 / _BLOCK)
        for newline, space, n_blocks in (("\n", " ", full), ("\r\n", " ", full), ("\n", "\t", 0)):
            calls.clear()
            blocks.clear()
            text = newline.join(lines).replace(" ", space)
            assert self.parse(text.split("\n")) == g
            assert len(blocks) == n_blocks
            # the player count, then each cell token once: all in blocks,
            # or else all by int()
            assert calls[0] == ("3",) and len(calls) == 1 + 6 * 15_625
            in_blocks = sum(len(block.split()) for block in blocks)
            assert in_blocks == (6 * 15_625 if n_blocks else 0)
