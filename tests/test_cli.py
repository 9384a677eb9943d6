import json
import subprocess
import sys
from pathlib import Path

import pytest
from oracles import sweep_game
from pinned_games import PINNED_GAMES, sha256

import nonnash.cli
from nonnash import GameDocument, SweepConfig, Verdict, parse_game, serialize_game
from nonnash import sweep as real_sweep
from nonnash.cli import main
from nonnash.verify import CHECKERS, HOFSTADTER_RATIONALIZABLE
from nonnash.verify import HOFSTADTER_INDIVIDUALLY_RATIONAL, IR_SURVIVES_ROUND_1, ORDER_INDEPENDENCE


REPO_ROOT = Path(__file__).resolve().parent.parent


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestAnalyze:
    def test_pd_text(self, capsys, games_dir):
        code, out, _ = run_cli(capsys, "analyze", str(games_dir / "pd.gnf"))
        assert code == 0
        assert "pure nash: (Defect,Defect)" in out
        assert "hofstadter: (Cooperate,Cooperate)" in out
        assert "individually rational: (Defect,Defect), (Cooperate,Cooperate)" in out

    def test_chicken(self, capsys, games_dir):
        code, out, _ = run_cli(capsys, "analyze", str(games_dir / "chicken.gnf"))
        assert code == 0
        assert "pure nash: (Straight,Swerve), (Swerve,Straight)" in out
        assert "hofstadter: (Swerve,Swerve)" in out

    def test_coordination(self, capsys, games_dir):
        code, out, _ = run_cli(capsys, "analyze", str(games_dir / "coordination.gnf"))
        assert code == 0
        assert "pure nash: (Sushi,Sushi), (Pizza,Pizza)" in out
        assert "hofstadter: (Pizza,Pizza)" in out
        assert "maximin: (0,0)" in out
        assert (
            "individually rational: (Sushi,Sushi), (Sushi,Pizza), "
            "(Pizza,Sushi), (Pizza,Pizza)" in out
        )

    def test_g3x3(self, capsys, games_dir):
        code, out, _ = run_cli(capsys, "analyze", str(games_dir / "g3x3.gnf"))
        assert code == 0
        assert "maximin: (5,5)" in out
        assert "survivors: player 0: {A}; player 1: {A}" in out
        assert "individually rational: (A,A), (A,B), (B,A), (B,B)" in out

    def test_csv_and_json_modes(self, capsys, games_dir):
        code, out, _ = run_cli(
            capsys, "analyze", str(games_dir / "pd.gnf"), "--format", "csv"
        )
        assert code == 0
        assert out.startswith("i0,i1,labels,")
        code, out, _ = run_cli(
            capsys, "analyze", str(games_dir / "pd.gnf"), "--format", "json"
        )
        assert code == 0
        assert '"name": "pd"' in out

    def test_missing_file_exits_2(self, capsys):
        code, _, err = run_cli(capsys, "analyze", "no-such-file.gnf")
        assert code == 2
        assert "error:" in err

    def test_non_utf8_file_exits_2(self, capsys, tmp_path):
        bad = tmp_path / "latin1.gnf"
        bad.write_bytes("gnf 1\n# caf\u00e9\n".encode("latin-1"))
        code, out, err = run_cli(capsys, "analyze", str(bad))
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1

    def test_parse_error_exits_2(self, capsys, tmp_path):
        bad = tmp_path / "bad.gnf"
        bad.write_text("gnf 2\n")
        code, _, err = run_cli(capsys, "analyze", str(bad))
        assert code == 2
        assert "version" in err

    @pytest.mark.parametrize(
        "text",
        [
            "gnf 1\nplayers ²\n",
            "gnf 1\nplayers 1\nstrategies 0 a\npayoffs\n0 ²\nend\n",
            "gnf 1\nplayers 1\nstrategies 0 a\npayoffs\n0 ٠\nend\n",
            # int() refuses strings of more than 4300 digits by default
            "gnf 1\nplayers 1\nstrategies 0 a\npayoffs\n0 " + "7" * 5000 + "\nend\n",
            "gnf 1\nplayers " + "1" * 5000 + "\n",
            "gnf 1\nplayers 1\nstrategies 0 a b\npayoffs\n0 1\n"
            + "0" * 5000 + "1 2\nend\n",
            # str.split() takes these for whitespace; the format does not
            *(
                f"gnf 1\nplayers 1\nstrategies 0 a{space}b\npayoffs\n0 1\n1 2\nend\n"
                for space in ("\u00a0", "\u2003", "\u3000", "\u0085", "\x1f", "\x0b")
            ),
        ],
        ids=[
            "superscript-players",
            "superscript-payoff",
            "arabic-indic-payoff",
            "5000-digit-payoff",
            "5000-digit-players",
            "5000-digit-index",
            "no-break-space-separator",
            "em-space-separator",
            "ideographic-space-separator",
            "next-line-separator",
            "unit-separator-separator",
            "vertical-tab-separator",
        ],
    )
    def test_non_ascii_digits_exit_2(self, capsys, tmp_path, text):
        bad = tmp_path / "digits.gnf"
        bad.write_text(text, encoding="utf-8")
        code, out, err = run_cli(capsys, "analyze", str(bad))
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1


class TestEliminate:
    def test_g3x3_rounds(self, capsys, games_dir):
        code, out, _ = run_cli(capsys, "eliminate", str(games_dir / "g3x3.gnf"))
        assert code == 0
        assert "round 1: player 0: C; player 1: C" in out
        assert "round 2: player 0: B; player 1: B" in out

    def test_pd_nothing(self, capsys, games_dir):
        code, out, _ = run_cli(capsys, "eliminate", str(games_dir / "pd.gnf"))
        assert code == 0
        assert "no strategies eliminated" in out

    def test_single_cell(self, capsys, tmp_path):
        path = tmp_path / "one.gnf"
        path.write_text("gnf 1\nplayers 1\nstrategies 0 only\npayoffs\n0 7\nend\n")
        code, out, _ = run_cli(capsys, "eliminate", str(path))
        assert code == 0
        assert "no strategies eliminated" in out

    def test_trace_prints_matrices(self, capsys, games_dir):
        code, out, _ = run_cli(
            capsys, "eliminate", str(games_dir / "g3x3.gnf"), "--trace"
        )
        assert code == 0
        assert "9,9" in out


# sha256 of the stdout of `eliminate <game> --trace`.
PINNED_ELIMINATE_TRACES = [
    ("pd", "96967d6d18c3589825a868c5573fff2e9a075d43649a8c861213028edfa391f3"),
    ("chicken", "bd0b601c376a97a14ccb5238822b8ec15c5d64b25510898485c566c9f7e624f7"),
    ("coordination", "a2cc02e9ec4c8b39a5f2a7b20c04d40685fb24da4c2d6629aeb2bffa14e9d8c8"),
    ("g3x3", "af8759489a19d4b02fc4dcb43cdbc439e691a0199160f1313c60de4d54d6746a"),
    ("sym3-random", "76259489df09e09b41f6ddb7a1c256cecf279c07fc69e0ecfc42b6bcd029226e"),
    ("sym3-ladder", "9608957e05c87dcecaed2c2053005ca3f1a6bfa1c7f5e2006b64f9df1f334a8e"),
    ("asym-2-3-2", "64d8fc7550a25fe406a2f46cfa9509b4da87d293afb1c585ca315c3c5a60c896"),
    ("asym-5x5", "5080b392e3297f1891617cb1801041e39d2d6326ad2f88eead015aff581ea7c7"),
    ("one-player", "020b620c5e1d865a02de3caf60674a6bd38401e3193137933ad81ec2b0f0d8f5"),
    ("rps", "c4140c8644d525b96dcb2d354c9f857d86768145f401ebc21a30755b0e3c9e26"),
]


@pytest.mark.parametrize(
    "name, digest", PINNED_ELIMINATE_TRACES, ids=[n for n, _ in PINNED_ELIMINATE_TRACES]
)
def test_pinned_eliminate_trace(capsys, tmp_path, name, digest):
    path = tmp_path / f"{name}.gnf"
    path.write_text(serialize_game(GameDocument(game=PINNED_GAMES[name]())))
    code, out, _ = run_cli(capsys, "eliminate", str(path), "--trace")
    assert (code, sha256(out)) == (0, digest)


# sha256 of the stdout of `search --players 3 --strategies 2..4 --games 1000
# --seed 2024` without its elapsed: line; it pins the 3-player sweep path,
# which no README example covers, under either worker count.
SEARCH_3P_SHA256 = "fcfee35672aa7b01255d5c7349480a329969985ddc2cd7f4d3d0fda52f467e05"


@pytest.mark.parametrize("workers", ["1", "2"])
def test_pinned_three_player_search(capsys, workers):
    code, out, err = run_cli(
        capsys, "search", "--players", "3", "--strategies", "2..4", "--games", "1000",
        "--seed", "2024", "--workers", workers,
    )
    timeless = "".join(
        line for line in out.splitlines(keepends=True) if not line.startswith("elapsed:")
    )
    assert (code, err, sha256(timeless)) == (0, "", SEARCH_3P_SHA256)


# sha256 of `search` stdout without its elapsed: line, on four shapes: 2,000
# games of 2 players; 3 players; 60..80 strategies, whose games have 3,600
# to 6,400 class values, so the packed passes span games; and 4 players
# at 1..3 strategies, where 1-strategy games have one row per player.  None
# of the game counts is a multiple of 64, so at 2 workers the second chunk
# starts inside a draw batch.
PINNED_SEARCHES = [
    ("--games 2000 --seed 7",
     "16f5dec7261683587698800a8aaf4e18d2fc26fcf6a630f4f1ad6a261f8cf88b"),
    ("--players 3 --games 300",
     "82fcb328d581808f1a8c896a6e6e96f4b9f11b1cebd50e0c0c1b7fbe918b1a6e"),
    ("--strategies 60..80 --games 12 --seed 4",
     "aa3c8dd00a7701a426c973e7c5bf6d23368c4128640d838c00d8481f264dedba"),
    ("--players 4 --strategies 1..3 --games 200",
     "59d87fcdba29f2f31873f23d90da0f33643e3844321de59a797eb35f1c855a9c"),
]


@pytest.mark.parametrize("args, digest", PINNED_SEARCHES, ids=[a for a, _ in PINNED_SEARCHES])
def test_pinned_search_at_one_and_two_workers(capsys, monkeypatch, inline_pool, args, digest):
    monkeypatch.setattr(nonnash.verify.os, "cpu_count", lambda: 2)
    for workers in ("1", "2"):
        code, out, err = run_cli(capsys, "search", *args.split(), "--workers", workers)
        timeless = "".join(
            line for line in out.splitlines(keepends=True) if not line.startswith("elapsed:")
        )
        assert (code, err, sha256(timeless)) == (0, "", digest), workers
    assert inline_pool == [2]


# sha256 of the stdout of `gen` on large shapes: the symmetric layout and
# the serializer of 15,625, 14,400 and 6,561 cells, payoffs at 19 digits,
# and an asymmetric table.
PINNED_GEN = [
    ("--symmetric --players 3 --strategies 25 --seed 1",
     "fcf938e3be6d8977149d42478c11a8b7e3aa15f23a9222507ae96438af6155ea"),
    ("--symmetric --players 2 --strategies 120 --seed 1",
     "b84ac8e4d055596e59812d3cdb18b998c0b0d42ed92a32575f5c01f84876c143"),
    ("--symmetric --players 4 --strategies 9 --seed 7 "
     "--payoff-range=-4611686018427387904..4611686018427387904",
     "19abc69107e6fbea77ed7b5cc21d7700c48b46860c0f6fea45c80e2fbedf96d7"),
    ("--players 3 --strategies 20 --seed 5 --payoff-range=-50..50",
     "726b46b7ed61774a2626e8ca79bb4bc54321aa88875e2d548f9cd5c6a9c69d33"),
]


@pytest.mark.parametrize("args, digest", PINNED_GEN, ids=[a for a, _ in PINNED_GEN])
def test_pinned_large_gen(capsys, args, digest):
    code, out, err = run_cli(capsys, "gen", *args.split())
    assert (code, err, sha256(out)) == (0, "", digest)


class TestCheck:
    def test_pd_all_pass(self, capsys, games_dir):
        code, out, _ = run_cli(capsys, "check", str(games_dir / "pd.gnf"))
        assert code == 0
        assert out.count(": PASS") == 4

    def test_g3x3_note(self, capsys, games_dir):
        code, out, _ = run_cli(capsys, "check", str(games_dir / "g3x3.gnf"))
        assert code == 0
        assert "note: IR profiles eliminated in round 2: (A,B),(B,A),(B,B)" in out

    def test_asymmetric_skips_hofstadter_checks(self, capsys, tmp_path):
        path = tmp_path / "asym.gnf"
        path.write_text(
            "gnf 1\nplayers 2\nstrategies 0 a b\nstrategies 1 x y z\npayoffs\n"
            "0 0 1 2\n0 1 3 4\n0 2 5 6\n1 0 6 5\n1 1 4 3\n1 2 2 1\nend\n"
        )
        code, out, _ = run_cli(capsys, "check", str(path))
        assert code == 0
        assert out.count("SKIPPED (asymmetric game)") == 2
        assert "order-independence: PASS" in out
        assert "ir-survives-round-1: PASS" in out

    @pytest.mark.parametrize("orders", ["0", "-5"])
    def test_orders_below_one_exits_2(self, capsys, games_dir, orders):
        code, out, err = run_cli(
            capsys, "check", str(games_dir / "g3x3.gnf"), "--orders", orders
        )
        assert code == 2
        assert out == ""
        assert "error:" in err

    def test_seeded_violation_stub_exits_1(self, capsys, games_dir, monkeypatch, pd):
        def fake(r, orders, seed):
            return Verdict(
                HOFSTADTER_RATIONALIZABLE,
                False,
                "injected failure",
                profile=(1, 1),
            )

        monkeypatch.setitem(CHECKERS, HOFSTADTER_RATIONALIZABLE, fake)
        code, out, _ = run_cli(capsys, "check", str(games_dir / "pd.gnf"))
        assert code == 1
        assert "FAIL" in out
        assert "counterexample:" in out
        # the counterexample block must be replayable
        block = out[out.index("gnf 1") :]
        block = block[: block.index("end\n") + len("end\n")]
        assert parse_game(block).game == pd
        assert "offending profile: (Cooperate,Cooperate)" in out

    # One failing stub per property: the printed profile, or None when the
    # stub's verdict names no profile (an order-independence failure never does).
    STUB_PROFILES = {
        HOFSTADTER_RATIONALIZABLE: ((1, 1), "(Cooperate,Cooperate)"),
        HOFSTADTER_INDIVIDUALLY_RATIONAL: ((1, 1), "(Cooperate,Cooperate)"),
        ORDER_INDEPENDENCE: (None, None),
        IR_SURVIVES_ROUND_1: ((0, 1), "(Defect,Cooperate)"),
    }

    @pytest.mark.parametrize("prop", STUB_PROFILES)
    def test_each_failing_property_prints_the_report_game(
        self, capsys, games_dir, monkeypatch, pd, prop
    ):
        profile, shown = self.STUB_PROFILES[prop]
        monkeypatch.setitem(
            CHECKERS, prop, lambda r, orders, seed: Verdict(prop, False, "stub", profile=profile)
        )
        code, out, _ = run_cli(capsys, "check", str(games_dir / "pd.gnf"))
        assert code == 1
        _, _, tail = out.partition(f"{prop}: FAIL (stub)\ncounterexample:\n")
        assert tail, out
        # the counterexample block follows at once and is replayable
        block = tail[: tail.index("end\n") + len("end\n")]
        assert parse_game(block).game == pd
        if shown is None:
            assert "offending profile:" not in out
        else:
            assert tail[len(block) :].startswith(f"offending profile: {shown}\n")
            assert out.count("offending profile:") == 1
        for name in CHECKERS:
            assert (f"{name}: PASS\n" in out) == (name != prop)


class TestSearch:
    def test_zero_games(self, capsys):
        # a sweep that checks no game must not print PASS
        code, out, err = run_cli(capsys, "search", "--games", "0")
        assert code == 2
        assert out == ""
        assert "error:" in err

    def test_defaults_are_sweep_config_defaults(self, capsys, monkeypatch):
        built = []

        def counted_sweep(config, workers):
            built.append((config, workers))
            return real_sweep(config, workers)

        monkeypatch.setattr(nonnash.cli, "sweep", counted_sweep)
        code, _, _ = run_cli(capsys, "search")
        assert code == 0
        assert built == [(SweepConfig(), 1)]

    def test_size_guard_on_every_game_exits_2(self, capsys):
        code, out, err = run_cli(
            capsys, "search", "--players", "3", "--strategies", "200", "--games", "2"
        )
        assert code == 2
        assert out == ""
        assert "payoff entries" in err

    @pytest.mark.parametrize("argv, skipped", [
        ("--players 23 --strategies 1..2 --games 1 --seed 3", 1),
        ("--players 2 --strategies 2..100000 --games 3 --seed 1", 3),
    ])
    def test_every_drawn_game_over_the_guard_exits_2(self, capsys, argv, skipped):
        # the smallest count passes the guard, but no draw takes it: a
        # sweep that checks no game must not print PASS
        code, out, err = run_cli(capsys, "search", *argv.split())
        assert (code, out, err) == (
            2,
            "",
            f"error: no game was checked: {skipped} skipped, each needing more "
            "than 10000000 payoff entries (cells x players)\n",
        )

    @pytest.mark.parametrize("fmt", ["text", "json"])
    def test_violations_exit_1(self, capsys, injected_violations, fmt):
        config, expected = injected_violations
        code, out, _ = run_cli(
            capsys, "search", "--games", str(config.games), "--seed", str(config.seed),
            "--properties", ",".join(config.properties), "--format", fmt,
        )
        assert code == 1
        if fmt == "json":
            obj = json.loads(out)
            assert obj["verdict"] == "FAIL"
            found = [(v["property"], v["game"]) for v in obj["violations"]]
        else:
            head, *blocks = out.split("\nviolation ")
            assert head.splitlines()[4] == f"violations: {len(expected)}"
            assert out.endswith("\nverdict: FAIL\n")
            found = []
            for number, block in enumerate(blocks, start=1):
                title, _, text = block.partition("\n")
                index, prop = title.split(": ")
                assert index == str(number)
                found.append((prop, text.partition("\nend")[0] + "\nend\n"))
        # each printed game replays as the game the sweep drew for its index
        assert [(prop, parse_game(text).game) for prop, text in found] == [
            (prop, sweep_game(config, j)[0]) for j, prop in expected
        ]

    def test_small_sweep(self, capsys):
        code, out, _ = run_cli(
            capsys, "search", "--players", "2", "--strategies", "4",
            "--games", "50", "--seed", "7",
        )
        assert code == 0
        assert "violations: 0" in out
        assert "witnesses:" in out

    def test_zero_strategies_usage_error(self, capsys):
        code, _, err = run_cli(capsys, "search", "--strategies", "0", "--games", "5")
        assert code == 2
        assert "error:" in err

    def test_orders_below_one_exits_2(self, capsys):
        code, out, err = run_cli(
            capsys, "search", "--games", "5", "--properties", "order-independence",
            "--orders", "0",
        )
        assert code == 2
        assert out == ""
        assert "error:" in err

    def test_unknown_property(self, capsys):
        code, _, err = run_cli(capsys, "search", "--properties", "bogus")
        assert code == 2
        assert "unknown property" in err

    @pytest.mark.parametrize("properties", ["", ","])
    def test_no_property_exits_2(self, capsys, properties):
        # a sweep that checks no property must not print PASS
        code, out, err = run_cli(
            capsys, "search", "--games", "3", "--properties", properties
        )
        assert code == 2
        assert out == ""
        assert "error:" in err

    def test_duplicate_property_exits_2(self, capsys):
        code, out, err = run_cli(
            capsys, "search", "--games", "5", "--properties",
            "hofstadter-rationalizable,hofstadter-rationalizable",
        )
        assert code == 2
        assert out == ""
        assert "listed twice" in err

    def test_json_format(self, capsys):
        code, out, _ = run_cli(
            capsys, "search", "--games", "10", "--seed", "3", "--format", "json"
        )
        assert code == 0
        assert '"verdict": "PASS"' in out


class TestGen:
    def test_deterministic_bytes(self, capsys):
        _, first, _ = run_cli(capsys, "gen", "--players", "2", "--strategies", "3",
                              "--seed", "1", "--symmetric")
        _, second, _ = run_cli(capsys, "gen", "--players", "2", "--strategies", "3",
                               "--seed", "1", "--symmetric")
        assert first == second

    def test_symmetric_output(self, capsys):
        from nonnash import is_symmetric

        code, out, _ = run_cli(capsys, "gen", "--players", "2", "--strategies", "3",
                               "--seed", "1", "--symmetric")
        assert code == 0
        assert is_symmetric(parse_game(out).game)

    def test_plain_output_parses(self, capsys):
        code, out, _ = run_cli(capsys, "gen", "--players", "2", "--strategies", "2",
                               "--seed", "5")
        assert code == 0
        parse_game(out)

    def test_bad_range_exits_2(self, capsys):
        code, _, err = run_cli(capsys, "gen", "--payoff-range", "9..1")
        assert code == 2
        assert "error:" in err

    def test_negative_payoff_range(self, capsys):
        # "--payoff-range -5..5" reads -5..5 as an option; the = form works
        code, out, _ = run_cli(capsys, "gen", "--players", "3", "--strategies", "3",
                               "--seed", "4", "--payoff-range=-5..5")
        assert code == 0
        values = [u for column in parse_game(out).game.columns for u in column]
        assert len(values) == 81
        assert all(-5 <= u <= 5 for u in values)
        assert min(values) < 0


class TestSizeGuardOnHugeCounts:
    """2**15000 cells and more: the guard's message must not spell out a
    cell count with more digits than str() allows."""

    @pytest.mark.parametrize("command", ["gen", "search", "analyze"])
    def test_exits_2_with_one_error_line(self, capsys, tmp_path, command):
        if command == "analyze":
            lines = ["gnf 1", "players 15000"]
            lines += [f"strategies {i} a b" for i in range(15000)]
            path = tmp_path / "huge.gnf"
            path.write_text("\n".join(lines + ["payoffs", "end", ""]))
            argv = ["analyze", str(path)]
        else:
            argv = [command, "--players", "20000", "--strategies", "2"]
            if command == "search":
                argv += ["--games", "1"]
        code, out, err = run_cli(capsys, *argv)
        assert code == 2
        assert out == ""
        [line] = err.splitlines()
        assert line.startswith("error:")
        assert "payoff entries" in line


# The integer rules live in game_core; the CLI's error lines must not
# change with where they are written.
INTEGER_INPUT_ERRORS = [
    ("gen --players 0", "need at least one player, got 0"),
    ("gen --symmetric --players 0", "need at least one player, got 0"),
    ("search --players 0", "need at least one player, got 0"),
    ("gen --strategies 0", "every player needs at least one strategy, got 0"),
    ("search --strategies 0", "every player needs at least one strategy, got 0"),
    ("gen --payoff-range=5..4", "empty payoff range 5..4"),
    (
        "gen --payoff-range=0..4611686018427387905",
        "payoff range 0..4611686018427387905 outside [-2**62, 2**62]",
    ),
    ("search --games 0", "need at least one game, got 0"),
    ("search --orders 0", "need at least one deletion order, got 0"),
    ("check {g3x3} --orders 0", "need at least one deletion order, got 0"),
    ("search --strategies 3..2", "bad strategy range 3..2"),
]


@pytest.mark.parametrize(
    "command, message", INTEGER_INPUT_ERRORS, ids=[c for c, _ in INTEGER_INPUT_ERRORS]
)
def test_integer_input_error_lines(capsys, games_dir, command, message):
    argv = command.format(g3x3=games_dir / "g3x3.gnf").split()
    code, out, err = run_cli(capsys, *argv)
    assert (code, out, err) == (2, "", f"error: {message}\n")


# Integer flags and ranges take what a .gnf file takes: an optional minus
# sign and ASCII digits, so no "_" separator, "+" sign, space or other
# script's digits.  argparse reports a bad flag value, main a bad range.
NON_GNF_INTEGERS = [
    ("gen --payoff-range=٠..٩", "error: bad payoff range '٠..٩': expected N or LO..HI"),
    ("gen --payoff-range=1_0..20", "error: bad payoff range '1_0..20': expected N or LO..HI"),
    ("search --strategies ٢..٣", "error: bad strategy count '٢..٣': expected N or LO..HI"),
    ("search --strategies +2", "error: bad strategy count '+2': expected N or LO..HI"),
    ("gen --strategies 1_0", "nonnash gen: error: argument --strategies: invalid int value: '1_0'"),
    ("gen --players ٣", "nonnash gen: error: argument --players: invalid int value: '٣'"),
    ("gen --seed ¹", "nonnash gen: error: argument --seed: invalid int value: '¹'"),
    ("search --games +5", "nonnash search: error: argument --games: invalid int value: '+5'"),
    ("search --workers 2_0", "nonnash search: error: argument --workers: invalid int value: '2_0'"),
    ("check {g3x3} --orders ٥", "nonnash check: error: argument --orders: invalid int value: '٥'"),
]


@pytest.mark.parametrize(
    "command, line", NON_GNF_INTEGERS, ids=[c for c, _ in NON_GNF_INTEGERS]
)
def test_integer_flags_take_gnf_integers_only(capsys, games_dir, command, line):
    argv = command.format(g3x3=games_dir / "g3x3.gnf").split()
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code
    out, err = capsys.readouterr()
    assert (code, out) == (2, "")
    assert [text for text in err.splitlines() if "error:" in text] == [line]


class TestPipeline:
    def test_gen_pipe_analyze(self, tmp_path):
        gen = subprocess.run(
            [sys.executable, "-m", "nonnash", "gen", "--players", "2",
             "--strategies", "3", "--seed", "1", "--symmetric"],
            capture_output=True, text=True,
        )
        assert gen.returncode == 0
        game_file = tmp_path / "generated.gnf"
        game_file.write_text(gen.stdout)
        analyze = subprocess.run(
            [sys.executable, "-m", "nonnash", "analyze", str(game_file)],
            capture_output=True, text=True,
        )
        assert analyze.returncode == 0
        assert "symmetric: yes" in analyze.stdout

    def test_usage_error_exit_code(self):
        proc = subprocess.run(
            [sys.executable, "-m", "nonnash", "no-such-command"],
            capture_output=True, text=True,
        )
        assert proc.returncode == 2


class TestReadmeExamples:
    """The README's CLI examples, read from README.md at test time and run
    from the repository root as written."""

    @staticmethod
    def example(command):
        """The output lines README.md shows after ``$ nonnash <command>``."""
        text = (REPO_ROOT / "README.md").read_text(encoding="utf-8")
        prompt = f"$ nonnash {command}\n"
        assert prompt in text, f"README.md has no example {prompt!r}"
        return text.split(prompt, 1)[1].split("```", 1)[0].splitlines()

    def run(self, capsys, monkeypatch, command):
        monkeypatch.chdir(REPO_ROOT)
        code, out, err = run_cli(capsys, *command.split())
        assert (code, err) == (0, "")
        return out.splitlines()

    def test_analyze_prefix(self, capsys, monkeypatch):
        command = "analyze games/pd.gnf"
        shown = self.example(command)
        assert shown[-1] == "..."
        out = self.run(capsys, monkeypatch, command)
        assert out[: len(shown) - 1] == shown[:-1]

    def test_search(self, capsys, monkeypatch):
        command = "search --players 2 --strategies 2..6 --games 2000 --seed 2024"
        shown = self.example(command)
        out = self.run(capsys, monkeypatch, command)

        def timeless(lines):
            return [line for line in lines if not line.startswith("elapsed:")]

        assert timeless(out) == timeless(shown)
