import subprocess
import sys

import pytest

from nonnash import Verdict, parse_game
from nonnash.cli import main
from nonnash.verify import CHECKERS, HOFSTADTER_RATIONALIZABLE


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
                game=r.game,
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


class TestSearch:
    def test_zero_games(self, capsys):
        code, out, _ = run_cli(capsys, "search", "--games", "0")
        assert code == 0
        assert "checked: 0" in out
        assert "verdict: PASS" in out

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
