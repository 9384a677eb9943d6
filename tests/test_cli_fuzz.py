"""Fuzz the command line: no file and no flag list ends in a traceback.

Each example runs one subcommand through :func:`nonnash.cli.main` with a
drawn flag list and, for the commands that read a file, a mutated game
document (or a missing path, or a directory).  `main` must come back
with 0 (pass), 1 (violation) or 2 (usage, parse or I/O error), and an
exit 2 must leave stdout empty.  argparse reports a usage error by
raising SystemExit(2), which counts as returning 2; no other exception
may escape.  `search` runs its chunks in-process through the stand-in
pool, and every value keeps games tiny, so an example takes milliseconds.
"""

import contextlib
import io

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from nonnash import GameDocument, gen_random_game, gen_random_symmetric_game, serialize_game
from nonnash.cli import main

from test_parse_fuzz import mutated_documents

COUNTS = (("1", "2", "3"), ("0", "-1", "x", "1.5", "1_0", "٣"))
SEEDS = (("0", "-1", "7", "99999999999999999999"), ("x", "1.5"))
ORDERS = (("1", "3"), ("0", "-1", "x"))
# A value that starts with "=" is glued to its flag, the only way argparse
# takes a negative range.
PAYOFF_RANGES = (
    ("0..9", "5", "=-5..5"),
    ("3..2", "x", "..", "0..99999999999999999999", "٠..٩", "1_0"),
)

# Flag -> (valid values, invalid values); None marks a flag without a value.
FLAGS = {
    "analyze": {"--format": (("text", "csv", "json"), ("yaml",))},
    "eliminate": {"--trace": None},
    "check": {"--orders": ORDERS, "--seed": SEEDS},
    "search": {
        "--players": COUNTS,
        "--strategies": (COUNTS[0] + ("2..3", "1..3"), COUNTS[1] + ("3..2",)),
        "--games": COUNTS,
        "--seed": SEEDS,
        "--payoff-range": PAYOFF_RANGES,
        "--properties": (
            (
                "hofstadter-rationalizable",
                "order-independence",
                "ir-survives-round-1,hofstadter-individually-rational,order-independence",
            ),
            ("", ",", "bogus", "hofstadter-rationalizable,hofstadter-rationalizable"),
        ),
        "--orders": ORDERS,
        "--workers": (("-3", "0", "1", "2", "4"), ("x",)),
        "--format": (("text", "json"), ("csv",)),
    },
    "gen": {
        "--players": COUNTS,
        "--strategies": COUNTS,
        "--seed": SEEDS,
        "--symmetric": None,
        "--payoff-range": PAYOFF_RANGES,
    },
}


@st.composite
def flag_lists(draw, command: str) -> list[str]:
    """Flags of `command` in any order, mostly with valid values; an
    invalid value, a missing value or an unknown flag now and then."""
    flags = FLAGS[command]
    argv = []
    for flag in draw(st.lists(st.sampled_from(sorted(flags) + ["--bogus"]), max_size=5)):
        argv.append(flag)
        values = flags.get(flag)
        if values is None or draw(st.integers(0, 9)) == 0:
            continue
        valid, invalid = values
        value = draw(st.sampled_from(valid if draw(st.integers(0, 3)) else invalid))
        if value.startswith("="):
            argv[-1] += value
        else:
            argv.append(value)
    return argv


@st.composite
def game_documents(draw) -> str:
    """A small canonical game, symmetric half the time, or a mutated one."""
    if draw(st.booleans()):
        return draw(mutated_documents())
    generate = draw(st.sampled_from((gen_random_game, gen_random_symmetric_game)))
    n, k = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    g = generate(n, k, 0, 9, draw(st.integers(0, 2**32)))
    return serialize_game(GameDocument(game=g))


def _run(argv: list[str]) -> None:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    assert code in (0, 1, 2), (argv, code)
    if code == 2:
        assert out.getvalue() == "", argv


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("cli_fuzz")


@given(
    command=st.sampled_from(("analyze", "eliminate", "check")),
    data=st.data(),
    text=game_documents(),
    path=st.sampled_from(("file", "file", "file", "missing", "directory")),
)
@settings(max_examples=150, deadline=None)
def test_file_commands_exit_0_1_or_2(workdir, command, data, text, path):
    game_file = workdir / "game.gnf"
    game_file.write_text(text, encoding="utf-8")
    target = {"file": game_file, "missing": workdir / "missing.gnf", "directory": workdir}
    _run([command, str(target[path])] + data.draw(flag_lists(command)))


@given(command=st.sampled_from(("search", "gen")), data=st.data())
@settings(
    max_examples=150,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
def test_generating_commands_exit_0_1_or_2(inline_pool, command, data):
    # the default of 1000 games would take most of a second; a drawn
    # --games comes later and overrides this one
    base = ["--games", "2"] if command == "search" else []
    _run([command] + base + data.draw(flag_lists(command)))
