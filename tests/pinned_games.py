"""Games whose rendered reports and CLI output are pinned by digest.

The set covers every rendering layout: 2-player grids (symmetric and not,
with and without elimination), one line per profile for 3 players (with
and without elimination, symmetric and not, unequal strategy counts), and
a 1-player game.  Two games are larger: the 3-player, 25-strategy game of
``nonnash gen --symmetric --players 3 --strategies 25 --seed 1`` (15,625
profiles, the size the benchmark analyzes), and a 4-player asymmetric game
with unequal strategy counts, 4 pure Nash equilibria and 66 of its 72
profiles individually rational.
"""

import hashlib
from pathlib import Path

from nonnash import (
    gen_random_game,
    gen_random_symmetric_game,
    new_game,
    parse_game,
    profiles,
)

GAMES_DIR = Path(__file__).resolve().parent.parent / "games"
FIXTURES = ("pd", "chicken", "coordination", "g3x3")


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def three_player_ladder():
    """A symmetric 3-player game with 4 strategies on which elimination
    deletes strategy ``z`` of every player in round 1.

    u_i(p) = (4 - max(p)) * 10 + (4 - p_i) plus symmetric noise in 0..2:
    ``z`` pays at most 10 + 1 + 2 = 13 and ``top`` at least 10 + 4 = 14.
    """
    noise = gen_random_symmetric_game(3, 4, 0, 2, seed=5)
    cells = [
        (p, tuple((4 - max(p)) * 10 + (4 - p[i]) + u for i, u in enumerate(vec)))
        for p, vec in zip(profiles(noise), zip(*noise.columns))
    ]
    return new_game([["top", "mid", "low", "z"]] * 3, cells)


def rock_paper_scissors():
    """Symmetric zero-sum game with no pure Nash equilibrium: each strategy
    beats the one before it (Paper beats Rock, Rock beats Scissors); a win
    pays 1, a tie 0 and a loss -1."""
    outcome = (0, 1, -1)  # by (own - other) % 3
    cells = [
        ((a, b), (outcome[(a - b) % 3], outcome[(b - a) % 3]))
        for a in range(3)
        for b in range(3)
    ]
    return new_game([["Rock", "Paper", "Scissors"]] * 2, cells)


def _fixture(name):
    return lambda: parse_game((GAMES_DIR / f"{name}.gnf").read_text()).game


PINNED_GAMES = {
    **{name: _fixture(name) for name in FIXTURES},
    "sym3-random": lambda: gen_random_symmetric_game(3, 4, 0, 9, seed=16),
    "sym3-ladder": three_player_ladder,
    "asym-2-3-2": lambda: gen_random_game(3, (2, 3, 2), -5, 5, seed=0),
    "asym-5x5": lambda: gen_random_game(2, 5, -9, 9, seed=3),
    "one-player": lambda: gen_random_game(1, 4, -9, 9, seed=0),
    "rps": rock_paper_scissors,
    # the payoff range is gen's default, 0..99
    "sym3-k25": lambda: gen_random_symmetric_game(3, 25, 0, 99, seed=1),
    "asym4-3-4-2-3": lambda: gen_random_game(4, (3, 4, 2, 3), -9, 9, seed=2),
}
