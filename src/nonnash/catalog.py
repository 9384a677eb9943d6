"""Four small symmetric games used throughout the docs, demos and tests.

They cover the interesting contrasts: a unique off-optimum Nash outcome
(prisoner's dilemma), Nash equilibria off the diagonal (chicken), several
diagonal Nash equilibria (coordination), and a game where iterated
minimax-dominance elimination actually bites (the 3x3 ladder).  Each is
given by its class values: ``values[a*k + b]`` is what strategy a earns
against strategy b.
"""

from .game_core import Game, _symmetric_game, _symmetric_layout


def prisoners_dilemma() -> Game:
    """Defect pays off against either opponent move, yet mutual
    cooperation beats mutual defection."""
    return _symmetric_game(_symmetric_layout(2, ("Defect", "Cooperate")), (1, 3, 0, 2))


def chicken() -> Game:
    """Each player prefers to stay straight only if the other swerves; a
    betrayed player prefers not to reciprocate."""
    return _symmetric_game(_symmetric_layout(2, ("Straight", "Swerve")), (0, 3, 1, 2))


def coordination() -> Game:
    """Matching choices pay, mismatches pay nothing, and one of the two
    matches is better for both."""
    return _symmetric_game(_symmetric_layout(2, ("Sushi", "Pizza")), (1, 0, 0, 2))


def elimination_ladder() -> Game:
    """3x3 symmetric game whose strategies fall to minimax dominance in
    two rounds: C first (A and B both guarantee more than C can ever
    get), then B, leaving only (A,A)."""
    return _symmetric_game(_symmetric_layout(2, ("A", "B", "C")), (9, 8, 5, 6, 7, 4, 1, 2, 3))
