"""The paper's claim on every small symmetric game, up to ties.

The solution sets depend only on the weak order of the payoffs (ordinal
invariance), and a symmetric game's payoffs on the classes (own strategy,
multiset of opponent strategies).  So assigning every level in range(L)
to every class covers every ordinal type with at most L distinct payoffs.
Each game is built by the class enumerator in ``oracles``, not by the
library's symmetric generator.
"""

import pytest

from nonnash import build_report, strict_inclusion_witnesses
from nonnash.game_core import full_sets
from nonnash.verify import CHECKERS

from oracles import deleted_sets, elimination_oracle, every_symmetric_game, nash_oracle


# (players, strategies, levels, games, games where elimination deletes
# something, whether the brute-force oracles also run)
SHAPES = [
    (2, 2, 4, 256, 52, True),
    (2, 3, 3, 19_683, 2_004, False),
    (3, 2, 3, 729, 30, True),
    (4, 2, 3, 6_561, 62, False),
]


@pytest.mark.parametrize(
    "n, k, levels, games, bites, oracles",
    SHAPES,
    ids=[f"{n}p-k{k}-L{levels}" for n, k, levels, *_ in SHAPES],
)
def test_every_property_on_every_game(n, k, levels, games, bites, oracles):
    failures = []
    seen = eliminated = rationalizable_witnesses = ir_witnesses = 0
    for g in every_symmetric_game(n, k, levels):
        seen += 1
        report = build_report(g)
        assert report.symmetric
        for name, checker in CHECKERS.items():
            verdict = checker(report, 2, seen)
            if not verdict.passed:
                failures.append((name, verdict.detail, g))
        eliminated += bool(report.trace.rounds)
        for batch in report.trace.rounds:
            assert len(deleted_sets(n, batch)) == 1, (g, batch)
        w_rationalizable, w_ir = strict_inclusion_witnesses(report.regions)
        rationalizable_witnesses += w_rationalizable
        ir_witnesses += w_ir
        if oracles:
            assert list(report.nash) == nash_oracle(g)
            rounds, survivors = elimination_oracle(g, full_sets(g))
            assert report.trace.rounds == rounds
            assert report.trace.final_survivors == survivors
    assert failures == []
    assert seen == games
    assert eliminated == bites
    assert rationalizable_witnesses > 0
    assert ir_witnesses > 0
