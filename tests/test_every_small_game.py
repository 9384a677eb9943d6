"""The paper's claim on every small symmetric game, up to ties.

The solution sets depend only on the weak order of the payoffs (ordinal
invariance), and a symmetric game's payoffs on the classes (own strategy,
multiset of opponent strategies).  So assigning every level in range(L)
to every class covers every ordinal type with at most L distinct payoffs.
Each game is built by the class enumerator in ``oracles``, not by the
library's symmetric generator.  The L-level shapes miss the types with more
than L distinct payoffs, so the smallest shapes are also run once per weak
order of their classes, which covers every ordinal type exactly once.
"""

import itertools

import pytest

from nonnash import build_report, payoff, strict_inclusion_witnesses
from nonnash.game_core import full_sets
from nonnash.verify import CHECKERS

from oracles import (
    deleted_sets,
    elimination_oracle,
    every_ordinal_type,
    every_symmetric_game,
    flags_oracle,
    maximin_oracle,
    nash_oracle,
    proof_referee,
)


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
        assert proof_referee(report) is None, g
        assert report.flags == flags_oracle(report), g
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


# (players, strategies, weak orders of the classes, games where elimination
# deletes something)
ORDINAL_TYPES = [(2, 2, 75, 18), (3, 2, 4_683, 338)]


@pytest.mark.parametrize(
    "n, k, games, bites", ORDINAL_TYPES, ids=[f"{n}p-k{k}" for n, k, *_ in ORDINAL_TYPES]
)
def test_every_ordinal_type(n, k, games, bites):
    failures = []
    seen = eliminated = 0
    for g in every_ordinal_type(n, k):
        seen += 1
        report = build_report(g)
        assert proof_referee(report) is None, g
        assert report.flags == flags_oracle(report), g
        for name, checker in CHECKERS.items():
            verdict = checker(report, 2, seen)
            if not verdict.passed:
                failures.append((name, verdict.detail, g))
        eliminated += bool(report.trace.rounds)
        for batch in report.trace.rounds:
            assert len(deleted_sets(n, batch)) == 1, (g, batch)
        # every per-profile flag against the oracles
        nash = set(nash_oracle(g))
        floors = maximin_oracle(g)
        _, survivors = elimination_oracle(g, full_sets(g))
        diagonal = [payoff(g, (a,) * n, 0) for a in range(k)]
        expected = [
            (
                p in nash,
                len(set(p)) == 1 and diagonal[p[0]] == max(diagonal),
                all(payoff(g, p, i) >= floors[i] for i in range(n)),
                all(v in alive for v, alive in zip(p, survivors)),
            )
            for p in itertools.product(range(k), repeat=n)
        ]
        assert list(report.flags) == expected, g
    assert failures == []
    assert seen == games
    assert eliminated == bites
