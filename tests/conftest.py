import dataclasses
import sys
from concurrent.futures import Future
from pathlib import Path

import pytest

import nonnash.verify
from nonnash import (
    SweepConfig,
    chicken,
    coordination,
    elimination_ladder,
    prisoners_dilemma,
)
from nonnash.verify import (
    CHECKERS,
    HOFSTADTER_INDIVIDUALLY_RATIONAL,
    HOFSTADTER_RATIONALIZABLE,
    IR_SURVIVES_ROUND_1,
    Verdict,
)

sys.path.insert(0, str(Path(__file__).parent))

from oracles import sweep_game  # found through the path above

REPO_ROOT = Path(__file__).resolve().parent.parent
GAMES_DIR = REPO_ROOT / "games"


@pytest.fixture
def pd():
    return prisoners_dilemma()


@pytest.fixture
def chicken_game():
    return chicken()


@pytest.fixture
def coordination_game():
    return coordination()


@pytest.fixture
def g3x3():
    return elimination_ladder()


@pytest.fixture
def games_dir():
    return GAMES_DIR


@pytest.fixture
def inline_pool(monkeypatch):
    """Run sweep chunks in-process instead of in worker processes; returns
    the list of pool sizes requested."""
    pool_sizes = []

    class InlinePool:
        """Stands in for ProcessPoolExecutor; runs chunks in-process."""

        def __init__(self, max_workers):
            pool_sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def submit(self, fn, *args):
            future = Future()
            future.set_result(fn(*args))
            return future

    monkeypatch.setattr(nonnash.verify, "ProcessPoolExecutor", InlinePool)
    return pool_sizes


# Games of INJECTED_SWEEP that the injected_violations fixture makes fail,
# by property; game 7 fails two properties.
INJECTED_SWEEP = SweepConfig(games=10, seed=11)
INJECTED_FAILURES = {
    HOFSTADTER_RATIONALIZABLE: (3, 7),
    HOFSTADTER_INDIVIDUALLY_RATIONAL: (1, 7),
}
# The property orders the injected sweep runs in: the default one, and one
# that lists the failing properties the other way round.
INJECTED_ORDERS = {
    "default-order": INJECTED_SWEEP.properties,
    "swapped-order": (
        HOFSTADTER_INDIVIDUALLY_RATIONAL, HOFSTADTER_RATIONALIZABLE, IR_SURVIVES_ROUND_1,
    ),
}


@pytest.fixture(params=INJECTED_ORDERS.values(), ids=INJECTED_ORDERS)
def injected_violations(monkeypatch, request):
    """Make two checkers fail on chosen games of INJECTED_SWEEP (a sweep
    game is known to a checker by its deletion-order seed); returns that
    config, with its properties in one of INJECTED_ORDERS, and the
    expected violations as (game index, property) pairs in report order:
    by game, then in the order the config lists its properties."""
    config = dataclasses.replace(INJECTED_SWEEP, properties=request.param)
    for prop, indices in INJECTED_FAILURES.items():
        seeds = {sweep_game(INJECTED_SWEEP, j)[1] for j in indices}

        def checker(r, n_orders, seed, _prop=prop, _seeds=seeds, _real=CHECKERS[prop]):
            if seed in _seeds:
                return Verdict(_prop, False, "injected failure", game=r.game)
            return _real(r, n_orders, seed)

        monkeypatch.setitem(CHECKERS, prop, checker)
    expected = [(j, prop) for prop, indices in INJECTED_FAILURES.items() for j in indices]
    expected.sort(key=lambda item: (item[0], config.properties.index(item[1])))
    return config, expected
