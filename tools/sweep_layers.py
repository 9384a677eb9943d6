"""Time each step a sweep game takes, on the sweep's own path.

Usage: python3 tools/sweep_layers.py [--reps 10] [--games 300] [--pool 16]

Takes its configs from the benchmark's ``sweep-2p`` workload in
``bench/workloads.py`` at the benchmark's default seed, 1: ``--pool``
configs of ``--games`` 2-player games each.  For every config it times,
as the minimum over ``--reps`` runs, in microseconds per game:

* ``generation``: ``verify._sweep_games``, the sweep's drawing and placing;
* ``build_report``, and beneath it the parts it runs once per game:
  ``is_symmetric``, ``_best_diagonal``, ``_rational_mask`` (the IR mask,
  against the report's maximin) and ``_iterate`` (elimination, whose
  round 1 gives maximin);
* each ``verify.CHECKERS`` entry of the config, on the built reports;
* ``_check_game``: what a sweep does with each game it draws (its report,
  the config's checkers and its witness counts), on fresh games with the
  sweep's order seeds;
* ``sweep()``: the whole call, at one worker.

Prints one line per step: the least, median and greatest of the configs'
figures, and the median's share of the median ``sweep()``.  Uses the
standard library, ``bench/workloads.py`` and the ``nonnash`` package under
``src`` only.
"""

import argparse
import importlib.util
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import nonnash  # noqa: E402
from nonnash import solvers, verify  # noqa: E402


def configs(pool: int, games: int) -> list[verify.SweepConfig]:
    """The ``sweep-2p`` workload's first `pool` configs at seed 1, of
    `games` games each."""
    spec = importlib.util.spec_from_file_location("workloads", ROOT / "bench" / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    items = workloads.Sweep2p(games, pool).inputs(nonnash, 1, None, range(pool))
    return [item.payload for item in items]


def best_of(reps: int, step, given) -> float:
    """The least wall time of `reps` calls of `step`, in seconds, each on a
    fresh ``given()`` made outside the timing."""
    times = []
    for _ in range(reps):
        inputs = given()
        started = time.perf_counter()
        step(inputs)
        times.append(time.perf_counter() - started)
    return min(times)


def layer_times(config: verify.SweepConfig, reps: int) -> dict[str, float]:
    """Step name -> least seconds per game over `reps` runs, for one config.
    Steps that take games get fresh ones each run, with no fact a solver
    caches; the checkers read one set of built reports."""

    def games():
        return [g for g, _ in verify._sweep_games(config, 0, config.games)]

    seeds = [seed for _, seed in verify._sweep_games(config, 0, config.games)]
    reports = [solvers.build_report(g) for g in games()]
    steps = {
        "generation": (lambda _: list(verify._sweep_games(config, 0, config.games)), list),
        "build_report": (lambda gs: list(map(solvers.build_report, gs)), games),
        "  is_symmetric": (lambda gs: list(map(solvers.is_symmetric, gs)), games),
        "  _best_diagonal": (lambda gs: list(map(solvers._best_diagonal, gs)), games),
        "  _rational_mask": (
            lambda rs: [solvers._rational_mask(r.game, r.maximin) for r in rs],
            lambda: reports,
        ),
        "  _iterate": (lambda gs: list(map(solvers._iterate, gs)), games),
    }
    for prop in config.properties:
        check = verify.CHECKERS[prop]
        steps[prop] = (
            lambda rs, check=check: [
                check(r, config.orders_per_game, seed) for r, seed in zip(rs, seeds)
            ],
            lambda: reports,
        )
    steps["_check_game"] = (
        lambda gs: [verify._check_game(config, g, seed) for g, seed in zip(gs, seeds)],
        games,
    )
    steps["sweep()"] = (lambda _: verify.sweep(config), list)
    return {name: best_of(reps, *step) / len(reports) for name, step in steps.items()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--reps", type=int, default=10)
    parser.add_argument("--games", type=int, default=300)
    parser.add_argument("--pool", type=int, default=16)
    args = parser.parse_args(argv)
    runs = [layer_times(c, args.reps) for c in configs(args.pool, args.games)]
    print(
        f"sweep-2p-shaped games: {args.pool} seeds x {args.games} games, "
        f"min of {args.reps} reps, us/game (least, median and greatest over the seeds)"
    )
    whole = statistics.median(run["sweep()"] for run in runs)
    for name in runs[0]:
        figures = sorted(run[name] * 1e6 for run in runs)
        median = statistics.median(figures)
        print(
            f"{name:34s} {figures[0]:9.2f} {median:9.2f} {figures[-1]:9.2f}"
            f" {median / (whole * 1e6):7.1%}"
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())
