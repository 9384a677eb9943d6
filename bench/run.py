"""Benchmark of the nonnash library, driven from outside through its
public functions.

Usage, from the root of a checkout::

    python3 bench/run.py --workload sweep-2p --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --write-golden

One run imports the library from ``src/`` and sets up ``SETUP_REPS``
times.  A set-up imports the library afresh, generates and writes the
inputs, and runs one warm-up op that is checked against the pinned golden
of the default seed.  Then a closed loop of one client runs for
``--seconds``: the next op starts when the previous one has finished and
its output has been checked.  ``--trace 0`` reports the end-to-end
metrics.  ``--trace 1`` spends half the time untraced and half traced,
and reports the per-layer metrics.  The last line of standard output is
one JSON object.  The lines before it give every metric with its unit,
``failed_frac``, the raw wall times and the run's provenance.  The exit
code is 0 when every output check passed, 1 when one failed and 2 when
the library or the goldens cannot be loaded.  README.md in this directory
describes the metrics.
"""

import argparse
import importlib
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
from collections import defaultdict
from pathlib import Path

from tracing import Tracer
from workloads import NO_SPAN, REPLAY_LAYERS, WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
GOLDEN_PATH = Path(__file__).resolve().parent / "golden.json"
DEFAULT_SEED = 1
SETUP_REPS = 3
TAIL_BEYOND = 10

# On a shared machine the speed of the CPU swings by tens of percent over
# seconds to minutes as other tenants come and go, and the swings show in
# CPU time as much as in wall time.  So every timed section is bracketed by
# a fixed pure-Python reference loop, and its time is reported in
# reference seconds: wall seconds * REFERENCE_S / (mean of the two loop
# times), i.e. wall time on a machine where the loop takes REFERENCE_S.
# The loop is the benchmark's own code, so a change to the library moves
# only the section's time.  REFERENCE_S is the loop's usual time on a
# shared 2-core Xeon VM with Python 3.11.
REFERENCE_S = 0.0025
REFERENCE_REPS = 3

END_TO_END = {
    "setup_s": "s",
    "games_per_s": "1/s",
    "latency_p50_s": "s",
    "latency_tail_s": "s",
    "peak_rss_mb": "MB",
}

PER_LAYER = {
    "verify.gen_random_symmetric_game.s": "s",
    "verify.check_hofstadter_rationalizable.s": "s",
    "verify.check_hofstadter_individually_rational.s": "s",
    "verify.check_ir_survives_round1.s": "s",
    "verify.classify_regions.s": "s",
    "verify.strict_inclusion_witnesses.s": "s",
    "verify.sweep.self_s": "s",
    "game_io.parse_game.s": "s",
    "game_io.build_report.s": "s",
    "game_io.render_report.s": "s",
    "game_io.serialize_game.s": "s",
    "game_core.new_game.s": "s",
    "game_core.is_symmetric.s": "s",
    "solvers.pure_nash.s": "s",
    "solvers.maximin_values.s": "s",
    "solvers.individually_rational_profiles.s": "s",
    "solvers.hofstadter_equilibria.s": "s",
    "solvers.iterate_elimination.s": "s",
    "game_core.cells": "count",
    "solvers.elim_rounds": "count",
    "game_io.bytes": "bytes",
    "solvers.elim_bite_frac": "ratio",
    "trace.overhead_frac": "ratio",
}

COUNTS = ("game_core.cells", "solvers.elim_rounds", "game_io.bytes")


class SetupError(Exception):
    """The library or the pinned goldens cannot be loaded."""


def reference_seconds() -> float:
    """Fastest of REFERENCE_REPS runs of a fixed loop over tuples, dicts
    and lists, the kinds of work the library does."""
    best = float("inf")
    for _ in range(REFERENCE_REPS):
        started = time.perf_counter()
        table = {}
        for a in range(60):
            for b in range(60):
                table[a, b] = (a * 31 + b * 17) % 97
        spread = 0
        for a in range(60):
            row = [table[a, b] for b in range(60)]
            spread += max(row) - min(row)
        spread += sum(v > 50 for v in table.values()) + len(sorted(table.values()))
        best = min(best, time.perf_counter() - started)
    return best


def timed(fn):
    """Run `fn`; return its result, its wall seconds, and the factor that
    turns them into reference seconds."""
    before = reference_seconds()
    started = time.perf_counter()
    result = fn()
    wall = time.perf_counter() - started
    after = reference_seconds()
    return result, wall, 2 * REFERENCE_S / (before + after)


def remove_workdir(workdir: Path) -> None:
    """Delete a run's inputs, and their parent once no other run uses it."""
    shutil.rmtree(workdir, ignore_errors=True)
    try:
        workdir.parent.rmdir()
    except OSError:
        pass


def import_library(root: Path):
    """Import ``nonnash`` afresh from ``root/src`` and nowhere else."""
    package = root / "src" / "nonnash"
    if not (package / "__init__.py").is_file():
        raise SetupError(f"no library sources at {package}")
    for name in [m for m in sys.modules if m == "nonnash" or m.startswith("nonnash.")]:
        del sys.modules[name]
    if str(root / "src") not in sys.path:
        sys.path.insert(0, str(root / "src"))
    nn = importlib.import_module("nonnash")
    if Path(nn.__file__).resolve().parent != package.resolve():
        raise SetupError(f"imported nonnash from {nn.__file__}, not {package}")
    return nn


def load_goldens(path: Path = GOLDEN_PATH) -> dict:
    with open(path, encoding="utf-8") as handle:
        return json.load(handle)


def attach_goldens(workload, items, seed: int, goldens: dict) -> None:
    """Give each default-seed item its pinned digest.  Goldens pinned for
    other sizes or another seed are an error, not a skipped check."""
    pinned = goldens["workloads"].get(workload.name)
    if goldens["seed"] != DEFAULT_SEED or not pinned or pinned["params"] != workload.params:
        raise SetupError(
            f"no goldens for {workload.name} with {workload.params} at seed {DEFAULT_SEED}"
        )
    if seed == DEFAULT_SEED:
        for item in items:
            item.golden = pinned["entries"][item.index]


def check(workload, nn, item, out) -> list[str]:
    problems = workload.check(nn, item, out)
    if item.golden is not None and workload.digest(out) != item.golden:
        problems.append(f"output digest {workload.digest(out)} != golden {item.golden}")
    return problems


class Run:
    """State of one benchmark run: ops attempted, failures, set-up times.

    Timings are kept as (wall seconds, reference factor) pairs."""

    def __init__(self, workload, seed: int, root: Path, goldens: dict):
        self.workload = workload
        self.seed = seed
        self.root = root
        self.goldens = goldens
        self.workdir = root / ".bench_work" / f"{workload.name}-{os.getpid()}"
        self.attempted = 0
        self.failed = 0
        self.setups: list[tuple[float, float]] = []

    def record(self, item, problems: list[str]) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            if self.failed <= 5:
                print(
                    f"FAILED {self.workload.name} input {item.index}: " + "; ".join(problems),
                    file=sys.stderr,
                )

    def _set_up(self):
        nn = import_library(self.root)
        shutil.rmtree(self.workdir, ignore_errors=True)
        self.workdir.mkdir(parents=True)
        w = self.workload
        pool = w.inputs(nn, self.seed, self.workdir, range(w.params["pool"]))
        attach_goldens(w, pool, self.seed, self.goldens)
        if self.seed == DEFAULT_SEED:
            warm = pool[0]
        else:
            [warm] = w.inputs(nn, DEFAULT_SEED, self.workdir / "golden", [0])
            attach_goldens(w, [warm], DEFAULT_SEED, self.goldens)
        out = w.run_op(nn, warm)
        return nn, pool, warm, check(w, nn, warm, out)

    def set_up(self):
        """Import, write the inputs and run one warm-up op on the default
        seed's first input, whose output must match its pinned golden."""
        (nn, pool, warm, problems), wall, factor = timed(self._set_up)
        self.setups.append((wall, factor))
        self.record(warm, problems)
        return nn, pool

    def loop(self, nn, pool, seconds: float, tracer=None, counts=None):
        """Closed loop with one client for `seconds`; returns the ops'
        (wall seconds, reference factor) pairs.

        With a tracer, op i carries op id i, runs inside an "op" span, and
        is followed, outside its timing, by the workload's per-layer work."""
        w = self.workload
        span = NO_SPAN if tracer is None else tracer.span
        ops = []
        deadline = time.perf_counter() + seconds
        while not ops or time.perf_counter() < deadline:
            item = pool[len(ops) % len(pool)]
            if tracer is not None:
                tracer.next_op()

            def op():
                with span("op"):
                    return w.run_op(nn, item, span)

            out, wall, factor = timed(op)
            ops.append((wall, factor))
            problems = check(w, nn, item, out)
            if tracer is not None:
                problems += w.after_traced_op(nn, item, out, tracer, counts)
            self.record(item, problems)
        return ops

    def close(self) -> None:
        remove_workdir(self.workdir)


def tail(times: list[float]) -> tuple[float, float, int]:
    """The highest percentile with at least TAIL_BEYOND samples above it:
    (value, percentile, samples beyond).  A run too short to have one
    reports its maximum."""
    ordered = sorted(times)
    n = len(ordered)
    idx = n - TAIL_BEYOND - 1 if n > TAIL_BEYOND else n - 1
    return ordered[idx], 100.0 * (idx + 1) / n, n - idx - 1


def latency_metrics(games_per_op: int, setups, ops) -> dict:
    times = [wall * factor for wall, factor in ops]
    return {
        "setup_s": statistics.median(wall * factor for wall, factor in setups),
        "games_per_s": games_per_op * len(times) / sum(times),
        "latency_p50_s": statistics.median(times),
        "latency_tail_s": tail(times)[0],
    }


def end_to_end(run: Run, ops) -> tuple[dict, list[str]]:
    games = run.workload.games_per_op
    metrics = latency_metrics(games, run.setups, ops)
    metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    wall = latency_metrics(
        games, [(w, 1.0) for w, _ in run.setups], [(w, 1.0) for w, _ in ops]
    )
    _, pct, beyond = tail([w for w, _ in ops])
    factors = [factor for _, factor in run.setups + ops]
    notes = [
        f"latency_tail_s is p{pct:.1f} of n={len(ops)} ops, {beyond} samples beyond it",
        f"setup_s is the median of {len(run.setups)} set-ups",
        "times are reference seconds; reference loop factor median "
        f"{statistics.median(factors):.4f}, range {min(factors):.4f}..{max(factors):.4f}",
        "wall " + ", ".join(f"{name} {value!r}" for name, value in wall.items()),
    ]
    return metrics, notes


def per_op_seconds(tracer: Tracer, name: str, factors: list[float]) -> dict[int, float]:
    """Reference seconds spent in spans called `name`, keyed by op id."""
    return {op: total * factors[op] for op, total in tracer.per_op(name).items()}


def median_or_zero(values) -> float:
    values = list(values)
    return statistics.median(values) if values else 0.0


def per_layer(tracer: Tracer, counts: dict, untraced, traced) -> dict:
    """Per-layer metrics: medians over traced ops.  A layer the workload's
    op never calls reports 0."""
    factors = [factor for _, factor in traced]
    metrics = {
        name: median_or_zero(per_op_seconds(tracer, name[: -len(".s")], factors).values())
        for name in PER_LAYER
        if name.endswith(".s")
    }
    # sweep()'s time minus the replay's layer calls: sweep's own bookkeeping.
    sweeps = per_op_seconds(tracer, "verify.sweep", factors)
    children = [per_op_seconds(tracer, name, factors) for name in REPLAY_LAYERS]
    metrics["verify.sweep.self_s"] = median_or_zero(
        total - sum(child.get(op, 0.0) for child in children) for op, total in sweeps.items()
    )
    for name in COUNTS:
        metrics[name] = median_or_zero(counts[name])
    games = sum(counts["games"])
    metrics["solvers.elim_bite_frac"] = sum(counts["bitten"]) / games if games else 0.0
    metrics["trace.overhead_frac"] = (
        statistics.median(w * f for w, f in traced) / statistics.median(w * f for w, f in untraced)
        - 1
    )
    return metrics


def git_rev(root: Path) -> str:
    """The checked-out commit, read from .git without running git."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: ") :]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def provenance(run: Run, pool) -> dict:
    return {
        "workload": run.workload.name,
        "seed": run.seed,
        "inputs": run.workload.describe(pool),
        "git_rev": git_rev(run.root),
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "cpu": cpu_model(),
    }


def run_workload(workload, seed: int, seconds: float, trace: bool, root: Path = ROOT, goldens=None):
    """Set up, measure and check one workload.  Returns the result object
    (the last output line) and the human-readable lines before it."""
    run = Run(workload, seed, root, load_goldens() if goldens is None else goldens)
    try:
        for _ in range(SETUP_REPS):
            nn, pool = run.set_up()
        if trace:
            untraced = run.loop(nn, pool, seconds / 2)
            tracer = Tracer()
            counts = defaultdict(list)
            traced = run.loop(nn, pool, seconds / 2, tracer, counts)
            metrics = per_layer(tracer, counts, untraced, traced)
            units = PER_LAYER
            notes = [
                f"span {name}: total {total:.6f} s, self {own:.6f} s, {n} spans (wall)"
                for name, (total, own, n) in sorted(tracer.summary().items())
            ]
        else:
            metrics, notes = end_to_end(run, run.loop(nn, pool, seconds))
            units = END_TO_END
        lines = [f"{name} {metrics[name]!r} {unit}" for name, unit in units.items()]
        lines += [
            f"failed_frac {run.failed / run.attempted!r} ratio ({run.failed} of {run.attempted} ops)",
            *notes,
            "provenance " + json.dumps(provenance(run, pool), sort_keys=True),
        ]
    finally:
        run.close()
    result = {
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    return result, lines


def write_goldens(root: Path = ROOT, path: Path = GOLDEN_PATH, workloads=None) -> dict:
    """Pin the digest of every default-seed input's output."""
    nn = import_library(root)
    workdir = root / ".bench_work" / f"golden-{os.getpid()}"
    pinned = {}
    try:
        for w in workloads or [cls() for cls in WORKLOADS.values()]:
            items = w.inputs(nn, DEFAULT_SEED, workdir, range(w.params["pool"]))
            entries = []
            for item in items:
                out = w.run_op(nn, item)
                problems = w.check(nn, item, out)
                if problems:
                    raise SystemExit(f"{w.name} input {item.index}: " + "; ".join(problems))
                entries.append(w.digest(out))
            pinned[w.name] = {"params": w.params, "entries": entries}
    finally:
        remove_workdir(workdir)
    goldens = {"seed": DEFAULT_SEED, "workloads": pinned}
    if path is not None:
        path.write_text(json.dumps(goldens, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    return goldens


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--write-golden",
        action="store_true",
        help="rewrite golden.json from the current library and exit",
    )
    args = parser.parse_args(argv)
    try:
        if args.write_golden:
            write_goldens()
            print(f"wrote {GOLDEN_PATH}")
            return 0
        if args.workload is None:
            parser.error("--workload is required")
        result, lines = run_workload(
            WORKLOADS[args.workload](), args.seed, args.seconds, bool(args.trace)
        )
    except SetupError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    for line in lines:
        print(line)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
