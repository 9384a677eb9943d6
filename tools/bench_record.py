"""Record benchmark runs of this checkout into one BENCH_<label>.json file.

Usage, from anywhere::

    python3 tools/bench_record.py LABEL [--runs 5] [--seconds S] [--out PATH]
    python3 tools/bench_record.py --compare A.json B.json

Runs the benchmark command of ``BENCHMARK.json`` (``python3 bench/run.py``)
as a subprocess in the checkout this script sits in, alternating
workloads: ``--runs`` rounds that run every declared workload in turn at
``--trace 0``, then one round at ``--trace 1``.  Every run lasts
``--seconds`` (by default the ``run_seconds`` of ``BENCHMARK.json``) at the
benchmark's default seed.  The script changes nothing about how the
benchmark measures: it reads each run's last output line (the JSON result)
and its ``provenance`` line, and writes ``BENCH_<label>.json`` at the root
of the checkout (or ``--out``).  The file holds, per workload, every
metric's median, min, max and n (the end-to-end metrics over the untraced
runs, the per-layer metrics over the traced ones) and the workload's
inputs; the provenance (git rev, Python, nproc, CPU, and the paths under
``src`` and ``bench`` that differ from the git rev); and every command run.

Exits 1, writing nothing, when a run fails its output checks, exits
non-zero or prints no result, or a declared workload lacks a declared
end-to-end metric.

``--compare A.json B.json`` runs nothing: it prints both records'
provenances and, per workload and metric, A's and B's medians and min-max
ranges, the ratio B/A with its change in percent, and whether the two
ranges overlap.  An end-to-end metric whose median moved past its
``BENCHMARK.json`` bound in the worse direction (relative to A's median)
is marked ``WORSE``.  The comparison is informational: it exits 0 whatever
it shows.
"""

import argparse
import json
import shlex
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
# Provenance keys that describe one run's workload, not the checkout.
PER_RUN = ("workload", "inputs")


def bench_run(command: list[str]) -> tuple[dict, dict]:
    """The result object and the provenance of one benchmark run; ValueError
    naming the run when it failed or printed no result."""
    done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True)
    lines = done.stdout.splitlines()
    what = f"{shlex.join(command)} (exit {done.returncode})"
    try:
        result = json.loads(lines[-1])
        [provenance] = [
            json.loads(s.split(" ", 1)[1]) for s in lines if s.startswith("provenance ")
        ]
    except (IndexError, ValueError):
        raise ValueError(f"{what}: no result; {done.stderr.strip()}") from None
    if done.returncode or not result["correct"]:
        failed = f"{result['failed']} of {result['attempted']} ops failed"
        raise ValueError(f"{what}: {failed}; {done.stderr.strip()}")
    return result, provenance


def summary(values: list[float]) -> dict:
    return {
        "median": statistics.median(values), "min": min(values), "max": max(values),
        "n": len(values),
    }


def modified_paths() -> list[str] | None:
    """Tracked paths under src and bench that differ from the checked-out
    commit, or None when git cannot tell."""
    try:
        done = subprocess.run(
            ["git", "status", "--porcelain", "--untracked-files=no", "--", "src", "bench"],
            cwd=ROOT, capture_output=True, text=True,
        )
    except OSError:
        return None
    return sorted(line[3:] for line in done.stdout.splitlines()) if done.returncode == 0 else None


def record(benchmark: dict, label: str, runs: int, seconds: float) -> dict:
    """Run the benchmark `BENCHMARK.json` declares and summarize it;
    ValueError on the first problem."""
    workloads = [w["name"] for w in benchmark["workloads"]]
    commands = [
        [*benchmark["command"], "--workload", w, "--seconds", str(seconds), "--trace", str(trace)]
        for trace in [0] * runs + [1]
        for w in workloads
    ]
    values: dict[str, dict[str, list[float]]] = {w: {} for w in workloads}
    inputs = {}
    for command in commands:
        result, provenance = bench_run(command)
        workload = provenance["workload"]
        inputs[workload] = provenance["inputs"]
        for name, metric in result["metrics"].items():
            values[workload].setdefault(name, []).append(metric["value"])
    for w in workloads:
        for metric in benchmark["end_to_end"]:
            if metric["name"] not in values[w]:
                raise ValueError(f"{w}: no {metric['name']} in any run")
    return {
        "label": label,
        "provenance": {
            **{k: v for k, v in provenance.items() if k not in PER_RUN},
            "modified": modified_paths(),
        },
        "commands": list(map(shlex.join, commands)),
        "workloads": {
            w: {"inputs": inputs[w], "metrics": {name: summary(v) for name, v in values[w].items()}}
            for w in workloads
        },
    }


def figure(value: float) -> str:
    return f"{value:.4g}" if abs(value) < 1e4 else f"{value:.0f}"


def spread(s: dict) -> str:
    return f"{figure(s['median'])} [{figure(s['min'])}..{figure(s['max'])}]"


def compare(a: dict, b: dict, benchmark: dict) -> list[str]:
    """The lines of ``--compare``: record `b` against record `a`, judged by
    the end-to-end bounds of `benchmark`."""
    end_to_end = {m["name"]: m for m in benchmark["end_to_end"]}
    declared = [*end_to_end, *(m["name"] for m in benchmark["per_layer"])]
    lines = [
        f"{side} {r['label']}: {json.dumps(r['provenance'], sort_keys=True)}"
        for side, r in (("A", a), ("B", b))
    ]
    lines.append("per metric: A median [min..max], B median [min..max], B/A, change, ranges")
    workloads = {*a["workloads"], *b["workloads"]}
    ordered = [w["name"] for w in benchmark["workloads"] if w["name"] in workloads]
    for w in ordered + sorted(workloads - set(ordered)):
        lines += ["", w]
        ma = a["workloads"].get(w, {}).get("metrics", {})
        mb = b["workloads"].get(w, {}).get("metrics", {})
        names = set(ma) | set(mb)
        for name in [m for m in declared if m in names] + sorted(names - set(declared)):
            if name not in ma or name not in mb:
                lines.append(f"  {name:<48} only in {'B' if name in mb else 'A'}")
                continue
            sa, sb = ma[name], mb[name]
            line = f"  {name:<48} {spread(sa):<34} {spread(sb):<34}"
            ratio = sb["median"] / sa["median"] if sa["median"] else None
            line += f" {'n/a':>14}" if ratio is None else f" x{ratio:.3f} {ratio - 1:+7.1%}"
            overlap = max(sa["min"], sb["min"]) <= min(sa["max"], sb["max"])
            line += "  overlap" if overlap else "  disjoint"
            metric = end_to_end.get(name)
            if metric and ratio is not None:
                worse = ratio - 1 if metric["better"] == "lower" else 1 - ratio
                if worse > metric["bound"]:
                    line += f"  WORSE: past the {metric['bound']:.0%} bound"
            lines.append(line)
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("label", nargs="?")
    parser.add_argument("--runs", type=int, default=5, help="untraced runs per workload")
    parser.add_argument("--seconds", type=float, help="length of each run")
    parser.add_argument("--out", type=Path, help="default: BENCH_<label>.json at the root")
    parser.add_argument(
        "--compare", nargs=2, type=Path, metavar=("A", "B"),
        help="print record B against record A and run nothing",
    )
    args = parser.parse_args(argv)
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    if args.compare:
        a, b = (json.loads(path.read_text(encoding="utf-8")) for path in args.compare)
        print("\n".join(compare(a, b, benchmark)))
        return 0
    if args.label is None:
        parser.error("a label is required unless --compare is given")
    if args.runs < 1:
        parser.error("--runs must be at least 1")
    seconds = benchmark["run_seconds"] if args.seconds is None else args.seconds
    try:
        data = record(benchmark, args.label, args.runs, seconds)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    out = args.out or ROOT / f"BENCH_{args.label}.json"
    out.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
