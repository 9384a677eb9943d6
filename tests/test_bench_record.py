"""Committed benchmark records (``BENCH_*.json`` at the repository root)
and ``tools/bench_record.py``, which writes them.

Every record must cover every workload ``BENCHMARK.json`` declares, with
each declared end-to-end metric measured in at least five runs and a
positive median, and must name the git rev it measured.  The script is run
on a stand-in checkout whose ``bench/run.py`` prints canned results, so
its summary, its alternation of workloads and its failures are checked in
well under a second.  Its ``--compare`` mode is run on committed records.
"""

import json
import re
import shlex
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
RECORDS = sorted(ROOT.glob("BENCH_*.json"))
MIN_RUNS = 5


def record_problems(record: dict, benchmark: dict = BENCHMARK) -> list[str]:
    """What a record lacks to cover `benchmark`; empty when it covers it."""
    problems = []
    rev = record["provenance"].get("git_rev")
    if not isinstance(rev, str) or not re.fullmatch("[0-9a-f]{40}", rev):
        problems.append(f"git rev {rev!r}")
    for workload in benchmark["workloads"]:
        name = workload["name"]
        if name not in record["workloads"]:
            problems.append(f"no workload {name}")
            continue
        metrics = record["workloads"][name]["metrics"]
        for metric in benchmark["end_to_end"]:
            s = metrics.get(metric["name"], {"n": 0, "median": 0})
            if s["n"] < MIN_RUNS or not s["median"] > 0:
                problems.append(f"{name} {metric['name']}: n {s['n']}, median {s['median']}")
    return problems


def test_baseline_is_committed():
    assert "BENCH_baseline.json" in [p.name for p in RECORDS]


@pytest.mark.parametrize("path", RECORDS, ids=[p.name for p in RECORDS])
def test_record_covers_the_benchmark(path):
    assert record_problems(json.loads(path.read_text(encoding="utf-8"))) == []


@pytest.mark.parametrize("path", RECORDS, ids=[p.name for p in RECORDS])
def test_record_missing_a_workload_fails(path):
    record = json.loads(path.read_text(encoding="utf-8"))
    name = BENCHMARK["workloads"][0]["name"]
    del record["workloads"][name]
    assert record_problems(record) == [f"no workload {name}"]


# A stand-in for bench/run.py: run number r (counted in runs.log) reports r
# for every end-to-end metric, and 0.5 for one per-layer metric.  Workload
# "incorrect" fails its output check, "unknown" is refused as run.py
# refuses an undeclared workload, and "no-setup" reports no setup_s.
FAKE_RUN = '''
import json, sys
from pathlib import Path
args = dict(zip(sys.argv[1::2], sys.argv[2::2]))
workload, trace = args["--workload"], args["--trace"]
if workload == "unknown":
    sys.exit("run.py: error: argument --workload: invalid choice")
log = Path(__file__).parent / "runs.log"
with open(log, "a") as handle:
    handle.write(" ".join(sys.argv[1:]) + "\\n")
run = len(log.read_text().splitlines())
metrics = {"setup_s": run, "games_per_s": run} if trace == "0" else {"layer.s": 0.5}
if workload == "no-setup":
    metrics.pop("setup_s", None)
provenance = {
    "workload": workload, "seed": 1, "inputs": {"pool": 2}, "git_rev": "ab" * 20,
    "python": "3", "nproc": 1, "cpu": "stand-in",
}
print("games_per_s", run, "1/s")
print("provenance " + json.dumps(provenance))
correct = workload != "incorrect"
print(json.dumps({
    "correct": correct, "attempted": 2, "failed": int(not correct),
    "metrics": {k: {"value": v, "unit": "s"} for k, v in metrics.items()},
}))
sys.exit(0 if correct else 1)
'''


def fake_checkout(tmp_path: Path, workloads) -> Path:
    shutil.copytree(ROOT / "tools", tmp_path / "tools")
    (tmp_path / "bench").mkdir()
    (tmp_path / "bench" / "run.py").write_text(FAKE_RUN, encoding="utf-8")
    benchmark = {
        "command": [sys.executable, "bench/run.py"],
        "run_seconds": 30,
        "workloads": [{"name": w} for w in workloads],
        "end_to_end": [{"name": "setup_s"}, {"name": "games_per_s"}],
    }
    (tmp_path / "BENCHMARK.json").write_text(json.dumps(benchmark), encoding="utf-8")
    return tmp_path


def bench_record(root: Path, *args):
    return subprocess.run(
        [sys.executable, str(root / "tools" / "bench_record.py"), *args],
        capture_output=True, text=True,
    )


def test_script_summarizes_alternating_runs(tmp_path):
    root = fake_checkout(tmp_path, ["a", "b"])
    done = bench_record(root, "t", "--seconds", "2")
    assert done.returncode == 0, done.stderr
    record = json.loads((root / "BENCH_t.json").read_text(encoding="utf-8"))
    # runs 1..10 alternate a and b at --trace 0; runs 11 and 12 are traced
    assert record["workloads"]["a"]["metrics"] == {
        "setup_s": {"median": 5, "min": 1, "max": 9, "n": 5},
        "games_per_s": {"median": 5, "min": 1, "max": 9, "n": 5},
        "layer.s": {"median": 0.5, "min": 0.5, "max": 0.5, "n": 1},
    }
    assert record["workloads"]["b"]["metrics"]["setup_s"]["median"] == 6
    assert record["workloads"]["b"]["inputs"] == {"pool": 2}
    assert record["commands"] == [
        f"{shlex.quote(sys.executable)} bench/run.py --workload {w} --seconds 2.0 --trace {trace}"
        for trace in (0,) * 5 + (1,)
        for w in ("a", "b")
    ]
    assert record["provenance"] == {
        "git_rev": "ab" * 20, "python": "3", "nproc": 1, "cpu": "stand-in", "seed": 1,
        "modified": None,
    }
    benchmark = json.loads((root / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert record_problems(record, benchmark) == []


@pytest.mark.parametrize("bad", ["incorrect", "unknown", "no-setup"])
def test_script_fails_and_writes_nothing(tmp_path, bad):
    root = fake_checkout(tmp_path, ["a", bad])
    done = bench_record(root, "t", "--runs", "1", "--seconds", "1")
    assert done.returncode == 1
    assert done.stderr.startswith("error: ") and bad in done.stderr
    assert not (root / "BENCH_t.json").exists()


def compare(a: Path, b: Path) -> list[str]:
    done = bench_record(ROOT, "--compare", str(a), str(b))
    assert done.returncode == 0, done.stderr
    return done.stdout.splitlines()


def metric_line(lines: list[str], workload: str, metric: str) -> str:
    """The line of `metric` in `workload`'s block of a comparison."""
    block = lines[lines.index(workload) + 1 :]
    return next(line for line in block if line.split()[:1] == [metric])


def test_compare_reads_the_trajectory_off_two_records():
    lines = compare(ROOT / "BENCH_pr28.json", ROOT / "BENCH_pr29.json")
    a, b = (json.loads((ROOT / f"BENCH_{label}.json").read_text()) for label in ("pr28", "pr29"))
    assert lines[:2] == [
        f"{side} {r['label']}: {json.dumps(r['provenance'], sort_keys=True)}"
        for side, r in (("A", a), ("B", b))
    ]
    assert '"modified": ["src/nonnash/game_io.py", "src/nonnash/solvers.py"]' in lines[1]
    p50 = metric_line(lines, "analyze-random", "latency_p50_s")
    assert p50.split()[1:] == [
        "0.09309", "[0.09278..0.09461]", "0.08232", "[0.07992..0.08667]",
        "x0.884", "-11.6%", "disjoint",
    ]
    setup = metric_line(lines, "analyze-random", "setup_s")
    assert setup.split()[-2:] == ["+16.3%", "overlap"]
    assert not any("WORSE" in line for line in lines)
    # every workload and every metric of both records is listed
    for w in BENCHMARK["workloads"]:
        for name in a["workloads"][w["name"]]["metrics"]:
            metric_line(lines, w["name"], name)


def test_compare_marks_a_metric_past_its_bound(tmp_path):
    a = json.loads((ROOT / "BENCH_pr29.json").read_text(encoding="utf-8"))
    b = json.loads(json.dumps(a))
    metrics = b["workloads"]["sweep-2p"]["metrics"]
    for name, factor in [
        ("setup_s", 1.3),  # lower is better: 30 % worse, past the 25 % bound
        ("latency_p50_s", 1.2),  # 20 % worse, inside the bound
        ("games_per_s", 0.7),  # higher is better: 30 % worse
        ("verify.sweep.self_s", 3),  # per-layer metrics have no bound
    ]:
        m = metrics[name]
        metrics[name] = {**m, **{k: m[k] * factor for k in ("median", "min", "max")}}
    del metrics["peak_rss_mb"]
    paths = tmp_path / "a.json", tmp_path / "b.json"
    for path, record in zip(paths, (a, b)):
        path.write_text(json.dumps(record), encoding="utf-8")
    lines = compare(*paths)
    worse = [line.split()[0] for line in lines if "WORSE" in line]
    assert worse == ["setup_s", "games_per_s"]
    assert metric_line(lines, "sweep-2p", "setup_s").endswith("WORSE: past the 25% bound")
    assert metric_line(lines, "sweep-2p", "peak_rss_mb").split()[1:] == ["only", "in", "A"]
    # the reverse direction moves the same metrics the better way
    assert not any("WORSE" in line for line in compare(*reversed(paths)))
