"""Self-test of the benchmark, at toy sizes.

Run from the repository root: ``python3 -m pytest -q bench/tests``.
"""

import copy
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
from workloads import WORKLOADS, AnalyzeLadder, AnalyzeRandom, Sweep2p  # noqa: E402

TOY_SECONDS = 0.3
LADDER_K = 6


def toy_workloads():
    return [
        Sweep2p(games=20, pool=2),
        AnalyzeRandom(players=3, strategies=4, pool=2),
        AnalyzeLadder(strategies=LADDER_K, pool=2),
    ]


@pytest.fixture(scope="module")
def toy_goldens():
    return run.write_goldens(path=None, workloads=toy_workloads())


def printed_metrics(lines):
    """Name -> unit of every `name value unit ...` line."""
    metrics = {}
    for line in lines:
        name, value, unit = (line.split() + ["", ""])[:3]
        try:
            float(value)
        except ValueError:
            continue
        metrics[name] = unit
    return metrics


def test_benchmark_json_declares_the_printed_metrics():
    declared = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in declared["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in declared["per_layer"]} == run.PER_LAYER
    assert {w["name"] for w in declared["workloads"]} == set(WORKLOADS)


def test_pinned_goldens_cover_the_default_sizes():
    goldens = run.load_goldens()
    assert goldens["seed"] == run.DEFAULT_SEED
    for cls in WORKLOADS.values():
        w = cls()
        pinned = goldens["workloads"][w.name]
        assert pinned["params"] == w.params
        assert len(pinned["entries"]) == w.params["pool"]


@pytest.mark.parametrize("trace", [False, True], ids=["end_to_end", "per_layer"])
@pytest.mark.parametrize("index", range(3), ids=[w.name for w in toy_workloads()])
def test_toy_run_prints_every_metric_and_passes(index, trace, toy_goldens):
    workload = toy_workloads()[index]
    result, lines = run.run_workload(
        workload, run.DEFAULT_SEED, TOY_SECONDS, trace, goldens=toy_goldens
    )
    units = run.PER_LAYER if trace else run.END_TO_END
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] > run.SETUP_REPS
    assert {k: v["unit"] for k, v in result["metrics"].items()} == units
    assert printed_metrics(lines) == {**units, "failed_frac": "ratio"}
    assert any(line.startswith("provenance {") for line in lines)
    if not trace:
        assert all(v["value"] > 0 for v in result["metrics"].values())
    elif workload.name == "analyze-ladder":
        assert result["metrics"]["solvers.elim_rounds"]["value"] == LADDER_K - 1
        assert result["metrics"]["solvers.elim_bite_frac"]["value"] == 1.0
    elif workload.name == "sweep-2p":
        assert result["metrics"]["verify.classify_regions.s"]["value"] > 0
        assert result["metrics"]["game_io.parse_game.s"]["value"] == 0


@pytest.mark.parametrize("seed", [run.DEFAULT_SEED, 7], ids=["default_seed", "other_seed"])
@pytest.mark.parametrize("index", range(3), ids=[w.name for w in toy_workloads()])
def test_corrupted_golden_fails_ops(index, seed, toy_goldens):
    workload = toy_workloads()[index]
    goldens = copy.deepcopy(toy_goldens)
    goldens["workloads"][workload.name]["entries"][0]["sha256"] = "0" * 64
    result, lines = run.run_workload(workload, seed, TOY_SECONDS, False, goldens=goldens)
    assert not result["correct"]
    assert result["failed"] > 0
    failed_frac = [line for line in lines if line.startswith("failed_frac ")]
    assert float(failed_frac[0].split()[1]) > 0


def test_goldens_for_other_sizes_are_refused(toy_goldens):
    with pytest.raises(run.SetupError):
        run.run_workload(Sweep2p(games=21, pool=2), 7, TOY_SECONDS, False, goldens=toy_goldens)


def test_tail_has_ten_samples_beyond_it():
    times = [float(v) for v in range(30)]
    assert run.tail(times) == (19.0, 100.0 * 20 / 30, 10)
    assert run.tail([3.0, 1.0, 2.0]) == (3.0, 100.0, 0)


def test_exits_nonzero_without_the_library(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "sweep-2p", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
    assert "src" in proc.stderr
