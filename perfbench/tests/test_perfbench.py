"""Tests of the benchmark itself, on tiny input pools.

    python3 -m pytest -q perfbench/tests
"""

from __future__ import annotations

import json
import random
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent.parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(BENCH_DIR))
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
import workloads  # noqa: E402
from sweep import parse_seeds  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
TINY = {"family_sweep": 20, "deep_reduce": 1, "oracle_wide": 1, "arith_roundtrip": 4}
DETERMINISTIC = ("_calls", "tree_", "paths_", "_candidates")


@pytest.fixture(autouse=True)
def quick(monkeypatch, tmp_path):
    monkeypatch.setattr(run, "OUT", tmp_path)
    monkeypatch.setattr(run, "WARMUP_S", 0.01)
    monkeypatch.setattr(run, "TAIL_BEYOND", 0)
    for name, size in TINY.items():
        monkeypatch.setitem(run.WORKLOADS, name, WORKLOADS[name]._replace(size=size))


def bench(capsys, workload, trace, seed=7):
    status = run.main([
        "--workload", workload, "--seed", str(seed), "--seconds", "0.1",
        "--trace", str(trace),
    ])
    assert status == 0
    return json.loads(capsys.readouterr().out.splitlines()[-1])


def test_workloads_match_benchmark_json():
    assert {w["name"]: w["why"] for w in BENCHMARK["workloads"]} == {
        name: w.why for name, w in WORKLOADS.items()
    }


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_tiny_run_emits_every_metric(capsys, workload):
    for trace, section in ((0, "end_to_end"), (1, "per_layer")):
        result = bench(capsys, workload, trace)
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
        expected = {(m["name"], m["unit"]) for m in BENCHMARK[section]}
        assert {(k, v["unit"]) for k, v in result["metrics"].items()} == expected


def _corrupt(workload, answer):
    """Spoil one answer the way a wrong library would, on the benchmark side."""
    if workload == "family_sweep":
        cons, *rest = answer
        return (not cons, *rest)
    if workload == "arith_roundtrip":
        if isinstance(answer, list):
            q, a, value, counts = answer[0]
            return [(q, a, value + 1, counts)] + answer[1:]
        found, counts = answer
        return None, counts
    # CLI workloads: claim the whole (inconsistent) graph as an oracle set.
    status, stdout, dot = answer
    head, oracle = stdout.split("oracle:\n")
    everything = sorted(int(v) for v in stdout.split("}")[0].split("{")[1].split(","))
    oracle = "  {" + ",".join(map(str, everything)) + "}\n" + oracle
    return status, head + "oracle:\n" + oracle, dot


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_corrupted_answer_raises_error_rate(capsys, monkeypatch, workload):
    original = run.WORKLOADS[workload]

    def corrupted_op(lib, item):
        return _corrupt(workload, original.op(lib, item))

    monkeypatch.setitem(run.WORKLOADS, workload, original._replace(op=corrupted_op))
    result = bench(capsys, workload, trace=0)
    assert not result["correct"]
    assert result["failed"] / result["attempted"] > 0


def test_repeat_must_match_first_answer(tmp_path, monkeypatch):
    """A repeat whose bytes differ from the input's first answer fails, even
    when it passes the structural checks and no reference output exists."""
    monkeypatch.setattr(workloads, "reference_outputs", dict)
    workload = WORKLOADS["deep_reduce"]
    lib, items, _ = run.set_up(workload, 7, tmp_path / "inputs", 1)
    status, stdout, dot = workload.op(lib, items[0])
    drifted = (status, stdout, dot.replace("{\n", "{\n\n", 1))
    workload.check(items[0], drifted)
    results = run.Results(workload)
    for answer in ((status, stdout, dot), drifted, (status, stdout, dot)):
        results.add(0, items[0], answer)
    assert results.failed(items) == 1


def test_output_must_match_reference_digest(tmp_path):
    """On a seed with reference digests, a deep_reduce output that passes the
    structural checks but differs in one byte fails its check."""
    workload = WORKLOADS["deep_reduce"]
    lib, items, _ = run.set_up(workload, 7, tmp_path / "inputs", 1)
    assert items[0].digest in workloads.reference_outputs()
    status, stdout, dot = workload.op(lib, items[0])
    workload.check(items[0], (status, stdout, dot))
    drifted = (status, stdout, dot.replace("{\n", "{\n\n", 1))
    workloads.cli_check(items[0], drifted)
    with pytest.raises(workloads.checks.CheckError):
        workload.check(items[0], drifted)


def test_reference_covers_its_seeds(tmp_path):
    """Every deep_reduce input of the recorded seeds has reference digests,
    so a change to the input generator cannot skip the comparison unseen."""
    seeds = parse_seeds(json.loads(workloads.REFERENCE.read_text())["seeds"])
    assert len(workloads.reference_outputs()) == len(seeds) * len(workloads.inputs.DEEP_TEMPLATES)
    workload = WORKLOADS["deep_reduce"]
    lib = run.load_library()
    for seed in (seeds[0], seeds[-1]):
        items = workload.setup(lib, random.Random(seed), tmp_path, workload.size)
        assert all(item.digest in workloads.reference_outputs() for item in items)


def test_loop_runs_until_tail_has_samples_beyond(monkeypatch):
    """With no time to run, the loop still makes whole passes until the tail
    percentile has TAIL_BEYOND samples beyond it; set-up probes run between
    ops and add nothing to the passes' wall time."""
    monkeypatch.setattr(run, "TAIL_BEYOND", 10)
    fake = WORKLOADS["deep_reduce"]._replace(
        op=lambda lib, item: item, record=lambda item, answer: (answer, answer))

    def probe_setup():
        time.sleep(0.005)
        return 0.005

    latencies, wall, setups = run.closed_loop(
        None, fake, list(range(10)), 0.0, run.Results(fake), probe_setup)
    assert len(latencies) == 40 and run.tail(latencies, 75)[1] == 10
    assert len(setups) == 40 and wall < 0.1


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_traced_counts_repeat(capsys, workload):
    def counts():
        metrics = bench(capsys, workload, trace=1)["metrics"]
        return {
            k: v["value"] for k, v in metrics.items()
            if v["unit"] != "s" and any(d in k for d in DETERMINISTIC)
        }

    first = counts()
    assert first and first == counts()


def test_fails_without_the_library(tmp_path):
    """In a directory holding only the benchmark, the run exits nonzero and
    prints no result."""
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / BENCH_DIR.name, ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, *BENCHMARK["command"][1:], "--workload", "family_sweep",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
