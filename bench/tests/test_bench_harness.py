"""Self-test of the benchmark harness: seeded inputs, the correctness gate,
and a short run of each workload. Needs dnccap importable (src/ on the
path), as the rest of the suite does.

    PYTHONPATH=src python -m pytest bench/tests -q
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

from dncbench import gate, gen, ops  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


@pytest.mark.parametrize("workload", gen.WORKLOADS)
def test_same_seed_gives_identical_inputs(workload):
    first = [(c.name, c.spec) for c in gen.cases(workload, 11)]
    again = [(c.name, c.spec) for c in gen.cases(workload, 11)]
    other = [(c.name, c.spec) for c in gen.cases(workload, 12)]
    assert first == again
    assert first != other


def test_gate_passes_the_program_and_catches_a_corrupted_reference():
    case = next(c for c in gen.cases("counts-deep", 5) if c.name == "ex3-series-120")
    answer, _ = ops.run_in_process(case)
    frozen = gate.load_frozen()
    assert gate.Gate(frozen).check(case, answer) == []

    atoms, cutoff, counts = frozen["ex3"]
    key = (("unit", 50),)
    corrupted = dict(frozen, ex3=(atoms, cutoff, {**counts, key: counts[key] + 1}))
    problems = gate.Gate(corrupted).check(case, answer)
    assert problems and "series counts" in problems[0]


def test_gate_catches_a_wrong_capacity_and_a_refusal():
    probes = {c.name: c for c in gen.defect_probes()}
    checker = gate.Gate(gate.load_frozen())
    wrong = {"capacity": 0.0, "error_bound": 0.0, "method": "smallest-pole"}
    assert checker.check(probes["double-pole"], wrong)
    assert checker.check(probes["two-patterns"], {"error": "raised UnsupportedChannelError"})


def _run(workload, trace):
    cmd = [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", "3",
           "--seconds", "1", "--trace", str(trace)]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", gen.WORKLOADS)
def test_each_workload_runs_briefly_and_passes_the_gate(workload):
    result = _run(workload, 0)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 100
    assert set(result["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_traced_run_reports_every_layer_metric():
    result = _run("counts-deep", 1)
    assert result["correct"]
    assert set(result["metrics"]) == {m["name"] for m in SPEC["per_layer"]}
    assert result["metrics"]["trace.attributed_frac"]["value"] > 0.9
    # The import and cli layers come from CLI calls sampled during the run.
    assert result["metrics"]["cli.self_ms"]["value"] > 0
    assert result["metrics"]["import.share"]["value"] > 0.5
