"""dnccap benchmark: two seeded workloads, a correctness gate on every
operation, and a traced run for per-layer numbers.

    python3 bench/run.py --workload capacity-sweep|counts-deep|all
                         --seed N --seconds S --trace 0|1

Run it from anywhere; it measures the program in src/ of the checkout it
sits in. One client, one thread, closed loop: the next operation starts
when the previous one has returned. The cycle of seeded cases (at least
100 of them) repeats until S seconds have passed and every case has run.
Latencies and throughput are taken over every measured operation.

The loop runs in a process of its own (dncbench/loop.py) that holds none
of the gate's references; this process builds them first, then checks
every operation's answer once the loop has ended.

--trace 0 prints the end-to-end metrics; --trace 1 alternates each
operation untraced and traced, prints the per-layer metrics and writes
the spans to bench/_out/. Human-readable lines come first; the last line
of standard output is one JSON object with the keys correct, attempted,
failed and metrics. `--workload all` runs each workload in its own
process and merges the results under "<workload>/<metric>".

The known defects of ROADMAP item 2 run once per run as probes outside
the measured loop; their verdicts are printed and counted in the traced
run's gate.defects_open, and they do not enter `failed`.
"""

from __future__ import annotations

import argparse
import json
import os
import pickle
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORKLOADS = ("capacity-sweep", "counts-deep")
RUN_LIMIT_S = 150.0


def fail(message: str) -> None:
    print(f"error: {message}", file=sys.stderr)
    sys.exit(2)


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def percentile(values, q: float) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[round(q * 100) - 1]


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    started = time.perf_counter()
    if not (ROOT / "src" / "dnccap" / "__init__.py").is_file():
        fail(f"no program source at {ROOT / 'src' / 'dnccap'}")
    if not (ROOT / "channels").is_dir():
        fail(f"no shipped channels at {ROOT / 'channels'}")
    sys.path[:0] = [str(BENCH), str(ROOT / "src")]
    import dnccap
    import numpy

    if not Path(dnccap.__file__).resolve().is_relative_to(ROOT / "src"):
        fail(f"imported dnccap from {dnccap.__file__}, not from this checkout")
    print(
        f"machine: nproc={os.cpu_count()} python={platform.python_version()} "
        f"numpy={numpy.__version__} platform={platform.platform()}"
    )
    bench = Bench(args)
    try:
        result = bench.run(started)
    finally:
        shutil.rmtree(bench.work, ignore_errors=True)
    print(json.dumps(result))
    return 0


class Bench:
    def __init__(self, args):
        from dncbench import gate, gen

        self.args = args
        self.cases = gen.cases(args.workload, args.seed)
        self.probes = gen.defect_probes()
        self.gate = gate.Gate(gate.load_frozen())
        self.work = BENCH / "_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
        self.failed = 0
        self.attempted = 0
        self.messages = []

    def run_loop(self, started: float) -> tuple:
        """Run the measured loop in its own process; return its summary
        and the distinct answers it wrote, by number."""
        self.work.mkdir(parents=True, exist_ok=True)
        out_path = self.work / "loop.pickle"
        budget = RUN_LIMIT_S - (time.perf_counter() - started)
        cmd = [sys.executable, str(BENCH / "dncbench" / "loop.py"), self.args.workload,
               str(self.args.seed), f"{self.args.seconds!r}", str(self.args.trace),
               f"{budget!r}", str(out_path)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=RUN_LIMIT_S + 20)
        if proc.returncode != 0:
            fail(f"the measured loop exited {proc.returncode}")
        print(proc.stdout, end="")
        answers, summary = {}, None
        with out_path.open("rb") as fh:
            while summary is None:
                kind, *rest = pickle.load(fh)
                if kind == "answer":
                    answers[rest[0]] = pickle.loads(rest[1])
                else:
                    summary = rest[0]
        if summary["names"] != [c.name for c in self.cases]:
            fail("the measured loop generated other cases than this process")
        return summary, answers

    def check(self, case_index, answer_number, answers) -> None:
        """Gate every operation; operations with the same case and answer
        share one verdict."""
        verdicts = {}
        for key in zip(case_index, answer_number):
            if key not in verdicts:
                index, number = key
                verdicts[key] = self.gate.check(self.cases[index], answers[number])
            problems = verdicts[key]
            self.attempted += 1
            if problems:
                self.failed += 1
                if len(self.messages) < 20:
                    self.messages.append(f"{self.cases[index].name}: {problems[0]}")

    def run_probes(self) -> int:
        """Run the known-defect probes once; return how many still fail."""
        from dncbench import ops

        open_defects = 0
        for case in self.probes:
            answer, _ = ops.run_in_process(case)
            problems = self.gate.check(case, answer)
            open_defects += bool(problems)
            verdict = "FAILS (known defect)" if problems else "passes"
            print(f"defect probe {case.name}: {verdict}" + (f": {problems[0]}" if problems else ""))
        return open_defects

    def run(self, started: float) -> dict:
        args = self.args
        # Every reference the gate needs, built before the loop starts so
        # that none of that work competes with it.
        for case in self.cases:
            self.gate.prepare(case)
        print(f"workload={args.workload} seed={args.seed} seconds={args.seconds:g} "
              f"trace={args.trace} cases={len(self.cases)}")
        summary, answers = self.run_loop(started)
        self.check(summary["case_index"], summary["answer_number"], answers)
        samples = {}
        if args.trace:
            metrics = summary["layers"]
            metrics["gate.defects_open"] = (self.run_probes(), "count")
        else:
            self.run_probes()
            latencies = summary["seconds"]
            if len(set(summary["case_index"])) < len(self.cases):
                fail(f"the loop ran {len(set(summary['case_index']))} of {len(self.cases)} cases")
            # ops_per_s is the closed loop's rate over the operations' own wall
            # time: the loop's bookkeeping between operations (hashing each
            # answer) is left out.
            busy = sum(latencies)
            metrics = {
                "latency_ms.p50": (statistics.median(latencies) * 1e3, "ms"),
                "latency_ms.p90": (percentile(latencies, 0.90) * 1e3, "ms"),
                "ops_per_s": (len(latencies) / busy, "1/s"),
                "setup_s": (statistics.median(summary["setup"]), "s"),
                "peak_rss_mb": (summary["peak_rss_mb"], "MB"),
            }
            per_op = (f"n={len(latencies)} operations over {len(self.cases)} cases, "
                      f"{len(latencies) / len(self.cases):.0f} repetitions each on average")
            samples = {
                "latency_ms.p50": per_op,
                "latency_ms.p90": per_op,
                "ops_per_s": f"{per_op}, {busy:.1f} s of operations",
                "setup_s": f"n={len(summary['setup'])} fresh processes",
                "peak_rss_mb": "the loop's process",
            }
        for message in self.messages:
            print(f"gate: {message}")
        for name, (value, unit) in metrics.items():
            print(f"{name:32s} {value:14.6g} {unit:6s} {samples.get(name, '')}".rstrip())
        return {
            "correct": self.failed == 0,
            "attempted": self.attempted,
            "failed": self.failed,
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        }


def run_all(args) -> int:
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
               "--seed", str(args.seed), "--seconds", f"{args.seconds:g}",
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            sys.stderr.write(proc.stderr)
            return proc.returncode or 1
        print(f"== {workload}")
        print("\n".join(lines[:-1]))
        result = json.loads(lines[-1])
        merged["correct"] = merged["correct"] and result["correct"]
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        for name, metric in result["metrics"].items():
            merged["metrics"][f"{workload}/{name}"] = metric
    print(json.dumps(merged))
    return 0


if __name__ == "__main__":
    sys.exit(main())
