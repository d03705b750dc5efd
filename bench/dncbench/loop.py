"""The measured loop of one benchmark run, in a process of its own.

    python3 loop.py WORKLOAD SEED SECONDS TRACE BUDGET OUT

bench/run.py starts this process and checks its answers afterwards. The
loop regenerates the run's cases from the seed, runs each once to warm
up, then repeats the cycle as a closed loop with one client until SECONDS
have passed, every case has run and at least MIN_OPS operations have run
(or BUDGET seconds, whichever comes first). It never loads the gate's references, so its peak
resident memory is the program's plus this loop's small bookkeeping.

OUT receives a stream of pickled records. ("answer", number, blob) holds
a pickled answer, written the first time an answer with its digest
appears; the last record, ("summary", dict), holds per operation its
case index, seconds and answer number, in compact arrays. So the parent
checks every operation's answer while each distinct answer crosses over
only once, and the loop's own memory stays small.

With TRACE 1 the loop alternates each operation untraced and traced,
turns the spans into per-layer metrics (layers.py) and writes the first
SPAN_CAP spans to bench/_out/.
"""

from __future__ import annotations

import hashlib
import json
import pickle
import re
import resource
import statistics
import sys
import time
from array import array
from collections import defaultdict
from pathlib import Path

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

from dncbench import gen, layers, ops, tracing  # noqa: E402

MIN_OPS = 100
SAMPLE_ROUNDS = 8
SPAN_CAP = 50_000
# CLI calls sampled between in-process operations in a traced run, so the
# import and cli layers are measured on every workload.
COLD_SAMPLES = (
    ("capacity", "channels/ex2.json", "--json"),
    ("capacity", "channels/ex3.json", "--verify", "--cutoff", "12", "--json"),
    ("gf", "channels/mixed-free.json", "--json"),
    ("coefficients", "channels/half-step.json", "--cutoff", "6", "--json"),
)


def fail(message: str) -> None:
    print(f"error: {message}", file=sys.stderr)
    sys.exit(2)


def peak_rss_mb() -> float:
    """Peak resident memory of this process's own address space. VmHWM
    starts afresh at exec, whereas ru_maxrss starts from the size of the
    parent that forked this process."""
    try:
        with open("/proc/self/status", encoding="ascii") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Loop:
    def __init__(self, workload: str, seed: int, seconds: float, budget: float, out):
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.budget = budget
        self.out = out
        self.cases = gen.cases(workload, seed)
        self.env = ops.child_env(ROOT)
        self.work = Path(out.name).parent
        self.case_index = array("I")
        self.seconds_taken = array("d")
        self.answer_number = array("I")
        self.numbers = {}
        self.setup_samples = []
        self.floor = []
        self.importtime = []
        self.cold = []

    # --- fresh-process samples, spread over the run ----------------------------

    def sample_setup(self) -> None:
        """One fresh interpreter importing dnccap.cli: what every CLI call
        pays before it can start."""
        proc, seconds = ops.run_process([sys.executable, "-c", "import dnccap.cli"], ROOT, self.env)
        if proc.returncode != 0:
            fail("a fresh interpreter cannot import dnccap.cli: "
                 + proc.stderr.decode("utf-8", "replace").strip()[-300:])
        self.setup_samples.append(seconds)

    def sample_floor(self) -> None:
        _, seconds = ops.run_process([sys.executable, "-c", "pass"], ROOT, self.env)
        self.floor.append(seconds * 1e3)

    def sample_importtime(self) -> None:
        proc, _ = ops.run_process(
            [sys.executable, "-X", "importtime", "-c", "import dnccap.cli"], ROOT, self.env
        )
        cumulative = defaultdict(int)
        for line in proc.stderr.decode("utf-8", "replace").splitlines():
            m = re.match(r"import time:\s+\d+ \|\s+(\d+) \|\s*(\S+)\s*$", line)
            if m:
                cumulative[m.group(2)] += int(m.group(1))
        total = cumulative["dnccap.cli"] / 1e3
        numpy_ms = cumulative["numpy"] / 1e3
        self.importtime.append((total - numpy_ms, numpy_ms))

    def sample_cold_cli(self) -> None:
        """One traced fresh CLI call from COLD_SAMPLES, profiled only."""
        argv = COLD_SAMPLES[len(self.cold) % len(COLD_SAMPLES)]
        spans_out = self.work / "sample-spans.json"
        cmd = [sys.executable, str(BENCH / "dncbench" / "child.py"), str(spans_out), *argv]
        proc, seconds = ops.run_process(cmd, ROOT, self.env)
        if proc.returncode != 0:
            fail(f"sampled CLI call {' '.join(argv)} exited {proc.returncode}")
        spans = json.loads(spans_out.read_text(encoding="utf-8"))["spans"]
        spans_out.unlink()
        self.cold.append(layers.profile(spans, seconds, argv[0], cli=True))

    def interleave(self, now: float, next_sample: float, traced: bool) -> float:
        """Take one round of samples if it is due; SAMPLE_ROUNDS rounds,
        one every SECONDS / SAMPLE_ROUNDS. Returns when the next is due."""
        if now < next_sample or len(self.setup_samples) >= SAMPLE_ROUNDS:
            return next_sample
        self.sample_setup()
        if traced:
            self.sample_floor()
            self.sample_importtime()
            self.sample_cold_cli()
        return now + self.seconds / SAMPLE_ROUNDS

    # --- operations ----------------------------------------------------------------

    def record(self, index: int, answer: dict, seconds: float) -> None:
        blob = pickle.dumps(answer, protocol=pickle.HIGHEST_PROTOCOL)
        digest = hashlib.blake2b(blob, digest_size=16).digest()
        number = self.numbers.get(digest)
        if number is None:
            number = self.numbers[digest] = len(self.numbers)
            pickle.dump(("answer", number, blob), self.out, protocol=pickle.HIGHEST_PROTOCOL)
        self.case_index.append(index)
        self.seconds_taken.append(seconds)
        self.answer_number.append(number)

    def measure(self) -> None:
        """The untraced loop."""
        start = time.perf_counter()
        soft, hard = start + self.seconds, start + max(self.seconds, self.budget)
        next_sample = start
        min_ops = max(MIN_OPS, len(self.cases))
        i = 0
        while True:
            now = time.perf_counter()
            if now >= hard or (now >= soft and i >= min_ops):
                break
            next_sample = self.interleave(now, next_sample, traced=False)
            index = i % len(self.cases)
            answer, seconds = ops.run_in_process(self.cases[index])
            self.record(index, answer, seconds)
            i += 1

    def measure_traced(self) -> dict:
        tracer = tracing.Tracer()
        profiles, kept = [], []
        plain_total = traced_total = 0.0
        start = time.perf_counter()
        soft, hard = start + self.seconds, start + max(self.seconds, self.budget)
        next_sample = start
        i = 0
        while True:
            now = time.perf_counter()
            if now >= hard or (now >= soft and i >= 8):
                break
            next_sample = self.interleave(now, next_sample, traced=True)
            index = i % len(self.cases)
            case = self.cases[index]
            answer, plain = ops.run_in_process(case)
            self.record(index, answer, plain)
            tracer.install()
            try:
                answer, traced = ops.run_in_process(case)
            finally:
                tracer.uninstall()
            spans = tracer.take()
            self.record(index, answer, traced)
            plain_total += plain
            traced_total += traced
            profiles.append(layers.profile(spans, traced, case.op, cli=False))
            if len(kept) + len(spans) <= SPAN_CAP:
                kept.extend([i, *rec] for rec in spans)
            i += 1
        imports = {
            "interpreter_ms": statistics.median(self.floor),
            "dnccap_ms": statistics.median(d for d, _ in self.importtime),
            "numpy_ms": statistics.median(n for _, n in self.importtime),
        }
        out = layers.metrics(profiles, self.cold, imports)
        out["trace.overhead_frac"] = (traced_total / plain_total - 1.0, "frac")
        self.write_spans(kept)
        return out

    def write_spans(self, kept) -> None:
        out_dir = BENCH / "_out"
        out_dir.mkdir(exist_ok=True)
        path = out_dir / f"spans-{self.workload}-{self.seed}.jsonl"
        with path.open("w", encoding="utf-8") as fh:
            for op, sid, parent, name, t0, t1, info in kept:
                fh.write(json.dumps({"op": op, "id": sid, "parent": parent, "name": name,
                                     "start": t0, "end": t1, "info": info}) + "\n")
        print(f"spans: {len(kept)} written to {path.relative_to(ROOT)}")

    def run(self, trace: bool) -> dict:
        t0 = time.perf_counter()
        for case in self.cases:
            ops.run_in_process(case)
        self.budget -= time.perf_counter() - t0
        summary = {"names": [c.name for c in self.cases]}
        if trace:
            summary["layers"] = self.measure_traced()
        else:
            self.measure()
            summary["peak_rss_mb"] = peak_rss_mb()
        summary.update(case_index=self.case_index, seconds=self.seconds_taken,
                       answer_number=self.answer_number, setup=self.setup_samples)
        return summary


def main(argv) -> int:
    workload, seed, seconds, trace, budget, out_path = argv
    with open(out_path, "wb") as out:
        loop = Loop(workload, int(seed), float(seconds), float(budget), out)
        summary = loop.run(trace == "1")
        pickle.dump(("summary", summary), out, protocol=pickle.HIGHEST_PROTOCOL)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
