"""Per-layer metrics from the spans of traced operations.

Each traced operation becomes a Profile: its wall time, the self time and
call count per span name, and the result summaries the wrappers took.
Timings and sizes are medians over the operations (or calls) that reached
the layer at all, call counts are means over them (zero when none did);
each `*.share` is the layer's self time summed over all operations, over
their summed wall time.

For a fresh CLI process the wall time is the child process's; the part
no span covers (interpreter start, bootstrap, exit) belongs to the
`import` layer together with the `import.dnccap` span. The `import` and
`cli` figures come from such processes, sampled between the operations
of every traced run.
"""

from __future__ import annotations

from collections import Counter, defaultdict
from dataclasses import dataclass, field
from statistics import median

from .tracing import self_times

LAYERS = ("import", "cli", "chanspec", "gf_builder", "genpoly", "solver", "automaton", "oracle")


@dataclass
class Profile:
    wall: float
    command: str
    own: dict = field(default_factory=lambda: defaultdict(float))
    calls: Counter = field(default_factory=Counter)
    info: dict = field(default_factory=lambda: defaultdict(list))

    def layer(self, name: str) -> float:
        return sum(t for n, t in self.own.items() if n.split(".", 1)[0] == name)


def profile(spans, wall: float, command: str, *, cli: bool) -> Profile:
    p = Profile(wall=wall, command=command)
    own = self_times(spans)
    top = 0.0
    for rec in spans:
        name = rec[2]
        p.own[name] += own[rec[0]]
        p.calls[name] += 1
        if rec[5] is not None:
            p.info[name].append(rec[5])
        if rec[1] == -1:
            top += rec[4] - rec[3]
    if cli:
        p.own["import.interpreter"] += max(0.0, wall - top)
    return p


def _med(values, scale=1.0) -> float:
    values = list(values)
    return median(values) * scale if values else 0.0


def _self_ms(profiles, *names) -> float:
    return _med(
        (sum(p.own[n] for n in names) for p in profiles if any(p.calls[n] for n in names)),
        1e3,
    )


def _calls(profiles, name, among=None) -> float:
    """Mean calls per operation, over the operations that called `among`."""
    among = among or name
    counts = [p.calls[name] for p in profiles if p.calls[among]]
    return sum(counts) / len(counts) if counts else 0.0


def _infos(profiles, name) -> list:
    return [i for p in profiles for i in p.info[name]]


def _share(profiles, layer) -> tuple:
    wall = sum(p.wall for p in profiles) or 1.0
    return sum(p.layer(layer) for p in profiles) / wall, "frac"


def metrics(profiles: list[Profile], cold: list[Profile], imports: dict) -> dict:
    """name -> (value, unit). `cold` holds the profiles of fresh CLI
    processes, `imports` the separately measured interpreter floor and
    importtime figures, in ms."""
    out = {}

    def share(layer):
        out[f"{layer}.share"] = _share(profiles, layer)

    out["import.interpreter_ms"] = (imports["interpreter_ms"], "ms")
    out["import.dnccap_ms"] = (imports["dnccap_ms"], "ms")
    out["import.numpy_ms"] = (imports["numpy_ms"], "ms")
    out["import.share"] = _share(cold, "import")

    out["cli.self_ms"] = (_self_ms(cold, "cli.main"), "ms")
    capacity = [p for p in cold if p.command == "capacity"]
    out["cli.build_gf_calls"] = (_calls(capacity, "gf_builder.build_gf", "cli.main"), "count")
    out["cli.share"] = _share(cold, "cli")

    out["chanspec.parse_ms"] = (_self_ms(profiles, "chanspec.load_spec", "chanspec.parse_spec"), "ms")
    share("chanspec")

    out["gf_builder.build_gf_ms"] = (_self_ms(profiles, "gf_builder.build_gf"), "ms")
    terms = _infos(profiles, "gf_builder.build_gf")
    out["gf_builder.num_terms"] = (_med(t[0] for t in terms), "count")
    out["gf_builder.den_terms"] = (_med(t[1] for t in terms), "count")
    share("gf_builder")

    out["genpoly.evaluate_calls"] = (_calls(profiles, "genpoly.evaluate"), "count")
    out["genpoly.evaluate_ms"] = (_self_ms(profiles, "genpoly.evaluate"), "ms")
    out["genpoly.expand_series_ms"] = (_self_ms(profiles, "genpoly.expand_series"), "ms")
    classes = _infos(profiles, "genpoly.expand_series")
    out["genpoly.series_classes"] = (_med(classes), "count")
    per_class = [
        p.own["genpoly.expand_series"] / sum(p.info["genpoly.expand_series"]) * 1e6
        for p in profiles
        if p.calls["genpoly.expand_series"] and sum(p.info["genpoly.expand_series"])
    ]
    out["genpoly.expand_us_per_class"] = (_med(per_class), "us")
    share("genpoly")

    out["solver.characteristic_ms"] = (_self_ms(profiles, "solver.capacity_from_characteristic"), "ms")
    out["solver.pole_ms"] = (_self_ms(profiles, "solver.smallest_positive_pole"), "ms")
    iterations = _infos(profiles, "solver.capacity_from_characteristic") + _infos(
        profiles, "solver.smallest_positive_pole"
    )
    out["solver.iterations"] = (_med(iterations), "count")
    poles = sum(p.calls["solver.smallest_positive_pole"] for p in profiles)
    solves = poles + sum(p.calls["solver.capacity_from_characteristic"] for p in profiles)
    out["solver.route_pole_frac"] = (poles / solves if solves else 0.0, "frac")
    out["solver.check_density_ms"] = (_self_ms(profiles, "solver.check_density"), "ms")
    share("solver")

    out["automaton.for_spec_ms"] = (_self_ms(profiles, "automaton.for_spec"), "ms")
    out["automaton.calls"] = (_calls(profiles, "automaton.for_spec", "oracle.enumerate_channel"), "count")
    out["automaton.states"] = (_med(_infos(profiles, "automaton.for_spec")), "count")
    share("automaton")

    out["oracle.enumerate_ms"] = (_self_ms(profiles, "oracle.enumerate_channel"), "ms")
    out["oracle.estimate_ms"] = (_self_ms(profiles, "oracle.estimate_capacity"), "ms")
    walks = _infos(profiles, "oracle.enumerate_channel")
    out["oracle.weight_classes"] = (_med(w[0] for w in walks), "count")
    analyzed = sum(w[1] for w in walks)
    out["oracle.states_analyzed"] = (_med(w[1] for w in walks), "count")
    out["oracle.useful_loop_frac"] = (sum(w[2] for w in walks) / analyzed if analyzed else 0.0, "frac")
    share("oracle")

    attributed = sum(p.layer(layer) for p in profiles for layer in LAYERS)
    out["trace.attributed_frac"] = (attributed / (sum(p.wall for p in profiles) or 1.0), "frac")
    out["trace.ops"] = (len(profiles), "count")
    return out
