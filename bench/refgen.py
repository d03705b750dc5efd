"""Regenerate reference/series.json, the frozen exact series.

    python3 bench/refgen.py

Each series comes from the benchmark's own dynamic program (refs.py) over
the shipped channel's forbidden-substring description, and is written only
if the program's series expansion and its enumerator both reproduce it
exactly at the same cutoff.
"""

import json
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH.parent / "src"))

import dnccap  # noqa: E402
from dncbench import gen, refs  # noqa: E402
from dncbench.ops import series_dict  # noqa: E402


def main() -> int:
    out = {
        "source": (
            "refs.count_series (a dynamic program over pattern-prefix states) on "
            "the forbidden-substring description in gen.CHANNEL_FORBIDDEN; each "
            "series equalled dnccap.expand_series and dnccap.enumerate_by_weight "
            "term for term when written"
        ),
        "series": {},
    }
    for name, cutoff in gen.FROZEN_CUTOFFS.items():
        model = gen.channel_model(name)
        expected = refs.count_series(model, cutoff)
        spec = dnccap.load_spec(gen.CHANNELS / f"{name}.json")
        for label, got in (
            ("expand_series", series_dict(dnccap.expand_series(dnccap.build_gf(spec), cutoff))),
            ("enumerate_by_weight", series_dict(dnccap.enumerate_by_weight(spec, cutoff))),
        ):
            if got != expected:
                print(f"{name}: {label} disagrees with the reference", file=sys.stderr)
                return 1
        entries = [[dict(k), c] for k, c in expected.items()]
        out["series"][name] = {"atoms": model["atoms"], "cutoff": cutoff, "entries": entries}
        print(f"{name}: {len(entries)} weight classes up to {cutoff}")
    path = BENCH / "reference" / "series.json"
    path.write_text(json.dumps(out, separators=(",", ":")) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
