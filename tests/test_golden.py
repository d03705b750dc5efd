"""`dnc capacity --json` pinned byte for byte against recorded outputs.

Each file in golden/capacity is named <channel>.<mode>.json and holds the
exact stdout of `dnc capacity channels/<channel>.json <mode options> --json`.
A faster solver must give the very same answers, so any difference here is
a change in behaviour. Regenerate a file only when its output is meant to
change, by running that command and saving its stdout.
"""

from __future__ import annotations

import json

import pytest

from dnccap import build_gf
from dnccap.cli import main
from dnccap.solver import characteristic_part

from corpus import CHANNELS_DIR, GOLDEN_DIR, load_channel

MODES = {
    "auto": [],
    "pole": ["--method", "pole"],
    "characteristic": ["--method", "characteristic"],
    "oracle-verify": ["--method", "oracle", "--cutoff", "12", "--verify"],
}


def channel_specs() -> list[str]:
    """Channel spec files; bare {"weights": [...]} density inputs are not specs."""
    return sorted(
        path.name
        for path in CHANNELS_DIR.glob("*.json")
        if set(json.loads(path.read_text())) != {"weights"}
    )


@pytest.mark.parametrize(
    "golden", sorted(GOLDEN_DIR.glob("*.json")), ids=lambda path: path.stem
)
def test_capacity_json_is_byte_identical(capsys, golden):
    name, mode = golden.stem.split(".", 1)
    code = main(["capacity", str(CHANNELS_DIR / f"{name}.json"), *MODES[mode], "--json"])
    assert code == 0
    assert capsys.readouterr().out.encode() == golden.read_bytes()


@pytest.mark.parametrize("name", channel_specs())
def test_every_channel_and_mode_is_pinned(name):
    stem = name.removesuffix(".json")
    modes = {"auto", "pole", "oracle-verify"}
    if characteristic_part(build_gf(load_channel(name)).denominator) is not None:
        modes.add("characteristic")
    assert {p.stem.split(".", 1)[1] for p in GOLDEN_DIR.glob(f"{stem}.*.json")} == modes
