"""`dnc` outputs pinned byte for byte against recorded runs.

Each file in golden/capacity is named <channel>.<mode>.json and holds the
exact stdout of `dnc capacity channels/<channel>.json <mode options> --json`.

golden/cli.json records the other subcommands: for each run its argv, run
from the repository root, its exit code and its stderr. The run's stdout is
golden/cli/<run>.json. Every channel spec has a `coefficients --cutoff 15`
run with and without `--oracle` and a `gf` run, all with `--json`; two
`check-density` runs cover a flagged weight list and a spec answered
from its alphabet.

A faster or simpler program must give the very same answers, so any
difference here is a change in behaviour. Regenerate a record only when
its output is meant to change, by running its command and saving what it
prints and returns.
"""

from __future__ import annotations

import json

import pytest

from dnccap import build_gf
from dnccap.cli import main
from dnccap.solver import characteristic_part

from corpus import CHANNELS_DIR, GOLDEN_DIR, load_channel

CLI_DIR = GOLDEN_DIR.parent / "cli"
CLI_RUNS = json.loads((GOLDEN_DIR.parent / "cli.json").read_text())

MODES = {
    "auto": [],
    "pole": ["--method", "pole"],
    "characteristic": ["--method", "characteristic"],
    "oracle-verify": ["--method", "oracle", "--cutoff", "12", "--verify"],
}

CLI_MODES = {
    "coefficients": ["coefficients", "--cutoff", "15", "--json"],
    "coefficients-oracle": ["coefficients", "--cutoff", "15", "--oracle", "--json"],
    "gf": ["gf", "--json"],
}
DENSITY_RUNS = {
    "dense-weights.check-density": [
        "check-density", "channels/dense-weights.json", "--json"
    ],
    "ex3.check-density-cutoff-12": [
        "check-density", "channels/ex3.json", "--cutoff", "12", "--json"
    ],
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


@pytest.mark.parametrize("run", sorted(CLI_RUNS))
def test_cli_run_is_byte_identical(capsys, monkeypatch, run):
    record = CLI_RUNS[run]
    monkeypatch.chdir(CHANNELS_DIR.parent)
    code = main(record["argv"])
    captured = capsys.readouterr()
    assert code == record["exit"]
    assert captured.err == record["stderr"]
    assert captured.out.encode() == (CLI_DIR / f"{run}.json").read_bytes()


def _refuse(name):
    raise ValueError(f"{name} is not valid JSON")


@pytest.mark.parametrize(
    "record",
    sorted(GOLDEN_DIR.parent.rglob("*.json")),
    ids=lambda path: str(path.relative_to(GOLDEN_DIR.parent)),
)
def test_golden_record_is_strict_json(record):
    json.loads(record.read_text(), parse_constant=_refuse)


def test_every_channel_and_subcommand_is_pinned():
    expected = dict(DENSITY_RUNS)
    for name in channel_specs():
        for mode, (command, *options) in CLI_MODES.items():
            expected[f"{name.removesuffix('.json')}.{mode}"] = [
                command, f"channels/{name}", *options
            ]
    assert {run: record["argv"] for run, record in CLI_RUNS.items()} == expected
    assert {path.stem for path in CLI_DIR.glob("*.json")} == set(expected)
