"""Command line behavior, exit codes, and output formats."""

from __future__ import annotations

import json
import subprocess
import sys

import pytest

from dnccap.cli import main
from dnccap.oracle import enumerate_channel

from corpus import CHANNELS_DIR, GOLDEN_DIR, cli_env


def channel(name: str) -> str:
    return str(CHANNELS_DIR / name)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


AMBIGUOUS_DOC = {
    "atoms": {"unit": 1.0},
    "symbols": [{"name": "0", "weight": {"unit": 1}}],
    "constraint": {"type": "regex", "expr": "(0|00)*", "unambiguous": True},
}


class TestCapacity:
    def test_mixed_weight_channel_text(self, capsys):
        code, out, _ = run(capsys, "capacity", channel("ex2.json"))
        assert code == 0
        assert "0.72937" in out
        assert "0.31558" in out
        assert "characteristic-root" in out

    def test_cubic_channel_json(self, capsys):
        code, out, _ = run(capsys, "capacity", channel("ex3.json"), "--json")
        assert code == 0
        payload = json.loads(out)
        assert payload["command"] == "capacity"
        assert payload["method"] == "smallest-pole"
        assert abs(payload["radius_or_pole"] - 0.5436890126920764) <= 1e-9
        assert abs(payload["capacity_nats"] - 0.6093778634360062) <= 1e-9

    def test_explicit_methods_agree(self, capsys):
        reports = {}
        for method in ("characteristic", "pole"):
            code, out, _ = run(
                capsys,
                "capacity",
                channel("avoid11.json"),
                "--method",
                method,
                "--json",
            )
            assert code == 0
            reports[method] = json.loads(out)
        assert (
            abs(
                reports["characteristic"]["capacity_nats"]
                - reports["pole"]["capacity_nats"]
            )
            <= 1e-8
        )

    def test_oracle_method(self, capsys):
        code, out, _ = run(
            capsys,
            "capacity",
            channel("avoid11.json"),
            "--method",
            "oracle",
            "--cutoff",
            "30",
            "--json",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["method"] == "oracle-estimate"
        assert abs(payload["capacity_nats"] - 0.470428) <= 1e-6

    def test_oracle_verify_enumerates_once(self, capsys, monkeypatch):
        calls = []

        def counting(*args, **kwargs):
            calls.append(args)
            return enumerate_channel(*args, **kwargs)

        monkeypatch.setattr("dnccap.cli.enumerate_channel", counting)
        code, out, _ = run(
            capsys,
            "capacity",
            channel("ex3.json"),
            "--method",
            "oracle",
            "--cutoff",
            "12",
            "--verify",
            "--json",
        )
        assert code == 0
        assert len(calls) == 1
        assert out == (GOLDEN_DIR / "ex3.oracle-verify.json").read_text()

    def test_oracle_method_requires_cutoff(self, capsys):
        code, _, err = run(
            capsys, "capacity", channel("avoid11.json"), "--method", "oracle"
        )
        assert code == 2
        assert "--cutoff" in err

    def test_characteristic_method_rejects_non_star(self, capsys):
        code, _, err = run(
            capsys,
            "capacity",
            channel("avoid101.json"),
            "--method",
            "characteristic",
        )
        assert code == 2
        assert "star" in err

    def test_multi_pattern_channel_not_supported(self, capsys, tmp_path):
        doc = {
            "atoms": {"unit": 1.0},
            "symbols": [
                {"name": "0", "weight": {"unit": 1}},
                {"name": "1", "weight": {"unit": 1}},
            ],
            "constraint": {"type": "forbidden", "patterns": ["11", "00"]},
        }
        path = tmp_path / "two-patterns.json"
        path.write_text(json.dumps(doc))
        code, _, err = run(capsys, "capacity", str(path))
        assert code == 2
        assert "regex" in err

    def test_verify_agreement(self, capsys):
        code, out, _ = run(
            capsys,
            "capacity",
            channel("ex3.json"),
            "--verify",
            "--cutoff",
            "20",
            "--json",
        )
        assert code == 0
        verification = json.loads(out)["verification"]
        assert verification["coefficients_match"] is True
        assert verification["estimate_within_bound"] is True
        assert verification["strings"] > 200

    def test_verify_requires_cutoff(self, capsys):
        code, _, err = run(capsys, "capacity", channel("ex3.json"), "--verify")
        assert code == 2
        assert "--cutoff" in err

    def test_verify_catches_ambiguous_regex(self, capsys, tmp_path):
        path = tmp_path / "ambiguous.json"
        path.write_text(json.dumps(AMBIGUOUS_DOC))
        code, out, _ = run(
            capsys, "capacity", str(path), "--verify", "--cutoff", "6", "--json"
        )
        assert code == 3
        verification = json.loads(out)["verification"]
        assert verification["coefficients_match"] is False
        assert "first_mismatch" in verification


class TestCoefficients:
    def test_table(self, capsys):
        code, out, _ = run(
            capsys, "coefficients", channel("ex3.json"), "--cutoff", "5"
        )
        assert code == 0
        counts = [line.split()[1] for line in out.splitlines()[1:]]
        assert counts == ["1", "2", "4", "7", "13", "24"]

    def test_series_and_oracle_agree(self, capsys):
        code, out_series, _ = run(
            capsys, "coefficients", channel("ex2.json"), "--cutoff", "8", "--json"
        )
        assert code == 0
        code, out_oracle, _ = run(
            capsys,
            "coefficients",
            channel("ex2.json"),
            "--cutoff",
            "8",
            "--oracle",
            "--json",
        )
        assert code == 0
        series = json.loads(out_series)
        oracle = json.loads(out_oracle)
        assert series["source"] == "series"
        assert oracle["source"] == "oracle"
        assert series["rows"] == oracle["rows"]

    def test_colliding_weights_merge_with_warning(self, capsys):
        code, out, err = run(
            capsys,
            "coefficients",
            channel("half-step.json"),
            "--cutoff",
            "3",
            "--json",
        )
        assert code == 0
        assert "printed as one row" in err
        rows = json.loads(out)["rows"]
        by_weight = {row["weight"]: row for row in rows}
        # Weight 1 is reached as one unit step or two half steps.
        assert len(by_weight[1.0]["terms"]) == 2
        # Merged rows still carry Fibonacci totals: 1, 1, 2, 3, 5, 8, 13.
        assert [row["count"] for row in rows] == [1, 1, 2, 3, 5, 8, 13]


class TestCheckDensity:
    def test_dense_weight_list_flags(self, capsys):
        code, out, _ = run(capsys, "check-density", channel("dense-weights.json"))
        assert code == 4
        assert "too dense" in out

    def test_sparse_channel_passes(self, capsys):
        code, out, _ = run(
            capsys, "check-density", channel("ex3.json"), "--cutoff", "30"
        )
        assert code == 0
        assert "exponential growth: no" in out

    def test_channel_spec_requires_cutoff(self, capsys):
        code, _, err = run(capsys, "check-density", channel("ex3.json"))
        assert code == 2
        assert "--cutoff" in err

    def test_zero_margin_disables_flag(self, capsys):
        code, _, _ = run(
            capsys,
            "check-density",
            channel("dense-weights.json"),
            "--margin",
            "0",
        )
        assert code == 0


class TestGf:
    def test_json_terms(self, capsys):
        code, out, _ = run(capsys, "gf", channel("ex3.json"), "--json")
        assert code == 0
        payload = json.loads(out)
        assert payload["numerator"] == [
            {"coefficient": 1, "exponents": {}, "weight": 0.0},
            {"coefficient": 1, "exponents": {"unit": 1}, "weight": 1.0},
            {"coefficient": 1, "exponents": {"unit": 2}, "weight": 2.0},
        ]
        assert [t["coefficient"] for t in payload["denominator"]] == [1, -1, -1, -1]

    def test_text_rendering(self, capsys):
        code, out, _ = run(capsys, "gf", channel("binary.json"))
        assert code == 0
        assert "numerator: 1" in out
        assert "denominator: 1 - 2*y^1" in out


class TestErrors:
    def test_missing_file(self, capsys):
        code, _, err = run(capsys, "capacity", "/no/such/file.json")
        assert code == 1
        assert "cannot read spec" in err

    def test_malformed_json(self, capsys, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text('{"atoms": ')
        code, _, err = run(capsys, "capacity", str(path))
        assert code == 1
        assert "error:" in err

    def test_invalid_spec_reports_position(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"atoms": {"unit": -1.0}, "symbols": [], "constraint": {"type": "free"}}')
        code, _, err = run(capsys, "capacity", str(path))
        assert code == 1
        assert "unit" in err


class TestArgumentValidation:
    """Non-finite or out-of-range numbers are usage errors (exit 2 with a
    message), never a traceback or a plausible wrong answer."""

    def rejected(self, capsys, *argv):
        with pytest.raises(SystemExit) as info:
            main(list(argv))
        err = capsys.readouterr().err
        assert info.value.code == 2
        assert "expected a finite" in err
        assert "Traceback" not in err
        return err

    @pytest.mark.parametrize("cutoff", ["nan", "-1"])
    def test_verify_cutoff(self, capsys, cutoff):
        err = self.rejected(
            capsys, "capacity", channel("ex3.json"), "--verify", "--cutoff", cutoff
        )
        assert "--cutoff" in err

    @pytest.mark.parametrize("cutoff", ["nan", "-1"])
    def test_coefficients_cutoff(self, capsys, cutoff):
        err = self.rejected(capsys, "coefficients", channel("ex3.json"), "--cutoff", cutoff)
        assert "--cutoff" in err

    def test_nan_tolerance(self, capsys):
        err = self.rejected(capsys, "capacity", channel("ex2.json"), "--tol", "nan")
        assert "--tol" in err

    def test_nan_margin(self, capsys):
        err = self.rejected(
            capsys, "check-density", channel("dense-weights.json"), "--margin", "nan"
        )
        assert "--margin" in err

    def test_library_value_error_is_an_error_exit(self, capsys, monkeypatch):
        def bad_cutoff(*args, **kwargs):
            raise ValueError("cutoff must be finite and nonnegative")

        monkeypatch.setattr("dnccap.cli.expand_series", bad_cutoff)
        code, _, err = run(capsys, "coefficients", channel("ex3.json"), "--cutoff", "5")
        assert code == 2
        assert err == "error: cutoff must be finite and nonnegative\n"


def test_cli_import_does_not_load_numpy():
    code = "import sys, dnccap.cli; print('numpy' in sys.modules)"
    proc = subprocess.run(
        [sys.executable, "-c", code],
        env=cli_env(),
        capture_output=True,
        text=True,
        check=True,
    )
    assert proc.stdout.strip() == "False"


class TestDeterminism:
    @pytest.mark.parametrize(
        "argv",
        [
            ("capacity", "ex2.json", "--json"),
            ("coefficients", "ex2.json", "--cutoff", "10", "--json"),
            ("gf", "avoid101.json", "--json"),
        ],
        ids=["capacity", "coefficients", "gf"],
    )
    def test_repeated_runs_are_byte_identical(self, capsys, argv):
        cmd = [argv[0], channel(argv[1]), *argv[2:]]
        first = run(capsys, *cmd)
        second = run(capsys, *cmd)
        assert first == second
