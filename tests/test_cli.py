"""Command line behavior, exit codes, and output formats."""

from __future__ import annotations

import ast
import contextlib
import io
import itertools
import json
import math
import os
import subprocess
import sys
import time

import pytest
from hypothesis import event, given, settings, strategies as st

from dnccap.cli import main
from dnccap.gf_builder import MAX_PATTERNS
from dnccap.oracle import enumerate_channel

from corpus import CHANNELS_DIR, GOLDEN_DIR, SRC_DIR, cli_env


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

# Exactly one 2 among 0s and 1s: capacity 0.5801882727, that of (0|1)* with
# weights 1 and sqrt 2. The quotient's denominator (1 - y - y**sqrt2)**2
# touches zero at the radius without changing sign.
DOUBLE_POLE_DOC = {
    "atoms": {"unit": 1.0, "r2": 2.0**0.5},
    "symbols": [
        {"name": "0", "weight": {"unit": 1}},
        {"name": "1", "weight": {"r2": 1}},
        {"name": "2", "weight": {"unit": 1}},
    ],
    "constraint": {"type": "regex", "expr": "(0|1)*2(0|1)*", "unambiguous": True},
}


IRRATIONAL_FREE_DOC = {
    "atoms": {"unit": 1.0, "pi": math.pi, "e": math.e},
    "symbols": [
        {"name": "0", "weight": {"unit": 1}},
        {"name": "1", "weight": {"pi": 1}},
        {"name": "2", "weight": {"e": 1}},
    ],
    "constraint": {"type": "free"},
}


def strict_json(text: str):
    """json.loads that refuses NaN, Infinity and -Infinity."""

    def refuse(name):
        raise ValueError(f"{name} is not valid JSON")

    return json.loads(text, parse_constant=refuse)


def binary_doc(constraint: dict) -> dict:
    return {
        "atoms": {"unit": 1.0},
        "symbols": [{"name": n, "weight": {"unit": 1}} for n in "01"],
        "constraint": constraint,
    }


# Languages with finitely many strings, so capacity 0: the quotient of each
# forbidden set is a polynomial over the constant denominator 1.
FINITE_DOCS = {
    "forbid-0-11": binary_doc({"type": "forbidden", "patterns": ["0", "11"]}),
    "forbid-00-11-10": binary_doc({"type": "forbidden", "patterns": ["00", "11", "10"]}),
    "regex-two-symbols": binary_doc(
        {"type": "regex", "expr": "(0|1)(0|1)", "unambiguous": True}
    ),
}


class TestFiniteLanguages:
    @pytest.mark.parametrize("name", sorted(FINITE_DOCS))
    @pytest.mark.parametrize(
        "method, expected",
        [
            (None, None),
            ("pole", "smallest-pole"),
            ("characteristic", "characteristic-root"),
        ],
        ids=["auto", "pole", "characteristic"],
    )
    def test_every_analytic_route_answers_zero(self, capsys, tmp_path, name, method, expected):
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(FINITE_DOCS[name]))
        argv = ["capacity", str(path)] + (["--method", method] if method else [])
        code, out, err = run(capsys, *argv)
        assert (code, err) == (0, "")
        lines = out.splitlines()
        assert "radius or pole: inf" in lines
        assert "capacity: 0 nats per unit weight" in lines
        assert "note: denominator has no growth terms; finitely many strings, capacity 0" in lines
        code, out, err = run(capsys, *argv, "--json")
        assert (code, err) == (0, "")
        report = strict_json(out)
        assert report["radius_or_pole"] is None
        assert (report["capacity_nats"], report["error_bound"], report["iterations"]) == (0.0, 0.0, 0)
        if expected:
            assert report["method"] == expected

    @pytest.mark.parametrize("name", sorted(FINITE_DOCS))
    def test_the_oracle_agrees(self, capsys, tmp_path, name):
        # Every string of (0|1)(0|1) has weight 2: one weight class, and
        # the oracle still answers from its acyclic automaton.
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(FINITE_DOCS[name]))
        for cutoff in ("3", "6"):
            argv = ["capacity", str(path), "--method", "oracle", "--cutoff", cutoff]
            code, out, err = run(capsys, *argv)
            assert (code, err) == (0, "")
            lines = out.splitlines()
            assert "method: oracle-estimate" in lines
            assert "radius or pole: inf" in lines
            assert "capacity: 0 nats per unit weight" in lines
            assert "error bound: 0" in lines
            assert "note: automaton has no cycle; finitely many strings, capacity 0" in lines
            code, out, err = run(capsys, *argv, "--json")
            assert (code, err) == (0, "")
            report = strict_json(out)
            assert report["radius_or_pole"] is None
            assert (report["capacity_nats"], report["error_bound"]) == (0.0, 0.0)

    @pytest.mark.parametrize("name", sorted(FINITE_DOCS))
    def test_verify_passes(self, capsys, tmp_path, name):
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(FINITE_DOCS[name]))
        argv = ["capacity", str(path), "--verify", "--cutoff", "3"]
        code, out, err = run(capsys, *argv)
        assert (code, err) == (0, "")
        assert "verification: oracle agrees at cutoff 3" in out
        assert "lower bound 0)" in out
        code, out, err = run(capsys, *argv, "--json")
        assert (code, err) == (0, "")
        verification = strict_json(out)["verification"]
        assert verification["coefficients_match"] is True
        assert verification["estimate_nats"] == 0.0
        assert verification["estimate_within_bound"] is True


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

        # The command imports the oracle's functions when it runs.
        monkeypatch.setattr("dnccap.oracle.enumerate_channel", counting)
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

    def test_ternary_no_11_capacity(self, capsys, tmp_path):
        # Strings over 0, 1, 2 without 11 grow like (1 + sqrt 3)**n.
        doc = {
            "atoms": {"unit": 1.0},
            "symbols": [{"name": n, "weight": {"unit": 1}} for n in "012"],
            "constraint": {"type": "forbidden", "patterns": ["11"]},
        }
        path = tmp_path / "ternary-no-11.json"
        path.write_text(json.dumps(doc))
        code, out, _ = run(capsys, "capacity", str(path), "--json")
        assert code == 0
        report = json.loads(out)
        assert abs(report["capacity_nats"] - math.log(1 + math.sqrt(3))) <= report["error_bound"]

    def test_zero_capacity_prints_without_a_sign(self, capsys, tmp_path):
        # Forbidding "0" leaves one string per length: the pole is exactly
        # 1, and -log(1.0) is -0.0.
        doc = {
            "atoms": {"unit": 1.0},
            "symbols": [{"name": n, "weight": {"unit": 1}} for n in "01"],
            "constraint": {"type": "forbidden", "patterns": ["0"]},
        }
        path = tmp_path / "no-0.json"
        path.write_text(json.dumps(doc))
        code, out, _ = run(capsys, "capacity", str(path))
        assert code == 0
        assert "capacity: 0 nats per unit weight" in out.splitlines()
        code, out, _ = run(capsys, "capacity", str(path), "--json")
        assert code == 0
        assert '  "capacity_nats": 0.0,' in out.splitlines()

    def test_too_many_patterns_is_a_budget_error(self, tmp_path):
        # MAX_PATTERNS + 1 distinct patterns of one length: none contains another.
        patterns = ["".join(p) for p in itertools.product("01", repeat=4)]
        doc = {
            "atoms": {"unit": 1.0},
            "symbols": [{"name": n, "weight": {"unit": 1}} for n in "01"],
            "constraint": {"type": "forbidden", "patterns": patterns[: MAX_PATTERNS + 1]},
        }
        path = tmp_path / "many-patterns.json"
        path.write_text(json.dumps(doc))

        def dnc(*argv):
            return subprocess.run(
                [sys.executable, "-m", "dnccap", *argv, str(path)],
                capture_output=True, text=True, env=cli_env(), timeout=60,
            )

        for argv in (["gf"], ["capacity"], ["coefficients", "--cutoff", "6"]):
            proc = dnc(*argv)
            assert proc.returncode == 2
            assert proc.stderr.startswith("error:") and str(MAX_PATTERNS) in proc.stderr
            assert "Traceback" not in proc.stderr
        proc = dnc("coefficients", "--cutoff", "6", "--oracle")
        assert proc.returncode == 0, proc.stderr

    @pytest.mark.parametrize("extra", [[], ["--verify", "--cutoff", "12"]])
    def test_double_pole_is_an_error_not_a_bound(self, capsys, tmp_path, extra):
        # The pole scan sees no sign change, which proves nothing about a
        # root of even multiplicity, so it must not answer.
        path = tmp_path / "double-pole.json"
        path.write_text(json.dumps(DOUBLE_POLE_DOC))
        code, out, err = run(capsys, "capacity", str(path), *extra)
        assert code == 2
        assert out == ""
        assert err.startswith("error: no sign change")
        assert "at most" not in out + err

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

    @pytest.mark.parametrize(
        "argv, option",
        [
            (["--verify"], "--verify"),
            (["--method", "oracle"], "--method oracle"),
            (["--method", "oracle", "--verify"], "--method oracle"),
        ],
        ids=["verify", "oracle", "oracle-verify"],
    )
    def test_missing_cutoff_stops_before_any_work(
        self, capsys, monkeypatch, tmp_path, argv, option
    ):
        # Checked right after the spec is read: no quotient is built and
        # the oracle is not imported. The double pole's solve would fail
        # with an error of its own.
        def no_quotient(spec):
            raise AssertionError("build_gf called")

        monkeypatch.setattr("dnccap.cli.build_gf", no_quotient)
        monkeypatch.setitem(sys.modules, "dnccap.oracle", None)
        path = tmp_path / "double-pole.json"
        path.write_text(json.dumps(DOUBLE_POLE_DOC))
        assert run(capsys, "capacity", str(path), *argv) == (
            2, "", f"error: {option} requires --cutoff\n"
        )
        path.write_text("{")
        code, _, err = run(capsys, "capacity", str(path), *argv)
        assert code == 1
        assert "--cutoff" not in err

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
    @pytest.mark.parametrize("argv", [[], ["--cutoff", "20"], ["--cutoff", "30"]])
    def test_dense_weight_list_flags(self, capsys, argv):
        # A cutoff past the largest weight only adds flat thresholds.
        code, out, _ = run(capsys, "check-density", channel("dense-weights.json"), *argv)
        assert code == 4
        assert "too dense" in out

    def test_weight_list_verdict_is_a_heuristic(self, capsys):
        # A fit of a finite list can suggest growth but proves nothing, and
        # both outputs say so; a spec's answer is a proof and has no label.
        code, out, _ = run(capsys, "check-density", channel("dense-weights.json"))
        assert code == 4
        assert out.splitlines()[0] == (
            "method: heuristic least-squares fit of a finite weight list; "
            "it can suggest exponential growth, not prove it"
        )
        code, out, _ = run(capsys, "check-density", channel("dense-weights.json"), "--json")
        assert code == 4
        assert json.loads(out)["method"] == "heuristic least-squares fit of a finite weight list"
        code, out, _ = run(capsys, "check-density", channel("ex3.json"), "--json")
        assert code == 0
        assert "method" not in json.loads(out)

    def test_sparse_channel_passes(self, capsys):
        code, out, _ = run(
            capsys, "check-density", channel("ex3.json"), "--cutoff", "30"
        )
        assert code == 0
        assert "exponential growth: no" in out

    def test_channel_spec_needs_no_cutoff(self, capsys):
        # A spec is answered from its alphabet: 2 symbols of least weight 1.
        code, out, err = run(capsys, "check-density", channel("ex3.json"))
        assert (code, err) == (0, "")
        assert out.splitlines() == [
            "distinct weights below n: at most C(floor(n / 1) + 2, 2)",
            "exponential growth: no",
        ]

    def test_irrational_free_channel_is_not_dense(self, capsys, tmp_path):
        # 15 distinct weights below 6 over 1, pi and e fit an exponential
        # better than a polynomial, but counts below n are at most
        # C(n + 3, 3): the fit's "yes" at this cutoff was wrong.
        path = tmp_path / "free.json"
        path.write_text(json.dumps(IRRATIONAL_FREE_DOC))
        code, out, _ = run(capsys, "check-density", str(path), "--cutoff", "6", "--json")
        assert code == 0
        assert json.loads(out) == {
            "command": "check-density",
            "exponential_flag": False,
            "min_weight": 1.0,
            "symbols": 3,
        }

    def test_spec_far_cutoff_answers_at_once(self, capsys):
        # --cutoff and --margin stay accepted for a spec, and enumerate nothing.
        start = time.perf_counter()
        code, out, _ = run(
            capsys, "check-density", channel("ex3.json"), "--cutoff", "2e6", "--margin", "0"
        )
        assert time.perf_counter() - start < 0.5
        assert code == 0
        assert "exponential growth: no" in out

    def test_zero_margin_disables_flag(self, capsys):
        code, _, _ = run(
            capsys,
            "check-density",
            channel("dense-weights.json"),
            "--margin",
            "0",
        )
        assert code == 0

    @pytest.mark.parametrize(
        "weights, index",
        [
            ("[1, 2, 3, 4, 5, Infinity]", 5),
            ("[1, 2, NaN, 4, 5]", 2),
            ("[-3, -2, 1, 2, 3, 4, 5]", 0),
            ("[1, 2, 3, 4, 1" + "0" * 400 + "]", 4),
        ],
        ids=["infinity", "nan", "negative", "overflowing-integer"],
    )
    def test_bad_weight_is_a_spec_error(self, capsys, tmp_path, weights, index):
        path = tmp_path / "weights.json"
        path.write_text('{"weights": ' + weights + "}")
        code, out, err = run(capsys, "check-density", str(path))
        assert code == 1
        assert out == ""
        assert f"weights[{index}]" in err

    def test_zero_weight_allowed(self, capsys, tmp_path):
        path = tmp_path / "weights.json"
        path.write_text(json.dumps({"weights": [0, 1, 2, 3, 4, 5, 6, 7, 8]}))
        code, _, _ = run(capsys, "check-density", str(path))
        assert code == 0

    @pytest.mark.parametrize(
        "source, argv",
        [
            ("dense-weights.json", ["--cutoff", "1e9"]),
            ([1.0, 2.0, 3.0, 4.0, 1e12], []),
        ],
        ids=["cutoff", "largest-weight"],
    )
    def test_threshold_budget_fails_at_once(self, capsys, tmp_path, source, argv):
        if isinstance(source, str):
            path = channel(source)
        else:
            path = tmp_path / "weights.json"
            path.write_text(json.dumps({"weights": source}))
        start = time.perf_counter()
        code, _, err = run(capsys, "check-density", str(path), *argv)
        assert time.perf_counter() - start < 0.5
        assert code == 2
        assert "thresholds" in err


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

    def test_oversized_numbers_are_spec_errors(self, tmp_path):
        # An atom or multiplicity too large for a float, and a symbol weight
        # that overflows to inf.
        docs = {
            "atom": ({"unit": 10**400}, {"unit": 1}, "atoms.unit: "),
            "multiplicity": ({"unit": 1.0}, {"unit": 10**400}, "symbols[1].weight: "),
            "weight": ({"unit": 1e308}, {"unit": 10}, "symbols[1].weight: "),
        }
        for name, (atoms, weight, where) in docs.items():
            path = tmp_path / f"{name}.json"
            path.write_text(json.dumps({
                "atoms": atoms,
                "symbols": [{"name": "0", "weight": {"unit": 1}},
                            {"name": "1", "weight": weight}],
                "constraint": {"type": "free"},
            }))
            for argv in (["capacity"], ["gf"], ["coefficients", "--cutoff", "3"]):
                proc = subprocess.run(
                    [sys.executable, "-m", "dnccap", *argv, str(path)],
                    capture_output=True, text=True, env=cli_env(), timeout=60,
                )
                assert proc.returncode == 1, (name, argv, proc.stderr)
                assert proc.stderr.startswith(f"error: {where}")
                assert "Traceback" not in proc.stderr


    def test_overflowing_word_weights_are_spec_errors(self, tmp_path):
        # Each symbol weighs 1e308, so the word "ab" weighs 2e308: in the
        # denominator of (ab)*, and in the cluster quotient of forbidding "ab".
        constraints = {
            "regex": {"type": "regex", "expr": "(ab)*", "unambiguous": True},
            "forbidden": {"type": "forbidden", "patterns": ["ab"]},
        }
        for name, constraint in constraints.items():
            path = tmp_path / f"{name}.json"
            path.write_text(json.dumps({
                "atoms": {"u": 1e308},
                "symbols": [{"name": n, "weight": {"u": 1}} for n in "ab"],
                "constraint": constraint,
            }))
            commands = (["capacity"], ["gf"], ["gf", "--json"], ["coefficients", "--cutoff", "3"])
            for argv in commands:
                proc = subprocess.run(
                    [sys.executable, "-m", "dnccap", *argv, str(path)],
                    capture_output=True, text=True, env=cli_env(), timeout=60,
                )
                assert proc.returncode == 1, (name, argv, proc.stderr)
                assert proc.stderr.startswith("error: constraint: "), (name, argv)
                assert "Traceback" not in proc.stderr
                assert proc.stdout == ""


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


def test_cli_import_loads_no_heavy_stdlib_module():
    # -S skips site, so a .pth file that imports one of these cannot hide
    # an import of it by dnccap. The oracle and its automaton load only
    # in the commands that enumerate.
    code = "import sys, dnccap.cli; print(sorted(sys.modules))"
    proc = subprocess.run(
        [sys.executable, "-S", "-c", code],
        env={**os.environ, "PYTHONPATH": str(SRC_DIR)},
        capture_output=True,
        text=True,
        check=True,
    )
    loaded = set(ast.literal_eval(proc.stdout))
    assert "dnccap.cli" in loaded
    assert loaded.isdisjoint({"dataclasses", "inspect", "fractions", "decimal", "typing"})
    assert loaded.isdisjoint({"dnccap.oracle", "dnccap.automaton"})


def test_spec_density_loads_no_oracle():
    code = (
        "import sys\n"
        "from dnccap.cli import main\n"
        "code = main(['check-density', sys.argv[1], '--cutoff', '30'])\n"
        "print(code, sorted(m for m in sys.modules if m in ('dnccap.oracle', 'dnccap.automaton')))"
    )
    proc = subprocess.run(
        [sys.executable, "-S", "-c", code, channel("ex3.json")],
        env={**os.environ, "PYTHONPATH": str(SRC_DIR)},
        capture_output=True,
        text=True,
        check=True,
    )
    assert proc.stdout.splitlines()[-1] == "0 []"


def test_package_serves_the_oracle_on_first_use():
    code = (
        "import sys, dnccap\n"
        "print(sorted(m for m in sys.modules if m in ('dnccap.oracle', 'dnccap.automaton')))\n"
        "from dnccap import EnumerationResult, enumerate_channel, automaton, oracle\n"
        "print(enumerate_channel is oracle.enumerate_channel, "
        "automaton is sys.modules['dnccap.automaton'], "
        "set(dnccap.__all__) <= set(dir(dnccap)), hasattr(dnccap, 'nothing'))"
    )
    proc = subprocess.run(
        [sys.executable, "-S", "-c", code],
        env={**os.environ, "PYTHONPATH": str(SRC_DIR)},
        capture_output=True,
        text=True,
        check=True,
    )
    assert proc.stdout.splitlines() == ["[]", "True True True False"]


# argv, and the exit code the command gives with or without numpy.
WITHOUT_NUMPY = {
    "capacity": (["capacity", "ex3.json", "--json"], 0),
    "coefficients": (["coefficients", "ex2.json", "--cutoff", "10"], 0),
    "gf": (["gf", "avoid101.json"], 0),
    "check-density-weights": (["check-density", "dense-weights.json", "--json"], 4),
    "check-density-spec": (["check-density", "ex3.json", "--cutoff", "20"], 0),
}


@pytest.mark.parametrize("argv, expected", WITHOUT_NUMPY.values(), ids=WITHOUT_NUMPY)
def test_subcommand_runs_without_numpy(argv, expected):
    # numpy is not a runtime dependency: with numpy installed no subcommand
    # loads it, and with its import blocked every subcommand gives the
    # same exit code and output.
    cmd = [argv[0], channel(argv[1]), *argv[2:]]
    run_main = (
        "from dnccap.cli import main; code = main(sys.argv[1:]); "
        "print('numpy' in sys.modules, file=sys.stderr); sys.exit(code)"
    )
    with_numpy, without_numpy = [
        subprocess.run(
            [sys.executable, "-c", prefix + run_main, *cmd],
            env=cli_env(),
            capture_output=True,
            text=True,
        )
        for prefix in ("import sys; ", "import sys; sys.modules['numpy'] = None; ")
    ]
    assert with_numpy.returncode == without_numpy.returncode == expected
    assert with_numpy.stderr.endswith("False\n")
    assert without_numpy.stdout == with_numpy.stdout
    assert "Traceback" not in without_numpy.stderr


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


# Numeric option values, drawn half from each list; cutoffs stay small
# enough that every drawn command finishes in milliseconds.
PLAIN_NUMBERS = ["0", "-0", "0.5", "3", "8", "1e-300"]
HOSTILE_NUMBERS = ["-1", "nan", "inf", "-inf", "1e400", "abc", ""]

MALFORMED_INPUTS = {
    "broken.json": b'{"atoms": ',
    "empty.json": b"",
    "not-utf8.json": b"\xff\xfe\x00",
    "array.json": b"[1, 2, 3]",
    "bad-atom.json": b'{"atoms": {"unit": -1.0}, "symbols": [], "constraint": {"type": "free"}}',
    "ambiguous.json": json.dumps(AMBIGUOUS_DOC).encode(),
    "inf-weight.json": b'{"weights": [1, 2, 3, 4, 5, Infinity]}',
    "nan-weight.json": b'{"weights": [1, NaN, 3]}',
    "negative-weight.json": b'{"weights": [-3, -2, 1, 2, 3, 4, 5]}',
    "huge-weight.json": b'{"weights": [1, 2, 3, 4, 1e12]}',
    "huge-integer.json": b'{"weights": [1, 2, 1' + b"0" * 400 + b"]}",
    "string-weight.json": b'{"weights": ["1"]}',
    "no-weights.json": b'{"weights": []}',
}


@pytest.fixture(scope="module")
def fuzz_files(tmp_path_factory):
    root = tmp_path_factory.mktemp("fuzz")
    for name, body in MALFORMED_INPUTS.items():
        (root / name).write_bytes(body)
    shipped = sorted(str(path) for path in CHANNELS_DIR.glob("*.json"))
    malformed = [str(root / name) for name in sorted(MALFORMED_INPUTS)]
    return shipped, malformed + [str(root / "missing.json"), str(root)]


@st.composite
def argvs(draw, files):
    number = st.sampled_from(PLAIN_NUMBERS) | st.sampled_from(HOSTILE_NUMBERS)
    sub = draw(st.sampled_from(["capacity", "coefficients", "check-density", "gf"]))
    shipped, malformed = files
    argv = [sub, draw(st.sampled_from(shipped) | st.sampled_from(malformed))]
    if sub == "capacity":
        if draw(st.booleans()):
            argv += ["--method", draw(st.sampled_from(["characteristic", "pole", "oracle", "x"]))]
        if draw(st.booleans()):
            argv.append("--verify")
        if draw(st.booleans()):
            argv += ["--tol", draw(number)]
    if sub == "coefficients" and draw(st.booleans()):
        argv.append("--oracle")
    if sub == "check-density" and draw(st.booleans()):
        argv += ["--margin", draw(number)]
    if sub != "gf" and draw(st.booleans()):
        argv += ["--cutoff", draw(number)]
    if draw(st.booleans()):
        argv.append("--json")
    return argv


@given(data=st.data())
@settings(max_examples=300, deadline=None)
def test_fuzzed_argv_exits_with_a_documented_code(fuzz_files, data):
    # Usage errors leave through argparse's SystemExit(2); anything else
    # must come back from main as an exit code, an error with a message on
    # stderr and any other outcome with a report on stdout.
    argv = data.draw(argvs(fuzz_files))
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    event(f"exit {code}")
    assert code in {0, 1, 2, 3, 4}
    if code in (1, 2):
        assert stderr.getvalue().startswith(("error: ", "usage: "))
    else:
        assert stdout.getvalue()
        if "--json" in argv:
            strict_json(stdout.getvalue())
