"""End-to-end CLI behavior: exit codes, report schema, determinism, CSV dumps."""

import contextlib
import csv
import errno
import io
import json
import math
import os
import stat
import subprocess
import sys
import tempfile
import threading
from itertools import cycle, islice, zip_longest
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import Phase, given, settings
from hypothesis import strategies as st

from vesselsim import (
    TOTAL_LITERS,
    TSIRELSON_BOUND,
    HiddenVariableSampler,
    TiePolicy,
    __version__,
    born_samples,
    commands,
    locality,
    pair_chunks,
    parse_scenario,
    scan_columns,
    scenario_from_dict,
    singlet_analytic_estimates,
    singlet_model,
    streams,
    vessel_model,
    vessels,
)
from vesselsim.bell import PAIR_STREAM, mean_and_stderr
from vesselsim.cli import commit, main, render_csv, render_json
from vesselsim.commands import CSV_ROWS_PER_WRITE
from vesselsim.errors import DegenerateTieError, VesselSimError

from strategies import FOLD_FIELDS, NORMAL, TIE_PRONE, UNIFORM_AMPLITUDES, scenario_dicts


def write_scenario(tmp_path, name="scenario.json", **overrides):
    data = {"seed": 42}
    data.update(overrides)
    path = tmp_path / name
    path.write_text(json.dumps(data))
    return str(path)


def run_cli(args):
    return main(args)


def run_json(tmp_path, subcommand, scenario_path, *extra):
    out = tmp_path / "report.json"
    code = run_cli([subcommand, "--scenario", scenario_path, "--out", str(out), *extra])
    assert code == 0
    return json.loads(out.read_text())


def run_csv(tmp_path, subcommand, scenario_path, *extra):
    out = tmp_path / "dump.csv"
    code = run_cli(
        [subcommand, "--scenario", scenario_path, "--out", str(out), "--format", "csv", *extra]
    )
    assert code == 0
    with open(out, newline="") as handle:
        return list(csv.DictReader(handle))


class TestExitCodes:
    def test_success_is_zero(self, tmp_path, capsys):
        scenario = write_scenario(tmp_path, runs_per_pair=10)
        assert run_cli(["vessel-chsh", "--scenario", scenario]) == 0
        capsys.readouterr()

    def test_config_error_is_two(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text("{}")
        assert run_cli(["vessel-chsh", "--scenario", str(path)]) == 2
        assert "seed" in capsys.readouterr().err

    def test_domain_error_is_three(self, tmp_path, capsys):
        scenario = write_scenario(tmp_path)
        code = run_cli(
            ["flow", "--scenario", scenario, "--lambda-a", "1.0", "--lambda-b", "2.0", "--dt", "-1"]
        )
        assert code == 3
        assert "step" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "content, message",
        [
            (b'\xff\xfe{"seed": 1}', "not UTF-8"),
            (b"[" * 200_000 + b"]" * 200_000, "nested too deeply"),
            # Past the interpreter's int-string limit (4300 digits by default).
            (b'{"seed": 1' + b"0" * 4400 + b"}", "too many digits"),
            (b'{"seed": 1, "seed": 2}', "field 'seed' is given more than once"),
            (
                b'{"seed": 1, "system": {"total_volume": 20.0, "total_volume": 30.0}}',
                "field 'total_volume' is given more than once",
            ),
        ],
        ids=["not-utf-8", "too-deep", "int-too-long", "repeated-field", "repeated-nested-field"],
    )
    def test_unreadable_scenario_is_a_config_error(self, tmp_path, capsys, content, message):
        path = tmp_path / "scenario.json"
        path.write_bytes(content)
        out = tmp_path / "report.json"
        assert run_cli(["vessel-chsh", "--scenario", str(path), "--out", str(out)]) == 2
        assert message in capsys.readouterr().err
        assert not out.exists()

    def test_missing_required_sections_are_config_errors(self, tmp_path, capsys):
        scenario = write_scenario(tmp_path)
        for argv, field in [
            (["sample-state"], "amplitudes"),
            (["quantum-chsh"], "singlet_angles"),
            (["quantum-chsh", "--analytic"], "singlet_angles"),
        ]:
            assert run_cli([*argv, "--scenario", scenario]) == 2
            message = f"scenario.{field}: missing; {argv[0]} needs them"
            assert capsys.readouterr().err == f"vesselsim: configuration error: {message}\n"

    def test_no_output_written_on_error(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text("{}")
        out = tmp_path / "report.json"
        run_cli(["vessel-chsh", "--scenario", str(path), "--out", str(out)])
        assert not out.exists()
        capsys.readouterr()
        # A worker count below 1 is a usage error, caught before any run.
        scenario = write_scenario(tmp_path, singlet_angles=[0, 90, 45, 135])
        for subcommand, workers in (("vessel-chsh", "0"), ("quantum-chsh", "-3")):
            argv = [subcommand, "--scenario", scenario, "--out", str(out), "--workers", workers]
            with pytest.raises(SystemExit) as exit_info:
                run_cli(argv)
            assert exit_info.value.code == 2
            assert not out.exists()
            assert "--workers" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "subcommand, overrides",
        [
            ("vessel-chsh", {"system": {"total_volume": math.nan}}),
            ("flow", {"system": {"total_volume": math.inf}}),
            ("vessel-chsh", {"system": {"total_volume": 10**400}}),
            ("vessel-chsh", {"sampler": {"high": math.inf}}),
            ("locality-check", {"sampler": {"low": -math.inf}}),
            ("quantum-chsh", {"singlet_angles": [math.nan, 0, 0, 0]}),
            ("quantum-chsh", {"singlet_angles": [0, 90, math.inf, 135]}),
            ("sample-state", {"amplitudes": [[math.nan, 0.0]] + [[0.0, 0.0]] * 10}),
        ],
        ids=[
            "total_volume-nan",
            "total_volume-inf",
            "total_volume-overflowing-int",
            "sampler.high-inf",
            "sampler.low-minus-inf",
            "singlet_angles-nan",
            "singlet_angles-inf",
            "amplitudes-nan",
        ],
    )
    def test_non_finite_numbers_are_config_errors(self, tmp_path, capsys, subcommand, overrides):
        # json.dumps writes NaN and Infinity tokens, which json.loads accepts.
        scenario = write_scenario(tmp_path, **overrides)
        out = tmp_path / "report.json"
        extra = ["--lambda-a", "1.0", "--lambda-b", "2.0"] if subcommand == "flow" else []
        assert run_cli([subcommand, "--scenario", scenario, "--out", str(out), *extra]) == 2
        assert not out.exists()
        assert "finite" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "option, value", [("--lambda-a", "inf"), ("--lambda-b", "nan"), ("--dt", "inf")]
    )
    def test_non_finite_flow_options_are_usage_errors(self, tmp_path, capsys, option, value):
        scenario = write_scenario(tmp_path)
        out = tmp_path / "report.json"
        options = {"--lambda-a": "1.0", "--lambda-b": "2.0", "--dt": "1e-4", option: value}
        argv = ["flow", "--scenario", scenario, "--out", str(out)]
        with pytest.raises(SystemExit) as exit_info:
            run_cli(argv + [item for pair in options.items() for item in pair])
        assert exit_info.value.code == 2
        assert not out.exists()
        assert "finite" in capsys.readouterr().err

    @pytest.mark.parametrize("lambda_a", ["0", "-1"])
    def test_non_positive_flow_diameter_is_a_config_error(self, tmp_path, capsys, lambda_a):
        scenario = write_scenario(tmp_path)
        out = tmp_path / "report.json"
        argv = ["flow", "--scenario", scenario, "--out", str(out)]
        # "--option=value", so argparse takes "-1" as a value, not an option.
        assert run_cli(argv + [f"--lambda-a={lambda_a}", "--lambda-b=2.0"]) == 2
        assert not out.exists()
        assert "strictly positive" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "lambda_a, lambda_b, dt, overrides",
        [
            ("1e-200", "1e-200", "1e-4", {}),
            ("1e200", "1", "1e-4", {}),
            ("1.0", "2.0", "1e-4", {"system": {"total_volume": 1e308}}),
            ("0.23", "0.01", "0.19", {"system": {"total_volume": 1.5e149}}),
        ],
        ids=["rates-underflow", "rate-overflows", "step-count-overflows", "step-count-too-large"],
    )
    def test_flow_out_of_float_range_is_three(
        self, tmp_path, capsys, lambda_a, lambda_b, dt, overrides
    ):
        scenario = write_scenario(tmp_path, **overrides)
        out = tmp_path / "report.json"
        argv = ["flow", "--scenario", scenario, "--out", str(out)]
        argv += ["--lambda-a", lambda_a, "--lambda-b", lambda_b, "--dt", dt]
        assert run_cli(argv) == 3
        assert not out.exists()
        assert "float" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "subcommand, runs",
        [
            ("vessel-chsh", 10**30),
            ("quantum-chsh", 10**30),
            ("locality-check", 2**53 + 1),
            ("sample-state", 2**53 + 1),
        ],
    )
    def test_runs_per_pair_past_2_53_is_a_config_error(self, tmp_path, capsys, subcommand, runs):
        scenario = write_scenario(
            tmp_path,
            runs_per_pair=runs,
            amplitudes=UNIFORM_AMPLITUDES,
            singlet_angles=[0, 90, 45, 135],
        )
        out = tmp_path / "report.json"
        assert run_cli([subcommand, "--scenario", scenario, "--out", str(out)]) == 2
        assert not out.exists()
        assert "runs_per_pair" in capsys.readouterr().err

    @pytest.mark.parametrize("subcommand", ["locality-check", "sample-state"])
    @pytest.mark.parametrize("fmt", ["json", "csv"])
    def test_out_of_memory_is_three(self, tmp_path, capsys, monkeypatch, subcommand, fmt):
        # Runs are drawn a chunk at a time; with chunks of 2**50 float64
        # draws the first one needs 8 PiB, more than a 64-bit address space
        # holds, so its allocation fails at once.
        monkeypatch.setattr(streams, "CHUNK_SIZE", 2**50)
        scenario = write_scenario(tmp_path, runs_per_pair=2**50, amplitudes=UNIFORM_AMPLITUDES)
        out = tmp_path / "report.json"
        argv = [subcommand, "--scenario", scenario, "--out", str(out), "--format", fmt]
        assert run_cli(argv) == 3
        assert not out.exists()
        assert sorted(path.name for path in tmp_path.iterdir()) == ["scenario.json"]
        assert "out of memory" in capsys.readouterr().err

    def test_report_that_is_not_strict_json_is_three(self, tmp_path, capsys, monkeypatch):
        def nan_report(scenario, **options):
            return {"value": math.nan}, commands.RunDump(["value"], [(math.nan,)])

        monkeypatch.setattr(commands, "vessel_chsh", nan_report)
        scenario = write_scenario(tmp_path)
        out = tmp_path / "report.json"
        assert run_cli(["vessel-chsh", "--scenario", scenario, "--out", str(out)]) == 3
        assert not out.exists()
        assert "strict JSON" in capsys.readouterr().err


def tied_draws(monkeypatch):
    """Make every command's sampler draws, which all come in chunks, hold an
    exact tie at row 1."""
    original_chunks = HiddenVariableSampler.draw_chunks

    def draw_chunks(self, n, key=()):
        for index, (lambda_a, lambda_b) in enumerate(original_chunks(self, n, key)):
            if index == 0:
                lambda_b[1] = lambda_a[1]
            yield lambda_a, lambda_b

    monkeypatch.setattr(HiddenVariableSampler, "draw_chunks", draw_chunks)


def tie_in_chunk_1(monkeypatch, row=7):
    """Make row ``row`` of chunk 1 of every chunked draw an exact tie."""
    original_chunks = HiddenVariableSampler.draw_chunks

    def draw_chunks(self, n, key=()):
        for index, (lambda_a, lambda_b) in enumerate(original_chunks(self, n, key)):
            if index == 1:
                lambda_b[row] = lambda_a[row]
            yield lambda_a, lambda_b

    monkeypatch.setattr(HiddenVariableSampler, "draw_chunks", draw_chunks)


class TestLocalityTies:
    @pytest.mark.parametrize("fmt", ["json", "csv"])
    def test_tie_under_error_policy_is_three(self, tmp_path, capsys, monkeypatch, fmt):
        tied_draws(monkeypatch)
        scenario = write_scenario(tmp_path, runs_per_pair=5)
        out = tmp_path / "report"
        code = run_cli(
            ["locality-check", "--scenario", scenario, "--format", fmt, "--out", str(out)]
        )
        assert code == 3
        assert not out.exists()
        assert "equal siphon diameters" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "policy, expected", [("favor_left", 1), ("favor_right", -1), ("split_coin", None)]
    )
    def test_tie_witness_follows_policy(self, tmp_path, monkeypatch, policy, expected):
        tied_draws(monkeypatch)
        scenario = write_scenario(tmp_path, runs_per_pair=5, tie_policy=policy)
        report = run_json(tmp_path, "locality-check", scenario)
        rows = run_csv(tmp_path, "locality-check", scenario)
        tie = rows[1]
        assert tie["lambda_a"] == tie["lambda_b"]
        assert tie["product_ab"] == "-1"
        assert tie["witness_with_b"] in ("1", "-1")
        if expected is not None:
            assert int(tie["witness_with_b"]) == expected
        assert (tie["witness_differs"] == "True") == (tie["witness_with_b"] == "-1")
        witness_count = sum(row["witness_differs"] == "True" for row in rows)
        assert witness_count == report["factorization"]["witness_count"]
        assert report["factorization"]["unsatisfiable_count"] == 5

    def test_tie_in_a_later_json_chunk_follows_policy(self, tmp_path, monkeypatch):
        tie_in_chunk_1(monkeypatch)
        witness_counts = {}
        for policy in ("favor_left", "favor_right"):
            scenario = write_scenario(
                tmp_path, runs_per_pair=streams.CHUNK_SIZE + 10, tie_policy=policy
            )
            report = run_json(tmp_path, "locality-check", scenario)
            witness_counts[policy] = report["factorization"]["witness_count"]
        rows = run_csv(tmp_path, "locality-check", scenario)
        tie = rows[streams.CHUNK_SIZE + 7]
        assert tie["lambda_a"] == tie["lambda_b"]
        assert tie["witness_differs"] == "True"
        witnesses = sum(row["witness_differs"] == "True" for row in rows)
        assert witness_counts["favor_right"] == witnesses
        assert witness_counts["favor_right"] == witness_counts["favor_left"] + 1


class TestLocalityJsonIsReduceOnly:
    # The JSON report reads two counts; building the scan's per-row columns
    # for it would be wasted work.
    def test_json_builds_no_scan_columns(self, tmp_path, monkeypatch):
        scenario = write_scenario(
            tmp_path, runs_per_pair=streams.CHUNK_SIZE + 5, tie_policy="favor_left"
        )
        argv = ["locality-check", "--scenario", scenario, "--out"]
        assert run_cli([*argv, str(tmp_path / "expected.json")]) == 0

        class Reached(Exception):
            pass

        def forbidden(*args, **kwargs):
            raise Reached

        for module, name in [
            (commands, "scan_rows"),
            (locality, "scan_columns"),
            (locality, "pair_products"),
            (vessels, "pair_products"),
        ]:
            monkeypatch.setattr(module, name, forbidden)
        assert run_cli([*argv, str(tmp_path / "guarded.json")]) == 0
        expected = (tmp_path / "expected.json").read_bytes()
        assert (tmp_path / "guarded.json").read_bytes() == expected
        # The CSV tails still come from the scan's two rows.
        with pytest.raises(Reached):
            run_cli([*argv, str(tmp_path / "dump.csv"), "--format", "csv"])


class TestLocalitySearchesOnce:
    # Every sample has the system's one table, so a run needs one exhaustive
    # search, however many chunks it spans.
    def test_json_runs_one_search_per_run(self, tmp_path, monkeypatch):
        tables = []
        search = locality.search_factorization

        def counted(table):
            tables.append(table)
            return search(table)

        monkeypatch.setattr(locality, "search_factorization", counted)
        scenario = write_scenario(tmp_path, runs_per_pair=3 * streams.CHUNK_SIZE + 5)
        report = run_json(tmp_path, "locality-check", scenario)
        assert len(tables) == 1
        assert report["factorization"]["unsatisfiable_count"] == 3 * streams.CHUNK_SIZE + 5


class TestVesselChshTies:
    # JSON runs draw diameters only for the joint siphon pair, and only
    # under the error policy; a tie there must still raise.  Under the
    # other policies a tie cannot move the joint pair's mean.
    @pytest.mark.parametrize("fmt", ["json", "csv"])
    def test_tie_under_error_policy_is_three(self, tmp_path, capsys, monkeypatch, fmt):
        tied_draws(monkeypatch)
        scenario = write_scenario(tmp_path, runs_per_pair=5)
        out = tmp_path / "report"
        code = run_cli(
            ["vessel-chsh", "--scenario", scenario, "--format", fmt, "--out", str(out)]
        )
        assert code == 3
        assert not out.exists()
        assert "equal siphon diameters" in capsys.readouterr().err

    @pytest.mark.parametrize("policy", ["favor_left", "favor_right", "split_coin"])
    def test_tie_resolved_by_policy_keeps_the_joint_anticorrelation(
        self, tmp_path, monkeypatch, policy
    ):
        tied_draws(monkeypatch)
        scenario = write_scenario(tmp_path, runs_per_pair=5, tie_policy=policy)
        report = run_json(tmp_path, "vessel-chsh", scenario)
        estimates = {entry["pair"]: entry["mean"] for entry in report["estimates"]}
        assert estimates["AB"] == -1.0
        assert report["bell"]["value"] == 4.0


class TestVesselChshJsonDraws:
    # A joint run anti-correlates whatever its diameters, so a JSON run
    # draws them only where the error policy must see a tie.
    RUNS = 2 * streams.CHUNK_SIZE + 5

    @pytest.mark.parametrize(
        "policy, draws",
        [("error", 3), ("favor_left", 0), ("favor_right", 0), ("split_coin", 0)],
    )
    def test_only_the_error_policy_draws_one_batch_per_ab_chunk(
        self, tmp_path, monkeypatch, policy, draws
    ):
        calls = []
        original_chunks = HiddenVariableSampler.draw_chunks

        def draw_chunks(self, n, key=()):
            for batch in original_chunks(self, n, key):
                calls.append(key)
                yield batch

        monkeypatch.setattr(HiddenVariableSampler, "draw_chunks", draw_chunks)
        scenario = write_scenario(tmp_path, runs_per_pair=self.RUNS, tie_policy=policy)
        run_json(tmp_path, "vessel-chsh", scenario)
        assert calls == [(PAIR_STREAM[vessels.PAIR_AB],)] * draws

    def test_reports_differ_only_in_the_echoed_policy(self, tmp_path):
        reports = set()
        for policy in TiePolicy:
            scenario = write_scenario(tmp_path, runs_per_pair=self.RUNS, tie_policy=policy.value)
            out = tmp_path / "report.json"
            assert run_cli(["vessel-chsh", "--scenario", scenario, "--out", str(out)]) == 0
            text = out.read_text()
            echoed = f'"tie_policy": "{policy.value}"'
            assert text.count(echoed) == 1
            reports.add(text.replace(echoed, '"tie_policy": ""'))
        assert len(reports) == 1


class TestReportSchema:
    def test_top_level_keys_always_present(self, tmp_path):
        scenario = write_scenario(tmp_path, runs_per_pair=10)
        report = run_json(tmp_path, "vessel-chsh", scenario)
        for key in ("scenario", "estimates", "bell", "factorization", "version", "seed"):
            assert key in report
        assert report["seed"] == 42
        assert report["factorization"] is None

    def test_vessel_chsh_reports_the_maximum(self, tmp_path):
        scenario = write_scenario(tmp_path, runs_per_pair=1000)
        report = run_json(tmp_path, "vessel-chsh", scenario)
        assert report["bell"]["value"] == 4.0
        assert report["bell"]["classification"] == "SuperQuantum"
        assert [entry["pair"] for entry in report["estimates"]] == ["AB", "A'B", "AB'", "A'B'"]
        assert [entry["mean"] for entry in report["estimates"]] == [-1.0, 1.0, 1.0, 1.0]

    def test_locality_check_summary(self, tmp_path):
        scenario = write_scenario(tmp_path, runs_per_pair=200)
        report = run_json(tmp_path, "locality-check", scenario)
        summary = report["factorization"]
        assert summary["satisfiable"] is False
        assert summary["sample_count"] == 200
        assert summary["unsatisfiable_count"] == 200
        assert 0 < summary["witness_count"] < 200
        assert report["correlation_kind"] == "SecondKind"

    def test_sample_state_degenerate_histogram(self, tmp_path):
        amplitudes = [[0.0, 0.0]] * 11
        amplitudes[5] = [1.0, 0.0]
        scenario = write_scenario(tmp_path, runs_per_pair=500, amplitudes=amplitudes)
        report = run_json(tmp_path, "sample-state", scenario)
        assert report["histogram"][5] == 500
        assert sum(report["histogram"]) == 500
        assert report["schmidt_rank"] == 1
        assert report["entangled"] is False

    def test_sample_state_uniform(self, tmp_path):
        scenario = write_scenario(
            tmp_path, runs_per_pair=2000, amplitudes=UNIFORM_AMPLITUDES
        )
        report = run_json(tmp_path, "sample-state", scenario)
        assert sum(report["histogram"]) == 2000
        assert report["schmidt_rank"] == 11
        assert report["entangled"] is True

    def test_quantum_chsh_analytic(self, tmp_path):
        scenario = write_scenario(tmp_path, singlet_angles=[0, 90, 45, 135])
        report = run_json(tmp_path, "quantum-chsh", scenario, "--analytic")
        assert report["mode"] == "analytic"
        assert abs(report["bell"]["value"] - TSIRELSON_BOUND) < 1e-12
        assert report["bell"]["classification"] == "QuantumAttainable"

    def test_quantum_chsh_monte_carlo(self, tmp_path):
        scenario = write_scenario(
            tmp_path, runs_per_pair=20_000, singlet_angles=[0, 90, 45, 135]
        )
        report = run_json(tmp_path, "quantum-chsh", scenario)
        assert report["mode"] == "monte_carlo"
        stderr = math.sqrt(sum(entry["stderr"] ** 2 for entry in report["estimates"]))
        assert abs(report["bell"]["value"] - TSIRELSON_BOUND) <= 4 * stderr

    def test_flow_report(self, tmp_path):
        scenario = write_scenario(tmp_path)
        out = tmp_path / "flow.json"
        code = run_cli(
            [
                "flow",
                "--scenario",
                scenario,
                "--lambda-a",
                "2.0",
                "--lambda-b",
                "1.0",
                "--out",
                str(out),
            ]
        )
        assert code == 0
        report = json.loads(out.read_text())
        assert abs(report["flow"]["x_left"] - 16.0) <= 0.05
        assert report["flow"]["outcome_left"] == 1

    def test_scenario_echo_round_trip_reproduces_report(self, tmp_path):
        scenario = write_scenario(tmp_path, runs_per_pair=300)
        first = run_json(tmp_path, "vessel-chsh", scenario)
        echo_path = tmp_path / "echo.json"
        echo_path.write_text(json.dumps(first["scenario"]))
        second = run_json(tmp_path, "vessel-chsh", str(echo_path))
        assert first == second


class TestDeterminism:
    @pytest.mark.parametrize(
        "subcommand,extra,overrides",
        [
            ("vessel-chsh", (), {"runs_per_pair": 500}),
            ("locality-check", (), {"runs_per_pair": 100}),
            ("sample-state", (), {"runs_per_pair": 500, "amplitudes": UNIFORM_AMPLITUDES}),
            ("quantum-chsh", (), {"runs_per_pair": 500, "singlet_angles": [0, 90, 45, 135]}),
            (
                "flow",
                ("--lambda-a", "1.2", "--lambda-b", "0.8"),
                {},
            ),
        ],
    )
    def test_reports_are_byte_identical(self, tmp_path, subcommand, extra, overrides):
        scenario = write_scenario(tmp_path, **overrides)
        out_a = tmp_path / "a.json"
        out_b = tmp_path / "b.json"
        assert run_cli([subcommand, "--scenario", scenario, "--out", str(out_a), *extra]) == 0
        assert run_cli([subcommand, "--scenario", scenario, "--out", str(out_b), *extra]) == 0
        assert out_a.read_bytes() == out_b.read_bytes()

    def test_worker_count_never_changes_the_report(self, tmp_path):
        scenario = write_scenario(tmp_path, runs_per_pair=100_000)
        out_serial = tmp_path / "serial.json"
        out_threaded = tmp_path / "threaded.json"
        run_cli(["vessel-chsh", "--scenario", scenario, "--out", str(out_serial), "--workers", "1"])
        run_cli(["vessel-chsh", "--scenario", scenario, "--out", str(out_threaded), "--workers", "4"])
        assert out_serial.read_bytes() == out_threaded.read_bytes()

        scenario_q = write_scenario(
            tmp_path, "quantum.json", runs_per_pair=100_000, singlet_angles=[0, 90, 45, 135]
        )
        out_q1 = tmp_path / "q1.json"
        out_q4 = tmp_path / "q4.json"
        run_cli(["quantum-chsh", "--scenario", scenario_q, "--out", str(out_q1), "--workers", "1"])
        run_cli(["quantum-chsh", "--scenario", scenario_q, "--out", str(out_q4), "--workers", "4"])
        assert out_q1.read_bytes() == out_q4.read_bytes()


class TestCsvDumps:
    def test_vessel_rows_reproduce_the_estimates(self, tmp_path):
        scenario = write_scenario(tmp_path, runs_per_pair=200)
        report = run_json(tmp_path, "vessel-chsh", scenario)
        rows = run_csv(tmp_path, "vessel-chsh", scenario)
        assert len(rows) == 4 * 200
        by_pair = {}
        for row in rows:
            by_pair.setdefault(row["pair"], []).append(int(row["product"]))
        for entry in report["estimates"]:
            products = by_pair[entry["pair"]]
            assert len(products) == entry["n"]
            assert sum(products) / len(products) == entry["mean"]

    def test_vessel_rows_are_internally_consistent(self, tmp_path):
        scenario = write_scenario(tmp_path, runs_per_pair=50)
        for row in run_csv(tmp_path, "vessel-chsh", scenario):
            assert int(row["product"]) == int(row["outcome_left"]) * int(row["outcome_right"])
            if row["pair"] == "AB":
                wider_left = float(row["lambda_a"]) > float(row["lambda_b"])
                assert (int(row["outcome_left"]) == 1) == wider_left

    def test_sample_state_rows_match_histogram(self, tmp_path):
        scenario = write_scenario(tmp_path, runs_per_pair=400, amplitudes=UNIFORM_AMPLITUDES)
        report = run_json(tmp_path, "sample-state", scenario)
        rows = run_csv(tmp_path, "sample-state", scenario)
        assert len(rows) == 400
        counts = [0] * 11
        for row in rows:
            counts[int(row["x"])] += 1
            assert int(row["left_liters"]) + int(row["right_liters"]) == 10
        assert counts == report["histogram"]

    def test_locality_rows_match_summary(self, tmp_path):
        scenario = write_scenario(tmp_path, runs_per_pair=150)
        report = run_json(tmp_path, "locality-check", scenario)
        rows = run_csv(tmp_path, "locality-check", scenario)
        assert len(rows) == 150
        assert all(row["satisfiable"] == "False" for row in rows)
        witness_count = sum(row["witness_differs"] == "True" for row in rows)
        assert witness_count == report["factorization"]["witness_count"]
        for row in rows:
            differs = (float(row["lambda_a"]) < float(row["lambda_b"]))
            assert (row["witness_differs"] == "True") == differs

    @pytest.mark.parametrize(
        "n", [streams.CHUNK_SIZE - 1, streams.CHUNK_SIZE + 1, 2 * streams.CHUNK_SIZE + 3]
    )
    def test_locality_counts_match_the_rows_across_chunks(self, tmp_path, n):
        # A 17-double sampler range ties about one row in 17.
        scenario = write_scenario(
            tmp_path,
            runs_per_pair=n,
            sampler={"low": 1.0, "high": 1.0 + 2.0**-48},
            tie_policy="split_coin",
        )
        report = run_json(tmp_path, "locality-check", scenario)
        rows = run_csv(tmp_path, "locality-check", scenario)
        assert len(rows) == n
        assert sum(row["lambda_a"] == row["lambda_b"] for row in rows) > n // 50
        summary = report["factorization"]
        witnesses = sum(row["witness_differs"] == "True" for row in rows)
        unsatisfiable = sum(row["satisfiable"] == "False" for row in rows)
        assert (summary["witness_count"], summary["unsatisfiable_count"]) == (
            witnesses,
            unsatisfiable,
        )

    def test_quantum_rows_reproduce_the_estimates(self, tmp_path):
        scenario = write_scenario(
            tmp_path, runs_per_pair=300, singlet_angles=[0, 90, 45, 135]
        )
        report = run_json(tmp_path, "quantum-chsh", scenario)
        rows = run_csv(tmp_path, "quantum-chsh", scenario)
        by_pair = {}
        for row in rows:
            by_pair.setdefault(row["pair"], []).append(int(row["product"]))
        for entry in report["estimates"]:
            products = by_pair[entry["pair"]]
            assert sum(products) / len(products) == entry["mean"]

    def test_analytic_quantum_dump_lists_expectations(self, tmp_path):
        scenario = write_scenario(tmp_path, singlet_angles=[0, 90, 45, 135])
        rows = run_csv(tmp_path, "quantum-chsh", scenario, "--analytic")
        assert len(rows) == 4
        values = {row["pair"]: float(row["expectation"]) for row in rows}
        assert values["AB"] == pytest.approx(-math.sqrt(2) / 2, abs=1e-12)

    def test_flow_dump_single_row(self, tmp_path):
        scenario = write_scenario(tmp_path)
        rows = run_csv(
            tmp_path, "flow", scenario, "--lambda-a", "2.0", "--lambda-b", "1.0"
        )
        assert len(rows) == 1
        assert abs(float(rows[0]["x_left"]) - 16.0) <= 0.05


def csv_writer_bytes(fieldnames, rows):
    """The reference: a header and ``rows`` as ``csv.writer(lineterminator="\\n")``
    writes them.  Every row must be a tuple of plain Python str, int, float or bool."""
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(fieldnames)
    for row in rows:
        assert type(row) is tuple
        assert {type(cell) for cell in row} <= {str, int, float, bool}
        writer.writerow(row)
    return buffer.getvalue()


def first_difference(text, expected):
    """The first line at which ``text`` and ``expected`` differ, with its
    index, or None.  A pytest diff of two multi-megabyte texts takes minutes."""
    pairs = zip_longest(text.splitlines(keepends=True), expected.splitlines(keepends=True))
    return next(((index, *pair) for index, pair in enumerate(pairs) if pair[0] != pair[1]), None)


PAIR_LABELS = [pair.label for pair in vessels.ALL_PAIRS]
CELLS = st.one_of(
    st.sampled_from(PAIR_LABELS),
    st.integers(),
    st.booleans(),
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from([-0.0, 5e-324, 2.5e-310, 1e16, 1e-05, 1.7976931348623157e308]),
)


@st.composite
def tail_dumps(draw):
    """Fieldnames, ``_row_blocks`` inputs and the rows they stand for: an
    optional label, a running index, drawn leading cells and a tail from a
    drawn table, in up to three blocks of up to two slices and a row."""
    label = draw(st.one_of(st.none(), st.sampled_from(PAIR_LABELS)))
    width = draw(st.integers(0, 3))
    table = draw(st.lists(st.tuples(*[CELLS] * draw(st.integers(1, 3))), min_size=1, max_size=4))
    tails = commands._csv_lines(table)
    leading = draw(st.lists(st.tuples(*[CELLS] * width), min_size=1, max_size=5))
    chunks, rows = [], []
    for _ in range(draw(st.integers(0, 3))):
        length = draw(st.integers(0, 2 * CSV_ROWS_PER_WRITE + 1))
        picks = draw(st.lists(st.integers(0, len(table) - 1), min_size=1, max_size=5))
        cells = list(islice(cycle(leading), length))
        tail_index = np.array(list(islice(cycle(picks), length)), dtype=np.intp)
        columns = [np.array([row[k] for row in cells], dtype=object) for k in range(width)]
        chunks.append([*columns, tails[tail_index]])
        rows += [(*cells[i], *table[tail_index[i]]) for i in range(length)]
    prefix = () if label is None else (label,)
    rows = [(*prefix, index, *row) for index, row in enumerate(rows)]
    fieldnames = [f"field_{index}" for index in range(len(prefix) + 1 + width + len(table[0]))]
    texts = commands._row_blocks(chunks, "" if label is None else label + ",")
    return fieldnames, texts, rows


# Each sampling command's dump crosses a chunk boundary and many row slices.
BYTES_RUNS = streams.CHUNK_SIZE + 2500


def chsh_reference(model, run_columns):
    """Every run of ``model`` on the four pairs, from its collected columns."""
    fieldnames = ["pair", "run_index", *run_columns, "outcome_left", "outcome_right", "product"]

    def rows(n):
        for pair in vessels.ALL_PAIRS:
            index = 0
            for _, columns in pair_chunks(model, pair, n, collect=True):
                cells = zip(*(columns[name].tolist() for name in fieldnames[2:-1]))
                for *leading, left, right in cells:
                    yield (pair.label, index, *leading, left, right, left * right)
                    index += 1

    return fieldnames, rows


def vessel_reference(scenario):
    model = vessel_model(scenario.sampler, scenario.system, scenario.tie_policy)
    fieldnames, rows = chsh_reference(model, ["lambda_a", "lambda_b"])
    return fieldnames, rows(scenario.runs_per_pair)


def singlet_reference(scenario):
    fieldnames, rows = chsh_reference(singlet_model(scenario.singlet_angles, scenario.seed), [])
    return fieldnames, rows(scenario.runs_per_pair)


def analytic_reference(scenario):
    estimates = singlet_analytic_estimates(scenario.singlet_angles)
    rows = [(estimate.pair.label, estimate.mean) for estimate in estimates]
    return ["pair", "expectation"], rows


def born_reference(scenario):
    rng = streams.substream(scenario.seed, streams.BORN_STREAM, 0)
    draws = born_samples(scenario.state(), scenario.runs_per_pair, rng).tolist()
    fieldnames = ["sample_index", "x", "left_liters", "right_liters"]
    return fieldnames, [(index, x, x, TOTAL_LITERS - x) for index, x in enumerate(draws)]


LOCALITY_FIELDS = [
    "sample_index",
    "lambda_a",
    "lambda_b",
    *locality.PRODUCT_COLUMNS,
    "satisfiable",
    "witness_with_b",
    "witness_with_bprime",
    "witness_differs",
]


def locality_reference(scenario):
    """``scan_columns`` on every chunk of the scenario's locality draws."""
    chunks = scenario.sampler.draw_chunks(scenario.runs_per_pair, key=(streams.LOCALITY_STREAM,))
    rows = []
    for lambda_a, lambda_b in chunks:
        columns = scan_columns(
            lambda_a, lambda_b, scenario.system, scenario.tie_policy, scenario.seed
        )
        columns.update(lambda_a=lambda_a, lambda_b=lambda_b)
        rows += zip(*(columns[name].tolist() for name in LOCALITY_FIELDS[1:]))
    return LOCALITY_FIELDS, [(index, *row) for index, row in enumerate(rows)]


def flow_reference(scenario):
    report, _ = commands.flow(scenario, 2.0, 1.0, 1e-4)
    fieldnames = ["lambda_a", "lambda_b", "dt", "x_left", "x_right"]
    fieldnames += ["outcome_left", "outcome_right"]
    return fieldnames, [tuple(report["flow"][name] for name in fieldnames)]


class TestCsvBytes:
    """The dumps are the bytes ``csv.writer`` writes for rows rebuilt from
    the library's columns."""

    @settings(max_examples=60, deadline=None)
    @given(dump=tail_dumps())
    def test_template_rows_are_the_csv_writer_bytes(self, dump):
        fieldnames, blocks, rows = dump
        out = io.StringIO()
        render_csv(commands.RunDump(fieldnames, blocks), out)
        assert out.getvalue() == csv_writer_bytes(fieldnames, rows)

    @pytest.mark.parametrize(
        "argv, collect, reference",
        [
            (
                ["vessel-chsh"],
                lambda s: commands.vessel_chsh(s, collect_runs=True),
                vessel_reference,
            ),
            (
                ["quantum-chsh"],
                lambda s: commands.quantum_chsh(s, collect_runs=True),
                singlet_reference,
            ),
            (
                ["quantum-chsh", "--analytic"],
                lambda s: commands.quantum_chsh(s, analytic=True, collect_runs=True),
                analytic_reference,
            ),
            (
                ["sample-state"],
                lambda s: commands.sample_state(s, collect_runs=True),
                born_reference,
            ),
            (
                ["locality-check"],
                lambda s: commands.locality_check(s, collect_runs=True),
                locality_reference,
            ),
            (
                ["flow", "--lambda-a", "2.0", "--lambda-b", "1.0"],
                lambda s: commands.flow(s, 2.0, 1.0, 1e-4, collect_runs=True),
                flow_reference,
            ),
        ],
        ids=["vessel-chsh", "quantum-chsh", "analytic", "sample-state", "locality-check", "flow"],
    )
    def test_every_producer_writes_the_csv_writer_bytes(self, tmp_path, argv, collect, reference):
        scenario = write_scenario(
            tmp_path,
            runs_per_pair=BYTES_RUNS,
            singlet_angles=[0, 90, 45, 135],
            amplitudes=UNIFORM_AMPLITUDES,
        )
        out = tmp_path / "dump.csv"
        assert run_cli([*argv, "--scenario", scenario, "--format", "csv", "--out", str(out)]) == 0
        _, dump = collect(parse_scenario(scenario))
        expected = csv_writer_bytes(*reference(parse_scenario(scenario)))
        assert expected.count("\n") == len(dump.rows) + 1
        assert first_difference(out.read_text(), expected) is None
        # Each write after the header is one slice of 1 to CSV_ROWS_PER_WRITE whole lines.
        writes = []
        render_csv(dump, SimpleNamespace(write=writes.append))
        header, *slices = writes
        assert header.count("\n") == 1 and header.endswith("\n")
        for text in slices:
            lines = text.splitlines(keepends=True)
            assert 1 <= len(lines) <= CSV_ROWS_PER_WRITE
            assert all(line.endswith("\n") for line in lines)
        assert first_difference("".join(writes), expected) is None


def csv_line(cells):
    buffer = io.StringIO()
    csv.writer(buffer, lineterminator="\n").writerow(cells)
    return buffer.getvalue()


class TestCsvTails:
    """The pre-rendered line tails stand for exactly the cells they replace."""

    def test_chsh_tails_are_the_csv_writer_lines(self):
        assert len(commands._CHSH_TAILS) == 4
        for left in (-1, 1):
            for right in (-1, 1):
                tail = commands._CHSH_TAILS[2 * (left > 0) + (right > 0)]
                assert tail == csv_line([left, right, left * right])

    def test_born_tails_are_the_csv_writer_lines(self):
        assert len(commands._BORN_TAILS) == TOTAL_LITERS + 1
        for x in range(TOTAL_LITERS + 1):
            assert commands._BORN_TAILS[x] == csv_line([x, x, TOTAL_LITERS - x])

    @pytest.mark.parametrize("transparent", [True, False])
    @pytest.mark.parametrize("policy", [policy.value for policy in TiePolicy])
    def test_locality_tails_are_the_scan_columns_rows(self, policy, transparent):
        data = {
            "seed": 29,
            "runs_per_pair": 400,
            "system": {"transparent": transparent},
            "tie_policy": policy,
        }
        if policy != "error":
            data["sampler"] = TIE_PRONE
        scenario = scenario_from_dict(data)
        _, dump = commands.locality_check(scenario, collect_runs=True)
        fieldnames, rows = locality_reference(scenario)
        assert "".join(dump.rows) == "".join(csv_line(row) for row in rows)
        witness = fieldnames.index("witness_with_b")
        assert {row[witness] for row in rows} == {-1, 1}
        if policy != "error":
            assert any(row[1] == row[2] for row in rows)

    @pytest.mark.parametrize("policy", list(TiePolicy))
    def test_outcome_columns_are_strictly_plus_or_minus_one(self, policy):
        # Tails are indexed by "outcome > 0": a 0 would read as -1.
        sampler = TIE_PRONE if policy is not TiePolicy.ERROR else NORMAL
        sampler = HiddenVariableSampler(sampler["low"], sampler["high"], seed=31)
        lambda_a, lambda_b = sampler.draw_arrays(500, key=(streams.LOCALITY_STREAM,))
        if policy is not TiePolicy.ERROR:
            assert (lambda_a == lambda_b).any()
        models = [singlet_model((0, 90, 45, 135), 31)]
        for system in (vessels.VesselSystem(), vessels.VesselSystem(transparent=False)):
            models.append(vessel_model(sampler, system, policy))
            witness = scan_columns(lambda_a, lambda_b, system, policy, 31)["witness_with_b"]
            assert set(np.unique(witness).tolist()) == {-1, 1}
        for model in models:
            for pair in vessels.ALL_PAIRS:
                for _, columns in pair_chunks(model, pair, 500, collect=True):
                    for name in ("outcome_left", "outcome_right"):
                        assert set(np.unique(columns[name]).tolist()) <= {-1, 1}


class TestStdout:
    def test_report_goes_to_stdout_by_default(self, tmp_path, capsys):
        scenario = write_scenario(tmp_path, runs_per_pair=5)
        assert run_cli(["vessel-chsh", "--scenario", scenario]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["bell"]["value"] == 4.0


PREVIOUS = "an earlier report\n"


def leftovers(directory, keep):
    """Names in ``directory`` other than ``keep``: a temporary file left behind."""
    return sorted(path.name for path in directory.iterdir() if path.name not in keep)


class TestAtomicCommit:
    """``--out`` gets the whole report or keeps what it held: rows stream
    into a temporary file in the same directory, renamed over ``--out`` only
    on success."""

    @pytest.mark.parametrize("subcommand", ["vessel-chsh", "locality-check"])
    def test_tie_in_a_later_chunk_leaves_no_file(
        self, tmp_path, capsys, monkeypatch, subcommand
    ):
        out = tmp_path / "report.csv"
        out.write_text(PREVIOUS)
        streamed = []
        original_chunks = HiddenVariableSampler.draw_chunks

        def tie_in_chunk_1(index, lambda_a, lambda_b):
            if index == 1:
                # The rows of chunk 0 are already in the temporary file.
                streamed.extend(path.stat().st_size for path in tmp_path.glob(".report.csv.*"))
                lambda_b[7] = lambda_a[7]
            return lambda_a, lambda_b

        def draw_chunks(self, n, key=()):
            for index, draws in enumerate(original_chunks(self, n, key)):
                yield tie_in_chunk_1(index, *draws)

        monkeypatch.setattr(HiddenVariableSampler, "draw_chunks", draw_chunks)
        scenario = write_scenario(tmp_path, runs_per_pair=streams.CHUNK_SIZE + 10)
        argv = [subcommand, "--scenario", scenario, "--format", "csv"]
        assert run_cli([*argv, "--out", str(out)]) == 3
        assert "equal siphon diameters" in capsys.readouterr().err
        assert len(streamed) == 1 and streamed[0] > 0
        assert out.read_text() == PREVIOUS
        assert leftovers(tmp_path, {"scenario.json", "report.csv"}) == []
        # Stdout buffers the report, so it gets nothing either.
        assert run_cli(argv) == 3
        assert capsys.readouterr().out == ""

    def test_tie_in_a_later_json_chunk_leaves_no_file(self, tmp_path, capsys, monkeypatch):
        tie_in_chunk_1(monkeypatch)
        out = tmp_path / "report.json"
        out.write_text(PREVIOUS)
        scenario = write_scenario(tmp_path, runs_per_pair=streams.CHUNK_SIZE + 10)
        argv = ["locality-check", "--scenario", scenario]
        assert run_cli([*argv, "--out", str(out)]) == 3
        assert "equal siphon diameters" in capsys.readouterr().err
        assert out.read_text() == PREVIOUS
        assert leftovers(tmp_path, {"scenario.json", "report.json"}) == []
        assert run_cli(argv) == 3
        assert capsys.readouterr().out == ""

    def test_write_error_mid_stream_leaves_no_file(self, tmp_path, capsys, monkeypatch):
        out = tmp_path / "report.csv"
        out.write_text(PREVIOUS)
        written = []

        class FullDisk:
            """The temporary file's handle; the disk fills after two writes."""

            def __init__(self, handle):
                self.handle = handle

            def __enter__(self):
                return self

            def __exit__(self, *exc_info):
                return self.handle.__exit__(*exc_info)

            def write(self, text):
                if len(written) == 2:
                    raise OSError(errno.ENOSPC, "No space left on device")
                written.append(text)
                return self.handle.write(text)

        def full_disk_open(*args, **kwargs):
            return FullDisk(open(*args, **kwargs))

        # Shadows the builtin for the module that opens the temporary file.
        monkeypatch.setattr("vesselsim.cli.open", full_disk_open, raising=False)
        scenario = write_scenario(tmp_path, runs_per_pair=CSV_ROWS_PER_WRITE)
        argv = ["vessel-chsh", "--scenario", scenario, "--format", "csv", "--out", str(out)]
        assert run_cli(argv) == 3
        # The disk filled after the header and the AB rows, with rows to come.
        header, rows = written
        assert header.startswith("pair,run_index,")
        assert [row.split(",")[0] for row in rows.splitlines()] == ["AB"] * CSV_ROWS_PER_WRITE
        assert "cannot write output" in capsys.readouterr().err
        assert out.read_text() == PREVIOUS
        assert leftovers(tmp_path, {"scenario.json", "report.csv"}) == []

    def test_unwritable_directory_leaves_the_report(self, tmp_path, capsys, monkeypatch):
        directory = tmp_path / "reports"
        directory.mkdir()
        out = directory / "report.csv"
        out.write_text(PREVIOUS)
        directory.chmod(0o555)
        if os.geteuid() == 0:
            # Root ignores the mode bits; fail the way an unprivileged user's
            # temporary file fails there.
            real_open = os.open

            def denied(path, flags, *args, **kwargs):
                if Path(path).parent == directory and flags & os.O_CREAT:
                    raise PermissionError(errno.EACCES, "Permission denied", str(path))
                return real_open(path, flags, *args, **kwargs)

            monkeypatch.setattr(os, "open", denied)
        scenario = write_scenario(tmp_path, runs_per_pair=10)
        try:
            for fmt in ("csv", "json"):
                argv = ["vessel-chsh", "--scenario", scenario, "--format", fmt, "--out", str(out)]
                assert run_cli(argv) == 3
                err = capsys.readouterr().err
                assert f"cannot write output to {str(out)!r}: Permission denied" in err
                assert ".report.csv." not in err
                assert out.read_text() == PREVIOUS
                assert leftovers(directory, {"report.csv"}) == []
        finally:
            directory.chmod(0o755)

    def test_out_under_a_file_is_three(self, tmp_path, capsys):
        (tmp_path / "plain").write_text("")
        scenario = write_scenario(tmp_path, runs_per_pair=10)
        out = tmp_path / "plain" / "report.csv"
        argv = ["vessel-chsh", "--scenario", scenario, "--format", "csv", "--out", str(out)]
        assert run_cli(argv) == 3
        err = capsys.readouterr().err
        assert f"cannot write output to {str(out)!r}: Not a directory" in err
        assert ".report.csv." not in err
        assert leftovers(tmp_path, {"scenario.json", "plain"}) == []

    def test_stdout_write_error_names_stdout(self, tmp_path, capsys, monkeypatch):
        class ClosedPipe:
            def write(self, text):
                raise BrokenPipeError(errno.EPIPE, "Broken pipe")

        monkeypatch.setattr(sys, "stdout", ClosedPipe())
        scenario = write_scenario(tmp_path, runs_per_pair=10)
        assert run_cli(["vessel-chsh", "--scenario", scenario]) == 3
        assert "cannot write output to stdout: Broken pipe" in capsys.readouterr().err

    def test_new_report_gets_the_usual_file_mode(self, tmp_path):
        umask = os.umask(0o022)
        try:
            scenario = write_scenario(tmp_path, runs_per_pair=10)
            out = tmp_path / "report.json"
            assert run_cli(["vessel-chsh", "--scenario", scenario, "--out", str(out)]) == 0
        finally:
            os.umask(umask)
        assert stat.S_IMODE(out.stat().st_mode) == 0o644

    def test_commit_leaves_the_umask_alone(self, tmp_path, monkeypatch):
        # Reading the umask means setting it, which races with other threads.
        set_umask = os.umask
        previous = set_umask(0o027)

        def no_umask(mask):
            raise AssertionError("the process umask was changed")

        monkeypatch.setattr(os, "umask", no_umask)
        out = tmp_path / "report.txt"
        try:
            commit(str(out), lambda handle: handle.write("report\n"))
        finally:
            set_umask(previous)
        assert out.read_text() == "report\n"
        assert stat.S_IMODE(out.stat().st_mode) == 0o666 & ~0o027
        assert leftovers(tmp_path, {"report.txt"}) == []

    def test_pipe_is_written_through(self, tmp_path):
        # A pipe (or device) named by --out cannot be replaced by a rename;
        # it gets the finished report written into it.
        fifo = tmp_path / "pipe"
        os.mkfifo(fifo)
        received = []
        reader = threading.Thread(target=lambda: received.append(fifo.read_text()), daemon=True)
        reader.start()
        scenario = write_scenario(tmp_path, runs_per_pair=10)
        assert run_cli(["vessel-chsh", "--scenario", scenario, "--out", str(fifo)]) == 0
        reader.join(timeout=30)
        assert stat.S_ISFIFO(fifo.stat().st_mode)
        assert json.loads(received[0])["bell"]["value"] == 4.0

    @pytest.mark.parametrize("subcommand", ["locality-check", "sample-state"])
    def test_rows_continue_across_chunks(self, tmp_path, subcommand):
        n = streams.CHUNK_SIZE + 3
        scenario = write_scenario(tmp_path, runs_per_pair=n, amplitudes=UNIFORM_AMPLITUDES)
        report = run_json(tmp_path, subcommand, scenario)
        rows = run_csv(tmp_path, subcommand, scenario)
        assert [int(row["sample_index"]) for row in rows] == list(range(n))
        if subcommand == "sample-state":
            assert np.bincount([int(row["x"]) for row in rows]).tolist() == report["histogram"]
        else:
            witnesses = sum(row["witness_differs"] == "True" for row in rows)
            assert witnesses == report["factorization"]["witness_count"]


class TestModuleEntryPoint:
    """``python -m vesselsim`` runs the same command line in a new process,
    and importing the CLI loads only what a run needs."""

    def run_python(self, *args):
        src = Path(__file__).resolve().parent.parent / "src"
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(src), env.get("PYTHONPATH")]))
        return subprocess.run(
            [sys.executable, *args],
            env=env,
            capture_output=True,
            text=True,
            timeout=120,
        )

    def run_module(self, *args):
        return self.run_python("-m", "vesselsim", *args)

    def test_import_loads_no_thread_pool(self):
        # Every chunk runs on the calling thread, so the executor machinery
        # would only add to each process's start-up time.
        probe = "import sys, vesselsim.cli; print('concurrent.futures' in sys.modules)"
        result = self.run_python("-c", probe)
        assert result.returncode == 0, result.stderr
        assert result.stdout == "False\n"

    def test_version_exits_zero(self):
        result = self.run_module("--version")
        assert result.returncode == 0, result.stderr
        assert result.stdout == f"vesselsim {__version__}\n"

    def test_unknown_flag_is_a_usage_error(self):
        result = self.run_module("sample-state", "--scenario", "unused.json", "--no-such-flag")
        assert result.returncode == 2
        assert "unrecognized arguments: --no-such-flag" in result.stderr
        assert "Traceback" not in result.stderr
        assert result.stdout == ""


def reject_constant(token):
    raise ValueError(f"report holds the non-strict JSON constant {token}")


OPTION_NUMBERS = st.one_of(
    st.sampled_from(["1.0", "2.0", "0.5", "0", "-1", "1e-200", "1e200", "nan", "-inf", "x"]),
    st.floats(min_value=0.01, max_value=10.0).map(repr),
    st.floats(allow_nan=False, allow_infinity=False).map(repr),
)

# Each option that may be left out is one draw, absent or present, so that
# no copied span can turn an absent option into one that needs a value.
WORKERS_OPTION = st.just(()) | st.sampled_from(
    [("--workers", count) for count in ["1", "2", "3", "0", "-1", "x"]]
)
ANALYTIC_OPTION = st.sampled_from([(), ("--analytic",)])
DT_OPTION = st.just(()) | st.sampled_from(
    [(f"--dt={dt}",) for dt in ["1e-4", "1e-2", "0", "-1e-3", "1e-300", "inf"]]
)


@st.composite
def subcommand_options(draw):
    """A subcommand plus its options, every one of them possibly invalid."""
    subcommand = draw(
        st.sampled_from(["vessel-chsh", "locality-check", "sample-state", "quantum-chsh", "flow"])
    )
    options = [subcommand, "--format", draw(st.sampled_from(["json", "csv"]))]
    if subcommand in ("vessel-chsh", "quantum-chsh"):
        options += draw(WORKERS_OPTION)
    if subcommand == "quantum-chsh":
        options += draw(ANALYTIC_OPTION)
    if subcommand == "flow":
        # "--option=value", so argparse takes "-1" as a value, not an option.
        options += [f"--lambda-a={draw(OPTION_NUMBERS)}", f"--lambda-b={draw(OPTION_NUMBERS)}"]
        options += draw(DT_OPTION)
    return options


class TestContractFuzz:
    @settings(max_examples=150, deadline=None)
    @given(scenario=scenario_dicts(), options=subcommand_options())
    def test_every_input_keeps_the_exit_code_contract(self, scenario, options):
        with tempfile.TemporaryDirectory() as tmp:
            scenario_path = Path(tmp) / "scenario.json"
            out = Path(tmp) / "report.out"
            # json.dumps writes NaN and Infinity tokens, which json.loads accepts.
            scenario_path.write_text(json.dumps(scenario))
            argv = [*options, "--scenario", str(scenario_path), "--out", str(out)]
            try:
                code = main(argv)
            except SystemExit as exc:
                code = exc.code
            assert code in (0, 2, 3)
            if code != 0:
                assert not out.exists()
            elif "json" in options:
                json.loads(out.read_text(), parse_constant=reject_constant)
            else:
                rows = list(csv.reader(out.read_text().splitlines()))
                assert rows
                assert not {"nan", "inf", "-inf"} & {cell for row in rows for cell in row}

    @settings(max_examples=150, deadline=None)
    @given(
        content=st.one_of(
            st.binary(max_size=200),
            st.binary(max_size=20).map(lambda tail: b'{"seed": 1' + tail),
            st.integers(1, 10_000).map(lambda depth: b"[" * depth + b"]" * depth),
            # Integer literals on both sides of the int-string limit.
            st.integers(4200, 4400).map(lambda digits: b'{"seed": 1' + b"0" * digits + b"}"),
        ),
        subcommand=st.sampled_from(["vessel-chsh", "locality-check", "quantum-chsh"]),
    )
    def test_any_scenario_bytes_keep_the_exit_code_contract(self, content, subcommand):
        with tempfile.TemporaryDirectory() as tmp:
            scenario_path = Path(tmp) / "scenario.json"
            out = Path(tmp) / "report.out"
            scenario_path.write_bytes(content)
            code = main([subcommand, "--scenario", str(scenario_path), "--out", str(out)])
            assert code in (0, 2, 3)
            assert out.exists() == (code == 0)


SAMPLING_COMMANDS = ["vessel_chsh", "quantum_chsh", "sample_state", "locality_check"]


def outcome_or_error(produce):
    """``produce()``'s value, or the type of the domain error it raised."""
    try:
        return produce()
    except VesselSimError as exc:
        return type(exc)


class TestCsvFoldsToJson:
    """For generated scenarios, with chunks of 7 runs so that small run
    counts cross many chunk boundaries, every number of a sampling command's
    JSON report is the fold of its CSV rows."""

    @settings(max_examples=100, deadline=None)
    @given(data=st.builds(dict, **FOLD_FIELDS), name=st.sampled_from(SAMPLING_COMMANDS))
    def test_json_numbers_are_the_fold_of_the_csv_rows(self, data, name):
        command = getattr(commands, name)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(streams, "CHUNK_SIZE", 7)
            scenario = scenario_from_dict(data)
            report = outcome_or_error(lambda: json.loads(render_json(command(scenario)[0])))
            text = outcome_or_error(lambda: csv_text(command(scenario, collect_runs=True)[1]))
        if isinstance(report, type) or isinstance(text, type):
            # Only an exact tie under the "error" policy stops a run, on both paths.
            assert report is text is DegenerateTieError
            return
        rows = list(csv.DictReader(io.StringIO(text)))
        n = scenario.runs_per_pair
        if name in ("vessel_chsh", "quantum_chsh"):
            products = {entry["pair"]: [] for entry in report["estimates"]}
            for row in rows:
                left, right = int(row["outcome_left"]), int(row["outcome_right"])
                assert int(row["product"]) == left * right
                products[row["pair"]].append(left * right)
            for entry in report["estimates"]:
                assert entry["n"] == len(products[entry["pair"]]) == n
                mean, stderr = mean_and_stderr(sum(products[entry["pair"]]), n)
                assert (entry["mean"], entry["stderr"]) == (mean, stderr)
        elif name == "sample_state":
            histogram = [0] * (TOTAL_LITERS + 1)
            for row in rows:
                histogram[int(row["x"])] += 1
                assert int(row["left_liters"]) == int(row["x"])
                assert int(row["right_liters"]) == TOTAL_LITERS - int(row["x"])
            assert report["histogram"] == histogram
            assert report["n_samples"] == len(rows) == n
        else:
            factorization = report["factorization"]
            assert factorization["sample_count"] == len(rows) == n
            assert factorization["witness_count"] == sum(
                row["witness_differs"] == "True" for row in rows
            )
            assert factorization["unsatisfiable_count"] == sum(
                row["satisfiable"] == "False" for row in rows
            )


# Every subcommand as a command line; flow gets its diameters when drawn.
COMMAND_LINES = [
    ["vessel-chsh"],
    ["locality-check"],
    ["sample-state"],
    ["quantum-chsh"],
    ["quantum-chsh", "--analytic"],
    ["flow"],
]


class TestBytesRepeat:
    """For generated scenarios, with chunks of 7 runs, a command's output
    bytes do not depend on where they go, on ``--workers``, or on whether
    the scenario is the original file or the report's echo of it.

    A failing example is reported without hypothesis's explain phase.  It
    re-runs the shrunk example up to a hundred times per argument that can
    vary, each run up to seven CLI calls, and took 59-68 s of a 71-83 s
    report."""

    @settings(max_examples=100, deadline=None, phases=set(Phase) - {Phase.explain})
    @given(
        data=st.builds(dict, **FOLD_FIELDS),
        command=st.sampled_from(COMMAND_LINES),
        fmt=st.sampled_from(["json", "csv"]),
        draws=st.data(),
    )
    def test_stdout_workers_and_echo_give_the_same_bytes(self, data, command, fmt, draws):
        if command == ["flow"]:
            # Drawn only here, so that no other command's example carries
            # two diameters for the shrinker to minimize.
            lambda_a, lambda_b = draws.draw(st.tuples(st.floats(0.1, 10.0), st.floats(0.1, 10.0)))
            command = ["flow", f"--lambda-a={lambda_a!r}", f"--lambda-b={lambda_b!r}"]
        if command[0] in ("vessel-chsh", "quantum-chsh"):
            workers = [["--workers", count] for count in "123"]
        else:
            workers = [[]]
        with pytest.MonkeyPatch.context() as patch, tempfile.TemporaryDirectory() as tmp:
            patch.setattr(streams, "CHUNK_SIZE", 7)
            scenario = Path(tmp) / "scenario.json"
            scenario.write_text(json.dumps(data))

            def run(scenario_path, options=workers[0], out="report.out", fmt=fmt):
                """The exit code and the bytes written to ``out`` (stdout when
                None), or None for the bytes when nothing was written."""
                argv = [*command, *options, "--format", fmt, "--scenario", str(scenario_path)]
                if out is None:
                    with contextlib.redirect_stdout(io.StringIO()) as stdout:
                        code = main(argv)
                    return code, stdout.getvalue().encode() or None
                target = Path(tmp) / out
                target.unlink(missing_ok=True)
                code = main([*argv, "--out", str(target)])
                return code, target.read_bytes() if target.exists() else None

            first = run(scenario)
            # A valid scenario fails only on a domain error, such as a tie
            # under the "error" policy, and then writes nothing.
            assert first[0] in (0, 3)
            assert (first[1] is None) == (first[0] == 3)
            assert run(scenario, out=None) == first
            for options in workers[1:]:
                assert run(scenario, options) == first
            if first[0] == 3:
                return
            code, report = run(scenario, fmt="json")
            assert code == 0
            echo = Path(tmp) / "echo.json"
            echo.write_text(json.dumps(json.loads(report)["scenario"]))
            assert run(echo) == first


def csv_text(dump):
    out = io.StringIO()
    render_csv(dump, out)
    return out.getvalue()
