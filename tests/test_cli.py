"""End-to-end CLI behavior: exit codes, report schema, determinism, CSV dumps."""

import csv
import json
import math
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vesselsim import TSIRELSON_BOUND, HiddenVariableSampler, TiePolicy, commands
from vesselsim.cli import main

UNIFORM_AMPLITUDES = [[1.0 / math.sqrt(11), 0.0]] * 11


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

    def test_missing_required_sections_are_config_errors(self, tmp_path, capsys):
        scenario = write_scenario(tmp_path)
        assert run_cli(["sample-state", "--scenario", scenario]) == 2
        assert run_cli(["quantum-chsh", "--scenario", scenario]) == 2
        capsys.readouterr()

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
    def test_out_of_memory_is_three(self, tmp_path, capsys, subcommand, fmt):
        # 2**50 float64 draws need 8 PiB, more than a 64-bit address space
        # holds, so the first allocation fails at once.
        scenario = write_scenario(tmp_path, runs_per_pair=2**50, amplitudes=UNIFORM_AMPLITUDES)
        out = tmp_path / "report.json"
        argv = [subcommand, "--scenario", scenario, "--out", str(out), "--format", fmt]
        assert run_cli(argv) == 3
        assert not out.exists()
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
    """Make every sampler draw hold an exact tie at row 1."""
    original = HiddenVariableSampler.draw_arrays

    def draw_arrays(self, n, key=()):
        lambda_a, lambda_b = original(self, n, key)
        lambda_b[1] = lambda_a[1]
        return lambda_a, lambda_b

    monkeypatch.setattr(HiddenVariableSampler, "draw_arrays", draw_arrays)


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


class TestVesselChshTies:
    # JSON runs draw diameters only for the joint siphon pair; a tie there
    # must still reach the tie policy.
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


class TestStdout:
    def test_report_goes_to_stdout_by_default(self, tmp_path, capsys):
        scenario = write_scenario(tmp_path, runs_per_pair=5)
        assert run_cli(["vessel-chsh", "--scenario", scenario]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["bell"]["value"] == 4.0


def reject_constant(token):
    raise ValueError(f"report holds the non-strict JSON constant {token}")


EXTREME_NUMBERS = [0.0, -0.0, 5e-324, 1e-300, 1.0, 2.5, 1e300, 1.7e308, -1.0, 2**64, 10**400]
NUMBERS = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from(EXTREME_NUMBERS + [math.nan, math.inf, -math.inf]),
)
WRONG_TYPES = st.sampled_from([None, "1.0", True, [], {}, [1.0]])
ANY_VALUE = st.one_of(NUMBERS, WRONG_TYPES, st.integers(-(2**70), 2**70))
POSITIVE = st.floats(min_value=5e-324, allow_infinity=False)

# Each scenario field as a valid value (extreme magnitudes included) and as
# an invalid one.  Run counts between 2000 and 2**53 are valid but slow;
# past 2**53 the parser must refuse them.
VALID_FIELDS = {
    "seed": st.integers(0, 2**64 - 1),
    "system": st.fixed_dictionaries(
        {}, optional={"total_volume": POSITIVE, "transparent": st.booleans()}
    ),
    "sampler": st.one_of(
        st.lists(POSITIVE, min_size=2, max_size=2, unique=True).map(
            lambda bounds: dict(zip(("low", "high"), sorted(bounds)))
        ),
        st.just({"low": 1.0, "high": 1.0 + 2.0**-40}),  # exact ties every few runs
    ),
    "runs_per_pair": st.integers(1, 2000),
    "tie_policy": st.sampled_from([policy.value for policy in TiePolicy]),
    "amplitudes": st.one_of(
        st.just(UNIFORM_AMPLITUDES),
        st.integers(0, 10).map(lambda k: [[float(i == k), 0.0] for i in range(11)]),
    ),
    "singlet_angles": st.lists(
        st.one_of(st.floats(-720, 720), st.floats(allow_nan=False, allow_infinity=False)),
        min_size=4,
        max_size=4,
    ),
}
INVALID_FIELDS = {
    "seed": st.one_of(st.integers(-(2**70), -1), st.integers(2**64, 2**70), NUMBERS, WRONG_TYPES),
    "system": st.one_of(
        st.fixed_dictionaries({"total_volume": NUMBERS}),
        st.fixed_dictionaries({"transparent": WRONG_TYPES}),
        st.fixed_dictionaries({"depth": ANY_VALUE}),
        WRONG_TYPES,
    ),
    "sampler": st.one_of(
        st.fixed_dictionaries({"low": st.one_of(NUMBERS, WRONG_TYPES), "high": NUMBERS}),
        WRONG_TYPES,
    ),
    "runs_per_pair": st.one_of(
        st.integers(2**53 + 1, 2**200),
        st.sampled_from([2**53 + 1, 10**30, 0, -3, 1.5, math.nan, "10", None]),
    ),
    "tie_policy": st.one_of(st.just("coin"), WRONG_TYPES),
    "amplitudes": st.one_of(
        st.lists(st.lists(NUMBERS, min_size=2, max_size=2), max_size=12),
        WRONG_TYPES,
    ),
    "singlet_angles": st.one_of(st.lists(NUMBERS, max_size=5), WRONG_TYPES),
    "unknown_field": ANY_VALUE,
}


@st.composite
def scenario_dicts(draw):
    """A scenario with up to two fields left out and up to two made invalid."""
    absent = draw(st.sets(st.sampled_from(sorted(VALID_FIELDS)), max_size=2))
    broken = draw(st.sets(st.sampled_from(sorted(INVALID_FIELDS)), max_size=2))
    data = {name: draw(valid) for name, valid in VALID_FIELDS.items() if name not in absent}
    data.update({name: draw(INVALID_FIELDS[name]) for name in sorted(broken)})
    return data


OPTION_NUMBERS = st.one_of(
    st.sampled_from(["1.0", "2.0", "0.5", "0", "-1", "1e-200", "1e200", "nan", "-inf", "x"]),
    st.floats(min_value=0.01, max_value=10.0).map(repr),
    st.floats(allow_nan=False, allow_infinity=False).map(repr),
)


@st.composite
def subcommand_options(draw):
    """A subcommand plus its options, every one of them possibly invalid."""
    subcommand = draw(
        st.sampled_from(["vessel-chsh", "locality-check", "sample-state", "quantum-chsh", "flow"])
    )
    options = [subcommand, "--format", draw(st.sampled_from(["json", "csv"]))]
    if subcommand in ("vessel-chsh", "quantum-chsh") and draw(st.booleans()):
        options += ["--workers", draw(st.sampled_from(["1", "2", "3", "0", "-1", "x"]))]
    if subcommand == "quantum-chsh" and draw(st.booleans()):
        options.append("--analytic")
    if subcommand == "flow":
        # "--option=value", so argparse takes "-1" as a value, not an option.
        options += [f"--lambda-a={draw(OPTION_NUMBERS)}", f"--lambda-b={draw(OPTION_NUMBERS)}"]
        if draw(st.booleans()):
            dt = draw(st.sampled_from(["1e-4", "1e-2", "0", "-1e-3", "1e-300", "inf"]))
            options.append(f"--dt={dt}")
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
