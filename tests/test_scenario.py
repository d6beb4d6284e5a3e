"""Scenario parsing: defaults, strict validation, echo round-trip."""

import json
import math

import pytest

from vesselsim import ConfigError, TiePolicy, parse_scenario, scenario_from_dict


def write_scenario(tmp_path, data):
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(data))
    return path


class TestDefaults:
    def test_seed_only_scenario_resolves_all_defaults(self, tmp_path):
        scenario = parse_scenario(write_scenario(tmp_path, {"seed": 42}))
        assert scenario.seed == 42
        assert scenario.system.total_volume == 20.0
        assert scenario.system.transparent is True
        assert scenario.sampler.low == 0.5
        assert scenario.sampler.high == 3.0
        assert scenario.sampler.seed == 42
        assert scenario.runs_per_pair == 1000
        assert scenario.tie_policy is TiePolicy.ERROR
        assert scenario.amplitudes is None
        assert scenario.singlet_angles is None

    def test_seed_is_mandatory(self, tmp_path):
        with pytest.raises(ConfigError, match="seed"):
            parse_scenario(write_scenario(tmp_path, {}))

    def test_explicit_fields_override_defaults(self, tmp_path):
        scenario = parse_scenario(
            write_scenario(
                tmp_path,
                {
                    "seed": 7,
                    "system": {"total_volume": 12.5, "transparent": False},
                    "sampler": {"low": 1.0, "high": 2.0},
                    "runs_per_pair": 50,
                    "tie_policy": "favor_left",
                },
            )
        )
        assert scenario.system.total_volume == 12.5
        assert scenario.system.transparent is False
        assert (scenario.sampler.low, scenario.sampler.high) == (1.0, 2.0)
        assert scenario.runs_per_pair == 50
        assert scenario.tie_policy is TiePolicy.FAVOR_LEFT


class TestValidation:
    def test_unknown_top_level_field(self, tmp_path):
        with pytest.raises(ConfigError, match="unknown field"):
            parse_scenario(write_scenario(tmp_path, {"seed": 1, "colour": "blue"}))

    def test_unknown_nested_field(self, tmp_path):
        with pytest.raises(ConfigError, match="scenario.system"):
            parse_scenario(write_scenario(tmp_path, {"seed": 1, "system": {"volume": 20}}))

    def test_invalid_json_reports_position(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text('{"seed": 1,,}')
        with pytest.raises(ConfigError, match="invalid JSON"):
            parse_scenario(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError, match="cannot read"):
            parse_scenario(tmp_path / "nope.json")

    def test_seed_must_be_an_unsigned_64_bit_integer(self, tmp_path):
        for seed in (-1, 2**64, 1.5, True, "7"):
            with pytest.raises(ConfigError, match="seed"):
                parse_scenario(write_scenario(tmp_path, {"seed": seed}))

    def test_runs_per_pair_must_be_positive_integer(self, tmp_path):
        for runs in (0, -3, 2.5):
            with pytest.raises(ConfigError, match="runs_per_pair"):
                parse_scenario(write_scenario(tmp_path, {"seed": 1, "runs_per_pair": runs}))

    def test_transparent_must_be_boolean(self, tmp_path):
        with pytest.raises(ConfigError, match="transparent"):
            parse_scenario(
                write_scenario(tmp_path, {"seed": 1, "system": {"transparent": 1}})
            )

    def test_sampler_interval_checked(self, tmp_path):
        with pytest.raises(ConfigError, match="sampler"):
            parse_scenario(
                write_scenario(tmp_path, {"seed": 1, "sampler": {"low": 3.0, "high": 0.5}})
            )

    def test_tie_policy_values(self, tmp_path):
        with pytest.raises(ConfigError, match="tie_policy"):
            parse_scenario(write_scenario(tmp_path, {"seed": 1, "tie_policy": "coin"}))

    def test_amplitudes_arity_is_checked(self, tmp_path):
        ten = [[1.0 / math.sqrt(10), 0.0]] * 10
        with pytest.raises(ConfigError, match="amplitudes"):
            parse_scenario(write_scenario(tmp_path, {"seed": 1, "amplitudes": ten}))

    def test_amplitudes_must_be_pairs(self, tmp_path):
        bad = [[0.3]] + [[0.3, 0.0]] * 10
        with pytest.raises(ConfigError, match=r"amplitudes\[0\]"):
            parse_scenario(write_scenario(tmp_path, {"seed": 1, "amplitudes": bad}))

    def test_amplitudes_must_be_normalized(self, tmp_path):
        ones = [[1.0, 0.0]] * 11
        with pytest.raises(ConfigError, match="amplitudes"):
            parse_scenario(write_scenario(tmp_path, {"seed": 1, "amplitudes": ones}))

    @pytest.mark.parametrize(
        "overrides, path",
        [
            ({"seed": -1}, "scenario.seed: "),
            ({"seed": 2**64}, "scenario.seed: "),
            ({"system": {"total_volume": -2.0}}, "scenario.system.total_volume: "),
            ({"sampler": {"low": 0.0}}, "scenario.sampler.low: "),
            ({"sampler": {"low": 3.0, "high": 0.5}}, "scenario.sampler.high: "),
            ({"amplitudes": [[1.0, 0.0]] * 10}, "scenario.amplitudes: "),
            ({"amplitudes": [[1.0, 0.0]] * 11}, "scenario.amplitudes: "),
        ],
    )
    def test_model_invariants_report_their_scenario_path(self, tmp_path, overrides, path):
        with pytest.raises(ConfigError) as error:
            parse_scenario(write_scenario(tmp_path, {"seed": 1, **overrides}))
        assert str(error.value).startswith(path)

    def test_singlet_angles_arity(self, tmp_path):
        with pytest.raises(ConfigError, match="singlet_angles"):
            parse_scenario(
                write_scenario(tmp_path, {"seed": 1, "singlet_angles": [0, 90, 45]})
            )


class TestEcho:
    def test_echo_round_trips_to_the_same_scenario(self, tmp_path):
        amplitude = 1.0 / math.sqrt(11)
        scenario = parse_scenario(
            write_scenario(
                tmp_path,
                {
                    "seed": 9,
                    "system": {"total_volume": 18.0},
                    "runs_per_pair": 200,
                    "amplitudes": [[amplitude, 0.0]] * 11,
                    "singlet_angles": [0, 90, 45, 135],
                },
            )
        )
        assert scenario_from_dict(scenario.echo()) == scenario

    def test_echo_is_json_serializable(self, tmp_path):
        scenario = parse_scenario(write_scenario(tmp_path, {"seed": 3}))
        assert json.loads(json.dumps(scenario.echo())) == scenario.echo()

    def test_scenario_without_amplitudes_cannot_build_a_state(self, tmp_path):
        scenario = parse_scenario(write_scenario(tmp_path, {"seed": 3}))
        with pytest.raises(ConfigError):
            scenario.state()
