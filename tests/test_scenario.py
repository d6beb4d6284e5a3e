"""Scenario parsing: defaults, strict validation, echo round-trip."""

import json
import math

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from vesselsim import ConfigError, TiePolicy, parse_scenario, scenario_from_dict
from vesselsim.scenario import _FIELDS, _OBJECT_READERS

from strategies import INVALID_FIELDS, UP_TO_TWO_VALID, VALID_FIELDS


def write_scenario(tmp_path, data):
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(data))
    return path


@st.composite
def one_fault(draw):
    """A valid scenario with one field replaced by an invalid draw (an
    unknown field added, for ``unknown_field``), and the start of the
    message that must refuse it."""
    name = draw(st.sampled_from(sorted(INVALID_FIELDS)))
    data = {field: draw(valid) for field, valid in VALID_FIELDS.items()}
    where, data[name] = draw(INVALID_FIELDS[name])
    return where, data


def refused(where, **fields):
    """A hand-picked case of the single-fault contract: a scenario of seed 1
    and ``fields``, refused with a message that starts with ``where``."""
    return where, {"seed": 1, **fields}


# The hand-picked inputs of the single-fault contract, each run by the same
# check as the drawn faults.
HAND_PICKED_FAULTS = [
    ("scenario.seed: missing", {}),
    refused("scenario: unknown field", colour="blue"),
    refused("scenario.system: unknown field", system={"volume": 20}),
    refused("scenario.seed: ", seed=-1),
    refused("scenario.seed: ", seed=2**64),
    refused("scenario.seed: ", seed=1.5),
    refused("scenario.seed: ", seed=True),
    refused("scenario.seed: ", seed="7"),
    refused("scenario.runs_per_pair: ", runs_per_pair=0),
    refused("scenario.runs_per_pair: ", runs_per_pair=-3),
    refused("scenario.runs_per_pair: ", runs_per_pair=2.5),
    refused("scenario.system.transparent: ", system={"transparent": 1}),
    refused("scenario.system.total_volume: ", system={"total_volume": -2.0}),
    refused("scenario.sampler.low: ", sampler={"low": 0.0}),
    refused("scenario.sampler.high: ", sampler={"low": 3.0, "high": 0.5}),
    refused("scenario.tie_policy: ", tie_policy="coin"),
    refused("scenario.amplitudes: ", amplitudes=[[1.0 / math.sqrt(10), 0.0]] * 10),
    refused("scenario.amplitudes: ", amplitudes=[[1.0, 0.0]] * 10),
    refused("scenario.amplitudes[0]: ", amplitudes=[[0.3]] + [[0.3, 0.0]] * 10),
    refused("scenario.amplitudes: ", amplitudes=[[1.0, 0.0]] * 11),
    refused("scenario.singlet_angles: ", singlet_angles=[0, 90, 45]),
]


def assert_refused_at(where, data):
    """``data`` is refused with a ``ConfigError`` whose message starts with ``where``."""
    with pytest.raises(ConfigError) as error:
        scenario_from_dict(data)
    assert str(error.value).startswith(where), str(error.value)


@st.composite
def valid_scenarios(draw):
    """A valid scenario with up to two of its optional fields left out."""
    absent = draw(st.sampled_from([names for names in UP_TO_TWO_VALID if "seed" not in names]))
    return {name: draw(valid) for name, valid in VALID_FIELDS.items() if name not in absent}


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
    def test_invalid_json_reports_position(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text('{"seed": 1,,}')
        with pytest.raises(ConfigError, match="invalid JSON"):
            parse_scenario(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError, match="cannot read"):
            parse_scenario(tmp_path / "nope.json")

    def test_strategies_draw_every_field_of_the_parser(self):
        fields = {"seed", *_OBJECT_READERS, *_FIELDS}
        assert set(VALID_FIELDS) == fields
        assert set(INVALID_FIELDS) == fields | {"unknown_field"}

    @settings(max_examples=300)
    @given(fault=one_fault())
    def test_a_single_fault_is_reported_at_its_field(self, fault):
        assert_refused_at(*fault)

    @pytest.mark.parametrize("where, data", HAND_PICKED_FAULTS)
    def test_a_hand_picked_fault_is_reported_at_its_field(self, where, data):
        assert_refused_at(where, data)


class TestEcho:
    @settings(max_examples=300)
    @given(data=valid_scenarios())
    @example(data={"seed": 3})
    @example(
        data={
            "seed": 9,
            "system": {"total_volume": 18.0},
            "runs_per_pair": 200,
            "amplitudes": [[1.0 / math.sqrt(11), 0.0]] * 11,
            "singlet_angles": [0, 90, 45, 135],
        }
    )
    def test_echo_round_trips_to_the_same_scenario(self, data):
        scenario = scenario_from_dict(data)
        echo = scenario.echo()
        assert json.loads(json.dumps(echo, allow_nan=False)) == echo
        again = scenario_from_dict(echo)
        assert again == scenario
        assert again.echo() == echo

    def test_scenario_without_amplitudes_cannot_build_a_state(self, tmp_path):
        scenario = parse_scenario(write_scenario(tmp_path, {"seed": 3}))
        with pytest.raises(ConfigError):
            scenario.state()
