"""Scenario files: strict JSON configuration for every subcommand.

A scenario pins everything a run depends on.  The seed is mandatory
(silent nondeterminism is not allowed in a verification tool); all other
fields default.  Unknown fields are rejected rather than ignored so a typo
cannot silently fall back to a default.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path

from .bell import HiddenVariableSampler
from .errors import ConfigError, InvariantError
from .quantum import VesselSuperpositionState, make_state
from .vessels import TiePolicy, VesselSystem

DEFAULT_RUNS_PER_PAIR = 1000
# Past 2**53 a float no longer counts runs exactly, so means and standard
# errors would be computed from rounded counts.
MAX_RUNS_PER_PAIR = 2**53

_TOP_LEVEL_FIELDS = {
    "seed",
    "system",
    "sampler",
    "runs_per_pair",
    "tie_policy",
    "amplitudes",
    "singlet_angles",
}


@dataclass(frozen=True)
class Scenario:
    """A fully resolved run configuration; the sampler carries the seed."""

    system: VesselSystem
    sampler: HiddenVariableSampler
    runs_per_pair: int
    tie_policy: TiePolicy
    amplitudes: tuple[tuple[float, float], ...] | None = None
    singlet_angles: tuple[float, float, float, float] | None = None

    @property
    def seed(self) -> int:
        return self.sampler.seed

    def state(self) -> VesselSuperpositionState:
        if self.amplitudes is None:
            raise ConfigError("scenario.amplitudes: missing; sample-state needs them")
        return make_state([complex(re, im) for re, im in self.amplitudes])

    def echo(self) -> dict:
        """Resolved scenario as a JSON-ready dict; re-parsing it is a no-op."""
        data: dict = {
            "seed": self.seed,
            "system": {
                "total_volume": self.system.total_volume,
                "transparent": self.system.transparent,
            },
            "sampler": {"low": self.sampler.low, "high": self.sampler.high},
            "runs_per_pair": self.runs_per_pair,
            "tie_policy": self.tie_policy.value,
        }
        if self.amplitudes is not None:
            data["amplitudes"] = [[re, im] for re, im in self.amplitudes]
        if self.singlet_angles is not None:
            data["singlet_angles"] = list(self.singlet_angles)
        return data


def _require_mapping(value, where: str) -> dict:
    if not isinstance(value, dict):
        raise ConfigError(f"{where}: expected an object, got {type(value).__name__}")
    return value


def _reject_unknown(data: dict, allowed: set[str], where: str) -> None:
    unknown = sorted(set(data) - allowed)
    if unknown:
        raise ConfigError(
            f"{where}: unknown field(s) {unknown}; allowed: {sorted(allowed)}"
        )


def _as_number(value, where: str) -> float:
    # json.loads accepts NaN and Infinity tokens, and integers too large for
    # a float; none of them is a usable parameter.
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{where}: expected a number, got {value!r}")
    try:
        number = float(value)
    except OverflowError:
        number = math.inf
    if not math.isfinite(number):
        raise ConfigError(f"{where}: expected a finite number, got {value!r}")
    return number


def _as_int(value, where: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(f"{where}: expected an integer, got {value!r}")
    return value


def _as_bool(value, where: str) -> bool:
    if not isinstance(value, bool):
        raise ConfigError(f"{where}: expected true or false, got {value!r}")
    return value


# The fields of each nested object, with the reader that checks a JSON value.
_OBJECT_READERS = {
    "system": {"total_volume": _as_number, "transparent": _as_bool},
    "sampler": {"low": _as_number, "high": _as_number},
}
# Scenario path of each nested field, for an InvariantError that names it.
_FIELD_PATHS = {
    key: f"{section}.{key}" for section, readers in _OBJECT_READERS.items() for key in readers
}


def _parse_seed(data: dict) -> int:
    if "seed" not in data:
        raise ConfigError(
            "scenario.seed: missing; an explicit seed is required for reproducible runs"
        )
    return _as_int(data["seed"], "scenario.seed")


def _parse_object(data: dict, name: str, cls: type, **given):
    """``cls`` built from the fields present in the ``name`` object, each
    checked by its reader; absent fields take the class's defaults."""
    readers = _OBJECT_READERS[name]
    raw = _require_mapping(data.get(name, {}), f"scenario.{name}")
    _reject_unknown(raw, set(readers), f"scenario.{name}")
    fields = {key: readers[key](value, f"scenario.{name}.{key}") for key, value in raw.items()}
    return cls(**given, **fields)


def _parse_tie_policy(data: dict) -> TiePolicy:
    raw = data.get("tie_policy", TiePolicy.ERROR.value)
    if not isinstance(raw, str):
        raise ConfigError(f"scenario.tie_policy: expected a string, got {raw!r}")
    try:
        return TiePolicy(raw)
    except ValueError:
        valid = [policy.value for policy in TiePolicy]
        raise ConfigError(
            f"scenario.tie_policy: {raw!r} is not one of {valid}"
        ) from None


def _parse_amplitudes(data: dict) -> tuple[tuple[float, float], ...] | None:
    if "amplitudes" not in data:
        return None
    raw = data["amplitudes"]
    if not isinstance(raw, list):
        raise ConfigError(
            f"scenario.amplitudes: expected a list of [re, im] pairs, got {type(raw).__name__}"
        )
    pairs = []
    for index, entry in enumerate(raw):
        where = f"scenario.amplitudes[{index}]"
        if not isinstance(entry, list) or len(entry) != 2:
            raise ConfigError(f"{where}: expected an [re, im] pair, got {entry!r}")
        pairs.append((_as_number(entry[0], where), _as_number(entry[1], where)))
    make_state([complex(re, im) for re, im in pairs])
    return tuple(pairs)


def _parse_singlet_angles(data: dict) -> tuple[float, float, float, float] | None:
    if "singlet_angles" not in data:
        return None
    raw = data["singlet_angles"]
    if not isinstance(raw, list) or len(raw) != 4:
        raise ConfigError(
            "scenario.singlet_angles: expected four planar angles in degrees "
            "(A, A', B, B')"
        )
    return tuple(
        _as_number(entry, f"scenario.singlet_angles[{index}]")
        for index, entry in enumerate(raw)
    )


def scenario_from_dict(data: dict) -> Scenario:
    """Validate a parsed JSON object and resolve defaults.

    Only what raw JSON can get wrong is checked here; the model objects'
    own ``InvariantError`` becomes a ``ConfigError`` at the field's path.
    """
    data = _require_mapping(data, "scenario")
    _reject_unknown(data, _TOP_LEVEL_FIELDS, "scenario")
    runs_per_pair = _as_int(
        data.get("runs_per_pair", DEFAULT_RUNS_PER_PAIR), "scenario.runs_per_pair"
    )
    if not 1 <= runs_per_pair <= MAX_RUNS_PER_PAIR:
        raise ConfigError(
            f"scenario.runs_per_pair: must be between 1 and 2**53, got {runs_per_pair}"
        )
    try:
        return Scenario(
            sampler=_parse_object(data, "sampler", HiddenVariableSampler, seed=_parse_seed(data)),
            system=_parse_object(data, "system", VesselSystem),
            runs_per_pair=runs_per_pair,
            tie_policy=_parse_tie_policy(data),
            amplitudes=_parse_amplitudes(data),
            singlet_angles=_parse_singlet_angles(data),
        )
    except InvariantError as exc:
        path = _FIELD_PATHS.get(exc.field, exc.field)
        raise ConfigError(f"scenario.{path}: {exc}") from None


def parse_scenario(path: str | Path) -> Scenario:
    """Load and validate a scenario file."""
    path = Path(path)
    try:
        text = path.read_text()
    except OSError as exc:
        raise ConfigError(f"cannot read scenario file {path}: {exc}") from None
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(
            f"{path}:{exc.lineno}:{exc.colno}: invalid JSON: {exc.msg}"
        ) from None
    return scenario_from_dict(data)
