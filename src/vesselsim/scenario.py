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
from .errors import ConfigError, NotNormalizedError, WrongArityError
from .quantum import N_AMPLITUDES, VesselSuperpositionState, make_state
from .vessels import TiePolicy, VesselSystem

DEFAULT_RUNS_PER_PAIR = 1000
# Past 2**53 a float no longer counts runs exactly, so means and standard
# errors would be computed from rounded counts.
MAX_RUNS_PER_PAIR = 2**53
DEFAULT_SAMPLER_LOW = 0.5
DEFAULT_SAMPLER_HIGH = 3.0

_TOP_LEVEL_FIELDS = {
    "seed",
    "system",
    "sampler",
    "runs_per_pair",
    "tie_policy",
    "amplitudes",
    "singlet_angles",
}
_SYSTEM_FIELDS = {"total_volume", "transparent"}
_SAMPLER_FIELDS = {"low", "high"}


@dataclass(frozen=True)
class Scenario:
    """A fully resolved run configuration."""

    seed: int
    system: VesselSystem
    sampler_low: float
    sampler_high: float
    runs_per_pair: int
    tie_policy: TiePolicy
    amplitudes: tuple[tuple[float, float], ...] | None = None
    singlet_angles: tuple[float, float, float, float] | None = None

    @property
    def sampler(self) -> HiddenVariableSampler:
        return HiddenVariableSampler(
            low=self.sampler_low, high=self.sampler_high, seed=self.seed
        )

    def state(self) -> VesselSuperpositionState:
        if self.amplitudes is None:
            raise ConfigError("scenario has no amplitudes")
        return make_state([complex(re, im) for re, im in self.amplitudes])

    def echo(self) -> dict:
        """Resolved scenario as a JSON-ready dict; re-parsing it is a no-op."""
        data: dict = {
            "seed": self.seed,
            "system": {
                "total_volume": self.system.total_volume,
                "transparent": self.system.transparent,
            },
            "sampler": {"low": self.sampler_low, "high": self.sampler_high},
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


def _parse_seed(data: dict) -> int:
    if "seed" not in data:
        raise ConfigError(
            "scenario.seed: missing; an explicit seed is required for reproducible runs"
        )
    seed = _as_int(data["seed"], "scenario.seed")
    if not 0 <= seed < 2**64:
        raise ConfigError(f"scenario.seed: must fit in 64 unsigned bits, got {seed}")
    return seed


def _parse_system(data: dict) -> VesselSystem:
    raw = _require_mapping(data.get("system", {}), "scenario.system")
    _reject_unknown(raw, _SYSTEM_FIELDS, "scenario.system")
    total_volume = _as_number(raw.get("total_volume", 20.0), "scenario.system.total_volume")
    if total_volume <= 0.0:
        raise ConfigError(
            f"scenario.system.total_volume: must be positive, got {total_volume}"
        )
    transparent = _as_bool(raw.get("transparent", True), "scenario.system.transparent")
    return VesselSystem(total_volume=total_volume, transparent=transparent)


def _parse_sampler(data: dict) -> tuple[float, float]:
    raw = _require_mapping(data.get("sampler", {}), "scenario.sampler")
    _reject_unknown(raw, _SAMPLER_FIELDS, "scenario.sampler")
    low = _as_number(raw.get("low", DEFAULT_SAMPLER_LOW), "scenario.sampler.low")
    high = _as_number(raw.get("high", DEFAULT_SAMPLER_HIGH), "scenario.sampler.high")
    if not 0.0 < low < high:
        raise ConfigError(
            f"scenario.sampler: need 0 < low < high, got [{low}, {high}]"
        )
    return low, high


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
    if not isinstance(raw, list) or len(raw) != N_AMPLITUDES:
        raise ConfigError(
            f"scenario.amplitudes: expected a list of {N_AMPLITUDES} [re, im] pairs, "
            f"got {len(raw) if isinstance(raw, list) else type(raw).__name__}"
        )
    pairs = []
    for index, entry in enumerate(raw):
        where = f"scenario.amplitudes[{index}]"
        if not isinstance(entry, list) or len(entry) != 2:
            raise ConfigError(f"{where}: expected an [re, im] pair, got {entry!r}")
        pairs.append((_as_number(entry[0], where), _as_number(entry[1], where)))
    amplitudes = tuple(pairs)
    try:
        make_state([complex(re, im) for re, im in amplitudes])
    except (NotNormalizedError, WrongArityError) as exc:
        raise ConfigError(f"scenario.amplitudes: {exc}") from None
    return amplitudes


def _parse_singlet_angles(data: dict) -> tuple[float, float, float, float] | None:
    if "singlet_angles" not in data:
        return None
    raw = data["singlet_angles"]
    if not isinstance(raw, list) or len(raw) != 4:
        raise ConfigError(
            "scenario.singlet_angles: expected four planar angles in degrees "
            "(A, A', B, B')"
        )
    angles = tuple(
        _as_number(entry, f"scenario.singlet_angles[{index}]")
        for index, entry in enumerate(raw)
    )
    return angles


def scenario_from_dict(data: dict) -> Scenario:
    """Validate a parsed JSON object and resolve defaults."""
    data = _require_mapping(data, "scenario")
    _reject_unknown(data, _TOP_LEVEL_FIELDS, "scenario")
    low, high = _parse_sampler(data)
    runs_per_pair = _as_int(
        data.get("runs_per_pair", DEFAULT_RUNS_PER_PAIR), "scenario.runs_per_pair"
    )
    if not 1 <= runs_per_pair <= MAX_RUNS_PER_PAIR:
        raise ConfigError(
            f"scenario.runs_per_pair: must be between 1 and 2**53, got {runs_per_pair}"
        )
    return Scenario(
        seed=_parse_seed(data),
        system=_parse_system(data),
        sampler_low=low,
        sampler_high=high,
        runs_per_pair=runs_per_pair,
        tie_policy=_parse_tie_policy(data),
        amplitudes=_parse_amplitudes(data),
        singlet_angles=_parse_singlet_angles(data),
    )


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
