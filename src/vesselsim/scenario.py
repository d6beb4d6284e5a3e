"""Scenario files: strict JSON configuration for every subcommand.

A scenario pins everything a run depends on.  The seed is mandatory
(silent nondeterminism is not allowed in a verification tool); all other
fields default.  Unknown fields are rejected rather than ignored so a typo
cannot silently fall back to a default, and a field given twice in one
object is rejected rather than resolved to its last value.

Each field is declared once: the nested ``system`` and ``sampler`` fields in
``_OBJECT_READERS``, every other field but the seed in ``_FIELDS``.  Parsing
and ``Scenario.echo`` both read those tables.
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
        data: dict = {"seed": self.seed}
        for name, readers in _OBJECT_READERS.items():
            section = getattr(self, name)
            data[name] = {key: getattr(section, key) for key in readers}
        for name, (_, _, write) in _FIELDS.items():
            value = getattr(self, name)
            if value is not None:
                data[name] = write(value)
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
# Sections and fields are named as the attributes they fill, which echo() reads.
_OBJECT_READERS = {
    "system": {"total_volume": _as_number, "transparent": _as_bool},
    "sampler": {"low": _as_number, "high": _as_number},
}
# Scenario path of each nested field, for an InvariantError that names it.
_FIELD_PATHS = {
    key: f"{section}.{key}" for section, readers in _OBJECT_READERS.items() for key in readers
}


def _parse_object(data: dict, name: str, cls: type, **given):
    """``cls`` built from the fields present in the ``name`` object, each
    checked by its reader; absent fields take the class's defaults."""
    readers = _OBJECT_READERS[name]
    raw = _require_mapping(data.get(name, {}), f"scenario.{name}")
    _reject_unknown(raw, set(readers), f"scenario.{name}")
    fields = {key: readers[key](value, f"scenario.{name}.{key}") for key, value in raw.items()}
    return cls(**given, **fields)


def _as_run_count(value, where: str) -> int:
    runs = _as_int(value, where)
    if not 1 <= runs <= MAX_RUNS_PER_PAIR:
        raise ConfigError(f"{where}: must be between 1 and 2**53, got {runs}")
    return runs


def _as_tie_policy(value, where: str) -> TiePolicy:
    if not isinstance(value, str):
        raise ConfigError(f"{where}: expected a string, got {value!r}")
    try:
        return TiePolicy(value)
    except ValueError:
        valid = [policy.value for policy in TiePolicy]
        raise ConfigError(f"{where}: {value!r} is not one of {valid}") from None


def _as_amplitudes(value, where: str) -> tuple[tuple[float, float], ...]:
    if not isinstance(value, list):
        raise ConfigError(
            f"{where}: expected a list of [re, im] pairs, got {type(value).__name__}"
        )
    pairs = []
    for index, entry in enumerate(value):
        at = f"{where}[{index}]"
        if not isinstance(entry, list) or len(entry) != 2:
            raise ConfigError(f"{at}: expected an [re, im] pair, got {entry!r}")
        pairs.append((_as_number(entry[0], at), _as_number(entry[1], at)))
    make_state([complex(re, im) for re, im in pairs])
    return tuple(pairs)


def _as_angles(value, where: str) -> tuple[float, float, float, float]:
    if not isinstance(value, list) or len(value) != 4:
        raise ConfigError(f"{where}: expected four planar angles in degrees (A, A', B, B')")
    return tuple(_as_number(entry, f"{where}[{index}]") for index, entry in enumerate(value))


# Every top-level field but the seed and the nested objects: the reader that
# checks its JSON value, its value when the file leaves it out, and the
# writer of its echo (a None value is not echoed).  Named as the attributes
# they fill.
_FIELDS = {
    "runs_per_pair": (_as_run_count, DEFAULT_RUNS_PER_PAIR, int),
    "tie_policy": (_as_tie_policy, TiePolicy.ERROR, lambda policy: policy.value),
    "amplitudes": (_as_amplitudes, None, lambda pairs: [list(pair) for pair in pairs]),
    "singlet_angles": (_as_angles, None, list),
}


def scenario_from_dict(data: dict) -> Scenario:
    """Validate a parsed JSON object and resolve defaults.

    Only what raw JSON can get wrong is checked here; the model objects'
    own ``InvariantError`` becomes a ``ConfigError`` at the field's path.
    """
    data = _require_mapping(data, "scenario")
    _reject_unknown(data, {"seed", *_OBJECT_READERS, *_FIELDS}, "scenario")
    if "seed" not in data:
        raise ConfigError(
            "scenario.seed: missing; an explicit seed is required for reproducible runs"
        )
    seed = _as_int(data["seed"], "scenario.seed")
    try:
        return Scenario(
            sampler=_parse_object(data, "sampler", HiddenVariableSampler, seed=seed),
            system=_parse_object(data, "system", VesselSystem),
            **{
                name: read(data[name], f"scenario.{name}") if name in data else absent
                for name, (read, absent, _) in _FIELDS.items()
            },
        )
    except InvariantError as exc:
        path = _FIELD_PATHS.get(exc.field, exc.field)
        raise ConfigError(f"scenario.{path}: {exc}") from None


def _unique_fields(pairs: list[tuple[str, object]]) -> dict:
    """One JSON object, refused if it names a field twice: the decoder
    would otherwise keep the last value without a word."""
    seen: set[str] = set()
    for key, _ in pairs:
        if key in seen:
            raise ConfigError(f"scenario: field {key!r} is given more than once in one object")
        seen.add(key)
    return dict(pairs)


def parse_scenario(path: str | Path) -> Scenario:
    """Load and validate a scenario file.

    JSON text is UTF-8 whatever the locale says; bytes that do not decode,
    nesting too deep for the decoder, an integer literal too long for it
    and a field named twice in one object are configuration errors too.
    """
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8")
    except OSError as exc:
        raise ConfigError(f"cannot read scenario file {path}: {exc}") from None
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{path}: invalid JSON: not UTF-8 text: {exc}") from None
    try:
        data = json.loads(text, object_pairs_hook=_unique_fields)
    except json.JSONDecodeError as exc:
        raise ConfigError(
            f"{path}:{exc.lineno}:{exc.colno}: invalid JSON: {exc.msg}"
        ) from None
    except RecursionError:
        raise ConfigError(f"{path}: invalid JSON: nested too deeply to decode") from None
    except ValueError:
        # The decoder's int() refuses literals past sys.get_int_max_str_digits().
        raise ConfigError(
            f"{path}: invalid JSON: an integer has too many digits to convert"
        ) from None
    return scenario_from_dict(data)
