"""Config-file ingestion for the batch CLI.

Plain `key = value` lines grouped under `[section]` headers, `#` starts a
comment. Every key is validated against a fixed schema (type, range and
spelling), and violations are reported with the offending line number.
Unknown keys are rejected by name rather than ignored, so a typo cannot
silently fall back to a default.

`SCHEMA` is also the only description of the command-line flags: the CLI
generates one flag per key (selfcheck's --seed from `SEED`) and passes its
value through the same `parse_value` check, so a flag and a config line are
rejected alike; the parameter dataclasses check theirs by `check_ranges`.

The module is stdlib-only, so building the parser executes no physics
module. The names the schema shares with the physics (sweep parameter
domains and axis count, qkd detection and predictor kinds, the electron
mass) are defined here and imported from here; ``presets`` is bound here
unexecuted and runs only when a preset or target name is parsed.
"""

from __future__ import annotations

import math
import re
from typing import Any, Callable, Iterable, NamedTuple

from . import presets

ELECTRON_MASS = 9.1093837015e-31  # kg
DETECTION_KINDS = frozenset({"homodyne", "heterodyne"})
PREDICTOR_KINDS = frozenset({"zoh", "linear"})
# Axis and fixed-parameter names a sweep may use, each with its domain (a check
# and its description); a SweepSpec checks that the chosen target consumes
# exactly these. An axis checks its start, a SweepSpec its fixed values.
SWEEP_PARAM_DOMAINS: dict[str, tuple[Callable[[float], bool], str]] = {
    "t": (lambda v: v > 0, "t > 0"),
    **{name: (lambda v: v >= 0, f"{name} >= 0") for name in ("alpha0_sq", "r", "epsilon", "alpha_sq")},
    "theta": (lambda v: True, ""),
}
SWEEP_PARAM_NAMES = tuple(SWEEP_PARAM_DOMAINS)
MAX_AXES = 3  # axes of a sweep grid


class ConfigError(Exception):
    """Raised for malformed, unknown, mistyped or out-of-range config input."""


class FieldSpec(NamedTuple):
    parse: Callable[[str], Any]
    default: Any
    check: Callable[[Any], bool] = lambda _: True
    describe: str = ""

    def require(self, value: Any, shown: str) -> Any:
        if not self.check(value):
            raise ValueError(f"{shown} violates {self.describe}")
        return value


def _parse_float(text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        raise ValueError(f"expected a number, got {text!r}") from None
    if not math.isfinite(value):
        raise ValueError(f"expected a finite number, got {text!r}")
    return value


def _parse_int(text: str) -> int:
    try:
        return int(text)
    except ValueError:
        raise ValueError(f"expected an integer, got {text!r}") from None


def _parse_bool(text: str) -> bool:
    if text == "true":
        return True
    if text == "false":
        return False
    raise ValueError(f"expected true or false, got {text!r}")


def _choice_of(options: Callable[[], Iterable[str]]) -> Callable[[str], str]:
    """Parser for one of ``options()``, which is read only when a value is parsed."""

    def parse(text: str) -> str:
        allowed = sorted(options())
        if text not in allowed:
            raise ValueError(f"expected one of {allowed}, got {text!r}")
        return text

    return parse


def _choice(*options: str) -> Callable[[str], str]:
    return _choice_of(lambda: options)


def _nonneg(v: float) -> bool:
    return v >= 0


def _positive(v: float) -> bool:
    return v > 0


def _unit_interval(v: float) -> bool:
    return 0 < v <= 1


_AXIS_FIELDS: dict[str, FieldSpec] = {}
for _i in range(1, MAX_AXES + 1):
    _AXIS_FIELDS[f"axis{_i}_name"] = FieldSpec(
        _choice(*SWEEP_PARAM_NAMES), None, describe="sweep axis name"
    )
    for _part in ("start", "stop", "step"):
        _AXIS_FIELDS[f"axis{_i}_{_part}"] = FieldSpec(_parse_float, None)

SCHEMA: dict[str, dict[str, FieldSpec]] = {
    "spectrum": {
        "nmax": FieldSpec(_parse_int, 10, lambda v: v >= 0, "nmax >= 0"),
        "epsilon": FieldSpec(_parse_float, 1e-3, _nonneg, "epsilon >= 0"),
        "dim": FieldSpec(_parse_int, 256, lambda v: v >= 8, "dim >= 8"),
    },
    "qsl": {
        "state": FieldSpec(_choice("coherent", "squeezed"), "coherent"),
        "alpha0": FieldSpec(_parse_float, 1.0, _nonneg, "alpha0 >= 0"),
        "r": FieldSpec(_parse_float, 0.5, _nonneg, "r >= 0"),
        "t": FieldSpec(_parse_float, 1.0, _positive, "t > 0"),
        "epsilon": FieldSpec(_parse_float, 0.0, _nonneg, "epsilon >= 0"),
    },
    "metrology": {
        "state": FieldSpec(_choice("coherent", "squeezed"), "coherent"),
        "alpha0": FieldSpec(_parse_float, 1.0, _nonneg, "alpha0 >= 0"),
        "r": FieldSpec(_parse_float, 0.5, _nonneg, "r >= 0"),
        "theta": FieldSpec(_parse_float, 0.0),
        "epsilon": FieldSpec(_parse_float, 0.0, _nonneg, "epsilon >= 0"),
    },
    # the defaults are the reference single-electron readout at 149 GHz (1 mW LO, kappa 2.0e2)
    "trap": {
        "nu": FieldSpec(_parse_float, 149e9, _positive, "nu > 0"),
        "p_lo": FieldSpec(_parse_float, 1e-3, _positive, "p_lo > 0"),
        "kappa": FieldSpec(_parse_float, 200.0, _positive, "kappa > 0"),
        # 0 means "derive from nu and mass"
        "epsilon": FieldSpec(_parse_float, 0.0, _nonneg, "epsilon >= 0"),
        "mass": FieldSpec(_parse_float, ELECTRON_MASS, _positive, "mass > 0"),
        "tau": FieldSpec(_parse_float, 1.0, _positive, "tau > 0"),
    },
    "qkd": {
        "transmissivity": FieldSpec(_parse_float, 0.5, _unit_interval, "0 < transmissivity <= 1"),
        "v_a": FieldSpec(_parse_float, 4.0, _positive, "v_a > 0"),
        "xi_base": FieldSpec(_parse_float, 0.01, _nonneg, "xi_base >= 0"),
        "chi_det": FieldSpec(_parse_float, 0.0, _nonneg, "chi_det >= 0"),
        "beta": FieldSpec(_parse_float, 0.95, _unit_interval, "0 < beta <= 1"),
        "detection": FieldSpec(_choice(*DETECTION_KINDS), "homodyne"),
        "trusted_detection": FieldSpec(_parse_bool, True),
        "sigma_phi0_sq": FieldSpec(_parse_float, 0.0, _nonneg, "sigma_phi0_sq >= 0"),
        "c_factor": FieldSpec(_parse_float, 0.0, _nonneg, "c_factor >= 0"),
        "gamma": FieldSpec(_parse_float, 0.0, _nonneg, "gamma >= 0"),
        "epsilon": FieldSpec(_parse_float, 0.0, _nonneg, "epsilon >= 0"),
        "t_window": FieldSpec(_parse_float, 0.0, _nonneg, "t_window >= 0"),
        "t_pilot": FieldSpec(_parse_float, 0.0, _nonneg, "t_pilot >= 0"),
        "dt": FieldSpec(_parse_float, 0.0, _nonneg, "dt >= 0"),
        "predictor": FieldSpec(_choice(*PREDICTOR_KINDS), "zoh"),
    },
    "sweep": {
        "preset": FieldSpec(_choice_of(lambda: presets.PRESETS), None),
        "target": FieldSpec(_choice_of(lambda: presets.TARGETS), None),
        **_AXIS_FIELDS,
        # fixed values for parameters not swept over
        **{
            name: FieldSpec(_parse_float, None, check, describe)
            for name, (check, describe) in SWEEP_PARAM_DOMAINS.items()
        },
    },
}

SEED = FieldSpec(_parse_int, 42, lambda v: 0 <= v < 2**64, "0 <= seed < 2**64")  # selfcheck --seed

_SECTION_RE = re.compile(r"^\[([A-Za-z0-9_]+)\]$")


def defaults() -> dict[str, dict[str, Any]]:
    """Fresh copy of every section populated with its documented defaults."""
    return {section: {key: spec.default for key, spec in fields.items()} for section, fields in SCHEMA.items()}


def parse_value(spec: FieldSpec, text: str) -> Any:
    """Parse one value and check its range; ValueError says what is wrong."""
    return spec.require(spec.parse(text), text)


def check_ranges(section: str, obj: Any, names: Iterable[str]) -> None:
    """Check attributes ``names`` of ``obj`` against the [section] ranges, as a config line is."""
    for name in names:
        value = getattr(obj, name)
        SCHEMA[section][name].require(value, str(value))


def parse_config_text(text: str) -> dict[str, dict[str, Any]]:
    """Validate config text against the schema; defaults fill whatever is absent."""
    result = defaults()
    section: str | None = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        match = _SECTION_RE.match(line)
        if match:
            section = match.group(1)
            if section not in SCHEMA:
                raise ConfigError(
                    f"line {lineno}: unknown section [{section}]; "
                    f"known sections: {', '.join(sorted(SCHEMA))}"
                )
            continue
        if "=" not in line:
            raise ConfigError(
                f"line {lineno}: expected 'key = value' or a [section] header, got {raw.strip()!r}"
            )
        if section is None:
            raise ConfigError(f"line {lineno}: key outside any [section] header")
        key, _, value_text = line.partition("=")
        key = key.strip()
        value_text = value_text.strip()
        fields = SCHEMA[section]
        if key not in fields:
            raise ConfigError(
                f"line {lineno}: unknown key {key!r} in section [{section}]; "
                f"known keys: {', '.join(sorted(fields))}"
            )
        try:
            result[section][key] = parse_value(fields[key], value_text)
        except ValueError as exc:
            raise ConfigError(f"line {lineno}: key {key!r}: {exc}") from None
    return result


def load_config(path: str) -> dict[str, dict[str, Any]]:
    """Read and validate a config file; missing file is a ConfigError."""
    try:
        with open(path, encoding="utf-8") as handle:
            text = handle.read()
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from None
    return parse_config_text(text)
