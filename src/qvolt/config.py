"""Run configuration: plain-text sections with strictly unit-checked values.

The experiment spans nanovolt signals on a 3 V scale, so every physical
quantity in a config file must carry an explicit unit suffix (V, nV, s, ms,
Sa/s, V/s, ...) of the expected dimension; a bare number where a voltage is
expected is a hard error, not a guess.
"""

import configparser
from dataclasses import dataclass, field
import math
import operator
import os
import re

from .analysis import BoundRule
from .model import NonlinearParams
from .signal import AcquisitionConfig, AcquisitionMode
from .sources import SourceSpec


class ConfigError(ValueError):
    pass


_UNIT_SCALES = {
    "voltage": {"V": 1.0, "mV": 1e-3, "uV": 1e-6, "nV": 1e-9, "pV": 1e-12},
    "time": {"s": 1.0, "ms": 1e-3, "us": 1e-6},
    "sample_rate": {"Sa/s": 1.0, "kSa/s": 1e3},
    "drift": {"V/s": 1.0, "mV/s": 1e-3, "uV/s": 1e-6, "nV/s": 1e-9},
}

_QTY_RE = re.compile(r"^\s*([+-]?[0-9.eE+-]+)\s*([A-Za-z/]+)\s*$")


def parse_quantity(text: str, kind: str) -> float:
    """Number + unit suffix, converted to SI base units for `kind`."""
    scales = _UNIT_SCALES[kind]
    m = _QTY_RE.match(text)
    if not m:
        raise ConfigError(
            f"expected '<number> <unit>' with a {kind} unit ({'/'.join(scales)}), got {text!r}"
        )
    number, unit = m.groups()
    if unit not in scales:
        raise ConfigError(f"unit {unit!r} is not a valid {kind} unit ({'/'.join(scales)})")
    try:
        value = float(number)
    except ValueError as exc:
        raise ConfigError(f"bad number {number!r} in {text!r}") from exc
    return _finite(value * scales[unit], text)


def parse_number(text: str) -> float:
    """Dimensionless value: must NOT carry a unit suffix."""
    try:
        value = float(text)
    except ValueError as exc:
        raise ConfigError(f"expected a bare dimensionless number, got {text!r}") from exc
    return _finite(value, text)


def _finite(value: float, text: str) -> float:
    if not math.isfinite(value):
        raise ConfigError(f"{text!r} is not a finite number")
    return value


def _integer(text: str) -> int:
    value = parse_number(text)
    if value != int(value):
        raise ConfigError(f"{value!r} is not an integer")
    return int(value)


@dataclass(frozen=True)
class AnalysisSettings:
    threshold: float = 1.0  # V
    n_bins: int = 50
    mc_realizations: int = 10_000
    cl: float = 0.90
    bound_rule: BoundRule = BoundRule.CENTRAL

    def __post_init__(self):
        object.__setattr__(self, "bound_rule", BoundRule(self.bound_rule))
        object.__setattr__(self, "n_bins", operator.index(self.n_bins))
        object.__setattr__(self, "mc_realizations", operator.index(self.mc_realizations))
        if not math.isfinite(self.threshold):
            raise ConfigError(f"threshold {self.threshold} is not finite")
        if not 0.0 < self.cl < 1.0:
            raise ConfigError(f"cl {self.cl} outside (0, 1)")
        if self.n_bins < 1:
            raise ConfigError(f"n_bins {self.n_bins} < 1")
        if self.mc_realizations < 100:
            raise ConfigError(f"mc_realizations {self.mc_realizations} < 100")


@dataclass(frozen=True)
class RunConfig:
    seed: int
    sources: tuple  # of SourceSpec
    params: NonlinearParams = field(default_factory=NonlinearParams)
    acquisition: AcquisitionConfig = field(default_factory=AcquisitionConfig)
    analysis: AnalysisSettings = field(default_factory=AnalysisSettings)

    def __post_init__(self):
        object.__setattr__(self, "seed", operator.index(self.seed))
        ids = [s.id for s in self.sources]
        if len(set(ids)) != len(ids):
            raise ConfigError(f"duplicate source ids: {ids}")
        # the fit is a line through each source's low mean against its fidelity
        fidelities = {s.id: s.fidelity for s in self.sources}
        if len(set(fidelities.values())) < 2:
            raise ConfigError(f"source fidelities {fidelities}: the fit needs at least two "
                              "distinct fidelities")


# How each key of a section is read: a unit kind of _UNIT_SCALES, or a
# function of the word. Keys a file leaves out keep the dataclass default.
_SECTIONS = {
    "params": (NonlinearParams, {
        "eps_gamma": parse_number,
        "v1": "voltage",
        "vs": "voltage",
    }),
    "acquisition": (AcquisitionConfig, {
        "cycle_duration": "time",
        "record_window": "time",
        "sample_rate": "sample_rate",
        "filter_tau": "time",
        "sigma_low": "voltage",
        "sigma_high": "voltage",
        "range_threshold": "voltage",
        "drift_rate": "drift",
        "mode": AcquisitionMode,
    }),
    "analysis": (AnalysisSettings, {
        "threshold": "voltage",
        "n_bins": _integer,
        "mc_realizations": _integer,
        "cl": parse_number,
        "bound_rule": BoundRule,
    }),
}
# int(), not _integer: seeds above 2**53 stay exact and `count = 2e1` is an error
_RUN_KEYS = {"seed": int}
_SOURCE_KEYS = {"count": int, "fidelity": parse_number}


def _section(name, raw, kinds, required=()):
    """Read each key of section [name] as `kinds` says; unknown keys are an error."""
    unknown = sorted(set(raw) - set(kinds))
    if unknown:
        raise ConfigError(f"[{name}] unknown keys: {unknown}")
    values = {}
    for key, text in raw.items():
        read = kinds[key]
        try:
            values[key] = parse_quantity(text, read) if isinstance(read, str) else read(text)
        except ValueError as exc:
            raise ConfigError(f"[{name}] {key}: {exc}") from exc
    for key in required:
        if key not in values:
            raise ConfigError(f"[{name}] missing required key {key!r}")
    return values


def _build(name, cls, **values):
    try:
        return cls(**values)
    except ValueError as exc:
        raise ConfigError(f"[{name}] {exc}") from exc


def load_config(path: str | os.PathLike) -> RunConfig:
    parser = configparser.ConfigParser(interpolation=None, delimiters=("=",))
    parser.optionxform = str
    try:
        read = parser.read(path, encoding="utf-8")
    except configparser.Error as exc:
        raise ConfigError(str(exc)) from exc
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{path}: not UTF-8 text: {exc}") from exc
    if not read:
        raise FileNotFoundError(f"config file not found: {path}")

    sections = {name: parser[name] for name in parser.sections()}
    seed = _section("run", sections.pop("run", {}), _RUN_KEYS, required=("seed",))["seed"]
    parts = {
        name: _build(name, cls, **_section(name, sections.pop(name, {}), kinds))
        for name, (cls, kinds) in _SECTIONS.items()
    }

    source_specs = []
    for name, raw in sections.items():
        if not name.startswith("source."):
            raise ConfigError(f"unknown section [{name}]")
        values = _section(name, raw, _SOURCE_KEYS, required=tuple(_SOURCE_KEYS))
        source_specs.append(_build(name, SourceSpec, id=name[len("source."):], **values))

    return RunConfig(seed=seed, sources=tuple(source_specs), **parts)
