"""Run configuration: plain-text sections with strictly unit-checked values.

The experiment spans nanovolt signals on a 3 V scale, so every physical
quantity in a config file must carry an explicit unit suffix (V, nV, s, ms,
Hz, V/s, ...) of the expected dimension; a bare number where a voltage is
expected is a hard error, not a guess.
"""

import configparser
from dataclasses import dataclass, field
import math
import os
import re

from .model import Interpretation, NonlinearParams
from .signal import AcquisitionConfig, AcquisitionMode
from .sources import SourceKind, SourceSpec


class ConfigError(ValueError):
    pass


_UNIT_SCALES = {
    "voltage": {"V": 1.0, "mV": 1e-3, "uV": 1e-6, "nV": 1e-9, "pV": 1e-12},
    "time": {"s": 1.0, "ms": 1e-3, "us": 1e-6},
    "frequency": {"Hz": 1.0, "kHz": 1e3, "MHz": 1e6},
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


@dataclass(frozen=True)
class AnalysisSettings:
    threshold: float = 1.0  # V
    n_bins: int = 50
    mc_realizations: int = 10_000
    cl: float = 0.90
    bound_rule: str = "central"

    def __post_init__(self):
        if self.bound_rule not in ("central", "folded", "mc-percentile"):
            raise ConfigError(f"unknown bound_rule {self.bound_rule!r}")
        if not 0.0 < self.cl < 1.0:
            raise ConfigError(f"cl {self.cl} outside (0, 1)")
        if self.n_bins < 1 or self.mc_realizations < 100:
            raise ConfigError("n_bins must be >= 1 and mc_realizations >= 100")


@dataclass(frozen=True)
class RunConfig:
    seed: int
    sources: tuple  # of SourceSpec
    params: NonlinearParams = field(default_factory=NonlinearParams)
    acquisition: AcquisitionConfig = field(default_factory=AcquisitionConfig)
    analysis: AnalysisSettings = field(default_factory=AnalysisSettings)

    def __post_init__(self):
        if not self.sources:
            raise ConfigError("at least one source is required")
        ids = [s.id for s in self.sources]
        if len(set(ids)) != len(ids):
            raise ConfigError(f"duplicate source ids: {ids}")


class _Section:
    """Wrapper that tracks consumed keys so typos are rejected."""

    def __init__(self, name, mapping):
        self.name = name
        self.mapping = dict(mapping)
        self.used = set()

    def get(self, key, default=None, required=False):
        if key in self.mapping:
            self.used.add(key)
            return self.mapping[key]
        if required:
            raise ConfigError(f"[{self.name}] missing required key {key!r}")
        return default

    def check_exhausted(self):
        extra = set(self.mapping) - self.used
        if extra:
            raise ConfigError(f"[{self.name}] unknown keys: {sorted(extra)}")


def _quantity(section, key, kind, default):
    raw = section.get(key)
    if raw is None:
        return default
    try:
        return parse_quantity(raw, kind)
    except ConfigError as exc:
        raise ConfigError(f"[{section.name}] {key}: {exc}") from exc


def _number(section, key, default, integer=False):
    raw = section.get(key)
    if raw is None:
        return default
    try:
        value = parse_number(raw)
        if integer and value != int(value):
            raise ConfigError(f"{value!r} is not an integer")
    except ConfigError as exc:
        raise ConfigError(f"[{section.name}] {key}: {exc}") from exc
    return int(value) if integer else value


def load_config(path: str | os.PathLike) -> RunConfig:
    parser = configparser.ConfigParser(interpolation=None, delimiters=("=",))
    parser.optionxform = str
    read = parser.read(path, encoding="utf-8")
    if not read:
        raise FileNotFoundError(f"config file not found: {path}")

    sections = {name: _Section(name, parser[name]) for name in parser.sections()}

    def take(name):
        return sections.pop(name, _Section(name, {}))

    run = take("run")
    seed_raw = run.get("seed", required=True)
    try:
        seed = int(seed_raw)
    except ValueError as exc:
        raise ConfigError(f"[run] seed must be an integer, got {seed_raw!r}") from exc
    run.check_exhausted()

    p = take("params")
    try:
        params = NonlinearParams(
            eps_gamma=_number(p, "eps_gamma", 0.0),
            v0=_quantity(p, "v0", "voltage", 0.0),
            v1=_quantity(p, "v1", "voltage", 3.0),
            vs=_quantity(p, "vs", "voltage", 0.0),
            interpretation=Interpretation(p.get("interpretation", "everett")),
        )
    except ValueError as exc:
        raise ConfigError(f"[params]: {exc}") from exc
    p.check_exhausted()

    a = take("acquisition")
    try:
        acquisition = AcquisitionConfig(
            cycle_duration=_quantity(a, "cycle_duration", "time", 2.0),
            record_window=_quantity(a, "record_window", "time", 1.0),
            sample_rate=_quantity(a, "sample_rate", "sample_rate", 1000.0),
            filter_tau=_quantity(a, "filter_tau", "time", 1e-3),
            carrier_freq=_quantity(a, "carrier_freq", "frequency", 1e6),
            sigma_low=_quantity(a, "sigma_low", "voltage", 3.4e-9),
            sigma_high=_quantity(a, "sigma_high", "voltage", 1.8e-4),
            range_threshold=_quantity(a, "range_threshold", "voltage", 1.0),
            drift_rate=_quantity(a, "drift_rate", "drift", 0.0),
            mode=AcquisitionMode(a.get("mode", "fast")),
        )
    except ValueError as exc:
        raise ConfigError(f"[acquisition]: {exc}") from exc
    a.check_exhausted()

    an = take("analysis")
    analysis = AnalysisSettings(
        threshold=_quantity(an, "threshold", "voltage", 1.0),
        n_bins=_number(an, "n_bins", 50, integer=True),
        mc_realizations=_number(an, "mc_realizations", 10_000, integer=True),
        cl=_number(an, "cl", 0.90),
        bound_rule=an.get("bound_rule", "central"),
    )
    an.check_exhausted()

    source_specs = []
    for name in list(sections):
        if not name.startswith("source."):
            raise ConfigError(f"unknown section [{name}]")
        s = sections.pop(name)
        sid = name[len("source."):]
        try:
            kind = SourceKind(s.get("kind", required=True))
            count = int(s.get("count", required=True))
            if kind is SourceKind.CLASSICAL:
                fid_raw = s.get("fidelity")
                fidelity = 0.5 if fid_raw is None else parse_number(fid_raw)
            else:
                fidelity = parse_number(s.get("fidelity", required=True))
            spec = SourceSpec(id=sid, kind=kind, fidelity=fidelity, count=count)
        except ValueError as exc:
            raise ConfigError(f"[{name}]: {exc}") from exc
        s.check_exhausted()
        source_specs.append(spec)

    return RunConfig(
        seed=seed,
        sources=tuple(source_specs),
        params=params,
        acquisition=acquisition,
        analysis=analysis,
    )
