"""Run configuration: a small YAML document with typed sections.

A run is described by seven sections: ``model`` (which chain and which
quench), ``coupling`` (the probe qubit), ``ladder`` (the clock
register), ``scan`` (grid axes to sweep), ``oracle`` (finite-size
check settings), ``mc`` (trajectory sampling) and ``output``.  Every
key has a default, so a config file only states what differs; command
line ``--set section.key=value`` assignments override file values.

Every config is built one way: a mapping of sections goes through one
builder that type-checks each key, and :class:`RunConfig` checks the
cross-field rules whenever it is constructed, so a config changed with
:func:`dataclasses.replace` is checked too.  :func:`parse_config` builds
from a YAML document, :func:`apply_overrides` from the mapping of an
existing config with the assignments written into it.  Integers stay
exact.  :func:`parse_config` and :func:`emit_config` are exact inverses:
the emitted document always lists every key, so ``parse(emit(c)) == c``
for any config object.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field, fields
from typing import Any, Mapping

import numpy as np
import yaml

from .clock import LadderSpec, ladder_valid
from .errors import ConfigError
from .oracle import _check_settings
from .rates import QubitCoupling, coupling_valid
from .spectra import ModelArrays, ModelKind, QuenchSpec

FORMATS = ("csv", "json")
MODEL_KINDS = ("ising", "xx_ring")


@dataclass(frozen=True)
class ModelConfig:
    """Chain kind and quench parameters; only the kind's own keys matter."""

    kind: str = "ising"
    h_i: float = 0.5
    h_f: float = 1.5
    kappa: float = 1.0
    v_i: float = -1.0
    v_f: float = 1.0
    t: float = 1.0


@dataclass(frozen=True)
class CouplingConfig:
    epsilon0: float = 2.5
    g_obs: float = 0.1
    L: int = 512


@dataclass(frozen=True)
class LadderConfig:
    """Register settings; ``gamma: null`` defers to the fast-reset default.
    The rung energy is the probe gap ``coupling.epsilon0``."""

    d: int = 10
    g: float = 0.01
    gamma: float | None = None


@dataclass(frozen=True)
class AxisSpec:
    """One scan axis: ``steps`` points from ``min`` to ``max`` inclusive."""

    name: str
    min: float
    max: float
    steps: int


@dataclass(frozen=True)
class OracleConfig:
    L_oracle: int = 4096
    eta: float = 1e-3


@dataclass(frozen=True)
class McConfig:
    n_trajectories: int = 0
    seed: int = 1


@dataclass(frozen=True)
class OutputConfig:
    path: str | None = None
    format: str = "csv"
    precision: int = 12


@dataclass(frozen=True)
class PointArrays:
    """The quench, probe and ladder of every grid row, as arrays.

    Every parameter is a 1-D array over grid rows; ``Gamma`` is nan
    where the ladder leaves it None.  Both endpoints of the quench share
    the parameters a quench keeps fixed.  :meth:`point` builds the specs
    of one row.
    """

    initial: ModelArrays
    final: ModelArrays
    epsilon0: np.ndarray
    g_obs: np.ndarray
    L: np.ndarray
    d: np.ndarray
    g: np.ndarray
    Gamma: np.ndarray

    def valid(self) -> np.ndarray:
        """Rows whose specs :meth:`point` builds without an error."""
        return (self.initial.valid() & self.final.valid()
                & coupling_valid(self.epsilon0, self.g_obs, self.L)
                & ladder_valid(self.d, self.g, self.Gamma))

    def point(self, i: int) -> tuple[QuenchSpec, QubitCoupling, LadderSpec]:
        """The quench, probe and ladder of row ``i``.

        The ladder's rung is the row's probe gap.  A row :meth:`valid`
        rejects raises the ``ValueError`` of the first spec that rejects it.
        """
        def at(values):
            return values[i].item()

        a, b = self.initial, self.final
        if a.kind is ModelKind.ISING_XY:
            quench = QuenchSpec.ising(h_i=at(a.h), h_f=at(b.h), kappa=at(a.kappa))
        else:
            quench = QuenchSpec.xx_ring(V_i=at(a.V), V_f=at(b.V), t=at(a.t))
        coupling = QubitCoupling(epsilon0=at(self.epsilon0), g_obs=at(self.g_obs),
                                 L=at(self.L))
        gamma = at(self.Gamma)
        ladder = LadderSpec(d=at(self.d), epsilon_w=coupling.epsilon0, g=at(self.g),
                            Gamma=None if math.isnan(gamma) else gamma)
        return quench, coupling, ladder


@dataclass(frozen=True)
class RunConfig:
    model: ModelConfig = field(default_factory=ModelConfig)
    coupling: CouplingConfig = field(default_factory=CouplingConfig)
    ladder: LadderConfig = field(default_factory=LadderConfig)
    scan: tuple[AxisSpec, ...] = ()
    oracle: OracleConfig = field(default_factory=OracleConfig)
    mc: McConfig = field(default_factory=McConfig)
    output: OutputConfig = field(default_factory=OutputConfig)

    def __post_init__(self) -> None:
        _validate(self)

    def point_arrays(self, columns: Mapping[str, np.ndarray], n: int) -> PointArrays:
        """The quench, probe and ladder parameters of ``n`` grid rows.

        ``columns`` maps sweepable names (see :data:`SWEEPABLE`) to their
        values on every row; every other parameter comes from the config.
        This is the one place where config keys and scan axes become
        model, probe and ladder parameters.
        """
        m = self.model
        c = self.coupling
        lad = self.ladder

        def get(name, default, dtype=float):
            if name in columns:
                return np.asarray(columns[name], dtype=dtype)
            return np.full(n, np.nan if default is None else default, dtype=dtype)

        if m.kind == "ising":
            kappa = get("kappa", m.kappa)
            initial = ModelArrays(ModelKind.ISING_XY, h=get("h_i", m.h_i), kappa=kappa)
            final = ModelArrays(ModelKind.ISING_XY, h=get("h_f", m.h_f), kappa=kappa)
        else:
            t = get("t", m.t)
            initial = ModelArrays(ModelKind.XX_RING, t=t, V=get("v_i", m.v_i))
            final = ModelArrays(ModelKind.XX_RING, t=t, V=get("v_f", m.v_f))
        return PointArrays(initial=initial, final=final,
                           epsilon0=get("epsilon0", c.epsilon0),
                           g_obs=get("g_obs", c.g_obs), L=get("L", c.L, int),
                           d=get("d", lad.d, int), g=get("g", lad.g),
                           Gamma=get("gamma", lad.gamma))


# Sweepable / settable leaf parameters: name -> (section, field, type, kind).
# ``kind`` restricts model parameters to the matching chain.
SWEEPABLE: dict[str, tuple[str, str, type, str | None]] = {
    "h_i": ("model", "h_i", float, "ising"),
    "h_f": ("model", "h_f", float, "ising"),
    "kappa": ("model", "kappa", float, "ising"),
    "v_i": ("model", "v_i", float, "xx_ring"),
    "v_f": ("model", "v_f", float, "xx_ring"),
    "t": ("model", "t", float, "xx_ring"),
    "epsilon0": ("coupling", "epsilon0", float, None),
    "g_obs": ("coupling", "g_obs", float, None),
    "L": ("coupling", "L", int, None),
    "d": ("ladder", "d", int, None),
    "g": ("ladder", "g", float, None),
    "gamma": ("ladder", "gamma", float, None),
}

_SECTIONS = {
    "model": ModelConfig,
    "coupling": CouplingConfig,
    "ladder": LadderConfig,
    "oracle": OracleConfig,
    "mc": McConfig,
    "output": OutputConfig,
}


def _need_number(where: str, value: Any) -> float:
    # YAML booleans are ints in Python; reject them for numeric keys.
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{where}: expected a number, got {value!r}")
    try:
        v = float(value)
    except OverflowError:
        raise ConfigError(f"{where}: integer beyond float range") from None
    if not math.isfinite(v):
        raise ConfigError(f"{where}: expected a finite number, got {value!r}")
    return v


def _need_int(where: str, value: Any) -> int:
    v = _need_number(where, value)
    if isinstance(value, int):
        return value  # exact, also above 2**53
    if not v.is_integer():
        raise ConfigError(f"{where}: expected an integer, got {value!r}")
    return int(v)


def _need_str(where: str, value: Any) -> str:
    if not isinstance(value, str):
        raise ConfigError(f"{where}: expected a string, got {value!r}")
    return value


_INT64_MIN = -(2**63)
_INT64_MAX = 2**63 - 1

_OPTIONAL_FLOATS = {("ladder", "gamma")}
_OPTIONAL_STRS = {("output", "path")}


def _build_section(name: str, cls: type, raw: Any) -> Any:
    if raw is None:
        raw = {}
    if not isinstance(raw, dict):
        raise ConfigError(f"{name}: expected a mapping, got {raw!r}")
    defaults = cls()
    valid = {f.name for f in fields(cls)}
    kwargs: dict[str, Any] = {}
    for key, value in raw.items():
        if key not in valid:
            raise ConfigError(f"{name}.{key}: unknown key")
        where = f"{name}.{key}"
        if (name, key) in _OPTIONAL_FLOATS:
            kwargs[key] = None if value is None else _need_number(where, value)
        elif (name, key) in _OPTIONAL_STRS:
            kwargs[key] = None if value is None else _need_str(where, value)
        else:
            # The default value carries the target type (int before float:
            # bool is excluded inside the numeric checks).
            d = getattr(defaults, key)
            if isinstance(d, int):
                kwargs[key] = _need_int(where, value)
            elif isinstance(d, float):
                kwargs[key] = _need_number(where, value)
            else:
                kwargs[key] = _need_str(where, value)
    return cls(**kwargs)


def _build_axes(raw: Any) -> tuple[AxisSpec, ...]:
    if raw is None:
        return ()
    if isinstance(raw, dict):
        raw = raw.get("axes", [])
    if raw is None:
        return ()
    if not isinstance(raw, list):
        raise ConfigError(f"scan.axes: expected a list, got {raw!r}")
    axes = []
    for i, entry in enumerate(raw):
        where = f"scan.axes[{i}]"
        if not isinstance(entry, dict):
            raise ConfigError(f"{where}: expected a mapping, got {entry!r}")
        extra = set(entry) - {"name", "min", "max", "steps"}
        if extra:
            raise ConfigError(f"{where}: unknown keys {sorted(extra)}")
        try:
            name = entry["name"]
            lo = entry["min"]
            hi = entry["max"]
            steps = entry["steps"]
        except KeyError as exc:
            raise ConfigError(f"{where}: missing key {exc.args[0]!r}") from None
        if not isinstance(name, str):
            raise ConfigError(f"{where}.name: expected a string, got {name!r}")
        axes.append(AxisSpec(name=name,
                             min=_need_number(f"{where}.min", lo),
                             max=_need_number(f"{where}.max", hi),
                             steps=_need_int(f"{where}.steps", steps)))
    return tuple(axes)


def _validate(config: RunConfig) -> None:
    if config.model.kind not in MODEL_KINDS:
        raise ConfigError(
            f"model.kind: must be one of {MODEL_KINDS}, got {config.model.kind!r}")
    if config.output.format not in FORMATS:
        raise ConfigError(
            f"output.format: must be one of {FORMATS}, got {config.output.format!r}")
    if not (6 <= config.output.precision <= 17):
        raise ConfigError(
            f"output.precision: must be in [6, 17], got {config.output.precision}")
    if not (0 <= config.mc.seed < 2**64):
        raise ConfigError(f"mc.seed: must fit in a u64, got {config.mc.seed}")
    if config.mc.n_trajectories < 0 or config.mc.n_trajectories == 1:
        raise ConfigError("mc.n_trajectories: must be 0 (no sampling) or >= 2, "
                          f"got {config.mc.n_trajectories}")
    # The oracle's own rules; its eta bound depends on the band, so a bad
    # eta stays a domain error of the point.
    try:
        _check_settings(config.oracle.L_oracle)
    except ValueError as exc:
        raise ConfigError(f"oracle: {exc}") from None
    # A grid holds the integer parameters in int64 arrays.
    for name, (section, key, kind, _) in SWEEPABLE.items():
        value = getattr(getattr(config, section), key)
        if kind is int and not _INT64_MIN <= value <= _INT64_MAX:
            raise ConfigError(f"{section}.{key}: must fit in an i64, got {value}")
    for axis in config.scan:
        if axis.name not in SWEEPABLE:
            raise ConfigError(
                f"scan.axes: unknown parameter {axis.name!r}; "
                f"choose from {sorted(SWEEPABLE)}")
        if SWEEPABLE[axis.name][2] is int and not all(
                _INT64_MIN <= v < 2.0**63 for v in (axis.min, axis.max)):
            raise ConfigError(
                f"scan.axes: {axis.name!r} values must fit in an i64, "
                f"got min {axis.min!r}, max {axis.max!r}")
        kind = SWEEPABLE[axis.name][3]
        if kind is not None and kind != config.model.kind:
            raise ConfigError(
                f"scan.axes: parameter {axis.name!r} belongs to the "
                f"{kind!r} model, but model.kind is {config.model.kind!r}")
        if axis.steps < 1:
            raise ConfigError(
                f"scan.axes: steps must be >= 1 for {axis.name!r}, got {axis.steps}")
        if axis.steps > _INT64_MAX:
            raise ConfigError(
                f"scan.axes: steps must fit in an i64 for {axis.name!r}, got {axis.steps}")


def _build(raw: Any) -> RunConfig:
    """Type-check a mapping of sections and build the config it describes."""
    if raw is None:
        raw = {}
    if not isinstance(raw, dict):
        raise ConfigError(f"top level: expected a mapping, got {raw!r}")
    unknown = set(raw) - set(_SECTIONS) - {"scan"}
    if unknown:
        raise ConfigError(f"unknown sections {sorted(unknown)}")
    sections = {name: _build_section(name, cls, raw.get(name))
                for name, cls in _SECTIONS.items()}
    return RunConfig(scan=_build_axes(raw.get("scan")), **sections)


class _Loader(getattr(yaml, "CSafeLoader", yaml.SafeLoader)):
    """PyYAML's safe loader (on libyaml where built with it), with the
    YAML 1.2 floats such as ``1e-30``, which YAML 1.1 reads as strings.
    The pattern comes after PyYAML's resolvers, so integers stay ints."""


_Loader.add_implicit_resolver(
    "tag:yaml.org,2002:float",
    re.compile(r"^[-+]?(?:\.[0-9]+|[0-9]+(?:\.[0-9]*)?)(?:[eE][-+]?[0-9]+)?$"),
    list("-+.0123456789"))


def _load_yaml(text: str) -> Any:
    """The value of a YAML document, read by :class:`_Loader`."""
    try:
        return yaml.load(text, Loader=_Loader)
    except UnicodeEncodeError as exc:
        # libyaml reads UTF-8 only: an undecodable argv byte is no YAML.
        raise yaml.YAMLError(f"unreadable character: {exc}") from exc


def parse_config(text: str) -> RunConfig:
    """Read a YAML document into a validated :class:`RunConfig`."""
    try:
        raw = _load_yaml(text)
    except yaml.YAMLError as exc:
        raise ConfigError(f"not valid YAML: {exc}") from exc
    return _build(raw)


def load_config(path: str) -> RunConfig:
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config {path!r}: {exc}") from exc
    return parse_config(text)


def _to_raw(config: RunConfig) -> dict[str, Any]:
    raw: dict[str, Any] = {}
    for name, cls in _SECTIONS.items():
        section = getattr(config, name)
        raw[name] = {f.name: getattr(section, f.name) for f in fields(cls)}
    raw["scan"] = {"axes": [
        {"name": a.name, "min": a.min, "max": a.max, "steps": a.steps}
        for a in config.scan]}
    return raw


def emit_config(config: RunConfig) -> str:
    """Serialize a config back to YAML, listing every key explicitly."""
    return yaml.safe_dump(_to_raw(config), sort_keys=False, default_flow_style=False)


def apply_overrides(config: RunConfig, assignments: list[str]) -> RunConfig:
    """Apply ``section.key=value`` assignments on top of a config.

    Values are parsed as YAML scalars, so ``gamma=null`` clears an
    optional and ``scan.axes=[{name: h_f, min: 0.1, max: 3, steps: 5}]``
    replaces the whole axis list.  The assignments edit the mapping of
    ``config``, which is then built once, as :func:`parse_config` builds
    a document.
    """
    raw = _to_raw(config)
    for item in assignments:
        path, sep, text = item.partition("=")
        if not sep:
            raise ConfigError(f"--set {item!r}: expected section.key=value")
        try:
            value = _load_yaml(text) if text != "" else None
        except yaml.YAMLError as exc:
            raise ConfigError(f"--set {item!r}: bad value: {exc}") from exc
        parts = path.strip().split(".")
        if parts == ["scan", "axes"] or parts == ["scan"]:
            raw["scan"] = {"axes": value} if parts == ["scan", "axes"] else value
            continue
        if len(parts) != 2:
            raise ConfigError(f"--set {item!r}: expected section.key=value")
        section, key = parts
        if section not in raw or not isinstance(raw[section], dict):
            raise ConfigError(f"--set {item!r}: unknown section {section!r}")
        if key not in raw[section]:
            raise ConfigError(f"--set {item!r}: unknown key {section}.{key}")
        raw[section][key] = value
    return _build(raw)
