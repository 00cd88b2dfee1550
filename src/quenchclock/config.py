"""Run configuration: a small YAML document with typed sections.

A run is described by seven sections: ``model`` (which chain and which
quench), ``coupling`` (the probe qubit), ``ladder`` (the clock
register), ``scan`` (grid axes to sweep), ``oracle`` (finite-size
check settings), ``mc`` (trajectory sampling) and ``output``.  Every
section key has a default, so a config file only states what differs;
command line ``--set section.key=value`` assignments override file values.

Every config is built one way: one builder reads each section and axis
from a mapping, typing each key by its field's annotation (resolved
once, at import), and :class:`RunConfig` checks the cross-field rules
whenever it is constructed, so a config changed with
:func:`dataclasses.replace` is checked too.  :func:`parse_config` builds
from a YAML document, :func:`apply_overrides` from the mapping of an
existing config with the assignments written into it.  Integers stay
exact.  :func:`parse_config` and :func:`emit_config` are exact inverses:
the emitted document lists every key, so ``parse(emit(c)) == c`` for
any config object.
"""

from __future__ import annotations

import math
import re
from dataclasses import MISSING, dataclass, field, fields, is_dataclass
from functools import partial
from typing import Any, Callable, Mapping, get_args, get_origin, get_type_hints

import numpy as np
import yaml

from .clock import LadderSpec, ladder_valid
from .errors import ConfigError
from .oracle import _check_settings
from .rates import QubitCoupling, coupling_valid
from .spectra import ModelArrays, ModelKind, QuenchSpec

FORMATS = ("csv", "json")
MODEL_KINDS = ("ising", "xx_ring")
# The chain that reads each model key but the kind; the other chain ignores it.
_CHAIN_OF = {"h_i": "ising", "h_f": "ising", "kappa": "ising",
             "v_i": "xx_ring", "v_f": "xx_ring", "t": "xx_ring"}


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
class _ScanSection:
    """The ``scan`` section of a document: its axes and no other key."""

    axes: tuple[AxisSpec, ...] = ()


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
        def get(name):
            section, kind, _ = SWEEPABLE[name]
            if name in columns:
                return np.asarray(columns[name], dtype=kind)
            default = getattr(getattr(self, section), name)
            return np.full(n, np.nan if default is None else default, dtype=kind)

        if self.model.kind == "ising":
            kappa = get("kappa")
            initial = ModelArrays(ModelKind.ISING_XY, h=get("h_i"), kappa=kappa)
            final = ModelArrays(ModelKind.ISING_XY, h=get("h_f"), kappa=kappa)
        else:
            t = get("t")
            initial = ModelArrays(ModelKind.XX_RING, t=t, V=get("v_i"))
            final = ModelArrays(ModelKind.XX_RING, t=t, V=get("v_f"))
        return PointArrays(initial=initial, final=final, epsilon0=get("epsilon0"),
                           g_obs=get("g_obs"), L=get("L"), d=get("d"), g=get("g"),
                           Gamma=get("gamma"))


def _value_type(hint: Any) -> Any:
    """The type a field annotated ``hint`` holds when it is not None."""
    args = get_args(hint)
    return next(a for a in args if a is not type(None)) if type(None) in args else hint


# Sweepable / settable leaf parameters, the model, coupling and ladder
# keys but the chain kind: name -> (section, type, chain).  ``chain``
# restricts a model key to the chain that reads it.
SWEEPABLE: dict[str, tuple[str, type, str | None]] = {
    key: (section, _value_type(hint), _CHAIN_OF.get(key))
    for section, cls in (("model", ModelConfig), ("coupling", CouplingConfig),
                         ("ladder", LadderConfig))
    for key, hint in get_type_hints(cls).items() if key != "kind"
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

def _reader(hint: Any) -> Callable[[str, Any], Any]:
    """``read(where, value)``: ``value`` type-checked as a field annotated
    ``hint`` holds it, with ``where`` naming it in errors.  A dataclass is
    read from a mapping, a ``tuple[X, ...]`` from a list; null is empty."""
    if is_dataclass(hint):
        hints = get_type_hints(hint)
        readers = {f.name: _reader(hints[f.name]) for f in fields(hint)}
        required = [f.name for f in fields(hint)
                    if f.default is MISSING and f.default_factory is MISSING]
        return partial(_build_mapping, hint, readers, required)
    if get_origin(hint) is tuple:
        item = _reader(get_args(hint)[0])

        def read_list(where: str, raw: Any) -> tuple[Any, ...]:
            if raw is not None and not isinstance(raw, list):
                raise ConfigError(f"{where}: expected a list, got {raw!r}")
            return tuple(item(f"{where}[{i}]", value) for i, value in enumerate(raw or ()))
        return read_list
    if type(None) in get_args(hint):
        read = _reader(_value_type(hint))
        return lambda where, value: None if value is None else read(where, value)
    return {int: _need_int, float: _need_number, str: _need_str}[hint]


def _build_mapping(cls: type, readers: dict[str, Callable], required: list[str],
                   where: str, raw: Any) -> Any:
    if raw is not None and not isinstance(raw, dict):
        raise ConfigError(f"{where}: expected a mapping, got {raw!r}")
    kwargs = {}
    for key, value in (raw or {}).items():
        if key not in readers:
            raise ConfigError(f"{where}.{key}: unknown key")
        kwargs[key] = readers[key](f"{where}.{key}", value)
    for key in required:
        if key not in kwargs:
            raise ConfigError(f"{where}: missing key {key!r}")
    return cls(**kwargs)


# The readers of a document's sections, in the order they are built and emitted.
_SECTIONS = {name: _reader(cls) for name, cls in (
    ("model", ModelConfig), ("coupling", CouplingConfig), ("ladder", LadderConfig),
    ("oracle", OracleConfig), ("mc", McConfig), ("output", OutputConfig),
    ("scan", _ScanSection))}


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
    for name, (section, kind, _) in SWEEPABLE.items():
        value = getattr(getattr(config, section), name)
        if kind is int and not _INT64_MIN <= value <= _INT64_MAX:
            raise ConfigError(f"{section}.{name}: must fit in an i64, got {value}")
    for axis in config.scan:
        if axis.name not in SWEEPABLE:
            raise ConfigError(
                f"scan.axes: unknown parameter {axis.name!r}; "
                f"choose from {sorted(SWEEPABLE)}")
        _, kind, chain = SWEEPABLE[axis.name]
        if kind is int and not all(
                _INT64_MIN <= v < 2.0**63 for v in (axis.min, axis.max)):
            raise ConfigError(
                f"scan.axes: {axis.name!r} values must fit in an i64, "
                f"got min {axis.min!r}, max {axis.max!r}")
        if chain is not None and chain != config.model.kind:
            raise ConfigError(
                f"scan.axes: parameter {axis.name!r} belongs to the "
                f"{chain!r} model, but model.kind is {config.model.kind!r}")
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
    unknown = set(raw) - set(_SECTIONS)
    if unknown:
        raise ConfigError(f"unknown sections {sorted(unknown)}")
    sections = {name: read(name, raw.get(name)) for name, read in _SECTIONS.items()}
    scan = sections.pop("scan").axes
    return RunConfig(scan=scan, **sections)


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
    # The mapping _build reads; a section's __dict__ holds its fields in order.
    raw = {name: dict(vars(getattr(config, name))) for name in _SECTIONS if name != "scan"}
    raw["scan"] = {"axes": [dict(vars(axis)) for axis in config.scan]}
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
        if len(parts) != 2:
            raise ConfigError(f"--set {item!r}: expected section.key=value")
        section, key = parts
        if section not in raw:
            raise ConfigError(f"--set {item!r}: unknown section {section!r}")
        if key not in raw[section]:
            raise ConfigError(f"--set {item!r}: unknown key {section}.{key}")
        raw[section][key] = value
    return _build(raw)
