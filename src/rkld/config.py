"""Experiment configuration file and reproducibility manifest.

The config format is an INI-style sectioned key/value text file; the exact
grammar is documented in the README.  Unknown sections or keys are hard
errors, and all validation happens at parse time: once a run starts, the only
error that may still surface is numerical non-finiteness.
"""

from __future__ import annotations

import configparser
import hashlib
import json
import math
import os
from dataclasses import asdict, dataclass, field, fields
from pathlib import Path

from . import __version__
from .diagnostics import _MIN_FIT_POINTS
from .dynamics import ChainConfig
from .objective import Dataset, LossFamily, ObjectiveSpec, loss_family
from .spectral import KernelSpec

__all__ = ["ExperimentConfig", "Manifest", "ConfigError", "TOOL_VERSION"]

TOOL_VERSION = f"rkld {__version__}"


class ConfigError(ValueError):
    """Configuration file violation; carries a location-anchored message."""


_REQUIRED = object()  # the default of a key that must be given


def _grid(kind, min_entries):
    def parse(raw):
        vals = [kind(v.strip()) for v in raw.split(",") if v.strip()]
        if len(set(vals)) != len(vals):
            raise ValueError("grid has duplicate entries")
        if len(vals) < min_entries:
            raise ValueError(f"needs >= {min_entries} entries")
        return sorted(vals)

    return parse


def _checked(kind, ok, reason):
    def parse(raw):
        value = kind(raw)
        if not ok(value):
            raise ValueError(reason)
        return value

    return parse


def _one_of(*options):
    return _checked(str, options.__contains__, f"expected one of {', '.join(options)}")


_unit_interval = _checked(float, lambda d: 0.0 < d < 1.0, "must be in (0, 1)")
_positive = _checked(float, lambda v: 0.0 < v < math.inf, "must be positive and finite")
_count = _checked(int, lambda n: n >= 0, "must be >= 0")
_positive_count = _checked(int, lambda n: n >= 1, "must be >= 1")
_nonnegative = _checked(float, lambda v: 0.0 <= v < math.inf, "must be nonnegative and finite")


def _minibatch(raw):  # an SGLD minibatch size; the full batch, GLD, has no minibatch key
    try:
        return _positive_count(raw)
    except ValueError:  # `full`, a fraction or m < 1
        raise ValueError("must be an integer >= 1; omit the minibatch for the full batch") from None


# section -> key -> (parser, default); an empty value means the default
_KEYS = {
    "kernel": {
        "mu0": (_positive, 1.0),
        "gamma": (_nonnegative, 1.5),
    },
    "objective": {
        "loss": (loss_family, loss_family("squared")),
        "data": (_checked(str, lambda p: Path(p).is_file(), "file not found"), None),
        "synth_kind": (_one_of("regression", "classification"), "regression"),
        "synth_n": (_positive_count, 20),
        "synth_seed": (_count, 7),
    },
    "chain": {
        "eta": (_positive, _REQUIRED),
        "beta": (_positive, _REQUIRED),
        "lambda": (_positive, _REQUIRED),
        "n_modes": (_positive_count, _REQUIRED),
        "seed": (_count, _REQUIRED),
        "horizon": (_positive_count, _REQUIRED),
        "minibatch": (_minibatch, None),
        "burn_in": (_count, None),
    },
    "experiment": {
        "replicas": (_checked(int, lambda n: n >= 2, "must be >= 2"), 8),  # a standard error needs 2
        "delta": (_unit_interval, None),
        "tail_delta": (_unit_interval, 0.2),
        # a slope fit needs _MIN_FIT_POINTS grid points, a trend 2
        "eta_grid": (_grid(_positive, _MIN_FIT_POINTS), None),
        "eta_ref": (_positive, None),
        "n_grid": (_grid(_count, _MIN_FIT_POINTS), None),
        "n_ref": (_count, None),
        "beta_grid": (_grid(_positive, 2), None),
        "m_grid": (_grid(_positive_count, 2), None),
    },
}


def _parse_section(parser, origin, section):
    values = {}
    for key, (parse, default) in _KEYS[section].items():
        raw = parser.get(section, key, fallback="").strip()
        if raw == "" and default is _REQUIRED:
            raise ConfigError(f"{origin}: [{section}] missing required key '{key}'")
        try:
            values[key] = parse(raw) if raw else default
        except ValueError as exc:
            raise ConfigError(f"{origin}: [{section}] {key} = {raw!r}: {exc}") from None
    return values


@dataclass
class ExperimentConfig:
    """Parsed, validated experiment description."""

    kernel: KernelSpec
    loss: LossFamily
    dataset: Dataset  # read from [objective] data, or synthesized from its synth_* keys
    chain: ChainConfig  # SGLD when [chain] minibatch is set, else GLD
    replicas: int
    delta: float | None
    tail_delta: float
    eta_grid: list[float] | None
    eta_ref: float | None
    n_grid: list[int] | None
    n_ref: int | None
    beta_grid: list[float] | None
    m_grid: list[int] | None
    source_text: str
    origin: str  # the config's or manifest's path, for errors raised after parsing

    @classmethod
    def load(cls, path: str | Path, seed_override: int | None) -> "ExperimentConfig":
        """The config file at path; seed_override is the --seed flag, held to the config's seed rule."""
        if seed_override is not None:
            try:
                _KEYS["chain"]["seed"][0](seed_override)
            except ValueError as exc:
                raise ConfigError(f"--seed = '{seed_override}': {exc}") from None
        path = Path(path)
        if not path.is_file():
            raise ConfigError(f"config file not found: {path}")
        try:
            text = path.read_text(encoding="utf-8")
        except (OSError, UnicodeDecodeError) as exc:
            raise ConfigError(f"cannot read config file {path}: {exc}") from None
        return cls.loads(text, seed_override=seed_override, origin=str(path))

    @classmethod
    def loads(cls, text: str, seed_override: int | None = None, origin: str = "<config>"):
        parser = configparser.ConfigParser(interpolation=None)
        try:
            parser.read_string(text, source=origin)
        except configparser.Error as exc:
            raise ConfigError(f"{origin}: {exc}") from None
        for section in parser.sections():
            if section not in _KEYS:
                raise ConfigError(f"{origin}: unknown section [{section}]")
            for key in parser.options(section):
                if key not in _KEYS[section]:
                    raise ConfigError(f"{origin}: unknown key '{key}' in [{section}]")
        if not parser.has_section("chain"):
            raise ConfigError(f"{origin}: missing [chain] section")
        kernel, objective, chain, experiment = (_parse_section(parser, origin, s) for s in _KEYS)
        chain["lam"] = chain.pop("lambda")
        if seed_override is not None:
            chain["seed"] = seed_override
        built = {}
        for section, build, args in (("kernel", KernelSpec, kernel), ("chain", ChainConfig, chain)):
            try:
                built[section] = build(**args)
            except ValueError as exc:
                raise ConfigError(f"{origin}: [{section}] {exc}") from None
        data = objective.pop("data")
        synth = {key: objective.pop(f"synth_{key}") for key in ("kind", "n", "seed")}
        try:
            dataset = Dataset.from_csv(data) if data is not None else Dataset.synthesize(**synth)
        except ValueError as exc:  # an unreadable or invalid data file, or more points than numpy can draw
            where = f"data = {data!r}" if data is not None else f"synth_n = '{synth['n']}'"
            raise ConfigError(f"{origin}: [objective] {where}: {exc}") from None
        try:
            built["chain"].check_minibatch(dataset.size)
        except ValueError as exc:
            raise ConfigError(f"{origin}: [chain] {exc}") from None
        return cls(**built, dataset=dataset, **objective, **experiment, source_text=text, origin=origin)

    def build_objective(self, n_modes: int | None = None) -> ObjectiveSpec:
        n_modes = n_modes if n_modes is not None else self.chain.n_modes
        return ObjectiveSpec(self.dataset, self.loss, self.kernel, n_modes)

    def config_hash(self) -> str:
        canonical = "\n".join(
            line.strip() for line in self.source_text.splitlines() if line.strip()
        )
        payload = canonical + f"\nseed={self.chain.seed}"
        return hashlib.sha256(payload.encode()).hexdigest()[:16]


# the JSON shape of a Manifest field, by its annotation
_FIELD_SHAPES = {
    "str": (lambda v: isinstance(v, str), "a string"),
    "dict": (lambda v: isinstance(v, dict), "an object"),
    "list": (lambda v: isinstance(v, list) and all(isinstance(s, str) for s in v), "a list of strings"),
}


@dataclass
class Manifest:
    """Reproducibility record: config hash, seeds and every output, by its file
    name in the manifest's directory."""

    config_hash: str
    tool_version: str = TOOL_VERSION
    command: str = ""
    seed_table: dict = field(default_factory=dict)
    outputs: list = field(default_factory=list)
    notes: dict = field(default_factory=dict)
    config_text: str = ""

    def save(self, path: str | Path):
        _atomic_write_text(path, json.dumps(asdict(self), indent=2, sort_keys=True) + "\n")

    @classmethod
    def load(cls, path: str | Path) -> "Manifest":
        """Raises ValueError, naming the field, on JSON that is not a manifest."""
        with open(path) as fh:
            d = json.load(fh)
        if not isinstance(d, dict):
            raise ValueError(f"{path}: a manifest must be a JSON object")
        for f in fields(cls):
            ok, shape = _FIELD_SHAPES[f.type]
            if f.name in d and not ok(d[f.name]):
                raise ValueError(f"{path}: manifest field '{f.name}' must be {shape}")
        # an absent key takes its field's default; one without a default (config_hash) raises KeyError
        kept = [f.name for f in fields(cls) if f.name in d or f.default is f.default_factory]
        return cls(**{name: d[name] for name in kept})


def _atomic_write_text(path: str | Path, text: str):
    path = Path(path)
    tmp = path.with_name(path.name + ".tmp")
    try:
        with open(tmp, "w", newline="\n") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:  # a failed write or rename leaves no temporary file behind
        tmp.unlink(missing_ok=True)
        raise
