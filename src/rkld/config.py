"""Experiment configuration file and reproducibility manifest.

The config format is an INI-style sectioned key/value text file; the exact
grammar is documented in the README.  Unknown sections or keys are hard
errors, and all validation happens at parse time: once a run starts, the only
error that may still surface is numerical non-finiteness.
"""

from __future__ import annotations

import configparser
import functools
import hashlib
import json
import os
from dataclasses import dataclass, field
from pathlib import Path

from .dynamics import ChainConfig
from .objective import Dataset, LossFamily, ObjectiveSpec, loss_family
from .spectral import KernelSpec

__all__ = ["ExperimentConfig", "Manifest", "ConfigError", "TOOL_VERSION"]

TOOL_VERSION = "rkld 0.1.0"


class ConfigError(ValueError):
    """Configuration file violation; carries a location-anchored message."""


_SCHEMA = {
    "kernel": {"mu0", "gamma", "basis", "decay"},
    "objective": {
        "loss",
        "data",
        "synth_kind",
        "synth_n",
        "synth_seed",
        "synth_noise",
        "lambda0",
    },
    "chain": {"eta", "beta", "lambda", "n_modes", "minibatch", "seed", "horizon", "burn_in"},
    "experiment": {
        "mode",
        "replicas",
        "kappa",
        "delta",
        "eta_grid",
        "eta_ref",
        "n_grid",
        "n_ref",
        "beta_grid",
        "m_grid",
        "tail_delta",
    },
}

_REQUIRED = {"chain": {"eta", "beta", "lambda", "n_modes", "seed", "horizon"}}


def _get(parser, origin, section, key, kind, default=None):
    if not parser.has_option(section, key):
        if default is not None or key not in _REQUIRED.get(section, set()):
            return default
        raise ConfigError(f"{origin}: [{section}] missing required key '{key}'")
    raw = parser.get(section, key).strip()
    if raw == "":
        return default
    try:
        return kind(raw)
    except ValueError as exc:
        raise ConfigError(f"{origin}: [{section}] {key} = {raw!r}: {exc}") from None


def _grid(kind):
    def parse(raw):
        vals = [kind(v.strip()) for v in raw.split(",") if v.strip()]
        if not vals:
            raise ValueError("empty grid")
        if len(set(vals)) != len(vals):
            raise ValueError("grid has duplicate entries")
        return sorted(vals)

    return parse


@dataclass
class ExperimentConfig:
    """Parsed, validated experiment description."""

    kernel: KernelSpec
    loss: LossFamily
    data_path: str | None
    synth_kind: str
    synth_n: int
    synth_seed: int
    synth_noise: float
    lambda0: float
    chain: ChainConfig
    mode: str
    replicas: int
    kappa: float
    delta: float | None
    tail_delta: float
    eta_grid: list[float] | None
    eta_ref: float | None
    n_grid: list[int] | None
    n_ref: int | None
    beta_grid: list[float] | None
    m_grid: list[int] | None
    source_text: str = ""

    @classmethod
    def load(cls, path: str | Path, seed_override: int | None = None) -> "ExperimentConfig":
        path = Path(path)
        if not path.is_file():
            raise ConfigError(f"config file not found: {path}")
        text = path.read_text()
        return cls.loads(text, seed_override=seed_override, origin=str(path))

    @classmethod
    def loads(cls, text: str, seed_override: int | None = None, origin: str = "<config>"):
        parser = configparser.ConfigParser(interpolation=None)
        try:
            parser.read_string(text, source=origin)
        except configparser.Error as exc:
            raise ConfigError(f"{origin}: {exc}") from None
        for section in parser.sections():
            if section not in _SCHEMA:
                raise ConfigError(f"{origin}: unknown section [{section}]")
            for key in parser.options(section):
                if key not in _SCHEMA[section]:
                    raise ConfigError(f"{origin}: unknown key '{key}' in [{section}]")
        if not parser.has_section("chain"):
            raise ConfigError(f"{origin}: missing [chain] section")
        get = functools.partial(_get, parser, origin)

        # values are read before the constructors run, so a ConfigError is not wrapped twice
        kernel_args = dict(
            mu0=get("kernel", "mu0", float, 1.0),
            gamma=get("kernel", "gamma", float, 1.5),
            basis=get("kernel", "basis", str, "cosine"),
            decay=get("kernel", "decay", str, "inverse-square"),
        )
        try:
            kernel = KernelSpec(**kernel_args)
        except ValueError as exc:
            raise ConfigError(f"{origin}: [kernel] {exc}") from None

        loss_tag = get("objective", "loss", str, "squared")
        try:
            loss = loss_family(loss_tag)
        except ValueError as exc:
            raise ConfigError(f"{origin}: [objective] {exc}") from None
        data_path = get("objective", "data", str, None)
        if data_path is not None and not Path(data_path).is_file():
            raise ConfigError(f"{origin}: [objective] data file not found: {data_path}")
        synth_kind = get("objective", "synth_kind", str, "regression")
        if synth_kind not in ("regression", "classification"):
            raise ConfigError(f"{origin}: [objective] unknown synth_kind {synth_kind!r}")

        minibatch_raw = get("chain", "minibatch", str, "full")
        if minibatch_raw == "full":
            minibatch = None
        else:
            try:
                minibatch = int(minibatch_raw)
            except ValueError:
                raise ConfigError(
                    f"{origin}: [chain] minibatch must be an integer or 'full'"
                ) from None
        seed = get("chain", "seed", int)
        chain_args = dict(
            eta=get("chain", "eta", float),
            beta=get("chain", "beta", float),
            lam=get("chain", "lambda", float),
            n_modes=get("chain", "n_modes", int),
            minibatch=minibatch,
            seed=seed if seed_override is None else seed_override,
            horizon=get("chain", "horizon", int),
            burn_in=get("chain", "burn_in", int, None),
        )
        try:
            chain = ChainConfig(**chain_args)
        except ValueError as exc:
            raise ConfigError(f"{origin}: [chain] {exc}") from None

        mode = get("experiment", "mode", str, "gld")
        if mode not in ("gld", "sgld", "ou"):
            raise ConfigError(f"{origin}: [experiment] unknown mode {mode!r}")
        tail_delta = get("experiment", "tail_delta", float, 0.2)
        if not (0.0 < tail_delta < 1.0):
            raise ConfigError(f"{origin}: [experiment] tail_delta must be in (0, 1)")

        cfg = cls(
            kernel=kernel,
            loss=loss,
            data_path=data_path,
            synth_kind=synth_kind,
            synth_n=get("objective", "synth_n", int, 20),
            synth_seed=get("objective", "synth_seed", int, 7),
            synth_noise=get("objective", "synth_noise", float, 0.1),
            lambda0=get("objective", "lambda0", float, 0.0),
            chain=chain,
            mode=mode,
            replicas=get("experiment", "replicas", int, 8),
            kappa=get("experiment", "kappa", float, 0.1),
            delta=get("experiment", "delta", float, None),
            tail_delta=tail_delta,
            eta_grid=get("experiment", "eta_grid", _grid(float), None),
            eta_ref=get("experiment", "eta_ref", float, None),
            n_grid=get("experiment", "n_grid", _grid(int), None),
            n_ref=get("experiment", "n_ref", int, None),
            beta_grid=get("experiment", "beta_grid", _grid(float), None),
            m_grid=get("experiment", "m_grid", _grid(int), None),
            source_text=text,
        )
        if cfg.replicas < 1:
            raise ConfigError(f"{origin}: [experiment] replicas must be >= 1")
        return cfg

    def build_dataset(self) -> Dataset:
        if self.data_path is not None:
            return Dataset.from_csv(self.data_path)
        return Dataset.synthesize(
            self.synth_n, self.synth_seed, kind=self.synth_kind, noise=self.synth_noise
        )

    def build_objective(self, n_modes: int | None = None) -> ObjectiveSpec:
        try:
            return ObjectiveSpec(
                dataset=self.build_dataset(),
                loss=self.loss,
                kernel=self.kernel,
                n_modes=n_modes if n_modes is not None else self.chain.n_modes,
                lambda0=self.lambda0,
            )
        except ValueError as exc:  # unreadable data file or bad objective settings
            raise ConfigError(f"[objective] {exc}") from None

    def config_hash(self) -> str:
        canonical = "\n".join(
            line.strip() for line in self.source_text.splitlines() if line.strip()
        )
        payload = canonical + f"\nseed={self.chain.seed}"
        return hashlib.sha256(payload.encode()).hexdigest()[:16]


@dataclass
class Manifest:
    """Reproducibility record: config hash, seeds and every output path."""

    config_hash: str
    tool_version: str = TOOL_VERSION
    command: str = ""
    seed_table: dict = field(default_factory=dict)
    outputs: list = field(default_factory=list)
    notes: dict = field(default_factory=dict)
    config_text: str = ""

    def add_output(self, path: str | Path):
        self.outputs.append(str(path))

    def save(self, path: str | Path):
        blob = json.dumps(
            {
                "config_hash": self.config_hash,
                "tool_version": self.tool_version,
                "command": self.command,
                "seed_table": self.seed_table,
                "outputs": self.outputs,
                "notes": self.notes,
                "config_text": self.config_text,
            },
            indent=2,
            sort_keys=True,
        )
        _atomic_write_text(path, blob + "\n")

    @classmethod
    def load(cls, path: str | Path) -> "Manifest":
        with open(path) as fh:
            d = json.load(fh)
        return cls(
            config_hash=d["config_hash"],
            tool_version=d.get("tool_version", ""),
            command=d.get("command", ""),
            seed_table=d.get("seed_table", {}),
            outputs=d.get("outputs", []),
            notes=d.get("notes", {}),
            config_text=d.get("config_text", ""),
        )


def _atomic_write_text(path: str | Path, text: str):
    path = Path(path)
    tmp = path.with_name(path.name + ".tmp")
    with open(tmp, "w", newline="\n") as fh:
        fh.write(text)
    os.replace(tmp, path)
