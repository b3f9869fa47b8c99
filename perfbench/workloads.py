"""The benchmark's four workloads: inputs built from a seed, operations, checks.

Every dataset and config is generated from the workload seed. Shapes follow
the acceptance suite (tests/test_acceptance.py, criteria 8-10) and the CLI
tests; only horizons are shortened so that one round takes a few seconds.
Checks use the acceptance suite's tolerances unchanged.

rkld is reached through module attributes (`diagnostics.sgld_discrepancy`,
`cli.main`, ...) so that the wrappers installed by `spans.instrument` apply.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
from pathlib import Path
from typing import NamedTuple

import numpy as np

from rkld import cli, config, diagnostics, dynamics, objective, spectral

# The acceptance suite's dataset seed. The Galerkin checks (strictly
# decreasing errors, slope in [0.5, 1.5]) are properties of that dataset:
# on most other synthetic datasets the N=4 and N=8 errors cross, so they are
# checked at this seed only.
DEFAULT_SEED = 7

# Finding kinds. The first three mean an output is wrong; `statistical` is a
# 3-sigma (or slope-window) check that can miss by chance; `unavailable` is
# an output that reports its own result as unavailable. All five make the
# operation failed. `inconclusive` is an experiment's own verdict that its
# data do not resolve the answer: it is counted but is not a failure.
EXCEPTION = "exception"
EXIT_CODE = "exit_code"
WRONG = "wrong"
STATISTICAL = "statistical"
UNAVAILABLE = "unavailable"
INCONCLUSIVE = "inconclusive"
FAILURE_KINDS = frozenset({EXCEPTION, EXIT_CODE, WRONG, STATISTICAL, UNAVAILABLE})
INCORRECT_KINDS = frozenset({EXCEPTION, EXIT_CODE, WRONG})


class Finding(NamedTuple):
    op: str
    kind: str
    detail: str


def digest(*parts) -> str:
    h = hashlib.sha256()
    for part in parts:
        if isinstance(part, (bytes, bytearray)):
            h.update(part)
        elif isinstance(part, np.ndarray):
            h.update(np.ascontiguousarray(part, dtype=float).tobytes())
        else:
            h.update(repr(part).encode())
        h.update(b"\x00")
    return h.hexdigest()[:16]


def warm_up_blas() -> None:
    a = np.eye(64) + 0.01
    float(np.sum(a @ a) + np.sum(np.linalg.solve(a, np.ones(64))))


class GalerkinSweep:
    """galerkin_error_vs_n on squared loss, as acceptance criterion 8."""

    name = "galerkin_sweep"
    N_GRID = (4, 8, 16, 32)
    N_REF = 128
    REPLICAS = 32
    HORIZON = 5_000

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        data = objective.Dataset.synthesize(24, seed=seed)
        kernel = spectral.KernelSpec(gamma=0.1)
        loss = objective.loss_family("squared")
        self._objectives: dict[int, objective.ObjectiveSpec] = {}

        def make_objective(n_modes):
            if n_modes not in self._objectives:
                self._objectives[n_modes] = objective.ObjectiveSpec(data, loss, kernel, n_modes)
            return self._objectives[n_modes]

        self.make_objective = make_objective
        for n in (*self.N_GRID, self.N_REF):
            make_objective(n + 1)
        self.cfg = dynamics.ChainConfig(
            eta=0.01, beta=8.0, lam=4.0, n_modes=32, seed=seed, horizon=self.HORIZON
        )

    def operations(self, outdir: Path):
        def fit():
            return diagnostics.galerkin_error_vs_n(
                self.make_objective, self.cfg, self.N_GRID, self.N_REF, replicas=self.REPLICAS
            )

        return [("galerkin_fit", fit)]

    def check(self, results: dict, outdir: Path):
        fit = results.get("galerkin_fit")
        if fit is None:
            return [], {}
        op = "galerkin_fit"
        arrays = (fit.abscissae, fit.ordinates, fit.ordinate_errors)
        findings = []
        if not all(np.all(np.isfinite(a)) for a in arrays):
            findings.append(Finding(op, WRONG, "non-finite Galerkin error or standard error"))
        if fit.inconclusive:
            findings.append(Finding(op, INCONCLUSIVE, fit.reason))
        if self.seed == DEFAULT_SEED:
            decreasing = bool(np.all(np.diff(fit.ordinates) < 0))
            in_window = not fit.inconclusive and 0.5 <= fit.slope <= 1.5
            if not (decreasing and in_window):
                findings.append(
                    Finding(op, STATISTICAL, f"strictly decreasing = {decreasing}, slope {fit.slope:.3f}")
                )
        return findings, {op: digest(*arrays, fit.slope, fit.slope_se, fit.inconclusive)}


class SgldMinibatch:
    """sgld_discrepancy for m in (2, 5, 10), as acceptance criterion 9."""

    name = "sgld_minibatch"
    M_GRID = (2, 5, 10)
    REPLICAS = 64
    HORIZON = 2_000

    def __init__(self, seed: int, workdir: Path):
        data = objective.Dataset.synthesize(10, seed=seed)
        self.obj = objective.ObjectiveSpec(data, objective.loss_family("squared"), spectral.KernelSpec(), 8)
        _, self.l_center = self.obj.regularized_minimizer(6.0)
        self.cfgs = {
            m: dynamics.ChainConfig(
                eta=0.05, beta=4.0, lam=6.0, n_modes=8, seed=seed, horizon=self.HORIZON, minibatch=m
            )
            for m in self.M_GRID
        }

    def operations(self, outdir: Path):
        def point(m):
            return lambda: diagnostics.sgld_discrepancy(
                self.cfgs[m], self.obj, self.l_center, replicas=self.REPLICAS
            )

        return [(f"m={m}", point(m)) for m in self.M_GRID]

    def check(self, results: dict, outdir: Path):
        findings, digests = [], {}
        n_tr = self.obj.dataset.size
        for op, r in results.items():
            if not (math.isfinite(r["discrepancy"]) and math.isfinite(r["se"])):
                findings.append(Finding(op, WRONG, "non-finite discrepancy or standard error"))
            if r["minibatch"] == n_tr and not (r["discrepancy"] == 0.0 and r["r_n"] == 0.0):
                findings.append(Finding(op, WRONG, f"full-batch discrepancy {r['discrepancy']!r} is not 0"))
            digests[op] = digest(r["discrepancy"], r["se"], r["r_n"], r["bound_shape"])
        return findings, digests


class GibbsSavage:
    """gibbs_gap_empirical on savage loss plus the quadratic control, as criterion 10."""

    name = "gibbs_savage"
    BETAS = (2.0, 4.0, 8.0, 16.0)
    REPLICAS = 8
    HORIZON = 5_000

    def __init__(self, seed: int, workdir: Path):
        kernel = spectral.KernelSpec()
        savage = objective.Dataset.synthesize(24, seed=seed, kind="classification")
        self.obj = objective.ObjectiveSpec(savage, objective.loss_family("savage"), kernel, 65)
        self.minimizer = self.obj.regularized_minimizer(1.0)
        self.cfgs = {
            beta: dynamics.ChainConfig(
                eta=0.01, beta=beta, lam=1.0, n_modes=65, seed=seed, horizon=self.HORIZON
            )
            for beta in self.BETAS
        }
        control = objective.Dataset.synthesize(24, seed=seed)
        self.ctrl = objective.ObjectiveSpec(control, objective.loss_family("squared"), kernel, 65)
        self.ctrl_cfg = dynamics.ChainConfig(
            eta=0.01, beta=4.0, lam=6.0, n_modes=65, seed=seed, horizon=self.HORIZON
        )
        self._exact = None

    def operations(self, outdir: Path):
        def point(beta):
            return lambda: diagnostics.gibbs_gap_empirical(
                self.cfgs[beta], self.obj, replicas=self.REPLICAS, minimizer=self.minimizer
            )

        ops = [(f"beta={beta:g}", point(beta)) for beta in self.BETAS]
        def control():
            return diagnostics.gibbs_gap_empirical(self.ctrl_cfg, self.ctrl, replicas=self.REPLICAS)

        return [*ops, ("quadratic_control", control)]

    def check(self, results: dict, outdir: Path):
        findings, digests = [], {}
        for op, r in results.items():
            if not (math.isfinite(r["gap"]) and math.isfinite(r["se"]) and r["se"] > 0):
                findings.append(Finding(op, WRONG, "non-finite gap or standard error"))
            if r["inconclusive"]:
                findings.append(Finding(op, INCONCLUSIVE, "Cesaro halves differ by more than 3 SE"))
            digests[op] = digest(r["gap"], r["se"], r["bound"], r["inconclusive"])
        ctrl = results.get("quadratic_control")
        if ctrl is not None:
            if self._exact is None:
                self._exact = diagnostics.quadratic_gibbs_gap_exact(self.ctrl, self.ctrl_cfg)
            sigma = abs(ctrl["gap"] - self._exact) / ctrl["se"]
            if not sigma <= 3.0:
                detail = f"gap {ctrl['gap']:.5f} vs exact {self._exact:.5f} ({sigma:.2f} SE)"
                findings.append(Finding("quadratic_control", STATISTICAL, detail))
        return findings, digests


_CHAIN = """
[chain]
eta = 0.05
beta = 4.0
lambda = 6.0
n_modes = 16
seed = {seed}
horizon = 2000
"""

SQUARED_CONFIG = """
[kernel]
mu0 = 1.0
gamma = 1.5

[objective]
loss = squared
synth_n = 20
synth_seed = {seed}
""" + _CHAIN

# The default synthetic data (synth_seed 7) for every workload seed: the
# logistic minimizer search's iteration count depends on the data, and on
# this data it runs to its 500k-iteration limit and fails.
LOGISTIC_CONFIG = """
[kernel]
mu0 = 1.0
gamma = 1.5

[objective]
loss = logistic
synth_kind = classification
synth_n = 20
""" + _CHAIN


class CliPipeline:
    """`rkld verify`, `run` and `report` through rkld.cli.main, all expected to exit 0."""

    name = "cli_pipeline"

    def __init__(self, seed: int, workdir: Path):
        self.configs = {}
        self.tags = {}
        for key, template in (("squared", SQUARED_CONFIG), ("logistic", LOGISTIC_CONFIG)):
            text = template.format(seed=seed)
            path = workdir / f"{key}.ini"
            path.write_text(text)
            self.configs[key] = str(path)
            self.tags[key] = config.ExperimentConfig.loads(text).config_hash()

    @staticmethod
    def _main(argv):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = cli.main(argv)
            except SystemExit as exc:
                code = exc.code
        return code, out.getvalue(), err.getvalue()

    def operations(self, outdir: Path):
        out = str(outdir)

        def manifest(key):
            return str(outdir / f"{self.tags[key]}_manifest.json")

        def call(*argv):
            return lambda: self._main(list(argv))

        return [
            ("verify_squared", call("verify", "--config", self.configs["squared"], "--out", out)),
            ("run_squared", call("run", "--config", self.configs["squared"], "--out", out)),
            ("report_squared", call("report", "--manifest", manifest("squared"), "--out", out)),
            ("report_squared_replay",
             call("report", "--manifest", manifest("squared"), "--out", str(outdir / "replay"))),
            ("run_logistic", call("run", "--config", self.configs["logistic"], "--out", out)),
            ("report_logistic", call("report", "--manifest", manifest("logistic"), "--out", out)),
        ]

    def check(self, results: dict, outdir: Path):
        findings, digests = [], {}
        produced = {
            "verify": ("_verify.txt",),
            "run": ("_trajectory.csv", "_summary.json"),
            "report": ("_report.txt", "_report_bundle.csv"),
        }
        for op, (code, stdout, stderr) in results.items():
            command, key = op.split("_")[:2]
            tag = self.tags[key]
            where = outdir / "replay" if op.endswith("_replay") else outdir
            if code != 0:
                detail = (stderr.strip().splitlines() or [""])[-1]
                findings.append(Finding(op, EXIT_CODE, f"exit code {code!r}, expected 0: {detail}"))
                continue
            files = [where / f"{tag}{suffix}" for suffix in produced[command]]
            missing = [f.name for f in files if not f.is_file()]
            if missing:
                findings.append(Finding(op, WRONG, f"missing outputs {missing}"))
                continue
            contents = [f.read_bytes() for f in files]
            digests[op] = digest(*contents)
            if command == "run":
                notes = json.loads((outdir / f"{tag}_manifest.json").read_text()).get("notes", {})
                if "minimizer" in notes:
                    findings.append(Finding(op, UNAVAILABLE, f"manifest note: {notes['minimizer']}"))
            if command == "report":
                lines = [l for l in contents[0].decode().splitlines() if "unavailable" in l]
                if lines:
                    findings.append(Finding(op, UNAVAILABLE, lines[0].strip()))
            if op.endswith("_replay"):
                first = [(outdir / f.name).read_bytes() for f in files]
                if first != contents:
                    findings.append(Finding(op, WRONG, "replayed report is not byte-identical"))
        return findings, digests


WORKLOADS = {w.name: w for w in (GalerkinSweep, SgldMinibatch, GibbsSavage, CliPipeline)}


def build(name: str, seed: int, workdir: Path):
    """Set up one workload: datasets, objectives and configs, then warm up BLAS."""
    workload = WORKLOADS[name](seed, workdir)
    warm_up_blas()
    return workload
