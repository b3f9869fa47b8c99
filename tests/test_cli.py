import ast
import configparser
import csv
import dataclasses
import errno
import json
import math
import os
import pkgutil
import re
from pathlib import Path

import numpy as np
import pytest

import rkld
from rkld import cli, diagnostics, dynamics, verify
from rkld.cli import main
from rkld.config import _KEYS, ConfigError, ExperimentConfig
from rkld.objective import LossFamily, ObjectiveSpec
from rkld.spectral import KernelSpec
from rkld.verify import check_parseval, run_property_suite

BASE = """
[kernel]
mu0 = 1.0
gamma = 1.5

[objective]
loss = squared
synth_n = 8
synth_seed = 5

[chain]
eta = 0.05
beta = 4.0
lambda = 6.0
n_modes = 8
seed = 42
horizon = 2000
"""

# 20 classification points on 16 modes are separable: x* does not exist
SEPARABLE_LOGISTIC = (
    BASE.replace("loss = squared", "loss = logistic\nsynth_kind = classification")
    .replace("synth_n = 8", "synth_n = 20")
    .replace("synth_seed = 5", "synth_seed = 7")
    .replace("n_modes = 8", "n_modes = 16")
)


# the `rkld verify` battery, in report order
VERIFY_PROPERTIES = (
    "assumption1_eigenvalue_shape",
    "basis_orthonormality_quadrature",
    "parseval_identity",
    "resolvent_scales_and_norm",
    "gradient_finite_difference",
    "minibatch_unbiasedness_and_variance",
    "dissipativity_probe",
    "determinism_bitwise",
)


def _with_kernel(cls, **changes):
    def inject(exp, monkeypatch):
        return dataclasses.replace(exp, kernel=cls(**{**dataclasses.asdict(exp.kernel), **changes}))

    return inject


def _patched(owner, name, wrap):
    def inject(exp, monkeypatch):
        monkeypatch.setattr(owner, name, wrap(getattr(owner, name)))
        return exp

    return inject


class _Float32Basis(KernelSpec):
    """Basis rows rounded to single precision: orthonormal to about 1e-7."""

    def basis_matrix(self, z, n_modes):
        return super().basis_matrix(z, n_modes).astype(np.float32).astype(float)


class _CosineWithoutSqrt2(KernelSpec):
    """f_k = cos(pi k z): orthogonal but not normalized for k >= 1."""

    def basis_matrix(self, z, n_modes):
        return np.cos(math.pi * np.outer(z, np.arange(n_modes, dtype=float)))


class _HarmonicEigenvalues(KernelSpec):
    """mu_k = mu0 / (k+1), a law whose trace diverges."""

    def eigenvalues(self, n_modes):
        return self.mu0 / (np.arange(n_modes, dtype=float) + 1.0)


def _scaled(fn):
    return lambda *args: 1.001 * fn(*args)


def _jittered_value(fn):
    # per-sample losses, and so risks, whose last bit varies from call to call, as a
    # reduction in varying order would
    flips = np.random.default_rng(0)

    def value_and_d1(self, u, y):
        value, d1 = fn(self, u, y)
        return np.where(flips.integers(0, 2, value.shape), np.nextafter(value, np.inf), value), d1

    return value_and_d1


def _m_times_4(fn):
    def dissipativity_constants(self, lam):
        regime, m, c = fn(self, lam)
        return regime, 4.0 * m, c

    return dissipativity_constants


# check -> (fault injector, the checks that fail under it, in report order)
VERIFY_FAULTS = {
    "assumption1_eigenvalue_shape": (_with_kernel(_HarmonicEigenvalues), ["assumption1_eigenvalue_shape"]),
    # a basis error above the 1e-6 Gram tolerance on modes <= 16 also moves the
    # 40-mode Parseval quadrature beyond its 1e-12 tolerance
    "basis_orthonormality_quadrature": (
        _with_kernel(_CosineWithoutSqrt2), ["basis_orthonormality_quadrature", "parseval_identity"]
    ),
    "parseval_identity": (_with_kernel(_Float32Basis), ["parseval_identity"]),
    "resolvent_scales_and_norm": (
        _patched(verify, "resolvent_scales", lambda fn: lambda spec, lam, eta, n: fn(spec, lam, 2.0 * eta, n)),
        ["resolvent_scales_and_norm"],
    ),
    "gradient_finite_difference": (_patched(ObjectiveSpec, "risk_array", _scaled), ["gradient_finite_difference"]),
    "minibatch_unbiasedness_and_variance": (
        _patched(ObjectiveSpec, "stochastic_grad_array", _scaled), ["minibatch_unbiasedness_and_variance"]
    ),
    "dissipativity_probe": (
        _patched(ObjectiveSpec, "smoothness_constant", lambda fn: lambda self: 10.0 * fn(self)),
        ["dissipativity_probe"],
    ),
    # m x 2 still holds along e0, where the random probes do not reach the bound's edge
    "dissipativity_probe_m_x4": (
        _patched(ObjectiveSpec, "dissipativity_constants", _m_times_4), ["dissipativity_probe"]
    ),
    "determinism_bitwise": (_patched(LossFamily, "value_and_d1", _jittered_value), ["determinism_bitwise"]),
}


@pytest.fixture
def config_file(tmp_path):
    p = tmp_path / "exp.ini"
    p.write_text(BASE)
    return p


def tag_of(path):
    return ExperimentConfig.load(path, seed_override=None).config_hash()


class TestRun:
    def test_writes_trajectory_summary_manifest(self, tmp_path, config_file):
        out = tmp_path / "out"
        rc = main(["run", "--config", str(config_file), "--out", str(out)])
        assert rc == 0
        tag = tag_of(config_file)
        traj = out / f"{tag}_trajectory.csv"
        with open(traj, newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["step", "norm", "risk", "reg_objective", "phi", "cesaro_phi"]
        assert rows[1][0] == "0"
        assert int(rows[-1][0]) == 2000
        # comma-separated, decimal point, LF line endings
        assert "\r" not in traj.read_text()
        assert "," in rows[1][1] or "." in rows[1][2]
        summary = json.loads((out / f"{tag}_summary.json").read_text())
        assert "l_star" in summary and "l_tilde" in summary
        assert summary["l_star_attained"] is True
        manifest = json.loads((out / f"{tag}_manifest.json").read_text())
        assert manifest["config_hash"] == tag
        assert any("trajectory" in o for o in manifest["outputs"])

    def test_minibatch_alone_runs_sgld(self, tmp_path):
        # [chain] minibatch = 3 makes the chain SGLD, and the summary names it
        cfg = tmp_path / "sgld.ini"
        cfg.write_text(BASE.replace("horizon = 2000", "horizon = 200\nminibatch = 3"))
        out = tmp_path / "out"
        assert main(["run", "--config", str(cfg), "--out", str(out)]) == 0
        assert json.loads((out / f"{tag_of(cfg)}_summary.json").read_text())["mode"] == "sgld"

    def test_byte_identical_rerun(self, tmp_path, config_file):
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert main(["run", "--config", str(config_file), "--out", str(out1)]) == 0
        assert main(["run", "--config", str(config_file), "--out", str(out2)]) == 0
        tag = tag_of(config_file)
        f1 = (out1 / f"{tag}_trajectory.csv").read_bytes()
        f2 = (out2 / f"{tag}_trajectory.csv").read_bytes()
        assert f1 == f2

    def test_seed_flag_changes_trajectory(self, tmp_path, config_file):
        out = tmp_path / "out"
        assert main(["run", "--config", str(config_file), "--out", str(out)]) == 0
        assert main(["run", "--config", str(config_file), "--seed", "7", "--out", str(out)]) == 0
        files = list(out.glob("*_trajectory.csv"))
        assert len(files) == 2  # different hash prefixes

    def test_config_error_exit_code(self, tmp_path):
        bad = tmp_path / "bad.ini"
        bad.write_text(BASE + "\n[experiment]\nbogus = 1\n")
        assert main(["run", "--config", str(bad), "--out", str(tmp_path)]) == 1

    def test_missing_config_exit_code(self, tmp_path):
        assert main(["run", "--config", str(tmp_path / "none.ini"), "--out", str(tmp_path)]) == 1

    @pytest.mark.parametrize("argv", [["run"], ["sweep", "--axis", "minibatch"]], ids=lambda a: a[0])
    def test_numerical_abort_exit_code(self, argv, tmp_path, capsys):
        # lambda below the smoothness threshold with a huge step size diverges
        text = BASE.replace("eta = 0.05", "eta = 50.0").replace("beta = 4.0", "beta = 100.0")
        text = text.replace("lambda = 6.0", "lambda = 0.000001")
        cfg = tmp_path / "explode.ini"
        cfg.write_text(text + "\n[experiment]\nreplicas = 2\nm_grid = 2, 4, 8\n")
        out = tmp_path / "out"
        assert main([*argv, "--config", str(cfg), "--out", str(out)]) == 2
        # run writes its partial trajectory; a sweep writes nothing
        partial = f"; partial outputs in {out}" if argv == ["run"] else ""
        assert re.fullmatch(rf"numerical abort at step [0-9]+{re.escape(partial)}\n", capsys.readouterr().err)
        assert out.exists() == (argv == ["run"])


class TestVerify:
    def test_passes_on_strict_config(self, tmp_path, config_file, capsys):
        rc = main(["verify", "--config", str(config_file), "--out", str(tmp_path)])
        assert rc == 0
        console = capsys.readouterr().out
        assert "PASS" in console and "FAIL" not in console
        report = next(tmp_path.glob("*_verify.txt")).read_text()
        lines = report.splitlines()
        assert [line.split(":")[0] for line in lines] == [f"PASS {name}" for name in VERIFY_PROPERTIES]
        assert console.splitlines() == lines + ["8/8 properties passed"]

    def test_passes_on_separable_strict_logistic_config(self, tmp_path, capsys):
        cfg = tmp_path / "logistic.ini"
        cfg.write_text(SEPARABLE_LOGISTIC)
        assert main(["verify", "--config", str(cfg), "--out", str(tmp_path)]) == 0
        assert "PASS dissipativity_probe: regime strict" in capsys.readouterr().out

    @pytest.mark.parametrize("line", ["decay = harmonic", "basis = cosine"])
    def test_fails_on_wrong_decay_law(self, line, tmp_path, capsys):
        # the kernel has one eigenvalue law and one basis: the retired switches are unknown keys
        cfg = tmp_path / "harmonic.ini"
        cfg.write_text(BASE.replace("[objective]", f"{line}\n\n[objective]"))
        out = tmp_path / "out"
        assert main(["verify", "--config", str(cfg), "--out", str(out)]) == 1
        key = line.split(" = ")[0]
        assert capsys.readouterr() == ("", f"config error: {cfg}: unknown key '{key}' in [kernel]\n")
        assert not out.exists()

    @pytest.mark.parametrize("fault", sorted(VERIFY_FAULTS))
    def test_each_check_fails_on_its_fault(self, fault, monkeypatch):
        inject, expected = VERIFY_FAULTS[fault]
        exp = inject(ExperimentConfig.loads(BASE), monkeypatch)
        assert [r.name for r in run_property_suite(exp) if not r.passed] == list(expected)

    def test_determinism_checks_the_configured_minibatch_stream(self, tmp_path, monkeypatch, capsys):
        # verify runs the SGLD chain a minibatch config sets: unseeded minibatch
        # draws fail it, and the detail says where the two runs part
        make = dynamics.make_rng

        def make_rng(seed, chain_id, stream):
            return np.random.default_rng() if stream == dynamics._STREAM_BATCH else make(seed, chain_id, stream)

        monkeypatch.setattr(dynamics, "make_rng", make_rng)
        cfg = tmp_path / "sgld.ini"
        cfg.write_text(BASE.replace("seed = 42", "seed = 42\nminibatch = 3"))
        assert main(["verify", "--config", str(cfg), "--out", str(tmp_path)]) == 1
        *_, line, tally = capsys.readouterr().out.splitlines()
        assert re.fullmatch(r"FAIL determinism_bitwise: two same-seed runs first differ at step \d+ in (norm|risk)", line)
        assert tally == "7/8 properties passed"


class TestParsevalCheck:
    def test_fails_without_sqrt2(self):
        # ||f_k||^2 = 1/2 for k >= 1, so the quadrature misses about half of ||c||^2
        result = check_parseval(_CosineWithoutSqrt2(), seed=7)
        assert not result.passed
        assert float(result.detail.split()[-1]) > 0.4


# one tiny config per sweep axis
SWEEP_RERUNS = {
    "eta": (BASE, "eta_grid = 0.2, 0.1, 0.05, 0.025\neta_ref = 0.003\n"),
    "n_modes": (BASE, "n_grid = 1, 2, 3, 4\nn_ref = 16\n"),
    "beta": (BASE.replace("eta = 0.05", "eta = 0.01").replace("n_modes = 8", "n_modes = 65"), "beta_grid = 2, 4\n"),
    "minibatch": (BASE, "m_grid = 2, 4, 8\n"),
    "tail": (BASE, "tail_delta = 0.3\n"),
}


class TestSweep:
    @pytest.mark.parametrize("axis", sorted(SWEEP_RERUNS))
    def test_byte_identical_rerun(self, axis, tmp_path, capsys):
        base, grid = SWEEP_RERUNS[axis]
        cfg = tmp_path / "sweep.ini"
        cfg.write_text(base.replace("horizon = 2000", "horizon = 200") + "\n[experiment]\nreplicas = 2\n" + grid)
        runs = []
        for out in (tmp_path / "a", tmp_path / "b"):
            code = main(["sweep", "--axis", axis, "--config", str(cfg), "--out", str(out)])
            runs.append((code, capsys.readouterr(), {p.name: p.read_bytes() for p in out.iterdir()}))
        assert runs[0] == runs[1]
        stem = f"{tag_of(cfg)}_sweep_{axis}"
        assert sorted(runs[0][2]) == [f"{stem}.csv", f"{stem}_manifest.json", f"{stem}_verdict.txt"]

    @pytest.mark.parametrize("axis", sorted(SWEEP_RERUNS))
    def test_verdict_is_the_experiments(self, axis, tmp_path, capsys):
        # the CLI writes the experiment's verdict and prints its first line; it judges nothing itself
        base, grid = SWEEP_RERUNS[axis]
        cfg = tmp_path / "sweep.ini"
        cfg.write_text(base.replace("horizon = 2000", "horizon = 200") + "\n[experiment]\nreplicas = 2\n" + grid)
        out = tmp_path / "out"
        code = main(["sweep", "--axis", axis, "--config", str(cfg), "--out", str(out)])
        verdict = EXPERIMENTS[axis](ExperimentConfig.load(cfg, seed_override=None))
        assert code == (3 if verdict.word == "INCONCLUSIVE" else 0)
        assert capsys.readouterr().out == verdict.lines[0] + "\n"
        assert (out / f"{tag_of(cfg)}_sweep_{axis}_verdict.txt").read_text().splitlines() == list(verdict.lines)

    def test_minibatch_axis(self, tmp_path, config_file):
        cfg = tmp_path / "m.ini"
        cfg.write_text(BASE + "\n[experiment]\nreplicas = 8\nm_grid = 2, 4, 8\n")
        out = tmp_path / "out"
        rc = main(["sweep", "--axis", "minibatch", "--config", str(cfg), "--out", str(out)])
        assert rc == 0
        sweep_csv = next(out.glob("*_sweep_minibatch.csv"))
        with open(sweep_csv, newline="") as fh:
            rows = list(csv.reader(fh))
        assert len(rows) == 4  # header + one row per grid point
        header = rows[0]
        m_col = header.index("m")
        ms = [int(r[m_col]) for r in rows[1:]]
        assert ms == [2, 4, 8]
        # m = n_tr is the full batch, the GLD chain itself: discrepancy column is zero
        d_col = header.index("discrepancy")
        assert float(rows[-1][d_col]) == 0.0

    @pytest.mark.parametrize("axis", ["eta", "n_modes"])
    @pytest.mark.parametrize("mode, minibatch", [("sgld", "2")])
    def test_sweep_runs_the_configured_chain(self, axis, mode, minibatch, tmp_path):
        # the same grid on a GLD config and on an SGLD one: each sweep runs its config's chain
        base, grid = SWEEP_RERUNS[axis]
        csvs = []
        for chain, chain_lines in (("gld", ""), (mode, f"\nminibatch = {minibatch}")):
            cfg = tmp_path / f"{chain}.ini"
            text = base.replace("horizon = 2000", f"horizon = 200{chain_lines}")
            cfg.write_text(text + "\n[experiment]\nreplicas = 2\n" + grid)
            out = tmp_path / chain
            assert main(["sweep", "--axis", axis, "--config", str(cfg), "--out", str(out)]) in (0, 3)
            csvs.append((out / f"{tag_of(cfg)}_sweep_{axis}.csv").read_bytes())
        assert csvs[0] != csvs[1]

    def test_unknown_axis_is_usage_error(self, config_file):
        with pytest.raises(SystemExit):
            main(["sweep", "--axis", "nonsense", "--config", str(config_file)])

    def test_inconclusive_exit_code(self, tmp_path):
        # far too short a horizon: MC noise swamps the eta trend
        text = BASE.replace("horizon = 2000", "horizon = 50")
        cfg = tmp_path / "noisy.ini"
        cfg.write_text(
            text + "\n[experiment]\nreplicas = 2\neta_grid = 0.2, 0.1, 0.05, 0.025\neta_ref = 0.003\n"
        )
        rc = main(["sweep", "--axis", "eta", "--config", str(cfg), "--out", str(tmp_path)])
        assert rc == 3

    @pytest.mark.parametrize(
        "axis, slope, se, word",
        [
            ("eta", 1.0, 0.05, "PASS"),
            ("eta", 2.0, 0.05, "FAIL"),
            ("eta", 1.4, 0.1, "FAIL"),  # its CI [1.2, 1.6] meets the window, the slope does not
            ("n_modes", 1.0, 0.05, "PASS"),
            ("n_modes", 2.0, 0.05, "FAIL"),
            ("n_modes", 1.6, 0.1, "FAIL"),
        ],
    )
    def test_conclusive_fit_verdict(self, axis, slope, se, word, tmp_path, monkeypatch, capsys):
        # a fit with enough usable points: PASS when the slope is in the window, else FAIL; both exit 0.
        # The fit is faked below the claim's rule, so the verdict comes from the experiment's own rule.
        label, window = {
            "eta": ("weak error vs eta", "[0.4, 1.3]"),
            "n_modes": ("galerkin error vs sqrt(mu_{N+1})", "[0.5, 1.5]"),
        }[axis]
        x = np.array([0.025, 0.05, 0.1, 0.2])
        fit = diagnostics.RateFit(x, slope * x, 0.01 * x, slope, se, -1.0, inconclusive=False)
        monkeypatch.setattr(diagnostics, "fit_loglog", lambda *args: fit)
        base, grid = SWEEP_RERUNS[axis]
        cfg = tmp_path / "fit.ini"
        cfg.write_text(base + "\n[experiment]\nreplicas = 2\n" + grid)
        out = tmp_path / "out"
        assert main(["sweep", "--axis", axis, "--config", str(cfg), "--out", str(out)]) == 0
        lo, hi = slope - 2 * se, slope + 2 * se
        verdict = [
            f"{word} {label}: slope {slope:.4f} (CI [{lo:.4f}, {hi:.4f}]), expected within {window}",
            f"fit: slope {slope!r}, slope_se {se!r}, intercept -1.0",
        ]
        assert capsys.readouterr().out == verdict[0] + "\n"
        stem = f"{tag_of(cfg)}_sweep_{axis}"
        assert (out / f"{stem}_verdict.txt").read_text().splitlines() == verdict
        with open(out / f"{stem}.csv", newline="") as fh:
            rows = list(csv.reader(fh))[1:]
        assert [float(r[-2]) for r in rows] == (slope * x).tolist()

    @pytest.mark.parametrize(
        "text",
        [
            BASE + "\n[experiment]\n",
            BASE.replace("squared", "savage").replace("lambda = 6.0", "lambda = 0.1") + "\n[experiment]\ndelta = 0.5\n",
        ],
        ids=["strict", "bounded_delta"],
    )
    def test_tail_rhs_is_the_reports_total(self, text, tmp_path):
        # the sweep's right-hand side at n = horizon is the report's, on the config's delta
        cfg = tmp_path / "tail.ini"
        cfg.write_text(text + "replicas = 2\n")
        out = tmp_path / "out"
        assert main(["sweep", "--axis", "tail", "--config", str(cfg), "--out", str(out)]) == 0
        stem = f"{tag_of(cfg)}_sweep_tail"
        assert main(["report", "--manifest", str(out / f"{stem}_manifest.json"), "--out", str(out)]) == 0
        with open(out / f"{stem}.csv", newline="") as fh:
            last = list(csv.DictReader(fh))[-1]
        assert list(last) == ["n", "p_hat", "p_se", "rhs"] and last["n"] == "2000"
        assert f"  total (x markov factor): {last['rhs']}" in (out / f"{stem}_report.txt").read_text().splitlines()

    def test_sgld_tail_total_is_nan_in_the_sweep_and_the_report(self, tmp_path):
        # the tail bound's terms are GLD's: with a minibatch the report prints them with a nan total and its reason
        cfg = tmp_path / "sgld.ini"
        cfg.write_text(BASE.replace("seed = 42", "seed = 42\nminibatch = 3") + "\n[experiment]\nreplicas = 2\n")
        out = tmp_path / "out"
        assert main(["sweep", "--axis", "tail", "--config", str(cfg), "--out", str(out)]) == 0
        stem = f"{tag_of(cfg)}_sweep_tail"
        assert main(["report", "--manifest", str(out / f"{stem}_manifest.json"), "--out", str(out)]) == 0
        with open(out / f"{stem}.csv", newline="") as fh:
            assert [r["rhs"] for r in csv.DictReader(fh)] == ["nan"] * 3
        report = (out / f"{stem}_report.txt").read_text().splitlines()
        total = report.index("  total (x markov factor): nan")
        assert report[total - 1].startswith("  L(x~) - L(x*): ")
        assert report[total + 1] == (
            "  minibatch = 3: these are GLD's terms; the SGLD bound adds a minibatch discrepancy term, so the total is nan"
        )

    def test_beta_sweep_without_stationarity_is_inconclusive(self, tmp_path, monkeypatch, capsys):
        # the engine's run, with the second beta's first-half risks shifted by 1: its Cesaro halves disagree
        run_blocks = diagnostics.run_blocks

        def drifting(blocks, **kwargs):
            results = run_blocks(blocks, **kwargs)
            [tracker] = blocks[1][3]
            tracker.sum_risk_first = tracker.sum_risk_first + tracker.half_point
            return results

        monkeypatch.setattr(diagnostics, "run_blocks", drifting)
        base, grid = SWEEP_RERUNS["beta"]
        cfg = tmp_path / "beta.ini"
        cfg.write_text(base + "\n[experiment]\nreplicas = 2\n" + grid)
        assert main(["sweep", "--axis", "beta", "--config", str(cfg), "--out", str(tmp_path)]) == 3
        assert capsys.readouterr().out == "INCONCLUSIVE gibbs gap vs beta: stationarity check failed at some beta\n"
        with open(next(tmp_path.glob("*_sweep_beta.csv")), newline="") as fh:
            assert [r["inconclusive"] for r in csv.DictReader(fh)] == ["0", "1"]

    def test_solver_failure_exit_code(self, tmp_path, monkeypatch, capsys):
        def fail(self, lam):
            raise RuntimeError("line search stalled")

        monkeypatch.setattr(ObjectiveSpec, "regularized_minimizer", fail)
        cfg = tmp_path / "m.ini"
        cfg.write_text(BASE + "\n[experiment]\nreplicas = 8\nm_grid = 2, 4, 8\n")
        rc = main(["sweep", "--axis", "minibatch", "--config", str(cfg), "--out", str(tmp_path)])
        assert rc == 2
        assert capsys.readouterr().err == "solver failure: line search stalled\n"

    @pytest.mark.parametrize("command", ["run", "report"])
    def test_solver_failure_exit_code_in_run_and_report(self, command, tmp_path, config_file, monkeypatch, capsys):
        # no fallback such as l_star = 0: run and report fail as sweep does
        def fail(self, lam):
            raise RuntimeError("line search stalled")

        out = tmp_path / "out"
        if command == "report":
            assert main(["run", "--config", str(config_file), "--out", str(out)]) == 0
            argv = ["report", "--manifest", str(out / f"{tag_of(config_file)}_manifest.json")]
        else:
            argv = ["run", "--config", str(config_file)]
        before = sorted(out.glob("*"))
        capsys.readouterr()
        monkeypatch.setattr(ObjectiveSpec, "regularized_minimizer", fail)
        assert main([*argv, "--out", str(out)]) == 2
        assert capsys.readouterr().err == "solver failure: line search stalled\n"
        assert sorted(out.glob("*")) == before  # no output written


SWEEP_PRECONDITIONS = {
    "eta_ref": ("eta", "eta_grid = 0.2, 0.1, 0.05, 0.025\neta_ref = 0.01\n", BASE),
    "n_ref": ("n_modes", "n_grid = 4, 8, 16, 32\nn_ref = 64\n", BASE),
    "beta_below_eta": (
        "beta",
        "beta_grid = 0.005, 4\n",
        BASE.replace("eta = 0.05", "eta = 0.01").replace("n_modes = 8", "n_modes = 65"),
    ),
    "gibbs_discretization": ("beta", "beta_grid = 2, 4\n", BASE),
    "eta_ref_negative": ("eta", "eta_grid = 0.2, 0.1, 0.05, 0.025\neta_ref = -0.003\n", BASE),
    "eta_grid_above_beta": (
        "eta",
        "eta_grid = 0.2, 0.1, 0.05, 0.025\neta_ref = 0.003\n",
        BASE.replace("beta = 4.0", "beta = 0.1"),
    ),
    "n_grid_negative": ("n_modes", "n_grid = -1, 4, 8, 16\nn_ref = 64\n", BASE),
    "m_grid_above_n": ("minibatch", "m_grid = 2, 9\n", BASE),
    "eta_grid_short": ("eta", "eta_grid = 0.2, 0.1\neta_ref = 0.003\n", BASE),
    # horizon // 25 is step 0 below horizon 25
    "tail_short_horizon": ("tail", "", BASE.replace("horizon = 2000", "horizon = 24")),
}
# the cases that break a single key's rule, which the parser owns
SINGLE_KEY_PRECONDITIONS = ("eta_grid_short", "eta_ref_negative", "n_grid_negative")


def _centre(exp):
    """The minibatch sweep's centre of the sigmoid statistic: the regularized minimum."""
    return exp.build_objective().regularized_minimizer(exp.chain.lam)[1]


def _theory(exp):
    """The tail sweep's minimizers and theory constants, at the config's delta."""
    obj = exp.build_objective()
    mins = obj.find_minimizers(exp.chain.lam)
    return mins, diagnostics.theory_constants(obj, exp.chain, mins, exp.delta)


# each sweep's experiment as the CLI calls it, and the verdict it returns
EXPERIMENTS = {
    "eta": lambda exp: diagnostics.weak_error_vs_eta(
        exp.build_objective(), exp.chain, exp.eta_grid, exp.eta_ref, replicas=exp.replicas
    ).verdict,
    "n_modes": lambda exp: diagnostics.galerkin_error_vs_n(
        exp.build_objective, exp.chain, exp.n_grid, exp.n_ref, replicas=exp.replicas
    ).verdict,
    "beta": lambda exp: diagnostics.gibbs_gap_vs_beta(
        exp.chain, exp.build_objective(), exp.beta_grid, replicas=exp.replicas
    )[1],
    "minibatch": lambda exp: diagnostics.sgld_discrepancy_vs_m(
        exp.chain, exp.build_objective(), _centre(exp), exp.m_grid, replicas=exp.replicas
    )[1],
    "tail": lambda exp: diagnostics.theorem_tail_bound(
        exp.chain, exp.build_objective(), *_theory(exp), exp.tail_delta, exp.replicas
    )[1],
}


NON_FINITE = {
    "beta": ("beta = 4.0", "beta = nan", None),
    "lambda": ("lambda = 6.0", "lambda = nan", None),
    "data_z": ("synth_n = 8", "data = {data}", "z,y\n0.25,1.0\nnan,-1.0\n"),
    "data_y": ("synth_n = 8", "data = {data}", "z,y\n0.25,1.0\n0.75,nan\n"),
}


def _float_keys():
    """(section, key) of every config key whose parser returns a float."""
    keys = []
    for section, table in _KEYS.items():
        for key, (parse, _) in table.items():
            try:
                if isinstance(parse("0.25"), float):
                    keys.append((section, key))
            except ValueError:
                pass
    return keys


class TestExitCodes:
    @pytest.mark.parametrize("value", ["nan", "inf"])
    @pytest.mark.parametrize("section, key", _float_keys())
    def test_non_finite_float_key_is_config_error(self, section, key, value, tmp_path, capsys):
        text = re.sub(rf"^{key} = .*\n", "", BASE + "\n[experiment]\n", flags=re.M)
        cfg = tmp_path / "nan.ini"
        cfg.write_text(text.replace(f"[{section}]\n", f"[{section}]\n{key} = {value}\n"))
        out = tmp_path / "out"
        assert main(["run", "--config", str(cfg), "--out", str(out)]) == 1
        assert capsys.readouterr().err.startswith(f"config error: {cfg}: [{section}]")
        assert not out.exists() or not any(out.iterdir())

    @pytest.mark.parametrize("key", sorted(NON_FINITE))
    def test_non_finite_value_is_config_error(self, key, tmp_path, capsys):
        old, new, rows = NON_FINITE[key]
        data = tmp_path / "data.csv"
        if rows is not None:
            data.write_text(rows)
        cfg = tmp_path / "nan.ini"
        cfg.write_text(BASE.replace(old, new.format(data=data)))
        out = tmp_path / "out"
        assert main(["run", "--config", str(cfg), "--out", str(out)]) == 1
        assert capsys.readouterr().err.startswith("config error: ")
        assert not out.exists() or not any(out.iterdir())

    @pytest.mark.parametrize("line", ["lambda0 = 0.1", "synth_noise = 0.2"])
    def test_retired_objective_key_is_unknown(self, line, tmp_path, capsys):
        # the chain runs on the one data risk: its ridge and the synthetic noise level are constants
        cfg = tmp_path / "retired.ini"
        cfg.write_text(BASE.replace("synth_seed = 5", f"synth_seed = 5\n{line}"))
        out = tmp_path / "out"
        assert main(["run", "--config", str(cfg), "--out", str(out)]) == 1
        key = line.split(" = ")[0]
        assert capsys.readouterr() == ("", f"config error: {cfg}: unknown key '{key}' in [objective]\n")
        assert not out.exists()

    def test_retired_kappa_key_is_unknown(self, tmp_path, capsys):
        # the tail bound's kappa is a constant of diagnostics: setting it is an error, not a silent no-op
        cfg = tmp_path / "kappa.ini"
        cfg.write_text(BASE + "\n[experiment]\nkappa = 0.2\n")
        out = tmp_path / "out"
        assert main(["run", "--config", str(cfg), "--out", str(out)]) == 1
        assert capsys.readouterr() == ("", f"config error: {cfg}: unknown key 'kappa' in [experiment]\n")
        assert not out.exists()

    @pytest.mark.parametrize("case", sorted(SWEEP_PRECONDITIONS))
    def test_sweep_precondition_is_config_error(self, case, tmp_path, monkeypatch, capsys):
        # checked before any engine step, reported as a config error (exit 1)
        axis, grid, base = SWEEP_PRECONDITIONS[case]

        def no_engine(*args, **kwargs):
            raise AssertionError("the engine ran")

        monkeypatch.setattr(diagnostics, "run_blocks", no_engine)
        cfg = tmp_path / "sweep.ini"
        cfg.write_text(base + "\n[experiment]\nreplicas = 2\n" + grid)
        out = tmp_path / "out"
        assert main(["sweep", "--axis", axis, "--config", str(cfg), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"config error: {cfg}: [experiment] ") and err.count("\n") == 1
        assert not out.exists()

    @pytest.mark.parametrize("case", sorted(set(SWEEP_PRECONDITIONS) - set(SINGLE_KEY_PRECONDITIONS)))
    def test_experiment_raises_the_message_the_cli_prints(self, case, tmp_path, monkeypatch, capsys):
        # one rule, one message: the CLI reports the experiment's own ValueError
        axis, grid, base = SWEEP_PRECONDITIONS[case]

        def no_engine(*args, **kwargs):
            raise AssertionError("the engine ran")

        monkeypatch.setattr(diagnostics, "run_blocks", no_engine)
        cfg = tmp_path / "sweep.ini"
        cfg.write_text(base + "\n[experiment]\nreplicas = 2\n" + grid)
        assert main(["sweep", "--axis", axis, "--config", str(cfg), "--out", str(tmp_path / "out")]) == 1
        printed = capsys.readouterr().err.removeprefix(f"config error: {cfg}: [experiment] ")
        with pytest.raises(ValueError) as info:
            EXPERIMENTS[axis](ExperimentConfig.load(cfg, seed_override=None))
        assert type(info.value) is ValueError and printed == f"{info.value}\n"

    @pytest.mark.parametrize("case", SINGLE_KEY_PRECONDITIONS)
    def test_single_key_precondition_fails_at_parse_time(self, case, tmp_path):
        _, grid, base = SWEEP_PRECONDITIONS[case]
        cfg = tmp_path / "sweep.ini"
        cfg.write_text(base + "\n[experiment]\nreplicas = 2\n" + grid)
        with pytest.raises(ConfigError, match=re.escape(f"{cfg}: [experiment] ")):
            ExperimentConfig.load(cfg, seed_override=None)

    @pytest.mark.parametrize("axis", sorted(axis for axis, (_, keys) in cli._SWEEPS.items() if keys))
    def test_sweep_without_its_keys_is_config_error(self, axis, tmp_path, capsys):
        cfg = tmp_path / "sweep.ini"
        cfg.write_text(BASE + "\n[experiment]\nreplicas = 2\n")
        out = tmp_path / "out"
        assert main(["sweep", "--axis", axis, "--config", str(cfg), "--out", str(out)]) == 1
        key = cli._SWEEPS[axis][1][0]
        assert capsys.readouterr().err == f"config error: {cfg}: [experiment] {axis} sweep needs {key}\n"
        assert not out.exists()

    @pytest.mark.parametrize("key", ["eta", "beta", "lambda", "n_modes", "seed", "horizon"])
    def test_empty_required_key_is_missing(self, key, tmp_path, capsys):
        cfg = tmp_path / "empty.ini"
        cfg.write_text(re.sub(rf"^{key} = .*$", f"{key} =", BASE, flags=re.M))
        out = tmp_path / "out"
        assert main(["run", "--config", str(cfg), "--out", str(out)]) == 1
        assert capsys.readouterr().err == f"config error: {cfg}: [chain] missing required key '{key}'\n"
        assert not out.exists()

    def test_delta_outside_unit_interval_fails_at_parse_time(self, tmp_path, capsys):
        # a bounded-regime savage config, where delta feeds the spectral gap
        cfg = tmp_path / "delta.ini"
        cfg.write_text(BASE.replace("squared", "savage").replace("lambda = 6.0", "lambda = 0.1") + "\n[experiment]\ndelta = 1.5\n")
        out = tmp_path / "out"
        assert main(["run", "--config", str(cfg), "--out", str(out)]) == 1
        assert capsys.readouterr().err == f"config error: {cfg}: [experiment] delta = '1.5': must be in (0, 1)\n"
        assert not out.exists()

    def test_non_utf8_config_is_config_error(self, tmp_path, capsys):
        cfg = tmp_path / "latin.ini"
        cfg.write_bytes(b"\xff" + BASE.encode())
        out = tmp_path / "out"
        assert main(["run", "--config", str(cfg), "--out", str(out)]) == 1
        reason = "'utf-8' codec can't decode byte 0xff in position 0: invalid start byte"
        assert capsys.readouterr().err == f"config error: cannot read config file {cfg}: {reason}\n"
        assert not out.exists()

    def test_minibatch_larger_than_data_is_config_error(self, tmp_path, capsys):
        cfg = tmp_path / "m.ini"
        cfg.write_text(BASE.replace("seed = 42", "seed = 42\nminibatch = 30"))
        out = tmp_path / "out"
        assert main(["run", "--config", str(cfg), "--out", str(out)]) == 1
        reason = "out of range 1..7; omit the minibatch for the full batch of n_tr = 8 points"
        assert capsys.readouterr().err == f"config error: {cfg}: [chain] minibatch = 30: {reason}\n"
        assert not out.exists()

    @pytest.mark.parametrize("value, message", [
        ("full", "'full': must be an integer >= 1; omit the minibatch for the full batch"),
        ("8", "8: out of range 1..7; omit the minibatch for the full batch of n_tr = 8 points"),
    ], ids=["full", "n_tr"])
    def test_full_batch_minibatch_is_config_error(self, value, message, tmp_path, capsys):
        # the full batch is the chain without a minibatch: neither spelling of it as one parses
        cfg = tmp_path / "m.ini"
        cfg.write_text(BASE.replace("seed = 42", f"seed = 42\nminibatch = {value}"))
        out = tmp_path / "out"
        assert main(["run", "--config", str(cfg), "--out", str(out)]) == 1
        assert capsys.readouterr() == ("", f"config error: {cfg}: [chain] minibatch = {message}\n")
        assert not out.exists()

    def test_numerical_value_error_exit_code(self, tmp_path, monkeypatch, capsys):
        # LinAlgError subclasses ValueError but is no config error
        def singular(*args, **kwargs):
            raise np.linalg.LinAlgError("Singular matrix")

        monkeypatch.setattr(diagnostics, "run_blocks", singular)
        cfg = tmp_path / "eta.ini"
        cfg.write_text(BASE + "\n[experiment]\nreplicas = 2\neta_grid = 0.2, 0.1, 0.05, 0.025\neta_ref = 0.003\n")
        assert main(["sweep", "--axis", "eta", "--config", str(cfg), "--out", str(tmp_path)]) == 2
        assert capsys.readouterr().err == "numerical error: Singular matrix\n"

    def test_noise_worker_failure_exit_code(self, tmp_path, monkeypatch, capsys):
        # a forked noise worker that raises fails the sweep on one stderr line
        class FailsAfterFirstFill:
            def __init__(self, rng):
                self.rng, self.fills = rng, 0

            def standard_normal(self, out):
                self.fills += 1
                if self.fills > 1:
                    raise OSError("fill failed")
                return self.rng.standard_normal(out=out)

        make = dynamics.make_rng
        monkeypatch.setattr(dynamics, "make_rng", lambda *key: FailsAfterFirstFill(make(*key)))
        monkeypatch.setattr(dynamics, "_AHEAD_NORMALS", 1)
        monkeypatch.setattr(dynamics, "_cpus", lambda: 2)
        cfg = tmp_path / "eta.ini"
        cfg.write_text(BASE + "\n[experiment]\nreplicas = 2\neta_grid = 0.2, 0.1, 0.05, 0.025\neta_ref = 0.003\n")
        assert main(["sweep", "--axis", "eta", "--config", str(cfg), "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert re.fullmatch(r"solver failure: noise worker \d+ exited with status 1 after it raised OSError: fill failed\n", err)

    def test_unforkable_noise_worker_exit_code(self, tmp_path, config_file, monkeypatch, capsys):
        # a worker that cannot be forked fails the run on one stderr line and writes nothing
        def fork():
            raise BlockingIOError(errno.EAGAIN, os.strerror(errno.EAGAIN))

        monkeypatch.setattr(os, "fork", fork)
        monkeypatch.setattr(dynamics, "_AHEAD_NORMALS", 1)
        monkeypatch.setattr(dynamics, "_cpus", lambda: 2)
        out = tmp_path / "out"
        assert main(["run", "--config", str(config_file), "--out", str(out)]) == 2
        reason = f"[Errno {errno.EAGAIN}] {os.strerror(errno.EAGAIN)}"
        assert capsys.readouterr() == ("", f"solver failure: noise worker could not be started: {reason}\n")
        assert not out.exists()

    @pytest.mark.parametrize("command", ["run", "verify"])
    @pytest.mark.parametrize("where", ["config", "flag"])
    def test_negative_seed_is_config_error(self, where, command, tmp_path, capsys):
        cfg = tmp_path / "seed.ini"
        cfg.write_text(BASE.replace("seed = 42", "seed = -1") if where == "config" else BASE)
        out = tmp_path / "out"
        flag = ["--seed=-1"] if where == "flag" else []
        assert main([command, "--config", str(cfg), "--out", str(out), *flag]) == 1
        # one rule, one reason; the message names where the value came from
        source = f"{cfg}: [chain] seed" if where == "config" else "--seed"
        assert capsys.readouterr().err == f"config error: {source} = '-1': must be >= 0\n"
        assert not out.exists()

    @pytest.mark.parametrize(
        "section, key, old, raw",
        [
            ("kernel", "mu0", "mu0 = 1.0", "abc"),
            ("chain", "n_modes", "n_modes = 8", "16.5"),
            ("objective", "synth_n", "synth_n = 8", "x"),
            ("chain", "seed", "seed = 42", "1.5"),
            ("chain", "minibatch", None, "abc"),  # None: appended to [chain], the last section
        ],
    )
    def test_parse_error_names_its_location_once(self, section, key, old, raw, tmp_path, capsys):
        cfg = tmp_path / "bad.ini"
        cfg.write_text(BASE.replace(old, f"{key} = {raw}") if old else BASE + f"{key} = {raw}\n")
        assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"config error: {cfg}: [{section}] {key} = {raw!r}: ")
        assert err.count(f"[{section}]") == 1 and err.count(str(cfg)) == 1 and err.count("\n") == 1

    def test_unreadable_data_file_is_config_error(self, tmp_path, capsys):
        data = tmp_path / "data.csv"
        data.write_text("x,y\n0.5,1.0\n")
        cfg = tmp_path / "data.ini"
        cfg.write_text(BASE.replace("synth_n = 8", f"data = {data}\nsynth_n = 8"))
        assert main(["run", "--config", str(cfg), "--out", str(tmp_path)]) == 1
        reason = f"{data}: expected CSV header 'z,y'"
        assert capsys.readouterr().err == f"config error: {cfg}: [objective] data = {str(data)!r}: {reason}\n"

    @pytest.mark.parametrize("row, fields", [("0.5", 1), ("0.5,1.0,2.0", 3)])
    def test_data_row_without_two_fields_is_config_error(self, row, fields, tmp_path, capsys):
        data = tmp_path / "data.csv"
        data.write_text(f"z,y\n0.25,1.0\n{row}\n")
        cfg = tmp_path / "data.ini"
        cfg.write_text(BASE.replace("synth_n = 8", f"data = {data}\nsynth_n = 8"))
        assert main(["run", "--config", str(cfg), "--out", str(tmp_path)]) == 1
        reason = f"{data}: line 3: expected 2 fields, got {fields}"
        assert capsys.readouterr().err == f"config error: {cfg}: [objective] data = {str(data)!r}: {reason}\n"


    @pytest.mark.parametrize("row, name, raw", [("abc,1.0", "z", "abc"), ("0.5,abc", "y", "abc"), ("0.5,", "y", "")])
    def test_non_numeric_data_field_is_config_error(self, row, name, raw, tmp_path, capsys):
        data = tmp_path / "data.csv"
        data.write_text(f"z,y\n{row}\n")
        cfg = tmp_path / "data.ini"
        cfg.write_text(BASE.replace("synth_n = 8", f"data = {data}\nsynth_n = 8"))
        assert main(["run", "--config", str(cfg), "--out", str(tmp_path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"config error: {cfg}: [objective] data = {str(data)!r}: {data}: line 2: {name} = {raw!r}: ")
        assert err.count("\n") == 1


class TestReport:
    @pytest.mark.parametrize("flag", [["--config", "x.ini"], ["--seed", "3"]])
    def test_report_takes_only_manifest_and_out(self, flag, tmp_path, capsys):
        with pytest.raises(SystemExit):
            main(["report", "--manifest", str(tmp_path / "m.json"), "--out", str(tmp_path), *flag])
        assert "unrecognized arguments" in capsys.readouterr().err

    def test_report_replays_byte_identically(self, tmp_path, config_file):
        out = tmp_path / "out"
        assert main(["run", "--config", str(config_file), "--out", str(out)]) == 0
        tag = tag_of(config_file)
        manifest = out / f"{tag}_manifest.json"
        assert main(["report", "--manifest", str(manifest), "--out", str(out)]) == 0
        report = out / f"{tag}_report.txt"
        bundle = out / f"{tag}_report_bundle.csv"
        first_report = report.read_bytes()
        first_bundle = bundle.read_bytes()
        assert main(["report", "--manifest", str(manifest), "--out", str(out)]) == 0
        assert report.read_bytes() == first_report
        assert bundle.read_bytes() == first_bundle
        with open(bundle, newline="") as fh:
            header = next(csv.reader(fh))
        for col in ("source", "config_hash", "seed"):
            assert col in header

    def test_separable_data_reports_unattained_infimum(self, tmp_path):
        cfg = tmp_path / "logistic.ini"
        cfg.write_text(SEPARABLE_LOGISTIC)
        out = tmp_path / "out"
        assert main(["run", "--config", str(cfg), "--out", str(out)]) == 0
        tag = tag_of(cfg)
        summary = json.loads((out / f"{tag}_summary.json").read_text())
        assert summary["l_star"] == 0.0 and summary["l_star_attained"] is False
        manifest = out / f"{tag}_manifest.json"
        assert json.loads(manifest.read_text())["notes"] == {}
        assert main(["report", "--manifest", str(manifest), "--out", str(out)]) == 0
        report = (out / f"{tag}_report.txt").read_text()
        assert "L* = 0 is the infimum; x* is not attained (separable data)" in report
        assert "regime: strict" in report and "b (Lyapunov offset): n/a" in report
        assert "unavailable" not in report

    def test_zero_smoothness_reports_its_gibbs_bound(self, tmp_path, capsys):
        # a margin loss on all-zero labels is flat in u: M = 0, x~ = 0 and the Gibbs bound is 1/beta
        data = tmp_path / "zero.csv"
        data.write_text("z,y\n0.1,0\n0.5,0\n0.9,0\n")
        cfg = tmp_path / "zero.ini"
        cfg.write_text(BASE.replace("loss = squared", "loss = logistic").replace("synth_n = 8", f"data = {data}"))
        out = tmp_path / "out"
        assert main(["run", "--config", str(cfg), "--out", str(out)]) == 0
        tag = tag_of(cfg)
        capsys.readouterr()
        assert main(["report", "--manifest", str(out / f"{tag}_manifest.json"), "--out", str(out)]) == 0
        assert capsys.readouterr().err == ""
        report = (out / f"{tag}_report.txt").read_text().splitlines()
        assert "  M (smoothness): 0.0" in report and "  gibbs concentration bound: 0.25" in report

    def test_no_dissipativity_regime_names_lambda_and_manifest(self, tmp_path, capsys):
        # the squared loss has an unbounded gradient, so lambda <= M mu0 leaves no regime
        cfg = tmp_path / "weak.ini"
        cfg.write_text(BASE.replace("lambda = 6.0", "lambda = 0.1"))
        out = tmp_path / "out"
        assert main(["run", "--config", str(cfg), "--out", str(out)]) == 0
        manifest = out / f"{tag_of(cfg)}_manifest.json"
        capsys.readouterr()
        assert main(["report", "--manifest", str(manifest), "--out", str(out)]) == 1
        gap = 0.1 - ExperimentConfig.load(cfg, seed_override=None).build_objective().smoothness_constant()
        reason = f"no dissipativity regime applies: lambda/mu0 - M = {gap:.6g} <= 0 and the gradient is unbounded"
        assert capsys.readouterr().err == f"config error: {manifest}: [chain] lambda = '0.1': {reason}\n"

    def test_no_dissipativity_regime_reads_the_same_in_sweep_and_report(self, tmp_path, monkeypatch, capsys):
        # one rule, one label: the tail sweep refuses the config before any chain step, as report does
        cfg = tmp_path / "weak.ini"
        cfg.write_text(BASE.replace("lambda = 6.0", "lambda = 0.1") + "\n[experiment]\nreplicas = 2\n")
        out = tmp_path / "out"
        assert main(["run", "--config", str(cfg), "--out", str(out)]) == 0
        manifest = out / f"{tag_of(cfg)}_manifest.json"
        capsys.readouterr()
        assert main(["report", "--manifest", str(manifest), "--out", str(out)]) == 1
        reported = capsys.readouterr().err.removeprefix(f"config error: {manifest}: ")

        def no_engine(*args, **kwargs):
            raise AssertionError("the engine ran")

        monkeypatch.setattr(diagnostics, "run_blocks", no_engine)
        assert main(["sweep", "--axis", "tail", "--config", str(cfg), "--out", str(tmp_path / "sweep")]) == 1
        swept = capsys.readouterr().err.removeprefix(f"config error: {cfg}: ")
        assert swept == reported and swept.startswith("[chain] lambda = '0.1': no dissipativity regime applies")

    def test_commands_write_their_own_manifests(self, tmp_path, capsys):
        # a verify or sweep after a run leaves the run's manifest, and so its summary, in place
        cfg = tmp_path / "m.ini"
        cfg.write_text(BASE + "\n[experiment]\nreplicas = 8\nm_grid = 2, 4, 8\n")
        out = tmp_path / "out"
        for argv in (["run"], ["verify"], ["sweep", "--axis", "minibatch"]):
            assert main([*argv, "--config", str(cfg), "--out", str(out)]) == 0
        tag = tag_of(cfg)
        commands = {
            name: json.loads((out / f"{tag}_{name}.json").read_text())["command"]
            for name in ("manifest", "verify_manifest", "sweep_minibatch_manifest")
        }
        assert commands == {
            "manifest": "run", "verify_manifest": "verify", "sweep_minibatch_manifest": "sweep --axis minibatch"
        }
        # a report is named after its manifest's stem, so no report overwrites another
        reports = {}
        for stem in ("", "_verify", "_sweep_minibatch"):
            capsys.readouterr()
            assert main(["report", "--manifest", str(out / f"{tag}{stem}_manifest.json"), "--out", str(out)]) == 0
            report = out / f"{tag}{stem}_report.txt"
            assert capsys.readouterr().out == f"report written to {report}\n"
            manifest = json.loads((out / f"{tag}{stem}_report_manifest.json").read_text())
            assert manifest["outputs"] == [report.name, f"{tag}{stem}_report_bundle.csv"]
            reports[stem] = report.read_text()
        assert {stem: (out / f"{tag}{stem}_report.txt").read_text() for stem in reports} == reports
        assert f"run summary {tag}_summary.json:" in reports[""]
        for stem, verdicts in (("_verify", "_verify.txt"), ("_sweep_minibatch", "_sweep_minibatch_verdict.txt")):
            lines = (out / f"{tag}{verdicts}").read_text().splitlines()
            assert f"verdicts {tag}{verdicts}:\n" + "".join(f"  {line}\n" for line in lines) in reports[stem]

    def test_bounded_regime_without_delta_reports_terms_na(self, tmp_path):
        cfg = tmp_path / "savage.ini"
        cfg.write_text(BASE.replace("squared", "savage").replace("lambda = 6.0", "lambda = 0.1"))
        out = tmp_path / "out"
        assert main(["run", "--config", str(cfg), "--out", str(out)]) == 0
        tag = tag_of(cfg)
        assert main(["report", "--manifest", str(out / f"{tag}_manifest.json"), "--out", str(out)]) == 0
        report = (out / f"{tag}_report.txt").read_text().splitlines()
        assert "regime: bounded" in report
        assert "c_beta rationale: bounded-gradient regime (lambda <= M mu0), c_beta = sqrt(beta)" in report
        assert "  Lambda*_eta (spectral gap): n/a" in report and "  delta: n/a" in report
        assert report[report.index("  markov factor 5/delta: 25.0") + 1] == (
            "  spectral gap needs [experiment] delta in the bounded regime; terms n/a"
        )

    def test_report_notes_an_aborted_run(self, tmp_path, config_file, monkeypatch):
        def nan_gradient(self, u, y):
            value, d1 = value_and_d1(self, u, y)
            return value, np.full_like(d1, np.nan)

        value_and_d1 = LossFamily.value_and_d1
        out = tmp_path / "out"
        with monkeypatch.context() as patch:
            patch.setattr(LossFamily, "value_and_d1", nan_gradient)
            assert main(["run", "--config", str(config_file), "--out", str(out)]) == 2
        tag = tag_of(config_file)
        notes = json.loads((out / f"{tag}_manifest.json").read_text())["notes"]
        assert notes == {"abort": "numerical abort at step 1"}
        assert main(["report", "--manifest", str(out / f"{tag}_manifest.json"), "--out", str(out)]) == 0
        assert (out / f"{tag}_report.txt").read_text().endswith("\nnote [abort]: numerical abort at step 1\n")

    @pytest.mark.parametrize(
        "suffix, text, reason",
        [
            ("_summary.json", b"{not json", "Expecting property name enclosed in double quotes: line 1 column 2 (char 1)"),
            ("_summary.json", b"[1, 2]", "a run summary must be a JSON object"),
            ("_summary.json", b"\xff{}", "'utf-8' codec can't decode byte 0xff in position 0: invalid start byte"),
            # the bundle's CSV outputs are read with the others, before the report writes anything
            ("_trajectory.csv", b"\xff\xfe", "'utf-8' codec can't decode byte 0xff in position 0: invalid start byte"),
        ],
    )
    def test_malformed_output_exit_code(self, suffix, text, reason, tmp_path, config_file, capsys):
        out = tmp_path / "out"
        assert main(["run", "--config", str(config_file), "--out", str(out)]) == 0
        tag = tag_of(config_file)
        output = out / f"{tag}{suffix}"
        output.write_bytes(text)
        capsys.readouterr()
        report_dir = tmp_path / "report"
        assert main(["report", "--manifest", str(out / f"{tag}_manifest.json"), "--out", str(report_dir)]) == 1
        assert capsys.readouterr().err == f"cannot read output: {output}: {reason}\n"
        assert not report_dir.exists()

    def test_manifest_opens_from_any_directory(self, tmp_path, config_file, monkeypatch):
        # outputs are stored by name and resolved against the manifest's directory
        (tmp_path / "a").mkdir()
        (tmp_path / "b").mkdir()
        monkeypatch.chdir(tmp_path / "a")
        assert main(["run", "--config", str(config_file), "--out", "out"]) == 0
        tag = tag_of(config_file)
        assert json.loads(Path(f"out/{tag}_manifest.json").read_text())["outputs"] == [
            f"{tag}_trajectory.csv", f"{tag}_summary.json"
        ]
        assert main(["report", "--manifest", f"out/{tag}_manifest.json", "--out", "out"]) == 0
        monkeypatch.chdir(tmp_path / "b")
        assert main(["report", "--manifest", f"../a/out/{tag}_manifest.json", "--out", "out"]) == 0
        for name in (f"{tag}_report.txt", f"{tag}_report_bundle.csv"):
            assert Path("out", name).read_bytes() == Path("../a/out", name).read_bytes()
        # so does a manifest that stored the output paths as given to --out
        manifest = Path(f"../a/out/{tag}_manifest.json")
        record = json.loads(manifest.read_text())
        record["outputs"] = [f"out/{name}" for name in record["outputs"]]
        manifest.write_text(json.dumps(record))
        assert main(["report", "--manifest", str(manifest), "--out", "old"]) == 0
        assert Path("old", f"{tag}_report.txt").read_bytes() == Path("out", f"{tag}_report.txt").read_bytes()

    @pytest.mark.parametrize(
        "record, field",
        [
            ([], None),
            (None, None),
            ({"config_hash": "x", "seed_table": []}, "seed_table"),
            ({"config_hash": "x", "outputs": "abc"}, "outputs"),
            ({"config_hash": 1}, "config_hash"),
            # report would write its files under a tag that is not its config's
            ({"config_hash": "deadbeefdeadbeef", "seed_table": {"seed": 42}, "config_text": BASE}, "edited_hash"),
        ],
    )
    def test_malformed_manifest_exit_code(self, record, field, tmp_path, capsys):
        manifest = tmp_path / "m.json"
        manifest.write_text(json.dumps(record))
        out = tmp_path / "out"
        assert main(["report", "--manifest", str(manifest), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        what = {
            None: "a manifest must be a JSON object",
            "edited_hash": "config_hash 'deadbeefdeadbeef' does not match its config",
        }.get(field, f"manifest field '{field}' must be")
        assert err.startswith(f"cannot read manifest: {manifest}: {what}") and err.count("\n") == 1
        assert not out.exists()

    def test_missing_outputs_exit_code(self, tmp_path, config_file):
        out = tmp_path / "out"
        assert main(["run", "--config", str(config_file), "--out", str(out)]) == 0
        tag = tag_of(config_file)
        next(out.glob("*_trajectory.csv")).unlink()
        rc = main(["report", "--manifest", str(out / f"{tag}_manifest.json"), "--out", str(out)])
        assert rc == 1


# config errors that parsing raises: (config text, data file rows or None)
PARSE_ERRORS = {
    "data_header": (BASE.replace("synth_n = 8", "data = {data}"), "x,y\n0.5,1.0\n"),
    "data_row": (BASE.replace("synth_n = 8", "data = {data}"), "z,y\n0.25,1.0\n0.5\n"),
    "data_field": (BASE.replace("synth_n = 8", "data = {data}"), "z,y\nabc,1.0\n"),
    "minibatch_above_n": (BASE.replace("seed = 42", "seed = 42\nminibatch = 30"), None),
    "minibatch_full": (BASE.replace("seed = 42", "seed = 42\nminibatch = full"), None),
    "minibatch_n_tr": (BASE.replace("seed = 42", "seed = 42\nminibatch = 8"), None),
    "retired_key": (BASE.replace("synth_seed = 5", "synth_seed = 5\nlambda0 = 0.1"), None),
    "retired_mode": (BASE + "\n[experiment]\nmode = sgld\n", None),
    "one_replica": (BASE + "\n[experiment]\nreplicas = 1\n", None),
    "short_grid": (BASE + "\n[experiment]\nm_grid = 2\n", None),
}


class TestPublish:
    """A command writes its files and manifest last, and nothing else."""

    @pytest.mark.parametrize("argv", [["run"], ["verify"], ["sweep", "--axis", "minibatch"]], ids=lambda a: a[0])
    @pytest.mark.parametrize("case", sorted(PARSE_ERRORS))
    def test_config_error_leaves_no_output_directory(self, case, argv, tmp_path, capsys):
        text, rows = PARSE_ERRORS[case]
        data = tmp_path / "data.csv"
        if rows is not None:
            data.write_text(rows)
        cfg = tmp_path / "bad.ini"
        cfg.write_text(text.format(data=data))
        out = tmp_path / "out"
        assert main([*argv, "--config", str(cfg), "--out", str(out)]) == 1
        assert capsys.readouterr().err.startswith(f"config error: {cfg}: ")
        assert not out.exists()

    @pytest.mark.parametrize("below", [False, True], ids=["file", "below-file"])
    def test_out_that_cannot_be_a_directory_is_one_line(self, below, tmp_path, config_file, capsys):
        blocker = tmp_path / "blocker"
        blocker.write_text("kept\n")
        out = blocker / "sub" if below else blocker
        assert main(["run", "--config", str(config_file), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"config error: cannot write --out {out}: ") and err.count("\n") == 1
        assert blocker.read_text() == "kept\n"

    def test_failed_write_leaves_no_temporary_file(self, tmp_path, config_file, capsys):
        out = tmp_path / "out"
        trajectory = out / f"{tag_of(config_file)}_trajectory.csv"
        trajectory.mkdir(parents=True)  # the rename onto it fails
        assert main(["run", "--config", str(config_file), "--out", str(out)]) == 1
        assert capsys.readouterr().err.startswith(f"config error: cannot write --out {out}: ")
        assert list(out.iterdir()) == [trajectory]

    def test_new_files_are_the_manifest_and_its_outputs(self, tmp_path, capsys):
        cfg = tmp_path / "m.ini"
        grid = "\n[experiment]\nreplicas = 2\nm_grid = 2, 4, 8\n"
        cfg.write_text(BASE.replace("horizon = 2000", "horizon = 200") + grid)
        out = tmp_path / "out"
        tag = tag_of(cfg)
        runs = [
            (["run", "--config", str(cfg)], f"{tag}_manifest.json"),
            (["verify", "--config", str(cfg)], f"{tag}_verify_manifest.json"),
            (["sweep", "--axis", "minibatch", "--config", str(cfg)], f"{tag}_sweep_minibatch_manifest.json"),
            (["report", "--manifest", str(out / f"{tag}_manifest.json")], f"{tag}_report_manifest.json"),
        ]
        for argv, manifest in runs:
            before = set(out.glob("*"))
            assert main([*argv, "--out", str(out)]) == 0
            outputs = json.loads((out / manifest).read_text())["outputs"]
            assert sorted(p.name for p in set(out.glob("*")) - before) == sorted([*outputs, manifest])


ROOT = Path(__file__).resolve().parent.parent
README = ROOT / "README.md"


class TestOneRulePerClaim:
    """Each claim's PASS rule lives in rkld.diagnostics; the CLI and the acceptance suite only read it."""

    def test_cli_holds_no_rule_constant(self):
        # a window bound or the 3-SE factor in the CLI is a second copy of a claim's rule
        tree = ast.parse((ROOT / "src" / "rkld" / "cli.py").read_text())
        floats = [node.value for node in ast.walk(tree) if isinstance(node, ast.Constant) and type(node.value) is float]
        assert floats == []
        modules = [a.name for node in ast.walk(tree) if isinstance(node, ast.Import) for a in node.names]
        modules += [node.module for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)]
        assert "math" not in modules

    def test_acceptance_suite_has_no_3se_rule(self):
        # math.hypot is the combined standard error of the "nonincreasing within 3 SE" rule
        tree = ast.parse((ROOT / "tests" / "test_acceptance.py").read_text())
        calls = [ast.unparse(node.func) for node in ast.walk(tree) if isinstance(node, ast.Call)]
        assert not [call for call in calls if call.endswith("hypot")]


class TestReadme:
    def test_verify_bullet_names_every_property_in_report_order(self):
        bullet = re.search(r"^- \*\*verify\*\*.*?(?=^- \*\*)", README.read_text(), re.M | re.S).group(0)
        names = [r.name for r in run_property_suite(ExperimentConfig.loads(BASE))]
        assert re.findall(r"`([a-z0-9_]+)`", bullet) == names

    @pytest.mark.parametrize("axis", sorted(cli._SWEEPS))
    def test_sweep_bullet_names_the_keys_its_sweep_reads(self, axis):
        bullet = re.search(rf"^  - `{axis}`:.*?(?=^  - |^$)", README.read_text(), re.M | re.S).group(0)
        assert [key for key in cli._SWEEPS[axis][1] if f"`{key}`" not in bullet] == []

    def test_library_table_lists_every_module(self):
        table = re.search(r"^\| module .*?(?=^$)", README.read_text(), re.M | re.S).group(0)
        modules = sorted(f"rkld.{m.name}" for m in pkgutil.iter_modules(rkld.__path__))  # test_api.MODULES
        assert sorted(re.findall(r"^\| `(rkld\.[a-z_]+)`", table, re.M)) == modules

    def test_config_block_names_every_key(self):
        block = re.search(r"^```ini\n(.*?)^```", README.read_text(), re.M | re.S).group(1)
        parser = configparser.ConfigParser(interpolation=None, inline_comment_prefixes=("#",))
        parser.read_string(block)
        assert {s: parser.options(s) for s in parser.sections()} == {s: list(keys) for s, keys in _KEYS.items()}
