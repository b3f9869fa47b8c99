import csv
import json

import numpy as np
import pytest

from rkld import diagnostics
from rkld.cli import main
from rkld.config import ExperimentConfig
from rkld.objective import ObjectiveSpec

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


@pytest.fixture
def config_file(tmp_path):
    p = tmp_path / "exp.ini"
    p.write_text(BASE)
    return p


def tag_of(path):
    return ExperimentConfig.load(path).config_hash()


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

    def test_env_out_dir(self, tmp_path, config_file, monkeypatch):
        envdir = tmp_path / "envout"
        monkeypatch.setenv("RKLD_OUT", str(envdir))
        assert main(["run", "--config", str(config_file)]) == 0
        assert list(envdir.glob("*_trajectory.csv"))

    def test_config_error_exit_code(self, tmp_path):
        bad = tmp_path / "bad.ini"
        bad.write_text(BASE + "\n[experiment]\nbogus = 1\n")
        assert main(["run", "--config", str(bad), "--out", str(tmp_path)]) == 1

    def test_missing_config_exit_code(self, tmp_path):
        assert main(["run", "--config", str(tmp_path / "none.ini"), "--out", str(tmp_path)]) == 1

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_numerical_abort_exit_code(self, tmp_path):
        # lambda below the smoothness threshold with a huge step size diverges
        text = BASE.replace("eta = 0.05", "eta = 50.0").replace("beta = 4.0", "beta = 100.0")
        text = text.replace("lambda = 6.0", "lambda = 0.000001")
        cfg = tmp_path / "explode.ini"
        cfg.write_text(text)
        assert main(["run", "--config", str(cfg), "--out", str(tmp_path)]) == 2


class TestVerify:
    def test_passes_on_strict_config(self, tmp_path, config_file, capsys):
        rc = main(["verify", "--config", str(config_file), "--out", str(tmp_path)])
        assert rc == 0
        console = capsys.readouterr().out
        assert "PASS" in console and "FAIL" not in console
        report = next(tmp_path.glob("*_verify.txt")).read_text()
        assert report.count("PASS") >= 10

    def test_passes_on_separable_strict_logistic_config(self, tmp_path, capsys):
        cfg = tmp_path / "logistic.ini"
        cfg.write_text(SEPARABLE_LOGISTIC)
        assert main(["verify", "--config", str(cfg), "--out", str(tmp_path)]) == 0
        assert "PASS dissipativity_probe: regime strict" in capsys.readouterr().out

    def test_fails_on_wrong_decay_law(self, tmp_path, capsys):
        cfg = tmp_path / "harmonic.ini"
        cfg.write_text(BASE.replace("[objective]", "decay = harmonic\n\n[objective]"))
        rc = main(["verify", "--config", str(cfg), "--out", str(tmp_path)])
        assert rc == 1
        assert "FAIL" in capsys.readouterr().out


class TestSweep:
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
        # full batch reproduces the exact run: discrepancy column is zero
        d_col = header.index("discrepancy")
        assert float(rows[-1][d_col]) == 0.0

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

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_one_replica_beta_sweep_is_inconclusive(self, tmp_path, capsys):
        # one replica has no spread, so the gaps carry no error bars
        text = (
            BASE.replace("eta = 0.05", "eta = 0.01")
            .replace("n_modes = 8", "n_modes = 65")
            .replace("horizon = 2000", "horizon = 500")
        )
        cfg = tmp_path / "beta.ini"
        cfg.write_text(text + "\n[experiment]\nreplicas = 1\nbeta_grid = 2, 4\n")
        rc = main(["sweep", "--axis", "beta", "--config", str(cfg), "--out", str(tmp_path)])
        assert rc == 3
        assert capsys.readouterr().out.startswith("INCONCLUSIVE gibbs gap vs beta: need >= 2 replicas")
        with open(next(tmp_path.glob("*_sweep_beta.csv")), newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert [r["se"] for r in rows] == ["inf", "inf"]
        # nor a stationarity test: the half-split SE is inf too
        assert [r["inconclusive"] for r in rows] == ["1", "1"]

    def test_solver_failure_exit_code(self, tmp_path, monkeypatch, capsys):
        def fail(self, lam, tol=1e-9):
            raise RuntimeError("line search stalled")

        monkeypatch.setattr(ObjectiveSpec, "regularized_minimizer", fail)
        cfg = tmp_path / "m.ini"
        cfg.write_text(BASE + "\n[experiment]\nreplicas = 8\nm_grid = 2, 4, 8\n")
        rc = main(["sweep", "--axis", "minibatch", "--config", str(cfg), "--out", str(tmp_path)])
        assert rc == 2
        assert capsys.readouterr().err == "solver failure: line search stalled\n"


SWEEP_PRECONDITIONS = {
    "eta_ref": ("eta", "eta_grid = 0.2, 0.1, 0.05, 0.025\neta_ref = 0.01\n", BASE),
    "n_ref": ("n_modes", "n_grid = 4, 8, 16, 32\nn_ref = 64\n", BASE),
    "beta_below_eta": (
        "beta",
        "beta_grid = 0.005, 4\n",
        BASE.replace("eta = 0.05", "eta = 0.01").replace("n_modes = 8", "n_modes = 65"),
    ),
    "gibbs_discretization": ("beta", "beta_grid = 2, 4\n", BASE),
}


NON_FINITE = {
    "beta": ("beta = 4.0", "beta = nan", None),
    "lambda": ("lambda = 6.0", "lambda = nan", None),
    "lambda0": ("synth_seed = 5", "synth_seed = 5\nlambda0 = nan", None),
    "data_z": ("synth_n = 8", "data = {data}", "z,y\n0.25,1.0\nnan,-1.0\n"),
    "data_y": ("synth_n = 8", "data = {data}", "z,y\n0.25,1.0\n0.75,nan\n"),
}


class TestExitCodes:
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

    @pytest.mark.parametrize("case", sorted(SWEEP_PRECONDITIONS))
    def test_sweep_precondition_is_config_error(self, case, tmp_path, monkeypatch, capsys):
        # checked before any engine step, reported as a config error (exit 1)
        axis, grid, base = SWEEP_PRECONDITIONS[case]

        def no_engine(*args, **kwargs):
            raise AssertionError("the engine ran")

        monkeypatch.setattr(diagnostics, "run_blocks", no_engine)
        cfg = tmp_path / "sweep.ini"
        cfg.write_text(base + "\n[experiment]\nreplicas = 2\n" + grid)
        assert main(["sweep", "--axis", axis, "--config", str(cfg), "--out", str(tmp_path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and err.count("\n") == 1

    def test_numerical_value_error_exit_code(self, tmp_path, monkeypatch, capsys):
        # LinAlgError subclasses ValueError but is no config error
        def singular(*args, **kwargs):
            raise np.linalg.LinAlgError("Singular matrix")

        monkeypatch.setattr(diagnostics, "run_blocks", singular)
        cfg = tmp_path / "eta.ini"
        cfg.write_text(BASE + "\n[experiment]\nreplicas = 2\neta_grid = 0.2, 0.1, 0.05, 0.025\neta_ref = 0.003\n")
        assert main(["sweep", "--axis", "eta", "--config", str(cfg), "--out", str(tmp_path)]) == 2
        assert capsys.readouterr().err == "numerical error: Singular matrix\n"

    @pytest.mark.parametrize("command", ["run", "verify"])
    @pytest.mark.parametrize("where", ["config", "flag"])
    def test_negative_seed_is_config_error(self, where, command, tmp_path, capsys):
        cfg = tmp_path / "seed.ini"
        cfg.write_text(BASE.replace("seed = 42", "seed = -1") if where == "config" else BASE)
        out = tmp_path / "out"
        flag = ["--seed=-1"] if where == "flag" else []
        assert main([command, "--config", str(cfg), "--out", str(out), *flag]) == 1
        assert capsys.readouterr().err == f"config error: {cfg}: [chain] seed must be a non-negative integer, got -1\n"
        assert not out.exists()

    @pytest.mark.parametrize(
        "section, key, old, raw",
        [
            ("kernel", "mu0", "mu0 = 1.0", "abc"),
            ("chain", "n_modes", "n_modes = 8", "16.5"),
            ("objective", "synth_n", "synth_n = 8", "x"),
            ("chain", "seed", "seed = 42", "1.5"),
        ],
    )
    def test_parse_error_names_its_location_once(self, section, key, old, raw, tmp_path, capsys):
        cfg = tmp_path / "bad.ini"
        cfg.write_text(BASE.replace(old, f"{key} = {raw}"))
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
        assert capsys.readouterr().err.startswith("config error: [objective]")


class TestReport:
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

    def test_missing_outputs_exit_code(self, tmp_path, config_file):
        out = tmp_path / "out"
        assert main(["run", "--config", str(config_file), "--out", str(out)]) == 0
        tag = tag_of(config_file)
        next(out.glob("*_trajectory.csv")).unlink()
        rc = main(["report", "--manifest", str(out / f"{tag}_manifest.json"), "--out", str(out)])
        assert rc == 1
