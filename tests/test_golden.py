"""Golden outputs: each (config, command) of a small CLI matrix keeps its bytes.

tests/golden/outputs.json maps every entry to its exit code and to the sha256
of its stdout, its stderr and each file it writes, with the temporary
directory's path replaced by <tmp>.  The bits depend on numpy and its BLAS
build, which the file records.  Rewrite the file with

    PYTHONPATH=src python tests/test_golden.py

and list each entry that changes, with its reason, in CHANGES.md.
"""

import contextlib
import hashlib
import io
import json
import tempfile
from pathlib import Path

import numpy as np

from rkld.cli import main

GOLDEN = Path(__file__).parent / "golden" / "outputs.json"

_TEMPLATE = """[kernel]
mu0 = 1.0
gamma = 1.5

[objective]
loss = {loss}
synth_kind = {kind}
synth_n = 12
synth_seed = 5

[chain]
eta = 0.01
beta = 4.0
lambda = {lam}
n_modes = 65
seed = 7
horizon = 400
{minibatch}
[experiment]
replicas = 2
{delta}eta_grid = 0.2, 0.1, 0.05, 0.025
eta_ref = 0.003
n_grid = 2, 4, 8, 16
n_ref = 64
beta_grid = 2, 8
m_grid = {m_grid}
"""


def _config(loss, kind, lam, minibatch=None, delta=None, m_grid="3, 6, 12"):
    return _TEMPLATE.format(
        loss=loss, kind=kind, lam=lam, m_grid=m_grid,
        minibatch=f"minibatch = {minibatch}\n" if minibatch else "",
        delta=f"delta = {delta}\n" if delta else "",
    )


SWEEPS = tuple(f"sweep_{axis}" for axis in ("eta", "n_modes", "beta", "minibatch", "tail"))

# config name -> (config text, its commands in order); `report_<command>` reports
# on that command's manifest.  n_tr = 12, so an m_grid of 3, 6, 12 reaches the full batch.
MATRIX = {
    "squared-strict-gld": (
        _config("squared", "regression", 6.0),
        ("verify", "run", *SWEEPS, "report_verify", "report_run", *(f"report_{sweep}" for sweep in SWEEPS)),
    ),
    "squared-strict-sgld": (
        _config("squared", "regression", 6.0, minibatch=3),
        ("verify", "run", "sweep_minibatch", "sweep_tail", "report_run", "report_sweep_minibatch"),
    ),
    "squared-noregime-gld": (  # lambda below M mu0 and an unbounded gradient
        _config("squared", "regression", 0.05),
        ("verify", "run", "sweep_tail", "report_run"),
    ),
    "logistic-strict-sgld": (
        _config("logistic", "classification", 6.0, minibatch=3),
        ("verify", "run", "sweep_eta", "report_run"),
    ),
    "logistic-bounded-gld": (
        _config("logistic", "classification", 0.05, delta=0.5),
        ("verify", "run", "sweep_tail", "report_run", "report_sweep_tail"),
    ),
    "logistic-bounded-nodelta": (
        _config("logistic", "classification", 0.05),
        ("verify", "run", "report_run"),
    ),
    "logistic-regression-labels": (
        _config("logistic", "regression", 6.0),
        ("verify", "run", "report_run"),
    ),
    "savage-strict-gld": (
        _config("savage", "classification", 6.0),
        ("verify", "run", "sweep_n_modes", "report_run"),
    ),
    "savage-bounded-sgld": (
        _config("savage", "classification", 0.05, minibatch=3, delta=0.5, m_grid="3, 6"),
        ("verify", "run", "sweep_minibatch", "sweep_beta", "report_run", "report_sweep_minibatch"),
    ),
}


def provenance() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"numpy": np.__version__, "blas": f"{blas['name']} {blas['version']}"}


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _call(argv, tmp: Path) -> dict:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return {
        "exit": code,
        "stdout": _sha(out.getvalue().replace(str(tmp), "<tmp>").encode()),
        "stderr": _sha(err.getvalue().replace(str(tmp), "<tmp>").encode()),
    }


def generate(tmp: Path) -> dict:
    """Run the matrix under tmp: entry '<config> <command>' -> exit code and digests."""
    entries = {}
    for name, (text, commands) in MATRIX.items():
        config = tmp / f"{name}.ini"
        config.write_text(text)
        for command in commands:
            out = tmp / name / command
            if command.startswith("report_"):
                # the manifest of a command is the one *_manifest.json in its directory
                [manifest] = (tmp / name / command.removeprefix("report_")).glob("*_manifest.json")
                argv = ["report", "--manifest", str(manifest)]
            else:
                verb, _, axis = command.partition("_")
                argv = [verb, *(["--axis", axis] if axis else []), "--config", str(config)]
            entry = _call([*argv, "--out", str(out)], tmp)
            written = sorted(out.iterdir()) if out.is_dir() else []
            entry["files"] = {p.name: _sha(p.read_bytes()) for p in written}
            entries[f"{name} {command}"] = entry
    return entries


def test_outputs_match_golden(tmp_path):
    golden = json.loads(GOLDEN.read_text())
    here = provenance()
    recorded = {key: golden[key] for key in here}
    assert here == recorded, f"outputs.json was made with {recorded}, this is {here}"
    entries = generate(tmp_path)
    assert list(entries) == list(golden["entries"]), "the matrix and outputs.json name different entries"
    for key, entry in entries.items():
        expected = golden["entries"][key]
        differ = [part for part in ("exit", "stdout", "stderr") if entry[part] != expected[part]]
        files = sorted(entry["files"].keys() | expected["files"].keys())
        differ += [name for name in files if entry["files"].get(name) != expected["files"].get(name)]
        assert not differ, f"first entry that differs: {key!r}, in {', '.join(differ)}"


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        entries = generate(Path(tmp).resolve())
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps({**provenance(), "entries": entries}, indent=1) + "\n")
    print(f"wrote {len(entries)} entries to {GOLDEN}")
