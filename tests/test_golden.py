"""Golden outputs: each (config, command) of a small CLI matrix keeps its bytes.

tests/golden/outputs.json maps every entry to its exit code and to the sha256
of its stdout, its stderr and each file it writes, with the temporary
directory's path replaced by <tmp>.  The bits depend on numpy and its BLAS
build, which the file records.  Rewrite the file with

    PYTHONPATH=src python tests/test_golden.py

which prints each entry it adds, removes or changes, and the parts of it that
changed, and list each such entry, with its reason, in CHANGES.md.
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
horizon = {horizon}
{minibatch}
[experiment]
replicas = {replicas}
{delta}eta_grid = 0.2, 0.1, 0.05, 0.025
eta_ref = 0.003
n_grid = 2, 4, 8, 16
n_ref = 64
beta_grid = 2, 8
m_grid = {m_grid}
"""


def _config(loss, kind, lam, minibatch=None, delta=None, m_grid="3, 6, 12", horizon=400, replicas=2):
    return _TEMPLATE.format(
        loss=loss, kind=kind, lam=lam, m_grid=m_grid, horizon=horizon, replicas=replicas,
        minibatch=f"minibatch = {minibatch}\n" if minibatch else "",
        delta=f"delta = {delta}\n" if delta else "",
    )


SWEEPS = tuple(f"sweep_{axis}" for axis in ("eta", "n_modes", "beta", "minibatch", "tail"))

# config name -> (config text, its commands in order); `report_<command>` reports
# on that command's manifest.  n_tr = 12, so an m_grid of 3, 6, 12 reaches the full batch.
# A call of "savage-strict-worker" draws 8 ids x 2000 steps x 65 modes = 1.04M normals,
# past dynamics._AHEAD_NORMALS: on several CPUs it forks the noise worker, on one it
# runs inline, with the same bytes.
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
    "savage-strict-worker": (
        _config("savage", "classification", 6.0, m_grid="3, 6", horizon=2000, replicas=8),
        ("sweep_minibatch", "sweep_beta"),
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


def changes(old: dict, new: dict) -> list[str]:
    """One line per entry added, removed or changed from old to new, a changed
    one naming the parts that differ: exit, stdout, stderr or a file name."""
    lines = [f"added {key}" for key in new if key not in old]
    lines += [f"removed {key}" for key in old if key not in new]
    for key in (k for k in new if k in old):
        differ = [part for part in ("exit", "stdout", "stderr") if new[key][part] != old[key][part]]
        files = sorted(new[key]["files"].keys() | old[key]["files"].keys())
        differ += [name for name in files if new[key]["files"].get(name) != old[key]["files"].get(name)]
        if differ:
            lines.append(f"changed {key}: {', '.join(differ)}")
    return lines


def test_outputs_match_golden(tmp_path):
    golden = json.loads(GOLDEN.read_text())
    here = provenance()
    recorded = {key: golden[key] for key in here}
    assert here == recorded, f"outputs.json was made with {recorded}, this is {here}"
    entries = generate(tmp_path)
    assert list(entries) == list(golden["entries"]), "the matrix and outputs.json name different entries"
    differ = changes(golden["entries"], entries)
    assert not differ, f"first entry that differs: {differ[0]}"


if __name__ == "__main__":
    old = json.loads(GOLDEN.read_text())["entries"] if GOLDEN.exists() else {}
    with tempfile.TemporaryDirectory() as tmp:
        entries = generate(Path(tmp).resolve())
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps({**provenance(), "entries": entries}, indent=1) + "\n")
    print(f"wrote {len(entries)} entries to {GOLDEN}")
    print("\n".join(changes(old, entries)) or "no entry changed")
