"""Command-line entry point: run / verify / sweep / report.

Every output file is prefixed with the config hash and registered, by name,
in a JSON manifest written next to it, one per command; re-running with the
same config and seed reproduces every file byte-for-byte.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys
from pathlib import Path

from .config import ConfigError, ExperimentConfig, Manifest, _atomic_write_text
from .diagnostics import (
    galerkin_error_vs_n,
    gibbs_gap_vs_beta,
    sgld_discrepancy_vs_m,
    tail_bound_terms,
    theorem_tail_bound,
    theory_constants,
    weak_error_vs_eta,
)
from .dynamics import NumericalAbort, RunSummary, run_chain
from .verify import run_property_suite

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_ABORT = 2  # numerical abort, solver failure or other numerical error
EXIT_INCONCLUSIVE = 3


def _csv_text(header: list[str], rows) -> str:
    """CSV of Python values: a float's str() is its shortest round-trip repr."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue()


def _publish(exp: ExperimentConfig, out: Path, command: str, stem: str, files: dict, notes=None) -> Path:
    """Write each <hash><suffix> file of `files` (suffix -> text) into out, then
    the manifest <hash><stem>_manifest.json that registers them; returns its path.

    Commands call this last, so a command that fails before it leaves no output
    directory behind.  An out that cannot be a directory, or a file that cannot
    be written, is a ConfigError naming the path."""
    tag = exp.config_hash()
    manifest = Manifest(
        config_hash=tag,
        command=command,
        seed_table={"seed": exp.chain.seed},
        outputs=[f"{tag}{suffix}" for suffix in files],
        notes=notes or {},
        config_text=exp.source_text,
    )
    path = out / f"{tag}{stem}_manifest.json"
    try:
        out.mkdir(parents=True, exist_ok=True)
        for suffix, text in files.items():
            _atomic_write_text(out / f"{tag}{suffix}", text)
        manifest.save(path)
    except OSError as exc:  # e.g. FileExistsError or NotADirectoryError from mkdir
        raise ConfigError(f"cannot write --out {out}: {exc}") from None
    return path


def _trajectory_rows(summary: RunSummary):
    """Chain 0's checkpoint rows, one per step."""
    columns = (summary.norm, summary.risk, summary.reg_objective, summary.phi, summary.cesaro_phi)
    return zip(map(int, summary.steps), *(map(float, column[0]) for column in columns))


TRAJECTORY_HEADER = ["step", "norm", "risk", "reg_objective", "phi", "cesaro_phi"]


def cmd_run(args) -> int:
    exp = ExperimentConfig.load(args.config, seed_override=args.seed)
    obj = exp.build_objective()
    mins = obj.find_minimizers(exp.chain.lam)

    aborted, notes = None, {}
    try:
        summary = run_chain(exp.chain, obj, l_star=mins.l_star)
    except NumericalAbort as exc:
        aborted = exc
        [summary] = exc.partial
        notes["abort"] = f"numerical abort at step {exc.step}"

    files = {
        "_trajectory.csv": _csv_text(TRAJECTORY_HEADER, _trajectory_rows(summary)),
        "_summary.json": json.dumps(
            {
                "config_hash": exp.config_hash(),
                "mode": summary.mode,
                "seed": exp.chain.seed,
                "chain_id": int(summary.chain_ids[0]),
                "burn_in": summary.burn_in,
                "retained_steps": summary.retained_steps,
                "l_star": mins.l_star,
                "l_star_attained": mins.attained,
                "l_tilde": mins.l_tilde,
                "final_cesaro_phi": float(summary.final_cesaro_phi[0]),
                "final_cesaro_risk": float(summary.final_cesaro_risk[0]),
            },
            indent=2,
            sort_keys=True,
        )
        + "\n",
    }
    out = Path(args.out)
    manifest_path = _publish(exp, out, "run", "", files, notes)
    if aborted is not None:
        print(f"numerical abort at step {aborted.step}; partial outputs in {out}", file=sys.stderr)
        return EXIT_ABORT
    print(f"run complete: {summary.retained_steps} retained steps, manifest {manifest_path}")
    return EXIT_OK


def cmd_verify(args) -> int:
    exp = ExperimentConfig.load(args.config, seed_override=args.seed)
    results = run_property_suite(exp)
    lines = [f"{'PASS' if r.passed else 'FAIL'} {r.name}: {r.detail}" for r in results]
    for line in lines:
        print(line)
    _publish(exp, Path(args.out), "verify", "_verify", {"_verify.txt": "\n".join(lines) + "\n"})
    failed = sum(not r.passed for r in results)
    print(f"{len(results) - failed}/{len(results)} properties passed")
    return EXIT_OK if failed == 0 else EXIT_CONFIG


def _theory(exp: ExperimentConfig, obj):
    """(minimizers, theory constants at the config's delta and kappa) for `report` and the
    tail sweep; a lambda at which no dissipativity regime applies is a [chain] error."""
    mins = obj.find_minimizers(exp.chain.lam)
    try:
        return mins, theory_constants(obj, exp.chain, mins, exp.delta, exp.kappa)
    except ValueError as exc:  # no dissipativity regime applies at this lambda
        raise ConfigError(f"{exp.origin}: [chain] lambda = '{exp.chain.lam}': {exc}") from None


def _sweep_eta(exp: ExperimentConfig):
    obj = exp.build_objective()
    _, l_center = obj.regularized_minimizer(exp.chain.lam)
    fit = weak_error_vs_eta(
        obj, exp.chain, exp.eta_grid, exp.eta_ref, l_center, replicas=exp.replicas
    )
    rows = zip(fit.abscissae.tolist(), fit.ordinates.tolist(), fit.ordinate_errors.tolist())
    return ["eta", "error", "se"], rows, fit.verdict


def _sweep_n_modes(exp: ExperimentConfig):
    fit = galerkin_error_vs_n(
        exp.build_objective, exp.chain, exp.n_grid, exp.n_ref, replicas=exp.replicas
    )
    rows = zip(exp.n_grid, fit.abscissae.tolist(), fit.ordinates.tolist(), fit.ordinate_errors.tolist())
    return ["n_modes", "sqrt_mu_next", "error", "se"], rows, fit.verdict


def _sweep_beta(exp: ExperimentConfig):
    results, verdict = gibbs_gap_vs_beta(exp.chain, exp.build_objective(), exp.beta_grid, replicas=exp.replicas)
    rows = [
        (beta, r["gap"], r["se"], r["bound"], int(r["passes_bound"]), int(r["inconclusive"]))
        for beta, r in zip(exp.beta_grid, results)
    ]
    return ["beta", "gap", "se", "bound", "passes_bound", "inconclusive"], rows, verdict


def _sweep_minibatch(exp: ExperimentConfig):
    obj = exp.build_objective()
    _, l_center = obj.regularized_minimizer(exp.chain.lam)
    results, verdict = sgld_discrepancy_vs_m(exp.chain, obj, l_center, exp.m_grid, replicas=exp.replicas)
    rows = [
        (m, r["discrepancy"], r["se"], r["r_n"], r["bound_shape"], r["c_fit"])
        for m, r in zip(exp.m_grid, results)
    ]
    return ["m", "discrepancy", "se", "r_n", "bound_shape", "c_fit"], rows, verdict


def _sweep_tail(exp: ExperimentConfig):
    obj = exp.build_objective()
    mins, consts = _theory(exp, obj)
    rows, verdict = theorem_tail_bound(exp.chain, obj, mins, consts, exp.tail_delta, exp.replicas)
    return ["n", "p_hat", "p_se", "rhs"], [(r["n"], r["p_hat"], r["p_se"], r["rhs"]) for r in rows], verdict


# axis -> (sweep, the [experiment] keys without a default that it reads); each
# experiment checks its own inputs and returns its claim's verdict next to its rows
_SWEEPS = {
    "eta": (_sweep_eta, ("eta_grid", "eta_ref")),
    "n_modes": (_sweep_n_modes, ("n_grid", "n_ref")),
    "beta": (_sweep_beta, ("beta_grid",)),
    "minibatch": (_sweep_minibatch, ("m_grid",)),
    "tail": (_sweep_tail, ()),
}


def cmd_sweep(args) -> int:
    exp = ExperimentConfig.load(args.config, seed_override=args.seed)
    sweep, keys = _SWEEPS[args.axis]
    for key in keys:
        if getattr(exp, key) is None:
            raise ConfigError(f"{exp.origin}: [experiment] {args.axis} sweep needs {key}")
    try:
        header, rows, verdict = sweep(exp)
    except ValueError as exc:  # a plain one is an experiment refusing its inputs before its first step
        if type(exc) is not ValueError:  # e.g. numpy's LinAlgError: numerical, not a config error
            raise
        raise ConfigError(f"{exp.origin}: [experiment] {exc}") from None
    stem = f"_sweep_{args.axis}"
    files = {f"{stem}.csv": _csv_text(header, rows), f"{stem}_verdict.txt": "\n".join(verdict.lines) + "\n"}
    _publish(exp, Path(args.out), f"sweep --axis {args.axis}", stem, files, {"replicas": exp.replicas})
    print(verdict.lines[0])
    return EXIT_INCONCLUSIVE if verdict.word == "INCONCLUSIVE" else EXIT_OK


def _constants_section(exp: ExperimentConfig) -> list[str]:
    mins, tc = _theory(exp, exp.build_objective())
    lines = [f"regime: {tc.regime}"]
    if mins.attained:
        lines.append(f"L* = L(x*): {mins.l_star!r}")
    else:
        lines.append("L* = 0 is the infimum; x* is not attained (separable data)")
    lines.append(f"c_beta rationale: {tc.c_beta_rationale}")
    pairs = [
        ("M (smoothness)", tc.M),
        ("B (gradient bound)", tc.B),
        ("m (dissipativity)", tc.m),
        ("c (dissipativity)", tc.c),
        ("rho (Lyapunov factor)", tc.rho),
        ("b (Lyapunov offset)", tc.b),
        ("k(1) (OU first moment)", tc.k1),
        ("Lambda*_eta (spectral gap)", tc.lambda_eta),
        ("Lambda*_0", tc.lambda_0),
        ("c_beta", tc.c_beta),
        ("gibbs concentration bound", tc.gibbs_bound),
        ("||x~||_HK", tc.x_tilde_hk_norm),
        ("kappa", tc.kappa),
        ("delta", tc.delta),
    ]
    for name, value in pairs:
        lines.append(f"  {name}: {value!r}" if value is not None else f"  {name}: n/a")

    # per-term tail bound decomposition at n = horizon
    n = exp.chain.horizon
    lines.append(f"tail bound decomposition at n = {n} (delta = {exp.tail_delta}):")
    markov, terms, total, why_nan = tail_bound_terms(tc, mins, exp.chain, n, exp.tail_delta)
    lines.append(f"  markov factor 5/delta: {markov!r}")
    lines.extend(f"  {label}: {value!r}" for label, value in terms.items())
    if terms:
        lines.append(f"  total (x markov factor): {total!r}")
    if why_nan:
        lines.append(f"  {why_nan}")
    return lines


def _read_outputs(outputs: list[Path]) -> tuple[list[str], list[tuple[str, str]]]:
    """The report's empirical lines and each CSV output's (name, line) rows.

    Every output is read here, so one it cannot read raises ValueError,
    naming the file, before the report writes anything."""
    lines, csv_rows = [], []
    for p in outputs:
        try:
            text = p.read_text()
            if p.name.endswith("_summary.json"):
                s = json.loads(text)
                if not isinstance(s, dict):
                    raise ValueError("a run summary must be a JSON object")
                lines.append(f"run summary {p.name}:")
                for key in sorted(s):
                    lines.append(f"  {key}: {s[key]!r}")
            elif p.suffix == ".txt":
                lines.append(f"verdicts {p.name}:")
                for line in text.splitlines():
                    lines.append(f"  {line}")
            elif p.suffix == ".csv":
                csv_rows.extend((p.name, row) for row in text.splitlines())
        except (OSError, ValueError) as exc:  # a JSONDecodeError or UnicodeDecodeError is a ValueError
            raise ValueError(f"{p}: {exc}") from None
    return lines or ["no run summaries or verdict files in manifest"], csv_rows


def cmd_report(args) -> int:
    try:
        manifest = Manifest.load(args.manifest)
    except (OSError, ValueError, KeyError) as exc:  # a JSONDecodeError is a ValueError
        print(f"cannot read manifest: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    # every output sits next to its manifest, wherever report runs from; the
    # file name also resolves a manifest that stored the path given to --out
    outputs = [Path(args.manifest).parent / Path(name).name for name in manifest.outputs]
    missing = [p for p in outputs if not p.is_file()]
    if missing:
        for p in missing:
            print(f"missing output: {p}", file=sys.stderr)
        return EXIT_CONFIG
    seed = manifest.seed_table.get("seed")
    exp = ExperimentConfig.loads(manifest.config_text, seed_override=seed, origin=args.manifest)
    tag = manifest.config_hash
    if exp.config_hash() != tag:
        reason = f"config_hash {tag!r} does not match its config"
        print(f"cannot read manifest: {args.manifest}: {reason}", file=sys.stderr)
        return EXIT_CONFIG
    try:
        empirical, csv_rows = _read_outputs(outputs)
    except ValueError as exc:
        print(f"cannot read output: {exc}", file=sys.stderr)
        return EXIT_CONFIG

    lines = [
        f"rkld report for config {tag}",
        f"tool: {manifest.tool_version}",
        f"command: {manifest.command}",
        f"seed: {seed!r}",
        "",
        "== theory constants ==",
        *_constants_section(exp),
        "",
        "== empirical estimates ==",
        *empirical,
    ]
    for key in sorted(manifest.notes):
        lines.append(f"note [{key}]: {manifest.notes[key]}")
    # bundle: every CSV in the manifest, re-emitted with provenance columns
    bundle = ((name, tag, seed, row) for name, row in csv_rows)
    # <tag><stem>_manifest.json reports to <tag><stem>_report.txt, so no report overwrites another
    stem = Path(args.manifest).stem.removesuffix("_manifest").removeprefix(tag) + "_report"
    files = {
        f"{stem}.txt": "\n".join(lines) + "\n",
        f"{stem}_bundle.csv": _csv_text(["source", "config_hash", "seed", "row"], bundle),
    }
    out = Path(args.out)
    _publish(exp, out, "report", stem, files)
    print(f"report written to {out / f'{tag}{stem}.txt'}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="rkld", description="Langevin dynamics in a spectral RKHS")
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="simulate one chain and write its trajectory")
    verify = sub.add_parser("verify", help="run the closed-form property suite")
    sweep = sub.add_parser("sweep", help="rate experiment along one axis")
    sweep.add_argument("--axis", choices=sorted(_SWEEPS), required=True)
    report = sub.add_parser("report", help="consolidate a manifest into text + CSV bundle")
    report.add_argument("--manifest", required=True, help="manifest JSON from a previous command")
    for p in (run, verify, sweep):
        p.add_argument("--config", help="experiment config file", required=True)
        p.add_argument("--seed", type=int, default=None, help="override the config seed")
    for p in (run, verify, sweep, report):
        p.add_argument("--out", default=".", help="output directory (default: .)")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    handlers = {"run": cmd_run, "verify": cmd_verify, "sweep": cmd_sweep, "report": cmd_report}
    try:
        return handlers[args.command](args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except ValueError as exc:  # numerical, e.g. numpy.linalg.LinAlgError
        print(f"numerical error: {exc}", file=sys.stderr)
        return EXIT_ABORT
    except NumericalAbort as exc:
        print(f"numerical abort at step {exc.step}", file=sys.stderr)
        return EXIT_ABORT
    except RuntimeError as exc:
        print(f"solver failure: {exc}", file=sys.stderr)
        return EXIT_ABORT


if __name__ == "__main__":
    sys.exit(main())
