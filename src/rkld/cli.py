"""Command-line entry point: run / verify / sweep / report.

Every output file is prefixed with the config hash and registered in a JSON
manifest written next to it; re-running with the same config and seed
reproduces every file byte-for-byte.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import os
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from .config import ConfigError, ExperimentConfig, Manifest, _atomic_write_text
from .diagnostics import (
    RateFit,
    galerkin_error_vs_n,
    gibbs_gap_vs_beta,
    sgld_discrepancy,
    tail_bound_terms,
    theory_constants,
    weak_error_vs_eta,
)
from .dynamics import NumericalAbort, RunSummary, run_chain
from .verify import run_property_suite

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_ABORT = 2  # numerical abort, solver failure or other numerical error
EXIT_INCONCLUSIVE = 3


def _out_dir(args) -> Path:
    out = args.out or os.environ.get("RKLD_OUT") or "."
    path = Path(out)
    path.mkdir(parents=True, exist_ok=True)
    return path


def _write_csv(path: Path, header: list[str], rows) -> None:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    for row in rows:
        writer.writerow([_fmt(v) for v in row])
    _atomic_write_text(path, buf.getvalue())


def _fmt(v):
    if isinstance(v, (float, np.floating)):
        return repr(float(v))
    if isinstance(v, (np.integer,)):
        return int(v)
    return v


def _load_experiment(args) -> ExperimentConfig:
    if not args.config:
        raise ConfigError("--config PATH is required")
    return ExperimentConfig.load(args.config, seed_override=args.seed)


def _new_manifest(exp: ExperimentConfig, command: str) -> Manifest:
    return Manifest(
        config_hash=exp.config_hash(),
        command=command,
        seed_table={"seed": exp.chain.seed},
        config_text=exp.source_text,
    )


def _trajectory_rows(summary: RunSummary):
    for i, step in enumerate(summary.steps):
        yield (
            int(step),
            float(summary.norm[i]),
            float(summary.risk[i]),
            float(summary.reg_objective[i]),
            float(summary.phi[i]),
            float(summary.cesaro_phi[i]),
        )


TRAJECTORY_HEADER = ["step", "norm", "risk", "reg_objective", "phi", "cesaro_phi"]


def cmd_run(args) -> int:
    exp = _load_experiment(args)
    out = _out_dir(args)
    tag = exp.config_hash()
    manifest = _new_manifest(exp, "run")
    obj = exp.build_objective()
    try:
        mins = obj.find_minimizers(exp.chain.lam)
        l_star, l_tilde, attained = mins.l_star, mins.l_tilde, mins.attained
    except RuntimeError as exc:
        l_star, l_tilde, attained = 0.0, math.nan, None
        manifest.notes["minimizer"] = f"unavailable ({exc}); phi uses l_star = 0"

    aborted = None
    try:
        summary = run_chain(exp.chain, obj, mode=exp.mode, l_star=l_star)
    except NumericalAbort as exc:
        aborted = exc
        summary = exc.partial[0] if exc.partial else None
        manifest.notes["abort"] = f"numerical abort at step {exc.step}"

    if summary is not None:
        traj_path = out / f"{tag}_trajectory.csv"
        _write_csv(traj_path, TRAJECTORY_HEADER, _trajectory_rows(summary))
        manifest.add_output(traj_path)
        summary_path = out / f"{tag}_summary.json"
        _atomic_write_text(
            summary_path,
            json.dumps(
                {
                    "config_hash": tag,
                    "mode": summary.mode,
                    "seed": exp.chain.seed,
                    "chain_id": summary.chain_id,
                    "burn_in": summary.burn_in,
                    "retained_steps": summary.retained_steps,
                    "l_star": l_star,
                    "l_star_attained": attained,
                    "l_tilde": l_tilde,
                    "final_cesaro_phi": summary.final_cesaro_phi,
                    "final_cesaro_risk": summary.final_cesaro_risk,
                },
                indent=2,
                sort_keys=True,
            )
            + "\n",
        )
        manifest.add_output(summary_path)
    manifest_path = out / f"{tag}_manifest.json"
    manifest.save(manifest_path)
    if aborted is not None:
        print(f"numerical abort at step {aborted.step}; partial outputs in {out}", file=sys.stderr)
        return EXIT_ABORT
    print(f"run complete: {summary.retained_steps} retained steps, manifest {manifest_path}")
    return EXIT_OK


def cmd_verify(args) -> int:
    exp = _load_experiment(args)
    out = _out_dir(args)
    tag = exp.config_hash()
    results = run_property_suite(exp)
    lines = [f"{'PASS' if r.passed else 'FAIL'} {r.name}: {r.detail}" for r in results]
    for line in lines:
        print(line)
    report_path = out / f"{tag}_verify.txt"
    _atomic_write_text(report_path, "\n".join(lines) + "\n")
    manifest = _new_manifest(exp, "verify")
    manifest.add_output(report_path)
    manifest.save(out / f"{tag}_manifest.json")
    failed = sum(not r.passed for r in results)
    print(f"{len(results) - failed}/{len(results)} properties passed")
    return EXIT_OK if failed == 0 else EXIT_CONFIG


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise ConfigError(message)


def _fit_verdict(fit: RateFit, label: str, expected: tuple[float, float]) -> tuple[str, bool]:
    if fit.inconclusive:
        return f"INCONCLUSIVE {label}: {fit.reason}", False
    lo, hi = fit.slope_ci
    ok = lo <= expected[1] and hi >= expected[0]
    word = "PASS" if ok else "FAIL"
    return (
        f"{word} {label}: slope {fit.slope:.4f} (CI [{lo:.4f}, {hi:.4f}]), "
        f"expected within [{expected[0]}, {expected[1]}]"
    ), True


def _sweep_eta(exp: ExperimentConfig):
    _require(exp.eta_grid is not None and len(exp.eta_grid) >= 4, "eta sweep needs eta_grid with >= 4 points")
    _require(exp.eta_ref is not None, "eta sweep needs eta_ref")
    _require(exp.eta_ref <= min(exp.eta_grid) / 8.0, "eta sweep needs eta_ref <= min(eta_grid)/8")
    obj = exp.build_objective()
    _, l_center = obj.regularized_minimizer(exp.chain.lam)
    fit = weak_error_vs_eta(
        obj, exp.chain, exp.eta_grid, exp.eta_ref, l_center, replicas=exp.replicas
    )
    rows = [
        (eta, float(fit.ordinates[i]), float(fit.ordinate_errors[i]))
        for i, eta in enumerate(fit.abscissae)
    ]
    verdict, conclusive = _fit_verdict(fit, "weak error vs eta", (0.4, 1.3))
    return ["eta", "error", "se"], rows, fit, verdict, conclusive


def _sweep_n_modes(exp: ExperimentConfig):
    _require(exp.n_grid is not None and len(exp.n_grid) >= 4, "n_modes sweep needs n_grid with >= 4 points")
    _require(exp.n_ref is not None, "n_modes sweep needs n_ref")
    _require(exp.n_ref >= 4 * max(exp.n_grid), "n_modes sweep needs n_ref >= 4 * max(n_grid)")
    fit = galerkin_error_vs_n(
        exp.build_objective, exp.chain, exp.n_grid, exp.n_ref, replicas=exp.replicas
    )
    rows = [
        (n, float(fit.abscissae[i]), float(fit.ordinates[i]), float(fit.ordinate_errors[i]))
        for i, n in enumerate(sorted(exp.n_grid))
    ]
    verdict, conclusive = _fit_verdict(fit, "galerkin error vs sqrt(mu_{N+1})", (0.5, 1.5))
    return ["n_modes", "sqrt_mu_next", "error", "se"], rows, fit, verdict, conclusive


def _sweep_beta(exp: ExperimentConfig):
    _require(exp.beta_grid is not None and len(exp.beta_grid) >= 2, "beta sweep needs beta_grid with >= 2 points")
    cfg = exp.chain
    _require(min(exp.beta_grid) >= cfg.eta, "beta sweep needs every beta_grid entry >= eta")
    _require(
        cfg.eta <= 0.01 and cfg.n_modes >= 65 and cfg.horizon - cfg.burn_in_steps >= 2,
        "beta sweep needs eta <= 0.01, n_modes >= 65 and 2 retained steps",
    )
    obj = exp.build_objective()
    minimizer = obj.regularized_minimizer(cfg.lam)
    betas = sorted(exp.beta_grid)
    results = gibbs_gap_vs_beta(cfg, obj, betas, replicas=exp.replicas, minimizer=minimizer)
    rows = [
        (beta, r["gap"], r["se"], r["bound"], int(r["passes_bound"]), int(r["inconclusive"]))
        for beta, r in zip(betas, results)
    ]
    conclusive = exp.replicas >= 2 and not any(r["inconclusive"] for r in results)
    gaps = [r["gap"] for r in results]
    ses = [r["se"] for r in results]
    monotone = all(
        gaps[i + 1] <= gaps[i] + 3.0 * math.hypot(ses[i], ses[i + 1]) for i in range(len(gaps) - 1)
    )
    bounded = all(r["passes_bound"] for r in results)
    if exp.replicas < 2:
        verdict = "INCONCLUSIVE gibbs gap vs beta: need >= 2 replicas for error bars"
    elif not conclusive:
        verdict = "INCONCLUSIVE gibbs gap vs beta: stationarity check failed at some beta"
    else:
        word = "PASS" if monotone and bounded else "FAIL"
        verdict = (
            f"{word} gibbs gap vs beta: monotone nonincreasing within 3 sigma = {monotone}, "
            f"all gaps within {results[0]['slack']}x closed-form bound = {bounded}"
        )
    return ["beta", "gap", "se", "bound", "passes_bound", "inconclusive"], rows, None, verdict, conclusive


def _sweep_minibatch(exp: ExperimentConfig):
    _require(exp.m_grid is not None and len(exp.m_grid) >= 2, "minibatch sweep needs m_grid with >= 2 points")
    obj = exp.build_objective()
    n_tr = obj.dataset.size
    _require(n_tr >= 2, "minibatch sweep needs at least 2 data points")
    _require(all(1 <= m <= n_tr for m in exp.m_grid), f"m_grid entries must be in 1..{n_tr}")
    _, l_center = obj.regularized_minimizer(exp.chain.lam)
    ms = sorted(exp.m_grid)
    results = [
        sgld_discrepancy(replace(exp.chain, minibatch=m), obj, l_center, replicas=exp.replicas)
        for m in ms
    ]
    rows = [
        (m, r["discrepancy"], r["se"], r["r_n"], r["bound_shape"], r["c_fit"])
        for m, r in zip(ms, results)
    ]
    conclusive = exp.replicas >= 2
    checks = []
    if ms[-1] == n_tr:
        checks.append(("full-batch discrepancy exactly 0", results[-1]["discrepancy"] == 0.0))
    budgets = [r["bound_shape"] for r in results]
    checks.append(("closed-form budget nonincreasing in m", all(np.diff(budgets) <= 1e-15)))
    discs = [r["discrepancy"] for r in results]
    ses = [r["se"] for r in results]
    checks.append(
        (
            "discrepancy nonincreasing within 3 sigma",
            all(discs[i + 1] <= discs[i] + 3.0 * math.hypot(ses[i], ses[i + 1]) for i in range(len(discs) - 1)),
        )
    )
    if not conclusive:
        verdict = "INCONCLUSIVE sgld discrepancy vs m: need >= 2 replicas for error bars"
    else:
        ok = all(passed for _, passed in checks)
        detail = "; ".join(f"{name} = {passed}" for name, passed in checks)
        verdict = f"{'PASS' if ok else 'FAIL'} sgld discrepancy vs m: {detail}"
    return ["m", "discrepancy", "se", "r_n", "bound_shape", "c_fit"], rows, None, verdict, conclusive


_SWEEPS = {
    "eta": _sweep_eta,
    "n_modes": _sweep_n_modes,
    "beta": _sweep_beta,
    "minibatch": _sweep_minibatch,
}


def cmd_sweep(args) -> int:
    exp = _load_experiment(args)
    out = _out_dir(args)
    tag = exp.config_hash()
    header, rows, fit, verdict, conclusive = _SWEEPS[args.axis](exp)
    csv_path = out / f"{tag}_sweep_{args.axis}.csv"
    _write_csv(csv_path, header, rows)
    verdict_lines = [verdict]
    if fit is not None and not fit.inconclusive:
        verdict_lines.append(
            f"fit: slope {float(fit.slope)!r}, slope_se {float(fit.slope_se)!r}, "
            f"intercept {float(fit.intercept)!r}"
        )
    verdict_path = out / f"{tag}_sweep_{args.axis}_verdict.txt"
    _atomic_write_text(verdict_path, "\n".join(verdict_lines) + "\n")
    manifest = _new_manifest(exp, f"sweep --axis {args.axis}")
    manifest.notes["replicas"] = exp.replicas
    manifest.add_output(csv_path)
    manifest.add_output(verdict_path)
    manifest.save(out / f"{tag}_manifest.json")
    print(verdict)
    return EXIT_OK if conclusive else EXIT_INCONCLUSIVE


def _constants_section(exp: ExperimentConfig) -> list[str]:
    obj = exp.build_objective()
    lines = []
    try:
        mins = obj.find_minimizers(exp.chain.lam)
    except RuntimeError as exc:
        return [f"theory constants unavailable: minimizer search failed ({exc})"]
    try:
        tc = theory_constants(obj, exp.chain, mins, delta=exp.delta, kappa=exp.kappa)
    except ValueError as exc:  # no dissipativity regime, or delta outside (0, 1)
        raise ConfigError(str(exc)) from None
    lines.append(f"regime: {tc.regime}")
    if mins.attained:
        lines.append(f"L* = L(x*): {mins.l_star!r}")
    else:
        lines.append("L* = 0 is the infimum; x* is not attained (separable data)")
    if tc.regime == "strict":
        lines.append("c_beta rationale: strict dissipativity (lambda > M mu0), geometric regime, c_beta = 1")
    else:
        lines.append(
            "c_beta rationale: bounded-gradient regime (lambda <= M mu0), c_beta = sqrt(beta)"
        )
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
    cfg = exp.chain
    n = cfg.horizon
    lines.append(f"tail bound decomposition at n = {n} (delta = {exp.tail_delta}):")
    markov = 5.0 / exp.tail_delta
    lines.append(f"  markov factor 5/delta: {markov!r}")
    terms = tail_bound_terms(tc, mins, cfg.eta, n)
    if terms is not None:
        lines.extend(f"  {label}: {value!r}" for label, value in terms.items())
        lines.append(f"  total (x markov factor): {markov * sum(terms.values())!r}")
    else:
        lines.append("  spectral gap needs [experiment] delta in the bounded regime; terms n/a")
    return lines


def _empirical_section(manifest: Manifest) -> list[str]:
    lines = []
    for path in manifest.outputs:
        p = Path(path)
        if p.name.endswith("_summary.json"):
            with open(p) as fh:
                s = json.load(fh)
            lines.append(f"run summary {p.name}:")
            for key in sorted(s):
                lines.append(f"  {key}: {s[key]!r}")
        elif p.suffix == ".txt":
            lines.append(f"verdicts {p.name}:")
            for line in p.read_text().splitlines():
                lines.append(f"  {line}")
    return lines or ["no run summaries or verdict files in manifest"]


def cmd_report(args) -> int:
    if not args.manifest:
        print("report requires --manifest PATH", file=sys.stderr)
        return EXIT_CONFIG
    try:
        manifest = Manifest.load(args.manifest)
    except (OSError, json.JSONDecodeError, KeyError) as exc:
        print(f"cannot read manifest: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    missing = [p for p in manifest.outputs if not Path(p).is_file()]
    if missing:
        for p in missing:
            print(f"missing output: {p}", file=sys.stderr)
        return EXIT_CONFIG
    exp = ExperimentConfig.loads(
        manifest.config_text, seed_override=manifest.seed_table.get("seed")
    )
    out = _out_dir(args)
    tag = manifest.config_hash

    lines = [
        f"rkld report for config {tag}",
        f"tool: {manifest.tool_version}",
        f"command: {manifest.command}",
        f"seed: {manifest.seed_table.get('seed')!r}",
        "",
        "== theory constants ==",
        *_constants_section(exp),
        "",
        "== empirical estimates ==",
        *_empirical_section(manifest),
    ]
    for key in sorted(manifest.notes):
        lines.append(f"note [{key}]: {manifest.notes[key]}")
    report_path = out / f"{tag}_report.txt"
    _atomic_write_text(report_path, "\n".join(lines) + "\n")

    # bundle: every CSV in the manifest, re-emitted with provenance columns
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["source", "config_hash", "seed", "row"])
    for path in manifest.outputs:
        p = Path(path)
        if p.suffix == ".csv":
            for row in p.read_text().splitlines():
                writer.writerow([p.name, tag, manifest.seed_table.get("seed"), row])
    bundle_path = out / f"{tag}_report_bundle.csv"
    _atomic_write_text(bundle_path, buf.getvalue())

    report_manifest = Manifest(
        config_hash=tag,
        command="report",
        seed_table=dict(manifest.seed_table),
        config_text=manifest.config_text,
    )
    report_manifest.add_output(report_path)
    report_manifest.add_output(bundle_path)
    report_manifest.save(out / f"{tag}_report_manifest.json")
    print(f"report written to {report_path}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="rkld", description="Langevin dynamics in a spectral RKHS")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, config_required=True):
        p.add_argument("--config", help="experiment config file", required=config_required)
        p.add_argument("--seed", type=int, default=None, help="override the config seed")
        p.add_argument("--out", default=None, help="output directory (default: $RKLD_OUT or .)")

    common(sub.add_parser("run", help="simulate one chain and write its trajectory"))
    common(sub.add_parser("verify", help="run the closed-form property suite"))
    sweep = sub.add_parser("sweep", help="rate experiment along one axis")
    sweep.add_argument("--axis", choices=sorted(_SWEEPS), required=True)
    common(sweep)
    report = sub.add_parser("report", help="consolidate a manifest into text + CSV bundle")
    report.add_argument("--manifest", required=True, help="manifest JSON from a previous command")
    common(report, config_required=False)
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
