"""rkld benchmark: one workload per process, timed end to end or traced per layer.

    python3 perfbench/run.py --workload galerkin_sweep --seed 7 --seconds 15 --trace 0
    python3 perfbench/run.py --workload all --seed 7 --seconds 15 --trace 0

Run from anywhere inside a checkout; the package is imported from the
checkout's own `src/`. A run sets up the workload (import, datasets,
objectives, configs, BLAS warm-up), then repeats rounds of the workload's
operations back to back, one caller, until `--seconds` have passed; at least
one round always completes. `--trace 0` reports the end-to-end metrics of
BENCHMARK.json, `--trace 1` the per-layer ones from wrapped rkld calls,
alternating untraced and traced rounds. The last line of standard output is
one JSON object with the keys correct, attempted, failed and metrics.
`--workload all` runs every workload in its own child process and prints one
table row each. Outputs go to `.bench_out/` in the checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
import traceback
from contextlib import contextmanager
from pathlib import Path

import spans

ROOT = Path(__file__).resolve().parent.parent
OUT_ROOT = ROOT / ".bench_out"
SETUP_REPEATS = 5  # set-ups per untraced run: this process plus four children
# One BLAS thread (at most nproc), and no huge-page advice from numpy for
# arrays of 4 MiB and more, so their page backing does not depend on how many
# huge pages the host has free.
PINNED_ENV = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "NUMPY_MADVISE_HUGEPAGE": "0",
}
END_TO_END = ("setup_s", "verdict_s", "peak_rss_mb")
# per-layer metrics the runner measures itself, next to spans.layer_metrics
RUNNER_LAYER_METRICS = (
    "cli.output_files", "cli.output_bytes", "trace.round_s", "trace.unaccounted_s", "trace.overhead_s"
)
# The hosts this runs on switch between a fast and a ~1.4x slower state for
# seconds at a time (shared physical cores), which moves raw wall times by up
# to 25% between 15-second windows. So every timed interval runs under
# `host_speed`: a timer signal every SAMPLE_INTERVAL_S times a fixed
# pure-Python loop (`probe_s`), and each stretch of work between two loops is
# scaled by PROBE_REFERENCE_S over the loop's time. setup_s, verdict_s and
# trace.overhead_s thus read as seconds on a host where the loop takes
# PROBE_REFERENCE_S.
PROBE_ITERATIONS = 3_000
PROBE_REFERENCE_S = 0.0003
SAMPLE_INTERVAL_S = 0.05


class Tally:
    """Operations attempted and failed, from the findings of each round."""

    def __init__(self, failure_kinds, incorrect_kinds):
        self.failure_kinds = failure_kinds
        self.incorrect_kinds = incorrect_kinds
        self.attempted = 0
        self.failed = 0
        self.inconclusive = 0
        self.correct = True
        self.details: list[str] = []

    def add_round(self, ops, findings) -> None:
        self.attempted += len(ops)
        failed = {f.op for f in findings if f.kind in self.failure_kinds}
        self.failed += len(failed & set(ops))
        self.inconclusive += len({f.op for f in findings if f.kind not in self.failure_kinds})
        if any(f.kind in self.incorrect_kinds for f in findings):
            self.correct = False
        for f in findings:
            line = f"{f.kind}: {f.op}: {f.detail}"
            if line not in self.details:
                self.details.append(line)


def _pin_environment() -> None:
    """Set before numpy is imported; set-up children inherit it."""
    os.environ.update(PINNED_ENV)


def _git_sha() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def provenance(seed: int) -> dict:
    import numpy
    import scipy

    src_lines = sum(len(p.read_text().splitlines()) for p in sorted((ROOT / "src").rglob("*.py")))
    return {
        "seed": seed,
        "git_sha": _git_sha(),
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "pinned_env": {key: os.environ.get(key) for key in PINNED_ENV},
        "src_lines": src_lines,
    }


def _declared() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def _result_line(tally: Tally, values: dict, declared: list[dict]) -> str:
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared}
    return json.dumps(
        {"correct": tally.correct, "attempted": tally.attempted, "failed": tally.failed, "metrics": metrics}
    )


def probe_s() -> float:
    """Seconds for a fixed pure-Python loop: the host's current speed."""
    start = time.perf_counter()
    acc = 0
    for i in range(PROBE_ITERATIONS):
        acc += (i * i) % 7
    return time.perf_counter() - start


class Interval:
    """One timed interval and the probe loops timed inside it.

    `scaled_s` scales each stretch of work between two probes by the probe
    that ends it (the last stretch by the last probe), so a change of host
    state inside the interval is followed within SAMPLE_INTERVAL_S.
    """

    def __init__(self):
        self.start = self.end = 0.0
        self.probes: list[tuple[float, float]] = []  # (start, seconds)

    @property
    def wall_s(self) -> float:
        return self.end - self.start

    @property
    def raw_s(self) -> float:
        return self.wall_s - sum(p for _, p in self.probes)

    @property
    def scaled_s(self) -> float:
        total, resume = 0.0, self.start
        for at, seconds in self.probes:
            total += (at - resume) * PROBE_REFERENCE_S / seconds
            resume = at + seconds
        last = self.probes[-1][1]
        return total + max(self.end - resume, 0.0) * PROBE_REFERENCE_S / last


@contextmanager
def host_speed():
    """Time the enclosed code while a timer signal samples the host's speed."""
    interval = Interval()

    def sample(signum, frame):
        interval.probes.append((time.perf_counter(), probe_s()))

    previous = signal.signal(signal.SIGALRM, sample)
    interval.start = time.perf_counter()
    signal.setitimer(signal.ITIMER_REAL, SAMPLE_INTERVAL_S, SAMPLE_INTERVAL_S)
    try:
        yield interval
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        interval.end = time.perf_counter()
        signal.signal(signal.SIGALRM, previous)
    if not interval.probes:
        interval.probes.append((interval.end, probe_s()))


def _tree_size(path: Path) -> tuple[int, int]:
    files = [p for p in path.rglob("*") if p.is_file()]
    return len(files), sum(p.stat().st_size for p in files)


def run_round(workload, outdir: Path, round_id: int, tracer=None):
    """Run one round's operations back to back, each timed under `host_speed`.

    Returns (the operations' Intervals by label, results by label, findings);
    an exception escaping an operation becomes a finding and the round goes on.
    """
    from workloads import EXCEPTION, Finding

    outdir.mkdir(parents=True)
    intervals, results, findings = {}, {}, []
    for label, fn in workload.operations(outdir):
        with host_speed() as intervals[label]:
            try:
                if tracer is None:
                    results[label] = fn()
                else:
                    with tracer.operation(f"{round_id}/{label}"):
                        results[label] = fn()
            except Exception as exc:
                last = traceback.format_exc().strip().splitlines()[-1]
                findings.append(Finding(label, EXCEPTION, f"{type(exc).__name__}: {last}"))
    return intervals, results, findings


def _setup_children(args) -> list[float]:
    values = []
    for _ in range(SETUP_REPEATS - 1):
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
             "--seed", str(args.seed), "--seconds", "0", "--trace", "0", "--setup-only"],
            capture_output=True, text=True, timeout=60, cwd=ROOT,
        )
        if proc.returncode != 0:
            raise RuntimeError(f"set-up child failed: {proc.stderr.strip()[-500:]}")
        values.append(json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"])
    return values


def run_workload(args) -> int:
    if not (ROOT / "src" / "rkld" / "__init__.py").is_file():
        print(f"rkld sources not found under {ROOT / 'src'}", file=sys.stderr)
        return 2
    _pin_environment()
    sys.path.insert(0, str(ROOT / "src"))
    workdir = OUT_ROOT / f"{args.workload}-seed{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        return _measure(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def _measure(args, workdir: Path) -> int:
    tracer = spans.Tracer() if args.trace else None

    with host_speed() as setup:
        import rkld
        import workloads

        if Path(rkld.__file__).resolve().parent != (ROOT / "src" / "rkld").resolve():
            print(f"imported rkld from {rkld.__file__}, not from this checkout", file=sys.stderr)
            return 2
        if tracer is None:
            workload = workloads.build(args.workload, args.seed, workdir)
        else:
            with spans.instrument(tracer) as missing, tracer.operation("setup", name="setup"):
                workload = workloads.build(args.workload, args.seed, workdir)
            setup_records = tracer.records()
            tracer.reset()
    setup_s = setup.scaled_s
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0
    setup_samples = [setup_s] if tracer is not None else [setup_s, *_setup_children(args)]

    tally = Tally(workloads.FAILURE_KINDS, workloads.INCORRECT_KINDS)
    first_digests: dict[str, str] = {}
    untraced, traced, raw_rounds, layer_rounds = [], [], [], []
    start = time.perf_counter()
    round_id = 0
    while True:
        outdir = workdir / f"round{round_id}"
        trace_this = tracer is not None and round_id % 2 == 1
        if trace_this:
            with spans.instrument(tracer):
                intervals, results, findings = run_round(workload, outdir, round_id, tracer)
            records = tracer.records()
            tracer.reset()
        else:
            intervals, results, findings = run_round(workload, outdir, round_id)
        scaled = sum(i.scaled_s for i in intervals.values())
        checked, digests = workload.check(results, outdir)
        findings.extend(checked)
        for op, value in digests.items():
            if first_digests.setdefault(op, value) != value:
                findings.append(workloads.Finding(op, workloads.WRONG, "output digest differs from round 0"))
        tally.add_round(list(intervals), findings)
        raw_rounds.append(sum(i.raw_s for i in intervals.values()))
        if trace_this:
            traced.append(scaled)
            metrics = spans.layer_metrics(
                setup_records["spans"] + records["spans"], setup_records["calls"] + records["calls"]
            )
            files, size = _tree_size(outdir)
            wall = sum(i.wall_s for i in intervals.values())
            accounted = sum(r["self_s"] for r in (*records["spans"], *records["calls"]))
            metrics.update(
                {
                    "cli.output_files": files,
                    "cli.output_bytes": size,
                    "trace.round_s": wall,
                    "trace.unaccounted_s": wall - accounted,
                }
            )
            layer_rounds.append({"round": round_id, "metrics": metrics, **records})
        else:
            untraced.append(scaled)
        shutil.rmtree(outdir)
        round_id += 1
        enough = round_id >= 2 if tracer is not None else round_id >= 1
        if enough and time.perf_counter() - start >= args.seconds:
            break

    declared = _declared()
    info = provenance(args.seed)
    print(json.dumps({"provenance": info}))
    print(
        f"{args.workload}: {round_id} rounds, {tally.attempted} operations, {tally.failed} failed "
        f"(failed_op_ratio {tally.failed / tally.attempted:.4f}), {tally.inconclusive} inconclusive, "
        f"digests {json.dumps(first_digests, sort_keys=True)}"
    )
    print(f"  raw round seconds {[round(v, 4) for v in raw_rounds]}")
    print(f"  scaled round seconds: untraced {[round(v, 4) for v in untraced]}")
    print(f"  scaled round seconds: traced {[round(v, 4) for v in traced]}")
    print(f"  setup_s samples {[round(v, 4) for v in setup_samples]}")
    for line in tally.details:
        print(f"  {line}")

    if tracer is None:
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        medians = (statistics.median(setup_samples), statistics.median(untraced), peak_rss_mb)
        values = dict(zip(END_TO_END, medians))
        print(_result_line(tally, values, declared["end_to_end"]))
        return 0

    names = [m["name"] for m in declared["per_layer"]]
    values = {
        name: statistics.median(r["metrics"][name] for r in layer_rounds)
        for name in names
        if name in layer_rounds[0]["metrics"]
    }
    values["trace.overhead_s"] = statistics.median(traced) - statistics.median(untraced)
    trace_path = OUT_ROOT / f"trace-{args.workload}-seed{args.seed}.json"
    trace_path.write_text(
        json.dumps(
            {"provenance": info, "missing_targets": missing, "setup": setup_records,
             "rounds": layer_rounds, "untraced_round_s": untraced, "metrics": values},
            indent=1,
        )
        + "\n"
    )
    print(f"spans written to {trace_path.relative_to(ROOT)}")
    print(_result_line(tally, values, declared["per_layer"]))
    return 0


def run_all(args) -> int:
    """Every workload in its own child process, so peak memory does not carry over."""
    rows, merged = [], {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in [w["name"] for w in _declared()["workloads"]]:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            capture_output=True, text=True, timeout=900, cwd=ROOT,
        )
        if proc.returncode != 0:
            print(proc.stdout + proc.stderr, file=sys.stderr)
            return proc.returncode or 1
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        merged["correct"] = merged["correct"] and result["correct"]
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            merged["metrics"][f"{name}.{metric}"] = value
        rows.append((name, result))
    metric_names = list(rows[0][1]["metrics"])
    print("workload        " + "".join(f"{m:>16}" for m in metric_names) + f"{'failed_op_ratio':>22}")
    for name, result in rows:
        cells = "".join(f"{result['metrics'][m]['value']:>16.4f}" for m in metric_names)
        ratio = f"{result['failed'] / result['attempted']:.4f} ({result['failed']}/{result['attempted']})"
        print(f"{name:<16}{cells}{ratio:>22}")
    print(json.dumps(merged))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, help="a workload name from BENCHMARK.json, or 'all'")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True, help="measure this long after set-up")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if not (ROOT / "BENCHMARK.json").is_file():
        print("BENCHMARK.json not found", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    if args.workload not in [w["name"] for w in _declared()["workloads"]]:
        parser.error(f"unknown workload {args.workload!r}")
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
