"""Tests of the benchmark's own code: spans, failure counting, metric names, wrappers."""

import json
import re
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
if str(ROOT / "src") not in sys.path:
    sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from workloads import Finding  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


class FakeClock:
    """Each call returns the next of the given instants."""

    def __init__(self, *times):
        self.times = list(times)

    def __call__(self):
        return self.times.pop(0)


def test_self_time_from_nested_spans():
    # op [0, 10] > span A [1, 9] > call b [2, 6] > call c [3, 4]; a second b [7, 8]
    tracer = spans.Tracer(FakeClock(0, 1, 2, 3, 4, 6, 7, 8, 9, 10))
    leaf = lambda: None  # noqa: E731

    def b():
        return tracer.call(leaf, "c", "objective", (), {})

    with tracer.operation("r0/op"):
        frame = tracer.enter("A", "dynamics")
        tracer.call(b, "b", "objective", (), {})
        tracer.call(leaf, "b", "objective", (), {})
        tracer.exit(frame, {"steps": 3})

    by_name = {s["name"]: s for s in tracer.spans}
    assert by_name["op"]["self_s"] == pytest.approx(10 - 8)
    assert by_name["A"]["self_s"] == pytest.approx(8 - 4 - 1)
    assert by_name["A"]["parent"] == by_name["op"]["id"]
    assert by_name["A"]["op"] == "r0/op"
    calls = {(c["name"], c["via"]): c for c in tracer.records()["calls"]}
    assert calls[("b", "A")]["count"] == 2
    assert calls[("b", "A")]["total_s"] == pytest.approx(5)
    assert calls[("b", "A")]["self_s"] == pytest.approx(4)
    assert calls[("c", "b")]["parent"] == by_name["A"]["id"]

    records = tracer.records()
    metrics = spans.layer_metrics(records["spans"], records["calls"])
    assert metrics["dynamics.self_s"] == pytest.approx(3)
    assert metrics["objective.self_s"] == pytest.approx(5)
    # layer self times plus the benchmark's own time account for the operation
    layers = sum(metrics[f"{layer}.self_s"] for layer in (*spans.LAYERS, spans.BENCH_LAYER))
    assert layers == pytest.approx(10)


def test_span_closed_out_of_order_is_rejected():
    tracer = spans.Tracer(FakeClock(0, 1, 2, 3))
    outer = tracer.enter("outer", "cli")
    tracer.enter("inner", "config")
    with pytest.raises(RuntimeError):
        tracer.exit(outer)


def test_failure_counting():
    tally = run.Tally(workloads.FAILURE_KINDS, workloads.INCORRECT_KINDS)
    tally.add_round(
        ["a", "b", "c", "d"],
        [
            Finding("a", workloads.UNAVAILABLE, "minimizer fallback"),
            Finding("a", workloads.STATISTICAL, "counted once per operation"),
            Finding("b", workloads.INCONCLUSIVE, "a verdict, not a failure"),
        ],
    )
    assert (tally.attempted, tally.failed, tally.inconclusive, tally.correct) == (4, 1, 1, True)
    tally.add_round(["a", "b", "c", "d"], [Finding("c", workloads.EXCEPTION, "RuntimeError")])
    assert (tally.attempted, tally.failed, tally.correct) == (8, 2, False)


def _cli_round(tmp_path):
    pipeline = workloads.CliPipeline(7, tmp_path)
    outdir = tmp_path / "round0"
    outdir.mkdir()
    tag = pipeline.tags["logistic"]
    (outdir / f"{tag}_trajectory.csv").write_text("step\n0\n")
    (outdir / f"{tag}_summary.json").write_text("{}\n")
    (outdir / f"{tag}_manifest.json").write_text(json.dumps({"notes": {"minimizer": "unavailable (x)"}}))
    (outdir / f"{tag}_report.txt").write_text("theory constants unavailable: minimizer search failed\n")
    (outdir / f"{tag}_report_bundle.csv").write_text("source\n")
    return pipeline, outdir


def test_cli_fallback_counts_as_unavailable(tmp_path):
    pipeline, outdir = _cli_round(tmp_path)
    results = {"run_logistic": (0, "", ""), "report_logistic": (0, "", "")}
    findings, digests = pipeline.check(results, outdir)
    assert sorted((f.op, f.kind) for f in findings) == [
        ("report_logistic", workloads.UNAVAILABLE),
        ("run_logistic", workloads.UNAVAILABLE),
    ]
    assert set(digests) == {"run_logistic", "report_logistic"}


def test_cli_unexpected_exit_code_is_a_failure(tmp_path):
    pipeline, outdir = _cli_round(tmp_path)
    findings, _ = pipeline.check({"verify_squared": (1, "", "1 property failed\n")}, outdir)
    assert [(f.op, f.kind) for f in findings] == [("verify_squared", workloads.EXIT_CODE)]


def test_benchmark_json_names_match_the_code():
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert set(declared) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert [w["name"] for w in declared["workloads"]] == list(workloads.WORKLOADS)
    assert all(len(w["why"]) <= 200 and "\n" not in w["why"] for w in declared["workloads"])
    metrics = declared["end_to_end"] + declared["per_layer"]
    names = [m["name"] for m in metrics]
    assert len(names) == len(set(names))
    assert all(NAME.match(n) for n in names)
    assert all(UNIT.match(m["unit"]) and m["better"] in ("lower", "higher") for m in metrics)
    for m in declared["end_to_end"]:
        assert set(m) == {"name", "unit", "better", "bound"} and 0 < m["bound"] <= 0.25
    assert {"name": "setup_s", "unit": "s", "better": "lower"}.items() <= declared["end_to_end"][0].items()
    assert [m["name"] for m in declared["end_to_end"]] == list(run.END_TO_END)
    computed = set(spans.layer_metrics([], [])) | set(run.RUNNER_LAYER_METRICS)
    assert {m["name"] for m in declared["per_layer"]} == computed


def test_instrument_restores_every_wrapped_name():
    import rkld.cli
    import rkld.config
    import rkld.dynamics
    import rkld.verify

    def snapshot():
        return {
            "dynamics.run_chain": rkld.dynamics.run_chain,
            "cli.run_chain": rkld.cli.run_chain,
            "verify.run_chain": rkld.verify.run_chain,
            "cli.run_property_suite": rkld.cli.run_property_suite,
            "loads": vars(rkld.config.ExperimentConfig)["loads"],
            "grad_array": vars(rkld.objective.ObjectiveSpec)["grad_array"],
        }

    before = snapshot()
    tracer = spans.Tracer()
    with pytest.raises(KeyError):
        with spans.instrument(tracer) as missing:
            assert missing == []
            during = snapshot()
            assert all(during[k] is not before[k] for k in before)
            assert rkld.cli.run_chain is rkld.verify.run_chain is rkld.dynamics.run_chain
            text = "[chain]\neta = 0.1\nbeta = 1\nlambda = 1\nn_modes = 4\nseed = 1\nhorizon = 10\n"
            rkld.config.ExperimentConfig.loads(text)
            assert tracer.spans == []  # outside an operation nothing is recorded
            with tracer.operation("r0/parse"):
                rkld.config.ExperimentConfig.loads(text)
            assert [s["name"] for s in tracer.spans] == ["ExperimentConfig.loads", "op"]
            raise KeyError("leave the context by an exception")
    after = snapshot()
    assert all(after[k] is before[k] for k in before)
