"""In-memory spans around the benchmark's calls into the rkld package.

`instrument` swaps each traced rkld function for a timing wrapper in every
rkld module and class that holds it, by-name imports included, and puts the
originals back on exit, so untraced rounds measure unwrapped code.

Two kinds of boundary are recorded:

* spans (`SPAN`) keep one record each: id, name, layer, start, end, parent
  span, operation id, self time, counters and the exception type, if any;
* hot calls (`CALL`), such as one gradient per chain step, are aggregated per
  (name, layer, enclosing span, immediate caller) into a count, a total time
  and a self time, so a 500k-iteration minimizer search does not keep 500k
  records in memory.

Self time is a frame's duration minus the time of the frames nested directly
inside it. This file imports nothing from numpy or rkld.
"""

from __future__ import annotations

import functools
import itertools
import sys
import time
from contextlib import contextmanager

SPAN = "span"
CALL = "call"

LAYERS = ("spectral", "objective", "dynamics", "diagnostics", "config", "verify", "cli")
BENCH_LAYER = "bench"

MINIMIZERS = frozenset({"ObjectiveSpec.find_minimizers", "ObjectiveSpec.regularized_minimizer"})
ARRAY_METHODS = frozenset(
    {"ObjectiveSpec.grad_array", "ObjectiveSpec.risk_array", "ObjectiveSpec.stochastic_grad_array"}
)
LOSS_METHODS = frozenset({"LossFamily.value", "LossFamily.d1"})


def _ensemble_counters(args, kwargs, result):
    cfg = args[0] if args else kwargs["cfg"]
    return {"steps": cfg.horizon, "chain_steps": cfg.horizon * len(result)}


def _property_counters(args, kwargs, result):
    return {
        "properties_attempted": len(result),
        "properties_passed": sum(bool(r.passed) for r in result),
    }


# (module, attribute path, layer, kind, counter hook)
TARGETS = (
    ("rkld.spectral", "KernelSpec.feature_matrix", "spectral", CALL, None),
    ("rkld.spectral", "KernelSpec.eigenvalues", "spectral", CALL, None),
    ("rkld.spectral", "resolvent_scales", "spectral", CALL, None),
    ("rkld.spectral", "rkhs_norm", "spectral", CALL, None),
    ("rkld.objective", "ObjectiveSpec.grad_array", "objective", CALL, None),
    ("rkld.objective", "ObjectiveSpec.risk_array", "objective", CALL, None),
    ("rkld.objective", "ObjectiveSpec.stochastic_grad_array", "objective", CALL, None),
    ("rkld.objective", "LossFamily.value", "objective", CALL, None),
    ("rkld.objective", "LossFamily.d1", "objective", CALL, None),
    ("rkld.objective", "ObjectiveSpec.find_minimizers", "objective", SPAN, None),
    ("rkld.objective", "ObjectiveSpec.regularized_minimizer", "objective", SPAN, None),
    ("rkld.dynamics", "make_rng", "dynamics", CALL, None),
    ("rkld.dynamics", "run_ensemble", "dynamics", SPAN, _ensemble_counters),
    ("rkld.dynamics", "run_chain", "dynamics", SPAN, None),
    ("rkld.diagnostics", "galerkin_error_vs_n", "diagnostics", SPAN, None),
    ("rkld.diagnostics", "sgld_discrepancy", "diagnostics", SPAN, None),
    ("rkld.diagnostics", "gibbs_gap_empirical", "diagnostics", SPAN, None),
    ("rkld.diagnostics", "theory_constants", "diagnostics", SPAN, None),
    ("rkld.diagnostics", "_CesaroTracker.__call__", "diagnostics", CALL, None),
    ("rkld.config", "ExperimentConfig.load", "config", SPAN, None),
    ("rkld.config", "ExperimentConfig.loads", "config", SPAN, None),
    ("rkld.config", "ExperimentConfig.build_objective", "config", CALL, None),
    ("rkld.config", "Manifest.save", "config", SPAN, None),
    ("rkld.config", "Manifest.load", "config", SPAN, None),
    ("rkld.verify", "run_property_suite", "verify", SPAN, _property_counters),
    ("rkld.cli", "main", "cli", SPAN, None),
)


class Tracer:
    """Stack of open frames plus the finished spans and hot-call aggregates.

    A frame is a list [child time, name, span id its children report to,
    layer, start, enclosing span id]; hot-call frames keep the first three.
    """

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self._ids = itertools.count()
        self._stack: list[list] = []
        self.op = None
        self.reset()

    def reset(self) -> None:
        """Drop finished records; open frames are kept."""
        self.spans: list[dict] = []
        self.calls: dict[tuple, list] = {}

    def enter(self, name: str, layer: str) -> list:
        enclosing = self._stack[-1][2] if self._stack else None
        frame = [0.0, name, next(self._ids), layer, self.clock(), enclosing]
        self._stack.append(frame)
        return frame

    def exit(self, frame: list, counters: dict | None = None, error: str | None = None) -> None:
        end = self.clock()
        if not self._stack or self._stack[-1] is not frame:
            raise RuntimeError(f"span {frame[1]!r} closed out of order")
        self._stack.pop()
        child, name, span_id, layer, start, enclosing = frame
        if self._stack:
            self._stack[-1][0] += end - start
        self.spans.append(
            {
                "id": span_id,
                "name": name,
                "layer": layer,
                "start": start,
                "end": end,
                "parent": enclosing,
                "op": self.op,
                "self_s": end - start - child,
                "counters": counters or {},
                "error": error,
            }
        )

    def call(self, fn, name: str, layer: str, args, kwargs):
        """Run a hot call and add it to the (name, layer, span, caller) aggregate."""
        stack = self._stack
        parent = stack[-1]
        frame = [0.0, name, parent[2]]
        stack.append(frame)
        start = self.clock()
        try:
            return fn(*args, **kwargs)
        finally:
            duration = self.clock() - start
            stack.pop()
            parent[0] += duration
            key = (name, layer, parent[2], parent[1])
            agg = self.calls.get(key)
            if agg is None:
                agg = self.calls[key] = [0, 0.0, 0.0]
            agg[0] += 1
            agg[1] += duration
            agg[2] += duration - frame[0]

    @contextmanager
    def operation(self, op_id: str, name: str = "op"):
        """Root span of one operation; rkld calls are recorded only inside one."""
        self.op = op_id
        frame = self.enter(name, BENCH_LAYER)
        try:
            yield
        finally:
            self.exit(frame)
            self.op = None

    def records(self) -> dict:
        return {
            "spans": list(self.spans),
            "calls": [
                {"name": k[0], "layer": k[1], "parent": k[2], "via": k[3],
                 "count": v[0], "total_s": v[1], "self_s": v[2]}
                for k, v in self.calls.items()
            ],
        }


def _wrap(tracer: Tracer, fn, name: str, layer: str, kind: str, hook):
    if kind == CALL:

        @functools.wraps(fn)
        def call_wrapper(*args, **kwargs):
            if tracer.op is None:
                return fn(*args, **kwargs)
            return tracer.call(fn, name, layer, args, kwargs)

        return call_wrapper

    @functools.wraps(fn)
    def span_wrapper(*args, **kwargs):
        if tracer.op is None:
            return fn(*args, **kwargs)
        frame = tracer.enter(name, layer)
        counters = error = None
        try:
            result = fn(*args, **kwargs)
            if hook is not None:
                counters = hook(args, kwargs, result)
            return result
        except BaseException as exc:
            error = type(exc).__name__
            raise
        finally:
            tracer.exit(frame, counters, error)

    return span_wrapper


def _resolve(module_name: str, path: str):
    """(owner, attribute, raw value) for 'func' or 'Class.method'; None if absent."""
    module = sys.modules.get(module_name)
    if module is None:
        return None
    owner, attr = module, path
    if "." in path:
        cls_name, attr = path.split(".", 1)
        owner = getattr(module, cls_name, None)
        if owner is None or attr not in vars(owner):
            return None
        return owner, attr, vars(owner)[attr]
    if not hasattr(module, attr):
        return None
    return owner, attr, getattr(module, attr)


@contextmanager
def instrument(tracer: Tracer, targets=TARGETS):
    """Install wrappers for `targets`; yields the list of targets not found.

    A module-level function is replaced in every loaded rkld module that
    holds the same object, so `from .dynamics import run_chain` in the CLI
    and the verify suite is traced too. Originals are restored on exit.
    """
    patched: list[tuple[object, str, object]] = []
    missing: list[str] = []
    rkld_modules = [
        m for n, m in list(sys.modules.items()) if m is not None and (n == "rkld" or n.startswith("rkld."))
    ]
    try:
        for module_name, path, layer, kind, hook in targets:
            found = _resolve(module_name, path)
            if found is None:
                missing.append(f"{module_name}.{path}")
                continue
            owner, attr, raw = found
            if isinstance(owner, type):
                if isinstance(raw, (classmethod, staticmethod)):
                    new = type(raw)(_wrap(tracer, raw.__func__, path, layer, kind, hook))
                else:
                    new = _wrap(tracer, raw, path, layer, kind, hook)
                patched.append((owner, attr, raw))
                setattr(owner, attr, new)
                continue
            new = _wrap(tracer, raw, path, layer, kind, hook)
            for module in rkld_modules:
                for key, value in list(vars(module).items()):
                    if value is raw:
                        patched.append((module, key, raw))
                        setattr(module, key, new)
        yield missing
    finally:
        for owner, attr, raw in reversed(patched):
            setattr(owner, attr, raw)


# -- metrics from one set of records --


def _chain(by_id: dict, span_id):
    while span_id is not None:
        span = by_id[span_id]
        yield span
        span_id = span["parent"]


def layer_metrics(spans: list[dict], calls: list[dict]) -> dict[str, float]:
    """Per-layer metrics of one set of records, as named in BENCHMARK.json."""
    by_id = {s["id"]: s for s in spans}

    def under(span_id, pred) -> bool:
        return any(pred(s) for s in _chain(by_id, span_id))

    def in_dynamics(span_id) -> bool:
        return under(span_id, lambda s: s["layer"] == "dynamics")

    def in_minimizer(span_id) -> bool:
        return under(span_id, lambda s: s["name"] in MINIMIZERS)

    self_s = {layer: 0.0 for layer in (*LAYERS, BENCH_LAYER)}
    for rec in (*spans, *calls):
        self_s[rec["layer"]] = self_s.get(rec["layer"], 0.0) + rec["self_s"]

    def count(name, pred=None):
        return sum(c["count"] for c in calls if c["name"] == name and (pred is None or pred(c)))

    def self_of(names):
        return sum(c["self_s"] for c in calls if c["name"] in names)

    ensembles = [s for s in spans if s["name"] == "run_ensemble"]
    engine_steps = sum(s["counters"].get("steps", 0) for s in ensembles)
    chain_steps = sum(s["counters"].get("chain_steps", 0) for s in ensembles)
    engine_evals = sum(
        c["count"]
        for c in calls
        if in_dynamics(c["parent"])
        and (c["name"] in ARRAY_METHODS or (c["name"] in LOSS_METHODS and c["via"] not in ARRAY_METHODS))
    )
    minimizers = [s for s in spans if s["name"] in MINIMIZERS]
    outermost = [s for s in minimizers if not in_minimizer(s["parent"])]
    suites = [s for s in spans if s["name"] == "run_property_suite"]

    metrics = {f"{layer}.self_s": value for layer, value in self_s.items()}
    metrics.update(
        {
            "dynamics.chain_steps": chain_steps,
            "dynamics.us_per_chain_step": 1e6 * self_s["dynamics"] / chain_steps if chain_steps else 0.0,
            "dynamics.ensemble_calls": len(ensembles),
            "dynamics.rng_streams": count("make_rng"),
            "objective.grad_calls": count("ObjectiveSpec.grad_array"),
            "objective.grad_s": self_of({"ObjectiveSpec.grad_array"}),
            "objective.risk_calls": count("ObjectiveSpec.risk_array"),
            "objective.risk_s": self_of({"ObjectiveSpec.risk_array"}),
            "objective.sgrad_calls": count("ObjectiveSpec.stochastic_grad_array"),
            "objective.sgrad_s": self_of({"ObjectiveSpec.stochastic_grad_array"}),
            "objective.loss_evals": sum(count(n) for n in LOSS_METHODS),
            "objective.loss_s": self_of(LOSS_METHODS),
            "objective.evals_per_step": engine_evals / engine_steps if engine_steps else 0.0,
            "objective.minimizer_s": sum(s["end"] - s["start"] for s in outermost),
            "objective.minimizer_calls": len(minimizers),
            "objective.minimizer_grad_calls": count(
                "ObjectiveSpec.grad_array", lambda c: in_minimizer(c["parent"])
            ),
            "objective.minimizer_failed": sum(1 for s in minimizers if s["error"]),
            "spectral.feature_matrix_calls": count("KernelSpec.feature_matrix"),
            "diagnostics.theory_constants_s": sum(
                s["end"] - s["start"] for s in spans if s["name"] == "theory_constants"
            ),
            "config.build_objective_calls": count("ExperimentConfig.build_objective"),
            "verify.properties_attempted": sum(s["counters"].get("properties_attempted", 0) for s in suites),
            "verify.properties_passed": sum(s["counters"].get("properties_passed", 0) for s in suites),
        }
    )
    return metrics
