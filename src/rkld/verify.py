"""Property battery behind the `verify` subcommand.

Each check is deterministic given the config seed and fast enough to run on
every invocation.  Checks return measured values so the report line carries
evidence, not just a verdict.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, replace

import numpy as np

from .config import ExperimentConfig
from .dynamics import ChainConfig, make_rng, run_chain
from .objective import Dataset, ObjectiveSpec, loss_family
from .spectral import KernelSpec, resolvent_scales

__all__ = ["PropertyResult", "run_property_suite"]

_SPECTRUM_K_MAX = 64  # highest mode index of the eigenvalue-shape check
_BASIS_K_MAX = 16  # highest mode index of the orthonormality quadrature


@dataclass
class PropertyResult:
    name: str
    passed: bool
    detail: str


def _result(name, passed, detail):
    return PropertyResult(name, bool(passed), detail)


def check_assumption1_shape(kernel: KernelSpec) -> PropertyResult:
    k = np.arange(_SPECTRUM_K_MAX + 1, dtype=float)
    ratio = kernel.eigenvalues(_SPECTRUM_K_MAX + 1) * (k + 1.0) ** 2 / kernel.mu0
    ok = np.all(ratio <= 1.0 + 1e-9) and np.all(ratio >= 1.0 - 1e-9)
    return _result(
        "assumption1_eigenvalue_shape",
        ok,
        f"mu_k (k+1)^2 / mu0 in [{ratio.min():.4g}, {ratio.max():.4g}] for k <= {_SPECTRUM_K_MAX}",
    )


def _trapezoid_basis(kernel: KernelSpec, n_modes: int):
    """Rows f_k(z_j) for k < n_modes on 2049 equispaced points of [0, 1], and
    the trapezoid-rule weights of those points."""
    n_quad = 2048
    z = np.linspace(0.0, 1.0, n_quad + 1)
    rows = kernel.basis_matrix(z, n_modes).T
    w = np.full(n_quad + 1, 1.0 / n_quad)
    w[0] *= 0.5
    w[-1] *= 0.5
    return rows, w


def check_orthonormality(kernel: KernelSpec) -> PropertyResult:
    rows, w = _trapezoid_basis(kernel, _BASIS_K_MAX + 1)
    gram = (rows * w) @ rows.T
    err = np.max(np.abs(gram - np.eye(_BASIS_K_MAX + 1)))
    return _result("basis_orthonormality_quadrature", err < 1e-6, f"max |gram - I| = {err:.3g}")


def check_parseval(kernel: KernelSpec, seed: int) -> PropertyResult:
    """||c||^2 against a quadrature of the squared function sum_k c_k f_k."""
    rows, w = _trapezoid_basis(kernel, 40)
    rng = make_rng(seed, 0, 99)
    worst = 0.0
    for _ in range(20):
        c = rng.standard_normal(40)
        norm2 = float(c @ c)
        worst = max(worst, abs(float(w @ (c @ rows) ** 2) - norm2) / norm2)
    return _result("parseval_identity", worst < 1e-12, f"max relative deviation {worst:.3g}")


def check_resolvent_scales(kernel: KernelSpec, lam: float, eta: float) -> PropertyResult:
    n = 17
    s = resolvent_scales(kernel, lam, eta, n)
    mu = kernel.eigenvalues(n)
    expect = 1.0 / (1.0 + lam * eta / mu)
    err = np.max(np.abs(s - expect))
    norm_err = abs(float(np.max(np.abs(s))) - 1.0 / (1.0 + lam * eta / kernel.mu0))
    ok = err < 1e-15 and norm_err < 1e-15 and np.all(s > 0) and np.all(s < 1)
    return _result("resolvent_scales_and_norm", ok, f"scale err {err:.3g}, norm err {norm_err:.3g}")


def check_gradient_fd(obj: ObjectiveSpec, seed: int) -> PropertyResult:
    rng = make_rng(seed, 0, 96)
    step = 1e-4
    worst = 0.0
    for _ in range(20):
        x = rng.standard_normal(obj.n_modes)
        h = rng.standard_normal(obj.n_modes)
        h /= np.linalg.norm(h)
        fd = (obj.risk_array(x + step * h) - obj.risk_array(x - step * h)) / (2.0 * step)
        an = float(obj.grad_array(x) @ h)
        worst = max(worst, abs(fd - an) / max(abs(fd), 1e-8))
    return _result("gradient_finite_difference", worst < 1e-5, f"max relative error {worst:.3g}")


def check_minibatch_exhaustive(kernel: KernelSpec) -> PropertyResult:
    data = Dataset.synthesize(6, 11)
    obj = ObjectiveSpec(data, loss_family("squared"), kernel, 9)
    x = make_rng(3, 0, 95).standard_normal(9)
    full = obj.grad_array(x)
    subs = [obj.stochastic_grad_array(x, np.array(s)) for s in itertools.combinations(range(6), 2)]
    mean_err = np.max(np.abs(np.mean(subs, axis=0) - full))
    emp_var = float(np.mean([np.sum((g - full) ** 2) for g in subs]))
    comps = obj.grad_components_array(x)
    sbar2 = float(np.mean(np.sum((comps - comps.mean(axis=0)) ** 2, axis=1)))
    expect = sbar2 / 2.0 * (6 - 2) / (6 - 1)
    ok = mean_err < 1e-12 and abs(emp_var - expect) < 1e-12
    return _result(
        "minibatch_unbiasedness_and_variance",
        ok,
        f"mean err {mean_err:.3g}, variance deviation {abs(emp_var - expect):.3g}",
    )


def check_dissipativity_probe(obj: ObjectiveSpec, lam: float, seed: int) -> PropertyResult:
    try:
        regime, m_const, c_const = obj.dissipativity_constants(lam)
    except ValueError as exc:
        return _result("dissipativity_probe", False, f"no regime applies: {exc}")
    rng = make_rng(seed, 0, 94)
    a = -lam / obj.kernel.eigenvalues(obj.n_modes)
    drawn = (rng.standard_normal(obj.n_modes) * rng.uniform(0.1, 20.0) for _ in range(1000))
    # then +-e0, the top mode, where a too-large m shows first; these take no draws
    e0 = np.eye(obj.n_modes)[0]
    along_e0 = (sign * radius * e0 for radius in (0.1, 1.0, 10.0, 100.0) for sign in (1.0, -1.0))
    worst = -math.inf
    for x in itertools.chain(drawn, along_e0):
        lhs = float((a * x - obj.grad_array(x)) @ x)
        worst = max(worst, lhs - (-m_const * float(x @ x) + c_const))
    return _result(
        "dissipativity_probe",
        worst <= 1e-9,
        f"regime {regime}, max violation {worst:.3g} (m={m_const:.4g}, c={c_const:.4g})",
    )


def check_determinism(cfg: ChainConfig, obj: ObjectiveSpec) -> PropertyResult:
    """Two 200-step runs of the configured chain, its minibatch draws included."""
    short = replace(cfg, horizon=200, burn_in=None)
    a, b = run_chain(short, obj), run_chain(short, obj)
    apart = [(step, name) for name in ("norm", "risk")
             for step in a.steps[(getattr(a, name) != getattr(b, name)).any(axis=0)]]
    detail = "first differ at step {} in {}".format(*min(apart)) if apart else "produced identical trajectories"
    return _result("determinism_bitwise", not apart, f"two same-seed runs {detail}")


def run_property_suite(exp: ExperimentConfig) -> list[PropertyResult]:
    kernel, obj, cfg = exp.kernel, exp.build_objective(), exp.chain
    seed = cfg.seed
    return [
        check_assumption1_shape(kernel),
        check_orthonormality(kernel),
        check_parseval(kernel, seed),
        check_resolvent_scales(kernel, cfg.lam, cfg.eta),
        check_gradient_fd(obj, seed),
        check_minibatch_exhaustive(kernel),
        check_dissipativity_probe(obj, cfg.lam, seed),
        check_determinism(cfg, obj),
    ]
