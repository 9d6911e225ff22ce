"""Built-in oracle and invariant suites, runnable from the CLI.

Each suite checks one family of contracts on the four named penalties at
threshold 1 with their strict boundary shapes, through the package's
public API.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import penalties as pen
from .penalties import (
    METHODS,
    Penalty,
    loss_eval,
    make_penalty,
    moreau_argmin_oracle,
    prox_eval,
)
from .spectral import SvdTriplet, shrink_singular_values


def default_penalties() -> list[Penalty]:
    return [make_penalty(kind, 1.0) for kind in METHODS.values()]


@dataclass(frozen=True)
class SuiteResult:
    name: str
    passed: bool
    detail: str


def _result(name, passed, detail) -> SuiteResult:
    return SuiteResult(name, bool(passed), detail)


def suite_oddness() -> SuiteResult:
    xs = np.linspace(0.0, 12.0, 4001)
    worst = 0.0
    for p in default_penalties():
        diff = np.abs(np.asarray(prox_eval(p, -xs)) + np.asarray(prox_eval(p, xs)))
        worst = max(worst, float(diff.max()))
    return _result("prox_oddness", worst == 0.0, f"max |P(-x)+P(x)| = {worst:.3g}")


def suite_thresholding() -> SuiteResult:
    xs = np.linspace(-10.0, 10.0, 10001)  # lam = 1
    detail = []
    for p in default_penalties():
        vals = np.asarray(prox_eval(p, xs))
        inside = np.abs(xs) <= p.lam
        zero_inside = np.all(vals[inside] == 0.0)
        nonzero_outside = np.all(vals[~inside] != 0.0)
        if not (zero_inside and nonzero_outside):
            detail.append(f"{p.kind}: inside-zero={zero_inside} outside-nonzero={nonzero_outside}")
    return _result("prox_thresholding", not detail, "; ".join(detail) or "P(x)=0 iff |x|<=lam on 10^4 points")


def suite_monotone() -> SuiteResult:
    xs = np.linspace(-10.0, 10.0, 10001)
    detail = []
    for p in default_penalties():
        vals = np.asarray(prox_eval(p, xs))
        if np.any(np.diff(vals) < 0.0):
            detail.append(p.kind)
    return _result("prox_monotone", not detail,
                   f"decreasing: {detail}" if detail else "nondecreasing on sampled grid")


def suite_bias_dominance() -> SuiteResult:
    xs = np.linspace(1.0, 10.0, 2001)  # x >= lam = 1
    detail = []
    for p in default_penalties():
        b = xs - np.asarray(prox_eval(p, xs))
        at_lam_exact = b[0] == p.lam
        bounded = np.all(b <= p.lam + 1e-12)
        nonincreasing = p.kind == "soft" or np.all(np.diff(b) <= 1e-12)
        if not (at_lam_exact and bounded and nonincreasing):
            detail.append(f"{p.kind}: at_lam={at_lam_exact} bounded={bounded} dec={nonincreasing}")
    return _result("bias_dominance", not detail, "; ".join(detail) or "bias(lam)=lam, <=lam, nonincreasing")


def suite_loss_smoothness() -> SuiteResult:
    ok = True
    details = []
    h = 1e-7
    for p in default_penalties():
        lam = p.lam
        left = (loss_eval(p, lam) - loss_eval(p, lam - h)) / h
        right = (loss_eval(p, lam + h) - loss_eval(p, lam)) / h
        c1_gap = abs(left - right)
        xs = np.linspace(-5.0, 5.0, 200)
        xs = xs[np.minimum(np.abs(xs - lam), np.abs(xs + lam)) > 1e-3]
        fd = (np.asarray(loss_eval(p, xs + 1e-4)) - np.asarray(loss_eval(p, xs - 1e-4))) / 2e-4
        grad_gap = float(np.max(np.abs(fd - (xs - np.asarray(prox_eval(p, xs))))))
        ok &= c1_gap <= 1e-6 and grad_gap <= 1e-5
        details.append(f"{p.kind}: C1 gap {c1_gap:.2g}, grad gap {grad_gap:.2g}")
    return _result("loss_smoothness", ok, "; ".join(details))


def suite_moreau_oracle(n_points: int = 9) -> SuiteResult:
    ok = True
    details = []
    step = 1.0 / pen.ORACLE_STEP_DIV
    xs = np.linspace(-4.0, 4.0, n_points)
    for p in default_penalties():
        argmin, minval = moreau_argmin_oracle(p, xs)
        arg_gap = float(np.max(np.abs(argmin - np.asarray(prox_eval(p, xs)))))
        val_gap = float(np.max(np.abs(minval - np.asarray(loss_eval(p, xs)))))
        ok &= arg_gap <= step and val_gap <= 1e-4
        details.append(f"{p.kind}: arg {arg_gap:.2g}, val {val_gap:.2g}")
    return _result("moreau_oracle", ok, "; ".join(details))


def suite_spectral(seed: int = 0) -> SuiteResult:
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(seed)))
    ok = True
    details = []
    for p in default_penalties():
        worst_spec = worst_unitary = 0.0
        for _ in range(5):
            D = rng.standard_normal((12, 8)) * 1.5
            out = shrink_singular_values(D, p)
            s_in = np.linalg.svd(D, compute_uv=False)
            s_out = np.linalg.svd(out, compute_uv=False)
            expected = np.sort(np.asarray(prox_eval(p, s_in)))[::-1]
            worst_spec = max(worst_spec, float(np.max(np.abs(s_out - expected))))
            Q1, _ = np.linalg.qr(rng.standard_normal((12, 12)))
            Q2, _ = np.linalg.qr(rng.standard_normal((8, 8)))
            rotated = shrink_singular_values(Q1 @ D @ Q2.T, p)
            worst_unitary = max(worst_unitary, float(np.max(np.abs(rotated - Q1 @ out @ Q2.T))))
        zero_ok = np.all(shrink_singular_values(0.5 * np.eye(6), p) == 0.0)
        ok &= worst_spec <= 1e-8 and worst_unitary <= 1e-8 and bool(zero_ok)
        details.append(f"{p.kind}: spec {worst_spec:.2g}, unit {worst_unitary:.2g}")
    return _result("spectral_shrinkage", ok, "; ".join(details))


def planted(rng, values, m: int = 200, n: int = 120):
    """m x n matrix with the given leading singular values (zeros after) and
    random singular vectors; returns it with its right singular vectors."""
    s = np.zeros(n)
    s[:len(values)] = values
    U, _ = np.linalg.qr(rng.standard_normal((m, n)))
    V, _ = np.linalg.qr(rng.standard_normal((n, n)))
    return (U * s) @ V.T, V


# Planted spectra at threshold 1 and the warm-start width each starts from;
# "saturated" has more values above 1 than its block has columns, and
# "wide_warm" starts wider than the truncated block allows (both: the Gram route).
TRUNCATION_CASES = {
    "separated": (list(np.linspace(8.0, 1.5, 12)) + [0.1] * 50, 4),
    "saturated": (list(np.linspace(5.0, 2.0, 15)) + list(np.linspace(0.1, 0.01, 80)), 2),
    "cluster_above": ([1.001] * 40 + list(np.linspace(0.9, 0.1, 60)), 10),
    "at_threshold": ([4.0, 3.0, 2.5, 1.0, 1.0, 1.0] + [0.5] * 30, 3),
    "rank_deficient": ([6.0, 5.0, 4.0, 3.0, 2.0], 0),
    "wide_warm": (list(np.linspace(6.0, 1.5, 40)) + list(np.linspace(0.9, 0.1, 60)), 40),
}


def suite_truncated_shrink(seed: int = 0) -> SuiteResult:
    """The warm-started shrink, which truncates the SVD or takes the Gram
    route when one certifies, against the dense one on planted 200x120
    spectra: the same number of kept values and outputs within 1e-10 * sigma_1."""
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(seed)))
    worst = 0.0
    routes = dict.fromkeys(("truncated", "gram", "dense"), 0)
    details = []
    for name, (values, width) in TRUNCATION_CASES.items():
        D, V = planted(rng, values)
        s = SvdTriplet.of(D).S
        for p in default_penalties():
            out = shrink_singular_values(D, p, start=V[:, :width])
            err = float(np.max(np.abs(out.M - shrink_singular_values(D, p)))) / s[0]
            worst = max(worst, err)
            routes[out.route] += 1
            if out.rank != np.count_nonzero(np.asarray(prox_eval(p, s))) or err > 1e-10:
                details.append(f"{name}/{p.kind}: kept {out.rank}, error {err:.2g}")
    ok = not details
    details.append(", ".join(f"{n} {route}" for route, n in routes.items())
                   + f" of {sum(routes.values())}; worst error {worst:.2g} * sigma_1")
    return _result("truncated_shrink", ok, "; ".join(details))


def run_selftest() -> list[SuiteResult]:
    """Run every suite; returns one result per suite."""
    return [
        suite_oddness(),
        suite_thresholding(),
        suite_monotone(),
        suite_bias_dominance(),
        suite_loss_smoothness(),
        suite_moreau_oracle(),
        suite_spectral(),
        suite_truncated_shrink(),
    ]
