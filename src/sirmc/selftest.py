"""The one implementation of the SIR contracts, run by `sirmc selftest` and,
suite by suite, by acceptance criteria 1-4. Each suite checks one family of
contracts on the four named penalties at threshold lam = 1 with their strict
shapes, on a fixed sample, and its detail names each kind that failed:

- prox_oddness: P(-x) = -P(x) bitwise on 6001 points of [0, 12];
- prox_thresholding: P(x) = 0 iff |x| <= lam on 10001 points of [-10, 10];
- prox_monotone: P nondecreasing on the same points;
- bias_dominance: on 2001 points of [1, 10], x - P(x) is lam at lam and at
  most lam + 1e-12; for the hybrid kinds it is nonincreasing (to 1e-12) and
  P(x) >= soft(x) - 1e-12;
- loss_smoothness: C1 at lam (slopes within 1e-6), d/dx loss = x - P(x)
  within 1e-5 on 401 points of [-5, 5], loss even bitwise on 1601 of [0, 8];
- moreau_oracle: the grid oracle's argmin within lam/200 of P(x) and its
  minimum within 1e-4 of the loss on 50 points of [-5, 5];
- spectral_shrinkage: on 20 Gaussian 30x20 matrices times 2.0, singular
  values shrunk by P and invariance under rotations, each within 1e-8;
  0.5 I maps to 0;
- truncated_shrink: on six planted 200x120 spectra, each warm-started route
  keeps as many values as the dense shrink, its output within 1e-10 sigma_1.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import penalties as pen
from .penalties import (METHODS, Penalty, loss_eval, make_penalty, moreau_argmin_oracle,
                        prox_eval)
from .spectral import ROUTES, SvdTriplet, shrink_singular_values


def default_penalties() -> list[Penalty]:
    return [make_penalty(kind, 1.0) for kind in METHODS.values()]


@dataclass(frozen=True)
class SuiteResult:
    name: str
    passed: bool
    detail: str


def _result(name: str, checks: dict, summary: str) -> SuiteResult:
    """checks: {kind: {what: held}}; the detail names each kind with a check that failed."""
    failed = [f"{kind} FAILS {', '.join(what for what, held in kind_checks.items() if not held)}"
              for kind, kind_checks in checks.items() if not all(kind_checks.values())]
    return SuiteResult(name, not failed, "; ".join(failed + [summary]))


def suite_oddness() -> SuiteResult:
    xs = np.linspace(0.0, 12.0, 6001)
    checks = {}
    for p in default_penalties():
        gap = float(np.max(np.abs(prox_eval(p, -xs) + prox_eval(p, xs))))
        checks[p.kind] = {f"max |P(-x)+P(x)| = {gap:.3g}": gap == 0.0}
    return _result("prox_oddness", checks, "P(-x) = -P(x) bitwise on 6001 points of [0, 12]")


PROX_GRID = np.linspace(-10.0, 10.0, 10001)  # holds +-lam = +-1


def suite_thresholding() -> SuiteResult:
    checks = {}
    for p in default_penalties():
        vals, inside = prox_eval(p, PROX_GRID), np.abs(PROX_GRID) <= p.lam
        checks[p.kind] = {"zero inside": not np.any(vals[inside]),
                          "nonzero outside": np.all(vals[~inside] != 0.0)}
    return _result("prox_thresholding", checks, "P(x)=0 iff |x|<=lam on 10001 points of [-10, 10]")


def suite_monotone() -> SuiteResult:
    return _result("prox_monotone",
                   {p.kind: {"nondecreasing": np.all(np.diff(prox_eval(p, PROX_GRID)) >= 0.0)}
                    for p in default_penalties()},
                   "P nondecreasing on 10001 points of [-10, 10]")


def suite_bias_dominance() -> SuiteResult:
    xs = np.linspace(1.0, 10.0, 2001)  # x >= lam = 1
    soft = prox_eval(make_penalty(pen.SOFT, 1.0), xs)
    checks = {}
    for p in default_penalties():
        vals = prox_eval(p, xs)
        b = xs - vals
        checks[p.kind] = {"bias(lam)=lam": b[0] == p.lam, "bias<=lam": np.all(b <= p.lam + 1e-12)}
        if p.kind != pen.SOFT:
            checks[p.kind].update({"bias nonincreasing": np.all(np.diff(b) <= 1e-12),
                                   "P >= soft P": np.all(vals >= soft - 1e-12)})
    return _result("bias_dominance", checks, "bias(lam)=lam, <=lam; hybrid kinds: nonincreasing, "
                                             "P >= soft P; on 2001 points of [1, 10]")


def suite_loss_smoothness() -> SuiteResult:
    h = 1e-7
    xs, ys = np.linspace(-5.0, 5.0, 401), np.linspace(0.0, 8.0, 1601)
    checks, gaps = {}, []
    for p in default_penalties():
        lam = p.lam
        left = (loss_eval(p, lam) - loss_eval(p, lam - h)) / h
        right = (loss_eval(p, lam + h) - loss_eval(p, lam)) / h
        x = xs[np.minimum(np.abs(xs - lam), np.abs(xs + lam)) > 1e-3]
        fd = (loss_eval(p, x + 1e-4) - loss_eval(p, x - 1e-4)) / 2e-4
        c1, grad = abs(left - right), float(np.max(np.abs(fd - (x - prox_eval(p, x)))))
        gaps.append((c1, grad))
        checks[p.kind] = {f"C1 gap {c1:.2g}": c1 <= 1e-6, f"grad gap {grad:.2g}": grad <= 1e-5,
                          "evenness": np.array_equal(loss_eval(p, -ys), loss_eval(p, ys))}
    c1, grad = np.max(gaps, axis=0)
    return _result("loss_smoothness", checks,
                   f"C1 gap at lam {c1:.2g} <= 1e-6, grad gap {grad:.2g} "
                   "<= 1e-5 on 401 points of [-5, 5]; even on 1601 points of [0, 8]")


def suite_moreau_oracle() -> SuiteResult:
    xs = np.linspace(-5.0, 5.0, 50)
    checks, gaps = {}, []
    for p in default_penalties():
        argmin, minval = moreau_argmin_oracle(p, xs)
        arg = float(np.max(np.abs(argmin - prox_eval(p, xs))))
        val = float(np.max(np.abs(minval - loss_eval(p, xs))))
        gaps.append((arg, val))
        checks[p.kind] = {f"argmin gap {arg:.2g}": arg <= p.lam / pen.ORACLE_STEP_DIV,
                          f"value gap {val:.2g}": val <= 1e-4}
    arg, val = np.max(gaps, axis=0)
    return _result("moreau_oracle", checks,
                   f"argmin gap {arg:.2g} <= lam/{pen.ORACLE_STEP_DIV}, value gap {val:.2g} "
                   "<= 1e-4 on 50 points of [-5, 5]")


def suite_spectral() -> SuiteResult:
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(0)))
    checks, gaps = {}, []
    for p in default_penalties():
        spec = unit = 0.0
        for _ in range(20):
            D = rng.standard_normal((30, 20)) * 2.0
            out = shrink_singular_values(D, p).M
            expected = np.sort(prox_eval(p, np.linalg.svd(D, compute_uv=False)))[::-1]
            spec = np.maximum(spec, np.max(np.abs(np.linalg.svd(out, compute_uv=False) - expected)))
            Q1, _ = np.linalg.qr(rng.standard_normal((30, 30)))
            Q2, _ = np.linalg.qr(rng.standard_normal((20, 20)))
            rotated = shrink_singular_values(Q1 @ D @ Q2.T, p).M
            unit = np.maximum(unit, np.max(np.abs(rotated - Q1 @ out @ Q2.T)))  # keeps a nan
        gaps.append((spec, unit))
        checks[p.kind] = {f"spectrum gap {spec:.2g}": spec <= 1e-8,
                          f"unitary gap {unit:.2g}": unit <= 1e-8,
                          "0.5 I -> 0": not np.any(shrink_singular_values(0.5 * np.eye(6), p).M)}
    spec, unit = np.max(gaps, axis=0)
    return _result("spectral_shrinkage", checks,
                   f"spectrum gap {spec:.2g}, unitary gap {unit:.2g} <= 1e-8 "
                   "on 20 random 30x20 per penalty; 0.5 I -> 0")


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
# "wide_warm" starts wider than the truncated block allows (both: the Gram
# route, whose block certifies the second and refuses the first).
TRUNCATION_CASES = {
    "separated": (list(np.linspace(8.0, 1.5, 12)) + [0.1] * 50, 4),
    "saturated": (list(np.linspace(5.0, 2.0, 15)) + list(np.linspace(0.1, 0.01, 80)), 2),
    "cluster_above": ([1.001] * 40 + list(np.linspace(0.9, 0.1, 60)), 10),
    "at_threshold": ([4.0, 3.0, 2.5, 1.0, 1.0, 1.0] + [0.5] * 30, 3),
    "rank_deficient": ([6.0, 5.0, 4.0, 3.0, 2.0], 0),
    "wide_warm": (list(np.linspace(6.0, 1.5, 40)) + list(np.linspace(0.9, 0.1, 60)), 40),
}


def suite_truncated_shrink() -> SuiteResult:
    """The warm-started shrink, which truncates the SVD or takes the Gram
    route (its block first, as after a gapped shrink) when one certifies,
    against the dense one on planted 200x120 spectra: the same number of
    kept values and outputs within 1e-10 * sigma_1."""
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(0)))
    worst, routes, checks = 0.0, dict.fromkeys(ROUTES, 0), {p.kind: {} for p in default_penalties()}
    for name, (values, width) in TRUNCATION_CASES.items():
        D, V = planted(rng, values)
        s = SvdTriplet.of(D).S
        for p in default_penalties():
            out = shrink_singular_values(D, p, start=V[:, :width], gapped=True)
            err = float(np.max(np.abs(out.M - shrink_singular_values(D, p).M))) / s[0]
            worst = max(worst, err)
            routes[out.route] += 1
            checks[p.kind][f"{name} (kept {out.rank}, error {err:.2g})"] = (
                out.rank == np.count_nonzero(prox_eval(p, s)) and err <= 1e-10)
    return _result("truncated_shrink", checks,
                   ", ".join(f"{n} {route}" for route, n in routes.items())
                   + f" of {sum(routes.values())}; worst error {worst:.2g} * sigma_1")


def run_selftest() -> list[SuiteResult]:
    """Run every suite; returns one result per suite."""
    return [suite() for suite in (suite_oddness, suite_thresholding, suite_monotone,
                                  suite_bias_dominance, suite_loss_smoothness,
                                  suite_moreau_oracle, suite_spectral, suite_truncated_shrink)]
