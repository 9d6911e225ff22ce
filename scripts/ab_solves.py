"""Interleaved per-solve timing and parity of two sirmc source trees.

    python3 scripts/ab_solves.py A_SRC B_SRC \
        --set protocol|high-rank|files|sweep|narrow|tiny \
        --rounds N [--seeds 1,2,3]

A_SRC and B_SRC are source checkouts, each holding src/sirmc. Both are loaded
in one process as packages of their own, together with a second copy of A
(the A/A control) and a copy of A whose prox output is multiplied by
(1 + 2^-52) (the ulp control). Each round runs every solve of the set on A,
its copy and B, in an order drawn anew for each solve from a fixed stream,
and prints the round's summed solve times as the ratios B/A and A/A.

After the rounds it prints parity against A, from the first round's solves,
for B and for one solve of the ulp control: the solves whose iteration
counts, route sequences or kept-rank sequences differ, and max|M - M_A| /
max|M_A|. The ulp control's figures are the roundoff floor of the solves: a
last-bit change moves M that far, and can flip a shrink whose certificate
sits at its bound. For A and for B it then prints each side's summed
iterations, its shrinks by route (see route_names), its
worst relative RMSE ||M - X||_F / ||X||_F against the
truth, and the number of solves at a relative RMSE of at least
FAILED_RMSE = 1e-3 (bench's success bound, made scale-free for the scaled
protocol solves). It prints the run's conditions: numpy's version, the
CPUs the process may run on and the BLAS thread counts that each side's
traces report. The last line of standard output is the whole record as
JSON. The exit status is 1 when an iteration count of B differs or B has
more such failed solves than A, else 0.

The sets mirror perfbench's workloads: protocol is 300x200 at (0.05, 0.3),
four methods at scales 1e-2 and 1 plus scale 1e2 on the instance of seed
20240501; high-rank is 300x200 at (0.2, 0.5) with how, hoc and hog; files
is how on 1000x80 at (0.025, 0.3), one instance per seed; sweep is the 4x4
transition grid at 150x100 with how and nnm at mu = 1.1 and 250 iterations,
one trial, solved in turn. narrow has no perfbench workload: how and nnm on
4000x40 at (0.05, 0.3) and 1000x120 at (0.05, 0.5), where every warm shrink
after the first takes the Gram side. tiny is one 60x40 instance, for smoke tests.
Solves run on the BLAS thread count that sirmc.solve picks (one at these
sizes).
"""

from __future__ import annotations

import argparse
import importlib
import importlib.util
import itertools
import json
import random
import statistics
import sys
import time
from pathlib import Path

import numpy as np

PROTOCOL_FIXED_SEED = 20240501
ULP = 1.0 + 2.0 ** -52
FAILED_RMSE = 1e-3


def load(src, name, ulp=False):
    """Import src/sirmc of the checkout `src` as the package `name`; with
    ulp, every prox output of its shrinks is multiplied by ULP."""
    root = Path(src) / "src" / "sirmc"
    spec = importlib.util.spec_from_file_location(name, root / "__init__.py",
                                                  submodule_search_locations=[str(root)])
    pkg = importlib.util.module_from_spec(spec)
    sys.modules[name] = pkg
    spec.loader.exec_module(pkg)
    if ulp:
        spectral = importlib.import_module(f"{name}.spectral")
        exact = spectral.prox_eval
        spectral.prox_eval = lambda penalty, x: exact(penalty, x) * ULP
    return pkg


def cases(pkg, name, seeds):
    """(label, truth, values, mask, method, config overrides) of each solve in
    the set; truth and values share the solve's scale."""
    bench = pkg.bench
    out = []

    def add(spec, methods, scales=(1.0,), **overrides):
        truth, X = bench.gen_synthetic(spec)
        for scale in scales:
            for method in methods:
                label = (f"{method} {spec.m}x{spec.n} ({spec.f_r}, {spec.f_m}) "
                         f"seed {spec.seed} x{scale:g}")
                out.append((label, truth * scale, X.values * scale, X.mask, method, overrides))

    for seed in seeds:
        if name == "protocol":
            add(bench.SyntheticSpec(300, 200, 0.05, 0.3, seed), ("nnm", "how", "hoc", "hog"),
                scales=(1e-2, 1.0))
        elif name == "high-rank":
            add(bench.SyntheticSpec(300, 200, 0.2, 0.5, seed), ("how", "hoc", "hog"))
        elif name == "files":
            add(bench.SyntheticSpec(1000, 80, 0.025, 0.3, seed), ("how",))
        elif name == "narrow":
            add(bench.SyntheticSpec(4000, 40, 0.05, 0.3, seed), ("how", "nnm"))
            add(bench.SyntheticSpec(1000, 120, 0.05, 0.5, seed), ("how", "nnm"))
        elif name == "sweep":
            for i, f_r in enumerate(bench.TRANSITION_FR):
                for j, f_m in enumerate(bench.TRANSITION_FM):
                    spec = bench.SyntheticSpec(150, 100, f_r, f_m,
                                               bench._trial_seed(seed, i, j, 0))
                    add(spec, ("how", "nnm"), mu=1.10, max_iters=250)
        else:  # tiny
            add(bench.SyntheticSpec(60, 40, 0.05, 0.3, seed), ("nnm", "how"))
    if name == "protocol":
        add(bench.SyntheticSpec(300, 200, 0.05, 0.3, PROTOCOL_FIXED_SEED),
            ("nnm", "how", "hoc", "hog"), scales=(1e2,))
    return out


def run(pkg, case):
    """(wall seconds, M, trace) of one solve of `case` on the package."""
    _, _, values, mask, method, overrides = case
    X = pkg.ObservedMatrix(values, mask)
    config = pkg.bench.config_for_method(method, **overrides)
    t0 = time.perf_counter()
    M, trace = pkg.solve(X, config)
    return time.perf_counter() - t0, M, trace


def compare(todo, first, side):
    """Parity of one side's first solves against A's: the labels of the solves
    whose iteration count, route or kept-rank sequence differs, and the
    largest max|M - M_A| / max|M_A|."""
    out = {"iters_changed": [], "routes_changed": [], "kept_ranks_changed": [],
           "max_rel_dM": 0.0}
    for k, case in enumerate(todo):
        (Ma, ta), (M, t) = first["A", k], first[side, k]
        if t.iters != ta.iters:
            out["iters_changed"].append(f"{case[0]}: {ta.iters} -> {t.iters}")
        if list(t.route) != list(ta.route):
            out["routes_changed"].append(case[0])
        if list(t.kept_rank) != list(ta.kept_rank):
            out["kept_ranks_changed"].append(case[0])
        out["max_rel_dM"] = max(out["max_rel_dM"],
                                float(np.max(np.abs(M - Ma)) / np.max(np.abs(Ma))))
    return out


def route_names(orders, first):
    """The routes to count: those of each tree's spectral.ROUTES, in its order
    (`orders`; a tree older than ROUTES gives ()), then every other route that
    a trace in `first` names, in the order first named."""
    named = (route for _, trace in first.values() for route in trace.route)
    return list(dict.fromkeys([*itertools.chain(*orders), *named]))


def quality(todo, first, side, routes):
    """One side's first solves against the truth: summed iterations, the
    shrinks taken by each of the routes, the worst relative RMSE and the
    number of solves at FAILED_RMSE or above."""
    rel = [float(np.linalg.norm(first[side, k][0] - case[1]) / np.linalg.norm(case[1]))
           for k, case in enumerate(todo)]
    taken = [r for k in range(len(todo)) for r in first[side, k][1].route]
    return {"iters": sum(first[side, k][1].iters for k in range(len(todo))),
            "routes": {route: taken.count(route) for route in routes},
            "worst_rel_rmse": max(rel), "failed": sum(r >= FAILED_RMSE for r in rel)}


SETS = ("protocol", "high-rank", "files", "sweep", "narrow", "tiny")
DEFAULT_SEEDS = {"protocol": [1], "high-rank": [1], "files": [4, 5, 6, 7], "sweep": [1],
                 "narrow": [1, 2], "tiny": [1]}


def blas_counts(first, side):
    """The sorted distinct BLAS thread counts that one side's traces in
    `first` report; an unknown count (None, or a tree older than the field)
    is left out."""
    return sorted({getattr(trace, "blas_threads", None)
                   for (name, _), (_, trace) in first.items() if name == side} - {None})


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("a_src")
    p.add_argument("b_src")
    p.add_argument("--set", choices=SETS, required=True)
    p.add_argument("--rounds", type=int, default=5)
    p.add_argument("--seeds", type=lambda text: [int(v) for v in text.split(",")],
                   help="comma-separated instance seeds (default: the set's)")
    args = p.parse_args(argv)
    if args.rounds < 1:
        p.error("--rounds must be >= 1")
    seeds = args.seeds or DEFAULT_SEEDS[args.set]

    sides = {"A": load(args.a_src, "sirmc_ab_a"), "A2": load(args.a_src, "sirmc_ab_a2"),
             "B": load(args.b_src, "sirmc_ab_b")}
    todo = cases(sides["A"], args.set, seeds)
    order = random.Random(0)
    # Warm each side up: its first solve pays lazy imports and first-call costs.
    for pkg in sides.values():
        run(pkg, todo[0])

    ratios, controls, first = [], [], {}
    for rnd in range(args.rounds):
        total = dict.fromkeys(sides, 0.0)
        for k, case in enumerate(todo):
            for side in order.sample(list(sides), len(sides)):
                wall, M, trace = run(sides[side], case)
                total[side] += wall
                if rnd == 0 and side != "A2":
                    first[side, k] = (M, trace)
        ratios.append(total["B"] / total["A"])
        controls.append(total["A2"] / total["A"])
        print(f"round {rnd + 1}: A {total['A']:.3f} s, B/A {ratios[-1]:.4f}, "
              f"A/A {controls[-1]:.4f}", flush=True)

    ulp_side = load(args.a_src, "sirmc_ab_ulp", ulp=True)
    for k, case in enumerate(todo):
        first["ulp", k] = run(ulp_side, case)[1:]
    parity = {side: compare(todo, first, side) for side in ("B", "ulp")}
    orders = [getattr(importlib.import_module(f"{sides[side].__name__}.spectral"), "ROUTES", ())
              for side in ("A", "B")]
    routes = route_names(orders, first)
    scores = {side: quality(todo, first, side, routes) for side in ("A", "B")}
    conditions = {"numpy": np.__version__,
                  "cpus": importlib.import_module(f"{sides['A'].__name__}.blas").cpus(),
                  "blas_threads_a": blas_counts(first, "A"),
                  "blas_threads_b": blas_counts(first, "B")}
    record = {
        "set": args.set, "seeds": seeds, "solves": len(todo), "rounds": args.rounds,
        "ratio_b_a": ratios, "ratio_a_a": controls,
        "median_b_a": statistics.median(ratios), "median_a_a": statistics.median(controls),
        "parity_b": parity["B"], "parity_ulp_control": parity["ulp"],
        "quality_a": scores["A"], "quality_b": scores["B"], "conditions": conditions,
    }
    print(f"{args.set}: {len(todo)} solves x {args.rounds} rounds; median B/A "
          f"{record['median_b_a']:.4f} (range {min(ratios):.4f}-{max(ratios):.4f}), "
          f"A/A {record['median_a_a']:.4f} (range {min(controls):.4f}-{max(controls):.4f})")
    for side, name in (("B", "B"), ("ulp", "ulp control")):
        got = parity[side]
        print(f"parity of {name} against A: {len(got['iters_changed'])} iteration counts, "
              f"{len(got['routes_changed'])} route sequences and "
              f"{len(got['kept_ranks_changed'])} kept-rank sequences differ; "
              f"max|dM|/max|M| {got['max_rel_dM']:.3g}")
    for line in parity["B"]["iters_changed"]:
        print(f"  iterations changed: {line}")
    for side, got in scores.items():
        print(f"routes of {side}: "
              + ", ".join(f"{n} {route}" for route, n in got["routes"].items()))
        print(f"quality of {side}: {got['iters']} iterations; worst relative RMSE "
              f"{got['worst_rel_rmse']:.3g}; {got['failed']} of {len(todo)} solves at "
              f"relative RMSE >= {FAILED_RMSE:g}")
    print(f"conditions: numpy {conditions['numpy']}, {conditions['cpus']} CPUs, BLAS threads "
          f"A {conditions['blas_threads_a'] or 'unknown'}, "
          f"B {conditions['blas_threads_b'] or 'unknown'}")
    print(json.dumps(record))
    worse = scores["B"]["failed"] > scores["A"]["failed"]
    return 1 if parity["B"]["iters_changed"] or worse else 0


if __name__ == "__main__":
    sys.exit(main())
