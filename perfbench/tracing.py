"""Spans around sirmc's layers, recorded from outside the package.

The tracer replaces, for the length of a traced run, the module attributes
that sirmc looks up at call time: the three ADMM updates and the shrinkage
step that `solve` calls, the SVD and prox that the shrinkage step calls,
the generator and scorer that the sweep calls, and the loader, saver,
solver and trace writer that the CLI calls. No file of the package changes.

A span is (id, parent id, name, start, end, note). Parents follow the call
stack of each thread, so the spans of one solve form one tree. Spans are
kept in memory and written once, when the run ends.

Run as a script, this module is the traced `sirmc` command:

    python3 perfbench/tracing.py SPANS.json complete matrix.csv --mask ...

It imports sirmc, installs the tracer, runs `sirmc.cli.main` on the
remaining arguments, writes the spans to SPANS.json and exits with main's
exit code.
"""

from __future__ import annotations

import functools
import itertools
import json
import statistics
import sys
import threading
import time

# Layer of a span: the first component of its name.
LAYERS = ("penalties", "spectral", "completion", "bench", "matio", "cli")
SOLVE = "completion.solve"


class Tracer:
    def __init__(self):
        self.spans = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._patches = []

    def wrap(self, name, fn, note=None):
        """`fn` recording one span per call; `note(result)` adds a small
        payload (for example an iteration count) to the span."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._local.__dict__.setdefault("stack", [])
            sid = next(self._ids)
            parent = stack[-1] if stack else 0
            stack.append(sid)
            out = None
            t0 = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
                return out
            finally:
                t1 = time.perf_counter()
                stack.pop()
                extra = note(out) if note is not None and out is not None else None
                self.spans.append((sid, parent, name, t0, t1, extra))

        return traced

    def _patch(self, owner, attr, value):
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def install(self):
        import numpy as np

        import sirmc
        from sirmc import bench, cli, completion, matio, spectral

        def kept(out):
            return [int(np.count_nonzero(out)), int(np.size(out))]

        def solve_note(out):
            return [out[1].iters, bool(out[1].max_iters_reached)]

        traced_solve = self.wrap(SOLVE, completion.solve, solve_note)
        for owner in (sirmc, completion, bench, cli):
            self._patch(owner, "solve", traced_solve)
        for attr in ("update_m", "update_e", "update_multiplier_and_rho"):
            self._patch(completion, attr, self.wrap(f"completion.{attr}",
                                                    getattr(completion, attr)))
        self._patch(completion, "shrink_singular_values",
                    self.wrap("spectral.shrink_singular_values",
                              completion.shrink_singular_values))
        self._patch(spectral, "prox_eval",
                    self.wrap("penalties.prox_eval", spectral.prox_eval, kept))
        of = spectral.SvdTriplet.__dict__["of"]
        self._patch(spectral.SvdTriplet, "of",
                    classmethod(self.wrap("spectral.svd", of.__func__)))
        self._patch(completion.IterTrace, "to_csv",
                    self.wrap("completion.IterTrace.to_csv", completion.IterTrace.to_csv))
        for attr in ("gen_synthetic", "rmse"):
            self._patch(bench, attr, self.wrap(f"bench.{attr}", getattr(bench, attr)))
        for attr in ("load_observed", "save_matrix"):
            self._patch(matio, attr, self.wrap(f"matio.{attr}", getattr(matio, attr)))

    def uninstall(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)


def self_times(spans):
    """{span id: duration minus the time its child spans cover}."""
    child = {}
    for sid, parent, _, t0, t1, _ in spans:
        child[parent] = child.get(parent, 0.0) + (t1 - t0)
    return {sid: (t1 - t0) - child.get(sid, 0.0) for sid, _, _, t0, t1, _ in spans}


def solve_parts_fault(spans, tol=1e-6):
    """None when, for every solve, the self times of the spans in its tree
    are non-negative and add up to the solve's wall time; else a detail."""
    own = self_times(spans)
    kids = {}
    for sid, parent, *_ in spans:
        kids.setdefault(parent, []).append(sid)
    for sid, _, name, t0, t1, _ in spans:
        if name != SOLVE:
            continue
        total, todo = 0.0, [sid]
        while todo:
            node = todo.pop()
            if own[node] < -tol:
                return f"span {node} inside solve {sid} has self time {own[node]:.3g} s"
            total += own[node]
            todo.extend(kids.get(node, ()))
        if abs(total - (t1 - t0)) > tol:
            return f"solve {sid}: parts {total:.6f} s != wall {t1 - t0:.6f} s"
    return None


def layer_metrics(spans, *, pool_wall=None, pool_threads=1, load_bytes=0, save_bytes=0,
                  import_s=0.0):
    """Per-layer metrics of one traced round.

    `pool_wall` is the wall time of a sweep, for the pool's busy ratio;
    the byte counts are the sizes of the files read and written through
    matio. A layer the workload does not call reads 0.
    """
    own = self_times(spans)
    total = {}
    calls = {}
    for sid, _, name, t0, t1, _ in spans:
        total[name] = total.get(name, 0.0) + (t1 - t0)
        calls[name] = calls.get(name, 0) + 1
    solves = [s for s in spans if s[2] == SOLVE and s[5] is not None]
    solve_s = [t1 - t0 for _, _, _, t0, t1, _ in solves]
    iters = sum(s[5][0] for s in solves)
    kept = [s[5] for s in spans if s[2] == "penalties.prox_eval"]
    computed = sum(k[1] for k in kept)

    def self_of(*names):
        return sum(own[s[0]] for s in spans if s[2] in names)

    metrics = {
        "spectral.svd_s": (total.get("spectral.svd", 0.0), "s"),
        "spectral.svd_calls": (calls.get("spectral.svd", 0), "count"),
        "spectral.kept_fraction": (sum(k[0] for k in kept) / computed if computed else 0.0,
                                   "ratio"),
        "spectral.recompose_s": (self_of("spectral.shrink_singular_values"), "s"),
        "penalties.prox_s": (total.get("penalties.prox_eval", 0.0), "s"),
        "penalties.prox_calls": (calls.get("penalties.prox_eval", 0), "count"),
        "completion.iters": (iters, "count"),
        "completion.capped": (sum(bool(s[5][1]) for s in solves), "count"),
        "completion.s_per_iter": (sum(solve_s) / iters if iters else 0.0, "s"),
        "completion.update_e_s": (total.get("completion.update_e", 0.0), "s"),
        "completion.multiplier_s": (total.get("completion.update_multiplier_and_rho", 0.0),
                                    "s"),
        "completion.bookkeeping_s": (self_of(SOLVE), "s"),
        "bench.gen_s": (total.get("bench.gen_synthetic", 0.0), "s"),
        "bench.rmse_s": (total.get("bench.rmse", 0.0), "s"),
        "bench.pool_busy": (sum(solve_s) / (pool_wall * pool_threads) if pool_wall else 0.0,
                            "ratio"),
        "bench.solve_p50_s": (statistics.median(solve_s) if pool_wall and solve_s else 0.0,
                              "s"),
        "bench.solve_max_s": (max(solve_s) if pool_wall and solve_s else 0.0, "s"),
        "matio.load_s": (total.get("matio.load_observed", 0.0), "s"),
        "matio.load_mb_per_s": _rate(load_bytes, total.get("matio.load_observed", 0.0)),
        "matio.save_s": (total.get("matio.save_matrix", 0.0), "s"),
        "matio.save_mb_per_s": _rate(save_bytes, total.get("matio.save_matrix", 0.0)),
        "cli.import_s": (import_s, "s"),
        "cli.overhead_s": (self_of("cli.main"), "s"),
    }
    for layer in LAYERS:
        metrics[f"{layer}.self_s"] = (sum(own[s[0]] for s in spans
                                          if s[2].split(".")[0] == layer), "s")
    return metrics


def _rate(nbytes, seconds):
    return (nbytes / 1e6 / seconds if seconds else 0.0), "MB/s"


def main(argv):
    spans_path, cli_args = argv[0], argv[1:]
    t0 = time.perf_counter()
    import sirmc.cli
    import_s = time.perf_counter() - t0
    tracer = Tracer()
    tracer.install()
    code = tracer.wrap("cli.main", sirmc.cli.main)(cli_args)
    with open(spans_path, "w", encoding="utf-8") as f:
        json.dump({"import_s": import_s, "spans": tracer.spans}, f)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
