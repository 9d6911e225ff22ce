"""scripts/ab_solves.py on its tiny set: parity of a tree with itself, and a
non-zero exit when the other tree changes an iteration count or fails more
solves against the truth."""

import importlib.util
import json
import pathlib
import shutil
import subprocess
import sys
from types import SimpleNamespace

import numpy as np

import pytest

from sirmc import spectral

REPO = pathlib.Path(__file__).resolve().parent.parent
SCRIPT = REPO / "scripts" / "ab_solves.py"


def _ab(a_src, b_src):
    proc = subprocess.run([sys.executable, str(SCRIPT), str(a_src), str(b_src),
                           "--set", "tiny", "--rounds", "2"],
                          capture_output=True, text=True, timeout=60)
    return proc, json.loads(proc.stdout.splitlines()[-1])


def _changed_tree(tmp_path, old, new):
    """A copy of the source tree with one edit to completion.py."""
    shutil.copytree(REPO / "src", tmp_path / "src",
                    ignore=shutil.ignore_patterns("__pycache__", "*.egg-info"))
    completion = tmp_path / "src" / "sirmc" / "completion.py"
    text = completion.read_text(encoding="utf-8")
    assert old in text
    completion.write_text(text.replace(old, new), encoding="utf-8")
    return tmp_path


def test_a_tree_is_at_parity_with_itself():
    proc, record = _ab(REPO, REPO)
    assert proc.returncode == 0, proc.stderr
    assert record["solves"] == 2 and len(record["ratio_b_a"]) == len(record["ratio_a_a"]) == 2
    same = record["parity_b"]
    assert same["iters_changed"] == same["routes_changed"] == same["kept_ranks_changed"] == []
    assert same["max_rel_dM"] == 0.0
    assert 0.0 < record["parity_ulp_control"]["max_rel_dM"] < 1e-10
    assert record["quality_a"] == record["quality_b"]
    assert record["quality_b"]["iters"] == 40 + 52
    # 60x40 is too small for either fast route: every shrink runs the dense SVD.
    assert record["quality_b"]["routes"] == {"truncated": 0, "gram_block": 0, "gram": 0,
                                             "dense": 92}
    assert "routes of B: 0 truncated, 0 gram_block, 0 gram, 92 dense" in proc.stdout
    assert 0.0 < record["quality_b"]["worst_rel_rmse"] < 1e-6
    assert record["quality_b"]["failed"] == 0
    assert "quality of B: 92 iterations" in proc.stdout


def test_a_changed_iteration_count_exits_one(tmp_path):
    proc, record = _ab(REPO, _changed_tree(tmp_path, "mu: float = 1.05", "mu: float = 1.5"))
    assert proc.returncode == 1, proc.stderr
    assert record["parity_b"]["iters_changed"] == ["nnm 60x40 (0.05, 0.3) seed 1 x1: 40 -> 37",
                                                   "how 60x40 (0.05, 0.3) seed 1 x1: 52 -> 39"]
    assert "iterations changed: how 60x40" in proc.stdout
    assert record["quality_b"]["iters"] == 37 + 39 and record["quality_b"]["failed"] == 0


def test_more_failed_solves_exit_one(tmp_path):
    # B returns M off by 1% at the same iteration counts: only the truth
    # tells the two trees apart.
    b_src = _changed_tree(tmp_path, '_ldexp_finite(last.M, e, "the estimate M")',
                          '1.01 * _ldexp_finite(last.M, e, "the estimate M")')
    proc, record = _ab(REPO, b_src)
    assert proc.returncode == 1, proc.stderr
    assert record["parity_b"]["iters_changed"] == []
    assert record["quality_a"]["failed"] == 0 and record["quality_b"]["failed"] == 2
    assert record["quality_b"]["iters"] == record["quality_a"]["iters"]
    assert record["quality_b"]["worst_rel_rmse"] == pytest.approx(0.01, rel=1e-3)
    assert "2 of 2 solves at relative RMSE >= 0.001" in proc.stdout


def _script():
    spec = importlib.util.spec_from_file_location("ab_solves", SCRIPT)
    ab = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(ab)
    return ab


def test_shrinks_are_counted_by_route():
    ab = _script()
    truth = np.ones((2, 2))
    todo = [("first", truth), ("second", truth)]
    first = {("B", 0): (truth, SimpleNamespace(iters=3, route=["truncated", "gram", "gram_block"])),
             ("B", 1): (truth, SimpleNamespace(iters=2, route=["gram_block", "dense"]))}
    got = ab.quality(todo, first, "B", ab.route_names([spectral.ROUTES], first))
    assert got["routes"] == {"truncated": 1, "gram_block": 2, "gram": 1, "dense": 1}
    assert got["iters"] == 5 and got["failed"] == 0


def test_a_route_only_one_side_names_is_counted_on_both():
    # B's traces name a route that neither tree's ROUTES lists, and A's tree
    # predates ROUTES: the route is still counted, after B's ROUTES order.
    ab = _script()
    truth = np.ones((2, 2))
    first = {("A", 0): (truth, SimpleNamespace(iters=2, route=["dense", "gram"])),
             ("B", 0): (truth, SimpleNamespace(iters=3, route=["lanczos", "gram", "lanczos"]))}
    routes = ab.route_names([(), spectral.ROUTES], first)
    assert routes == [*spectral.ROUTES, "lanczos"]
    assert ab.quality([("only", truth)], first, "A", routes)["routes"] == {
        "truncated": 0, "gram_block": 0, "gram": 1, "dense": 1, "lanczos": 0}
    assert ab.quality([("only", truth)], first, "B", routes)["routes"] == {
        "truncated": 0, "gram_block": 0, "gram": 1, "dense": 0, "lanczos": 2}
    # With no ROUTES on either side, the traces alone give the names.
    assert ab.route_names([(), ()], first) == ["dense", "gram", "lanczos"]
