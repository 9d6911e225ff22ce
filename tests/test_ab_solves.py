"""scripts/ab_solves.py on its tiny set: parity of a tree with itself, and a
non-zero exit when the other tree changes an iteration count."""

import json
import pathlib
import shutil
import subprocess
import sys

REPO = pathlib.Path(__file__).resolve().parent.parent
SCRIPT = REPO / "scripts" / "ab_solves.py"


def _ab(a_src, b_src):
    proc = subprocess.run([sys.executable, str(SCRIPT), str(a_src), str(b_src),
                           "--set", "tiny", "--rounds", "2"],
                          capture_output=True, text=True, timeout=60)
    return proc, json.loads(proc.stdout.splitlines()[-1])


def test_a_tree_is_at_parity_with_itself():
    proc, record = _ab(REPO, REPO)
    assert proc.returncode == 0, proc.stderr
    assert record["solves"] == 2 and len(record["ratio_b_a"]) == len(record["ratio_a_a"]) == 2
    same = record["parity_b"]
    assert same["iters_changed"] == same["routes_changed"] == same["kept_ranks_changed"] == []
    assert same["max_rel_dM"] == 0.0
    assert 0.0 < record["parity_ulp_control"]["max_rel_dM"] < 1e-10


def test_a_changed_iteration_count_exits_one(tmp_path):
    shutil.copytree(REPO / "src", tmp_path / "src",
                    ignore=shutil.ignore_patterns("__pycache__", "*.egg-info"))
    completion = tmp_path / "src" / "sirmc" / "completion.py"
    text = completion.read_text(encoding="utf-8")
    assert "mu: float = 1.05" in text
    completion.write_text(text.replace("mu: float = 1.05", "mu: float = 1.5"), encoding="utf-8")
    proc, record = _ab(REPO, tmp_path)
    assert proc.returncode == 1, proc.stderr
    assert record["parity_b"]["iters_changed"] == ["how 60x40 (0.05, 0.3) seed 1 x1: 62 -> 39"]
    assert "iterations changed: how 60x40" in proc.stdout
