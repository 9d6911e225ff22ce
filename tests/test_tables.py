"""Golden bytes of every table sirmc writes, and the IoError each writer
raises: the trace, sweep, bench and prox-curve tables and the matrix file.

The expected bytes were written by the five hand-rolled writers that
matio.write_table replaced; a change to any number format, header or line
ending shows here.
"""

import hashlib
import itertools
import re
from types import SimpleNamespace

import numpy as np
import pytest

from sirmc import IterTrace, SweepGrid, TrialReport, bench, cli, matio, save_matrix
from sirmc.errors import IoError

TRACE = (
    "k,rel_E,delta_M,feas,rho,wall_time_s,kept_rank,dense_svd,gram_svd,gram_block_svd\n"
    "1,0.3333333333333333,7e+200,2.5e-17,1e-300,0.1,0,0,0,0\n"
    "2,1e-300,0.3333333333333333,7e+200,2.5e-17,0.2,3,0,0,1\n"
    "3,2.5e-17,0.0,0.3333333333333333,7e+200,0.3333333333333333,12,0,1,0\n"
    "4,7e+200,1e-300,1e-300,0.3333333333333333,2.5e-17,40,1,0,0\n"
    "5,0.5,2.5e-17,1.0,3.0,1e-300,7,0,1,0\n"
)
SWEEP = (
    "f_r,f_m,method,success_rate,mean_log10_rmse,trials\n"
    "0.1,0.2,how,0.5,-8.238560627359831,2\n"
    "0.1,0.2,nnm,0.5,-8.0,2\n"
    "0.1,0.5,how,1.0,-4.301029995663981,2\n"
    "0.1,0.5,nnm,1.0,-4.06246936830415,2\n"
    "0.3,0.2,how,0.5,inf,2\n"
    "0.3,0.2,nnm,0.5,inf,2\n"
    "0.3,0.5,how,0.5,-7.849485002168009,2\n"
    "0.3,0.5,nnm,0.5,-7.610924374808178,2\n"
)
BENCH = (
    "rank,method,mean_seconds,trials\n"
    "1,how,0.09999999999999999,2\n"
    "1,nnm,0.1,2\n"
    "2,how,0.10000000000000003,2\n"
    "2,nnm,0.10000000000000003,2\n"
)
CURVE_SHA256 = "b9e30c056f7711dc3fb8e056a2bed275c3aed3e8c4edcc8e7d7721c8b8793a8b"
MATRIX_SHA256 = "de7a1d5ecb697f21072fbbacb1d8af3b6cf9f3838da81642cb9f50055b85472b"


def _trace():
    """Every route, and floats whose shortest repr takes each form."""
    return IterTrace(
        rel_e=[1 / 3, 1e-300, 2.5e-17, 7e200, 0.5], delta_m=[7e200, 1 / 3, 0.0, 1e-300, 2.5e-17],
        feas=[2.5e-17, 7e200, 1 / 3, 1e-300, 1.0], rho=[1e-300, 2.5e-17, 7e200, 1 / 3, 3.0],
        wall_time=[0.1, 0.2, 1 / 3, 2.5e-17, 1e-300], kept_rank=[0, 3, 12, 40, 7],
        route=["truncated", "gram_block", "gram", "dense", "gram"])


def _grid():
    """2x2 cells, 2 methods, 2 trials; one failed solve makes a cell's mean log10 inf."""
    rmses = {(0, 0): (1 / 3, 1e-300), (0, 1): (2.5e-4, 1e-5), (1, 0): (float("inf"), 7e-4),
             (1, 1): (2.0, 1e-300)}

    def report(method, value):
        return TrialReport(method, value, 10, 0.5,
                           "SvdFailure: x" if value == float("inf") else None)

    reports = {}
    for (i, j), (a, b) in rmses.items():
        reports[i, j, 0] = [report("how", a), report("nnm", b)]
        reports[i, j, 1] = [report("how", b), report("nnm", a * 3)]
    return SweepGrid((0.1, 0.3), (0.2, 0.5), ("how", "nnm"), 2, reports)


def _matrix():
    return np.pi * (np.arange(97 * 13.0).reshape(97, 13) - 630.0)


def _bench(out, monkeypatch):
    # Each solve's wall time is the difference of two fixed clock reads.
    monkeypatch.setattr(bench, "time",
                        SimpleNamespace(perf_counter=itertools.count(0.0, 0.1).__next__))
    return cli.main(["bench", "--ranks", "1,2", "--methods", "how,nnm", "--trials", "2",
                     "--m", "20", "--n", "15", "--out", str(out)])


def _curve(out, monkeypatch):
    return cli.main(["prox-curve", "--xmin", "-30", "--xmax", "30", "--step", "0.01",
                     "--out", str(out)])


def test_trace_bytes(tmp_path):
    _trace().to_csv(tmp_path / "t.csv")
    assert (tmp_path / "t.csv").read_bytes() == TRACE.encode()


def test_empty_trace_is_its_header(tmp_path):
    IterTrace().to_csv(tmp_path / "t.csv")
    assert (tmp_path / "t.csv").read_bytes() == TRACE.encode().split(b"\n")[0] + b"\n"


def test_sweep_bytes(tmp_path):
    _grid().to_csv(tmp_path / "s.csv")
    assert (tmp_path / "s.csv").read_bytes() == SWEEP.encode()


def test_bench_bytes(tmp_path, monkeypatch):
    assert _bench(tmp_path / "b.csv", monkeypatch) == 0
    assert (tmp_path / "b.csv").read_bytes() == BENCH.encode()


def test_prox_curve_bytes(tmp_path, monkeypatch):
    assert _curve(tmp_path / "c.csv", monkeypatch) == 0
    data = (tmp_path / "c.csv").read_bytes()
    assert data.count(b"\n") == 1 + 6001  # more rows than one write block holds
    assert data.startswith(b"x,loss,prox,implicit_regularizer\n-30.0,1.5000000000000002,-30.0,")
    assert hashlib.sha256(data).hexdigest() == CURVE_SHA256


def test_matrix_bytes(tmp_path):
    save_matrix(_matrix(), tmp_path / "m.csv")
    data = (tmp_path / "m.csv").read_bytes()
    assert data.count(b"\n") == 97 and b"\r" not in data
    assert data.startswith(b"-1979.2033717615698,-1976.0617791079799,")
    assert hashlib.sha256(data).hexdigest() == MATRIX_SHA256


def test_a_wide_matrix_writes_a_row_per_line(tmp_path):
    # Wider than one write block: each block holds one whole row.
    X = np.arange(2.0 * (matio.BLOCK_TOKENS + 3)).reshape(2, -1)
    save_matrix(X, tmp_path / "w.csv")
    assert np.array_equal(matio.load_observed(str(tmp_path / "w.csv")).values, X)


WRITERS = {
    "trace": lambda out, mp: _trace().to_csv(out),
    "sweep": lambda out, mp: _grid().to_csv(out),
    "bench": _bench,
    "prox-curve": _curve,
    "matrix": lambda out, mp: save_matrix(_matrix(), out),
}


@pytest.mark.parametrize("writer", WRITERS)
def test_each_writer_raises_an_io_error_naming_the_path(tmp_path, monkeypatch, capsys, writer):
    # A directory where the file should go. The CLI's early check is off, so
    # the bench and prox-curve tables reach their writer.
    monkeypatch.setattr(matio, "check_writable", lambda path: None)
    out = tmp_path / "taken"
    out.mkdir()
    if writer in ("bench", "prox-curve"):
        assert WRITERS[writer](out, monkeypatch) == 1
        assert capsys.readouterr().err.splitlines()[-1].startswith(f"error: {out}: ")
    else:
        with pytest.raises(IoError, match=f"^{re.escape(str(out))}: "):
            WRITERS[writer](out, monkeypatch)
    assert out.is_dir() and not any(out.iterdir())


def test_write_table_streams_columns_of_any_sequence(tmp_path):
    out = tmp_path / "t.csv"
    matio.write_table(out, [("i", "%d"), ("name", "%s"), ("x", "%r"), ("on", "%d")],
                      [range(3), ["a", "b", "c"], np.array([0.1, 1e-300, -2.0]),
                       np.array([True, False, True])])
    assert out.read_bytes() == b"i,name,x,on\n0,a,0.1,1\n1,b,1e-300,0\n2,c,-2.0,1\n"
