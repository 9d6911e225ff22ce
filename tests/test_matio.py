"""Matrix/mask file parsing and round-trip fidelity."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from sirmc import load_observed, save_matrix
from sirmc.errors import (
    DuplicateCoordinate,
    EmptyObservation,
    IndexOutOfRange,
    IoError,
    ParseError,
)


def _write(path, text):
    path.write_bytes(text.encode("utf-8"))
    return str(path)


class TestLoadObserved:
    def test_nan_marks_missing(self, tmp_path):
        X = load_observed(_write(tmp_path / "m.csv", "1,nan\n3,4\n"))
        assert np.array_equal(X.mask, [[True, False], [True, True]])
        assert np.array_equal(X.values, [[1.0, 0.0], [3.0, 4.0]])

    def test_nan_token_any_case(self, tmp_path):
        X = load_observed(_write(tmp_path / "m.csv", "NaN,1\nNAN,2\n"))
        assert np.array_equal(X.mask, [[False, True], [False, True]])

    def test_crlf_accepted(self, tmp_path):
        X = load_observed(_write(tmp_path / "m.csv", "1,2\r\n3,4\r\n"))
        assert np.array_equal(X.values, [[1.0, 2.0], [3.0, 4.0]])

    def test_all_nan_rejected(self, tmp_path):
        with pytest.raises(EmptyObservation):
            load_observed(_write(tmp_path / "m.csv", "nan,nan\nnan,nan\n"))

    def test_ragged_rejected_with_line(self, tmp_path):
        with pytest.raises(ParseError, match=":2:"):
            load_observed(_write(tmp_path / "m.csv", "1,2\n3\n"))

    def test_bad_token_locates_cell(self, tmp_path):
        with pytest.raises(ParseError, match=":2:2"):
            load_observed(_write(tmp_path / "m.csv", "1,2\n3,x\n"))

    def test_blank_interior_line_rejected(self, tmp_path):
        with pytest.raises(ParseError):
            load_observed(_write(tmp_path / "m.csv", "1,2\n\n3,4\n"))

    def test_missing_file(self, tmp_path):
        with pytest.raises(IoError):
            load_observed(str(tmp_path / "nope.csv"))


class TestMaskFile:
    def test_mask_selects_and_zeroes(self, tmp_path):
        m = _write(tmp_path / "m.csv", "1,2\n3,4\n")
        k = _write(tmp_path / "k.csv", "0,0\n1,1\n")
        X = load_observed(m, k)
        assert np.array_equal(X.mask, [[True, False], [False, True]])
        assert np.array_equal(X.values, [[1.0, 0.0], [0.0, 4.0]])

    def test_out_of_range(self, tmp_path):
        m = _write(tmp_path / "m.csv", "1,2\n3,4\n")
        k = _write(tmp_path / "k.csv", "5,0\n")
        with pytest.raises(IndexOutOfRange):
            load_observed(m, k)

    def test_duplicate(self, tmp_path):
        m = _write(tmp_path / "m.csv", "1,2\n3,4\n")
        k = _write(tmp_path / "k.csv", "0,0\n0,0\n")
        with pytest.raises(DuplicateCoordinate):
            load_observed(m, k)

    def test_nan_inside_mask_rejected(self, tmp_path):
        m = _write(tmp_path / "m.csv", "nan,2\n3,4\n")
        k = _write(tmp_path / "k.csv", "0,0\n")
        with pytest.raises(ParseError, match="observed position"):
            load_observed(m, k)

    def test_nan_outside_mask_ok(self, tmp_path):
        m = _write(tmp_path / "m.csv", "nan,2\n3,4\n")
        k = _write(tmp_path / "k.csv", "0,1\n1,0\n1,1\n")
        X = load_observed(m, k)
        assert X.values[0, 0] == 0.0

    @pytest.mark.parametrize("body, mask, where", [
        ("1,inf\n3,4\n", None, "inf at observed position (0,1)"),
        ("1,2\n-inf,4\n", "1,0\n", "-inf at observed position (1,0)"),
    ])
    def test_inf_at_observed_position_located(self, tmp_path, body, mask, where):
        m = _write(tmp_path / "m.csv", body)
        k = None if mask is None else _write(tmp_path / "k.csv", mask)
        with pytest.raises(ParseError) as caught:
            load_observed(m, k)
        assert str(caught.value) == f"{m}: {where}"

    def test_inf_outside_mask_ok(self, tmp_path):
        m = _write(tmp_path / "m.csv", "inf,2\n3,4\n")
        k = _write(tmp_path / "k.csv", "0,1\n1,0\n1,1\n")
        assert load_observed(m, k).values[0, 0] == 0.0

    def test_bad_pair(self, tmp_path):
        m = _write(tmp_path / "m.csv", "1,2\n")
        k = _write(tmp_path / "k.csv", "0,0,0\n")
        with pytest.raises(ParseError):
            load_observed(m, k)


class TestSaveMatrix:
    def test_one_by_one_body(self, tmp_path):
        out = tmp_path / "s.csv"
        save_matrix(np.array([[3.5]]), out)
        assert out.read_bytes() == b"3.5\n"

    def test_lf_endings(self, tmp_path):
        out = tmp_path / "s.csv"
        save_matrix(np.ones((2, 2)), out)
        assert b"\r" not in out.read_bytes()

    def test_empty_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            save_matrix(np.zeros((0, 3)), tmp_path / "s.csv")

    def test_unwritable_path_is_io_error(self, tmp_path):
        with pytest.raises(IoError):
            save_matrix(np.ones((2, 2)), tmp_path)  # directory, not a file

    def test_roundtrip_random(self, tmp_path, rng):
        X = rng.standard_normal((5, 7)) * 100.0
        out = tmp_path / "s.csv"
        save_matrix(X, out)
        back = load_observed(str(out))
        assert back.mask.all()
        assert np.max(np.abs(back.values - X) / np.maximum(np.abs(X), 1e-300)) <= 1e-15

    def test_deterministic_bytes(self, tmp_path, rng):
        X = rng.standard_normal((3, 4))
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        save_matrix(X, a)
        save_matrix(X, b)
        assert a.read_bytes() == b.read_bytes()


@given(X=arrays(np.float64, (3, 4),
                elements=st.floats(min_value=-1e12, max_value=1e12,
                                   allow_nan=False, allow_infinity=False)))
@settings(max_examples=50, deadline=None)
def test_roundtrip_property(X, tmp_path_factory):
    out = tmp_path_factory.mktemp("io") / "m.csv"
    save_matrix(X, out)
    back = load_observed(str(out))
    assert back.mask.all()
    assert np.array_equal(back.values, X) or np.allclose(back.values, X, rtol=1e-15, atol=0)
