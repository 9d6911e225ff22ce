"""Matrix/mask file parsing and round-trip fidelity."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from sirmc import load_observed, matio, save_matrix
from sirmc.errors import (
    DuplicateCoordinate,
    EmptyObservation,
    IndexOutOfRange,
    IoError,
    ParseError,
    SirmcError,
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



class TestEncoding:
    @pytest.mark.parametrize("which", ["matrix", "mask"])
    def test_leading_bom_accepted(self, tmp_path, which):
        bom = {which: "\ufeff"}
        m = _write(tmp_path / "m.csv", bom.get("matrix", "") + "1.0,2\n3,4\n")
        k = _write(tmp_path / "k.csv", bom.get("mask", "") + "0,0\n1,1\n")
        X = load_observed(m, k)
        assert np.array_equal(X.values, [[1.0, 0.0], [0.0, 4.0]])

    @pytest.mark.parametrize("which", ["matrix", "mask"])
    def test_invalid_utf8_names_file_and_offset(self, tmp_path, which):
        paths = {"matrix": tmp_path / "m.csv", "mask": tmp_path / "k.csv"}
        paths["matrix"].write_bytes(b"1,2\n3,4\n")
        paths["mask"].write_bytes(b"0,0\n")
        paths[which].write_bytes(b"\xef\xbb\xbf1,\xff\n")  # offset counts the BOM's 3 bytes
        with pytest.raises(ParseError) as caught:
            load_observed(str(paths["matrix"]), str(paths["mask"]))
        assert str(caught.value) == f"{paths[which]}: invalid UTF-8 at byte offset 5"


# The bulk parse against the per-token loop, its referee. `_parse` runs a parse
# with the named functions switched off and BLOCK_TOKENS set to `block`, so
# small blocks put seams between rows and between mask pairs.

def _switched_off(*args):
    raise ValueError("switched off")  # what makes the parse fall back to the loop


def _parse(parse, *args, off=(), block=matio.BLOCK_TOKENS):
    """The parse's arrays, or its error as (type, message)."""
    with pytest.MonkeyPatch.context() as mp:
        for name in off:
            mp.setattr(matio, name, _switched_off)
        mp.setattr(matio, "BLOCK_TOKENS", block)
        try:
            return parse(*args)
        except SirmcError as exc:
            return type(exc), str(exc)


LOOP_ONLY = ("_bulk",)
BULK_ONLY = ("_loop_matrix", "_loop_mask")  # a fallback would raise ValueError


def _equal(a, b):
    a, b = (x if isinstance(x, tuple) else (x,) for x in (a, b))
    return len(a) == len(b) and all(
        np.array_equal(u, v) if isinstance(u, np.ndarray) else u == v for u, v in zip(a, b))


def _file(tmp_path_factory, text):
    path = tmp_path_factory.mktemp("bulk") / "f.csv"
    path.write_bytes(text.encode("utf-8"))
    return str(path)


_BLANKS = st.sampled_from(["", " ", "\t", "  "])
_TOKENS = st.tuples(_BLANKS, st.one_of(
    st.floats(allow_nan=True, allow_infinity=True).map(repr),
    st.sampled_from(["nan", "NaN", "-nan", "inf", "-inf", "1_0", "-0.0", "5e-324",
                     "1.7976931348623157e308", "1e400", "+2", ".5"]),
), _BLANKS).map("".join)


@st.composite
def _matrix_text(draw):
    m, n = draw(st.integers(1, 6)), draw(st.integers(1, 4))
    rows = [",".join(draw(st.lists(_TOKENS, min_size=n, max_size=n))) for _ in range(m)]
    end = draw(st.sampled_from(["\n", "\r\n"]))
    return end.join(rows) + draw(st.sampled_from(["", end]))


@st.composite
def _mask_text(draw):
    m, n = draw(st.integers(1, 12)), draw(st.integers(1, 12))
    cells = draw(st.lists(st.tuples(st.integers(0, m - 1), st.integers(0, n - 1)),
                          unique=True, max_size=20))
    index = st.sampled_from(["{}", " {} ", "+{}", "0{}"])
    lines = [draw(index).format(i) + "," + draw(index).format(j) for i, j in cells]
    return (m, n), "".join(line.replace("10", "1_0") + "\n" for line in lines)


@given(text=_matrix_text(), block=st.integers(1, 9))
@settings(max_examples=150, deadline=None)
def test_bulk_matrix_parse_matches_loop(text, block, tmp_path_factory):
    path = _file(tmp_path_factory, text)
    values, missing = _parse(matio._parse_matrix, path, off=BULK_ONLY, block=block)
    assert _equal((values, missing), _parse(matio._parse_matrix, path, off=LOOP_ONLY))
    assert not np.any(values[missing])


@given(case=_mask_text(), block=st.integers(1, 9))
@settings(max_examples=100, deadline=None)
def test_bulk_mask_parse_matches_loop(case, block, tmp_path_factory):
    shape, text = case
    path = _file(tmp_path_factory, text)
    mask = _parse(matio._parse_mask, path, shape, off=BULK_ONLY, block=block)
    assert _equal(mask, _parse(matio._parse_mask, path, shape, off=LOOP_ONLY))


@pytest.mark.parametrize("bad", ["1,2", "7", "", " \t ", "1,x,3", "1.2.3,4,5", "1,,3"])
@given(where=st.integers(0, 3), block=st.integers(1, 7))  # a line before the last
@settings(max_examples=10, deadline=None)
def test_bulk_matrix_parse_fails_like_loop(bad, where, block, tmp_path_factory):
    lines = ["1,2,3", "4,5,6", "nan,8,9", "1_0,-0.0,inf"]
    lines.insert(where, bad)
    path = _file(tmp_path_factory, "\n".join(lines) + "\n")
    loop = _parse(matio._parse_matrix, path, off=LOOP_ONLY)
    assert loop[0] is ParseError
    assert _equal(_parse(matio._parse_matrix, path, block=block), loop)


@pytest.mark.parametrize("bad, error", [
    ("-1,0", IndexOutOfRange), ("0,3", IndexOutOfRange),
    ("12345678901234567890,0", IndexOutOfRange), ("1,1", DuplicateCoordinate),
    ("0,0,0", ParseError), ("", ParseError), (" ", ParseError), ("0,x", ParseError),
])
@given(where=st.integers(0, 2), block=st.integers(1, 7))  # a line before the last
@settings(max_examples=10, deadline=None)
def test_bulk_mask_parse_fails_like_loop(bad, error, where, block, tmp_path_factory):
    lines = ["0,0", "1,1", "2,2"]
    lines.insert(where, bad)
    path = _file(tmp_path_factory, "\n".join(lines) + "\n")
    loop = _parse(matio._parse_mask, path, (3, 3), off=LOOP_ONLY)
    assert loop[0] is error
    assert _equal(_parse(matio._parse_mask, path, (3, 3), block=block), loop)


@pytest.mark.parametrize("text", ["0,0,0\n1\n", "0\n0,1,1\n"])
def test_balanced_field_counts_fail_like_loop(tmp_path, text):
    """Two bad lines whose fields add up to two per line are still refused."""
    path = _write(tmp_path / "k.csv", text)
    loop = _parse(matio._parse_mask, path, (2, 2), off=LOOP_ONLY)
    assert loop[0] is ParseError and "expected `i,j`" in loop[1]
    assert _equal(_parse(matio._parse_mask, path, (2, 2)), loop)


def _per_value_writer(X):
    """The bytes of the former writer, which formatted one value at a time."""
    return "".join(",".join(f"{v:.17g}" for v in row) + "\n" for row in X).encode()


@given(X=arrays(np.float64, st.tuples(st.integers(1, 6), st.integers(1, 5)),
                elements=st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True)
                | st.sampled_from([-0.0, 5e-324, 1.7976931348623157e308, -np.inf])),
       block=st.integers(1, 9))
@settings(max_examples=100, deadline=None)
def test_save_matches_per_value_writer(X, block, tmp_path_factory):
    out = tmp_path_factory.mktemp("save") / "s.csv"
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(matio, "BLOCK_TOKENS", block)
        save_matrix(X, out)
    assert out.read_bytes() == _per_value_writer(X)
