"""CSV file I/O: matrix and coordinate-mask files in, every table out.

Matrix files are dense CSV, one row per line; the token `nan` (any case)
marks a missing entry when loading without a mask file. Mask files list
observed positions as 0-based `i,j` pairs, one per line. Files are UTF-8,
a leading byte-order mark allowed. Tables are written by write_table, a
matrix with 17 significant digits so save/load round-trips exactly.

Parsing converts `BLOCK_TOKENS` tokens per numpy call, which applies Python's
`float()` or `int()` to each. A file that path does not take whole goes to
the per-token loop, the referee that alone raises the located errors.
"""

from __future__ import annotations

import os

import numpy as np

from .completion import ObservedMatrix
from .errors import (
    DuplicateCoordinate,
    EmptyObservation,
    IndexOutOfRange,
    IoError,
    ParseError,
)

BLOCK_TOKENS = 8192  # tokens per numpy call when parsing or writing; bounds the temporaries


def _read_lines(path) -> list[str]:
    try:
        with open(path, "rb") as f:
            text = f.read().decode("utf-8").removeprefix("\ufeff")
    except OSError as exc:
        raise IoError(f"{path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path}: invalid UTF-8 at byte offset {exc.start}") from None
    lines = text.replace("\r\n", "\n").replace("\r", "\n").split("\n")
    while lines and lines[-1] == "":
        lines.pop()
    return lines


def _bulk(lines, width, dtype):
    """The lines' tokens as a len(lines) x width array, else ValueError or OverflowError."""
    if any(line.count(",") != width - 1 for line in lines):
        raise ValueError("ragged lines")
    step = max(1, BLOCK_TOKENS // width)
    return np.concatenate([np.array(",".join(lines[s:s + step]).split(","), dtype=dtype)
                           for s in range(0, len(lines), step)]).reshape(-1, width)


def _parse_matrix(path):
    """Returns (values, missing_mask); missing cells hold 0 in values."""
    lines = _read_lines(path)
    if not lines:
        raise ParseError(f"{path}: empty file")
    try:
        values = _bulk(lines, lines[0].count(",") + 1, float)
    except (ValueError, OverflowError):
        values = _loop_matrix(path, lines)
    missing = np.isnan(values)
    values[missing] = 0.0
    return values, missing


def _loop_matrix(path, lines) -> np.ndarray:
    values, width = [], lines[0].count(",") + 1
    for lineno, line in enumerate(lines, start=1):
        if line.strip() == "":
            raise ParseError(f"{path}:{lineno}: blank line inside matrix")
        tokens = line.split(",")
        if len(tokens) != width:
            raise ParseError(f"{path}:{lineno}: row has {len(tokens)} columns, expected {width}")
        for col, tok in enumerate(tokens, start=1):
            try:
                values.append(float(tok))  # parses `nan` in any case, and blanks around a token
            except ValueError:
                raise ParseError(f"{path}:{lineno}:{col}: bad number {tok.strip()!r}") from None
    return np.array(values, dtype=float).reshape(len(lines), width)


def _parse_mask(path, shape) -> np.ndarray:
    lines = _read_lines(path)
    mask = np.zeros(shape, dtype=bool)
    try:
        ij = _bulk(lines, 2, np.int64)
        if np.all((ij >= 0) & (ij < shape)):
            mask[ij[:, 0], ij[:, 1]] = True
    except (ValueError, OverflowError):
        pass  # the mask stays empty, so the loop decides
    if np.count_nonzero(mask) == len(lines):  # fewer after a duplicate or a failed bulk parse
        return mask
    return _loop_mask(path, lines, shape)


def _loop_mask(path, lines, shape) -> np.ndarray:
    mask = np.zeros(shape, dtype=bool)
    m, n = shape
    for lineno, line in enumerate(lines, start=1):
        if line.strip() == "":
            raise ParseError(f"{path}:{lineno}: blank line inside mask")
        parts = [p.strip() for p in line.split(",")]
        if len(parts) != 2:
            raise ParseError(f"{path}:{lineno}: expected `i,j`, got {line!r}")
        try:
            i, j = int(parts[0]), int(parts[1])
        except ValueError:
            raise ParseError(f"{path}:{lineno}: bad coordinate {line!r}") from None
        if not (0 <= i < m and 0 <= j < n):
            raise IndexOutOfRange(
                f"{path}:{lineno}: ({i},{j}) outside {m}x{n} matrix (0-based)"
            )
        if mask[i, j]:
            raise DuplicateCoordinate(f"{path}:{lineno}: ({i},{j}) listed twice")
        mask[i, j] = True
    return mask


def load_observed(matrix_path, mask_path=None) -> ObservedMatrix:
    """Load an observed matrix from a CSV file, optionally with a mask file.

    Without a mask, `nan` tokens mark the unobserved positions. With a mask
    file, the coordinates define the observed set, entries outside it are
    zeroed, and `nan` and `inf` tokens are only legal outside the mask.
    """
    values, missing = _parse_matrix(matrix_path)
    mask = ~missing if mask_path is None else _parse_mask(mask_path, values.shape)
    bad = mask & (missing | np.isinf(values))
    if np.any(bad):
        i, j = np.argwhere(bad)[0]
        token = "nan" if missing[i, j] else repr(float(values[i, j]))
        raise ParseError(f"{matrix_path}: {token} at observed position ({i},{j})")
    if not mask.any():
        raise EmptyObservation(f"{matrix_path}: no observed entries")
    return ObservedMatrix(values, mask)


def save_matrix(matrix, path) -> None:
    """Write a dense matrix as headerless CSV with 17 significant digits."""
    matrix = np.asarray(matrix, dtype=float)
    if matrix.ndim != 2 or matrix.size == 0:
        raise ValueError(f"expected a nonempty 2-d matrix, got shape {matrix.shape}")
    write_table(path, [(None, "%.17g")] * matrix.shape[1], matrix.T)


def write_table(path, columns, data) -> None:
    """Write data, the columns' values (a matrix passes its transpose), as CSV under
    a header of the names in columns, (name, %-format) pairs, unless they are None,
    BLOCK_TOKENS values at a time. An OSError is an IoError that names the path."""
    names, formats = zip(*columns)
    line, step = ",".join(formats) + "\n", max(1, BLOCK_TOKENS // len(formats))
    try:
        with open(path, "w", encoding="utf-8", newline="\n") as f:
            f.write("" if names[0] is None else ",".join(names) + "\n")
            for start in range(0, len(data[0]), step):
                block = (np.asarray(column[start:start + step]).tolist() for column in data)
                f.write("".join(line % row for row in zip(*block)))
    except OSError as exc:
        raise IoError(f"{path}: {exc}") from exc


def check_writable(path) -> None:
    """An IoError naming path unless a file can be written there; creates and truncates nothing."""
    parent = os.path.dirname(os.path.abspath(path))
    if os.path.isdir(path) or not os.path.isdir(parent) or not os.access(
            path if os.path.exists(path) else parent, os.W_OK):
        raise IoError(f"{path}: cannot write a file there")
