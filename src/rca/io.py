"""CSV ingestion and atomic artifact output.

Numbers are written with 17 significant digits so a save/load round trip
reproduces doubles exactly; every file is written to a temporary sibling
and renamed into place, so readers never observe a half-written artifact.
"""

import contextlib
import itertools
import os

import numpy as np

FLOAT_FMT = "%.17g"


def load_csv(path):
    """Read a dense numeric CSV.

    Returns (values, header, row_labels): header is the list of column
    names when the first line is non-numeric, row_labels the list of
    first-column labels when that column is non-numeric; either is None
    when absent. Raises ValueError on empty files, ragged rows, or any
    non-numeric data cell (reported with line and column).
    """
    lines, numbers, vectorizable = _read_lines(path)
    if not lines:
        raise ValueError(f"{path}: empty file")

    def numeric(cell):
        try:
            float(cell)
            return True
        except ValueError:
            return False

    # the common file, numbers only with no header or row labels: one np.loadtxt
    plain = vectorizable and numeric(lines[0].split(",", 1)[0])
    matrix = _parse_body(lines, None) if plain else None
    if matrix is not None:
        return matrix, None, None

    header = None
    first = lines[0].split(",")
    if not all(numeric(c) for c in first):
        header = [c.strip() for c in first]
        lines, numbers = lines[1:], numbers[1:]
        if not lines:
            raise ValueError(f"{path}: header but no data rows")
        first = lines[0].split(",")

    labeled = not numeric(first[0])
    if labeled and header is not None and len(header) == len(first):
        header = header[1:]
    width = len(first)
    row_labels = None
    if labeled:
        row_labels = [line.split(",", 1)[0].strip() for line in lines]
    # without a header or labels, these are the lines the call above rejected
    if vectorizable and (header is not None or labeled):
        matrix = _parse_body(lines, width if labeled else None)
    if matrix is None:
        matrix = _parse_cells(path, lines, numbers, width, labeled)
    if matrix.ndim != 2 or matrix.size == 0:
        raise ValueError(f"{path}: no numeric data")
    return matrix, header, row_labels


# np.loadtxt strips these around a number and float() does not
_LOADTXT_ONLY_SPACE = "\x1c\x1d\x1e\x1f"


def _read_lines(path):
    """The non-empty lines of path, their physical line numbers, and whether
    np.loadtxt may parse them.

    Text mode has already turned \\r\\n and \\r into \\n, and utf-8-sig has
    dropped a leading byte-order mark. splitlines() would also split on \\f,
    \\v and Unicode separators, which float() strips.
    """
    with open(path, encoding="utf-8-sig") as fh:
        text = fh.read()
    vectorizable = not any(c in text for c in _LOADTXT_ONLY_SPACE)
    lines = text.split("\n")
    numbers = [i for i, line in enumerate(lines, 1) if line != ""]
    return [lines[i - 1] for i in numbers], numbers, vectorizable


def _parse_body(lines, label_width):
    """The body as one np.loadtxt call, or None when only the per-cell
    parse can decide (an error to report, or a cell only float() reads).
    label_width is the column count of a body whose first column holds row
    labels, None for an unlabeled body (loadtxt rejects ragged rows itself)."""
    labeled = label_width is not None
    if labeled and any(line.count(",") != label_width - 1 for line in lines):
        return None  # loadtxt ignores columns past usecols
    try:
        matrix = np.loadtxt(lines, delimiter=",", comments=None, ndmin=2,
                            usecols=range(1, label_width) if labeled else None)
    except ValueError:
        return None
    # one row per body line, should a numpy version skip a line as blank
    return matrix if matrix.shape[0] == len(lines) else None


def _parse_cells(path, lines, numbers, width, labeled):
    """The body one float() per cell, raising at the first bad line or cell
    with its physical line number and column."""
    values = []
    for number, line in zip(numbers, lines):
        row = line.split(",")
        if len(row) != width:
            raise ValueError(f"{path}: line {number}: expected {width} "
                             f"columns, found {len(row)}")
        if labeled:
            row = row[1:]
        parsed = []
        for j, cell in enumerate(row):
            try:
                parsed.append(float(cell))
            except ValueError:
                col = j + (2 if labeled else 1)
                raise ValueError(f"{path}: line {number}, column {col}: "
                                 f"not a number: {cell.strip()!r}") from None
        values.append(parsed)
    return np.array(values, dtype=float)


@contextlib.contextmanager
def _atomic_file(path):
    """A text file opened on a temporary sibling of path and renamed onto
    path when the block exits normally; removed if it raises. Created by a
    plain exclusive open, so it gets the mode the umask gives any new file."""
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    tmp = os.path.join(directory, f".tmp-{os.urandom(8).hex()}")
    fh = open(tmp, "x", encoding="utf-8", newline="\n")
    try:
        with fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def atomic_write_text(path, text):
    """Write text to path via a temporary file and rename."""
    with _atomic_file(path) as fh:
        fh.write(text)


# cells formatted per write: bounds the text held in memory at ~1.5 MB
_BLOCK_CELLS = 1 << 16


def save_csv(path, matrix, header=None, row_labels=None):
    """load_csv's dual: write a matrix (a 1-D vector as one column) atomically,
    under header, with row_labels (one per row) as a first column if given."""
    matrix = np.asarray(matrix, dtype=float)
    if matrix.ndim == 1:
        matrix = matrix[:, None]
    n_rows, n_cols = matrix.shape
    if row_labels is not None and len(row_labels) != n_rows:
        raise ValueError(f"{len(row_labels)} row labels for {n_rows} rows")
    row_fmt = ",".join(["%s"] * (row_labels is not None) + [FLOAT_FMT] * n_cols) + "\n"
    step = max(1, _BLOCK_CELLS // max(n_cols, 1))
    with _atomic_file(path) as fh:
        if header is not None:
            fh.write(",".join(header) + "\n")
        elif n_rows == 0:
            fh.write("\n")  # every file ends in a newline, even with no lines
        for start in range(0, n_rows, step):
            block = matrix[start:start + step]
            cells = block.ravel().tolist() if row_labels is None else \
                itertools.chain.from_iterable(zip(row_labels[start:start + step], *block.T.tolist()))
            fh.write((row_fmt * len(block)) % tuple(cells))


def format_manifest(entries):
    """Plain-text key=value manifest, one entry per line, sorted by key.
    A key or value holding a line break would forge or split an entry, so
    it is rejected."""
    lines = []
    for key in sorted(entries):
        value = entries[key]
        line = f"{key}={FLOAT_FMT % value if isinstance(value, float) else value}"
        if "\n" in line or "\r" in line:
            raise ValueError(f"manifest entry {key!r} holds a line break: {line!r}")
        lines.append(line)
    return "\n".join(lines) + "\n"


def read_manifest(path):
    """Parse a key=value manifest back into a dict of strings."""
    entries = {}
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if not line:
                continue
            key, _, value = line.partition("=")
            entries[key] = value
    return entries
