"""CSV ingestion and atomic artifact output.

Numbers are written with 17 significant digits so a save/load round trip
reproduces doubles exactly; every file is written to a temporary sibling
and renamed into place, so readers never observe a half-written artifact.
"""

import contextlib
import os

import numpy as np

FLOAT_FMT = "%.17g"


def load_csv(path):
    """Read a dense numeric CSV.

    Returns (values, header, row_labels): header is the list of column
    names when the first line is non-numeric, row_labels the list of
    first-column labels when the first body cell is non-numeric or, under a
    header, any body row's first cell is; either is None when absent.
    Raises ValueError on empty files, ragged rows, any non-numeric data cell
    (reported with line and column) or a header not naming each value column.
    """
    lines, numbers, vectorizable = _read_lines(path)
    if not lines:
        raise ValueError(f"{path}: empty file")

    # the common file, numbers only with no header or row labels: one np.loadtxt
    plain = vectorizable and _numeric(lines[0].split(",", 1)[0])
    matrix = _parse_body(lines) if plain else None
    if matrix is not None:
        return matrix, None, None

    header = None
    if not all(map(_numeric, first := lines[0].split(","))):
        header, header_line = [c.strip() for c in first], numbers[0]
        lines, numbers = lines[1:], numbers[1:]
        if not lines:
            raise ValueError(f"{path}: header but no data rows")

    labels = [line.partition(",")[0] for line in lines]
    # under a header, a number among the labels (a numeric gene id) is a label too
    labeled = not _numeric(labels[0]) or header is not None and not all(map(_numeric, labels))
    width = len(lines[0].split(","))
    if labeled and header is not None and len(header) == width:
        header = header[1:]
    if header is not None and len(header) != width - labeled:
        raise ValueError(f"{path}: line {header_line}: header has {len(header)} names "
                         f"for {width - labeled} columns")
    row_labels = [label.strip() for label in labels] if labeled else None
    body = [line[len(label) + 1:] for line, label in zip(lines, labels)] if labeled else lines
    # skip what loadtxt rejected above (no header or labels) or warns on (empty values)
    if vectorizable and (header is not None or labeled) and all(body):
        matrix = _parse_body(body)
    if matrix is None:
        matrix = _parse_cells(path, lines, numbers, width, labeled)
    if matrix.size == 0:
        raise ValueError(f"{path}: no numeric data")
    return matrix, header, row_labels


def _numeric(cell):
    """Whether float() reads cell, which tells data from a header or a label."""
    try:
        float(cell)
        return True
    except ValueError:
        return False


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


def _parse_body(lines):
    """lines as one np.loadtxt call, or None when only the per-cell parse can
    decide: an error to report, a ragged row among them, or a cell only float() reads."""
    try:
        matrix = np.loadtxt(lines, delimiter=",", comments=None, ndmin=2)
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


# cells formatted per write: bounds each block's working arrays at ~2 MB
_BLOCK_CELLS = 1 << 13


def save_csv(path, matrix, header=None, row_labels=None):
    """load_csv's dual: write a matrix (a 1-D vector as one column) atomically,
    under header, with row_labels (one per row) as a first column if given.
    An empty matrix, a header not naming each column written, or names and
    labels that load_csv would not read back as written, raise."""
    matrix = np.asarray(matrix, dtype=float)
    if matrix.ndim == 1:
        matrix = matrix[:, None]
    n_rows, n_cols = matrix.shape
    if row_labels is not None and len(row_labels) != n_rows:
        raise ValueError(f"{len(row_labels)} row labels for {n_rows} rows")
    if matrix.size == 0:
        raise ValueError(f"no CSV form for a matrix of shape {matrix.shape}")
    if header is not None and len(header) != (width := n_cols + (row_labels is not None)):
        raise ValueError(f"header has {len(header)} names for {width} columns")
    _check_names(header, row_labels)
    step = max(1, _BLOCK_CELLS // n_cols)
    with _atomic_file(path) as fh:
        if header is not None:
            fh.write(",".join(header) + "\n")
        for start in range(0, n_rows, step):
            text = _format_rows(matrix[start:start + step])
            if row_labels is not None:
                text = "".join(f"{label},{row}\n" for label, row in
                               zip(row_labels[start:start + step], text.split("\n")))
            fh.write(text)


def _check_names(header, row_labels):
    """Raise unless load_csv reads header and row_labels back as written:
    the header line must read as one, and a name or label must keep its
    cell (no comma or line break) and its spaces (none around it). Labels
    need a header, or the first labeled row would read as one."""
    if row_labels is not None and header is None:
        raise ValueError("row labels need a header: without one the first "
                         "labeled row reads back as a header")
    if header is not None:
        line = ",".join(header)
        if not line or line[0] == "\ufeff" or all(map(_numeric, header)):
            raise ValueError(f"header line {line!r} does not read back as written")
    for name in [*(header or ()), *(() if row_labels is None else row_labels)]:
        name = str(name)
        if "," in name or "\n" in name or "\r" in name or name != name.strip():
            raise ValueError(f"name or label {name!r} does not read back: it holds "
                             "a comma, a line break or surrounding whitespace")


# The exact range, 1e-11 < |x| < 2**51: each such x prints with a decimal
# exponent k in [-11, 15], so 10**(16 - k) = 5**s * 2**s with s in [1, 27]
# and 5**s < 2**63. Other cells (non-finite, huge, tiny, subnormal) take one
# batched '%' per block.
_POW5 = 5 ** np.arange(28, dtype=np.uint64)
_POS = np.arange(18, dtype=np.int8)[:, None]  # a position in the digit block
_WIDTH = 28  # 5 lead bytes, 18 digit-block bytes, "e-dd" and the separator
# per (k + 11) * 2 + sign: the sign and the fixed form's "0.00" before the
# digit block, right-aligned; the block starts with the last of "0.000"
_LEADS = np.array([("-" * neg + ("0.000"[:-k] if -4 <= k < 0 else "")).rjust(5, "\0")
                   for k in range(-11, 16) for neg in (0, 1)], dtype="S5")


def _scaled(mant, exp, k):
    """(floor(q), whether q rounds up to even) for q = v * 10**(16 - k) and
    v = mant * 2**(exp - 53): the product mant * 5**s, held exactly in two
    uint64 limbs from 32-bit halves (no partial product reaches 2**64), shifted
    right by r = 53 - exp - s bits, which the exact range keeps in [1, 63]."""
    s = 16 - k
    r = (53 - exp - s).astype(np.uint64)
    five = _POW5[s]
    m_lo, m_hi, f_lo, f_hi = mant & 0xFFFFFFFF, mant >> 32, five & 0xFFFFFFFF, five >> 32
    mid = m_hi * f_lo + m_lo * f_hi
    part = m_lo * f_lo
    lo = part + (mid << 32)
    hi = m_hi * f_hi + (mid >> 32) + (lo < part)
    floor = (hi << (64 - r)) | (lo >> r)
    # the r dropped bits, moved to the top: above 2**63 rounds up, at it ties
    return floor, ((lo << (64 - r)) | (floor & 1)) > 1 << 63


def _format_rows(block):
    """The rows of a 2-D block as text, each cell exactly FLOAT_FMT % cell,
    cells joined by "," and rows ended by "\\n". Zeros and cells in the exact
    range take the 17 digits round(|x| * 10**(16 - k)) from _scaled and %g's
    layout, built one byte position per row over all cells, NUL where a cell
    is shorter, then transposed and stripped of the NULs."""
    n_rows, n_cols = block.shape
    x = block.ravel()
    n = x.size
    mag = np.abs(x)
    exact = (mag > 1e-11) & (mag < 2.0 ** 51)  # the exact range
    zero = mag == 0
    v = np.where(exact, mag, 1.0)  # a stand-in keeps frexp and log10 quiet
    frac, exp = np.frexp(v)
    mant, exp = (frac * 2.0 ** 53).astype(np.uint64), exp.astype(np.int64)
    k = np.maximum(np.floor(np.log10(v)), -11).astype(np.int64)
    digits, up = _scaled(mant, exp, k)
    # log10 may put k one off beside a power of ten. The truncated quotient
    # decides k: rounding first would print 1e-07 (a double just below 1e-7)
    # as 1e-07, not 9.9999999999999995e-08
    while (off := np.flatnonzero((digits < 10 ** 16) | (digits >= 10 ** 17))).size:
        k[off] += np.where(digits[off] < 10 ** 16, -1, 1)
        digits[off], up[off] = _scaled(mant[off], exp[off], k[off])
    digits += up
    carry = digits == 10 ** 17  # 9.99..95 rounded up to 10.0..
    digits[carry] = 10 ** 16
    k = np.where(zero, 0, k + carry).astype(np.int8)
    digits[zero] = 0

    # rows 1-17: the digits, most significant first; rows 0 and 18 stay 0
    digit_rows = np.zeros((19, n), np.uint8)
    top, low = np.divmod(digits, 10 ** 8)
    digit_rows[1], top = np.divmod(top, 10 ** 8)
    chunks = np.stack([top, low]).astype(np.uint32)
    for j in range(9, 1, -1):
        quot = chunks // 10
        digit_rows[[j, j + 8]] = chunks - quot * 10
        chunks = quot
    # keep the digits through the last nonzero one and the whole integer
    # part, as ASCII; the dropped zeros stay NUL
    kept = np.maximum(((digit_rows[1:18] != 0) * _POS[1:]).max(axis=0), k + 1)
    digit_rows[1:18] |= (_POS[:17] < kept).view(np.uint8) * np.uint8(ord("0"))

    # the digit block: the digits with one character inserted at position at,
    # the point after the integer part (k >= 0) or after the first digit
    # (k < -4), or for 0 > k >= -4 the last character of "0.000"
    fixed = k >= -4
    at = (k + 1) * (k >= 0) + ~fixed
    mark = (kept > at) * ord(".") + ((k < -1) & fixed) * (ord("0") - ord("."))
    text = np.empty((_WIDTH, n), np.uint8)
    text[:5] = _LEADS[(k + 11) * 2 + np.signbit(x)].view(np.uint8).reshape(n, 5).T
    body = text[5:23]
    np.subtract(digit_rows[:18], digit_rows[1:], out=body)
    body *= (_POS > at).view(np.uint8)
    body += digit_rows[1:]
    body -= (body - mark.astype(np.uint8)) * (_POS == at).view(np.uint8)
    sep = np.where(np.arange(n) % n_cols == n_cols - 1, ord("\n"), ord(","))
    # exponents in this range are -05 to -11
    e_form, tens = ~fixed, k <= -10
    text[23] = np.where(e_form, ord("e"), sep)
    text[24] = e_form * ord("-")
    text[25] = e_form * (ord("0") + tens)
    text[26] = e_form * (ord("0") - k - 10 * tens)
    text[27] = e_form * sep

    rest = np.flatnonzero(~(exact | zero))
    if rest.size:
        fmt = ",".join([FLOAT_FMT] * rest.size).encode()
        cells = np.array((fmt % tuple(x[rest].tolist())).split(b","), f"S{_WIDTH}")
        chars = cells.view(np.uint8).reshape(rest.size, _WIDTH)
        chars[np.arange(rest.size), np.strings.str_len(cells)] = sep[rest]
        text[:, rest] = chars.T
    text = np.ascontiguousarray(text.T)
    return text[text != 0].tobytes().decode("ascii")


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
