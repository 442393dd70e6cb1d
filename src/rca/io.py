"""CSV ingestion and atomic artifact output.

Numbers are written with 17 significant digits so a save/load round trip
reproduces doubles exactly; every file is written to a temporary sibling
and renamed into place, so readers never observe a half-written artifact.
Both directions run numpy kernels over blocks of cells. The writer finds
each cell's 17 digits with integer arithmetic (_exact_cells); the reader
reads digits 8 to a uint64 word and rounds them exactly (_kernel), where
float(), which np.loadtxt also calls per cell, takes a big-integer path on
every cell of more than 15 digits. Cells outside a kernel's range take
'%' or float() themselves, so the bytes and values are always theirs.
"""

import codecs
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
    data = _read(path)
    bounds, last = _split(data)
    if not last.size:
        raise ValueError(f"{path}: empty file")

    # a number first: every row is parsed, so a numbers-only file takes one parse
    if plain := _numeric(_text(data, bounds, 0)):
        lo, hi, end = _rows(bounds, last, 0)
        matrix, bad = _parse(data, lo, hi)

    header = None
    row = 0  # the first body row
    if not plain or 0 <= bad <= last[0]:
        header = [_text(data, bounds, i).strip() for i in range(last[0] + 1)]
        header_line = data.count(b"\n", 0, bounds[last[0] + 1]) + 1
        row = 1
        if last.size == 1:
            raise ValueError(f"{path}: header but no data rows")

    # each body row's first cell: labels when the first of them is not a
    # number or, under a header, when any is not (a numeric gene id)
    firsts = np.concatenate([[-1], last[:-1]])[row:] + 1
    labeled = not _numeric(_text(data, bounds, firsts[0]))
    if header is not None:  # else the body is the whole file, parsed above
        lo, hi, end = _rows(bounds, last, 1)
        matrix, bad = _parse(data, lo[:, labeled:], hi[:, labeled:])
        if not labeled and (bad >= 0 or end < last.size):
            labeled = _parse(data, bounds[firsts, None], bounds[firsts + 1, None])[1] >= 0
            if labeled:
                matrix, bad = _parse(data, lo[:, 1:], hi[:, 1:])
    width = lo.shape[1]
    if labeled and len(header) == width:
        header = header[1:]
    if header is not None and len(header) != width - labeled:
        raise ValueError(f"{path}: line {header_line}: header has {len(header)} names "
                         f"for {width - labeled} columns")
    row_labels = [data[lo + 1:hi].decode().strip() for lo, hi in zip(
        bounds[firsts].tolist(), bounds[firsts + 1].tolist())] if labeled else None
    if bad >= 0 or end < last.size:
        data.decode()  # a file that is not UTF-8 raises UnicodeDecodeError first
        # the first refused cell comes before the first ragged row, where the parse ends
        r, c = divmod(bad, width - labeled) if bad >= 0 else (end - row, None)
        line = data.count(b"\n", 0, bounds[firsts[r] + 1]) + 1
        if c is None:
            raise ValueError(f"{path}: line {line}: expected {width} columns, "
                             f"found {last[end] - firsts[r] + 1}")
        raise ValueError(f"{path}: line {line}, column {labeled + c + 1}: not a number: "
                         f"{_text(data, bounds, firsts[r] + labeled + c).strip()!r}")
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


def _read(path):
    """The bytes of path as utf-8-sig text mode reads them: without a
    leading byte-order mark, and with \\r\\n and \\r turned into \\n. No
    UTF-8 sequence holds an ASCII byte, so each cell decodes on its own, and
    a cell that is not UTF-8 raises UnicodeDecodeError (a ValueError) when
    it is decoded; the kernel reads only cells of ASCII digits."""
    with open(path, "rb") as fh:
        data = fh.read()
    if data.startswith(codecs.BOM_UTF8):
        data = data[len(codecs.BOM_UTF8):]
    if b"\r" in data:
        data = data.replace(b"\r\n", b"\n").replace(b"\r", b"\n")
    return data


# bytes scanned for separators per step: bounds each step's masks at ~1 MB
_BLOCK_BYTES = 1 << 20
# files below this size keep their cell bounds, at most len(data), in int32
_INT32_BYTES = 1 << 31
# cells per kernel tile, parsed or formatted: bounds its arrays at a few MB
_BLOCK_CELLS = 1 << 13


def _split(data):
    """(bounds, last): cell i of data is data[bounds[i] + 1:bounds[i + 1]],
    and last holds the index of each row's last cell.

    bounds holds -1, the offset of each comma and of each newline that ends
    a non-blank line, then len(data) when the last line has no newline, as
    int32 below _INT32_BYTES and int64 from there. A blank line's newline is
    no separator: it joins the next cell, and float() and strip() drop it
    from there. Only "," and "\\n" separate, as for str.split; splitlines()
    would also split on \\f, \\v and Unicode separators, which float() strips.
    """
    arr = np.frombuffer(data, np.uint8)
    dtype = np.int32 if arr.size < _INT32_BYTES else np.int64
    bounds = [np.array([-1], dtype)]
    for at in range(0, arr.size, _BLOCK_BYTES):
        # "," and "\n" are below "-", as are few other bytes a number holds
        found = np.flatnonzero(arr[at:at + _BLOCK_BYTES] < ord("-")) + at
        byte = arr[found]
        # a newline first in the file or right after another ends a blank line
        newline = (byte == ord("\n")) & (arr[found - 1] != ord("\n")) & (found > 0)
        bounds.append(found[newline | (byte == ord(","))].astype(dtype))
    if arr.size and arr[-1] != ord("\n"):
        bounds.append(np.array([arr.size], dtype))
    bounds = np.concatenate(bounds)
    # a row ends at each bound that is no comma: a newline, or len(data)
    ends = bounds[1:]
    return bounds, np.flatnonzero((arr.take(ends, mode="clip") != ord(",")) | (ends == arr.size))


def _text(data, bounds, i):
    """Cell i as text."""
    return data[bounds[i] + 1:bounds[i + 1]].decode()


def _rows(bounds, last, row):
    """(lo, hi, end): the bounds before and after each cell of rows row to
    end - 1, one array row per CSV row, where end is the first row of
    another width than row's, or last.size when there is none."""
    first = last[row - 1] + 1 if row else 0
    width = last[row] - first + 1
    other = np.flatnonzero(np.diff(last[row:]) != width)
    end = row + 1 + int(other[0]) if other.size else last.size
    cells = bounds[first:first + (end - row) * width + 1]
    return cells[:-1].reshape(-1, width), cells[1:].reshape(-1, width), end


# The parse kernel reads the last _CELL bytes before each cell's end. A cell
# -?digits[.digits] of at most _CELL bytes, whose digits read as one
# integer V < 2**62 with f <= 22 of them after the point, is V / 10**f with
# 10**f exact. The kernel rounds it as float() does (Clinger, PLDI 1990),
# from q1 = fl(fl(V) / 10**f) and the remainder V - q1 * 10**f, made exact
# by Dekker's product (Numer. Math. 18, 1971). Every other cell, and one
# within 2**-30 ulp of a tie, takes float().
_CELL = 24
# _FROM[j, k]: word j of a cell's bytes, little-endian, with 0xFF in bytes
# k and after, 0 before them
_FROM = np.array([[sum(0xFF << 8 * (b - 8 * j) for b in range(max(k, 8 * j), 8 * j + 8))
                   for k in range(_CELL + 1)] for j in range(3)], np.uint64)
_BEFORE = ~_FROM
_TEN = 10.0 ** np.arange(23)
_TEN_HI = _TEN * (2 ** 27 + 1) - (_TEN * (2 ** 27 + 1) - _TEN)  # Dekker's split
_TEN_LO = _TEN - _TEN_HI


def _bytes(byte):
    """byte in each byte of a uint64."""
    return np.uint64(byte * 0x0101010101010101)


def _parse(data, lo, hi):
    """(values, bad): the cells between bounds lo and hi (2-D, as from
    _rows) as a float matrix of their shape, each cell as float() reads its
    text, and the flat index of the first cell float() refuses, or -1. The
    values from that cell on are left unset."""
    arr = np.frombuffer(data, np.uint8)
    if arr.size < _CELL:
        arr = np.zeros(_CELL, np.uint8)  # every cell ends before _CELL: float() reads all
    # each window of _CELL bytes as one item, gathered by its first offset
    windows = np.ndarray((arr.size - _CELL + 1,), f"V{_CELL}", arr, 0, (1,))
    out = np.empty(lo.shape)
    for tile in _tiles(lo.shape, _BLOCK_CELLS):
        start, end = lo[tile].ravel() + 1, hi[tile].ravel()
        values, fast = _kernel(arr, windows, start, end)
        for i in np.flatnonzero(~fast).tolist():
            try:
                values[i] = float(data[start[i]:end[i]].decode())
            except ValueError:  # its flat index in lo, where no two bounds are equal
                return out, int(np.flatnonzero(lo == start[i] - 1)[0])
        out[tile] = values.reshape(out[tile].shape)
    return out, -1


def _tiles(shape, cells):
    """(rows, cols) slices that cut a matrix of shape into tiles of at most
    cells cells, in file order: whole rows, or parts of one row when a row
    is wider."""
    cols = max(1, min(shape[1], cells))
    rows = cells // cols
    return [(slice(r, r + rows), slice(c, c + cols)) for r in range(0, shape[0], rows)
            for c in range(0, shape[1], cols)]


def _kernel(arr, windows, start, end):
    """(values, fast): each cell arr[start:end] as V / 10**f where fast, by
    the rule above _CELL; fast is False where float() must read the cell."""
    neg = arr[np.minimum(start, arr.size - 1)] == ord("-")
    lead = _CELL - (end - start) + neg  # the window byte of the first digit
    fast = (lead < _CELL) & (lead >= 0) & (end >= _CELL)
    # the cell's bytes after the sign, right-aligned in three words (one row
    # each), XOR "0" so that digits read 0-9, and 0 before them
    x = windows[np.maximum(end - _CELL, 0)].view(np.uint64).reshape(-1, 3).T.copy()
    x ^= _bytes(ord("0"))
    x &= _FROM.take(np.clip(lead, 0, _CELL), axis=1)
    # the top bit of each byte that is no digit, byte k of word j at bit 8k + 7 - j
    high = (((x & _bytes(0x7F)) + _bytes(0x76)) | x) & _bytes(0x80)
    others = high[0] | high[1] >> np.uint64(1) | high[2] >> np.uint64(2)
    count = np.bitwise_count(others)
    point = count == 1
    bit = np.bitwise_count(others - np.uint64(1)).astype(np.int64)
    at = np.where(point, 8 * (7 - (bit & 7)) + (bit >> 3), -1)  # the point's byte
    fast &= (count == 0) | point & (arr[np.maximum(end - _CELL + at, 0)] == ord("."))
    fast &= lead + point < _CELL  # a digit besides the point
    # drop the point: the digits before it move one byte right
    shifted = x << np.uint64(8)
    shifted[1:] |= x[:-1] >> np.uint64(56)
    x ^= (x ^ shifted) & _BEFORE.take(at + 1, axis=1)
    f = np.where(point, _CELL - 1 - at, 0)
    # 8 digits per word, most significant byte first (SWAR)
    x = x * np.uint64(10 * 256 + 1) >> np.uint64(8)
    x = (x & np.uint64(0x00FF00FF00FF00FF)) * np.uint64(100 * 65536 + 1) >> np.uint64(16)
    x = (x & np.uint64(0x0000FFFF0000FFFF)) * np.uint64(10000 * 2 ** 32 + 1) >> np.uint64(32)
    fast &= (x[0] < 462) & (f <= 22)  # from 462 on, v >= 2**62 (or wraps round)
    v = (x[0] * np.uint64(10 ** 16) + x[1] * np.uint64(10 ** 8)) + x[2]
    fast &= v < np.uint64(2 ** 62)
    v[~fast] = 0
    f[~fast] = 0

    # q1 = fl(fl(v) / p), then the remainder r = v - q1 * p: v = vh + vl and
    # q1 * p = ph + pl exactly, and v - ph is exact (an integer below 2**11
    # when v >= 2**53, a Sterbenz difference when not)
    vh = v.astype(np.float64)
    vl = (v.astype(np.int64) - vh.astype(np.int64)).astype(np.float64)
    p = _TEN.take(f)
    q1 = vh / p
    split = q1 * (2 ** 27 + 1)
    qh = split - (split - q1)
    ql = q1 - qh
    p_hi, p_lo = _TEN_HI.take(f), _TEN_LO.take(f)
    ph = q1 * p
    pl = ((qh * p_hi - ph) + qh * p_lo + ql * p_hi) + ql * p_lo
    t = ((vh - ph) + vl - pl) / p  # v / p - q1, to a relative 2**-52
    q = q1 + t  # v / p rounded, unless v / p lies within ~2**-50 ulp of a tie
    d = (q1 - q) + t  # v / p - q
    # a tie lies halfway to q's neighbour on the side of d
    bits = q.view(np.int64)
    gap = np.abs((bits + 1 - 2 * (d < 0)).view(np.float64) - q)
    fast &= np.abs(2 * np.abs(d) - gap) > gap * 2.0 ** -29
    return np.where(neg, -q, q), fast


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
    header = None if header is None else list(map(str, header))  # str() names, as labels
    if header is not None and len(header) != (width := n_cols + (row_labels is not None)):
        raise ValueError(f"header has {len(header)} names for {width} columns")
    _check_names(header, row_labels)
    sep = np.where(np.arange(n_cols) == n_cols - 1, ord("\n"), ord(","))
    with _atomic_file(path) as fh:
        if header is not None:
            fh.write(",".join(header) + "\n")
        for rows, cols in _tiles(matrix.shape, _BLOCK_CELLS):
            text = _format_rows(matrix[rows, cols], sep[cols])
            if row_labels is not None and cols.start == 0:
                text = "".join(f"{label},{row}" for label, row in
                               zip(row_labels[rows], text.splitlines(True)))
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
    # one pass over all the names; only a refusal looks for the first offender
    names = [*(header or ()), *(() if row_labels is None else row_labels)]
    try:
        text = "".join(names)
    except TypeError:  # a label that is no str is written as str() gives it
        names = list(map(str, names))
        text = "".join(names)
    if "," in text or "\n" in text or "\r" in text or list(map(str.strip, names)) != names:
        name = next(name for name in names if "," in name or "\n" in name or "\r" in name
                    or name != name.strip())
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


def _format_rows(block, sep):
    """The rows of a 2-D block as text, each cell exactly FLOAT_FMT % cell and
    then its column's separator byte in sep: _exact_cells writes every cell, a
    zero in place of each one outside its range, and one batched '%'
    overwrites those; each cell is NUL-padded to _WIDTH bytes, then the NULs
    are stripped."""
    x = block.ravel()
    sep = np.tile(sep, block.shape[0])
    mag = np.abs(x)
    far = ~(((mag > 1e-11) & (mag < 2.0 ** 51)) | (mag == 0))
    mag[far] = 0
    text = _exact_cells(x, mag, sep)
    if (rest := np.flatnonzero(far)).size:
        fmt = ",".join([FLOAT_FMT] * rest.size).encode()
        cells = np.array((fmt % tuple(x[rest].tolist())).split(b","), f"S{_WIDTH}")
        chars = cells.view(np.uint8).reshape(rest.size, _WIDTH)
        chars[np.arange(rest.size), np.strings.str_len(cells)] = sep[rest]
        text[rest] = chars
    return text[text != 0].tobytes().decode("ascii")


def _exact_cells(x, mag, sep):
    """The cells x (each zero or in the exact range, mag = |x|) as
    FLOAT_FMT % cell and its separator sep, one row of _WIDTH bytes each,
    NUL where a cell is shorter. Each takes the 17 digits
    round(|x| * 10**(16 - k)) from _scaled and %g's layout, built one byte
    position per row over all cells, then transposed."""
    n = x.size
    zero = mag == 0
    v = np.where(zero, 1.0, mag)  # a stand-in keeps frexp and log10 quiet
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
    # exponents in this range are -05 to -11
    e_form, tens = ~fixed, k <= -10
    text[23] = np.where(e_form, ord("e"), sep)
    text[24] = e_form * ord("-")
    text[25] = e_form * (ord("0") + tens)
    text[26] = e_form * (ord("0") - k - 10 * tens)
    text[27] = e_form * sep

    return np.ascontiguousarray(text.T)


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
