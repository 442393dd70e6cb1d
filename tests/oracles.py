"""Independent slow-path oracles the test suite checks the library against.

Everything in here is deliberately written from first principles (rotation
sweeps, power iteration, cofactor expansion, Gauss-Jordan, the whitened
cross-covariance of CCA) so it shares no code path with the implementations
under test.
"""

import math

import numpy as np


def jacobi_eigh(a, sweeps=100, tol=1e-13):
    """Symmetric eigendecomposition by cyclic Jacobi rotation sweeps.

    Returns (values sorted descending, orthonormal vectors as columns).
    """
    a = np.array(a, dtype=float)
    n = a.shape[0]
    v = np.eye(n)
    scale = max(np.sqrt((a * a).sum()), 1e-300)
    for _ in range(sweeps):
        off = np.sqrt((np.tril(a, -1) ** 2).sum())
        if off <= tol * scale:
            break
        for p in range(n - 1):
            for q in range(p + 1, n):
                if abs(a[p, q]) <= 1e-300:
                    continue
                theta = (a[q, q] - a[p, p]) / (2.0 * a[p, q])
                if theta == 0.0:
                    t = 1.0
                else:
                    t = math.copysign(1.0, theta) / (abs(theta) + math.hypot(theta, 1.0))
                c = 1.0 / math.hypot(t, 1.0)
                s = t * c
                rot = np.eye(n)
                rot[p, p] = c
                rot[q, q] = c
                rot[p, q] = s
                rot[q, p] = -s
                a = rot.T @ a @ rot
                v = v @ rot
    order = np.argsort(np.diag(a))[::-1]
    return np.diag(a)[order], v[:, order]


def power_deflation_gen_eigvals(a, sigma, iters=200000, tol=1e-15):
    """Eigenvalues of the nonsymmetric problem Sigma^{-1} A by power
    iteration with deflation.

    Right eigenvectors v of B = Sigma^{-1} A pair with left eigenvectors
    Sigma v, which drives the deflation step. Requires A symmetric PSD and
    Sigma SPD so all eigenvalues are real and nonnegative.
    """
    a = np.array(a, dtype=float)
    sigma = np.array(sigma, dtype=float)
    n = a.shape[0]
    b = np.linalg.solve(sigma, a)
    rng = np.random.default_rng(12345)
    values = []
    for _ in range(n):
        v = rng.standard_normal(n)
        v /= np.linalg.norm(v)
        lam = 0.0
        for _ in range(iters):
            w = b @ v
            norm = np.linalg.norm(w)
            if norm < 1e-250:
                lam = 0.0
                break
            w /= norm
            if min(np.linalg.norm(w - v), np.linalg.norm(w + v)) < tol:
                v = w
                lam = norm
                break
            v = w
            lam = norm
        lam = float(v @ b @ v)
        values.append(lam)
        left = sigma @ v
        b = b - np.outer(v, left) @ b / float(left @ v)
    return np.sort(np.array(values))[::-1]


def cofactor_det(a):
    """Determinant by recursive cofactor expansion along the first row."""
    a = np.asarray(a, dtype=float)
    n = a.shape[0]
    if n == 1:
        return a[0, 0]
    total = 0.0
    for j in range(n):
        minor = np.delete(np.delete(a, 0, axis=0), j, axis=1)
        total += ((-1.0) ** j) * a[0, j] * cofactor_det(minor)
    return total


def gauss_jordan_inv(a):
    """Matrix inverse by Gauss-Jordan elimination with partial pivoting."""
    a = np.array(a, dtype=float)
    n = a.shape[0]
    aug = np.hstack([a, np.eye(n)])
    for col in range(n):
        pivot = col + int(np.argmax(np.abs(aug[col:, col])))
        if abs(aug[pivot, col]) < 1e-300:
            raise ZeroDivisionError("singular matrix")
        if pivot != col:
            aug[[col, pivot]] = aug[[pivot, col]]
        aug[col] /= aug[col, col]
        for row in range(n):
            if row != col:
                aug[row] -= aug[row, col] * aug[col]
    return aug[:, n:]


def gaussian_loglik(y, k):
    """Log density of the columns of y under N(0, k), via cofactor
    determinant and Gauss-Jordan inverse."""
    y = np.asarray(y, dtype=float)
    n, d = y.shape
    det = cofactor_det(k)
    kinv = gauss_jordan_inv(k)
    quad = float(np.trace(y @ y.T @ kinv))
    return -0.5 * d * math.log(det) - 0.5 * quad - 0.5 * n * d * math.log(2.0 * math.pi)


def tipping_bishop_loadings(y, sigma2):
    """Closed-form PPCA loadings U_q diag(sqrt(lambda_q - sigma2)) from the
    eigendecomposition of the sample covariance (1/n convention)."""
    y = np.asarray(y, dtype=float)
    n = y.shape[0]
    yc = y - y.mean(axis=0)
    cov = yc.T @ yc / n
    lam, u = np.linalg.eigh(cov)
    order = np.argsort(lam)[::-1]
    lam, u = lam[order], u[:, order]
    keep = lam > sigma2
    return u[:, keep] * np.sqrt(lam[keep] - sigma2)


def cca_correlations(y1, y2):
    """Canonical correlations by the direct route: eigenvalues of the
    whitened cross-covariance product C11^-1/2 C12 C22^-1 C21 C11^-1/2 of the
    centred views (1/n convention). Returns all min(d1, d2) correlations,
    descending; LinAlgError when a view's covariance is degenerate."""
    y1 = np.asarray(y1, dtype=float)
    y2 = np.asarray(y2, dtype=float)
    n = y1.shape[0]
    y1c = y1 - y1.mean(axis=0)
    y2c = y2 - y2.mean(axis=0)
    c11, c22, c12 = y1c.T @ y1c / n, y2c.T @ y2c / n, y1c.T @ y2c / n

    def inv_sqrt(m):
        lam, u = np.linalg.eigh(m)
        if lam.min() <= 1e-12 * lam.max():
            raise np.linalg.LinAlgError("degenerate view covariance")
        return (u / np.sqrt(lam)) @ u.T

    m = inv_sqrt(c11) @ c12 @ np.linalg.inv(c22) @ c12.T @ inv_sqrt(c11)
    lam = np.linalg.eigvalsh(0.5 * (m + m.T))[::-1]
    rho2 = np.clip(lam, 0.0, None)[:min(c11.shape[0], c22.shape[0])]
    return np.sqrt(rho2)


def principal_angles_deg(a, b):
    """Principal angles (degrees) between the column spans of a and b."""
    qa, _ = np.linalg.qr(np.asarray(a, dtype=float))
    qb, _ = np.linalg.qr(np.asarray(b, dtype=float))
    svals = np.linalg.svd(qa.T @ qb, compute_uv=False)
    return np.degrees(np.arccos(np.clip(svals, -1.0, 1.0)))


def float_cell_csv(path):
    """Dense CSV read one float() call per cell, with load_csv's contract:
    (values, header, row_labels), or ValueError naming the line and column.
    A header names every value column, and may name the label column too.

    Lines come from text-mode iteration (\\r\\n and \\r end a line, nothing
    else does); blank lines are skipped but still count toward the physical
    line numbers that errors report.
    """
    with open(path, encoding="utf-8-sig") as fh:
        numbered = [(number, line.rstrip("\n").split(","))
                    for number, line in enumerate(fh, 1) if line != "\n"]
    numbers = [number for number, _ in numbered]
    rows = [row for _, row in numbered]
    if not rows:
        raise ValueError(f"{path}: empty file")

    def is_number(cell):
        try:
            float(cell)
        except ValueError:
            return False
        return True

    header = None
    if not all(is_number(cell) for cell in rows[0]):
        header = [cell.strip() for cell in rows.pop(0)]
        header_line = numbers.pop(0)
        if not rows:
            raise ValueError(f"{path}: header but no data rows")
    labeled = not is_number(rows[0][0]) or header is not None and not all(
        is_number(row[0]) for row in rows)
    width = len(rows[0])
    if labeled and header is not None and len(header) == width:
        header = header[1:]
    if header is not None and len(header) != width - labeled:
        raise ValueError(f"{path}: line {header_line}: header has {len(header)} "
                         f"names for {width - labeled} columns")
    labels = [] if labeled else None
    values = np.empty((len(rows), width - labeled))
    for i, (number, row) in enumerate(zip(numbers, rows)):
        if len(row) != width:
            raise ValueError(f"{path}: line {number}: expected "
                             f"{width} columns, found {len(row)}")
        if labeled:
            labels.append(row[0].strip())
        for j in range(labeled, width):
            try:
                values[i, j - labeled] = float(row[j])
            except ValueError:
                raise ValueError(f"{path}: line {number}, column "
                                 f"{j + 1}: not a number: "
                                 f"{row[j].strip()!r}") from None
    if values.size == 0:
        raise ValueError(f"{path}: no numeric data")
    return values, header, labels


def percent_csv(matrix, header=None, row_labels=None):
    """The text save_csv writes, built one '%.17g' % cell at a time: the
    header line if any, then one line per row, its label first when
    row_labels are given."""
    matrix = np.asarray(matrix, dtype=float)
    if matrix.ndim == 1:
        matrix = matrix[:, None]
    lines = [] if header is None else [",".join(header)]
    for i, row in enumerate(matrix.tolist()):
        label = [] if row_labels is None else [str(row_labels[i])]
        lines.append(",".join(label + ["%.17g" % value for value in row]))
    return "".join(line + "\n" for line in lines)
