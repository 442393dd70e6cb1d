"""The symmetric-definite generalized eigensolver.

Each route reduces ``A S = Sigma S D`` to one symmetric eigenproblem C = T A T'
= V D V', S = T' V with T Sigma T' = I, which also gives log|Sigma|. A dense
Sigma takes T = blockdiag(L_k^{-1}), L_k L_k' its k-th diagonal block (Golub &
Van Loan, Matrix Computations, 8.7), by a batched blocked triangular inverse
(_tri_inv); Sigma = D + F F' is never formed (gen_eig_lowrank).
"""

import math
from dataclasses import dataclass

import numpy as np

# Relative symmetry tolerance for inputs, and the floor/jitter policy for
# near-singular covariances: floor = JITTER_FLOOR * (trace/dim + jitter) per
# diagonal block, the jitter being one shot of JITTER_SCALE * trace/dim of the
# whole, added if a block's smallest eigenvalue sits at or below its floor.
SYMMETRY_RTOL = 1e-10
JITTER_FLOOR = 1e-12
JITTER_SCALE = 1e-10
LEAF = 32  # _tri_inv's largest leaf: a factor of at most LEAF rows is one inv, then tril


class NotPositiveDefiniteError(np.linalg.LinAlgError):
    """Raised when a covariance is not positive definite even after jitter."""


def as_matrix(a, name="matrix"):
    """Validate and return a 2-D float64 array: finite entries, both dims >= 1."""
    a = np.asarray(a, dtype=float)
    if a.ndim != 2 or a.shape[0] < 1 or a.shape[1] < 1:
        raise ValueError(f"{name} must be 2-D with at least one row and column, "
                         f"got shape {a.shape}")
    if not np.isfinite(a).all():
        raise ValueError(f"{name} contains non-finite entries")
    return a


def _frobenius(a):
    """(||a 2^-e||_F, e): e = 0 unless a's plain sum of squares overflows or
    underflows, else the exponent of max|a|, a scaling that is exact."""
    with np.errstate(over="ignore"):
        norm = np.linalg.norm(a)
    e = 0 if 1e-140 < norm < 1e140 else int(np.frexp(np.abs(a).max())[1])
    return float(np.linalg.norm(np.ldexp(a, -e)) if e else norm), e


def _diagonal_mean(*blocks):
    """(m, e): the mean of the blocks' diagonal entries is m 2^e, e = 0 unless
    their plain sum overflows, else the exponent of the largest, an exact scaling."""
    d = np.concatenate([np.diagonal(b) for b in blocks])
    with np.errstate(over="ignore"):
        m = d.mean()
    e = 0 if np.isfinite(m) else int(np.frexp(np.abs(d).max())[1])
    return float(np.ldexp(d, -e).mean() if e else m), e


def check_square_symmetric(a, name="matrix"):
    a = as_matrix(a, name)
    if a.shape[0] != a.shape[1]:
        raise ValueError(f"{name} must be square, got shape {a.shape}")
    scale, e = _frobenius(a)
    b = np.ldexp(a, -e) if e else a  # same exact scaling, so the same verdict
    if np.linalg.norm(b - b.T) > SYMMETRY_RTOL * scale:
        raise ValueError(f"{name} is not symmetric within tolerance")
    return a


@dataclass(frozen=True)
class GenEig:
    """Solution of the symmetric-definite problem A S = Sigma S diag(values).

    values are sorted non-increasing; vectors holds S with the
    Sigma-orthonormal normalization S' Sigma S = I, where Sigma is the input
    plus ``jitter`` (0 unless the jitter policy fired) times the identity;
    sigma_logdet is its log-determinant.
    """
    values: np.ndarray
    vectors: np.ndarray
    sigma_logdet: float
    jitter: float


def _tri_inv(l):
    """L^{-1} of a lower-triangular L, exactly zero above the diagonal: L padded
    by I to 2^levels blocks of b <= LEAF rows, one batched inv of those, then per
    level pairs join as [[A, 0], [B, C]]^{-1} = [[A^-1, 0], [-C^-1 B A^-1, C^-1]]."""
    p = l.shape[0]
    n = 1 << (-(-p // LEAF) - 1).bit_length()
    b = -(-p // n)
    a, t = np.eye(n * b), np.zeros((n * b, n * b))
    a[:p, :p] = l
    leaves = np.einsum("ijik->ijk", t.reshape(n, b, n, b))  # writable views
    leaves[...] = np.tril(np.linalg.inv(np.einsum("ijik->ijk", a.reshape(n, b, n, b))))
    while n > 1:
        n //= 2  # pair views: [:, r, :, c] is block (r, c) of each pair
        tv, av = (np.einsum("iajibk->iajbk", x.reshape(n, 2, b, n, 2, b)) for x in (t, a))
        tv[:, 1, :, 0] = -(tv[:, 1, :, 1] @ av[:, 1, :, 0]) @ tv[:, 0, :, 0]
        b *= 2
    return t[:p, :p]


def _whitener(*blocks):
    """([T_k], log|sigma_eff|, jitter), T_k = L_k^{-1} (_tri_inv) for L_k L_k' = B_k +
    jitter I, B_k the checked symmetric blocks of sigma = blockdiag(blocks): the one
    place a covariance is factored and the jitter policy applied. A block passes if
    1 / ||T_k||_F^2 = 1 / trace(B_k^{-1}) <= lambda_min clears its floor or, where
    that bound cannot tell, if B_k - floor I factors too, which certifies lambda_min
    > floor (Higham, Accuracy and Stability of Numerical Algorithms, ch. 10). Raises
    NotPositiveDefiniteError, naming the eigenvalue, if a block fails after jitter."""
    for jitter in (0.0, JITTER_SCALE * math.ldexp(*_diagonal_mean(*blocks))):
        ts, logdet = [], 0.0
        for b in blocks:
            m, e = _diagonal_mean(b)  # the floor, formed in units of 2^e
            floor = math.ldexp(JITTER_FLOOR * (m + math.ldexp(jitter, -e)), e)
            b = b + jitter * np.eye(len(b)) if jitter else b
            try:
                chol = np.linalg.cholesky(b)
                with np.errstate(over="ignore", invalid="ignore"):  # inf/nan T fails the bound
                    t = _tri_inv(chol)
                    clear = 1.0 / np.einsum("ij,ij->", t, t) > floor
                if not clear:  # the bound cannot tell: lambda_min > floor iff this factors
                    np.linalg.cholesky(b - floor * np.eye(len(b)))
                    if not np.isfinite(t).all():
                        break
            except np.linalg.LinAlgError:
                break
            ts.append(t)
            logdet += 2.0 * np.log(np.diag(chol)).sum()
        else:
            return ts, float(logdet), jitter
    raise NotPositiveDefiniteError(
        f"covariance not positive definite: smallest eigenvalue {np.linalg.eigvalsh(b)[0]:.6e} "
        "after jitter")


def _block_diag(blocks):
    """The 2-D blocks placed corner to corner down the diagonal of zeros."""
    out = np.zeros(np.sum([b.shape for b in blocks], axis=0, dtype=int))
    r = c = 0
    for b in blocks:
        out[r:r + b.shape[0], c:c + b.shape[1]] = b
        r, c = r + b.shape[0], c + b.shape[1]
    return out


def _signed(s):
    """s, each column signed so its largest-magnitude entry (first on ties) is positive."""
    return s * np.copysign(1.0, s[np.argmax(np.abs(s), axis=0), np.arange(s.shape[1])])


def _eig_tail(reduced, back, logdet, jitter):
    """The eigensolve ending every route: S = back(V), sorted descending, _signed."""
    values, vectors = np.linalg.eigh(0.5 * (reduced + reduced.T))
    return GenEig(values[::-1], _signed(back(vectors)[:, ::-1]), logdet, jitter)


def gen_eig_spd(a, *sigma):
    """All eigenpairs of the symmetric-definite problem A S = Sigma S D.

    a (the gram) is (n, n) symmetric and Sigma = blockdiag(sigma) of symmetric
    blocks, one dense Sigma being one block; 0 x 0 blocks are dropped. Each block
    must be positive definite after the jitter policy, which _whitener applies
    block by block. Returns GenEig with the spectrum sorted descending and
    S' Sigma S = I. Every Sigma, v I included, is whitened by T = blockdiag(L_k^{-1}).
    """
    a = check_square_symmetric(a, "gram")
    blocks = [check_square_symmetric(b, "sigma" if len(sigma) == 1 else f"block {i}")
              for i, b in enumerate(sigma) if np.shape(b) != (0, 0)]
    if (total := sum(len(b) for b in blocks)) != len(a):
        raise ValueError(f"dimension mismatch: blocks sum to dimension {total}, expected {len(a)}")
    return _whitened_eig(a, *_whitener(*blocks))


def _whitened_eig(a, ts, logdet, jitter):
    """_eig_tail of C = T A T', S = T' V for T = blockdiag(ts) of _whitener."""
    t = ts[0] if len(ts) == 1 else _block_diag(ts)
    return _eig_tail(t @ a @ t.T, lambda w: t.T @ w, logdet, jitter)


def gen_eig_lowrank(a, factors, variance):
    """gen_eig_spd, for a checked gram, of Sigma = D + F F' with D = diag(variance)
    (a positive scalar or p-vector d) and finite F (p x k, k >= 0), never formed:
    with D^{-1/2} F = U s W' (thin SVD) and c = (1 + s^2)^{-1/2} - 1, T = (I +
    U c U') D^{-1/2} whitens Sigma at O(p^2 k). C = I + T (A - Sigma) T', so no
    rounding of Sigma's own part survives T's cancellation; log|Sigma| = sum
    log d + sum log(1 + s^2). No jitter, as Sigma >= min(d) I."""
    v = np.asarray(variance, dtype=float)
    r = 1.0 / np.sqrt(v if v.ndim == 0 else v[:, None])  # D^{-1/2}, scalar or column
    b = a / v if v.ndim == 0 else r * a * r.T  # D^{-1/2} A D^{-1/2}
    logdet = a.shape[0] * float(np.log(v)) if v.ndim == 0 else float(np.log(v).sum())
    if factors.shape[1] == 0:
        return _eig_tail(b, lambda w: w * r, logdet, 0.0)
    g = r * factors
    u, s, _ = np.linalg.svd(g, full_matrices=False)
    x = u * (1.0 / np.sqrt(1.0 + s * s) - 1.0)
    b -= g @ g.T  # I + E, E = D^{-1/2} (A - Sigma) D^{-1/2}
    m = u.T @ b - u.T  # U'E
    h = x @ (m + 0.5 * (m @ u) @ x.T)  # C = I + E + h + h'
    b += h + h.T
    return _eig_tail(b, lambda w: r * (w + x @ (u.T @ w)),
                     logdet + float(np.log1p(s * s).sum()), 0.0)
