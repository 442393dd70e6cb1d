"""The dense symmetric-definite generalized eigensolver.

The generalized solver reduces ``A S = Sigma S D`` to one standard symmetric
eigenproblem by the Cholesky route (Golub & Van Loan, Matrix Computations,
8.7): Sigma = L L', C = L^{-1} A L^{-T} = V D V', S = L^{-T} V. The factor
also gives the log|Sigma| that the closed-form likelihood needs.
"""

from dataclasses import dataclass

import numpy as np

# Relative symmetry tolerance for inputs, and the floor/jitter policy for
# near-singular covariances: floor = JITTER_FLOOR * trace/dim, and one shot
# of JITTER_SCALE * trace/dim is added if the smallest eigenvalue sits at or
# below the floor.
SYMMETRY_RTOL = 1e-10
JITTER_FLOOR = 1e-12
JITTER_SCALE = 1e-10


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


def check_square_symmetric(a, name="matrix", rtol=SYMMETRY_RTOL):
    a = as_matrix(a, name)
    if a.shape[0] != a.shape[1]:
        raise ValueError(f"{name} must be square, got shape {a.shape}")
    scale = np.linalg.norm(a)
    if np.linalg.norm(a - a.T) > rtol * max(scale, 1e-300):
        raise ValueError(f"{name} is not symmetric within tolerance")
    return a


def _fix_signs(vectors):
    # Deterministic sign convention: the entry of largest magnitude in each
    # column is made positive (first such entry on ties).
    idx = np.argmax(np.abs(vectors), axis=0)
    signs = np.sign(vectors[idx, np.arange(vectors.shape[1])])
    signs[signs == 0] = 1.0
    return vectors * signs


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


def _whitener(sigma):
    """(T, log|sigma_eff|, jitter) with T sigma_eff T' = I, where sigma_eff
    is sigma plus jitter times the identity: the one place a covariance is
    factored and the jitter policy applied. sigma must already be checked
    square and symmetric.

    T is L^{-1} when 1 / ||L^{-1}||_F^2 = 1 / trace(sigma^{-1}), a lower
    bound on the smallest eigenvalue, clears the jitter floor. Otherwise one
    eigh of sigma decides: jitter is JITTER_SCALE * trace/dim if the
    smallest eigenvalue sits at or below the floor (sigma + jitter I has the
    same eigenvectors, so it shifts the spectrum), else 0, and
    T = Lambda^{-1/2} U'. Raises NotPositiveDefiniteError, naming the
    offending eigenvalue, if jitter does not rescue sigma.
    """
    scale = np.trace(sigma) / sigma.shape[0]
    try:
        chol = np.linalg.cholesky(sigma)
        t = np.linalg.inv(chol)
        if 1.0 / np.einsum("ij,ij->", t, t) > JITTER_FLOOR * scale:
            return t, 2.0 * float(np.log(np.diag(chol)).sum()), 0.0
    except np.linalg.LinAlgError:
        pass
    values, vectors = np.linalg.eigh(sigma)
    jitter = JITTER_SCALE * scale if values[0] <= JITTER_FLOOR * scale else 0.0
    values = values + jitter
    if values[0] <= JITTER_FLOOR * (scale + jitter):
        raise NotPositiveDefiniteError(
            f"covariance not positive definite: smallest eigenvalue "
            f"{values[0]:.6e} after jitter")
    return vectors.T / np.sqrt(values)[:, None], float(np.log(values).sum()), jitter


def gen_eig_spd(a, sigma):
    """All eigenpairs of the symmetric-definite problem A S = Sigma S D.

    a (the gram) and sigma are (n, n) symmetric; sigma must be positive
    definite after the jitter policy, which _whitener applies. Returns
    GenEig with the spectrum sorted descending and S' Sigma S = I. One
    reduction, one eigensolve: Sigma = v I exactly gives C = A / v,
    S = V / sqrt(v); any other Sigma gives C = T A T', S = T' V with
    T = L^{-1} (see _whitener).
    """
    a = check_square_symmetric(a, "gram")
    sigma = check_square_symmetric(sigma, "sigma")
    if a.shape != sigma.shape:
        raise ValueError(f"dimension mismatch: gram is {a.shape}, sigma is {sigma.shape}")
    dim, v = a.shape[0], sigma[0, 0]
    if v > 0 and np.count_nonzero(sigma) == dim and (np.diagonal(sigma) == v).all():
        t, logdet, jitter = 1.0 / np.sqrt(v), dim * float(np.log(v)), 0.0
        reduced = a / v
    else:
        t, logdet, jitter = _whitener(sigma)
        reduced = t @ a @ t.T
    values, vectors = np.linalg.eigh(0.5 * (reduced + reduced.T))
    s = vectors * t if np.ndim(t) == 0 else t.T @ vectors
    return GenEig(values[::-1], _fix_signs(s[:, ::-1]), logdet, jitter)
