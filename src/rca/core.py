"""Core residual-component fit: the maximum-likelihood low-rank term that
remains once a known positive-definite covariance is accounted for.

Conventions. The solver is agnostic about how the caller scaled the Gram
matrix, but the unit eigenvalue threshold is only the maximum-likelihood
rank rule when G is on the sample-covariance scale (divide a raw Gram by
the number of vectors it sums). The recovered ``loadings`` play the role of
the latent coordinates in dual mode (G between data points) and of the
subspace loadings in primal mode (G between features); the math is the
same, only the interpretation of rows changes.
"""

import math
from dataclasses import dataclass, replace

import numpy as np

from .linalg import (JITTER_FLOOR, GenEig, _diagonal_mean, _frobenius, _whitener, as_matrix,
                     check_square_symmetric, gen_eig_lowrank, gen_eig_spd)

# Eigenvalues within RANK_TOL above 1 are treated as noise and dropped.
RANK_TOL = 1e-10
# A LowRankPlusNoise with ||D^{-1/2} F||_F^2 above this is reduced densely: its
# thin-SVD loadings would lose digits that the Cholesky route keeps.
LOW_RANK_LIMIT = 1e5


# ------------------------------------------------------------------ covariance specs
#
# Each spec checks only what it was given. rca_fit reduces a spec with parts by
# them, checking the gram once; gen_eig_spd checks it and each dense block.

@dataclass(frozen=True)
class Explicit:
    matrix: np.ndarray

    def materialize(self, dim):
        m = np.asarray(self.matrix, dtype=float)
        if m.ndim != 2 or m.shape[0] != dim:
            raise ValueError(f"covariance has shape {m.shape}, expected {dim} rows")
        return m


@dataclass(frozen=True)
class LowRankPlusNoise:
    """F F' + diag(variance). F may have zero columns; variance is one noise
    level for every row or a vector of one per row."""
    factors: np.ndarray
    variance: float | np.ndarray

    def parts(self, dim):
        """(F, variance) as float arrays with dim rows each, all finite."""
        f, v = np.asarray(self.factors, dtype=float), np.asarray(self.variance, dtype=float)
        if f.ndim != 2 or f.shape[0] != dim or v.shape not in ((), (dim,)):
            raise ValueError(f"factors have shape {f.shape} and variance {v.shape}, "
                             f"expected {dim} rows each")
        if not np.isfinite(f).all():
            raise ValueError("factors contain non-finite entries")
        bad = v[~((0 <= v) & (v < np.inf))]
        if bad.size:
            raise ValueError(f"noise variance must be finite and nonnegative, got {bad[0]}")
        return f, v

    def materialize(self, dim):
        f, v = self.parts(dim)
        return f @ f.T + v * np.eye(dim)


@dataclass(frozen=True)
class ScaledIdentity:
    variance: float

    def parts(self, dim):
        """(F, variance) of variance * I: F has dim rows and no columns."""
        if not 0 < self.variance < np.inf:
            raise ValueError(f"variance must be finite and positive, got {self.variance}")
        return np.zeros((dim, 0)), np.asarray(self.variance, dtype=float)


@dataclass(frozen=True)
class BlockDiagonal:
    blocks: tuple


# ------------------------------------------------------------------ fits

@dataclass(frozen=True)
class RcaFit:
    """Result of one residual-component solve.

    eig holds the full generalized spectrum; q counts eigenvalues above 1;
    loadings is Sigma S_q (D_q - I)^{1/2}, Sigma with any jitter (zero columns if q = 0).
    """
    eig: GenEig
    q: int
    loadings: np.ndarray
    log_likelihood: float
    mean: np.ndarray | None = None


def rca_fit(gram, sigma, n_obs=1, rank_tol=RANK_TOL):
    """Maximum-likelihood residual components of a Gram matrix given a
    covariance that is already explained.

    Parameters
    ----------
    gram : (p, p) symmetric positive semidefinite array, on the
        sample-covariance scale for the rank rule to be the ML one.
    sigma : covariance spec (or raw symmetric array) describing the
        explained part; must be positive definite after the jitter policy.
    n_obs : finite and positive: the number of i.i.d. vectors the Gram
        averages; only scales the reported log-likelihood.
    rank_tol : finite, nonnegative and absolute; eigenvalues in (1, 1 +
        max(rank_tol, beta)] count as noise, beta = eps ||R G R||_F ||R^{-1} S||_F^2
        (R = diag(G)^{-1/2}) bounding how far rounding moves them, so an exactly
        built Gram's bulk stays out; sample covariances need room for sampling.

    Returns
    -------
    RcaFit. Eigenvalues at or below 1 contribute nothing to the loadings.
    """
    if not 0.0 < n_obs < np.inf:
        raise ValueError(f"n_obs must be finite and positive, got {n_obs}")
    if not 0.0 <= rank_tol < np.inf:
        raise ValueError(f"rank_tol must be finite and nonnegative, got {rank_tol}")
    gram = as_matrix(gram, "gram")  # the reduction checks its symmetry
    specs = (Explicit, LowRankPlusNoise, ScaledIdentity, BlockDiagonal)
    eig, trace = _reduce(gram, sigma if isinstance(sigma, specs) else Explicit(sigma),
                         gram.shape[0])
    # Sylvester's inertia: lambda_min(G) >= min(d_min, 0) trace(Sigma), which
    # settles semidefiniteness unless that bound falls below the floor -1e-8
    # ||G||_F. All three are compared in units of 2^e, ||G||_F = norm 2^e, so
    # none overflows but the bound, -inf where trace(Sigma) 2^-e does.
    norm, e = _frobenius(gram)
    floor, d_min = -1e-8 * norm, float(eig.values[-1])
    with np.errstate(over="ignore"):
        if (d_min < 0 and d_min * np.ldexp(trace, -e) < floor
                and np.ldexp(np.linalg.eigvalsh(gram).min(), -e) < floor):
            raise ValueError("gram matrix is not positive semidefinite")
    return _fit_of_spectrum(eig, gram, n_obs, rank_tol)


def _fit_of_spectrum(eig, gram, n_obs, rank_tol):
    """The RcaFit of gram's solved spectrum: as G S = Sigma S D, the loadings are
    G S_q D_q^{-1} (D_q - I)^{1/2} for whichever Sigma the route whitened. Rounding
    moves d by up to beta = eps ||R G R||_F ||R^{-1} S||_F^2, R = diag(G)^{-1/2}."""
    d, g = eig.values, np.maximum(np.diagonal(gram), 0.0)
    r = np.divide(1.0, np.sqrt(g), out=np.zeros_like(g), where=g > 0)
    m = r[:, None] * gram  # one p x p buffer: R G R, then R^{-1} S
    m *= r
    rgr = np.linalg.norm(m)
    s = np.multiply(eig.vectors, np.sqrt(g)[:, None], out=m)  # scaled before it is squared
    beta = np.finfo(float).eps * rgr * np.vdot(s, s)
    q = int(np.sum(d > 1.0 + max(rank_tol, beta)))
    loadings = gram @ (eig.vectors[:, :q] * (np.sqrt(d[:q] - 1.0) / d[:q]))
    # At the ML solution K = X X' + Sigma has log|K| = log|Sigma| +
    # sum_{i<=q} log d_i and trace(K^{-1} G) = q + sum_{i>q} d_i.
    ll = -0.5 * n_obs * (eig.sigma_logdet + np.log(d[:q]).sum() + q + d[q:].sum()
                         + d.size * np.log(2.0 * np.pi))
    return RcaFit(eig=eig, q=q, loadings=loadings, log_likelihood=float(ll))


def _reduce(gram, spec, p):
    """(GenEig, trace(Sigma)), Sigma with any jitter. Parts clear of the jitter
    floor and LOW_RANK_LIMIT skip Sigma; gen_eig_spd whitens the rest block by block."""
    if hasattr(spec, "parts"):
        f, v = spec.parts(p)
        rows = np.einsum("ij,ij->i", f, f)  # squared row norms of F
        # the test on Sigma / 2^e, e the exponent of its largest entry, an exact
        # scaling: the same verdict at every scale, and no overflow
        s = math.ldexp(1.0, -math.frexp(max(v.max(), rows.max()))[1])
        t = np.sum(v * s + rows * s)
        if v.min() * s * p > JITTER_FLOOR * t and np.sum(rows / v) <= LOW_RANK_LIMIT:
            return gen_eig_lowrank(check_square_symmetric(gram, "gram"), f, v), float(t) / s
    sigma = spec.blocks if isinstance(spec, BlockDiagonal) else (spec.materialize(p),)
    eig = gen_eig_spd(gram, *sigma)
    return eig, p * (math.ldexp(*_diagonal_mean(*sigma)) + eig.jitter)


def log_marginal(y, x, sigma):
    """Log likelihood of the columns of y under N(0, x x' + sigma).

    y is n x d (columns are the i.i.d. vectors), x is n x q (q may be 0)
    and sigma is n x n. The assembled covariance is factored by rca_fit's
    whitener, so it gets the same jitter policy: a near-singular one is
    scored with the jitter added, and NotPositiveDefiniteError is raised
    when jitter does not rescue it.
    """
    y = as_matrix(y, "y")
    sigma = check_square_symmetric(sigma, "sigma")
    n, d = y.shape
    if sigma.shape[0] != n:
        raise ValueError(f"sigma is {sigma.shape[0]}x{sigma.shape[0]}, expected {n}")
    if x is None or np.size(x) == 0:
        k = sigma
    else:
        x = np.asarray(x, dtype=float)
        x = as_matrix(x[:, None] if x.ndim == 1 else x, "x")
        if x.shape[0] != n:
            raise ValueError(f"x has {x.shape[0]} rows, expected {n}")
        k = x @ x.T + sigma
    return _gaussian_log_density(y @ y.T / d, k, d)


def _gaussian_log_density(c, k, count):
    """Log density of count vectors with second moment c under N(0, k), k whitened."""
    (t,), logdet, _ = _whitener(k)
    quad = np.einsum("ij,ij->", t @ c, t)  # trace(K^{-1} c)
    return float(-0.5 * count * (logdet + quad + c.shape[0] * np.log(2.0 * np.pi)))


def ppca_fit(y, sigma2):
    """Probabilistic PCA as a residual-component fit with Sigma = sigma2 I.

    y is n x d; columns are centered internally and the column means are
    recorded on the returned fit. The retained loadings equal the classical
    closed form U_q diag(sqrt(lambda_q - sigma2)) on the 1/n sample
    covariance, with columns for lambda <= sigma2 dropped.
    """
    if not 0 < sigma2 < np.inf:
        raise ValueError(f"sigma2 must be finite and positive, got {sigma2}")
    c, (mean,) = _sample_covariance(y)
    return replace(rca_fit(c, ScaledIdentity(sigma2), n_obs=len(y)), mean=mean)


# cells per panel of data-sized work, ~1 MB whatever the data's size: the
# centered rows of _sample_covariance, the gene projections of residual_scores
_PANEL_CELLS = 1 << 17


def _sample_covariance(*views, means=None):
    """(c, means): the 1/n covariance of the checked views (y, or y1 and y2) about
    their column means or the given ones, summed as P'P over panels P of rows,
    each centered into one buffer of about _PANEL_CELLS cells, or of d rows
    once C is larger, so that adding a panel's d x d term to C stays cheap
    beside forming it.
    A non-constant column whose variance leaves the normal doubles is named."""
    names = ("y",) if len(views) == 1 else ("y1", "y2")
    views = [as_matrix(y, name) for y, name in zip(views, names)]
    if len(views[-1]) != len(views[0]):
        raise ValueError(f"row-count mismatch: y1 has {len(views[0])}, y2 has {len(views[-1])}")
    means = [y.mean(axis=0) for y in views] if means is None else means
    for name, y, mu in zip(names, views, means):
        if np.shape(mu) != (y.shape[1],):
            raise ValueError(f"{name} has {y.shape[1]} columns but {np.size(mu)} means")
    n, edges = len(views[0]), np.cumsum([0] + [y.shape[1] for y in views])
    d = edges[-1]
    step = max(_PANEL_CELLS // d, d)
    buffer = np.empty((min(n, step), d))
    c = np.zeros((d, d))
    with np.errstate(all="ignore"):
        for r in range(0, n, step):
            panel = buffer[:n - r]
            for y, mu, a, b in zip(views, means, edges, edges[1:]):
                np.subtract(y[r:r + step], mu, out=panel[:, a:b])
            c += panel.T @ panel
        c /= n
    var = np.diag(c)
    for j in np.flatnonzero((var < np.finfo(float).tiny) | (var == np.inf)):
        v = np.searchsorted(edges, j, side="right") - 1
        column = views[v][:, j - edges[v]]
        if var[j] == np.inf or (column != column[0]).any():
            raise ValueError(f"{names[v]} column {j - edges[v]}: variance {var[j]:.3g} is "
                             "outside the normal floating-point range; rescale the view")
    return c, means
