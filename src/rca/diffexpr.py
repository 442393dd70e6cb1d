"""Differential scoring of paired time series against a shared temporal
covariance.

Both series are stacked on one time axis and modeled as draws of a single
smooth function; whatever the squared-exponential covariance cannot explain
is residual structure, and each gene is scored by the norm of its
projection onto the retained residual directions. Shared or duplicated
observation times are the mechanism that exposes treatment/control
disagreement, so time vectors are used as given, duplicates included.
"""

from dataclasses import dataclass

import numpy as np

from .core import Explicit, rca_fit
from .kernels import rbf_gram
from .linalg import as_matrix


@dataclass(frozen=True)
class TimeSeriesPair:
    """Treatment and control matrices (rows = time points, columns = genes)
    with their observation times."""
    y1: np.ndarray
    y2: np.ndarray
    t1: np.ndarray
    t2: np.ndarray

    def __post_init__(self):
        y1 = as_matrix(self.y1, "y1")
        y2 = as_matrix(self.y2, "y2")
        if y1.shape[1] != y2.shape[1]:
            raise ValueError(f"y1 has {y1.shape[1]} columns, y2 has {y2.shape[1]}")
        t1 = np.asarray(self.t1, dtype=float)
        t2 = np.asarray(self.t2, dtype=float)
        if t1.shape != (y1.shape[0],) or t2.shape != (y2.shape[0],):
            raise ValueError("time vectors must match the row counts")
        for name, value in (("y1", y1), ("y2", y2), ("t1", t1), ("t2", t2)):
            object.__setattr__(self, name, value)


@dataclass(frozen=True)
class ScoredRanking:
    """Per-gene nonnegative scores with the induced ranking.

    order sorts scores non-increasing, ties broken by ascending gene index.
    q_used == 0 flags that no residual structure was found (all scores 0).
    """
    scores: np.ndarray
    order: np.ndarray
    q_used: int


def residual_scores(pair, spec, standardize=True):
    """Score each gene's treatment/control difference.

    Stacks the pair on the concatenated time axis, standardizes each gene
    across the stacked observations (zero mean, unit variance; zero-variance
    genes are left at zero rather than divided), builds the kernel over the
    joint times, solves the residual eigenproblem of the gene-averaged Gram
    against the kernel, and scores gene j as the norm of its projection onto
    the eigenvectors with eigenvalue above one.

    With standardize=False the genes are centered but keep their scale, and
    the kernel's fraction noise mode then sees the mean raw gene variance.
    """
    y = np.vstack([pair.y1, pair.y2])
    times = np.concatenate([pair.t1, pair.t2])
    d = y.shape[1]  # TimeSeriesPair gives each series a row, so y has at least two

    scale, e = np.frexp(np.abs(y).max(axis=0))  # max|gene| = scale 2^e
    y = np.ldexp(y, -e) if standardize else y  # exact, and y.std cannot overflow
    y = y - y.mean(axis=0)
    if standardize:
        # genes with (relatively) zero variance are zeroed, not divided
        std = y.std(axis=0)
        alive = std > 1e-13 * scale
        y = np.where(alive, y / np.where(alive, std, 1.0), 0.0)
    data_variance = float(y.var(axis=0).mean())

    k = rbf_gram(times, spec, data_variance=data_variance)
    fit = rca_fit(y @ y.T / d, Explicit(k))
    scores = np.linalg.norm(fit.eig.vectors[:, :fit.q].T @ y, axis=0)  # zeros when q = 0
    order = np.argsort(-scores, kind="stable")
    return ScoredRanking(scores=scores, order=order, q_used=fit.q)


@dataclass(frozen=True)
class RocCurve:
    """Operating points from (0,0) to (1,1); thresholds[i] is the lowest
    score counted positive at points[i] (+inf for the empty set)."""
    points: np.ndarray
    auc: float
    thresholds: np.ndarray


def roc_curve(scores, labels):
    """ROC points and trapezoidal AUC for scores against binary labels.

    Tied scores are treated as a single threshold step. Raises ValueError
    unless both classes are present.
    """
    scores = np.asarray(scores, dtype=float)
    labels = np.asarray(labels)
    if scores.ndim != 1 or labels.shape != scores.shape:
        raise ValueError("scores and labels must be matching 1-D vectors")
    if not np.isfinite(scores).all():
        raise ValueError("scores contain non-finite entries")
    if not np.isin(labels, (0, 1)).all():
        raise ValueError("labels must be binary")
    positives = int(labels.sum())
    negatives = labels.size - positives
    if positives == 0 or negatives == 0:
        raise ValueError("labels must contain both classes")

    order = np.argsort(-scores, kind="stable")
    sorted_scores = scores[order]
    sorted_labels = labels[order].astype(float)
    # index of the last element of each tied block
    block_ends = np.append(np.flatnonzero(np.diff(sorted_scores)), scores.size - 1)
    tp = np.cumsum(sorted_labels)[block_ends]
    fp = (block_ends + 1) - tp
    tpr = np.concatenate([[0.0], tp / positives])
    fpr = np.concatenate([[0.0], fp / negatives])
    thresholds = np.concatenate([[np.inf], sorted_scores[block_ends]])
    auc = float(np.trapezoid(tpr, fpr))
    return RocCurve(points=np.column_stack([fpr, tpr]), auc=auc,
                    thresholds=thresholds)
