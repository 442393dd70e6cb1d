"""Residual component analysis: maximum-likelihood recovery of the low-rank
covariance structure left unexplained by a known positive-definite part,
via a symmetric-definite generalized eigenvalue problem."""

from .cca import CcaFit, cca_fit
from .core import (
    BlockDiagonal,
    Explicit,
    LowRankPlusNoise,
    RcaFit,
    ScaledIdentity,
    log_marginal,
    ppca_fit,
    rca_fit,
)
from .diffexpr import (
    RocCurve,
    ScoredRanking,
    TimeSeriesPair,
    residual_scores,
    roc_curve,
)
from .itrca import (
    SharedPrivateModel,
    iterative_rca,
    joint_log_marginal,
    predict_view1,
    rms_error,
)
from .kernels import KernelSpec, rbf_gram
from .linalg import GenEig, NotPositiveDefiniteError, gen_eig_spd

__version__ = "0.1.0"

__all__ = [
    "BlockDiagonal", "CcaFit", "Explicit", "GenEig", "KernelSpec",
    "LowRankPlusNoise", "NotPositiveDefiniteError", "RcaFit", "RocCurve",
    "ScaledIdentity", "ScoredRanking", "SharedPrivateModel", "TimeSeriesPair",
    "cca_fit", "gen_eig_spd", "iterative_rca", "joint_log_marginal",
    "log_marginal", "ppca_fit", "predict_view1", "rbf_gram",
    "residual_scores", "rms_error", "roc_curve", "rca_fit",
]
