"""The public API is exactly this set of names, each with exactly these
parameters; growing or shrinking either is a deliberate change to this file."""

import inspect
from pathlib import Path

import numpy as np

import rca

# name -> parameter names of its signature (a dataclass's are its fields);
# None for the exception, whose builtin-backed type has no Python signature
SIGNATURES = {
    "BlockDiagonal": ("blocks",),
    "CcaFit": ("s1", "s2", "correlations", "v1", "v2", "clamped", "fit"),
    "Explicit": ("matrix",),
    "GenEig": ("values", "vectors", "sigma_logdet", "jitter"),
    "KernelSpec": ("lengthscale", "noise", "noise_mode"),
    "LowRankPlusNoise": ("factors", "variance"),
    "NotPositiveDefiniteError": None,
    "RcaFit": ("eig", "q", "loadings", "log_likelihood", "mean"),
    "RocCurve": ("points", "auc", "thresholds"),
    "ScaledIdentity": ("variance",),
    "ScoredRanking": ("scores", "order", "q_used"),
    "SharedPrivateModel": ("w1", "w2", "v1", "v2", "sigma1_sq", "sigma2_sq", "mu1",
                           "mu2", "alpha", "history", "converged", "n_iter",
                           "rank_history", "start_rank"),
    "TimeSeriesPair": ("y1", "y2", "t1", "t2"),
    "cca_fit": ("y1", "y2"),
    "gen_eig_spd": ("a", "sigma"),
    "iterative_rca": ("y1", "y2", "alpha", "tol", "max_iter"),
    "joint_log_marginal": ("model", "y1", "y2"),
    "log_marginal": ("y", "x", "sigma"),
    "ppca_fit": ("y", "sigma2"),
    "predict_view1": ("model", "y2", "mode"),
    "rbf_gram": ("times", "spec", "data_variance"),
    "residual_scores": ("pair", "spec", "standardize"),
    "rms_error": ("pred", "truth"),
    "roc_curve": ("scores", "labels"),
    "rca_fit": ("gram", "sigma", "n_obs", "rank_tol"),
}
PUBLIC = set(SIGNATURES)


def test_all_is_the_pinned_set():
    assert len(rca.__all__) == len(set(rca.__all__))
    assert set(rca.__all__) == PUBLIC


def test_every_public_name_resolves():
    for name in rca.__all__:
        assert getattr(rca, name) is not None, name


def test_star_import_binds_exactly_the_public_names():
    namespace = {}
    exec("from rca import *", namespace)
    assert set(namespace) - {"__builtins__"} == PUBLIC


def test_every_public_signature_is_the_pinned_one():
    for name in rca.__all__:
        try:
            params = tuple(inspect.signature(getattr(rca, name)).parameters)
        except ValueError:  # no signature: only the exception may lack one
            params = None
        assert params == SIGNATURES[name], name


def test_readme_quick_start_runs_as_documented():
    # the first python block of README.md, executed as written
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    namespace = {}
    exec(readme.split("```python\n", 1)[1].split("```", 1)[0], namespace)
    fit, x_true = namespace["fit"], namespace["x_true"]
    assert fit.q == 2
    np.testing.assert_allclose(fit.loadings @ fit.loadings.T, x_true @ x_true.T, rtol=0, atol=1e-10)
