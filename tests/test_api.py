"""The public API is exactly this set of names; growing or shrinking it is a
deliberate change to this file."""

import rca

PUBLIC = {
    "BlockDiagonal", "CcaFit", "Explicit", "GenEig", "KernelSpec",
    "LowRankPlusNoise", "NotPositiveDefiniteError", "RcaFit", "RocCurve",
    "ScaledIdentity", "ScoredRanking", "SharedPrivateModel", "TimeSeriesPair",
    "cca_fit", "cca_oracle", "gen_eig_spd", "iterative_rca",
    "joint_log_marginal", "log_marginal", "ppca_fit", "predict_view1",
    "rbf_gram", "residual_scores", "rms_error", "roc_curve", "rca_fit",
}


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
