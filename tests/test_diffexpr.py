import numpy as np
import pytest

from rca.diffexpr import TimeSeriesPair, residual_scores, roc_curve
from rca.kernels import ABSOLUTE, KernelSpec, rbf_gram
from rca.synth import CONTROL_TIMES, TREATMENT_TIMES, make_diffexpr_pair


def smooth_profiles(rng, n_genes, amplitude):
    """Consistent smooth profiles on the treatment grid, unit sample variance
    before scaling; control rows are the exact subset at the control times."""
    k = rbf_gram(TREATMENT_TIMES, KernelSpec(20.0, 0.0, ABSOLUTE))
    chol = np.linalg.cholesky(k + 1e-10 * np.eye(TREATMENT_TIMES.size))
    prof = chol @ rng.standard_normal((TREATMENT_TIMES.size, n_genes))
    return amplitude * prof / prof.std(axis=0)


def control_rows(profiles):
    return profiles[np.searchsorted(TREATMENT_TIMES, CONTROL_TIMES)]


# ---------------------------------------------------------------- residual_scores

def test_no_treatment_effect_scores_zero():
    # control is an exact resample of the same smooth functions; amplitudes
    # sit below the kernel level, so no direction clears the unit threshold
    rng = np.random.default_rng(77)
    profiles = smooth_profiles(rng, 150, amplitude=0.4)
    pair = TimeSeriesPair(profiles, control_rows(profiles),
                          TREATMENT_TIMES, CONTROL_TIMES)
    ranking = residual_scores(pair, KernelSpec(), standardize=False)
    assert ranking.q_used == 0  # the no-structure flag
    np.testing.assert_array_less(np.abs(ranking.scores), 1e-6)


def test_planted_genes_occupy_top_ranks_and_match_lr_oracle():
    y1, y2, t1, t2, labels = make_diffexpr_pair(seed=3, n_genes=100, n_planted=5)
    pair = TimeSeriesPair(y1, y2, t1, t2)
    ranking = residual_scores(pair, KernelSpec())
    planted = set(np.flatnonzero(labels).tolist())
    assert set(ranking.order[:5].tolist()) == planted

    # oracle: per-gene likelihood ratio of independent GPs over the shared GP,
    # computed by brute force on the standardized stack
    y = np.vstack([y1, y2])
    y = y - y.mean(axis=0)
    y = y / y.std(axis=0)
    data_variance = float(y.var(axis=0).mean())
    spec = KernelSpec()

    def loglik(block, k):
        sign, logdet = np.linalg.slogdet(k)
        quad = np.einsum("ij,ij->j", block, np.linalg.solve(k, block))
        return -0.5 * logdet - 0.5 * quad - 0.5 * block.shape[0] * np.log(2 * np.pi)

    k_shared = rbf_gram(np.concatenate([t1, t2]), spec, data_variance)
    k1 = rbf_gram(t1, spec, data_variance)
    k2 = rbf_gram(t2, spec, data_variance)
    lr = (loglik(y[:t1.size], k1) + loglik(y[t1.size:], k2)
          - loglik(y, k_shared))
    assert set(np.argsort(-lr)[:5].tolist()) == planted


def test_rank_one_planted_direction():
    rng = np.random.default_rng(123)
    profiles = smooth_profiles(rng, 300, amplitude=0.3)
    x = rng.standard_normal(20)  # jagged stacked-time direction
    w = rng.uniform(0.5, 1.5, 300)
    y1 = profiles + np.outer(x[:13], w)
    y2 = control_rows(profiles) + np.outer(x[13:], w)
    pair = TimeSeriesPair(y1, y2, TREATMENT_TIMES, CONTROL_TIMES)
    ranking = residual_scores(pair, KernelSpec(), standardize=False)
    assert ranking.q_used == 1
    corr = np.corrcoef(ranking.scores, np.abs(w))[0, 1]
    assert corr > 0.999


def test_permutation_equivariance():
    y1, y2, t1, t2, _ = make_diffexpr_pair(seed=5, n_genes=60, n_planted=4)
    base = residual_scores(TimeSeriesPair(y1, y2, t1, t2), KernelSpec())
    rng = np.random.default_rng(0)
    perm = rng.permutation(60)
    permuted = residual_scores(TimeSeriesPair(y1[:, perm], y2[:, perm], t1, t2),
                               KernelSpec())
    np.testing.assert_allclose(permuted.scores, base.scores[perm], atol=1e-9)


@pytest.mark.filterwarnings("error")
def test_gene_scale_invariance_under_standardization():
    y1, y2, t1, t2, _ = make_diffexpr_pair(seed=6, n_genes=40, n_planted=3)
    base = residual_scores(TimeSeriesPair(y1, y2, t1, t2), KernelSpec())
    y1s, y2s = y1.copy(), y2.copy()
    y1s[:, 7] *= 1375.0
    y2s[:, 7] *= 1375.0
    scaled = residual_scores(TimeSeriesPair(y1s, y2s, t1, t2), KernelSpec())
    np.testing.assert_allclose(scaled.scores, base.scores, atol=1e-10)
    # the zero-variance rule is relative to each gene's scale, so scaling
    # the whole data set zeroes no gene either, and the exact per-gene
    # rescale keeps y.std from overflowing or underflowing at any scale
    for s in (1e-14, 1e-100, 1e-160, 1e100, 1e155, 1e160):
        whole = residual_scores(TimeSeriesPair(s * y1, s * y2, t1, t2), KernelSpec())
        assert whole.q_used == base.q_used
        np.testing.assert_array_equal(whole.order, base.order)
        np.testing.assert_allclose(whole.scores, base.scores, atol=1e-10)


def test_zero_variance_gene_scores_zero():
    y1, y2, t1, t2, _ = make_diffexpr_pair(seed=7, n_genes=30, n_planted=2)
    y1[:, 11] = 4.2
    y2[:, 11] = 4.2
    ranking = residual_scores(TimeSeriesPair(y1, y2, t1, t2), KernelSpec())
    assert ranking.scores[11] == 0.0
    assert np.isfinite(ranking.scores).all()


def test_order_sorts_scores_with_index_ties():
    y1, y2, t1, t2, _ = make_diffexpr_pair(seed=8, n_genes=25, n_planted=2)
    ranking = residual_scores(TimeSeriesPair(y1, y2, t1, t2), KernelSpec())
    assert (ranking.scores >= 0).all()
    ordered = ranking.scores[ranking.order]
    assert (np.diff(ordered) <= 0).all()
    assert sorted(ranking.order.tolist()) == list(range(25))


def test_pair_validation():
    with pytest.raises(ValueError, match="columns"):
        TimeSeriesPair(np.ones((3, 4)), np.ones((2, 5)), np.arange(3), np.arange(2))
    with pytest.raises(ValueError, match="row counts"):
        TimeSeriesPair(np.ones((3, 4)), np.ones((2, 4)), np.arange(3), np.arange(5))


# ---------------------------------------------------------------- roc_curve

def test_roc_perfect_separation():
    roc = roc_curve(np.array([3.0, 2.0, 1.0]), np.array([1, 1, 0]))
    assert roc.auc == pytest.approx(1.0)
    np.testing.assert_allclose(roc.points[0], [0.0, 0.0])
    np.testing.assert_allclose(roc.points[-1], [1.0, 1.0])


def test_roc_inverted():
    roc = roc_curve(np.array([1.0, 2.0, 3.0]), np.array([1, 1, 0]))
    assert roc.auc == pytest.approx(0.0)


def test_roc_all_ties_is_diagonal():
    roc = roc_curve(np.ones(8), np.array([1, 0, 1, 0, 1, 0, 1, 0]))
    assert roc.auc == pytest.approx(0.5)
    np.testing.assert_allclose(roc.points, [[0.0, 0.0], [1.0, 1.0]])


def test_roc_monotone_points_and_transform_invariance():
    rng = np.random.default_rng(9)
    scores = rng.standard_normal(50)
    labels = (rng.random(50) < 0.4).astype(int)
    roc = roc_curve(scores, labels)
    assert (np.diff(roc.points[:, 0]) >= 0).all()
    assert (np.diff(roc.points[:, 1]) >= 0).all()
    assert 0.0 <= roc.auc <= 1.0
    transformed = roc_curve(np.exp(scores), labels)
    assert transformed.auc == roc.auc
    np.testing.assert_array_equal(transformed.points, roc.points)


def test_roc_rejects_single_class():
    with pytest.raises(ValueError, match="both classes"):
        roc_curve(np.array([1.0, 2.0]), np.array([1, 1]))
    with pytest.raises(ValueError, match="binary"):
        roc_curve(np.array([1.0, 2.0]), np.array([1, 2]))


@pytest.mark.parametrize("scores, labels", [
    (np.array([1.0, 2.0, 3.0]), np.array([1, 0])),
    (np.array([[1.0, 2.0]]), np.array([[1, 0]])),
])
def test_roc_rejects_mismatched_shapes(scores, labels):
    with pytest.raises(ValueError, match="scores and labels must be matching 1-D vectors"):
        roc_curve(scores, labels)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_roc_rejects_non_finite_scores(bad):
    # a NaN score would sort arbitrarily and give a meaningless AUC
    with pytest.raises(ValueError, match="scores contain non-finite entries"):
        roc_curve(np.array([bad, 1.0, 0.5]), np.array([1, 0, 1]))
