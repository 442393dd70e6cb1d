import warnings

import numpy as np
import pytest

from rca.core import (
    BlockDiagonal,
    Explicit,
    LowRankPlusNoise,
    ScaledIdentity,
    log_marginal,
    ppca_fit,
    rca_fit,
)
from rca.cca import cca_fit
from rca.diffexpr import TimeSeriesPair, residual_scores
from rca.kernels import KernelSpec
from rca.linalg import NotPositiveDefiniteError, gen_eig_spd
from rca.synth import make_diffexpr_pair

from oracles import gaussian_loglik, tipping_bishop_loadings


def random_spd(rng, n, shift=1.0):
    c = rng.standard_normal((n, n))
    return c.T @ c + shift * np.eye(n)


def match_columns_up_to_sign(a, b, atol):
    assert a.shape == b.shape
    for j in range(a.shape[1]):
        d = min(np.linalg.norm(a[:, j] - b[:, j]), np.linalg.norm(a[:, j] + b[:, j]))
        assert d <= atol, f"column {j} differs by {d}"


# ---------------------------------------------------------------- materialize

def test_materialize_scaled_identity():
    np.testing.assert_allclose(ScaledIdentity(2.0).materialize(3), 2.0 * np.eye(3))


def test_materialize_low_rank_plus_noise():
    spec = LowRankPlusNoise(np.array([[1.0], [1.0]]), 1.0)
    np.testing.assert_allclose(spec.materialize(2), [[2.0, 1.0], [1.0, 2.0]])


def test_materialize_block_diagonal():
    spec = BlockDiagonal((np.eye(2), np.array([[3.0]])))
    np.testing.assert_allclose(spec.materialize(3), np.diag([1.0, 1.0, 3.0]))


def test_materialize_kernel_covariance():
    # a kernel Gram is an explicit covariance (residual_scores builds it so)
    from rca.kernels import ABSOLUTE, KernelSpec, rbf_gram
    times = np.array([0.0, 10.0, 30.0])
    spec = KernelSpec(20.0, 1e-4, ABSOLUTE)
    built = Explicit(rbf_gram(times, spec)).materialize(3)
    np.testing.assert_array_equal(built, rbf_gram(times, spec))
    with pytest.raises(ValueError, match="expected 4"):
        Explicit(rbf_gram(times, spec)).materialize(4)


def test_materialize_errors():
    with pytest.raises(ValueError, match="expected 3"):
        Explicit(np.eye(2)).materialize(3)
    with pytest.raises(NotPositiveDefiniteError):
        rca_fit(np.eye(2), Explicit(np.diag([1.0, -2.0])))
    # the dense Sigma a spec builds is checked once, by gen_eig_spd
    with pytest.raises(ValueError, match="finite"):
        rca_fit(np.eye(2), ScaledIdentity(np.nan))
    with pytest.raises(ValueError, match="finite"), np.errstate(over="ignore"):
        rca_fit(np.eye(2), LowRankPlusNoise(np.full((2, 1), 1e200), 1.0))
    with pytest.raises(ValueError, match="sigma is not symmetric"):
        rca_fit(np.eye(2), Explicit(np.array([[1.0, 0.5], [0.0, 1.0]])))
    with pytest.raises(ValueError, match="expected 3 rows"):
        LowRankPlusNoise(np.ones((3, 1)), np.ones(2)).materialize(3)
    with pytest.raises(ValueError, match="nonnegative"):
        LowRankPlusNoise(np.zeros((2, 0)), np.array([1.0, -1.0])).materialize(2)
    with pytest.raises(ValueError, match="block 1 must be square"):
        BlockDiagonal((np.eye(1), np.ones((1, 2)))).materialize(2)
    with pytest.raises(ValueError, match="blocks sum to dimension 3, expected 2"):
        BlockDiagonal((np.eye(1), np.eye(2))).materialize(2)
    # NaN and inf variances are named as such, without a numpy warning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for v in (np.nan, np.inf, -np.inf, 0.0):
            with pytest.raises(ValueError, match=f"variance must be finite and positive, got {v}"):
                ScaledIdentity(v).materialize(2)
        for v, shown in ((np.nan, "nan"), (np.inf, "inf"), (np.array([1.0, np.nan]), "nan"),
                         (np.array([np.inf, 1.0]), "inf")):
            with pytest.raises(ValueError, match="noise variance must be finite and "
                                                 f"nonnegative, got {shown}"):
                rca_fit(np.eye(2), LowRankPlusNoise(np.zeros((2, 0)), v))


def test_low_rank_plus_noise_accepts_a_zero_variance():
    # F F' + diag(v) is positive definite with a zero in v where F covers
    # that row, so the spec fits like its dense form, without jitter
    factors, variance = np.ones((3, 1)), np.array([0.0, 0.5, 2.0])
    gram = np.array([[4.0, 1.0, 1.0], [1.0, 3.0, 1.0], [1.0, 1.0, 5.0]])
    fit = rca_fit(gram, LowRankPlusNoise(factors, variance))
    ref = rca_fit(gram, Explicit(factors @ factors.T + np.diag(variance)))
    assert fit.eig.jitter == 0.0 and fit.q == ref.q
    np.testing.assert_allclose(fit.eig.values, ref.eig.values, rtol=1e-12)


# ---------------------------------------------------------------- rca_fit

def test_fit_no_residual_structure():
    rng = np.random.default_rng(0)
    sigma = random_spd(rng, 5)
    fit = rca_fit(sigma, Explicit(sigma))
    assert fit.q == 0
    assert fit.loadings.shape == (5, 0)
    np.testing.assert_allclose(fit.eig.values, np.ones(5), atol=1e-9)


def test_fit_diagonal_case():
    fit = rca_fit(np.diag([8.0, 2.0]), Explicit(np.diag([2.0, 2.0])))
    np.testing.assert_allclose(fit.eig.values, [4.0, 1.0], atol=1e-12)
    assert fit.q == 1
    match_columns_up_to_sign(fit.loadings, np.array([[np.sqrt(6.0)], [0.0]]), 1e-10)
    np.testing.assert_allclose(fit.loadings @ fit.loadings.T,
                               np.diag([6.0, 0.0]), atol=1e-10)


def test_fit_recovers_planted_low_rank():
    rng = np.random.default_rng(42)
    sigma = random_spd(rng, 8)
    x0 = rng.standard_normal((8, 2)) * 3.0
    g = x0 @ x0.T + sigma
    fit = rca_fit(g, Explicit(sigma))
    assert fit.q == 2
    np.testing.assert_allclose(fit.loadings @ fit.loadings.T, x0 @ x0.T, atol=1e-6)


def test_fit_reconstruction_spectrum():
    rng = np.random.default_rng(5)
    sigma = random_spd(rng, 6)
    x0 = rng.standard_normal((6, 2)) * 2.0
    fit = rca_fit(x0 @ x0.T + sigma, Explicit(sigma))
    again = gen_eig_spd(fit.loadings @ fit.loadings.T + sigma, sigma)
    np.testing.assert_allclose(again.values[:fit.q], fit.eig.values[:fit.q], atol=1e-6)
    np.testing.assert_allclose(again.values[fit.q:], np.ones(6 - fit.q), atol=1e-6)


def test_fit_accepts_nested_list_sigma():
    # a raw symmetric array, as a nested list, is an Explicit covariance
    fit = rca_fit([[8.0, 0.0], [0.0, 2.0]], [[2.0, 0.0], [0.0, 2.0]])
    np.testing.assert_array_equal(
        fit.eig.values, rca_fit(np.diag([8.0, 2.0]), Explicit(2.0 * np.eye(2))).eig.values)


def test_fit_rejects_indefinite_gram():
    with pytest.raises(ValueError, match="semidefinite"):
        rca_fit(np.diag([1.0, -5.0]), ScaledIdentity(1.0))


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("s", [1e160, 1e200])
def test_fit_at_extreme_scale(s):
    # ||G||_F overflows a plain sum of squares at these scales; the symmetry
    # check and the semidefinite floor must still see a symmetric, definite G
    scaled = s * np.diag(np.arange(1.0, 6.0))
    for gram, sigma in ((2 * s * np.eye(5), ScaledIdentity(s)), (2 * s * np.eye(5), s * np.eye(5)),
                        (2 * scaled, Explicit(scaled))):
        fit = rca_fit(gram, sigma)
        assert fit.q == 5
        assert np.isfinite(fit.loadings).all() and np.isfinite(fit.log_likelihood)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("s", [1.0, 1e200, 1e-170])
def test_semidefinite_floor_is_relative_at_any_scale(s):
    # a roundoff-sized negative eigenvalue passes and a negative gram fails
    # alike at every scale, the floor being -1e-8 ||G||_F
    assert rca_fit(s * np.diag([3.0, 2.0, 1.0, 0.5, -1e-12]), ScaledIdentity(s)).q == 2
    with pytest.raises(ValueError, match="semidefinite"):
        rca_fit(-s * np.eye(5), ScaledIdentity(s))


def test_fit_names_a_0d_gram():
    # the gram is checked before the spec reads its size: an empty low-rank
    # spec would otherwise fail inside numpy, on the minimum of no variances
    with pytest.raises(ValueError, match=r"^gram must be 2-D .* got shape \(\)$"):
        rca_fit(np.float64(1.0), LowRankPlusNoise(np.zeros((0, 0)), np.zeros(0)))


@pytest.mark.parametrize("rank_tol", [-0.5, np.nan, np.inf])
def test_fit_rejects_bad_rank_tol(rank_tol):
    # a negative tolerance would keep eigenvalues below 1 and take the
    # square root of a negative number for their loadings
    with pytest.raises(ValueError, match="rank_tol"):
        rca_fit(np.diag([3.0, 0.8, 0.6]), ScaledIdentity(1.0), rank_tol=rank_tol)


def test_fit_accepts_a_zero_rank_tol():
    # zero leaves only the rounding bound: every eigenvalue clearly above 1 counts
    fit = rca_fit(np.diag([3.0, 1.5, 0.6]), ScaledIdentity(1.0), rank_tol=0)
    assert fit.q == 2


@pytest.mark.parametrize("n_obs", [-4, 0, np.nan, np.inf])
def test_fit_rejects_bad_n_obs(n_obs):
    # n_obs scales the likelihood: a negative count would flip its sign
    with pytest.raises(ValueError, match="n_obs"):
        rca_fit(2 * np.eye(3), ScaledIdentity(1.0), n_obs=n_obs)


# ---------------------------------------------------------------- log_marginal

def test_log_marginal_zero_data():
    n, d = 4, 3
    y = np.zeros((n, d))
    assert log_marginal(y, None, np.eye(n)) == pytest.approx(
        -0.5 * n * d * np.log(2 * np.pi))


def test_log_marginal_scalar_gaussian():
    val = log_marginal(np.array([[1.0]]), None, np.array([[1.0]]))
    assert val == pytest.approx(-0.5 - 0.5 * np.log(2 * np.pi))


def test_log_marginal_matches_bruteforce_oracle():
    rng = np.random.default_rng(3)
    y = rng.standard_normal((5, 3))
    x = rng.standard_normal((5, 2))
    sigma = random_spd(rng, 5)
    ours = log_marginal(y, x, sigma)
    oracle = gaussian_loglik(y, x @ x.T + sigma)
    assert ours == pytest.approx(oracle, rel=1e-10)


def test_log_marginal_rejects_indefinite():
    with pytest.raises(NotPositiveDefiniteError):
        log_marginal(np.ones((2, 2)), None, np.diag([1.0, -1.0]))


def test_log_marginal_rejects_non_finite_x():
    with pytest.raises(ValueError, match="x contains non-finite"):
        log_marginal(np.ones((3, 2)), np.array([np.nan, 1.0, 1.0]), np.eye(3))


@pytest.mark.parametrize("x, sigma, message", [
    (None, np.eye(2), "sigma is 2x2, expected 3"),
    (np.ones(2), np.eye(3), "x has 2 rows, expected 3"),
    (np.ones((4, 1)), np.eye(3), "x has 4 rows, expected 3"),
])
def test_log_marginal_names_a_size_mismatch(x, sigma, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        log_marginal(np.ones((3, 2)), x, sigma)


# ---------------------------------------------------------------- ppca_fit

def test_ppca_diagonal_sample_covariance():
    # orthogonal sign patterns scaled so the 1/n sample covariance is diag(4, 1)
    a = np.array([1.0, -1.0, 1.0, -1.0, 1.0, -1.0, 1.0, -1.0])
    b = np.array([1.0, 1.0, -1.0, -1.0, 1.0, 1.0, -1.0, -1.0])
    y = np.column_stack([2.0 * a, b])
    fit = ppca_fit(y, 1.0)
    assert fit.q == 1
    match_columns_up_to_sign(fit.loadings, np.array([[np.sqrt(3.0)], [0.0]]), 1e-10)


def test_ppca_noise_swallows_signal():
    rng = np.random.default_rng(9)
    y = rng.standard_normal((30, 4))
    lam_max = np.linalg.eigvalsh(np.cov(y.T, bias=True)).max()
    fit = ppca_fit(y, lam_max * 1.5)
    assert fit.q == 0
    assert fit.loadings.shape == (4, 0)


def test_ppca_matches_tipping_bishop_oracle():
    rng = np.random.default_rng(21)
    y = rng.standard_normal((20, 5)) @ np.diag([3.0, 2.0, 1.0, 0.5, 0.2])
    fit = ppca_fit(y, 0.1)
    oracle = tipping_bishop_loadings(y, 0.1)
    match_columns_up_to_sign(fit.loadings, oracle, 1e-8)
    np.testing.assert_allclose(fit.mean, y.mean(axis=0))


def test_ppca_rejects_bad_sigma2():
    # each is ppca_fit's own error, not that of the ScaledIdentity it would build
    for sigma2 in (0.0, np.nan, np.inf):
        with pytest.raises(ValueError,
                           match=f"^sigma2 must be finite and positive, got {sigma2}$"):
            ppca_fit(np.ones((3, 2)), sigma2)


def test_ppca_checks_sigma2_before_the_covariance(monkeypatch):
    def forbidden(*args, **kwargs):
        raise AssertionError("covariance formed")

    monkeypatch.setattr("rca.core._sample_covariance", forbidden)
    with pytest.raises(ValueError, match="sigma2"):
        ppca_fit(np.ones((3, 2)), -1.0)


def test_ppca_log_likelihood_equals_primal_marginal():
    rng = np.random.default_rng(33)
    y = rng.standard_normal((12, 4)) * [2.0, 1.5, 1.0, 0.5]
    sigma2 = 0.3
    fit = ppca_fit(y, sigma2)
    yc = y - y.mean(axis=0)
    direct = log_marginal(yc.T, fit.loadings, sigma2 * np.eye(4))
    assert fit.log_likelihood == pytest.approx(direct, rel=1e-10)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("s", [1e-150, 1e150, 1e155, 1e160])
def test_ppca_is_scale_free_until_a_variance_overflows(s):
    # the two-view fits' sample-covariance front end: the same rank across
    # the normal doubles, then the column named instead of an overflow warning
    y = make_diffexpr_pair(3, n_genes=40)[0]
    if s < 1e155:
        assert ppca_fit(s * y, s * s * 0.1).q == ppca_fit(y, 0.1).q > 0
        return
    with pytest.raises(ValueError, match=r"^y column 0: variance inf is outside the normal "
                                         "floating-point range; rescale the view$"):
        ppca_fit(s * y, 1e300)


# ---------------------------------------------------------------- properties

def test_pca_reduction_directions():
    rng = np.random.default_rng(29)
    g = random_spd(rng, 5, shift=0.5) + np.diag([6.0, 0, 0, 0, 0.0])
    fit = rca_fit(g, ScaledIdentity(1.0))
    lam, u = np.linalg.eigh(g)
    lam, u = lam[::-1], u[:, ::-1]
    for j in range(fit.q):
        direction = fit.loadings[:, j] / np.linalg.norm(fit.loadings[:, j])
        overlap = abs(direction @ u[:, j])
        assert overlap == pytest.approx(1.0, abs=1e-8)


def test_stationarity_of_fitted_loadings():
    rng = np.random.default_rng(31)
    n, d = 6, 40
    sigma = random_spd(rng, n)
    # plant one strong residual direction on top of sigma-shaped noise
    x0 = rng.standard_normal((n, 1)) * 3.0
    y = x0 @ rng.standard_normal((1, d)) + np.linalg.cholesky(sigma) @ rng.standard_normal((n, d))
    fit = rca_fit(y @ y.T / d, Explicit(sigma))
    assert fit.q > 0
    base = log_marginal(y, fit.loadings, sigma)
    for i in range(fit.loadings.shape[0]):
        for j in range(fit.loadings.shape[1]):
            for delta in (1e-4, -1e-4):
                x = fit.loadings.copy()
                x[i, j] += delta
                assert log_marginal(y, x, sigma) <= base + 1e-6


def test_rank_monotone_in_noise():
    rng = np.random.default_rng(37)
    y = rng.standard_normal((25, 6)) @ np.diag([4.0, 3.0, 2.0, 1.0, 0.5, 0.25])
    cov = np.cov(y.T, bias=True)
    ranks = [rca_fit(cov, ScaledIdentity(s2)).q
             for s2 in (0.05, 0.2, 0.8, 2.0, 8.0, 32.0)]
    assert ranks == sorted(ranks, reverse=True)


# ---------------------------------------------------------------- caller inputs

def caller_input_cases():
    """name -> (arrays the caller owns, call that receives them)."""
    rng = np.random.default_rng(41)
    sigma = random_spd(rng, 8)
    w = rng.standard_normal((8, 2))
    gram = sigma + 4.0 * w @ w.T
    factors = rng.standard_normal((8, 2))
    b1, b2 = random_spd(rng, 5), random_spd(rng, 3)
    singular = factors @ factors.T  # rank 2: the fit jitters it
    y = rng.standard_normal((40, 6))
    y1, y2 = y[:, :4].copy(), y[:, 4:].copy()
    e1, e2, t1, t2, _ = make_diffexpr_pair(4, n_genes=30)
    return {
        "explicit": ((gram, sigma), lambda: rca_fit(gram, Explicit(sigma))),
        "explicit_jittered": ((gram, singular), lambda: rca_fit(gram, Explicit(singular))),
        "identity": ((gram,), lambda: rca_fit(gram, ScaledIdentity(0.5))),
        "lowrank": ((gram, factors), lambda: rca_fit(gram, LowRankPlusNoise(factors, 0.5))),
        "blocks": ((gram, b1, b2), lambda: rca_fit(gram, BlockDiagonal((b1, b2)))),
        "gen_eig_spd": ((gram, sigma), lambda: gen_eig_spd(gram, sigma)),
        "cca_fit": ((y1, y2), lambda: cca_fit(y1, y2)),
        "residual_scores": ((e1, e2, t1, t2), lambda: residual_scores(
            TimeSeriesPair(e1, e2, t1, t2), KernelSpec())),
    }


@pytest.mark.parametrize("name", list(caller_input_cases()))
def test_fits_leave_caller_arrays_unchanged(name):
    arrays, call = caller_input_cases()[name]
    before = [a.tobytes() for a in arrays]
    call()
    assert [a.tobytes() for a in arrays] == before
