"""Equivalences the generalized reduction must keep whatever route it takes:
covariance specs against their dense forms, joint scaling and congruence,
the likelihood against a direct evaluation, and the jitter and semidefiniteness rules at
their thresholds."""

import tracemalloc
import warnings
from collections import Counter

import numpy as np
import pytest

from rca.core import (
    LOW_RANK_LIMIT,
    BlockDiagonal,
    Explicit,
    LowRankPlusNoise,
    RANK_TOL,
    ScaledIdentity,
    log_marginal,
    ppca_fit,
    rca_fit,
)
from rca.cca import CORR_TOL, cca_fit
from rca.itrca import iterative_rca, joint_log_marginal
from rca.synth import make_shared_private
from rca.linalg import JITTER_FLOOR, JITTER_SCALE, LEAF, NotPositiveDefiniteError, _tri_inv

from oracles import cca_correlations

P = 12
N_OBS = 50


def random_spd(rng, n, shift=1.0):
    c = rng.standard_normal((n, n))
    return c.T @ c / n + shift * np.eye(n)


def with_spectrum(rng, values):
    q, _ = np.linalg.qr(rng.standard_normal((len(values), len(values))))
    m = (q * values) @ q.T
    return 0.5 * (m + m.T)


def planted_gram(rng, sigma, rank=3):
    w = 2.0 * rng.standard_normal((sigma.shape[0], rank))
    return sigma + w @ w.T


def direct_log_likelihood(gram, loadings, sigma, n_obs):
    k = loadings @ loadings.T + sigma
    sign, logdet = np.linalg.slogdet(k)
    assert sign > 0
    quad = np.trace(np.linalg.solve(k, gram))
    return -0.5 * n_obs * (logdet + quad + gram.shape[0] * np.log(2.0 * np.pi))


def assert_same_fit(fit, ref):
    scale = np.abs(ref.eig.values).max()
    np.testing.assert_allclose(fit.eig.values, ref.eig.values, rtol=0,
                               atol=1e-12 * scale)
    assert fit.q == ref.q
    xxt, xxt_ref = fit.loadings @ fit.loadings.T, ref.loadings @ ref.loadings.T
    assert np.linalg.norm(xxt - xxt_ref) <= 1e-10 * np.linalg.norm(xxt_ref)
    assert fit.log_likelihood == pytest.approx(ref.log_likelihood, rel=1e-10)


# ---------------------------------------------------------------- spec equivalence

@pytest.mark.parametrize("seed", range(5))
@pytest.mark.parametrize("variance", [0.3, 1.0, 7.5])
def test_scaled_identity_matches_explicit(seed, variance):
    rng = np.random.default_rng(seed)
    gram = planted_gram(rng, variance * np.eye(P))
    assert_same_fit(rca_fit(gram, ScaledIdentity(variance), n_obs=N_OBS),
                    rca_fit(gram, Explicit(variance * np.eye(P)), n_obs=N_OBS))


@pytest.mark.parametrize("seed", range(5))
def test_block_diagonal_matches_explicit(seed):
    rng = np.random.default_rng(100 + seed)
    b1, b2, b3 = random_spd(rng, 5), random_spd(rng, 4), random_spd(rng, 3)
    dense = np.zeros((P, P))
    dense[:5, :5], dense[5:9, 5:9], dense[9:, 9:] = b1, b2, b3
    gram = planted_gram(rng, dense)
    assert_same_fit(rca_fit(gram, BlockDiagonal((b1, b2, b3)), n_obs=N_OBS),
                    rca_fit(gram, Explicit(dense), n_obs=N_OBS))


@pytest.mark.parametrize("seed,rank,per_row", [
    pytest.param(seed, rank, per_row, id=f"{seed}{suffix}") for seed in range(5)
    for rank, per_row, suffix in [(4, False, ""), (0, False, "-rank0"),
                                  (4, True, "-per_row"), (0, True, "-rank0-per_row")]])
def test_low_rank_plus_noise_matches_explicit(seed, rank, per_row):
    # zero-column factors and a per-row variance vector are the same spec
    rng = np.random.default_rng(200 + seed)
    factors = rng.standard_normal((P, rank))
    variance = rng.uniform(0.2, 2.0, P) if per_row else 0.5
    dense = factors @ factors.T + np.diag(np.broadcast_to(variance, P))
    gram = planted_gram(rng, dense)
    assert_same_fit(rca_fit(gram, LowRankPlusNoise(factors, variance), n_obs=N_OBS),
                    rca_fit(gram, Explicit(dense), n_obs=N_OBS))


def low_rank_and_dense(factors, variance):
    dense = factors @ factors.T + np.diag(np.broadcast_to(variance, factors.shape[0]))
    return LowRankPlusNoise(factors, variance), Explicit(dense), dense


@pytest.mark.parametrize("seed", range(3))
@pytest.mark.parametrize("kind", ["more_factors_than_rows", "duplicate_columns"])
def test_low_rank_reduction_matches_explicit_at_the_edges(seed, kind):
    # k >= p gives a square U; repeated columns give zero singular values
    rng = np.random.default_rng(250 + seed)
    if kind == "more_factors_than_rows":
        factors = rng.standard_normal((P, P + 3))
    else:
        base = rng.standard_normal((P, 3))
        factors = np.hstack([base, base[:, :2]])
    spec, explicit, dense = low_rank_and_dense(factors, rng.uniform(0.2, 2.0, P))
    gram = planted_gram(rng, dense)
    assert_same_fit(rca_fit(gram, spec, n_obs=N_OBS), rca_fit(gram, explicit, n_obs=N_OBS))


@pytest.mark.parametrize("seed", range(3))
@pytest.mark.parametrize("floors,row_scale,jittered", [
    (0.1, 1.0, False), (0.1, 0.0, True), (4.0, 100.0, False)])
def test_low_rank_variance_at_the_jitter_floor_takes_the_dense_route(
        lapack_calls, seed, floors, row_scale, jittered):
    # one variance at `floors` times the floor. Under it the spec is reduced
    # densely, so the jitter decision is the dense one: with its factor row
    # zeroed Sigma is near-singular and jittered, otherwise the factors keep
    # it clear. Just above it, a large factor on that row puts the whitened
    # factors far past LOW_RANK_LIMIT, which also takes the dense route.
    rng = np.random.default_rng(260 + seed)
    factors = rng.standard_normal((P, 3))
    variance = rng.uniform(0.2, 2.0, P)
    factors[5] *= row_scale
    variance[5] = floors * JITTER_FLOOR * (variance.sum() + np.sum(factors ** 2)) / P
    spec, explicit, dense = low_rank_and_dense(factors, variance)
    gram = planted_gram(rng, dense + np.eye(P))
    lapack_calls.clear()
    fit = rca_fit(gram, spec, n_obs=N_OBS)
    assert "svd" not in lapack_calls
    ref = rca_fit(gram, explicit, n_obs=N_OBS)
    assert (fit.eig.jitter > 0) == jittered
    assert fit.eig.jitter == ref.eig.jitter and fit.q == ref.q
    assert_same_fit(fit, ref)


@pytest.mark.parametrize("seed", range(3))
def test_low_rank_variance_a_few_floors_up_takes_the_thin_route(lapack_calls, seed):
    # one variance four times its floor JITTER_FLOOR * trace / p, with no
    # factor on its row: the spec clears the floor and LOW_RANK_LIMIT, so it
    # is whitened by the thin SVD and never factored. Sigma's condition number
    # is ~1e12, so the loadings of the two routes agree only to ~1e-6; each
    # route solves G S = Sigma S D to rounding
    rng = np.random.default_rng(265 + seed)
    factors = rng.standard_normal((P, 3))
    variance = rng.uniform(0.2, 2.0, P)
    factors[5] = 0.0
    variance[5] = 4.0 * JITTER_FLOOR * (variance.sum() + np.sum(factors ** 2)) / P
    spec, explicit, dense = low_rank_and_dense(factors, variance)
    gram = planted_gram(rng, dense + np.eye(P))
    lapack_calls.clear()
    fit = rca_fit(gram, spec, n_obs=N_OBS)
    assert lapack_calls == Counter(svd=1, eigh=1)
    ref = rca_fit(gram, explicit, n_obs=N_OBS)
    assert fit.eig.jitter == ref.eig.jitter == 0.0 and fit.q == ref.q
    np.testing.assert_allclose(fit.eig.values, ref.eig.values, rtol=0,
                               atol=1e-12 * ref.eig.values[0])
    s, d = fit.eig.vectors, fit.eig.values
    assert np.linalg.norm(gram @ s - dense @ s * d) <= \
        1e-10 * np.linalg.norm(gram) * np.linalg.norm(s)


@pytest.mark.parametrize("seed", range(3))
@pytest.mark.parametrize("fraction", [0.9, 1.1])
def test_strong_factors_match_explicit_on_either_side_of_the_limit(
        lapack_calls, seed, fraction):
    # more factors than rows, far above the noise: the thin-SVD route must
    # take Sigma's own part out of the gram before whitening, or cancellation
    # costs the loadings digits. Past LOW_RANK_LIMIT the route is dense.
    rng = np.random.default_rng(280 + seed)
    factors = rng.standard_normal((P, P + 3))
    factors *= np.sqrt(fraction * LOW_RANK_LIMIT * 0.5 / np.sum(factors ** 2))
    spec, explicit, dense = low_rank_and_dense(factors, 0.5)
    gram = planted_gram(rng, dense)
    lapack_calls.clear()
    fit = rca_fit(gram, spec, n_obs=N_OBS)
    assert ("svd" in lapack_calls) == (fraction < 1)
    assert_same_fit(fit, rca_fit(gram, explicit, n_obs=N_OBS))


def test_low_rank_reduction_at_p200_is_sigma_orthonormal():
    rng = np.random.default_rng(270)
    p = 200
    spec, explicit, dense = low_rank_and_dense(rng.standard_normal((p, 4)),
                                               rng.uniform(0.2, 2.0, p))
    w = 2.0 * rng.standard_normal((p, 3))
    gram = dense + w @ w.T
    fit = rca_fit(gram, spec, n_obs=N_OBS)
    s, d = fit.eig.vectors, fit.eig.values
    assert np.linalg.norm(s.T @ dense @ s - np.eye(p)) <= 1e-11
    assert np.linalg.norm(gram @ s - dense @ s * d) <= 1e-12 * np.linalg.norm(gram)
    assert fit.q == 3
    assert_same_fit(fit, rca_fit(gram, explicit, n_obs=N_OBS))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_factors_are_named(bad):
    factors = np.ones((P, 2))
    factors[3, 1] = bad
    with pytest.raises(ValueError, match="factors contain non-finite entries"):
        rca_fit(np.eye(P), LowRankPlusNoise(factors, 0.5))


@pytest.mark.parametrize("seed", range(5))
@pytest.mark.parametrize("c", [1e-3, 0.5, 3.0, 1e4])
def test_joint_scaling_shifts_only_the_likelihood(seed, c):
    rng = np.random.default_rng(300 + seed)
    sigma = random_spd(rng, P)
    gram = planted_gram(rng, sigma)
    base = rca_fit(gram, Explicit(sigma), n_obs=N_OBS)
    scaled = rca_fit(c * gram, Explicit(c * sigma), n_obs=N_OBS)
    np.testing.assert_allclose(scaled.eig.values, base.eig.values, rtol=0,
                               atol=1e-12 * base.eig.values.max())
    assert scaled.q == base.q
    shift = -0.5 * N_OBS * P * np.log(c)
    assert scaled.log_likelihood == pytest.approx(base.log_likelihood + shift,
                                                  rel=1e-10)


@pytest.mark.parametrize("seed", range(10))
def test_congruence_maps_the_loadings_and_shifts_the_likelihood(seed):
    # G -> M G M' and Sigma -> M Sigma M' keep the generalized spectrum and
    # send S to M^{-T} S, so the loadings Sigma S (D - I)^{1/2} to M times them.
    # A sample gram keeps its spectrum off the unit threshold, where rounding
    # of order cond(M)^2 eps would move q.
    rng = np.random.default_rng(400 + seed)
    p = 30
    sigma = random_spd(rng, p)
    y = np.linalg.cholesky(planted_gram(rng, sigma)) @ rng.standard_normal((p, N_OBS))
    gram = y @ y.T / N_OBS
    m = np.eye(p) + 0.3 * rng.standard_normal((p, p))
    base = rca_fit(gram, Explicit(sigma), n_obs=N_OBS)
    fit = rca_fit(m @ gram @ m.T, Explicit(m @ sigma @ m.T), n_obs=N_OBS)
    assert fit.q == base.q
    np.testing.assert_allclose(fit.eig.values, base.eig.values, rtol=0,
                               atol=1e-8 * base.eig.values.max())
    mapped = m @ base.loadings
    signs = np.sign(np.sum(mapped * fit.loadings, axis=0))
    assert np.linalg.norm(fit.loadings * signs - mapped) <= 1e-7 * np.linalg.norm(mapped)
    shift = -N_OBS * np.linalg.slogdet(m)[1]
    assert fit.log_likelihood == pytest.approx(base.log_likelihood + shift, rel=1e-8)


@pytest.mark.parametrize("seed", [411, 416, 423, 434])
def test_rank_rule_clears_the_rounding_of_an_exact_gram(seed):
    # an exactly built Sigma + W W' has its bulk on 1 only up to rounding; on
    # these seeds congruence put a bulk eigenvalue past RANK_TOL, and only the
    # rounding bound beta = eps ||R G R||_F ||R^{-1} S||_F^2 keeps it out
    rng = np.random.default_rng(seed)
    p = 30
    sigma = random_spd(rng, p)
    gram = planted_gram(rng, sigma)
    m = np.eye(p) + 0.3 * rng.standard_normal((p, p))
    assert rca_fit(gram, Explicit(sigma)).q == 3
    fit = rca_fit(m @ gram @ m.T, Explicit(m @ sigma @ m.T))
    assert fit.eig.values[3] > 1.0 + RANK_TOL
    assert fit.q == 3


@pytest.mark.parametrize("seed", range(5))
@pytest.mark.parametrize("kind", ["explicit", "identity", "rank_deficient_gram"])
def test_log_likelihood_matches_direct_evaluation(seed, kind):
    rng = np.random.default_rng(400 + seed)
    if kind == "identity":
        sigma, spec = 2.0 * np.eye(P), ScaledIdentity(2.0)
        gram = planted_gram(rng, sigma)
    elif kind == "explicit":
        sigma = random_spd(rng, P)
        spec, gram = Explicit(sigma), planted_gram(rng, sigma)
    else:  # a sample covariance of fewer vectors than dimensions
        sigma = random_spd(rng, P)
        spec = Explicit(sigma)
        y = rng.standard_normal((P, 5)) * 3.0
        gram = y @ y.T / 5
    fit = rca_fit(gram, spec, n_obs=N_OBS)
    direct = direct_log_likelihood(gram, fit.loadings, sigma, N_OBS)
    assert fit.log_likelihood == pytest.approx(direct, rel=1e-10)


# ---------------------------------------------------------------- jitter rule

def jittered_reference(sigma):
    """The jitter policy from its definition: sigma itself, or sigma plus
    JITTER_SCALE * trace/dim on the diagonal when its smallest eigenvalue
    sits at or below JITTER_FLOOR * trace/dim."""
    scale = np.trace(sigma) / sigma.shape[0]
    if np.linalg.eigvalsh(sigma)[0] > JITTER_FLOOR * scale:
        return sigma
    return sigma + JITTER_SCALE * scale * np.eye(sigma.shape[0])


def near_singular_sigma(rng, factor, p=P):
    """Sigma whose smallest eigenvalue is `factor` times the jitter floor."""
    bulk = np.linspace(1.0, 4.0, p - 1)
    floor = JITTER_FLOOR * bulk.sum() / p
    return with_spectrum(rng, np.append(bulk, factor * floor))


@pytest.mark.parametrize("seed", range(3))
@pytest.mark.parametrize("factor,jittered", [(1.5, False), (3.0, False),
                                             (0.5, True), (0.9, True)])
def test_jitter_decision_matches_ensure_spd(seed, factor, jittered):
    # "ensure_spd" names the rule that jittered_reference implements
    rng = np.random.default_rng(500 + seed)
    sigma = near_singular_sigma(rng, factor)
    sigma_eff = jittered_reference(sigma)
    assert (not np.array_equal(sigma_eff, sigma)) == jittered
    gram = planted_gram(rng, sigma)
    fit = rca_fit(gram, Explicit(sigma))
    assert (fit.eig.jitter > 0) == jittered
    s = fit.eig.vectors
    # S is normalized against exactly the covariance the policy settles on;
    # the other choice would put ~0.01 or ~100 on one diagonal entry
    assert np.abs(s.T @ sigma_eff @ s - np.eye(P)).max() <= 1e-3


def test_rank_deficient_sigma_still_fits():
    rng = np.random.default_rng(600)
    f = rng.standard_normal((P, P - 2))
    sigma = f @ f.T
    sigma_eff = jittered_reference(sigma)
    assert not np.array_equal(sigma_eff, sigma)
    gram = planted_gram(rng, sigma + np.eye(P))
    fit = rca_fit(gram, Explicit(sigma))
    assert fit.eig.jitter > 0
    assert np.isfinite(fit.eig.values).all() and np.isfinite(fit.log_likelihood)
    assert np.isfinite(fit.loadings).all()
    s = fit.eig.vectors
    assert np.abs(s.T @ sigma_eff @ s - np.eye(P)).max() <= 1e-3


def test_log_marginal_scores_a_singular_covariance_with_the_jitter():
    # the covariance rca_fit would jitter and fit is scored under the same
    # jitter, not rejected
    sigma = np.diag([1.0, 2.0, 0.0])
    y = np.random.default_rng(650).standard_normal((3, 7)) * [[1.0], [1.5], [0.0]]
    k_eff = sigma + JITTER_SCALE * np.trace(sigma) / 3 * np.eye(3)
    sign, logdet = np.linalg.slogdet(k_eff)
    assert sign > 0
    quad = np.trace(np.linalg.solve(k_eff, y @ y.T / 7))
    direct = -0.5 * 7 * (logdet + quad + 3 * np.log(2.0 * np.pi))
    assert log_marginal(y, None, sigma) == pytest.approx(direct, rel=1e-10)


def test_a_factor_whose_inverse_overflows_takes_the_jitter():
    # Sigma = 1e-314 L0 L0' factors, but L^{-1} = 1e157 L0^{-1} holds 10^k
    # below its diagonal and overflows. Its floor, 1e-12 times a subnormal
    # mean, is so small that Sigma - floor I factors too, so only the
    # finiteness check of that inverse sends it on to the jitter
    p = 400
    l0 = np.eye(p) - 10.0 * np.eye(p, k=-1)
    sigma = 1e-314 * (l0 @ l0.T)
    fit = rca_fit(sigma, Explicit(sigma))
    assert fit.eig.jitter > 0
    assert np.isfinite(fit.eig.values).all() and np.isfinite(fit.eig.vectors).all()
    assert np.isfinite(log_marginal(1e-160 * np.ones((p, 2)), None, sigma))


@pytest.mark.parametrize("seed", range(3))
def test_block_rescaling_keeps_the_block_diagonal_fit(seed):
    # P = blockdiag(1e6 I, I) sends G to P G P and Sigma to P Sigma P, which
    # keeps the generalized spectrum. Each block has its own jitter floor, so
    # neither fit jitters; one floor from the joint trace/dim, about
    # trace(b1) / 12 ~ 1 once rescaled, would sit above b2's spectrum (~0.1)
    # and jitter the rescaled fit.
    rng = np.random.default_rng(960 + seed)
    b1, b2 = random_spd(rng, 7), 0.1 * random_spd(rng, P - 7)
    sigma = np.zeros((P, P))
    sigma[:7, :7], sigma[7:, 7:] = b1, b2
    gram = planted_gram(rng, sigma)
    d = np.repeat([1e6, 1.0], [7, P - 7])
    base = rca_fit(gram, BlockDiagonal((b1, b2)), n_obs=N_OBS)
    fit = rca_fit(d[:, None] * gram * d, BlockDiagonal((1e12 * b1, b2)), n_obs=N_OBS)
    assert base.eig.jitter == fit.eig.jitter == 0.0
    assert fit.q == base.q
    np.testing.assert_allclose(fit.eig.values, base.eig.values, rtol=1e-10, atol=0)


@pytest.mark.parametrize("factor,jittered", [(0.9, True), (1.1, False)])
def test_an_inconclusive_block_bound_is_settled_by_a_shifted_factor(lapack_calls, factor,
                                                                    jittered):
    # block 2 has two eigenvalues at factor x its own floor, so 1 / trace(B^{-1})
    # ~ factor / 2 x floor cannot tell; the factor of B - floor I fails or
    # succeeds, and the reduced problem's eigh is the fit's only one
    rng = np.random.default_rng(970)
    bulk = np.linspace(1.0, 4.0, 5)
    floor = JITTER_FLOOR * bulk.sum() / 7
    b1, b2 = random_spd(rng, P - 7), with_spectrum(rng, np.append(bulk, [factor * floor] * 2))
    assert 1.0 / np.trace(np.linalg.inv(b2)) <= floor
    sigma = np.zeros((P, P))
    sigma[:P - 7, :P - 7], sigma[P - 7:, P - 7:] = b1, b2
    gram = planted_gram(rng, sigma + np.eye(P))
    lapack_calls.clear()
    fit = rca_fit(gram, BlockDiagonal((b1, b2)))
    if jittered:
        # a factor and its inverse per block in each try, and the failed shifted one
        assert fit.eig.jitter == JITTER_SCALE * np.trace(sigma) / P
        assert lapack_calls == Counter(cholesky=5, inv=4, eigh=1)
    else:
        assert fit.eig.jitter == 0.0
        assert lapack_calls == Counter(cholesky=3, inv=2, eigh=1)


def test_an_empty_block_is_dropped():
    fit = rca_fit(np.eye(2), BlockDiagonal((np.zeros((0, 0)), np.eye(2))))
    assert fit.eig.values.shape == (2,) and fit.eig.jitter == 0.0


def test_blocks_are_named_in_errors():
    with pytest.raises(ValueError, match="block 1 is not symmetric"):
        rca_fit(np.eye(3), BlockDiagonal((np.eye(1), np.array([[1.0, 0.5], [0.0, 1.0]]))))
    with pytest.raises(ValueError, match="blocks sum to dimension 2, expected 3"):
        rca_fit(np.eye(3), BlockDiagonal((np.zeros((0, 0)), np.eye(2))))
    # only a 0 x 0 block is dropped as empty
    with pytest.raises(ValueError, match="block 0 must be"):
        rca_fit(np.eye(2), BlockDiagonal((np.zeros((0, 3)), np.eye(2))))


@pytest.mark.parametrize("values", [[1.0, 2.0, -1.0], [3.0, -1e-3, 2.0],
                                    [-1.0, -2.0, -3.0]])
def test_indefinite_sigma_raises_naming_the_eigenvalue(values):
    rng = np.random.default_rng(700)
    sigma = with_spectrum(rng, np.array(values))
    with pytest.raises(NotPositiveDefiniteError, match="eigenvalue"):
        rca_fit(np.eye(3), Explicit(sigma))


# ---------------------------------------------------------------- semidefinite gram

@pytest.mark.parametrize("spec", [ScaledIdentity(1.0), ScaledIdentity(1e-3),
                                  Explicit(random_spd(np.random.default_rng(8), 6))])
@pytest.mark.parametrize("factor,accepted", [(1e-11, True), (0.5e-8, True),
                                             (2e-8, False), (1e-3, False)])
def test_gram_semidefinite_threshold(spec, factor, accepted):
    rng = np.random.default_rng(800)
    positive = np.array([5.0, 4.0, 3.0, 2.0, 1.0])
    gram = with_spectrum(rng, np.append(positive, -factor * np.linalg.norm(positive)))
    if accepted:
        assert rca_fit(gram, spec).eig.values.shape == (6,)
    else:
        with pytest.raises(ValueError, match="semidefinite"):
            rca_fit(gram, spec)


# ---------------------------------------------------------------- decomposition budget

def dense_specs(rng, p=P):
    b1, b2 = random_spd(rng, p - 5 * p // 12), random_spd(rng, 5 * p // 12)
    factors = rng.standard_normal((p, 3))
    return {"explicit": Explicit(random_spd(rng, p)),
            "blocks": BlockDiagonal((b1, b2)),
            "lowrank": LowRankPlusNoise(factors, 0.7)}


# Each budget is also checked at p = ABOVE_LEAF, where L^{-1} joins several
# leaves: their batched inverse must count as the one inv.
ABOVE_LEAF = 100


@pytest.mark.parametrize("kind,p", [
    pytest.param("explicit", P, id="explicit"), pytest.param("blocks", P, id="blocks"),
    pytest.param("lowrank", P, id="lowrank"),
    pytest.param("explicit", ABOVE_LEAF, id="explicit-p100"),
    pytest.param("blocks", ABOVE_LEAF, id="blocks-p100")])
def test_dense_fit_factors_once_and_solves_once(lapack_calls, kind, p):
    # a dense Sigma is factored once; a diagonal-plus-low-rank one is never
    # formed, and one thin p x k SVD of its factors takes the factor's place
    rng = np.random.default_rng(900)
    spec = dense_specs(rng, p)[kind]
    gram = planted_gram(rng, np.eye(p))
    lapack_calls.clear()
    rca_fit(gram, spec)
    if kind == "lowrank":
        assert lapack_calls == Counter(eigh=1, svd=1)
        return
    # a BlockDiagonal is factored block by block
    per_block = len(spec.blocks) if kind == "blocks" else 1
    assert lapack_calls == Counter(eigh=1, cholesky=per_block, inv=per_block)


def test_low_rank_fit_builds_no_dense_sigma(monkeypatch):
    # a ScaledIdentity, and so ppca_fit, reduces as a LowRankPlusNoise with no
    # factor columns: neither builds Sigma or takes gen_eig_spd's dense route
    def forbidden(*args):
        raise AssertionError("dense Sigma built")

    rng = np.random.default_rng(907)
    spec = LowRankPlusNoise(rng.standard_normal((P, 3)), rng.uniform(0.2, 2.0, P))
    gram = planted_gram(rng, np.eye(P))
    for cls in (LowRankPlusNoise, ScaledIdentity):
        monkeypatch.setattr(cls, "materialize", forbidden)
    monkeypatch.setattr("rca.core.gen_eig_spd", forbidden)
    assert rca_fit(gram, spec).eig.jitter == 0.0
    assert rca_fit(gram, ScaledIdentity(0.8)).eig.jitter == 0.0
    assert ppca_fit(rng.standard_normal((40, P)), 0.5).mean.shape == (P,)


def test_block_fits_build_no_dense_sigma(monkeypatch):
    # a BlockDiagonal is whitened block by block, and CCA (closed form or
    # jittered) and iterative_rca's start whiten their views the same way
    def forbidden(*args):
        raise AssertionError("dense Sigma built")

    monkeypatch.setattr(BlockDiagonal, "materialize", forbidden)
    rng = np.random.default_rng(908)
    gram = planted_gram(rng, np.eye(P))
    assert rca_fit(gram, dense_specs(rng)["blocks"]).eig.jitter == 0.0
    y1, y2, _ = make_shared_private(0, n=100)
    assert cca_fit(y1, y2).fit.eig.jitter == 0.0
    assert cca_fit(np.ones((20, 3)), y2[:20]).fit.eig.jitter > 0.0
    assert iterative_rca(y1, y2, alpha=0.3).start_rank > 0


@pytest.mark.parametrize("seed", range(3))
@pytest.mark.parametrize("variance", [1e-3, 0.8, 7.5])
def test_scaled_identity_is_bitwise_the_factor_free_low_rank_fit(seed, variance):
    # the spec and its factor-free LowRankPlusNoise give the same bytes (a raw
    # v I array is factored like any dense Sigma: test_scaled_identity_matches_explicit)
    rng = np.random.default_rng(seed)
    gram = planted_gram(rng, variance * np.eye(P))
    ref = rca_fit(gram, ScaledIdentity(variance))
    fit = rca_fit(gram, LowRankPlusNoise(np.zeros((P, 0)), variance))
    for a, b in ((fit.eig.values, ref.eig.values), (fit.eig.vectors, ref.eig.vectors),
                 (fit.loadings, ref.loadings)):
        assert np.array_equal(a, b)
    assert fit.log_likelihood == ref.log_likelihood
    assert fit.q == ref.q == 3


@pytest.mark.parametrize("kind,p", [
    pytest.param("near_singular", P, id="near_singular"),
    pytest.param("rank_deficient", P, id="rank_deficient"),
    pytest.param("near_singular", ABOVE_LEAF, id="near_singular-p100"),
    pytest.param("rank_deficient", ABOVE_LEAF, id="rank_deficient-p100")])
def test_jittered_fit_is_one_eigensolve(lapack_calls, kind, p):
    # Cholesky factors decide the jitter and whiten Sigma + cI, so the reduced
    # problem's eigh is the only one. A near-singular Sigma factors, fails the
    # bound and then the factor of Sigma - floor I; a rank-deficient one fails
    # its first factor. Either way Sigma + cI then factors and clears the bound
    rng = np.random.default_rng(905)
    if kind == "near_singular":
        sigma = near_singular_sigma(rng, 0.5, p)
    else:
        f = rng.standard_normal((p, p - 2))
        sigma = f @ f.T
    gram = planted_gram(rng, sigma + np.eye(p))
    lapack_calls.clear()
    fit = rca_fit(gram, Explicit(sigma))
    assert fit.eig.jitter > 0
    assert fit.eig.jitter == JITTER_SCALE * (np.trace(sigma) / p)
    if kind == "near_singular":
        assert lapack_calls == Counter(cholesky=3, inv=2, eigh=1)
    else:
        assert lapack_calls == Counter(cholesky=2, inv=1, eigh=1)
    # G - Sigma_eff = (1 - jitter) I + W W' is positive definite, so every
    # component is kept and X X' is G - Sigma_eff, jitter included, up to the
    # cond(Sigma_eff) eps that a Cholesky whitener of Sigma_eff costs
    assert fit.q == p
    sigma_eff = sigma + fit.eig.jitter * np.eye(p)
    resid = gram - sigma_eff
    assert np.linalg.norm(fit.loadings @ fit.loadings.T - resid) <= \
        np.linalg.cond(sigma_eff) * np.finfo(float).eps * np.linalg.norm(resid)


def test_log_marginal_is_one_factor_and_one_inverse(lapack_calls):
    rng = np.random.default_rng(906)
    y, x, sigma = rng.standard_normal((P, 30)), rng.standard_normal((P, 2)), random_spd(rng, P)
    lapack_calls.clear()
    log_marginal(y, x, sigma)
    assert lapack_calls == Counter(cholesky=1, inv=1)


def test_log_marginal_is_one_factor_and_one_inverse_above_leaf(lapack_calls):
    p = ABOVE_LEAF
    rng = np.random.default_rng(906)
    y, x, sigma = rng.standard_normal((p, 30)), rng.standard_normal((p, 2)), random_spd(rng, p)
    lapack_calls.clear()
    log_marginal(y, x, sigma)
    assert lapack_calls == Counter(cholesky=1, inv=1)


def test_scaled_identity_fit_is_one_eigensolve(lapack_calls):
    rng = np.random.default_rng(901)
    gram = planted_gram(rng, np.eye(P))
    y = rng.standard_normal((40, P))
    for fit in (lambda: rca_fit(gram, ScaledIdentity(0.8)),
                lambda: rca_fit(gram, LowRankPlusNoise(np.zeros((P, 0)), 0.8)),
                lambda: ppca_fit(y, 0.5)):
        lapack_calls.clear()
        fit()
        assert lapack_calls == Counter(eigh=1)
    # a raw v I array is a dense Sigma: one factor, its inverse, one eigensolve
    lapack_calls.clear()
    rca_fit(gram, 0.8 * np.eye(P))
    assert lapack_calls == Counter(cholesky=1, inv=1, eigh=1)


def test_cca_fit_budget(lapack_calls):
    rng = np.random.default_rng(902)
    z = rng.standard_normal((200, 2))
    y1 = z @ rng.standard_normal((2, 6)) + rng.standard_normal((200, 6))
    y2 = z @ rng.standard_normal((2, 4)) + rng.standard_normal((200, 4))
    lapack_calls.clear()
    cca_fit(y1, y2)
    # a Cholesky factor and its inverse per view, then one SVD of the
    # whitened cross-covariance gives the whole spectrum: no eigensolve
    assert lapack_calls == Counter(cholesky=2, inv=2, svd=1)


def test_cca_fit_budget_above_leaf(lapack_calls):
    rng = np.random.default_rng(902)
    z = rng.standard_normal((400, 2))
    y1 = z @ rng.standard_normal((2, 60)) + rng.standard_normal((400, 60))
    y2 = z @ rng.standard_normal((2, 40)) + rng.standard_normal((400, 40))
    lapack_calls.clear()
    cca_fit(y1, y2)
    # both views are above LEAF: each inverse is one batched inv of its leaves
    assert lapack_calls == Counter(cholesky=2, inv=2, svd=1)


def test_iterative_rca_budget_does_not_grow_with_n(lapack_calls):
    passes = 3
    per_n = []
    for n in (300, 600):
        y1, y2, _ = make_shared_private(12, n=n)
        lapack_calls.clear()
        model = iterative_rca(y1, y2, alpha=0.1, tol=1e-300, max_iter=passes)
        assert model.n_iter == passes
        per_n.append(Counter(lapack_calls))
    assert per_n[0] == per_n[1]
    calls = per_n[0]
    assert set(calls) <= {"eigh", "svd", "cholesky", "inv"}
    # the start is one CCA of the joint covariance: a Cholesky factor and its
    # inverse per view, and one SVD of the whitened cross-covariance. Then per
    # pass: three fits, one eigensolve and one thin SVD of the factors each
    # (the start gives the first private blocks shared factors); every Sigma
    # is diagonal plus low rank, so nothing more is Cholesky-factored or
    # inverted, and the pass likelihood comes from the shared fit
    assert model.start_rank > 0
    assert calls["cholesky"] == calls["inv"] == 2
    assert calls["eigh"] == 3 * passes
    assert calls["svd"] == 3 * passes + 1


@pytest.mark.parametrize("fit", ["cca_fit", "iterative_rca", "joint_log_marginal"])
def test_two_view_fits_hold_one_centered_copy(fit):
    # the views' centered rows go into one buffer that the covariance empties
    # before the solve; centering each view and then stacking them peaks at 2x
    y1, y2, _ = make_shared_private(7, n=20000, d1=10, d2=10)
    model = iterative_rca(y1, y2, alpha=0.3)
    run = {"cca_fit": lambda: cca_fit(y1, y2),
           "iterative_rca": lambda: iterative_rca(y1, y2, alpha=0.3),
           "joint_log_marginal": lambda: joint_log_marginal(model, y1, y2)}[fit]
    tracemalloc.start()
    try:
        run()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.5 * (y1.nbytes + y2.nbytes)


# ---------------------------------------------------------------- validation budget

import rca  # noqa: E402
from rca.diffexpr import TimeSeriesPair, residual_scores  # noqa: E402
from rca.kernels import KernelSpec  # noqa: E402
from rca.linalg import check_square_symmetric  # noqa: E402
from rca.synth import make_diffexpr_pair  # noqa: E402


@pytest.fixture
def symmetry_checks(monkeypatch):
    """Count of check_square_symmetric calls, wherever the library binds it;
    reset it (calls[0] = 0) before the call under test."""
    calls = [0]

    def counted(*args, **kwargs):
        calls[0] += 1
        return check_square_symmetric(*args, **kwargs)

    for mod in (rca.cca, rca.core, rca.diffexpr, rca.itrca, rca.linalg):
        for attr, obj in list(vars(mod).items()):
            if obj is check_square_symmetric:
                monkeypatch.setattr(mod, attr, counted)
    return calls


@pytest.mark.parametrize("kind", ["explicit", "identity", "lowrank", "blocks"])
def test_each_fit_checks_gram_and_sigma_once(symmetry_checks, kind):
    # gen_eig_spd checks the gram and the dense Sigma; the specs check shapes.
    # A spec with parts (low-rank, scaled identity) has no square Sigma: it
    # checks its own parts, so only the gram gets a symmetry check. A
    # BlockDiagonal checks each block once, and the gram.
    rng = np.random.default_rng(903)
    specs = dict(dense_specs(rng), identity=ScaledIdentity(0.8))
    gram = planted_gram(rng, np.eye(P))
    symmetry_checks[0] = 0
    rca_fit(gram, specs[kind])
    assert symmetry_checks[0] == {"lowrank": 1, "identity": 1, "explicit": 2, "blocks": 3}[kind]


def test_fit_wrappers_check_gram_and_sigma_once(symmetry_checks):
    rng = np.random.default_rng(904)
    y = rng.standard_normal((60, 9))
    y1, y2, t1, t2, _ = make_diffexpr_pair(3, n_genes=40)
    pair = TimeSeriesPair(y1, y2, t1, t2)
    # ppca_fit's Sigma is a ScaledIdentity, so only its gram is checked
    for fit, checks in ((lambda: ppca_fit(y, 0.5), 1),
                        (lambda: residual_scores(pair, KernelSpec()), 2)):
        symmetry_checks[0] = 0
        fit()
        assert symmetry_checks[0] == checks
    # cca_fit forms its gram as joint' joint, symmetric by construction, and
    # whitens the views' diagonal blocks of it: there is nothing to check
    symmetry_checks[0] = 0
    cca_fit(y[:, :5], y[:, 5:])
    assert symmetry_checks[0] == 0


# ---------------------------------------------------------------- blocked triangular inverse

# Above LEAF and padded: 33 -> 2 x 17, 100 -> 4 x 25, 257 -> 16 x 17.
BLOCKED_SIZES = (33, 100, 257)
# One leaf (p <= LEAF): a single inv, then tril.
ONE_LEAF_SIZES = (1, 12, LEAF)


def graded_spd(rng, p):
    """SPD with row scales over four decades: its Cholesky factor has
    subdiagonal entries larger than the diagonal, so LU pivots in the leaves."""
    d = np.logspace(0, 2, p)[rng.permutation(p)]
    return d[:, None] * random_spd(rng, p, shift=0.1) * d


@pytest.mark.parametrize("p", ONE_LEAF_SIZES + BLOCKED_SIZES)
@pytest.mark.parametrize("kind", ["random", "graded"])
def test_blocked_inverse_is_the_lower_triangular_inverse(p, kind):
    rng = np.random.default_rng(p)
    sigma = random_spd(rng, p, shift=0.1) if kind == "random" else graded_spd(rng, p)
    chol = np.linalg.cholesky(sigma)
    t = _tri_inv(chol)
    assert t.shape == (p, p)
    assert not np.triu(t, 1).any()
    assert np.linalg.norm(t @ chol - np.eye(p)) <= 1e-12
    ref = np.linalg.inv(chol)
    assert np.linalg.norm(t - ref) <= 1e-13 * np.linalg.norm(ref)


def test_an_overflowing_blocked_inverse_takes_the_fallback_silently():
    # L^{-1} reaches 1e4^99, so the blocked joins overflow; the bound
    # 1 / ||T||_F^2 then reads 0 and the fit jitters, with no RuntimeWarning
    p = ABOVE_LEAF
    chol = np.eye(p) - 1e4 * np.eye(p, k=-1)
    sigma = chol @ chol.T
    gram = planted_gram(np.random.default_rng(930), sigma + np.eye(p))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        fit = rca_fit(gram, Explicit(sigma))
    assert fit.eig.jitter == JITTER_SCALE * (np.trace(sigma) / p)


def assert_matches_cholesky_solve(fit, gram, sigma, rank_tol):
    """fit against G S = Sigma S D solved by np.linalg.solve on L = chol(Sigma):
    generalized residual, Sigma-orthonormality, spectrum, q and X X'."""
    s, d = fit.eig.vectors, fit.eig.values
    scale = np.linalg.norm(gram) * np.linalg.norm(s)
    assert np.linalg.norm(gram @ s - sigma @ s * d) <= 1e-12 * scale
    assert np.linalg.norm(s.T @ sigma @ s - np.eye(len(d))) <= 1e-12 * len(d)
    chol = np.linalg.cholesky(sigma)
    reduced = np.linalg.solve(chol, np.linalg.solve(chol, gram).T)
    values, vectors = np.linalg.eigh(0.5 * (reduced + reduced.T))
    values, s_ref = values[::-1], np.linalg.solve(chol.T, vectors[:, ::-1])
    np.testing.assert_allclose(d, values, rtol=0, atol=1e-12 * np.abs(values).max())
    q = int(np.sum(values > 1.0 + rank_tol))
    assert fit.q == q
    x_ref = sigma @ s_ref[:, :q] * np.sqrt(values[:q] - 1.0)
    xxt_ref = x_ref @ x_ref.T
    assert np.linalg.norm(fit.loadings @ fit.loadings.T - xxt_ref) <= 1e-11 * np.linalg.norm(xxt_ref)


@pytest.mark.parametrize("p", BLOCKED_SIZES)
@pytest.mark.parametrize("kind", ["explicit", "blocks"])
def test_blocked_fit_matches_a_cholesky_solve(p, kind):
    rng = np.random.default_rng(910 + p)
    sigma = random_spd(rng, p)
    if kind == "blocks":
        half = p // 2
        sigma[:half, half:] = sigma[half:, :half] = 0.0
        spec = BlockDiagonal((sigma[:half, :half], sigma[half:, half:]))
    else:
        spec = Explicit(sigma)
    gram = planted_gram(rng, sigma)
    fit = rca_fit(gram, spec, n_obs=N_OBS)
    assert fit.eig.jitter == 0.0
    assert_matches_cholesky_solve(fit, gram, sigma, RANK_TOL)


@pytest.mark.parametrize("p", BLOCKED_SIZES)
def test_blocked_cca_fit_matches_a_cholesky_solve(p):
    rng = np.random.default_rng(920 + p)
    n, d1 = 4 * p, p // 2
    z = rng.standard_normal((n, 3))
    y = z @ rng.standard_normal((3, p)) + rng.standard_normal((n, p))
    fit = cca_fit(y[:, :d1], y[:, d1:])
    yc = y - y.mean(axis=0)
    c = yc.T @ yc / n
    sigma = c.copy()
    sigma[:d1, d1:] = sigma[d1:, :d1] = 0.0
    assert_matches_cholesky_solve(fit.fit, c, sigma, CORR_TOL)


@pytest.mark.parametrize("d1,d2", [(5, 3), (3, 5), (40, 20), (20, 40), (100, 100)])
def test_closed_form_cca_is_the_full_joint_solve(d1, d2):
    # every column of the closed form, the |d1 - d2| unit block included,
    # solves C S = blockdiag(C11, C22) S D, against a Cholesky solve and the
    # independent whitened-eigh oracle
    rng = np.random.default_rng(940 + d1 + 2 * d2)
    n, p = 4 * (d1 + d2), d1 + d2
    z = rng.standard_normal((n, 3))
    y = z @ rng.standard_normal((3, p)) + rng.standard_normal((n, p))
    fit = cca_fit(y[:, :d1], y[:, d1:])
    yc = y - y.mean(axis=0)
    c = yc.T @ yc / n
    sigma = c.copy()
    sigma[:d1, d1:] = sigma[d1:, :d1] = 0.0
    eig = fit.fit.eig
    assert eig.jitter == 0.0 and eig.vectors.shape == (p, p)
    assert_matches_cholesky_solve(fit.fit, c, sigma, CORR_TOL)
    m = min(d1, d2)
    np.testing.assert_allclose(eig.values + eig.values[::-1], 2.0, rtol=0, atol=1e-12)
    assert (eig.values[m:p - m] == 1.0).all()
    s = eig.vectors
    assert (s[np.argmax(np.abs(s), axis=0), np.arange(p)] > 0).all()
    np.testing.assert_allclose(fit.correlations, cca_correlations(y[:, :d1], y[:, d1:])[:fit.fit.q],
                               rtol=0, atol=1e-12)
