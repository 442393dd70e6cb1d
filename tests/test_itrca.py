import numpy as np
import pytest

from rca.cca import cca_fit, cca_oracle
from rca.core import ppca_fit, rca_fit
from rca.itrca import (
    iterative_rca,
    joint_log_marginal,
    predict_view1,
    rms_error,
)
from rca.synth import draw_shared_private, make_shared_private

from oracles import principal_angles_deg


def bayes_predict_view1(truth, y2):
    d2 = truth["mu2"].size
    c22 = (truth["w2"] @ truth["w2"].T + truth["v2"] @ truth["v2"].T
           + truth["sigma2_sq"] * np.eye(d2))
    cross = truth["v1"] @ truth["v2"].T
    return (y2 - truth["mu2"]) @ np.linalg.solve(c22, cross.T) + truth["mu1"]


# ---------------------------------------------------------------- fitting

def test_noise_dominated_alpha_collapses_to_empty_model():
    # flat-spectrum data: the joint sample covariance is exactly isotropic,
    # so with alpha near 1 the claimed noise swallows every eigenvalue
    rng = np.random.default_rng(1)
    n, d1, d2 = 200, 6, 5
    basis, _ = np.linalg.qr(rng.standard_normal((n, d1 + d2)))
    y = basis * np.sqrt(n)
    model = iterative_rca(y[:, :d1], y[:, d1:], alpha=0.9)
    assert model.ranks == (0, 0, 0)
    assert model.converged
    pred = predict_view1(model, rng.standard_normal(d2))
    np.testing.assert_allclose(pred, model.mu1)


def test_planted_recovery_fixed_seed():
    y1, y2, truth = make_shared_private(0)
    model = iterative_rca(y1, y2, alpha=0.1)
    assert model.ranks == (2, 1, 1)
    assert model.converged and model.n_iter <= 200
    v_angle = principal_angles_deg(np.vstack([model.v1, model.v2]),
                                   np.vstack([truth["v1"], truth["v2"]])).max()
    assert v_angle < 5.0
    assert principal_angles_deg(model.w1, truth["w1"]).max() < 5.0
    assert principal_angles_deg(model.w2, truth["w2"]).max() < 5.0


def test_first_pass_with_zero_shared_is_ppca():
    # with V = 0 the first private solve sees Sigma = sigma1^2 I, which is
    # exactly the probabilistic-PCA problem for that view
    y1, y2, _ = make_shared_private(3)
    n, d1 = y1.shape
    y1c = y1 - y1.mean(axis=0)
    c11 = y1c.T @ y1c / n
    sigma1_sq = 0.1 * np.trace(c11) / d1
    margin = 3.0 / np.sqrt(n)
    w_first = rca_fit(c11, sigma1_sq * np.eye(d1), rank_tol=margin).loadings
    ppca = ppca_fit(y1, sigma1_sq)
    assert w_first.shape[1] <= ppca.q
    np.testing.assert_allclose(np.abs(w_first),
                               np.abs(ppca.loadings[:, :w_first.shape[1]]),
                               atol=1e-10)


def test_history_monotone_on_planted_instance():
    y1, y2, _ = make_shared_private(0)
    model = iterative_rca(y1, y2, alpha=0.1)
    assert model.converged
    assert (np.diff(model.history) >= -1e-9).all()
    assert abs(model.history[-1] - model.history[-2]) <= 1e-6 * y1.shape[0] * 27


@pytest.mark.parametrize("seed", [0, 6, 7, 8, 9])
def test_history_is_the_joint_log_marginal(seed):
    # each pass is scored by the shared solve's closed form; on the last pass
    # that is the direct likelihood of the fitted model
    y1, y2, _ = make_shared_private(seed)
    model = iterative_rca(y1, y2, alpha=0.1)
    assert model.history[-1] == pytest.approx(joint_log_marginal(model, y1, y2),
                                              rel=1e-10)


def test_rank_monotone_in_alpha():
    y1, y2, _ = make_shared_private(4, private_scale=0.7, shared_scale=1.2)
    ranks = [iterative_rca(y1, y2, alpha=float(a)).ranks
             for a in np.arange(0.05, 0.91, 0.05)]
    for a, b in zip(ranks, ranks[1:]):
        assert all(x >= y for x, y in zip(a, b))
    assert ranks[-1] != ranks[0]  # the sweep actually sheds a dimension


def test_nonconvergence_is_reported():
    y1, y2, _ = make_shared_private(2)
    model = iterative_rca(y1, y2, alpha=0.1, tol=1e-300, max_iter=3)
    assert not model.converged
    assert model.n_iter == 3


def test_input_validation():
    y1, y2, _ = make_shared_private(1, n=50)
    with pytest.raises(ValueError, match="alpha"):
        iterative_rca(y1, y2, alpha=1.5)
    with pytest.raises(ValueError, match="mismatch"):
        iterative_rca(y1[:40], y2, alpha=0.2)
    with pytest.raises(ValueError, match="max_iter"):
        iterative_rca(y1, y2, alpha=0.2, max_iter=0)
    with pytest.raises(ValueError, match="tol"):
        iterative_rca(y1, y2, alpha=0.2, tol=float("nan"))
    with pytest.raises(ValueError, match="rank_margin"):
        iterative_rca(y1, y2, alpha=0.2, rank_margin=-0.5)


@pytest.mark.parametrize("fit", ["cca_fit", "cca_oracle", "iterative_rca",
                                 "joint_log_marginal"])
def test_two_view_fits_share_one_row_count_check(fit):
    y1, y2, _ = make_shared_private(1, n=50)
    calls = {
        "cca_fit": lambda: cca_fit(y1[:40], y2),
        "cca_oracle": lambda: cca_oracle(y1[:40], y2),
        "iterative_rca": lambda: iterative_rca(y1[:40], y2, alpha=0.2),
        "joint_log_marginal": lambda: joint_log_marginal(
            iterative_rca(y1, y2, alpha=0.2, max_iter=1), y1[:40], y2),
    }
    with pytest.raises(ValueError, match=r"^row-count mismatch: y1 has 40, y2 has 50$"):
        calls[fit]()


@pytest.mark.parametrize("view", ["y1", "y2"])
def test_joint_log_marginal_names_a_column_count_mismatch(view):
    y1, y2, _ = make_shared_private(1, n=50)
    model = iterative_rca(y1, y2, alpha=0.2, max_iter=1)
    short = {"y1": (y1[:, :-1], y2), "y2": (y1, y2[:, :-1])}[view]
    d = {"y1": y1, "y2": y2}[view].shape[1]
    with pytest.raises(ValueError, match=rf"^{view} has {d - 1} columns but {d} means$"):
        joint_log_marginal(model, *short)


def test_failed_solve_names_its_block(monkeypatch):
    import rca.itrca
    y1, y2, _ = make_shared_private(1, n=50)
    calls = [0]

    def failing(*args, **kwargs):
        calls[0] += 1
        if calls[0] == 3:
            raise np.linalg.LinAlgError("injected")
        return rca_fit(*args, **kwargs)

    monkeypatch.setattr(rca.itrca, "rca_fit", failing)
    with pytest.raises(np.linalg.LinAlgError, match="iteration 1, shared block: injected"):
        iterative_rca(y1, y2, alpha=0.2)


# ---------------------------------------------------------------- likelihood

def test_joint_log_marginal_zero_data_identity():
    from rca.itrca import SharedPrivateModel
    n, d1, d2 = 6, 4, 3
    model = SharedPrivateModel(
        w1=np.zeros((d1, 0)), w2=np.zeros((d2, 0)),
        v1=np.zeros((d1, 0)), v2=np.zeros((d2, 0)),
        sigma1_sq=1.0, sigma2_sq=1.0,
        mu1=np.zeros(d1), mu2=np.zeros(d2), alpha=0.5,
        history=np.array([]), converged=True, n_iter=1)
    value = joint_log_marginal(model, np.zeros((n, d1)), np.zeros((n, d2)))
    assert value == pytest.approx(-0.5 * n * (d1 + d2) * np.log(2 * np.pi))


def test_joint_log_marginal_matches_entropy_monte_carlo():
    y1, y2, _ = make_shared_private(6)
    model = iterative_rca(y1, y2, alpha=0.1)
    cov = model.joint_covariance()
    dim = cov.shape[0]
    rng = np.random.default_rng(99)
    n = 2000
    chol = np.linalg.cholesky(cov)
    draws = rng.standard_normal((n, dim)) @ chol.T
    sign, logdet = np.linalg.slogdet(cov)
    quad = np.einsum("ij,ij->i", draws, np.linalg.solve(cov, draws.T).T)
    per_row = -0.5 * (dim * np.log(2 * np.pi) + logdet + quad)
    analytic = -0.5 * (dim * np.log(2 * np.pi) + logdet + dim)
    se = per_row.std(ddof=1) / np.sqrt(n)
    total = joint_log_marginal(model,
                               draws[:, :model.mu1.size] + model.mu1,
                               draws[:, model.mu1.size:] + model.mu2)
    assert total / n == pytest.approx(per_row.mean(), rel=1e-9)
    assert abs(total / n - analytic) <= 3 * se


# ---------------------------------------------------------------- prediction

def test_predict_at_mean_returns_view1_mean():
    y1, y2, _ = make_shared_private(7)
    model = iterative_rca(y1, y2, alpha=0.1)
    np.testing.assert_allclose(predict_view1(model, model.mu2), model.mu1,
                               atol=1e-10)
    np.testing.assert_allclose(predict_view1(model, model.mu2, mode="exact"),
                               model.mu1, atol=1e-10)


def test_predict_is_affine():
    y1, y2, _ = make_shared_private(8)
    model = iterative_rca(y1, y2, alpha=0.1)
    rng = np.random.default_rng(2)
    a = rng.standard_normal(model.mu2.size)
    plus = predict_view1(model, model.mu2 + a)
    minus = predict_view1(model, model.mu2 - a)
    np.testing.assert_allclose(plus + minus, 2.0 * model.mu1, atol=1e-9)


def test_exact_predictor_near_bayes_optimal():
    y1, y2, truth = make_shared_private(9)
    model = iterative_rca(y1, y2, alpha=0.1)
    rng = np.random.default_rng(10_009)
    y1t, y2t = draw_shared_private(truth, 500, rng)
    fitted = rms_error(predict_view1(model, y2t, mode="exact"), y1t)
    bayes = rms_error(bayes_predict_view1(truth, y2t), y1t)
    assert fitted <= 1.1 * bayes


def test_predict_rejects_bad_input():
    y1, y2, _ = make_shared_private(11, n=60)
    model = iterative_rca(y1, y2, alpha=0.2)
    with pytest.raises(ValueError, match="features"):
        predict_view1(model, np.zeros(model.mu2.size + 1))
    with pytest.raises(ValueError, match="mode"):
        predict_view1(model, model.mu2, mode="bogus")
    for empty in (np.zeros((0, model.mu2.size)), np.zeros(0)):
        with pytest.raises(ValueError, match="y2 must be 2-D with at least one row"):
            predict_view1(model, empty)
    bad = y2[:3].copy()
    bad[1, 2] = np.nan
    for rows in (bad, bad[1]):
        with pytest.raises(ValueError, match="y2 contains non-finite entries"):
            predict_view1(model, rows)


# ---------------------------------------------------------------- rms_error

def test_rms_error_basics():
    assert rms_error(np.ones((3, 2)), np.ones((3, 2))) == 0.0
    assert rms_error(np.ones((3, 2)) + 1.0, np.ones((3, 2))) == pytest.approx(1.0)
    assert rms_error(np.array([[0.0, 0.0]]), np.array([[3.0, 4.0]])) == \
        pytest.approx(np.sqrt(12.5))
    with pytest.raises(ValueError, match="mismatch"):
        rms_error(np.ones((2, 2)), np.ones((3, 2)))
