import warnings
from types import SimpleNamespace

import numpy as np
import pytest

import rca.cca
import rca.itrca
from rca.cca import cca_fit
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


def no_correlations(c, d1, n):
    """Stand-in for the start's CCA that finds no canonical correlation, so
    the shared loadings start empty."""
    return SimpleNamespace(correlations=np.zeros(0), v1=np.zeros((d1, 0)),
                           v2=np.zeros((c.shape[0] - d1, 0)))


def cold_fit(monkeypatch, *args, **kwargs):
    """iterative_rca with V started empty instead of at the CCA loadings."""
    with monkeypatch.context() as patch:
        patch.setattr(rca.itrca, "_cca_of_covariance", no_correlations)
        return iterative_rca(*args, **kwargs)


def below_edge_views(n=500, d1=15, d2=12):
    """Centred views of exactly orthogonal columns, except that column j of
    y2 leans 0.1 on column j of y1: every canonical correlation is then
    0.1 / sqrt(1.01), below the Wachter edge (0.32 at this shape)."""
    rng = np.random.default_rng(5)
    q, _ = np.linalg.qr(np.hstack([np.ones((n, 1)), rng.standard_normal((n, d1 + d2))]))
    basis = q[:, 1:] * np.sqrt(n)
    return basis[:, :d1] * np.linspace(3.0, 0.5, d1), basis[:, d1:] + 0.1 * basis[:, :d2]


def test_start_rank_counts_the_correlations_above_the_wachter_edge():
    # canonical correlations set exactly, two of them 0.002 either side of
    # the edge (0.32369 at n=500, d1=15, d2=12). Flipping a sign or an
    # operator in the edge formula moves it to 0.0185 or to 0.3278-0.3285,
    # across one of them
    n, d1, d2 = 500, 15, 12
    rng = np.random.default_rng(7)
    q, _ = np.linalg.qr(np.hstack([np.ones((n, 1)), rng.standard_normal((n, d1 + d2))]))
    basis = q[:, 1:] * np.sqrt(n)
    rho = np.zeros(d2)
    rho[:4] = 0.9, 0.32569, 0.32169, 0.1
    y2 = basis[:, d1:] + rho / np.sqrt(1.0 - rho ** 2) * basis[:, :d2]
    y1 = basis[:, :d1] * np.linspace(3.0, 0.5, d1)
    assert iterative_rca(y1, y2, alpha=0.1, max_iter=1).start_rank == 2


def assert_same_model(a, b):
    for name in ("w1", "w2", "v1", "v2", "history"):
        np.testing.assert_array_equal(getattr(a, name), getattr(b, name))
    assert (a.rank_history, a.converged, a.n_iter, a.start_rank) == \
        (b.rank_history, b.converged, b.n_iter, b.start_rank)


def test_first_pass_with_zero_shared_is_ppca(monkeypatch):
    # where the start falls back (d1 + d2 >= n, or no canonical correlation
    # above the edge) V starts empty, bitwise as a start that finds nothing;
    # the first private solve then sees Sigma = sigma1^2 I, which is exactly
    # the probabilistic-PCA problem for that view
    wide = make_shared_private(3, n=20)[:2]  # d1 + d2 = 27 > n
    for y1, y2 in (wide, below_edge_views()):
        for max_iter in (1, 200):
            model = iterative_rca(y1, y2, alpha=0.1, max_iter=max_iter)
            assert model.start_rank == 0
            assert_same_model(model, cold_fit(monkeypatch, y1, y2, alpha=0.1,
                                               max_iter=max_iter))
        w_first = iterative_rca(y1, y2, alpha=0.1, max_iter=1).w1
        ppca = ppca_fit(y1, model.sigma1_sq)
        assert w_first.shape[1] <= ppca.q
        np.testing.assert_allclose(np.abs(w_first),
                                   np.abs(ppca.loadings[:, :w_first.shape[1]]),
                                   atol=1e-10)


def assert_no_worse_than_cold(warm, cold, tol):
    assert warm.ranks == cold.ranks
    assert warm.converged == cold.converged
    assert warm.history[-1] >= cold.history[-1] - tol


@pytest.mark.parametrize("seed", range(10))
def test_warm_start_matches_cold_start(monkeypatch, seed):
    y1, y2, _ = make_shared_private(seed)
    warm = iterative_rca(y1, y2, alpha=0.1)
    assert warm.start_rank > 0
    assert_no_worse_than_cold(warm, cold_fit(monkeypatch, y1, y2, alpha=0.1),
                              1e-6 * y1.shape[0] * 27)


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_warm_start_at_bench_shape_takes_at_most_three_passes(monkeypatch, seed):
    y1, y2, _ = make_shared_private(seed, n=2000, d1=120, d2=80,
                                    q_shared=3, q1=2, q2=2)
    for alpha in (0.1, 0.2, 0.3, 0.4, 0.5):
        warm = iterative_rca(y1, y2, alpha=alpha)
        assert warm.start_rank == 3 and warm.n_iter <= 3
        assert_no_worse_than_cold(warm, cold_fit(monkeypatch, y1, y2, alpha=alpha),
                                  1e-6 * 2000 * 200)


def edge_views(kind, seed):
    y1, y2, _ = make_shared_private(seed)
    if kind == "identical":
        return y1, y1.copy()
    if kind == "duplicated_column":
        return y1, np.hstack([y2, y1[:, :1]])
    if kind == "constant_column":
        y1 = y1.copy()
        y1[:, 2] = 3.0
        return y1, y2
    return make_shared_private(seed, n=20)[:2]  # d1 + d2 > n


@pytest.mark.parametrize("kind", ["identical", "constant_column", "wider_than_n"])
def test_warm_start_on_edge_inputs(monkeypatch, kind):
    for seed in range(10):
        y1, y2 = edge_views(kind, seed)
        for alpha in (0.1, 0.3):
            assert_no_worse_than_cold(
                iterative_rca(y1, y2, alpha=alpha),
                cold_fit(monkeypatch, y1, y2, alpha=alpha),
                1e-6 * y1.shape[0] * (y1.shape[1] + y2.shape[1]))


def test_warm_start_keeps_a_duplicated_column_shared(monkeypatch):
    # a column of y1 copied into y2 is a canonical correlation of 1, and the
    # split of its variance between the shared and private blocks has more
    # than one fixed point. The start keeps it shared, where the cold start
    # can leave it private: on some seeds the ranks differ and the final
    # likelihood can sit above or below the cold start's. Both converge.
    for seed in range(10):
        y1, y2 = edge_views("duplicated_column", seed)
        for alpha in (0.1, 0.3):
            warm = iterative_rca(y1, y2, alpha=alpha)
            cold = cold_fit(monkeypatch, y1, y2, alpha=alpha)
            assert warm.converged and cold.converged
            assert warm.ranks[0] >= cold.ranks[0]


@pytest.mark.parametrize("seed", range(5))
@pytest.mark.parametrize("alpha", [0.1, 0.3])
@pytest.mark.parametrize("symmetry", ["rotate", "swap", "permute_rows"])
def test_two_view_symmetries_keep_ranks_and_likelihood(seed, alpha, symmetry):
    # per-view orthogonal rotations and a row permutation leave every view
    # and cross spectrum as it was; swapping the views swaps the private ranks
    y1, y2, _ = make_shared_private(seed)
    rng = np.random.default_rng(100 + seed)
    base = iterative_rca(y1, y2, alpha)
    qs, q1, q2 = base.ranks
    if symmetry == "rotate":
        r1, r2 = (np.linalg.qr(rng.standard_normal((y.shape[1],) * 2))[0] for y in (y1, y2))
        fit, ranks = iterative_rca(y1 @ r1, y2 @ r2, alpha), (qs, q1, q2)
    elif symmetry == "swap":
        fit, ranks = iterative_rca(y2, y1, alpha), (qs, q2, q1)
    else:
        perm = rng.permutation(y1.shape[0])
        fit, ranks = iterative_rca(y1[perm], y2[perm], alpha), (qs, q1, q2)
    assert tuple(fit.ranks) == ranks
    assert fit.converged == base.converged
    assert fit.history[-1] == pytest.approx(base.history[-1], rel=1e-12)


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
    # weaker loadings than make_shared_private's, so the sweep sheds a rank
    rng = np.random.default_rng(4)
    truth = {"v1": 1.2 * rng.standard_normal((15, 2)),
             "v2": 1.2 * rng.standard_normal((12, 2)),
             "w1": 0.7 * rng.standard_normal((15, 1)),
             "w2": 0.7 * rng.standard_normal((12, 1)),
             "sigma1_sq": 0.25 ** 2, "sigma2_sq": 0.25 ** 2,
             "mu1": 2.0 * rng.standard_normal(15),
             "mu2": 2.0 * rng.standard_normal(12)}
    y1, y2 = draw_shared_private(truth, 500, rng, orthogonal_latents=True)
    ranks = [iterative_rca(y1, y2, alpha=float(a)).ranks
             for a in np.arange(0.05, 0.91, 0.05)]
    for a, b in zip(ranks, ranks[1:]):
        assert all(x >= y for x, y in zip(a, b))
    assert ranks[-1] != ranks[0]  # the sweep actually sheds a dimension


def test_a_planted_run_converges_at_the_first_pass_it_can():
    # pass 2 is the first with a likelihood change to test, and on this
    # instance that change is already below the default tolerance
    y1, y2, _ = make_shared_private(0)
    model = iterative_rca(y1, y2, alpha=0.1)
    assert model.converged
    assert model.n_iter == 2


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


@pytest.mark.parametrize("kwargs,name", [
    ({"alpha": 1.5}, "alpha"), ({"alpha": 0.2, "tol": -1.0}, "tol"),
    ({"alpha": 0.2, "max_iter": 0}, "max_iter must be at least 1"),
    ({"alpha": 0.2, "max_iter": 2.5}, "max_iter must be at least 1 and an integer, got 2.5"),
    ({"alpha": 0.2, "max_iter": float("inf")}, "max_iter .* got inf"),
    # the open interval's ends and a zero tolerance are out too
    ({"alpha": 0.0}, "alpha must lie strictly inside \\(0, 1\\), got 0.0"),
    ({"alpha": 1.0}, "alpha must lie strictly inside \\(0, 1\\), got 1.0"),
    ({"alpha": 0.2, "tol": 0.0}, "tol must be positive, got 0.0")])
def test_scalar_arguments_are_checked_before_the_covariance(monkeypatch, kwargs, name):
    # a bad scalar costs no O(n d^2) pass over the views, and a non-integer
    # max_iter is named rather than left to range()'s TypeError
    def forbidden(*args, **kw):
        raise AssertionError("covariance formed")

    y1, y2, _ = make_shared_private(1, n=50)
    monkeypatch.setattr(rca.itrca, "_sample_covariance", forbidden)
    with pytest.raises(ValueError, match=name):
        iterative_rca(y1, y2, **kwargs)


def test_integer_max_iter_of_any_integer_type_runs():
    y1, y2, _ = make_shared_private(1, n=50)
    assert iterative_rca(y1, y2, alpha=0.2, max_iter=np.int64(1)).n_iter == 1


@pytest.mark.parametrize("fit", ["cca_fit", "iterative_rca", "joint_log_marginal"])
def test_two_view_fits_share_one_row_count_check(fit):
    y1, y2, _ = make_shared_private(1, n=50)
    calls = {
        "cca_fit": lambda: cca_fit(y1[:40], y2),
        "iterative_rca": lambda: iterative_rca(y1[:40], y2, alpha=0.2),
        "joint_log_marginal": lambda: joint_log_marginal(
            iterative_rca(y1, y2, alpha=0.2, max_iter=1), y1[:40], y2),
    }
    with pytest.raises(ValueError, match=r"^row-count mismatch: y1 has 40, y2 has 50$"):
        calls[fit]()


TWO_VIEW_FITS = {"cca_fit": cca_fit,
                 "iterative_rca": lambda y1, y2: iterative_rca(y1, y2, alpha=0.3),
                 # scores the scaled views under a model fitted to them at scale 1
                 "joint_log_marginal": lambda y1, y2: joint_log_marginal(
                     iterative_rca(*make_shared_private(1, n=50)[:2], alpha=0.3), y1, y2)}


# (view scales, the column named): a variance that overflows, or underflows
# below the normal doubles while its column is not constant. About a model's
# means a shrunken view is only far from them, so joint_log_marginal meets the
# overflows alone
OVERFLOWS = [(1e160, 1.0, "y1 column 0"), (1e200, 1.0, "y1 column 0")]
UNDERFLOWS = [(1e-160, 1.0, "y1 column 0"), (1e-200, 1.0, "y1 column 0"),
              (1e-170, 1e-170, "y1 column 0"), (1.0, 1e-160, "y2 column 0")]


@pytest.mark.parametrize("fit, s1, s2, column",
                         [(fit, *case) for fit in ("cca_fit", "iterative_rca")
                          for case in UNDERFLOWS + OVERFLOWS]
                         + [("joint_log_marginal", *case) for case in OVERFLOWS])
def test_two_view_fits_name_a_view_outside_the_normal_range(fit, s1, s2, column):
    y1, y2, _ = make_shared_private(1, n=50)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=rf"^{column}: variance .* is outside the normal "
                                             "floating-point range; rescale the view$"):
            TWO_VIEW_FITS[fit](s1 * y1, s2 * y2)


@pytest.mark.parametrize("s1, s2", [(1e-150, 1.0), (1e150, 1.0), (1e-150, 1e-150),
                                    (1e150, 1e-150)])
def test_two_view_fits_are_scale_free_across_the_normal_range(s1, s2):
    y1, y2, _ = make_shared_private(1)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        fits = [(cca_fit(s * y1, t * y2), iterative_rca(s * y1, t * y2, alpha=0.3))
                for s, t in ((1.0, 1.0), (s1, s2))]
    (cca, model), (cca_scaled, model_scaled) = fits
    np.testing.assert_allclose(cca_scaled.correlations, cca.correlations, rtol=0, atol=1e-12)
    assert model_scaled.ranks == model.ranks == (2, 1, 1)


@pytest.mark.parametrize("view", ["y1", "y2"])
def test_joint_log_marginal_names_a_column_count_mismatch(view):
    y1, y2, _ = make_shared_private(1, n=50)
    model = iterative_rca(y1, y2, alpha=0.2, max_iter=1)
    short = {"y1": (y1[:, :-1], y2), "y2": (y1, y2[:, :-1])}[view]
    d = {"y1": y1, "y2": y2}[view].shape[1]
    with pytest.raises(ValueError, match=rf"^{view} has {d - 1} columns but {d} means$"):
        joint_log_marginal(model, *short)


def test_failed_solve_names_its_block(monkeypatch):
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

    def failing_start(*args, **kwargs):
        raise np.linalg.LinAlgError("injected")

    # the start whitens each view, then takes one SVD
    monkeypatch.setattr(rca.cca, "_whitener", failing_start)
    with pytest.raises(np.linalg.LinAlgError,
                       match="^start, canonical correlations: injected$"):
        iterative_rca(y1, y2, alpha=0.2)
    monkeypatch.undo()
    monkeypatch.setattr(rca.cca.np.linalg, "svd", failing_start)
    with pytest.raises(np.linalg.LinAlgError,
                       match="^start, canonical correlations: injected$"):
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


@pytest.mark.parametrize("sizes,message", [
    ({"d1": 0}, "d1 must be at least 1, got 0"),
    ({"d2": -2}, "d2 must be at least 1, got -2"),
    ({"q_shared": -1}, "q_shared must be at least 0, got -1"),
    ({"q2": -1}, "q2 must be at least 0, got -1"),
    ({"n": 3, "q_shared": 2, "q1": 1, "q2": 1}, "n must exceed q_shared \\+ q1 \\+ q2 = 4, got 3")])
def test_make_shared_private_names_an_out_of_range_size(sizes, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        make_shared_private(1, **sizes)


@pytest.mark.parametrize("noise_sd", [np.nan, np.inf, -np.inf])
def test_make_shared_private_names_a_non_finite_noise_sd(noise_sd):
    with pytest.raises(ValueError, match=f"^noise_sd must be finite, got {noise_sd}$"):
        make_shared_private(1, n=50, noise_sd=noise_sd)


@pytest.mark.parametrize("n", [3, 4])
def test_orthogonal_latents_need_more_rows_than_latents(n):
    # centering leaves n - 1 degrees of freedom for the 4 latent columns, so
    # the draw is refused before any product rather than failing inside one
    _, _, truth = make_shared_private(1, n=50)
    with pytest.raises(ValueError, match=f"^n must exceed q_shared \\+ q1 \\+ q2 = 4, got {n}$"):
        draw_shared_private(truth, n, np.random.default_rng(0), orthogonal_latents=True)
    # independent draws need no such row count
    y1, y2 = draw_shared_private(truth, n, np.random.default_rng(0))
    assert (y1.shape, y2.shape) == ((n, 15), (n, 12))
