"""Acceptance gate: each test checks one release criterion at its stated
tolerance and prints a PASS line (run with -s to see them)."""

import time

import numpy as np

from rca.cca import cca_fit
from rca.cli import main as cli_main
from rca.core import Explicit, log_marginal, ppca_fit, rca_fit
from rca.diffexpr import TimeSeriesPair, residual_scores, roc_curve
from rca.itrca import iterative_rca, predict_view1, rms_error
from rca.kernels import ABSOLUTE, KernelSpec, rbf_gram
from rca.linalg import gen_eig_spd
from rca.synth import draw_shared_private, make_diffexpr_pair, make_shared_private

from oracles import cca_correlations, principal_angles_deg, tipping_bishop_loadings


def report(name):
    print(f"ACCEPTANCE PASS: {name}")


def test_generalized_eig_correctness():
    rng = np.random.default_rng(2024)
    start = time.perf_counter()
    for _ in range(500):
        n = int(rng.integers(2, 13))
        a = rng.standard_normal((n, n))
        a = 0.5 * (a + a.T)
        c = rng.standard_normal((n, n))
        sigma = c.T @ c + np.eye(n)
        eig = gen_eig_spd(a, sigma)
        residual = np.linalg.norm(
            a @ eig.vectors - sigma @ eig.vectors @ np.diag(eig.values))
        assert residual <= 1e-8 * (np.linalg.norm(a) + np.linalg.norm(sigma))
        assert np.linalg.norm(
            eig.vectors.T @ sigma @ eig.vectors - np.eye(n)) <= 1e-8
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0, f"500 solves took {elapsed:.2f}s"
    report(f"generalized-eig correctness (500 instances in {elapsed:.2f}s)")


def test_ppca_reduction_closed_form():
    rng = np.random.default_rng(77)
    for _ in range(100):
        n = int(rng.integers(5, 51))
        d = int(rng.integers(2, 11))
        y = rng.standard_normal((n, d)) * rng.uniform(0.2, 3.0, d)
        lam = np.linalg.eigvalsh(np.cov(y.T, bias=True) if d > 1 else
                                 np.atleast_2d(np.var(y)))
        for sigma2 in np.geomspace(0.5 * lam.min() + 1e-3, 2.0 * lam.max(), 5):
            fit = ppca_fit(y, float(sigma2))
            oracle = tipping_bishop_loadings(y, float(sigma2))
            assert fit.loadings.shape == oracle.shape
            for j in range(oracle.shape[1]):
                delta = min(np.linalg.norm(fit.loadings[:, j] - oracle[:, j]),
                            np.linalg.norm(fit.loadings[:, j] + oracle[:, j]))
                assert delta <= 1e-8
    report("PPCA reduction matches the closed form (100 datasets x 5 noise levels)")


def test_cca_equivalence():
    rng = np.random.default_rng(99)
    for _ in range(100):
        n = int(rng.integers(12, 61))
        d1 = int(rng.integers(2, 7))
        d2 = int(rng.integers(2, 7))
        shared = rng.standard_normal((n, 2))
        y1 = shared @ rng.standard_normal((2, d1)) + rng.standard_normal((n, d1))
        y2 = shared @ rng.standard_normal((2, d2)) + rng.standard_normal((n, d2))
        fit = cca_fit(y1, y2)
        oracle = cca_correlations(y1, y2)
        np.testing.assert_allclose(fit.correlations,
                                   oracle[:fit.correlations.size], atol=1e-8)
        values = fit.fit.eig.values
        np.testing.assert_allclose(values + values[::-1],
                                   2.0 * np.ones_like(values), atol=1e-8)
    report("CCA equivalence with the whitened-cross-covariance oracle (100 pairs)")


def test_stationarity_of_fit():
    rng = np.random.default_rng(500)
    for _ in range(20):
        n = int(rng.integers(3, 8))
        d = int(rng.integers(15, 40))
        c = rng.standard_normal((n, n))
        sigma = c.T @ c + np.eye(n)
        x0 = rng.standard_normal((n, 1)) * 2.0
        y = x0 @ rng.standard_normal((1, d)) \
            + np.linalg.cholesky(sigma) @ rng.standard_normal((n, d))
        fit = rca_fit(y @ y.T / d, Explicit(sigma))
        base = log_marginal(y, fit.loadings, sigma)
        for i in range(n):
            for j in range(fit.q):
                for delta in (1e-4, -1e-4):
                    x = fit.loadings.copy()
                    x[i, j] += delta
                    assert log_marginal(y, x, sigma) <= base + 1e-6
    report("stationarity: per-entry perturbations never improve the likelihood")


def test_differential_expression_planting():
    aucs = []
    for seed in range(20):
        y1, y2, t1, t2, labels = make_diffexpr_pair(seed, n_genes=200,
                                                    n_planted=10)
        start = time.perf_counter()
        ranking = residual_scores(TimeSeriesPair(y1, y2, t1, t2), KernelSpec())
        elapsed = time.perf_counter() - start
        assert elapsed < 2.0, f"seed {seed} took {elapsed:.2f}s"
        aucs.append(roc_curve(ranking.scores, labels).auc)
    mean_auc = float(np.mean(aucs))
    assert mean_auc >= 0.95, f"mean AUC {mean_auc:.4f}"
    report(f"differential-expression planting (mean AUC {mean_auc:.3f} over 20 seeds)")


def test_iterative_rca_recovery():
    hits = 0
    for seed in range(20):
        y1, y2, truth = make_shared_private(seed)
        model = iterative_rca(y1, y2, alpha=0.1)
        assert model.converged and model.n_iter <= 200
        if model.ranks != (2, 1, 1):
            continue
        hits += 1
        assert principal_angles_deg(
            np.vstack([model.v1, model.v2]),
            np.vstack([truth["v1"], truth["v2"]])).max() < 5.0
        assert principal_angles_deg(model.w1, truth["w1"]).max() < 5.0
        assert principal_angles_deg(model.w2, truth["w2"]).max() < 5.0

        rng = np.random.default_rng(seed + 10_000)
        y1t, y2t = draw_shared_private(truth, 500, rng)
        fitted_rms = rms_error(predict_view1(model, y2t, mode="exact"), y1t)
        d2 = truth["mu2"].size
        c22 = (truth["w2"] @ truth["w2"].T + truth["v2"] @ truth["v2"].T
               + truth["sigma2_sq"] * np.eye(d2))
        bayes = (y2t - truth["mu2"]) @ np.linalg.solve(
            c22, (truth["v1"] @ truth["v2"].T).T) + truth["mu1"]
        assert fitted_rms <= 1.1 * rms_error(bayes, y1t)
    assert hits >= 18, f"ranks recovered in only {hits}/20 seeds"
    report(f"iterative recovery: ranks {hits}/20, angles < 5 deg, "
           "prediction within 10% of Bayes")


def test_rank_monotonicity_in_alpha():
    y1, y2, _ = make_shared_private(0)
    ranks = [iterative_rca(y1, y2, alpha=float(a)).ranks
             for a in np.arange(0.05, 0.91, 0.05)]
    for a, b in zip(ranks, ranks[1:]):
        assert all(x >= y for x, y in zip(a, b)), f"{a} -> {b}"
    report("rank monotonicity over the alpha sweep 0.05..0.90")


def test_kernel_properties():
    rng = np.random.default_rng(123)
    for _ in range(100):
        n = int(rng.integers(2, 30))
        times = rng.integers(0, 500, size=n).astype(float)
        lengthscale = float(rng.uniform(0.5, 80.0))
        noise = float(rng.choice([0.0, 1e-4, 0.01, 0.3]))
        spec = KernelSpec(lengthscale, noise, ABSOLUTE)
        gram = rbf_gram(times, spec)
        assert np.linalg.eigvalsh(gram).min() >= noise - 1e-10
        shifted = rbf_gram(times + float(rng.integers(-2000, 2000)), spec)
        assert np.array_equal(gram, shifted)
    report("kernel PSD floor and exact shift invariance (100 instances)")


def test_cli_determinism(tmp_path):
    def run(*argv):
        assert cli_main(list(argv)) == 0

    def snapshot(directory):
        return {f.name: f.read_bytes() for f in sorted(directory.iterdir())}

    # fixtures
    fixtures = tmp_path / "fix"
    run("synth-diffexpr", "--seed", "5", "--genes", "40", "--planted", "4",
        "-o", str(fixtures / "de"))
    run("synth-shared", "--seed", "5", "--n", "200", "-o", str(fixtures / "sp"))
    rng = np.random.default_rng(0)
    b = rng.standard_normal((5, 5))
    from rca.io import save_csv
    save_csv(fixtures / "gram.csv", b.T @ b + 2 * np.eye(5))
    save_csv(fixtures / "y.csv", rng.standard_normal((30, 4)))

    commands = {
        "synth-diffexpr": ["synth-diffexpr", "--seed", "9", "--genes", "30",
                           "--planted", "3"],
        "synth-shared": ["synth-shared", "--seed", "9", "--n", "150"],
        "rca": ["rca", "--gram", str(fixtures / "gram.csv"),
                "--sigma", "identity:1.0"],
        "ppca": ["ppca", "--data", str(fixtures / "y.csv"), "--sigma2", "0.1"],
        "cca": ["cca", "--y1", str(fixtures / "de" / "y1.csv"),
                "--y2", str(fixtures / "de" / "y1.csv")],
        "diffexpr": ["diffexpr", "--y1", str(fixtures / "de" / "y1.csv"),
                     "--y2", str(fixtures / "de" / "y2.csv"),
                     "--t1", str(fixtures / "de" / "t1.csv"),
                     "--t2", str(fixtures / "de" / "t2.csv"),
                     "--labels", str(fixtures / "de" / "labels.csv")],
        "itrca": ["itrca", "--y1", str(fixtures / "sp" / "y1.csv"),
                  "--y2", str(fixtures / "sp" / "y2.csv"), "--alpha", "0.1"],
    }
    for name, argv in commands.items():
        a = tmp_path / f"{name}-a"
        b_dir = tmp_path / f"{name}-b"
        run(*argv, "-o", str(a))
        run(*argv, "-o", str(b_dir))
        assert snapshot(a) == snapshot(b_dir), f"{name} not deterministic"

    # predict needs a fitted model dir
    model_dir = tmp_path / "itrca-a"
    argv = ["predict", "--model-dir", str(model_dir),
            "--y2", str(fixtures / "sp" / "y2.csv"), "--mode", "exact",
            "--truth", str(fixtures / "sp" / "y1.csv")]
    a = tmp_path / "predict-a"
    b_dir = tmp_path / "predict-b"
    run(*argv, "-o", str(a))
    run(*argv, "-o", str(b_dir))
    assert snapshot(a) == snapshot(b_dir), "predict not deterministic"
    report("CLI determinism: byte-identical artifacts for every subcommand")
