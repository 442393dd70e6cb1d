"""Seeded benchmark workloads: input generation, operations and output checks.

Every workload is a fixed cycle of operations. Inputs come only from the
seed; the library receives the generated arrays (or CSV files written into a
work directory) and nothing else. Each operation's output is checked by code
in this file, against references computed here with plain numpy. The checks
do not use the library's own oracles, so they survive those being moved.

Library functions are looked up on their modules at call time (``rca.x``,
``rca.cli.main``), so the tracer's wrappers are seen once installed.
"""

import hashlib
import os
import statistics
import time
from dataclasses import dataclass
from typing import Callable

import numpy as np

import rca
import rca.cli
import rca.io
import rca.synth

P = 400                 # dense_fit problem size
RESIDUAL_RANK = 5       # planted residual rank of the dense Grams
PPCA_N, PPCA_SIGMA2 = 1600, 4.0
ITRCA_ALPHAS = (0.1, 0.2, 0.3, 0.4, 0.5)
ITRCA_RANKS = (3, 2, 2)  # (q_shared, q1, q2) planted and expected back
# Prediction RMS may exceed the RMS of the exact conditional mean under the
# planted parameters by this factor (the fitted noise floor is alpha-driven).
RMS_SLACK = 1.02
# With 20 planted genes among 20000, chance gives AUC 0.5 +- 0.07; the synth
# generator's planted bump gives 0.75 or more on every seed in 0..149.
DIFFEXPR_GENES, DIFFEXPR_PLANTED, AUC_FLOOR = 20000, 20, 0.7

TOL = 1e-8


class CheckError(Exception):
    """An operation returned an output that fails its check."""


def require(ok, message):
    if not ok:
        raise CheckError(message)


@dataclass
class Op:
    """One operation: run() calls the library, check(result) raises
    CheckError on a wrong output and returns a dict of facts (e.g. n_iter)."""
    kind: str
    run: Callable[[], object]
    check: Callable[[object], dict]


@dataclass
class Workload:
    name: str
    cycle: list
    input_hash: str
    # Explicit-Sigma fit time over one np.linalg.eigh of the same Gram
    # (dense_fit only).
    eigh_equiv: Callable[[], float] | None = None


class InputHash:
    def __init__(self):
        self._h = hashlib.sha256()

    def add(self, *arrays):
        for a in arrays:
            a = np.ascontiguousarray(a, dtype=float)
            self._h.update(repr(a.shape).encode())
            self._h.update(a.tobytes())

    def add_bytes(self, data):
        self._h.update(data)

    def hexdigest(self):
        return self._h.hexdigest()


# ------------------------------------------------------------------ references

def _spd(rng, k):
    a = rng.standard_normal((k, k)) / np.sqrt(k)
    return a @ a.T + np.eye(k)


def _block_diag(*blocks):
    dim = sum(b.shape[0] for b in blocks)
    out = np.zeros((dim, dim))
    at = 0
    for b in blocks:
        k = b.shape[0]
        out[at:at + k, at:at + k] = b
        at += k
    return out


def planted_residual(seed):
    """The rank-RESIDUAL_RANK residual W of every dense Gram G = Sigma + W W'."""
    return np.random.default_rng([seed, 0]).standard_normal((P, RESIDUAL_RANK))


def cholesky_reduction(gram, sigma, n_obs=1):
    """Reference solve of G S = Sigma S D by the Cholesky route
    (C = L^-1 G L^-T, S = L^-T V), with the ML loadings and log likelihood."""
    chol = np.linalg.cholesky(sigma)
    half = np.linalg.solve(chol, gram)
    reduced = np.linalg.solve(chol, half.T)
    values, vectors = np.linalg.eigh(0.5 * (reduced + reduced.T))
    values, vectors = values[::-1], vectors[:, ::-1]
    s = np.linalg.solve(chol.T, vectors)
    q = int(np.sum(values > 1.0 + 1e-10))
    x = sigma @ s[:, :q] * np.sqrt(values[:q] - 1.0)
    k = x @ x.T + sigma
    logdet = np.linalg.slogdet(k)[1]
    quad = np.trace(np.linalg.solve(k, gram))
    ll = -0.5 * n_obs * (logdet + quad + gram.shape[0] * np.log(2.0 * np.pi))
    return {"values": values, "q": q, "xxt": x @ x.T, "ll": ll}


def check_gen_eig(eig, gram, sigma):
    """Generalized residual and Sigma-orthonormality of a full solve."""
    s, d = eig.vectors, eig.values
    resid = np.linalg.norm(gram @ s - sigma @ s * d) / np.linalg.norm(gram)
    require(resid <= TOL, f"||GS - Sigma S D|| / ||G|| = {resid:.3e}")
    ortho = np.linalg.norm(s.T @ sigma @ s - np.eye(s.shape[1]))
    require(ortho <= TOL, f"||S' Sigma S - I|| = {ortho:.3e}")
    require(np.all(np.diff(d) <= 0), "eigenvalues not sorted descending")


def check_rca(fit, gram, sigma, ref):
    check_gen_eig(fit.eig, gram, sigma)
    scale = max(1.0, float(np.abs(ref["values"]).max()))
    err = float(np.abs(fit.eig.values - ref["values"]).max())
    require(err <= TOL * scale, f"eigenvalues differ from reference by {err:.3e}")
    require(fit.q == ref["q"], f"q = {fit.q}, reference {ref['q']}")
    xxt = fit.loadings @ fit.loadings.T
    err = np.linalg.norm(xxt - ref["xxt"]) / max(np.linalg.norm(ref["xxt"]), 1e-300)
    require(err <= 1e-7, f"XX' differs from reference by {err:.3e} (relative)")
    err = abs(fit.log_likelihood - ref["ll"])
    require(err <= TOL * abs(ref["ll"]) + 1e-6,
            f"log likelihood {fit.log_likelihood!r}, reference {ref['ll']!r}")


def _columns_match(x, ref, tol):
    """Columns of x equal those of ref up to sign, relative to ||ref||."""
    if x.shape != ref.shape:
        return False
    diff = np.minimum(np.linalg.norm(x - ref, axis=0), np.linalg.norm(x + ref, axis=0))
    return float(diff.max(initial=0.0)) <= tol * max(np.linalg.norm(ref), 1e-300)


# ------------------------------------------------------------------ dense_fit

def setup_dense_fit(seed, workdir=None):
    """Six library fits at p = 400: rca_fit on G = Sigma + W W' for each
    covariance kind (W is the same planted rank-5 residual), then ppca_fit and
    cca_fit on planted data."""
    rng = np.random.default_rng([seed, 1])
    w = planted_residual(seed)
    half = P // 2
    blocks = (_spd(rng, half), _spd(rng, half))
    factors = 0.5 * rng.standard_normal((P, 20))
    explicit = _spd(rng, P)
    specs = {
        "explicit": (rca.Explicit(explicit), explicit),
        "identity": (rca.ScaledIdentity(1.0), np.eye(P)),
        "blocks": (rca.BlockDiagonal(blocks), _block_diag(*blocks)),
        "lowrank": (rca.LowRankPlusNoise(factors, 1.0), factors @ factors.T + np.eye(P)),
    }
    digest = InputHash()
    digest.add(w, *blocks, factors, explicit)

    cycle = []
    grams = {}
    for kind, (spec, sigma) in specs.items():
        gram = sigma + w @ w.T
        grams[kind] = gram
        ref = cholesky_reduction(gram, sigma)

        def run(gram=gram, spec=spec):
            return rca.rca_fit(gram, spec)

        def check(fit, gram=gram, sigma=sigma, ref=ref):
            check_rca(fit, gram, sigma, ref)
            return {}

        cycle.append(Op(f"rca_fit.{kind}", run, check))

    # PPCA: five orthogonal planted directions far above the noise bulk
    # (d/n = 1/4 puts the bulk below (1 + 1/2)^2 = 2.25 < sigma2).
    basis, _ = np.linalg.qr(rng.standard_normal((P, RESIDUAL_RANK)))
    loadings = basis * np.sqrt([50.0, 35.0, 25.0, 16.0, 10.0])
    y = (rng.standard_normal((PPCA_N, RESIDUAL_RANK)) @ loadings.T
         + rng.standard_normal((PPCA_N, P)) + rng.standard_normal(P))
    digest.add(y)
    yc = y - y.mean(axis=0)
    cov = yc.T @ yc / PPCA_N
    lam, u = np.linalg.eigh(cov)
    lam, u = lam[::-1], u[:, ::-1]
    q_ref = int(np.sum(lam > PPCA_SIGMA2))
    x_ref = u[:, :q_ref] * np.sqrt(lam[:q_ref] - PPCA_SIGMA2)

    def check_ppca(fit):
        check_gen_eig(fit.eig, cov, PPCA_SIGMA2 * np.eye(P))
        require(fit.q == q_ref == RESIDUAL_RANK, f"ppca q = {fit.q}, reference {q_ref}")
        require(_columns_match(fit.loadings, x_ref, 1e-7),
                "ppca loadings differ from U_q diag(sqrt(lambda_q - sigma2))")
        require(np.allclose(fit.mean, y.mean(axis=0), rtol=0, atol=1e-12),
                "ppca mean differs")
        return {}

    cycle.append(Op("ppca_fit", lambda: rca.ppca_fit(y, PPCA_SIGMA2), check_ppca))

    # CCA: two 200-column views sharing five latent columns.
    z = rng.standard_normal((PPCA_N, RESIDUAL_RANK))
    y1 = z @ rng.standard_normal((half, RESIDUAL_RANK)).T + 2.0 * rng.standard_normal((PPCA_N, half))
    y2 = z @ rng.standard_normal((half, RESIDUAL_RANK)).T + 2.0 * rng.standard_normal((PPCA_N, half))
    digest.add(y1, y2)
    joint = np.hstack([y1 - y1.mean(axis=0), y2 - y2.mean(axis=0)])
    c = joint.T @ joint / PPCA_N
    c11, c22, c12 = c[:half, :half], c[half:, half:], c[:half, half:]
    blocks_c = _block_diag(c11, c22)
    l1, l2 = np.linalg.cholesky(c11), np.linalg.cholesky(c22)
    whitened = np.linalg.solve(l1, np.linalg.solve(l2, c12.T).T)
    rho_ref = np.linalg.svd(whitened, compute_uv=False)

    def check_cca(fit):
        check_gen_eig(fit.fit.eig, c, blocks_c)
        q = fit.correlations.size
        require(q == int(np.sum(rho_ref > 1e-8)), f"cca keeps {q} correlations")
        err = float(np.abs(fit.correlations - rho_ref[:q]).max())
        require(err <= TOL, f"canonical correlations differ from SVD by {err:.3e}")
        cross = fit.s1.T @ c12 @ fit.s2
        err = float(np.abs(cross - np.diag(fit.correlations)).max())
        require(err <= 1e-7, f"s1' C12 s2 differs from diag(rho) by {err:.3e}")
        return {}

    cycle.append(Op("cca_fit", lambda: rca.cca_fit(y1, y2), check_cca))

    def eigh_equiv(pairs=9):
        """Median over back-to-back (fit, eigh) pairs, so both halves of each
        ratio see the same machine load."""
        gram, spec = grams["explicit"], specs["explicit"][0]
        ratios = []
        for _ in range(pairs):
            t0 = time.perf_counter()
            rca.rca_fit(gram, spec)
            t1 = time.perf_counter()
            np.linalg.eigh(gram)
            ratios.append((t1 - t0) / (time.perf_counter() - t1))
        return statistics.median(ratios)

    return Workload("dense_fit", cycle, digest.hexdigest(), eigh_equiv=eigh_equiv)


# ------------------------------------------------------------------ itrca_sweep

def optimal_rms(truth, y1, y2):
    """RMS of the exact conditional mean E[y1 | y2] under the planted truth."""
    c22 = (truth["w2"] @ truth["w2"].T + truth["v2"] @ truth["v2"].T
           + truth["sigma2_sq"] * np.eye(truth["mu2"].size))
    pred = (y2 - truth["mu2"]) @ np.linalg.solve(c22, truth["v2"] @ truth["v1"].T)
    return float(np.sqrt(np.mean((pred + truth["mu1"] - y1) ** 2)))


def setup_itrca_sweep(seed, workdir=None):
    """iterative_rca over five alphas on one planted shared/private set, each
    followed by an exact prediction of held-out view-1 rows."""
    q_shared, q1, q2 = ITRCA_RANKS
    y1, y2, truth = rca.synth.make_shared_private(
        seed, n=2000, d1=120, d2=80, q_shared=q_shared, q1=q1, q2=q2)
    t1, t2 = rca.synth.draw_shared_private(truth, 2000, np.random.default_rng([seed, 2]))
    digest = InputHash()
    digest.add(y1, y2, t1, t2)
    bound = RMS_SLACK * optimal_rms(truth, t1, t2)

    def make(alpha):
        def run():
            model = rca.iterative_rca(y1, y2, alpha)
            return model, rca.predict_view1(model, t2, mode="exact")

        def check(result):
            model, pred = result
            require(model.converged, f"alpha={alpha}: not converged")
            require(tuple(model.ranks) == ITRCA_RANKS,
                    f"alpha={alpha}: ranks {tuple(model.ranks)}")
            rms = float(np.sqrt(np.mean((np.asarray(pred) - t1) ** 2)))
            require(rms <= bound, f"alpha={alpha}: rms {rms:.4f} > {bound:.4f}")
            return {"n_iter": int(model.n_iter)}

        return Op(f"itrca.alpha{alpha}", run, check)

    return Workload("itrca_sweep", [make(a) for a in ITRCA_ALPHAS], digest.hexdigest())


# ------------------------------------------------------------------ cli_roundtrip

def read_manifest(path):
    with open(path, encoding="utf-8") as fh:
        return dict(line.rstrip("\n").split("=", 1) for line in fh if "=" in line)


def dir_hashes(path):
    out = {}
    for name in sorted(os.listdir(path)):
        with open(os.path.join(path, name), "rb") as fh:
            out[name] = hashlib.sha256(fh.read()).hexdigest()
    return out


def setup_cli_roundtrip(seed, workdir):
    """Five rca subcommands through CSV files, each into its own reused
    output directory."""
    def path(*parts):
        return os.path.join(workdir, *parts)

    w = planted_residual(seed)
    gram = np.eye(P) + w @ w.T
    ref = cholesky_reduction(gram, np.eye(P))
    q_shared, q1, q2 = ITRCA_RANKS
    y1, y2, truth = rca.synth.make_shared_private(
        seed, n=5000, d1=60, d2=40, q_shared=q_shared, q1=q1, q2=q2)
    t1, t2 = rca.synth.draw_shared_private(truth, 1000, np.random.default_rng([seed, 3]))
    rms_bound = RMS_SLACK * optimal_rms(truth, t1, t2)
    os.makedirs(workdir, exist_ok=True)
    files = {"gram.csv": gram, "y1.csv": y1, "y2.csv": y2,
             "y1_test.csv": t1, "y2_test.csv": t2}
    digest = InputHash()
    for name, data in files.items():
        digest.add(data)
        rca.io.save_csv(path(name), data)
    digest.add_bytes(str(seed).encode())  # synth-diffexpr draws from the seed

    first = {}

    def cli_op(kind, argv, check_manifest):
        outdir = path("out", kind)
        argv = argv + ["-o", outdir]

        def check(code):
            require(code == 0, f"{kind}: exit code {code}")
            facts = check_manifest(read_manifest(os.path.join(outdir, "manifest.txt")),
                                   outdir)
            hashes = dir_hashes(outdir)
            expected = first.setdefault(kind, hashes)
            require(hashes == expected, f"{kind}: artifacts differ from the first run")
            return facts

        return Op(f"cli.{kind}", lambda: rca.cli.main(argv), check)

    def check_synth(m, outdir):
        require(m.get("genes") == str(DIFFEXPR_GENES), "synth-diffexpr: gene count")
        return {}

    def check_diffexpr(m, outdir):
        auc = float(m["auc"])
        require(auc > AUC_FLOOR, f"diffexpr: auc {auc} <= {AUC_FLOOR}")
        require(int(m["q_used"]) >= 1, "diffexpr: no residual directions")
        return {}

    def check_itrca(m, outdir):
        require(m["converged"] == "True", "itrca: not converged")
        ranks = (int(m["q_shared"]), int(m["q1"]), int(m["q2"]))
        require(ranks == ITRCA_RANKS, f"itrca: ranks {ranks}")
        return {"n_iter": int(m["n_iter"])}

    def check_predict(m, outdir):
        pred = np.loadtxt(os.path.join(outdir, "predictions.csv"), delimiter=",", ndmin=2)
        rms = float(np.sqrt(np.mean((pred - t1) ** 2)))
        require(rms <= rms_bound, f"predict: rms {rms:.4f} > {rms_bound:.4f}")
        require(abs(float(m["rms"]) - rms) <= 1e-9 * rms, f"predict: manifest rms {m['rms']}")
        return {}

    def check_rca_manifest(m, outdir):
        require(int(m["q"]) == ref["q"] == RESIDUAL_RANK, f"rca: q = {m['q']}")
        values = np.loadtxt(os.path.join(outdir, "eigvals.csv"), skiprows=1)
        err = float(np.abs(values - ref["values"]).max())
        require(err <= TOL * ref["values"][0], f"rca: eigenvalues off by {err:.3e}")
        x = np.loadtxt(os.path.join(outdir, "loadings.csv"), delimiter=",", ndmin=2)
        err = np.linalg.norm(x @ x.T - ref["xxt"]) / np.linalg.norm(ref["xxt"])
        require(err <= 1e-7, f"rca: XX' differs from reference by {err:.3e} (relative)")
        ll = float(m["log_likelihood"])
        require(abs(ll - ref["ll"]) <= TOL * abs(ref["ll"]) + 1e-6,
                f"rca: log likelihood {ll!r}, reference {ref['ll']!r}")
        return {}

    synth_dir = path("out", "synth-diffexpr")
    model_dir = path("out", "itrca")
    cycle = [
        cli_op("synth-diffexpr",
               ["synth-diffexpr", "--seed", str(seed), "--genes", str(DIFFEXPR_GENES),
                "--planted", str(DIFFEXPR_PLANTED)], check_synth),
        cli_op("diffexpr",
               ["diffexpr"] + [arg for name in ("y1", "y2", "t1", "t2")
                               for arg in (f"--{name}", os.path.join(synth_dir, f"{name}.csv"))]
               + ["--labels", os.path.join(synth_dir, "labels.csv")], check_diffexpr),
        cli_op("itrca", ["itrca", "--y1", path("y1.csv"), "--y2", path("y2.csv"),
                         "--alpha", "0.1"], check_itrca),
        cli_op("predict", ["predict", "--model-dir", model_dir, "--y2", path("y2_test.csv"),
                           "--mode", "exact", "--truth", path("y1_test.csv")], check_predict),
        cli_op("rca", ["rca", "--gram", path("gram.csv"), "--sigma", "identity:1"], check_rca_manifest),
    ]
    return Workload("cli_roundtrip", cycle, digest.hexdigest())


SETUPS = {
    "dense_fit": setup_dense_fit,
    "itrca_sweep": setup_itrca_sweep,
    "cli_roundtrip": setup_cli_roundtrip,
}
