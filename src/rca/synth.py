"""Seeded generators for the planted instances used in tests and demos."""

import numpy as np

from .kernels import ABSOLUTE, KernelSpec, rbf_gram

TREATMENT_TIMES = np.arange(0.0, 241.0, 20.0)           # 13 points
CONTROL_TIMES = np.array([0.0, 20.0, 40.0, 60.0, 120.0, 180.0, 240.0])
# make_diffexpr_pair's profile and bump shapes; make_shared_private's scales
PROFILE_AMPLITUDE, PROFILE_LENGTHSCALE = 1.0, 20.0
BUMP_FACTOR, BUMP_LENGTHSCALE = 3.0, 8.0
SHARED_SCALE, PRIVATE_SCALE, MEAN_SCALE = 2.0, 1.5, 2.0


def make_diffexpr_pair(seed, n_genes=200, n_planted=10, noise_sd=0.2):
    """Two-condition expression data with a planted treatment response.

    Every gene follows one smooth profile sampled on the union time grid
    (control times are a subset of treatment times, so the null genes agree
    exactly up to white noise). The first n_planted genes additionally get a
    shared treatment-only bump of amplitude BUMP_FACTOR * noise_sd, with
    random sign and mild scale jitter per gene; the bump varies on a shorter
    lengthscale than the profiles so it reads as a real treatment response
    rather than profile wiggle.

    Returns (y1, y2, t1, t2, labels).
    """
    rng = np.random.default_rng(seed)
    t1, t2 = TREATMENT_TIMES, CONTROL_TIMES
    control_idx = np.searchsorted(t1, t2)

    def smooth_chol(scale):
        gram = rbf_gram(t1, KernelSpec(scale, 0.0, ABSOLUTE))
        return np.linalg.cholesky(gram + 1e-10 * np.eye(t1.size))

    profiles = smooth_chol(PROFILE_LENGTHSCALE) @ rng.standard_normal((t1.size, n_genes))
    # unit sample variance per gene before scaling: every gene then carries
    # the same signal-to-noise ratio, whatever its draw happened to look like
    profiles = PROFILE_AMPLITUDE * profiles / profiles.std(axis=0)

    bump = smooth_chol(BUMP_LENGTHSCALE) @ rng.standard_normal(t1.size)
    bump = bump / bump.std()
    signs = rng.choice([-1.0, 1.0], size=n_planted)
    scales = rng.uniform(0.8, 1.2, size=n_planted)

    y1 = profiles + noise_sd * rng.standard_normal((t1.size, n_genes))
    y2 = profiles[control_idx] + noise_sd * rng.standard_normal((t2.size, n_genes))
    y1[:, :n_planted] += BUMP_FACTOR * noise_sd * np.outer(bump, signs * scales)

    labels = np.zeros(n_genes, dtype=int)
    labels[:n_planted] = 1
    return y1, y2, t1.copy(), t2.copy(), labels


def draw_shared_private(truth, n, rng, orthogonal_latents=False):
    """Sample n rows of both views given generating parameters.

    With orthogonal_latents the shared and private latent columns are made
    exactly uncorrelated in-sample (unit sample variance); recovery errors
    are then attributable to the observation noise rather than to the
    realized correlation between latent draws.
    """
    q_shared, q1, q2 = (truth[key].shape[1] for key in ("v1", "w1", "w2"))
    lat = rng.standard_normal((n, q_shared + q1 + q2))
    if orthogonal_latents:
        basis, _ = np.linalg.qr(lat - lat.mean(axis=0))
        lat = basis * np.sqrt(n)
    z, x1, x2 = np.split(lat, [q_shared, q_shared + q1], axis=1)
    e1 = np.sqrt(truth["sigma1_sq"]) * rng.standard_normal((n, truth["mu1"].size))
    e2 = np.sqrt(truth["sigma2_sq"]) * rng.standard_normal((n, truth["mu2"].size))
    y1 = x1 @ truth["w1"].T + z @ truth["v1"].T + e1 + truth["mu1"]
    y2 = x2 @ truth["w2"].T + z @ truth["v2"].T + e2 + truth["mu2"]
    return y1, y2


def make_shared_private(seed, n=500, d1=15, d2=12, q_shared=2, q1=1, q2=1,
                        noise_sd=0.25):
    """Planted instance of the two-view shared/private latent model.

    Returns (y1, y2, truth) where truth holds the generating parameters:
    v1, v2 (shared loadings), w1, w2 (private loadings), sigma1_sq,
    sigma2_sq, mu1, mu2. The latent draws are in-sample orthogonal (see
    draw_shared_private); fresh test rows for the same truth come from
    draw_shared_private with a new rng.
    """
    rng = np.random.default_rng(seed)
    truth = {"v1": SHARED_SCALE * rng.standard_normal((d1, q_shared)),
             "v2": SHARED_SCALE * rng.standard_normal((d2, q_shared)),
             "w1": PRIVATE_SCALE * rng.standard_normal((d1, q1)),
             "w2": PRIVATE_SCALE * rng.standard_normal((d2, q2)),
             "sigma1_sq": noise_sd ** 2,
             "sigma2_sq": noise_sd ** 2,
             "mu1": MEAN_SCALE * rng.standard_normal(d1),
             "mu2": MEAN_SCALE * rng.standard_normal(d2)}
    y1, y2 = draw_shared_private(truth, n, rng, orthogonal_latents=True)
    return y1, y2, truth
