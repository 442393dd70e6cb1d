"""Squared-exponential temporal covariance for paired time-series models.

Duplicated time inputs are allowed on purpose: two series measured on a
shared clock are modeled as draws of one function, so equal times get
correlation one from the smooth part and differ only through the noise
diagonal.
"""

from dataclasses import dataclass

import numpy as np

ABSOLUTE = "absolute"
FRACTION = "fraction_of_data_variance"


@dataclass(frozen=True)
class KernelSpec:
    """Squared-exponential kernel with a noise diagonal.

    noise is the noise variance itself in "absolute" mode, or the fraction
    of the data variance in "fraction_of_data_variance" mode. Defaults match
    the standard configuration for the expression pipeline (lengthscale 20,
    noise at 1% of the data variance).
    """
    lengthscale: float = 20.0
    noise: float = 0.01
    noise_mode: str = FRACTION

    def __post_init__(self):
        if not self.lengthscale > 0:
            raise ValueError(f"lengthscale must be positive, got {self.lengthscale}")
        if not 0 <= self.noise < np.inf:
            raise ValueError(f"noise must be nonnegative and finite, got {self.noise}")
        if self.noise_mode not in (ABSOLUTE, FRACTION):
            raise ValueError(f"unknown noise mode: {self.noise_mode!r}")
        if self.noise_mode == FRACTION and self.noise > 1:
            raise ValueError(f"noise fraction must lie in [0, 1], got {self.noise}")

    def noise_variance(self, data_variance=None):
        """Effective diagonal noise variance."""
        if self.noise_mode == ABSOLUTE:
            return self.noise
        if data_variance is None:
            raise ValueError("fraction noise mode needs the data variance")
        if not 0 <= data_variance < np.inf:
            kind = "nonnegative" if data_variance < 0 else "finite"
            raise ValueError(f"data variance must be {kind}, got {data_variance}")
        return self.noise * data_variance


def rbf_gram(times, spec, data_variance=None):
    """Gram matrix exp(-0.5 (t_i - t_j)^2 / lengthscale^2) plus the noise
    diagonal.

    times may contain duplicates and need not be sorted. The result is
    exactly symmetric, has unit signal amplitude, and is positive
    semidefinite up to roundoff (strictly positive definite once noise is
    added).
    """
    t = np.asarray(times, dtype=float)
    if t.ndim != 1 or t.shape[0] < 1:
        raise ValueError("times must be a nonempty 1-D vector")
    if not np.isfinite(t).all():
        raise ValueError("times contain non-finite entries")
    diff = t[:, None] - t[None, :]
    gram = np.exp(-0.5 * (diff / spec.lengthscale) ** 2)
    gram[np.diag_indices_from(gram)] += spec.noise_variance(data_variance)
    return gram
