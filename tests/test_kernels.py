import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from rca.kernels import ABSOLUTE, FRACTION, KernelSpec, rbf_gram


def test_duplicated_times_fully_correlated():
    gram = rbf_gram([0.0, 0.0], KernelSpec(20.0, 0.0, ABSOLUTE))
    np.testing.assert_allclose(gram, np.ones((2, 2)))


def test_one_lengthscale_gap():
    # gap of exactly one lengthscale: off-diagonal exp(-0.5), tiny noise on the diagonal
    gram = rbf_gram([0.0, 20.0], KernelSpec(20.0, 1e-4, ABSOLUTE))
    assert gram[0, 1] == pytest.approx(np.exp(-0.5))
    assert gram[0, 1] == pytest.approx(0.606531, abs=1e-6)
    np.testing.assert_allclose(np.diag(gram), [1.0001, 1.0001])
    assert gram[1, 0] == gram[0, 1]


def paper_time_grid():
    t1 = np.arange(0.0, 241.0, 20.0)  # 13 treatment times
    t2 = np.array([0.0, 20.0, 40.0, 60.0, 120.0, 180.0, 240.0])  # 7 control times
    return t1, t2


def test_augmented_time_grid():
    t1, t2 = paper_time_grid()
    t = np.concatenate([t1, t2])
    assert t.shape == (20,)
    gram = rbf_gram(t, KernelSpec(20.0, 1e-4, ABSOLUTE))
    assert gram.shape == (20, 20)
    np.testing.assert_allclose(gram, gram.T)
    # cross-block correlation at equal gap matches within-block correlation
    # (t1[0], t1[1]) and (t1[0], t2[1]) are both 20 apart
    assert gram[0, 1] == gram[0, 14]
    # duplicated times across blocks: unit correlation off the diagonal
    assert gram[0, 13] == 1.0


def test_fraction_mode_uses_data_variance():
    spec = KernelSpec(20.0, 0.01, FRACTION)
    gram = rbf_gram([0.0, 50.0], spec, data_variance=4.0)
    np.testing.assert_allclose(np.diag(gram), [1.04, 1.04])
    with pytest.raises(ValueError, match="data variance"):
        rbf_gram([0.0, 50.0], spec)
    with pytest.raises(ValueError, match="data variance must be nonnegative, got -1.0"):
        rbf_gram([0.0, 50.0], spec, data_variance=-1.0)


@pytest.mark.parametrize("bad,message", [(np.nan, "finite, got nan"), (np.inf, "finite, got inf"),
                                         (-np.inf, "nonnegative, got -inf")])
def test_non_finite_data_variance_is_rejected(bad, message):
    # a NaN would otherwise reach the noise diagonal unnoticed
    with pytest.raises(ValueError, match=f"data variance must be {message}"):
        rbf_gram(np.arange(3.0), KernelSpec(), data_variance=bad)
    with pytest.raises(ValueError, match=f"data variance must be {message}"):
        KernelSpec().noise_variance(bad)


@pytest.mark.parametrize("times, message", [
    ([[0.0, 20.0]], "times must be a nonempty 1-D vector"),
    ([], "times must be a nonempty 1-D vector"),
    ([0.0, np.nan], "times contain non-finite entries"),
    ([np.inf, 20.0], "times contain non-finite entries"),
])
def test_rbf_gram_rejects_bad_times(times, message):
    with pytest.raises(ValueError, match=message):
        rbf_gram(times, KernelSpec(20.0, 0.1, ABSOLUTE))


def test_spec_validation():
    with pytest.raises(ValueError, match="lengthscale"):
        KernelSpec(0.0, 0.1, ABSOLUTE)
    with pytest.raises(ValueError, match="noise"):
        KernelSpec(1.0, -0.1, ABSOLUTE)
    with pytest.raises(ValueError, match="fraction"):
        KernelSpec(1.0, 1.5, FRACTION)
    with pytest.raises(ValueError, match="noise mode"):
        KernelSpec(1.0, 0.1, "bogus")
    # NaN fails every comparison; let through, it makes the whole Gram NaN
    with pytest.raises(ValueError, match="lengthscale"):
        KernelSpec(float("nan"), 0.1, ABSOLUTE)
    for mode in (ABSOLUTE, FRACTION):
        with pytest.raises(ValueError, match="noise must be nonnegative"):
            KernelSpec(1.0, float("nan"), mode)
        # an infinite absolute noise would put inf on the Gram's diagonal
        with pytest.raises(ValueError, match="noise must be nonnegative and finite, got inf"):
            KernelSpec(20.0, float("inf"), mode)


@settings(max_examples=50, deadline=None, derandomize=True)
@given(st.integers(min_value=2, max_value=25),
       st.floats(min_value=0.5, max_value=100.0),
       st.floats(min_value=0.0, max_value=0.5),
       st.integers(min_value=0, max_value=2 ** 31 - 1))
def test_psd_and_shift_invariance(n, lengthscale, noise, seed):
    rng = np.random.default_rng(seed)
    # integer grids keep time differences exact in floating point, so the
    # shift-invariance check can demand bit equality
    times = rng.integers(0, 300, size=n).astype(float)
    spec = KernelSpec(lengthscale, noise, ABSOLUTE)
    gram = rbf_gram(times, spec)
    assert np.array_equal(gram, gram.T)
    assert np.linalg.eigvalsh(gram).min() >= noise - 1e-10
    shifted = rbf_gram(times + float(rng.integers(-1000, 1000)), spec)
    assert np.array_equal(gram, shifted)


def test_monotone_decay_in_gap():
    spec = KernelSpec(15.0, 0.0, ABSOLUTE)
    gaps = np.array([0.0, 5.0, 10.0, 40.0, 100.0])
    gram = rbf_gram(gaps, spec)
    row = gram[0]
    assert (np.diff(row) < 0).all()
    assert ((gram > 0) & (gram <= 1.0)).all()
