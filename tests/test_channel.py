import numpy as np
import pytest

from spherecodes import (
    GmmBatch,
    rng_for,
    sample_codebook,
    sample_gmm,
)


@pytest.fixture
def cb():
    return sample_codebook(10, 4, rng_for(30))


def test_shapes_and_label_range(cb):
    batch = sample_gmm(cb, 0.5, 37, rng_for(31))
    assert batch.observations().shape == (37, 10)
    labels = batch.privileged_labels()
    assert labels.shape == (37,)
    assert labels.min() >= 0 and labels.max() < 4


def test_observations_are_read_only(cb):
    batch = sample_gmm(cb, 0.5, 5, rng_for(32))
    with pytest.raises(ValueError):
        batch.observations()[0, 0] = 99.0
    with pytest.raises(ValueError):
        batch.privileged_labels()[0] = 1


def test_noise_statistics(cb):
    # residual Y - X_label is N(0, sigma2 I): check mean and variance
    sigma2 = 0.7
    n = 40_000
    batch = sample_gmm(cb, sigma2, n, rng_for(33))
    resid = batch.observations() - cb.centers[batch.privileged_labels()]
    flat = resid.ravel()
    assert abs(flat.mean()) <= 4.5 * np.sqrt(sigma2 / flat.size)
    assert flat.var() == pytest.approx(sigma2, rel=0.02)


def test_labels_uniform(cb):
    n = 40_000
    batch = sample_gmm(cb, 1.0, n, rng_for(34))
    counts = np.bincount(batch.privileged_labels(), minlength=4)
    # binomial(n, 1/4) std ~ 87; allow 5 sigma
    assert np.all(np.abs(counts - n / 4) <= 5 * np.sqrt(n * 0.25 * 0.75))


def test_sigma2_domain(cb):
    with pytest.raises(ValueError, match="sigma2"):
        sample_gmm(cb, 0.0, 10, rng_for(38))
    with pytest.raises(ValueError):
        sample_gmm(cb, 1.0, 0, rng_for(38))


def test_batch_over_the_byte_budget_raises_before_drawing(cb):
    # 10^12 samples would need 88 TB; the check must refuse before allocating
    with pytest.raises(ValueError, match=r"n=1000000000000 .* 88000000000000 bytes"):
        sample_gmm(cb, 1.0, 10**12, rng_for(38))


def test_determinism(cb):
    a = sample_gmm(cb, 0.3, 100, rng_for(39))
    b = sample_gmm(cb, 0.3, 100, rng_for(39))
    assert np.array_equal(a.observations(), b.observations())
    assert np.array_equal(a.privileged_labels(), b.privileged_labels())
    # drawn into a caller's buffer: the same bits, held without a copy
    buf = np.empty((100, cb.d))
    c = sample_gmm(cb, 0.3, 100, rng_for(39), out=buf)
    assert np.array_equal(c.observations(), a.observations())
    assert np.array_equal(c.privileged_labels(), a.privileged_labels())
    assert np.shares_memory(c.observations(), buf)


def test_batch_validation():
    with pytest.raises(ValueError):
        GmmBatch(np.zeros((3, 2)), np.zeros(4, dtype=np.int64), 1.0)
    with pytest.raises(ValueError):
        GmmBatch(np.zeros((0, 2)), np.zeros(0, dtype=np.int64), 1.0)
