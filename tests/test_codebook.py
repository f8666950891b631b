import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from spherecodes import (
    Codebook,
    min_distance,
    noise_for_beta,
    rate,
    rng_for,
    sample_codebook,
)
from spherecodes import codebook, sphere
from spherecodes.codebook import load_codebook, save_codebook

from .oracles import min_distance_ref, sigma2_for_beta_ref


def test_rate_examples():
    assert rate(4, 2) == pytest.approx(math.log(2) / 4, rel=1e-15)
    assert rate(64, 64) == pytest.approx(math.log(64) / 64, rel=1e-15)
    assert rate(1, 2) == pytest.approx(math.log(2), rel=1e-15)


def test_rate_domain():
    with pytest.raises(ValueError):
        rate(4, 1)
    with pytest.raises(ValueError):
        rate(0, 4)


@given(st.integers(1, 256), st.integers(2, 10_000), st.floats(0.01, 100.0))
def test_noise_for_beta_inverts_capacity(d, k, beta):
    p = noise_for_beta(d, k, beta)
    # defining identity: ln(k)/d = (1/2) ln(1 + 1/(beta sigma2))
    assert 0.5 * math.log1p(1.0 / (beta * p.sigma2)) == pytest.approx(
        p.rate, rel=1e-10
    )
    assert p.sigma2 == pytest.approx(sigma2_for_beta_ref(d, k, beta), rel=1e-12)


def test_noise_for_beta_monotone_in_beta():
    s = [noise_for_beta(16, 40, b).sigma2 for b in (0.5, 1.0, 2.0, 4.0)]
    assert all(a > b for a, b in zip(s, s[1:]))


def test_noise_for_beta_large_d_no_cancellation():
    # k^(2/d) - 1 ~ 2 ln(k)/d here; naive pow subtraction loses digits
    p = noise_for_beta(10**6, 2, 1.0)
    expect = 1.0 / math.expm1(2.0 * math.log(2) / 10**6)
    assert p.sigma2 == pytest.approx(expect, rel=1e-12)


def test_noise_for_beta_domain():
    with pytest.raises(ValueError):
        noise_for_beta(16, 40, 0.0)
    with pytest.raises(ValueError):
        noise_for_beta(16, 40, -1.0)


def test_sample_codebook_shape_and_sphere():
    cb = sample_codebook(12, 7, rng_for(20))
    assert cb.centers.shape == (7, 12)
    assert np.allclose(np.sum(cb.centers**2, axis=1), 12.0)


def test_sample_codebook_deterministic():
    a = sample_codebook(8, 5, rng_for(21))
    b = sample_codebook(8, 5, rng_for(21))
    assert np.array_equal(a.centers, b.centers)


def test_codebook_validation():
    with pytest.raises(ValueError):
        Codebook(centers=2.0 * np.ones((3, 4)), d=4, k=3)  # norm 4, sphere is 2
    with pytest.raises(ValueError):
        sample_codebook(4, 1, rng_for(22))


def test_sample_codebook_memory_guard_raises_before_allocating(monkeypatch):
    # 2^24 centers in d=128 would be a 16 GiB array
    with pytest.raises(ValueError, match=f"k={2**24} .* {2**34} bytes"):
        sample_codebook(128, 2**24, rng_for(23))

    # exactly the budget passes the guard and reaches the sampler
    def reached(d, n, rng):
        raise RuntimeError(f"sampling {n} x {d}")

    monkeypatch.setattr(codebook, "sample_uniform_sphere_batch", reached)
    k = sphere.ARRAY_BYTES_MAX // (128 * 8)
    with pytest.raises(RuntimeError, match=f"sampling {k} x 128"):
        sample_codebook(128, k, rng_for(23))


def test_min_distance_hand_example():
    # 2-D sphere of radius sqrt(2): three points at angles 0, 90, 180 deg
    r = math.sqrt(2.0)
    pts = np.array([[r, 0.0], [0.0, r], [-r, 0.0]])
    cb = Codebook(centers=pts, d=2, k=3)
    assert min_distance(cb) == pytest.approx(2.0, rel=1e-12)


@pytest.mark.parametrize(
    "d, k", [(2, 2), (2, 300), (3, 57), (6, 100), (16, 250), (33, 8), (64, 300), (64, 2)]
)
def test_min_distance_equals_pair_scan_exactly(d, k):
    for seed in range(3):
        cb = sample_codebook(d, k, rng_for(23, d, k, seed))
        assert min_distance(cb) == min_distance_ref(cb.centers)


def test_min_distance_chunked_scan_equals_pair_scan(monkeypatch):
    # 3-row chunks: the minimum and its near ties fall in different chunks
    monkeypatch.setattr(codebook, "SCAN_ENTRIES", 1000)
    for seed in range(4):
        cb = sample_codebook(5, 300, rng_for(24, seed))
        assert min_distance(cb) == min_distance_ref(cb.centers)


def test_min_distance_two_pairs_tied_at_the_minimum(monkeypatch):
    # sign flips of a small last coordinate: pairs (0, 1) and (2, 3) are
    # both exactly 2|c| apart, far closer than any other pair
    a, b, c = 1.2, 0.7, 0.05
    scale = math.sqrt(3.0 / (a * a + b * b + c * c))
    pts = scale * np.array([[a, b, c], [a, b, -c], [-a, -b, c], [-a, -b, -c], [b, -a, c]])
    cb = Codebook(centers=pts, d=3, k=5)
    expect = min_distance_ref(pts)
    assert expect == pytest.approx(2.0 * c * scale, rel=1e-12)
    assert min_distance(cb) == expect
    monkeypatch.setattr(codebook, "SCAN_ENTRIES", 10)
    assert min_distance(cb) == expect


def test_save_load_roundtrip(tmp_path):
    cb = sample_codebook(9, 33, rng_for(26))
    path = str(tmp_path / "cb.bin")
    save_codebook(cb, path)
    back = load_codebook(path)
    assert back.d == 9 and back.k == 33
    assert np.array_equal(back.centers, cb.centers)


def test_load_rejects_bad_magic(tmp_path):
    path = tmp_path / "junk.bin"
    path.write_bytes(b"NOTMAGIC" + b"\x00" * 64)
    with pytest.raises(ValueError, match="magic"):
        load_codebook(str(path))


def test_load_rejects_truncation(tmp_path):
    cb = sample_codebook(6, 4, rng_for(27))
    path = str(tmp_path / "cb.bin")
    save_codebook(cb, path)
    blob = open(path, "rb").read()
    open(path, "wb").write(blob[:-16])
    with pytest.raises(ValueError, match="truncated"):
        load_codebook(path)
