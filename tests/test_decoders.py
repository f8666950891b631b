import math
from dataclasses import asdict

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spherecodes import (
    ERASURE,
    Codebook,
    CorrParams,
    DecoderSpec,
    ErrorEstimate,
    InvalidDecoderParams,
    MmseParams,
    corr_feasibility_bound,
    decode_batch,
    decode_corr,
    decode_mmse,
    decode_nn,
    estimate_error_prob,
    noise_for_beta,
    rng_for,
    sample_codebook,
    sample_uniform_sphere_batch,
    wilson_interval,
)

from spherecodes import decoders
from spherecodes.decoders import SLAB_BYTES, TRIAL_BLOCK, _corr_batch, _mmse_batch, _nn_batch
from spherecodes.sphere import f32_gemm_band, sq_dists

from .oracles import corr_batch_ref, mmse_batch_ref, nn_batch_ref, wilson_ref


def orthogonal_codebook(d: int, k: int) -> Codebook:
    assert k <= d
    centers = np.sqrt(d) * np.eye(d)[:k]
    return Codebook(centers=centers, d=d, k=k)


# ---------------------------------------------------------------------------
# parameter validation


def test_corr_params_domain():
    CorrParams(eta1=0.1, eta2=0.1)
    with pytest.raises(InvalidDecoderParams):
        CorrParams(eta1=0.0, eta2=0.5)
    with pytest.raises(InvalidDecoderParams):
        CorrParams(eta1=0.3, eta2=0.2)
    with pytest.raises(InvalidDecoderParams):
        CorrParams(eta1=0.3, eta2=1.0)


def test_mmse_params_domain():
    MmseParams(alpha=0.5, tau=0.5, tau1=0.6, tau2=1.5)
    with pytest.raises(InvalidDecoderParams):
        MmseParams(alpha=0.5, tau=0.5, tau1=0.4, tau2=1.5)  # tau1 < tau
    with pytest.raises(InvalidDecoderParams):
        MmseParams(alpha=0.5, tau=0.5, tau1=1.6, tau2=1.5)  # tau2 < tau1
    with pytest.raises(InvalidDecoderParams):
        MmseParams(alpha=0.6, tau=0.5, tau1=0.6, tau2=1.5)  # alpha + tau != 1


def test_mmse_for_noise():
    p = MmseParams.for_noise(1.0, c=1.2)
    assert p.alpha == pytest.approx(0.5, abs=1e-15)
    assert p.tau == pytest.approx(0.5, abs=1e-15)
    assert p.tau1 == pytest.approx(0.6, abs=1e-15)
    assert p.tau2 == pytest.approx(0.72, abs=1e-15)  # default c2 = c^2
    q = MmseParams.for_noise(1.0, c=1.2, c2=2.0)
    assert q.tau2 == pytest.approx(1.0, abs=1e-15)
    with pytest.raises(InvalidDecoderParams):
        MmseParams.for_noise(0.0)
    with pytest.raises(InvalidDecoderParams):
        MmseParams.for_noise(1.0, c=0.9)


# ---------------------------------------------------------------------------
# Wilson interval


def test_wilson_against_oracle():
    for s, n in [(0, 100), (1, 100), (50, 100), (100, 100), (7, 10_000)]:
        lo, hi = wilson_interval(s, n)
        olo, ohi = wilson_ref(s, n)
        assert lo == pytest.approx(olo, abs=1e-12)
        assert hi == pytest.approx(ohi, abs=1e-12)


@given(st.integers(1, 100_000), st.data())
def test_wilson_bracket_property(n, data):
    s = data.draw(st.integers(0, n))
    lo, hi = wilson_interval(s, n)
    p = s / n
    assert 0.0 <= lo <= p <= hi <= 1.0


def test_wilson_domain():
    with pytest.raises(ValueError):
        wilson_interval(0, 0)


def test_error_estimate_bracket_invariant():
    with pytest.raises(ValueError):
        ErrorEstimate(rho_hat=0.5, trials=10, ci_low=0.6, ci_high=0.9)


# ---------------------------------------------------------------------------
# operation-table examples (indices 0-based here)


def test_nn_exact_center():
    cb = sample_codebook(10, 6, rng_for(50))
    for i in range(6):
        assert decode_nn(cb, cb.centers[i]) == i


def test_nn_tie_breaks_lowest_index():
    r = math.sqrt(2.0)
    cb = Codebook(centers=np.array([[r, 0.0], [0.0, r]]), d=2, k=2)
    assert decode_nn(cb, np.array([1.0, 1.0])) == 0


def test_corr_accept_example():
    cb = orthogonal_codebook(4, 4)
    p = CorrParams(eta1=0.1, eta2=0.2)
    y = cb.centers[0]  # correlation 1 with index 0, 0 elsewhere
    assert decode_corr(cb, y, p) == 0


def test_corr_erases_on_zero_input():
    cb = orthogonal_codebook(4, 4)
    p = CorrParams(eta1=0.1, eta2=0.2)
    assert decode_corr(cb, np.zeros(4), p) == ERASURE


def test_corr_erases_on_ambiguity():
    cb = orthogonal_codebook(4, 4)
    p = CorrParams(eta1=0.5, eta2=0.5)
    y = cb.centers[0] + cb.centers[1]  # correlation 1 with both
    assert decode_corr(cb, y, p) == ERASURE


def test_mmse_accept_example():
    # sigma2=1: alpha=tau=1/2; alpha*(2 X_0) lands exactly on X_0
    cb = orthogonal_codebook(4, 4)
    p = MmseParams(alpha=0.5, tau=0.5, tau1=0.6, tau2=1.5)
    assert decode_mmse(cb, 2.0 * cb.centers[0], p) == 0


def test_mmse_erases_on_zero_input():
    cb = orthogonal_codebook(4, 4)
    p = MmseParams(alpha=0.5, tau=0.5, tau1=0.6, tau2=1.5)
    # residual to every center is exactly 1 > tau1
    assert decode_mmse(cb, np.zeros(4), p) == ERASURE


def test_mismatched_corr_zero_corruption_reduction():
    cb = sample_codebook(16, 8, rng_for(51))
    ys = cb.centers[rng_for(52).integers(0, 8, 2000)] + rng_for(53).standard_normal(
        (2000, 16)
    )
    a = decode_batch(cb, ys, DecoderSpec(kind="corr", params={"eta1": 0.3, "eta2": 0.3}))
    b = decode_batch(
        cb, ys, DecoderSpec(kind="mismatched_corr", params={"eta1": 0.3, "eta2": 0.3})
    )
    assert np.array_equal(a, b)


def test_mismatched_corr_erases_on_missing_center():
    cb = orthogonal_codebook(8, 8)
    partial = cb.centers[:4]
    y = cb.centers[7]  # orthogonal to every retained center
    assert decode_corr(partial, y, CorrParams(0.3, 0.3)) == ERASURE


def test_mismatched_mmse_zero_corruption_is_identity():
    cb = sample_codebook(16, 8, rng_for(54))
    params = DecoderSpec.mmse(0.5, c=1.2).params
    ys = cb.centers[rng_for(55).integers(0, 8, 2000)] + rng_for(56).standard_normal((2000, 16))
    a = decode_batch(cb, ys, DecoderSpec(kind="mmse", params=params))
    b = decode_batch(cb, ys, DecoderSpec(kind="mismatched_mmse", params=params))
    assert np.array_equal(a, b)


# ---------------------------------------------------------------------------
# feasibility bound


def test_corr_feasibility_formula():
    d, k, sigma2, eta1 = 128, 256, 2.0, 0.1
    lk = math.log(k - 1)
    expect = (
        1.0
        - math.sqrt(2 * lk / d + eta1 * eta1 / sigma2)
        - math.sqrt(2 * sigma2 * lk / d)
    )
    assert corr_feasibility_bound(d, k, sigma2, eta1) == pytest.approx(expect, rel=1e-12)


def test_corr_feasibility_k2_uses_zero_log():
    # k=2 has no competing wrong codeword mass term: ln(k-1) = 0
    b = corr_feasibility_bound(64, 2, 1.0, 0.2)
    assert b == pytest.approx(1.0 - math.sqrt(0.2 * 0.2 / 1.0), rel=1e-12)


# ---------------------------------------------------------------------------
# batch/scalar agreement, empty and bare-array targets


def test_batch_matches_scalar_paths():
    cb = sample_codebook(12, 9, rng_for(54))
    ys = cb.centers[rng_for(55).integers(0, 9, 300)] + 0.8 * rng_for(56).standard_normal(
        (300, 12)
    )
    cp = CorrParams(0.4, 0.4)
    mp = MmseParams.for_noise(0.64, c=1.3)
    nn = decode_batch(cb, ys, DecoderSpec.nn())
    co = decode_batch(cb, ys, DecoderSpec(kind="corr", params={"eta1": 0.4, "eta2": 0.4}))
    mm = decode_batch(
        cb,
        ys,
        DecoderSpec(
            kind="mmse",
            params={"alpha": mp.alpha, "tau": mp.tau, "tau1": mp.tau1, "tau2": mp.tau2},
        ),
    )
    for i in (0, 17, 299):
        assert nn[i] == decode_nn(cb, ys[i])
        assert co[i] == decode_corr(cb, ys[i], cp)
        assert mm[i] == decode_mmse(cb, ys[i], mp)


def test_empty_targets():
    empty = np.empty((0, 4))
    y = np.ones(4)
    assert decode_corr(empty, y, CorrParams(0.3, 0.3)) == ERASURE
    assert decode_mmse(empty, y, MmseParams.for_noise(1.0)) == ERASURE
    with pytest.raises(ValueError):
        decode_nn(empty, y)


def test_bare_array_targets_match_codebook():
    cb = sample_codebook(6, 5, rng_for(57))
    y = cb.centers[2] + 0.1 * rng_for(58).standard_normal(6)
    assert decode_nn(cb, y) == decode_nn(cb.centers, y)


# ---------------------------------------------------------------------------
# invariants


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=25, deadline=None)
def test_threshold_monotonicity_corr(seed):
    # relaxing the accept bar can only turn Erasure into a Message
    cb = sample_codebook(8, 6, rng_for(59, seed))
    y = cb.centers[0] + rng_for(60, seed).standard_normal(8)
    tight = decode_corr(cb, y, CorrParams(0.2, 0.6))
    loose = decode_corr(cb, y, CorrParams(0.5, 0.6))
    if tight != ERASURE:
        assert loose == tight


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=25, deadline=None)
def test_threshold_monotonicity_mmse(seed):
    cb = sample_codebook(8, 6, rng_for(61, seed))
    y = cb.centers[0] + rng_for(62, seed).standard_normal(8)
    base = MmseParams.for_noise(1.0, c=1.0, c2=2.9)
    loose = MmseParams(alpha=base.alpha, tau=base.tau, tau1=1.3 * base.tau, tau2=base.tau2)
    a = decode_mmse(cb, y, base)
    b = decode_mmse(cb, y, loose)
    if a != ERASURE:
        assert b == a


def test_matched_decoders_on_noiseless_orthogonal():
    cb = orthogonal_codebook(16, 10)
    p_corr = CorrParams(0.3, 0.9)
    p_mmse = MmseParams.for_noise(1.0, c=1.2)  # tau2 = 0.72 < cross residual 1.25
    for i in range(10):
        y = cb.centers[i]
        assert decode_nn(cb, y) == i
        assert decode_corr(cb, y, p_corr) == i
        assert decode_mmse(cb, y, p_mmse) == i


def test_nn_error_monotone_in_noise():
    cb = sample_codebook(64, 256, rng_for(63))
    ests = [
        estimate_error_prob(cb, s2, DecoderSpec.nn(), 10_000, 64, seed_path=(j,))
        for j, s2 in enumerate((0.5, 1.0, 2.0, 4.0, 8.0))
    ]
    for a, b in zip(ests, ests[1:]):
        # allow CI slack: the next interval must not sit fully below this one
        assert b.ci_high >= a.ci_low


# ---------------------------------------------------------------------------
# DecoderSpec


def test_decoder_spec_validation():
    with pytest.raises(ValueError):
        DecoderSpec(kind="magic")
    with pytest.raises(InvalidDecoderParams):
        DecoderSpec(kind="corr", params={"eta1": 0.5, "eta2": 0.2})
    with pytest.raises(InvalidDecoderParams, match="tau"):
        DecoderSpec(kind="mmse", params={"alpha": 0.5})
    with pytest.raises(InvalidDecoderParams, match=r"unknown nn decoder fields \['eta1'\]"):
        DecoderSpec(kind="nn", params={"eta1": 0.3})
    with pytest.raises(InvalidDecoderParams, match=r"unknown corr decoder fields \['bogus'\]"):
        DecoderSpec(kind="corr", params={"eta1": 0.3, "eta2": 0.3, "bogus": 1})
    with pytest.raises(InvalidDecoderParams, match="mismatched_corr decoder field eta2 must be a number"):
        DecoderSpec(kind="mismatched_corr", params={"eta1": 0.3, "eta2": "0.3"})


def test_at_noise_expands_the_entry_shorthands():
    # the c shorthand is MmseParams.for_noise at the entry's noise level
    # (c2 defaults to c^2), a missing eta2 is eta1, and a full entry
    # passes through at any noise level
    sigma2 = 0.7
    mmse = DecoderSpec(kind="mmse", params=asdict(MmseParams.for_noise(sigma2, c=1.3, c2=1.6)))
    assert DecoderSpec.at_noise({"kind": "mmse", "c": 1.3, "c2": 1.6}, sigma2) == mmse
    assert DecoderSpec.mmse(sigma2, c=1.3, c2=1.6) == mmse
    assert DecoderSpec.at_noise({"kind": "mmse", **mmse.params}, 5.0) == mmse
    square = DecoderSpec(kind="mmse", params=asdict(MmseParams.for_noise(sigma2, c=1.3, c2=1.3 * 1.3)))
    assert DecoderSpec.at_noise({"kind": "mmse", "c": 1.3}, sigma2) == square == DecoderSpec.mmse(sigma2, c=1.3)
    corr = DecoderSpec(kind="corr", params={"eta1": 0.3, "eta2": 0.3})
    assert DecoderSpec.at_noise({"kind": "corr", "eta1": 0.3}, sigma2) == corr == DecoderSpec.corr(0.3)
    assert DecoderSpec.at_noise({"kind": "corr", "eta1": 0.3, "eta2": 0.4}, sigma2) == DecoderSpec.corr(0.3, 0.4)
    assert DecoderSpec.corr(0.3, 0.4).params == {"eta1": 0.3, "eta2": 0.4}


# ---------------------------------------------------------------------------
# Monte Carlo estimator


def test_estimator_zero_noise_surrogate():
    cb = sample_codebook(8, 16, rng_for(65))
    est = estimate_error_prob(cb, 1e-12, DecoderSpec.nn(), 200, 66)
    assert est.rho_hat == 0.0
    assert est.error_count == 0
    assert est.ci_low == 0.0


def test_estimator_infinite_noise_limit():
    # at sigma2 = 1e6 the NN pick is essentially uniform over k = 16
    cb = sample_codebook(8, 16, rng_for(67))
    est = estimate_error_prob(cb, 1e6, DecoderSpec.nn(), 10_000, 68)
    assert est.rho_hat == pytest.approx(1.0 - 1.0 / 16, abs=0.02)


def test_estimator_counts_erasures_as_errors():
    # identical centers: every input either ties above the reject bar or
    # misses the accept bar, so the decoder erases on all trials
    d = 8
    center = np.sqrt(d) * np.eye(d)[0]
    cb = Codebook(centers=np.tile(center, (4, 1)), d=d, k=4)
    spec = DecoderSpec(kind="corr", params={"eta1": 0.5, "eta2": 0.5})
    est = estimate_error_prob(cb, 1.0, spec, 500, 70)
    assert est.erasure_count == est.trials
    assert est.error_count == est.trials
    assert est.rho_hat == 1.0


def test_estimator_trials_floor():
    cb = sample_codebook(8, 4, rng_for(71))
    with pytest.raises(ValueError):
        estimate_error_prob(cb, 1.0, DecoderSpec.nn(), 99, 72)


def test_estimator_memory_guard_raises_before_the_first_block(monkeypatch):
    def reached(cb, sigma2, n, rng):
        raise RuntimeError(f"drawing a block of {n}")

    monkeypatch.setattr(decoders, "sample_gmm", reached)
    # d = 1 keeps the codebook itself small: its centers are +-1
    signs = np.where(np.arange(65537) % 2 == 0, 1.0, -1.0)[:, None]
    big = Codebook(centers=signs, d=1, k=65537)
    nbytes = TRIAL_BLOCK * 65537 * 8
    with pytest.raises(ValueError, match=f"k=65537 .* {nbytes}-byte"):
        estimate_error_prob(big, 1.0, DecoderSpec.nn(), 100, 72)
    # k = 65,536 fills the budget exactly and reaches the first block
    fits = Codebook(centers=signs[:65536], d=1, k=65536)
    with pytest.raises(RuntimeError, match="drawing a block of 100"):
        estimate_error_prob(fits, 1.0, DecoderSpec.nn(), 100, 72)


def test_estimator_seed_path_separates_streams():
    cb = sample_codebook(16, 12, rng_for(75))
    spec = DecoderSpec.nn()
    a = estimate_error_prob(cb, 2.0, spec, 2048, 76, seed_path=(0,))
    b = estimate_error_prob(cb, 2.0, spec, 2048, 76, seed_path=(1,))
    assert a.error_count != b.error_count


def test_estimator_self_consistency_below_capacity():
    # two independent streams at the same cell agree within their CIs
    d, k, beta = 64, 256, 2.0
    cb = sample_codebook(d, k, rng_for(77))
    sigma2 = noise_for_beta(d, k, beta).sigma2
    a = estimate_error_prob(cb, sigma2, DecoderSpec.nn(), 10_000, 78, seed_path=(0,))
    b = estimate_error_prob(cb, sigma2, DecoderSpec.nn(), 10_000, 78, seed_path=(1,))
    assert a.ci_low <= b.rho_hat <= a.ci_high


def test_estimator_debug_scan_runs():
    cb = sample_codebook(8, 6, rng_for(79))
    spec = DecoderSpec.mmse(1.0, c=1.2)
    est = estimate_error_prob(cb, 1.0, spec, 256, 80, debug_scan=True)
    assert est.trials == 256


@pytest.mark.parametrize("beta", [0.5, 2.0])
def test_kernels_pass_the_exhaustive_scan_at_the_criterion_3_geometry(beta):
    d, k = 16, 2981
    cb = sample_codebook(d, k, rng_for(97))
    sigma2 = noise_for_beta(d, k, beta).sigma2
    for spec in (DecoderSpec.nn(), DecoderSpec.mmse(sigma2, c=1.45), DecoderSpec.corr(0.3)):
        est = estimate_error_prob(cb, sigma2, spec, TRIAL_BLOCK, 98, seed_path=(int(4 * beta),), debug_scan=True)
        assert est.trials == TRIAL_BLOCK


@pytest.mark.parametrize(
    "kernel, spec",
    [
        ("_nn_batch", DecoderSpec.nn()),
        ("_corr_batch", DecoderSpec.corr(0.3)),
        ("_mmse_batch", DecoderSpec.mmse(1.0, c=1.2)),
    ],
    ids=["nn", "corr", "mmse"],
)
def test_estimator_debug_scan_catches_a_broken_kernel(monkeypatch, kernel, spec):
    # a kernel that decodes every trial to index 0 must not pass the scan
    monkeypatch.setattr(decoders, kernel, lambda centers, ys, *args: np.zeros(len(ys), dtype=np.int64))
    cb = sample_codebook(8, 6, rng_for(79))
    with pytest.raises(AssertionError, match="disagrees with the exhaustive rule"):
        estimate_error_prob(cb, 1.0, spec, 256, 80, debug_scan=True)


# ---------------------------------------------------------------------------
# batch kernels against the former full-matrix kernels (tests/oracles.py):
# outcomes must be equal, bit for bit, including at exact ties and with
# thresholds set exactly to a row's own statistic


KERNEL_SHAPES = [(16, 2981), (128, 256), (6, 4), (5, 7), (3, 1)]


def _noisy(centers, n, sigma, *seed):
    rng = rng_for(*seed)
    labels = rng.integers(0, centers.shape[0], size=n)
    return centers[labels] + sigma * rng.standard_normal((n, centers.shape[1]))


def _sigma2(d, k):
    return noise_for_beta(d, k, 2.0).sigma2 if k > 1 else 0.5


def _assert_kernels_match(centers, ys, mmse_params, corr_params):
    # mmse_params: MmseParams records or bare (alpha, tau1, tau2) triples
    assert np.array_equal(_nn_batch(centers, ys), nn_batch_ref(centers, ys))
    for p in mmse_params:
        alpha, tau1, tau2 = (p.alpha, p.tau1, p.tau2) if isinstance(p, MmseParams) else p
        assert np.array_equal(
            _mmse_batch(centers, ys, alpha, tau1, tau2),
            mmse_batch_ref(centers, ys, alpha, tau1, tau2),
        )
    for eta1, eta2 in corr_params:
        assert np.array_equal(
            _corr_batch(centers, ys, eta1, eta2), corr_batch_ref(centers, ys, eta1, eta2)
        )


@pytest.mark.parametrize("d,k", KERNEL_SHAPES)
def test_kernels_match_full_matrix_refs(d, k):
    centers = sample_uniform_sphere_batch(d, k, rng_for(81, d, k))
    sigma2 = _sigma2(d, k)
    ys = _noisy(centers, TRIAL_BLOCK, math.sqrt(sigma2), 82, d, k)
    mmse = [MmseParams.for_noise(sigma2, c=c) for c in (1.0, 1.2, 1.45, 2.0)]
    # the unscaled residual ||y - X_i||^2 / d, which sits near sigma2
    mmse += [(1.0, sigma2, sigma2), (1.0, 1.2 * sigma2, 1.45 * sigma2)]
    corr = [(0.2, 0.2), (0.3, 0.6), (0.5, 0.5), (0.7, 0.9)]
    _assert_kernels_match(centers, ys, mmse, corr)


def _slab_edges(k):
    # per slab height of a float32 and of a float64 GEMM output: a lone row,
    # a block of whole slabs, whole slabs plus one row, and a partial last slab
    edges = {1}
    for itemsize in (4, 8):
        rows = max(1, SLAB_BYTES // (itemsize * k))
        edges |= {rows, rows + 1, 2 * rows + rows // 2 + 1}
    return sorted(edges)


@pytest.mark.parametrize("d,k", KERNEL_SHAPES)
def test_kernels_match_refs_on_slab_edges(d, k):
    centers = sample_uniform_sphere_batch(d, k, rng_for(83, d, k))
    sigma2 = _sigma2(d, k)
    # alpha = 0.8 scales the inputs as the former 0.8 * ys scan did
    mmse = [MmseParams.for_noise(sigma2, c=1.45), MmseParams.for_noise(0.25, c=1.45)]
    for n in _slab_edges(k):
        ys = _noisy(centers, n, math.sqrt(sigma2), 84, d, k, n)
        _assert_kernels_match(centers, ys, mmse, [(0.4, 0.6)])


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("k", [1, 7, 2981])
def test_top2_in_the_dtype_of_its_input_on_slab_edges(dtype, k):
    for n in _slab_edges(k):
        # integer entries from a small range, so rows hold exact ties
        g = rng_for(99, k, n).integers(-20, 20, size=(n, k)).astype(dtype)
        before = g.copy()
        best, top, second = decoders._top2(g)
        assert top.dtype == second.dtype == dtype
        assert np.array_equal(g, before)
        assert np.array_equal(best, np.argmax(g, axis=1))
        assert np.array_equal(top, np.max(g, axis=1))
        ranked = np.sort(g, axis=1)
        assert np.array_equal(second, ranked[:, -2] if k > 1 else np.full(n, -np.inf, dtype=dtype))


def test_kernels_match_refs_on_exact_ties():
    # centers +-2 e_i and inputs on the integer grid: distances are exact
    # integers, so many rows tie exactly between two or more centers
    d = 4
    centers = np.vstack([2.0 * np.eye(d), -2.0 * np.eye(d)])
    ys = np.array(np.meshgrid(*[[-1.0, 0.0, 1.0]] * d)).reshape(d, -1).T
    sq = sq_dists(ys, centers)
    assert np.sum(np.sum(sq == sq.min(axis=1, keepdims=True), axis=1) >= 2) > 40
    mmse = [MmseParams(alpha=0.5, tau=0.5, tau1=t1, tau2=t2) for t1, t2 in ((0.5, 0.5), (1.0, 1.5))]
    _assert_kernels_match(centers, ys, mmse, [(0.5, 0.5), (0.75, 1.0)])
    nn = _nn_batch(centers, ys)
    lookup = {tuple(y): int(i) for y, i in zip(ys, nn)}
    assert lookup[(0.0, 0.0, 0.0, 0.0)] == 0
    assert lookup[(1.0, 1.0, 0.0, 0.0)] == 0
    assert lookup[(0.0, 1.0, 0.0, 1.0)] == 1
    assert lookup[(-1.0, -1.0, 0.0, 0.0)] == 4


def test_scan_divides_before_the_argmin():
    # two off-sphere centers whose squared norms are adjacent doubles that
    # round to the same value once divided by d = 5; the larger one comes
    # first. Divided, as in sq_dists(...) / d, they tie: at tau1 = tau2 =
    # low / d both sit on the bar and the row erases. Undivided, the
    # smaller one alone would be at or below it, and nn picks it
    d = 5
    t0 = 1.2
    while (t0 * t0) / d != np.nextafter(t0 * t0, np.inf) / d:
        t0 = np.nextafter(t0, np.inf)
    low = t0 * t0
    high = np.nextafter(low, np.inf)
    centers = np.zeros((7, d))
    centers[0, :2] = [t0, math.sqrt(high - low)]
    centers[1, 0] = t0
    centers[2:, 1] = 3.0 + np.arange(5)
    assert np.array_equal(np.sum(centers[:2] ** 2, axis=1), [high, low])
    ys = np.zeros((3, d))
    ys[:, 4] = [0.0, 0.5, 1.0]
    tau = low / d
    _assert_kernels_match(centers, ys, [(1.0, tau, tau)], [(0.2, 0.2), (0.5, 0.9)])
    assert _mmse_batch(centers, ys, 1.0, tau, tau)[0] == ERASURE
    assert _nn_batch(centers, ys)[0] == 1


def test_kernels_match_refs_on_duplicated_centers():
    # the criterion-3 shape with every fourth center copied over the next,
    # so rows near a copied pair have top two GEMM entries that tie exactly
    d, k = 16, 2981
    centers = sample_uniform_sphere_batch(d, k, rng_for(94))
    centers[1::4] = centers[0:-1:4][: len(centers[1::4])]
    sigma2 = _sigma2(d, k)
    ys = _noisy(centers, TRIAL_BLOCK, math.sqrt(sigma2), 95)
    top2 = np.sort(ys @ centers.T, axis=1)[:, -2:]
    assert np.sum(top2[:, 0] == top2[:, 1]) > 100
    mmse = [MmseParams.for_noise(sigma2, c=c) for c in (1.2, 1.45)]
    _assert_kernels_match(centers, ys, mmse, [(0.3, 0.3), (0.5, 0.7)])
    # a tied pair decodes to its lower index under nn and erases otherwise
    assert np.all(_nn_batch(centers, ys) % 4 != 1)
    assert np.all(_mmse_batch(centers, ys, mmse[1].alpha, mmse[1].tau1, mmse[1].tau2) % 4 != 1)


def test_kernels_match_refs_when_rounding_merges_entries():
    # a large component off the centers' span makes ||y||^2 = 1e18, whose
    # spacing (128) swallows the O(1) differences between the GEMM entries:
    # every residual rounds to the same value, so the row argmin is index 0
    # whichever GEMM entry is largest, and at tau1 = tau2 = that value
    # every row erases
    d = 5
    centers = np.vstack([2.0 * np.eye(d)[:4], -2.0 * np.eye(d)[:4]])
    ys = np.zeros((64, d))
    ys[:, :4] = rng_for(96).uniform(-3.0, -0.5, size=(64, 4))
    ys[:, 4] = 1e9
    sq = sq_dists(ys, centers) / d
    assert np.all(sq == sq[0, 0])
    assert np.all(np.argmax(ys @ centers.T, axis=1) != 0)
    tau = sq[0, 0]
    _assert_kernels_match(centers, ys, [(1.0, tau, tau), (1.0, tau, 2 * tau)], [(0.2, 0.2)])
    assert np.all(_nn_batch(centers, ys) == 0)
    assert np.all(_mmse_batch(centers, ys, 1.0, tau, tau) == ERASURE)


def test_residual_kernels_when_the_largest_gemm_entry_is_not_the_nearest():
    # off-sphere centers: y = e_1 has its larger GEMM entry at the long
    # center 0 but its smaller residual at the short center 1. With two
    # centers, the bound on the other entries is center 1's residual
    # itself, so tau1 set to it sits exactly on the bound
    centers = np.array([[3.0, 0.0], [0.5, 0.0]])
    ys = np.array([[1.0, 0.0]])
    s = sq_dists(ys, centers)[0] / 2
    assert np.argmax(ys @ centers.T) == 0 and np.argmin(s) == 1
    _assert_kernels_match(centers, ys, [(1.0, s[1], 1.0), (1.0, s[1], s[0])], [(0.2, 0.2)])
    assert _nn_batch(centers, ys)[0] == 1
    assert _mmse_batch(centers, ys, 1.0, s[1], 1.0)[0] == 1


def _float32_neighbours(v):
    # v and one float32 step either side of it, inside the float32 screen's band
    step = float(np.spacing(np.float32(v)))
    return (v - step, v, v + step)


@pytest.mark.parametrize("d,k", [(16, 2981), (5, 7), (6, 4)])
def test_mmse_kernel_at_thresholds_equal_to_row_statistics(d, k):
    centers = sample_uniform_sphere_batch(d, k, rng_for(85, d, k))
    sigma2 = _sigma2(d, k)
    ys = _noisy(centers, 300, math.sqrt(sigma2), 86, d, k)
    alpha = 1.0 / (1.0 + sigma2)
    sq = np.sort(sq_dists(alpha * ys, centers) / d, axis=1)
    for i in (0, 7, 299):
        smin, second = sq[i, 0], sq[i, 1]
        # tau2 at the runner-up: the row has a second index at or below
        # tau2 and must erase; tau1 = tau2 at the minimum: it must accept
        for tau1, tau2, accepted in ((smin, second, False), (smin, smin, True)):
            out = _mmse_batch(centers, ys, alpha, tau1, tau2)
            assert np.array_equal(out, mmse_batch_ref(centers, ys, alpha, tau1, tau2))
            assert (out[i] != ERASURE) == accepted
        near_min = _float32_neighbours(smin)
        taus = [(t, t) for t in near_min] + [(t, second) for t in near_min]
        taus += [(smin, t) for t in near_min + _float32_neighbours(second)]
        for tau1, tau2 in taus:
            out = _mmse_batch(centers, ys, alpha, tau1, tau2)
            assert np.array_equal(out, mmse_batch_ref(centers, ys, alpha, tau1, tau2))


def test_corr_kernel_at_thresholds_equal_to_row_statistics():
    # a near-copy of three centers puts runner-up correlations at 0.5 or
    # above, where 1 - (1 - v) == v exactly, so 1 - eta2 can equal a row
    # statistic
    d, k = 16, 64
    base = sample_uniform_sphere_batch(d, k, rng_for(87))
    centers = np.vstack([base, base[:3] + 0.05 * rng_for(88).standard_normal((3, d))])
    ys = base[np.arange(300) % 3] + 0.3 * rng_for(89).standard_normal((300, d))
    corr = np.sort((ys @ centers.T) / d, axis=1)
    for i in (0, 1, 2, 150):
        cmax, second = corr[i, -1], corr[i, -2]
        assert 0.5 <= second < cmax
        # 1 - eta2 at the runner-up must erase; 1 - eta1 = 1 - eta2 at
        # the maximum must accept
        for eta1, eta2, accepted in ((1.0 - second, 1.0 - second, False), (1.0 - cmax, 1.0 - cmax, True)):
            assert 1.0 - eta2 in (second, cmax)
            out = _corr_batch(centers, ys, eta1, eta2)
            assert np.array_equal(out, corr_batch_ref(centers, ys, eta1, eta2))
            assert (out[i] != ERASURE) == accepted
        for t in _float32_neighbours(cmax) + _float32_neighbours(second):
            eta = 1.0 - t
            assert 1.0 - eta == t
            for eta1, eta2 in ((eta, eta), (min(eta, 0.49), max(eta, 0.49))):
                out = _corr_batch(centers, ys, eta1, eta2)
                assert np.array_equal(out, corr_batch_ref(centers, ys, eta1, eta2))


# per (d, k): MmseParams.for_noise(_sigma2(d, k), c=1.45) with sqrt(tau1)
# raised and sqrt(tau2) lowered by 0.01, a corruption-widened parameter set
WIDENED_MMSE = {
    (16, 2981): MmseParams(0.7746008130313056, 0.22539918696869443, 0.33836260999726375, 0.4602336855671928),
    (5, 7): MmseParams(0.7020096039300125, 0.2979903960699874, 0.445332725195173, 0.6107941437240738),
}


@pytest.mark.parametrize("d,k", sorted(WIDENED_MMSE, reverse=True))
def test_kernels_match_refs_on_off_sphere_centers(d, k):
    rng = rng_for(90, d, k)
    true = sample_uniform_sphere_batch(d, k, rng)
    sigma2 = _sigma2(d, k)
    ys = _noisy(true, 512, math.sqrt(sigma2), 91, d, k)
    m = max(1, (3 * k) // 4)
    mismatched = true[:m] * rng.uniform(0.7, 1.3, size=(m, 1)) + 0.1 * rng.standard_normal((m, d))
    p = MmseParams.for_noise(sigma2, c=1.45)
    _assert_kernels_match(mismatched, ys, [p, WIDENED_MMSE[d, k]], [(0.3, 0.5)])


@pytest.mark.parametrize("kind", ["nn", "mmse"])
def test_estimator_matches_ref_kernels(kind):
    # the criterion-3 geometry, with a partial last block
    d, k, trials, seed = 16, 2981, 2 * TRIAL_BLOCK + 300, 92
    cb = sample_codebook(d, k, rng_for(93))
    sigma2 = noise_for_beta(d, k, 2.0).sigma2
    spec = DecoderSpec.nn() if kind == "nn" else DecoderSpec.mmse(sigma2, c=1.45)
    errors = erasures = 0
    for block in range((trials + TRIAL_BLOCK - 1) // TRIAL_BLOCK):
        size = min(TRIAL_BLOCK, trials - block * TRIAL_BLOCK)
        rng = rng_for(seed, block)
        labels = rng.integers(0, k, size=size)
        ys = cb.centers[labels] + math.sqrt(sigma2) * rng.standard_normal((size, d))
        if kind == "nn":
            out = nn_batch_ref(cb.centers, ys)
        else:
            p = spec.mmse_params()
            out = mmse_batch_ref(cb.centers, ys, p.alpha, p.tau1, p.tau2)
        errors += int(np.sum(out != labels))
        erasures += int(np.sum(out == ERASURE))
    est = estimate_error_prob(cb, sigma2, spec, trials, seed)
    assert (est.error_count, est.erasure_count) == (errors, erasures)


# ---------------------------------------------------------------------------
# the float32 screen: each kernel decides a block from a float32 GEMM and
# sphere.f32_gemm_band, and recomputes the whole block in float64 when a
# row is left undecided or a band is not finite


def _screen_dtypes(monkeypatch):
    """Record the dtype of every GEMM output a kernel reads: float32 for
    the screen, then float64 when the block falls back."""
    seen = []
    top2 = decoders._top2

    def recording(g):
        seen.append(g.dtype)
        return top2(g)

    monkeypatch.setattr(decoders, "_top2", recording)
    return seen


@pytest.mark.parametrize("d", [1, 2, 3, 16, 128])
def test_f32_gemm_band_bounds_the_float32_error(d):
    rng = rng_for(100, d)
    # rows over six orders of magnitude, and rows in float32's subnormal range
    a = rng.standard_normal((2048, d)) * np.exp(rng.uniform(-7.0, 7.0, size=(2048, 1)))
    a[:64] *= 1e-40
    b = rng.standard_normal((32, d))
    for scale in (1.0, 2.0):
        g64 = (scale * a) @ b.T
        g32 = (scale * a).astype(np.float32) @ b.astype(np.float32).T
        band = f32_gemm_band(np.sum(a * a, axis=1), np.sum(b * b, axis=1), d, scale)
        ratio = np.max(np.abs(g32 - g64), axis=1) / band
        assert np.all(ratio <= 1.0)
        if d == 1:
            # one product: its three roundings can nearly add up, so the
            # band is within a factor 2 of the error on some rows
            assert np.max(ratio) > 0.5


def test_f32_gemm_band_is_infinite_where_float32_could_overflow_or_a_value_is_not_finite():
    b_sq = np.array([16.0, 16.0])
    a_sq = np.array([16.0, 1e78, np.nan, np.inf, 1e-80])
    band = f32_gemm_band(a_sq, b_sq, 16, 2.0)
    assert np.isfinite(band[0]) and np.isfinite(band[4])
    assert np.all(np.isinf(band[1:4]))
    assert np.all(np.isinf(f32_gemm_band(np.array([16.0]), np.array([np.nan, 16.0]), 16)))


def test_screen_falls_back_on_rows_a_halved_band_decides_wrongly():
    # d = 1, one input y against the centers c and -c: the float32 product
    # 2 y c is off the float64 one by more than half its band. A threshold
    # set on the float64 statistic, or one float64 step past it on the side
    # the float32 error lies, leaves the row undecided in float32, and the
    # float64 block decides it; half the band would decide it wrongly
    rng = rng_for(101)
    ys, cs = rng.uniform(0.7, 1.4, size=(2, 4000))
    rows = 0
    for y, c in zip(ys, cs):
        centers, row = np.array([[c], [-c]]), np.array([[y]])
        for scale, g64, g32 in (
            (2.0, (2.0 * y) * c, float(np.float32(2.0 * y) * np.float32(c))),
            (1.0, y * c, float(np.float32(y) * np.float32(c))),
        ):
            band = f32_gemm_band(np.array([y * y]), np.array([c * c]), 1, scale)[0]
            if abs(g32 - g64) <= 0.6 * band:
                continue
            if scale == 2.0:
                # the mmse kernel at alpha = 1, tau1 = tau2 on entry 0's residual
                sb = (y * y - g64) + c * c
                tau = np.nextafter(sb, -np.inf) if g32 > g64 else sb
                out = _mmse_batch(centers, row, 1.0, tau, tau)
                assert np.array_equal(out, mmse_batch_ref(centers, row, 1.0, tau, tau))
                assert out[0] == (ERASURE if g32 > g64 else 0)
            elif 0.5 <= g64 < 1.0:
                # the corr kernel with 1 - eta1 = 1 - eta2 on entry 0's correlation
                thr = np.nextafter(g64, np.inf) if g32 > g64 else g64
                eta = 1.0 - thr
                assert 1.0 - eta == thr
                out = _corr_batch(centers, row, eta, eta)
                assert np.array_equal(out, corr_batch_ref(centers, row, eta, eta))
                assert out[0] == (ERASURE if g32 > g64 else 0)
            else:
                continue
            rows += 1
    assert rows > 20


def test_kernels_match_refs_on_centers_one_float32_step_apart(monkeypatch):
    # the criterion-3 shape with center pairs whose GEMM entries tie
    # exactly (a copy), or sit one float32 or one float64 step apart, either
    # way: inside the band, so the float32 screen leaves those rows undecided
    d, k = 16, 2981
    centers = sample_uniform_sphere_batch(d, k, rng_for(104))
    c32 = centers.astype(np.float32)
    src = centers[0 : 5 * 500 : 5]
    step32 = np.spacing(c32[0 : 5 * 500 : 5]).astype(np.float64)
    centers[1 : 5 * 500 : 5] = src
    centers[2 : 5 * 500 : 5] = src + step32
    centers[3 : 5 * 500 : 5] = src - step32
    centers[4 : 5 * 500 : 5] = np.nextafter(src, np.inf)
    sigma2 = _sigma2(d, k)
    labels = 5 * rng_for(105).integers(0, 500, size=TRIAL_BLOCK)
    ys = centers[labels] + 0.05 * rng_for(106).standard_normal((TRIAL_BLOCK, d))
    seen = _screen_dtypes(monkeypatch)
    mmse = [MmseParams.for_noise(sigma2, c=c) for c in (1.2, 1.45)] + [(1.0, 0.01, 0.02)]
    _assert_kernels_match(centers, ys, mmse, [(0.3, 0.3), (0.01, 0.02)])
    # nn, the first kernel run, fell back
    assert seen[:2] == [np.float32, np.float64]


def test_kernels_match_refs_on_inputs_that_overflow_float32(monkeypatch):
    d, k = 16, 64
    centers = sample_uniform_sphere_batch(d, k, rng_for(107))
    ys = 1e39 * rng_for(108).standard_normal((256, d))
    seen = _screen_dtypes(monkeypatch)
    _assert_kernels_match(centers, ys, [(1.0, 0.5, 1.0), (1.0, 1e78, 2e78)], [(0.3, 0.3)])
    assert np.float32 not in seen
    # y = (1e39, 1) is inf in float32, so its float32 GEMM row is +inf at
    # the one center with a positive first coordinate and -inf elsewhere;
    # read as finite, that row would accept center 0 where every float64
    # residual is about 5e77, far above tau1
    centers = np.array([[1.0, 0.1], [-1.0, 0.1], [-0.5, 0.5]])
    ys = np.array([[1e39, 1.0]])
    _assert_kernels_match(centers, ys, [(1.0, 0.5, 1.0)], [(0.3, 0.3)])
    assert _mmse_batch(centers, ys, 1.0, 0.5, 1.0)[0] == ERASURE


def test_kernels_match_refs_on_inputs_in_float32s_subnormal_range():
    for d, k in ((16, 64), (3, 1)):
        centers = sample_uniform_sphere_batch(d, k, rng_for(109, d))
        ys = 1e-40 * rng_for(110, d).standard_normal((256, d))
        _assert_kernels_match(centers, ys, [(1.0, 0.5, 1.0), (1.0, 1.0, 1.0), (1.0, 2.0, 2.0)], [(0.3, 0.3)])


def test_kernels_match_refs_with_a_nan_row(monkeypatch):
    # a row with a nan or infinite coordinate has no nearest center: every
    # family refuses the block, naming the first such row, before any GEMM
    d, k = 16, 2981
    centers = sample_uniform_sphere_batch(d, k, rng_for(111))
    sigma2 = _sigma2(d, k)
    ys = _noisy(centers, 64, math.sqrt(sigma2), 112)
    ys[9, 0] = 1e200  # finite, though its squared norm overflows
    ys[12, 3] = -np.inf
    ys[40, 7] = np.nan
    seen = _screen_dtypes(monkeypatch)
    specs = [
        DecoderSpec.nn(),
        DecoderSpec.mmse(sigma2, c=1.45),
        DecoderSpec.corr(0.3),
        DecoderSpec(kind="mismatched_mmse", params=asdict(MmseParams.for_noise(sigma2, c=1.45))),
        DecoderSpec(kind="mismatched_corr", params={"eta1": 0.3, "eta2": 0.3}),
    ]
    # row 9's squared norm overflows to inf silently (a RuntimeWarning fails
    # the suite)
    for spec in specs:
        with pytest.raises(ValueError, match="row 12 has a non-finite"):
            decode_batch(centers, ys, spec)
        with pytest.raises(ValueError, match="row 27 has a non-finite"):
            decode_batch(centers, ys[13:], spec)
        if spec.family != "nn":
            # an empty center list erases every row it decodes
            with pytest.raises(ValueError, match="row 27 has a non-finite"):
                decode_batch(centers[:0], ys[13:], spec)
    assert seen == []
    # without the bad rows the block decodes, the huge finite row included
    _assert_kernels_match(
        centers, np.delete(ys, [12, 40], axis=0), [MmseParams.for_noise(sigma2, c=1.45)], [(0.3, 0.3)]
    )


def test_kernels_pass_the_exhaustive_scan_where_the_screen_falls_back(monkeypatch):
    # d = 128, k = 256 above capacity: top-two gaps are small, and nn falls
    # back to float64 on this block
    d, k = 128, 256
    cb = sample_codebook(d, k, rng_for(102))
    sigma2 = noise_for_beta(d, k, 0.5).sigma2
    seen = _screen_dtypes(monkeypatch)
    for spec in (DecoderSpec.nn(), DecoderSpec.mmse(sigma2, c=1.45), DecoderSpec.corr(0.3)):
        seen.clear()
        est = estimate_error_prob(cb, sigma2, spec, TRIAL_BLOCK, 103, seed_path=(2,), debug_scan=True)
        assert est.trials == TRIAL_BLOCK
        if spec.family == "nn":
            assert seen == [np.float32, np.float64]
