import math

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
    corr_params_feasible,
    decode_batch,
    decode_corr,
    decode_mmse,
    decode_nn,
    estimate_error_prob,
    noise_for_beta,
    p_approx_profile,
    rng_for,
    sample_codebook,
    shift_corr_thresholds,
    shift_mmse_thresholds,
    wilson_interval,
)

from .oracles import wilson_ref


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
        ErrorEstimate(rho_hat=0.5, trials=10, erasure_rate=0.0, ci_low=0.6, ci_high=0.9)


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
    p = CorrParams(eta1=0.3, eta2=0.3)
    shifted = shift_corr_thresholds(p, eps=0.0)
    assert shifted == p
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
    p = MmseParams.for_noise(0.5, c=1.2)
    assert shift_mmse_thresholds(p, 0.0) is p


def test_shift_corr_thresholds_math():
    p = CorrParams(eta1=0.15, eta2=0.7)
    q = shift_corr_thresholds(p, eps=0.01, big_c=1.0)
    assert q.eta1 == pytest.approx(0.15 + 2 * 0.1, abs=1e-15)
    assert q.eta2 == pytest.approx(0.7 - 2 * 0.1, abs=1e-15)
    with pytest.raises(InvalidDecoderParams, match="gap"):
        shift_corr_thresholds(CorrParams(0.2, 0.3), eps=0.01)


def test_shift_mmse_thresholds_math():
    p = MmseParams(alpha=0.5, tau=0.5, tau1=0.6, tau2=1.5)
    eps0 = 0.01
    q = shift_mmse_thresholds(p, eps0)
    assert math.sqrt(q.tau1) == pytest.approx(math.sqrt(0.6) + 0.1, abs=1e-12)
    assert math.sqrt(q.tau2) == pytest.approx(math.sqrt(1.5) - 0.1, abs=1e-12)


def test_shift_mmse_gap_consumed_guard():
    # tau1 = 0.6 tau2; pick eps0 with 2 sqrt(eps0) just past the gap
    tau2 = 1.2
    tau1 = 0.6 * tau2
    tau = 0.5
    p = MmseParams(alpha=0.5, tau=tau, tau1=tau1, tau2=tau2)
    gap = math.sqrt(tau2) - math.sqrt(tau1)
    eps0 = (1.01 * gap / 2.0) ** 2
    with pytest.raises(InvalidDecoderParams, match="gap"):
        shift_mmse_thresholds(p, eps0)


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
    assert corr_params_feasible(d, k, sigma2, CorrParams(eta1, min(expect - 0.01, 0.99)))
    assert not corr_params_feasible(d, k, sigma2, CorrParams(eta1, 0.99))


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
# DecoderSpec serialization


def test_decoder_spec_roundtrip():
    for spec in (
        DecoderSpec.nn(),
        DecoderSpec.corr(0.25),
        DecoderSpec.corr(0.2, 0.4, mismatched=True),
        DecoderSpec.mmse(1.0, c=1.3),
        DecoderSpec.mmse(0.5, c=1.2, c2=2.0, mismatched=True),
    ):
        back = DecoderSpec.from_json(spec.to_json())
        assert back.kind == spec.kind
        assert back.params == pytest.approx(spec.params)


def test_decoder_spec_validation():
    with pytest.raises(ValueError):
        DecoderSpec(kind="magic")
    with pytest.raises(InvalidDecoderParams):
        DecoderSpec(kind="corr", params={"eta1": 0.5, "eta2": 0.2})
    with pytest.raises(KeyError):
        DecoderSpec(kind="mmse", params={"alpha": 0.5})


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


def test_estimator_worker_invariance():
    cb = sample_codebook(16, 12, rng_for(73))
    spec = DecoderSpec.mmse(1.0, c=1.3)
    a = estimate_error_prob(cb, 1.0, spec, 4096, 74, workers=1)
    b = estimate_error_prob(cb, 1.0, spec, 4096, 74, workers=4)
    assert (a.error_count, a.erasure_count) == (b.error_count, b.erasure_count)


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


# ---------------------------------------------------------------------------
# per-message success profile


def test_p_approx_perfect_partial():
    cb = sample_codebook(8, 5, rng_for(81))
    rates, avg = p_approx_profile(
        cb, cb, np.arange(5), 1e-12, DecoderSpec.nn(), 50, 82
    )
    assert np.all(rates == 1.0)
    assert avg == 1.0


def test_p_approx_empty_partial_is_all_erasure():
    cb = sample_codebook(8, 5, rng_for(83))
    spec = DecoderSpec(kind="mismatched_corr", params={"eta1": 0.3, "eta2": 0.3})
    rates, avg = p_approx_profile(
        cb, None, np.empty(0, dtype=np.int64), 1.0, spec, 50, 84
    )
    assert np.all(rates == 1.0)
    assert avg == 1.0


def test_p_approx_uncovered_message_wants_erasure():
    cb = orthogonal_codebook(8, 8)
    partial = Codebook(centers=cb.centers[:4], d=8, k=4)
    matching = np.arange(4)
    spec = DecoderSpec(kind="mismatched_corr", params={"eta1": 0.35, "eta2": 0.35})
    rates, avg = p_approx_profile(cb, partial, matching, 0.01, spec, 200, 85)
    # covered messages decode, uncovered ones erase; both count as success
    assert np.all(rates >= 0.99)


def test_p_approx_matching_validation():
    cb = sample_codebook(8, 5, rng_for(86))
    spec = DecoderSpec.nn()
    with pytest.raises(ValueError, match="injection"):
        p_approx_profile(cb, cb, np.zeros(5, dtype=np.int64), 1.0, spec, 10, 87)
    with pytest.raises(ValueError, match="shape"):
        p_approx_profile(cb, cb, np.arange(3), 1.0, spec, 10, 88)
