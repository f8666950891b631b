import math
import sys
import threading
import time
import tracemalloc
import weakref
from concurrent.futures import ThreadPoolExecutor
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
    estimate_error_prob,
    noise_for_beta,
    rng_for,
    sample_codebook,
    sample_uniform_sphere_batch,
    wilson_interval,
)

from spherecodes import decoders
from spherecodes.decoders import (
    SLAB_BYTES,
    TRIAL_BLOCK,
    TRIALS_MIN,
    ErrorRow,
    _corr_batch,
    _mmse_batch,
    _nn_batch,
    estimate_error_rows,
)
from spherecodes.sphere import NetInfeasibleError, gemm_band, sq_dists

from .oracles import (
    corr_batch_ref,
    decode_ref,
    estimator_blocks,
    mmse_batch_ref,
    nn_batch_ref,
    pair_dots_ref,
    sq_dists_ref,
    wilson_ref,
)


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

# sigma2 = 1: alpha = tau = 1/2
MMSE_EXAMPLE = DecoderSpec(kind="mmse", params={"alpha": 0.5, "tau": 0.5, "tau1": 0.6, "tau2": 1.5})


def test_nn_exact_center():
    cb = sample_codebook(10, 6, rng_for(50))
    assert np.array_equal(decode_batch(cb, cb.centers, DecoderSpec.nn()), np.arange(6))


def test_nn_tie_breaks_lowest_index():
    r = math.sqrt(2.0)
    cb = Codebook(centers=np.array([[r, 0.0], [0.0, r]]), d=2, k=2)
    assert decode_batch(cb, np.array([[1.0, 1.0]]), DecoderSpec.nn())[0] == 0


def test_corr_accept_example():
    cb = orthogonal_codebook(4, 4)
    y = cb.centers[:1]  # correlation 1 with index 0, 0 elsewhere
    assert decode_batch(cb, y, DecoderSpec.corr(0.1, 0.2))[0] == 0


def test_corr_erases_on_zero_input():
    cb = orthogonal_codebook(4, 4)
    assert decode_batch(cb, np.zeros((1, 4)), DecoderSpec.corr(0.1, 0.2))[0] == ERASURE


def test_corr_erases_on_ambiguity():
    cb = orthogonal_codebook(4, 4)
    y = cb.centers[:1] + cb.centers[1:2]  # correlation 1 with both
    assert decode_batch(cb, y, DecoderSpec.corr(0.5, 0.5))[0] == ERASURE


def test_mmse_accept_example():
    # alpha * (2 X_0) lands exactly on X_0
    cb = orthogonal_codebook(4, 4)
    assert decode_batch(cb, 2.0 * cb.centers[:1], MMSE_EXAMPLE)[0] == 0


def test_mmse_erases_on_zero_input():
    cb = orthogonal_codebook(4, 4)
    # residual to every center is exactly 1 > tau1
    assert decode_batch(cb, np.zeros((1, 4)), MMSE_EXAMPLE)[0] == ERASURE


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
    y = cb.centers[7:]  # orthogonal to every retained center
    assert decode_batch(partial, y, DecoderSpec.corr(0.3))[0] == ERASURE


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
    # a row decodes alike alone and inside a 300-row block
    cb = sample_codebook(12, 9, rng_for(54))
    ys = cb.centers[rng_for(55).integers(0, 9, 300)] + 0.8 * rng_for(56).standard_normal(
        (300, 12)
    )
    for spec in (DecoderSpec.nn(), DecoderSpec.corr(0.4), DecoderSpec.mmse(0.64, c=1.3)):
        out = decode_batch(cb, ys, spec)
        for i in (0, 17, 299):
            assert decode_batch(cb, ys[i : i + 1], spec)[0] == out[i]


def test_empty_targets():
    empty = np.empty((0, 4))
    y = np.ones((1, 4))
    assert decode_batch(empty, y, DecoderSpec.corr(0.3))[0] == ERASURE
    assert decode_batch(empty, y, DecoderSpec.mmse(1.0))[0] == ERASURE
    with pytest.raises(ValueError):
        decode_batch(empty, y, DecoderSpec.nn())


def test_bare_array_targets_match_codebook():
    cb = sample_codebook(6, 5, rng_for(57))
    y = cb.centers[2] + 0.1 * rng_for(58).standard_normal((1, 6))
    assert decode_batch(cb, y, DecoderSpec.nn())[0] == decode_batch(cb.centers, y, DecoderSpec.nn())[0]


# ---------------------------------------------------------------------------
# invariants


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=25, deadline=None)
def test_threshold_monotonicity_corr(seed):
    # relaxing the accept bar can only turn Erasure into a Message
    cb = sample_codebook(8, 6, rng_for(59, seed))
    y = cb.centers[:1] + rng_for(60, seed).standard_normal(8)
    tight = decode_batch(cb, y, DecoderSpec.corr(0.2, 0.6))[0]
    loose = decode_batch(cb, y, DecoderSpec.corr(0.5, 0.6))[0]
    if tight != ERASURE:
        assert loose == tight


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=25, deadline=None)
def test_threshold_monotonicity_mmse(seed):
    cb = sample_codebook(8, 6, rng_for(61, seed))
    y = cb.centers[:1] + rng_for(62, seed).standard_normal(8)
    base = DecoderSpec.mmse(1.0, c=1.0, c2=2.9)
    loose = DecoderSpec(kind="mmse", params={**base.params, "tau1": 1.3 * base.record.tau})
    a = decode_batch(cb, y, base)[0]
    b = decode_batch(cb, y, loose)[0]
    if a != ERASURE:
        assert b == a


def test_matched_decoders_on_noiseless_orthogonal():
    cb = orthogonal_codebook(16, 10)
    # mmse: tau2 = 0.72 < cross residual 1.25
    for spec in (DecoderSpec.nn(), DecoderSpec.corr(0.3, 0.9), DecoderSpec.mmse(1.0, c=1.2)):
        for i in range(10):
            assert decode_batch(cb, cb.centers[i : i + 1], spec)[0] == i


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
    with pytest.raises(InvalidDecoderParams, match="mismatched_corr decoder field eta2 must be a finite number"):
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
    def reached(cb, sigma2, n, rng, *, out=None):
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


def test_estimator_refuses_a_batch_over_budget_before_its_buffers_exist():
    # 1,024 samples in d = 65,536 fit the budget exactly, and their labels
    # put the batch 8 KiB over it. The refusal is sample_gmm's, and no
    # buffer of the batch's size (512 MiB) is allocated before it
    d, k, trials = 65536, 2, 1024
    cb = Codebook(centers=np.sqrt(d) * np.eye(k, d), d=d, k=k)
    nbytes = trials * (d + 1) * 8
    tracemalloc.start()
    try:
        with pytest.raises(NetInfeasibleError, match=f"a batch of n={trials} samples in dimension {d} needs {nbytes} bytes"):
            estimate_error_prob(cb, 1.0, DecoderSpec.nn(), trials, 79)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < nbytes // 64


class _Stop(Exception):
    pass


@pytest.mark.parametrize("fault", [None, "decode", "draw"])
def test_estimator_leaves_no_thread_and_passes_errors_through(monkeypatch, fault):
    # the call returns, decode_batch raises on block 1, or the draw raises:
    # no thread outlives the call, and the error reaches the caller as raised
    cb = sample_codebook(16, 12, rng_for(80))
    calls = {"decode": 0}
    decode = decoders.decode_batch

    def decode_failing(cb, ys, spec):
        calls["decode"] += 1
        if calls["decode"] == 2:
            raise _Stop("decoding block 1")
        return decode(cb, ys, spec)

    def sample_failing(cb, sigma2, n, rng, *, out=None):
        raise _Stop("drawing")

    if fault == "decode":
        monkeypatch.setattr(decoders, "decode_batch", decode_failing)
    elif fault == "draw":
        monkeypatch.setattr(decoders, "sample_gmm", sample_failing)
    before = threading.enumerate()
    if fault is None:
        est = estimate_error_prob(cb, 2.0, DecoderSpec.nn(), 3 * TRIAL_BLOCK, 81)
        assert est.trials == 3 * TRIAL_BLOCK
    else:
        with pytest.raises(_Stop):
            estimate_error_prob(cb, 2.0, DecoderSpec.nn(), 3 * TRIAL_BLOCK, 81)
    assert threading.enumerate() == before


def test_estimator_counts_hold_under_concurrent_calls_and_fast_switching():
    # four calls at once, each with its own helper thread, under a short
    # switch interval: each call counts exactly its blocks drawn one after
    # the other, so no buffer is written while it is decoded
    cb = sample_codebook(32, 64, rng_for(82))
    sigma2 = noise_for_beta(32, 64, 1.0).sigma2
    trials = 6 * TRIAL_BLOCK + 77

    def counts(path):
        errors = erasures = 0
        for ys, labels in estimator_blocks(cb, sigma2, trials, 83, path):
            out = decode_ref(cb, ys, DecoderSpec.nn())
            errors += int(np.sum(out != labels))
            erasures += int(np.sum(out == ERASURE))
        return errors, erasures

    def estimate(path):
        est = estimate_error_prob(cb, sigma2, DecoderSpec.nn(), trials, 83, seed_path=path)
        return est.error_count, est.erasure_count

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=4) as pool:
            futures = [pool.submit(estimate, (p,)) for p in range(4)]
            got = [f.result(timeout=120) for f in futures]
    finally:
        sys.setswitchinterval(interval)
    assert got == [counts((p,)) for p in range(4)]


def _codebook_maker(d: int, k: int, seed: int, made: list):
    """A row's codebook factory: the codebook of sample_codebook(d, k,
    rng_for(seed)), fresh on each call, with a weak reference to it
    appended to made, so a test sees when it is made and when freed."""

    def make():
        cb = sample_codebook(d, k, rng_for(seed))
        made.append(weakref.ref(cb))
        return cb

    return make


def _decoding_threads(monkeypatch, wait: bool) -> list:
    """Wrap decode_batch to record the ident of the thread of each call,
    in call order. With wait, each thread's first call waits, up to 30 s,
    until a second thread has made its first."""
    decode = decoders.decode_batch
    barrier = threading.Barrier(2, timeout=30)
    calls = []

    def decode_recording(cb, ys, spec):
        me = threading.get_ident()
        first = me not in calls
        calls.append(me)
        if wait and first:
            barrier.wait()
        return decode(cb, ys, spec)

    monkeypatch.setattr(decoders, "decode_batch", decode_recording)
    return calls


# rows of 1-3 (d, k, decoder kind, beta), mixing d, k and decoder
ROW_LISTS = [
    [(16, 64, "mmse", 1.0)],
    [(16, 64, "nn", 1.0), (8, 12, "corr", 2.0)],
    [(8, 12, "mmse", 2.0), (32, 40, "nn", 1.0), (16, 64, "corr", 0.5)],
]


@pytest.mark.parametrize("trials", [TRIALS_MIN, TRIAL_BLOCK, 2 * TRIAL_BLOCK + 77])
@pytest.mark.parametrize("n_rows", [1, 2, 3])
def test_estimator_queue_counts_are_serial_and_both_threads_decode(monkeypatch, n_rows, trials):
    # every row's blocks form one queue: each row counts what the serial
    # oracle counts, and two threads decode whenever the list has two
    # blocks or more, which the waiting decode_batch forces: were the
    # blocks taken by one thread, its first call would time out
    rows, oracle = [], []
    for i, (d, k, kind, beta) in enumerate(ROW_LISTS[n_rows - 1]):
        sigma2 = noise_for_beta(d, k, beta).sigma2
        spec = {"nn": DecoderSpec.nn(), "mmse": DecoderSpec.mmse(sigma2, c=1.45), "corr": DecoderSpec.corr(0.3)}[kind]
        rows.append(ErrorRow(_codebook_maker(d, k, 86 + i, []), d, k, sigma2, spec, (i,)))
        cb = sample_codebook(d, k, rng_for(86 + i))
        errors = erasures = 0
        for ys, labels in estimator_blocks(cb, sigma2, trials, 87, (i,)):
            out = decode_ref(cb, ys, spec)
            errors += int(np.sum(out != labels))
            erasures += int(np.sum(out == ERASURE))
        oracle.append((errors, erasures))
    blocks = n_rows * -(-trials // TRIAL_BLOCK)
    calls = _decoding_threads(monkeypatch, wait=blocks >= 2)
    ests = estimate_error_rows(rows, trials, 87)
    assert [(e.error_count, e.erasure_count) for e in ests] == oracle
    assert [e.trials for e in ests] == [trials] * n_rows
    assert len(calls) == blocks and len(set(calls)) == min(2, blocks)


@pytest.mark.parametrize("failing", ["calling", "helper"])
def test_estimator_error_on_either_thread_stops_the_queue(monkeypatch, failing):
    # both threads decode their first block at once; one raises. The error
    # reaches the caller, the other thread finishes its block and takes no
    # further one of the eight, and no thread outlives the call
    cb = sample_codebook(8, 12, rng_for(88))
    calls = _decoding_threads(monkeypatch, wait=True)
    decode = decoders.decode_batch
    caller = threading.get_ident()
    raised = threading.Event()

    def decode_failing(cb, ys, spec):
        out = decode(cb, ys, spec)
        if (threading.get_ident() == caller) == (failing == "calling"):
            raised.set()
            raise _Stop(f"decoding on the {failing} thread")
        assert raised.wait(30)
        # the failing thread stops the queue as its error leaves the block,
        # a few frames after raised is set
        time.sleep(0.2)
        return out

    monkeypatch.setattr(decoders, "decode_batch", decode_failing)
    before = threading.active_count()
    with pytest.raises(_Stop, match=failing):
        estimate_error_prob(cb, 2.0, DecoderSpec.nn(), 8 * TRIAL_BLOCK, 89)
    assert len(calls) == 2 and len(set(calls)) == 2
    assert threading.active_count() == before


def test_estimator_makes_each_codebook_once_and_drops_it_after_its_last_block(monkeypatch):
    # four rows of three blocks on two threads: a codebook is alive only
    # while a thread runs one of its row's blocks, so no decode sees more
    # than two, and none outlives the call
    made = []
    rows = [ErrorRow(_codebook_maker(8, 12, 90 + i, made), 8, 12, 2.0, DecoderSpec.nn(), (i,)) for i in range(4)]
    decode = decoders.decode_batch
    alive = []

    def decode_counting(cb, ys, spec):
        alive.append(sum(ref() is not None for ref in made))
        return decode(cb, ys, spec)

    monkeypatch.setattr(decoders, "decode_batch", decode_counting)
    estimate_error_rows(rows, 2 * TRIAL_BLOCK + 77, 91)
    assert len(made) == 4 and len(alive) == 12
    assert max(alive) <= 2
    assert all(ref() is None for ref in made)


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


@pytest.mark.parametrize("beta", [0.5, 2.0])
def test_kernels_pass_the_exhaustive_scan_at_the_criterion_3_geometry(beta):
    # decode_batch against the full-matrix references on the block the
    # estimator draws
    d, k = 16, 2981
    cb = sample_codebook(d, k, rng_for(97))
    sigma2 = noise_for_beta(d, k, beta).sigma2
    for spec in (DecoderSpec.nn(), DecoderSpec.mmse(sigma2, c=1.45), DecoderSpec.corr(0.3)):
        for ys, _ in estimator_blocks(cb, sigma2, TRIAL_BLOCK, 98, seed_path=(int(4 * beta),)):
            assert np.array_equal(decode_batch(cb, ys, spec), decode_ref(cb, ys, spec))


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


def _assert_kernels_match(centers, ys, mmse_sets, corr_pairs):
    # mmse_sets: MmseParams records or bare (alpha, tau1, tau2) triples
    assert np.array_equal(_nn_batch(centers, ys), nn_batch_ref(centers, ys))
    for p in mmse_sets:
        alpha, tau1, tau2 = (p.alpha, p.tau1, p.tau2) if isinstance(p, MmseParams) else p
        assert np.array_equal(
            _mmse_batch(centers, ys, alpha, tau1, tau2),
            mmse_batch_ref(centers, ys, alpha, tau1, tau2),
        )
    for eta1, eta2 in corr_pairs:
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


# slab budgets below, at and above the one the decoders use: no outcome
# may depend on the slab height
SLAB_BUDGETS = (64 * 1024, SLAB_BYTES, 4 * 1024 * 1024)


def _slab_edges(k, budget):
    # per slab height of a float32 and of a float64 GEMM output: a lone row,
    # a block of whole slabs, whole slabs plus one row, and a partial last slab
    edges = {1}
    for itemsize in (4, 8):
        rows = max(1, budget // (itemsize * k))
        edges |= {rows, rows + 1, 2 * rows + rows // 2 + 1}
    return sorted(edges)


@pytest.mark.parametrize("d,k", KERNEL_SHAPES)
def test_kernels_match_refs_on_slab_edges(monkeypatch, d, k):
    centers = sample_uniform_sphere_batch(d, k, rng_for(83, d, k))
    sigma2 = _sigma2(d, k)
    # alpha = 0.8 scales the inputs as the former 0.8 * ys scan did
    mmse = [MmseParams.for_noise(sigma2, c=1.45), MmseParams.for_noise(0.25, c=1.45)]
    for budget in SLAB_BUDGETS:
        monkeypatch.setattr(decoders, "SLAB_BYTES", budget)
        for n in _slab_edges(k, budget):
            ys = _noisy(centers, n, math.sqrt(sigma2), 84, d, k, n)
            _assert_kernels_match(centers, ys, mmse, [(0.4, 0.6)])


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("k", [1, 7, 2981])
def test_top2_in_the_dtype_of_its_input_on_slab_edges(monkeypatch, dtype, k):
    for budget in SLAB_BUDGETS:
        monkeypatch.setattr(decoders, "SLAB_BYTES", budget)
        for n in _slab_edges(k, budget):
            # integer entries from a small range, so rows hold exact ties;
            # then a row with -inf entries (all -inf at k = 1), one whose
            # maximum repeats, and one of signed zeros
            g = rng_for(99, k, n).integers(-20, 20, size=(n, k)).astype(dtype)
            g[0, : (k + 1) // 2] = -np.inf
            g[n // 2, -2:] = 25
            g[n - 1] = np.where(np.arange(k) % 2 == 0, 0.0, -0.0)
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
    sq = np.sort(sq_dists_ref(alpha * ys, centers) / d, axis=1)
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
    corr = np.sort(pair_dots_ref(ys, centers) / d, axis=1)
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


@pytest.mark.parametrize("kind", ["nn", "mmse", "corr"])
def test_estimator_matches_ref_kernels(kind):
    # the criterion-3 geometry, with a partial last block; the blocks are
    # drawn here as the channel defines them, not by sample_gmm
    d, k, trials, seed = 16, 2981, 2 * TRIAL_BLOCK + 300, 92
    cb = sample_codebook(d, k, rng_for(93))
    sigma2 = noise_for_beta(d, k, 2.0).sigma2
    spec = {"nn": DecoderSpec.nn(), "mmse": DecoderSpec.mmse(sigma2, c=1.45), "corr": DecoderSpec.corr(0.3)}[kind]
    errors = erasures = 0
    for block in range((trials + TRIAL_BLOCK - 1) // TRIAL_BLOCK):
        size = min(TRIAL_BLOCK, trials - block * TRIAL_BLOCK)
        rng = rng_for(seed, block)
        labels = rng.integers(0, k, size=size)
        ys = cb.centers[labels] + math.sqrt(sigma2) * rng.standard_normal((size, d))
        out = decode_ref(cb, ys, spec)
        errors += int(np.sum(out != labels))
        erasures += int(np.sum(out == ERASURE))
    est = estimate_error_prob(cb, sigma2, spec, trials, seed)
    assert (est.error_count, est.erasure_count) == (errors, erasures)


# ---------------------------------------------------------------------------
# the two tiers: each kernel screens a block in float32 with
# sphere.gemm_band, and hands the rows the screen leaves undecided, or
# every row when a screen band is not finite, to its family's exact rule
# on those rows' fixed-order products


def _tiers(monkeypatch):
    """Record what each tier of decoders._decide reads, in call order: the
    dtype of every GEMM output slab _top2 reads ("top2", the screen's
    float32, one entry per slab), the rows the screen's band rule decides
    for certain ("sure", one entry per block it screens), and the product
    rows each call of an exact rule reads ("exact")."""
    seen = {"top2": [], "sure": [], "exact": []}
    top2, decide = decoders._top2, decoders._decide

    def top2_recording(g):
        seen["top2"].append(g.dtype)
        return top2(g)

    def decide_recording(band_rule, exact_rule, *args):
        def band_recording(*a):
            out, sure = band_rule(*a)
            seen["sure"].append(sure)
            return out, sure

        def exact_recording(g, ya, xb):
            seen["exact"].append(g)
            return exact_rule(g, ya, xb)

        return decide(band_recording, exact_recording, *args)

    monkeypatch.setattr(decoders, "_top2", top2_recording)
    monkeypatch.setattr(decoders, "_decide", decide_recording)
    return seen


def _screen_slabs(n: int, k: int) -> list:
    """What _tiers records under "top2" for one screen of n rows against k
    centers: float32, once per slab of about SLAB_BYTES."""
    return [np.float32] * -(-n // max(1, SLAB_BYTES // (4 * k)))


@pytest.mark.parametrize("d", [1, 2, 3, 16, 128])
def test_f32_gemm_band_bounds_the_float32_error(d):
    rng = rng_for(100, d)
    # rows over six orders of magnitude, and rows in float32's subnormal range
    a = rng.standard_normal((2048, d)) * np.exp(rng.uniform(-7.0, 7.0, size=(2048, 1)))
    a[:64] *= 1e-40
    b = rng.standard_normal((32, d))
    for scale in (1.0, 2.0):
        g64 = (scale * a) @ b.T
        # as the screen forms it: a float32 copy of a, scaled in float32
        s32 = a.astype(np.float32)
        s32 *= scale
        g32 = s32 @ b.astype(np.float32).T
        band = gemm_band(np.sum(a * a, axis=1), np.sum(b * b, axis=1), d, scale)
        ratio = np.max(np.abs(g32 - g64), axis=1) / band
        assert np.all(ratio <= 1.0)
        if d == 1:
            # one product: its three roundings can nearly add up, so the
            # band is within a factor 2 of the error on some rows
            assert np.max(ratio) > 0.5


def test_f32_gemm_band_is_infinite_where_float32_could_overflow_or_a_value_is_not_finite():
    b_sq = np.array([16.0, 16.0])
    a_sq = np.array([16.0, 1e78, np.nan, np.inf, 1e-80])
    band = gemm_band(a_sq, b_sq, 16, 2.0)
    assert np.isfinite(band[0]) and np.isfinite(band[4])
    assert np.all(np.isinf(band[1:4]))
    assert np.all(np.isinf(gemm_band(np.array([16.0]), np.array([np.nan, 16.0]), 16, 1.0)))


def test_screen_falls_back_on_rows_a_halved_band_decides_wrongly():
    # d = 1, one input y against the centers c and -c: the float32 product
    # 2 y c is off the float64 one by more than half its band. A threshold
    # set on the float64 statistic, or one float64 step past it on the side
    # the float32 error lies, leaves the row undecided in float32, and the
    # exact rule decides it; half the band would decide it wrongly
    rng = rng_for(101)
    ys, cs = rng.uniform(0.7, 1.4, size=(2, 4000))
    rows = 0
    for y, c in zip(ys, cs):
        centers, row = np.array([[c], [-c]]), np.array([[y]])
        for scale, g64, g32 in (
            (2.0, (2.0 * y) * c, float(np.float32(2.0 * y) * np.float32(c))),
            (1.0, y * c, float(np.float32(y) * np.float32(c))),
        ):
            band = gemm_band(np.array([y * y]), np.array([c * c]), 1, scale)[0]
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


def _float32_step_pairs():
    """(centers, ys): the criterion-3 shape with center pairs whose GEMM
    entries tie exactly (a copy), or sit one float32 step apart either way,
    or one float64 step apart, and a block of rows near the pairs' first
    centers. Those entries are inside the float32 band, so the screen
    leaves the rows undecided. The float32-step partners are put back on
    the sphere: nn's band rule bounds every rival's distance with the
    smallest center norm, and a partner a float32 step inside the sphere
    would lower that for every row."""
    d, k = 16, 2981
    centers = sample_uniform_sphere_batch(d, k, rng_for(104))
    src = centers[0:2000:2]
    step32 = np.spacing(src.astype(np.float32)).astype(np.float64)
    partner = np.empty_like(src)
    partner[0::4] = src[0::4]
    for j, sign in ((1, 1.0), (2, -1.0)):
        moved = src[j::4] + sign * step32[j::4]
        partner[j::4] = moved * (math.sqrt(d) / np.linalg.norm(moved, axis=1, keepdims=True))
    partner[3::4] = np.nextafter(src[3::4], np.inf)
    centers[1:2000:2] = partner
    labels = 2 * rng_for(105).integers(0, 1000, size=TRIAL_BLOCK)
    return centers, centers[labels] + 0.05 * rng_for(106).standard_normal((TRIAL_BLOCK, d))


def test_kernels_match_refs_on_centers_one_float32_step_apart(monkeypatch):
    centers, ys = _float32_step_pairs()
    sigma2 = _sigma2(*centers.shape[::-1])
    mmse = [MmseParams.for_noise(sigma2, c=c) for c in (1.2, 1.45)] + [(1.0, 0.01, 0.02)]
    _assert_kernels_match(centers, ys, mmse, [(0.3, 0.3), (0.01, 0.02)])
    # for nn the screen decides no row, and the exact rule reads every row,
    # in order, as its fixed-order products
    seen = _tiers(monkeypatch)
    _nn_batch(centers, ys)
    assert seen["top2"] == _screen_slabs(len(ys), len(centers)) and not np.any(seen["sure"][0])
    assert np.array_equal(np.concatenate(seen["exact"]), pair_dots_ref(2.0 * ys, centers))
    # left off the sphere, the partners a float32 step inside it lower the
    # smallest center norm by about 1e-6, and every family still decodes
    # as the reference
    src = centers[0:2000:2]
    step32 = np.spacing(src.astype(np.float32)).astype(np.float64)
    centers[3:2000:8] = src[1::4] + step32[1::4]
    centers[5:2000:8] = src[2::4] - step32[2::4]
    _assert_kernels_match(centers, ys, mmse, [(0.3, 0.3), (0.01, 0.02)])


def test_a_decode_block_allocates_a_few_slabs_and_no_block_sized_product():
    # the traced peak of one nn decode_batch call. The screen forms its
    # float32 product one slab of about 1 MiB at a time in one buffer:
    # the whole block at d = 128, k = 256, and 87 of its 1,024 rows at
    # k = 2,981, where the whole product would be 11.6 MiB. The exact rule,
    # which reads every row of the float32-step-pairs block, forms its
    # products and their distances a slab at a time
    cb = sample_codebook(128, 256, rng_for(122))
    blocks = [(cb.centers, _noisy(cb.centers, TRIAL_BLOCK, math.sqrt(_sigma2(128, 256)), 123), 2 << 20)]
    cb = sample_codebook(16, 2981, rng_for(124))
    blocks.append((cb.centers, _noisy(cb.centers, TRIAL_BLOCK, math.sqrt(_sigma2(16, 2981)), 125), 3 << 19))
    blocks.append((*_float32_step_pairs(), 4 << 20))
    for centers, ys, bound in blocks:
        tracemalloc.start()
        try:
            decode_batch(centers, ys, DecoderSpec.nn())
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < bound


def test_exact_rule_decides_a_row_whose_blas_product_alone_ranks_two_centers_differently(monkeypatch):
    # +-1 centers, every squared norm exactly d, with center 1 one float64
    # step from center 0 in a random half of its coordinates. Row i, near
    # center 0, is the one the screen leaves, and the BLAS product of that
    # row alone, which rounds differently from the fixed-order one, puts
    # the two distances in the other order. The exact rule reads the
    # row's fixed-order products, so it decodes the row as the reference
    d, k, n, i = 128, 256, 64, 32
    for seed in range(40):
        rng = rng_for(120, seed)
        centers = rng.choice([-1.0, 1.0], size=(k, d))
        step = np.nextafter(centers[0], np.inf * centers[0])
        centers[1] = np.where(rng.random(d) < 0.5, step, centers[0])
        labels = rng.integers(2, k, size=n)
        labels[i] = 0
        ys = centers[labels] + 0.3 * rng.standard_normal((n, d))
        fixed, alone = sq_dists_ref(ys[[i]], centers)[0, :2], sq_dists(ys[[i]], centers)[0, :2]
        if np.sign(fixed[0] - fixed[1]) != np.sign(alone[0] - alone[1]):
            break
    else:
        pytest.fail("no one-step perturbation ranks the pair differently alone")
    seen = _tiers(monkeypatch)
    spec = DecoderSpec.nn()
    assert np.array_equal(decode_batch(centers, ys, spec), decode_ref(centers, ys, spec))
    [screen] = seen["sure"]
    assert np.array_equal(np.flatnonzero(~screen), [i])
    assert np.array_equal(np.concatenate(seen["exact"]), pair_dots_ref(2.0 * ys[[i]], centers))


def test_decode_batch_refuses_a_center_with_a_non_finite_coordinate(monkeypatch):
    # a bare center list skips Codebook's checks. A nan center would make
    # nn decode both rows to it and the threshold decoders erase both, and
    # an infinite one would warn from the GEMM: every kind refuses the
    # block instead, naming the first such center, before any GEMM
    ys = np.array([[1.7, 0.0, 0.0], [0.0, 0.0, 1.7]])
    specs = [
        DecoderSpec.nn(),
        DecoderSpec.mmse(0.5, c=1.45),
        DecoderSpec.corr(0.3),
        DecoderSpec(kind="mismatched_mmse", params=asdict(MmseParams.for_noise(0.5, c=1.45))),
        DecoderSpec(kind="mismatched_corr", params={"eta1": 0.3, "eta2": 0.3}),
    ]
    seen = _tiers(monkeypatch)
    for bad in (np.nan, np.inf, -np.inf):
        centers = math.sqrt(3.0) * np.eye(3)
        centers[1, 0] = centers[2, 2] = bad
        for spec in specs:
            with pytest.raises(ValueError, match="center 1 has a non-finite"):
                decode_batch(centers, ys, spec)
    assert seen["top2"] == seen["exact"] == []


def test_kernels_match_refs_on_inputs_that_overflow_float32(monkeypatch):
    d, k = 16, 64
    centers = sample_uniform_sphere_batch(d, k, rng_for(107))
    seen = _tiers(monkeypatch)
    mmse, corr = [(1.0, 0.5, 1.0), (1.0, 1e78, 2e78)], [(0.3, 0.3)]
    # a block within one exact slab, and one over two slabs, of 2,048 rows
    # at k = 64: no band is finite, so the exact rule reads every row
    step = SLAB_BYTES // (8 * k)
    for n in (256, 2 * step + 7):
        seen["exact"].clear()
        ys = 1e39 * rng_for(108, n).standard_normal((n, d))
        _assert_kernels_match(centers, ys, mmse, corr)
        slabs = [256] if n == 256 else [step, step, 7]
        assert [g.shape[0] for g in seen["exact"]] == 4 * slabs
    assert seen["top2"] == seen["sure"] == []
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
    seen = _tiers(monkeypatch)
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
    assert seen["top2"] == seen["exact"] == []
    # without the bad rows the block decodes, the huge finite row included
    _assert_kernels_match(
        centers, np.delete(ys, [12, 40], axis=0), [MmseParams.for_noise(sigma2, c=1.45)], [(0.3, 0.3)]
    )


def test_kernels_pass_the_exhaustive_scan_where_the_screen_falls_back(monkeypatch):
    # d = 128, k = 256 above capacity: top-two gaps are small, and nn leaves
    # rows of the block the estimator draws to the float64 exact rule
    d, k = 128, 256
    cb = sample_codebook(d, k, rng_for(102))
    sigma2 = noise_for_beta(d, k, 0.5).sigma2
    seen = _tiers(monkeypatch)
    [(ys, _)] = estimator_blocks(cb, sigma2, TRIAL_BLOCK, 103, seed_path=(2,))
    mmse = DecoderSpec.mmse(sigma2, c=1.45)
    # each family's exact rule reads the fixed-order products of these rows
    for spec, a in ((DecoderSpec.nn(), 2.0 * ys), (mmse, 2.0 * (mmse.record.alpha * ys)), (DecoderSpec.corr(0.3), ys)):
        for rows in seen.values():
            rows.clear()
        assert np.array_equal(decode_batch(cb, ys, spec), decode_ref(cb, ys, spec))
        # the exact rule reads exactly the rows the screen left undecided,
        # in order
        [screen] = seen["sure"]
        assert seen["top2"] == _screen_slabs(TRIAL_BLOCK, k)
        exact = np.vstack(seen["exact"] or [np.empty((0, k))])
        assert np.array_equal(exact, pair_dots_ref(a[~screen], cb.centers))
        if spec.family == "nn":
            assert not np.all(screen)
