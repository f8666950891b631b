"""Desk-scale acceptance gate.

One test per shipped acceptance criterion, in order. Each prints a single
line "CRITERION n: PASS|FAIL - detail" before asserting, so the verbose
test listing and the captured output both read as a checklist.

Criteria 3 and 6 contain clauses that this implementation does not reach
(documented in the README); those tests run the full experiment at the
stated tolerance and fail honestly rather than loosening the check.
"""

import functools
import math
import time

import numpy as np
import pytest

from spherecodes import (
    ERASURE,
    Codebook,
    DecoderSpec,
    GmmBatch,
    capacity,
    capacity_inv,
    decode_batch,
    genie_estimator,
    loss_avg,
    loss_max,
    noise_for_beta,
    rate,
    rng_for,
    sample_codebook,
    sample_gmm,
    step2_cluster_average,
)
from spherecodes.expcli import (
    _TIMING_FIELDS,
    DECODE_FIELDS,
    determinism_hash,
    parse_spec,
    run_decode_sweep,
    run_learn_experiment,
)

from . import oracles


def report(n: int, ok: bool, detail: str) -> None:
    status = "PASS" if ok else "FAIL"
    line = f"CRITERION {n}: {status} - {detail}"
    print(line)
    assert ok, line


# ---------------------------------------------------------------------------
# criterion 1: capacity algebra


def test_criterion_01_capacity_algebra():
    t0 = time.perf_counter()
    ys = np.geomspace(1e-4, 4.0, 1000)
    round_trip = max(abs(capacity(capacity_inv(y)) - y) for y in ys)
    worst_rate = 0.0
    for d in (1, 2, 4, 8, 16, 32, 64, 128, 512):
        for k in (2, 3, 4, 16, 256, 2981):
            for beta in (0.25, 0.5, 1.0, 2.0, 4.0):
                p = noise_for_beta(d, k, beta)
                worst_rate = max(
                    worst_rate, abs(capacity(beta * p.sigma2) - math.log(k) / d)
                )
    elapsed = time.perf_counter() - t0
    ok = round_trip <= 1e-12 and worst_rate <= 1e-10 and elapsed < 1.0
    report(
        1,
        ok,
        f"round-trip err {round_trip:.2e} (<=1e-12), rate identity err "
        f"{worst_rate:.2e} (<=1e-10), {elapsed:.2f}s (<1s)",
    )


# ---------------------------------------------------------------------------
# criterion 2 (+ its rerun for criterion 9): zero-rate phase transition


_C2_BETAS = (0.5, 0.75, 1.0, 1.5, 2.0)


def _c2_spec(workers: int):
    return parse_spec(
        {
            "kind": "decode_sweep",
            "d": [128],
            "k": [256],
            "beta": list(_C2_BETAS),
            "decoders": [{"kind": "nn"}],
            "trials": 10_000,
            "replicates": 5,
            "master_seed": 0,
            "workers": workers,
        }
    )


@functools.lru_cache(maxsize=None)
def _c2_rows(workers: int):
    return tuple(run_decode_sweep(_c2_spec(workers)))


def _aggregate_by_beta(rows):
    agg = {}
    for r in rows:
        b = r["beta"]
        errs, tot = agg.get(b, (0, 0))
        agg[b] = (errs + r["error_count"], tot + r["trials"])
    return {b: errs / tot for b, (errs, tot) in agg.items()}


def test_criterion_02_zero_rate_phase_transition():
    t0 = time.perf_counter()
    rho = _aggregate_by_beta(_c2_rows(1))
    elapsed = time.perf_counter() - t0
    seq = [rho[b] for b in _C2_BETAS]
    decreasing = all(a > b for a, b in zip(seq, seq[1:]))
    ok = rho[2.0] < 0.05 and rho[0.5] > 0.5 and decreasing and elapsed < 120.0
    report(
        2,
        ok,
        f"rho(beta=2)={rho[2.0]:.4f} (<0.05), rho(beta=0.5)={rho[0.5]:.4f} "
        f"(>0.5), strictly decreasing={decreasing}, {elapsed:.0f}s (<120s)",
    )


# ---------------------------------------------------------------------------
# criterion 3: positive-rate phase transition (first clause known red)


def test_criterion_03_positive_rate_phase_transition():
    t0 = time.perf_counter()
    spec = parse_spec(
        {
            "kind": "decode_sweep",
            "d": [16],
            "k": [2981],
            "beta": [0.5, 2.0],
            "decoders": [{"kind": "mmse", "c": 1.45, "c2": 1.45}],
            "trials": 10_000,
            "master_seed": 0,
        }
    )
    rho = _aggregate_by_beta(run_decode_sweep(spec))
    elapsed = time.perf_counter() - t0
    ratio = rho[0.5] / rho[2.0] if rho[2.0] > 0 else float("inf")
    ok = rho[2.0] <= 0.1 and rho[0.5] >= 5.0 * rho[2.0] and elapsed < 300.0
    report(
        3,
        ok,
        f"rho(beta=2)={rho[2.0]:.4f} (<=0.1), ratio={ratio:.2f} (>=5), "
        f"{elapsed:.0f}s (<300s); erasure-as-error floor at this scale is "
        f"above the target, see README",
    )


# ---------------------------------------------------------------------------
# criterion 4: genie baseline rate


def test_criterion_04_genie_baseline():
    t0 = time.perf_counter()
    d, k, sigma2, n = 32, 8, 1.0, 8000
    losses = []
    for s in range(50):
        cb = sample_codebook(d, k, rng_for(0, 4, s, 0))
        # n / k samples of each label
        labels = np.repeat(np.arange(k), n // k)
        noise = rng_for(0, 4, s, 1).standard_normal((n, d))
        batch = GmmBatch(cb.centers[labels] + math.sqrt(sigma2) * noise, labels, sigma2)
        losses.append(loss_avg(cb, genie_estimator(batch, k)))
    mean = float(np.mean(losses))
    target = sigma2 * k / n
    elapsed = time.perf_counter() - t0
    ok = abs(mean - target) <= 0.3 * target and elapsed < 30.0
    report(
        4,
        ok,
        f"mean genie loss {mean:.6f} vs {target:.6f} +-30% over 50 seeds, "
        f"{elapsed:.0f}s (<30s)",
    )


# ---------------------------------------------------------------------------
# criterion 5: refinement step near the genie floor below capacity


def test_criterion_05_step2_near_genie():
    t0 = time.perf_counter()
    d, k, beta, nbar = 32, 8, 2.0, 2000
    sigma2 = noise_for_beta(d, k, beta).sigma2
    spec = DecoderSpec(kind="mismatched_corr", params={"eta1": 0.1, "eta2": 0.1})
    ratios = []
    for s in range(50):
        cb = sample_codebook(d, k, rng_for(0, 5, s, 0))
        batch2 = sample_gmm(cb, sigma2, nbar, rng_for(0, 5, s, 1))
        est, _ = step2_cluster_average(cb.centers, batch2, spec, k)
        genie = genie_estimator(batch2, k)
        ratios.append(loss_avg(cb, est) / loss_avg(cb, genie))
    med = float(np.median(ratios))
    elapsed = time.perf_counter() - t0
    ok = med <= 2.0 and elapsed < 120.0
    report(
        5,
        ok,
        f"median loss/genie ratio {med:.3f} (<=2) over 50 seeds at Nbar={nbar}, "
        f"{elapsed:.0f}s (<120s)",
    )


# ---------------------------------------------------------------------------
# criterion 6: end-to-end learner (accuracy clause known red)


def _c6_learn_rows(beta: float, nbar: int):
    spec = parse_spec(
        {
            "kind": "learn",
            "d": [6],
            "k": [4],
            "beta": [beta],
            "replicates": 50,
            "master_seed": 0,
            "probes": 2000,
            "learner": {
                "eps_I": 0.25,
                "N": 2000,
                "Nbar": nbar,
                "test_kind": "zero_rate",
                "decoder_kind": "mismatched_mmse",
                "mmse_c": 1.4,
                "mmse_c2": 1.4,
                "threshold_const": 0.25,
                "C_net": 16.0,
            },
        }
    )
    return run_learn_experiment(spec)


def test_criterion_06_end_to_end_learner():
    t0 = time.perf_counter()
    d, k, eps = 6, 4, 0.05
    s2_easy = noise_for_beta(d, k, 2.0).sigma2
    s2_hard = noise_for_beta(d, k, 0.5).sigma2
    nbar_easy = math.ceil(4 * k * s2_easy / eps)
    nbar_hard = math.ceil(4 * k * s2_hard / eps)
    rows_easy = _c6_learn_rows(2.0, nbar_easy)
    rows_hard = _c6_learn_rows(0.5, nbar_hard)
    covering_ok = all(
        r["covering_fraction"] >= 0.999 for r in rows_easy + rows_hard
    )
    med_easy = float(np.median([r["loss_avg"] for r in rows_easy]))
    med_hard = float(np.median([r["loss_avg"] for r in rows_hard]))
    elapsed = time.perf_counter() - t0
    ok = (
        covering_ok
        and med_easy <= 0.1
        and med_hard >= 3.0 * med_easy
        and elapsed < 600.0
    )
    report(
        6,
        ok,
        f"covering>=0.999: {covering_ok}, median loss beta=2: {med_easy:.4f} "
        f"(<=0.1), beta=0.5: {med_hard:.4f} (>=3x), {elapsed:.0f}s (<600s); "
        f"the accuracy clause falls short at this scale, see README",
    )


# ---------------------------------------------------------------------------
# criterion 7: decoder invariant suite


def test_criterion_07_decoder_invariants():
    t0 = time.perf_counter()
    d, k = 16, 64
    sigma2 = noise_for_beta(d, k, 2.0).sigma2
    cb = sample_codebook(d, k, rng_for(0, 7, 0))

    # 1. accept-uniqueness re-verified exhaustively on 10^4 decodes each:
    # decode_batch against the full-matrix references on the blocks the
    # estimator draws
    corr_spec = DecoderSpec(kind="corr", params={"eta1": 0.3, "eta2": 0.3})
    mmse_spec = DecoderSpec.mmse(sigma2, c=1.2)
    uniq_ok = all(
        np.array_equal(decode_batch(cb, ys, spec), oracles.decode_ref(cb, ys, spec))
        for spec, stream in ((corr_spec, (7, 1)), (mmse_spec, (7, 2)))
        for ys, _ in oracles.estimator_blocks(cb, sigma2, 10_000, 0, seed_path=stream)
    )

    # 2. zero-corruption reduction, bit-identical on 10^4 shared inputs
    rng = rng_for(0, 7, 3)
    labels = rng.integers(0, k, 10_000)
    ys = cb.centers[labels] + math.sqrt(sigma2) * rng.standard_normal((10_000, d))
    corr_match = decode_batch(cb, ys, corr_spec)
    corr_mis = decode_batch(
        cb, ys, DecoderSpec(kind="mismatched_corr", params=corr_spec.params)
    )
    mmse_match = decode_batch(cb, ys, mmse_spec)
    mmse_mis = decode_batch(
        cb, ys, DecoderSpec(kind="mismatched_mmse", params=mmse_spec.params)
    )
    reduction_ok = np.array_equal(corr_match, corr_mis) and np.array_equal(
        mmse_match, mmse_mis
    )

    # 3. tie-break and erasure examples (0-based indices)
    r2 = math.sqrt(2.0)
    tie_cb = Codebook(centers=np.array([[r2, 0.0], [0.0, r2]]), d=2, k=2)
    ortho = Codebook(centers=2.0 * np.eye(4), d=4, k=4)
    o, zero = ortho.centers, np.zeros((1, 4))
    cp = DecoderSpec.corr(0.1, 0.2)
    mp = DecoderSpec(kind="mmse", params={"alpha": 0.5, "tau": 0.5, "tau1": 0.6, "tau2": 1.5})
    examples_ok = (
        decode_batch(tie_cb, np.array([[1.0, 1.0]]), DecoderSpec.nn())[0] == 0
        and decode_batch(ortho, o[:1], cp)[0] == 0
        and decode_batch(ortho, zero, cp)[0] == ERASURE
        and decode_batch(ortho, o[:1] + o[1:2], DecoderSpec.corr(0.5))[0] == ERASURE
        and decode_batch(ortho, 2.0 * o[:1], mp)[0] == 0
        and decode_batch(ortho, zero, mp)[0] == ERASURE
    )

    elapsed = time.perf_counter() - t0
    ok = uniq_ok and reduction_ok and examples_ok and elapsed < 60.0
    report(
        7,
        ok,
        f"uniqueness scans clean, zero-corruption reduction bit-identical: "
        f"{reduction_ok}, op-table examples: {examples_ok}, {elapsed:.0f}s (<60s)",
    )


# ---------------------------------------------------------------------------
# criterion 8: loss identities


def test_criterion_08_loss_identities():
    t0 = time.perf_counter()
    cb = sample_codebook(12, 6, rng_for(0, 8, 0))
    ident_ok = loss_avg(cb, cb.centers) <= 1e-12
    zero_ok = abs(loss_avg(cb, np.zeros((6, 12))) - 1.0) <= 1e-12

    perm = rng_for(0, 8, 1).permutation(6)
    est = rng_for(0, 8, 2).standard_normal((6, 12))
    perm_ok = loss_avg(cb, est) == loss_avg(cb, est[perm])

    q, _ = np.linalg.qr(rng_for(0, 8, 3).standard_normal((12, 12)))
    rot_cb = Codebook(centers=cb.centers @ q.T, d=12, k=6)
    rot_ok = abs(loss_avg(rot_cb, est @ q.T) - loss_avg(cb, est)) <= 1e-8

    rng = rng_for(0, 8, 4)
    bound_ok = True
    for _ in range(1000):
        c = sample_codebook(8, 5, rng)
        raw = rng.standard_normal((5, 8))
        raw *= (math.sqrt(8) * rng.uniform(0, 1, (5, 1))) / np.linalg.norm(
            raw, axis=1, keepdims=True
        )
        la, lm = loss_avg(c, raw), loss_max(c, raw)
        if not (0.0 <= la <= lm <= 4.0):
            bound_ok = False
            break
    elapsed = time.perf_counter() - t0
    ok = ident_ok and zero_ok and perm_ok and rot_ok and bound_ok and elapsed < 30.0
    report(
        8,
        ok,
        f"identity={ident_ok}, all-zero={zero_ok}, permutation={perm_ok}, "
        f"rotation={rot_ok}, 0<=avg<=max<=4 on 10^3 instances={bound_ok}, "
        f"{elapsed:.0f}s (<30s)",
    )


# ---------------------------------------------------------------------------
# criterion 9: worker-count determinism (rerun of the criterion-2 sweep)


def test_criterion_09_worker_determinism():
    rows1 = _c2_rows(1)
    rows4 = _c2_rows(4)
    keep = [f for f in DECODE_FIELDS if f not in _TIMING_FIELDS]
    rows_ok = all(
        {f: a[f] for f in keep} == {f: b[f] for f in keep}
        for a, b in zip(rows1, rows4)
    )
    hash_ok = determinism_hash(list(rows1), DECODE_FIELDS) == determinism_hash(
        list(rows4), DECODE_FIELDS
    )
    ok = rows_ok and hash_ok and len(rows1) == len(rows4) == 25
    report(
        9,
        ok,
        f"25-row sweep identical across workers 1 vs 4: rows={rows_ok}, "
        f"determinism_hash={hash_ok}",
    )


# ---------------------------------------------------------------------------
# criterion 10: bound formulas against the independent oracle path


def test_criterion_10_bound_formulas():
    t0 = time.perf_counter()
    from spherecodes import (
        labeled_mi_upper,
        quantitative_lower_curve,
        rdf_lower_bound,
        sc_lower_trivial,
        single_sample_mi_upper,
    )

    def rel(a, b):
        return abs(a - b) / max(abs(b), 1e-300)

    k_e10 = round(math.exp(10.0))
    k_ee = round(math.exp(math.e))
    checks = [
        rel(rdf_lower_bound(100, 10, 0.01, 1.0), oracles.rdf_lower_bound_ref(100, 10, 0.01, 1.0)),
        rel(labeled_mi_upper(10, 4, 1.0, 4), oracles.labeled_mi_upper_ref(10, 4, 1.0, 4)),
        rel(sc_lower_trivial(0.01, 0.0), oracles.sc_lower_trivial_ref(0.01, 0.0)),
        rel(sc_lower_trivial(0.5, math.log(2)), oracles.sc_lower_trivial_ref(0.5, math.log(2))),
        rel(
            single_sample_mi_upper(0.1, 0.0, k_e10),
            oracles.single_sample_mi_upper_ref(0.1, 0.0, k_e10),
        ),
        rel(
            single_sample_mi_upper(0.2, 0.5, 16),
            oracles.single_sample_mi_upper_ref(0.2, 0.5, 16),
        ),
        rel(
            quantitative_lower_curve("positive", 10, k_ee),
            oracles.quantitative_positive_ref(k_ee, 1.0),
        ),
        rel(
            quantitative_lower_curve("zero", 10**9, 100),
            oracles.quantitative_zero_ref(10**9, 100, 1.0),
        ),
        rel(
            quantitative_lower_curve("zero", 3, round(math.exp(3.0))),
            oracles.quantitative_zero_ref(3, round(math.exp(3.0)), 1.0),
        ),
        rel(capacity_inv(2.0), oracles.capacity_inv_ref(2.0)),
        abs(sc_lower_trivial(0.01, 0.0) - 99.0),
    ]
    worst = max(checks)
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-9 and elapsed < 1.0
    report(
        10,
        ok,
        f"worst relative error {worst:.2e} (<=1e-9) across {len(checks)} "
        f"pinned evaluations, {elapsed:.2f}s (<1s)",
    )
