import math
import threading
import time
from dataclasses import asdict

import numpy as np
import pytest

from spherecodes import (
    ERASURE,
    Codebook,
    DecoderSpec,
    GmmBatch,
    LearnerConfig,
    LearnerResult,
    MmseParams,
    Net,
    build_net,
    decode_batch,
    genie_estimator,
    loss_avg,
    loss_max,
    match_centers,
    noise_for_beta,
    rng_for,
    run_learner,
    sample_codebook,
    sample_gmm,
    sample_uniform_sphere_batch,
    select_candidates,
    step1_screen,
    step2_cluster_average,
    verify_covering,
)
from spherecodes.learner import (
    _ITEM_BLOCKS,
    _SCREEN_BUF_BYTES,
    ScreeningStats,
    _greedy_spaced,
    _least_passing,
    _pass_counts,
    _ranked_blocks,
    build_step2_decoder,
)
from spherecodes import learner, sphere
from spherecodes.sphere import sq_dists

from .oracles import cluster_means_ref, max_matching_ref, pass_counts_ref, separated_subset_ref


def nearby_on_sphere(x: np.ndarray, frac_sq: float) -> np.ndarray:
    """Rotate x toward an orthogonal direction so that
    d^-1 ||x - out||^2 == frac_sq exactly (up to float)."""
    d = x.shape[0]
    # 2(1 - cos t) = frac_sq
    t = math.acos(1.0 - frac_sq / 2.0)
    u = np.zeros(d)
    u[np.argmin(np.abs(x))] = 1.0
    u = u - (np.dot(u, x) / np.dot(x, x)) * x
    u = u / np.linalg.norm(u)
    return math.cos(t) * x + math.sin(t) * math.sqrt(d) * u


def local_passes(x_hat, ys, test_kind, eps_I, sigma2):
    """Local-test passes of the one-point net {x_hat} over the rows of ys."""
    return int(_pass_counts(x_hat[None], np.atleast_2d(ys), test_kind, eps_I, sigma2)[0])


# ---------------------------------------------------------------------------
# config


def test_config_validation():
    LearnerConfig()
    with pytest.raises(ValueError):
        LearnerConfig(eps_I=0.5)
    with pytest.raises(ValueError, match=r"eps_I must be in \(0, 1/2\), got '0.3'"):
        LearnerConfig(eps_I="0.3")
    with pytest.raises(ValueError):
        LearnerConfig(N=0)
    with pytest.raises(ValueError, match="N must be an integer"):
        LearnerConfig(N=60.5)
    with pytest.raises(ValueError, match="Nbar must be an integer"):
        LearnerConfig(Nbar=True)
    with pytest.raises(ValueError):
        LearnerConfig(test_kind="fancy")
    with pytest.raises(ValueError):
        LearnerConfig(decoder_kind="fancy")
    with pytest.raises(ValueError):
        LearnerConfig(threshold_const=0.0)
    with pytest.raises(ValueError, match="C_net must be > 0"):
        LearnerConfig(C_net=0.0)


def test_config_auto_resolution_switches_on_rate():
    cfg = LearnerConfig()
    # ln(4)/64 = 0.022 < 0.2 < ln(4)/6 = 0.231
    assert cfg.resolve_test_kind(64, 4) == "zero_rate"
    assert cfg.resolve_test_kind(6, 4) == "positive_rate"
    assert cfg.resolve_decoder_kind(64, 4) == "mismatched_corr"
    assert cfg.resolve_decoder_kind(6, 4) == "mismatched_mmse"
    pinned = LearnerConfig(test_kind="zero_rate", decoder_kind="mismatched_mmse")
    assert pinned.resolve_test_kind(6, 4) == "zero_rate"
    assert pinned.resolve_decoder_kind(64, 4) == "mismatched_mmse"


# ---------------------------------------------------------------------------
# local tests


def test_zero_rate_test_examples():
    x = sample_codebook(16, 2, rng_for(100)).centers[0]
    assert local_passes(x, x, "zero_rate", 0.25, 1.0) == 1
    assert local_passes(x, -x, "zero_rate", 0.25, 1.0) == 0


def test_zero_rate_test_pass_rate_near_center():
    # candidate strictly inside the eps_I d / 2 shell of the emitter:
    # the pass probability must clear 1/2
    d, k, beta, eps_I = 64, 4, 2.0, 0.25
    sigma2 = noise_for_beta(d, k, beta).sigma2
    rng = rng_for(101)
    cb = sample_codebook(d, k, rng)
    center = cb.centers[0]
    x_hat = nearby_on_sphere(center, eps_I / 4.0)
    ys = center + math.sqrt(sigma2) * rng.standard_normal((10_000, d))
    assert local_passes(x_hat, ys, "zero_rate", eps_I, sigma2) / len(ys) >= 0.5


def test_positive_rate_test_examples():
    x = sample_codebook(16, 2, rng_for(102)).centers[0]
    sigma2 = 0.5
    alpha = 1.0 / (1.0 + sigma2)
    assert local_passes(x, x / alpha, "positive_rate", 0.25, sigma2) == 1
    assert local_passes(x, -10.0 * x / alpha, "positive_rate", 0.25, sigma2) == 0


def test_positive_rate_test_pass_rate_near_center():
    d, k, beta, eps_I = 16, 2981, 2.0, 0.25
    sigma2 = noise_for_beta(d, k, beta).sigma2
    rng = rng_for(103)
    center = math.sqrt(d) * np.eye(d)[0]
    x_hat = nearby_on_sphere(center, eps_I / 4.0)
    ys = center + math.sqrt(sigma2) * rng.standard_normal((10_000, d))
    assert local_passes(x_hat, ys, "positive_rate", eps_I, sigma2) / len(ys) >= 0.5


# ---------------------------------------------------------------------------
# Step I


def test_step1_noiseless_self_test_keeps_centers():
    d, k = 8, 4
    cb = sample_codebook(d, k, rng_for(104))
    cfg = LearnerConfig(N=400, test_kind="zero_rate")
    batch = sample_gmm(cb, 1e-12, 400, rng_for(105))
    net = Net(points=cb.centers, eps_I=cfg.eps_I)
    points, counts = step1_screen(net, batch, cfg, k)
    assert points.shape == (k, d)
    # each center's count is its label frequency, about N/k >> N/(4k)
    assert np.all(counts >= cfg.threshold_const * cfg.N / k)


def test_step1_rejects_far_point():
    d, k = 8, 2
    cb = sample_codebook(d, k, rng_for(106))
    anti = -np.sum(cb.centers, axis=0)
    anti = anti / np.linalg.norm(anti) * math.sqrt(d)
    net = Net(points=np.vstack([cb.centers, anti]), eps_I=0.25)
    cfg = LearnerConfig(N=400, test_kind="zero_rate")
    batch = sample_gmm(cb, 1e-12, 400, rng_for(107))
    points, _ = step1_screen(net, batch, cfg, k)
    assert not any(np.allclose(p, anti) for p in points)


def test_step1_requires_matching_budget():
    d, k = 8, 2
    cb = sample_codebook(d, k, rng_for(108))
    cfg = LearnerConfig(N=100)
    batch = sample_gmm(cb, 1.0, 99, rng_for(109))
    net = Net(points=cb.centers, eps_I=0.25)
    with pytest.raises(ValueError, match="config N"):
        step1_screen(net, batch, cfg, k)


@pytest.mark.parametrize("test_kind", ["zero_rate", "positive_rate"])
@pytest.mark.parametrize("d, eps_I", [(6, 0.25), (16, 0.25), (8, 0.4)])
def test_step1_counts_the_public_local_test(test_kind, d, eps_I):
    # the net point is one of the emitting centers, so it passes on some
    # observations and fails on others, and the screen's count of a
    # one-point net equals the reference's
    sigma2 = 1.0
    cb = sample_codebook(d, 4, rng_for(110, d))
    p = cb.centers[0]
    obs = sample_gmm(cb, sigma2, 2000, rng_for(111, d)).observations()
    passes = _pass_counts(p[None], obs, test_kind, eps_I, sigma2)[0]
    assert 0 < passes < 2000
    assert passes == pass_counts_ref(p[None], obs, test_kind, eps_I, sigma2)[0]


def test_pass_counts_lone_last_row_equals_dense_product():
    # M = rows + 1 puts the last net point alone in a block of the screen,
    # and the threshold sits exactly on one of its GEMM statistics
    d, n = 8, 2000
    rows = _SCREEN_BUF_BYTES // (8 * n)
    rng = rng_for(150)
    pts = sample_uniform_sphere_batch(d, rows + 1, rng)
    obs = pts[-1] + 0.3 * rng.standard_normal((n, d))
    dense = (pts @ obs.T) / d
    lone = (pts[-1:] @ obs.T)[0] / d
    inside = (dense[-1] > 0.875) & (dense[-1] < 1.0)
    # prefer a statistic a one-row product rounds below the GEMM value
    below = np.flatnonzero(inside & (lone < dense[-1]))
    s = dense[-1, below[0] if below.size else np.flatnonzero(inside)[0]]
    eps_I = 4.0 * (1.0 - s)
    assert 1.0 - 0.25 * eps_I == s
    counts = _pass_counts(pts, obs, "zero_rate", eps_I, 1.0)
    assert np.array_equal(counts, np.count_nonzero(dense >= s, axis=1))


def screen_inputs(d, m, n, seed):
    # net points on the sphere and observations near some of them
    rng = rng_for(seed)
    pts = sample_uniform_sphere_batch(d, m, rng)
    obs = pts[rng.integers(0, m, n)] + 0.7 * rng.standard_normal((n, d))
    return pts, obs


@pytest.mark.parametrize("test_kind", ["zero_rate", "positive_rate"])
@pytest.mark.parametrize("n", [1, 7, 8, 2000, 2041, 4100])
def test_pass_counts_equal_reference(test_kind, n):
    # net sizes M: one block, for which no helper thread starts; an even
    # and an odd block count; and each of those with a lone last row,
    # which joins the block before it. eps_I = 6 passes most entries, so at
    # N = 4100 (513 words a row) the byte lanes would wrap without the
    # 255-word groups.
    rows = _SCREEN_BUF_BYTES // (8 * n)
    for m in (rows - 1, 2 * rows, 3 * rows + 1, 4 * rows + 1):
        pts, obs = screen_inputs(6, m, n, 160 + n)
        for eps_I in (0.25, 6.0):
            counts = _pass_counts(pts, obs, test_kind, eps_I, 0.8)
            assert np.array_equal(counts, pass_counts_ref(pts, obs, test_kind, eps_I, 0.8))
    if n == 4100:
        assert counts.max() > 8 * 255


@pytest.mark.parametrize("thread", ["caller", "helper"])
def test_pass_counts_error_reaches_the_caller_and_leaves_no_thread(monkeypatch, thread):
    # three queue items of _ITEM_BLOCKS blocks; each thread's first compare
    # waits, up to 30 s, until the other has taken an item too, then the
    # compare fails on the chosen thread. The error reaches the caller, the
    # other thread finishes its item and takes no further one, and no
    # thread outlives the call
    n = 2000
    pts, obs = screen_inputs(6, 3 * _ITEM_BLOCKS * (_SCREEN_BUF_BYTES // (8 * n)), n, 170)
    caller, compare = threading.get_ident(), np.greater_equal
    barrier, raised, calls = threading.Barrier(2, timeout=30), threading.Event(), []

    def failing(*args, **kwargs):
        me = threading.get_ident()
        first = me not in calls
        if first:
            barrier.wait()
        calls.append(me)
        if (me == caller) == (thread == "caller"):
            raised.set()
            raise FloatingPointError(f"compare failed on the {thread} thread")
        assert raised.wait(30)
        if first:
            # the failing thread stops the queue as its error leaves the
            # item, a few frames after raised is set
            time.sleep(0.2)
        return compare(*args, **kwargs)

    before = threading.active_count()
    monkeypatch.setattr(np, "greater_equal", failing)
    with pytest.raises(FloatingPointError, match=thread):
        _pass_counts(pts, obs, "zero_rate", 0.25, 0.8)
    monkeypatch.undo()
    assert sorted(calls.count(t) for t in set(calls)) == [1, _ITEM_BLOCKS]
    assert threading.active_count() == before
    assert np.array_equal(_pass_counts(pts, obs, "zero_rate", 0.25, 0.8), pass_counts_ref(pts, obs, "zero_rate", 0.25, 0.8))


def test_pass_counts_without_the_blas_thread_setter(monkeypatch):
    # where numpy's BLAS exports no setter, one_blas_thread does nothing
    monkeypatch.setattr(sphere, "_blas_thread_setter", lambda: None)
    n = 2041
    pts, obs = screen_inputs(6, 3 * (_SCREEN_BUF_BYTES // (8 * n)) + 1, n, 175)
    for test_kind in ("zero_rate", "positive_rate"):
        counts = _pass_counts(pts, obs, test_kind, 0.25, 0.8)
        assert np.array_equal(counts, pass_counts_ref(pts, obs, test_kind, 0.25, 0.8))


def least_passing_walk(passes, x):
    """The least double passing a monotone test, by single steps from x."""
    while passes(x):
        x = math.nextafter(x, -math.inf)
    while not passes(x):
        x = math.nextafter(x, math.inf)
    return x


@pytest.mark.parametrize("d, eps_I", [(6, 0.25), (6, 0.002), (7, 0.3), (16, 0.1)])
def test_pass_counts_statistic_on_the_cutoff(d, eps_I):
    # one GEMM statistic lands exactly on the least passing value x* and one
    # on x* - 1 ulp: the first passes, the second fails, as in the reference
    rng = rng_for(180)
    e1 = np.eye(d)[0]
    # zero-rate: <e1, y> = y[0] exactly
    thr = 1.0 - 0.25 * eps_I
    x_star = least_passing_walk(lambda x: x / d >= thr, thr * d)
    obs = rng.standard_normal((2, d))
    obs[:, 0] = [x_star, math.nextafter(x_star, -math.inf)]
    pts = np.vstack([e1, e1])
    counts = _pass_counts(pts, obs, "zero_rate", eps_I, 1.0)
    assert counts.tolist() == [1, 1]
    assert np.array_equal(counts, pass_counts_ref(pts, obs, "zero_rate", eps_I, 1.0))
    for row, passes in enumerate([1, 0]):
        one = obs[row : row + 1]
        assert _pass_counts(pts, one, "zero_rate", eps_I, 1.0).tolist() == [passes] * 2
        assert pass_counts_ref(pts, one, "zero_rate", eps_I, 1.0).tolist() == [passes] * 2
    # positive-rate at sigma2 = 1: alpha = 1/2 and v[0] = y[0] / 2 = 1, so
    # <2 a e1, v> = 2 a exactly
    y = rng.standard_normal((1, d))
    y[0, 0] = 2.0
    v = 0.5 * y
    v_sq = float(np.sum(v * v, axis=1)[0])
    alpha, tau = 0.5, 0.5
    slack = math.sqrt(2.0 * alpha * alpha * math.log(2.0) / d)
    thr_sq = (math.sqrt(tau + 0.5 * alpha * eps_I) + slack) ** 2 * d
    x_star = least_passing_walk(lambda x: v_sq - x + d <= thr_sq, v_sq + d - thr_sq)
    pts = np.outer([x_star / 2, math.nextafter(x_star, -math.inf) / 2, 2 * x_star], e1)
    counts = _pass_counts(pts, y, "positive_rate", eps_I, 1.0)
    assert counts.tolist() == [1, 0, 1]
    assert np.array_equal(counts, pass_counts_ref(pts, y, "positive_rate", eps_I, 1.0))


def test_least_passing_is_the_exact_threshold():
    rng = rng_for(190)
    t = rng.standard_normal(500) * np.exp2(rng.integers(-1074, 1000, 500))
    t[:3] = [np.inf, -np.inf, 5e-324]
    assert np.array_equal(_least_passing(lambda x: x >= t, t.size), t)
    # -0.0 == 0.0, so -0.0 is the least double at or above 0.0
    zero = _least_passing(lambda x: x >= 0.0, 1)
    assert zero[0] == 0.0 and math.copysign(1.0, zero[0]) < 0
    assert _least_passing(lambda x: x >= -np.inf, 1)[0] == -np.inf
    assert np.isnan(_least_passing(lambda x: x > np.inf, 1)[0])


@pytest.mark.parametrize("seed", range(20))
def test_least_passing_from_a_guess_equals_the_unseeded_search(seed):
    # random monotone tests x >= t, x > t and fl(x / c) >= thr, with
    # cutoffs of every size and ones that pass everywhere or nowhere; the
    # guesses are right, a few doubles off, far off, infinite or nan
    rng = rng_for(191, seed)
    n = 64
    t = rng.standard_normal(n) * np.exp2(rng.integers(-1074, 1020, n))
    t[rng.integers(0, n, 6)] = rng.choice([np.inf, -np.inf, np.nan, 0.0, -0.0, 5e-324], 6)
    c = np.exp2(rng.integers(0, 4, n)) * rng.uniform(1.0, 2.0, n)
    thr = rng.standard_normal(n)
    tests = [
        lambda x: x >= t,
        lambda x: x > t,
        lambda x: x / c >= thr,
        lambda x: np.ones(x.shape, bool),
        lambda x: np.zeros(x.shape, bool),
    ]
    near = np.nextafter(np.nextafter(t, np.inf), np.inf)
    guesses = [t, near, thr * c, -t, t / 1e3, np.full(n, np.nan), np.full(n, np.inf), -np.inf, 0.0]
    for passes in tests:
        cut = _least_passing(passes, n)
        for guess in guesses:
            assert np.array_equal(_least_passing(passes, n, guess), cut, equal_nan=True)
    # a right guess brackets every finite cutoff: the search asks the test
    # 25 times (the bracket, 21 halvings of its 2^21 doubles, the two ends
    # of the range), not 66
    finite, calls = t[np.isfinite(t)], []

    def counted(x):
        calls.append(x)
        return x >= finite

    assert np.array_equal(_least_passing(counted, finite.size, finite), finite)
    assert len(calls) == 25


def test_step1_ignores_labels():
    # shuffling hidden labels after sampling cannot change the screen
    d, k = 8, 4
    cb = sample_codebook(d, k, rng_for(110))
    cfg = LearnerConfig(N=300, test_kind="zero_rate")
    batch = sample_gmm(cb, 2.0, 300, rng_for(111))
    shuffled = GmmBatch(
        batch.observations().copy(),
        rng_for(112).permutation(batch.privileged_labels()),
        batch.sigma2,
    )
    net = Net(points=cb.centers, eps_I=0.25)
    p1, c1 = step1_screen(net, batch, cfg, k)
    p2, c2 = step1_screen(net, shuffled, cfg, k)
    assert np.array_equal(p1, p2) and np.array_equal(c1, c2)


# ---------------------------------------------------------------------------
# separated subset and candidate selection


def test_separated_subset_identical_points():
    pts = np.tile(np.array([1.0, 2.0]), (5, 1))
    kept = _greedy_spaced(pts, 0.5, len(pts))
    assert kept.tolist() == [0]


def test_separated_subset_boundary_is_kept():
    pts = np.array([[0.0, 0.0], [1.0, 0.0]])
    kept = _greedy_spaced(pts, 1.0, len(pts))
    assert kept.tolist() == [0, 1]


def test_separated_subset_orthogonal_points():
    d = 4
    pts = math.sqrt(d) * np.eye(d)  # pairwise distance sqrt(2d) > sqrt(d)
    kept = _greedy_spaced(pts, math.sqrt(d), len(pts))
    assert kept.tolist() == [0, 1, 2, 3]


def test_separated_subset_maximality():
    rng = rng_for(113)
    pts = rng.standard_normal((40, 3))
    min_dist = 1.2
    kept = _greedy_spaced(pts, min_dist, len(pts))
    kept_pts = pts[kept]
    # pairwise separation
    for a in range(len(kept)):
        for b in range(a + 1, len(kept)):
            assert np.linalg.norm(kept_pts[a] - kept_pts[b]) >= min_dist
    # maximality: every rejected point is close to some kept point
    rejected = [i for i in range(len(pts)) if i not in set(kept.tolist())]
    for i in rejected:
        dists = np.linalg.norm(kept_pts - pts[i], axis=1)
        assert dists.min() < min_dist


def test_separated_subset_min_dist_domain():
    with pytest.raises(ValueError):
        _greedy_spaced(np.zeros((3, 2)), 0.0, 3)


def test_select_candidates_prefers_high_counts_and_caps_at_k():
    d, eps_I = 4, 0.25
    spacing = 2.0 * math.sqrt(eps_I * d)  # = 2
    base = np.zeros((6, d))
    base[:, 0] = np.arange(6) * (spacing + 0.1)  # all mutually spaced
    counts = np.array([5, 9, 7, 8, 6, 10])
    out = select_candidates(base, counts, eps_I, k=3)
    # descending counts: rows 5 (10), 1 (9), 3 (8)
    assert out.shape == (3, d)
    assert np.array_equal(out[0], base[5])
    assert np.array_equal(out[1], base[1])
    assert np.array_equal(out[2], base[3])


def test_select_candidates_suppresses_close_losers():
    d, eps_I = 4, 0.25
    winner = np.zeros(d)
    loser = np.zeros(d)
    loser[0] = 1.0  # distance 1 < spacing 2
    out = select_candidates(np.vstack([loser, winner]), np.array([3, 9]), eps_I, k=4)
    assert out.shape == (1, d)
    assert np.array_equal(out[0], winner)


@pytest.mark.parametrize("seed", range(6))
def test_select_candidates_equals_first_k_of_separated_subset(seed):
    rng = rng_for(114, seed)
    d, eps_I = 4, 0.25
    md = 2.0 * math.sqrt(eps_I * d)  # = 2, so lattice neighbours sit exactly md apart
    lattice = 2.0 * rng.integers(-2, 3, size=(60, d)).astype(np.float64)
    noisy = 1.5 * rng.standard_normal((200, d))
    points = np.vstack([lattice, noisy])[rng.permutation(260)]
    counts = rng.integers(0, 4, size=260)  # heavy ties
    order = np.lexsort((np.arange(len(counts)), -counts))
    ordered = points[order]
    assert np.array_equal(_greedy_spaced(ordered, md, len(ordered)), separated_subset_ref(ordered, md))
    for k in (1, 3, 8, 1000):
        expected = ordered[_greedy_spaced(ordered, md, len(ordered))[:k]]
        assert np.array_equal(select_candidates(points, counts, eps_I, k), expected)


def test_separated_subset_equals_scan_reference_on_sphere_points():
    rng = rng_for(115)
    pts = 2.0 * rng.standard_normal((500, 6))
    for md in (0.5, 2.0, 4.0):
        assert np.array_equal(_greedy_spaced(pts, md, len(pts)), separated_subset_ref(pts, md))


def _boundary_candidates(n: int, near_tie: bool) -> tuple[np.ndarray, list[int]]:
    """n integer points in d=3 for min_dist 2 (so md_sq is exactly 4), and
    the indices of a pair kept either side of each of the scan's first
    three block boundaries (255/256, 767/768, 1791/1792). The second of a
    pair sits exactly min_dist from the first, a tie, which is kept. Every
    other point lies within distance sqrt(3) of the origin, the first
    point kept; with near_tie, the point after each pair sits 2^-40 inside
    min_dist of the pair's second (exactly representable, and within the
    einsum's slack band), so only the scalar recheck rejects it."""
    rng = rng_for(116)
    pts = rng.integers(-1, 2, size=(n, 3)).astype(np.float64)
    pts[0] = 0.0
    pairs = []
    for axis, lo in enumerate((255, 767, 1791)):
        first = np.zeros(3)
        first[axis] = 10.0
        pts[lo] = first
        pts[lo + 1] = first + 2.0 * np.eye(3)[(axis + 1) % 3]
        if near_tie:
            pts[lo + 2] = pts[lo + 1] + (2.0 - 2.0**-40) * np.eye(3)[axis]
        pairs += [lo, lo + 1]
    return pts, pairs


@pytest.mark.parametrize("near_tie", [False, True])
def test_separated_subset_keeps_ties_across_scan_blocks(near_tie):
    pts, pairs = _boundary_candidates(2000, near_tie)
    ref = separated_subset_ref(pts, 2.0)
    assert set(pairs) <= set(ref.tolist())
    assert not near_tie or not {lo + 2 for lo in pairs[::2]} & set(ref.tolist())
    for limit in (1, 2, 3, 4, 5, 6, 7, len(ref), len(pts), len(pts) + 5):
        assert np.array_equal(_greedy_spaced(pts, 2.0, limit), ref[:limit])


def test_separated_subset_equals_scan_reference_across_many_blocks():
    # 3,000 points in d=4 at spacing 2 keep a few hundred, spread over
    # every block of the scan
    rng = rng_for(117)
    pts = 1.5 * rng.standard_normal((3000, 4))
    ref = separated_subset_ref(pts, 2.0)
    assert ref[-1] > 1792
    for limit in (1, 4, 100, len(ref) - 1, len(ref), len(pts)):
        assert np.array_equal(_greedy_spaced(pts, 2.0, limit), ref[:limit])


def test_select_candidates_orders_tied_counts_by_input_order():
    # the stable descending sort gives the order of a lexsort on
    # (-count, input index); with three count values nearly every count ties
    rng = rng_for(118)
    d, eps_I = 4, 0.25
    points = 1.5 * rng.standard_normal((2500, d))
    counts = rng.integers(0, 3, size=2500)
    order = np.lexsort((np.arange(len(counts)), -counts))
    ordered = points[order]
    ref = separated_subset_ref(ordered, 2.0 * math.sqrt(eps_I * d))
    for k in (1, 4, 50, len(points)):
        assert np.array_equal(select_candidates(points, counts, eps_I, k), ordered[ref[:k]])


def test_ranked_blocks_split_tied_counts_at_the_block_edges():
    # 200 points at each of three counts: the first block edge (256) and the
    # second (768) fall inside runs of tied counts. The blocks are exactly
    # 256, 512, ... long, and together they are the stable descending order
    rng = rng_for(119)
    counts = rng.permutation(np.repeat([5, 4, 3], 200))
    blocks = list(_ranked_blocks(counts))
    assert [b.size for b in blocks] == [256, 344]
    order = np.lexsort((np.arange(len(counts)), -counts))
    assert np.array_equal(np.concatenate(blocks), order)
    assert counts[blocks[0][-1]] == counts[blocks[1][0]] == 4


def test_select_candidates_with_tied_counts_across_a_block_edge():
    # ties at the first block edge among points closer than the spacing:
    # which of them is kept depends on the tie order across the edge
    rng = rng_for(120)
    d, eps_I = 4, 0.25
    points = 1.5 * rng.standard_normal((600, d))
    counts = rng.permutation(np.repeat([5, 4, 3], 200))
    order = np.lexsort((np.arange(len(counts)), -counts))
    ordered = points[order]
    ref = separated_subset_ref(ordered, 2.0 * math.sqrt(eps_I * d))
    assert np.any(ref >= 256)
    for k in (1, 4, len(ref) - 1, len(ref), 600):
        assert np.array_equal(select_candidates(points, counts, eps_I, k), ordered[ref[:k]])


def test_select_candidates_reads_past_a_first_block_of_fewer_than_k_spaced_points():
    # the 300 highest counts sit in one ball narrower than the spacing, so
    # the first block keeps one point and the other k - 1 come from later
    rng = rng_for(121)
    d, eps_I, k = 4, 0.25, 4
    points = 3.0 * rng.standard_normal((2000, d))
    counts = rng.integers(0, 50, size=2000)
    top = np.argsort(-counts, kind="stable")[:300]
    points[top] = 0.2 * rng.standard_normal((300, d))
    counts[top] += 100
    order = np.lexsort((np.arange(len(counts)), -counts))
    ordered = points[order]
    ref = separated_subset_ref(ordered, 2.0 * math.sqrt(eps_I * d), limit=k)
    assert ref[0] < 256 <= ref[1]
    assert np.array_equal(select_candidates(points, counts, eps_I, k), ordered[ref])


@pytest.mark.parametrize("beta", [2.0, 0.5])
@pytest.mark.parametrize("seed", range(3))
def test_select_candidates_equals_the_full_sort_on_screened_nets(beta, seed):
    # a screened d=6, k=4 net, below and above capacity: the blocks the
    # scan reads give the first k of the greedy subset of the whole order
    d, k = 6, 4
    cfg = LearnerConfig(N=1000, C_net=4.0)
    cb = sample_codebook(d, k, rng_for(122, seed))
    sigma2 = noise_for_beta(d, k, beta).sigma2
    net = Net(points=sample_uniform_sphere_batch(d, 16_384, rng_for(123, seed)), eps_I=cfg.eps_I)
    points, counts = step1_screen(net, sample_gmm(cb, sigma2, cfg.N, rng_for(124, seed)), cfg, k)
    ordered = points[np.argsort(-counts, kind="stable")]
    ref = separated_subset_ref(ordered, 2.0 * math.sqrt(cfg.eps_I * d), limit=k)
    assert np.array_equal(select_candidates(points, counts, cfg.eps_I, k), ordered[ref])


def test_select_candidates_empty_input():
    out = select_candidates(np.zeros((0, 4)), np.zeros(0), 0.25, k=4)
    assert out.shape[0] == 0


# ---------------------------------------------------------------------------
# Step II


def test_step2_noiseless_recovers_centers():
    d, k = 8, 4
    cb = sample_codebook(d, k, rng_for(114))
    batch2 = sample_gmm(cb, 1e-12, 200, rng_for(115))
    spec = DecoderSpec(kind="mismatched_corr", params={"eta1": 0.3, "eta2": 0.3})
    est, erasure = step2_cluster_average(cb.centers, batch2, spec, k)
    present = np.unique(batch2.privileged_labels())
    assert erasure == 0.0
    for i in present:
        assert np.allclose(est[i], cb.centers[i], atol=1e-5)


def test_step2_all_erasures_gives_unit_loss():
    d, k = 8, 4
    cb = sample_codebook(d, k, rng_for(116))
    batch2 = sample_gmm(cb, 1e-12, 100, rng_for(117))
    # single candidate orthogonal to every center: correlation ~ 0 < 1 - eta1
    q, _ = np.linalg.qr(np.vstack([cb.centers, np.eye(d)]).T)
    stranger = q[:, k] * math.sqrt(d)
    spec = DecoderSpec(kind="mismatched_corr", params={"eta1": 0.3, "eta2": 0.3})
    est, erasure = step2_cluster_average(stranger[None, :], batch2, spec, k)
    assert erasure == 1.0
    assert np.all(est == 0.0)
    assert loss_avg(cb, est) == pytest.approx(1.0, abs=1e-12)


def test_step2_empty_candidates():
    d, k = 8, 3
    cb = sample_codebook(d, k, rng_for(118))
    batch2 = sample_gmm(cb, 1.0, 50, rng_for(119))
    mismatched_corr = DecoderSpec(kind="mismatched_corr", params={"eta1": 0.3, "eta2": 0.3})
    mismatched_mmse = DecoderSpec(kind="mismatched_mmse", params=DecoderSpec.mmse(1.0, c=1.4).params)
    for spec in (mismatched_corr, mismatched_mmse):
        est, erasure = step2_cluster_average(np.empty((0, d)), batch2, spec, k)
        assert erasure == 1.0
        assert est.shape == (k, d) and np.all(est == 0.0)


def test_step2_ignores_labels():
    d, k = 8, 4
    cb = sample_codebook(d, k, rng_for(120))
    batch2 = sample_gmm(cb, 1.0, 300, rng_for(121))
    shuffled = GmmBatch(
        batch2.observations().copy(),
        rng_for(122).permutation(batch2.privileged_labels()),
        batch2.sigma2,
    )
    spec = DecoderSpec(kind="mismatched_mmse", params=DecoderSpec.mmse(1.0, c=1.4).params)
    a, ea = step2_cluster_average(cb.centers, batch2, spec, k)
    b, eb = step2_cluster_average(cb.centers, shuffled, spec, k)
    assert np.array_equal(a, b) and ea == eb


def test_step2_genie_rate_with_true_codebook():
    # true centers as candidates and a roomy decoder: loss ~ sigma2 k / Nbar
    d, k, sigma2, nbar = 32, 8, 1.0, 8000
    cb = sample_codebook(d, k, rng_for(123))
    batch2 = sample_gmm(cb, sigma2, nbar, rng_for(124))
    spec = DecoderSpec.nn()
    est, erasure = step2_cluster_average(cb.centers, batch2, spec, k)
    assert erasure == 0.0
    assert loss_avg(cb, est) == pytest.approx(sigma2 * k / nbar, rel=0.3)


def test_step2_monotone_in_budget():
    # fixed Step-I output (the true centers); more refinement samples
    # cannot hurt on average
    d, k = 16, 4
    sigma2 = 1.0
    cb = sample_codebook(d, k, rng_for(125))
    spec = DecoderSpec(kind="mismatched_mmse", params=DecoderSpec.mmse(sigma2, c=1.4, c2=1.4).params)
    lo, hi = [], []
    for s in range(30):
        small = sample_gmm(cb, sigma2, 500, rng_for(126, s, 0))
        large = sample_gmm(cb, sigma2, 2000, rng_for(126, s, 1))
        e1, _ = step2_cluster_average(cb.centers, small, spec, k)
        e2, _ = step2_cluster_average(cb.centers, large, spec, k)
        lo.append(loss_avg(cb, e1))
        hi.append(loss_avg(cb, e2))
    assert np.mean(hi) <= np.mean(lo)


def test_build_step2_decoder_shapes():
    cfg = LearnerConfig(decoder_kind="mismatched_corr", corr_eta1=0.2, corr_eta2=0.4)
    spec = build_step2_decoder(cfg, 8, 4, 1.0)
    assert spec.kind == "mismatched_corr"
    assert spec.params == {"eta1": 0.2, "eta2": 0.4}
    cfg2 = LearnerConfig(decoder_kind="mismatched_mmse", mmse_c=1.4)
    spec2 = build_step2_decoder(cfg2, 8, 4, 1.0)
    p = spec2.record
    # c2 defaults to c: accept and reject bars coincide
    assert p.tau1 == pytest.approx(1.4 * p.tau, rel=1e-12)
    assert p.tau2 == pytest.approx(1.4 * p.tau, rel=1e-12)
    cfg3 = LearnerConfig(decoder_kind="mismatched_mmse", mmse_c=1.2, mmse_c2=2.2)
    p3 = build_step2_decoder(cfg3, 8, 4, 1.0).record
    assert p3.tau2 == pytest.approx(2.2 * p3.tau, rel=1e-12)


@pytest.mark.parametrize("mmse_c2", [None, 2.0])
def test_build_step2_decoder_is_the_config_entry_at_noise(mmse_c2):
    # auto picks the correlation regime below rate R_SWITCH_DEFAULT and the
    # residual one above; the residual c2 defaults to c, not to c^2
    cfg = LearnerConfig(mmse_c2=mmse_c2)
    sigma2 = 0.8
    corr = DecoderSpec(kind="mismatched_corr", params={"eta1": cfg.corr_eta1, "eta2": cfg.corr_eta2})
    assert build_step2_decoder(cfg, 16, 4, sigma2) == corr  # rate ln(4)/16
    c2 = cfg.mmse_c if mmse_c2 is None else mmse_c2
    mmse = DecoderSpec(kind="mismatched_mmse", params=asdict(MmseParams.for_noise(sigma2, c=cfg.mmse_c, c2=c2)))
    assert build_step2_decoder(cfg, 4, 64, sigma2) == mmse  # rate ln(64)/4
    assert DecoderSpec.at_noise({"kind": "mismatched_mmse", "c": cfg.mmse_c, "c2": c2}, sigma2) == mmse


# ---------------------------------------------------------------------------
# losses


def test_loss_identities():
    cb = sample_codebook(12, 6, rng_for(127))
    assert loss_avg(cb, cb.centers) == 0.0
    assert loss_max(cb, cb.centers) == 0.0
    zeros = np.zeros((6, 12))
    assert loss_avg(cb, zeros) == pytest.approx(1.0, abs=1e-12)
    assert loss_max(cb, zeros) == pytest.approx(1.0, abs=1e-12)


def test_loss_permutation_invariance_exact():
    cb = sample_codebook(10, 5, rng_for(128))
    perm = rng_for(129).permutation(5)
    # relabeling the estimates is absorbed by the min over j
    assert loss_avg(cb, cb.centers[perm]) == pytest.approx(0.0, abs=1e-12)
    est = rng_for(130).standard_normal((5, 10)) * 0.5
    assert loss_avg(cb, est) == loss_avg(cb, est[perm])
    assert loss_max(cb, est) == loss_max(cb, est[perm])


def test_loss_rotation_invariance():
    cb = sample_codebook(10, 5, rng_for(131))
    est = rng_for(132).standard_normal((5, 10))
    q, _ = np.linalg.qr(rng_for(133).standard_normal((10, 10)))
    cb_rot = Codebook(centers=cb.centers @ q.T, d=10, k=5)
    assert loss_avg(cb_rot, est @ q.T) == pytest.approx(loss_avg(cb, est), abs=1e-8)


def test_loss_bounds_on_ball_estimates():
    rng = rng_for(134)
    for _ in range(100):
        cb = sample_codebook(6, 4, rng)
        est = rng.standard_normal((4, 6))
        norms = np.linalg.norm(est, axis=1, keepdims=True)
        est = est / norms * math.sqrt(6) * rng.uniform(0, 1, size=(4, 1))
        la, lm = loss_avg(cb, est), loss_max(cb, est)
        assert 0.0 <= la <= lm <= 4.0


def test_loss_max_dominates_and_detects_miss():
    # orthogonal centers: cross distances are 2, so the zeroed row really is
    # the nearest estimate of its center and contributes exactly 1
    d = 8
    cb = Codebook(centers=math.sqrt(d) * np.eye(d)[:4], d=d, k=4)
    est = cb.centers.copy()
    est[2] = 0.0
    assert loss_max(cb, est) >= 1.0
    assert loss_avg(cb, est) <= loss_max(cb, est)


def test_loss_input_validation():
    cb = sample_codebook(8, 4, rng_for(136))
    with pytest.raises(ValueError):
        loss_avg(cb, np.zeros((4, 7)))
    with pytest.raises(ValueError):
        loss_avg(cb, np.zeros((0, 8)))


# ---------------------------------------------------------------------------
# genie


def test_genie_noiseless_stratified_exact():
    cb = sample_codebook(8, 4, rng_for(137))
    labels = np.repeat(np.arange(4), 10)
    batch = GmmBatch(cb.centers[labels], labels, 0.0)
    est = genie_estimator(batch, 4)
    assert np.allclose(est, cb.centers, atol=1e-12)
    assert loss_avg(cb, est) <= 1e-15


def test_genie_rate_matches_theory():
    d, k, sigma2, n = 32, 8, 1.0, 8000
    cb = sample_codebook(d, k, rng_for(139))
    labels = np.repeat(np.arange(k), n // k)
    batch = GmmBatch(cb.centers[labels] + math.sqrt(sigma2) * rng_for(140).standard_normal((n, d)), labels, sigma2)
    est = genie_estimator(batch, k)
    assert loss_avg(cb, est) == pytest.approx(sigma2 * k / n, rel=0.2)


def test_genie_single_sample_per_label():
    d, k, sigma2 = 32, 8, 0.5
    cb = sample_codebook(d, k, rng_for(141))
    labels = np.arange(k)
    batch = GmmBatch(cb.centers[labels] + math.sqrt(sigma2) * rng_for(142).standard_normal((k, d)), labels, sigma2)
    est = genie_estimator(batch, k)
    assert loss_avg(cb, est) <= 1.5 * sigma2


def test_genie_unseen_label_row_is_zero():
    cb = sample_codebook(8, 4, rng_for(143))
    batch = GmmBatch(cb.centers[:2].copy(), np.array([0, 1]), 0.0)
    est = genie_estimator(batch, 4)
    assert np.all(est[2:] == 0.0)


@pytest.mark.parametrize("d", [2, 3, 6, 17, 40])
def test_genie_equals_per_label_mean_loop_exactly(d):
    k = 7
    rng = rng_for(144, d)
    n = 400
    # labels 2 and 5 never occur; label 9 >= k is dropped
    labels = rng.choice(np.array([0, 1, 3, 4, 6, 9]), size=n)
    # radii from inside to far outside the ball, so some means get projected
    obs = rng.standard_normal((n, d)) * rng.uniform(0.1, 4.0, size=(n, 1)) * math.sqrt(d)
    obs[labels == 4] += 3.0 * math.sqrt(d)
    est = genie_estimator(GmmBatch(obs, labels, 1.0), k)
    assert est.tobytes() == cluster_means_ref(obs, labels, k).tobytes()


@pytest.mark.parametrize("d", [2, 5, 16, 40])
def test_step2_equals_per_label_mean_loop_exactly(d):
    k = 3
    cb = sample_codebook(d, 6, rng_for(145, d))
    batch2 = sample_gmm(cb, 0.3, 600, rng_for(146, d))
    # five candidates for three slots: decodes to 3 and 4 are dropped, the
    # last true center is missing and its samples are erased
    partial = cb.centers[:5]
    spec = DecoderSpec(kind="mismatched_corr", params={"eta1": 0.3, "eta2": 0.3})
    dec = decode_batch(partial, batch2.observations(), spec)
    assert np.any(dec == ERASURE) and np.any(dec >= k)
    est, _ = step2_cluster_average(partial, batch2, spec, k)
    ref = cluster_means_ref(batch2.observations(), dec, k)
    assert est.tobytes() == ref.tobytes()


# ---------------------------------------------------------------------------
# matching


def test_match_centers_identity():
    cb = sample_codebook(8, 5, rng_for(144))
    res = match_centers(cb, cb.centers, radius_sq=1e-9)
    assert res.fully_certified
    assert sorted(res.matching.tolist()) == [0, 1, 2, 3, 4]
    assert np.allclose(res.matched_sq_dists, 0.0, atol=1e-12)
    assert res.index_set.tolist() == [0, 1, 2, 3, 4]


def test_match_centers_uncertified_far_candidate():
    d = 8
    cb = Codebook(centers=math.sqrt(d) * np.eye(d)[:3], d=d, k=3)
    far = -math.sqrt(d) * np.ones(d) / math.sqrt(d) * math.sqrt(d)
    far = far / np.linalg.norm(far) * math.sqrt(d)
    cands = np.vstack([cb.centers[:2], far[None, :]])
    res = match_centers(cb, cands, radius_sq=0.5)
    assert not res.fully_certified
    assert res.matching[2] == -1
    assert math.isinf(res.matched_sq_dists[2])
    assert res.index_set.tolist() == [0, 1]


def test_match_centers_boundary_radius_certifies():
    d = 4
    cb = Codebook(centers=math.sqrt(d) * np.eye(d)[:2], d=d, k=2)
    cand = math.sqrt(d) * np.eye(d)[2]  # squared distance exactly 2d from both
    res = match_centers(cb, cand[None, :], radius_sq=2.0 * d)
    assert res.fully_certified
    res2 = match_centers(cb, cand[None, :], radius_sq=2.0 * d - 1e-9)
    assert not res2.fully_certified


def test_match_centers_empty():
    cb = sample_codebook(8, 3, rng_for(145))
    res = match_centers(cb, np.zeros((0, 8)), radius_sq=1.0)
    assert res.fully_certified
    assert res.matching.shape == (0,)


def test_match_centers_is_a_maximum_within_radius_matching():
    for seed in range(200):
        rng = rng_for(146, seed)
        d, k, m = int(rng.integers(2, 4)), int(rng.integers(2, 6)), int(rng.integers(1, 6))
        cb = sample_codebook(d, k, rng)
        cands = sample_uniform_sphere_batch(d, m, rng)
        radius_sq = d * float(rng.uniform(0.1, 2.0))
        cost = sq_dists(cands, cb.centers)
        res = match_centers(cb, cands, radius_sq)
        certified = np.flatnonzero(res.matching >= 0)
        assert len(certified) == max_matching_ref(cost, radius_sq), seed
        assert np.all(cost[certified, res.matching[certified]] <= radius_sq), seed
        assert len(set(res.matching[certified].tolist())) == len(certified), seed
        assert res.index_set.tolist() == sorted(res.matching[certified].tolist())
        assert np.all(np.isinf(np.delete(res.matched_sq_dists, certified)))
        assert res.fully_certified == (len(certified) == m)


def test_match_centers_moves_a_pair_to_certify_both():
    # centers a squared chord 0.5 apart; A sits on c0, B at squared
    # distance 0.60 from c0 and 0.61 from c1, so only A -> c1, B -> c0
    # certifies both; the cheapest assignment (A -> c0, B -> c1) does not
    d = 2
    t = math.acos(1.0 - 0.5 / (2 * d))
    c0, c1 = math.sqrt(d) * np.array([1.0, 0.0]), math.sqrt(d) * np.array([math.cos(t), math.sin(t)])
    cb = Codebook(centers=np.stack([c0, c1]), d=d, k=2)
    u = (c1 - c0) / math.sqrt(0.5)
    a = (0.60 - 0.61 + 0.5) / (2 * math.sqrt(0.5))
    b = c0 + a * u + math.sqrt(0.60 - a * a) * np.array([-u[1], u[0]])
    res = match_centers(cb, np.stack([c0, b]), radius_sq=0.602)
    assert res.matching.tolist() == [1, 0]
    assert res.fully_certified
    assert np.allclose(res.matched_sq_dists, [0.5 / d, 0.60 / d])


def test_match_centers_walks_a_path_through_every_candidate():
    # candidate i sits between centers i and i+1, nearer i+1, and the last
    # one on center n-1: its augmenting path moves every other candidate
    # back one center, n deep, past the default recursion limit
    n, d = 3000, 2

    def on_circle(steps):
        angle = 2.0 * np.pi * steps / n
        return math.sqrt(d) * np.stack([np.cos(angle), np.sin(angle)], axis=1)

    cb = Codebook(centers=on_circle(np.arange(n)), d=d, k=n)
    cands = on_circle(np.append(np.arange(n - 1) + 0.6, n - 1))
    radius_sq = 2 * d * (1.0 - math.cos(2.0 * np.pi * 0.8 / n))
    t0 = time.perf_counter()
    res = match_centers(cb, cands, radius_sq)
    assert time.perf_counter() - t0 < 1.0
    assert res.fully_certified
    assert res.matching.tolist() == list(range(n))


# ---------------------------------------------------------------------------
# full pipeline


def test_run_learner_noiseless_with_seeded_net():
    d, k = 8, 4
    cb = sample_codebook(d, k, rng_for(146))
    cfg = LearnerConfig(
        N=400, Nbar=200, test_kind="zero_rate", decoder_kind="mismatched_corr"
    )
    net = Net(points=cb.centers, eps_I=cfg.eps_I)
    res = run_learner(cb, 1e-12, cfg, 147, net=net)
    assert res.m == k
    assert res.loss_avg <= cfg.eps_I
    assert res.screening_stats.t_close_size >= k


def test_run_learner_deterministic():
    d, k = 6, 3
    cb = sample_codebook(d, k, rng_for(148))
    sigma2 = noise_for_beta(d, k, 2.0).sigma2
    cfg = LearnerConfig(N=500, Nbar=300, C_net=4.0)
    a = run_learner(cb, sigma2, cfg, 149, seed_path=(7,), probes=500)
    b = run_learner(cb, sigma2, cfg, 149, seed_path=(7,), probes=500)
    c = run_learner(cb, sigma2, cfg, 149, seed_path=(8,), probes=500)
    assert np.array_equal(a.estimates, b.estimates)
    assert a.loss_avg == b.loss_avg and a.genie_loss == b.genie_loss
    assert not np.array_equal(a.estimates, c.estimates)


def test_run_learner_result_invariants():
    d, k = 6, 4
    cb = sample_codebook(d, k, rng_for(150))
    sigma2 = noise_for_beta(d, k, 2.0).sigma2
    cfg = LearnerConfig(N=800, Nbar=400, C_net=4.0)
    res = run_learner(cb, sigma2, cfg, 151, probes=500)
    assert res.estimates.shape == (k, d)
    assert res.m <= k
    assert np.all(np.linalg.norm(res.estimates, axis=1) <= math.sqrt(d) + 1e-9)
    assert 0.0 <= res.loss_avg <= res.loss_max <= 4.0
    assert isinstance(res.screening_stats, ScreeningStats)
    assert 0.0 <= res.screening_stats.covering_fraction <= 1.0
    assert 0.0 <= res.screening_stats.erasure_rate_step2 <= 1.0


def serial_learner(cb, sigma2, cfg, seed, probes, net=None):
    """run_learner's result fields as the public stages give them, one
    after another: build_net, verify_covering, step1_screen,
    select_candidates, step2_cluster_average."""
    d, k = cb.d, cb.k
    if net is None:
        net = build_net(d, cfg.eps_I, rng=rng_for(seed, 0), **cfg.net_kwargs())
    covering = verify_covering(net, probes, rng_for(seed, 3))
    batch1 = sample_gmm(cb, sigma2, cfg.N, rng_for(seed, 1))
    points, counts = step1_screen(net, batch1, cfg, k)
    candidates = select_candidates(points, counts, cfg.eps_I, k)
    batch2 = sample_gmm(cb, sigma2, cfg.Nbar, rng_for(seed, 2))
    estimates, erasure_rate = step2_cluster_average(candidates, batch2, build_step2_decoder(cfg, d, k, sigma2), k)
    stats = ScreeningStats(net.size, points.shape[0], covering, erasure_rate)
    return estimates, candidates.shape[0], loss_avg(cb, estimates), stats


@pytest.mark.parametrize("test_kind", ["zero_rate", "positive_rate"])
@pytest.mark.parametrize("d", [1, 2, 3, 6, "injected"])
def test_run_learner_equals_the_serial_stages(d, test_kind):
    # the net drawn on the calling thread while the helper screens its
    # rows, and the covering certificate made meanwhile, give the serial
    # stages' bits: at d = 6 the net is eight draw chunks and about 1,000
    # blocks; an injected net, like d = 1, exists before the queue starts
    net = None
    if d == "injected":
        d = 6
        net = Net(points=sample_uniform_sphere_batch(d, 3_000, rng_for(153)), eps_I=0.25)
    k = 4
    cb = sample_codebook(d, k, rng_for(154, d))
    sigma2 = noise_for_beta(d, k, 2.0).sigma2
    cfg = LearnerConfig(N=1000, Nbar=500, test_kind=test_kind)
    res = run_learner(cb, sigma2, cfg, 155, probes=500, net=net)
    estimates, m, loss, stats = serial_learner(cb, sigma2, cfg, 155, 500, net)
    assert np.array_equal(res.estimates, estimates) and res.m == m and res.loss_avg == loss
    assert res.screening_stats == stats


@pytest.mark.parametrize("failing", ["draw", "covering"])
def test_run_learner_error_in_the_lead_task_reaches_the_caller(monkeypatch, failing):
    # the net draw fails after its first chunk, while the helper waits for
    # later rows, or the covering certificate fails while the helper
    # screens: the waiting blocks are released, the error reaches the
    # caller, and no thread outlives the call
    draw = sphere.sample_uniform_sphere_batch

    def draw_failing(d, n, rng, out=None, release=None):
        def release_once(r):
            release(r)
            raise FloatingPointError("draw failed")

        return draw(d, n, rng, out, release_once)

    def covering_failing(*args):
        raise FloatingPointError("covering failed")

    if failing == "draw":
        monkeypatch.setattr(sphere, "sample_uniform_sphere_batch", draw_failing)
    else:
        monkeypatch.setattr(learner, "verify_covering", covering_failing)
    d, k = 6, 4
    cb = sample_codebook(d, k, rng_for(156))
    cfg = LearnerConfig(N=1000, Nbar=500)
    before = threading.active_count()
    with pytest.raises(FloatingPointError, match=failing):
        run_learner(cb, noise_for_beta(d, k, 2.0).sigma2, cfg, 157, probes=500)
    assert threading.active_count() == before


def test_learner_result_rejects_out_of_ball():
    with pytest.raises(ValueError, match="ball"):
        LearnerResult(
            estimates=2.0 * np.ones((2, 4)),
            m=2,
            loss_avg=0.0,
            loss_max=0.0,
            genie_loss=0.0,
            screening_stats=ScreeningStats(1, 1, 1.0, 0.0),
        )


def test_learner_result_rejects_m_overflow():
    with pytest.raises(ValueError, match="slots"):
        LearnerResult(
            estimates=np.zeros((2, 4)),
            m=3,
            loss_avg=0.0,
            loss_max=0.0,
            genie_loss=0.0,
            screening_stats=ScreeningStats(1, 1, 1.0, 0.0),
        )
