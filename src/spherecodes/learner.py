"""Two-step center learning, losses, and the genie baseline.

Step I screens a finite net of sphere points with a per-point local
hypothesis test over N observations, keeps points whose pass count clears
threshold_const * N / k, then reduces to a separated candidate list (greedy
in descending pass-count order, minimum spacing 2 sqrt(eps_I d), at most k
kept). Step II decodes N_bar fresh observations against the candidate list
with an erasure-capable decoder, averages each retained cluster, and
projects the means onto the radius-sqrt(d) ball; missing clusters are
zero-filled.

The learner never reads labels: every entry point takes observations only.
Losses and the genie baseline are the evaluation surface and do use labels.
"""

import math
import numbers
import time
from dataclasses import dataclass, field

import numpy as np

from .channel import GmmBatch, sample_gmm
from .codebook import Codebook, rate
from .decoders import ERASURE, DecoderSpec, decode_batch
from .sphere import (
    C_NET_DEFAULT,
    D_MAX_NET_DEFAULT,
    Net,
    build_net,
    c_NET_DEFAULT,
    project_ball,
    sq_dists,
    verify_covering,
)
from .seeds import rng_for

# below this rate the noise grows with d and correlation screening/decoding
# is the natural regime; above it the scaled-residual machinery is
R_SWITCH_DEFAULT = 0.2

# Step-I statistic buffer: one block of net points against all observations
# (65 rows at N = 2000), small enough to stay in cache between the GEMM and
# the compare
_SCREEN_BUF_BYTES = 1 << 20

# the first block of candidate selection's scan; each later block doubles.
# At the criterion-6 shape the k-th keep sits within the first few
# thousand of some 60,000 ordered points
_SCAN_BLOCK = 256


# the LearnerConfig fields that only build the net, each with the
# sphere.build_net keyword it passes
NET_KNOBS = {"net_strategy": "strategy", "C_net": "C_net", "c_net": "c_net", "d_max_net": "d_max_net"}


@dataclass(frozen=True)
class LearnerConfig:
    """Knobs for the two-step learner.

    eps_I: screening precision in (0, 1/2); also sets the candidate
        spacing 2 sqrt(eps_I d) and the net size.
    N, Nbar: sample budgets for the two steps (fresh samples each).
    test_kind: zero_rate | positive_rate | auto (auto switches on the rate).
    decoder_kind: mismatched_corr | mismatched_mmse | auto for Step II.
    threshold_const: the fraction of N/k a net point must pass in Step I.
    corr_eta1, corr_eta2: Step II correlation thresholds.
    mmse_c, mmse_c2: Step II residual threshold factors tau1 = c tau,
        tau2 = c2 tau (c2 defaults to c; the classical analysis shape is
        c2 = c^2).
    net_strategy, C_net, c_net, d_max_net: net construction controls,
        passed to sphere.build_net; the defaults are sphere's.

    Step II uses the matched thresholds: at screening precisions around
    0.25, widening them by the candidates' corruption radius would consume
    the gap between the accept and reject bars. The auto selectors switch
    regime at rate R_SWITCH_DEFAULT.
    """

    eps_I: float = 0.25
    N: int = 2000
    Nbar: int = 1000
    test_kind: str = "auto"
    decoder_kind: str = "auto"
    threshold_const: float = 0.25
    corr_eta1: float = 0.3
    corr_eta2: float = 0.3
    mmse_c: float = 1.4
    mmse_c2: float | None = None
    net_strategy: str = "randomized"
    C_net: float = C_NET_DEFAULT
    c_net: float = c_NET_DEFAULT
    d_max_net: int = D_MAX_NET_DEFAULT

    def __post_init__(self):
        if not 0.0 < self.eps_I < 0.5:
            raise ValueError(f"eps_I must be in (0, 1/2), got {self.eps_I}")
        for name in ("N", "Nbar", "d_max_net"):
            v = getattr(self, name)
            if isinstance(v, bool) or not isinstance(v, numbers.Integral) or v < 1:
                raise ValueError(f"{name} must be an integer >= 1, got {v!r}")
        if self.test_kind not in ("zero_rate", "positive_rate", "auto"):
            raise ValueError(f"unknown test_kind {self.test_kind!r}")
        if self.decoder_kind not in ("mismatched_corr", "mismatched_mmse", "auto"):
            raise ValueError(f"unknown decoder_kind {self.decoder_kind!r}")
        for name in ("threshold_const", "corr_eta1", "corr_eta2", "mmse_c", "mmse_c2", "C_net", "c_net"):
            v = getattr(self, name)
            if name == "mmse_c2" and v is None:
                continue
            if isinstance(v, bool) or not isinstance(v, numbers.Real) or not math.isfinite(v):
                raise ValueError(f"{name} must be a finite number, got {v!r}")
        for name in ("threshold_const", "C_net", "c_net"):
            v = getattr(self, name)
            if v <= 0:
                raise ValueError(f"{name} must be > 0, got {v!r}")
        if self.net_strategy != "randomized":
            raise ValueError(f"unknown net_strategy {self.net_strategy!r}")

    def net_kwargs(self) -> dict:
        """The net knobs as sphere.build_net's keyword arguments."""
        return {kw: getattr(self, name) for name, kw in NET_KNOBS.items()}

    def resolve_test_kind(self, d: int, k: int) -> str:
        if self.test_kind != "auto":
            return self.test_kind
        return "zero_rate" if rate(d, k) < R_SWITCH_DEFAULT else "positive_rate"

    def resolve_decoder_kind(self, d: int, k: int) -> str:
        if self.decoder_kind != "auto":
            return self.decoder_kind
        return "mismatched_corr" if rate(d, k) < R_SWITCH_DEFAULT else "mismatched_mmse"


@dataclass(frozen=True)
class ScreeningStats:
    net_size: int
    t_close_size: int
    covering_fraction: float
    erasure_rate_step2: float


@dataclass(frozen=True)
class StageTimes:
    """Wall time of each stage of one run_learner call, in ms: the net
    build, the covering certificate, Step I (drawing its batch and the
    screen), candidate selection, Step II (its decoder, batch, decode and
    averages) and the genie baseline."""

    net_ms: float
    covering_ms: float
    step1_ms: float
    select_ms: float
    step2_ms: float
    genie_ms: float


@dataclass(frozen=True)
class LearnerResult:
    """Estimates plus diagnostics from both steps.

    estimates is always (k, d): the first m rows are retained cluster
    means (inside the closed radius-sqrt(d) ball), the rest zeros.
    """

    estimates: np.ndarray
    m: int
    loss_avg: float
    loss_max: float
    genie_loss: float
    screening_stats: ScreeningStats
    stage_times: StageTimes | None = field(default=None, compare=False)

    def __post_init__(self):
        est = np.asarray(self.estimates, dtype=np.float64)
        object.__setattr__(self, "estimates", est)
        d = est.shape[1]
        norms = np.linalg.norm(est, axis=1)
        if np.any(norms > math.sqrt(d) * (1 + 1e-9) + 1e-9):
            raise ValueError("estimates must lie in the closed radius-sqrt(d) ball")
        if self.m > est.shape[0]:
            raise ValueError("retained-cluster count exceeds estimate slots")


@dataclass(frozen=True)
class MatchResult:
    """Injective candidate-to-center assignment with per-pair distances."""

    matching: np.ndarray  # (m,) true index for each candidate, -1 if uncertified
    matched_sq_dists: np.ndarray  # (m,) normalized squared distances (inf if none)
    index_set: np.ndarray  # certified true indices, sorted
    fully_certified: bool


# ---------------------------------------------------------------------------
# local tests


# flips the 63 magnitude bits of a negative double's int64 view, so that
# integer order is the order of the doubles (-0.0 just below +0.0); applied
# twice it gives the bits back
_NEG_FLIP = np.int64(0x7FFF_FFFF_FFFF_FFFF)


def _ordered(bits: np.ndarray) -> np.ndarray:
    return bits ^ ((bits >> 63) & _NEG_FLIP)


def _least_passing(passes, n: int) -> np.ndarray:
    """For each j < n, the least double x with passes(x)[j], where passes
    maps an (n,) float64 array to an (n,) bool array and is monotone (once
    true at x, true at every larger x). The entry is -inf when -inf passes
    and nan when even +inf fails, so x >= cut[j] equals passes(x)[j] for
    every double x.

    Bisection over the doubles in integer order, about 64 vectorised steps.
    """
    lo = np.full(n, _ordered(np.array(-np.inf).view(np.int64)))
    hi = np.full(n, _ordered(np.array(np.inf).view(np.int64)))
    while True:
        # the unsigned gap cannot overflow across the whole double range
        gap = hi.view(np.uint64) - lo.view(np.uint64)
        if not np.any(gap > 1):
            break
        mid = (lo.view(np.uint64) + (gap >> np.uint64(1))).view(np.int64)
        ok = passes(_ordered(mid).view(np.float64))
        hi = np.where(ok, mid, hi)
        lo = np.where(ok, lo, mid)
    cut = _ordered(hi).view(np.float64)
    cut[passes(np.full(n, -np.inf))] = -np.inf
    cut[~passes(np.full(n, np.inf))] = np.nan
    return cut


def _pass_counts(net_points: np.ndarray, obs: np.ndarray, test_kind: str, eps_I: float, sigma2: float) -> np.ndarray:
    """Per-net-point counts of local-test passes over all observations.

    A point p passes the zero-rate test on y when <p, y> / d >= 1 - eps_I/4,
    and the positive-rate test when ||alpha y - p|| / sqrt(d) <=
    sqrt(tau + alpha eps_I / 2) + sqrt(2 alpha^2 sigma2 ln 2 / d), with
    alpha = 1/(1+sigma2) and tau = sigma2 alpha; the slack makes a point
    near the emitting center pass with probability >= 1/2.

    The M x N GEMM statistic is formed a block of net points at a time in
    one preallocated buffer of about _SCREEN_BUF_BYTES. Each test is a
    monotone function of the GEMM entry x, so it equals x >= cut for an
    exact cutoff found once per call: one for the zero-rate test, one per
    observation for the positive-rate test. A block is then one GEMM, one
    compare and one count.
    """
    M, d = net_points.shape
    n = obs.shape[0]
    if test_kind == "zero_rate":
        # normalized correlation fl(x / d) >= thr, x = <p, y>; correctly
        # rounded division by d > 0 is monotone in x
        thr = 1.0 - 0.25 * eps_I
        rhs = obs.T
        cut = _least_passing(lambda x: x / d >= thr, 1)[0]
    else:
        # squared residual fl(fl(||v||^2 - x) + d) <= thr_sq, x = <p, 2 v>,
        # v = alpha y; both roundings are monotone in x. Doubling is exact,
        # so <p, 2 v> has the bits of <2 p, v>
        alpha = 1.0 / (1.0 + sigma2)
        tau = sigma2 * alpha
        slack = math.sqrt(2.0 * alpha * alpha * sigma2 * math.log(2.0) / d)
        thr = math.sqrt(tau + 0.5 * alpha * eps_I) + slack
        thr_sq = thr ** 2 * d
        v = alpha * obs
        v_sq = np.sum(v * v, axis=1)
        rhs = (2.0 * v).T
        cut = _least_passing(lambda x: v_sq - x + d <= thr_sq, n)
    # a C-contiguous copy, made once: handed a transposed view, BLAS repacks
    # the whole operand on every block's call. Packing writes the same
    # panels either way, so the products keep their bits
    rhs = np.ascontiguousarray(rhs)
    rows = max(2, _SCREEN_BUF_BYTES // (8 * n))
    # numpy hands a one-row product to BLAS gemv, whose rounding differs
    # from the GEMM rows of every other block, so a lone last row joins the
    # block before it
    bounds = list(range(0, M, rows))
    if M - bounds[-1] == 1 and len(bounds) > 1:
        bounds.pop()
    bounds.append(M)
    buf = np.empty((rows + 1, n))
    # pass flags, rows padded with zero bytes to whole uint64 words
    flags = np.zeros((rows + 1, -(-n // 8) * 8), dtype=bool)
    counts = np.zeros(M, dtype=np.int64)
    for lo, hi in zip(bounds[:-1], bounds[1:]):
        out = np.matmul(net_points[lo:hi], rhs, out=buf[: hi - lo])
        np.greater_equal(out, cut, out=flags[: hi - lo, :n])
        counts[lo:hi] = _row_counts(flags[: hi - lo])
    return counts


def _row_counts(flags: np.ndarray) -> np.ndarray:
    """True entries per row of a C-contiguous bool array whose row length is
    a multiple of 8: the rows' uint64 words are added in byte lanes, at most
    255 words at a time so that no lane carries, and the 8 lanes summed."""
    words = flags.view(np.uint64)
    total = np.zeros(flags.shape[0], dtype=np.int64)
    for g in range(0, words.shape[1], 255):
        lanes = words[:, g : g + 255].sum(axis=1, dtype=np.uint64)
        total += lanes.view(np.uint8).reshape(-1, 8).sum(axis=1, dtype=np.int64)
    return total


def step1_screen(
    net: Net, batch: GmmBatch, cfg: LearnerConfig, k: int
) -> tuple[np.ndarray, np.ndarray]:
    """Screen the net against the Step-I batch.

    Returns (points, counts) for the net points whose local-test pass count
    reaches threshold_const * N / k, counts aligned with points. The batch
    is consumed through observations() only.
    """
    if net.size == 0:
        raise ValueError("empty net")
    obs = batch.observations()
    if obs.shape[0] != cfg.N:
        raise ValueError(f"screening batch has {obs.shape[0]} samples, config N={cfg.N}")
    test_kind = cfg.resolve_test_kind(net.d, k)
    counts = _pass_counts(net.points, obs, test_kind, cfg.eps_I, batch.sigma2)
    keep = counts >= cfg.threshold_const * cfg.N / k
    return net.points[keep], counts[keep]


def _close(rows: np.ndarray, p: np.ndarray, md_sq: float, slack: float) -> np.ndarray:
    """Which rows lie closer than sqrt(md_sq) to p. A squared distance
    within slack of md_sq is decided by the scalar np.dot of the
    difference, so the outcome does not depend on the summation order."""
    diff = rows - p
    sq = np.einsum("ij,ij->i", diff, diff)
    close = sq < md_sq - slack
    for r in np.flatnonzero(np.abs(sq - md_sq) <= slack):
        close[r] = float(np.dot(diff[r], diff[r])) < md_sq
    return close


def _greedy_spaced(cands: np.ndarray, min_dist: float, limit: int) -> np.ndarray:
    """Indices of the greedy spaced subset in input order, at most limit.

    A candidate is kept when no candidate kept before it lies closer than
    min_dist, so ties at exactly min_dist are kept. The candidates are
    scanned in blocks of growing size (_SCAN_BLOCK, then doubling): a block
    is tested against the points kept so far in one vectorized pass per
    kept point, then its survivors are taken in order, each masking the
    later ones close to it. The scan stops at the limit-th keep, so it
    reads no further than the block that holds it. With limit at least
    the candidate count the subset is maximal: every rejected candidate
    lies within min_dist of a kept one.
    """
    if min_dist <= 0:
        raise ValueError(f"min_dist must be > 0, got {min_dist}")
    md_sq = min_dist * min_dist
    slack = 1e-9 * md_sq
    kept: list[int] = []
    lo, size = 0, _SCAN_BLOCK
    while lo < cands.shape[0] and len(kept) < limit:
        block = cands[lo : lo + size]
        rest = np.arange(block.shape[0])
        for j in kept:
            rest = rest[~_close(block[rest], cands[j], md_sq, slack)]
        while rest.size and len(kept) < limit:
            i, rest = rest[0], rest[1:]
            kept.append(lo + int(i))
            rest = rest[~_close(block[rest], block[i], md_sq, slack)]
        lo += block.shape[0]
        size *= 2
    return np.asarray(kept, dtype=np.int64)


def select_candidates(points: np.ndarray, counts: np.ndarray, eps_I: float, k: int) -> np.ndarray:
    """Order screened points by descending pass count, space them at
    2 sqrt(eps_I d), and keep at most k (the estimate list has k slots).

    The count ordering means the most confident candidates claim their
    neighborhoods first; ties fall back to input order for determinism
    (a stable sort). The greedy scan stops once k points are kept, so the
    result is the first k of the full greedy spaced subset of the ordered
    points.
    """
    if points.shape[0] == 0:
        return points.reshape(0, points.shape[1] if points.ndim == 2 else 0)
    order = np.argsort(-np.asarray(counts), kind="stable")
    ordered = np.asarray(points[order], dtype=np.float64)
    d = points.shape[1]
    kept = _greedy_spaced(ordered, 2.0 * math.sqrt(eps_I * d), k)
    return ordered[kept]


# ---------------------------------------------------------------------------
# Step II


def build_step2_decoder(cfg: LearnerConfig, d: int, k: int, sigma2: float) -> DecoderSpec:
    """Erasure-capable decoder for cluster assignment, at the matched
    thresholds the config sets."""
    kind = cfg.resolve_decoder_kind(d, k)
    if kind == "mismatched_corr":
        entry = {"eta1": cfg.corr_eta1, "eta2": cfg.corr_eta2}
    else:
        entry = {"c": cfg.mmse_c, "c2": cfg.mmse_c if cfg.mmse_c2 is None else cfg.mmse_c2}
    return DecoderSpec.at_noise({"kind": kind, **entry}, sigma2)


def step2_cluster_average(
    partial_cb: np.ndarray,
    batch2: GmmBatch,
    decoder_spec: DecoderSpec,
    k: int,
) -> tuple[np.ndarray, float]:
    """Decode, discard erasures, average clusters, project onto the ball.

    Returns (estimates, erasure_rate): estimates is (k, d) with row l the
    projected mean of the samples decoded to candidate l; empty clusters
    and the slots beyond the candidate count are zero.
    """
    obs = batch2.observations()
    if partial_cb.shape[0] == 0:
        return np.zeros((k, obs.shape[1])), 1.0
    dec = decode_batch(partial_cb, obs, decoder_spec)
    erasure_rate = float(np.mean(dec == ERASURE))
    return _cluster_means(obs, dec, k), erasure_rate


# ---------------------------------------------------------------------------
# losses, genie, matching


def loss_avg(true_cb: Codebook, estimates: np.ndarray) -> float:
    """Mean over true centers of the normalized squared distance to the
    nearest estimate. 0 when every center is hit exactly; 1 when all
    estimates sit at the origin; never above 4 for in-ball estimates."""
    return float(np.mean(_per_center_sq(true_cb, estimates)))


def loss_max(true_cb: Codebook, estimates: np.ndarray) -> float:
    """Worst-center version of loss_avg."""
    return float(np.max(_per_center_sq(true_cb, estimates)))


def _per_center_sq(true_cb: Codebook, estimates: np.ndarray) -> np.ndarray:
    est = np.asarray(estimates, dtype=np.float64)
    if est.ndim != 2 or est.shape[1] != true_cb.d:
        raise ValueError(f"estimates must be (m, {true_cb.d}), got {est.shape}")
    if est.shape[0] == 0:
        raise ValueError("estimate list is empty")
    sq = sq_dists(true_cb.centers, est)
    return np.maximum(np.min(sq, axis=1), 0.0) / true_cb.d


def genie_estimator(batch: GmmBatch, k: int) -> np.ndarray:
    """Label-revealed baseline: per-label means projected onto the ball.

    Uses privileged label access; the risk of this estimator (about
    k sigma2 / n on balanced batches) is the floor the learner is
    compared against. Labels never observed -> zero row.
    """
    return _cluster_means(batch.observations(), batch.privileged_labels(), k)


def _cluster_means(obs: np.ndarray, labels: np.ndarray, k: int) -> np.ndarray:
    """(k, d) per-label means of the rows of obs, projected onto the ball.

    Row l averages the observations labelled l; labels outside [0, k)
    (ERASURE among them) are dropped, and a label with no observations
    gives a zero row. Each sum accumulates its rows in input order, the
    order the mean of the label's row block takes for d >= 2.
    """
    keep = (labels >= 0) & (labels < k)
    labels = labels[keep]
    sums = np.zeros((k, obs.shape[1]))
    np.add.at(sums, labels, obs[keep])
    counts = np.bincount(labels, minlength=k)
    return project_ball(sums / np.maximum(counts, 1)[:, None], obs.shape[1])


def match_centers(true_cb: Codebook, candidates: np.ndarray, radius_sq: float) -> MatchResult:
    """Certify candidates against true centers by optimal assignment.

    Builds the complete bipartite cost matrix of squared distances, solves
    the assignment problem, then certifies exactly the matched pairs with
    squared distance <= radius_sq. Uncertified candidates get matching -1
    and an infinite recorded distance (absence of a certificate is an
    outcome, not an error).
    """
    cands = np.asarray(candidates, dtype=np.float64)
    m = cands.shape[0]
    if m == 0:
        return MatchResult(
            matching=np.empty(0, dtype=np.int64),
            matched_sq_dists=np.empty(0),
            index_set=np.empty(0, dtype=np.int64),
            fully_certified=True,
        )
    from scipy.optimize import linear_sum_assignment

    cost = sq_dists(cands, true_cb.centers)
    rows, cols = linear_sum_assignment(cost)
    matching = np.full(m, -1, dtype=np.int64)
    dists = np.full(m, np.inf)
    for r, ccol in zip(rows, cols):
        if cost[r, ccol] <= radius_sq:
            matching[r] = ccol
            dists[r] = max(cost[r, ccol], 0.0) / true_cb.d
    certified = matching >= 0
    return MatchResult(
        matching=matching,
        matched_sq_dists=dists,
        index_set=np.sort(matching[certified]),
        fully_certified=bool(np.all(certified)),
    )


# ---------------------------------------------------------------------------
# the full pipeline


def run_learner(
    cb: Codebook,
    sigma2: float,
    cfg: LearnerConfig,
    master_seed: int,
    *,
    seed_path: tuple[int, ...] = (),
    probes: int = 2000,
    net: Net | None = None,
) -> LearnerResult:
    """Full pipeline on a hidden-label channel: net, screen, space, decode,
    average. Also runs the genie on the pooled privileged samples so every
    result carries its baseline.

    Randomness comes from four derived streams (net, Step-I batch, Step-II
    batch, covering probes), so results are reproducible from
    (master_seed, seed_path) alone. A pre-built net can be injected for
    diagnostics; the other three streams are unaffected.
    """
    d, k = cb.d, cb.k
    # one mark before the first stage and one after each, in StageTimes'
    # field order
    marks = [time.perf_counter()]
    if net is None:
        net = build_net(d, cfg.eps_I, rng=rng_for(master_seed, *seed_path, 0), **cfg.net_kwargs())
    marks.append(time.perf_counter())
    covering = verify_covering(net, probes, rng_for(master_seed, *seed_path, 3))
    marks.append(time.perf_counter())

    batch1 = sample_gmm(cb, sigma2, cfg.N, rng_for(master_seed, *seed_path, 1))
    points, counts = step1_screen(net, batch1, cfg, k)
    marks.append(time.perf_counter())
    candidates = select_candidates(points, counts, cfg.eps_I, k)
    m = candidates.shape[0]
    marks.append(time.perf_counter())

    decoder = build_step2_decoder(cfg, d, k, sigma2)
    batch2 = sample_gmm(cb, sigma2, cfg.Nbar, rng_for(master_seed, *seed_path, 2))
    estimates, erasure_rate = step2_cluster_average(candidates, batch2, decoder, k)
    marks.append(time.perf_counter())

    pooled = GmmBatch(
        np.concatenate([batch1.observations(), batch2.observations()]),
        np.concatenate([batch1.privileged_labels(), batch2.privileged_labels()]),
        sigma2,
    )
    genie = genie_estimator(pooled, k)
    marks.append(time.perf_counter())

    stats = ScreeningStats(
        net_size=net.size,
        t_close_size=points.shape[0],
        covering_fraction=covering,
        erasure_rate_step2=erasure_rate,
    )
    return LearnerResult(
        estimates=estimates,
        m=m,
        loss_avg=loss_avg(cb, estimates),
        loss_max=loss_max(cb, estimates),
        genie_loss=loss_avg(cb, genie),
        screening_stats=stats,
        stage_times=StageTimes(*(1000.0 * (b - a) for a, b in zip(marks, marks[1:]))),
    )
