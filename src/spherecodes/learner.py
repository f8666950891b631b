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
from dataclasses import dataclass, field, replace

import numpy as np

from .channel import GmmBatch, sample_gmm
from .codebook import Codebook, rate
from .decoders import (
    ERASURE,
    DecoderSpec,
    MmseParams,
    CorrParams,
    decode_batch,
    shift_corr_thresholds,
    shift_mmse_thresholds,
)
from .sphere import Net, build_net, project_ball, sq_dists, verify_covering
from .seeds import rng_for

# below this rate the noise grows with d and correlation screening/decoding
# is the natural regime; above it the scaled-residual machinery is
R_SWITCH_DEFAULT = 0.2

# Step-I statistic buffer: one block of net points against all observations
# (65 rows at N = 2000), small enough to stay in cache between its passes
_SCREEN_BUF_BYTES = 1 << 20


@dataclass(frozen=True)
class LearnerConfig:
    """Knobs for the two-step learner.

    eps_I: screening precision in (0, 1/2); also sets the candidate
        spacing 2 sqrt(eps_I d) and the net size.
    eps: target precision for the final estimates (drives N_bar choices
        and the matching radius in evaluation).
    N, Nbar: sample budgets for the two steps (fresh samples each).
    phi: failure budget in (0, 1), used by the budget helper formulas.
    test_kind: zero_rate | positive_rate | auto (auto switches on the rate).
    decoder_kind: mismatched_corr | mismatched_mmse | auto for Step II.
    threshold_const: the fraction of N/k a net point must pass in Step I.
    corr_eta1, corr_eta2: Step II correlation thresholds (pre-shift).
    mmse_c, mmse_c2: Step II residual threshold factors tau1 = c tau,
        tau2 = c2 tau (c2 defaults to c; the classical analysis shape is
        c2 = c^2).
    eps0: corruption allowance used to shift Step II thresholds; 0 keeps
        the matched thresholds (the desk-scale default: at screening
        precisions around 0.25 a principled shift would consume the gap).
    net_strategy, C_net, c_net, d_max_net: net construction controls.
    R_switch: rate boundary for the auto regime selectors.
    """

    eps_I: float = 0.25
    eps: float = 0.05
    N: int = 2000
    Nbar: int = 1000
    phi: float = 0.05
    test_kind: str = "auto"
    decoder_kind: str = "auto"
    threshold_const: float = 0.25
    corr_eta1: float = 0.3
    corr_eta2: float = 0.3
    mmse_c: float = 1.4
    mmse_c2: float | None = None
    eps0: float = 0.0
    net_strategy: str = "randomized"
    C_net: float = 16.0
    c_net: float = 1.0
    d_max_net: int = 12
    R_switch: float = R_SWITCH_DEFAULT

    def __post_init__(self):
        if not 0.0 < self.eps_I < 0.5:
            raise ValueError(f"eps_I must be in (0, 1/2), got {self.eps_I}")
        if not 0.0 < self.phi < 1.0:
            raise ValueError(f"phi must be in (0, 1), got {self.phi}")
        if self.N < 1 or self.Nbar < 1:
            raise ValueError("sample budgets must be >= 1")
        if self.test_kind not in ("zero_rate", "positive_rate", "auto"):
            raise ValueError(f"unknown test_kind {self.test_kind!r}")
        if self.decoder_kind not in ("mismatched_corr", "mismatched_mmse", "auto"):
            raise ValueError(f"unknown decoder_kind {self.decoder_kind!r}")
        if self.threshold_const <= 0:
            raise ValueError("threshold_const must be > 0")

    def resolve_test_kind(self, d: int, k: int) -> str:
        if self.test_kind != "auto":
            return self.test_kind
        return "zero_rate" if rate(d, k) < self.R_switch else "positive_rate"

    def resolve_decoder_kind(self, d: int, k: int) -> str:
        if self.decoder_kind != "auto":
            return self.decoder_kind
        return "mismatched_corr" if rate(d, k) < self.R_switch else "mismatched_mmse"


@dataclass(frozen=True)
class ScreeningStats:
    net_size: int
    t_close_size: int
    covering_fraction: float
    erasure_rate_step2: float


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
    candidates: np.ndarray = field(default=None, repr=False)

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


def local_test_zero_rate(x_hat: np.ndarray, y: np.ndarray, eps_I: float) -> int:
    """1 iff the normalized correlation clears 1 - eps_I/4.

    Sharp in the low-rate regime: a point within sqrt(eps_I d) of the
    emitting center passes with probability >= 1/2 while far points
    almost never do.
    """
    d = x_hat.shape[-1]
    return int(float(np.dot(y, x_hat)) / d >= 1.0 - 0.25 * eps_I)


def local_test_positive_rate(x_hat: np.ndarray, y: np.ndarray, eps_I: float, sigma2: float) -> int:
    """1 iff the scaled residual is within the close-point envelope.

    Threshold sqrt(tau + alpha eps_I / 2) plus a d-dependent slack
    sqrt(2 alpha^2 sigma2 ln 2 / d) that makes a centered candidate pass
    with probability >= 1/2.
    """
    if sigma2 <= 0:
        raise ValueError(f"sigma2 must be > 0, got {sigma2}")
    d = x_hat.shape[-1]
    alpha = 1.0 / (1.0 + sigma2)
    tau = sigma2 * alpha
    slack = math.sqrt(2.0 * alpha * alpha * sigma2 * math.log(2.0) / d)
    thr = math.sqrt(tau + 0.5 * alpha * eps_I) + slack
    resid = float(np.linalg.norm(alpha * np.asarray(y) - x_hat))
    return int(resid / math.sqrt(d) <= thr)


def _pass_counts(net_points: np.ndarray, obs: np.ndarray, test_kind: str, eps_I: float, sigma2: float) -> np.ndarray:
    """Per-net-point counts of local-test passes over all observations.

    The M x N statistic matrix is formed a block of net points at a time in
    one preallocated buffer of about _SCREEN_BUF_BYTES.
    """
    M, d = net_points.shape
    if test_kind == "zero_rate":
        thr = 1.0 - 0.25 * eps_I
        rhs = obs.T
    elif test_kind == "positive_rate":
        alpha = 1.0 / (1.0 + sigma2)
        tau = sigma2 * alpha
        slack = math.sqrt(2.0 * alpha * alpha * sigma2 * math.log(2.0) / d)
        thr_sq = (math.sqrt(tau + 0.5 * alpha * eps_I) + slack) ** 2 * d
        v = alpha * obs
        v_sq = np.sum(v * v, axis=1)
        rhs = v.T
    else:
        raise ValueError(f"unknown test_kind {test_kind!r}")
    n = obs.shape[0]
    rows = max(2, _SCREEN_BUF_BYTES // (8 * n))
    # numpy hands a one-row product to BLAS gemv, whose rounding differs
    # from the GEMM rows of every other block, so a lone last row joins the
    # block before it
    bounds = list(range(0, M, rows))
    if M - bounds[-1] == 1 and len(bounds) > 1:
        bounds.pop()
    bounds.append(M)
    buf = np.empty((rows + 1, n))
    counts = np.zeros(M, dtype=np.int64)
    for lo, hi in zip(bounds[:-1], bounds[1:]):
        pts = net_points[lo:hi]
        out = buf[: hi - lo]
        if test_kind == "zero_rate":
            # normalized correlation <x, y> / d >= thr
            np.matmul(pts, rhs, out=out)
            np.divide(out, d, out=out)
            counts[lo:hi] = np.count_nonzero(out >= thr, axis=1)
        else:
            # squared residual ||v||^2 - 2 <x, v> + d <= thr_sq, v = alpha y
            np.matmul(2.0 * pts, rhs, out=out)
            np.subtract(v_sq, out, out=out)
            np.add(out, d, out=out)
            counts[lo:hi] = np.count_nonzero(out <= thr_sq, axis=1)
    return counts


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


def _greedy_spaced(cands: np.ndarray, min_dist: float, limit: int) -> np.ndarray:
    """Indices of the greedy spaced subset in input order, at most limit.

    Keeps the first unmasked candidate, masks every later candidate closer
    than min_dist to it in one vectorized pass, and repeats. A candidate
    whose squared distance lies within rounding of min_dist^2 is decided by
    the scalar np.dot of the difference, so ties at exactly min_dist are
    kept and the result does not depend on the summation order.
    """
    if min_dist <= 0:
        raise ValueError(f"min_dist must be > 0, got {min_dist}")
    md_sq = min_dist * min_dist
    slack = 1e-9 * md_sq
    n = cands.shape[0]
    alive = np.ones(n, dtype=bool)
    kept: list[int] = []
    i = 0
    while len(kept) < limit:
        nxt = np.flatnonzero(alive[i:])
        if nxt.size == 0:
            break
        i += int(nxt[0])
        kept.append(i)
        rest = i + 1 + np.flatnonzero(alive[i + 1 :])
        diff = cands[rest] - cands[i]
        sq = np.einsum("ij,ij->i", diff, diff)
        close = sq < md_sq - slack
        for r in np.flatnonzero(np.abs(sq - md_sq) <= slack):
            close[r] = float(np.dot(diff[r], diff[r])) < md_sq
        alive[rest[close]] = False
        i += 1
    return np.asarray(kept, dtype=np.int64)


def separated_subset(candidates: np.ndarray, min_dist: float) -> np.ndarray:
    """Greedy maximal spaced subset, scanning candidates in input order.

    A candidate is kept iff its distance to every previously kept point is
    >= min_dist; the result is maximal in the sense that every rejected
    candidate is within min_dist of some kept one. Returns indices into
    the candidate list.
    """
    cands = np.asarray(candidates, dtype=np.float64)
    return _greedy_spaced(cands, min_dist, cands.shape[0])


def select_candidates(points: np.ndarray, counts: np.ndarray, eps_I: float, k: int) -> np.ndarray:
    """Order screened points by descending pass count, space them at
    2 sqrt(eps_I d), and keep at most k (the estimate list has k slots).

    The count ordering means the most confident candidates claim their
    neighborhoods first; ties fall back to input order for determinism.
    The greedy scan stops once k points are kept, so the result is the
    first k of separated_subset on the ordered points.
    """
    if points.shape[0] == 0:
        return points.reshape(0, points.shape[1] if points.ndim == 2 else 0)
    order = np.lexsort((np.arange(len(counts)), -np.asarray(counts)))
    ordered = np.asarray(points[order], dtype=np.float64)
    d = points.shape[1]
    kept = _greedy_spaced(ordered, 2.0 * math.sqrt(eps_I * d), k)
    return ordered[kept]


# ---------------------------------------------------------------------------
# Step II


def build_step2_decoder(cfg: LearnerConfig, d: int, k: int, sigma2: float) -> DecoderSpec:
    """Erasure-capable decoder for cluster assignment, from config knobs.

    Thresholds start at the matched values and are widened by eps0 when a
    corruption allowance is configured; eps0 = 0 keeps them matched.
    """
    kind = cfg.resolve_decoder_kind(d, k)
    if kind == "mismatched_corr":
        p = CorrParams(eta1=cfg.corr_eta1, eta2=cfg.corr_eta2)
        if cfg.eps0 > 0:
            p = shift_corr_thresholds(p, cfg.eps0)
        return DecoderSpec(kind="mismatched_corr", params={"eta1": p.eta1, "eta2": p.eta2})
    p = MmseParams.for_noise(sigma2, c=cfg.mmse_c, c2=cfg.mmse_c2 if cfg.mmse_c2 is not None else cfg.mmse_c)
    if cfg.eps0 > 0:
        p = shift_mmse_thresholds(p, cfg.eps0)
    return DecoderSpec(
        kind="mismatched_mmse",
        params={"alpha": p.alpha, "tau": p.tau, "tau1": p.tau1, "tau2": p.tau2},
    )


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
# budgets and the full pipeline


def step1_budget(d: int, k: int, sigma2: float, eps_I: float, phi: float, C1: float = 1.0, C2: float = 1.0) -> int:
    """Screening budget shape C1 k sigma2 ln(1/eps_I)/eps_I^2 + C2 k ln(1/phi).

    The prefactors are calibration parameters, not claims; defaults 1.
    """
    n = C1 * sigma2 * k * math.log(1.0 / eps_I) / (eps_I * eps_I) + C2 * k * math.log(1.0 / phi)
    return int(math.ceil(n))


def step2_budget(k: int, sigma2: float, eps: float, phi: float, C: float = 1.0) -> int:
    """Refinement budget shape k sigma2/eps + C (k/sqrt(eps)) ln(1/phi)."""
    n = k * sigma2 / eps + C * (k / math.sqrt(eps)) * math.log(1.0 / phi)
    return int(math.ceil(n))


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
    if net is None:
        net = build_net(
            d,
            cfg.eps_I,
            strategy=cfg.net_strategy,
            rng=rng_for(master_seed, *seed_path, 0),
            C_net=cfg.C_net,
            c_net=cfg.c_net,
            d_max_net=cfg.d_max_net,
        )
    covering = verify_covering(net, probes, rng_for(master_seed, *seed_path, 3))

    batch1 = sample_gmm(cb, sigma2, cfg.N, rng_for(master_seed, *seed_path, 1))
    points, counts = step1_screen(net, batch1, cfg, k)
    candidates = select_candidates(points, counts, cfg.eps_I, k)
    m = candidates.shape[0]

    decoder = build_step2_decoder(cfg, d, k, sigma2)
    batch2 = sample_gmm(cb, sigma2, cfg.Nbar, rng_for(master_seed, *seed_path, 2))
    estimates, erasure_rate = step2_cluster_average(candidates, batch2, decoder, k)

    pooled = GmmBatch(
        np.concatenate([batch1.observations(), batch2.observations()]),
        np.concatenate([batch1.privileged_labels(), batch2.privileged_labels()]),
        sigma2,
    )
    genie = genie_estimator(pooled, k)

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
        candidates=candidates,
    )
