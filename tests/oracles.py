"""Independent reference evaluations.

The closed-form references are written as literal term-by-term arithmetic,
std-lib math only, kept deliberately separate from the package's own
formula code so the two paths cannot share a bug. The covering, spacing,
minimum-distance, cluster-mean, batch-decoder and Step-I pass-count
references are the package's former implementations, kept as the exact
definitions its fast paths must reproduce; max_matching_ref sizes a
largest within-radius matching by brute force; decode_ref is the one reference
every decode_batch outcome is checked against. Every inner product a
float64 near tie turns on (covering, spacing, minimum distance, decoding)
is taken by fixed_dot_ref, in coordinate order.
"""

import itertools
import math

import numpy as np

from spherecodes import ERASURE, project_ball, rng_for, sample_gmm, sample_uniform_sphere_batch
from spherecodes.decoders import TRIAL_BLOCK
from spherecodes.learner import _SCREEN_BUF_BYTES
from spherecodes.sphere import sq_norms


def fixed_dot_ref(x, y):
    """sum_j x[..., j] * y[..., j] over the broadcast leading axes, added
    to a zero total one coordinate at a time, j = 0, 1, ...: the
    fixed-order product the package settles its float64 near ties by.
    Coordinate-major copies keep each step's operands contiguous."""
    xs = np.ascontiguousarray(np.moveaxis(np.asarray(x, dtype=np.float64), -1, 0))
    ys = np.ascontiguousarray(np.moveaxis(np.asarray(y, dtype=np.float64), -1, 0))
    total = np.zeros(np.broadcast_shapes(xs.shape[1:], ys.shape[1:]))
    term = np.empty_like(total)
    for xj, yj in zip(xs, ys, strict=True):
        np.multiply(xj, yj, out=term)
        total += term
    return total


def pair_dots_ref(a, b):
    """(n, m) fixed_dot_ref of every row of a with every row of b, formed a
    slab of rows at a time so that each step's operands stay in cache."""
    out = np.empty((a.shape[0], b.shape[0]))
    rows = max(1, 32768 // max(1, b.shape[0]))
    for lo in range(0, a.shape[0], rows):
        out[lo : lo + rows] = fixed_dot_ref(a[lo : lo + rows, None, :], b)
    return out


def sq_dists_ref(a, b):
    """(n, m) squared distances ||a||^2 - 2 <a, b> + ||b||^2 in that order,
    the cross term the pair_dots_ref of 2 a, as decoders take it."""
    return sq_norms(a)[:, None] - pair_dots_ref(2.0 * a, b) + sq_norms(b)[None, :]


def capacity_ref(sigma2):
    return 0.5 * math.log(1.0 + 1.0 / sigma2)


def capacity_inv_ref(y):
    return 1.0 / (math.exp(2.0 * y) - 1.0)


def binary_entropy_ref(p):
    if p in (0.0, 1.0):
        return 0.0
    return p * math.log(1.0 / p) + (1.0 - p) * math.log(1.0 / (1.0 - p))


def rdf_lower_bound_ref(d, k, eps, c0):
    term1 = (d * k / 2.0) * math.log(1.0 / eps)
    term2 = d * k * math.log(1.0 + c0 * (eps * d) ** -0.5)
    term3 = k * math.log(k)
    return term1 - term2 - term3


def labeled_mi_upper_ref(d, k, sigma2, n):
    return (d * k / 2.0) * math.log(1.0 + n / (k * sigma2))


def sc_lower_trivial_ref(eps, R):
    return math.exp(-2.0 * R) * (1.0 / eps) - 1.0


def single_sample_mi_upper_ref(delta, e_delta, k):
    return binary_entropy_ref(e_delta) + (delta + e_delta) * math.log(k)


def quantitative_positive_ref(k, const):
    return const * math.sqrt(math.log(k) / math.log(math.log(k)))


def quantitative_zero_ref(d, k, const):
    first = math.sqrt(math.log(k) / math.log(math.log(k)))
    second = math.sqrt(d / math.log(k))
    return const * min(first, second)


def sigma2_for_beta_ref(d, k, beta):
    return 1.0 / (beta * (k ** (2.0 / d) - 1.0))


def wilson_ref(successes, trials, z=1.959963984540054):
    p = successes / trials
    denom = 1.0 + z * z / trials
    center = (p + z * z / (2.0 * trials)) / denom
    half = (z / denom) * math.sqrt(p * (1.0 - p) / trials + z * z / (4.0 * trials * trials))
    return center - half, center + half


def covering_min_sq_ref(net, probes, rng):
    """Per-probe minimum of (d + ||t||^2) - 2 <q, t> over the whole net,
    <q, t> by fixed_dot_ref, with probes drawn in chunks of about 2e6
    distances."""
    pts = net.points
    d = net.d
    chunk = max(1, int(2_000_000 // max(pts.shape[0], 1)) or 1)
    pts_sq = np.sum(pts * pts, axis=1)
    out = []
    for lo in range(0, probes, chunk):
        m = min(chunk, probes - lo)
        q = sample_uniform_sphere_batch(d, m, rng)
        min_sq = (d + pts_sq[None, :]) - 2.0 * pair_dots_ref(q, pts)
        out.append(np.min(min_sq, axis=1))
    return np.concatenate(out)


def covering_ref(net, probes, rng):
    min_sq = covering_min_sq_ref(net, probes, rng)
    return int(np.sum(min_sq <= net.covering_radius_sq_target)) / probes


def separated_subset_ref(candidates, min_dist, limit=None):
    """Greedy spaced subset by a scan of every kept point per candidate,
    stopping at the limit-th keep when a limit is given."""
    cands = np.asarray(candidates, dtype=np.float64)
    kept = []
    md_sq = min_dist * min_dist
    for i in range(cands.shape[0]):
        if limit is not None and len(kept) >= limit:
            break
        diff = cands[i] - cands[kept]
        if not np.any(fixed_dot_ref(diff, diff) < md_sq):
            kept.append(i)
    return np.asarray(kept, dtype=np.int64)


def max_matching_ref(cost, radius_sq):
    """Size of a largest set of (row, column) pairs with cost <= radius_sq
    that uses no row and no column twice: the most such pairs over every
    injective map of the smaller side into the larger (both sides <= 5)."""
    ok = np.asarray(cost) <= radius_sq
    if ok.shape[0] > ok.shape[1]:
        ok = ok.T
    return max(int(sum(ok[i, j] for i, j in enumerate(p))) for p in itertools.permutations(range(ok.shape[1]), ok.shape[0]))


def min_distance_ref(centers):
    """Smallest pairwise distance by a scan of every pair."""
    c = np.asarray(centers, dtype=np.float64)
    k = c.shape[0]
    best = np.inf
    for i in range(k - 1):
        diff = c[i] - c[i + 1 :]
        dist = float(np.sqrt(np.min(fixed_dot_ref(diff, diff))))
        if dist < best:
            best = dist
    return best


def cluster_means_ref(obs, labels, k):
    """Per-label means projected onto the ball, one label at a time.

    Labels outside [0, k) are never visited; an unseen label keeps its
    zero row.
    """
    d = obs.shape[1]
    out = np.zeros((k, d))
    for l in range(k):
        members = obs[labels == l]
        if members.shape[0] > 0:
            out[l] = project_ball(members.mean(axis=0), d)
    return out


def nn_batch_ref(centers, ys):
    """Row argmin of the full sq_dists_ref matrix."""
    return np.argmin(sq_dists_ref(ys, centers), axis=1).astype(np.int64)


def corr_batch_ref(centers, ys, eta1, eta2):
    """Accept the argmax when it clears 1 - eta1 and is the only index at
    or above 1 - eta2, counted over the full correlation matrix."""
    d = centers.shape[1]
    corr = pair_dots_ref(ys, centers) / d
    best = np.argmax(corr, axis=1)
    cmax = corr[np.arange(corr.shape[0]), best]
    n_high = np.sum(corr >= 1.0 - eta2, axis=1)
    ok = (cmax >= 1.0 - eta1) & (n_high <= 1)
    out = np.where(ok, best, ERASURE)
    return out.astype(np.int64)


def mmse_batch_ref(centers, ys, alpha, tau1, tau2):
    """Accept the argmin when it is at or below tau1 and is the only index
    at or below tau2, counted over the full residual matrix."""
    d = centers.shape[1]
    sq = sq_dists_ref(alpha * ys, centers) / d
    best = np.argmin(sq, axis=1)
    smin = sq[np.arange(sq.shape[0]), best]
    n_low = np.sum(sq <= tau2, axis=1)
    ok = (smin <= tau1) & (n_low <= 1)
    out = np.where(ok, best, ERASURE)
    return out.astype(np.int64)


def decode_ref(targets, ys, spec):
    """The full-matrix reference outcomes of a DecoderSpec's family on ys,
    for a Codebook or a bare (m, d) center array."""
    centers = np.asarray(getattr(targets, "centers", targets), dtype=np.float64)
    p = spec.record
    if spec.family == "nn":
        return nn_batch_ref(centers, ys)
    if spec.family == "corr":
        return corr_batch_ref(centers, ys, p.eta1, p.eta2)
    return mmse_batch_ref(centers, ys, p.alpha, p.tau1, p.tau2)


def estimator_blocks(cb, sigma2, trials, master_seed, seed_path=()):
    """The (observations, labels) of each block estimate_error_prob draws
    for these arguments, in order."""
    for block in range((trials + TRIAL_BLOCK - 1) // TRIAL_BLOCK):
        size = min(TRIAL_BLOCK, trials - block * TRIAL_BLOCK)
        batch = sample_gmm(cb, sigma2, size, rng_for(master_seed, *seed_path, block))
        yield batch.observations(), batch.privileged_labels()


def pass_counts_ref(net_points: np.ndarray, obs: np.ndarray, test_kind: str, eps_I: float, sigma2: float) -> np.ndarray:
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
