"""Independent reference evaluations.

The closed-form references are written as literal term-by-term arithmetic,
std-lib math only, kept deliberately separate from the package's own
formula code so the two paths cannot share a bug. The covering, spacing,
minimum-distance and cluster-mean references are the package's former
implementations, kept as the exact definitions its fast paths must
reproduce.
"""

import math

import numpy as np

from spherecodes import project_ball, sample_uniform_sphere_batch


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
    with probes drawn in the chunks verify_covering draws them in."""
    pts = net.points
    d = net.d
    chunk = max(1, int(2_000_000 // max(pts.shape[0], 1)) or 1)
    pts_sq = np.sum(pts * pts, axis=1)
    out = []
    for lo in range(0, probes, chunk):
        m = min(chunk, probes - lo)
        q = sample_uniform_sphere_batch(d, m, rng)
        dots = q @ pts.T
        min_sq = (d + pts_sq[None, :]) - 2.0 * dots
        out.append(np.min(min_sq, axis=1))
    return np.concatenate(out)


def covering_ref(net, probes, rng):
    min_sq = covering_min_sq_ref(net, probes, rng)
    return int(np.sum(min_sq <= net.covering_radius_sq_target)) / probes


def separated_subset_ref(candidates, min_dist):
    """Greedy spaced subset by a scan of every kept point per candidate."""
    cands = np.asarray(candidates, dtype=np.float64)
    kept = []
    md_sq = min_dist * min_dist
    for i in range(cands.shape[0]):
        x = cands[i]
        ok = True
        for j in kept:
            diff = x - cands[j]
            if float(np.dot(diff, diff)) < md_sq:
                ok = False
                break
        if ok:
            kept.append(i)
    return np.asarray(kept, dtype=np.int64)


def min_distance_ref(centers):
    """Smallest pairwise distance by a scan of every pair."""
    c = np.asarray(centers, dtype=np.float64)
    k = c.shape[0]
    best = np.inf
    for i in range(k - 1):
        for j in range(i + 1, k):
            diff = c[i] - c[j]
            dist = float(np.sqrt(np.dot(diff, diff)))
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
