"""Geometry on the radius-sqrt(d) sphere.

Points live on sqrt(d) * S^(d-1), so squared norms equal d and normalized
squared distances d^-1 ||x - y||^2 fall in [0, 4]. The module also builds
the finite search nets used by the screening step of the learner, together
with an empirical covering certificate.
"""

from dataclasses import dataclass, field

import numpy as np

# Net sizes grow like exp(c * d * ln(1/eps)); past d ~ 12 they stop fitting
# in desk-scale memory.
D_MAX_NET_DEFAULT = 12
# byte budget for the (M, d) point array, checked before it is allocated;
# building a net briefly holds a few arrays of this size
NET_BYTES_MAX = 1 << 29
C_NET_DEFAULT = 4.0
c_NET_DEFAULT = 1.0

_NORM_TOL = 1e-9


class NetInfeasibleError(ValueError):
    """Requested net exceeds the dimension cap or the memory budget."""


def sample_uniform_sphere(d: int, rng: np.random.Generator) -> np.ndarray:
    """One uniform point on sqrt(d) * S^(d-1).

    Standard Gaussian direction rescaled to norm sqrt(d); rotation
    invariance is inherited from the Gaussian.
    """
    if d < 1:
        raise ValueError(f"dimension must be >= 1, got {d}")
    return sample_uniform_sphere_batch(d, 1, rng)[0]


def sample_uniform_sphere_batch(d: int, n: int, rng: np.random.Generator) -> np.ndarray:
    """(n, d) array of independent uniform sphere points."""
    if d < 1:
        raise ValueError(f"dimension must be >= 1, got {d}")
    if n < 1:
        raise ValueError(f"sample count must be >= 1, got {n}")
    g = rng.standard_normal((n, d))
    norms = np.linalg.norm(g, axis=1, keepdims=True)
    # a zero Gaussian vector has probability 0; regenerate defensively
    while np.any(norms == 0.0):
        bad = norms[:, 0] == 0.0
        g[bad] = rng.standard_normal((int(bad.sum()), d))
        norms = np.linalg.norm(g, axis=1, keepdims=True)
    return g * (np.sqrt(d) / norms)


def project_ball(x: np.ndarray, d: int | None = None) -> np.ndarray:
    """Project onto the closed ball of radius sqrt(d).

    Identity inside the ball, radial scaling outside. Works on a single
    vector or on an (..., d) stack. Idempotent and non-expansive.
    """
    x = np.asarray(x, dtype=np.float64)
    if d is None:
        d = x.shape[-1]
    norms = np.linalg.norm(x, axis=-1, keepdims=True)
    radius = np.sqrt(d)
    with np.errstate(invalid="ignore"):
        scale = np.where(norms > radius, radius / np.where(norms == 0, 1.0, norms), 1.0)
    return x * scale


def sq_dists(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """(n, m) squared distances between the rows of a (n, d) and b (m, d).

    Evaluated as ||a||^2 - 2 <a, b> + ||b||^2 in that order, one GEMM for
    the cross term; entries can differ from the direct ||a - b||^2 in the
    last bits and can dip just below 0 for near-equal rows.
    """
    return np.sum(a * a, axis=1, keepdims=True) - 2.0 * a @ b.T + np.sum(b * b, axis=1)[None, :]


def is_on_sphere(x: np.ndarray, d: int | None = None, tol: float = _NORM_TOL) -> bool:
    x = np.asarray(x, dtype=np.float64)
    if d is None:
        d = x.shape[-1]
    sq = np.sum(x * x, axis=-1)
    return bool(np.all(np.abs(sq - d) <= tol * d))


@dataclass(frozen=True)
class Net:
    """Finite candidate set on the sphere for brute-force screening.

    covering_radius_sq_target is eps_I * d / 2: the squared distance within
    which a net point should exist for (almost) every sphere point. The
    randomized construction only certifies this empirically, via
    verify_covering.
    """

    points: np.ndarray  # (M, d), each row on the sphere
    eps_I: float
    covering_radius_sq_target: float = field(default=0.0)

    def __post_init__(self):
        pts = np.asarray(self.points, dtype=np.float64)
        if pts.ndim != 2 or pts.shape[0] == 0:
            raise ValueError("net needs a nonempty (M, d) point array")
        if not is_on_sphere(pts, pts.shape[1]):
            raise ValueError("net points must lie on the sphere")
        object.__setattr__(self, "points", pts)
        if self.covering_radius_sq_target == 0.0:
            object.__setattr__(
                self, "covering_radius_sq_target", self.eps_I * pts.shape[1] / 2.0
            )

    @property
    def d(self) -> int:
        return self.points.shape[1]

    @property
    def size(self) -> int:
        return self.points.shape[0]


def net_size(d: int, eps_I: float, C_net: float = C_NET_DEFAULT, c_net: float = c_NET_DEFAULT) -> int:
    """Point budget M = ceil(C_net * exp(c_net * d * ln(1/eps_I)))."""
    return int(np.ceil(C_net * np.exp(c_net * d * np.log(1.0 / eps_I))))


def build_net(
    d: int,
    eps_I: float,
    strategy: str = "randomized",
    rng: np.random.Generator | None = None,
    *,
    C_net: float = C_NET_DEFAULT,
    c_net: float = c_NET_DEFAULT,
    d_max_net: int = D_MAX_NET_DEFAULT,
) -> Net:
    """Construct a candidate net on sqrt(d) * S^(d-1).

    randomized: M uniform sphere points, M from net_size. Covering is not
    guaranteed, only certified post hoc by verify_covering; the acceptance
    experiments calibrate C_net until the certificate holds.

    grid: deterministic fallback. Gaussian-quantile lattice directions,
    normalized and deduplicated, same M budget. Deterministic across runs
    but generally a worse cover than the randomized net at equal size.

    Args:
        d: ambient dimension, must be <= d_max_net.
        eps_I: target precision in (0, 1/2).
        strategy: "randomized" or "grid".
        rng: required for the randomized strategy.

    Raises NetInfeasibleError, before allocating, when d exceeds d_max_net
    or the (M, d) point array would exceed NET_BYTES_MAX bytes.
    """
    if not 0.0 < eps_I < 0.5:
        raise ValueError(f"eps_I must be in (0, 1/2), got {eps_I}")
    if d < 1:
        raise ValueError(f"dimension must be >= 1, got {d}")
    if d > d_max_net:
        raise NetInfeasibleError(
            f"net in dimension {d} exceeds d_max_net={d_max_net} (exponential size)"
        )
    if d == 1:
        # the 1-D sphere is two points; that net is exact for any eps_I
        pts = np.array([[1.0], [-1.0]])
        return Net(points=pts, eps_I=eps_I)
    M = net_size(d, eps_I, C_net, c_net)
    nbytes = M * d * 8
    if nbytes > NET_BYTES_MAX:
        raise NetInfeasibleError(
            f"net of M={M} points in dimension {d} needs {nbytes / 2**30:.2f} GiB, "
            f"over the {NET_BYTES_MAX / 2**30:.2f} GiB budget"
        )
    if strategy == "randomized":
        if rng is None:
            raise ValueError("randomized net needs an rng")
        pts = sample_uniform_sphere_batch(d, M, rng)
        return Net(points=pts, eps_I=eps_I)
    if strategy == "grid":
        pts = _grid_directions(d, M)
        return Net(points=pts, eps_I=eps_I)
    raise ValueError(f"unknown net strategy: {strategy!r}")


def _grid_directions(d: int, M: int) -> np.ndarray:
    """Deterministic quasi-uniform directions: inverse-Gaussian lattice.

    Takes the first M points of a d-dimensional Halton-style radical
    inverse sequence, maps coordinates through the standard normal
    quantile, and normalizes to the sphere. No randomness involved.
    """
    from scipy.stats import norm

    primes = _first_primes(d)
    idx = np.arange(1, M + 1)
    u = np.empty((M, d))
    for j, p in enumerate(primes):
        u[:, j] = _radical_inverse(idx, p)
    # clip away 0/1 so the quantile stays finite
    u = np.clip(u, 1e-12, 1 - 1e-12)
    g = norm.ppf(u)
    norms = np.linalg.norm(g, axis=1, keepdims=True)
    norms[norms == 0] = 1.0
    return g * (np.sqrt(d) / norms)


def _first_primes(n: int) -> list[int]:
    primes, cand = [], 2
    while len(primes) < n:
        if all(cand % p for p in primes):
            primes.append(cand)
        cand += 1
    return primes


def _radical_inverse(idx: np.ndarray, base: int) -> np.ndarray:
    out = np.zeros(idx.shape, dtype=np.float64)
    f = 1.0 / base
    i = idx.astype(np.int64)
    while np.any(i > 0):
        out += f * (i % base)
        i //= base
        f /= base
    return out


def verify_covering(net: Net, probes: int, rng: np.random.Generator) -> float:
    """Empirical covering certificate.

    Draws uniform probe points and reports the fraction lying within
    squared distance eps_I * d / 2 of some net point. 1.0 means every probe
    was covered; the screening guarantees downstream assume this fraction
    is near 1.

    The nearest net point comes from a k-d tree query bounded at the target
    radius. A probe is decided by the tree only when its distance clears
    the target by a margin far above rounding; probes inside that margin
    are decided by the dense formula (d + ||t||^2) - 2 <q, t> <= target
    over the whole net, so the fraction equals the dense computation's
    exactly.
    """
    from scipy.spatial import cKDTree

    if probes < 1:
        raise ValueError("probes must be >= 1")
    pts = net.points
    d = net.d
    target = net.covering_radius_sq_target
    slack = 1e-9 * d
    tree = cKDTree(pts)
    covered = 0
    # probes are drawn, and the dense formula evaluated, in chunks that
    # bound the probe-net distance matrix to 2e6 entries; recheck rows come
    # from the whole chunk's product because BLAS rounds a lone row's
    # product differently
    chunk = max(1, 2_000_000 // pts.shape[0])
    for lo in range(0, probes, chunk):
        m = min(chunk, probes - lo)
        q = sample_uniform_sphere_batch(d, m, rng)
        dist, _ = tree.query(q, distance_upper_bound=np.sqrt(target + slack))
        dist_sq = dist * dist
        covered += int(np.count_nonzero(dist_sq < target - slack))
        band = (dist_sq >= target - slack) & np.isfinite(dist_sq)
        if band.any():
            pts_sq = np.sum(pts * pts, axis=1)
            # ||q - t||^2 = 2d - 2 <q, t>, both on-sphere
            dots = q @ pts.T
            min_sq = (d + pts_sq[None, :]) - 2.0 * dots
            covered += int(np.sum(np.min(min_sq[band], axis=1) <= target))
    return covered / probes
