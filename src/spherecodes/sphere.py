"""Geometry on the radius-sqrt(d) sphere.

Points live on sqrt(d) * S^(d-1), so squared norms equal d and normalized
squared distances d^-1 ||x - y||^2 fall in [0, 4]. The module also builds
the finite search nets used by the screening step of the learner, together
with an empirical covering certificate.
"""

import math
from dataclasses import dataclass, field

import numpy as np

# Net sizes grow like exp(c * d * ln(1/eps)); past d ~ 12 they stop fitting
# in desk-scale memory.
D_MAX_NET_DEFAULT = 12
# byte budget for any one large array (a net's (M, d) points, a codebook's
# (k, d) centers, a decode block's TRIAL_BLOCK x k distances), checked
# before it is allocated; building a net briefly holds a few of this size
ARRAY_BYTES_MAX = 1 << 29
# the distance scans (verify_covering's probe chunks, codebook.min_distance's
# row chunks) bound each distance matrix to this many entries
SCAN_ENTRIES = 2_000_000
# net_size's constants; C_net = 16 is the value the acceptance configs,
# demos and benchmark use
C_NET_DEFAULT = 16.0
c_NET_DEFAULT = 1.0

_NORM_TOL = 1e-9


class NetInfeasibleError(ValueError):
    """A request refused for its size alone: any array over ARRAY_BYTES_MAX
    (a net's, a codebook's, a batch's, a decode block's) or a net past its
    dimension cap."""


def check_array_bytes(nbytes: int, what: str) -> None:
    """Refuse an array of nbytes bytes over ARRAY_BYTES_MAX before it is
    allocated. what names the array and its size, the message's opening."""
    if nbytes > ARRAY_BYTES_MAX:
        raise NetInfeasibleError(f"{what}, over the {ARRAY_BYTES_MAX}-byte budget")


def sample_uniform_sphere_batch(d: int, n: int, rng: np.random.Generator) -> np.ndarray:
    """(n, d) independent uniform points on sqrt(d) * S^(d-1): standard
    Gaussian rows, which are rotation invariant, rescaled to norm sqrt(d)."""
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


def sq_norms(x: np.ndarray) -> np.ndarray:
    """Row squared norms np.sum(x * x, axis=1), as sq_dists adds them.

    A finite row whose squared norm overflows gets inf without numpy's
    warning, which would report no fault: every caller handles an infinite
    norm (an infinite distance or float32 band; the decoders' non-finite
    row check reads such a row's coordinates)."""
    with np.errstate(over="ignore"):
        return np.sum(x * x, axis=1)


def sq_dists(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """(n, m) squared distances between the rows of a (n, d) and b (m, d).

    Evaluated as ||a||^2 - 2 <a, b> + ||b||^2 in that order, one GEMM for
    the cross term; entries can differ from the direct ||a - b||^2 in the
    last bits and can dip just below 0 for near-equal rows.
    """
    return sq_norms(a)[:, None] - 2.0 * a @ b.T + sq_norms(b)[None, :]


# unit roundoffs of float32 and float64, and float32's smallest normal
_U32, _U64, _TINY32 = 2.0**-24, 2.0**-53, 2.0**-126


def _gamma(n: int, u: float) -> float:
    """gamma_n = n u / (1 - n u), the relative error bound of an n-term dot
    product (Higham, Accuracy and Stability of Numerical Algorithms, 3.1)."""
    return n * u / (1.0 - n * u) if n * u < 0.5 else math.inf


def f32_gemm_band(a_sq: np.ndarray, b_sq: np.ndarray, d: int, scale: float = 1.0) -> np.ndarray:
    """Per row i, a bound on |g32[i, j] - g64[i, j]| over every j, where
    g64 = (scale * a) @ b.T in float64, g32 the same product of float32
    copies of scale * a and b, scale an exact power of two, and a_sq, b_sq
    the rows' squared norms as sq_norms computes them.

    With x = scale * a_i and y = b_j, the bound covers rounding x and y to
    float32 (2u + u^2), the float32 dot product (gamma_d(u) on the rounded
    inputs), and the float64 GEMM's own error (gamma_d of float64), all
    times ||x|| * max ||y||, plus an absolute term for float32 underflow:
    every product or partial sum that underflows, flushed or not, is off by
    less than the smallest normal. Rows that could overflow float32
    anywhere, and non-finite rows, get an infinite band.
    """
    # a_sq, b_sq are within gamma_d of float64 of the exact squared norms
    grow = 1.0 + _gamma(d, _U64)
    na = scale * np.sqrt(a_sq) * grow
    nb = math.sqrt(np.max(b_sq)) * grow
    rel = 2.0 * _U32 + _U32 * _U32 + _gamma(d, _U32) * (1.0 + _U32) ** 2 + _gamma(d, _U64)
    band = rel * na * nb + 4.0 * _TINY32 * (math.sqrt(d) * (na + nb) + d)
    # the float64 arithmetic above rounds a few times; the last factor
    # covers it. Every float32 input and partial sum is at most about
    # na * nb, so below 2^120 nothing overflows
    fits = (np.maximum(na, nb) < 2.0**120) & (na * nb < 2.0**120)
    return np.where(fits, band * (1.0 + 16 * _U64), np.inf)


def is_on_sphere(x: np.ndarray) -> bool:
    """Every row of x has squared norm d = x.shape[-1], to a relative 1e-9."""
    x = np.asarray(x, dtype=np.float64)
    d = x.shape[-1]
    sq = np.sum(x * x, axis=-1)
    return bool(np.all(np.abs(sq - d) <= _NORM_TOL * d))


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
        if not is_on_sphere(pts):
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

    M uniform sphere points, M from net_size. Covering is not guaranteed,
    only certified post hoc by verify_covering; the acceptance experiments
    calibrate C_net until the certificate holds.

    Args:
        d: ambient dimension, must be <= d_max_net.
        eps_I: target precision in (0, 1/2).
        strategy: "randomized", the one construction.
        rng: the stream the points are drawn from.

    Raises NetInfeasibleError, before allocating, when d exceeds d_max_net
    or the (M, d) point array would exceed ARRAY_BYTES_MAX bytes.
    """
    if strategy != "randomized":
        raise ValueError(f"unknown net strategy: {strategy!r}")
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
    check_array_bytes(nbytes, f"net of M={M} points in dimension {d} needs {nbytes / 2**30:.2f} GiB")
    if rng is None:
        raise ValueError("randomized net needs an rng")
    return Net(points=sample_uniform_sphere_batch(d, M, rng), eps_I=eps_I)


def verify_covering(net: Net, probes: int, rng: np.random.Generator) -> float:
    """Empirical covering certificate.

    Draws uniform probe points and reports the fraction lying within
    squared distance eps_I * d / 2 of some net point. 1.0 means every probe
    was covered; the screening guarantees downstream assume this fraction
    is near 1.

    The nearest net point comes from one k-d tree query over every probe,
    bounded at the target radius. A probe is decided by the tree only when
    its distance clears the target by a margin far above rounding; probes
    inside that margin are decided by the dense formula
    (d + ||t||^2) - 2 <q, t> <= target over the whole net, so the fraction
    equals the dense computation's exactly. The tree's shape only changes
    which pairs it visits, not the distance of a pair, so it is built
    unbalanced, which is faster.
    """
    from scipy.spatial import cKDTree

    if probes < 1:
        raise ValueError("probes must be >= 1")
    pts = net.points
    d = net.d
    target = net.covering_radius_sq_target
    slack = 1e-9 * d
    nbytes = probes * d * 8
    check_array_bytes(nbytes, f"{probes} covering probes in dimension {d} need {nbytes} bytes")
    q = sample_uniform_sphere_batch(d, probes, rng)
    dist, _ = cKDTree(pts, balanced_tree=False).query(q, distance_upper_bound=np.sqrt(target + slack))
    dist_sq = dist * dist
    covered = int(np.count_nonzero(dist_sq < target - slack))
    band = (dist_sq >= target - slack) & np.isfinite(dist_sq)
    # the dense formula is evaluated for whole chunks of probes, which
    # bound the probe-net distance matrix to SCAN_ENTRIES entries, and only
    # for chunks that hold a band probe. A recheck row comes from its
    # chunk's product because BLAS rounds a lone row's product differently
    chunk = max(1, SCAN_ENTRIES // pts.shape[0])
    for lo in np.unique(np.flatnonzero(band) // chunk) * chunk:
        pts_sq = np.sum(pts * pts, axis=1)
        # ||q - t||^2 = 2d - 2 <q, t>, both on-sphere
        min_sq = (d + pts_sq[None, :]) - 2.0 * (q[lo : lo + chunk] @ pts.T)
        covered += int(np.sum(np.min(min_sq[band[lo : lo + chunk]], axis=1) <= target))
    return covered / probes
