"""Geometry on the radius-sqrt(d) sphere.

Points live on sqrt(d) * S^(d-1), so squared norms equal d and normalized
squared distances d^-1 ||x - y||^2 fall in [0, 4]. The module also builds
the finite search nets used by the screening step of the learner, together
with an empirical covering certificate.
"""

import ctypes
import functools
import math
import numbers
import pathlib
import threading
from contextlib import contextmanager
from dataclasses import dataclass, field

import numpy as np

# Net sizes grow like exp(c * d * ln(1/eps)); past d ~ 12 they stop fitting
# in desk-scale memory.
D_MAX_NET_DEFAULT = 12
# byte budget for any one large array (a net's (M, d) points, a codebook's
# (k, d) centers, a decode block's TRIAL_BLOCK x k float64 product), checked
# before it is allocated; building a net briefly holds a few of this size
ARRAY_BYTES_MAX = 1 << 29
# verify_covering's slice scan bounds each probe-by-slice product to this
# many entries (2 MiB). Needing no scipy, the scan saves about 30 MiB of
# a learner run's peak RSS; a 16 MiB product would spend much of it again
_SLICE_ENTRIES = 1 << 18
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


def require_number(name: str, v, rule: str, ok=None, *, integral: bool = False, error=ValueError) -> None:
    """The one rule for a config number: raise error("{name} must be {rule},
    got {v!r}") unless v is a real, not a bool, with a finite float value
    (a 400-digit integer has none), integral if asked, and ok(v) if given."""
    try:
        fits = not isinstance(v, bool) and isinstance(v, numbers.Integral if integral else numbers.Real)
        fits = fits and math.isfinite(v)
    except OverflowError:
        fits = False
    if not (fits and (ok is None or ok(v))):
        raise error(f"{name} must be {rule}, got {v!r}")


def sample_uniform_sphere_batch(d: int, n: int, rng: np.random.Generator) -> np.ndarray:
    """(n, d) independent uniform points on sqrt(d) * S^(d-1): standard
    Gaussian rows, rotation invariant, rescaled in place to norm sqrt(d)."""
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
    return np.multiply(g, np.sqrt(d) / norms, out=g)


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


def fixed_dot(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """sum_j x[..., j] * y[..., j] over the broadcast leading axes, added in
    index order j = 0, 1, ... by numpy's elementwise multiply and add. Its
    bits depend on IEEE arithmetic alone, not on the BLAS kernel or on how
    rows are batched; like a BLAS product, it overflows without a warning."""
    # coordinate-major operands make each step's operands contiguous; an
    # operand already laid out so, such as y = z.T for a contiguous z, is
    # not copied
    x, y = np.ascontiguousarray(np.moveaxis(x, -1, 0)), np.ascontiguousarray(np.moveaxis(y, -1, 0))
    with np.errstate(over="ignore", invalid="ignore"):
        acc = x[0] * y[0]
        for j in range(1, len(x)):
            acc += x[j] * y[j]
    return acc


@functools.cache
def _blas_thread_setter():
    """openblas_set_num_threads_local from the OpenBLAS bundled with numpy,
    looked up on first use, or None where numpy bundles none that exports
    it (another BLAS, or a numpy linked to a system library)."""
    here = pathlib.Path(np.__file__).parent
    # where Linux and macOS wheels keep it; opening it again loads nothing
    for folder in (here.parent / "numpy.libs", here / ".dylibs"):
        for path in sorted(folder.glob("*openblas*")):
            fn = getattr(ctypes.CDLL(str(path)), "openblas_set_num_threads_local", None)
            if fn is not None:
                fn.argtypes, fn.restype = [ctypes.c_int], ctypes.c_int
                return fn
    return None


# one_blas_thread's state: the bodies running inside it, and the thread
# count the first of them found
_blas_cap = {"depth": 0, "saved": 0}
_blas_cap_lock = threading.Lock()


@contextmanager
def one_blas_thread():
    """Hold OpenBLAS at one thread for the body, and restore the count it
    had on exit, also when the body raises; does nothing where
    _blas_thread_setter finds no OpenBLAS.

    In OpenBLAS's pthreads builds, numpy's among them, the setter's count is
    the whole process's, whatever its name says. So the count stays 1 while
    any thread runs a body, and the last body to leave restores the count
    the first found; meanwhile every BLAS call in the process runs on one
    thread."""
    setter = _blas_thread_setter()
    if setter is None:
        yield
        return
    with _blas_cap_lock:
        if _blas_cap["depth"] == 0:
            _blas_cap["saved"] = setter(1)
        _blas_cap["depth"] += 1
    try:
        yield
    finally:
        with _blas_cap_lock:
            _blas_cap["depth"] -= 1
            if _blas_cap["depth"] == 0:
                setter(_blas_cap["saved"])


# unit roundoff of float64
_U64 = 2.0**-53


def _gamma(n: int, u: float) -> float:
    """gamma_n = n u / (1 - n u), the relative error bound of an n-term dot
    product (Higham, Accuracy and Stability of Numerical Algorithms, 3.1)."""
    return n * u / (1.0 - n * u) if n * u < 0.5 else math.inf


def gemm_band(a_sq: np.ndarray, b_sq: np.ndarray, d: int, scale: float) -> np.ndarray:
    """Per row i, a bound on |g[i, j] - f[i, j]| over every j, where f is
    the fixed_dot product of scale * a_i and b_j, g the float32 product of
    scale times a float32 copy of a_i and a float32 copy of b_j, of any
    subset of the rows, in any order and by any kernel, scale an exact
    power of two, and a_sq, b_sq the rows' squared norms as sq_norms
    computes them.

    With x = scale * a_i, y = b_j, u float32's unit roundoff and tiny its
    smallest normal, the bound covers rounding a_i and y to float32 (2u +
    u^2), the float32 dot product (gamma_d(u) on the rounded inputs), and
    f's own error (gamma_d of float64, as for any d-term float64 dot
    product), all times ||x|| * max ||y||, plus an absolute term for
    underflow: every input, product or partial sum that underflows,
    flushed or not, is off by less than tiny. Scaling the rounded copy by
    a power of two is exact; it differs from rounding x itself only where
    a_i is in float32's subnormal range, by less than tiny, which that
    term carries. Rows that could overflow float32 anywhere, and non-finite
    rows, get an infinite band.
    """
    info = np.finfo(np.float32)
    u, tiny = float(info.eps) / 2.0, float(info.tiny)
    # a_sq, b_sq are within gamma_d of float64 of the exact squared norms
    grow = 1.0 + _gamma(d, _U64)
    na = scale * np.sqrt(a_sq) * grow
    nb = math.sqrt(np.max(b_sq)) * grow
    rel = 2.0 * u + u * u + _gamma(d, u) * (1.0 + u) ** 2 + _gamma(d, _U64)
    band = rel * na * nb + 4.0 * tiny * (math.sqrt(d) * (na + nb) + d)
    # the float64 arithmetic above rounds a few times; the last factor
    # covers it. Every input and partial sum is at most about na * nb, so
    # below 2^120 nothing overflows
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
    require_number("eps_I", eps_I, "in (0, 1/2)", lambda v: 0.0 < v < 0.5)
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

    The fraction equals the dense computation's exactly: a probe q counts
    as covered when (d + ||t||^2) - 2 <q, t> <= target for some net point
    t, <q, t> taken by fixed_dot. Net holds every ||t||^2 within slack =
    1e-9 d of d, so that formula and 2d - 2 <q, t> differ by at most slack
    plus rounding, about d^2 2^-53, which stays below slack for d under
    about 10^6. A scan keeps each probe's largest <q, t>: it walks the net
    in slices that double in size from 512 points, with one GEMM per slice
    of the probes still open, in row chunks of about _SLICE_ENTRIES
    entries. A probe whose maximum exceeds cut_in = (2d - target + 4
    slack) / 2 is certainly covered and leaves the scan; one whose maximum
    over the whole net stays below cut_out = (2d - target - 4 slack) / 2
    is certainly not. Each probe in between is rechecked alone with the
    dense formula over the whole net. The early exit relies on net points
    being i.i.d. uniform, so that each slice is itself a uniform net: at
    C_net = 16 the first 7,680 points leave a few of 2,000 probes open. A
    net in another order is certified as exactly, only more slowly.
    """
    if probes < 1:
        raise ValueError("probes must be >= 1")
    pts, d = net.points, net.d
    target = net.covering_radius_sq_target
    slack = 1e-9 * d
    nbytes = probes * d * 8
    check_array_bytes(nbytes, f"{probes} covering probes in dimension {d} need {nbytes} bytes")
    q = sample_uniform_sphere_batch(d, probes, rng)
    cut_in, cut_out = (2 * d - target + 4 * slack) / 2, (2 * d - target - 4 * slack) / 2
    best = np.full(probes, -np.inf)
    open_ = np.arange(probes)
    start, width = 0, 512
    while open_.size and start < pts.shape[0]:
        part = pts[start : start + width]
        rows = max(1, _SLICE_ENTRIES // part.shape[0])
        for r in range(0, open_.size, rows):
            idx = open_[r : r + rows]
            best[idx] = np.maximum(best[idx], np.max(q[idx] @ part.T, axis=1))
        open_ = open_[best[open_] <= cut_in]
        start, width = start + width, 2 * width
    covered = probes - open_.size
    band = open_[best[open_] >= cut_out]
    pts_sq = sq_norms(pts) if band.size else None
    for i in band:
        covered += int(np.min((d + pts_sq) - 2.0 * fixed_dot(q[i], pts)) <= target)
    return covered / probes
