"""Spherical codebooks and the rate/noise parametrization.

A codebook is k independent uniform points on sqrt(d) * S^(d-1); it doubles
as the center list of the Gaussian mixture. Rates are in nats per dimension
throughout (natural log), not bits.
"""

import struct
from dataclasses import dataclass

import numpy as np

from .sphere import is_on_sphere, sample_uniform_sphere_batch, sq_dists

# beyond this the (k, d) array and the k x k scans stop being desk-scale
MAX_K = 2**24
# min_distance scans the k x k distance matrix in row chunks of this size
_SCAN_ENTRIES = 2_000_000

_MAGIC = b"SPHCBK01"
_VERSION = 1


@dataclass(frozen=True)
class Codebook:
    """k on-sphere centers in dimension d."""

    centers: np.ndarray  # (k, d)
    d: int
    k: int

    def __post_init__(self):
        c = np.ascontiguousarray(np.asarray(self.centers, dtype=np.float64))
        object.__setattr__(self, "centers", c)
        if c.ndim != 2 or c.shape != (self.k, self.d):
            raise ValueError(f"centers must be ({self.k}, {self.d}), got {c.shape}")
        if self.k < 2:
            raise ValueError(f"codebook needs k >= 2, got {self.k}")
        if not is_on_sphere(c, self.d):
            raise ValueError("codebook centers must lie on the sphere")


@dataclass(frozen=True)
class ChannelParams:
    """Noise variance with its rate bookkeeping.

    When built by noise_for_beta, rate == capacity(beta * sigma2) to 1e-10:
    beta > 1 puts the rate below channel capacity, beta < 1 above.
    """

    sigma2: float
    beta: float
    rate: float


def sample_codebook(d: int, k: int, rng: np.random.Generator) -> Codebook:
    """k independent uniform sphere points; deterministic given the rng state."""
    if k < 2:
        raise ValueError(f"codebook needs k >= 2, got {k}")
    if k > MAX_K:
        raise ValueError(f"k={k} exceeds MAX_K={MAX_K}")
    if d < 1:
        raise ValueError(f"dimension must be >= 1, got {d}")
    return Codebook(centers=sample_uniform_sphere_batch(d, k, rng), d=d, k=k)


def rate(d: int, k: int) -> float:
    """ln(k)/d nats per dimension."""
    if k < 2:
        raise ValueError(f"rate needs k >= 2, got {k}")
    if d < 1:
        raise ValueError(f"dimension must be >= 1, got {d}")
    return float(np.log(k) / d)


def noise_for_beta(d: int, k: int, beta: float) -> ChannelParams:
    """Noise level coupled to the rate: solves rate(d,k) = capacity(beta * sigma2).

    Algebraically sigma2 = 1 / (beta * (k^(2/d) - 1)); evaluated via expm1
    so large d does not cancel catastrophically.
    """
    if beta <= 0:
        raise ValueError(f"beta must be > 0, got {beta}")
    r = rate(d, k)
    sigma2 = 1.0 / (beta * np.expm1(2.0 * np.log(k) / d))
    return ChannelParams(sigma2=float(sigma2), beta=float(beta), rate=r)


def min_distance(cb: Codebook) -> float:
    """Smallest pairwise distance among the centers.

    Scans the upper triangle of the squared-distance matrix in row chunks
    of about _SCAN_ENTRIES entries. Every pair within rounding of the
    smallest scanned value is then rechecked as sqrt(np.dot(diff, diff))
    of its difference, so the result is that exact pairwise expression's
    minimum and does not depend on the chunking.
    """
    c = cb.centers
    k = c.shape[0]
    # the expansion's rounding error is a few ulps of the squared norms, d
    slack = 1e-9 * cb.d
    rows = max(1, _SCAN_ENTRIES // k)
    best = np.inf
    near = []
    for lo in range(0, k - 1, rows):
        hi = min(lo + rows, k - 1)
        sq = sq_dists(c[lo:hi], c)
        # the diagonal and the lower triangle, j <= i
        sq[np.tri(hi - lo, k, lo, dtype=bool)] = np.inf
        low = float(sq.min())
        if low <= best + slack:
            i, j = np.nonzero(sq <= low + slack)
            near += [(lo + a, b, v) for a, b, v in zip(i, j, sq[i, j])]
            best = min(best, low)
    exact = np.inf
    for i, j, v in near:
        if v <= best + slack:
            diff = c[i] - c[j]
            exact = min(exact, float(np.dot(diff, diff)))
    return float(np.sqrt(exact))


def write_container(path: str, magic: bytes, body: np.ndarray) -> None:
    """Write a (rows, cols) array in the layout read_container reads."""
    rows, cols = body.shape
    with open(path, "wb") as f:
        f.write(magic)
        f.write(struct.pack("<QQQ", _VERSION, cols, rows))
        f.write(body.tobytes(order="C"))


def save_codebook(cb: Codebook, path: str) -> None:
    """Flat binary container: magic, version, d, k as little-endian u64,
    then k*d little-endian f64 in row-major order."""
    write_container(path, _MAGIC, cb.centers.astype("<f8"))


def read_container(path: str, magic: bytes, dtype: str) -> np.ndarray:
    """Read a flat binary container: 8-byte magic, then version, cols, rows
    as little-endian u64, then rows*cols values of dtype in row-major order.

    Returns the (rows, cols) body. A wrong magic or version, or a header or
    body shorter than it declares, raises a ValueError naming the file.
    """
    with open(path, "rb") as f:
        got = f.read(8)
        if got != magic:
            raise ValueError(f"bad magic in {path!r}: {got!r}")
        header = f.read(24)
        if len(header) != 24:
            raise ValueError(f"truncated header in {path!r}")
        version, cols, rows = struct.unpack("<QQQ", header)
        if version != _VERSION:
            raise ValueError(f"unsupported container version {version} in {path!r}")
        size = np.dtype(dtype).itemsize * cols * rows
        body = f.read(size)
        if len(body) != size:
            raise ValueError(f"truncated body in {path!r}")
    return np.frombuffer(body, dtype=dtype).reshape(rows, cols)


def load_codebook(path: str) -> Codebook:
    centers = read_container(path, _MAGIC, "<f8")
    k, d = centers.shape
    return Codebook(centers=centers.astype(np.float64), d=int(d), k=int(k))
