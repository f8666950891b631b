"""Spherical codebooks and the rate/noise parametrization.

A codebook is k independent uniform points on sqrt(d) * S^(d-1); it doubles
as the center list of the Gaussian mixture. Rates are in nats per dimension
throughout (natural log), not bits.
"""

import struct
from dataclasses import dataclass

import numpy as np

from .sphere import check_array_bytes, fixed_dot, is_on_sphere, sample_uniform_sphere_batch, sq_dists

_MAGIC = b"SPHCBK01"
_VERSION = 1
# min_distance bounds each row chunk of its distance scan to this many entries
SCAN_ENTRIES = 2_000_000


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
        if not is_on_sphere(c):
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
    """k independent uniform sphere points; deterministic given the rng state.

    Raises ValueError, before allocating, when the (k, d) centers would
    exceed ARRAY_BYTES_MAX bytes."""
    if k < 2:
        raise ValueError(f"codebook needs k >= 2, got {k}")
    if d < 1:
        raise ValueError(f"dimension must be >= 1, got {d}")
    nbytes = k * d * 8
    check_array_bytes(nbytes, f"codebook of k={k} centers in dimension {d} needs {nbytes} bytes")
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
    of about SCAN_ENTRIES entries. Every pair within rounding of the
    smallest scanned value is then rechecked as the fixed_dot of its
    difference with itself, so the result is the minimum over every pair
    of sqrt(fixed_dot(diff, diff)), whatever the chunking or the BLAS.
    """
    c, k = cb.centers, cb.k
    # the expansion's rounding error is a few ulps of the squared norms, d
    slack = 1e-9 * cb.d
    rows = max(1, SCAN_ENTRIES // k)
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
            near.append((c[lo + i] - c[j], sq[i, j]))
            best = min(best, low)
    diff, v = (np.concatenate(a) for a in zip(*near))
    return float(np.sqrt(np.min(fixed_dot(diff, diff)[v <= best + slack])))


def save_codebook(cb: Codebook, path: str) -> None:
    """Flat binary container: 8-byte magic, then version, d, k as
    little-endian u64, then k*d little-endian f64 in row-major order."""
    with open(path, "wb") as f:
        f.write(_MAGIC)
        f.write(struct.pack("<QQQ", _VERSION, cb.d, cb.k))
        f.write(cb.centers.astype("<f8").tobytes(order="C"))


def load_codebook(path: str) -> Codebook:
    """Read save_codebook's container. A wrong magic or version, or a
    header or body shorter than it declares, raises a ValueError naming
    the file."""
    with open(path, "rb") as f:
        got = f.read(8)
        if got != _MAGIC:
            raise ValueError(f"bad magic in {path!r}: {got!r}")
        header = f.read(24)
        if len(header) != 24:
            raise ValueError(f"truncated header in {path!r}")
        version, d, k = struct.unpack("<QQQ", header)
        if version != _VERSION:
            raise ValueError(f"unsupported container version {version} in {path!r}")
        size = 8 * d * k
        body = f.read(size)
        if len(body) != size:
            raise ValueError(f"truncated body in {path!r}")
    centers = np.frombuffer(body, dtype="<f8").reshape(k, d).astype(np.float64)
    return Codebook(centers=centers, d=d, k=k)
