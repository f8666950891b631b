"""The noisy channel: mixture sampling with hidden ground-truth labels.

Each sample is Y = X_label + sigma * Z with a uniform hidden label and
standard Gaussian noise. Labels stay attached to the batch for evaluation
and for the genie baseline, but algorithm code must go through
observations(), which never exposes them. privileged_labels() is the
deliberate, greppable escape hatch for evaluation code only.
"""

from dataclasses import dataclass

import numpy as np

from .codebook import Codebook
from .sphere import check_array_bytes


@dataclass(frozen=True)
class GmmBatch:
    """n channel outputs with hidden labels.

    sigma2 is the per-coordinate noise variance actually used (0 for
    noiseless batches).
    """

    _samples: np.ndarray  # (n, d)
    _labels: np.ndarray  # (n,) ints in [0, k)
    sigma2: float

    def __post_init__(self):
        s = np.ascontiguousarray(np.asarray(self._samples, dtype=np.float64))
        l = np.ascontiguousarray(np.asarray(self._labels, dtype=np.int64))
        if s.ndim != 2 or l.ndim != 1 or s.shape[0] != l.shape[0]:
            raise ValueError("samples and labels must be (n, d) and (n,)")
        if s.shape[0] < 1:
            raise ValueError("batch must contain at least one sample")
        object.__setattr__(self, "_samples", s)
        object.__setattr__(self, "_labels", l)

    def observations(self) -> np.ndarray:
        """Read-only (n, d) view of the samples. No labels."""
        v = self._samples.view()
        v.flags.writeable = False
        return v

    def privileged_labels(self) -> np.ndarray:
        """Ground-truth labels. Evaluation and genie baseline ONLY."""
        v = self._labels.view()
        v.flags.writeable = False
        return v


def check_batch_bytes(n: int, d: int) -> None:
    """Refuse a batch of n samples in dimension d, its (n, d) samples plus
    n labels, over ARRAY_BYTES_MAX before anything is allocated."""
    nbytes = n * (d + 1) * 8
    check_array_bytes(nbytes, f"a batch of n={n} samples in dimension {d} needs {nbytes} bytes")


def sample_gmm(
    cb: Codebook,
    sigma2: float,
    n: int,
    rng: np.random.Generator,
    stratified: bool = False,
    *,
    out: np.ndarray | None = None,
) -> GmmBatch:
    """n draws of Y = X_label + sigma * Z.

    Labels uniform on [k] (or exactly n/k each in stratified mode), noise
    standard Gaussian, independent of the labels. Deterministic given the
    rng state.

    Args:
        stratified: exact per-label balance, for the genie baseline.
        out: a C-contiguous float64 (n, d) array the samples are drawn
            into, with the same bits as a fresh one; the batch holds it,
            not a copy.
    """
    if n < 1:
        raise ValueError(f"sample count must be >= 1, got {n}")
    check_batch_bytes(n, cb.d)
    if sigma2 <= 0:
        raise ValueError(f"sigma2 must be > 0, got {sigma2}")
    if stratified:
        if n % cb.k != 0:
            raise ValueError(f"stratified batch needs k | n, got n={n}, k={cb.k}")
        labels = np.repeat(np.arange(cb.k, dtype=np.int64), n // cb.k)
    else:
        labels = rng.integers(0, cb.k, size=n, dtype=np.int64)
    # in place, the same bits as centers[labels] + sqrt(sigma2) * noise
    noise = rng.standard_normal((n, cb.d), out=out)
    noise *= np.sqrt(sigma2)
    noise += cb.centers[labels]
    return GmmBatch(noise, labels, float(sigma2))

