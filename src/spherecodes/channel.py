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

    @property
    def n(self) -> int:
        return self._samples.shape[0]

    @property
    def d(self) -> int:
        return self._samples.shape[1]

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


def _check_batch_size(n: int, d: int) -> None:
    """n >= 1, and the (n, d) samples plus n labels fit ARRAY_BYTES_MAX;
    checked before anything is drawn."""
    if n < 1:
        raise ValueError(f"sample count must be >= 1, got {n}")
    nbytes = n * (d + 1) * 8
    check_array_bytes(nbytes, f"a batch of n={n} samples in dimension {d} needs {nbytes} bytes")


def _draw_labels(k: int, n: int, rng: np.random.Generator, stratified: bool) -> np.ndarray:
    if stratified:
        if n % k != 0:
            raise ValueError(f"stratified batch needs k | n, got n={n}, k={k}")
        return np.repeat(np.arange(k, dtype=np.int64), n // k)
    return rng.integers(0, k, size=n, dtype=np.int64)


def sample_gmm(
    cb: Codebook,
    sigma2: float,
    n: int,
    rng: np.random.Generator,
    stratified: bool = False,
) -> GmmBatch:
    """n draws of Y = X_label + sigma * Z.

    Labels uniform on [k] (or exactly n/k each in stratified mode), noise
    standard Gaussian, independent of the labels. Deterministic given the
    rng state.

    Args:
        stratified: exact per-label balance, for the genie baseline.
    """
    _check_batch_size(n, cb.d)
    if sigma2 <= 0:
        raise ValueError(
            f"sigma2 must be > 0, got {sigma2}; use sample_noiseless for sigma=0"
        )
    labels = _draw_labels(cb.k, n, rng, stratified)
    # in place, the same bits as centers[labels] + sqrt(sigma2) * noise
    noise = rng.standard_normal((n, cb.d))
    noise *= np.sqrt(sigma2)
    noise += cb.centers[labels]
    return GmmBatch(noise, labels, float(sigma2))


def sample_noiseless(
    cb: Codebook, n: int, rng: np.random.Generator, stratified: bool = False
) -> GmmBatch:
    """Degenerate sigma = 0 batch: every sample equals its center exactly."""
    _check_batch_size(n, cb.d)
    labels = _draw_labels(cb.k, n, rng, stratified)
    return GmmBatch(cb.centers[labels].copy(), labels, 0.0)
