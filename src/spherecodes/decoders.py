"""Channel decoders and Monte Carlo error estimation.

Four decoder families over a codebook of on-sphere centers:

  nearest neighbor   argmin_i ||y - X_i||^2, never erases; optimal for the
                     average error over uniform messages.
  correlation        accept i iff d^-1 <y, X_i> >= 1 - eta1 and every other
                     index stays below 1 - eta2; erases otherwise. Suited to
                     the low-rate regime where sigma2 grows with d.
  mmse threshold     accept i iff d^-1 ||alpha y - X_i||^2 <= tau1 and every
                     other index exceeds tau2, alpha = 1/(1+sigma2),
                     tau = sigma2 * alpha. Suited to fixed positive rates.
  mismatched         the same accept/reject shapes run against a corrupted
                     or partial center list, with thresholds the caller
                     supplies; the DecoderSpec kinds mismatched_corr and
                     mismatched_mmse.

Outcomes are integer message indices, or ERASURE (-1) when no index
qualifies. Erasure counts as an error for matched decoding; for partial
codebooks it is the desired outcome on messages with no surviving center.
"""

import math
import numbers
from dataclasses import asdict, dataclass, field, fields

import numpy as np

from .channel import sample_gmm
from .codebook import Codebook
from .seeds import rng_for
from .sphere import check_array_bytes, sq_dists

ERASURE = -1

# trials are processed in fixed-size blocks with per-block seeds, so the
# counts do not depend on the order the blocks run in
TRIAL_BLOCK = 1024
# the fewest trials an error estimate accepts
TRIALS_MIN = 100

# _scan post-processes its (n, k) distance matrix in row slabs of about this
# many bytes, so each slab's in-place passes run on cached data
SLAB_BYTES = 256 * 1024

# Decode targets may be a Codebook or a bare (m, d) array: partial center
# lists from the learner can be smaller than 2 and corrupted center lists
# need not lie exactly on the sphere, so they skip Codebook's invariants.
def _centers_of(targets) -> np.ndarray:
    c = getattr(targets, "centers", targets)
    c = np.asarray(c, dtype=np.float64)
    if c.ndim != 2:
        raise ValueError(f"decode targets must be (m, d), got shape {c.shape}")
    return c


class InvalidDecoderParams(ValueError):
    """Threshold set violates the decoder's own consistency rules."""


@dataclass(frozen=True)
class CorrParams:
    """Correlation decoder thresholds, 0 < eta1 <= eta2 < 1."""

    eta1: float
    eta2: float

    def __post_init__(self):
        if not 0.0 < self.eta1 <= self.eta2 < 1.0:
            raise InvalidDecoderParams(
                f"need 0 < eta1 <= eta2 < 1, got eta1={self.eta1}, eta2={self.eta2}"
            )


@dataclass(frozen=True)
class MmseParams:
    """Scaled-residual decoder parameters.

    alpha = 1/(1+sigma2) is the scalar Wiener coefficient, tau = sigma2 *
    alpha the matched residual level (alpha + tau = 1). Accept below tau1,
    demand all competitors above tau2.
    """

    alpha: float
    tau: float
    tau1: float
    tau2: float

    def __post_init__(self):
        if not (self.tau <= self.tau1 <= self.tau2):
            raise InvalidDecoderParams(
                f"need tau <= tau1 <= tau2, got tau={self.tau}, tau1={self.tau1}, tau2={self.tau2}"
            )
        if abs(self.alpha + self.tau - 1.0) > 1e-12:
            raise InvalidDecoderParams(
                f"alpha + tau must be 1, got {self.alpha + self.tau}"
            )

    @classmethod
    def for_noise(cls, sigma2: float, c: float = 1.2, c2: float | None = None) -> "MmseParams":
        """Thresholds tau1 = c * tau, tau2 = c2 * tau (default c2 = c^2, c > 1)."""
        if sigma2 <= 0:
            raise InvalidDecoderParams(f"sigma2 must be > 0, got {sigma2}")
        if c < 1.0:
            raise InvalidDecoderParams(f"threshold factor c must be >= 1, got {c}")
        alpha = 1.0 / (1.0 + sigma2)
        tau = sigma2 * alpha
        if c2 is None:
            c2 = c * c
        return cls(alpha=alpha, tau=tau, tau1=c * tau, tau2=c2 * tau)


@dataclass(frozen=True)
class ErrorEstimate:
    """Monte Carlo estimate of the average decoding error."""

    rho_hat: float
    trials: int
    ci_low: float
    ci_high: float
    error_count: int = 0
    erasure_count: int = 0

    def __post_init__(self):
        if not (0.0 <= self.ci_low <= self.rho_hat <= self.ci_high <= 1.0):
            raise ValueError("Wilson interval must bracket rho_hat inside [0, 1]")


def wilson_interval(successes: int, trials: int) -> tuple[float, float]:
    """95% Wilson score interval for a binomial proportion.

    Behaves sensibly at proportions near 0, which is exactly the
    below-capacity regime the experiments probe.
    """
    if trials <= 0:
        raise ValueError("trials must be positive")
    p = successes / trials
    z = 1.959963984540054
    z2 = z * z
    denom = 1.0 + z2 / trials
    center = (p + z2 / (2 * trials)) / denom
    half = z * math.sqrt(p * (1 - p) / trials + z2 / (4 * trials * trials)) / denom
    lo = max(0.0, center - half)
    hi = min(1.0, center + half)
    # clamp against floating slop so the bracket invariant is exact
    return min(lo, p), max(hi, p)


# ---------------------------------------------------------------------------
# single-input decoders: one row of decode_batch, which holds the kernel
# choice and the empty-list policy


def decode_nn(cb, y: np.ndarray) -> int:
    """Nearest center index; ties broken toward the lowest index."""
    return int(decode_batch(cb, np.asarray(y)[None, :], DecoderSpec.nn())[0])


def decode_corr(cb, y: np.ndarray, p: CorrParams) -> int:
    """Correlation threshold decoding; ERASURE when no index qualifies."""
    return int(decode_batch(cb, np.asarray(y)[None, :], DecoderSpec.corr(p.eta1, p.eta2))[0])


def decode_mmse(cb, y: np.ndarray, p: MmseParams) -> int:
    """Scaled-residual threshold decoding; ERASURE when no index qualifies."""
    return int(decode_batch(cb, np.asarray(y)[None, :], DecoderSpec(kind="mmse", params=asdict(p)))[0])


def corr_feasibility_bound(d: int, k: int, sigma2: float, eta1: float) -> float:
    """Largest eta2 for which the correlation thresholds are analyzable.

    The accept/reject pair (eta1, eta2) is feasible when

        eta1 <= eta2 < 1 - sqrt(2 ln(k-1)/d + eta1^2/sigma2)
                         - sqrt(2 sigma2 ln(k-1)/d).

    Returns the right-hand side; values <= eta1 mean no feasible eta2
    exists for this eta1 at these channel parameters.
    """
    if k < 2:
        raise ValueError("need k >= 2")
    if sigma2 <= 0:
        raise ValueError("need sigma2 > 0")
    lk = math.log(k - 1) if k > 2 else 0.0
    return 1.0 - math.sqrt(2.0 * lk / d + eta1 * eta1 / sigma2) - math.sqrt(
        2.0 * sigma2 * lk / d
    )


# ---------------------------------------------------------------------------
# vectorized kernels, reached only through decode_batch


def _scan(
    centers: np.ndarray, a: np.ndarray, d_div: bool, with_runner_up: bool = True
) -> tuple[np.ndarray, np.ndarray, np.ndarray | None]:
    """Per row of sq_dists(a, centers), divided by d when d_div: the argmin
    (lowest index on ties), the minimum and, when with_runner_up, the
    runner-up minimum (the smallest entry at any other index; inf when
    k = 1), else None.

    One GEMM for the whole block, then in-place passes over row slabs of
    about SLAB_BYTES in sq_dists's own operation order, so every entry has
    the same bits as sq_dists(a, centers) (/ d). The GEMM is never split
    by rows: BLAS rounds a product computed in row pieces differently.
    """
    n, d = a.shape
    ya = np.sum(a * a, axis=1, keepdims=True)
    xb = np.sum(centers * centers, axis=1)
    g = 2.0 * a @ centers.T
    best = np.empty(n, dtype=np.int64)
    smin = np.empty(n)
    runner_up = np.empty(n) if with_runner_up else None
    rows = max(1, SLAB_BYTES // (8 * centers.shape[0]))
    idx = np.arange(rows)
    for lo in range(0, n, rows):
        s = g[lo : lo + rows]
        r = idx[: s.shape[0]]
        np.subtract(ya[lo : lo + rows], s, out=s)
        s += xb
        if d_div:
            s /= d
        b = np.argmin(s, axis=1)
        best[lo : lo + rows] = b
        smin[lo : lo + rows] = s[r, b]
        if with_runner_up:
            s[r, b] = np.inf
            np.min(s, axis=1, out=runner_up[lo : lo + rows])
    return best, smin, runner_up


def _nn_batch(centers: np.ndarray, ys: np.ndarray) -> np.ndarray:
    return _scan(centers, ys, d_div=False, with_runner_up=False)[0]


def _corr_batch(centers: np.ndarray, ys: np.ndarray, eta1: float, eta2: float) -> np.ndarray:
    d = centers.shape[1]
    corr = (ys @ centers.T) / d
    best = np.argmax(corr, axis=1)
    r = np.arange(corr.shape[0])
    cmax = corr[r, best]
    # the accept condition needs the maximizer to be the only index at or
    # above 1 - eta2; since 1 - eta1 >= 1 - eta2, an accepted maximizer is
    # itself such an index, so it is the only one iff the runner-up is below
    corr[r, best] = -np.inf
    ok = (cmax >= 1.0 - eta1) & (np.max(corr, axis=1) < 1.0 - eta2)
    return np.where(ok, best, ERASURE).astype(np.int64)


def _mmse_batch(centers: np.ndarray, ys: np.ndarray, alpha: float, tau1: float, tau2: float) -> np.ndarray:
    # acceptance needs smin <= tau1 <= tau2, so the winner is itself at or
    # below tau2 and is the only such index iff the runner-up exceeds tau2
    best, smin, runner_up = _scan(centers, alpha * ys, d_div=True, with_runner_up=True)
    ok = (smin <= tau1) & (runner_up > tau2)
    return np.where(ok, best, ERASURE).astype(np.int64)


def decode_batch(cb, ys: np.ndarray, spec: "DecoderSpec") -> np.ndarray:
    """Decode an (n, d) stack under any decoder spec; returns (n,) outcomes."""
    ys = np.asarray(ys, dtype=np.float64)
    centers = _centers_of(cb)
    if centers.shape[0] == 0:
        if spec.family == "nn":
            raise ValueError("nearest-neighbor decoding needs at least one center")
        return np.full(ys.shape[0], ERASURE, dtype=np.int64)
    if spec.family == "nn":
        return _nn_batch(centers, ys)
    if spec.family == "corr":
        p = spec.corr_params()
        return _corr_batch(centers, ys, p.eta1, p.eta2)
    p = spec.mmse_params()
    return _mmse_batch(centers, ys, p.alpha, p.tau1, p.tau2)


def _exhaustive_scan_check(centers: np.ndarray, ys: np.ndarray, spec: "DecoderSpec", out: np.ndarray) -> None:
    """Debug mode: raise AssertionError unless the kernel's outcomes equal
    the rule counted over every index. nn: the row argmin of sq_dists;
    corr, mmse: the index that clears the accept bar while no other index
    clears the reject bar, else ERASURE."""
    d = centers.shape[1]
    if spec.family == "nn":
        expected = np.argmin(sq_dists(ys, centers), axis=1)
    else:
        if spec.family == "corr":
            p = spec.corr_params()
            corr = (ys @ centers.T) / d
            accept, reject_bar = corr >= 1.0 - p.eta1, corr >= 1.0 - p.eta2
        else:
            p = spec.mmse_params()
            sq = sq_dists(p.alpha * ys, centers) / d
            accept, reject_bar = sq <= p.tau1, sq <= p.tau2
        others = np.sum(reject_bar, axis=1, keepdims=True) - reject_bar
        accept &= others == 0
        expected = np.where(accept.any(axis=1), np.argmax(accept, axis=1), ERASURE)
    wrong = int(np.count_nonzero(out != expected))
    if wrong:
        raise AssertionError(f"{spec.kind} kernel disagrees with the exhaustive rule on {wrong} of {len(out)} trials")


# the threshold record each kernel family reads (nn reads none); a
# mismatched_ kind runs its family's kernel on the caller's thresholds
_RECORDS = {"nn": None, "corr": CorrParams, "mmse": MmseParams}
_FAMILIES = {**{f: f for f in _RECORDS}, "mismatched_corr": "corr", "mismatched_mmse": "mmse"}


@dataclass(frozen=True)
class DecoderSpec:
    """Tagged decoder description: a kind and its threshold fields.

    kind: nn | corr | mmse | mismatched_corr | mismatched_mmse. family,
    the kind without its mismatched_ prefix, picks the kernel; the
    mismatched kinds run it on thresholds the caller supplies.
    params: exactly the fields of the family's record in _RECORDS, as
    numbers. Construction checks them and builds the record once; a
    missing, unknown or non-numeric field raises InvalidDecoderParams.
    """

    kind: str
    params: dict = field(default_factory=dict)
    _record: CorrParams | MmseParams | None = field(init=False, default=None, repr=False, compare=False)

    def __post_init__(self):
        if self.kind not in _FAMILIES:
            raise ValueError(f"unknown decoder kind {self.kind!r}")
        record = _RECORDS[self.family]
        names = [f.name for f in fields(record)] if record else []
        unknown = sorted(set(self.params) - set(names))
        if unknown:
            raise InvalidDecoderParams(
                f"unknown {self.kind} decoder fields {unknown}; it takes {' '.join(names) or 'no params'}"
            )
        missing = [n for n in names if n not in self.params]
        if missing:
            raise InvalidDecoderParams(f"{self.kind} decoder is missing fields {missing}")
        for n in names:
            v = self.params[n]
            if isinstance(v, bool) or not isinstance(v, numbers.Real):
                raise InvalidDecoderParams(f"{self.kind} decoder field {n} must be a number, got {v!r}")
        if record:
            object.__setattr__(self, "_record", record(**{n: float(self.params[n]) for n in names}))

    @property
    def family(self) -> str:
        return _FAMILIES[self.kind]

    def corr_params(self) -> CorrParams:
        return self._record

    def mmse_params(self) -> MmseParams:
        return self._record

    @classmethod
    def nn(cls) -> "DecoderSpec":
        return cls(kind="nn")

    @classmethod
    def corr(cls, eta1: float, eta2: float | None = None) -> "DecoderSpec":
        return cls(kind="corr", params={"eta1": eta1, "eta2": eta1 if eta2 is None else eta2})

    @classmethod
    def mmse(cls, sigma2: float, c: float = 1.2, c2: float | None = None) -> "DecoderSpec":
        return cls(kind="mmse", params=asdict(MmseParams.for_noise(sigma2, c=c, c2=c2)))


# ---------------------------------------------------------------------------
# Monte Carlo estimation


def estimate_error_prob(
    cb: Codebook,
    sigma2: float,
    decoder_spec: DecoderSpec,
    trials: int,
    master_seed: int,
    *,
    seed_path: tuple[int, ...] = (),
    debug_scan: bool = False,
) -> ErrorEstimate:
    """Average decoding error over uniform messages, with a Wilson 95% CI.

    Erasures count as errors (matched-decoding convention: a declared error
    is still an error). Trials run in fixed blocks whose seeds derive from
    (master_seed, *seed_path, block), so the counts do not depend on how
    the blocks are scheduled.

    Args:
        seed_path: extra stream-key components (grid index, replicate, ...)
            so sweeps can give every cell an independent stream.
        debug_scan: recompute every block's outcomes by the decoding rule
            over all indices (see _exhaustive_scan_check) and raise
            AssertionError on any trial where the kernel differs.

    Raises ValueError, before the first block, when a block's
    TRIAL_BLOCK x k distance matrix would exceed ARRAY_BYTES_MAX bytes.
    """
    if trials < TRIALS_MIN:
        raise ValueError(f"need trials >= {TRIALS_MIN}, got {trials}")
    if sigma2 <= 0:
        raise ValueError(f"sigma2 must be > 0, got {sigma2}")
    nbytes = TRIAL_BLOCK * cb.k * 8
    check_array_bytes(nbytes, f"decoding k={cb.k} centers needs a {nbytes}-byte distance matrix per block")

    error_count = erasure_count = 0
    for block in range((trials + TRIAL_BLOCK - 1) // TRIAL_BLOCK):
        size = min(TRIAL_BLOCK, trials - block * TRIAL_BLOCK)
        batch = sample_gmm(cb, sigma2, size, rng_for(master_seed, *seed_path, block))
        ys, labels = batch.observations(), batch.privileged_labels()
        out = decode_batch(cb, ys, decoder_spec)
        if debug_scan:
            _exhaustive_scan_check(cb.centers, ys, decoder_spec, out)
        error_count += int(np.sum(out != labels))
        erasure_count += int(np.sum(out == ERASURE))
    rho = error_count / trials
    lo, hi = wilson_interval(error_count, trials)
    return ErrorEstimate(
        rho_hat=rho,
        trials=trials,
        ci_low=lo,
        ci_high=hi,
        error_count=error_count,
        erasure_count=erasure_count,
    )
