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
                     or partial center list, with thresholds widened by the
                     corruption radius; the DecoderSpec kinds
                     mismatched_corr and mismatched_mmse.

Outcomes are integer message indices, or ERASURE (-1) when no index
qualifies. Erasure counts as an error for matched decoding; for partial
codebooks it is the desired outcome on messages with no surviving center.
"""

import json
import math
from dataclasses import dataclass, field

import numpy as np

from .codebook import Codebook
from .seeds import rng_for
from .sphere import sq_dists

ERASURE = -1

# trials are processed in fixed-size blocks so per-block seeds (and hence
# all counts) are independent of worker scheduling
TRIAL_BLOCK = 1024

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
    erasure_rate: float
    ci_low: float
    ci_high: float
    error_count: int = 0
    erasure_count: int = 0

    def __post_init__(self):
        if not (0.0 <= self.ci_low <= self.rho_hat <= self.ci_high <= 1.0):
            raise ValueError("Wilson interval must bracket rho_hat inside [0, 1]")


def wilson_interval(successes: int, trials: int, z: float = 1.959963984540054) -> tuple[float, float]:
    """95% Wilson score interval for a binomial proportion.

    Behaves sensibly at proportions near 0, which is exactly the
    below-capacity regime the experiments probe.
    """
    if trials <= 0:
        raise ValueError("trials must be positive")
    p = successes / trials
    z2 = z * z
    denom = 1.0 + z2 / trials
    center = (p + z2 / (2 * trials)) / denom
    half = z * math.sqrt(p * (1 - p) / trials + z2 / (4 * trials * trials)) / denom
    lo = max(0.0, center - half)
    hi = min(1.0, center + half)
    # clamp against floating slop so the bracket invariant is exact
    return min(lo, p), max(hi, p)


# ---------------------------------------------------------------------------
# single-input decoders


def decode_nn(cb, y: np.ndarray) -> int:
    """Nearest center index; ties broken toward the lowest index."""
    centers = _centers_of(cb)
    if centers.shape[0] == 0:
        raise ValueError("nearest-neighbor decoding needs at least one center")
    return int(_nn_batch(centers, np.asarray(y, dtype=np.float64)[None, :])[0])


def decode_corr(cb, y: np.ndarray, p: CorrParams) -> int:
    """Correlation threshold decoding; ERASURE when no index qualifies."""
    centers = _centers_of(cb)
    if centers.shape[0] == 0:
        return ERASURE
    out = _corr_batch(centers, np.asarray(y, dtype=np.float64)[None, :], p.eta1, p.eta2)
    return int(out[0])


def decode_mmse(cb, y: np.ndarray, p: MmseParams) -> int:
    """Scaled-residual threshold decoding; ERASURE when no index qualifies."""
    centers = _centers_of(cb)
    if centers.shape[0] == 0:
        return ERASURE
    out = _mmse_batch(centers, np.asarray(y, dtype=np.float64)[None, :], p.alpha, p.tau1, p.tau2)
    return int(out[0])


def shift_corr_thresholds(p: CorrParams, eps: float, big_c: float = 1.0) -> CorrParams:
    """Widen correlation thresholds for centers corrupted by sqrt(eps * d).

    A corrupted center moves every correlation by at most about
    (1 + big_c) * sqrt(eps), so the accept bar drops by that much and the
    reject bar rises by it: eta1 -> eta1 + (1+big_c)sqrt(eps),
    eta2 -> eta2 - (1+big_c)sqrt(eps).
    """
    if eps < 0:
        raise InvalidDecoderParams(f"corruption eps must be >= 0, got {eps}")
    shift = (1.0 + big_c) * math.sqrt(eps)
    eta1 = p.eta1 + shift
    eta2 = p.eta2 - shift
    if not 0.0 < eta1 <= eta2 < 1.0:
        raise InvalidDecoderParams(
            f"corruption eps={eps} consumes the threshold gap: "
            f"shifted eta1={eta1:.6f} > eta2={eta2:.6f}"
        )
    return CorrParams(eta1=eta1, eta2=eta2)


def shift_mmse_thresholds(p: MmseParams, eps0: float) -> MmseParams:
    """Widen residual thresholds for corrupted centers.

    sqrt(tau1) grows by sqrt(eps0) and sqrt(tau2) shrinks by it, which
    preserves ordering only while 2 sqrt(eps0) < sqrt(tau2) - sqrt(tau1);
    beyond that the gap is consumed and the parameters are invalid.
    """
    if eps0 < 0:
        raise InvalidDecoderParams(f"corruption eps0 must be >= 0, got {eps0}")
    if eps0 == 0:
        return p
    gap = math.sqrt(p.tau2) - math.sqrt(p.tau1)
    if 2.0 * math.sqrt(eps0) >= gap:
        raise InvalidDecoderParams(
            f"corruption eps0={eps0} consumes the threshold gap "
            f"(2 sqrt(eps0) = {2 * math.sqrt(eps0):.6f} >= {gap:.6f})"
        )
    t1 = (math.sqrt(p.tau1) + math.sqrt(eps0)) ** 2
    t2 = (math.sqrt(p.tau2) - math.sqrt(eps0)) ** 2
    return MmseParams(alpha=p.alpha, tau=p.tau, tau1=t1, tau2=t2)


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


def corr_params_feasible(d: int, k: int, sigma2: float, p: CorrParams) -> bool:
    return p.eta2 < corr_feasibility_bound(d, k, sigma2, p.eta1)


# ---------------------------------------------------------------------------
# vectorized kernels (shared by the scalar wrappers and the estimators)


def _nn_batch(centers: np.ndarray, ys: np.ndarray) -> np.ndarray:
    # ||y - X_i||^2 = ||y||^2 - 2 <y, X_i> + d; the ||y||^2 and d terms are
    # constant in i, so argmax of the dot suffices -- but computing the full
    # distance keeps tie-breaking identical to the documented definition
    return np.argmin(sq_dists(ys, centers), axis=1).astype(np.int64)


def _corr_batch(centers: np.ndarray, ys: np.ndarray, eta1: float, eta2: float) -> np.ndarray:
    d = centers.shape[1]
    corr = (ys @ centers.T) / d
    best = np.argmax(corr, axis=1)
    cmax = corr[np.arange(corr.shape[0]), best]
    # count of indices clearing the reject bar; the accept condition then
    # requires the maximizer to be the only one at or above 1 - eta2
    n_high = np.sum(corr >= 1.0 - eta2, axis=1)
    ok = (cmax >= 1.0 - eta1) & (n_high <= 1)
    out = np.where(ok, best, ERASURE)
    return out.astype(np.int64)


def _mmse_batch(centers: np.ndarray, ys: np.ndarray, alpha: float, tau1: float, tau2: float) -> np.ndarray:
    d = centers.shape[1]
    sq = sq_dists(alpha * ys, centers) / d
    best = np.argmin(sq, axis=1)
    smin = sq[np.arange(sq.shape[0]), best]
    n_low = np.sum(sq <= tau2, axis=1)
    ok = (smin <= tau1) & (n_low <= 1)
    out = np.where(ok, best, ERASURE)
    return out.astype(np.int64)


def decode_batch(cb, ys: np.ndarray, spec: "DecoderSpec") -> np.ndarray:
    """Decode an (n, d) stack under any decoder spec; returns (n,) outcomes."""
    ys = np.asarray(ys, dtype=np.float64)
    centers = _centers_of(cb)
    kind = spec.kind
    if centers.shape[0] == 0:
        if kind == "nn":
            raise ValueError("nearest-neighbor decoding needs at least one center")
        return np.full(ys.shape[0], ERASURE, dtype=np.int64)
    if kind == "nn":
        return _nn_batch(centers, ys)
    if kind in ("corr", "mismatched_corr"):
        p = spec.corr_params()
        return _corr_batch(centers, ys, p.eta1, p.eta2)
    if kind in ("mmse", "mismatched_mmse"):
        p = spec.mmse_params()
        return _mmse_batch(centers, ys, p.alpha, p.tau1, p.tau2)
    raise ValueError(f"unknown decoder kind {kind!r}")


def _exhaustive_scan_check(centers: np.ndarray, ys: np.ndarray, spec: "DecoderSpec") -> None:
    """Debug mode: per input, verify at most one index satisfies the accept
    condition, independently of the argmax/argmin shortcut."""
    d = centers.shape[1]
    kind = spec.kind
    if kind in ("corr", "mismatched_corr"):
        p = spec.corr_params()
        corr = (ys @ centers.T) / d
        accept = (corr >= 1.0 - p.eta1) & (
            np.sum(corr >= 1.0 - p.eta2, axis=1, keepdims=True)
            - (corr >= 1.0 - p.eta2).astype(int)
            == 0
        )
    elif kind in ("mmse", "mismatched_mmse"):
        p = spec.mmse_params()
        sq = sq_dists(p.alpha * ys, centers) / d
        accept = (sq <= p.tau1) & (
            np.sum(sq <= p.tau2, axis=1, keepdims=True) - (sq <= p.tau2).astype(int)
            == 0
        )
    else:
        return
    if np.any(np.sum(accept, axis=1) > 1):
        raise AssertionError("two indices satisfied the accept condition at once")


@dataclass(frozen=True)
class DecoderSpec:
    """Tagged decoder description, JSON-serializable for configs and CSV.

    kind: nn | corr | mmse | mismatched_corr | mismatched_mmse.
    params: threshold fields appropriate to the kind. The mismatched kinds
    carry the already-shifted thresholds, so downstream decode paths treat
    them identically to their matched counterparts.
    """

    kind: str
    params: dict = field(default_factory=dict)

    _KINDS = ("nn", "corr", "mmse", "mismatched_corr", "mismatched_mmse")

    def __post_init__(self):
        if self.kind not in self._KINDS:
            raise ValueError(f"unknown decoder kind {self.kind!r}")
        # fail fast on malformed thresholds
        if self.kind in ("corr", "mismatched_corr"):
            self.corr_params()
        elif self.kind in ("mmse", "mismatched_mmse"):
            self.mmse_params()

    def corr_params(self) -> CorrParams:
        return CorrParams(eta1=float(self.params["eta1"]), eta2=float(self.params["eta2"]))

    def mmse_params(self) -> MmseParams:
        return MmseParams(
            alpha=float(self.params["alpha"]),
            tau=float(self.params["tau"]),
            tau1=float(self.params["tau1"]),
            tau2=float(self.params["tau2"]),
        )

    def to_json(self) -> str:
        return json.dumps({"kind": self.kind, **self.params}, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "DecoderSpec":
        obj = json.loads(text)
        kind = obj.pop("kind")
        return cls(kind=kind, params=obj)

    @classmethod
    def nn(cls) -> "DecoderSpec":
        return cls(kind="nn")

    @classmethod
    def corr(cls, eta1: float, eta2: float | None = None, mismatched: bool = False) -> "DecoderSpec":
        if eta2 is None:
            eta2 = eta1
        kind = "mismatched_corr" if mismatched else "corr"
        return cls(kind=kind, params={"eta1": eta1, "eta2": eta2})

    @classmethod
    def mmse(cls, sigma2: float, c: float = 1.2, c2: float | None = None, mismatched: bool = False) -> "DecoderSpec":
        p = MmseParams.for_noise(sigma2, c=c, c2=c2)
        kind = "mismatched_mmse" if mismatched else "mmse"
        return cls(
            kind=kind,
            params={"alpha": p.alpha, "tau": p.tau, "tau1": p.tau1, "tau2": p.tau2},
        )


# ---------------------------------------------------------------------------
# Monte Carlo estimation


def estimate_error_prob(
    cb: Codebook,
    sigma2: float,
    decoder_spec: DecoderSpec,
    trials: int,
    master_seed: int,
    *,
    workers: int = 1,
    seed_path: tuple[int, ...] = (),
    debug_scan: bool = False,
) -> ErrorEstimate:
    """Average decoding error over uniform messages, with a Wilson 95% CI.

    Erasures count as errors (matched-decoding convention: a declared error
    is still an error). Trials run in fixed blocks whose seeds derive from
    (master_seed, *seed_path, block); counts are therefore bit-identical
    for any worker count.

    Args:
        workers: thread count for block-level parallelism. Results do not
            depend on it.
        seed_path: extra stream-key components (grid index, replicate, ...)
            so sweeps can give every cell an independent stream.
        debug_scan: re-verify accept-uniqueness exhaustively per trial.
    """
    if trials < 100:
        raise ValueError(f"need trials >= 100, got {trials}")
    if sigma2 <= 0:
        raise ValueError(f"sigma2 must be > 0, got {sigma2}")

    blocks = [
        (b, min(TRIAL_BLOCK, trials - b * TRIAL_BLOCK))
        for b in range((trials + TRIAL_BLOCK - 1) // TRIAL_BLOCK)
    ]

    def run_block(args: tuple[int, int]) -> tuple[int, int]:
        block, size = args
        rng = rng_for(master_seed, *seed_path, block)
        labels = rng.integers(0, cb.k, size=size)
        ys = cb.centers[labels] + math.sqrt(sigma2) * rng.standard_normal((size, cb.d))
        out = decode_batch(cb, ys, decoder_spec)
        if debug_scan:
            _exhaustive_scan_check(cb.centers, ys, decoder_spec)
        errors = int(np.sum(out != labels))
        erasures = int(np.sum(out == ERASURE))
        return errors, erasures

    if workers > 1:
        from concurrent.futures import ThreadPoolExecutor

        with ThreadPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(run_block, blocks))
    else:
        results = [run_block(b) for b in blocks]

    error_count = sum(r[0] for r in results)
    erasure_count = sum(r[1] for r in results)
    rho = error_count / trials
    lo, hi = wilson_interval(error_count, trials)
    return ErrorEstimate(
        rho_hat=rho,
        trials=trials,
        erasure_rate=erasure_count / trials,
        ci_low=lo,
        ci_high=hi,
        error_count=error_count,
        erasure_count=erasure_count,
    )


def p_approx_profile(
    cb: Codebook,
    partial_cb: Codebook,
    matching: np.ndarray,
    sigma2: float,
    decoder_spec: DecoderSpec,
    trials_per_message: int,
    master_seed: int,
    *,
    seed_path: tuple[int, ...] = (),
) -> tuple[np.ndarray, float]:
    """Per-message success rates when decoding against a partial center list.

    matching maps partial indices l in [m] to true indices in [k],
    injectively. For a true message i covered by the matching, success
    means the decoder returns the l with matching[l] == i; for an uncovered
    i, success means ERASURE (the decoder is supposed to notice the center
    is missing). Returns (success_rate_per_true_message, average).
    """
    matching = np.asarray(matching, dtype=np.int64)
    partial_centers = _centers_of(partial_cb) if partial_cb is not None else np.empty((0, cb.d))
    m = partial_centers.shape[0]
    if matching.shape != (m,):
        raise ValueError(f"matching must have shape ({m},)")
    if m > 0:
        if len(np.unique(matching)) != m or matching.min() < 0 or matching.max() >= cb.k:
            raise ValueError("matching must be an injection into the true index set")
    if sigma2 <= 0:
        raise ValueError(f"sigma2 must be > 0, got {sigma2}")

    # true index -> partial index, or ERASURE when uncovered
    inverse = np.full(cb.k, ERASURE, dtype=np.int64)
    inverse[matching] = np.arange(m, dtype=np.int64)

    success = np.zeros(cb.k, dtype=np.int64)
    for i in range(cb.k):
        rng = rng_for(master_seed, *seed_path, i)
        ys = cb.centers[i] + math.sqrt(sigma2) * rng.standard_normal(
            (trials_per_message, cb.d)
        )
        out = decode_batch(partial_centers, ys, decoder_spec)
        success[i] = int(np.sum(out == inverse[i]))
    rates = success / trials_per_message
    return rates, float(rates.mean())
