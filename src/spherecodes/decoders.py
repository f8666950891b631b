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
import time
from dataclasses import asdict, dataclass, field, fields

import numpy as np

from .channel import sample_gmm
from .codebook import Codebook
from .seeds import rng_for
from .sphere import check_array_bytes, f32_gemm_band, sq_dists, sq_norms

ERASURE = -1

# trials are processed in fixed-size blocks with per-block seeds, so the
# counts do not depend on the order the blocks run in
TRIAL_BLOCK = 1024
# the fewest trials an error estimate accepts
TRIALS_MIN = 100

# _top2 reads its (n, k) GEMM output in row slabs of about this many bytes,
# so each slab's second pass reads cached data
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
    # wall time summed over the blocks: drawing the noise, and decoding
    noise_ms: float = field(default=0.0, compare=False)
    decode_ms: float = field(default=0.0, compare=False)

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


def _top2(g: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per row of g: the argmax (lowest index on ties), the maximum and the
    largest entry at any other index (-inf when g has one column), the
    values in g's dtype.

    Two read-only passes over row slabs of about SLAB_BYTES, so the second
    pass reads the slab from cache. It masks the argmax entry, which is
    restored before the next slab: g is left as it was.
    """
    n, k = g.shape
    best = np.empty(n, dtype=np.int64)
    top = np.empty(n, dtype=g.dtype)
    second = np.empty(n, dtype=g.dtype)
    rows = max(1, SLAB_BYTES // (g.itemsize * k))
    idx = np.arange(rows)
    for lo in range(0, n, rows):
        s = g[lo : lo + rows]
        r = idx[: s.shape[0]]
        b = np.argmax(s, axis=1, out=best[lo : lo + rows])
        t = top[lo : lo + rows]
        t[:] = s[r, b]
        s[r, b] = -np.inf
        np.max(s, axis=1, out=second[lo : lo + rows])
        s[r, b] = t
    return best, top, second


# Every kernel decides a row from the top two entries of its GEMM output
# g = sa @ centers.T (sa = 2 * a for the residual kernels, whose g is
# sq_dists's cross term, taken whole-block as sq_dists takes it: BLAS
# rounds a product computed in row pieces differently). A rule gets the
# argmax b, its entry, the runner-up entry and a per-row band on how far
# each entry may sit from the float64 GEMM's. Every entry but b is at
# most runner-up + band, b's is within band of its own, and the entry at
# the runner-up's index is at least runner-up - band. The residual
# kernels read sq_dists(a, centers) = (ya - g) + xb, so every entry but
# b's is at least (ya - (runner-up + band)) + min(xb): each operation is
# correctly rounded, and rounding is monotone, so these bounds hold in
# floating point exactly as on paper. A rule returns its outcomes and
# the rows they decide for certain.
#
# The block is first decided from a float32 GEMM, which moves half the
# bytes of the float64 one, with the band of sphere.f32_gemm_band. If that
# leaves a row undecided, or a band is not finite, the whole block is
# recomputed in float64 with band 0: the same bounds with no slack. The
# residual kernels then recompute any row still undecided from its g row
# in sq_dists's operation order. Either way every outcome is the one the
# float64 bits give.


def _decide(rule, centers: np.ndarray, sa: np.ndarray, scale: float, ya: np.ndarray, xb: np.ndarray):
    """(out, sure, g) of rule on g = sa @ centers.T, sa = scale * a and ya
    the rows' squared norms of a. g is None when the float32 screen
    decided every row; otherwise it is the float64 g that out and sure
    come from."""
    band = f32_gemm_band(ya, xb, centers.shape[1], scale)
    if np.all(np.isfinite(band)):
        g = sa.astype(np.float32) @ centers.astype(np.float32).T
        out, sure = rule(*_top2(g), band)
        if np.all(sure):
            return out, sure, None
        # free the float32 product before the float64 one is allocated
        del g
    g = sa @ centers.T
    return (*rule(*_top2(g), 0.0), g)


def _refuse_non_finite(ys: np.ndarray, norms: np.ndarray) -> None:
    """Raise ValueError naming the first row of ys with a nan or infinite
    coordinate. norms are the rows' squared norms (of ys or of a positive
    multiple of it): such a row's norm is never finite, so a finite sum of
    the norms clears every row, and otherwise only the rows whose norm is
    not finite (a finite row's can overflow) are read."""
    if math.isfinite(norms.sum()):
        return
    for i in np.flatnonzero(~np.isfinite(norms)):
        if not np.all(np.isfinite(ys[i])):
            raise ValueError(f"observation row {i} has a non-finite coordinate")


def _sq_rows(ya: np.ndarray, g: np.ndarray, xb: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """Rows `rows` of sq_dists(a, centers), from the stored GEMM output."""
    return (ya[rows, None] - g[rows]) + xb


def _nn_batch(centers: np.ndarray, ys: np.ndarray) -> np.ndarray:
    ya, xb = sq_norms(ys), sq_norms(centers)
    _refuse_non_finite(ys, ya)

    def rule(best, top, second, band):
        # b is the unique argmin when every other entry's bound exceeds its own
        return best, (ya - (second + band)) + xb.min() > (ya - (top - band)) + xb[best]

    best, sure, g = _decide(rule, centers, 2.0 * ys, 2.0, ya, xb)
    unsure = np.flatnonzero(~sure)
    if unsure.size:
        best[unsure] = np.argmin(_sq_rows(ya, g, xb, unsure), axis=1)
    return best


def _corr_batch(centers: np.ndarray, ys: np.ndarray, eta1: float, eta2: float) -> np.ndarray:
    d = centers.shape[1]

    def rule(best, top, second, band):
        # division by d is monotone, so (second + band) / d bounds every
        # other correlation. The accept condition needs the maximizer to be
        # the only index at or above 1 - eta2; since 1 - eta1 >= 1 - eta2, an
        # accepted maximizer is such an index, so it is the only one iff
        # every other is below. An accepted row's maximum is then unique, so
        # it is also the argmax of h / d. The row erases for certain when
        # no index reaches 1 - eta1, or when b and the runner-up's index
        # both reach 1 - eta2. With band 0 every non-nan row is decided
        accept = ((top - band) / d >= 1.0 - eta1) & ((second + band) / d < 1.0 - eta2)
        erase = ((top + band) / d < 1.0 - eta1) | ((second - band) / d >= 1.0 - eta2)
        return np.where(accept, best, ERASURE), accept | erase

    ya = sq_norms(ys)
    _refuse_non_finite(ys, ya)
    return _decide(rule, centers, ys, 1.0, ya, sq_norms(centers))[0]


def _mmse_batch(centers: np.ndarray, ys: np.ndarray, alpha: float, tau1: float, tau2: float) -> np.ndarray:
    d = centers.shape[1]
    a = alpha * ys
    ya, xb = sq_norms(a), sq_norms(centers)
    _refuse_non_finite(ys, ya)

    def rule(best, top, second, band):
        # entry b of sq_dists(a, centers) / d lies in [sb_lo, sb_hi]; no
        # other entry is below low, and the one at the runner-up's index is
        # at most high. The rule accepts an index at or below tau1 whose
        # every rival is above tau2, so b is accepted when sb <= tau1 and
        # low > tau2. The row erases for certain when no index is at or
        # below tau1 (sb > tau1 and low > tau1); or when b is at or below
        # tau2, so a rival to every other index, and b fails, by sb > tau1
        # or by high <= tau2
        sb_lo = ((ya - (top + band)) + xb[best]) / d
        sb_hi = ((ya - (top - band)) + xb[best]) / d
        low = ((ya - (second + band)) + xb.min()) / d
        high = ((ya - (second - band)) + xb.max()) / d
        accept = (sb_hi <= tau1) & (low > tau2)
        b_in = sb_hi <= tau2
        erase = ((sb_lo > tau1) & ((low > tau1) | b_in)) | (b_in & (high <= tau2))
        return np.where(accept, best, ERASURE), accept | erase

    out, sure, g = _decide(rule, centers, 2.0 * a, 2.0, ya, xb)
    unsure = np.flatnonzero(~sure)
    if unsure.size:
        s = _sq_rows(ya, g, xb, unsure) / d
        ok = (np.min(s, axis=1) <= tau1) & (np.count_nonzero(s <= tau2, axis=1) <= 1)
        out[unsure] = np.where(ok, np.argmin(s, axis=1), ERASURE)
    return out


def decode_batch(cb, ys: np.ndarray, spec: "DecoderSpec") -> np.ndarray:
    """Decode an (n, d) stack under any decoder spec; returns (n,) outcomes.

    Raises ValueError, naming the first such row, when a row has a nan or
    infinite coordinate: it has no nearest center, and no decoder's
    outcome for it would mean anything.
    """
    ys = np.asarray(ys, dtype=np.float64)
    centers = _centers_of(cb)
    if centers.shape[0] == 0:
        if spec.family == "nn":
            raise ValueError("nearest-neighbor decoding needs at least one center")
        _refuse_non_finite(ys, sq_norms(ys))
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
    at_noise builds one from a config entry, expanding its shorthands.
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
        entry = {"kind": "corr", "eta1": eta1}
        if eta2 is not None:
            entry["eta2"] = eta2
        return cls.at_noise(entry, None)

    @classmethod
    def mmse(cls, sigma2: float, c: float = 1.2, c2: float | None = None) -> "DecoderSpec":
        return cls.at_noise({"kind": "mmse", "c": c, "c2": c2}, sigma2)

    @classmethod
    def at_noise(cls, entry: dict, sigma2: float | None) -> "DecoderSpec":
        """The decoder a {"kind": ..., **fields} entry names at noise level
        sigma2: the fields are its family's record fields, with two
        shorthands. {"c": c, "c2": c2} is MmseParams.for_noise(sigma2, c,
        c2), the only use of sigma2, and a missing eta2 is eta1. A bad
        entry raises ValueError or TypeError."""
        params = dict(entry)
        kind = params.pop("kind", None)
        if kind is None:
            raise InvalidDecoderParams("entry needs a 'kind'")
        if "c" in params:
            c, c2 = params.pop("c"), params.pop("c2", None)
            if params:
                raise InvalidDecoderParams(f"unknown {kind} decoder keys {sorted(params)} beside the shorthand c, c2")
            params = asdict(MmseParams.for_noise(sigma2, c=c, c2=c2))
        elif "eta1" in params:
            params.setdefault("eta2", params["eta1"])
        return cls(kind=kind, params=params)


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
    noise_s = decode_s = 0.0
    for block in range((trials + TRIAL_BLOCK - 1) // TRIAL_BLOCK):
        size = min(TRIAL_BLOCK, trials - block * TRIAL_BLOCK)
        t0 = time.perf_counter()
        batch = sample_gmm(cb, sigma2, size, rng_for(master_seed, *seed_path, block))
        t1 = time.perf_counter()
        ys, labels = batch.observations(), batch.privileged_labels()
        out = decode_batch(cb, ys, decoder_spec)
        t2 = time.perf_counter()
        noise_s += t1 - t0
        decode_s += t2 - t1
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
        noise_ms=noise_s * 1000.0,
        decode_ms=decode_s * 1000.0,
    )
