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
import threading
import time
from collections.abc import Callable
from dataclasses import asdict, dataclass, field, fields

import numpy as np

from .channel import check_batch_bytes, sample_gmm
from .codebook import Codebook
from .seeds import rng_for
from .sphere import check_array_bytes, fixed_dot, gemm_band, require_number, share_out, sq_norms

ERASURE = -1

# trials are processed in fixed-size blocks with per-block seeds, so the
# counts do not depend on the order the blocks run in
TRIAL_BLOCK = 1024
# the fewest trials an error estimate accepts
TRIALS_MIN = 100

# the decoders form their products in row slabs of about this many bytes,
# one slab at a time: the screen's float32 GEMM writes each slab into one
# buffer and _top2 reads it twice, the second time from cache; the exact
# rule, for the rows the screen leaves, forms 43 or 512 fixed-order rows
# per slab. 1 MiB is half a 2 MiB per-core L2, leaving room for the rest
# of the working set: 87 float32 rows at k = 2981, and the whole 1,024 x
# 256 float32 block at d = 128. No block-sized product is formed, so a
# thread that decodes keeps about one slab in its malloc arena, not the
# 11.6 MiB float32 product of a block at k = 2981.
# Smaller slabs pay numpy's per-call cost on more slices: in the
# criterion-3 sweep 256 KiB ran about 9% slower, while 512 KiB to 2 MiB
# read within 1% of each other. No outcome depends on the value
SLAB_BYTES = 1024 * 1024

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
        """Thresholds tau1 = c * tau, tau2 = c2 * tau (default c2 = c^2, c > 1).
        c and c2 must be finite numbers, not bools."""
        if sigma2 <= 0:
            raise InvalidDecoderParams(f"sigma2 must be > 0, got {sigma2}")
        require_number("threshold factor c", c, "a finite number", error=InvalidDecoderParams)
        if c < 1.0:
            raise InvalidDecoderParams(f"threshold factor c must be >= 1, got {c}")
        if c2 is None:
            c2 = c * c
        require_number("threshold factor c2", c2, "a finite number", error=InvalidDecoderParams)
        alpha = 1.0 / (1.0 + sigma2)
        tau = sigma2 * alpha
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
    # wall times, in ms, of a row whose blocks may run on several threads
    # at once: wall_ms spans the start of its first block, before its
    # codebook is made, to the end of its last, on whichever threads ran
    # them; noise_ms and decode_ms sum each block's draw and decode over
    # every thread, so with T threads their sum is at most T * wall_ms
    wall_ms: float = field(default=0.0, compare=False)
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
    """Per row of g, one slab of about SLAB_BYTES: the argmax (lowest index
    on ties), the maximum and the largest entry at any other index (-inf
    when g has one column), in g's dtype. Two passes over g, so the second
    reads it from cache. It masks the argmax entry and restores it: g is
    left as it was. Each row's three values are exact, so they do not
    depend on the slab height."""
    r = np.arange(g.shape[0])
    best = np.argmax(g, axis=1)
    top = g[r, best]
    g[r, best] = -np.inf
    second = g[r, np.argmax(g, axis=1)]
    g[r, best] = top
    return best, top, second


def _screen(a32: np.ndarray, centers: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """_top2 of the float32 product a32 @ centers.T, formed one row slab of
    about SLAB_BYTES at a time in one buffer, which is freed on return."""
    n, k = a32.shape[0], centers.shape[0]
    c32 = centers.astype(np.float32).T
    rows = max(1, SLAB_BYTES // (4 * k))
    g = np.empty((min(rows, n), k), dtype=np.float32)
    best = np.empty(n, dtype=np.int64)
    top, second = np.empty(n, dtype=np.float32), np.empty(n, dtype=np.float32)
    for lo in range(0, n, rows):
        hi = min(lo + rows, n)
        best[lo:hi], top[lo:hi], second[lo:hi] = _top2(np.matmul(a32[lo:hi], c32, out=g[: hi - lo]))
    return best, top, second


# Each family is a band rule and an exact rule on the fixed-order product
# g = fixed_dot(scale * a[:, None, :], centers), where scale = 2 for the
# residual families, whose g is sq_dists's cross term. _decide runs them
# in two tiers.
#
# The screen takes a float32 GEMM, which moves half the bytes of the
# float64 one, a row slab at a time, and sphere.gemm_band, a per-row bound
# on how far each entry may sit from the fixed-order one, whatever rows a
# product is formed of. The band rule gets the argmax b, its
# entry, the runner-up entry and that band. Every entry but b is at most
# runner-up + band, b's is within band of its own, and the entry at the
# runner-up's index is at least runner-up - band. The residual families
# read the squared distances (ya - g) + xb, in sq_dists's operation
# order, so every entry but b's is at least (ya - (runner-up + band)) +
# min(xb): each operation is correctly rounded, and rounding is monotone,
# so these bounds hold in floating point exactly as on paper. The band
# rule returns its outcomes and the rows they decide for certain.
#
# The rows the screen leaves undecided (near ties, centers a float32 step
# apart), or every row when a screen band is not finite, go to the exact
# rule on their fixed-order products, in slabs of about SLAB_BYTES: every
# outcome is the fixed-order one, on any BLAS.


def _refuse_non_finite(x: np.ndarray, norms: np.ndarray, what: str) -> None:
    """Raise ValueError naming (as what, "observation row" or "center") the
    first row of x with a nan or infinite coordinate. norms are the rows'
    squared norms (of x or of a positive multiple of it): such a row's norm
    is never finite, so a finite sum of the norms clears every row, and
    otherwise only the rows whose norm is not finite (a finite row's can
    overflow) are read."""
    if math.isfinite(norms.sum()):
        return
    for i in np.flatnonzero(~np.isfinite(norms)):
        if not np.all(np.isfinite(x[i])):
            raise ValueError(f"{what} {i} has a non-finite coordinate")


def _decide(band_rule, exact_rule, centers: np.ndarray, ys: np.ndarray, a: np.ndarray, scale: float) -> np.ndarray:
    """A family's outcomes on the rows of ys from g = fixed_dot((scale *
    a)[:, None, :], centers), a = ys or a positive multiple of it, scale 1
    or 2. Both rules see ya and xb, the squared norms of a's rows and of the
    centers: band_rule(best, top, second, band, ya, xb) on the float32
    screen, and exact_rule(g, ya, xb) on a slab of rows of the fixed-order
    g and their ya."""
    (n, d), k = ys.shape, centers.shape[0]
    ya, xb = sq_norms(a), sq_norms(centers)
    _refuse_non_finite(ys, ya, "observation row")
    _refuse_non_finite(centers, xb, "center")
    band = gemm_band(ya, xb, d, scale)
    if np.all(np.isfinite(band)):
        s32 = a.astype(np.float32)
        if scale != 1.0:
            s32 *= scale
        out, sure = band_rule(*_screen(s32, centers), band, ya, xb)
        rows = np.flatnonzero(~sure)
    else:
        out, rows = np.empty(n, dtype=np.int64), np.arange(n)
    if rows.size:
        # fixed_dot reads the centers coordinate-major: lay them out so once
        cm = np.ascontiguousarray(centers.T).T
    step = max(1, SLAB_BYTES // (8 * k))
    for lo in range(0, rows.size, step):
        r = rows[lo : lo + step]
        out[r] = exact_rule(fixed_dot(scale * a[r, None, :], cm), ya[r], xb)
    return out


def _nn_batch(centers: np.ndarray, ys: np.ndarray) -> np.ndarray:
    def band_rule(best, top, second, band, ya, xb):
        # b is the unique argmin when every other entry's bound exceeds its own
        return best, (ya - (second + band)) + xb.min() > (ya - (top - band)) + xb[best]

    def exact_rule(g, ya, xb):
        return np.argmin((ya[:, None] - g) + xb, axis=1)

    return _decide(band_rule, exact_rule, centers, ys, ys, 2.0)


def _corr_batch(centers: np.ndarray, ys: np.ndarray, eta1: float, eta2: float) -> np.ndarray:
    d = centers.shape[1]

    def band_rule(best, top, second, band, ya, xb):
        # division by d is monotone, so (second + band) / d bounds every
        # other correlation. The accept condition needs the maximizer to be
        # the only index at or above 1 - eta2; since 1 - eta1 >= 1 - eta2, an
        # accepted maximizer is such an index, so it is the only one iff
        # every other is below. An accepted row's maximum is then unique, so
        # it is also the argmax of g / d. The row erases for certain when
        # no index reaches 1 - eta1, or when b and the runner-up's index
        # both reach 1 - eta2
        accept = ((top - band) / d >= 1.0 - eta1) & ((second + band) / d < 1.0 - eta2)
        erase = ((top + band) / d < 1.0 - eta1) | ((second - band) / d >= 1.0 - eta2)
        return np.where(accept, best, ERASURE), accept | erase

    def exact_rule(g, ya, xb):
        c = g / d
        ok = (np.max(c, axis=1) >= 1.0 - eta1) & (np.count_nonzero(c >= 1.0 - eta2, axis=1) <= 1)
        return np.where(ok, np.argmax(c, axis=1), ERASURE)

    return _decide(band_rule, exact_rule, centers, ys, ys, 1.0)


def _mmse_batch(centers: np.ndarray, ys: np.ndarray, alpha: float, tau1: float, tau2: float) -> np.ndarray:
    d = centers.shape[1]

    def band_rule(best, top, second, band, ya, xb):
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

    def exact_rule(g, ya, xb):
        s = ((ya[:, None] - g) + xb) / d
        ok = (np.min(s, axis=1) <= tau1) & (np.count_nonzero(s <= tau2, axis=1) <= 1)
        return np.where(ok, np.argmin(s, axis=1), ERASURE)

    return _decide(band_rule, exact_rule, centers, ys, alpha * ys, 2.0)


def decode_batch(cb, ys: np.ndarray, spec: "DecoderSpec") -> np.ndarray:
    """Decode an (n, d) stack under any decoder spec; returns (n,) outcomes.

    Raises ValueError, naming the first such row, when a row of ys or of
    the centers has a nan or infinite coordinate: such a row has no nearest
    center, or is no center, and no decoder's outcome would mean anything.
    """
    ys = np.asarray(ys, dtype=np.float64)
    centers = _centers_of(cb)
    if centers.shape[0] == 0:
        if spec.family == "nn":
            raise ValueError("nearest-neighbor decoding needs at least one center")
        _refuse_non_finite(ys, sq_norms(ys), "observation row")
        return np.full(ys.shape[0], ERASURE, dtype=np.int64)
    if spec.family == "nn":
        return _nn_batch(centers, ys)
    p = spec.record
    if spec.family == "corr":
        return _corr_batch(centers, ys, p.eta1, p.eta2)
    return _mmse_batch(centers, ys, p.alpha, p.tau1, p.tau2)


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
    finite numbers. Construction checks them and builds the record once; a
    missing or unknown field, or one that is not a finite number (a bool
    is not one), raises InvalidDecoderParams.
    record: that CorrParams or MmseParams, the thresholds the kernel
    reads; None for nn.
    at_noise builds one from a config entry, expanding its shorthands.
    """

    kind: str
    params: dict = field(default_factory=dict)
    record: CorrParams | MmseParams | None = field(init=False, default=None, repr=False, compare=False)

    def __post_init__(self):
        if self.kind not in _FAMILIES:
            raise ValueError(f"unknown decoder kind {self.kind!r}")
        rtype = _RECORDS[self.family]
        names = [f.name for f in fields(rtype)] if rtype else []
        unknown = sorted(set(self.params) - set(names))
        if unknown:
            raise InvalidDecoderParams(
                f"unknown {self.kind} decoder fields {unknown}; it takes {' '.join(names) or 'no params'}"
            )
        missing = [n for n in names if n not in self.params]
        if missing:
            raise InvalidDecoderParams(f"{self.kind} decoder is missing fields {missing}")
        for n in names:
            field_name = f"{self.kind} decoder field {n}"
            require_number(field_name, self.params[n], "a finite number", error=InvalidDecoderParams)
        if rtype:
            object.__setattr__(self, "record", rtype(**{n: float(self.params[n]) for n in names}))

    @property
    def family(self) -> str:
        return _FAMILIES[self.kind]

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


@dataclass(frozen=True)
class ErrorRow:
    """One row of estimate_error_rows: a codebook of k centers in
    dimension d, made by codebook() when the first of the row's blocks is
    taken, decoded at noise sigma2 under spec; each block's stream is keyed
    by (master_seed, *seed_path, block). d and k, which must be the
    codebook's, size the byte checks and the sample buffers before any
    codebook exists.

    Args:
        seed_path: extra stream-key components (grid index, replicate, ...)
            so sweeps can give every cell an independent stream.
    """

    codebook: Callable[[], Codebook]
    d: int
    k: int
    sigma2: float
    spec: DecoderSpec
    seed_path: tuple[int, ...] = ()


def estimate_error_prob(
    cb: Codebook,
    sigma2: float,
    decoder_spec: DecoderSpec,
    trials: int,
    master_seed: int,
    *,
    seed_path: tuple[int, ...] = (),
) -> ErrorEstimate:
    """Average decoding error of cb over uniform messages, with a Wilson
    95% CI: estimate_error_rows on one row."""
    row = ErrorRow(lambda: cb, cb.d, cb.k, sigma2, decoder_spec, seed_path)
    return estimate_error_rows([row], trials, master_seed)[0]


def estimate_error_rows(
    rows: list[ErrorRow], trials: int, master_seed: int, *, helpers: int = 1
) -> list[ErrorEstimate]:
    """Each row's average decoding error over uniform messages, with a
    Wilson 95% CI, in row order.

    Erasures count as errors (matched-decoding convention: a declared error
    is still an error). Each row runs trials in fixed blocks whose seeds
    derive from (master_seed, *seed_path, block), so the counts do not
    depend on how the blocks are scheduled: every row's blocks, in row
    order, form one sphere.share_out queue over the calling thread and
    helpers helper threads. A row's codebook is made when its first block
    is taken and dropped after its last block.

    Raises ValueError, before any buffer exists, when trials is below
    TRIALS_MIN, when a row's sigma2 is not positive, or when a row's
    TRIAL_BLOCK x k block at float64 size would exceed ARRAY_BYTES_MAX
    bytes, which bounds k at 65,536 (the decode itself forms its products
    in slabs); and sample_gmm's NetInfeasibleError when a row's batch of
    the first block's size would exceed it.
    """
    if trials < TRIALS_MIN:
        raise ValueError(f"need trials >= {TRIALS_MIN}, got {trials}")
    size = min(TRIAL_BLOCK, trials)
    for row in rows:
        if row.sigma2 <= 0:
            raise ValueError(f"sigma2 must be > 0, got {row.sigma2}")
        nbytes = TRIAL_BLOCK * row.k * 8
        check_array_bytes(nbytes, f"decoding k={row.k} centers is bounded at a {nbytes}-byte float64 block size")
        check_batch_bytes(size, row.d)
    per_row = -(-trials // TRIAL_BLOCK)
    total = per_row * len(rows)
    if not total:
        return []
    # each thread's state, allocated by this one: a sample buffer for the
    # largest d and, per row, its errors, erasures, draw and decode seconds,
    # and the start of its first block and the end of its last
    states = [
        (np.empty(size * max(row.d for row in rows)), [[0, 0, 0.0, 0.0, math.inf, -math.inf] for _ in rows])
        for _ in range(min(1 + helpers, total))
    ]
    # a row's codebook, made under its lock by the first thread that needs
    # it, and its blocks not yet counted
    cbs, left, locks = [None] * len(rows), [per_row] * len(rows), [threading.Lock() for _ in rows]

    def work(i: int, state: tuple) -> None:
        """Draw, decode and count block i into this thread's tally."""
        start = time.perf_counter()
        r, block = divmod(i, per_row)
        row, (buf, tally) = rows[r], state
        with locks[r]:
            if cbs[r] is None:
                cbs[r] = row.codebook()
            cb = cbs[r]
        n = min(TRIAL_BLOCK, trials - block * TRIAL_BLOCK)
        t0 = time.perf_counter()
        rng = rng_for(master_seed, *row.seed_path, block)
        batch = sample_gmm(cb, row.sigma2, n, rng, out=buf[: n * row.d].reshape(n, row.d))
        t1 = time.perf_counter()
        out = decode_batch(cb, batch.observations(), row.spec)
        t2 = time.perf_counter()
        labels = batch.privileged_labels()
        with locks[r]:
            left[r] -= 1
            if not left[r]:
                cbs[r] = None
        t = tally[r]
        for j, v in enumerate((int(np.sum(out != labels)), int(np.sum(out == ERASURE)), t1 - t0, t2 - t1)):
            t[j] += v
        t[4], t[5] = min(t[4], start), time.perf_counter()

    share_out(total, work, states)
    tallies = [tally for _, tally in states]
    estimates = []
    for r in range(len(rows)):
        errors, erasures, draw_s, decode_s = (sum(t[r][j] for t in tallies) for j in range(4))
        lo, hi = wilson_interval(errors, trials)
        estimates.append(
            ErrorEstimate(
                rho_hat=errors / trials,
                trials=trials,
                ci_low=lo,
                ci_high=hi,
                error_count=errors,
                erasure_count=erasures,
                wall_ms=(max(t[r][5] for t in tallies) - min(t[r][4] for t in tallies)) * 1000.0,
                noise_ms=draw_s * 1000.0,
                decode_ms=decode_s * 1000.0,
            )
        )
    return estimates
