"""Gaussian mixtures on the sphere as random channel codes.

Sampling of spherical codebooks, AWGN/mixture channels with hidden labels,
erasure-capable decoders, Monte Carlo error estimation, the two-step
center-learning pipeline, and the closed-form information-theoretic
reference curves. All rates are in nats per dimension.
"""

__version__ = "0.1.0"

from .bounds import (
    binary_entropy,
    capacity,
    capacity_inv,
    labeled_mi_upper,
    quantitative_lower_curve,
    rdf_lower_bound,
    sc_lower_trivial,
    single_sample_mi_upper,
)
from .channel import GmmBatch, sample_gmm
from .codebook import (
    ChannelParams,
    Codebook,
    load_codebook,
    min_distance,
    noise_for_beta,
    rate,
    sample_codebook,
    save_codebook,
)
from .decoders import (
    ERASURE,
    CorrParams,
    DecoderSpec,
    ErrorEstimate,
    InvalidDecoderParams,
    MmseParams,
    corr_feasibility_bound,
    decode_batch,
    estimate_error_prob,
    wilson_interval,
)
from .learner import (
    LearnerConfig,
    LearnerResult,
    MatchResult,
    genie_estimator,
    loss_avg,
    loss_max,
    match_centers,
    run_learner,
    select_candidates,
    step1_screen,
    step2_cluster_average,
)
from .seeds import derive_key, rng_for
from .sphere import (
    Net,
    NetInfeasibleError,
    build_net,
    is_on_sphere,
    net_size,
    project_ball,
    sample_uniform_sphere_batch,
    verify_covering,
)
