"""No decode outcome, covering certificate or minimum distance depends on
the BLAS kernel: each settles its float64 near ties by sphere.fixed_dot,
whose bits depend on IEEE arithmetic alone."""

import json

import numpy as np

from spherecodes import DecoderSpec, Net, decode_batch, min_distance, rng_for, sample_codebook
from spherecodes import sample_uniform_sphere_batch, verify_covering
from spherecodes.decoders import TRIAL_BLOCK

from .blas_kernels import run_under_kernels
from .oracles import covering_min_sq_ref


def tie_block(seed: int) -> tuple[np.ndarray, np.ndarray]:
    """(centers, ys): +-1 centers in d = 128, k = 256, center 1 one float64
    step from center 0 in a random half of its coordinates, and a block of
    rows drawn near one of the two. Every row's two distances sit within
    rounding of each other, so any BLAS product ranks them by its kernel's
    summation order."""
    d, k = 128, 256
    rng = rng_for(130, seed)
    centers = rng.choice([-1.0, 1.0], size=(k, d))
    step = np.nextafter(centers[0], np.inf * centers[0])
    centers[1] = np.where(rng.random(d) < 0.5, step, centers[0])
    ys = centers[rng.integers(0, 2, size=TRIAL_BLOCK)] + 0.3 * rng.standard_normal((TRIAL_BLOCK, d))
    return centers, ys


def outcomes() -> dict:
    """What the test compares across kernels: nn outcomes on ten tie
    blocks; covering fractions whose targets are probes' fixed-order
    distances, so the probes sit in the certificate's recheck band; and
    the minimum distances of a few codebooks."""
    tie = [decode_batch(*tie_block(seed), DecoderSpec.nn()).tolist() for seed in range(10)]
    net = Net(points=sample_uniform_sphere_batch(16, 3_000, rng_for(131, 16)), eps_I=0.3)
    min_sq = covering_min_sq_ref(net, 400, rng_for(132, 16))
    covering = [
        verify_covering(Net(points=net.points, eps_I=0.3, covering_radius_sq_target=float(t)), 400, rng_for(132, 16))
        for t in min_sq[:20]
    ]
    dist = [min_distance(sample_codebook(64, 300, rng_for(133, seed))) for seed in range(5)]
    return {"tie": tie, "covering": covering, "min_distance": dist}


def test_near_ties_settle_alike_under_every_blas_kernel():
    here = outcomes()
    snippet = "import json\nfrom tests.test_blas_kernels import outcomes\nprint(json.dumps(outcomes()))"
    for kernel, out in run_under_kernels(snippet).items():
        there = json.loads(out)
        moved = int(np.sum(np.array(there["tie"]) != np.array(here["tie"])))
        assert moved == 0, f"{kernel} decodes {moved} of {10 * TRIAL_BLOCK} tie-block rows differently"
        assert there == here, kernel
