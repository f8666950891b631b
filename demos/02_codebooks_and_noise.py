"""Spherical codebooks: rate, matched noise level, minimum distance, disk I/O."""

import math
import os
import tempfile

from spherecodes import (
    load_codebook,
    min_distance,
    noise_for_beta,
    rate,
    rng_for,
    sample_codebook,
    save_codebook,
)

for d, k in [(16, 8), (64, 256), (16, 2981)]:
    print(f"d={d:3d} k={k:4d}  rate={rate(d, k):.4f} nats/dim")

# beta > 1 puts the channel below capacity, beta < 1 above it
d, k = 64, 256
print()
for beta in (0.5, 1.0, 2.0):
    p = noise_for_beta(d, k, beta)
    side = "below" if beta > 1 else ("at" if beta == 1 else "above")
    print(f"beta={beta:.1f}  sigma2={p.sigma2:.4f}  ({side} capacity)")

cb = sample_codebook(d, k, rng_for(7, 0))
md = min_distance(cb)
print(f"\nmin pairwise distance over {k} centers: {md:.4f}")
print(f"near-orthogonal random centers would give sqrt(2d) = {math.sqrt(2 * d):.4f};")
print("the gap is the closest pair out of k*(k-1)/2 tries")

# the container round-trips bit-exactly
with tempfile.TemporaryDirectory() as tmpdir:
    tmp = os.path.join(tmpdir, "cb.sphcbk")
    save_codebook(cb, tmp)
    back = load_codebook(tmp)
    print("\nsaved and reloaded:", (back.centers == cb.centers).all(),
          f"({os.path.getsize(tmp)} bytes)")
print("rate of k =", k, "at d =", d, "is ln(k)/d =", math.log(k) / d)
