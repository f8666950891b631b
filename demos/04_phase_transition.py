"""Decoding error vs inverse-capacity fraction: the phase transition.

Holding the code fixed and sweeping the noise multiplier beta, the error
probability of the nearest-neighbor decoder collapses once the channel is
below capacity (beta > 1) and saturates above it (beta < 1). At d=128 the
transition is already sharp.

Takes about half a minute.
"""

from spherecodes.expcli import parse_spec, run_decode_sweep

spec = parse_spec(
    {
        "kind": "decode_sweep",
        "d": [128],
        "k": [256],
        "beta": [0.25, 0.5, 0.75, 1.0, 1.25, 1.5, 2.0, 3.0],
        "decoders": [{"kind": "nn"}],
        "trials": 4000,
        "replicates": 2,
        "master_seed": 0,
    }
)
rows = run_decode_sweep(spec)

# aggregate the codebook replicates per beta
agg = {}
for r in rows:
    e, t = agg.get(r["beta"], (0, 0))
    agg[r["beta"]] = (e + r["error_count"], t + r["trials"])

print("beta   rho_hat")
for beta in sorted(agg):
    e, t = agg[beta]
    rho = e / t
    bar = "#" * round(50 * rho)
    marker = " <- capacity" if beta == 1.0 else ""
    print(f"{beta:4.2f}  {rho:7.4f}  {bar}{marker}")
