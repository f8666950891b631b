#!/usr/bin/env bash
# Tour of the command-line interface. Every experiment is described by a
# JSON spec (or quick grid flags), writes a CSV with config and
# determinism hashes in the header, and any recorded row can be replayed
# later to prove the run reproduces bit-for-bit.
set -euo pipefail

cd "$(dirname "$0")/.."
WORK=$(mktemp -d)
trap 'rm -rf "$WORK"' EXIT

echo '== bounds report =='
spherecodes bounds --d 64 --k 256

echo
echo '== decode sweep =='
cat > "$WORK/sweep.json" <<'EOF'
{
  "kind": "decode_sweep",
  "d": [64],
  "k": [256],
  "beta": [0.5, 1.0, 2.0],
  "decoders": [{"kind": "nn"}, {"kind": "mmse", "c": 1.2, "c2": 1.2}],
  "trials": 2000,
  "replicates": 2,
  "master_seed": 7
}
EOF
spherecodes decode-sweep --config "$WORK/sweep.json" --out "$WORK/sweep.csv"
head -5 "$WORK/sweep.csv"
echo "... ($(wc -l < "$WORK/sweep.csv") lines)"

echo
echo '== replay one recorded row (bit-for-bit check) =='
ROW=$(grep -v '^#' "$WORK/sweep.csv" | sed -n '2p' | cut -d, -f1)
spherecodes decode-sweep --config "$WORK/sweep.json" --out "$WORK/sweep.csv" --replay "$ROW"

echo
echo '== phase transition summary =='
spherecodes phase-transition --d 16 --k 8 --beta 0.5,1.0,2.0 --seed 13

echo
echo '== learner experiment =='
cat > "$WORK/learn.json" <<'EOF'
{
  "kind": "learn",
  "d": [6],
  "k": [4],
  "beta": [2.0],
  "replicates": 3,
  "master_seed": 0,
  "probes": 1000,
  "learner": {
    "eps_I": 0.25,
    "N": 2000,
    "Nbar": 273,
    "test_kind": "zero_rate",
    "decoder_kind": "mismatched_mmse",
    "mmse_c": 1.4,
    "mmse_c2": 1.4,
    "threshold_const": 0.25,
    "C_net": 16.0
  }
}
EOF
spherecodes learn --config "$WORK/learn.json" --out "$WORK/learn.csv"
grep -v '^#' "$WORK/learn.csv" | cut -d, -f1,2,3,4,9,10,12

echo
echo '== net statistics =='
spherecodes net-stats --d 4,6 --seed 0
