"""Record every workload's CSV determinism hashes for a range of seeds.

Run from the repository root:

    python3 perfbench/record_hashes.py 0 29

Writes perfbench/hashes.json. run.py reports, for each run on a recorded
seed, whether the sweep outputs still hash to the recorded values, so a
change that moves any number in a sweep shows in the benchmark report.
"""

import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
# the benchmark runs with one BLAS thread; record under the same setting
for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[var] = "1"
sys.path[:0] = [os.path.join(ROOT, "src"), HERE]

import bench  # noqa: E402


def main() -> int:
    lo, hi = int(sys.argv[1]), int(sys.argv[2])
    hashes, failing = {}, []
    for workload in bench.WORKLOADS:
        hashes[workload] = {}
        for seed in range(lo, hi + 1):
            per_call, all_rows = [], []
            for calls in bench.subsweeps(workload, seed, quick=False):
                for cmd, cfg in calls:
                    rows = bench.run_sweep_fn(cmd)(bench.expcli.parse_spec(cfg))
                    per_call.append(bench.expcli.determinism_hash(rows, bench.fields_of(cmd)))
                    all_rows += rows
            data, problems = bench.quality(workload == "learn-d6", all_rows)
            if problems:
                failing.append((workload, seed, problems))
            hashes[workload][str(seed)] = per_call
            print(workload, seed, per_call, data, problems, flush=True)
    env = bench.environment(ROOT)
    out = {"git_commit": env["git_commit"], "source_hash": env["source_hash"], "hashes": hashes}
    with open(os.path.join(HERE, "hashes.json"), "w") as f:
        json.dump(out, f, indent=1, sort_keys=True)
        f.write("\n")
    # a seed whose sweep fails a benchmark check would make runs on it incorrect
    for item in failing:
        print("check fails:", *item, file=sys.stderr)
    return 1 if failing else 0


if __name__ == "__main__":
    sys.exit(main())
