"""The benchmark's recorded sweep hashes still hold.

perfbench/hashes.json pins each workload's CSV determinism hashes per
benchmark seed. This recomputes seed 0's hashes for every workload the way
perfbench/record_hashes.py does, in a fresh process with one BLAS thread,
and writes nothing.
"""

import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

SEED = 0

# prints {workload: [hash per CLI sweep call]} for one benchmark seed
SCRIPT = """
import json, sys
sys.path[:0] = sys.argv[1:3]
import bench
seed = int(sys.argv[3])
out = {}
for workload in bench.WORKLOADS:
    out[workload] = [
        bench.expcli.determinism_hash(
            bench.run_sweep_fn(cmd)(bench.expcli.parse_spec(cfg)), bench.fields_of(cmd)
        )
        for calls in bench.subsweeps(workload, seed, quick=False)
        for cmd, cfg in calls
    ]
print(json.dumps(out))
"""


def test_seed0_sweep_hashes_equal_the_recorded_ones():
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    proc = subprocess.run(
        [sys.executable, "-B", "-c", SCRIPT, os.path.join(ROOT, "src"), os.path.join(ROOT, "perfbench"), str(SEED)],
        cwd=ROOT,
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    got = json.loads(proc.stdout.strip().splitlines()[-1])
    with open(os.path.join(ROOT, "perfbench", "hashes.json")) as f:
        recorded = json.load(f)["hashes"]
    assert set(got) == set(recorded)
    for workload, hashes in got.items():
        assert hashes == recorded[workload][str(SEED)], workload
