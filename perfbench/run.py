"""spherecodes benchmark: one workload, one fresh process.

Run from the root of a checkout:

    python3 perfbench/run.py --workload decode-zero-rate --seed 1 --seconds 25 --trace 0

--trace 0 prints the end-to-end metrics, --trace 1 the per-layer metrics of
a traced replay. --quick shrinks every workload to a smoke test. The last
line of stdout is the result JSON; the line before it is a report with the
environment, the CSV determinism hashes and the workload's quality figures.
Exits non-zero without a result when the checkout has no package to run.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))

WORKLOADS = ("decode-zero-rate", "decode-positive-rate", "learn-d6")
END_TO_END = {"setup_s": "s", "trials_per_ref": "trials/ref", "replay_refs": "ref", "peak_rss_mb": "MiB"}
PER_LAYER = {
    "seeds.rng_for_ms": "ms",
    "codebook.sample_codebook_ms": "ms",
    "decoders.noise_ms": "ms",
    "decoders.decode_batch_ms": "ms",
    "decoders.gemm_floor_ms": "ms",
    "decoders.decode_over_gemm": "ratio",
    "decoders.dist_entries": "count",
    "decoders.gemm_gflop": "GFLOP",
    "decoders.trials": "count",
    "decoders.erasure_ratio": "ratio",
    "sphere.build_net_ms": "ms",
    "sphere.net_points": "count",
    "sphere.net_bytes": "bytes",
    "sphere.verify_covering_ms": "ms",
    "sphere.covering_dist_evals": "count",
    "sphere.covering_fraction": "ratio",
    "channel.sample_gmm_ms": "ms",
    "channel.samples": "count",
    "learner.step1_screen_ms": "ms",
    "learner.screen_pairs": "count",
    "learner.screen_pass_ratio": "ratio",
    "learner.select_candidates_ms": "ms",
    "learner.select_candidates_ms.beta0.5": "ms",
    "learner.select_kept_ratio": "ratio",
    "learner.select_kept_ratio.beta0.5": "ratio",
    "learner.step2_cluster_average_ms": "ms",
    "learner.step2_erasure_ratio": "ratio",
    "learner.genie_estimator_ms": "ms",
    "learner.loss_ms": "ms",
    "expcli.run_sweep_ms": "ms",
    "expcli.write_csv_ms": "ms",
    "expcli.determinism_hash_ms": "ms",
    "expcli.replay_ms": "ms",
    "trace_overhead_ratio": "ratio",
}

# Set-up samples per run (one more comes from the workload process itself);
# setup_s is their median.
SETUP_PROBES = 6
# A workload process that runs longer than this is stopped and the run fails.
CHILD_TIMEOUT_S = 150.0


def child_env(root: str) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(root, "src")
    # one BLAS thread on both sides of any comparison: steadier on a shared
    # machine than letting OpenBLAS size its pool from the core count
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    # keep freed blocks in glibc's heap: by default each 24 MB decode
    # temporary is mmap'ed, returned on free and faulted in again on the next
    # block, and on a shared VM the cost of those page faults swings with
    # the neighbours' load far more than the arithmetic does
    env["MALLOC_MMAP_THRESHOLD_"] = str(1 << 28)
    env["MALLOC_TRIM_THRESHOLD_"] = str(1 << 30)
    return env


def spawn(args: list[str], root: str, timeout: float) -> tuple[float, dict]:
    """Run bench.py in a fresh interpreter; returns (spawn time, its result JSON)."""
    t_spawn = time.monotonic()
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "bench.py"), *args],
        cwd=root,
        env=child_env(root),
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        timeout=timeout,
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr[-4000:])
        raise RuntimeError(f"workload process exited {proc.returncode}")
    return t_spawn, json.loads(lines[-1])


def hash_status(workload: str, seed: int, hashes: list[str], quick: bool) -> str:
    """Compare a run's determinism hashes with the ones recorded in hashes.json."""
    if quick:
        return "not recorded for --quick"
    with open(os.path.join(HERE, "hashes.json")) as f:
        recorded = json.load(f)["hashes"].get(workload, {}).get(str(seed))
    if recorded is None:
        return "seed not recorded"
    # a traced run may cover only the first sub-sweeps
    if recorded[: len(hashes)] != hashes:
        return f"CHANGED from recorded {recorded}"
    return "unchanged" if len(hashes) == len(recorded) else f"unchanged for the {len(hashes)} sweep calls run"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="spherecodes benchmark")
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--quick", action="store_true", help="smoke-test sizes, one repetition")
    args = ap.parse_args(argv)

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "spherecodes", "__init__.py")):
        print("no src/spherecodes here: run from the root of a spherecodes checkout", file=sys.stderr)
        return 2

    out_dir = os.path.join(root, ".perfbench")
    os.makedirs(out_dir, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="run-", dir=out_dir)
    base = ["--workload", args.workload, "--seed", str(args.seed), "--workdir", workdir]
    if args.quick:
        base.append("--quick")
    try:
        # first import compiles bytecode; users pay that once, not per run
        spawn([*base, "--setup-only"], root, CHILD_TIMEOUT_S)
        setup = []
        for _ in range(1 if args.quick else SETUP_PROBES):
            t_spawn, res = spawn([*base, "--setup-only"], root, CHILD_TIMEOUT_S)
            setup.append(res["ready"] - t_spawn)
        spans = os.path.join(out_dir, f"spans-{args.workload}-seed{args.seed}.jsonl")
        run_args = [*base, "--seconds", str(args.seconds), "--trace", str(args.trace)]
        if args.trace:
            run_args += ["--spans", spans]
        t_spawn, res = spawn(run_args, root, CHILD_TIMEOUT_S)
        setup.append(res["ready"] - t_spawn)
    except (RuntimeError, subprocess.TimeoutExpired, ValueError, KeyError) as exc:
        print(f"benchmark run failed: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if "metrics" not in res:
        print(f"no measurement completed: {res['problems']}", file=sys.stderr)
        return 1

    values = {**res["metrics"], "setup_s": statistics.median(setup)}
    units = PER_LAYER if args.trace else END_TO_END
    if set(units) - set(values):
        print(f"workload process did not report {sorted(set(units) - set(values))}", file=sys.stderr)
        return 1
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in units.items()}
    report = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "environment": res["environment"],
        "determinism_hash": res["hashes"],
        "determinism_hash_status": hash_status(args.workload, args.seed, res["hashes"], args.quick),
        "data": {**res["data"], "setup_samples_s": setup},
        "problems": res["problems"],
    }
    print(json.dumps({"report": report}))
    print(
        json.dumps(
            {
                "correct": not res["problems"] and res["failed"] == 0,
                "attempted": res["attempted"],
                "failed": res["failed"],
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
