"""One benchmark workload, run in a fresh process.

Started by run.py with PYTHONPATH pointing at the checkout's src/ and the
BLAS thread count fixed in the environment. Modes:

  --setup-only   import the package and parse the workload's configs, print
                 the monotonic time at which the first sweep call would
                 start, and exit (set-up samples for setup_s).
  --trace 0      repeat the workload's CLI sweep calls plus one CLI replay
                 until --seconds have passed; report end-to-end numbers.
  --trace 1      run the program's sweep functions, then replay every row
                 stage by stage through the package's public functions with
                 a span around each call, assert the replay reproduces the
                 program's output exactly, and report per-layer numbers.

The last line of stdout is one JSON object for run.py.
"""

import argparse
import contextlib
import io
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import time
from collections import defaultdict

import numpy as np

from spherecodes import (
    Codebook,
    DecoderSpec,
    GmmBatch,
    build_net,
    decode_batch,
    genie_estimator,
    loss_avg,
    loss_max,
    noise_for_beta,
    rng_for,
    run_learner,
    sample_codebook,
    sample_gmm,
    select_candidates,
    step1_screen,
    step2_cluster_average,
    verify_covering,
)
from spherecodes import expcli
from spherecodes.decoders import ERASURE, TRIAL_BLOCK
from spherecodes.learner import LearnerConfig, build_step2_decoder

WORKLOADS = ("decode-zero-rate", "decode-positive-rate", "learn-d6")

# Stream tags of expcli's sweeps (codebook, Monte Carlo trials, learner) and
# of run_learner's four streams. The traced replay re-derives every stream
# from them; if the program changes its recipe the replay stops matching
# and the traced run fails instead of timing a different program.
STREAM_CODEBOOK, STREAM_TRIALS, STREAM_LEARNER = 0, 1, 2
LEARNER_NET, LEARNER_STEP1, LEARNER_STEP2, LEARNER_PROBES = 0, 1, 2, 3

# criterion-6 learner settings; Nbar follows the criterion, 4 k sigma2 / eps
C6_EPS = 0.05
C6_LEARNER = {
    "eps_I": 0.25,
    "N": 2000,
    "test_kind": "zero_rate",
    "decoder_kind": "mismatched_mmse",
    "mmse_c": 1.4,
    "mmse_c2": 1.4,
    "threshold_const": 0.25,
    "C_net": 16.0,
}
BETA_BELOW, BETA_ABOVE = 2.0, 0.5
# learn-d6 runs per beta. The 3x median-loss check needs several rows to
# hold on almost every seed: over 60 seeds it failed on 3 of them with one
# row per beta, and resampling those rows puts four rows at about 0.2% and
# six at about 0.05%. Each pair of runs is its own sub-sweep with a derived
# master seed, so a run times many short CLI calls instead of one long one.
LEARN_SUBSWEEPS = 6


def subsweeps(workload: str, seed: int, quick: bool) -> list[list[tuple[str, dict]]]:
    """The workload's inputs: sub-sweeps, each a list of CLI sweep calls.

    Each call is (subcommand, JSON config). All calls use workers=1 and take
    their master seed from the benchmark seed.
    """
    if workload == "decode-zero-rate":
        # criterion 2; RNG/noise and the decode split the block time about
        # evenly at d=128, k=256
        cfg = {
            "kind": "decode_sweep",
            "d": [128],
            "k": [256],
            "beta": [0.5, 0.75, 1.0, 1.5, 2.0],
            "decoders": [{"kind": "nn"}],
            "trials": 2048 if quick else 10_000,
            "replicates": 1 if quick else 2,
            "master_seed": seed,
            "workers": 1,
        }
        return [[("decode-sweep", cfg)]]
    if workload == "decode-positive-rate":
        # criterion 3 geometry; the decode (GEMM plus argmin/threshold
        # passes over 2981 columns) is about 95% of the block time
        cfg = {
            "kind": "decode_sweep",
            "d": [16],
            "k": [2981],
            "beta": [BETA_ABOVE, BETA_BELOW],
            "decoders": [{"kind": "mmse", "c": 1.45, "c2": 1.45}, {"kind": "nn"}],
            "trials": 1024 if quick else 8192,
            "replicates": 1,
            "master_seed": seed,
            "workers": 1,
        }
        return [[("decode-sweep", cfg)]]
    if workload == "learn-d6":
        # criterion 6, one learner run below capacity and one above per
        # sub-sweep; the two halves stress candidate selection differently
        d, k = 6, 4
        nbar = {b: math.ceil(4 * k * noise_for_beta(d, k, b).sigma2 / C6_EPS) for b in (BETA_BELOW, BETA_ABOVE)}
        out = []
        for j in range(1 if quick else LEARN_SUBSWEEPS):
            calls = []
            for beta in (BETA_BELOW, BETA_ABOVE):
                learner = {**C6_LEARNER, "Nbar": nbar[beta]}
                if quick:
                    learner.update(N=1000, C_net=2.0)
                cfg = {
                    "kind": "learn",
                    "d": [d],
                    "k": [k],
                    "beta": [beta],
                    "replicates": 1,
                    "master_seed": seed * LEARN_SUBSWEEPS + j,
                    "probes": 500 if quick else 2000,
                    "workers": 1,
                    "learner": learner,
                }
                calls.append(("learn", cfg))
            out.append(calls)
        return out
    raise ValueError(f"unknown workload {workload!r}")


def trials_per_row(cmd: str, cfg: dict) -> int:
    """Channel outputs one row draws: decode trials, or the learner's N + Nbar."""
    if cmd == "learn":
        return cfg["learner"]["N"] + cfg["learner"]["Nbar"]
    return cfg["trials"]


def rows_per_call(cfg: dict) -> int:
    n_dec = len(cfg.get("decoders", [None]))
    return len(cfg["d"]) * len(cfg["k"]) * len(cfg["beta"]) * n_dec * cfg["replicates"]


def fields_of(cmd: str) -> list[str]:
    return expcli.LEARN_FIELDS if cmd == "learn" else expcli.DECODE_FIELDS


def run_sweep_fn(cmd: str):
    return expcli.run_learn_experiment if cmd == "learn" else expcli.run_decode_sweep


# ---------------------------------------------------------------------------
# CLI calls and their outputs


def cli(args: list[str]) -> tuple[int, str]:
    """Run one CLI command in this process; returns (exit code, its output)."""
    buf = io.StringIO()
    code = 0
    with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(buf):
        try:
            expcli.main(args, standalone_mode=False)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 1
    return code, buf.getvalue()


def csv_hash(path: str) -> str:
    with open(path) as f:
        meta = f.readline()
    for item in meta[1:].split():
        key, _, val = item.partition("=")
        if key == "determinism_hash":
            return val
    raise ValueError(f"{path} has no determinism_hash in its metadata line")


class Workload:
    """A workload's configs written to disk, and access to its outputs.

    Every sub-sweep has the same shape, so call position i has the same
    trial count in each.
    """

    def __init__(self, name: str, seed: int, quick: bool, workdir: str):
        self.subsweeps = subsweeps(name, seed, quick)
        self.learn = name == "learn-d6"
        self.paths = {}
        for j, calls in enumerate(self.subsweeps):
            for i, (cmd, cfg) in enumerate(calls):
                cfg_path = os.path.join(workdir, f"sweep{j}_{i}.json")
                with open(cfg_path, "w") as f:
                    json.dump(cfg, f)
                # parse once as the sweep call will, so a bad config fails set-up
                expcli.parse_spec(cfg)
                self.paths[j, i] = (cfg_path, os.path.join(workdir, f"sweep{j}_{i}.csv"))
        first = self.subsweeps[0]
        self.trials = sum(trials_per_row(cmd, cfg) * rows_per_call(cfg) for cmd, cfg in first)
        self.rows = sum(rows_per_call(cfg) for _, cfg in first)

    def sweep_args(self, j: int, i: int) -> list[str]:
        cfg_path, csv_path = self.paths[j, i]
        return [self.subsweeps[j][i][0], "--config", cfg_path, "--out", csv_path]

    def replay_args(self, j: int) -> tuple[list[str], str]:
        """CLI arguments to --replay sub-sweep j's first call's last row, and that row's id."""
        row_id = expcli.read_csv_rows(self.paths[j, 0][1])[-1]["experiment_id"]
        return self.sweep_args(j, 0) + ["--replay", row_id], row_id

    def replay(self, j: int) -> tuple[float, str | None]:
        """CLI --replay of sub-sweep j's first call's last row.

        Returns the wall time and, if the replay failed, why.
        """
        args, row_id = self.replay_args(j)
        t0 = time.perf_counter()
        code, out = cli(args)
        elapsed = time.perf_counter() - t0
        return elapsed, None if code == 0 else f"replay of {row_id} exited {code}: {out.strip()[-300:]}"

    def read_rows(self, j: int | None = None) -> list[dict]:
        keys = [key for key in self.paths if j is None or key[0] == j]
        return [r for key in keys for r in expcli.read_csv_rows(self.paths[key][1])]

    def hashes(self, j: int) -> list[str]:
        return [csv_hash(self.paths[j, i][1]) for i in range(len(self.subsweeps[j]))]


def quality(learn: bool, rows: list[dict]) -> tuple[dict, list[str]]:
    """Quality figures of a workload's rows and the checks that fail on them.

    The checks are the ones the program passes today: every row ok, and
    the phase transition visible (pooled error above capacity exceeds the
    error below it; for the learner, median loss above capacity is at
    least 3x the median below).
    """
    problems = [f"row {r['experiment_id']} status {r['status']!r}" for r in rows if r["status"] != "ok"]
    by_beta = defaultdict(list)
    for r in rows:
        by_beta[float(r["beta"])].append(r)
    if learn:
        med = {b: statistics.median(float(r["loss_avg"]) for r in rs) for b, rs in by_beta.items()}
        data = {
            "loss_median_below_capacity": med[BETA_BELOW],
            "loss_median_above_capacity": med[BETA_ABOVE],
        }
        if not med[BETA_ABOVE] >= 3.0 * med[BETA_BELOW]:
            problems.append(f"median loss above capacity {med[BETA_ABOVE]} < 3 x {med[BETA_BELOW]}")
    else:
        rho = {
            b: sum(int(r["error_count"]) for r in rs) / sum(int(r["trials"]) for r in rs)
            for b, rs in by_beta.items()
        }
        data = {
            "rho_hat_below_capacity": rho[BETA_BELOW],
            "rho_hat_above_capacity": rho[BETA_ABOVE],
        }
        if not rho[BETA_ABOVE] > rho[BETA_BELOW]:
            problems.append(f"pooled rho above capacity {rho[BETA_ABOVE]} <= below {rho[BETA_BELOW]}")
    return data, problems


# ---------------------------------------------------------------------------
# untraced run: end-to-end numbers


class Reference:
    """The host's current speed, from fixed numpy work of the benchmark's own.

    A pass is the GEMM of a fixed 1,024 x 16 block against 2,981 fixed
    16-vectors into a fresh 24 MB array, then an argmin along its rows: the
    shape of a decode block at criterion 3, computed without the package.
    The shared machine's speed drifts by tens of percent over minutes. A
    program timing divided by the reference timed beside it drifts far
    less, and still moves in full when the program changes.
    """

    PASSES = 24

    def __init__(self):
        rng = np.random.default_rng(0)
        self.ys = rng.standard_normal((1024, 16))
        self.centers = rng.standard_normal((2981, 16))
        self.pass_s()

    def pass_s(self) -> float:
        """Mean wall time of one pass over PASSES passes."""
        t0 = time.perf_counter()
        for _ in range(self.PASSES):
            np.argmin(self.ys @ self.centers.T, axis=1)
        return (time.perf_counter() - t0) / self.PASSES


def run_untraced(wl: Workload, seconds: float, quick: bool) -> dict:
    """Cycle through the sub-sweeps, each followed by one replay, until
    `seconds` have passed and every sub-sweep has run at least once.

    Every CLI call is bracketed by reference timings, and its time is kept
    both in seconds and in reference passes (its wall time over the mean of
    the reference timed just before and just after it). Per call position
    the median is taken, and a sub-sweep's time is the sum over positions
    of those medians, so a slow spell moves one sample, not the result.
    """
    n_sub = len(wl.subsweeps)
    ref = Reference()
    last_ref = ref.pass_s()

    def timed(args: list[str], secs: list[float], refs: list[float]) -> tuple[int, str]:
        nonlocal last_ref
        t0 = time.perf_counter()
        code, out = cli(args)
        elapsed = time.perf_counter() - t0
        now_ref = ref.pass_s()
        secs.append(elapsed)
        refs.append(elapsed / (0.5 * (last_ref + now_ref)))
        last_ref = now_ref
        return code, out

    call_s = [[] for _ in wl.subsweeps[0]]
    call_ref = [[] for _ in wl.subsweeps[0]]
    replay_s, replay_ref, problems, hashes = [], [], [], {}
    attempted = failed = rep = 0
    t_start = time.perf_counter()
    while True:
        j = rep % n_sub
        attempted += wl.rows + 1
        codes = []
        for i in range(len(call_s)):
            code, out = timed(wl.sweep_args(j, i), call_s[i], call_ref[i])
            codes.append(code)
            if code != 0:
                problems.append(f"sweep call {j}.{i} exited {code}: {out.strip()[-300:]}")
        if any(codes):
            failed += wl.rows + 1
            break
        failed += sum(1 for r in wl.read_rows(j) if r["status"] != "ok")
        got = wl.hashes(j)
        if hashes.setdefault(j, got) != got:
            problems.append(f"determinism hash of sub-sweep {j} changed between repetitions")

        args, row_id = wl.replay_args(j)
        code, out = timed(args, replay_s, replay_ref)
        if code != 0:
            failed += 1
            problems.append(f"replay of {row_id} exited {code}: {out.strip()[-300:]}")
        rep += 1
        used = time.perf_counter() - t_start
        if rep >= n_sub and (quick or used + used / rep > seconds):
            break
    if rep < n_sub:
        return {"problems": problems, "attempted": attempted, "failed": failed}
    data, checks = quality(wl.learn, wl.read_rows())
    sweep_s = sum(statistics.median(s) for s in call_s)
    sweep_ref = sum(statistics.median(r) for r in call_ref)
    rss_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    data["learner_runs_per_s" if wl.learn else "rows_per_s"] = wl.rows / sweep_s
    return {
        "metrics": {
            "trials_per_ref": wl.trials / sweep_ref,
            "replay_refs": statistics.median(replay_ref),
            "peak_rss_mb": rss_kib / 1024.0,
        },
        "data": {
            **data,
            "trials_per_s": wl.trials / sweep_s,
            "replay_s": statistics.median(replay_s),
            "reference_pass_ms": 1000.0 * sweep_s / sweep_ref,
            "repetitions": rep,
            "call_s": call_s,
            "call_refs": call_ref,
            "replay_s_samples": replay_s,
            "replay_refs_samples": replay_ref,
        },
        "hashes": [h for j in range(n_sub) for h in hashes[j]],
        "problems": problems + checks,
        "attempted": attempted,
        "failed": failed,
    }


# ---------------------------------------------------------------------------
# traced run: per-layer numbers


class Tracer:
    """Spans kept in memory: name, parent index, start, end, attributes.

    Also holds the output buffers of the reference GEMM, by shape.
    """

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.buffers: dict[tuple, np.ndarray] = {}

    @contextlib.contextmanager
    def span(self, name: str, **attrs):
        idx = len(self.spans)
        self.spans.append([name, self._stack[-1] if self._stack else None, time.perf_counter(), None, attrs])
        self._stack.append(idx)
        try:
            yield
        finally:
            self._stack.pop()
            self.spans[idx][3] = time.perf_counter()

    def self_ms(self) -> dict[str, list[float]]:
        """Per span name, the self time (duration minus child spans) of each span."""
        child_s = defaultdict(float)
        for name, parent, t0, t1, _ in self.spans:
            if parent is not None:
                child_s[parent] += t1 - t0
        out = defaultdict(list)
        for i, (name, parent, t0, t1, _) in enumerate(self.spans):
            out[name].append((t1 - t0 - child_s[i]) * 1000.0)
        return out

    def dump(self, path: str) -> None:
        with open(path, "w") as f:
            for i, (name, parent, t0, t1, attrs) in enumerate(self.spans):
                f.write(json.dumps({"id": i, "name": name, "parent": parent, "start": t0, "end": t1, **attrs}) + "\n")


def _decode_spec(entry: dict, sigma2: float) -> DecoderSpec:
    if entry["kind"] == "nn":
        return DecoderSpec.nn()
    return DecoderSpec.mmse(sigma2, c=entry["c"], c2=entry.get("c2"))


def _count_decode(tr: Tracer, counts: dict, targets, ys: np.ndarray, spec: DecoderSpec) -> np.ndarray:
    """Decode as the program does, then the benchmark's reference GEMM on the same inputs.

    targets is what the program passes: a Codebook, or the learner's array
    of candidate centers.
    """
    centers = targets.centers if isinstance(targets, Codebook) else targets
    with tr.span("decoders.decode_batch"):
        out = decode_batch(targets, ys, spec)
    n, d = ys.shape
    k = centers.shape[0]
    # into a kept buffer: a fresh n x k allocation here would change the
    # allocator state the next decode_batch starts from and speed it up
    buf = tr.buffers.get((n, k))
    if buf is None:
        buf = tr.buffers[n, k] = np.empty((n, k))
    with tr.span("reference.gemm_floor"):
        np.matmul(ys, centers.T, out=buf)
    counts["decoders.trials"] += n
    counts["decoders.erasures"] += int(np.sum(out == ERASURE))
    counts["decoders.dist_entries"] += n * k
    counts["decoders.gemm_gflop"] += 2.0 * n * k * d / 1e9
    return out


def replay_decode_call(tr: Tracer, counts: dict, cfg: dict, rows: list[dict]) -> list[str]:
    """Replay run_decode_sweep + estimate_error_prob row by row; list mismatches."""
    by_id = {r["experiment_id"]: r for r in rows}
    seed = cfg["master_seed"]
    mismatches = []
    gidx = 0
    for d in cfg["d"]:
        for k in cfg["k"]:
            for beta in cfg["beta"]:
                sigma2 = noise_for_beta(d, k, beta).sigma2
                for entry in cfg["decoders"]:
                    for rep in range(cfg["replicates"]):
                        row_id = f"dsweep-{gidx}-{rep}"
                        with tr.span("row", row=row_id):
                            with tr.span("seeds.rng_for"):
                                rng = rng_for(seed, gidx, rep, STREAM_CODEBOOK)
                            with tr.span("codebook.sample_codebook"):
                                cb = sample_codebook(d, k, rng)
                            spec = _decode_spec(entry, sigma2)
                            trials = cfg["trials"]
                            errors = erasures = 0
                            for block in range((trials + TRIAL_BLOCK - 1) // TRIAL_BLOCK):
                                size = min(TRIAL_BLOCK, trials - block * TRIAL_BLOCK)
                                with tr.span("seeds.rng_for"):
                                    rng = rng_for(seed, gidx, rep, STREAM_TRIALS, block)
                                with tr.span("decoders.noise"):
                                    labels = rng.integers(0, cb.k, size=size)
                                    ys = cb.centers[labels] + math.sqrt(sigma2) * rng.standard_normal((size, cb.d))
                                out = _count_decode(tr, counts, cb, ys, spec)
                                errors += int(np.sum(out != labels))
                                erasures += int(np.sum(out == ERASURE))
                        row = by_id.get(row_id)
                        if row is None or row["error_count"] != errors or row["erasure_count"] != erasures:
                            mismatches.append(
                                f"{row_id}: replay errors/erasures {errors}/{erasures}, program "
                                f"{None if row is None else (row['error_count'], row['erasure_count'])}"
                            )
                    gidx += 1
    return mismatches


def replay_learn_call(tr: Tracer, counts: dict, cfg: dict, rows: list[dict]) -> list[str]:
    """Replay run_learn_experiment + run_learner stage by stage; list mismatches.

    Each row is also recomputed by run_learner itself, in a reference span
    that the overhead ratio leaves out, so the estimates can be compared bit
    for bit.
    """
    by_id = {r["experiment_id"]: r for r in rows}
    seed = cfg["master_seed"]
    lcfg = LearnerConfig(**cfg["learner"])
    probes = cfg["probes"]
    mismatches = []
    gidx = 0
    for d in cfg["d"]:
        for k in cfg["k"]:
            for beta in cfg["beta"]:
                sigma2 = noise_for_beta(d, k, beta).sigma2
                for rep in range(cfg["replicates"]):
                    row_id = f"learn-{gidx}-{rep}"
                    path = (gidx, rep, STREAM_LEARNER)
                    with tr.span("row", row=row_id):
                        with tr.span("seeds.rng_for"):
                            rng = rng_for(seed, gidx, rep, STREAM_CODEBOOK)
                        with tr.span("codebook.sample_codebook"):
                            cb = sample_codebook(d, k, rng)
                        with tr.span("seeds.rng_for"):
                            rng = rng_for(seed, *path, LEARNER_NET)
                        with tr.span("sphere.build_net"):
                            net = build_net(
                                d,
                                lcfg.eps_I,
                                strategy=lcfg.net_strategy,
                                rng=rng,
                                C_net=lcfg.C_net,
                                c_net=lcfg.c_net,
                                d_max_net=lcfg.d_max_net,
                            )
                        with tr.span("seeds.rng_for"):
                            rng = rng_for(seed, *path, LEARNER_PROBES)
                        with tr.span("sphere.verify_covering"):
                            covering = verify_covering(net, probes, rng)
                        with tr.span("seeds.rng_for"):
                            rng = rng_for(seed, *path, LEARNER_STEP1)
                        with tr.span("channel.sample_gmm"):
                            batch1 = sample_gmm(cb, sigma2, lcfg.N, rng)
                        with tr.span("learner.step1_screen"):
                            points, pass_counts = step1_screen(net, batch1, lcfg, k)
                        with tr.span("learner.select_candidates", beta=beta):
                            candidates = select_candidates(points, pass_counts, lcfg.eps_I, k)
                        with tr.span("learner.build_step2_decoder"):
                            decoder = build_step2_decoder(lcfg, d, k, sigma2)
                        with tr.span("seeds.rng_for"):
                            rng = rng_for(seed, *path, LEARNER_STEP2)
                        with tr.span("channel.sample_gmm"):
                            batch2 = sample_gmm(cb, sigma2, lcfg.Nbar, rng)
                        with tr.span("learner.step2_cluster_average"):
                            estimates, erasure_rate = step2_cluster_average(candidates, batch2, decoder, k)
                        if candidates.shape[0] > 0:
                            # the decode inside step 2, timed on its own
                            _count_decode(tr, counts, candidates, batch2.observations(), decoder)
                        pooled = GmmBatch(
                            np.concatenate([batch1.observations(), batch2.observations()]),
                            np.concatenate([batch1.privileged_labels(), batch2.privileged_labels()]),
                            sigma2,
                        )
                        with tr.span("learner.genie_estimator"):
                            genie = genie_estimator(pooled, k)
                        with tr.span("learner.loss"):
                            l_avg = loss_avg(cb, estimates)
                            l_max = loss_max(cb, estimates)
                            g_loss = loss_avg(cb, genie)
                    m = candidates.shape[0]
                    counts["sphere.nets"] += 1
                    counts["sphere.net_points"] += net.size
                    counts["sphere.net_bytes"] += net.points.nbytes
                    counts["sphere.covering_dist_evals"] += probes * net.size
                    counts["sphere.covered"] += covering
                    counts["channel.samples"] += lcfg.N + lcfg.Nbar
                    counts["learner.screen_pairs"] += net.size * lcfg.N
                    counts["learner.survivors"] += points.shape[0]
                    counts["learner.kept"] += m
                    if beta == BETA_ABOVE:
                        counts["learner.survivors.beta0.5"] += points.shape[0]
                        counts["learner.kept.beta0.5"] += m
                    counts["learner.step2_erasures"] += erasure_rate * lcfg.Nbar
                    counts["learner.step2_samples"] += lcfg.Nbar

                    with tr.span("reference.run_learner"):
                        ref = run_learner(cb, sigma2, lcfg, seed, seed_path=path, probes=probes)
                    if not (np.array_equal(ref.estimates, estimates) and ref.loss_avg == l_avg):
                        mismatches.append(f"{row_id}: replay estimates/loss_avg differ from run_learner")
                    row = by_id.get(row_id)
                    replayed = {
                        "m": m,
                        "loss_avg": l_avg,
                        "loss_max": l_max,
                        "genie_loss": g_loss,
                        "net_size": net.size,
                        "t_close_size": points.shape[0],
                        "covering_fraction": covering,
                        "erasure_rate_step2": erasure_rate,
                    }
                    for key, val in replayed.items():
                        if row is None or row[key] != val:
                            mismatches.append(
                                f"{row_id}: {key} replay {val!r}, program {None if row is None else row[key]!r}"
                            )
                gidx += 1
    return mismatches


def _mean_ms(times: dict, name: str) -> float:
    vals = times.get(name, [])
    return sum(vals) / len(vals) if vals else 0.0


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(tr: Tracer, counts: dict, expcli_ms: dict, overhead: float) -> dict:
    """Per-layer numbers of one traced sweep.

    Times are mean self time per call in ms (0 when the workload never
    calls the function); work counts are totals over the sweep; ratios
    are pooled over the sweep.
    """
    t = tr.self_ms()
    beta05_ms = [
        (s[3] - s[2]) * 1000.0
        for s in tr.spans
        if s[0] == "learner.select_candidates" and s[4].get("beta") == BETA_ABOVE
    ]
    decode_total = sum(t.get("decoders.decode_batch", []))
    gemm_total = sum(t.get("reference.gemm_floor", []))
    nets = counts["sphere.nets"]
    return {
        "seeds.rng_for_ms": _mean_ms(t, "seeds.rng_for"),
        "codebook.sample_codebook_ms": _mean_ms(t, "codebook.sample_codebook"),
        "decoders.noise_ms": _mean_ms(t, "decoders.noise"),
        "decoders.decode_batch_ms": _mean_ms(t, "decoders.decode_batch"),
        "decoders.gemm_floor_ms": _mean_ms(t, "reference.gemm_floor"),
        "decoders.decode_over_gemm": _ratio(decode_total, gemm_total),
        "decoders.dist_entries": counts["decoders.dist_entries"],
        "decoders.gemm_gflop": counts["decoders.gemm_gflop"],
        "decoders.trials": counts["decoders.trials"],
        "decoders.erasure_ratio": _ratio(counts["decoders.erasures"], counts["decoders.trials"]),
        "sphere.build_net_ms": _mean_ms(t, "sphere.build_net"),
        "sphere.net_points": _ratio(counts["sphere.net_points"], nets),
        "sphere.net_bytes": _ratio(counts["sphere.net_bytes"], nets),
        "sphere.verify_covering_ms": _mean_ms(t, "sphere.verify_covering"),
        "sphere.covering_dist_evals": counts["sphere.covering_dist_evals"],
        "sphere.covering_fraction": _ratio(counts["sphere.covered"], nets),
        "channel.sample_gmm_ms": _mean_ms(t, "channel.sample_gmm"),
        "channel.samples": counts["channel.samples"],
        "learner.step1_screen_ms": _mean_ms(t, "learner.step1_screen"),
        "learner.screen_pairs": counts["learner.screen_pairs"],
        "learner.screen_pass_ratio": _ratio(counts["learner.survivors"], counts["sphere.net_points"]),
        "learner.select_candidates_ms": _mean_ms(t, "learner.select_candidates"),
        "learner.select_candidates_ms.beta0.5": sum(beta05_ms) / len(beta05_ms) if beta05_ms else 0.0,
        "learner.select_kept_ratio": _ratio(counts["learner.kept"], counts["learner.survivors"]),
        "learner.select_kept_ratio.beta0.5": _ratio(
            counts["learner.kept.beta0.5"], counts["learner.survivors.beta0.5"]
        ),
        "learner.step2_cluster_average_ms": _mean_ms(t, "learner.step2_cluster_average"),
        "learner.step2_erasure_ratio": _ratio(counts["learner.step2_erasures"], counts["learner.step2_samples"]),
        "learner.genie_estimator_ms": _mean_ms(t, "learner.genie_estimator"),
        "learner.loss_ms": _mean_ms(t, "learner.loss"),
        **expcli_ms,
        "trace_overhead_ratio": overhead,
    }


def run_traced(wl: Workload, seconds: float, quick: bool, span_path: str | None) -> dict:
    """Per sub-sweep: the program's sweep functions, then the traced replay
    of every row, then one CLI replay; until `seconds` have passed. Per-layer
    numbers are medians over the sub-sweeps run. The phase-transition checks
    belong to the untraced run, which always covers every sub-sweep."""
    n_sub = len(wl.subsweeps)
    reps, problems, hashes = [], [], {}
    attempted = failed = 0
    t_start = time.perf_counter()
    while True:
        j = len(reps) % n_sub
        tr = Tracer()
        counts = defaultdict(float)
        calls_ms = defaultdict(list)
        untraced = traced = 0.0
        for i, (cmd, cfg) in enumerate(wl.subsweeps[j]):
            spec = expcli.parse_spec(cfg)
            fields = fields_of(cmd)
            t0 = time.perf_counter()
            rows = run_sweep_fn(cmd)(spec)
            t1 = time.perf_counter()
            dhash = expcli.write_csv(wl.paths[j, i][1], rows, fields, spec, {})
            t2 = time.perf_counter()
            rehash = expcli.determinism_hash(rows, fields)
            t3 = time.perf_counter()
            calls_ms["expcli.run_sweep_ms"].append((t1 - t0) * 1000.0)
            calls_ms["expcli.write_csv_ms"].append((t2 - t1) * 1000.0)
            calls_ms["expcli.determinism_hash_ms"].append((t3 - t2) * 1000.0)
            untraced += t2 - t0
            if rehash != dhash:
                problems.append(f"determinism_hash {rehash} differs from the CSV's {dhash}")

            replay = replay_learn_call if cmd == "learn" else replay_decode_call
            t0 = time.perf_counter()
            mismatches = replay(tr, counts, cfg, rows)
            traced += time.perf_counter() - t0
            attempted += len(rows)
            failed += len(mismatches) + sum(1 for r in rows if r["status"] != "ok")
            problems += [f"traced replay mismatch: {m}" for m in mismatches]
        hashes.setdefault(j, wl.hashes(j))

        elapsed, problem = wl.replay(j)
        calls_ms["expcli.replay_ms"].append(elapsed * 1000.0)
        attempted += 1
        if problem:
            failed += 1
            problems.append(problem)

        # the reference computations (GEMM floor, run_learner) are checks,
        # not tracing, so they leave the overhead ratio
        reference_ms = sum(ms for name, v in tr.self_ms().items() if name.startswith("reference.") for ms in v)
        overhead = (traced - reference_ms / 1000.0) / untraced
        expcli_ms = {name: sum(v) / len(v) for name, v in calls_ms.items()}
        reps.append(layer_metrics(tr, counts, expcli_ms, overhead))
        used = time.perf_counter() - t_start
        if problems or quick or used + used / len(reps) > seconds:
            break
    if span_path:
        tr.dump(span_path)
    metrics = {name: statistics.median(rep[name] for rep in reps) for name in reps[0]}
    return {
        "metrics": metrics,
        "data": {"repetitions": len(reps)},
        "hashes": [h for j in sorted(hashes) for h in hashes[j]],
        "problems": problems,
        "attempted": attempted,
        "failed": failed,
    }


# ---------------------------------------------------------------------------
# environment


def _git_commit(root: str) -> str:
    """HEAD of the checkout's own .git; 'none' when it has none (or git is missing)."""
    try:
        out = subprocess.run(
            ["git", "--git-dir", os.path.join(root, ".git"), "rev-parse", "HEAD"],
            capture_output=True,
            text=True,
            timeout=30,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "none"
    return out.stdout.strip() if out.returncode == 0 else "none"


def environment(root: str) -> dict:
    import hashlib
    import platform

    import scipy

    import spherecodes

    src = os.path.dirname(spherecodes.__file__)
    h = hashlib.blake2b(digest_size=8)
    for name in sorted(os.listdir(src)):
        if name.endswith(".py"):
            with open(os.path.join(src, name), "rb") as f:
                h.update(name.encode() + b"\0" + f.read())
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas.get("openblas configuration") or f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "nproc": len(os.sched_getaffinity(0)),
        "git_commit": _git_commit(root),
        "source_hash": h.hexdigest(),
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=0.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--workdir", required=True)
    ap.add_argument("--quick", action="store_true")
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--spans", default=None, help="write the traced run's spans here (JSON lines)")
    args = ap.parse_args(argv)

    root = os.getcwd()
    import spherecodes

    if not os.path.abspath(spherecodes.__file__).startswith(os.path.join(root, "src") + os.sep):
        print(f"spherecodes imported from {spherecodes.__file__}, not from this checkout", file=sys.stderr)
        return 2
    wl = Workload(args.workload, args.seed, args.quick, args.workdir)
    ready = time.monotonic()
    if args.setup_only:
        print(json.dumps({"ready": ready}))
        return 0
    if args.trace:
        result = run_traced(wl, args.seconds, args.quick, args.spans)
    else:
        result = run_untraced(wl, args.seconds, args.quick)
    result["ready"] = ready
    result["environment"] = environment(root)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
