"""Experiment orchestration and the command-line surface.

Sweeps are described by a JSON config (strict keys: each kind accepts only
the keys it reads, so typos and settings it would ignore are errors), run
under deterministic counter-based seeding, and written as RFC-4180 CSV
with one `#` metadata comment line carrying the package version, the
config hash, the numpy and BLAS builds and the BLAS thread setting, the
constants in effect, and a determinism hash over everything except
wall-clock columns. Reruns with the same master seed produce identical
bytes apart from timing.

Exit codes: 0 success, 2 config error (a ConfigError, a missing input
file, or a NetInfeasibleError: a row's array over the byte budget or its
net past the dimension cap), 3 runtime error (replay mismatches, and any
other fault, reported with its exception type and the file and line that
raised it).
"""

import csv
import dataclasses
import hashlib
import io
import json
import math
import os
import sys
import time
import traceback
from dataclasses import asdict, dataclass, field
from functools import partial

import click
import numpy as np

from . import __version__
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
from .codebook import noise_for_beta, rate, sample_codebook
from .decoders import TRIALS_MIN, DecoderSpec, ErrorRow, corr_feasibility_bound, estimate_error_rows
from .learner import NET_KNOBS, LearnerConfig, ScreeningStats, StageTimes, build_step2_decoder, run_learner
from .seeds import rng_for
from .sphere import NetInfeasibleError, build_net, require_number, share_out, verify_covering

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_RUNTIME = 3

# stream tags so different random objects in one cell never share a stream
_STREAM_CODEBOOK = 0
_STREAM_TRIALS = 1
_STREAM_LEARNER = 2

# the grid cell's columns, which lead every decode and learn row
_CELL_FIELDS = ["experiment_id", "d", "k", "beta", "sigma2", "rate"]

DECODE_FIELDS = [
    *_CELL_FIELDS,
    "decoder",
    "trials",
    "error_count",
    "erasure_count",
    "rho_hat",
    "ci_low",
    "ci_high",
    "seed",
    "wall_ms",
    "noise_ms",
    "decode_ms",
    "status",
]

# a learn row's columns past the cell's: the config's sample budgets, the
# LearnerResult scalars, and the fields of its ScreeningStats and (wall
# times) StageTimes records, so a new record field is a new column
_BUDGET_FIELDS = ["N", "Nbar"]
_RESULT_FIELDS = ["m", "loss_avg", "loss_max", "genie_loss"]
_SCREEN_FIELDS = [f.name for f in dataclasses.fields(ScreeningStats)]
_STAGE_FIELDS = [f.name for f in dataclasses.fields(StageTimes)]

LEARN_FIELDS = [
    *_CELL_FIELDS,
    *_BUDGET_FIELDS,
    *_RESULT_FIELDS,
    *_SCREEN_FIELDS,
    "seed",
    "wall_ms",
    *_STAGE_FIELDS,
    "status",
]

NET_FIELDS = [
    "experiment_id",
    "d",
    "eps_I",
    "net_size",
    "probes",
    "covering_fraction",
    "seed",
    "wall_ms",
    "status",
]

# timing columns are environment noise, never part of determinism
_TIMING_FIELDS = {"wall_ms", "noise_ms", "decode_ms", *_STAGE_FIELDS}


class ConfigError(ValueError):
    """Malformed or inconsistent experiment configuration."""


def _checked(fn, *args, **kwargs):
    """fn(*args, **kwargs) on config values, whose TypeError or ValueError
    can only mean a bad value: it is raised as a ConfigError."""
    try:
        return fn(*args, **kwargs)
    except (TypeError, ValueError) as exc:
        raise ConfigError(str(exc)) from exc


# the top-level keys each kind reads, besides kind itself; a key another
# kind reads is still an error here, not a silently ignored setting. A
# phase transition is a beta grid: its summary groups rows by beta
_DECODE_KEYS = {"d", "k", "beta", "sigma2", "decoders", "trials", "replicates", "master_seed", "out", "workers"}
_KIND_KEYS = {
    "decode_sweep": _DECODE_KEYS,
    "phase_transition": _DECODE_KEYS - {"sigma2"},
    "learn": {"d", "k", "beta", "sigma2", "replicates", "master_seed", "out", "workers", "learner", "probes"},
    "net_stats": {"d", "eps_I", "probes", "master_seed", "out", "workers", "learner"},
    "bounds": {"d", "k", "out", "bounds"},
}
# the learner-block keys each kind reads: the learner reads every knob, a
# net-stats sweep only the net construction ones
_LEARNER_KEYS = {
    "learn": {f.name for f in dataclasses.fields(LearnerConfig)},
    "net_stats": set(NET_KNOBS),
}


# the grid keys, lists whose cartesian product a sweep runs
_GRID_KEYS = ("d", "k", "beta", "sigma2", "eps_I")
# each number key's rule, range test and whether it counts something; a
# grid's rule holds for each of its entries
_NUMBER_KEYS = {
    "trials": (f"an integer >= {TRIALS_MIN}", lambda v: v >= TRIALS_MIN, True),
    "replicates": ("an integer >= 1", lambda v: v >= 1, True),
    "workers": ("an integer >= 1", lambda v: v >= 1, True),
    "probes": ("an integer >= 1", lambda v: v >= 1, True),
    "master_seed": ("an integer", None, True),
    "d": ("an integer >= 1", lambda v: v >= 1, True),
    "k": ("an integer >= 2", lambda v: v >= 2, True),
    "beta": ("a finite number > 0", lambda v: v > 0, False),
    "sigma2": ("a finite number > 0", lambda v: v > 0, False),
    "eps_I": ("a number in (0, 1/2)", lambda v: 0 < v < 0.5, False),
}


@dataclass(frozen=True)
class SweepSpec:
    """One experiment description.

    kind selects the experiment; the grids are lists and the sweep is
    their cartesian product. Decoder entries are DecoderSpec.at_noise
    entries, such as the shorthand {"kind": "mmse", "c": 1.2}, resolved at
    each grid point's noise level.
    """

    kind: str
    d: tuple = (64,)
    k: tuple = (256,)
    beta: tuple = ()
    sigma2: tuple = ()
    decoders: tuple = ({"kind": "nn"},)
    trials: int = 10000
    replicates: int = 1
    master_seed: int = 0
    out: str | None = None
    workers: int = 1
    learner: dict = field(default_factory=dict)
    bounds: dict = field(default_factory=dict)
    eps_I: tuple = ()
    probes: int = 10000

    def __post_init__(self):
        if not self.d or not self.k:
            raise ConfigError("d and k grids must be nonempty")
        for name, (rule, ok, integral) in _NUMBER_KEYS.items():
            v = getattr(self, name)
            for x in v if name in _GRID_KEYS else (v,):
                require_number(name, x, rule, ok, integral=integral, error=ConfigError)
        if self.beta and self.sigma2:
            raise ConfigError("give a beta grid or a sigma2 grid, not both")


def parse_spec(obj: dict) -> SweepSpec:
    """Validate a config dict into a SweepSpec; a key its kind does not
    read is an error."""
    if not isinstance(obj, dict):
        raise ConfigError("config root must be a JSON object")
    kind = obj.get("kind")
    if not isinstance(kind, str) or kind not in _KIND_KEYS:
        raise ConfigError(f"unknown experiment kind {kind!r}")
    allowed = _KIND_KEYS[kind]
    unknown = set(obj) - allowed - {"kind"}
    if unknown:
        raise ConfigError(f"unknown config keys: {sorted(unknown)} ({kind} takes {sorted(allowed)})")
    for block in ("learner", "bounds"):
        if not isinstance(obj.get(block, {}), dict):
            raise ConfigError(f"{block} must be a JSON object")
    if "learner" in obj:
        allowed = _LEARNER_KEYS[kind]
        bad = set(obj["learner"]) - allowed
        if bad:
            raise ConfigError(f"unknown learner config keys: {sorted(bad)} ({kind} takes {sorted(allowed)})")
    kw = dict(obj)
    for key in _GRID_KEYS:
        if key in kw:
            val = kw[key]
            kw[key] = tuple(val) if isinstance(val, (list, tuple)) else (val,)
    if "decoders" in kw:
        if not isinstance(kw["decoders"], (list, tuple)):
            raise ConfigError("decoders must be a list of objects")
        for entry in kw["decoders"]:
            if not isinstance(entry, dict):
                raise ConfigError(f"decoders entry {entry!r} is not an object")
        kw["decoders"] = tuple(kw["decoders"])
    try:
        return SweepSpec(**kw)
    except TypeError as exc:
        raise ConfigError(str(exc)) from exc


def _config_hash(spec: SweepSpec) -> str:
    """Hash of the settings a row can depend on: out and workers cannot
    change a row, so they are left out."""
    blob = json.dumps(
        {k: v for k, v in spec.__dict__.items() if k not in ("out", "workers")},
        sort_keys=True,
        default=str,
    )
    return hashlib.blake2b(blob.encode(), digest_size=8).hexdigest()


def _resolve_decoder(entry: dict, sigma2: float) -> DecoderSpec:
    """A config decoder entry at a concrete noise level (DecoderSpec.at_noise,
    which expands its shorthands); a bad entry is a ConfigError naming it."""
    try:
        return DecoderSpec.at_noise(entry, sigma2)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"decoder entry {_decoder_label(entry)}: {exc}") from exc


def _decoder_label(entry: dict) -> str:
    return json.dumps(entry, sort_keys=True)


def _grid(spec: SweepSpec) -> list[dict]:
    """Cartesian product of the parameter grids, in deterministic order."""
    noise_axis = [("beta", b) for b in spec.beta] or [("sigma2", s) for s in spec.sigma2]
    if not noise_axis:
        noise_axis = [("beta", 1.0)]
    cells = []
    gidx = 0
    for d in spec.d:
        for k in spec.k:
            for noise_kind, noise_val in noise_axis:
                for dec in spec.decoders:
                    if noise_kind == "beta":
                        params = noise_for_beta(d, k, noise_val)
                        sigma2, beta = params.sigma2, noise_val
                    else:
                        sigma2, beta = noise_val, float("nan")
                    cells.append(
                        {
                            "gidx": gidx,
                            "d": d,
                            "k": k,
                            "beta": beta,
                            "sigma2": sigma2,
                            "rate": rate(d, k),
                            "decoder_entry": dec,
                        }
                    )
                    gidx += 1
    return cells


# ---------------------------------------------------------------------------
# experiment runners
#
# A sweep is a job list plus one function that computes the rows of any
# list of its jobs. Every job carries its row's experiment_id and every
# random stream is keyed by the job alone, so a row can be recomputed
# without its neighbours (see _replay).


def _cell_jobs(spec: SweepSpec, prefix: str) -> list[dict]:
    """One job per (grid cell, replicate), in row order."""
    return [
        {**cell, "rep": rep, "experiment_id": f"{prefix}-{cell['gidx']}-{rep}"}
        for cell in _grid(spec)
        for rep in range(spec.replicates)
    ]


def _cell_decoder(cell: dict) -> DecoderSpec | str:
    """The cell's decoder at its noise level, or its row status when the
    correlation thresholds are infeasible there."""
    dec = _resolve_decoder(cell["decoder_entry"], cell["sigma2"])
    if dec.family == "corr":
        p = dec.record
        bound = corr_feasibility_bound(cell["d"], cell["k"], cell["sigma2"], p.eta1)
        if not p.eta2 < bound:
            return f"infeasible eta2>={bound:.6f}"
    return dec


def _cell_codebook(spec: SweepSpec, job: dict):
    """The codebook of a job's grid cell and replicate."""
    rng = rng_for(spec.master_seed, job["gidx"], job["rep"], _STREAM_CODEBOOK)
    return sample_codebook(job["d"], job["k"], rng)


def _decode_rows(spec: SweepSpec, jobs: list[dict]) -> list[dict]:
    """The rows of jobs, in order. The feasible jobs' estimates come from
    one estimate_error_rows call, whose blocks run on this thread and
    spec.workers helper threads; an infeasible job's row carries its
    status."""
    feasible = [
        ErrorRow(
            partial(_cell_codebook, spec, job),
            job["d"],
            job["k"],
            job["sigma2"],
            job["decoder"],
            (job["gidx"], job["rep"], _STREAM_TRIALS),
        )
        for job in jobs
        if not isinstance(job["decoder"], str)
    ]
    estimates = iter(estimate_error_rows(feasible, spec.trials, spec.master_seed, helpers=spec.workers))
    rows = []
    for job in jobs:
        row = {
            **{f: job[f] for f in _CELL_FIELDS},
            "decoder": _decoder_label(job["decoder_entry"]),
            "trials": spec.trials,
            "seed": spec.master_seed,
            "status": "ok",
        }
        if isinstance(job["decoder"], str):
            nan = float("nan")
            row.update(error_count=0, erasure_count=0, rho_hat=nan, ci_low=nan, ci_high=nan, status=job["decoder"])
            row.update(wall_ms=0.0, noise_ms=0.0, decode_ms=0.0)
        else:
            # every ErrorEstimate field is a decode column
            row.update(asdict(next(estimates)))
        rows.append(row)
    return rows


def _decode_plan(spec: SweepSpec):
    # every entry is resolved at every grid point before any row runs, so a
    # bad entry fails before the first decode
    decoders = {cell["gidx"]: _cell_decoder(cell) for cell in _grid(spec)}
    if decoders and all(isinstance(dec, str) for dec in decoders.values()):
        raise ConfigError(f"all grid points have infeasible decoder thresholds; first violation: {decoders[0]}")
    jobs = [{**job, "decoder": decoders[job["gidx"]]} for job in _cell_jobs(spec, "dsweep")]
    return jobs, partial(_decode_rows, spec)


def run_decode_sweep(spec: SweepSpec) -> list[dict]:
    """One row per (grid cell, codebook replicate).

    Codebooks are resampled per replicate so averaging rows estimates the
    ensemble-average error, not one codebook's. Infeasible correlation
    thresholds become status=infeasible rows; if every cell is infeasible
    the sweep raises instead (nothing would run).
    """
    jobs, run = _decode_plan(spec)
    return run(jobs)


def _learn_row(spec: SweepSpec, cfg: LearnerConfig, job: dict) -> dict:
    t0 = time.perf_counter()
    res = run_learner(
        _cell_codebook(spec, job),
        job["sigma2"],
        cfg,
        spec.master_seed,
        seed_path=(job["gidx"], job["rep"], _STREAM_LEARNER),
        probes=spec.probes,
    )
    return {
        **{f: job[f] for f in _CELL_FIELDS},
        **{f: getattr(cfg, f) for f in _BUDGET_FIELDS},
        **{f: getattr(res, f) for f in _RESULT_FIELDS},
        **asdict(res.screening_stats),
        "seed": spec.master_seed,
        "wall_ms": (time.perf_counter() - t0) * 1000.0,
        **asdict(res.stage_times),
        "status": "ok",
    }


def _learn_plan(spec: SweepSpec):
    cfg = _checked(LearnerConfig, **spec.learner)
    jobs = _cell_jobs(spec, "learn")
    # Step II's thresholds are checked at every grid point before any row runs
    for job in jobs:
        _checked(build_step2_decoder, cfg, job["d"], job["k"], job["sigma2"])
    return jobs, partial(_run_jobs, fn=partial(_learn_row, spec, cfg), workers=spec.workers)


def run_learn_experiment(spec: SweepSpec) -> list[dict]:
    """One row per (grid cell, seed replicate) of the full learner."""
    jobs, run = _learn_plan(spec)
    return run(jobs)


# run_bounds_report's inputs, each with its default; a given value is cast
# to its default's type
_BOUNDS_INPUTS = {
    "d": 64,
    "k": 256,
    "sigma2": 1.0,
    "n": 1000.0,
    "eps": 0.01,
    "delta": 0.1,
    "e_delta": 0.0,
    "c0": 1.0,
    "const": 1.0,
}


def run_bounds_report(inputs: dict) -> list[dict]:
    """Evaluate every bound at the given inputs; pure, no randomness.

    Raises ConfigError on a key outside _BOUNDS_INPUTS, or a value that is
    not a finite real number (a bool is not one).
    """
    unknown = set(inputs) - set(_BOUNDS_INPUTS)
    if unknown:
        raise ConfigError(f"unknown bounds keys: {sorted(unknown)}")
    for key, v in inputs.items():
        require_number(f"bounds {key}", v, "a finite number", error=ConfigError)
    x = {key: type(default)(inputs.get(key, default)) for key, default in _BOUNDS_INPUTS.items()}
    d, k, sigma2, eps, e_delta = x["d"], x["k"], x["sigma2"], x["eps"], x["e_delta"]

    def constants(*keys):
        return ",".join(f"{key}={x[key]}" for key in keys)

    r = rate(d, k)
    rows = [
        ("capacity", capacity(sigma2), ""),
        ("capacity_inv_of_rate", capacity_inv(r), ""),
        ("rate", r, ""),
        ("binary_entropy_e_delta", binary_entropy(e_delta), ""),
        ("rdf_lower_bound", rdf_lower_bound(d, k, eps, x["c0"]), constants("c0")),
        ("labeled_mi_upper", labeled_mi_upper(d, k, sigma2, x["n"]), ""),
        ("sc_lower_trivial", sc_lower_trivial(eps, r), ""),
        ("single_sample_mi_upper", single_sample_mi_upper(x["delta"], e_delta, k), constants("delta", "e_delta")),
        ("quantitative_lower_positive", quantitative_lower_curve("positive", d, k, x["const"]), constants("const")),
        ("quantitative_lower_zero", quantitative_lower_curve("zero", d, k, x["const"]), constants("const")),
    ]
    return [{"quantity": q, "value": v, "constants": c} for q, v, c in rows]


def _net_row(spec: SweepSpec, cfg: LearnerConfig, job: dict) -> dict:
    t0 = time.perf_counter()
    gidx = job["gidx"]
    rng = rng_for(spec.master_seed, gidx, _STREAM_CODEBOOK)
    net = build_net(job["d"], job["eps_I"], rng=rng, **cfg.net_kwargs())
    frac = verify_covering(net, spec.probes, rng_for(spec.master_seed, gidx, _STREAM_TRIALS))
    return {
        "experiment_id": job["experiment_id"],
        "d": job["d"],
        "eps_I": job["eps_I"],
        "net_size": net.size,
        "probes": spec.probes,
        "covering_fraction": frac,
        "seed": spec.master_seed,
        "wall_ms": (time.perf_counter() - t0) * 1000.0,
        "status": "ok",
    }


def _net_plan(spec: SweepSpec):
    cells = [(d, eps_I) for d in spec.d for eps_I in spec.eps_I or (0.25,)]
    jobs = [{"gidx": g, "d": d, "eps_I": e, "experiment_id": f"net-{g}"} for g, (d, e) in enumerate(cells)]
    fn = partial(_net_row, spec, _checked(LearnerConfig, **spec.learner))
    return jobs, partial(_run_jobs, fn=fn, workers=spec.workers)


def run_net_stats(spec: SweepSpec) -> list[dict]:
    """Net size and empirical covering fraction per (d, eps_I)."""
    jobs, run = _net_plan(spec)
    return run(jobs)


def _run_jobs(jobs, fn, workers: int) -> list[dict]:
    """fn of each job, in order, on up to workers threads, this one among
    them (sphere.share_out)."""
    rows = [None] * len(jobs)

    def work(i: int, _state) -> None:
        rows[i] = fn(jobs[i])

    share_out(len(jobs), work, [None] * min(workers, len(jobs)))
    return rows


# ---------------------------------------------------------------------------
# CSV plumbing


def _format_value(v) -> str:
    if isinstance(v, float):
        if math.isnan(v):
            return "nan"
        return repr(v)
    return str(v)


def determinism_hash(rows: list[dict], fields: list[str]) -> str:
    """Hash of all row content except timing columns."""
    h = hashlib.blake2b(digest_size=16)
    for row in rows:
        for f in fields:
            if f in _TIMING_FIELDS:
                continue
            h.update(_format_value(row.get(f, "")).encode())
            h.update(b"\x1f")
        h.update(b"\x1e")
    return h.hexdigest()


def _build_environment() -> dict:
    """The numpy and BLAS builds and the BLAS thread setting, which the
    timing columns depend on. Whitespace inside a value becomes "_", as
    the metadata line is split on whitespace."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    env = {
        "numpy": np.__version__,
        "blas": f"{blas.get('name')}-{blas.get('version')}",
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS", "unset"),
    }
    return {k: "_".join(v.split()) or "unset" for k, v in env.items()}


def write_csv(path_or_buf, rows: list[dict], fields: list[str], spec: SweepSpec, constants: dict) -> str:
    """Write metadata comment + RFC-4180 rows; returns the determinism hash."""
    dhash = determinism_hash(rows, fields)
    meta = {
        "version": __version__,
        "config_hash": _config_hash(spec),
        "determinism_hash": dhash,
        **_build_environment(),
        **constants,
    }
    comment = "# " + " ".join(f"{k}={v}" for k, v in meta.items())

    def emit(f):
        f.write(comment + "\r\n")
        writer = csv.DictWriter(f, fieldnames=fields, lineterminator="\r\n")
        writer.writeheader()
        for row in rows:
            writer.writerow({k: _format_value(row.get(k, "")) for k in fields})

    if isinstance(path_or_buf, (str,)):
        with open(path_or_buf, "w", newline="") as f:
            emit(f)
    else:
        emit(path_or_buf)
    return dhash


def read_csv_rows(path: str) -> list[dict]:
    with open(path, newline="") as f:
        lines = [ln for ln in f if not ln.startswith("#")]
    return list(csv.DictReader(io.StringIO("".join(lines))))


# ---------------------------------------------------------------------------
# CLI


def _load_spec(config, kind: str, seed, out, workers, d, k, beta) -> SweepSpec:
    obj = {}
    if config:
        with open(config) as f:
            try:
                obj = json.load(f)
            except ValueError as exc:  # bad JSON, or bytes that are not text
                raise ConfigError(f"config is not valid JSON: {exc}") from exc
    obj.setdefault("kind", kind)
    if obj["kind"] != kind:
        raise ConfigError(f"config kind {obj['kind']!r} does not match subcommand {kind!r}")
    if seed is not None:
        obj["master_seed"] = seed
    if out is not None:
        obj["out"] = out
    if workers is not None:
        obj["workers"] = workers
    for key, flag, parse in (("d", d, int), ("k", k, int), ("beta", beta, float)):
        if flag is not None:
            try:
                obj[key] = [parse(x) for x in flag.split(",")]
            except ValueError as exc:
                raise ConfigError(f"--{key}: {exc}") from exc
    spec = parse_spec(obj)
    # an out no file can be written to is refused before any row runs
    if spec.out and not (isinstance(spec.out, str) and os.path.isdir(os.path.dirname(spec.out) or ".")):
        raise ConfigError(f"out must be a path in an existing directory, got {spec.out!r}")
    return spec


def _emit(rows, fields, spec, constants):
    if spec.out:
        dhash = write_csv(spec.out, rows, fields, spec, constants)
        click.echo(f"wrote {len(rows)} rows to {spec.out} (determinism_hash={dhash})")
    else:
        buf = io.StringIO()
        write_csv(buf, rows, fields, spec, constants)
        click.echo(buf.getvalue(), nl=False)


def _replay(spec: SweepSpec, row_id: str, plan, fields) -> int:
    """Recompute one row from its id and compare against the CSV on disk.

    Only the job with that id runs: plan(spec) gives the sweep's job list
    and the function that computes the rows of a list of its jobs.
    """
    if not spec.out:
        raise ConfigError("--replay needs --out (or config out) pointing at the original CSV")
    old_rows = read_csv_rows(spec.out)
    old = next((r for r in old_rows if r["experiment_id"] == row_id), None)
    if old is None:
        raise ConfigError(f"row {row_id!r} not found in {spec.out}")
    jobs, run = plan(spec)
    job = next((j for j in jobs if j["experiment_id"] == row_id), None)
    if job is None:
        raise ConfigError(f"row {row_id!r} not produced by this config")
    [new] = run([job])
    mismatches = []
    for f in fields:
        if f in _TIMING_FIELDS:
            continue
        if _format_value(new.get(f, "")) != old.get(f, ""):
            mismatches.append((f, old.get(f, ""), _format_value(new.get(f, ""))))
    if mismatches:
        for f, was, now in mismatches:
            click.echo(f"replay mismatch in {f}: recorded {was!r}, recomputed {now!r}", err=True)
        return EXIT_RUNTIME
    click.echo(f"replay of {row_id} matches the recorded row")
    return EXIT_OK


def _cli_guard(fn):
    """Map exception classes onto the documented exit codes."""

    def wrapper(*args, **kwargs):
        try:
            code = fn(*args, **kwargs)
        except (ConfigError, NetInfeasibleError, FileNotFoundError) as exc:
            click.echo(f"config error: {exc}", err=True)
            sys.exit(EXIT_CONFIG)
        except Exception as exc:  # noqa: BLE001 - deliberate catch-all boundary
            frame = traceback.extract_tb(exc.__traceback__)[-1]
            where = f"{os.path.basename(frame.filename)}:{frame.lineno}"
            click.echo(f"runtime error: {type(exc).__name__}: {exc} ({where})", err=True)
            sys.exit(EXIT_RUNTIME)
        sys.exit(code or EXIT_OK)

    return wrapper


_OPTIONS = {
    "config": click.option("--config", type=click.Path(), default=None, help="JSON experiment config."),
    "seed": click.option("--seed", type=int, default=None, help="Master seed override."),
    "out": click.option("--out", type=click.Path(), default=None, help="Output CSV path."),
    "workers": click.option(
        "--workers", type=int, default=None, help="Decode helper threads beside the main one, or learn and net-stats"
        " row threads counting the main one (results identical for any value)."
    ),
    "replay": click.option(
        "--replay", "replay_id", default=None, help="Recompute one row id and verify it matches the CSV."
    ),
    "d": click.option("--d", default=None, help="Comma-separated d grid override."),
    "k": click.option("--k", default=None, help="Comma-separated k grid override."),
    "beta": click.option("--beta", default=None, help="Comma-separated beta grid override."),
}


def _with_options(*names):
    """Attach the named shared options; a subcommand takes only those it reads."""

    def deco(fn):
        for name in reversed(names):
            fn = _OPTIONS[name](fn)
        return fn

    return deco


@click.group()
@click.version_option(version=__version__)
def main():
    """Spherical-code decoding and mixture-learning experiments."""


@main.command("decode-sweep")
@_with_options(*_OPTIONS)
@_cli_guard
def cmd_decode_sweep(config, seed, out, workers, replay_id, d, k, beta):
    """Monte Carlo decoding-error sweep over a parameter grid."""
    spec = _load_spec(config, "decode_sweep", seed, out, workers, d, k, beta)
    if replay_id:
        return _replay(spec, replay_id, _decode_plan, DECODE_FIELDS)
    rows = run_decode_sweep(spec)
    _emit(rows, DECODE_FIELDS, spec, {})
    return EXIT_OK


@main.command("learn")
@_with_options(*_OPTIONS)
@_cli_guard
def cmd_learn(config, seed, out, workers, replay_id, d, k, beta):
    """Run the two-step center learner across seeds and grid points."""
    spec = _load_spec(config, "learn", seed, out, workers, d, k, beta)
    if replay_id:
        return _replay(spec, replay_id, _learn_plan, LEARN_FIELDS)
    rows = run_learn_experiment(spec)
    constants = {f"learner.{key}": val for key, val in sorted(spec.learner.items())}
    _emit(rows, LEARN_FIELDS, spec, constants)
    return EXIT_OK


@main.command("bounds")
@_with_options("config", "out")
@click.option("--d", type=int, default=None, help="Dimension d (one value).")
@click.option("--k", type=int, default=None, help="Number of centers k (one value).")
@_cli_guard
def cmd_bounds(config, out, d, k):
    """Print (and optionally CSV) the closed-form bound table."""
    # --d and --k write into the spec, the table's one source of d and k,
    # so the CSV's config hash records them; a 0 is a value the spec
    # refuses, not an unset flag
    flags = [None if v is None else str(v) for v in (d, k)]
    spec = _load_spec(config, "bounds", None, out, None, *flags, None)
    if len(spec.d) > 1 or len(spec.k) > 1:
        raise ConfigError(f"bounds takes one d and one k, got d={list(spec.d)} k={list(spec.k)}")
    nested = sorted({"d", "k"} & set(spec.bounds))
    if nested:
        raise ConfigError(f"move {', '.join(nested)} out of the bounds block to the top-level config keys")
    rows = _checked(run_bounds_report, {**spec.bounds, "d": spec.d[0], "k": spec.k[0]})
    width = max(len(r["quantity"]) for r in rows)
    for r in rows:
        suffix = f"   [{r['constants']}]" if r["constants"] else ""
        click.echo(f"{r['quantity']:<{width}}  {r['value']: .9g}{suffix}")
    if spec.out:
        write_csv(spec.out, rows, ["quantity", "value", "constants"], spec, {})
        click.echo(f"wrote {len(rows)} rows to {spec.out}")
    return EXIT_OK


@main.command("net-stats")
@_with_options("config", "seed", "out", "replay", "d")
@_cli_guard
def cmd_net_stats(config, seed, out, replay_id, d):
    """Build nets and report size and empirical covering fraction."""
    spec = _load_spec(config, "net_stats", seed, out, None, d, None, None)
    if replay_id:
        return _replay(spec, replay_id, _net_plan, NET_FIELDS)
    rows = run_net_stats(spec)
    _emit(rows, NET_FIELDS, spec, {})
    return EXIT_OK


@main.command("phase-transition")
@_with_options(*_OPTIONS)
@_cli_guard
def cmd_phase_transition(config, seed, out, workers, replay_id, d, k, beta):
    """Decode sweep across a beta grid plus a monotonicity summary."""
    spec = _load_spec(config, "phase_transition", seed, out, workers, d, k, beta)
    if not spec.beta:
        spec = dataclasses.replace(spec, beta=(0.5, 0.75, 1.0, 1.5, 2.0))
    if replay_id:
        return _replay(spec, replay_id, _decode_plan, DECODE_FIELDS)
    rows = run_decode_sweep(spec)
    _emit(rows, DECODE_FIELDS, spec, {})
    # aggregate across replicates per (decoder, d, k, beta); each decoder
    # and geometry is judged on its own rows, and named when the sweep has
    # several
    blocks: dict[tuple, dict[float, list[dict]]] = {}
    for r in rows:
        blocks.setdefault((r["decoder"], r["d"], r["k"]), {}).setdefault(r["beta"], []).append(r)
    decoders, geometries = {key[0] for key in blocks}, {key[1:] for key in blocks}
    for (label, d_, k_), by_beta in blocks.items():
        if len(decoders) > 1:
            click.echo(f"decoder {label}")
        if len(geometries) > 1:
            click.echo(f"d={d_} k={k_}")
        click.echo("beta  rho_hat(aggregated)")
        # only rows that ran are pooled: a beta with none, its thresholds
        # infeasible, prints its status and is left out of the verdict
        agg = []
        for b in sorted(by_beta):
            ran = [r for r in by_beta[b] if r["status"] == "ok"]
            if not ran:
                click.echo(f"{b:<5g} {by_beta[b][0]['status']}")
                continue
            rho = sum(r["error_count"] for r in ran) / sum(r["trials"] for r in ran)
            agg.append(rho)
            click.echo(f"{b:<5g} {rho:.6f}")
        decreasing = all(a > b for a, b in zip(agg, agg[1:]))
        click.echo(f"strictly decreasing in beta: {decreasing}")
    return EXIT_OK


if __name__ == "__main__":
    main()
