"""Experiment orchestration and the command-line surface.

Sweeps are described by a JSON config (strict keys: typos are errors, not
silently ignored), run under deterministic counter-based seeding, and
written as RFC-4180 CSV with one `#` metadata comment line carrying the
package version, the config hash, the constants in effect, and a
determinism hash over everything except wall-clock columns. Reruns with
the same master seed produce identical bytes apart from timing.

Exit codes: 0 success, 2 config/validation error, 3 runtime error
(including replay mismatches).
"""

import csv
import hashlib
import io
import json
import math
import sys
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

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
from .decoders import (
    DecoderSpec,
    corr_feasibility_bound,
    corr_params_feasible,
    estimate_error_prob,
)
from .learner import LearnerConfig, run_learner
from .seeds import rng_for
from .sphere import build_net, verify_covering

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_RUNTIME = 3

# stream tags so different random objects in one cell never share a stream
_STREAM_CODEBOOK = 0
_STREAM_TRIALS = 1
_STREAM_LEARNER = 2

DECODE_FIELDS = [
    "experiment_id",
    "d",
    "k",
    "beta",
    "sigma2",
    "rate",
    "decoder",
    "trials",
    "error_count",
    "erasure_count",
    "rho_hat",
    "ci_low",
    "ci_high",
    "seed",
    "wall_ms",
    "status",
]

LEARN_FIELDS = [
    "experiment_id",
    "d",
    "k",
    "beta",
    "sigma2",
    "rate",
    "N",
    "Nbar",
    "m",
    "loss_avg",
    "loss_max",
    "genie_loss",
    "net_size",
    "t_close_size",
    "covering_fraction",
    "erasure_rate_step2",
    "seed",
    "wall_ms",
    "status",
]

# timing column is environment noise, never part of determinism
_TIMING_FIELDS = {"wall_ms"}


class ConfigError(ValueError):
    """Malformed or inconsistent experiment configuration."""


@dataclass(frozen=True)
class SweepSpec:
    """One experiment description.

    kind selects the experiment; the grids are lists and the sweep is
    their cartesian product. Decoder entries are DecoderSpec JSON objects
    or the shorthand {"kind": "mmse", "c": 1.2} resolved against each
    grid point's noise level.
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

    _KINDS = ("decode_sweep", "learn", "bounds", "net_stats", "phase_transition")

    def __post_init__(self):
        if self.kind not in self._KINDS:
            raise ConfigError(f"unknown experiment kind {self.kind!r}")
        if self.trials < 1:
            raise ConfigError("trials must be >= 1")
        if self.replicates < 1:
            raise ConfigError("replicates must be >= 1")
        if not self.d or not self.k:
            raise ConfigError("d and k grids must be nonempty")
        if self.beta and self.sigma2:
            raise ConfigError("give a beta grid or a sigma2 grid, not both")
        for s2 in self.sigma2:
            if s2 <= 0:
                raise ConfigError(f"sigma2 must be > 0, got {s2}")


_SPEC_KEYS = {
    "kind",
    "d",
    "k",
    "beta",
    "sigma2",
    "decoders",
    "trials",
    "replicates",
    "master_seed",
    "out",
    "workers",
    "learner",
    "bounds",
    "eps_I",
    "probes",
}

_LEARNER_KEYS = {
    "eps_I",
    "eps",
    "N",
    "Nbar",
    "phi",
    "test_kind",
    "decoder_kind",
    "threshold_const",
    "corr_eta1",
    "corr_eta2",
    "mmse_c",
    "mmse_c2",
    "eps0",
    "net_strategy",
    "C_net",
    "c_net",
    "d_max_net",
    "R_switch",
}


def parse_spec(obj: dict) -> SweepSpec:
    """Validate a config dict into a SweepSpec; unknown keys are errors."""
    if not isinstance(obj, dict):
        raise ConfigError("config root must be a JSON object")
    unknown = set(obj) - _SPEC_KEYS
    if unknown:
        raise ConfigError(f"unknown config keys: {sorted(unknown)}")
    if "learner" in obj:
        bad = set(obj["learner"]) - _LEARNER_KEYS
        if bad:
            raise ConfigError(f"unknown learner config keys: {sorted(bad)}")
    kw = dict(obj)
    for key in ("d", "k", "beta", "sigma2", "eps_I"):
        if key in kw:
            val = kw[key]
            kw[key] = tuple(val) if isinstance(val, (list, tuple)) else (val,)
    if "decoders" in kw:
        kw["decoders"] = tuple(kw["decoders"])
    try:
        return SweepSpec(**kw)
    except TypeError as exc:
        raise ConfigError(str(exc)) from exc


def _config_hash(spec: SweepSpec) -> str:
    blob = json.dumps(
        {k: v for k, v in spec.__dict__.items() if k != "out"},
        sort_keys=True,
        default=str,
    )
    return hashlib.blake2b(blob.encode(), digest_size=8).hexdigest()


def _resolve_decoder(entry: dict, sigma2: float) -> DecoderSpec:
    """Materialize a decoder entry at a concrete noise level.

    Accepts full DecoderSpec dicts or the c-factor shorthand for the
    residual decoders ({"kind": "mmse", "c": 1.2, "c2": ...}).
    """
    entry = dict(entry)
    kind = entry.pop("kind", None)
    if kind is None:
        raise ConfigError("decoder entry needs a 'kind'")
    if kind == "nn":
        if entry:
            raise ConfigError(f"nn decoder takes no params, got {sorted(entry)}")
        return DecoderSpec.nn()
    if kind in ("corr", "mismatched_corr"):
        unknown = set(entry) - {"eta1", "eta2"}
        if unknown:
            raise ConfigError(f"unknown corr decoder keys: {sorted(unknown)}")
        eta1 = entry.get("eta1")
        if eta1 is None:
            raise ConfigError("corr decoder needs eta1")
        return DecoderSpec.corr(
            float(eta1), float(entry.get("eta2", eta1)), mismatched=kind.startswith("mismatched")
        )
    if kind in ("mmse", "mismatched_mmse"):
        if "c" in entry:
            unknown = set(entry) - {"c", "c2"}
            if unknown:
                raise ConfigError(f"unknown mmse decoder keys: {sorted(unknown)}")
            return DecoderSpec.mmse(
                sigma2,
                c=float(entry["c"]),
                c2=float(entry["c2"]) if "c2" in entry else None,
                mismatched=kind.startswith("mismatched"),
            )
        unknown = set(entry) - {"alpha", "tau", "tau1", "tau2"}
        if unknown:
            raise ConfigError(f"unknown mmse decoder keys: {sorted(unknown)}")
        return DecoderSpec(kind=kind, params=entry)
    raise ConfigError(f"unknown decoder kind {kind!r}")


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


def run_decode_sweep(spec: SweepSpec, *, debug_scan: bool = False) -> list[dict]:
    """One row per (grid cell, codebook replicate).

    Codebooks are resampled per replicate so averaging rows estimates the
    ensemble-average error, not one codebook's. Infeasible correlation
    thresholds become status=infeasible rows; if every cell is infeasible
    the sweep raises instead (nothing would run).
    """
    cells = _grid(spec)
    jobs = [(cell, rep) for cell in cells for rep in range(spec.replicates)]

    def run_one(job):
        cell, rep = job
        t0 = time.perf_counter()
        d, k, sigma2 = cell["d"], cell["k"], cell["sigma2"]
        entry = cell["decoder_entry"]
        seed_key = (cell["gidx"], rep)
        row = {
            "experiment_id": f"dsweep-{cell['gidx']}-{rep}",
            "d": d,
            "k": k,
            "beta": cell["beta"],
            "sigma2": sigma2,
            "rate": cell["rate"],
            "decoder": _decoder_label(entry),
            "trials": spec.trials,
            "seed": spec.master_seed,
            "status": "ok",
        }
        dec = _resolve_decoder(entry, sigma2)
        if dec.kind in ("corr", "mismatched_corr"):
            p = dec.corr_params()
            if not corr_params_feasible(d, k, sigma2, p):
                bound = corr_feasibility_bound(d, k, sigma2, p.eta1)
                row.update(
                    error_count=0,
                    erasure_count=0,
                    rho_hat=float("nan"),
                    ci_low=float("nan"),
                    ci_high=float("nan"),
                    status=f"infeasible eta2>={bound:.6f}",
                    wall_ms=0.0,
                )
                return row
        cb = sample_codebook(d, k, rng_for(spec.master_seed, *seed_key, _STREAM_CODEBOOK))
        est = estimate_error_prob(
            cb,
            sigma2,
            dec,
            spec.trials,
            spec.master_seed,
            seed_path=(*seed_key, _STREAM_TRIALS),
            debug_scan=debug_scan,
        )
        row.update(
            error_count=est.error_count,
            erasure_count=est.erasure_count,
            rho_hat=est.rho_hat,
            ci_low=est.ci_low,
            ci_high=est.ci_high,
            wall_ms=(time.perf_counter() - t0) * 1000.0,
        )
        return row

    rows = _run_jobs(jobs, run_one, spec.workers)
    if rows and all(str(r["status"]).startswith("infeasible") for r in rows):
        raise ConfigError(
            "all grid points have infeasible decoder thresholds; "
            f"first violation: {rows[0]['status']}"
        )
    return rows


def run_learn_experiment(spec: SweepSpec) -> list[dict]:
    """One row per (grid cell, seed replicate) of the full learner."""
    base = dict(spec.learner)
    cells = _grid(spec)
    jobs = [(cell, rep) for cell in cells for rep in range(spec.replicates)]

    def run_one(job):
        cell, rep = job
        t0 = time.perf_counter()
        d, k, sigma2 = cell["d"], cell["k"], cell["sigma2"]
        cfg = LearnerConfig(**base)
        cb = sample_codebook(
            d, k, rng_for(spec.master_seed, cell["gidx"], rep, _STREAM_CODEBOOK)
        )
        res = run_learner(
            cb,
            sigma2,
            cfg,
            spec.master_seed,
            seed_path=(cell["gidx"], rep, _STREAM_LEARNER),
            probes=spec.probes,
        )
        return {
            "experiment_id": f"learn-{cell['gidx']}-{rep}",
            "d": d,
            "k": k,
            "beta": cell["beta"],
            "sigma2": sigma2,
            "rate": cell["rate"],
            "N": cfg.N,
            "Nbar": cfg.Nbar,
            "m": res.m,
            "loss_avg": res.loss_avg,
            "loss_max": res.loss_max,
            "genie_loss": res.genie_loss,
            "net_size": res.screening_stats.net_size,
            "t_close_size": res.screening_stats.t_close_size,
            "covering_fraction": res.screening_stats.covering_fraction,
            "erasure_rate_step2": res.screening_stats.erasure_rate_step2,
            "seed": spec.master_seed,
            "wall_ms": (time.perf_counter() - t0) * 1000.0,
            "status": "ok",
        }

    return _run_jobs(jobs, run_one, spec.workers)


def run_bounds_report(inputs: dict) -> list[dict]:
    """Evaluate every bound at the given inputs; pure, no randomness."""
    allowed = {"d", "k", "sigma2", "n", "eps", "delta", "e_delta", "c0", "const"}
    unknown = set(inputs) - allowed
    if unknown:
        raise ConfigError(f"unknown bounds keys: {sorted(unknown)}")
    d = int(inputs.get("d", 64))
    k = int(inputs.get("k", 256))
    sigma2 = float(inputs.get("sigma2", 1.0))
    n = float(inputs.get("n", 1000))
    eps = float(inputs.get("eps", 0.01))
    delta = float(inputs.get("delta", 0.1))
    e_delta = float(inputs.get("e_delta", 0.0))
    c0 = float(inputs.get("c0", 1.0))
    const = float(inputs.get("const", 1.0))
    r = rate(d, k)
    rows = [
        {"quantity": "capacity", "value": capacity(sigma2), "constants": ""},
        {"quantity": "capacity_inv_of_rate", "value": capacity_inv(r), "constants": ""},
        {"quantity": "rate", "value": r, "constants": ""},
        {"quantity": "binary_entropy_e_delta", "value": binary_entropy(e_delta), "constants": ""},
        {"quantity": "rdf_lower_bound", "value": rdf_lower_bound(d, k, eps, c0), "constants": f"c0={c0}"},
        {"quantity": "labeled_mi_upper", "value": labeled_mi_upper(d, k, sigma2, n), "constants": ""},
        {"quantity": "sc_lower_trivial", "value": sc_lower_trivial(eps, r), "constants": ""},
        {
            "quantity": "single_sample_mi_upper",
            "value": single_sample_mi_upper(delta, e_delta, k),
            "constants": f"delta={delta},e_delta={e_delta}",
        },
        {
            "quantity": "quantitative_lower_positive",
            "value": quantitative_lower_curve("positive", d, k, const),
            "constants": f"const={const}",
        },
        {
            "quantity": "quantitative_lower_zero",
            "value": quantitative_lower_curve("zero", d, k, const),
            "constants": f"const={const}",
        },
    ]
    return rows


def run_net_stats(spec: SweepSpec) -> list[dict]:
    """Net size and empirical covering fraction per (d, eps_I)."""
    eps_grid = spec.eps_I or (0.25,)
    rows = []
    gidx = 0
    for d in spec.d:
        for eps_I in eps_grid:
            t0 = time.perf_counter()
            base = dict(spec.learner)
            cfg = LearnerConfig(**base) if base else LearnerConfig()
            net = build_net(
                d,
                eps_I,
                strategy=cfg.net_strategy,
                rng=rng_for(spec.master_seed, gidx, _STREAM_CODEBOOK),
                C_net=cfg.C_net,
                c_net=cfg.c_net,
                d_max_net=cfg.d_max_net,
            )
            frac = verify_covering(net, spec.probes, rng_for(spec.master_seed, gidx, _STREAM_TRIALS))
            rows.append(
                {
                    "experiment_id": f"net-{gidx}",
                    "d": d,
                    "eps_I": eps_I,
                    "net_size": net.size,
                    "probes": spec.probes,
                    "covering_fraction": frac,
                    "seed": spec.master_seed,
                    "wall_ms": (time.perf_counter() - t0) * 1000.0,
                    "status": "ok",
                }
            )
            gidx += 1
    return rows


def _run_jobs(jobs, fn, workers: int) -> list[dict]:
    if workers > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            return list(pool.map(fn, jobs))
    return [fn(j) for j in jobs]


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


def write_csv(path_or_buf, rows: list[dict], fields: list[str], spec: SweepSpec | None, constants: dict) -> str:
    """Write metadata comment + RFC-4180 rows; returns the determinism hash."""
    dhash = determinism_hash(rows, fields)
    meta = {
        "version": __version__,
        "config_hash": _config_hash(spec) if spec is not None else "",
        "determinism_hash": dhash,
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
            except json.JSONDecodeError as exc:
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
    if d:
        obj["d"] = [int(x) for x in d.split(",")]
    if k:
        obj["k"] = [int(x) for x in k.split(",")]
    if beta:
        obj["beta"] = [float(x) for x in beta.split(",")]
    return parse_spec(obj)


def _emit(rows, fields, spec, constants, default_out=None):
    out = spec.out or default_out
    if out:
        dhash = write_csv(out, rows, fields, spec, constants)
        click.echo(f"wrote {len(rows)} rows to {out} (determinism_hash={dhash})")
    else:
        buf = io.StringIO()
        write_csv(buf, rows, fields, spec, constants)
        click.echo(buf.getvalue(), nl=False)


def _replay(spec: SweepSpec, row_id: str, runner, fields) -> int:
    """Recompute one row from its id and compare against the CSV on disk."""
    if not spec.out:
        raise ConfigError("--replay needs --out (or config out) pointing at the original CSV")
    old_rows = read_csv_rows(spec.out)
    old = next((r for r in old_rows if r["experiment_id"] == row_id), None)
    if old is None:
        raise ConfigError(f"row {row_id!r} not found in {spec.out}")
    new_rows = runner(spec)
    new = next((r for r in new_rows if r["experiment_id"] == row_id), None)
    if new is None:
        raise ConfigError(f"row {row_id!r} not produced by this config")
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
        except (ConfigError, ValueError, KeyError, FileNotFoundError) as exc:
            click.echo(f"config error: {exc}", err=True)
            sys.exit(EXIT_CONFIG)
        except Exception as exc:  # noqa: BLE001 - deliberate catch-all boundary
            click.echo(f"runtime error: {exc}", err=True)
            sys.exit(EXIT_RUNTIME)
        sys.exit(code or EXIT_OK)

    return wrapper


_OPTIONS = {
    "config": click.option("--config", type=click.Path(), default=None, help="JSON experiment config."),
    "seed": click.option("--seed", type=int, default=None, help="Master seed override."),
    "out": click.option("--out", type=click.Path(), default=None, help="Output CSV path."),
    "workers": click.option(
        "--workers", type=int, default=None, help="Worker threads (results identical for any value)."
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
        return _replay(spec, replay_id, run_decode_sweep, DECODE_FIELDS)
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
        return _replay(spec, replay_id, run_learn_experiment, LEARN_FIELDS)
    rows = run_learn_experiment(spec)
    constants = {f"learner.{key}": val for key, val in sorted(spec.learner.items())}
    _emit(rows, LEARN_FIELDS, spec, constants)
    return EXIT_OK


@main.command("bounds")
@_with_options("config", "seed", "out", "d", "k")
@_cli_guard
def cmd_bounds(config, seed, out, d, k):
    """Print (and optionally CSV) the closed-form bound table."""
    spec = _load_spec(config, "bounds", seed, out, None, d, k, None)
    inputs = dict(spec.bounds)
    if d:
        inputs["d"] = int(d.split(",")[0])
    if k:
        inputs["k"] = int(k.split(",")[0])
    rows = run_bounds_report(inputs)
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
    fields = [
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
    if replay_id:
        return _replay(spec, replay_id, run_net_stats, fields)
    rows = run_net_stats(spec)
    _emit(rows, fields, spec, {})
    return EXIT_OK


@main.command("phase-transition")
@_with_options(*_OPTIONS)
@_cli_guard
def cmd_phase_transition(config, seed, out, workers, replay_id, d, k, beta):
    """Decode sweep across a beta grid plus a monotonicity summary."""
    spec = _load_spec(config, "phase_transition", seed, out, workers, d, k, beta)
    if not spec.beta:
        spec = SweepSpec(**{**spec.__dict__, "beta": (0.5, 0.75, 1.0, 1.5, 2.0)})
    sweep = SweepSpec(**{**spec.__dict__, "kind": "decode_sweep"})
    if replay_id:
        return _replay(sweep, replay_id, run_decode_sweep, DECODE_FIELDS)
    rows = run_decode_sweep(sweep)
    _emit(rows, DECODE_FIELDS, spec, {})
    # aggregate across replicates per beta for the summary
    by_beta: dict[float, list[dict]] = {}
    for r in rows:
        by_beta.setdefault(r["beta"], []).append(r)
    click.echo("beta  rho_hat(aggregated)")
    agg = []
    for b in sorted(by_beta):
        errs = sum(r["error_count"] for r in by_beta[b])
        tot = sum(r["trials"] for r in by_beta[b])
        agg.append((b, errs / tot))
        click.echo(f"{b:<5g} {errs / tot:.6f}")
    decreasing = all(agg[i][1] > agg[i + 1][1] for i in range(len(agg) - 1))
    click.echo(f"strictly decreasing in beta: {decreasing}")
    return EXIT_OK


if __name__ == "__main__":
    main()
