import dataclasses
import io
import json
import math
import os
import re
import subprocess
import sys
import threading

import numpy as np
import pytest
from click.testing import CliRunner

import spherecodes
from spherecodes import expcli
from spherecodes.decoders import TRIAL_BLOCK, DecoderSpec
from spherecodes.expcli import (
    DECODE_FIELDS,
    LEARN_FIELDS,
    NET_FIELDS,
    ConfigError,
    SweepSpec,
    _TIMING_FIELDS,
    _grid,
    _resolve_decoder,
    determinism_hash,
    main,
    parse_spec,
    read_csv_rows,
    run_bounds_report,
    run_decode_sweep,
    run_learn_experiment,
    run_net_stats,
    write_csv,
)
from spherecodes.learner import LearnerConfig, ScreeningStats, StageTimes
from spherecodes.sphere import _blas_thread_setter

from .oracles import sigma2_for_beta_ref


# ---------------------------------------------------------------------------
# config parsing


def test_parse_spec_scalars_become_grids():
    spec = parse_spec({"kind": "decode_sweep", "d": 8, "k": 4, "beta": 2.0})
    assert spec.d == (8,) and spec.k == (4,) and spec.beta == (2.0,)


def test_parse_spec_rejects_unknown_keys():
    with pytest.raises(ConfigError, match="unknown config keys"):
        parse_spec({"kind": "decode_sweep", "d": [8], "k": [4], "trails": 100})
    with pytest.raises(ConfigError, match="unknown learner config keys"):
        parse_spec({"kind": "learn", "d": [8], "k": [4], "learner": {"epsI": 0.2}})


# an integer too large for a float, named by its size in test ids
HUGE = 10**400


def huge_id(v):
    if v == [HUGE]:
        return "[HUGE]"
    return {HUGE: "HUGE", -HUGE: "-HUGE"}.get(v) if isinstance(v, int) else None


# integer keys given a non-integer (a bool is not one here), and probes
# below its floor of 1
BAD_TYPED_VALUES = [
    ("trials", 150.5),
    ("master_seed", 1.5),
    ("probes", 10.5),
    ("probes", 0),
    ("replicates", True),
    ("workers", 1.5),
]


def test_parse_spec_rejects_bad_values():
    with pytest.raises(ConfigError, match="kind"):
        parse_spec({"kind": "mystery", "d": [8], "k": [4]})
    for key, value in (("trials", 0), ("trials", 99), ("workers", 0), ("workers", -3), *BAD_TYPED_VALUES):
        with pytest.raises(ConfigError, match=key):
            parse_spec({"kind": "decode_sweep", "d": [8], "k": [4], key: value})
    with pytest.raises(ConfigError, match="not both"):
        parse_spec(
            {"kind": "decode_sweep", "d": [8], "k": [4], "beta": [2.0], "sigma2": [1.0]}
        )
    with pytest.raises(ConfigError, match="sigma2"):
        parse_spec({"kind": "decode_sweep", "d": [8], "k": [4], "sigma2": [-1.0]})
    with pytest.raises(ConfigError):
        parse_spec({"kind": "decode_sweep", "d": [], "k": [4]})


def test_resolve_decoder_shorthand_and_validation():
    spec = _resolve_decoder({"kind": "mmse", "c": 1.3}, sigma2=1.0)
    p = spec.record
    assert p.tau1 == pytest.approx(1.3 * 0.5, rel=1e-12)
    assert p.tau2 == pytest.approx(1.3 * 1.3 * 0.5, rel=1e-12)
    full = _resolve_decoder(
        {"kind": "mmse", "alpha": 0.5, "tau": 0.5, "tau1": 0.6, "tau2": 1.5}, sigma2=1.0
    )
    assert full.kind == "mmse"
    corr = _resolve_decoder({"kind": "corr", "eta1": 0.3}, sigma2=1.0)
    assert corr.record.eta2 == 0.3
    with pytest.raises(ConfigError, match="kind"):
        _resolve_decoder({}, sigma2=1.0)
    with pytest.raises(ConfigError, match="no params"):
        _resolve_decoder({"kind": "nn", "eta1": 0.1}, sigma2=1.0)
    with pytest.raises(ConfigError, match="eta1"):
        _resolve_decoder({"kind": "corr"}, sigma2=1.0)
    with pytest.raises(ConfigError, match="unknown mmse"):
        _resolve_decoder({"kind": "mmse", "c": 1.2, "tua2": 1.0}, sigma2=1.0)


@pytest.mark.parametrize(
    "entry, message",
    [
        ({}, "entry needs a 'kind'"),
        ({"kind": "nn", "eta1": 0.1}, "it takes no params"),
        ({"kind": "corr"}, "corr decoder is missing fields ['eta1', 'eta2']"),
        ({"kind": "corr", "eta1": 0.3, "eta2": None}, "corr decoder field eta2 must be a finite number, got None"),
        ({"kind": "mmse", "c": 1.2, "tua2": 1.0}, "unknown mmse decoder keys ['tua2'] beside the shorthand c, c2"),
        ({"kind": "mmse", "c": 0.9}, "threshold factor c must be >= 1"),
        ({"kind": "mmse", "c": "1.2"}, "threshold factor c must be a finite number, got '1.2'"),
    ],
    ids=["no-kind", "nn-field", "corr-missing", "eta2-none", "beside-shorthand", "c-below-1", "c-string"],
)
def test_resolve_decoder_is_at_noise_naming_the_entry(entry, message):
    with pytest.raises((TypeError, ValueError), match=re.escape(message)) as exc:
        DecoderSpec.at_noise(entry, 1.0)
    with pytest.raises(ConfigError) as config_exc:
        _resolve_decoder(entry, 1.0)
    assert str(config_exc.value) == f"decoder entry {json.dumps(entry, sort_keys=True)}: {exc.value}"


def test_grid_order_and_noise_axes():
    spec = parse_spec(
        {
            "kind": "decode_sweep",
            "d": [8, 16],
            "k": [4],
            "beta": [0.5, 2.0],
            "decoders": [{"kind": "nn"}],
        }
    )
    cells = _grid(spec)
    assert [c["gidx"] for c in cells] == [0, 1, 2, 3]
    assert [(c["d"], c["beta"]) for c in cells] == [
        (8, 0.5),
        (8, 2.0),
        (16, 0.5),
        (16, 2.0),
    ]
    for c in cells:
        assert c["sigma2"] == pytest.approx(
            sigma2_for_beta_ref(c["d"], c["k"], c["beta"]), rel=1e-12
        )
    spec2 = parse_spec({"kind": "decode_sweep", "d": [8], "k": [4], "sigma2": [1.5]})
    cell = _grid(spec2)[0]
    assert cell["sigma2"] == 1.5 and math.isnan(cell["beta"])


# ---------------------------------------------------------------------------
# sweep runners


def small_sweep(**over):
    base = {
        "kind": "decode_sweep",
        "d": [8],
        "k": [4],
        "beta": [2.0],
        "decoders": [{"kind": "nn"}],
        "trials": 200,
        "master_seed": 11,
    }
    base.update(over)
    return parse_spec(base)


def test_decode_sweep_accounting():
    rows = run_decode_sweep(small_sweep(trials=100))
    assert len(rows) == 1
    r = rows[0]
    assert r["trials"] == 100
    assert 0 <= r["error_count"] <= 100
    assert r["rho_hat"] == r["error_count"] / 100
    assert r["status"] == "ok"
    assert r["experiment_id"] == "dsweep-0-0"


def test_decode_sweep_replicates_resample_codebooks():
    rows = run_decode_sweep(small_sweep(replicates=3, beta=[0.9], trials=400))
    assert len(rows) == 3
    # same cell, fresh codebook and trials per replicate: counts differ
    assert len({r["error_count"] for r in rows}) > 1


def test_decode_sweep_worker_invariance():
    a = run_decode_sweep(small_sweep(replicates=2, workers=1))
    b = run_decode_sweep(small_sweep(replicates=2, workers=4))
    assert determinism_hash(a, DECODE_FIELDS) == determinism_hash(b, DECODE_FIELDS)


def test_decode_sweep_infeasible_rows():
    # eta2 = 0.9 sits far above the feasibility bound at this noise
    spec = small_sweep(
        decoders=[{"kind": "corr", "eta1": 0.5, "eta2": 0.9}, {"kind": "nn"}]
    )
    rows = run_decode_sweep(spec)
    statuses = {r["experiment_id"]: r["status"] for r in rows}
    assert statuses["dsweep-0-0"].startswith("infeasible eta2>=")
    assert statuses["dsweep-1-0"] == "ok"
    bad = next(r for r in rows if r["status"].startswith("infeasible"))
    assert math.isnan(bad["rho_hat"])


def test_decode_sweep_all_infeasible_raises():
    spec = small_sweep(decoders=[{"kind": "corr", "eta1": 0.5, "eta2": 0.9}])
    with pytest.raises(ConfigError, match="infeasible"):
        run_decode_sweep(spec)


def test_learn_rows_and_noiseless_surrogate():
    spec = parse_spec(
        {
            "kind": "learn",
            "d": [6],
            "k": [4],
            "sigma2": [1e-12],
            "replicates": 2,
            "master_seed": 3,
            "probes": 500,
            "learner": {
                "N": 400,
                "Nbar": 200,
                "eps_I": 0.25,
                "decoder_kind": "mismatched_corr",
                "C_net": 4.0,
            },
        }
    )
    rows = run_learn_experiment(spec)
    assert len(rows) == 2
    for r in rows:
        assert set(LEARN_FIELDS) <= set(r)
        assert r["loss_avg"] <= 0.25  # eps_I
        assert r["m"] <= 4
        assert r["status"] == "ok"


def test_learn_budget_doubling_does_not_hurt():
    def sweep(nbar):
        spec = parse_spec(
            {
                "kind": "learn",
                "d": [6],
                "k": [4],
                "beta": [2.0],
                "replicates": 8,
                "master_seed": 5,
                "probes": 500,
                "learner": {
                    "N": 800,
                    "Nbar": nbar,
                    "test_kind": "zero_rate",
                    "decoder_kind": "mismatched_mmse",
                    "mmse_c": 1.4,
                    "mmse_c2": 1.4,
                    "C_net": 4.0,
                },
            }
        )
        return float(np.median([r["loss_avg"] for r in run_learn_experiment(spec)]))

    m1, m2, m3 = sweep(100), sweep(200), sweep(400)
    assert m3 <= m2 <= m1


def test_learn_genie_usually_wins():
    spec = parse_spec(
        {
            "kind": "learn",
            "d": [6],
            "k": [4],
            "beta": [2.0],
            "replicates": 10,
            "master_seed": 7,
            "probes": 500,
            "learner": {
                "N": 800,
                "Nbar": 400,
                "test_kind": "zero_rate",
                "decoder_kind": "mismatched_mmse",
                "mmse_c": 1.4,
                "mmse_c2": 1.4,
                "C_net": 4.0,
            },
        }
    )
    rows = run_learn_experiment(spec)
    wins = sum(r["genie_loss"] <= r["loss_avg"] for r in rows)
    assert wins >= 0.9 * len(rows)


def test_bounds_report_pure_and_strict():
    inputs = {"d": 16, "k": 8, "sigma2": 1.0, "n": 100, "eps": 0.01}
    a = run_bounds_report(inputs)
    b = run_bounds_report(inputs)
    assert a == b
    by_name = {r["quantity"]: r["value"] for r in a}
    assert by_name["capacity"] == pytest.approx(0.5 * math.log(2), rel=1e-12)
    assert by_name["sc_lower_trivial"] == pytest.approx(
        math.exp(-2 * math.log(8) / 16) / 0.01 - 1, rel=1e-12
    )
    with pytest.raises(ConfigError, match="unknown bounds keys"):
        run_bounds_report({"sigma": 1.0})


def test_net_stats_rows():
    spec = parse_spec(
        {"kind": "net_stats", "d": [4], "eps_I": [0.3], "probes": 500}
    )
    rows = run_net_stats(spec)
    assert len(rows) == 1
    assert rows[0]["net_size"] > 0
    assert 0.0 <= rows[0]["covering_fraction"] <= 1.0


def test_net_stats_rows_hold_blas_at_one_thread(monkeypatch):
    setter = _blas_thread_setter()
    if setter is None:
        pytest.skip("no openblas_set_num_threads_local in numpy's BLAS")
    # the setter returns the count it replaces, so setting 1 reads it
    seen = []
    covering = expcli.verify_covering

    def covering_reading(*args):
        seen.append(setter(1))
        return covering(*args)

    monkeypatch.setattr(expcli, "verify_covering", covering_reading)
    start = setter(2)
    try:
        run_net_stats(parse_spec({"kind": "net_stats", "d": [3, 4], "eps_I": [0.3], "probes": 200, "workers": 2}))
        assert seen == [1, 1]
        assert setter(2) == 2
    finally:
        setter(start)


def test_net_stats_worker_invariance():
    def sweep(workers):
        spec = parse_spec(
            {"kind": "net_stats", "d": [3, 4], "eps_I": [0.3, 0.4], "probes": 200, "workers": workers}
        )
        return run_net_stats(spec)

    a = sweep(1)
    assert [r["experiment_id"] for r in a] == ["net-0", "net-1", "net-2", "net-3"]
    for workers in (2, 4):
        assert determinism_hash(sweep(workers), NET_FIELDS) == determinism_hash(a, NET_FIELDS)


# ---------------------------------------------------------------------------
# CSV plumbing


def test_write_csv_layout(tmp_path):
    spec = small_sweep()
    rows = run_decode_sweep(spec)
    path = str(tmp_path / "out.csv")
    dhash = write_csv(path, rows, DECODE_FIELDS, spec, {})
    raw = open(path, "rb").read()
    text = raw.decode()
    first, second = text.split("\r\n")[:2]
    assert first.startswith("# version=")
    assert f"determinism_hash={dhash}" in first
    assert "config_hash=" in first
    # the numpy and BLAS builds and the thread setting, as key=value items
    # without spaces, so perfbench's whitespace split of the line reads them
    meta = dict(item.partition("=")[::2] for item in first[1:].split())
    assert meta["numpy"] == np.__version__
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    assert meta["blas"] == "_".join(f"{blas['name']}-{blas['version']}".split())
    assert meta["blas_threads"] == os.environ.get("OPENBLAS_NUM_THREADS", "unset")
    assert second == ",".join(DECODE_FIELDS)
    assert b"\r\n" in raw
    back = read_csv_rows(path)
    assert len(back) == len(rows)
    assert back[0]["experiment_id"] == rows[0]["experiment_id"]


def _header(text: str) -> dict:
    """The key=value items of a CSV's metadata line."""
    return dict(item.partition("=")[::2] for item in text.split("\r\n")[0][1:].split())


def test_csvs_of_one_experiment_at_any_workers_share_a_config_hash():
    def config_hash(**over):
        buf = io.StringIO()
        write_csv(buf, [], DECODE_FIELDS, small_sweep(**over), {})
        return _header(buf.getvalue())["config_hash"]

    assert config_hash(workers=1) == config_hash(workers=4) == config_hash(out="x.csv")
    assert config_hash() != config_hash(master_seed=12)


def test_determinism_hash_ignores_timing_only():
    rows = [dict(r) for r in run_decode_sweep(small_sweep())]
    h0 = determinism_hash(rows, DECODE_FIELDS)
    rows[0]["wall_ms"] = 123456.0
    assert determinism_hash(rows, DECODE_FIELDS) == h0
    rows[0]["error_count"] += 1
    assert determinism_hash(rows, DECODE_FIELDS) != h0


def test_decode_rows_time_the_noise_and_the_decode_outside_the_hash():
    # a row's blocks may run on all the sweep's threads at once: wall_ms is
    # the row's span, and noise_ms and decode_ms sum its blocks' draws and
    # decodes over every thread, so with workers helper threads their sum
    # stays under (workers + 1) * wall_ms
    assert {"wall_ms", "noise_ms", "decode_ms"} <= set(DECODE_FIELDS)
    for workers in (1, 2):
        rows = run_decode_sweep(small_sweep(replicates=2, trials=3 * TRIAL_BLOCK, workers=workers))
        for r in rows:
            assert r["noise_ms"] > 0 and r["decode_ms"] > 0
            assert r["noise_ms"] + r["decode_ms"] < (workers + 1) * r["wall_ms"]
    bare = [{f: v for f, v in r.items() if f not in ("noise_ms", "decode_ms")} for r in rows]
    fields = [f for f in DECODE_FIELDS if f not in ("noise_ms", "decode_ms")]
    assert determinism_hash(rows, DECODE_FIELDS) == determinism_hash(bare, fields)


def test_learn_columns_are_the_learner_records_fields():
    # a new ScreeningStats field is a new learn column, and every stage
    # time is a timing column, outside the determinism hash
    assert {f.name for f in dataclasses.fields(ScreeningStats)} <= set(LEARN_FIELDS)
    assert {f.name for f in dataclasses.fields(StageTimes)} <= set(LEARN_FIELDS) & _TIMING_FIELDS


def test_learn_rows_time_each_stage_outside_the_hash():
    spec = parse_spec(
        {
            "kind": "learn",
            "d": [6],
            "k": [4],
            "beta": [2.0, 0.5],
            "master_seed": 9,
            "probes": 500,
            "learner": {"N": 400, "Nbar": 200, "test_kind": "zero_rate", "C_net": 4.0},
        }
    )
    rows = run_learn_experiment(spec)
    stages = ["net_ms", "covering_ms", "step1_ms", "select_ms", "step2_ms", "genie_ms"]
    assert set(stages) <= set(LEARN_FIELDS) & _TIMING_FIELDS
    for r in rows:
        assert all(r[f] > 0 for f in stages)
        # the net and its covering certificate are made inside Step I's
        # queue, so Step I's time contains theirs
        assert r["net_ms"] + r["covering_ms"] < r["step1_ms"]
        assert sum(r[f] for f in stages[2:]) < r["wall_ms"]
    bare = [{f: v for f, v in r.items() if f not in stages} for r in rows]
    fields = [f for f in LEARN_FIELDS if f not in stages]
    assert determinism_hash(rows, LEARN_FIELDS) == determinism_hash(bare, fields)


def test_rerun_identical_apart_from_timing(tmp_path):
    spec = small_sweep(replicates=2)
    r1 = run_decode_sweep(spec)
    r2 = run_decode_sweep(spec)
    keep = [f for f in DECODE_FIELDS if f not in _TIMING_FIELDS]
    for a, b in zip(r1, r2):
        assert {f: a[f] for f in keep} == {f: b[f] for f in keep}


# ---------------------------------------------------------------------------
# CLI surface


def cli(*args):
    return CliRunner().invoke(main, args)


def test_cli_version():
    res = cli("--version")
    assert res.exit_code == 0


@pytest.mark.parametrize(
    "command, flag",
    [
        ("bounds", "--workers"),
        ("bounds", "--replay"),
        ("bounds", "--beta"),
        ("bounds", "--seed"),
        ("net-stats", "--workers"),
        ("net-stats", "--k"),
        ("net-stats", "--beta"),
    ],
)
def test_cli_rejects_a_flag_the_subcommand_ignores(command, flag):
    res = cli(command, flag, "2")
    assert res.exit_code == 2
    assert "No such option" in res.output


def test_learner_path_loads_no_scipy(tmp_path):
    # the covering certificate and match_centers run on numpy alone, so a
    # learn row, a net-stats row and a certification leave scipy unloaded
    src = os.path.dirname(os.path.dirname(spherecodes.__file__))
    learn = {"kind": "learn", "d": [3], "k": [2], "beta": [2.0], "probes": 200, "learner": {"N": 200, "Nbar": 100, "C_net": 2.0}}
    runs = [(learn, "learn"), ({"kind": "net_stats", "d": [3], "eps_I": [0.3], "probes": 200}, "net-stats")]
    argv = []
    for i, (obj, command) in enumerate(runs):
        cfg = tmp_path / f"{i}.json"
        cfg.write_text(json.dumps(obj))
        argv.append(json.dumps([command, "--config", str(cfg), "--out", str(tmp_path / f"{i}.csv")]))
    code = (
        "import json, sys\nfrom spherecodes.expcli import main\n"
        "for args in sys.argv[1:]:\n"
        "    try:\n        main(json.loads(args))\n"
        "    except SystemExit as exc:\n        assert exc.code == 0, exc.code\n"
        "from spherecodes import match_centers, rng_for, sample_codebook\n"
        "cb = sample_codebook(3, 2, rng_for(0))\n"
        "assert match_centers(cb, cb.centers, 1e-9).fully_certified\n"
        "print('scipy' in sys.modules)"
    )
    env = {**os.environ, "PYTHONPATH": src}
    out = subprocess.run([sys.executable, "-c", code, *argv], env=env, capture_output=True, text=True, timeout=120)
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip().splitlines()[-1] == "False"
    assert all((tmp_path / f"{i}.csv").exists() for i in range(2))


def test_package_import_loads_neither_scipy_nor_click():
    src = os.path.dirname(os.path.dirname(spherecodes.__file__))
    code = "import sys, spherecodes; print(sorted({'scipy', 'click'} & {m.split('.')[0] for m in sys.modules}))"
    env = {**os.environ, "PYTHONPATH": src}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60)
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "[]"


def test_cli_bounds_reads_d_and_k_from_the_config(tmp_path):
    cfg = tmp_path / "bounds.json"
    cfg.write_text(json.dumps({"kind": "bounds", "d": [16], "k": [8]}))
    res = cli("bounds", "--config", str(cfg))
    assert res.exit_code == 0, res.output
    table = dict(line.split()[:2] for line in res.output.splitlines())
    assert table["rate"] == "0.129965096"  # ln(8) / 16, not the d=64, k=256 default


@pytest.mark.parametrize(
    "obj, message",
    [
        ({"d": [16, 32], "k": [8]}, "one d and one k"),
        ({"d": [16], "k": [8], "bounds": {"k": 8}}, "move k out of the bounds block"),
    ],
    ids=["grid", "nested"],
)
def test_cli_bounds_config_errors(tmp_path, obj, message):
    cfg = tmp_path / "bounds.json"
    cfg.write_text(json.dumps({"kind": "bounds", **obj}))
    res = cli("bounds", "--config", str(cfg))
    assert res.exit_code == 2
    assert message in res.stderr
    assert "capacity" not in res.output


@pytest.mark.parametrize(
    "key, value", [("n", True), ("n", "1000"), ("delta", math.nan), ("c0", math.inf), ("n", HUGE)], ids=huge_id
)
def test_cli_bounds_value_must_be_a_finite_number(tmp_path, key, value):
    cfg = tmp_path / "bounds.json"
    cfg.write_text(json.dumps({"kind": "bounds", "d": [16], "k": [8], "bounds": {key: value}}))
    res = cli("bounds", "--config", str(cfg))
    assert res.exit_code == 2, res.output
    assert f"bounds {key} must be a finite number" in res.stderr
    assert "capacity" not in res.output


def test_cli_bounds_table():
    res = cli("bounds", "--d", "16", "--k", "8")
    assert res.exit_code == 0
    assert "capacity" in res.output
    assert "rdf_lower_bound" in res.output


@pytest.mark.parametrize("flag", ["--d", "--k"])
def test_cli_bounds_rejects_a_grid(flag):
    # the table is for one (d, k); a comma-separated grid is a usage error
    # naming the flag, not a table for its first value
    args = {"--d": "16", "--k": "8", flag: "16,32"}
    res = cli("bounds", *[x for kv in args.items() for x in kv])
    assert res.exit_code == 2
    assert flag in res.output
    assert "capacity" not in res.output


@pytest.mark.parametrize(
    "command, args, message",
    [
        ("bounds", ["--d", "0", "--k", "0"], "d must be an integer >= 1, got 0"),
        ("bounds", ["--k", "0"], "k must be an integer >= 2, got 0"),
        ("decode-sweep", ["--d", ""], "--d: "),
        ("phase-transition", ["--k", ""], "--k: "),
        ("learn", ["--beta", ""], "--beta: "),
        ("net-stats", ["--d", ""], "--d: "),
    ],
    ids=["bounds-d0-k0", "bounds-k0", "decode-sweep-d", "phase-transition-k", "learn-beta", "net-stats-d"],
)
def test_cli_a_zero_or_empty_flag_is_refused_not_ignored(monkeypatch, command, args, message):
    # only an absent flag leaves the config's value, or the default, in place
    rows = []
    for row_fn in ("_decode_rows", "_learn_row", "_net_row"):
        monkeypatch.setattr(expcli, row_fn, lambda *args: rows.append(args))
    res = cli(command, *args)
    assert res.exit_code == 2, res.output
    assert message in res.stderr
    assert "capacity" not in res.output
    assert rows == []


def test_cli_decode_sweep_hash_is_pinned(tmp_path):
    # the criterion-3 geometry at both sides of capacity, MMSE and NN; the
    # hash was recorded from the full-matrix decode kernels, so any change
    # to a decode outcome shows here
    cfg = tmp_path / "sweep.json"
    out = tmp_path / "sweep.csv"
    cfg.write_text(
        json.dumps(
            {
                "kind": "decode_sweep",
                "d": [16],
                "k": [2981],
                "beta": [0.5, 2.0],
                "decoders": [{"kind": "mmse", "c": 1.45}, {"kind": "nn"}],
                "trials": 1024,
            }
        )
    )
    res = cli("decode-sweep", "--config", str(cfg), "--seed", "0", "--out", str(out))
    assert res.exit_code == 0, res.output
    header = out.read_text().splitlines()[0]
    assert "determinism_hash=23dc7c710fb6e0d4d8b9c3af62814d06" in header.split()


PINNED_SWEEPS = {
    "learn": (
        {
            "kind": "learn",
            "d": [4],
            "k": [2],
            "beta": [0.5, 2.0],
            "replicates": 2,
            "probes": 200,
            "learner": {"N": 200, "Nbar": 100},
        },
        "b088ebdb96b042931156fcdbf78c4397",
    ),
    # the positive-rate screen, with N not a multiple of 8 and a net of
    # several blocks
    "learn-positive-rate": (
        {
            "kind": "learn",
            "d": [4],
            "k": [3],
            "beta": [0.5, 2.0],
            "replicates": 2,
            "probes": 200,
            "learner": {"N": 203, "Nbar": 100, "test_kind": "positive_rate"},
        },
        "ad040b9a6540c8f4806674186ae73649",
    ),
    "net-stats": (
        {"kind": "net_stats", "d": [3, 4], "eps_I": [0.3, 0.4], "probes": 200},
        "f2ac082760c3563e7363538cfaff57c4",
    ),
}


@pytest.mark.parametrize("name", sorted(PINNED_SWEEPS))
def test_cli_sweep_hash_is_pinned(tmp_path, name):
    # every config leaves the net constants at their defaults, so a change
    # of default net size, of the Step-I or Step-II draws or of any learner
    # number shows here
    obj, dhash = PINNED_SWEEPS[name]
    cfg = tmp_path / "sweep.json"
    out = tmp_path / "sweep.csv"
    cfg.write_text(json.dumps(obj))
    command = obj["kind"].replace("_", "-")
    res = cli(command, "--config", str(cfg), "--seed", "0", "--out", str(out))
    assert res.exit_code == 0, res.output
    header = out.read_text().splitlines()[0]
    assert f"determinism_hash={dhash}" in header.split()


@pytest.mark.parametrize("name", ["learn", "learn-positive-rate"])
def test_cli_learn_sweep_hash_is_pinned_at_every_worker_count(tmp_path, name):
    # four rows: at workers 2 and 4 the rows run on two and four threads,
    # this one among them, each with its own Step-I helper
    obj, dhash = PINNED_SWEEPS[name]
    cfg = tmp_path / "sweep.json"
    cfg.write_text(json.dumps(obj))
    for workers in ("1", "2", "4"):
        out = tmp_path / f"sweep-{workers}.csv"
        res = cli("learn", "--config", str(cfg), "--seed", "0", "--out", str(out), "--workers", workers)
        assert res.exit_code == 0, res.output
        assert f"determinism_hash={dhash}" in out.read_text().splitlines()[0].split()


def test_cli_learn_row_error_on_a_helper_thread_exits_3_and_leaves_no_thread(tmp_path, monkeypatch):
    # workers 2 is the calling thread and one helper; each thread's first
    # row waits, up to 30 s, until the other has taken one too, and the
    # helper's row then raises
    caller, learner = threading.get_ident(), expcli.run_learner
    barrier, seen = threading.Barrier(2, timeout=30), []

    def learner_failing(*args, **kwargs):
        me = threading.get_ident()
        if me not in seen:
            seen.append(me)
            barrier.wait()
        if me != caller:
            raise FloatingPointError("learner failed on the helper thread")
        return learner(*args, **kwargs)

    monkeypatch.setattr(expcli, "run_learner", learner_failing)
    cfg = tmp_path / "sweep.json"
    cfg.write_text(json.dumps(PINNED_SWEEPS["learn"][0]))
    before = threading.active_count()
    res = cli("learn", "--config", str(cfg), "--out", str(tmp_path / "sweep.csv"), "--workers", "2")
    assert res.exit_code == 3, res.output
    assert "runtime error: FloatingPointError: learner failed on the helper thread (test_expcli.py:" in res.stderr
    assert len(seen) == 2 and caller in seen and threading.active_count() == before
    assert not (tmp_path / "sweep.csv").exists()


# d in {8, 16}, two k, nn and mmse beside a corr entry infeasible at every
# cell, two replicates and three blocks a row, the last one partial: one
# sweep's block queue holds rows of mixed geometry and decoder. The hash
# was recorded when each row ran its own blocks, in pairs
MIXED_SWEEP = {
    "kind": "decode_sweep",
    "d": [8, 16],
    "k": [4, 32],
    "beta": [2.0],
    "decoders": [{"kind": "nn"}, {"kind": "mmse", "c": 1.4}, {"kind": "corr", "eta1": 0.5, "eta2": 0.9}],
    "trials": 2 * TRIAL_BLOCK + 77,
    "replicates": 2,
    "master_seed": 11,
}


def test_cli_mixed_geometry_sweep_hash_is_pinned_at_every_worker_count_and_every_row_replays(tmp_path):
    cfg = tmp_path / "sweep.json"
    cfg.write_text(json.dumps(MIXED_SWEEP))
    headers = []
    for workers in ("1", "2", "4"):
        out = tmp_path / f"sweep-{workers}.csv"
        res = cli("decode-sweep", "--config", str(cfg), "--out", str(out), "--workers", workers)
        assert res.exit_code == 0, res.output
        headers.append(_header(out.read_text()))
    assert {h["determinism_hash"] for h in headers} == {"0571d6f9a9c973c1dd18d61d513fc134"}
    assert len({h["config_hash"] for h in headers}) == 1
    out = str(tmp_path / "sweep-1.csv")
    rows = read_csv_rows(out)
    # each cell's two replicates, nn, mmse and the infeasible corr entry
    assert [r["status"].startswith("infeasible") for r in rows] == ([False] * 4 + [True] * 2) * 4
    for r in rows:
        res = cli("decode-sweep", "--config", str(cfg), "--out", out, "--replay", r["experiment_id"])
        assert res.exit_code == 0, res.output


def test_cli_decode_sweep_and_replay(tmp_path):
    cfg = tmp_path / "sweep.json"
    out = tmp_path / "sweep.csv"
    cfg.write_text(
        json.dumps(
            {
                "kind": "decode_sweep",
                "d": [8],
                "k": [4],
                "beta": [2.0],
                "decoders": [{"kind": "nn"}],
                "trials": 200,
                "master_seed": 9,
            }
        )
    )
    res = cli("decode-sweep", "--config", str(cfg), "--out", str(out))
    assert res.exit_code == 0, res.output
    assert out.exists()
    res2 = cli(
        "decode-sweep", "--config", str(cfg), "--out", str(out), "--replay", "dsweep-0-0"
    )
    assert res2.exit_code == 0
    assert "matches the recorded row" in res2.output


def test_cli_replay_detects_tampering(tmp_path):
    cfg = tmp_path / "sweep.json"
    out = tmp_path / "sweep.csv"
    cfg.write_text(
        json.dumps(
            {
                "kind": "decode_sweep",
                "d": [8],
                "k": [4],
                "beta": [2.0],
                "decoders": [{"kind": "nn"}],
                "trials": 200,
                "master_seed": 9,
            }
        )
    )
    assert cli("decode-sweep", "--config", str(cfg), "--out", str(out)).exit_code == 0
    text = out.read_text()
    rows = read_csv_rows(str(out))
    count = rows[0]["error_count"]
    out.write_text(text.replace(f",{count},", f",{int(count) + 1},", 1))
    res = cli(
        "decode-sweep", "--config", str(cfg), "--out", str(out), "--replay", "dsweep-0-0"
    )
    assert res.exit_code == 3
    assert "replay mismatch" in res.stderr


# per sweep kind: its command, the function that computes its rows (of one
# job, or of a list of jobs for a decode sweep), its row count and a config
REPLAY_CASES = {
    "decode": (
        "decode-sweep",
        "_decode_rows",
        8,
        {
            "kind": "decode_sweep",
            "d": [8],
            "k": [4],
            "beta": [0.5, 2.0],
            "decoders": [{"kind": "nn"}, {"kind": "mmse", "c": 1.4}],
            "trials": 200,
            "replicates": 2,
            "master_seed": 9,
        },
    ),
    "learn": (
        "learn",
        "_learn_row",
        4,
        {
            "kind": "learn",
            "d": [4],
            "k": [2],
            "beta": [0.5, 2.0],
            "replicates": 2,
            "probes": 200,
            "learner": {"N": 200, "Nbar": 100, "C_net": 2.0},
        },
    ),
    "net-stats": (
        "net-stats",
        "_net_row",
        4,
        {"kind": "net_stats", "d": [3, 4], "eps_I": [0.3, 0.4], "probes": 200},
    ),
    "phase-transition": (
        "phase-transition",
        "_decode_rows",
        1,
        {"kind": "phase_transition", "d": [16], "k": [8], "beta": [2.0], "trials": 200},
    ),
}


@pytest.mark.parametrize("case", sorted(REPLAY_CASES))
def test_cli_replay_recomputes_only_the_named_row(case, tmp_path, monkeypatch):
    command, row_fn, n_rows, obj = REPLAY_CASES[case]
    cfg = tmp_path / "sweep.json"
    out = tmp_path / "sweep.csv"
    cfg.write_text(json.dumps(obj))
    res = cli(command, "--config", str(cfg), "--out", str(out))
    assert res.exit_code == 0, res.output
    ids = [r["experiment_id"] for r in read_csv_rows(str(out))]
    assert len(ids) == n_rows

    calls = []
    real = getattr(expcli, row_fn)

    def counted(*args):
        jobs = args[-1] if isinstance(args[-1], list) else [args[-1]]
        calls.append([job["experiment_id"] for job in jobs])
        return real(*args)

    monkeypatch.setattr(expcli, row_fn, counted)
    for row_id in ids:
        calls.clear()
        res = cli(command, "--config", str(cfg), "--out", str(out), "--replay", row_id)
        assert res.exit_code == 0, res.output
        assert "matches the recorded row" in res.output
        assert calls == [[row_id]]


def test_cli_replay_of_a_row_outside_the_grid(tmp_path):
    cfg = tmp_path / "sweep.json"
    out = tmp_path / "sweep.csv"
    cfg.write_text(json.dumps(REPLAY_CASES["decode"][3]))
    assert cli("decode-sweep", "--config", str(cfg), "--out", str(out)).exit_code == 0
    # dsweep-3-0 is in the CSV, but a one-beta grid has only cells 0 and 1
    res = cli(
        "decode-sweep", "--config", str(cfg), "--out", str(out), "--beta", "2.0", "--replay", "dsweep-3-0"
    )
    assert res.exit_code == 2
    assert "not produced by this config" in res.stderr


@pytest.mark.parametrize("knob", ["eps", "phi", "eps0", "R_switch"])
def test_cli_learner_block_rejects_removed_knobs(tmp_path, knob):
    obj = dict(REPLAY_CASES["learn"][3])
    obj["learner"] = {**obj["learner"], knob: 0.05}
    cfg = tmp_path / "learn.json"
    cfg.write_text(json.dumps(obj))
    res = cli("learn", "--config", str(cfg))
    assert res.exit_code == 2
    assert f"unknown learner config keys: ['{knob}']" in res.stderr


# per kind: its command and a small config it runs
KIND_CASES = {
    "decode_sweep": ("decode-sweep", {"d": [8], "k": [4], "beta": [2.0], "trials": 200}),
    "phase_transition": ("phase-transition", {"d": [8], "k": [4], "beta": [2.0], "trials": 200}),
    "learn": (
        "learn",
        {"d": [4], "k": [2], "beta": [2.0], "probes": 200, "learner": {"N": 200, "Nbar": 100, "C_net": 2.0}},
    ),
    "net_stats": ("net-stats", {"d": [3], "eps_I": [0.3], "probes": 200}),
    "bounds": ("bounds", {"d": [16], "k": [8]}),
}
DECODE_KEYS = {"d", "k", "beta", "sigma2", "decoders", "trials", "replicates", "master_seed", "out", "workers"}
KIND_KEYS = {
    "decode_sweep": DECODE_KEYS,
    "phase_transition": DECODE_KEYS - {"sigma2"},
    "learn": {"d", "k", "beta", "sigma2", "replicates", "master_seed", "out", "workers", "learner", "probes"},
    "net_stats": {"d", "eps_I", "probes", "master_seed", "out", "workers", "learner"},
    "bounds": {"d", "k", "out", "bounds"},
}
# a valid value for every key, so only the key itself can be at fault
KEY_VALUES = {
    "d": [8],
    "k": [4],
    "beta": [2.0],
    "sigma2": [1.0],
    "decoders": [{"kind": "nn"}],
    "trials": 200,
    "replicates": 1,
    "master_seed": 0,
    "workers": 1,
    "learner": {},
    "bounds": {},
    "eps_I": [0.3],
    "probes": 200,
    "out": "sweep.csv",
}
UNREAD_KEYS = [
    (kind, key)
    for kind in sorted(KIND_KEYS)
    for key in sorted({f.name for f in dataclasses.fields(SweepSpec)} - KIND_KEYS[kind] - {"kind"})
]


@pytest.mark.parametrize("kind, key", UNREAD_KEYS)
def test_cli_rejects_a_config_key_the_kind_does_not_read(tmp_path, kind, key):
    command, obj = KIND_CASES[kind]
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"kind": kind, **obj, key: KEY_VALUES[key]}))
    res = cli(command, "--config", str(cfg))
    assert res.exit_code == 2, res.output
    assert f"unknown config keys: ['{key}']" in res.stderr


def test_cli_phase_transition_rejects_a_sigma2_grid(tmp_path):
    # the summary groups rows by beta, which a sigma2 grid leaves nan
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"kind": "phase_transition", "d": [16], "k": [8], "sigma2": [1.0], "trials": 200}))
    res = cli("phase-transition", "--config", str(cfg))
    assert res.exit_code == 2, res.output
    assert "unknown config keys: ['sigma2']" in res.stderr


def test_cli_decode_sweep_k_over_the_byte_budget_is_a_config_error(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"kind": "decode_sweep", "d": [2], "k": [70000], "beta": [2.0], "trials": 200}))
    res = cli("decode-sweep", "--config", str(cfg))
    assert res.exit_code == 2, res.output
    assert "k=70000" in res.stderr


def test_parse_spec_accepts_every_key_the_kind_reads():
    for kind, keys in KIND_KEYS.items():
        for key in keys:
            parse_spec({"kind": kind, key: KEY_VALUES[key]})


NET_KNOBS = {"net_strategy", "C_net", "c_net", "d_max_net"}


@pytest.mark.parametrize(
    "knob", sorted({f.name for f in dataclasses.fields(LearnerConfig)} - NET_KNOBS)
)
def test_cli_net_stats_learner_block_takes_only_net_knobs(tmp_path, knob):
    # each knob at its own default, so only the key itself can be at fault
    default = next(f.default for f in dataclasses.fields(LearnerConfig) if f.name == knob)
    command, obj = KIND_CASES["net_stats"]
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"kind": "net_stats", **obj, "learner": {knob: default}}))
    res = cli(command, "--config", str(cfg))
    assert res.exit_code == 2, res.output
    assert f"unknown learner config keys: ['{knob}']" in res.stderr


@pytest.mark.parametrize("kind", ["learn", "net_stats"])
def test_cli_grid_net_strategy_is_a_config_error(tmp_path, kind):
    command, obj = KIND_CASES[kind]
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"kind": kind, **obj, "learner": {"net_strategy": "grid"}}))
    res = cli(command, "--config", str(cfg))
    assert res.exit_code == 2, res.output
    assert "unknown net_strategy 'grid'" in res.stderr


@pytest.mark.parametrize("kind, block", [("learn", "learner"), ("net_stats", "learner"), ("bounds", "bounds")])
@pytest.mark.parametrize("value", [5, ["C_net"], "C_net"])
def test_cli_config_block_must_be_an_object(tmp_path, kind, block, value):
    command, obj = KIND_CASES[kind]
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"kind": kind, **obj, block: value}))
    res = cli(command, "--config", str(cfg))
    assert res.exit_code == 2, res.output
    assert f"{block} must be a JSON object" in res.stderr


@pytest.mark.parametrize(
    "decoders, message",
    [
        ({"kind": "nn"}, "decoders must be a list of objects"),
        ("nn", "decoders must be a list of objects"),
        (["nn"], "decoders entry 'nn' is not an object"),
    ],
    ids=["object", "string", "list-of-strings"],
)
def test_cli_decoders_must_be_a_list_of_objects(tmp_path, decoders, message):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"kind": "decode_sweep", "d": [8], "k": [4], "decoders": decoders}))
    res = cli("decode-sweep", "--config", str(cfg))
    assert res.exit_code == 2, res.output
    assert message in res.stderr


@pytest.mark.parametrize(
    "entry, message",
    [
        ({"kind": "corr", "eta1": 0.3, "eta2": None}, "corr decoder field eta2 must be a finite number, got None"),
        ({"kind": "mmse"}, "mmse decoder is missing fields ['alpha', 'tau', 'tau1', 'tau2']"),
        ({"kind": "mismatched_corr", "eta1": 0.3, "eta3": 0.3}, "unknown mismatched_corr decoder fields ['eta3']"),
    ],
    ids=["non-numeric", "missing", "unknown"],
)
def test_cli_bad_decoder_entry_is_a_config_error_naming_the_field(tmp_path, entry, message):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"kind": "decode_sweep", "d": [8], "k": [4], "trials": 200, "decoders": [entry]}))
    res = cli("decode-sweep", "--config", str(cfg))
    assert res.exit_code == 2, res.output
    assert message in res.stderr


def test_cli_bad_second_decoder_entry_fails_before_any_row_decodes(tmp_path, monkeypatch):
    calls = []
    real = expcli.estimate_error_rows

    def counted(*args, **kwargs):
        calls.append(args[0])
        return real(*args, **kwargs)

    monkeypatch.setattr(expcli, "estimate_error_rows", counted)
    cfg = tmp_path / "cfg.json"
    obj = {"kind": "decode_sweep", "d": [8], "k": [4], "beta": [0.5, 2.0], "trials": 200, "replicates": 2}
    cfg.write_text(json.dumps({**obj, "decoders": [{"kind": "nn"}, {"kind": "mmse"}]}))
    res = cli("decode-sweep", "--config", str(cfg))
    assert res.exit_code == 2, res.output
    assert "mmse decoder is missing fields" in res.stderr
    assert len(calls) == 0


def test_cli_stray_key_error_is_a_runtime_error(monkeypatch):
    def fault(spec):
        raise KeyError("alpha")

    monkeypatch.setattr(expcli, "run_decode_sweep", fault)
    res = cli("decode-sweep", "--d", "8", "--k", "4", "--beta", "2.0")
    assert res.exit_code == 3, res.output
    assert "runtime error: KeyError: 'alpha' (test_expcli.py:" in res.stderr


def test_cli_stray_value_error_is_a_runtime_error(monkeypatch):
    # a program fault that numpy reports as a ValueError is not a config error
    def fault(spec, jobs):
        raise ValueError("operands could not be broadcast together")

    monkeypatch.setattr(expcli, "_decode_rows", fault)
    res = cli("decode-sweep", "--d", "8", "--k", "4", "--beta", "2.0")
    assert res.exit_code == 3, res.output
    assert "runtime error: ValueError: operands could not be broadcast together (test_expcli.py:" in res.stderr


def test_cli_bad_step2_thresholds_exit_2_before_any_row_runs(tmp_path, monkeypatch):
    rows = []
    monkeypatch.setattr(expcli, "_learn_row", lambda *args: rows.append(args))
    command, obj = KIND_CASES["learn"]
    learner = {**obj["learner"], "decoder_kind": "mismatched_corr", "corr_eta1": 0.4, "corr_eta2": 0.3}
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"kind": "learn", **obj, "learner": learner}))
    res = cli(command, "--config", str(cfg))
    assert res.exit_code == 2, res.output
    assert "need 0 < eta1 <= eta2 < 1" in res.stderr
    assert rows == []


def test_cli_learn_batch_over_the_byte_budget_is_a_config_error(tmp_path):
    command, obj = KIND_CASES["learn"]
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"kind": "learn", **obj, "learner": {**obj["learner"], "N": 10**12}}))
    res = cli(command, "--config", str(cfg))
    assert res.exit_code == 2, res.output
    assert "n=1000000000000" in res.stderr


@pytest.mark.parametrize(
    "kind, key, value",
    [("decode_sweep", key, value) for key, value in BAD_TYPED_VALUES if key != "probes"]
    + [("learn", key, value) for key, value in BAD_TYPED_VALUES if key == "probes"]
    + [("learn", "N", 60.5), ("learn", "Nbar", True)]
    + [("decode_sweep", "d", 8.5), ("decode_sweep", "d", True), ("decode_sweep", "k", True)]
    + [("decode_sweep", "beta", "2.0"), ("decode_sweep", "sigma2", True), ("net_stats", "eps_I", 0.7)]
    + [("net_stats", "c_net", "1"), ("net_stats", "d_max_net", "12"), ("net_stats", "c_net", -1.0)]
    + [("learn", "threshold_const", True), ("learn", "mmse_c", True), ("learn", "corr_eta1", "0.3")]
    + [("learn", "threshold_const", math.nan), ("learn", "mmse_c", math.nan), ("learn", "corr_eta1", math.inf)]
    + [("learn", "threshold_const", HUGE), ("learn", "mmse_c", -HUGE), ("decode_sweep", "beta", HUGE)]
    + [("decode_sweep", "c", math.inf), ("decode_sweep", "c", True), ("decode_sweep", "c2", math.nan)]
    + [("decode_sweep", "c2", False), ("decode_sweep", "c", HUGE), ("decode_sweep", "eta1", math.inf)]
    + [("decode_sweep", "d", [HUGE]), ("learn", "k", [HUGE])]
    + [("decode_sweep", key, HUGE) for key in ("trials", "replicates", "workers", "master_seed")]
    + [("learn", key, HUGE) for key in ("probes", "N", "Nbar")] + [("net_stats", "d_max_net", HUGE)]
    + [("decode_sweep", "out", "/no/such/dir/x.csv"), ("learn", "out", 5)]
    + [("learn", "eps_I", "0.3")],
    ids=huge_id,
)
def test_cli_bad_typed_value_exits_2_before_any_row_runs(tmp_path, monkeypatch, kind, key, value):
    rows = []
    for row_fn in ("_decode_rows", "_learn_row", "_net_row"):
        monkeypatch.setattr(expcli, row_fn, lambda *args: rows.append(args))
    command, obj = KIND_CASES[kind]
    obj = {"kind": kind, **obj}
    # a decoder entry's fields, each in an entry whose other fields are valid
    entries = {"c": {"kind": "mmse"}, "c2": {"kind": "mmse", "c": 1.4}, "eta1": {"kind": "corr"}}
    learner_keys = ("N", "Nbar", "threshold_const", "corr_eta1", "mmse_c", "c_net", "d_max_net")
    # eps_I is a net_stats grid and a learn config's learner-block knob
    if key in learner_keys or (key, kind) == ("eps_I", "learn"):
        obj["learner"] = {**obj.get("learner", {}), key: value}
    elif key in entries:
        obj["decoders"] = [{**entries[key], key: value}]
    else:
        obj[key] = value
    if key == "sigma2":
        del obj["beta"]
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(obj))
    res = cli(command, "--config", str(cfg))
    assert res.exit_code == 2, res.output
    assert f"{key} must be" in res.stderr
    assert rows == []


def test_cli_replay_needs_out(tmp_path):
    res = cli("decode-sweep", "--replay", "dsweep-0-0")
    assert res.exit_code == 2


def test_cli_exit_code_on_bad_config(tmp_path):
    cfg = tmp_path / "bad.json"
    cfg.write_text("{not json")
    assert cli("decode-sweep", "--config", str(cfg)).exit_code == 2

    cfg2 = tmp_path / "typo.json"
    cfg2.write_text(json.dumps({"kind": "decode_sweep", "d": [8], "k": [4], "trails": 1}))
    assert cli("decode-sweep", "--config", str(cfg2)).exit_code == 2

    cfg3 = tmp_path / "neg.json"
    cfg3.write_text(json.dumps({"kind": "decode_sweep", "d": [8], "k": [4], "sigma2": [-2.0]}))
    res3 = cli("decode-sweep", "--config", str(cfg3))
    assert res3.exit_code == 2
    assert "sigma2" in res3.stderr

    assert cli("decode-sweep", "--config", str(tmp_path / "missing.json")).exit_code == 2

    cfg4 = tmp_path / "kind.json"
    cfg4.write_text(json.dumps({"kind": "learn", "d": [8], "k": [4]}))
    res4 = cli("decode-sweep", "--config", str(cfg4))
    assert res4.exit_code == 2
    assert "does not match" in res4.stderr


def test_cli_phase_transition_summary(tmp_path):
    out = tmp_path / "pt.csv"
    res = cli(
        "phase-transition",
        "--d",
        "16",
        "--k",
        "8",
        "--beta",
        "0.5,2.0",
        "--out",
        str(out),
        "--seed",
        "13",
    )
    assert res.exit_code == 0, res.output
    assert "strictly decreasing in beta: True" in res.output
    assert out.exists()


def test_cli_phase_transition_summary_per_decoder(tmp_path):
    # two decoders: each gets its own rho per beta, from its own rows only
    out = tmp_path / "pt.csv"
    cfg = tmp_path / "pt.json"
    decoders = [{"kind": "nn"}, {"kind": "mmse", "c": 1.2}]
    obj = {"kind": "phase_transition", "d": [8], "k": [4], "beta": [0.5, 2.0], "trials": 2000}
    cfg.write_text(json.dumps({**obj, "decoders": decoders}))
    res = cli("phase-transition", "--config", str(cfg), "--out", str(out))
    assert res.exit_code == 0, res.output
    rows = read_csv_rows(str(out))
    summary = res.output.splitlines()[1:]
    assert len(summary) == 2 * 5
    for i, entry in enumerate(decoders):
        label = json.dumps(entry, sort_keys=True)
        block = summary[5 * i : 5 * i + 5]
        assert block[0] == f"decoder {label}"
        assert block[1] == "beta  rho_hat(aggregated)"
        for line, beta in zip(block[2:4], (0.5, 2.0)):
            own = [r for r in rows if r["decoder"] == label and float(r["beta"]) == beta]
            rho = sum(int(r["error_count"]) for r in own) / sum(int(r["trials"]) for r in own)
            assert line == f"{beta:<5g} {rho:.6f}"
        assert block[4].startswith("strictly decreasing in beta: ")


def test_cli_phase_transition_summary_per_geometry(tmp_path):
    # two dimensions: each (d, k) gets its own rho per beta and its own
    # verdict, from its own rows only, not one rho pooled over both
    out = tmp_path / "pt.csv"
    cfg = tmp_path / "pt.json"
    cfg.write_text(json.dumps({"kind": "phase_transition", "d": [8, 64], "k": [16], "beta": [0.5, 2.0], "trials": 200}))
    res = cli("phase-transition", "--config", str(cfg), "--out", str(out))
    assert res.exit_code == 0, res.output
    rows = read_csv_rows(str(out))
    summary = res.output.splitlines()[1:]
    assert len(summary) == 2 * 5
    for i, d in enumerate((8, 64)):
        block = summary[5 * i : 5 * i + 5]
        assert block[:2] == [f"d={d} k=16", "beta  rho_hat(aggregated)"]
        for line, beta in zip(block[2:4], (0.5, 2.0)):
            own = [r for r in rows if int(r["d"]) == d and float(r["beta"]) == beta]
            rho = sum(int(r["error_count"]) for r in own) / sum(int(r["trials"]) for r in own)
            assert line == f"{beta:<5g} {rho:.6f}"
        assert block[4].startswith("strictly decreasing in beta: ")


def test_cli_phase_transition_summary_pools_only_the_rows_that_ran(tmp_path):
    # at d = 1024, k = 16 the correlation thresholds are infeasible at
    # beta = 1, so its row runs no trial: the summary prints the row's
    # status in place of a rate and judges monotonicity on beta = 8 alone
    out = tmp_path / "pt.csv"
    cfg = tmp_path / "pt.json"
    obj = {"kind": "phase_transition", "d": [1024], "k": [16], "beta": [1.0, 8.0], "trials": 200}
    cfg.write_text(json.dumps({**obj, "decoders": [{"kind": "corr", "eta1": 0.3}]}))
    res = cli("phase-transition", "--config", str(cfg), "--out", str(out))
    assert res.exit_code == 0, res.output
    rows = read_csv_rows(str(out))
    assert [r["status"] for r in rows] == ["infeasible eta2>=-0.062967", "ok"]
    assert rows[0]["trials"] == "200" and rows[0]["error_count"] == "0"
    rho = int(rows[1]["error_count"]) / 200
    assert res.output.splitlines()[1:] == [
        "beta  rho_hat(aggregated)",
        "1     infeasible eta2>=-0.062967",
        f"8     {rho:.6f}",
        "strictly decreasing in beta: True",
    ]


def test_cli_net_stats(tmp_path):
    out = tmp_path / "net.csv"
    cfg = tmp_path / "net.json"
    cfg.write_text(
        json.dumps({"kind": "net_stats", "d": [4], "eps_I": [0.3], "probes": 500})
    )
    res = cli("net-stats", "--config", str(cfg), "--out", str(out))
    assert res.exit_code == 0, res.output
    rows = read_csv_rows(str(out))
    assert rows and rows[0]["experiment_id"] == "net-0"
