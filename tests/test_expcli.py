import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest
from click.testing import CliRunner

import spherecodes
from spherecodes.expcli import (
    DECODE_FIELDS,
    LEARN_FIELDS,
    ConfigError,
    SweepSpec,
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


def test_parse_spec_rejects_bad_values():
    with pytest.raises(ConfigError, match="kind"):
        parse_spec({"kind": "mystery", "d": [8], "k": [4]})
    with pytest.raises(ConfigError, match="trials"):
        parse_spec({"kind": "decode_sweep", "d": [8], "k": [4], "trials": 0})
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
    p = spec.mmse_params()
    assert p.tau1 == pytest.approx(1.3 * 0.5, rel=1e-12)
    assert p.tau2 == pytest.approx(1.3 * 1.3 * 0.5, rel=1e-12)
    full = _resolve_decoder(
        {"kind": "mmse", "alpha": 0.5, "tau": 0.5, "tau1": 0.6, "tau2": 1.5}, sigma2=1.0
    )
    assert full.kind == "mmse"
    corr = _resolve_decoder({"kind": "corr", "eta1": 0.3}, sigma2=1.0)
    assert corr.corr_params().eta2 == 0.3
    with pytest.raises(ConfigError, match="kind"):
        _resolve_decoder({}, sigma2=1.0)
    with pytest.raises(ConfigError, match="no params"):
        _resolve_decoder({"kind": "nn", "eta1": 0.1}, sigma2=1.0)
    with pytest.raises(ConfigError, match="eta1"):
        _resolve_decoder({"kind": "corr"}, sigma2=1.0)
    with pytest.raises(ConfigError, match="unknown mmse"):
        _resolve_decoder({"kind": "mmse", "c": 1.2, "tua2": 1.0}, sigma2=1.0)


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
        {"kind": "net_stats", "d": [4], "k": [4], "eps_I": [0.3], "probes": 500}
    )
    rows = run_net_stats(spec)
    assert len(rows) == 1
    assert rows[0]["net_size"] > 0
    assert 0.0 <= rows[0]["covering_fraction"] <= 1.0


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
    assert second == ",".join(DECODE_FIELDS)
    assert b"\r\n" in raw
    back = read_csv_rows(path)
    assert len(back) == len(rows)
    assert back[0]["experiment_id"] == rows[0]["experiment_id"]


def test_determinism_hash_ignores_timing_only():
    rows = [dict(r) for r in run_decode_sweep(small_sweep())]
    h0 = determinism_hash(rows, DECODE_FIELDS)
    rows[0]["wall_ms"] = 123456.0
    assert determinism_hash(rows, DECODE_FIELDS) == h0
    rows[0]["error_count"] += 1
    assert determinism_hash(rows, DECODE_FIELDS) != h0


def test_rerun_identical_apart_from_timing(tmp_path):
    spec = small_sweep(replicates=2)
    r1 = run_decode_sweep(spec)
    r2 = run_decode_sweep(spec)
    keep = [f for f in DECODE_FIELDS if f != "wall_ms"]
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
        ("net-stats", "--workers"),
        ("net-stats", "--k"),
        ("net-stats", "--beta"),
    ],
)
def test_cli_rejects_a_flag_the_subcommand_ignores(command, flag):
    res = cli(command, flag, "2")
    assert res.exit_code == 2
    assert "No such option" in res.output


def test_package_import_loads_neither_scipy_nor_click():
    src = os.path.dirname(os.path.dirname(spherecodes.__file__))
    code = "import sys, spherecodes; print(sorted({'scipy', 'click'} & {m.split('.')[0] for m in sys.modules}))"
    env = {**os.environ, "PYTHONPATH": src}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60)
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "[]"


def test_cli_bounds_table():
    res = cli("bounds", "--d", "16", "--k", "8")
    assert res.exit_code == 0
    assert "capacity" in res.output
    assert "rdf_lower_bound" in res.output


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


def test_cli_net_stats(tmp_path):
    out = tmp_path / "net.csv"
    cfg = tmp_path / "net.json"
    cfg.write_text(
        json.dumps({"kind": "net_stats", "d": [4], "k": [4], "eps_I": [0.3], "probes": 500})
    )
    res = cli("net-stats", "--config", str(cfg), "--out", str(out))
    assert res.exit_code == 0, res.output
    rows = read_csv_rows(str(out))
    assert rows and rows[0]["experiment_id"] == "net-0"
