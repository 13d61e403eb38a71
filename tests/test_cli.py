"""Command-line driver checks: config resolution, exit codes, artifact
layout, and rerun determinism.

Presets run at toy scale here; the statistical claims behind --check are
exercised at full scale by the acceptance suite.
"""

import hashlib
import math
import os
import py_compile
import runpy
import subprocess
import sys
import time
import types

import numpy as np

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from lowresbf import cli, network, ofdm, txchain


def read_csv(path):
    lines = [ln for ln in path.read_text().splitlines() if ln and not ln.startswith("#")]
    return lines[0].split(","), [ln.split(",") for ln in lines[1:]]


def comment_lines(path):
    return [ln for ln in path.read_text().splitlines() if ln.startswith("#")]


# ---------------------------------------------------------------- config

def test_defaults_resolve():
    cfg = cli.validate_config("")
    assert cfg[("run", "seed")] == 0
    assert cfg[("run", "jobs")] == 1
    assert cfg[("run", "out")] == "results"
    assert cfg[("link", "adc_bits")] == (2, 3, 4, 5)
    assert cfg[("link", "snr_db")] == (-5.0, 25.0)
    assert cfg[("sdma", "gamma0_db")] == (0.0, 15.0)
    assert cfg[("tx", "psd_cases")] == ((3, 0), (4, 1), (math.inf, 0))
    assert cfg[("cell", "fixed_ues")] == -1


def test_file_values_and_overrides_apply():
    cfg = cli.validate_config(
        "[aqnm]\nbits = 2,inf\n",
        overrides=[("run", "seed", "7"), ("aqnm", "gamma_points", "5")],
    )
    assert cfg[("aqnm", "bits")] == (2, math.inf)
    assert cfg[("run", "seed")] == 7
    assert cfg[("aqnm", "gamma_points")] == 5


def test_unknown_entries_collected():
    with pytest.raises(cli.ConfigError) as err:
        cli.validate_config("[nosuch]\nx = 1\n\n[link]\nwidth = 3\n")
    msgs = err.value.violations
    assert any("unknown section [nosuch]" in m for m in msgs)
    assert any("unknown key link.width" in m for m in msgs)
    assert len(msgs) == 2


def test_domain_violations_collected():
    with pytest.raises(cli.ConfigError) as err:
        cli.validate_config("[cell]\ndrops = 0\nbw_hz = -1\n")
    msgs = err.value.violations
    assert any("cell.drops" in m for m in msgs)
    assert any("cell.bw_hz" in m for m in msgs)


@pytest.mark.parametrize("key,value", [
    ("bw_hz", "nan"), ("bw_hz", "inf"), ("area_m", "nan"), ("radius_m", "inf"),
    ("mean_ues", "nan"), ("cluster_spread", "nan"), ("cluster_spread", "-0.1"),
    ("mean_extra_clusters", "inf"), ("fixed_ues", "0"), ("fixed_ues", "-2"),
])
def test_bad_cell_fields_named(key, value):
    with pytest.raises(cli.ConfigError) as err:
        cli.validate_config("", overrides=[("cell", key, value)])
    assert any(m.startswith(f"cell.{key} ") for m in err.value.violations)


@pytest.mark.parametrize("sec,key,value,field", [
    ("run", "jobs", "0", "run.jobs"), ("run", "jobs", "-3", "run.jobs"),
    ("link", "n_symbols", "1", "link.n_symbols"), ("sdma", "n_symbols", "2", "sdma.n_symbols"),
])
def test_small_counts_named(sec, key, value, field):
    with pytest.raises(cli.ConfigError) as err:
        cli.validate_config("", overrides=[(sec, key, value)])
    assert any(m.startswith(f"{field} ") for m in err.value.violations)


@pytest.mark.parametrize("args", [
    ["power-table", "--jobs", "-3"],
    ["link-validate", "--config", "{ini}"],
])
def test_small_counts_exit_one(tmp_path, capsys, args):
    ini = tmp_path / "c.ini"
    ini.write_text("[link]\nn_symbols = 1\nsnr_points = 1\n")
    argv = [a.format(ini=ini) for a in args] + ["--out", str(tmp_path / "out")]
    assert cli.main(argv) == 1
    assert "config error" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_cell_fields_at_their_limits_accepted():
    cfg = cli.validate_config("[cell]\nfixed_ues = 1\ncluster_spread = 0\nmean_extra_clusters = 0\n")
    assert cfg[("cell", "fixed_ues")] == 1
    assert cli.validate_config("[cell]\nfixed_ues = -1\n")[("cell", "fixed_ues")] == -1


def test_bad_values_reported_with_field_names():
    with pytest.raises(cli.ConfigError) as err:
        cli.validate_config("[link]\nadc_bits = 0,3\nsnr_db = 25:-5\n")
    msgs = err.value.violations
    assert any(m.startswith("bad value for link.adc_bits") for m in msgs)
    assert any(m.startswith("bad value for link.snr_db") for m in msgs)


def test_override_of_unknown_key_rejected():
    with pytest.raises(cli.ConfigError):
        cli.validate_config("", overrides=[("aqnm", "nope", "1")])


def test_unknown_preset_name_rejected():
    with pytest.raises(cli.ConfigError):
        cli.run_preset("bogus")


# ---------------------------------------------------------------- exit codes

def test_missing_preset_exits_one(capsys):
    with pytest.raises(SystemExit) as err:
        cli.main([])
    assert err.value.code == 1
    assert "config error" in capsys.readouterr().err


def test_conflicting_preset_names_exit_one(capsys):
    # the preset is the one positional argument; there is no --preset flag
    with pytest.raises(SystemExit) as err:
        cli.main(["power-table", "--preset", "aqnm-curves"])
    assert err.value.code == 1
    assert "config error" in capsys.readouterr().err


def test_usage_error_exits_one(capsys):
    # argparse rejects the choice; the driver maps usage problems to 1
    with pytest.raises(SystemExit) as err:
        cli.main(["bogus-preset"])
    assert err.value.code == 1
    assert "config error" in capsys.readouterr().err


@pytest.mark.parametrize("preset", ["power-table", "tx-psd"])
def test_bits_flag_requires_matching_preset(capsys, preset):
    # tx-psd takes its widths from tx.psd_cases, so --bits would change only the headers
    assert cli.main([preset, "--bits", "3,4"]) == 1
    assert f"--bits does not apply to {preset}" in capsys.readouterr().err


def test_missing_config_file_exits_one(tmp_path, capsys):
    rc = cli.main(["power-table", "--config", str(tmp_path / "none.ini")])
    assert rc == 1
    assert "config error" in capsys.readouterr().err


def test_config_file_not_utf8_exits_one(tmp_path, capsys):
    ini = tmp_path / "bad.ini"
    ini.write_bytes(b"[run]\nseed = 1\n\xff\n")
    out = tmp_path / "out"
    assert cli.main(["power-table", "--config", str(ini), "--out", str(out)]) == 1
    assert "config error" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("below", ["", "sub"], ids=["file", "under-file"])
def test_out_naming_a_file_exits_one(tmp_path, capsys, below):
    # --out names an existing file, or a path under one
    f = tmp_path / "f"
    f.write_text("keep\n")
    assert cli.main(["power-table", "--out", str(f / below) if below else str(f)]) == 1
    err = capsys.readouterr().err
    assert "config error" in err and "run.out" in err
    assert f.read_text() == "keep\n"
    assert [p.name for p in tmp_path.iterdir()] == ["f"]


@pytest.mark.parametrize("line,field", [("fixed_ues = 1000000000", "cell.fixed_ues"),
                                        ("mean_ues = 1e9", "cell.mean_ues"),
                                        ("fixed_ues = 10\narea_m = 1e6", "cell.area_m"),
                                        ("mean_ues = 0.001\narea_m = 1e5", "cell.area_m")])
def test_oversized_drop_exits_one_before_running(tmp_path, capsys, monkeypatch, line, field):
    # a drop this large would ask numpy for gigabytes; the config check must stop it first
    monkeypatch.setattr(network, "run_drops", lambda *a, **kw: pytest.fail("the drop ran"))
    ini = tmp_path / "c.ini"
    ini.write_text(f"[cell]\n{line}\n")
    out = tmp_path / "out"
    t0 = time.perf_counter()
    assert cli.main(["cell-ofdma", "--config", str(ini), "--out", str(out)]) == 1
    assert time.perf_counter() - t0 < 1.0
    err = capsys.readouterr().err
    assert field in err and "config error" in err
    assert not out.exists()


def test_config_violations_exit_one(tmp_path, capsys):
    cfg = tmp_path / "bad.ini"
    cfg.write_text("[link]\nwidth = 3\n\n[cell]\ndrops = 0\n")
    rc = cli.main(["power-table", "--config", str(cfg), "--out", str(tmp_path / "out")])
    assert rc == 1
    err = capsys.readouterr().err
    assert "unknown key link.width" in err
    assert "cell.drops must be at least 1" in err


def test_nan_bandwidth_exits_one_before_running(tmp_path, capsys):
    cfg = tmp_path / "nan.ini"
    cfg.write_text("[cell]\nbw_hz = nan\ndrops = 1\nttis = 1\narea_m = 400\n")
    out = tmp_path / "out"
    rc = cli.main(["cell-ofdma", "--config", str(cfg), "--out", str(out)])
    assert rc == 1
    assert "cell.bw_hz" in capsys.readouterr().err
    assert not list(out.glob("*.csv"))


def test_domain_error_exits_two(tmp_path, capsys):
    # a drop whose users are all in outage leaves no CDF to write
    cfg = tmp_path / "cell.ini"
    cfg.write_text("[cell]\nradius_m = 1000\ndrops = 1\nttis = 2\n")
    rc = cli.main(["cell-sdma", "--config", cfg.as_posix(), "--out", str(tmp_path / "out")])
    assert rc == 2
    assert "domain error" in capsys.readouterr().err


def test_cell_drop_without_users_exits_two(tmp_path, capsys):
    cfg = tmp_path / "cell.ini"
    cfg.write_text("[cell]\nradius_m = 1000\ndrops = 1\nttis = 2\n")
    rc = cli.main(["cell-ofdma", "--config", str(cfg), "--out", str(tmp_path / "out")])
    assert rc == 2
    assert "no scheduled interior users" in capsys.readouterr().err


def test_cell_check_skips_drop_without_users(tmp_path, capsys):
    # at this density drop 3 of 4 has no users; the dominance check passes over it
    cfg = tmp_path / "cell.ini"
    cfg.write_text("[cell]\ndrops = 4\nttis = 2\nmean_ues = 0.02\n")
    flags = ["--config", str(cfg), "--seed", "0", "--check", "--no-timestamp"]
    assert cli.main(["cell-sdma", *flags, "--out", str(tmp_path / "sdma")]) == 0
    assert cli.main(["cell-ofdma", *flags, "--out", str(tmp_path / "ofdma")]) == 3
    err = capsys.readouterr().err
    assert "3-bit median SINR loss" in err and "90th-percentile SINR loss" in err


def test_failed_check_exits_three(tmp_path, capsys):
    # two-beam pairing needs scheduler history; a 30-TTI run stays below 90%
    cfg = tmp_path / "cell.ini"
    cfg.write_text("[cell]\ndrops = 2\nttis = 30\nbeams = 2\nsdma_bits = 4\n")
    rc = cli.main(["cell-sdma", "--config", str(cfg), "--out", str(tmp_path / "out"),
                   "--check", "--no-timestamp"])
    assert rc == 3
    assert "2-beam usage fraction" in capsys.readouterr().err


@pytest.mark.parametrize("preset,config", [
    ("cell-sdma", "[cell]\ndrops = 2\nttis = 30\nbeams = 2\nsdma_bits = 4\n"),
    # the 4-bit order-1 chain misses the 28 dB ACLR1 limit
    ("aclr-sweep", "[tx]\nbits = 4\nlpf_orders = 1\nn_symbols = 2\nnperseg = 1024\n"),
])
def test_failed_claims_reported_only_with_check(tmp_path, capsys, preset, config):
    cfg = tmp_path / "c.ini"
    cfg.write_text(config)
    outs = {}
    for flags, want in ((["--check"], 3), ([], 0)):
        out = tmp_path / f"out{len(flags)}"
        assert cli.main([preset, "--config", str(cfg), "--out", str(out), "--no-timestamp", *flags]) == want
        outs[want] = {p.name: p.read_bytes() for p in out.iterdir()}
        err = capsys.readouterr().err
        if flags:
            assert "check failed" in err
        else:
            assert err == ""
    assert outs[0] and outs[0] == outs[3]


def test_claims_run_without_check(tmp_path, monkeypatch):
    # every run evaluates its claims; --check only reports them
    class ClaimRan(Exception):
        pass

    def claim(*args):
        raise ClaimRan

    monkeypatch.setattr(cli, "_check_dominance", claim)
    cfg = tmp_path / "cell.ini"
    cfg.write_text("[cell]\ndrops = 1\nttis = 4\nsdma_bits = 4\nbeams = 4\narea_m = 600\nfixed_ues = 40\n")
    with pytest.raises(ClaimRan):
        cli.main(["cell-sdma", "--config", str(cfg), "--out", str(tmp_path / "out"), "--no-timestamp"])


def test_aqnm_check_accepts_widths_out_of_order(tmp_path, capsys):
    # the alpha ordering check compares widths in ascending order, not list order
    rc = cli.main(["aqnm-curves", "--bits", "4,3", "--out", str(tmp_path / "out"), "--check", "--no-timestamp"])
    assert rc == 0, capsys.readouterr().err


def test_passing_check_exits_zero(tmp_path, capsys):
    rc = cli.main(["power-table", "--out", str(tmp_path / "out"), "--check"])
    assert rc == 0
    assert "power-table: all checks passed" in capsys.readouterr().out


# ---------------------------------------------------------------- artifacts

def test_power_table_artifacts(tmp_path):
    out = tmp_path / "out"
    assert cli.main(["power-table", "--out", str(out), "--no-timestamp"]) == 0
    head, rows = read_csv(out / "power_table.csv")
    assert head == ["arch", "stage", "mw"]
    archs = {r[0] for r in rows}
    assert archs == {f"{d}-{a}" for d in ("tx", "rx")
                     for a in ("analog", "hybrid", "digital", "digital-4bit")}
    comments = comment_lines(out / "power_table.csv")
    assert any(c.startswith("# preset = power-table") for c in comments)
    assert any(c.startswith("# cfg run.seed = 0") for c in comments)
    # placement and parallelism never appear in the provenance header
    assert not any("run.out" in c or "run.jobs" in c for c in comments)
    py_compile.compile(str(out / "power_table_plot.py"), doraise=True)


def test_run_stamps_every_file_alike(tmp_path):
    out = tmp_path / "out"
    assert cli.main(["aqnm-curves", "--out", str(out)]) == 0
    stamps = {name: [c for c in comment_lines(out / name) if c.startswith("# generated = ")]
              for name in ("aqnm_alpha.csv", "aqnm_sinr.csv")}
    assert len(stamps["aqnm_alpha.csv"]) == 1
    assert stamps["aqnm_alpha.csv"] == stamps["aqnm_sinr.csv"]


def test_timestamp_header_toggles(tmp_path):
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert cli.main(["power-table", "--out", str(out1)]) == 0
    assert cli.main(["power-table", "--out", str(out2), "--no-timestamp"]) == 0
    assert any(c.startswith("# generated = ") for c in comment_lines(out1 / "power_table.csv"))
    assert not any("generated" in c for c in comment_lines(out2 / "power_table.csv"))


def test_aqnm_rerun_byte_identical(tmp_path):
    outs = (tmp_path / "a", tmp_path / "b")
    for out in outs:
        assert cli.main(["aqnm-curves", "--out", str(out), "--no-timestamp"]) == 0
    for name in ("aqnm_alpha.csv", "aqnm_sinr.csv", "aqnm_curves_plot.py"):
        assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()
    head, rows = read_csv(outs[0] / "aqnm_sinr.csv")
    assert head == ["gamma_db", "n_bits", "sinr_db", "saturation_db"]
    py_compile.compile(str(outs[0] / "aqnm_curves_plot.py"), doraise=True)


def test_link_validate_columns_and_agreement(tmp_path):
    cfg = tmp_path / "link.ini"
    cfg.write_text("[link]\nadc_bits = 3\nsnr_db = 10:10\nsnr_points = 1\nn_symbols = 3\n")
    out = tmp_path / "out"
    rc = cli.main(["link-validate", "--config", str(cfg), "--out", str(out), "--no-timestamp"])
    assert rc == 0
    head, rows = read_csv(out / "link_validate.csv")
    assert head == ["snr_db", "n_adc", "n_dac", "used_prbs", "post_eq_db", "predicted_db"]
    assert len(rows) == 1
    snr, n_adc, n_dac, prbs, meas, pred = (float(v) for v in rows[0])
    assert (snr, n_adc, n_dac, prbs) == (10.0, 3.0, 5.0, 274.0)
    assert meas == pytest.approx(pred, abs=1.0)  # 3 symbols only; tight bound is the acceptance suite's job
    py_compile.compile(str(out / "link_validate_plot.py"), doraise=True)


@pytest.mark.parametrize("preset,config", [
    pytest.param("link-validate", "[link]\nadc_bits = 3\nsnr_db = 5:15\nsnr_points = 2\nn_symbols = 3\n",
                 id="link-validate"),
    pytest.param("sdma-link", "[sdma]\nadc_bits = 3\nsir_db = 20:20\nsir_points = 1\ngamma0_db = 0\n"
                 "n_symbols = 3\nused_prbs = 100\n", id="sdma-link"),
    pytest.param("tx-psd", "[tx]\npsd_cases = 4:0,inf:1\nn_symbols = 2\nnperseg = 1024\n", id="tx-psd"),
    pytest.param("aclr-sweep", "[tx]\nbits = 4,inf\nlpf_orders = 1,0\nn_symbols = 2\nnperseg = 1024\n",
                 id="aclr-sweep"),
    pytest.param("evm-sweep", "[tx]\nevm_bits = 4,inf\nevm_lpf_order = 1\nn_symbols = 2\n"
                 "inv_sigma_rf_db = 40:40\nrf_points = 1\n", id="evm-sweep"),
])
def test_link_validate_jobs_invariant(tmp_path, preset, config):
    # each config spreads at least two jobs over the pool
    cfg = tmp_path / "c.ini"
    cfg.write_text(config)
    outs = (tmp_path / "j1", tmp_path / "j2")
    for out, jobs in zip(outs, ("1", "2")):
        rc = cli.main([preset, "--config", str(cfg), "--out", str(out), "--jobs", jobs, "--no-timestamp"])
        assert rc == 0
    csvs = sorted(p.name for p in outs[0].glob("*.csv"))
    assert csvs and csvs == sorted(p.name for p in outs[1].glob("*.csv"))
    for name in csvs:
        assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes(), name


def test_sdma_link_artifacts(tmp_path):
    cfg = tmp_path / "sdma.ini"
    cfg.write_text("[sdma]\nadc_bits = 3\nsir_db = 20:20\nsir_points = 1\ngamma0_db = 0\nn_symbols = 3\n")
    out = tmp_path / "out"
    rc = cli.main(["sdma-link", "--config", str(cfg), "--out", str(out), "--no-timestamp"])
    assert rc == 0
    head, rows = read_csv(out / "sdma_link_g0.csv")
    assert head == ["sir_db", "n_adc", "n_dac", "used_prbs", "post_eq_db", "predicted_db"]
    # requested resolution plus the unquantized reference, each at SIR 20 and inf
    assert len(rows) == 4
    assert {r[0] for r in rows} == {"20", "inf"}
    assert {r[1] for r in rows} == {"3", "inf"}
    py_compile.compile(str(out / "sdma_link_plot.py"), doraise=True)


def test_cell_ofdma_artifacts(tmp_path):
    cfg = tmp_path / "cell.ini"
    cfg.write_text("[cell]\ndrops = 1\nttis = 4\nadc_bits = 3\narea_m = 600\nfixed_ues = 40\n")
    out = tmp_path / "out"
    rc = cli.main(["cell-ofdma", "--config", str(cfg), "--out", str(out), "--no-timestamp"])
    assert rc == 0
    head, rows = read_csv(out / "cell_ofdma_ue.csv")
    assert head == ["drop", "ue", "serving_bs", "sinr_db", "rate_bps", "n_bits", "scheduler", "interior"]
    assert rows and all(r[6] == "OFDMA_PF" for r in rows)
    assert {r[5] for r in rows} == {"3", "inf"}
    for tag in ("n3", "ninf"):
        for metric in ("sinr", "rate"):
            path = out / f"cell_ofdma_{metric}_cdf_{tag}.csv"
            chead, crows = read_csv(path)
            assert chead == ["percentile", "value"]
            assert len(crows) == 99
    py_compile.compile(str(out / "cell_ofdma_plot.py"), doraise=True)


def test_cell_sdma_artifacts(tmp_path):
    cfg = tmp_path / "cell.ini"
    cfg.write_text("[cell]\ndrops = 1\nttis = 4\nsdma_bits = 4\nbeams = 4\n"
                   "area_m = 600\nfixed_ues = 40\n")
    out = tmp_path / "out"
    rc = cli.main(["cell-sdma", "--config", str(cfg), "--out", str(out), "--no-timestamp"])
    assert rc == 0
    head, rows = read_csv(out / "cell_sdma_beams.csv")
    assert head == ["n_beams", "count"]
    assert [r[0] for r in rows] == ["1", "2", "3", "4"]
    assert sum(int(r[1]) for r in rows) > 0
    head, _ = read_csv(out / "cell_sdma_ue.csv")
    assert head == ["drop", "ue", "serving_bs", "sinr_db", "rate_bps", "n_bits", "scheduler", "interior"]
    py_compile.compile(str(out / "cell_sdma_plot.py"), doraise=True)


def test_tx_psd_artifacts(tmp_path):
    cfg = tmp_path / "psd.ini"
    cfg.write_text("[tx]\npsd_cases = 4:0\nn_symbols = 2\nnperseg = 1024\n")
    out = tmp_path / "out"
    rc = cli.main(["tx-psd", "--config", str(cfg), "--out", str(out), "--check", "--no-timestamp"])
    assert rc == 0  # integral-vs-power bookkeeping holds at toy scale too
    head, rows = read_csv(out / "tx_psd_n4_o0.csv")
    assert head == ["freq_offset_hz", "psd_db"]
    assert len(rows) == 1024
    py_compile.compile(str(out / "tx_psd_plot.py"), doraise=True)


def test_psd_job_block_power_is_the_variance():
    # tx-psd's 3% check reads this power; it skips np.var's full-length temporaries, not its value
    results = cli._psd_job(4, [0, 1, 3], 275, 2, 1024, 0)
    _, block = txchain.transmit(4, ofdm.OfdmNumerology(used_prbs=275), "QPSK", 2,
                                np.random.default_rng(np.random.SeedSequence(0)))
    for order, (_, power) in zip([0, 1, 3], results):
        assert power == pytest.approx(np.var(txchain.apply_reconstruction_lpf(block, order).samples), rel=1e-12, abs=0)


def test_aclr_sweep_artifacts(tmp_path):
    cfg = tmp_path / "aclr.ini"
    cfg.write_text("[tx]\nbits = 4\nlpf_orders = 0\nn_symbols = 2\nnperseg = 1024\n")
    out = tmp_path / "out"
    rc = cli.main(["aclr-sweep", "--config", str(cfg), "--out", str(out), "--no-timestamp"])
    assert rc == 0
    head, rows = read_csv(out / "aclr_sweep.csv")
    assert head == ["n_bits", "lpf_order", "adj_index", "aclr_db", "limit_bs_db", "limit_ue_db"]
    assert [r[2] for r in rows] == ["-2", "-1", "1", "2"]
    assert all(float(r[3]) > 0 for r in rows)
    py_compile.compile(str(out / "aclr_sweep_plot.py"), doraise=True)


def test_evm_sweep_artifacts(tmp_path):
    cfg = tmp_path / "evm.ini"
    cfg.write_text("[tx]\nevm_bits = 4\nevm_lpf_order = 0\nn_symbols = 2\n"
                   "inv_sigma_rf_db = 40:40\nrf_points = 1\n")
    out = tmp_path / "out"
    rc = cli.main(["evm-sweep", "--config", str(cfg), "--out", str(out), "--no-timestamp"])
    assert rc == 0
    head, rows = read_csv(out / "evm_sweep.csv")
    assert head == ["n_bits", "inv_sigma_rf_db", "evm_pct"]
    assert len(rows) == 1
    fhead, frows = read_csv(out / "evm_floor.csv")
    assert fhead == ["n_bits", "measured_pct", "predicted_pct"]
    meas, pred = float(frows[0][1]), float(frows[0][2])
    assert meas == pytest.approx(pred, rel=0.3)  # 2 symbols; the 10% claim runs at full scale
    py_compile.compile(str(out / "evm_sweep_plot.py"), doraise=True)


_CELL_PIN = "[cell]\ndrops = 2\nttis = 4\narea_m = 600\nfixed_ues = 40\nadc_bits = 4,3\n"


@pytest.mark.parametrize("preset,config,digests", [
    pytest.param("aqnm-curves", "[aqnm]\nbits = 1,4,inf\ngamma_points = 5\n", {
        "aqnm_alpha.csv": "f4af798910276757cbd454ad5c32ebaf8b42678152923b7405c029360383df01",
        "aqnm_sinr.csv": "706708b67b5d7c10cf16f46d1e169eed54c23368def83a9c854f475fa8e5fc0b",
    }, id="aqnm-curves"),
    pytest.param("link-validate", "[link]\nadc_bits = 3,inf\nsnr_db = 10:10\nsnr_points = 1\nn_symbols = 3\n"
                                  "used_prbs = 100\n", {
        "link_validate.csv": "f1c5ee7bbe5a2f4ce7f600a2cabd336a2a035afe4658e4ec25f85e6ebe23d3db",
    }, id="link-validate"),
    pytest.param("sdma-link", "[sdma]\nadc_bits = 3\nsir_db = 20:20\nsir_points = 1\ngamma0_db = 0\nn_symbols = 3\n"
                              "used_prbs = 100\n", {
        "sdma_link_g0.csv": "ad759d4f3115d7d04e027c40df07ffb99a5e055eb0389a61084b13f1b0348178",
    }, id="sdma-link"),
    pytest.param("aclr-sweep", "[tx]\nbits = 4,inf\nlpf_orders = 0,1\nn_symbols = 2\nnperseg = 1024\n", {
        "aclr_sweep.csv": "e37c88b65fad78bb1cd2a39d89ec630ba54cf84d864dd004b3b27a4cb5ac153b",
    }, id="aclr-sweep"),
    pytest.param("evm-sweep", "[tx]\nevm_bits = 4,inf\nevm_lpf_order = 1\nn_symbols = 2\ninv_sigma_rf_db = 40:40\n"
                              "rf_points = 1\n", {
        "evm_floor.csv": "1d68a93230f112bfa8c1ac8e6fbe9fd6c07671d44c74b291516f8feb6e0095bc",
        "evm_sweep.csv": "5148c4b92195591178efc7e2a317b3557cfcd50a8f150949909a17fe33cd4ea6",
    }, id="evm-sweep"),
    pytest.param("power-table", "", {
        "power_table.csv": "77bafc0f4ad391a7be79116acce95a8b34a04a2e00155f83fcbfaa465237b053",
    }, id="power-table"),
    pytest.param("tx-psd", "[tx]\npsd_cases = 4:0,4:1,inf:0\nn_symbols = 2\nnperseg = 1024\n", {
        "tx_psd_n4_o0.csv": "c091654c8b5dc691d71ba0fa5c05846dc04cf7941fa6a8c92ce7c49d85132fba",
        "tx_psd_n4_o1.csv": "61dfead7a239c2546e14694937c034bc82009e263949c8556535bbcb46c4a0c0",
        "tx_psd_ninf_o0.csv": "599f23c6b91bdcb5f7e751e2f2f5a29c50670f8d00b39a75d794cd3079f38dc9",
    }, id="tx-psd"),
    pytest.param("cell-ofdma", _CELL_PIN, {
        "cell_ofdma_rate_cdf_n3.csv": "6fe16df1fdea636bc4c2e951823263f04ee37b8a347f9312412ce00f66b9a97d",
        "cell_ofdma_rate_cdf_n4.csv": "4b21a62ace260b01301fb7dd446d603c1f0228acb5fc3fec7a583d4813c11999",
        "cell_ofdma_rate_cdf_ninf.csv": "218fe70ea2e0e5a827c3e0ddb4a2c212b30b9a60b7e23ded98ca58c48f105a01",
        "cell_ofdma_sinr_cdf_n3.csv": "9d79d5b7b9e1585bbb0ffa5c6dc6de9713f476c8028893c8363a2736c4bead7b",
        "cell_ofdma_sinr_cdf_n4.csv": "a6813ae7f5e395007d776850d8af73215439ecdae1f0b033e22ba873d4fc4c79",
        "cell_ofdma_sinr_cdf_ninf.csv": "b1a312243c3ec5df722fb354028efc2837b8958320357ca092fdd51c369c20fd",
        "cell_ofdma_ue.csv": "88f227e740ef0c97b2ab548f81c3dc3755129e9b0817b0282263095f36aa88b5",
    }, id="cell-ofdma"),
    pytest.param("cell-sdma", _CELL_PIN, {
        "cell_sdma_beams.csv": "67ce13d6a978c3e4261cde7e4082b26faa1c9bbe15e5f34e768c0d9a51e78d6a",
        "cell_sdma_rate_cdf_n4.csv": "164949188438d891142936b5184905a0776319f7328d4299c8071cebc4718146",
        "cell_sdma_rate_cdf_ninf.csv": "48d30c0d3460e645f5bc183440b220cf854a319dfaa207e7a50814460d8aecef",
        "cell_sdma_sinr_cdf_n4.csv": "3fc3d6d2cc8dc2e412b43f3b767b8cd1f64b9be905d5fdff9f97329f5c34ccbf",
        "cell_sdma_sinr_cdf_ninf.csv": "35eca270316f8a50ded281e3acba2313c045efd667703ccbb1fb9f92637135bf",
        "cell_sdma_ue.csv": "0f78272060e24f6d4b8158bf47b6a3df31be75fa47f23f73f341e9178d26e62c",
    }, id="cell-sdma"),
])
def test_waveform_csvs_bit_identical(tmp_path, preset, config, digests):
    # digests recorded before the FIR helpers and the infinite-resolution
    # paths were folded together, and the tx-psd row (two cases of one
    # width) before the PSD jobs were grouped by width; each waveform
    # config includes an inf width, and power-table runs at defaults.
    # The cell rows, recorded before the cell presets reduced their drops
    # in one pass, list the widths out of order and pin the per-user rows,
    # every CDF and the beam histogram
    cfg = tmp_path / "c.ini"
    cfg.write_text(config)
    out = tmp_path / "out"
    assert cli.main([preset, "--config", str(cfg), "--out", str(out), "--no-timestamp"]) == 0
    got = {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in out.glob("*.csv")}
    assert got == digests


# ---------------------------------------------------------------- plot scripts

class _Line:
    def get_color(self):
        return "C0"


class _Axes:
    """Records what a matplotlib Axes would show; styling arguments are ignored."""

    def __init__(self):
        self.shown = {"xlabel": None, "ylabel": None, "title": None, "xscale": "linear",
                      "yscale": "linear", "xlim": None, "legend": False, "hlines": [], "calls": []}

    def _draw(self, method, n_points, kw):
        self.shown["calls"].append((method, kw.get("label"), n_points))
        return [_Line()]

    def plot(self, xs, ys, *fmt, **kw):
        assert len(xs) == len(ys)
        return self._draw("plot", len(xs), kw)

    def bar(self, xs, heights, **kw):
        assert len(xs) == len(heights)
        return self._draw("bar", len(xs), kw)

    def axhline(self, y, **kw):
        self.shown["hlines"].append("%.4g" % y)
        return self._draw("axhline", 1, kw)[0]

    def set_xlabel(self, text):
        self.shown["xlabel"] = text

    def set_ylabel(self, text):
        self.shown["ylabel"] = text

    def set_title(self, text):
        self.shown["title"] = text

    def set_xscale(self, scale):
        self.shown["xscale"] = scale

    def set_yscale(self, scale):
        self.shown["yscale"] = scale

    def set_xlim(self, lo, hi):
        self.shown["xlim"] = (lo, hi)

    def grid(self, *args, **kw):
        pass

    def legend(self, **kw):
        self.shown["legend"] = True


class _Figure:
    def __init__(self, axes):
        self.axes = axes
        self.saved = []

    def autofmt_xdate(self, **kw):
        pass

    def tight_layout(self):
        pass

    def savefig(self, name, **kw):
        self.saved.append(name)


def _stub_matplotlib(monkeypatch):
    """Put a recording matplotlib.pyplot in sys.modules; returns the list of figures it makes."""
    figures = []

    def subplots(nrows=1, ncols=1, figsize=None, squeeze=True):
        # shaped like matplotlib's: one Axes, a 1-D row, or 2-D with squeeze=False
        grid = np.empty((nrows, ncols), dtype=object)
        for idx in np.ndindex(grid.shape):
            grid[idx] = _Axes()
        figures.append(_Figure(list(grid.flat)))
        if squeeze:
            grid = grid.squeeze()
            return figures[-1], grid.item() if grid.ndim == 0 else grid
        return figures[-1], grid

    mpl, pyplot = types.ModuleType("matplotlib"), types.ModuleType("matplotlib.pyplot")
    pyplot.subplots = subplots
    mpl.pyplot = pyplot
    monkeypatch.setitem(sys.modules, "matplotlib", mpl)
    monkeypatch.setitem(sys.modules, "matplotlib.pyplot", pyplot)
    return figures


def _shown(xlabel, ylabel, calls, title=None, xscale="linear", yscale="linear", xlim=None, hlines=()):
    """One axes as the recording stub reports it; every figure has a legend."""
    return {"xlabel": xlabel, "ylabel": ylabel, "title": title, "xscale": xscale, "yscale": yscale,
            "xlim": xlim, "legend": True, "hlines": list(hlines), "calls": calls}


def _cdf_axes(bits):
    curves = [("plot", f"{b} bits", 99) for b in bits]
    return [_shown("SINR (dB)", "CDF", curves), _shown("rate (bps)", "CDF", curves, xscale="log")]


# (preset, toy config of the artifact tests above, [savefig names, *axes]);
# recorded before the scripts shared one preamble and epilogue
_PLOT_CASES = [
    ("power-table", "", [
        ["power_table.png"],
        _shown(None, "power (mW)", [("bar", "rffe", 8), ("bar", "gain", 8), ("bar", "converter", 8)]),
    ]),
    ("aqnm-curves", "", [
        ["aqnm_curves.png"],
        _shown("pre-quantization SNR (dB)", "quantized SINR (dB)",
               [("plot", f"{b} bits", 61) for b in range(1, 9)]),
    ]),
    ("link-validate", "[link]\nadc_bits = 3\nsnr_db = 10:10\nsnr_points = 1\nn_symbols = 3\n", [
        ["link_validate.png"],
        _shown("input SNR (dB)", "post-equalization SNR (dB)",
               [("plot", "3-bit simulated", 1), ("plot", "3-bit predicted", 1)]),
    ]),
    ("sdma-link", "[sdma]\nadc_bits = 3\nsir_db = 20:20\nsir_points = 1\ngamma0_db = 0\nn_symbols = 3\n", [
        ["sdma_link.png"],
        _shown("SIR (dB)", "post-equalization SINR (dB)",
               [("plot", "3-bit simulated", 1), ("plot", "3-bit predicted", 1),
                ("plot", "inf-bit simulated", 1), ("plot", "inf-bit predicted", 1)],
               title="sdma_link_g0.csv"),
    ]),
    ("cell-ofdma", "[cell]\ndrops = 1\nttis = 4\nadc_bits = 3\narea_m = 600\nfixed_ues = 40\n", [
        ["cell_ofdma_cdf.png"], *_cdf_axes(("3", "inf")),
    ]),
    ("cell-sdma", "[cell]\ndrops = 1\nttis = 4\nsdma_bits = 4\nbeams = 4\narea_m = 600\nfixed_ues = 40\n", [
        ["cell_sdma_cdf.png"], *_cdf_axes(("4", "inf")),
    ]),
    ("tx-psd", "[tx]\npsd_cases = 4:0\nn_symbols = 2\nnperseg = 1024\n", [
        ["tx_psd.png"],
        _shown("frequency offset (MHz)", "PSD (dBc/Hz)", [("plot", "n4_o0", 1024)], xlim=(-1200, 1200)),
    ]),
    ("aclr-sweep", "[tx]\nbits = 4\nlpf_orders = 0\nn_symbols = 2\nnperseg = 1024\n", [
        ["aclr_sweep.png"],
        _shown("DAC resolution (bits)", "ACLR, first adjacent channel (dB)",
               [("plot", "LPF order 0", 1), ("axhline", "28 dB (wide-area)", 1),
                ("axhline", "17 dB (local-area)", 1)],
               hlines=("28", "17")),
    ]),
    ("evm-sweep", "[tx]\nevm_bits = 4\nevm_lpf_order = 0\nn_symbols = 2\ninv_sigma_rf_db = 40:40\n"
                  "rf_points = 1\n", [
        ["evm_sweep.png"],
        _shown("1/sigma_RF^2 (dB)", "EVM (%)",
               [("plot", "4 bits", 1), ("axhline", None, 1), ("axhline", None, 1), ("axhline", None, 1)],
               yscale="log", hlines=("6.877", "8", "3.5")),
    ]),
]


@pytest.mark.parametrize("preset,config,figure", _PLOT_CASES, ids=[c[0] for c in _PLOT_CASES])
def test_plot_script_draws_figure(tmp_path, monkeypatch, preset, config, figure):
    # runs the emitted script against a recording matplotlib and pins what
    # each axes shows; grid and legend styling are left out
    ini = tmp_path / "c.ini"
    ini.write_text(config)
    out = tmp_path / "out"
    assert cli.main([preset, "--config", str(ini), "--out", str(out), "--no-timestamp"]) == 0
    figures = _stub_matplotlib(monkeypatch)
    monkeypatch.chdir(out)
    runpy.run_path(preset.replace("-", "_") + "_plot.py")
    [fig] = figures
    assert [fig.saved] + [ax.shown for ax in fig.axes] == figure


# ---------------------------------------------------------------- boundary

_BAD_INPUTS = [
    ("aqnm-curves", "[aqnm]\ngamma_db = nan:nan\ngamma_points = 2\n", [], "aqnm.gamma_db"),
    ("evm-sweep", "[tx]\ninv_sigma_rf_db = nan:nan\nrf_points = 1\nevm_bits = 4\nn_symbols = 2\n", [],
     "tx.inv_sigma_rf_db"),
    ("aclr-sweep", "[tx]\nlpf_orders = 0.5\nbits = 4\nn_symbols = 2\nnperseg = 1024\n", [], "tx.lpf_orders"),
    ("link-validate", "[link]\nsnr_db = -inf:inf\nadc_bits = 3\nsnr_points = 1\nn_symbols = 3\n", [],
     "link.snr_db"),
    ("sdma-link", "[sdma]\ngamma0_db = nan\nadc_bits = 3\nsir_points = 1\nn_symbols = 3\n", [],
     "sdma.gamma0_db"),
    ("link-validate", "[link]\ndac_offset = -5\nadc_bits = 3\nsnr_points = 1\nn_symbols = 3\n", [],
     "link.dac_offset"),
    ("link-validate", "[link]\nused_prbs = 0\nadc_bits = 3\nsnr_points = 1\nn_symbols = 3\n", [],
     "link.used_prbs"),
    ("sdma-link", "[sdma]\nused_prbs = 300\nadc_bits = 3\nsir_points = 1\nn_symbols = 3\n", [],
     "sdma.used_prbs"),
    ("tx-psd", "[tx]\nn_symbols = 0\npsd_cases = 4:0\n", [], "tx.n_symbols"),
    ("tx-psd", "[tx]\nnperseg = 0\npsd_cases = 4:0\nn_symbols = 2\n", [], "tx.nperseg"),
    ("tx-psd", "[tx]\npsd_cases = 0:0\nn_symbols = 2\nnperseg = 1024\n", [], "tx.psd_cases"),
    ("evm-sweep", "[tx]\nevm_lpf_order = -1\nevm_bits = 4\nrf_points = 1\nn_symbols = 2\n", [],
     "tx.evm_lpf_order"),
    ("link-validate", "[link]\nadc_bits = 3\nsnr_points = 1\nn_symbols = 3\n", ["--seed", "-1"], "run.seed"),
    # cross-key: each value is fine alone
    ("link-validate", "[link]\nadc_bits = 15\ndac_offset = 2\nsnr_points = 1\nn_symbols = 3\n", [],
     "link.dac_offset"),
    ("tx-psd", "[tx]\nnperseg = 1000000\nn_symbols = 1\npsd_cases = 4:0\n", [], "tx.nperseg"),
    ("tx-psd", "[tx]\nnperseg = 65536\nn_symbols = 1\npsd_cases = 4:0\n", [], "tx.nperseg"),
    ("cell-ofdma", "[cell]\ndrops = 1\nttis = 1\n", ["--bits", "3,3"], "cell.adc_bits"),
    # dB levels beyond ofdm.MAX_ABS_DB, where 10^(x/10) or psi*gamma overflows
    ("link-validate", "[link]\nsnr_db = -4000:-4000\nadc_bits = 3\nsnr_points = 1\nn_symbols = 3\n", [],
     "link.snr_db"),
    ("sdma-link", "[sdma]\nsir_db = -4000:-4000\nadc_bits = 3\nsir_points = 1\nn_symbols = 3\n", [],
     "sdma.sir_db"),
    ("sdma-link", "[sdma]\ngamma0_db = 4000\nadc_bits = 3\nsir_points = 1\nn_symbols = 3\n", [],
     "sdma.gamma0_db"),
    ("evm-sweep", "[tx]\ninv_sigma_rf_db = -4000:-4000\nrf_points = 1\nevm_bits = 4\nn_symbols = 2\n", [],
     "tx.inv_sigma_rf_db"),
    ("aqnm-curves", "[aqnm]\ngamma_db = 4000:4000\ngamma_points = 1\n", [], "aqnm.gamma_db"),
    # Welch bins too coarse for two per 396 MHz ACLR window (all-NaN CSV, or a math domain error)
    ("aclr-sweep", "[tx]\nnperseg = 16\nn_symbols = 1\n", [], "tx.nperseg"),
    ("aclr-sweep", "[tx]\nnperseg = 32\nn_symbols = 1\n", [], "tx.nperseg"),
    # every list names each entry once; a repeat would redo its work and write its rows or file twice
    ("aclr-sweep", "[tx]\nlpf_orders = 1,1\nbits = 4\nn_symbols = 2\nnperseg = 1024\n", [], "tx.lpf_orders"),
    ("tx-psd", "[tx]\npsd_cases = 4:0,4:0\nn_symbols = 2\nnperseg = 1024\n", [], "tx.psd_cases"),
    ("sdma-link", "[sdma]\ngamma0_db = 0,0\nadc_bits = 3\nsir_points = 1\nn_symbols = 3\n", [],
     "sdma.gamma0_db"),
    # more beams than the 64-antenna BS can form
    ("cell-sdma", "[cell]\ndrops = 1\nttis = 2\nbeams = 65\n", [], "cell.beams"),
    # a band so narrow that the SNR overflows and the SINR is NaN (exit 2 naming no key)
    ("cell-ofdma", "[cell]\ndrops = 1\nttis = 1\nbw_hz = 1e-300\n", [], "cell.bw_hz"),
    # a spread whose (pi sigma)^2 overflows in _spread_taper (an OverflowError traceback)
    ("cell-ofdma", "[cell]\ndrops = 1\nttis = 1\ncluster_spread = 1e160\n", [], "cell.cluster_spread"),
    # a cluster mean numpy's Poisson draw refuses (exit 2 naming no key)
    ("cell-ofdma", "[cell]\ndrops = 1\nttis = 1\nmean_extra_clusters = 1e19\n", [], "cell.mean_extra_clusters"),
    # two levels with one %g form, so one sdma_link_g1.csv overwrote the other
    ("sdma-link", "[sdma]\ngamma0_db = 1,1.0000001\nadc_bits = 3\nsir_points = 1\nn_symbols = 3\n", [],
     "sdma.gamma0_db"),
    # a band wider than its 28 GHz carrier: every SINR near -3000 dB and every rate 0 (exit 0)
    ("cell-ofdma", "[cell]\ndrops = 1\nttis = 2\nbw_hz = 1e308\n", [], "cell.bw_hz"),
]


@pytest.mark.parametrize("preset,config,flags,field", _BAD_INPUTS,
                         ids=[f"{i}-{case[3]}" for i, case in enumerate(_BAD_INPUTS)])
def test_bad_input_exits_one_naming_field(tmp_path, capsys, preset, config, flags, field):
    ini = tmp_path / "c.ini"
    ini.write_text(config)
    out = tmp_path / "out"
    rc = cli.main([preset, "--config", str(ini), "--out", str(out), "--no-timestamp", *flags])
    err = capsys.readouterr().err
    assert rc == 1
    assert field in err and "config error" in err
    assert not out.exists()


def test_cell_real_rows_read_network_rules():
    # each [cell] real key's bound and default are written once, on NetworkConfig's side
    for key, name in cli._CELL_REALS.items():
        cast, default, rule = cli._SCHEMA["cell"][key]
        assert rule is network._REAL_FIELDS[name]
        assert cast(default) == getattr(network.NetworkConfig(), name)


def test_bad_file_value_reported_under_override():
    with pytest.raises(cli.ConfigError) as err:
        cli.validate_config("[link]\nused_prbs = 0\n", overrides=[("link", "used_prbs", "100")])
    assert err.value.violations == ["link.used_prbs must be in 1..275"]


def test_evm_floor_independent_of_tx_used_prbs(tmp_path):
    # measure_evm always runs a fully occupied frame, so the predicted
    # floor must not follow tx.used_prbs either
    floors = []
    for prbs in (100, 275):
        ini = tmp_path / f"p{prbs}.ini"
        ini.write_text(f"[tx]\nevm_bits = 4\nevm_lpf_order = 1\nn_symbols = 2\nrf_points = 1\nused_prbs = {prbs}\n")
        out = tmp_path / f"out{prbs}"
        assert cli.main(["evm-sweep", "--config", str(ini), "--out", str(out), "--no-timestamp"]) == 0
        floors.append(read_csv(out / "evm_floor.csv"))
    assert floors[0] == floors[1]


_NUMBER = st.one_of(st.integers(-300, 300), st.floats(-1e3, 1e3),
                    st.sampled_from([math.nan, math.inf, -math.inf])).map(str)
# a bits:order pair from few tokens, so that a list of them resolves or repeats a pair now and then
_PAIR = st.tuples(st.sampled_from(["1", "3", "4", "16", "inf", "0", "17", "2.5", "nan"]),
                  st.sampled_from(["0", "1", "2", "-1", "0.5", "inf"])).map(":".join)
_TEXT = st.one_of(_NUMBER, st.lists(_NUMBER, min_size=1, max_size=4).map(",".join),
                  st.tuples(_NUMBER, _NUMBER).map(":".join), st.lists(_PAIR, min_size=2, max_size=4).map(",".join))


# one list of each list key that repeats an entry: the repeat rule is checked on every run, not only
# when the strategy happens to draw a repeat that resolves
@example(("link", "adc_bits"), "3,3")
@example(("sdma", "adc_bits"), "3,inf,3")
@example(("sdma", "gamma0_db"), "0,0")
@example(("sdma", "gamma0_db"), "1,1.0000001")  # two levels, one sdma_link_g1.csv
@example(("aqnm", "bits"), "1,2,1")
@example(("tx", "bits"), "inf,inf")
@example(("tx", "lpf_orders"), "1,0,1")
@example(("tx", "psd_cases"), "4:0,4:0")
@example(("tx", "evm_bits"), "6,6")
@example(("cell", "adc_bits"), "4,3,4")
@example(("cell", "sdma_bits"), "4,4")
@settings(max_examples=400, deadline=None)
@given(st.sampled_from([(sec, key) for sec, keys in cli._SCHEMA.items() for key in keys]), _TEXT)
def test_schema_text_resolves_in_domain_or_names_key(sec_key, text):
    sec, key = sec_key
    cast, _, domain = cli._SCHEMA[sec][key]
    try:
        value = cli.validate_config("", overrides=[(sec, key, text)])[(sec, key)]
    except cli.ConfigError as err:
        assert any(f"{sec}.{key}" in v for v in err.violations)
        return
    assert domain is None or domain[0](value)
    if cast is str:
        return
    leaves = value if isinstance(value, tuple) else (value,)
    if cast in (cli._cast_bits, cli._cast_floats, cli._cast_orders, cli._cast_cases):
        assert len(set(leaves)) == len(leaves)
    if (sec, key) == ("sdma", "gamma0_db"):  # each level writes sdma_link_g<level:g>.csv
        assert len({f"{v:g}" for v in leaves}) == len(leaves)
    if cast is cli._cast_bits:
        assert all(v == math.inf or (isinstance(v, int) and 1 <= v <= 16) for v in leaves)
    elif cast is cli._cast_cases:
        assert all(b == math.inf or 1 <= b <= 16 for b, _ in value)
        assert all(isinstance(o, int) and o >= 0 for _, o in value)
    else:
        assert all(math.isfinite(v) for v in leaves)
    if cast is cli._cast_orders:
        assert all(v >= 0 and v.is_integer() for v in leaves)


def test_cli_import_leaves_heavy_scipy_unloaded():
    # scipy.signal, and the scipy.stats and scipy.interpolate it pulls in, would double every
    # process's start-up; the package needs none of them
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    code = ("import sys, lowresbf.cli; "
            "print(sorted(m for m in ('scipy.signal', 'scipy.stats', 'scipy.interpolate') if m in sys.modules))")
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"
