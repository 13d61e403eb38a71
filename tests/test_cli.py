"""Command-line driver checks: config resolution, exit codes, artifact
layout, and rerun determinism.

Presets run at toy scale here; the statistical claims behind --check are
exercised at full scale by the acceptance suite.
"""

import hashlib
import math
import py_compile

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lowresbf import cli


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
        cli.ExperimentPreset(name="bogus")


# ---------------------------------------------------------------- exit codes

def test_missing_preset_exits_one(capsys):
    assert cli.main([]) == 1
    assert "exactly one preset" in capsys.readouterr().err


def test_conflicting_preset_names_exit_one(capsys):
    assert cli.main(["power-table", "--preset", "aqnm-curves"]) == 1
    assert "exactly one preset" in capsys.readouterr().err


def test_usage_error_exits_one(capsys):
    # argparse rejects the choice; the driver maps usage problems to 1
    with pytest.raises(SystemExit) as err:
        cli.main(["bogus-preset"])
    assert err.value.code == 1
    assert "config error" in capsys.readouterr().err


def test_bits_flag_requires_matching_preset(capsys):
    assert cli.main(["power-table", "--bits", "3,4"]) == 1
    assert "--bits does not apply" in capsys.readouterr().err


def test_missing_config_file_exits_one(tmp_path, capsys):
    rc = cli.main(["power-table", "--config", str(tmp_path / "none.ini")])
    assert rc == 1
    assert "config error" in capsys.readouterr().err


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
    # waveform too short for the requested spectral resolution
    cfg = tmp_path / "psd.ini"
    cfg.write_text("[tx]\npsd_cases = 4:0\nn_symbols = 1\nnperseg = 65536\n")
    rc = cli.main(["tx-psd", "--config", cfg.as_posix(), "--out", str(tmp_path / "out")])
    assert rc == 2
    assert "domain error" in capsys.readouterr().err


def test_cell_drop_without_users_exits_two(tmp_path, capsys):
    cfg = tmp_path / "cell.ini"
    cfg.write_text("[cell]\nradius_m = 1000\ndrops = 1\nttis = 2\n")
    rc = cli.main(["cell-ofdma", "--config", str(cfg), "--out", str(tmp_path / "out")])
    assert rc == 2
    assert "no scheduled interior users" in capsys.readouterr().err


def test_failed_check_exits_three(tmp_path, capsys):
    # two-beam pairing needs scheduler history; a 30-TTI run stays below 90%
    cfg = tmp_path / "cell.ini"
    cfg.write_text("[cell]\ndrops = 2\nttis = 30\nbeams = 2\nsdma_bits = 4\n")
    rc = cli.main(["cell-sdma", "--config", str(cfg), "--out", str(tmp_path / "out"),
                   "--check", "--no-timestamp"])
    assert rc == 3
    assert "2-beam usage fraction" in capsys.readouterr().err


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


def test_link_validate_jobs_invariant(tmp_path):
    cfg = tmp_path / "link.ini"
    cfg.write_text("[link]\nadc_bits = 3\nsnr_db = 5:15\nsnr_points = 2\nn_symbols = 3\n")
    outs = (tmp_path / "j1", tmp_path / "j2")
    for out, jobs in zip(outs, ("1", "2")):
        rc = cli.main(["link-validate", "--config", str(cfg), "--out", str(out),
                       "--jobs", jobs, "--no-timestamp"])
        assert rc == 0
    assert (outs[0] / "link_validate.csv").read_bytes() == (outs[1] / "link_validate.csv").read_bytes()


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


@pytest.mark.parametrize("preset,config,digests", [
    ("aqnm-curves", "[aqnm]\nbits = 1,4,inf\ngamma_points = 5\n", {
        "aqnm_alpha.csv": "f4af798910276757cbd454ad5c32ebaf8b42678152923b7405c029360383df01",
        "aqnm_sinr.csv": "706708b67b5d7c10cf16f46d1e169eed54c23368def83a9c854f475fa8e5fc0b",
    }),
    ("link-validate", "[link]\nadc_bits = 3,inf\nsnr_db = 10:10\nsnr_points = 1\nn_symbols = 3\nused_prbs = 100\n", {
        "link_validate.csv": "f1c5ee7bbe5a2f4ce7f600a2cabd336a2a035afe4658e4ec25f85e6ebe23d3db",
    }),
    ("sdma-link", "[sdma]\nadc_bits = 3\nsir_db = 20:20\nsir_points = 1\ngamma0_db = 0\nn_symbols = 3\n"
                  "used_prbs = 100\n", {
        "sdma_link_g0.csv": "ad759d4f3115d7d04e027c40df07ffb99a5e055eb0389a61084b13f1b0348178",
    }),
    ("aclr-sweep", "[tx]\nbits = 4,inf\nlpf_orders = 0,1\nn_symbols = 2\nnperseg = 1024\n", {
        "aclr_sweep.csv": "e37c88b65fad78bb1cd2a39d89ec630ba54cf84d864dd004b3b27a4cb5ac153b",
    }),
    ("evm-sweep", "[tx]\nevm_bits = 4,inf\nevm_lpf_order = 1\nn_symbols = 2\ninv_sigma_rf_db = 40:40\n"
                  "rf_points = 1\n", {
        "evm_floor.csv": "1d68a93230f112bfa8c1ac8e6fbe9fd6c07671d44c74b291516f8feb6e0095bc",
        "evm_sweep.csv": "5148c4b92195591178efc7e2a317b3557cfcd50a8f150949909a17fe33cd4ea6",
    }),
])
def test_waveform_csvs_bit_identical(tmp_path, preset, config, digests):
    # digests recorded before the FIR helpers and the infinite-resolution
    # paths were folded together; each config includes an inf width
    cfg = tmp_path / "c.ini"
    cfg.write_text(config)
    out = tmp_path / "out"
    assert cli.main([preset, "--config", str(cfg), "--out", str(out), "--no-timestamp"]) == 0
    got = {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in out.glob("*.csv")}
    assert got == digests


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
_TEXT = st.one_of(_NUMBER, st.lists(_NUMBER, min_size=1, max_size=4).map(",".join),
                  st.tuples(_NUMBER, _NUMBER).map(":".join))


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
    if cast is cli._cast_bits:
        assert all(v == math.inf or (isinstance(v, int) and 1 <= v <= 16) for v in leaves)
    elif cast is cli._cast_cases:
        assert all(b == math.inf or 1 <= b <= 16 for b, _ in value)
        assert all(isinstance(o, int) and o >= 0 for _, o in value)
    else:
        assert all(math.isfinite(v) for v in leaves)
    if cast is cli._cast_orders:
        assert all(v >= 0 and v.is_integer() for v in leaves)
