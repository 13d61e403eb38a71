"""Front-end power budget checks.

Reference totals are the published component table this calculator was
tuned to reproduce; each is asserted within 1% so FoM or bookkeeping
changes cannot drift past the sourced numbers unnoticed.
"""

import math

import pytest

from lowresbf import power

REFERENCE_TOTALS_MW = {
    # (side, label): table total
    ("tx", "analog"): 356.12,
    ("tx", "hybrid"): 401.44,
    ("tx", "digital"): 1021.82,
    ("tx", "digital-4bit"): 502.62,
    ("rx", "analog"): 292.15,
    ("rx", "hybrid"): 337.01,
    ("rx", "digital"): 742.35,
    ("rx", "digital-4bit"): 242.85,
}


def budget_for(label):
    if label == "digital-4bit":
        return power.front_end_budget("digital", 4)
    return power.front_end_budget(label, 8)


def test_power_constants_consistent():
    for n_streams in power.STREAMS.values():
        assert 1 <= n_streams <= power.N_ANTENNAS
    assert power.STREAMS["digital"] == power.N_ANTENNAS
    assert power.LNA_NF_DB > 0
    assert 0 < power.PA_PAE <= 1
    assert power.IL_PS_DB >= 0 and power.IL_MIX_DB >= 0


def test_infeasible_pa_drive(monkeypatch):
    # The reference EIRP leaves every kind's PA drive below its required
    # output; a 5 dBm EIRP would not, so the comparison can fail.
    for kind in power.STREAMS:
        p_in, p_out = power._pa_dbm(kind)
        assert p_in < p_out, f"{kind}: PA drive exceeds the required output"
    monkeypatch.setattr(power, "EIRP_DBM", 5.0)
    p_in, p_out = power._pa_dbm("digital")
    assert p_in >= p_out


def test_vga_gain_range_helper():
    # Exact gain range the stated budget terms need (baseband target,
    # combiner gain over 16 antennas, net LNA gain, mixer loss, -87 dBm
    # input); the design value adds margin on top.
    p_in_vga = -87.0 + 10.0 * math.log10(power.N_ANTENNAS) + power.LNA_GAIN_DB - power.IL_MIX_DB
    needed = power.P_BB_DBM - p_in_vga
    assert needed == pytest.approx(80.96, abs=0.01)
    assert power.VGA_GAIN_RANGE_DB >= needed


def test_pa_input_power():
    assert power._pa_dbm("analog")[0] == pytest.approx(-18.04, abs=0.01)
    assert power._pa_dbm("digital")[0] == pytest.approx(-8.04, abs=0.01)


@pytest.mark.parametrize(
    "label,expected", [("analog", 321.2), ("digital", 459.9), ("hybrid", 331.2)]
)
def test_tx_rffe_power(label, expected):
    tx, _ = budget_for(label)
    assert tx.rffe_mw == pytest.approx(expected, rel=0.01)


@pytest.mark.parametrize(
    "label,expected", [("analog", 257.3), ("digital", 184.7), ("hybrid", 267.3)]
)
def test_rx_rffe_power(label, expected):
    _, rx = budget_for(label)
    assert rx.rffe_mw == pytest.approx(expected, rel=0.01)


def test_vga_power():
    assert budget_for("analog")[1].gain_stage_mw == pytest.approx(1.55, rel=0.01)
    assert budget_for("digital")[1].gain_stage_mw == pytest.approx(24.85, rel=0.01)


def test_converter_power():
    assert budget_for("analog")[1].converter_mw == pytest.approx(33.28, rel=1e-6)
    dac = budget_for("digital")[0].converter_mw
    assert dac == pytest.approx(553.6, rel=0.005)
    assert dac / budget_for("digital-4bit")[0].converter_mw == 16.0


def test_lpf_power():
    assert budget_for("analog")[0].gain_stage_mw == pytest.approx(0.52, rel=1e-6)
    assert budget_for("digital")[0].gain_stage_mw == pytest.approx(8.32, rel=1e-6)


@pytest.mark.parametrize("side,label", list(REFERENCE_TOTALS_MW))
def test_budget_totals(side, label):
    tx_budget, rx_budget = budget_for(label)
    budget = tx_budget if side == "tx" else rx_budget
    assert budget.total_mw == pytest.approx(REFERENCE_TOTALS_MW[side, label], rel=0.01)
    parts = budget.rffe_mw + budget.gain_stage_mw + budget.converter_mw
    assert budget.total_mw == parts


def test_validation():
    with pytest.raises(ValueError, match="kind"):
        power.front_end_budget("optical", 8)
    with pytest.raises(ValueError, match="n_bits"):
        power.front_end_budget("digital", 0)


@pytest.mark.parametrize("n_bits", [math.inf, True, 2.5, math.nan, 17])
def test_converter_width_checked_at_boundary(n_bits):
    with pytest.raises(ValueError, match="n_bits"):
        power.front_end_budget("digital", n_bits)
