"""RF front-end power budgets for analog, hybrid, and digital beamforming.

Component models are figure-of-merit calculators: PAs from drive and
efficiency, LNAs from gain and noise figure, VGAs from gain range and
chip area, converters from resolution and rate, filters from order and
cutoff.  Budgets aggregate per architecture so the resolution/stream
trade-offs can be compared on equal EIRP and drive assumptions.

One reference design is modelled, the 16-antenna 400 MHz front end whose
totals the power-table preset checks, and it is fixed by module
constants: N_ANTENNAS and STREAMS (streams per kind); P_LO_MW and
CONVERTER_FS_HZ, shared by both sides; IL_PS_DB, the phase-shifter loss
of analog and hybrid; the transmit EIRP_DBM, P_BB_DBM, IL_MIX_DB,
PA_PAE, DAC_FOM_FJ, LPF_MW_PER_GHZ, LPF_ORDER and LPF_FC_GHZ; and the
receive LNA_GAIN_DB, LNA_NF_DB, LNA_FOM_PER_MW, VGA_FOM, VGA_AREA_MM2,
VGA_BW_GHZ, VGA_GAIN_RANGE_DB and ADC_FOM_FJ.  front_end_budget takes
only the kind and the converter width.
"""

import math
from dataclasses import dataclass, field

from . import quantizer

__all__ = ["PowerBudget", "front_end_budget"]

N_ANTENNAS = 16
STREAMS = {"analog": 1, "hybrid": 2, "digital": N_ANTENNAS}
P_LO_MW = 10.0  # one LO per stream
CONVERTER_FS_HZ = 1e9
IL_PS_DB = 10.0  # analog and hybrid: lost from the transmit drive, added to the LNA gain

EIRP_DBM = 30.0
P_BB_DBM = 10.0  # baseband drive, split across the antennas
IL_MIX_DB = 6.0
PA_PAE = 0.2
DAC_FOM_FJ = 67.6  # fJ per conversion step
LPF_MW_PER_GHZ = 1.3  # per pole per GHz of cutoff
LPF_ORDER = 1
LPF_FC_GHZ = 0.4

LNA_GAIN_DB = 10.0
LNA_NF_DB = 3.0
LNA_FOM_PER_MW = 6.5
VGA_FOM = 5280.0  # dB*GHz per mW*mm^2
VGA_AREA_MM2 = 0.01
VGA_BW_GHZ = 1.0
VGA_GAIN_RANGE_DB = 82.0
ADC_FOM_FJ = 65.0


@dataclass(frozen=True)
class PowerBudget:
    rffe_mw: float
    gain_stage_mw: float
    converter_mw: float
    total_mw: float = field(init=False)

    def __post_init__(self):
        object.__setattr__(
            self, "total_mw", self.rffe_mw + self.gain_stage_mw + self.converter_mw
        )


def _pa_dbm(kind):
    """Per-PA (drive, output) in dBm.

    The output backs the EIRP off by the full array factor 20*log10(N).
    The baseband drive is split across N branches and loses the mixer;
    analog and hybrid additionally pay the phase-shifter loss.
    """
    p_out = EIRP_DBM - 20.0 * math.log10(N_ANTENNAS)
    p_in = P_BB_DBM - 10.0 * math.log10(N_ANTENNAS) - IL_MIX_DB
    if kind != "digital":
        p_in -= IL_PS_DB
    return p_in, p_out


def _converter_mw(fom_fj, n_streams, n_bits):
    """2 converters (I and Q) per stream, FoM * fs * 2^bits each."""
    per_conv = fom_fj * 1e-15 * CONVERTER_FS_HZ * 2.0 ** n_bits * 1e3
    return 2.0 * n_streams * per_conv


def front_end_budget(kind, n_bits):
    """(tx, rx) budgets of the reference design, in mW.

    kind is "analog", "hybrid" or "digital"; n_bits is the DAC and ADC
    width, an integer in 1..16.  PA draw is (out - in)/PAE on linear
    scale; LNA draw is G_lin / (FoM * (NF_lin - 1)), where the analog and
    hybrid gain also covers the phase-shifter loss; one VGA and one
    filter per stream.
    """
    if not isinstance(kind, str) or kind not in STREAMS:
        raise ValueError(f"kind must be one of {tuple(STREAMS)}, got {kind!r}")
    n_bits = int(quantizer._check_real("n_bits", n_bits, quantizer._FINITE_BITS))
    n = STREAMS[kind]
    p_in, p_out = _pa_dbm(kind)
    p_pa = (10.0 ** (0.1 * p_out) - 10.0 ** (0.1 * p_in)) / PA_PAE
    tx = PowerBudget(
        rffe_mw=N_ANTENNAS * p_pa + n * P_LO_MW,
        gain_stage_mw=n * LPF_MW_PER_GHZ * LPF_ORDER * LPF_FC_GHZ,
        converter_mw=_converter_mw(DAC_FOM_FJ, n, n_bits),
    )
    g_lna_db = LNA_GAIN_DB if kind == "digital" else LNA_GAIN_DB + IL_PS_DB
    p_lna = 10.0 ** (g_lna_db / 10.0) / (LNA_FOM_PER_MW * (10.0 ** (LNA_NF_DB / 10.0) - 1.0))
    rx = PowerBudget(
        rffe_mw=N_ANTENNAS * p_lna + n * P_LO_MW,
        gain_stage_mw=n * (VGA_GAIN_RANGE_DB * VGA_BW_GHZ / (VGA_FOM * VGA_AREA_MM2)),
        converter_mw=_converter_mw(ADC_FOM_FJ, n, n_bits),
    )
    return tx, rx
