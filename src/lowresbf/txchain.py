"""Transmit DAC chain and its spectral compliance measurements.

Models the digital-to-analog path as interpolation, uniform
quantization, a zero-order hold, and an optional reconstruction
filter.  The hold is emulated by repeating each converter sample L
times at an oversampled "analog" rate, which reproduces the sinc
roll-off and the spectral images at multiples of the converter rate.
PSD, adjacent-channel leakage, and EVM are measured on that emulated
analog signal.

All processing is complex baseband; the carrier frequency only labels
plot axes.  Transmit power is normalized to 0 dBm, so PSD values are
relative; ACLR and EVM are ratios and do not depend on that choice.
"""

import math
from dataclasses import dataclass

import numpy as np
from scipy.signal import firwin, welch

from . import quantizer
from .quantizer import ComplexSampleBlock
from .ofdm import OfdmNumerology, fir_circular, fir_zero_phase_response, ofdm_modulate, random_grid

__all__ = [
    "DacChainConfig",
    "ChannelPlan",
    "SpectrumReport",
    "dac_convert",
    "butterworth_response",
    "apply_reconstruction_lpf",
    "estimate_psd",
    "measure_aclr",
    "measure_evm",
    "evm_prediction",
    "inband_quantization_noise",
]

INTERP_TAPS = 129  # anti-image FIR length; group delay (taps-1)/2 is compensated


@dataclass(frozen=True)
class DacChainConfig:
    """Converter chain: interpolate by m, quantize, hold, reconstruct."""

    interp_m: int = 2
    n_bits: float = math.inf
    zoh_oversample: int = 8
    lpf_order: int = 0
    lpf_fc_hz: float = 400e6
    dac_fs_hz: float = 983.04e6

    def __post_init__(self):
        if not (isinstance(self.interp_m, int) and self.interp_m >= 1):
            raise ValueError("interp_m must be an integer >= 1")
        if not (isinstance(self.zoh_oversample, int) and self.zoh_oversample >= 4):
            raise ValueError("zoh_oversample must be an integer >= 4")
        if not (isinstance(self.lpf_order, int) and self.lpf_order >= 0):
            raise ValueError("lpf_order must be a nonnegative integer")
        if self.lpf_fc_hz <= 0 or self.dac_fs_hz <= 0:
            raise ValueError("frequencies must be positive")
        quantizer.make_spec(self.n_bits)  # reject bad bit widths early

    @property
    def chip_rate_hz(self):
        return self.dac_fs_hz / self.interp_m

    @property
    def analog_rate_hz(self):
        return self.dac_fs_hz * self.zoh_oversample


@dataclass(frozen=True)
class ChannelPlan:
    """Carrier raster and the measurement window inside each channel."""

    ch_bw_hz: float = 400e6
    meas_bw_hz: float = 396e6
    n_adjacent: int = 2

    def __post_init__(self):
        if not (0 < self.meas_bw_hz <= self.ch_bw_hz):
            raise ValueError("need 0 < meas_bw <= ch_bw")
        if self.n_adjacent < 2:
            raise ValueError("plan must cover at least two adjacent channels")


@dataclass(frozen=True)
class SpectrumReport:
    freqs_hz: np.ndarray
    psd_dbm_per_hz: np.ndarray

    def __post_init__(self):
        f = np.asarray(self.freqs_hz, dtype=float)
        p = np.asarray(self.psd_dbm_per_hz, dtype=float)
        if f.shape != p.shape or f.ndim != 1:
            raise ValueError("frequency and PSD arrays must match 1-D shapes")
        object.__setattr__(self, "freqs_hz", f)
        object.__setattr__(self, "psd_dbm_per_hz", p)


def _interp_taps(cfg):
    # cut just under the pre-interpolation Nyquist; gain m restores amplitude
    return firwin(INTERP_TAPS, 0.98 * cfg.chip_rate_hz / 2, fs=cfg.dac_fs_hz) * cfg.interp_m


def dac_convert(baseband, cfg):
    """Interpolate, quantize, and hold; returns the emulated analog signal.

    The input is trusted to be unit average power at the chip rate (the
    quantizer step is calibrated for that), matching how a converter's
    digital gain stage is set from the long-term signal statistics
    rather than per frame.
    """
    if not math.isclose(baseband.sample_rate, cfg.chip_rate_hz, rel_tol=1e-9):
        raise ValueError("baseband rate must equal dac_fs / interp_m")
    x = baseband.samples
    if cfg.interp_m > 1:
        up = np.zeros(x.size * cfg.interp_m, dtype=complex)
        up[:: cfg.interp_m] = x
        up = fir_circular(up, _interp_taps(cfg))
    else:
        up = x.astype(complex)
    up = quantizer.quantize(ComplexSampleBlock(up, cfg.dac_fs_hz), quantizer.make_spec(cfg.n_bits)).samples
    z = np.repeat(up, cfg.zoh_oversample)
    return ComplexSampleBlock(z, cfg.analog_rate_hz)


def butterworth_response(order, fc_hz, f_hz):
    """Zero-phase Butterworth magnitude; order 0 means no filter at all."""
    if not (isinstance(order, int) and order >= 0):
        raise ValueError("order must be a nonnegative integer")
    if fc_hz <= 0:
        raise ValueError("cutoff must be positive")
    f = np.asarray(f_hz, dtype=float)
    if order == 0:
        return np.ones_like(f)
    return 1.0 / np.sqrt(1.0 + np.abs(f / fc_hz) ** (2 * order))


def apply_reconstruction_lpf(block, cfg):
    """Apply the configured Butterworth magnitude in the frequency domain."""
    if cfg.lpf_order == 0:
        return block
    f = np.fft.fftfreq(block.samples.size, d=1.0 / block.sample_rate)
    mag = butterworth_response(cfg.lpf_order, cfg.lpf_fc_hz, f)
    y = np.fft.ifft(np.fft.fft(block.samples) * mag)
    return ComplexSampleBlock(y, block.sample_rate)


def estimate_psd(block, nperseg):
    """Two-sided Welch PSD (Hann, 50% overlap), in dBm/Hz for 1 mW = 0 dB."""
    if block.samples.size < 4 * nperseg:
        raise ValueError("block must be at least 4 segments long")
    f, p = welch(
        block.samples,
        fs=block.sample_rate,
        window="hann",
        nperseg=nperseg,
        noverlap=nperseg // 2,
        return_onesided=False,
        scaling="density",
    )
    order = np.argsort(f)
    p = np.maximum(p[order], 1e-300)  # log of true zeros otherwise
    return SpectrumReport(f[order], 10.0 * np.log10(p))


def _band_power(report, center_hz, width_hz):
    f = report.freqs_hz
    lo, hi = center_hz - width_hz / 2, center_hz + width_hz / 2
    if lo < f[0] or hi > f[-1]:
        raise ValueError("PSD span does not cover the requested band")
    m = (f >= lo) & (f <= hi)
    return np.trapezoid(10.0 ** (report.psd_dbm_per_hz[m] / 10.0), f[m])


def measure_aclr(report, plan, adjacent_index):
    """In-channel to adjacent-channel power ratio in dB.

    Both powers integrate the measurement bandwidth, centered on the
    carrier and on the adjacent carrier at adjacent_index times the
    channel spacing (negative index probes the other side).
    """
    if not (isinstance(adjacent_index, int) and 1 <= abs(adjacent_index) <= plan.n_adjacent):
        raise ValueError("adjacent_index must be a nonzero integer within the plan")
    p_in = _band_power(report, 0.0, plan.meas_bw_hz)
    p_ac = _band_power(report, adjacent_index * plan.ch_bw_hz, plan.meas_bw_hz)
    return 10.0 * math.log10(p_in / p_ac)


def _zoh_response(k_signed, n_fft_analog, L):
    # L-fold hold of the converter stream, seen on the analog FFT grid
    k = np.asarray(k_signed, dtype=float)
    num = np.sin(np.pi * k * L / n_fft_analog)
    den = np.sin(np.pi * k / n_fft_analog)
    mag = np.where(k == 0, float(L), np.divide(num, den, out=np.full_like(num, float(L)), where=den != 0))
    return mag * np.exp(-1j * np.pi * k * (L - 1) / n_fft_analog)


def _chain_bin_response(cfg, num, k_signed):
    """Deterministic per-subcarrier gain of the infinite-resolution chain."""
    m, L = cfg.interp_m, cfg.zoh_oversample
    n_dac = num.fft_size * m
    n_an = n_dac * L
    if m > 1:
        h_int = fir_zero_phase_response(_interp_taps(cfg), n_dac)[np.asarray(k_signed) % n_dac]
    else:
        h_int = np.ones(len(k_signed))
    zoh = _zoh_response(k_signed, n_an, L)
    lpf = butterworth_response(cfg.lpf_order, cfg.lpf_fc_hz, np.asarray(k_signed) * num.scs_hz)
    return h_int * zoh * lpf / (m * L)


def _evm_numerology(cfg):
    n_fft = round(cfg.chip_rate_hz / 120e3)
    if abs(n_fft * 120e3 - cfg.chip_rate_hz) > 1e-3:
        raise ValueError("chip rate must be a multiple of the 120 kHz subcarrier spacing")
    return OfdmNumerology(fft_size=n_fft, used_prbs=275)


def measure_evm(cfg, sigma_rf_sq=0.0, modulation="64QAM", n_symbols=24, seed=0):
    """Error vector magnitude in percent through the full converter chain.

    A fully occupied OFDM frame runs through dac_convert and the
    reconstruction filter; white noise of per-subcarrier power
    sigma_rf_sq models the remaining RF impairments.  Demodulation uses
    the known chain response per subcarrier with no per-frame fitting,
    so the correlated part of the quantization error is counted, as the
    analytic model requires.
    """
    if sigma_rf_sq < 0:
        raise ValueError("noise power must be nonnegative")
    num = _evm_numerology(cfg)
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    grid = random_grid(modulation, n_symbols, num.n_subcarriers, rng)
    base = ofdm_modulate(grid, num)
    z = apply_reconstruction_lpf(dac_convert(base, cfg), cfg)
    x = z.samples
    if sigma_rf_sq > 0:
        osr = num.fft_size / num.n_subcarriers
        var = sigma_rf_sq * cfg.interp_m * cfg.zoh_oversample * osr  # unit per-subcarrier pickup
        x = x + math.sqrt(var / 2.0) * (rng.standard_normal(x.size) + 1j * rng.standard_normal(x.size))

    m, L = cfg.interp_m, cfg.zoh_oversample
    n_an = num.fft_size * m * L
    cp_an = num.cp_len * m * L
    # back the FFT window into the prefix so the noncausal half of the
    # anti-image filter never reads the next symbol; the shift is a known
    # phase ramp folded into the reference below
    guard = (INTERP_TAPS - 1) // 2 if m > 1 else 0
    if num.cp_len * m < guard:
        raise ValueError("cyclic prefix shorter than the interpolation filter half-length")
    start = cp_an - guard * L
    sym = x.reshape(n_symbols, n_an + cp_an)[:, start:start + n_an]
    spec = np.fft.fft(sym, axis=1) * (math.sqrt(num.n_subcarriers) / n_an)
    k_signed = np.arange(num.n_subcarriers) - num.n_subcarriers // 2
    rx = spec[:, k_signed % n_an]

    ref = _chain_bin_response(cfg, num, k_signed)
    ref = ref * np.exp(-2j * np.pi * k_signed * (guard * L) / n_an)
    err = rx / ref[None, :] - grid.symbols
    return 100.0 * math.sqrt(np.mean(np.abs(err) ** 2) / np.mean(np.abs(grid.symbols) ** 2))


def evm_prediction(alpha, sigma_rf_sq, sigma_v_sq, sig_power=1.0):
    """Analytic EVM percent: distortion gain alpha plus noise-to-signal terms."""
    if min(alpha, sigma_rf_sq, sigma_v_sq) < 0:
        raise ValueError("inputs must be nonnegative")
    if sig_power <= 0:
        raise ValueError("signal power must be positive")
    return 100.0 * math.sqrt(alpha**2 + (sigma_rf_sq + sigma_v_sq) / sig_power)


def inband_quantization_noise(n_bits, cfg, occupied_bw_hz):
    """Per-subcarrier quantization noise power for a unit-power signal.

    The converter noise alpha(1-alpha) spreads uniformly over the
    converter rate; interpolating by m leaves only a 1/m share of it
    inside any fixed band.
    """
    if not (0 < occupied_bw_hz <= cfg.dac_fs_hz):
        raise ValueError("occupied bandwidth must fit inside the converter rate")
    a = quantizer.alpha_of(n_bits)
    return a * (1.0 - a) * occupied_bw_hz / cfg.dac_fs_hz
