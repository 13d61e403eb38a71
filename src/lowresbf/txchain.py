"""Transmit DAC chain and its spectral compliance measurements.

Models the digital-to-analog path as interpolation, uniform
quantization, a zero-order hold, and an optional reconstruction
filter.  The hold is emulated by repeating each converter sample L
times at an oversampled "analog" rate, which reproduces the sinc
roll-off and the spectral images at multiples of the converter rate.
With a filter, the held signal's spectrum comes from the
converter-rate FFT in closed form, and the inverse runs as
ZOH_OVERSAMPLE converter-length inverse FFTs, one per output phase,
so no transform runs at the analog length.  PSD, adjacent-channel
leakage, and EVM are measured on that emulated analog signal, the EVM
one symbol at a time.

All processing is complex baseband; the carrier frequency only labels
plot axes.  Transmit power is normalized to 0 dBm, so PSD values are
relative; ACLR and EVM are ratios and do not depend on that choice.

The reference chain is fixed by module constants: INTERP_M, INTERP_TAPS,
DAC_FS_HZ, ZOH_OVERSAMPLE and LPF_FC_HZ for the converter, CH_BW_HZ,
MEAS_BW_HZ and N_ADJACENT for the channel raster, and EVM_NUMEROLOGY
and EVM_MODULATION for the fully occupied 64QAM frame measure_evm
runs; SYMBOL_SAMPLES (analog samples per OFDM symbol) and MIN_NPERSEG
(the shortest Welch segment with 2 bins per ACLR window) follow from
them.  transmit is the one chain from grid to converter output, and a
caller sets only its DAC width (n_bits); apply_reconstruction_lpf
holds and filters that output at the order its caller picks.
"""

import functools
import math
import numbers
from collections.abc import Sequence

import numpy as np
import scipy.fft

from . import quantizer
from .quantizer import ComplexSampleBlock
from .ofdm import (CHIP_RATE_HZ, CP_LEN, FFT_SIZE, MAX_PRBS, OfdmNumerology, _cosine_window, _fir_response,
                   _lowpass_fir, _polyphase, _spectral, fir_zero_phase_response, ofdm_modulate, random_grid)

__all__ = [
    "dac_convert",
    "butterworth_response",
    "apply_reconstruction_lpf",
    "transmit",
    "estimate_psd",
    "measure_aclr",
    "measure_evm",
    "evm_prediction",
    "inband_quantization_noise",
]

INTERP_M = 2  # chip rate to DAC rate
INTERP_TAPS = 129  # anti-image FIR length; group delay (taps-1)/2 is compensated
DAC_FS_HZ = INTERP_M * CHIP_RATE_HZ  # 983.04 MHz
ZOH_OVERSAMPLE = 8  # hold length L: emulated analog samples per DAC sample
LPF_FC_HZ = 400e6  # reconstruction-filter cutoff
CH_BW_HZ = 400e6  # carrier raster
MEAS_BW_HZ = 396e6  # measurement window inside each channel
N_ADJACENT = 2  # adjacent channels on each side that ACLR probes
EVM_NUMEROLOGY = OfdmNumerology(used_prbs=MAX_PRBS)
EVM_MODULATION = "64QAM"
SYMBOL_SAMPLES = (FFT_SIZE + CP_LEN) * INTERP_M * ZOH_OVERSAMPLE  # analog samples per symbol, prefix included
# Welch bins lie fs/nperseg apart at the analog rate; 2 must fall in every MEAS_BW_HZ window
MIN_NPERSEG = math.ceil(2 * DAC_FS_HZ * ZOH_OVERSAMPLE / MEAS_BW_HZ)
# anti-image FIR: cut just under the pre-interpolation Nyquist; gain INTERP_M restores amplitude
_INTERP_FIR = _lowpass_fir(INTERP_TAPS, 0.98 * CHIP_RATE_HZ / 2, DAC_FS_HZ) * INTERP_M
_WELCH_CHUNK = 16  # segments per FFT call in _welch


def dac_convert(baseband, n_bits):
    """Interpolate and quantize to n_bits; returns the converter-rate block at DAC_FS_HZ, not yet held.

    The input is trusted to be unit average power at the chip rate (the
    quantizer step is calibrated for that), matching how a converter's
    digital gain stage is set from the long-term signal statistics
    rather than per frame.
    """
    if not math.isclose(baseband.sample_rate, CHIP_RATE_HZ, rel_tol=1e-9):
        raise ValueError("baseband rate must equal DAC_FS_HZ / INTERP_M")
    # zero-stuffed INTERP_M-fold, then the anti-image FIR with its group delay removed
    fir = _fir_response(_INTERP_FIR.tobytes(), _INTERP_FIR.dtype.str, baseband.samples.size, INTERP_M)
    up = _spectral(baseband.samples, fir)
    return quantizer.quantize(ComplexSampleBlock(up, DAC_FS_HZ), n_bits)


def butterworth_response(order, f_hz):
    """Zero-phase Butterworth magnitude at the LPF_FC_HZ cutoff; order 0 means no filter at all."""
    quantizer._check_int("filter order", order, 0)
    f = np.asarray(f_hz, dtype=float)
    if order == 0:
        return np.ones_like(f)
    return 1.0 / np.sqrt(1.0 + np.abs(f / LPF_FC_HZ) ** (2 * order))


def apply_reconstruction_lpf(block, lpf_order):
    """Hold each sample ZOH_OVERSAMPLE times, then apply the order-lpf_order Butterworth magnitude.

    Returns the emulated analog block at ZOH_OVERSAMPLE times the
    block's rate; order 0 is the bare hold.  The DFT of an L-fold hold
    of u is fft(u) tiled L times, weighted by the hold's Dirichlet
    response, so a filtered block costs one converter-rate FFT and L
    converter-length inverse FFTs.
    """
    quantizer._check_int("filter order", lpf_order, 0)
    rate = block.sample_rate * ZOH_OVERSAMPLE
    if lpf_order == 0:
        return ComplexSampleBlock(np.repeat(block.samples, ZOH_OVERSAMPLE), rate)
    response = _hold_lpf_polyphase(block.samples.size, rate, lpf_order)
    return ComplexSampleBlock(_spectral(block.samples, response), rate)


def _hold_lpf_response(k, n, rate, lpf_order):
    """DFT of the ZOH_OVERSAMPLE-fold hold times the order-lpf_order filter at signed bins k of an n-point grid at rate.

    Order 0 is the hold alone.
    """
    L = ZOH_OVERSAMPLE
    k = np.asarray(k, dtype=float)
    den = np.sin(np.pi * k / n)
    # L at DC, where the Dirichlet ratio is L in the limit
    mag = np.divide(np.sin(np.pi * k * L / n), den, out=np.full_like(den, L), where=den != 0)
    hold = mag * np.exp(-1j * np.pi * k * (L - 1) / n)
    return hold * butterworth_response(lpf_order, k * (1.0 / (n * (1.0 / rate))))  # np.fft.fftfreq's product


@functools.lru_cache(maxsize=4)
def _hold_lpf_polyphase(n, rate, lpf_order):
    """Read-only _polyphase form of _hold_lpf_response on the ZOH_OVERSAMPLE·n-point grid at rate, built once."""
    N = ZOH_OVERSAMPLE * n
    g = np.empty((ZOH_OVERSAMPLE, n), dtype=complex)
    for q in range(ZOH_OVERSAMPLE):  # n bins at a time, so the formula's temporaries are converter-length
        g[q] = _hold_lpf_response((np.arange(q * n, (q + 1) * n) + N // 2) % N - N // 2, N, rate, lpf_order)
    return _polyphase(g)


def transmit(n_bits, num, modulation, n_symbols, rng):
    """(grid, converter-rate block): a grid drawn from rng, modulated and converted at n_bits.

    apply_reconstruction_lpf turns the block into the analog signal at
    the caller's filter order, so one conversion serves every order.
    """
    grid = random_grid(modulation, n_symbols, num.n_subcarriers, rng)
    return grid, dac_convert(ofdm_modulate(grid, num), n_bits)


def _welch(x, fs, nperseg):
    """Two-sided Welch PSD of complex x as (freqs, psd) in FFT order: scipy.signal.welch's bytes for its defaults.

    Periodic Hann, nperseg//2 overlap, per-segment mean removed, density
    scaling.  Segments go through the FFT _WELCH_CHUNK at a time, so the
    working set stays a few chunks above the (nperseg, n_seg) power array.
    """
    w = _cosine_window(nperseg, 0.5, sym=False)
    # ShortTimeFFT.fac_psd's sequential builtin sum; np.sum's pairwise order changes the last bits
    w = w * (1 / np.sqrt(sum(w**2) / (1 / fs)))
    segs = np.lib.stride_tricks.sliding_window_view(x, nperseg)[::nperseg - nperseg // 2]
    power = np.empty((nperseg, len(segs)))
    for i in range(0, len(segs), _WELCH_CHUNK):
        seg = segs[i:i + _WELCH_CHUNK]
        spec = scipy.fft.fft((seg - seg.mean(axis=-1, keepdims=True)) * w, axis=-1)
        power[:, i:i + len(seg)] = (spec.real**2 + spec.imag**2).T
    return np.fft.fftfreq(nperseg, 1 / fs), power.mean(axis=-1)


def estimate_psd(block, nperseg):
    """Two-sided Welch PSD (Hann, 50% overlap) as (freqs_hz, psd_db): ascending frequencies, dBm/Hz for 1 mW = 0 dB."""
    quantizer._check_int("nperseg", nperseg, 1)
    if block.samples.size < 4 * nperseg:
        raise ValueError("block must be at least 4 segments long")
    f, p = _welch(block.samples, block.sample_rate, nperseg)
    order = np.argsort(f)
    p = np.maximum(p[order], 1e-300)  # log of true zeros otherwise
    return f[order], 10.0 * np.log10(p)


def _band_power(f, psd_db, center_hz, width_hz):
    lo, hi = center_hz - width_hz / 2, center_hz + width_hz / 2
    if lo < f[0] or hi > f[-1]:
        raise ValueError("PSD span does not cover the requested band")
    m = (f >= lo) & (f <= hi)
    if np.count_nonzero(m) < 2:
        raise ValueError(f"fewer than 2 PSD bins in the {width_hz / 1e6:g} MHz band at {center_hz / 1e6:g} MHz; "
                         "use a longer Welch segment")
    return np.trapezoid(10.0 ** (psd_db[m] / 10.0), f[m])


def measure_aclr(psd, adjacent_index):
    """In-channel to adjacent-channel power ratio in dB of an estimate_psd pair (freqs_hz, psd_db).

    Both powers integrate MEAS_BW_HZ, centered on the carrier and on the
    adjacent carrier at adjacent_index times CH_BW_HZ (negative index
    probes the other side).
    """
    if quantizer._check_int("adjacent_index", adjacent_index, -N_ADJACENT, N_ADJACENT) == 0:
        raise ValueError("adjacent_index must be nonzero")
    p_in = _band_power(*psd, 0.0, MEAS_BW_HZ)
    p_ac = _band_power(*psd, adjacent_index * CH_BW_HZ, MEAS_BW_HZ)
    return 10.0 * math.log10(p_in / p_ac)


def measure_evm(n_bits, lpf_order, sigma_rf_sq=(0.0,), n_symbols=24, seed=0):
    """Error vector magnitude in percent through the full converter chain, one per noise power.

    A fully occupied OFDM frame runs through dac_convert at n_bits, the
    hold and the order-lpf_order reconstruction filter; white noise of per-subcarrier power
    sigma_rf_sq[i] models the remaining RF impairments of entry i.  The
    frame, and the unit noise a lone call draws after it, are built once;
    each entry scales that noise, so entry i equals a call with
    sigma_rf_sq=(sigma_rf_sq[i],).  Demodulation uses the known chain
    response per subcarrier with no per-frame fitting, so the correlated
    part of the quantization error is counted, as the analytic model
    requires.
    """
    quantizer._check_int("filter order", lpf_order, 0)
    quantizer._check_bits(n_bits)
    if isinstance(sigma_rf_sq, str) or not isinstance(sigma_rf_sq, Sequence):
        raise ValueError(f"sigma_rf_sq must be a sequence of noise powers, got {sigma_rf_sq!r}")
    if len(sigma_rf_sq) == 0:
        raise ValueError("sigma_rf_sq must list at least one noise power")
    for s in sigma_rf_sq:
        if isinstance(s, bool) or not isinstance(s, numbers.Real) or not (0 <= s < math.inf):
            raise ValueError(f"sigma_rf_sq: noise power must be nonnegative and finite, got {s!r}")
    num = EVM_NUMEROLOGY
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    grid, block = transmit(n_bits, num, EVM_MODULATION, n_symbols, rng)
    z = apply_reconstruction_lpf(block, lpf_order).samples
    if any(s > 0 for s in sigma_rf_sq):  # the unit noise's real and imaginary parts, in the order they are drawn
        re, im = rng.standard_normal(z.size), rng.standard_normal(z.size)

    L = ZOH_OVERSAMPLE
    n_an = FFT_SIZE * INTERP_M * L
    # back the FFT window into the prefix so the noncausal half of the
    # anti-image filter never reads the next symbol (the prefix is longer
    # than that half); the shift is a known phase ramp folded into the
    # reference below
    guard = (INTERP_TAPS - 1) // 2
    start = (CP_LEN * INTERP_M - guard) * L
    # the infinite-resolution chain's gain per subcarrier: anti-image FIR, hold and filter, over the
    # gains INTERP_M and L that interpolation and the hold add
    k = num.signed_bins
    ref = fir_zero_phase_response(_INTERP_FIR, FFT_SIZE * INTERP_M)[k % (FFT_SIZE * INTERP_M)]
    ref = ref * _hold_lpf_response(k, n_an, DAC_FS_HZ * L, lpf_order) / (INTERP_M * L)
    ref = ref * np.exp(-2j * np.pi * k * (guard * L) / n_an)

    evms = []
    rx = np.empty_like(grid, order="F")  # a frame FFT's spec[:, bins] layout, so np.mean sums in its order
    for s in sigma_rf_sq:
        c = math.sqrt(s * INTERP_M * ZOH_OVERSAMPLE * num.osr / 2.0)  # unit per-subcarrier pickup
        for i in range(n_symbols):  # one symbol's window at a time: no frame-length temporary
            w = slice(i * SYMBOL_SAMPLES + start, i * SYMBOL_SAMPLES + start + n_an)
            x = z[w] + c * (re[w] + 1j * im[w]) if s > 0 else z[w]
            rx[i] = np.fft.fft(x)[k % n_an] * (math.sqrt(num.n_subcarriers) / n_an)
        err = rx / ref[None, :] - grid
        evms.append(100.0 * math.sqrt(np.mean(np.abs(err) ** 2) / np.mean(np.abs(grid) ** 2)))
    return evms


def evm_prediction(alpha, sigma_rf_sq, sigma_v_sq):
    """Analytic EVM percent of a unit-power signal: distortion gain alpha plus noise terms."""
    if not all(0 <= v < math.inf for v in (alpha, sigma_rf_sq, sigma_v_sq)):
        raise ValueError("inputs must be nonnegative and finite")
    return 100.0 * math.sqrt(alpha**2 + (sigma_rf_sq + sigma_v_sq))


def inband_quantization_noise(n_bits, occupied_bw_hz):
    """Per-subcarrier quantization noise power for a unit-power signal.

    The converter noise alpha(1-alpha) spreads uniformly over the
    converter rate DAC_FS_HZ; interpolating by INTERP_M leaves only a
    1/INTERP_M share of it inside any fixed band.
    """
    if not (0 < occupied_bw_hz <= DAC_FS_HZ):
        raise ValueError("occupied bandwidth must fit inside the converter rate")
    a = quantizer.alpha_of(n_bits)
    return a * (1.0 - a) * occupied_bw_hz / DAC_FS_HZ
