"""Link-level OFDM validation of the quantization noise model.

A trial modulates a known grid, optionally quantizes at the transmit
side, adds noise (and an interfering stream for spatially multiplexed
trials), then runs the receive pipeline: AGC, ADC quantization, FIR
band-edge filtering, demodulation, and genie per-subcarrier
equalization.  Post-equalization SNR/SINR is compared against the
closed-form predictions from the sinr module.

The DAC and ADC sampling instants are offset by half a sample: with
both converters on the same grid the second quantizer would see
already-quantized levels and distort nothing.  The offset is the
generic case for independent converter clocks and is compensated in
the equalizer reference, so it costs nothing at infinite resolution.
"""

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.signal import firwin

from . import quantizer
from .quantizer import ComplexSampleBlock
from . import sinr as sinr_model

__all__ = [
    "OfdmNumerology",
    "ResourceGrid",
    "LinkTrialConfig",
    "constellation",
    "random_grid",
    "ofdm_modulate",
    "ofdm_demodulate",
    "agc_normalize",
    "fir_lowpass",
    "fir_circular",
    "fir_zero_phase_response",
    "osr_gain_db",
    "run_link_trial",
    "run_sdma_link_trial",
    "predict_link_snr_db",
    "predict_sdma_sinr_db",
]

RX_TIMING_OFFSET = 0.5  # ADC sampling instants, in samples, relative to the DAC grid


@dataclass(frozen=True)
class OfdmNumerology:
    """Wideband OFDM profile: 4096-point FFT at 120 kHz spacing by default."""

    fft_size: int = 4096
    scs_hz: float = 120e3
    sc_per_prb: int = 12
    max_prbs: int = 275
    used_prbs: int = 274
    cp_fraction: float = 288 / 4096

    def __post_init__(self):
        if not (0 < self.used_prbs <= self.max_prbs):
            raise ValueError("used_prbs out of range")
        if self.n_subcarriers > self.fft_size:
            raise ValueError("occupied band exceeds FFT size")
        if not (0 <= self.cp_fraction < 1):
            raise ValueError("cp_fraction out of range")

    @property
    def n_subcarriers(self):
        return self.used_prbs * self.sc_per_prb

    @property
    def chip_rate_hz(self):
        return self.fft_size * self.scs_hz

    @property
    def cp_len(self):
        return round(self.cp_fraction * self.fft_size)

    @property
    def symbol_len(self):
        return self.fft_size + self.cp_len

    @property
    def occupied_bw_hz(self):
        return self.n_subcarriers * self.scs_hz


@dataclass(frozen=True)
class ResourceGrid:
    """Modulation symbols on the occupied subcarriers, one row per OFDM symbol."""

    symbols: np.ndarray
    modulation: str = "QPSK"

    def __post_init__(self):
        object.__setattr__(self, "symbols", np.asarray(self.symbols, dtype=complex))
        if self.symbols.ndim != 2:
            raise ValueError("grid must be 2-D (symbols x subcarriers)")


@dataclass(frozen=True)
class LinkTrialConfig:
    snr_db: float
    n_adc: float
    n_dac: float
    numerology: OfdmNumerology = field(default_factory=OfdmNumerology)
    n_symbols: int = 24
    seed: int = 0
    sir_db: float = None
    gamma0_db: float = None

    def __post_init__(self):
        if self.n_symbols < 3:
            raise ValueError("need at least 2 pilot symbols plus 1 data symbol")


_QAM_AXIS = {"QPSK": 2, "16QAM": 4, "64QAM": 8, "256QAM": 16}


def constellation(modulation):
    """Unit-average-energy square constellation points."""
    try:
        L = _QAM_AXIS[modulation]
    except KeyError:
        raise ValueError(f"unsupported modulation {modulation!r}") from None
    axis = np.arange(-L + 1, L, 2, dtype=float)
    pts = (axis[:, None] + 1j * axis[None, :]).ravel()
    return pts / math.sqrt(2.0 * (L * L - 1) / 3.0)


def random_grid(modulation, n_symbols, n_subcarriers, rng):
    """Uniform random symbols from the constellation."""
    pts = constellation(modulation)
    idx = rng.integers(0, pts.size, size=(n_symbols, n_subcarriers))
    return ResourceGrid(pts[idx], modulation)


def _bin_map(num):
    # occupied band centered on DC, wrapped onto the FFT grid
    n_sc = num.n_subcarriers
    return (np.arange(n_sc) - n_sc // 2) % num.fft_size


def ofdm_modulate(grid, num, n_dac=math.inf):
    """IFFT per symbol, cyclic prefix, unit average power, then DAC quantization.

    The IFFT is scaled by fft_size/sqrt(n_subcarriers) so a unit-energy
    grid yields unit time-domain power.
    """
    n_sym, n_sc = grid.symbols.shape
    if n_sc != num.n_subcarriers:
        raise ValueError("grid width does not match numerology")
    spec = np.zeros((n_sym, num.fft_size), dtype=complex)
    spec[:, _bin_map(num)] = grid.symbols
    x = np.fft.ifft(spec, axis=1) * (num.fft_size / math.sqrt(n_sc))
    x = np.concatenate([x[:, -num.cp_len:], x], axis=1)
    return quantizer.quantize(ComplexSampleBlock(x.ravel(), num.chip_rate_hz), quantizer.make_spec(n_dac))


def ofdm_demodulate(block, num, n_symbols):
    """Strip prefixes, FFT, and pick the occupied bins."""
    x = block.samples.reshape(n_symbols, num.symbol_len)[:, num.cp_len:]
    spec = np.fft.fft(x, axis=1) * (math.sqrt(num.n_subcarriers) / num.fft_size)
    return spec[:, _bin_map(num)]


def agc_normalize(block):
    """Scale to unit empirical complex variance; pure gain, no DC removal."""
    p = np.mean(np.abs(block.samples) ** 2)
    if p == 0:
        raise ValueError("all-zero block has no defined gain")
    return ComplexSampleBlock(block.samples / math.sqrt(p), block.sample_rate)


def fir_lowpass(block, cutoff_hz, taps=129):
    """Linear-phase windowed-sinc lowpass, group delay compensated."""
    fs = block.sample_rate
    if not (0 < cutoff_hz < fs / 2):
        raise ValueError("cutoff must sit inside (0, fs/2)")
    h = firwin(taps, cutoff_hz, fs=fs)
    y = np.convolve(block.samples, h, mode="full")
    d = (taps - 1) // 2
    return ComplexSampleBlock(y[d:d + block.samples.size], fs)


def osr_gain_db(n_fft, n_sc):
    """Noise-spreading gain of sampling wider than the occupied band."""
    if not (0 < n_sc <= n_fft):
        raise ValueError("need 0 < n_sc <= n_fft")
    return 10.0 * math.log10(n_fft / n_sc)


def _frac_delay(x, tau):
    # circular fractional delay by tau samples via a spectral phase ramp
    ramp = np.exp(-2j * np.pi * np.fft.fftfreq(x.size) * tau)
    return np.fft.ifft(np.fft.fft(x) * ramp)


def fir_circular(x, h):
    """Odd-length FIR h applied circularly to x, group delay removed.

    Circular application preserves the cyclic structure of the signal.
    """
    return np.fft.ifft(np.fft.fft(x) * fir_zero_phase_response(h, x.size))


def fir_zero_phase_response(h, n):
    """Response of odd-length FIR h on an n-point FFT grid, group delay removed.

    The delay (len(h)-1)/2 is taken out by a phase ramp.
    """
    d = (len(h) - 1) // 2
    return np.fft.fft(h, n) * np.exp(2j * np.pi * np.arange(n) * d / n)


def _equalize(rx_grid, tx_grid, ref):
    """Genie per-bin reference plus a scalar fit on the first two symbols.

    The scalar absorbs the common AGC gain and the correlated part of
    the quantizer response; the per-bin reference covers the FIR and
    the sampling-time offset.
    """
    pilots = tx_grid[:2] * ref[None, :]
    c = np.vdot(pilots, rx_grid[:2]) / np.vdot(pilots, pilots)
    z = rx_grid[2:] / (c * ref[None, :])
    err = z - tx_grid[2:]
    return 10.0 * math.log10(1.0 / np.mean(np.abs(err) ** 2))


def _run_chain(cfg, interferer_psi):
    num = cfg.numerology
    rng = np.random.default_rng(np.random.SeedSequence(cfg.seed))
    grid = random_grid("QPSK", cfg.n_symbols, num.n_subcarriers, rng)
    x = ofdm_modulate(grid, num, cfg.n_dac).samples
    sig_pow = np.mean(np.abs(x) ** 2)

    if interferer_psi > 0:
        other = random_grid("QPSK", cfg.n_symbols, num.n_subcarriers, rng)
        xi = ofdm_modulate(other, num, cfg.n_dac).samples
        x = x + math.sqrt(interferer_psi * sig_pow / np.mean(np.abs(xi) ** 2)) * xi

    x = _frac_delay(x, RX_TIMING_OFFSET)

    if cfg.gamma0_db is not None:
        # per-bin SNR target: full-band noise is stronger by the oversampling ratio
        osr = num.fft_size / num.n_subcarriers
        nvar = sig_pow * osr * 10.0 ** (-cfg.gamma0_db / 10.0)
    else:
        nvar = sig_pow * 10.0 ** (-cfg.snr_db / 10.0)
    noise = math.sqrt(nvar / 2.0) * (rng.standard_normal(x.size) + 1j * rng.standard_normal(x.size))

    y = ComplexSampleBlock(x + noise, num.chip_rate_hz)
    y = agc_normalize(y)
    y = quantizer.quantize(y, quantizer.make_spec(cfg.n_adc))
    # band-edge FIR, applied circularly so the equalizer sees cyclic
    # symbols; the genie reference is the same filter on the FFT bin grid
    h = firwin(129, num.occupied_bw_hz / 2, fs=num.chip_rate_hz)
    filtered = fir_circular(y.samples, h)
    rx = ofdm_demodulate(ComplexSampleBlock(filtered, num.chip_rate_hz), num, cfg.n_symbols)

    k_signed = np.arange(num.n_subcarriers) - num.n_subcarriers // 2
    timing = np.exp(-2j * np.pi * k_signed * RX_TIMING_OFFSET / num.fft_size)
    ref = fir_zero_phase_response(h, num.fft_size)[_bin_map(num)] * timing
    return _equalize(rx, grid.symbols, ref)


def run_link_trial(cfg):
    """Post-equalization SNR in dB for a noise-only trial."""
    return _run_chain(cfg, 0.0)


def run_sdma_link_trial(cfg):
    """Post-equalization SINR with an in-band interfering stream.

    The interferer is an independent grid of the same numerology at
    relative power 10^(-sir_db/10), passed through the same transmit
    quantizer.  gamma0_db sets the per-subcarrier SNR floor.
    """
    if cfg.gamma0_db is None:
        raise ValueError("sdma trial needs gamma0_db")
    psi = 0.0 if cfg.sir_db is None else 10.0 ** (-cfg.sir_db / 10.0)
    return _run_chain(cfg, psi)


def predict_link_snr_db(snr_db, n_adc, num):
    """Closed-form post-equalization SNR for the noise-only chain.

    The oversampling ratio enters twice: the occupied band sees only
    1/OSR of the full-band noise, and the same factor dilutes the
    quantizer distortion.
    """
    osr = num.fft_size / num.n_subcarriers
    gamma = 10.0 ** (np.asarray(snr_db, dtype=float) / 10.0) * osr
    alpha = quantizer.alpha_of(n_adc)
    q = sinr_model.sinr_orthogonal_quantized(gamma, alpha, osr)
    return 10.0 * np.log10(q)


def predict_sdma_sinr_db(sir_db, gamma0_db, n_adc, num):
    """Closed-form post-equalization SINR for the interference trial."""
    osr = num.fft_size / num.n_subcarriers
    psi = 0.0 if sir_db is None else 10.0 ** (-np.asarray(sir_db, dtype=float) / 10.0)
    q = sinr_model.LinkQuality(10.0 ** (gamma0_db / 10.0), osr, psi)
    return 10.0 * np.log10(sinr_model.sinr_sdma_quantized(q, quantizer.alpha_of(n_adc)))
