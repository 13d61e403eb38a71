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

The frame is fixed by module constants: FFT_SIZE, SCS_HZ, SC_PER_PRB,
MAX_PRBS, CP_LEN and CHIP_RATE_HZ (the 120 kHz, 4096-point NR profile
at 491.52 MHz).  OfdmNumerology holds only the occupied band.
"""

import functools
import math
from dataclasses import dataclass

import numpy as np

from . import quantizer
from .quantizer import ComplexSampleBlock
from . import sinr as sinr_model

__all__ = [
    "OfdmNumerology",
    "random_grid",
    "ofdm_modulate",
    "ofdm_demodulate",
    "agc_normalize",
    "fir_circular",
    "fir_zero_phase_response",
    "osr_gain_db",
    "run_link_trial",
    "run_sdma_link_trial",
    "predict_link_snr_db",
    "predict_sdma_sinr_db",
]

RX_TIMING_OFFSET = 0.5  # ADC sampling instants, in samples, relative to the DAC grid

FFT_SIZE = 4096
SCS_HZ = 120e3
SC_PER_PRB = 12
MAX_PRBS = 275  # 3300 subcarriers, inside the FFT
CP_LEN = 288
CHIP_RATE_HZ = 491.52e6  # FFT_SIZE * SCS_HZ

# largest |level| in dB a trial, a prediction or a CLI sweep accepts: it
# keeps every 10^(x/10) and every psi*gamma product finite in float64
MAX_ABS_DB = 300.0


@dataclass(frozen=True)
class OfdmNumerology:
    """Occupied band of the reference frame, in PRBs centered on DC."""

    used_prbs: int = 274

    def __post_init__(self):
        quantizer._check_int("used_prbs", self.used_prbs, 1, MAX_PRBS)

    @property
    def n_subcarriers(self):
        return self.used_prbs * SC_PER_PRB

    @property
    def occupied_bw_hz(self):
        return self.n_subcarriers * SCS_HZ

    @property
    def osr(self):
        """Oversampling ratio: FFT bins per occupied subcarrier."""
        return FFT_SIZE / self.n_subcarriers

    @property
    def signed_bins(self):
        """Signed FFT bin of each occupied subcarrier, the band centered on DC."""
        return np.arange(self.n_subcarriers) - self.n_subcarriers // 2


_QAM_AXIS = {"QPSK": 2, "16QAM": 4, "64QAM": 8, "256QAM": 16}


def random_grid(modulation, n_symbols, n_subcarriers, rng):
    """Uniform random points of a unit-average-energy square constellation, one row per OFDM symbol."""
    try:
        L = _QAM_AXIS[modulation]
    except KeyError:
        raise ValueError(f"unsupported modulation {modulation!r}") from None
    quantizer._check_int("n_symbols", n_symbols, 1)
    axis = np.arange(-L + 1, L, 2, dtype=float)
    pts = (axis[:, None] + 1j * axis[None, :]).ravel() / math.sqrt(2.0 * (L * L - 1) / 3.0)
    return pts[rng.integers(0, pts.size, size=(n_symbols, n_subcarriers))]


def ofdm_modulate(grid, num):
    """IFFT per symbol, cyclic prefix and unit average power, at the chip rate.

    The IFFT is scaled by FFT_SIZE/sqrt(n_subcarriers) so a unit-energy
    grid yields unit time-domain power.  grid holds the symbols on the
    occupied subcarriers, one row per OFDM symbol.
    """
    if np.ndim(grid) != 2:
        raise ValueError("grid must be 2-D (symbols x subcarriers)")
    n_sym, n_sc = np.shape(grid)
    if n_sc != num.n_subcarriers:
        raise ValueError("grid width does not match numerology")
    spec = np.zeros((n_sym, FFT_SIZE), dtype=complex)
    spec[:, num.signed_bins % FFT_SIZE] = grid
    x = np.fft.ifft(spec, axis=1) * (FFT_SIZE / math.sqrt(n_sc))
    x = np.concatenate([x[:, -CP_LEN:], x], axis=1)
    return ComplexSampleBlock(x.ravel(), CHIP_RATE_HZ)


def ofdm_demodulate(block, num):
    """Strip prefixes, FFT, and pick the occupied bins."""
    if block.samples.size % (FFT_SIZE + CP_LEN):
        raise ValueError(f"block length {block.samples.size} is not a whole number of "
                         f"{FFT_SIZE + CP_LEN}-sample OFDM symbols")
    x = block.samples.reshape(-1, FFT_SIZE + CP_LEN)[:, CP_LEN:]
    spec = np.fft.fft(x, axis=1) * (math.sqrt(num.n_subcarriers) / FFT_SIZE)
    return spec[:, num.signed_bins % FFT_SIZE]


def agc_normalize(block):
    """Scale to unit empirical complex variance; pure gain, no DC removal."""
    p = np.mean(np.abs(block.samples) ** 2)
    if p == 0:
        raise ValueError("all-zero block has no defined gain")
    return ComplexSampleBlock(block.samples / math.sqrt(p), block.sample_rate)


def osr_gain_db(n_fft, n_sc):
    """Noise-spreading gain of sampling wider than the occupied band."""
    if not (0 < n_sc <= n_fft):
        raise ValueError("need 0 < n_sc <= n_fft")
    return 10.0 * math.log10(n_fft / n_sc)


def _cosine_window(n, a0, sym=True):
    """Two-term cosine window a0 - (1-a0)cos: symmetric (Hamming at 0.54) or periodic (Hann at 0.5).

    Built as scipy.signal.windows.general_hamming builds it, term by term
    from zeros over linspace(-pi, pi), so the values match it bit for bit.
    """
    if n <= 1:
        return np.ones(n)
    m = n if sym else n + 1
    fac = np.linspace(-np.pi, np.pi, m)
    w = np.zeros(m)
    for k, a in enumerate((a0, 1.0 - a0)):
        w += a * np.cos(k * fac)
    return w if sym else w[:-1]


def _lowpass_fir(numtaps, cutoff_hz, fs_hz):
    """Hamming-windowed sinc lowpass of odd length numtaps, unit DC gain: scipy.signal.firwin's taps, bit for bit."""
    c = cutoff_hz / (0.5 * fs_hz)
    m = np.arange(numtaps, dtype=float) - 0.5 * (numtaps - 1)
    h = c * np.sinc(c * m) * _cosine_window(numtaps, 0.54)
    return h / np.sum(h)


def fir_circular(x, h):
    """Odd-length FIR h applied circularly along the last axis of x, group delay removed.

    Circular application preserves the cyclic structure of the signal;
    each row of a 2-D x is filtered on its own, with one response.
    """
    return _spectral(x, fir_zero_phase_response(h, np.shape(x)[-1]))


def _spectral(x, response):
    """Circular filter along the last axis of x, upsampled L-fold: inverse FFT of fft(x) tiled L times, times response.

    fft(x) tiled L times is the spectrum of x zero-stuffed L-fold (or,
    weighted by a hold's response, of x held L times).  response holds
    the L rows of its _polyphase form end to end, flat or (L, n), so L is
    its size over x's length; at L = 1 it is the response itself.  Output
    phase r (samples r, r + L, ...) is the n-point inverse FFT of fft(x)
    times row r, so no transform runs at the stuffed length.  Every
    fixed-response filter of the link and the DAC chain runs through here.
    """
    spec = np.fft.fft(x)
    n = spec.shape[-1]
    L = response.size // n
    out = spec if L == 1 else np.empty((*spec.shape[:-1], L * n), dtype=complex)
    for r, row in enumerate(response.reshape(L, n)):
        phase = np.multiply(spec, row, out=out[..., r::L])
        np.fft.ifft(phase, out=phase)
    return out


def _polyphase(slices):
    """_spectral's read-only (L, n) form of an L·n-point response given as its L slices of n bins, built in place.

    Row r is the inverse DFT across the slices times the twiddle e^{2πi·r·k/(L·n)} at bin k.
    """
    L, n = slices.shape
    np.fft.ifft(slices, axis=0, out=slices)
    for r in range(1, L):
        slices[r] *= np.exp(2j * np.pi * r * np.arange(n) / (L * n))
    slices.flags.writeable = False
    return slices


def fir_zero_phase_response(h, n):
    """Read-only response of odd-length FIR h on an n-point FFT grid, group delay removed.

    The delay (len(h)-1)/2 is taken out by a phase ramp.  Responses are
    cached by the taps' values and n, so each fixed filter of the link
    and the DAC chain is built once per process.
    """
    h = np.asarray(h)
    return _fir_response(h.tobytes(), h.dtype.str, n)


@functools.lru_cache(maxsize=8)
def _fir_response(taps, dtype, n, L=1):
    # the _polyphase form of the response on the L·n-point grid, its rows end to end
    h = np.frombuffer(taps, dtype=dtype)
    d = (len(h) - 1) // 2
    r = np.fft.fft(h, n * L)
    r *= np.exp(2j * np.pi * np.arange(n * L) * d / (n * L))
    return _polyphase(r.reshape(L, n)).ravel()


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


def _check_db(name, value, allow_inf=False):
    v = np.asarray(value, dtype=float)
    if isinstance(value, bool) or not np.all((np.abs(v) <= MAX_ABS_DB) | (allow_inf & (v == math.inf))):
        raise ValueError(f"{name} must be within +-{MAX_ABS_DB:g} dB{' or +inf' if allow_inf else ''}, "
                         f"got {value!r}")


def _run_chain(db, scale, psi, adc_bits, n_dac, num, n_symbols, seed):
    # db sets the noise power sig_pow * scale * 10^(-db/10); psi is the
    # interferer's power relative to the signal, 0 for none.  Everything
    # before the ADC is built once; one post-equalization SINR per width
    # in adc_bits
    quantizer._check_int("n_symbols", n_symbols, 3)  # 2 pilot symbols plus 1 data symbol
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    grid = random_grid("QPSK", n_symbols, num.n_subcarriers, rng)
    x = quantizer.quantize(ofdm_modulate(grid, num), n_dac).samples
    sig_pow = np.mean(np.abs(x) ** 2)

    if psi > 0:
        other = random_grid("QPSK", n_symbols, num.n_subcarriers, rng)
        xi = quantizer.quantize(ofdm_modulate(other, num), n_dac).samples
        x = x + math.sqrt(psi * sig_pow / np.mean(np.abs(xi) ** 2)) * xi

    x = _spectral(x, np.exp(-2j * np.pi * np.fft.fftfreq(x.size) * RX_TIMING_OFFSET))  # circular fractional delay

    nvar = sig_pow * scale * 10.0 ** (-db / 10.0)
    noise = math.sqrt(nvar / 2.0) * (rng.standard_normal(x.size) + 1j * rng.standard_normal(x.size))

    y = ComplexSampleBlock(x + noise, CHIP_RATE_HZ)
    y = agc_normalize(y)
    # band-edge FIR, applied circularly so the equalizer sees cyclic
    # symbols, to every width's row at once; the genie reference is the
    # same filter on the FFT bin grid
    h = _lowpass_fir(129, num.occupied_bw_hz / 2, CHIP_RATE_HZ)
    filtered = fir_circular(np.stack([quantizer.quantize(y, n_adc).samples for n_adc in adc_bits]), h)
    timing = np.exp(-2j * np.pi * num.signed_bins * RX_TIMING_OFFSET / FFT_SIZE)
    ref = fir_zero_phase_response(h, FFT_SIZE)[num.signed_bins % FFT_SIZE] * timing
    return [_equalize(ofdm_demodulate(ComplexSampleBlock(f, CHIP_RATE_HZ), num), grid, ref) for f in filtered]


def run_link_trial(snr_db, n_adc, n_dac, num, n_symbols=24, seed=0):
    """Post-equalization SNR in dB for a noise-only trial.

    snr_db is the full-band input SNR; the transmit side quantizes to
    n_dac bits and the receive side to n_adc bits.
    """
    _check_db("snr_db", snr_db)
    return _run_chain(snr_db, 1.0, 0.0, (n_adc,), n_dac, num, n_symbols, seed)[0]


def run_sdma_link_trial(sir_db, gamma0_db, adc_bits, num, n_symbols=24, seed=0):
    """Post-equalization SINR in dB with an in-band interfering stream, one per ADC width.

    The interferer is an independent grid of the same numerology at
    relative power 10^(-sir_db/10); sir_db = inf removes it.  gamma0_db
    sets the per-subcarrier SNR floor: the full-band noise is stronger
    by the oversampling ratio.  The transmit side is unquantized, so
    only the receive quantizer distorts, and every width in adc_bits
    sees the same signal, interferer and noise: entry i equals a call
    with adc_bits=(adc_bits[i],).
    """
    _check_db("sir_db", sir_db, allow_inf=True)
    _check_db("gamma0_db", gamma0_db)
    if len(adc_bits) == 0:
        raise ValueError("adc_bits must list at least one width")
    return _run_chain(gamma0_db, num.osr, 10.0 ** (-sir_db / 10.0), adc_bits, math.inf, num, n_symbols, seed)


def predict_link_snr_db(snr_db, n_adc, num):
    """Closed-form post-equalization SNR for the noise-only chain.

    The oversampling ratio enters twice: the occupied band sees only
    1/OSR of the full-band noise, and the same factor dilutes the
    quantizer distortion.
    """
    _check_db("snr_db", snr_db)
    gamma = 10.0 ** (np.asarray(snr_db, dtype=float) / 10.0) * num.osr
    q = sinr_model.sinr_quantized(gamma, num.osr, 0.0, quantizer.alpha_of(n_adc))
    return 10.0 * np.log10(q)


def predict_sdma_sinr_db(sir_db, gamma0_db, n_adc, num):
    """Closed-form post-equalization SINR for the interference trial; sir_db = inf is no interferer."""
    _check_db("sir_db", sir_db, allow_inf=True)
    _check_db("gamma0_db", gamma0_db)
    psi = 10.0 ** (-np.asarray(sir_db, dtype=float) / 10.0)
    q = sinr_model.sinr_quantized(10.0 ** (gamma0_db / 10.0), num.osr, psi, quantizer.alpha_of(n_adc))
    return 10.0 * np.log10(q)
