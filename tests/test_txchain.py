"""Converter chain checks: filter responses, spectral bookkeeping through
every stage, hold images, and the EVM floor model."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import signal

from lowresbf import ofdm, quantizer, txchain

CHIP = 491.52e6


def make_waveform(n_symbols, used_prbs=275, seed=0, modulation="QPSK"):
    num = ofdm.OfdmNumerology(used_prbs=used_prbs)
    rng = np.random.default_rng(seed)
    grid = ofdm.random_grid(modulation, n_symbols, num.n_subcarriers, rng)
    return ofdm.ofdm_modulate(grid, num), num


def integrated_power(psd):
    f, psd_db = psd
    return float(np.sum(10.0 ** (psd_db / 10.0)) * (f[1] - f[0]))


def test_butterworth_response():
    f = np.array([1e6, 4e8, 4e9])
    assert txchain.LPF_FC_HZ == 4e8
    np.testing.assert_array_equal(txchain.butterworth_response(0, f), np.ones(3))
    for order in (1, 2, 3, 5):
        mag = txchain.butterworth_response(order, 4e8)
        assert 20 * np.log10(mag) == pytest.approx(-3.01, abs=0.01)
    assert 20 * np.log10(txchain.butterworth_response(1, 4e9)) == pytest.approx(-20.04, abs=0.01)
    assert 20 * np.log10(txchain.butterworth_response(3, 8e8)) == pytest.approx(-18.13, abs=0.01)
    with pytest.raises(ValueError):
        txchain.butterworth_response(-1, f)
    with pytest.raises(ValueError):
        txchain.butterworth_response(True, f)


def test_config_validation():
    block = quantizer.ComplexSampleBlock(np.ones(64, dtype=complex), CHIP)
    for order in (-1, True):
        with pytest.raises(ValueError, match="filter order"):
            txchain.apply_reconstruction_lpf(block, order)
        with pytest.raises(ValueError, match="filter order"):
            txchain.measure_evm(4, order)
    with pytest.raises(ValueError):
        txchain.dac_convert(block, 0)
    for bits in (0, math.nan):
        with pytest.raises(ValueError, match="n_bits must be"):
            txchain.measure_evm(bits, 1)


def test_reference_constants_consistent():
    # conditions the chain relies on, fixed by the constants instead of checked per call
    assert ofdm.CHIP_RATE_HZ == ofdm.FFT_SIZE * ofdm.SCS_HZ == CHIP
    assert txchain.DAC_FS_HZ == txchain.INTERP_M * ofdm.CHIP_RATE_HZ == 983.04e6
    # measure_evm's FFT window backs into the prefix by the anti-image filter's half-length
    assert ofdm.CP_LEN * txchain.INTERP_M >= (txchain.INTERP_TAPS - 1) // 2
    assert ofdm.MAX_PRBS * ofdm.SC_PER_PRB <= ofdm.FFT_SIZE
    assert txchain.EVM_NUMEROLOGY.used_prbs == ofdm.MAX_PRBS
    assert txchain.SYMBOL_SAMPLES == (ofdm.FFT_SIZE + ofdm.CP_LEN) * txchain.INTERP_M * txchain.ZOH_OVERSAMPLE
    assert txchain.MIN_NPERSEG == 40
    assert ofdm.OfdmNumerology(used_prbs=274).osr == 4096 / 3288


def test_dc_in_constant_out():
    dc = quantizer.ComplexSampleBlock(np.ones(4096, dtype=complex), CHIP)
    block = txchain.apply_reconstruction_lpf(txchain.dac_convert(dc, math.inf), 0)
    out = block.samples
    assert out.size == 4096 * txchain.INTERP_M * txchain.ZOH_OVERSAMPLE
    assert block.sample_rate == pytest.approx(983.04e6 * 8)
    # residual ripple is the anti-image filter's stopband leakage
    assert np.max(np.abs(out - 1.0)) < 0.01
    with pytest.raises(ValueError):
        txchain.dac_convert(quantizer.ComplexSampleBlock(np.ones(64), 2 * CHIP), math.inf)


def test_tone_images_at_converter_rate():
    # A complex tone at f0 held L samples reappears at f0 +- dac_fs,
    # weighted by the hold's Dirichlet response.
    n_bb = 4096
    k0 = 167  # 167 * (491.52e6 / 4096) = 20.04 MHz, exactly on the bin grid
    t = np.arange(n_bb)
    tone = quantizer.ComplexSampleBlock(np.exp(2j * np.pi * k0 * t / n_bb), CHIP)
    out = txchain.apply_reconstruction_lpf(txchain.dac_convert(tone, math.inf), 0).samples
    spec = np.abs(np.fft.fft(out)) ** 2
    n_an = out.size
    L = txchain.ZOH_OVERSAMPLE
    bins_per_fs = n_an // L  # dac_fs on the analog FFT grid; bin width is 120 kHz

    def dirichlet(k):
        x = math.pi * k / n_an
        return math.sin(x * L) / (L * math.sin(x)) if k else 1.0

    for k_img in (bins_per_fs + k0, n_an - bins_per_fs + k0):
        measured_db = 10 * math.log10(spec[k_img] / spec[k0])
        expected_db = 20 * math.log10(abs(dirichlet(k_img if k_img < n_an // 2 else k_img - n_an)))
        expected_db -= 20 * math.log10(abs(dirichlet(k0)))
        assert measured_db == pytest.approx(expected_db, abs=1.0)
        assert spec[k_img] > 10 * np.median(spec)  # the image is a real peak


def test_zoh_response_is_the_hold_dft():
    # the L-fold hold's DFT on an n-point grid, at every bin, DC and both band edges included;
    # order 0 is the hold alone
    L = txchain.ZOH_OVERSAMPLE
    for n in (L, 9, 63, 64):
        hold = txchain._hold_lpf_response(_signed_bins(n), n, 1.0, 0)
        np.testing.assert_allclose(hold, np.fft.fft(np.ones(L), n), rtol=0, atol=1e-13)


def _signed_bins(n):
    """Signed bin of each n-point FFT output, in np.fft.fftfreq's order."""
    return (np.arange(n) + n // 2) % n - n // 2


def _hold_dft(n):
    """Oracle: the hold's Dirichlet factor at every signed bin of an n-point grid, built by in-place operations."""
    L = txchain.ZOH_OVERSAMPLE
    k = _signed_bins(n).astype(float)
    den = np.sin(np.pi * k / n)
    mag = np.pi * k * L / n
    np.sin(mag, out=mag)
    np.divide(mag, den, out=mag, where=den != 0)
    mag[den == 0] = L  # DC, where the Dirichlet ratio is L in the limit
    r = -1j * np.pi * k
    r *= L - 1
    r /= n
    np.exp(r, out=r)
    np.multiply(mag, r, out=r)
    return r


def _held_then_filtered(u, rate, order):
    """Oracle: the hold as a time-domain repeat, then the filter through an FFT pair at the analog length."""
    z = np.repeat(u, txchain.ZOH_OVERSAMPLE)
    if order == 0:
        return z
    f = np.fft.fftfreq(z.size, d=1.0 / (rate * txchain.ZOH_OVERSAMPLE))
    return np.fft.ifft(np.fft.fft(z) * txchain.butterworth_response(order, f))


# complex noise of n samples at rate, or (modulation set) an n-symbol 275-PRB frame through the 4-bit
# converter at DAC_FS_HZ; filter order; seed
@settings(max_examples=150, deadline=None)
@given(st.none(), st.integers(1, 300), st.sampled_from([1e6, CHIP, txchain.DAC_FS_HZ, 1e10]),
       st.integers(0, 3), st.integers(0, 2**32 - 1))
@example("QPSK", 16, txchain.DAC_FS_HZ, 1, 0)  # tx-psd and aclr-sweep
@example("64QAM", 16, txchain.DAC_FS_HZ, 1, 0)  # evm-sweep
def test_hold_and_filter_match_time_domain_path(modulation, n, rate, order, seed):
    rng = np.random.default_rng(seed)
    if modulation is None:
        block = quantizer.ComplexSampleBlock(rng.standard_normal(n) + 1j * rng.standard_normal(n), rate)
    else:
        _, block = txchain.transmit(4, ofdm.OfdmNumerology(275), modulation, n, rng)
        assert block.samples.size == n * txchain.SYMBOL_SAMPLES // txchain.ZOH_OVERSAMPLE
    out = txchain.apply_reconstruction_lpf(block, order)
    ref = _held_then_filtered(block.samples, block.sample_rate, order)
    assert out.sample_rate == block.sample_rate * txchain.ZOH_OVERSAMPLE
    if order == 0:
        assert np.array_equal(out.samples, ref)
        return
    rms = math.sqrt(np.mean(np.abs(ref) ** 2))
    assert np.max(np.abs(out.samples - ref)) <= 1e-12 * rms
    n_an, L = ref.size, txchain.ZOH_OVERSAMPLE
    cached = txchain._hold_lpf_polyphase(block.samples.size, out.sample_rate, order)
    assert cached.flags.writeable is False
    hold = _hold_dft(n_an)
    np.testing.assert_allclose(hold, np.fft.fft(np.ones(L), n_an), rtol=0, atol=1e-13)
    assert np.array_equal(txchain._hold_lpf_response(_signed_bins(n_an), n_an, out.sample_rate, 0), hold)
    fresh = hold * txchain.butterworth_response(order, np.fft.fftfreq(n_an, d=1.0 / out.sample_rate))
    # the polyphase form: inverse DFT across the L slices of n bins, then the twiddle e^{2πi·r·k/n_an}
    twiddle = np.exp(2j * np.pi * np.arange(L)[:, None] * np.arange(block.samples.size) / n_an)
    assert np.array_equal(cached, np.fft.ifft(fresh.reshape(L, -1), axis=0) * twiddle)


def _stuffed_then_filtered(x):
    """Oracle: the interpolation in the time domain, zero-stuffing INTERP_M-fold, then the anti-image FIR."""
    up = np.zeros(x.size * txchain.INTERP_M, dtype=complex)
    up[::txchain.INTERP_M] = x
    return ofdm.fir_circular(up, txchain._INTERP_FIR)


# complex noise of n samples, or (modulation set) an n-symbol 275-PRB frame; seed
@settings(max_examples=100, deadline=None)
@given(st.none(), st.integers(1, 300), st.integers(0, 2**32 - 1))
@example("QPSK", 16, 0)  # tx-psd and aclr-sweep
def test_interpolation_matches_zero_stuffed_fir(modulation, n, seed):
    # the stuffed stream's spectrum is fft(x) tiled INTERP_M times; the FFT it replaces rounds
    # differently, so the two paths agree within 1e-12 of the RMS, not bit for bit
    rng = np.random.default_rng(seed)
    if modulation is None:
        x = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    else:
        x = ofdm.ofdm_modulate(ofdm.random_grid(modulation, n, 3300, rng), ofdm.OfdmNumerology(275)).samples
    out = txchain.dac_convert(quantizer.ComplexSampleBlock(x, CHIP), math.inf)
    ref = _stuffed_then_filtered(x)
    assert out.sample_rate == txchain.DAC_FS_HZ
    assert np.max(np.abs(out.samples - ref)) <= 1e-12 * math.sqrt(np.mean(np.abs(ref) ** 2))
    # at L = 1 the primitive is the inline FFT pair, bit for bit: the FIR and the link's timing offset
    for r in (ofdm.fir_zero_phase_response(txchain._INTERP_FIR, x.size),
              np.exp(-2j * np.pi * np.fft.fftfreq(x.size) * ofdm.RX_TIMING_OFFSET)):
        assert np.array_equal(ofdm._spectral(x, r), np.fft.ifft(np.fft.fft(x) * r))


def test_fir_response_cached_by_value_and_read_only():
    taps = txchain._INTERP_FIR
    r = ofdm.fir_zero_phase_response(taps, 8192)
    assert r.flags.writeable is False
    assert ofdm.fir_zero_phase_response(taps.copy(), 8192) is r  # keyed by the taps' values, not the object
    d = (taps.size - 1) // 2
    assert np.array_equal(r, np.fft.fft(taps, 8192) * np.exp(2j * np.pi * np.arange(8192) * d / 8192))
    other = ofdm.fir_zero_phase_response(taps * 0.5, 8192)
    assert np.array_equal(other, 0.5 * r)


def test_chain_runs_no_analog_length_transform(monkeypatch):
    # the held signal's spectrum comes from the converter-rate FFT and the converter stream's from the
    # chip-rate FFT, each inverse runs one output phase at a time, and measure_evm demodulates one
    # symbol at a time: no transform in either direction, response builds included, has an analog-length axis
    n_symbols = 2
    n_an = n_symbols * txchain.SYMBOL_SAMPLES
    n_conv = n_an // txchain.ZOH_OVERSAMPLE
    n_chip = n_conv // txchain.INTERP_M
    calls = []

    def spy(name, transform):
        def run(*args, **kwargs):
            out = transform(*args, **kwargs)
            calls.append((name, out.shape))
            return out
        return run

    for name in ("fft", "ifft"):
        monkeypatch.setattr(np.fft, name, spy(name, getattr(np.fft, name)))
    ofdm._fir_response.cache_clear()
    txchain._hold_lpf_polyphase.cache_clear()
    for warm in (False, True):
        calls.clear()
        _, block = txchain.transmit(4, ofdm.OfdmNumerology(275), "QPSK", n_symbols, np.random.default_rng(0))
        if warm:  # dac_convert: one chip-rate FFT, one chip-length inverse per output phase
            assert ("fft", (n_conv,)) not in calls
            assert calls.count(("fft", (n_chip,))) == 1
            assert calls.count(("ifft", (n_chip,))) == txchain.INTERP_M
            calls.clear()
        out = txchain.apply_reconstruction_lpf(block, 1)
        assert out.samples.size == n_an
        if warm:
            assert calls == [("fft", (n_conv,))] + [("ifft", (n_conv,))] * txchain.ZOH_OVERSAMPLE
            calls.clear()
        txchain.measure_evm(4, 1, [1e-5, 0.0], n_symbols)
        if warm:  # one filtered block, and one window FFT per symbol and noise entry
            assert calls.count(("fft", (n_conv,))) == 1
            assert calls.count(("fft", (ofdm.FFT_SIZE * txchain.INTERP_M * txchain.ZOH_OVERSAMPLE,))) == 2 * n_symbols
        assert [c for c in calls if n_an in c[1]] == []


def test_evm_noise_and_filter_memory():
    # the RF noise adds one analog block to measure_evm's peak (its real and imaginary parts), and a
    # warm filter allocates little beyond its output
    block_bytes = 16 * txchain.SYMBOL_SAMPLES * np.dtype(complex).itemsize

    def peak(run):
        run()  # warm the response caches
        tracemalloc.start()
        try:
            run()
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    quiet = peak(lambda: txchain.measure_evm(4, 1, [0.0], 16))
    assert peak(lambda: txchain.measure_evm(4, 1, [1e-5, 0.0], 16)) <= quiet + 1.1 * block_bytes
    _, block = txchain.transmit(4, txchain.EVM_NUMEROLOGY, "64QAM", 16, np.random.default_rng(0))
    # tracemalloc counts numpy's buffers but not pocketfft's C++ plan and scratch, so this bounds the
    # filter's numpy temporaries; test_chain_runs_no_analog_length_transform guards the transform lengths
    assert peak(lambda: txchain.apply_reconstruction_lpf(block, 1)) <= 1.2 * block_bytes


def test_psd_bookkeeping_through_chain():
    block, _ = make_waveform(12)
    converted = txchain.dac_convert(block, 4)
    stages = [block, txchain.apply_reconstruction_lpf(converted, 0), txchain.apply_reconstruction_lpf(converted, 1)]
    for stage in stages:
        psd = txchain.estimate_psd(stage, 4096)
        power = np.mean(np.abs(stage.samples) ** 2)
        assert integrated_power(psd) == pytest.approx(power, rel=0.02)


def test_psd_white_noise_and_tone():
    rng = np.random.default_rng(8)
    x = (rng.standard_normal(65536) + 1j * rng.standard_normal(65536)) * math.sqrt(1.5 / 2)
    psd = txchain.estimate_psd(quantizer.ComplexSampleBlock(x, 1e9), 4096)
    assert integrated_power(psd) == pytest.approx(np.mean(np.abs(x) ** 2), rel=0.02)
    t = np.arange(65536)
    tone = 1.3 * np.exp(2j * np.pi * t * 1000 / 65536)
    psd = txchain.estimate_psd(quantizer.ComplexSampleBlock(tone, 1e9), 4096)
    assert integrated_power(psd) == pytest.approx(1.3**2, rel=0.02)
    lin = 10.0 ** (psd[1] / 10.0)
    assert lin.max() / np.median(lin) > 1e6  # single narrow peak
    with pytest.raises(ValueError):
        txchain.estimate_psd(quantizer.ComplexSampleBlock(x[:1000], 1e9), 4096)


def _scipy_welch(x, fs, nperseg):
    return signal.welch(x, fs=fs, window="hann", nperseg=nperseg, noverlap=nperseg // 2,
                        return_onesided=False, scaling="density")


# nperseg, segment count (63-65 and 128 straddle the FFT chunk edges), ragged tail, seed, DC offset, fs
@settings(max_examples=150, deadline=None)
@given(st.one_of(st.integers(1, 300), st.just(txchain.MIN_NPERSEG)),
       st.one_of(st.integers(1, 200), st.sampled_from([63, 64, 65, 128])),
       st.floats(0, 1, exclude_max=True), st.integers(0, 2**32 - 1),
       st.complex_numbers(max_magnitude=10, allow_nan=False, allow_infinity=False), st.floats(1e-3, 1e11))
@example(txchain.MIN_NPERSEG, 64, 0.5, 0, 0j, txchain.DAC_FS_HZ * txchain.ZOH_OVERSAMPLE)
@example(4096, 547, 0.0, 0, 0j, txchain.DAC_FS_HZ * txchain.ZOH_OVERSAMPLE)  # tx-psd: 16 symbols, 1,122,304 samples
def test_welch_equals_scipy_welch(nperseg, n_seg, tail, seed, dc, fs):
    hop = nperseg - nperseg // 2
    n = nperseg + (n_seg - 1) * hop + int(tail * hop)
    rng = np.random.default_rng(seed)
    x = rng.standard_normal(n) + 1j * rng.standard_normal(n) + dc
    f, p = txchain._welch(x, fs, nperseg)
    f_ref, p_ref = _scipy_welch(x, fs, nperseg)
    assert p.shape == (nperseg,)
    assert np.array_equal(f, f_ref) and np.array_equal(p, p_ref)


def test_estimate_psd_equals_scipy_welch_on_tx_psd_frame():
    # a tx-psd default case: 16 QPSK symbols over 275 PRBs through the 4-bit chain and an order-1
    # filter, nperseg 4096
    _, block = txchain.transmit(4, ofdm.OfdmNumerology(275), "QPSK", 16, np.random.default_rng(0))
    block = txchain.apply_reconstruction_lpf(block, 1)
    assert block.samples.size == 1_122_304
    f, p = _scipy_welch(block.samples, block.sample_rate, 4096)
    order = np.argsort(f)
    freqs, psd_db = txchain.estimate_psd(block, 4096)
    assert np.array_equal(freqs, f[order])
    assert np.array_equal(psd_db, 10.0 * np.log10(np.maximum(p[order], 1e-300)))


@pytest.mark.parametrize("nperseg", [1.5, True, 40.0, 0, -2])
def test_estimate_psd_rejects_non_integer_nperseg(nperseg):
    block = quantizer.ComplexSampleBlock(np.ones(400, dtype=complex), 1e9)
    with pytest.raises(ValueError, match="nperseg"):
        txchain.estimate_psd(block, nperseg)


def test_estimate_psd_accepts_numpy_nperseg():
    rng = np.random.default_rng(3)
    block = quantizer.ComplexSampleBlock(rng.standard_normal(400) + 1j * rng.standard_normal(400), 1e9)
    for a, b in zip(txchain.estimate_psd(block, np.int64(40)), txchain.estimate_psd(block, 40)):
        assert np.array_equal(a, b)


def test_ofdm_psd_occupancy():
    block, num = make_waveform(12)
    f, psd_db = txchain.estimate_psd(block, 4096)
    lin = 10.0 ** (psd_db / 10.0)
    level = np.median(lin[np.abs(f) < 150e6])
    occupied = f[lin > level / 2.0]
    width = occupied.max() - occupied.min()
    assert 392e6 < width < 400e6


def test_inband_quantization_noise():
    a = quantizer.alpha_of(4)
    expected = a * (1 - a) * 396e6 / 983.04e6
    assert txchain.inband_quantization_noise(4, 396e6) == pytest.approx(expected, rel=1e-9)
    with pytest.raises(ValueError):
        txchain.inband_quantization_noise(4, 2e9)


def test_quantization_noise_floor_level():
    # Out-of-band PSD of the quantized OFDM signal: alpha(1-alpha) spread
    # over dac_fs, shaped by the hold and probed away from the images.
    block, _ = make_waveform(12)
    out = txchain.apply_reconstruction_lpf(txchain.dac_convert(block, 4), 0)
    f, psd_db = txchain.estimate_psd(out, 4096)
    a = quantizer.alpha_of(4)
    sel = (np.abs(f) > 250e6) & (np.abs(f) < 420e6)
    zoh = np.sinc(f[sel] / txchain.DAC_FS_HZ) ** 2
    predicted = a * (1 - a) / txchain.DAC_FS_HZ * zoh.mean()
    measured = np.mean(10.0 ** (psd_db[sel] / 10.0))
    assert abs(10 * math.log10(measured / predicted)) < 1.0


def test_aclr_validation():
    block, _ = make_waveform(8)
    psd = txchain.estimate_psd(block, 2048)  # chip-rate span, +-245.76 MHz
    with pytest.raises(ValueError):
        txchain.measure_aclr(psd, 0)
    with pytest.raises(ValueError):
        txchain.measure_aclr(psd, 3)
    flat = (np.linspace(-1e9, 1e9, 2001), np.zeros(2001))
    assert txchain.measure_aclr(flat, 1) == pytest.approx(0.0, abs=0.01)
    for index in (True, 1.0):
        with pytest.raises(ValueError):
            txchain.measure_aclr(flat, index)
    with pytest.raises(ValueError):
        txchain.measure_aclr(psd, 1)  # span does not reach the first adjacent


def test_aclr_needs_two_bins_per_window():
    # 200 MHz bins: the 396 MHz window around the carrier holds only the 0 Hz bin
    coarse = (np.linspace(-2e9, 2e9, 21), np.zeros(21))
    with pytest.raises(ValueError, match="fewer than 2 PSD bins"):
        txchain.measure_aclr(coarse, 1)


def test_aclr_monotone_in_bits_and_order():
    block, _ = make_waveform(8)

    def aclr(bits, order):
        out = txchain.apply_reconstruction_lpf(txchain.dac_convert(block, bits), order)
        return txchain.measure_aclr(txchain.estimate_psd(out, 2048), 1)

    three, four, clean = aclr(3, 0), aclr(4, 0), aclr(math.inf, 0)
    assert three < four < clean
    assert aclr(4, 1) > four


def test_clean_loopback_evm():
    for order in (0, 1, 2, 3):
        evm, = txchain.measure_evm(math.inf, order, n_symbols=4)
        assert evm < 0.1


def test_evm_floor_matches_prediction():
    measured, = txchain.measure_evm(4, 1, sigma_rf_sq=(0.0,), n_symbols=8)
    a = quantizer.alpha_of(4)
    sig_v2 = txchain.inband_quantization_noise(4, 275 * 12 * 120e3)
    predicted = txchain.evm_prediction(a, 0.0, sig_v2)
    assert measured == pytest.approx(predicted, rel=0.10)


def test_evm_monotonicity():
    floors = [
        txchain.measure_evm(b, 1, n_symbols=4)[0]
        for b in (3, 4, 5)
    ]
    assert floors[0] > floors[1] > floors[2]
    quiet, loud = txchain.measure_evm(4, 1, sigma_rf_sq=(1e-4, 1e-2), n_symbols=4)
    assert loud > quiet
    for bad in (-0.1, math.nan, math.inf):
        for noise in ((bad,), (1e-4, bad), (bad, 0.0)):
            with pytest.raises(ValueError, match="noise power"):
                txchain.measure_evm(4, 1, sigma_rf_sq=noise)


def test_evm_noise_sequence_equals_lone_calls():
    # the frame and its unit noise are built once per call; every entry
    # scales the noise a lone call would draw after the grid
    noise = [1e-2, 1e-4, 0.0]
    lone = [txchain.measure_evm(4, 1, (s,), n_symbols=4)[0] for s in noise]
    assert txchain.measure_evm(4, 1, noise, n_symbols=4) == lone


def test_evm_rejects_no_noise_powers():
    for noise in ((), 1e-4, "1", (True,)):
        with pytest.raises(ValueError, match="sigma_rf_sq"):
            txchain.measure_evm(4, 1, noise)


def test_evm_prediction_values():
    assert txchain.evm_prediction(0.0, 0.0, 0.0) == 0.0
    assert txchain.evm_prediction(0.01, 0.0, 0.0) == pytest.approx(1.0)
    with pytest.raises(ValueError):
        txchain.evm_prediction(math.nan, 0.0, 0.0)
