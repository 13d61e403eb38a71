"""OFDM link-level chain checks: exact inverses, calibrated gains, and
agreement of a few simulated operating points with the closed-form model."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import signal

from lowresbf import ofdm, quantizer, txchain

NUM = ofdm.OfdmNumerology()


def test_numerology_defaults():
    assert ofdm.CHIP_RATE_HZ == pytest.approx(491.52e6)
    assert NUM.n_subcarriers == 3288
    assert ofdm.CP_LEN == 288
    assert NUM.occupied_bw_hz == pytest.approx(3288 * 120e3)
    with pytest.raises(ValueError):
        ofdm.OfdmNumerology(used_prbs=276)
    with pytest.raises(ValueError):
        ofdm.OfdmNumerology(used_prbs=0)
    with pytest.raises(ValueError, match="used_prbs"):
        ofdm.OfdmNumerology(used_prbs=2.5)
    with pytest.raises(ValueError, match="used_prbs"):
        ofdm.OfdmNumerology(used_prbs=True)


def test_modulate_demodulate_round_trip():
    rng = np.random.default_rng(0)
    grid = ofdm.random_grid("QPSK", 4, NUM.n_subcarriers, rng)
    block = ofdm.ofdm_modulate(grid, NUM)
    rx = ofdm.ofdm_demodulate(block, NUM)
    np.testing.assert_allclose(rx, grid, atol=1e-9)
    with pytest.raises(ValueError, match="whole number"):
        ofdm.ofdm_demodulate(quantizer.ComplexSampleBlock(block.samples[:-1], block.sample_rate), NUM)


def test_modulate_unit_power():
    rng = np.random.default_rng(1)
    grid = ofdm.random_grid("64QAM", 6, NUM.n_subcarriers, rng)
    block = ofdm.ofdm_modulate(grid, NUM)
    assert np.mean(np.abs(block.samples) ** 2) == pytest.approx(1.0, rel=0.01)


def test_modulate_single_subcarrier_is_tone():
    symbols = np.zeros((1, NUM.n_subcarriers), dtype=complex)
    symbols[0, 100] = 1.0
    block = ofdm.ofdm_modulate(symbols, NUM)
    body = block.samples[ofdm.CP_LEN:]  # FFT window without the prefix
    spec = np.abs(np.fft.fft(body)) ** 2
    assert spec.max() / spec.sum() > 0.999


def test_modulate_quantization_error_power():
    # AQNM noise energy of the transmit quantizer on the near-Gaussian
    # OFDM waveform: |Q(x) - (1-alpha)x|^2 ~ alpha(1-alpha)|x|^2.
    rng = np.random.default_rng(2)
    grid = ofdm.random_grid("QPSK", 8, NUM.n_subcarriers, rng)
    clean = ofdm.ofdm_modulate(grid, NUM).samples
    quantized = quantizer.quantize(ofdm.ofdm_modulate(grid, NUM), 4).samples
    alpha = quantizer.alpha_of(4)
    v = quantized - (1.0 - alpha) * clean
    ratio = np.mean(np.abs(v) ** 2) / np.mean(np.abs(clean) ** 2)
    assert ratio == pytest.approx(alpha * (1.0 - alpha), rel=0.10)


def test_modulate_dimension_mismatch():
    rng = np.random.default_rng(3)
    grid = ofdm.random_grid("QPSK", 2, 1200, rng)
    with pytest.raises(ValueError, match="width"):
        ofdm.ofdm_modulate(grid, NUM)
    with pytest.raises(ValueError, match="2-D"):
        ofdm.ofdm_modulate(np.ones(NUM.n_subcarriers), NUM)


def test_agc_normalize():
    rng = np.random.default_rng(4)
    y = rng.standard_normal(4096) + 1j * rng.standard_normal(4096)
    y = 2.0 * y / math.sqrt(np.mean(np.abs(y) ** 2))  # empirical power exactly 4
    out = ofdm.agc_normalize(quantizer.ComplexSampleBlock(y, 1.0))
    assert np.mean(np.abs(out.samples) ** 2) == pytest.approx(1.0, abs=1e-9)
    np.testing.assert_allclose(out.samples, y / 2.0, rtol=1e-9)
    again = ofdm.agc_normalize(out)
    np.testing.assert_allclose(again.samples, out.samples, rtol=1e-9)
    with pytest.raises(ValueError):
        ofdm.agc_normalize(quantizer.ComplexSampleBlock(np.zeros(8, dtype=complex), 1.0))


def test_fir_lowpass_response():
    fs = 100.0
    h = signal.firwin(129, 20.0, fs=fs)
    t = np.arange(8192) / fs
    mid = slice(1000, 7000)  # away from the wrap of the non-periodic tones
    out = ofdm.fir_circular(np.exp(2j * np.pi * 5.0 * t), h)
    gain_db = 20 * np.log10(np.abs(out[mid]).mean())
    assert abs(gain_db) < 0.1
    out = ofdm.fir_circular(np.exp(2j * np.pi * 30.0 * t), h)
    atten_db = -20 * np.log10(np.abs(out[mid]).mean() + 1e-300)
    assert atten_db >= 40.0


# (numtaps, cutoff_hz, fs_hz): odd lengths, cutoffs strictly inside (0, fs/2)
_FIR_ARGS = st.tuples(st.integers(0, 200).map(lambda k: 2 * k + 1), st.floats(1e-6, 1 - 1e-6),
                      st.floats(1e-3, 1e11)).map(lambda t: (t[0], t[1] * t[2] / 2, t[2]))


@settings(max_examples=200, deadline=None)
@given(_FIR_ARGS)
@example((txchain.INTERP_TAPS, 0.98 * ofdm.CHIP_RATE_HZ / 2, txchain.DAC_FS_HZ))  # txchain._INTERP_FIR
@example((129, ofdm.OfdmNumerology(274).occupied_bw_hz / 2, ofdm.CHIP_RATE_HZ))  # the link's band-edge FIR
@example((129, ofdm.OfdmNumerology(275).occupied_bw_hz / 2, ofdm.CHIP_RATE_HZ))
@example((129, ofdm.OfdmNumerology(1).occupied_bw_hz / 2, ofdm.CHIP_RATE_HZ))
def test_lowpass_fir_equals_scipy_firwin(args):
    numtaps, cutoff, fs = args
    assert np.array_equal(ofdm._lowpass_fir(numtaps, cutoff, fs), signal.firwin(numtaps, cutoff, fs=fs))


def test_fir_lowpass_band_limits_white_noise():
    fs = 100.0
    rng = np.random.default_rng(5)
    x = (rng.standard_normal(65536) + 1j * rng.standard_normal(65536)) / math.sqrt(2)
    out = ofdm.fir_circular(x, signal.firwin(129, 20.0, fs=fs))
    f, psd = signal.welch(out, fs=fs, nperseg=4096, return_onesided=False)
    inband = psd[np.abs(f) < 15.0].mean()
    outband = psd[np.abs(f) > 35.0].mean()
    assert 10 * math.log10(inband / outband) >= 40.0


def test_osr_gain():
    num_200 = ofdm.OfdmNumerology(used_prbs=200)
    assert (NUM.n_subcarriers, num_200.n_subcarriers) == (3288, 2400)
    assert NUM.osr == ofdm.FFT_SIZE / 3288
    assert 10 * math.log10(NUM.osr) == pytest.approx(0.95, abs=0.01)
    assert 10 * math.log10(num_200.osr) == pytest.approx(2.32, abs=0.01)


def test_trial_reproducibility():
    first = ofdm.run_link_trial(5.0, 3, 5, NUM, n_symbols=6, seed=42)
    assert first == ofdm.run_link_trial(5.0, 3, 5, NUM, n_symbols=6, seed=42)
    assert first != ofdm.run_link_trial(5.0, 3, 5, NUM, n_symbols=6, seed=43)


NUM_10 = ofdm.OfdmNumerology(used_prbs=10)
LINK, SDMA = ofdm.run_link_trial, ofdm.run_sdma_link_trial


@pytest.mark.parametrize("fn,args,name", [
    pytest.param(LINK, (0.0, 4, 4, NUM_10, 2), "n_symbols", id="link-n_symbols-2"),
    pytest.param(LINK, (10.0, 4, 6, NUM_10, 3.5), "n_symbols", id="link-n_symbols-3.5"),
    pytest.param(LINK, (10.0, 4, 6, NUM_10, True), "n_symbols", id="link-n_symbols-True"),
    pytest.param(SDMA, (20.0, 0.0, (3,), NUM_10, 2), "n_symbols", id="sdma-n_symbols-2"),
    pytest.param(LINK, (math.nan, 4, 6, NUM_10, 3), "snr_db", id="link-snr_db-nan"),
    pytest.param(LINK, (math.inf, 4, 6, NUM_10, 3), "snr_db", id="link-snr_db-inf"),
    pytest.param(SDMA, (20.0, math.nan, (3,), NUM_10, 3), "gamma0_db", id="sdma-gamma0_db-nan"),
    pytest.param(SDMA, (20.0, -math.inf, (3,), NUM_10, 3), "gamma0_db", id="sdma-gamma0_db--inf"),
    pytest.param(SDMA, (math.nan, 0.0, (3,), NUM_10, 3), "sir_db", id="sdma-sir_db-nan"),
    pytest.param(SDMA, (-math.inf, 0.0, (3,), NUM_10, 3), "sir_db", id="sdma-sir_db--inf"),
    pytest.param(SDMA, (True, 0.0, (3,), NUM_10, 3), "sir_db", id="sdma-sir_db-True"),
    pytest.param(LINK, (-4000.0, 4, 6, NUM_10, 3), "snr_db", id="link-snr_db--4000"),
    pytest.param(LINK, (4000.0, 4, 6, NUM_10, 3), "snr_db", id="link-snr_db-4000"),
    pytest.param(SDMA, (20.0, -4000.0, (3,), NUM_10, 3), "gamma0_db", id="sdma-gamma0_db--4000"),
    pytest.param(SDMA, (20.0, 4000.0, (3,), NUM_10, 3), "gamma0_db", id="sdma-gamma0_db-4000"),
    pytest.param(SDMA, (-4000.0, 0.0, (3,), NUM_10, 3), "sir_db", id="sdma-sir_db--4000"),
    pytest.param(SDMA, (4000.0, 0.0, (3,), NUM_10, 3), "sir_db", id="sdma-sir_db-4000"),
    pytest.param(ofdm.predict_link_snr_db, (math.nan, 4, NUM_10), "snr_db", id="predict-snr_db-nan"),
    pytest.param(ofdm.predict_link_snr_db, (math.inf, 4, NUM_10), "snr_db", id="predict-snr_db-inf"),
    pytest.param(ofdm.predict_link_snr_db, (-4000.0, 4, NUM_10), "snr_db", id="predict-snr_db--4000"),
    pytest.param(ofdm.predict_link_snr_db, (4000.0, 4, NUM_10), "snr_db", id="predict-snr_db-4000"),
    pytest.param(ofdm.predict_sdma_sinr_db, (20.0, math.nan, 3, NUM_10), "gamma0_db",
                 id="predict-gamma0_db-nan"),
    pytest.param(ofdm.predict_sdma_sinr_db, (20.0, math.inf, 3, NUM_10), "gamma0_db",
                 id="predict-gamma0_db-inf"),
    pytest.param(ofdm.predict_sdma_sinr_db, (20.0, -4000.0, 3, NUM_10), "gamma0_db",
                 id="predict-gamma0_db--4000"),
    pytest.param(ofdm.predict_sdma_sinr_db, (20.0, 4000.0, 3, NUM_10), "gamma0_db",
                 id="predict-gamma0_db-4000"),
    pytest.param(ofdm.predict_sdma_sinr_db, (-4000.0, 0.0, 3, NUM_10), "sir_db", id="predict-sir_db--4000"),
    pytest.param(ofdm.predict_sdma_sinr_db, (4000.0, 0.0, 3, NUM_10), "sir_db", id="predict-sir_db-4000"),
    # a string and a list passed the old dB check, then failed in the arithmetic, or (predictions) ran
    pytest.param(LINK, ("10", 4, 6, NUM_10, 3), "snr_db", id="link-snr_db-str"),
    pytest.param(LINK, ([10.0, 5.0], 4, 6, NUM_10, 3), "snr_db", id="link-snr_db-list"),
    pytest.param(ofdm.predict_link_snr_db, ("10", 4, NUM_10), "snr_db", id="predict-snr_db-str"),
    pytest.param(ofdm.predict_link_snr_db, ([10.0, 5.0], 4, NUM_10), "snr_db", id="predict-snr_db-list"),
    # a bare width failed on len(); a zero width failed after the frame was drawn, naming n_bits
    pytest.param(SDMA, (20.0, 0.0, 3, NUM_10, 3), "adc_bits", id="sdma-adc_bits-int"),
    pytest.param(LINK, (10.0, 4, 0, NUM_10, 3), "n_dac", id="link-n_dac-0"),
    pytest.param(LINK, (10.0, 0, 4, NUM_10, 3), "n_adc", id="link-n_adc-0"),
])
def test_trial_bad_input_rejected_by_name(fn, args, name):
    with pytest.raises(ValueError, match=name):
        fn(*args)


def test_infinite_resolution_gains_osr():
    measured = ofdm.run_link_trial(10.0, math.inf, math.inf, NUM, n_symbols=8, seed=0)
    assert measured == pytest.approx(10.0 + 10 * math.log10(NUM.osr), abs=0.3)


def test_predicted_curve_matches_one_operating_point():
    measured = ofdm.run_link_trial(10.0, 4, 6, NUM, n_symbols=10, seed=3)
    predicted = ofdm.predict_link_snr_db(10.0, 4, NUM)
    assert abs(measured - predicted) <= 0.5


def test_prediction_identity_at_infinite_resolution():
    pred = ofdm.predict_link_snr_db(7.0, math.inf, NUM)
    assert pred == pytest.approx(7.0 + 10 * math.log10(NUM.osr), abs=1e-9)


def test_sdma_trial_reduces_to_link_trial():
    # sir_db=inf removes the interferer; gamma0 sets the same full-band
    # noise power that snr_db = gamma0 - OSR would, so the chains agree.
    num = ofdm.OfdmNumerology(used_prbs=200)
    osr_db = 10 * math.log10(num.osr)
    sdma, = ofdm.run_sdma_link_trial(math.inf, 12.0, (math.inf,), num, 6, 9)
    plain = ofdm.run_link_trial(12.0 - osr_db, math.inf, math.inf, num, 6, 9)
    assert sdma == pytest.approx(plain, abs=1e-6)


def test_sdma_low_noise_floor_small_quantization_loss():
    num = ofdm.OfdmNumerology(used_prbs=200)
    coarse, fine = ofdm.run_sdma_link_trial(10.0, 0.0, (3, math.inf), num, n_symbols=8, seed=1)
    assert fine - coarse < 0.5


def test_sdma_widths_equal_one_width_calls():
    # every width quantizes the same received signal; the transmit side,
    # the noise and the band-edge FIR response are built once per call
    num = ofdm.OfdmNumerology(used_prbs=200)
    widths = (3, 4, math.inf)
    lone = [ofdm.run_sdma_link_trial(10.0, 0.0, (b,), num, 8, 1)[0] for b in widths]
    assert ofdm.run_sdma_link_trial(10.0, 0.0, widths, num, 8, 1) == lone


def test_sdma_trial_rejects_no_widths():
    with pytest.raises(ValueError, match="adc_bits"):
        ofdm.run_sdma_link_trial(10.0, 0.0, (), ofdm.OfdmNumerology(used_prbs=200), 3, 0)
