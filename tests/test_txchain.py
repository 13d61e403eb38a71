"""Converter chain checks: filter responses, spectral bookkeeping through
every stage, hold images, and the EVM floor model."""

import math

import numpy as np
import pytest

from lowresbf import ofdm, quantizer, txchain

CHIP = 491.52e6


def make_waveform(n_symbols, used_prbs=275, seed=0, modulation="QPSK"):
    num = ofdm.OfdmNumerology(used_prbs=used_prbs)
    rng = np.random.default_rng(seed)
    grid = ofdm.random_grid(modulation, n_symbols, num.n_subcarriers, rng)
    return ofdm.ofdm_modulate(grid, num), num


def integrated_power(report):
    df = report.freqs_hz[1] - report.freqs_hz[0]
    return float(np.sum(10.0 ** (report.psd_dbm_per_hz / 10.0)) * df)


def test_butterworth_response():
    f = np.array([1e6, 4e8, 4e9])
    np.testing.assert_array_equal(txchain.butterworth_response(0, 4e8, f), np.ones(3))
    for order in (1, 2, 3, 5):
        mag = txchain.butterworth_response(order, 4e8, 4e8)
        assert 20 * np.log10(mag) == pytest.approx(-3.01, abs=0.01)
    assert 20 * np.log10(txchain.butterworth_response(1, 4e8, 4e9)) == pytest.approx(-20.04, abs=0.01)
    assert 20 * np.log10(txchain.butterworth_response(3, 4e8, 8e8)) == pytest.approx(-18.13, abs=0.01)
    with pytest.raises(ValueError):
        txchain.butterworth_response(-1, 4e8, f)
    with pytest.raises(ValueError):
        txchain.butterworth_response(1, 0.0, f)


def test_config_validation():
    with pytest.raises(ValueError):
        txchain.DacChainConfig(interp_m=0)
    with pytest.raises(ValueError):
        txchain.DacChainConfig(zoh_oversample=2)
    with pytest.raises(ValueError):
        txchain.DacChainConfig(lpf_order=-1)
    with pytest.raises(ValueError):
        txchain.DacChainConfig(n_bits=0)
    with pytest.raises(ValueError, match="n_bits must be"):
        txchain.DacChainConfig(n_bits=math.nan)
    cfg = txchain.DacChainConfig()
    assert cfg.chip_rate_hz == pytest.approx(CHIP)
    assert cfg.analog_rate_hz == pytest.approx(983.04e6 * 8)


def test_dc_in_constant_out():
    cfg = txchain.DacChainConfig()
    dc = quantizer.ComplexSampleBlock(np.ones(4096, dtype=complex), CHIP)
    out = txchain.dac_convert(dc, cfg).samples
    assert out.size == 4096 * cfg.interp_m * cfg.zoh_oversample
    # residual ripple is the anti-image filter's stopband leakage
    assert np.max(np.abs(out - 1.0)) < 0.01
    with pytest.raises(ValueError):
        txchain.dac_convert(quantizer.ComplexSampleBlock(np.ones(64), 2 * CHIP), cfg)


def test_tone_images_at_converter_rate():
    # A complex tone at f0 held L samples reappears at f0 +- dac_fs,
    # weighted by the hold's Dirichlet response.
    cfg = txchain.DacChainConfig()
    n_bb = 4096
    k0 = 167  # 167 * (491.52e6 / 4096) = 20.04 MHz, exactly on the bin grid
    t = np.arange(n_bb)
    tone = quantizer.ComplexSampleBlock(np.exp(2j * np.pi * k0 * t / n_bb), CHIP)
    out = txchain.dac_convert(tone, cfg).samples
    spec = np.abs(np.fft.fft(out)) ** 2
    n_an = out.size
    L = cfg.zoh_oversample
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


def test_psd_bookkeeping_through_chain():
    block, _ = make_waveform(12)
    cfg = txchain.DacChainConfig(n_bits=4, lpf_order=1)
    stages = [block, txchain.dac_convert(block, cfg)]
    stages.append(txchain.apply_reconstruction_lpf(stages[-1], cfg))
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
    lin = 10.0 ** (psd.psd_dbm_per_hz / 10.0)
    assert lin.max() / np.median(lin) > 1e6  # single narrow peak
    with pytest.raises(ValueError):
        txchain.estimate_psd(quantizer.ComplexSampleBlock(x[:1000], 1e9), 4096)


def test_ofdm_psd_occupancy():
    block, num = make_waveform(12)
    psd = txchain.estimate_psd(block, 4096)
    lin = 10.0 ** (psd.psd_dbm_per_hz / 10.0)
    level = np.median(lin[np.abs(psd.freqs_hz) < 150e6])
    occupied = psd.freqs_hz[lin > level / 2.0]
    width = occupied.max() - occupied.min()
    assert 392e6 < width < 400e6


def test_inband_quantization_noise():
    cfg = txchain.DacChainConfig(n_bits=4)
    a = quantizer.alpha_of(4)
    expected = a * (1 - a) * 396e6 / 983.04e6
    assert txchain.inband_quantization_noise(4, cfg, 396e6) == pytest.approx(expected, rel=1e-9)
    with pytest.raises(ValueError):
        txchain.inband_quantization_noise(4, cfg, 2e9)


def test_quantization_noise_floor_level():
    # Out-of-band PSD of the quantized OFDM signal: alpha(1-alpha) spread
    # over dac_fs, shaped by the hold and probed away from the images.
    block, _ = make_waveform(12)
    cfg = txchain.DacChainConfig(n_bits=4)
    out = txchain.dac_convert(block, cfg)
    psd = txchain.estimate_psd(out, 4096)
    a = quantizer.alpha_of(4)
    f = psd.freqs_hz
    sel = (np.abs(f) > 250e6) & (np.abs(f) < 420e6)
    zoh = np.sinc(f[sel] / cfg.dac_fs_hz) ** 2
    predicted = a * (1 - a) / cfg.dac_fs_hz * zoh.mean()
    measured = np.mean(10.0 ** (psd.psd_dbm_per_hz[sel] / 10.0))
    assert abs(10 * math.log10(measured / predicted)) < 1.0


def test_aclr_validation():
    block, _ = make_waveform(8)
    psd = txchain.estimate_psd(block, 2048)  # chip-rate span, +-245.76 MHz
    plan = txchain.ChannelPlan()
    with pytest.raises(ValueError):
        txchain.measure_aclr(psd, plan, 0)
    with pytest.raises(ValueError):
        txchain.measure_aclr(psd, plan, 3)
    with pytest.raises(ValueError):
        txchain.measure_aclr(psd, plan, 1)  # span does not reach the first adjacent


def test_aclr_monotone_in_bits_and_order():
    block, _ = make_waveform(8)
    plan = txchain.ChannelPlan()

    def aclr(bits, order):
        cfg = txchain.DacChainConfig(n_bits=bits, lpf_order=order)
        out = txchain.apply_reconstruction_lpf(txchain.dac_convert(block, cfg), cfg)
        return txchain.measure_aclr(txchain.estimate_psd(out, 2048), plan, 1)

    three, four, clean = aclr(3, 0), aclr(4, 0), aclr(math.inf, 0)
    assert three < four < clean
    assert aclr(4, 1) > four


def test_clean_loopback_evm():
    for order in (0, 1, 2, 3):
        cfg = txchain.DacChainConfig(lpf_order=order)
        assert txchain.measure_evm(cfg, n_symbols=4) < 0.1


def test_evm_floor_matches_prediction():
    cfg = txchain.DacChainConfig(n_bits=4, lpf_order=1)
    measured = txchain.measure_evm(cfg, sigma_rf_sq=0.0, n_symbols=8)
    a = quantizer.alpha_of(4)
    sig_v2 = txchain.inband_quantization_noise(4, cfg, 275 * 12 * 120e3)
    predicted = txchain.evm_prediction(a, 0.0, sig_v2)
    assert measured == pytest.approx(predicted, rel=0.10)


def test_evm_monotonicity():
    floors = [
        txchain.measure_evm(txchain.DacChainConfig(n_bits=b, lpf_order=1), n_symbols=4)
        for b in (3, 4, 5)
    ]
    assert floors[0] > floors[1] > floors[2]
    cfg = txchain.DacChainConfig(n_bits=4, lpf_order=1)
    quiet = txchain.measure_evm(cfg, sigma_rf_sq=1e-4, n_symbols=4)
    loud = txchain.measure_evm(cfg, sigma_rf_sq=1e-2, n_symbols=4)
    assert loud > quiet
    with pytest.raises(ValueError):
        txchain.measure_evm(cfg, sigma_rf_sq=-0.1)


def test_evm_prediction_values():
    assert txchain.evm_prediction(0.0, 0.0, 0.0) == 0.0
    assert txchain.evm_prediction(0.01, 0.0, 0.0) == pytest.approx(1.0)
    with pytest.raises(ValueError):
        txchain.evm_prediction(0.01, 0.0, 0.0, sig_power=0.0)
