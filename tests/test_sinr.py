"""Algebraic checks for the quantized SINR formulas.

Beyond the worked examples, a seeded grid of random instances exercises
the reduction, decomposition, saturation, and monotonicity identities at
tight tolerance; these hold exactly in the algebra, so any slack beyond
float rounding is a formula bug.
"""

import math

import numpy as np
import pytest

from lowresbf import sinr
from lowresbf.quantizer import alpha_of

N_INSTANCES = 10_000


def draw_instances(seed):
    rng = np.random.default_rng(seed)
    gamma = 10.0 ** rng.uniform(-3, 9, N_INSTANCES)
    bf_gain = 10.0 ** rng.uniform(0, 4, N_INSTANCES)
    psi = 10.0 ** rng.uniform(-6, 1, N_INSTANCES)
    alpha = rng.uniform(1e-4, 0.999, N_INSTANCES)
    return gamma, bf_gain, psi, alpha


def test_beamformed_examples():
    assert sinr.sinr_beamformed([2.0], 0) == pytest.approx(2.0)
    assert sinr.sinr_beamformed([1.0, 1.0], 0) == pytest.approx(0.5)
    with pytest.raises(ValueError):
        sinr.sinr_beamformed([], 0)


def test_beamformed_matches_symbol_level_average():
    # Four streams of Gaussian symbols plus unit noise; the formula is the
    # ratio of the desired power to everything else.
    gammas = [2.0, 0.5, 1.5, 0.25]
    rng = np.random.default_rng(5)
    n = 1_000_000
    symbols = (rng.standard_normal((4, n)) + 1j * rng.standard_normal((4, n))) / math.sqrt(2)
    noise = (rng.standard_normal(n) + 1j * rng.standard_normal(n)) / math.sqrt(2)
    desired = math.sqrt(gammas[0]) * symbols[0]
    other = sum(math.sqrt(g) * s for g, s in zip(gammas[1:], symbols[1:])) + noise
    measured = np.mean(np.abs(desired) ** 2) / np.mean(np.abs(other) ** 2)
    assert sinr.sinr_beamformed(gammas, 0) == pytest.approx(measured, rel=0.02)


def test_orthogonal_examples():
    assert sinr.sinr_orthogonal_quantized(7.3, 0.0, 4.0) == pytest.approx(7.3)
    a4 = alpha_of(4)
    sat = sinr.sinr_saturation(a4, 1.0)
    assert sinr.sinr_orthogonal_quantized(1e9, a4, 1.0) == pytest.approx(sat, rel=1e-3)
    tiny = sinr.sinr_orthogonal_quantized(1e-3, a4, 1.0)
    assert tiny == pytest.approx((1.0 - a4) * 1e-3, rel=2e-3)


def test_saturation_examples():
    assert sinr.sinr_saturation(0.5, 1.0) == pytest.approx(1.0)
    # 10log10((1-alpha)/alpha) at the 4-bit uniform-optimal alpha.
    sat_db = 10 * math.log10(sinr.sinr_saturation(alpha_of(4), 1.0))
    assert sat_db == pytest.approx(19.33, abs=0.05)
    ratio = sinr.sinr_saturation(0.1, 16.0) / sinr.sinr_saturation(0.1, 1.0)
    assert ratio == pytest.approx(16.0, rel=1e-12)
    for bad in (0.0, -0.2):
        with pytest.raises(ValueError):
            sinr.sinr_saturation(bad, 1.0)


def test_sdma_examples():
    q = sinr.LinkQuality(3.7, 1.0, 0.0)
    assert sinr.sinr_sdma_quantized(q, 0.0) == pytest.approx(3.7)
    q = sinr.LinkQuality(1e9, 1.0, 0.1)
    assert sinr.sinr_sdma_quantized(q, 0.0) == pytest.approx(10.0, rel=1e-3)


def test_sdma_high_sir_loss_near_two_db():
    # gamma' at 15 dB with the receive gain of a 2400-of-4096-bin filter;
    # 3-bit quantization then costs about 2 dB against the unquantized curve.
    g = 4096.0 / 2400.0
    gamma = 10.0 ** 1.5
    psi = 1e-4  # 40 dB SIR
    q = sinr.LinkQuality(gamma, g, psi)
    loss_db = 10 * math.log10(
        sinr.sinr_sdma_quantized(q, 0.0) / sinr.sinr_sdma_quantized(q, alpha_of(3))
    )
    assert loss_db == pytest.approx(2.0, abs=0.7)


def test_beta_examples():
    gamma, bf_gain, psi, alpha = draw_instances(17)
    q = sinr.LinkQuality(gamma, bf_gain, psi)
    beta = sinr.sdma_beta(q, alpha)
    assert np.all(beta < 1.0 / alpha)
    # Receive gain above 1 + 1/psi makes quantization cheaper than the
    # plain (1-alpha) scaling.
    q1 = sinr.LinkQuality(5.0, 16.0, 0.1)
    assert sinr.sdma_beta(q1, 0.2) < 1.0
    assert sinr.sinr_sdma_quantized(q1, 0.2) > 0.8 * sinr.sinr_beamformed([5.0, 0.5], 0)
    q0 = sinr.LinkQuality(1e-9, 4.0, 0.0)
    assert sinr.sdma_beta(q0, 0.3) == pytest.approx(1.0, abs=1e-6)


def test_reduction_identity():
    gamma, bf_gain, _, alpha = draw_instances(23)
    q = sinr.LinkQuality(gamma, bf_gain, np.zeros(N_INSTANCES))
    lhs = sinr.sinr_sdma_quantized(q, alpha)
    rhs = sinr.sinr_orthogonal_quantized(gamma, alpha, bf_gain)
    np.testing.assert_allclose(lhs, rhs, rtol=1e-12)


def test_decomposition_identity():
    gamma, bf_gain, psi, alpha = draw_instances(29)
    q = sinr.LinkQuality(gamma, bf_gain, psi)
    beta = sinr.sdma_beta(q, alpha)
    gamma_bf = gamma / (1.0 + psi * gamma)
    lhs = sinr.sinr_sdma_quantized(q, alpha)
    rhs = (1.0 - alpha * beta) * gamma_bf
    # 1 - alpha*beta cancels when alpha*beta -> 1, so the float bound has
    # to carry the magnitude of the cancelled term, not just of the result.
    tol = 1e-12 * np.maximum(np.abs(lhs), alpha * beta * gamma_bf)
    assert np.all(np.abs(lhs - rhs) <= tol)


def test_saturation_bounds_orthogonal():
    gamma, bf_gain, _, alpha = draw_instances(31)
    quantized = sinr.sinr_orthogonal_quantized(gamma, alpha, bf_gain)
    cap = sinr.sinr_saturation(alpha, bf_gain)
    assert np.all(quantized <= cap * (1 + 1e-12))


def test_monotonicity():
    gamma, bf_gain, psi, alpha = draw_instances(37)
    base = sinr.sinr_sdma_quantized(sinr.LinkQuality(gamma, bf_gain, psi), alpha)
    up_gamma = sinr.sinr_sdma_quantized(sinr.LinkQuality(gamma * 1.5, bf_gain, psi), alpha)
    up_gain = sinr.sinr_sdma_quantized(sinr.LinkQuality(gamma, bf_gain * 1.5, psi), alpha)
    up_psi = sinr.sinr_sdma_quantized(sinr.LinkQuality(gamma, bf_gain, psi * 1.5), alpha)
    up_alpha = sinr.sinr_sdma_quantized(
        sinr.LinkQuality(gamma, bf_gain, psi), np.minimum(alpha * 1.5, 1.0)
    )
    assert np.all(up_gamma >= base)
    assert np.all(up_gain >= base)
    assert np.all(up_psi <= base)
    assert np.all(up_alpha <= base)


def test_quantization_noise_variance():
    assert sinr.quantization_noise_variance([1.0, 2.0], 0.5, 0.5, 0.0) == 0.0
    assert sinr.quantization_noise_variance([1.0, 1.0], 1.0, 1.0, 0.5) == pytest.approx(1.0)


def test_quantization_noise_variance_monte_carlo():
    # Two streams plus interference and noise into a 3-bit quantizer; the
    # per-sample error power follows alpha(1-alpha) times the total power.
    from lowresbf import quantizer

    energies = [1.2, 0.6]
    noise_var, icv = 0.4, 0.3
    total = sum(energies) + noise_var + icv
    rng = np.random.default_rng(41)
    n = 1_000_000
    y = (rng.standard_normal(n) + 1j * rng.standard_normal(n)) * math.sqrt(total / 2)
    alpha = quantizer.alpha_of(3)
    scaled = quantizer.ComplexSampleBlock(y / math.sqrt(total), 1.0)
    err = quantizer.quantize(scaled, 3).samples * math.sqrt(total) - (1 - alpha) * y
    predicted = sinr.quantization_noise_variance(energies, noise_var, icv, alpha)
    assert np.mean(np.abs(err) ** 2) == pytest.approx(predicted, rel=0.05)


def test_link_quality_validation_and_cap():
    with pytest.raises(ValueError):
        sinr.LinkQuality(-1.0, 1.0, 0.0)
    with pytest.raises(ValueError):
        sinr.LinkQuality(1.0, 0.5, 0.0)
    with pytest.raises(ValueError):
        sinr.LinkQuality(1.0, 1.0, -0.1)
    capped = sinr.LinkQuality(math.inf, 1.0, 0.0)
    assert capped.gamma_prime == sinr.GAMMA_CAP
    assert sinr.LinkQuality(1e15, 1.0, 0.0).gamma_prime == sinr.GAMMA_CAP
