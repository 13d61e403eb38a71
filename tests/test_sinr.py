"""Algebraic checks for the quantized SINR formula.

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


def beamformed(gammas, k):
    """Unquantized SINR gamma_k / (1 + sum of the other gammas), as alpha = 0 and psi = others/gamma_k."""
    g = np.asarray(gammas, dtype=float)
    return sinr.sinr_quantized(g[k], 1.0, (g.sum() - g[k]) / g[k], 0.0)


def test_beamformed_examples():
    assert beamformed([2.0], 0) == pytest.approx(2.0)
    assert beamformed([1.0, 1.0], 0) == pytest.approx(0.5)
    # at alpha = 0 the combiner gain G drops out
    assert sinr.sinr_quantized(2.0, 16.0, 0.5 / 2.0, 0.0) == pytest.approx(2.0 / (1.0 + 0.5))


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
    assert beamformed(gammas, 0) == pytest.approx(measured, rel=0.02)


def test_orthogonal_examples():
    assert sinr.sinr_quantized(7.3, 4.0, 0.0, 0.0) == pytest.approx(7.3)
    a4 = alpha_of(4)
    sat = sinr.sinr_saturation(a4, 1.0)
    assert sinr.sinr_quantized(1e9, 1.0, 0.0, a4) == pytest.approx(sat, rel=1e-3)
    tiny = sinr.sinr_quantized(1e-3, 1.0, 0.0, a4)
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
    assert sinr.sinr_quantized(3.7, 1.0, 0.0, 0.0) == pytest.approx(3.7)
    assert sinr.sinr_quantized(1e9, 1.0, 0.1, 0.0) == pytest.approx(10.0, rel=1e-3)


def test_sdma_high_sir_loss_near_two_db():
    # gamma' at 15 dB with the receive gain of a 2400-of-4096-bin filter;
    # 3-bit quantization then costs about 2 dB against the unquantized curve.
    g = 4096.0 / 2400.0
    gamma = 10.0 ** 1.5
    psi = 1e-4  # 40 dB SIR
    loss_db = 10 * math.log10(
        sinr.sinr_quantized(gamma, g, psi, 0.0) / sinr.sinr_quantized(gamma, g, psi, alpha_of(3))
    )
    assert loss_db == pytest.approx(2.0, abs=0.7)


def test_beta_examples():
    gamma, bf_gain, psi, alpha = draw_instances(17)
    beta = sinr.sdma_beta(gamma, bf_gain, psi, alpha)
    assert np.all(beta < 1.0 / alpha)
    # Receive gain above 1 + 1/psi makes quantization cheaper than the
    # plain (1-alpha) scaling.
    assert sinr.sdma_beta(5.0, 16.0, 0.1, 0.2) < 1.0
    assert sinr.sinr_quantized(5.0, 16.0, 0.1, 0.2) > 0.8 * beamformed([5.0, 0.5], 0)
    assert sinr.sdma_beta(1e-9, 4.0, 0.0, 0.3) == pytest.approx(1.0, abs=1e-6)


def test_reduction_identity():
    # psi = 0 reduces to the orthogonal expression (1-alpha)g / (1 + (alpha/G)g)
    gamma, bf_gain, _, alpha = draw_instances(23)
    lhs = sinr.sinr_quantized(gamma, bf_gain, np.zeros(N_INSTANCES), alpha)
    rhs = (1.0 - alpha) * gamma / (1.0 + (alpha / bf_gain) * gamma)
    np.testing.assert_allclose(lhs, rhs, rtol=1e-12)


def test_decomposition_identity():
    gamma, bf_gain, psi, alpha = draw_instances(29)
    beta = sinr.sdma_beta(gamma, bf_gain, psi, alpha)
    gamma_bf = gamma / (1.0 + psi * gamma)
    lhs = sinr.sinr_quantized(gamma, bf_gain, psi, alpha)
    rhs = (1.0 - alpha * beta) * gamma_bf
    # 1 - alpha*beta cancels when alpha*beta -> 1, so the float bound has
    # to carry the magnitude of the cancelled term, not just of the result.
    tol = 1e-12 * np.maximum(np.abs(lhs), alpha * beta * gamma_bf)
    assert np.all(np.abs(lhs - rhs) <= tol)


def test_saturation_bounds_orthogonal():
    gamma, bf_gain, _, alpha = draw_instances(31)
    quantized = sinr.sinr_quantized(gamma, bf_gain, 0.0, alpha)
    cap = sinr.sinr_saturation(alpha, bf_gain)
    assert np.all(quantized <= cap * (1 + 1e-12))


def test_monotonicity():
    gamma, bf_gain, psi, alpha = draw_instances(37)
    base = sinr.sinr_quantized(gamma, bf_gain, psi, alpha)
    up_gamma = sinr.sinr_quantized(gamma * 1.5, bf_gain, psi, alpha)
    up_gain = sinr.sinr_quantized(gamma, bf_gain * 1.5, psi, alpha)
    up_psi = sinr.sinr_quantized(gamma, bf_gain, psi * 1.5, alpha)
    up_alpha = sinr.sinr_quantized(gamma, bf_gain, psi, np.minimum(alpha * 1.5, 1.0))
    assert np.all(up_gamma >= base)
    assert np.all(up_gain >= base)
    assert np.all(up_psi <= base)
    assert np.all(up_alpha <= base)
