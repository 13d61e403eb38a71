"""Quantizer distortion checks against brute-force references.

The reference quantizer and MSE integrals below are written from the
midrise definition alone, sharing no code with the package, so a
regression in the closed-form MSE or the step search shows up as a
disagreement with plain numerics.
"""

import math

import numpy as np
import pytest

from lowresbf import quantizer

# Frozen solver outputs, guarding against silent drift.  Correctness is
# established independently by the oracle tests further down.
FROZEN = {
    1: (1.595769, 0.3633802),
    2: (0.995687, 0.1188461),
    3: (0.586019, 0.03743966),
    4: (0.335201, 0.01154288),
    5: (0.188139, 0.003495211),
    6: (0.104063, 0.001040045),
}


def midrise(y, step, n_bits):
    """Reference midrise quantizer: 2^n levels at (k + 1/2)*step, saturating."""
    half = 2.0 ** (n_bits - 1)
    idx = np.clip(np.floor(y / step), -half, half - 1)
    return (idx + 0.5) * step


def mse_by_trapezoid(steps, n_bits, pts_per_interval=2000):
    """E[(y - Q(y))^2] for unit Gaussian y by dense trapezoid integration.

    Integrates (y - c_k)^2 phi(y) over each positive decision interval and
    doubles; the outermost interval runs 12 units past its lower boundary,
    beyond which the Gaussian mass is negligible.
    """
    steps = np.atleast_1d(np.asarray(steps, dtype=float))
    half = 2 ** (n_bits - 1)
    out = np.empty(steps.size)
    for i, s in enumerate(steps):
        total = 0.0
        for k in range(half):
            a = k * s
            b = (k + 1) * s if k < half - 1 else a + 12.0
            c = (k + 0.5) * s
            y = np.linspace(a, b, pts_per_interval)
            f = (y - c) ** 2 * np.exp(-0.5 * y * y) / math.sqrt(2 * math.pi)
            total += np.trapezoid(f, y)
        out[i] = 2.0 * total
    return out if out.size > 1 else float(out[0])


def test_one_bit_closed_form():
    # Sign quantizer with outputs +-step/2; the optimum output is E|y|.
    # The MSE is flat at its minimum, so the argmin is looser than the value.
    assert quantizer.alpha_of(1) == pytest.approx(1.0 - 2.0 / math.pi, abs=1e-9)
    assert quantizer.optimal_step(1) == pytest.approx(2.0 * math.sqrt(2.0 / math.pi), rel=1e-6)


def test_frozen_regression_values():
    for n, (step, alpha) in FROZEN.items():
        assert quantizer.optimal_step(n) == pytest.approx(step, rel=1e-5)
        assert quantizer.alpha_of(n) == pytest.approx(alpha, rel=1e-5)


def test_infinite_resolution():
    assert quantizer.alpha_of(math.inf) == 0.0
    spec = quantizer.make_spec(math.inf)
    assert spec.alpha == 0.0
    block = quantizer.ComplexSampleBlock(np.array([0.3 - 0.7j, 1.2 + 0.1j]), 1.0)
    assert quantizer.quantize(block, spec) is block


def test_fine_resolution_limit():
    assert quantizer.alpha_of(16) < 1e-6


def test_bits_domain():
    for bad in (0, -1, 17, 2.5, True):
        with pytest.raises(ValueError):
            quantizer.alpha_of(bad)
    with pytest.raises(ValueError):
        quantizer.optimal_step(math.inf)


@pytest.mark.parametrize("bad", [math.nan, -math.inf])
@pytest.mark.parametrize("fn", [quantizer.alpha_of, quantizer.make_spec])
def test_nonfinite_bits_rejected_by_name(fn, bad):
    with pytest.raises(ValueError, match="n_bits must be"):
        fn(bad)


def test_alpha_strictly_decreasing():
    alphas = [quantizer.alpha_of(n) for n in range(1, 11)]
    assert all(a > b > 0 for a, b in zip(alphas, alphas[1:]))


def test_four_bit_alpha_matches_dense_grid():
    """Brute-force grid over the step, 1e4 points, independent integrator."""
    grid = np.linspace(4.0 / 10_000, 4.0, 10_000)
    mses = mse_by_trapezoid(grid, 4)
    best = int(np.argmin(mses))
    assert quantizer.alpha_of(4) == pytest.approx(float(mses[best]), rel=1e-4)
    assert abs(quantizer.optimal_step(4) - grid[best]) < 2 * (grid[1] - grid[0])


@pytest.mark.parametrize("n_bits", range(1, 7))
def test_alpha_matches_monte_carlo(n_bits):
    """Coarse-to-fine step grid on common random numbers, 1e7 samples."""
    rng = np.random.default_rng(20260816)
    y = rng.standard_normal(10_000_000)
    lo = 0.25 * 2.0 ** (1 - n_bits)
    coarse = np.linspace(lo, 2.5, 40)
    mse = [np.mean((y[:1_000_000] - midrise(y[:1_000_000], s, n_bits)) ** 2) for s in coarse]
    s0 = coarse[int(np.argmin(mse))]
    width = 2 * (coarse[1] - coarse[0])
    fine = np.linspace(max(lo, s0 - width), s0 + width, 25)
    mse = [np.mean((y - midrise(y, s, n_bits)) ** 2) for s in fine]
    assert quantizer.alpha_of(n_bits) == pytest.approx(min(mse), abs=1e-3)


@pytest.mark.parametrize("n_bits", range(2, 7))
def test_error_decomposition(n_bits):
    """v = Q(y) - (1-alpha)y is nearly uncorrelated with y and has the
    predicted energy alpha(1-alpha)E|y|^2."""
    rng = np.random.default_rng(31 + n_bits)
    y = (rng.standard_normal(1_000_000) + 1j * rng.standard_normal(1_000_000)) / math.sqrt(2)
    spec = quantizer.make_spec(n_bits)
    q = quantizer.quantize(quantizer.ComplexSampleBlock(y, 1.0), spec).samples
    v = q - (1.0 - spec.alpha) * y
    corr = abs(np.vdot(v, y)) / (np.linalg.norm(v) * np.linalg.norm(y))
    assert corr < 0.02
    predicted = spec.alpha * (1.0 - spec.alpha) * np.mean(np.abs(y) ** 2)
    assert np.mean(np.abs(v) ** 2) == pytest.approx(predicted, rel=0.05)


def test_quantize_distortion_monte_carlo():
    rng = np.random.default_rng(7)
    y = (rng.standard_normal(1_000_000) + 1j * rng.standard_normal(1_000_000)) / math.sqrt(2)
    block = quantizer.ComplexSampleBlock(y, 1.0)
    q = quantizer.quantize(block, quantizer.make_spec(4)).samples
    ratio = np.mean(np.abs(y - q) ** 2) / np.mean(np.abs(y) ** 2)
    assert ratio == pytest.approx(quantizer.alpha_of(4), rel=0.05)


def test_quantize_idempotent():
    rng = np.random.default_rng(11)
    y = rng.standard_normal(4096) + 1j * rng.standard_normal(4096)
    spec = quantizer.make_spec(3)
    once = quantizer.quantize(quantizer.ComplexSampleBlock(y, 2.0), spec)
    twice = quantizer.quantize(once, spec)
    np.testing.assert_array_equal(once.samples, twice.samples)
    assert once.sample_rate == 2.0


def test_zero_input_tie_break():
    # Midrise has no zero level; the boundary at 0 rounds up.
    spec = quantizer.make_spec(4)
    out = quantizer.quantize(quantizer.ComplexSampleBlock(np.array([0.0 + 0.0j]), 1.0), spec)
    level = 0.5 * spec.step / math.sqrt(2.0)
    assert out.samples[0] == pytest.approx(level * (1 + 1j))


def test_measure_alpha():
    rng = np.random.default_rng(13)
    y = (rng.standard_normal(100_000) + 1j * rng.standard_normal(100_000)) / math.sqrt(2)
    block = quantizer.ComplexSampleBlock(y, 1.0)
    assert quantizer.measure_alpha(block, block) == pytest.approx(0.0, abs=1e-12)
    scaled = quantizer.ComplexSampleBlock(0.8 * y, 1.0)
    assert quantizer.measure_alpha(block, scaled) == pytest.approx(0.2, abs=1e-12)
    q3 = quantizer.quantize(block, quantizer.make_spec(3))
    assert quantizer.measure_alpha(block, q3) == pytest.approx(quantizer.alpha_of(3), rel=0.05)
    with pytest.raises(ValueError):
        quantizer.measure_alpha(block, quantizer.ComplexSampleBlock(y[:10], 1.0))


def test_block_and_spec_validation():
    with pytest.raises(ValueError):
        quantizer.ComplexSampleBlock(np.array([]), 1.0)
    with pytest.raises(ValueError):
        quantizer.ComplexSampleBlock(np.array([1.0, np.nan]), 1.0)
    with pytest.raises(ValueError):
        quantizer.QuantizerSpec(4, -1.0, 0.01)
    with pytest.raises(ValueError):
        quantizer.QuantizerSpec(math.inf, math.nan, 0.5)
