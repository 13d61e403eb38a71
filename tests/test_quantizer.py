"""Quantizer distortion checks against brute-force references.

The reference quantizer and MSE integrals below are written from the
midrise definition alone, sharing no code with the package, so a
regression in the closed-form MSE or the step search shows up as a
disagreement with plain numerics.
"""

import ast
import dataclasses
import math
import pathlib

import numpy as np
import pytest

from lowresbf import network, ofdm, quantizer, txchain

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


def sorted_moments(y):
    """The draw sorted, with prefix sums of y and y^2 (leading 0), for midrise_mse."""
    ys = np.sort(y)
    return ys, np.concatenate([[0.0], np.cumsum(ys)]), np.concatenate([[0.0], np.cumsum(ys * ys)])


def midrise_mse(moments, step, n_bits):
    """mean((y - midrise(y, step, n_bits))^2) over a draw, from its sorted_moments.

    Level c = (k + 1/2)*step takes the y with k*step <= y < (k+1)*step,
    the outermost levels everything beyond, so each cell's sum of
    (y - c)^2 is sum(y^2) - 2c*sum(y) + n*c^2 between two searchsorted
    edges: O(levels * log N) per step instead of a pass over the draw.
    """
    ys, p1, p2 = moments
    half = 2 ** (n_bits - 1)
    k = np.arange(-half, half)
    cut = np.concatenate([[0], np.searchsorted(ys, k[1:] * step), [ys.size]])
    c = (k + 0.5) * step
    n, s1, s2 = np.diff(cut), np.diff(p1[cut]), np.diff(p2[cut])
    return float((s2 - 2.0 * c * s1 + n * c * c).sum() / ys.size)


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
    block = quantizer.ComplexSampleBlock(np.array([0.3 - 0.7j, 1.2 + 0.1j]), 1.0)
    assert quantizer.quantize(block, math.inf) is block


def test_fine_resolution_limit():
    assert quantizer.alpha_of(16) < 1e-6


def test_bits_domain():
    for bad in (0, -1, 17, 2.5, True):
        with pytest.raises(ValueError):
            quantizer.alpha_of(bad)
    with pytest.raises(ValueError):
        quantizer.optimal_step(math.inf)


@pytest.mark.parametrize("n_bits", [2.5, True, 0, math.inf])
def test_quantizer_mse_rejects_bad_width_by_name(n_bits):
    # unchecked, 2.5 and True truncated to the 2- and 1-bit values, 0 hit a negative shift
    # count and inf an OverflowError
    with pytest.raises(ValueError, match="n_bits must be"):
        quantizer.quantizer_mse(0.5, n_bits)


def test_quantizer_mse_takes_integral_widths():
    mse = quantizer.quantizer_mse(0.5, 3)
    assert quantizer.quantizer_mse(0.5, 3.0) == mse == quantizer.quantizer_mse(0.5, np.int64(3))


@pytest.mark.parametrize("bad", [math.nan, -math.inf])
@pytest.mark.parametrize("fn", [
    quantizer.alpha_of,
    pytest.param(lambda n: quantizer.quantize(quantizer.ComplexSampleBlock(np.ones(1), 1.0), n), id="quantize"),
])
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


@pytest.fixture(scope="module")
def mc_draw():
    """1e7 common random numbers, with the sorted moments of the first 1e6 and of all."""
    y = np.random.default_rng(20260816).standard_normal(10_000_000)
    return y, sorted_moments(y[:1_000_000]), sorted_moments(y)


@pytest.mark.parametrize("n_bits", range(1, 7))
def test_alpha_matches_monte_carlo(n_bits, mc_draw):
    """Coarse-to-fine step grid on common random numbers, 1e7 samples."""
    y, head, full = mc_draw
    lo = 0.25 * 2.0 ** (1 - n_bits)
    coarse = np.linspace(lo, 2.5, 40)
    mse = [midrise_mse(head, s, n_bits) for s in coarse]
    s0 = coarse[int(np.argmin(mse))]
    width = 2 * (coarse[1] - coarse[0])
    fine = np.linspace(max(lo, s0 - width), s0 + width, 25)
    mse = [midrise_mse(full, s, n_bits) for s in fine]
    best = fine[int(np.argmin(mse))]
    # the prefix-sum MSE is the direct one up to summation rounding
    assert min(mse) == pytest.approx(np.mean((y - midrise(y, best, n_bits)) ** 2), abs=1e-9)
    assert quantizer.alpha_of(n_bits) == pytest.approx(min(mse), abs=1e-3)


@pytest.mark.parametrize("n_bits", range(2, 7))
def test_error_decomposition(n_bits):
    """v = Q(y) - (1-alpha)y is nearly uncorrelated with y and has the
    predicted energy alpha(1-alpha)E|y|^2."""
    rng = np.random.default_rng(31 + n_bits)
    y = (rng.standard_normal(1_000_000) + 1j * rng.standard_normal(1_000_000)) / math.sqrt(2)
    alpha = quantizer.alpha_of(n_bits)
    q = quantizer.quantize(quantizer.ComplexSampleBlock(y, 1.0), n_bits).samples
    v = q - (1.0 - alpha) * y
    corr = abs(np.vdot(v, y)) / (np.linalg.norm(v) * np.linalg.norm(y))
    assert corr < 0.02
    predicted = alpha * (1.0 - alpha) * np.mean(np.abs(y) ** 2)
    assert np.mean(np.abs(v) ** 2) == pytest.approx(predicted, rel=0.05)


def test_quantize_distortion_monte_carlo():
    rng = np.random.default_rng(7)
    y = (rng.standard_normal(1_000_000) + 1j * rng.standard_normal(1_000_000)) / math.sqrt(2)
    block = quantizer.ComplexSampleBlock(y, 1.0)
    q = quantizer.quantize(block, 4).samples
    ratio = np.mean(np.abs(y - q) ** 2) / np.mean(np.abs(y) ** 2)
    assert ratio == pytest.approx(quantizer.alpha_of(4), rel=0.05)


def test_quantize_idempotent():
    rng = np.random.default_rng(11)
    y = rng.standard_normal(4096) + 1j * rng.standard_normal(4096)
    once = quantizer.quantize(quantizer.ComplexSampleBlock(y, 2.0), 3)
    twice = quantizer.quantize(once, 3)
    np.testing.assert_array_equal(once.samples, twice.samples)
    assert once.sample_rate == 2.0


def test_zero_input_tie_break():
    # Midrise has no zero level; the boundary at 0 rounds up.
    out = quantizer.quantize(quantizer.ComplexSampleBlock(np.array([0.0 + 0.0j]), 1.0), 4)
    level = 0.5 * quantizer.optimal_step(4) / math.sqrt(2.0)
    assert out.samples[0] == pytest.approx(level * (1 + 1j))


def test_block_validation():
    with pytest.raises(ValueError):
        quantizer.ComplexSampleBlock(np.array([]), 1.0)
    with pytest.raises(ValueError):
        quantizer.ComplexSampleBlock(np.array([1.0, np.nan]), 1.0)


def _drop_rows(result):
    return [dataclasses.astuple(r) for r in result.ue_results]


def _toy_drop(**kw):
    cfg = network.NetworkConfig(**{**dict(area_m=600.0, fixed_ue_count=40, n_ttis=4), **kw})
    return _drop_rows(network.run_drop_detailed(cfg, seed=3))


_PSD_BLOCK = quantizer.ComplexSampleBlock(np.random.default_rng(3).standard_normal(400) + 0j, 1e9)
_FLAT_PSD = (np.linspace(-1e9, 1e9, 2001), np.zeros(2001))
_F_HZ = np.array([1e6, 4e8, 4e9])

# every library boundary that takes an integer: the name its rejections give,
# a call that passes the argument, a valid value and out-of-range values
INT_SITES = {
    "OfdmNumerology": ("used_prbs", lambda v: ofdm.OfdmNumerology(used_prbs=v), 10, (0, 276)),
    "random_grid": ("n_symbols", lambda v: ofdm.random_grid("QPSK", v, 12, np.random.default_rng(0)), 2, (0, -1)),
    "run_link_trial": ("n_symbols", lambda v: ofdm.run_link_trial(30.0, 4, math.inf, ofdm.OfdmNumerology(1),
                                                                  n_symbols=v), 3, (2, 0)),
    "butterworth_response": ("filter order", lambda v: txchain.butterworth_response(v, _F_HZ), 1, (-1,)),
    "apply_reconstruction_lpf": ("filter order", lambda v: txchain.apply_reconstruction_lpf(_PSD_BLOCK, v).samples,
                                 1, (-1,)),
    "measure_evm-order": ("filter order", lambda v: txchain.measure_evm(4, v, n_symbols=1), 1, (-1,)),
    "measure_evm-n_symbols": ("n_symbols", lambda v: txchain.measure_evm(4, 1, n_symbols=v), 1, (0, -1)),
    "transmit": ("n_symbols", lambda v: txchain.transmit(4, ofdm.OfdmNumerology(1), "QPSK", v,
                                                         np.random.default_rng(0))[1].samples, 1, (0, -1)),
    "estimate_psd": ("nperseg", lambda v: txchain.estimate_psd(_PSD_BLOCK, v), 40, (0, -2)),
    "measure_aclr": ("adjacent_index", lambda v: txchain.measure_aclr(_FLAT_PSD, v), 1, (0, 3, -3)),
    "n_beams_max": ("n_beams_max", lambda v: _toy_drop(scheduler="SDMA_GREEDY", n_beams_max=v), 2, (0,)),
    "n_ttis": ("n_ttis", lambda v: _toy_drop(n_ttis=v), 3, (0,)),
    "fixed_ue_count": ("fixed_ue_count", lambda v: _toy_drop(fixed_ue_count=v), 5, (0, -1)),
    "n_drops": ("n_drops", lambda v: [_drop_rows(d) for d in network.run_drops(
        network.NetworkConfig(area_m=600.0, fixed_ue_count=20, n_ttis=1), v, seed=0)], 2, (0,)),
    "n_jobs": ("n_jobs", lambda v: [_drop_rows(d) for d in network.run_drops(
        network.NetworkConfig(area_m=600.0, fixed_ue_count=20, n_ttis=1), 1, seed=0, n_jobs=v)], 1, (0,)),
}


def _same(a, b):
    """Equal item by item, NaN to NaN (the SINR of a user never scheduled)."""
    if isinstance(a, (tuple, list)):
        return isinstance(b, (tuple, list)) and len(a) == len(b) and all(map(_same, a, b))
    if isinstance(a, (float, np.ndarray)):
        return np.array_equal(a, b, equal_nan=True)
    return a == b


@pytest.mark.parametrize("make", [np.int64, np.int32])
@pytest.mark.parametrize("site", INT_SITES)
def test_integer_argument_takes_numpy_integers(site, make):
    _, call, good, _ = INT_SITES[site]
    assert _same(call(make(good)), call(good))


@pytest.mark.parametrize("site", INT_SITES)
def test_integer_argument_rejects_others_by_name(site):
    name, call, _, out_of_range = INT_SITES[site]
    for bad in (True, 2.5, 3.0, "4", *out_of_range):
        with pytest.raises(ValueError, match=name):
            call(bad)


@pytest.mark.parametrize("n_symbols", [0, -1, 2.5, True])
def test_measure_evm_rejects_bad_symbol_count_before_any_work(n_symbols, monkeypatch):
    # unchecked, these fail late inside the chain: "empty sample block", numpy's negative dimensions, a TypeError
    def no_fft(*_):
        raise AssertionError("n_symbols reached the FFT")
    monkeypatch.setattr(np.fft, "ifft", no_fft)
    with pytest.raises(ValueError, match="n_symbols must be an integer of at least 1"):
        txchain.measure_evm(4, 1, n_symbols=n_symbols)


# functions whose integer type test is not an input rule: cli._fmt picks a number format
_INTEGER_TYPE_TEST_EXEMPT = {"quantizer._check_int", "cli._fmt"}


def _integer_type_tests(path):
    """(module.function, line) of each isinstance call in the file that tests against int, np.integer or
    numbers.Integral."""
    found = []

    def visit(node, func):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.Call) and isinstance(child.func, ast.Name) and child.func.id == "isinstance":
                kinds = child.args[1].elts if isinstance(child.args[1], ast.Tuple) else [child.args[1]]
                if any(isinstance(k, ast.Name) and k.id == "int"
                       or isinstance(k, ast.Attribute) and k.attr in ("integer", "Integral") for k in kinds):
                    found.append((f"{path.stem}.{func}", child.lineno))
            visit(child, child.name if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)) else func)

    visit(ast.parse(path.read_text()), None)
    return found


def test_integer_rule_lives_in_one_place():
    # one rule for every integer argument, so numpy integers pass everywhere and bools nowhere
    src = pathlib.Path(quantizer.__file__).parent
    found = [hit for path in sorted(src.glob("*.py")) for hit in _integer_type_tests(path)]
    assert "quantizer._check_int" in {f for f, _ in found}
    assert [hit for hit in found if hit[0] not in _INTEGER_TYPE_TEST_EXEMPT] == []
