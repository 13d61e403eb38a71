"""Uniform midrise quantizer and its additive-noise-model parameters.

The quantizer output for a Gaussian input y decomposes as
Q(y) = (1 - alpha) * y + v with v nearly uncorrelated with y, where
alpha is the relative mean-square distortion of the MSE-optimal
uniform quantizer at the given resolution.  Every downstream model
(link SINR, EVM, spectral floors) consumes alpha and the step size
computed here.
"""

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import ndtr  # standard normal CDF, vectorized

__all__ = [
    "QuantizerSpec",
    "ComplexSampleBlock",
    "quantizer_mse",
    "optimal_step",
    "alpha_of",
    "make_spec",
    "quantize",
    "measure_alpha",
]

_MAX_BITS = 16


@dataclass(frozen=True)
class QuantizerSpec:
    """Resolution, step size and inverse coding gain of a uniform quantizer.

    n_bits is a positive integer or math.inf; step is calibrated for a
    unit-variance real input; alpha is the minimal relative distortion.
    """

    n_bits: float
    step: float
    alpha: float

    def __post_init__(self):
        if self.n_bits != math.inf:
            if int(self.n_bits) != self.n_bits or not (1 <= self.n_bits <= _MAX_BITS):
                raise ValueError(f"n_bits must be in 1..{_MAX_BITS} or math.inf, got {self.n_bits}")
            if self.step <= 0:
                raise ValueError("finite resolution requires step > 0")
        elif self.alpha != 0.0:
            raise ValueError("infinite resolution must have alpha = 0")


@dataclass(frozen=True)
class ComplexSampleBlock:
    """A finite block of complex baseband samples at a fixed rate."""

    samples: np.ndarray
    sample_rate: float

    def __post_init__(self):
        object.__setattr__(self, "samples", np.asarray(self.samples, dtype=complex))
        if self.samples.size < 1:
            raise ValueError("empty sample block")
        if not np.all(np.isfinite(self.samples)):
            raise ValueError("non-finite sample")


def _phi(x):
    return np.exp(-0.5 * x * x) / math.sqrt(2.0 * math.pi)


def quantizer_mse(step, n_bits):
    """Exact E[(y - Q(y))^2] for y ~ N(0,1), midrise uniform quantizer.

    Levels are (k + 1/2)*step for k = -2^(n-1)..2^(n-1)-1; inputs beyond
    the outermost decision boundary saturate to the outermost level.
    Closed form per decision interval:
        I(a,b,c) = (Phi(b)-Phi(a))(1+c^2) - (b phi(b) - a phi(a)) - 2c(phi(a)-phi(b))
    summed over the positive half and doubled (even symmetry).
    """
    half = 1 << (int(n_bits) - 1)
    k = np.arange(half)
    a = k * step
    b = (k + 1) * step
    b[-1] = a[-1] + 60.0  # finite stand-in for +inf; Gaussian mass beyond is ~0
    c = (k + 0.5) * step
    term = (ndtr(b) - ndtr(a)) * (1.0 + c * c)
    term -= b * _phi(b) - a * _phi(a)
    term -= 2.0 * c * (_phi(a) - _phi(b))
    return 2.0 * float(term.sum())


def _golden_min(f, lo, hi, tol=1e-12):
    """Golden-section minimizer for a unimodal scalar function."""
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    x1 = hi - invphi * (hi - lo)
    x2 = lo + invphi * (hi - lo)
    f1, f2 = f(x1), f(x2)
    while hi - lo > tol:
        if f1 < f2:
            hi, x2, f2 = x2, x1, f1
            x1 = hi - invphi * (hi - lo)
            f1 = f(x1)
        else:
            lo, x1, f1 = x1, x2, f2
            x2 = lo + invphi * (hi - lo)
            f2 = f(x2)
    return 0.5 * (lo + hi)


_cache = {}  # n_bits -> (step, alpha)


def _solve(n_bits):
    if n_bits not in _cache:
        lo = 0.5 * 2.0 ** (1 - n_bits)  # below any plausible optimum at this depth
        step = _golden_min(lambda s: quantizer_mse(s, n_bits), lo, 4.0)
        _cache[n_bits] = (step, quantizer_mse(step, n_bits))
    return _cache[n_bits]


def _check_bits(n_bits):
    if n_bits == math.inf:
        return math.inf
    if isinstance(n_bits, bool) or not math.isfinite(n_bits) or int(n_bits) != n_bits or not (1 <= n_bits <= _MAX_BITS):
        raise ValueError(f"n_bits must be an integer in 1..{_MAX_BITS} or math.inf, got {n_bits!r}")
    return int(n_bits)


def optimal_step(n_bits):
    """Step minimizing unit-Gaussian MSE for a 2^n_bits-level midrise quantizer."""
    n = _check_bits(n_bits)
    if n == math.inf:
        raise ValueError("step undefined at infinite resolution")
    return _solve(n)[0]


def alpha_of(n_bits):
    """Minimal relative distortion at n_bits; 0 at infinite resolution."""
    n = _check_bits(n_bits)
    if n == math.inf:
        return 0.0
    return _solve(n)[1]


def make_spec(n_bits):
    """QuantizerSpec at the MSE-optimal step for this resolution."""
    n = _check_bits(n_bits)
    if n == math.inf:
        return QuantizerSpec(math.inf, math.nan, 0.0)
    step, alpha = _solve(n)
    return QuantizerSpec(n, step, alpha)


def _quantize_real(x, step, half):
    idx = np.floor(x / step)  # boundary inputs round toward +inf
    np.clip(idx, -half, half - 1, out=idx)
    return (idx + 0.5) * step


def quantize(block, spec):
    """Quantize real and imaginary parts independently.

    The per-component step is spec.step / sqrt(2) so that the calibration
    matches a unit-power complex input (variance 1/2 per component).
    Infinite resolution returns the block unchanged.
    """
    if spec.n_bits == math.inf:
        return block
    y = block.samples
    step = spec.step / math.sqrt(2.0)
    half = 1 << (int(spec.n_bits) - 1)
    out = _quantize_real(y.real, step, half) + 1j * _quantize_real(y.imag, step, half)
    return ComplexSampleBlock(out, block.sample_rate)


def measure_alpha(input_block, output_block):
    """Empirical 1 - Re<out, in>/<in, in> over paired sample blocks."""
    x = input_block.samples
    y = output_block.samples
    if x.size != y.size:
        raise ValueError("length mismatch")
    return float(1.0 - np.real(np.vdot(x, y)) / np.real(np.vdot(x, x)))
