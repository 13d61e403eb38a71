"""Uniform midrise quantizer and its additive-noise-model parameters.

The quantizer output for a Gaussian input y decomposes as
Q(y) = (1 - alpha) * y + v with v nearly uncorrelated with y, where
alpha is the relative mean-square distortion of the MSE-optimal
uniform quantizer at the given resolution.  Every downstream model
(link SINR, EVM, spectral floors) consumes alpha and the step size
computed here.
"""

import functools
import math
import numbers
from dataclasses import dataclass

import numpy as np
from scipy.special import ndtr  # standard normal CDF, vectorized

__all__ = [
    "ComplexSampleBlock",
    "quantizer_mse",
    "optimal_step",
    "alpha_of",
    "quantize",
]

_MAX_BITS = 16


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
    n = int(_check_real("n_bits", n_bits, _FINITE_BITS))
    half = 1 << (n - 1)
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


@functools.cache
def _solve(n_bits):
    """(step, alpha) at n_bits."""
    lo = 0.5 * 2.0 ** (1 - n_bits)  # below any plausible optimum at this depth
    step = _golden_min(lambda s: quantizer_mse(s, n_bits), lo, 4.0)
    return step, quantizer_mse(step, n_bits)


def _check_int(name, v, lo, hi=None):
    """v if an integer (numpy's too, never a bool) in lo..hi, hi None for no bound; else a ValueError naming it."""
    if isinstance(v, bool) or not isinstance(v, numbers.Integral) or v < lo or (hi is not None and v > hi):
        bounds = f"of at least {lo}" if hi is None else f"in {lo}..{hi}"
        raise ValueError(f"{name} must be an integer {bounds}, got {v!r}")
    return v


# real-number rules, (test, what a violation says after the name), for _check_real
_POSITIVE = (lambda v: 0 < v < math.inf, "must be positive and finite")
_NONNEGATIVE = (lambda v: 0 <= v < math.inf, "must be nonnegative and finite")
_FINITE_BITS = (lambda v: v in range(1, _MAX_BITS + 1), f"must be an integer in 1..{_MAX_BITS}")
_BITS = (lambda v: v == math.inf or _FINITE_BITS[0](v), f"{_FINITE_BITS[1]} or math.inf")


def _check_real(name, v, rule):
    """v if a real number (numpy's too, never a bool) that passes rule = (test, text); else a ValueError naming it."""
    if isinstance(v, bool) or not isinstance(v, numbers.Real) or not rule[0](v):
        raise ValueError(f"{name} {rule[1]}, got {v!r}")
    return v


def _check_entries(name, seq, rule):
    """A ValueError unless seq is a non-empty tuple or list whose every entry passes _check_real as "<name> entry"."""
    if not isinstance(seq, (tuple, list)) or not seq:
        raise ValueError(f"{name} must be a non-empty tuple or list, got {seq!r}")
    for v in seq:
        _check_real(f"{name} entry", v, rule)


def _check_bits(n_bits):
    """A converter width, int(n_bits) in 1.._MAX_BITS (integral floats too) or math.inf; else a ValueError naming it."""
    return math.inf if _check_real("n_bits", n_bits, _BITS) == math.inf else int(n_bits)


def optimal_step(n_bits):
    """Step minimizing unit-Gaussian MSE for a 2^n_bits-level midrise quantizer; finite n_bits only."""
    return _solve(int(_check_real("n_bits", n_bits, _FINITE_BITS)))[0]


def alpha_of(n_bits):
    """Minimal relative distortion at n_bits; 0 at infinite resolution."""
    n = _check_bits(n_bits)
    if n == math.inf:
        return 0.0
    return _solve(n)[1]


def _quantize_real(x, step, half):
    idx = np.floor(x / step)  # boundary inputs round toward +inf
    np.clip(idx, -half, half - 1, out=idx)
    return (idx + 0.5) * step


def quantize(block, n_bits):
    """Quantize real and imaginary parts independently at n_bits.

    The per-component step is optimal_step(n_bits) / sqrt(2) so that the
    calibration matches a unit-power complex input (variance 1/2 per
    component).  Infinite resolution returns the block unchanged.
    """
    n = _check_bits(n_bits)
    if n == math.inf:
        return block
    y = block.samples
    step = _solve(n)[0] / math.sqrt(2.0)
    half = 1 << (n - 1)
    out = _quantize_real(y.real, step, half) + 1j * _quantize_real(y.imag, step, half)
    return ComplexSampleBlock(out, block.sample_rate)
