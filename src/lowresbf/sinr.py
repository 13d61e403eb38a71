"""Closed-form SINR under the additive quantization noise model.

One expression covers orthogonal (psi = 0) and SDMA (co-scheduled
streams, psi > 0) downlink streams; beside it sit its high-SNR ceiling
and the beta factor tying it back to the unquantized beamformed SINR.
All values are linear scale; inputs may be scalars or numpy arrays of
matching shape.  Callers bound their dB inputs (see ofdm.MAX_ABS_DB),
so no cap on the SNR is needed here.
"""

import numpy as np

__all__ = [
    "sinr_quantized",
    "sinr_saturation",
    "sdma_beta",
]


def sinr_quantized(g, G, psi, alpha):
    """Quantized SINR of a stream with psi*g of co-scheduled interference.

    (1-a)*g / (1 + (1-a)*psi*g + (psi+1)*(a/G)*g): the numerator keeps
    the correlated part of the quantizer output, the denominator adds the
    co-scheduled streams and the per-antenna distortion of every stream
    left after the combiner's gain G.  Plain broadcasting arrays, with no
    checks and no cap on g.  At alpha = 0 it is the unquantized
    beamformed SINR g / (1 + psi*g).
    """
    return (1.0 - alpha) * g / (1.0 + (1.0 - alpha) * psi * g + (psi + 1.0) * (alpha / G) * g)


def sinr_saturation(alpha, G):
    """High-SNR ceiling G*(1-alpha)/alpha of the orthogonal (psi = 0) expression."""
    if np.any(np.asarray(alpha) <= 0):
        raise ValueError("saturation is unbounded at alpha = 0")
    return G * (1.0 - alpha) / alpha


def sdma_beta(g, G, psi, alpha):
    """Effective distortion multiplier beta, always below 1/alpha.

    Satisfies sinr_quantized = (1 - alpha*beta) * g / (1 + psi*g);
    beta < 1 whenever G > 1 + 1/psi, i.e. quantization can cost less
    than a factor (1-alpha) when the combiner gain dominates.
    """
    num = 1.0 + (psi + 1.0) * g / G
    den = 1.0 + (1.0 - alpha) * psi * g + alpha * (psi + 1.0) * g / G
    return num / den
