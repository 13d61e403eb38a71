"""Closed-form SINR under the additive quantization noise model.

Orthogonal (one stream per resource) and SDMA (multiple co-scheduled
streams) downlink expressions, their saturation limits, and the beta
factor tying the quantized SINR back to the unquantized beamformed
SINR.  All values are linear scale; inputs may be scalars or numpy
arrays of matching shape.
"""

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "GAMMA_CAP",
    "LinkQuality",
    "sinr_beamformed",
    "sinr_quantized",
    "sinr_orthogonal_quantized",
    "sinr_saturation",
    "sinr_sdma_quantized",
    "sdma_beta",
    "quantization_noise_variance",
]

# Finite stand-in for "gamma -> infinity" so saturation checks stay total.
GAMMA_CAP = 1e12


@dataclass(frozen=True)
class LinkQuality:
    """Per-stream SNR gamma_prime, receive gain bf_gain, interference ratio psi.

    psi is the total co-scheduled interference power divided by the
    desired stream power (SIR = 1/psi).  gamma_prime is capped at
    GAMMA_CAP to keep the formulas total at the infinite-SNR limit.
    """

    gamma_prime: object
    bf_gain: object
    psi: object = 0.0

    def __post_init__(self):
        g = np.minimum(np.asarray(self.gamma_prime, dtype=float), GAMMA_CAP)
        G = np.asarray(self.bf_gain, dtype=float)
        p = np.asarray(self.psi, dtype=float)
        if np.any(g < 0):
            raise ValueError("gamma_prime must be nonnegative")
        if np.any(G < 1):
            raise ValueError("bf_gain must be >= 1")
        if np.any(p < 0):
            raise ValueError("psi must be nonnegative")
        object.__setattr__(self, "gamma_prime", g if g.ndim else float(g))
        object.__setattr__(self, "bf_gain", G if G.ndim else float(G))
        object.__setattr__(self, "psi", p if p.ndim else float(p))


def sinr_beamformed(gammas, k):
    """Stream k's SINR when all listed streams share the resource.

    gamma_k / (1 + sum of the other gammas).
    """
    g = np.asarray(gammas, dtype=float)
    if g.size == 0:
        raise ValueError("empty stream list")
    if not (0 <= k < g.size):
        raise ValueError("stream index out of range")
    return float(g[k] / (1.0 + g.sum() - g[k]))


def sinr_quantized(g, G, psi, alpha):
    """Quantized SINR of a stream with psi*g of co-scheduled interference.

    (1-a)*g / (1 + (1-a)*psi*g + (psi+1)*(a/G)*g): the numerator keeps
    the correlated part of the quantizer output, the denominator adds the
    co-scheduled streams and the per-antenna distortion of every stream
    left after the combiner's gain G.  Plain broadcasting arrays, with no
    checks and no cap on g.
    """
    return (1.0 - alpha) * g / (1.0 + (1.0 - alpha) * psi * g + (psi + 1.0) * (alpha / G) * g)


def sinr_orthogonal_quantized(gamma_bf, alpha, G):
    """Quantized SINR for orthogonal transmission.

    (1-alpha)*gamma / (1 + (alpha/G)*gamma), which is sinr_quantized at
    psi = 0 exactly: the psi terms add an exact 0.0 and multiply by 1.0.
    """
    return sinr_quantized(np.minimum(gamma_bf, GAMMA_CAP), G, 0.0, alpha)


def sinr_saturation(alpha, G):
    """High-SNR ceiling G*(1-alpha)/alpha of the orthogonal expression."""
    if np.any(np.asarray(alpha) <= 0):
        raise ValueError("saturation is unbounded at alpha = 0")
    return G * (1.0 - alpha) / alpha


def sinr_sdma_quantized(q, alpha):
    """sinr_quantized on the fields of a checked, capped LinkQuality q."""
    return sinr_quantized(q.gamma_prime, q.bf_gain, q.psi, alpha)


def sdma_beta(q, alpha):
    """Effective distortion multiplier beta, always below 1/alpha.

    Satisfies sinr_sdma_quantized = (1 - alpha*beta) * unquantized SDMA
    SINR; beta < 1 whenever G > 1 + 1/psi, i.e. quantization can cost
    less than a factor (1-alpha) when the combiner gain dominates.
    """
    g, G, psi = q.gamma_prime, q.bf_gain, q.psi
    num = 1.0 + (psi + 1.0) * g / G
    den = 1.0 + (1.0 - alpha) * psi * g + alpha * (psi + 1.0) * g / G
    return num / den


def quantization_noise_variance(signal_energies, noise_var, icv, alpha):
    """Distortion power alpha*(1-alpha) times the total power at the quantizer.

    signal_energies lists the received per-stream powers; noise_var and
    icv are the thermal and inter-cell contributions on the same scale.
    """
    total = float(np.sum(signal_energies)) + noise_var + icv
    if total < 0 or alpha < 0:
        raise ValueError("negative power input")
    return alpha * (1.0 - alpha) * total
