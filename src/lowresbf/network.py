"""Multi-cell downlink Monte Carlo with low-resolution receive ADCs.

A drop places hexagonal cells over a square service area, drops users
uniformly, draws per-link LOS/NLOS/outage states and pathloss from an
urban 28 GHz model, and builds long-term channel covariances from a
few scattering clusters per link.  Both ends beamform along the
dominant covariance eigenvector.  Per TTI a proportional-fair OFDMA
scheduler (bandwidth shares) or a greedy SDMA scheduler (spatial
group, equal power split) allocates the resources, inter-cell
interference is accumulated from the other cells' active beams, and
quantized SINRs and rates are recorded per user.  Every cell of a TTI
is scheduled at once: the greedy SDMA admission runs all cells in
lockstep, each round scoring every remaining candidate of every
still-growing cell in one numpy pass, and one pass over padded
per-cell arrays sums the interference and records the groups.

The reference system is fixed by module constants: FC_HZ, BS_ARRAY,
UE_ARRAY, TX_POWER_DBM, NOISE_FIGURE_DB, TTI_S, OVERHEAD,
SHANNON_LOSS_DB and MAX_SE_BPS_HZ, plus the pathloss model's
LOS_*/NLOS_* intercepts, exponents and shadowing spreads and the
OUTAGE_DECAY_M, OUTAGE_MARGIN and LOS_DECAY_M of its link-state
probabilities.  NetworkConfig holds only what a run varies (seeds are
arguments); resolution is the axis the model studies, and its adc_bits
always hold math.inf, the reference row of every loss.

Schedulers are resolution-blind: they rank users on unquantized SINR
estimates, so runs at different ADC widths share schedules and the
AQNM dominance comparison is exact per user and TTI.  Resolution only
enters the recorded SINR/rate mapping; the PF history reads the inf
row.  Statistics should be read from interior cells; the finite area
has no wrap-around.
"""

import math
from dataclasses import dataclass
from enum import IntEnum

import numpy as np
from scipy.linalg import lapack

from . import quantizer
from .parallel import pool_map
from .sinr import sinr_quantized

__all__ = [
    "LinkState",
    "NetworkConfig",
    "NetworkDrop",
    "UeResult",
    "DropResult",
    "free_space_pathloss_db",
    "state_probabilities",
    "pathloss_db",
    "generate_layout",
    "covariance_from_clusters",
    "schedule_ofdma_pf",
    "schedule_sdma_greedy",
    "rate_from_sinr",
    "run_drop_detailed",
    "run_drops",
]

_C_M_S = 299792458.0
SCHEDULERS = ("OFDMA_PF", "SDMA_GREEDY")


class LinkState(IntEnum):
    LOS = 0
    NLOS = 1
    OUTAGE = 2


FC_HZ = 28e9
TX_POWER_DBM = 35.0
NOISE_FIGURE_DB = 8.0
MAX_SE_BPS_HZ = 7.4063
BS_ARRAY = (8, 8)
MAX_BEAMS = math.prod(BS_ARRAY)  # a BS forms at most one beam per antenna
UE_ARRAY = (4, 4)
TTI_S = 125e-6
OVERHEAD = 0.20
SHANNON_LOSS_DB = 3.0
# urban pathloss PL = a + 10·b·log10(d) + shadowing, from the published
# 28 GHz measurement fits, with distance-driven LOS/NLOS/outage state
# probabilities.  These are model assumptions, not ground truth;
# acceptance bands that depend on them are widened accordingly.
LOS_INTERCEPT_DB = 61.4
LOS_EXPONENT = 2.0
LOS_SHADOW_DB = 5.8
NLOS_INTERCEPT_DB = 72.0
NLOS_EXPONENT = 2.92
NLOS_SHADOW_DB = 8.7
OUTAGE_DECAY_M = 30.0
OUTAGE_MARGIN = 5.2
LOS_DECAY_M = 67.1
_TX_POWER_MW = 10.0 ** (TX_POWER_DBM / 10.0)
_NOISE_PSD_MW_HZ = 10.0 ** ((-174.0 + NOISE_FIGURE_DB) / 10.0)
# most users a drop may expect: the heaviest per-user arrays are the (64, 64) complex
# serving covariances, 64 KiB per user, and covariance_from_clusters' temporaries, then the
# n x n leakage table; at one BLAS thread, seed 7 and adc_bits (3, 4), a 4096-user OFDMA drop
# peaked at 583 MB RSS, 494 MB of it by the end of generate_layout, and a 1444-user drop
# (area_m 1889) at 302 MB (a default drop: 427 users, 109 MB)
MAX_UES_PER_DROP = 4096
# most user-cell links (users x _max_cells) a drop may expect: generate_layout holds
# per-link arrays and k_max-deep cluster arrays; at this bound 10 users over 26k sites
# (area_m 25900) peaked at 260 MB RSS, 155 MB above the import (a default drop: 175 MB)
MAX_LINKS_PER_DROP = 2 ** 18
# most (member, live cluster) rows _cross_tables multiplies in one gemm, 1 MiB
# of complex rows at 64 antennas, so a crowded cell needs no large temporaries
_GAIN_ROWS = 1024
# relative gap between a covariance's top two eigenvalues below which _dominant_eig
# takes the full eigh; over the 6 drops of a default cell preset run the smallest is 8e-4
_TIE_GAP = 1e-6

# each real field's rule for quantizer._check_real, read by validate_config's [cell] rows too
_REAL_FIELDS = {
    "area_m": quantizer._POSITIVE,
    "cell_radius_m": quantizer._POSITIVE,
    # 1 Hz keeps the top per-TTI SNR near 1e17 (35 dBm, 61.4 dB free space at 1 m, 64 x 16 beam gain,
    # -166 dBm/Hz noise); at 1e-300 Hz it overflows and the SINR is inf/inf = NaN.  A channel is no wider
    # than its carrier: at 1e308 Hz every SINR is near -3000 dB and every rate rounds to 0
    "bw_hz": (lambda v: 1 <= v <= FC_HZ, f"must be in [1 Hz, {FC_HZ / 1e9:g} GHz]"),
    "mean_ues_per_cell": quantizer._POSITIVE,
    # _draw_clusters holds 5 floats per (user, site, k_max) slot: at MAX_LINKS_PER_DROP links a mean of 16
    # (k_max 40) peaked at 493 MB RSS, seed 7 (a mean of 2: 208 MB); numpy's Poisson fails from 1e19
    "mean_extra_clusters": (lambda v: 0 <= v <= 16, "must be in [0, 16]"),
    # direction cosines span [-1, 1]: at 2, _spread_taper's first off-diagonal term exp(-pi^2 sigma^2 / 2)
    # is 2.7e-9 (below 1e-19 at 3), so a wider spread leaves the same white covariance
    "cluster_spread_cos": (lambda v: 0 <= v <= 2, "must be in [0, 2]"),
}


@dataclass(frozen=True)
class NetworkConfig:
    area_m: float = 1000.0
    cell_radius_m: float = 100.0
    bw_hz: float = 1e9
    mean_ues_per_cell: float = 10.0
    # ADC widths recorded on the same resolution-blind schedules, each once, plus math.inf
    adc_bits: tuple = (math.inf,)
    n_beams_max: int = 4
    scheduler: str = "OFDMA_PF"
    n_ttis: int = 200
    # cluster geometry: Poisson(mean_extra_clusters)+1 clusters per link,
    # exponential powers, each cluster spread as a Gaussian in direction
    # cosines (0 reproduces pure point clusters)
    mean_extra_clusters: float = 2.0
    cluster_spread_cos: float = 0.30
    # None draws Poisson(mean_ues_per_cell x n_bs) users; an int fixes the total
    fixed_ue_count: int = None

    def __post_init__(self):
        for name, rule in _REAL_FIELDS.items():
            quantizer._check_real(name, getattr(self, name), rule)
        quantizer._check_int("n_beams_max", self.n_beams_max, 1, MAX_BEAMS)
        quantizer._check_int("n_ttis", self.n_ttis, 1)
        if self.fixed_ue_count is not None:  # None draws a Poisson count
            quantizer._check_int("fixed_ue_count", self.fixed_ue_count, 1)
        if self.scheduler not in SCHEDULERS:
            raise ValueError(f"scheduler must be one of {SCHEDULERS}")
        quantizer._check_entries("adc_bits", self.adc_bits, quantizer._BITS)
        if len(set(self.adc_bits)) != len(self.adc_bits):
            raise ValueError("adc_bits must list each width once")
        bits = tuple(self.adc_bits)
        object.__setattr__(self, "adc_bits", bits if math.inf in bits else (*bits, math.inf))
        if oversized := _oversized_drop(self.area_m, self.cell_radius_m, self.mean_ues_per_cell, self.fixed_ue_count):
            raise ValueError(oversized.format(fixed="fixed_ue_count", mean="mean_ues_per_cell", area="area_m",
                                              radius="cell_radius_m"))


def _oversized_drop(area_m, radius_m, mean_ues_per_cell, fixed_ue_count):
    """Why a drop would break a size cap, with {fixed}, {mean}, {area} and {radius} for the caller's field names.

    It expects fixed_ue_count users (mean_ues_per_cell per _max_cells site if None), and a link per user and site.
    """
    cells = _max_cells(area_m, radius_m)
    users = mean_ues_per_cell * cells if fixed_ue_count is None else fixed_ue_count
    if fixed_ue_count is not None and users > MAX_UES_PER_DROP:
        return f"{{fixed}} must be at most {MAX_UES_PER_DROP} users per drop"
    if users > MAX_UES_PER_DROP:
        return (f"{{mean}} times the cells of {{area}} and {{radius}} (at most {cells:.0f}) "
                f"must be at most {MAX_UES_PER_DROP} users per drop")
    if users * cells > MAX_LINKS_PER_DROP:
        return (f"{{area}} and {{radius}} (at most {cells:.0f} cells) times {users:.0f} users "
                f"must be at most {MAX_LINKS_PER_DROP} links per drop")
    return None


@dataclass(frozen=True)
class NetworkDrop:
    """One placement with its pathloss (inf in outage), serving covariances,
    and the cluster geometry needed to evaluate cross-cell beam couplings."""

    bs_positions: np.ndarray
    ue_positions: np.ndarray
    pathloss_db: np.ndarray
    association: np.ndarray  # -1 when every link is in outage
    active_ue: np.ndarray    # indices of associated users
    cov_tx: np.ndarray       # (n_active, n_tx, n_tx), serving link
    cov_rx: np.ndarray
    cluster_powers: np.ndarray   # (n_active, n_bs, k_max)
    cluster_cos_tx: np.ndarray   # (n_active, n_bs, k_max, 2)
    cluster_cos_rx: np.ndarray
    interior_bs: np.ndarray


@dataclass(frozen=True)
class UeResult:
    ue_index: int
    serving_bs: int
    n_bits: float
    sinr_db: float      # time average of the scheduled linear SINR
    rate_bps: float
    interior: bool


@dataclass(frozen=True)
class DropResult:
    ue_results: list
    beam_counts: np.ndarray  # group size per interior scheduling instance


def free_space_pathloss_db(d_m, fc_hz):
    d = np.asarray(d_m, dtype=float)
    return 20.0 * np.log10(4.0 * np.pi * d * fc_hz / _C_M_S)


def state_probabilities(d_m):
    """(p_outage, p_los, p_nlos) at each distance."""
    d = np.asarray(d_m, dtype=float)
    p_out = np.maximum(0.0, 1.0 - np.exp(-d / OUTAGE_DECAY_M + OUTAGE_MARGIN))
    p_los = (1.0 - p_out) * np.exp(-d / LOS_DECAY_M)
    return p_out, p_los, 1.0 - p_out - p_los


def pathloss_db(d_m, state, rng):
    """Pathloss with shadowing for drawn link states; outage means +inf.

    The shadowed value is floored at free space for the carrier, which
    truncates the favorable half of the LOS shadowing distribution (the
    LOS intercept is the free-space value at 28 GHz).
    """
    d = np.asarray(d_m, dtype=float)
    st = np.asarray(state)
    if np.any(d <= 0):
        raise ValueError("distances must be positive")
    shadow = rng.standard_normal(d.shape)
    los = st == LinkState.LOS
    pl = np.where(
        los,
        LOS_INTERCEPT_DB + 10.0 * LOS_EXPONENT * np.log10(d) + LOS_SHADOW_DB * shadow,
        NLOS_INTERCEPT_DB + 10.0 * NLOS_EXPONENT * np.log10(d) + NLOS_SHADOW_DB * shadow,
    )
    pl = np.maximum(pl, free_space_pathloss_db(d, FC_HZ))
    return np.where(st == LinkState.OUTAGE, np.inf, pl)


def _max_cells(area_m, radius_m):
    """Upper bound on the sites _hex_grid places (rows x the longest row), without building them."""
    return ((area_m + 1e-9) / (1.5 * radius_m) + 1.0) * ((area_m + 1e-9) / (math.sqrt(3.0) * radius_m) + 1.0)


def _hex_grid(area_m, radius_m):
    pitch_x = math.sqrt(3.0) * radius_m
    pitch_y = 1.5 * radius_m
    pts = []
    row = 0
    while row * pitch_y <= area_m + 1e-9:
        x0 = pitch_x / 2 if row % 2 else 0.0
        for x in np.arange(x0, area_m + 1e-9, pitch_x):
            pts.append((x, row * pitch_y))
        row += 1
    return np.array(pts)


def _steering(shape, cos_u, cos_v):
    """Uniform planar array response, flattened to (..., rows*cols)."""
    m, n = shape
    p = np.arange(m)
    q = np.arange(n)
    phase = p[:, None] * np.asarray(cos_u)[..., None, None] + q[None, :] * np.asarray(cos_v)[..., None, None]
    return np.exp(1j * np.pi * phase).reshape(*np.shape(cos_u), m * n)


def _spread_taper(shape, sigma_cos):
    """Hadamard taper for a Gaussian cluster spread in direction cosines.

    Element-wise multiplying a point-cluster covariance by this kernel
    is exact for Gaussian-distributed cosine offsets: the (p,q) entry
    averages exp(jπ(p−q)δ) over δ ~ N(0, σ²).  Being a Schur product
    with a PSD Gaussian kernel it preserves PSD-ness, and the unit
    diagonal preserves the trace.
    """
    m, n = shape
    def axis(k):
        i = np.arange(k)
        return np.exp(-0.5 * (np.pi * sigma_cos) ** 2 * (i[:, None] - i[None, :]) ** 2)
    return np.kron(axis(m), axis(n))


def covariance_from_clusters(powers, cos_uv, shape, spread_cos):
    """Q = Σ_c p_c·a(θ_c)a(θ_c)^H, widened per cluster by spread_cos (0 keeps point clusters).

    powers: (..., k) nonnegative, normalized here so trace(Q) = n_ant.
    cos_uv: (..., k, 2) direction cosines in [-1, 1].

    Clusters past a set's last powered one add exact zeros to the sum
    over c, so each set is summed only up to that cluster, one einsum per
    depth; the padded slots of a drop's cluster arrays are skipped this way.
    """
    p = np.asarray(powers, dtype=float)
    if np.any(p < 0):
        raise ValueError("cluster powers must be nonnegative")
    tot = p.sum(axis=-1, keepdims=True)
    if np.any(tot <= 0):
        raise ValueError("at least one cluster must carry power")
    batch, k_max = p.shape[:-1], p.shape[-1]
    p = (p / tot).reshape(-1, k_max)
    cos_uv = np.reshape(cos_uv, (-1, k_max, 2))
    depth = k_max - np.argmax(p[:, ::-1] > 0, axis=-1)
    n_ant = math.prod(shape)
    q = np.empty((len(p), n_ant, n_ant), dtype=complex)
    for k in np.unique(depth):
        sets = np.nonzero(depth == k)[0]
        a = _steering(shape, cos_uv[sets, :k, 0], cos_uv[sets, :k, 1])
        q[sets] = np.einsum("...k,...kn,...km->...nm", p[sets, :k], a, a.conj())
    q *= _spread_taper(shape, spread_cos)
    return q.reshape(*batch, n_ant, n_ant)


def _draw_clusters(rng, batch_shape, mean_extra):
    n_cl = 1 + rng.poisson(mean_extra, batch_shape)
    k_max = int(n_cl.max(initial=1))  # a batch without links still gets one slot
    # each link's live slots are a prefix of its row; the rest carry zero power
    mask = np.arange(k_max)[(None,) * len(batch_shape)] < n_cl[..., None]
    powers = np.where(mask, rng.exponential(1.0, (*batch_shape, k_max)), 0.0)
    powers = powers / powers.sum(-1, keepdims=True)
    cos_tx = rng.uniform(-1.0, 1.0, (*batch_shape, k_max, 2))
    cos_rx = rng.uniform(-1.0, 1.0, (*batch_shape, k_max, 2))
    return powers, cos_tx, cos_rx


def _eigh_dominant(q):
    """_dominant_eig's beam and gain for one covariance q through a full eigh, for near-tied top pairs."""
    lam, vec = np.linalg.eigh(q)
    # lowest index among numerically tied top eigenvalues, so isotropic
    # covariances resolve deterministically
    first = np.argmax(lam >= lam[-1] * (1.0 - 1e-12))
    return vec[:, first], lam[first]


def _dominant_eig(q):
    """Unit-norm dominant eigenvector of each covariance, and its eigenvalue (the beam gain).

    LAPACK's selected-eigenpair driver (zheevx) solves only the top two
    eigenpairs of each (n, n) matrix.  Where the second eigenvalue is within
    _TIE_GAP of the top, relative, the matrix goes through the full eigh
    (_eigh_dominant) instead, which picks the lowest index among eigenvalues
    >= top * (1 - 1e-12): tied and near-tied matrices resolve exactly as a
    full eigh does, and an isotropic covariance gives basis vector 0.
    Elsewhere the beam v and gain agree with the full eigh's to
    1 - |<v, v_eigh>| <= 1e-12 and a relative 1e-12 (measured: 2e-15 on a
    default drop), and the beam's phase is arbitrary, as eigh's is.
    """
    n = q.shape[-1]
    mats = q.reshape(-1, n, n)
    v = np.empty(mats.shape[:-1], dtype=complex)
    gain = np.empty(len(mats))
    lwork = int(lapack.zheevx_lwork(n, lower=1)[0].real)  # blocked back-transform, faster with BLAS threads
    for i, m in enumerate(mats):
        w, z, _, _, info = lapack.zheevx(m, range="I", il=n - 1, iu=n, lower=1, lwork=lwork)
        if info != 0:
            raise np.linalg.LinAlgError(f"zheevx failed on covariance {i} (info {info})")
        if w[0] >= w[1] * (1.0 - _TIE_GAP):
            v[i], gain[i] = _eigh_dominant(m)
        else:
            v[i], gain[i] = z[:, 1], w[1]
    return v.reshape(q.shape[:-1]), gain.reshape(q.shape[:-2])


def schedule_ofdma_pf(served_bits, spectral_effs, member_ids, bw_hz):
    """Proportional-fair bandwidth split: weight = SE / served bits.

    served_bits holds the cumulative scheduled data of every active user.

    Returns absolute allocations that sum to bw_hz exactly.
    """
    mem = np.asarray(member_ids, dtype=int)
    if mem.size == 0:
        return np.zeros(0)
    w = np.asarray(spectral_effs, dtype=float) / served_bits[mem]
    tot = w.sum()
    frac = w / tot if tot > 0 else np.full(mem.size, 1.0 / mem.size)
    shares = frac * bw_hz
    shares[np.argmax(shares)] += bw_hz - shares.sum()  # close the float gap
    return shares


def _rate(sinr_linear, w_hz=1.0):
    """Rate (1 - overhead) * w * min(cap, log2(1 + s/L)); per Hz at the default w_hz."""
    se = np.minimum(MAX_SE_BPS_HZ, np.log2(1.0 + sinr_linear / 10.0 ** (SHANNON_LOSS_DB / 10.0)))
    return (1.0 - OVERHEAD) * w_hz * se


def _group_leakage(coupling, cell, grp):
    """Leakage ratio of each slot of grp, (n_groups, k) slots of cell[row]: the other beams toward its user."""
    sub = coupling[cell[:, None, None], grp[:, :, None], grp[:, None, :]]
    return sub.sum(1) - np.diagonal(sub, axis1=1, axis2=2)


def _sum_rates(gamma, coupling, cell, grp):
    """Modeled sum rate of each row of grp, an (n_groups, k) array of slots of cell[row]."""
    gp = gamma[cell[:, None], grp] / grp.shape[1]     # equal split of the transmit power
    psi = _group_leakage(coupling, cell, grp)
    s = gp / (1.0 + psi * gp)
    return _rate(s).sum(-1)


def _greedy_lockstep(weights, gamma, coupling, slots, n_beams_max):
    """Greedy SDMA groups of a batch of cells, all admission rounds in lockstep.

    Returns an (n_cells, m) mask of the admitted slots.  slots[c] lists
    cell c's members as indices into weights (PF weights) and gamma (SINR
    estimates), padded with len(gamma); coupling[c, j, k] is the leakage
    of slot j's beam toward slot k's user over that user's serving gain.
    Each round scores every remaining candidate of every still-growing
    cell at once, with the cell's group in admission order and the
    candidate last; masked slots score -inf, so ties go to the lowest slot.
    """
    n_cells, m = slots.shape
    gain = np.append(gamma, 0.0)[slots]
    member = slots < len(gamma)
    free = member.copy()
    n_mem = member.sum(1)
    rows = np.arange(n_cells)
    group = np.empty((n_cells, min(n_beams_max, m)), dtype=int)
    group[:, 0] = np.argmax(np.append(weights, -np.inf)[slots], axis=1)
    free[rows, group[:, 0]] = False
    best = _sum_rates(gain, coupling, rows, group[:, :1])
    grow = rows
    for k in range(1, group.shape[1]):
        grow = grow[n_mem[grow] > k]  # cells with a candidate left
        if grow.size == 0:
            break
        at, slot = np.nonzero(free[grow])
        grp = np.empty((at.size, k + 1), dtype=int)
        grp[:, :k] = group[grow[at], :k]
        grp[:, k] = slot
        score = np.full((grow.size, m), -np.inf)
        score[at, slot] = _sum_rates(gain, coupling, grow[at], grp)
        pick = np.argmax(score, axis=1)
        rate = score[np.arange(grow.size), pick]
        admit = ~(rate <= best[grow])  # a cell stops once its best candidate's rate is <= its group's
        grow, pick = grow[admit], pick[admit]
        best[grow] = rate[admit]
        group[grow, k] = pick
        free[grow, pick] = False
    return member & ~free


def schedule_sdma_greedy(served_bits, gamma_est, coupling, member_ids, cfg):
    """Greedy spatial grouping: seed with the max PF weight, then admit
    the candidate with the best modeled sum-rate gain while it is
    strictly positive, up to n_beams_max beams.  Ties go to the lowest
    remaining candidate index.

    The sum-rate model splits power equally across the group and uses
    the group-recomputed leakage ratios; it is the quantized-SINR
    formula at the scheduler's resolution-blind operating point (the
    quantization terms drop out at infinite resolution).  This is one
    cell of the lockstep batch the drop runs.  Returns local indices
    into member_ids, ascending.
    """
    mem = np.asarray(member_ids, dtype=int)
    if mem.size == 0:
        return np.zeros(0, dtype=int)
    chosen = _greedy_lockstep(_rate(gamma_est) / served_bits[mem], gamma_est, coupling[None],
                              np.arange(mem.size)[None], cfg.n_beams_max)
    return np.nonzero(chosen[0])[0]


def rate_from_sinr(sinr_linear, w_hz):
    """Shannon rate with implementation loss, overhead, and an SE cap."""
    s = np.asarray(sinr_linear, dtype=float)
    if not np.all(s >= 0):  # NaN fails this too
        raise ValueError("SINR must be nonnegative")
    w = np.asarray(w_hz, dtype=float)
    if not np.all((w >= 0) & (w < math.inf)):
        raise ValueError("w_hz must be nonnegative and finite")
    return _rate(s, w_hz)


def generate_layout(cfg, seed):
    """Hexagonal sites, uniform user drop, link states, pathloss, and
    serving-link covariances.  Deterministic given the seed."""
    rng = np.random.default_rng(seed)
    bs = _hex_grid(cfg.area_m, cfg.cell_radius_m)
    n_bs = len(bs)
    n_ue = cfg.fixed_ue_count if cfg.fixed_ue_count is not None else rng.poisson(cfg.mean_ues_per_cell * n_bs)
    ue = rng.uniform(0.0, cfg.area_m, (n_ue, 2))

    d = np.hypot(ue[:, 0, None] - bs[None, :, 0], ue[:, 1, None] - bs[None, :, 1])
    d = np.maximum(d, 1.0)  # model fits are not meant below a meter
    p_out, p_los, _ = state_probabilities(d)
    u01 = rng.random((n_ue, n_bs))
    state = np.where(u01 < p_out, LinkState.OUTAGE, np.where(u01 < p_out + p_los, LinkState.LOS, LinkState.NLOS))
    pl = pathloss_db(d, state, rng)

    gain = 10.0 ** (-pl / 10.0)
    association = np.where(np.isfinite(pl).any(axis=1), np.argmax(gain, axis=1), -1)
    active = np.nonzero(association >= 0)[0]

    powers, cos_tx, cos_rx = _draw_clusters(rng, (len(active), n_bs), cfg.mean_extra_clusters)
    sel = (np.arange(len(active)), association[active])
    cov_tx = covariance_from_clusters(powers[sel], cos_tx[sel], BS_ARRAY, cfg.cluster_spread_cos)
    cov_rx = covariance_from_clusters(powers[sel], cos_rx[sel], UE_ARRAY, cfg.cluster_spread_cos)

    ring = math.sqrt(3.0) * cfg.cell_radius_m
    interior = (
        (bs[:, 0] >= ring) & (bs[:, 0] <= cfg.area_m - ring) & (bs[:, 1] >= ring) & (bs[:, 1] <= cfg.area_m - ring)
    )
    return NetworkDrop(
        bs_positions=bs,
        ue_positions=ue,
        pathloss_db=pl,
        association=association,
        active_ue=active,
        cov_tx=cov_tx,
        cov_rx=cov_rx,
        cluster_powers=powers,
        cluster_cos_tx=cos_tx,
        cluster_cos_rx=cos_rx,
        interior_bs=interior,
    )


def _cluster_gains(y, taper, one_row):
    """beam^H (a a^H ⊙ T) beam, as Re y^H T y for each row y = conj(a) ⊙ beam of y.

    numpy multiplies a one-row operand on gemv and a taller one on gemm,
    whose rows do not depend on how many there are.  one_row sends every
    row through gemv on its own; otherwise the rows are one gemm, a lone
    row padded to two.
    """
    if one_row:
        z = (y[:, None].conj() @ taper)[:, 0]
    else:
        z = (np.repeat(y, 2, axis=0) if len(y) == 1 else y).conj() @ taper
    return (z[:len(y)] * y).sum(-1).real


def _member_slots(members, n_act):
    """Each cell's members in members order, one row per cell, padded with n_act
    to one slot past the largest cell, so every row ends in a padding slot."""
    slots = np.full((len(members), max((mem.size for mem in members.values()), default=0) + 1), n_act)
    for i, mem in enumerate(members.values()):
        slots[i, :mem.size] = mem
    return slots


def _cross_tables(drop, members, v_s, e_srv, u_s, cfg):
    """Cross-cell tables, one row per serving cell in members order: (pickup, leak, coupling).

    pickup[i] is the i-th cell's pathloss-weighted pickup at every active
    user's beam, 0 at its own members (a cell's beams interfere only at
    users it does not serve); leak[k, j] the leakage toward user k of the
    serving beam of the j-th user in members order (each cell's members in
    turn, so a cell's columns are contiguous), with a zero last column for
    padding slots; and
    coupling[i, j, k] that leakage among the slots of _member_slots, from
    slot j's beam toward slot k's user over the serving beam gain, zero on
    padding slots.  Rows of users in outage to a cell stay zero.  This is
    exact: every entry reaches the SINR only through a product with the
    link's gain 10^(-PL/10), which is 0.0 in outage (PL = inf), so a zero
    entry and a computed finite one both contribute exactly 0.  Each kept
    row is computed as in a dense table, so the results do not depend on
    how many rows are skipped.

    Only powered cluster slots are computed, and that is exact as well.
    _draw_clusters pads every link to the drop's k_max slots, its live ones
    a prefix; a zero-power slot adds p·q = 0 to a link's sum over clusters.
    Each cell takes the live (near user, cluster) rows only, evaluates the
    beam gains of all its members on them in gemms of up to _GAIN_ROWS rows
    (_cluster_gains), scatters them into zeros of the padded (member, near
    user, k_max) shape, and sums over that padded width, so numpy's
    pairwise sum groups the terms as it would over every slot.  A gemm row
    does not depend on how many rows the call has, once it has two, so each
    gain equals that of one link's (k_max, n_ant) product; at k_max = 1
    that product is a gemv, and so every row then goes through gemv.
    """
    n_act = len(drop.active_ue)
    one_row = drop.cluster_powers.shape[-1] == 1
    t_tx = _spread_taper(BS_ARRAY, cfg.cluster_spread_cos)
    t_rx = _spread_taper(UE_ARRAY, cfg.cluster_spread_cos)
    width = _member_slots(members, n_act).shape[1]
    pickup = np.zeros((len(members), n_act))
    leak = np.zeros((n_act, n_act + 1))
    coupling = np.zeros((len(members), width, width))
    hi = 0
    for i, (c, mem) in enumerate(members.items()):
        lo, hi = hi, hi + mem.size  # the cell's leak columns
        pl_c = drop.pathloss_db[drop.active_ue, c]
        near = np.nonzero(np.isfinite(pl_c))[0]
        p_near = drop.cluster_powers[near, c]
        at, k = np.nonzero(p_near > 0)  # live (near user, cluster) rows
        ue = near[at]
        cos_rx = drop.cluster_cos_rx[ue, c, k]
        a_rx = _steering(UE_ARRAY, cos_rx[:, 0], cos_rx[:, 1]).conj()
        q = np.zeros(p_near.shape)
        q[at, k] = _cluster_gains(a_rx * u_s[ue], t_rx, one_row)
        w_rx_c = np.zeros(n_act)
        w_rx_c[near] = (p_near * q).sum(-1)
        pickup[i] = 10.0 ** (-pl_c / 10.0) * w_rx_c
        pickup[i, mem] = 0.0
        cos_tx = drop.cluster_cos_tx[ue, c, k]
        a_tx = _steering(BS_ARRAY, cos_tx[:, 0], cos_tx[:, 1]).conj()
        q = np.zeros((mem.size, *p_near.shape))
        step = max(1, _GAIN_ROWS // len(at))
        for j in range(0, mem.size, step):
            y = (a_tx * v_s[mem[j:j + step], None]).reshape(-1, a_tx.shape[-1])
            q[j:j + step, at, k] = _cluster_gains(y, t_tx, one_row).reshape(-1, len(at))
        leak[near, lo:hi] = (p_near * q).sum(-1).T
        coupling[i, :mem.size, :mem.size] = (leak[mem, lo:hi] / e_srv[mem][:, None]).T
    return pickup, leak, coupling


def _tti_loop(cfg, interior_bs, members, signal, g_srv, pickup, leak, coupling):
    """Schedule cfg.n_ttis TTIs: (lin_sinr, rate_sum, sched_cnt, beam_counts).

    Every cell of a TTI is scheduled at once: SDMA runs the greedy
    admission rounds of all cells in lockstep (_greedy_lockstep), and
    OFDMA splits each cell's band in turn.  lin_sinr and rate_sum sum
    each active user's scheduled SINR and rate, one row per width of
    cfg.adc_bits; sched_cnt counts each user's scheduled TTIs, and
    beam_counts the group size of every SDMA instance in an interior
    cell.  Interference is summed over cells in ascending order.
    """
    n_act = len(signal)
    # one row per ADC width; the infinite-resolution row (alpha = 0, exactly
    # the unquantized SINR) feeds the PF history
    alpha_rows = np.array([quantizer.alpha_of(b) for b in cfg.adc_bits])[:, None]
    ref = cfg.adc_bits.index(math.inf)
    psd, n0 = _TX_POWER_MW / cfg.bw_hz, _NOISE_PSD_MW_HZ
    served_bits = np.full(n_act, 1.0)
    lin_sinr, rate_sum = np.zeros((2, len(cfg.adc_bits), n_act))
    sched_cnt = np.zeros(n_act)
    beam_counts = []
    i_lag = np.zeros(n_act)
    sdma = cfg.scheduler == "SDMA_GREEDY"
    slots = _member_slots(members, n_act)
    rows = np.arange(len(slots))
    interior = interior_bs[list(members)]
    # leak's columns run over members in order (_cross_tables): cell i's are
    # edges[i]:edges[i + 1], and col maps a user, or the padding slot n_act, to its column
    edges = np.cumsum([0, *(mem.size for mem in members.values())])
    col = np.argsort(np.concatenate([*members.values(), [n_act]]))  # the inverse permutation

    for _ in range(cfg.n_ttis):
        gamma_est = signal / (n0 + i_lag)
        se_est = _rate(gamma_est)
        # per scheduled user: power divisor (group size), leakage ratio psi
        # and bandwidth; div = 0 marks a user not scheduled this TTI
        div, psi, bw = np.zeros((3, n_act))
        if sdma:
            chosen = _greedy_lockstep(se_est / served_bits, gamma_est, coupling, slots, cfg.n_beams_max)
            size = chosen.sum(1)
            beam_counts.append(size[interior])
            # each cell's group, ascending, padded with the row's last slot (always padding)
            pad = slots.shape[1] - 1
            grp = np.sort(np.where(chosen, np.arange(pad + 1), pad), axis=1)[:, :size.max(initial=0)]
            ids = np.take_along_axis(slots, grp, axis=1)
            on = ids < n_act
            div[ids[on]] = np.repeat(size, size)
            psi[ids[on]] = _group_leakage(coupling, rows, grp)[on]
            bw[ids[on]] = cfg.bw_hz
            contrib = (psd / size[:, None]) * pickup * leak[:, col[ids]].sum(-1).T
        else:
            beams = np.empty((len(slots), n_act))  # each cell's bandwidth-weighted beam leakage
            for i, mem in enumerate(members.values()):
                shares = schedule_ofdma_pf(served_bits, se_est[mem], mem, cfg.bw_hz)
                beams[i] = leak[:, edges[i]:edges[i + 1]] @ (shares / cfg.bw_hz)
                bw[mem] = shares
            div[:] = 1.0  # every active user is a member of some cell
            contrib = psd * pickup * beams
        i_now = contrib.sum(0)

        gamma = signal / (n0 + i_now)
        sel = np.nonzero(div)[0]
        s = sinr_quantized(gamma[sel] / div[sel], g_srv[sel], psi[sel], alpha_rows)
        r = rate_from_sinr(s, bw[sel])
        lin_sinr[:, sel] += s
        rate_sum[:, sel] += r
        sched_cnt[sel] += 1
        served_bits[sel] += r[ref] * TTI_S
        i_lag = i_now
    return lin_sinr, rate_sum, sched_cnt, np.array(beam_counts, dtype=int).ravel()


def run_drop_detailed(cfg, seed):
    """One placement simulated for cfg.n_ttis TTIs; keeps beam usage."""
    drop = generate_layout(cfg, seed)
    act = drop.active_ue
    srv = drop.association[act]
    members = {c: np.nonzero(srv == c)[0] for c in np.unique(srv)}  # cells with users, ascending
    v_s, e_srv = _dominant_eig(drop.cov_tx)
    u_s, g_srv = _dominant_eig(drop.cov_rx)
    pickup, leak, coupling = _cross_tables(drop, members, v_s, e_srv, u_s, cfg)
    # serving-link received power, TTI-invariant
    signal = _TX_POWER_MW / cfg.bw_hz * 10.0 ** (-drop.pathloss_db[act, srv] / 10.0) * e_srv * g_srv
    lin_sinr, rate_sum, sched_cnt, beam_counts = _tti_loop(
        cfg, drop.interior_bs, members, signal, g_srv, pickup, leak, coupling)
    interior_ue = drop.interior_bs[srv]
    results = [
        UeResult(ue_index=int(act[s]), serving_bs=int(srv[s]), n_bits=b,
                 sinr_db=10.0 * math.log10(lin_sinr[ai, s] / sched_cnt[s]) if sched_cnt[s] > 0 else math.nan,
                 rate_bps=rate_sum[ai, s] / cfg.n_ttis, interior=bool(interior_ue[s]))
        for ai, b in enumerate(cfg.adc_bits) for s in range(len(act))
    ]
    return DropResult(ue_results=results, beam_counts=beam_counts)


def run_drops(cfg, n_drops, seed, n_jobs=1):
    """Independent drops with spawned RNG substreams.

    Results are identical for any n_jobs: drop i always uses the i-th
    child of SeedSequence(seed).
    """
    quantizer._check_int("n_drops", n_drops, 1)
    quantizer._check_int("n_jobs", n_jobs, 1)
    seeds = np.random.SeedSequence(seed).spawn(n_drops)
    return pool_map(run_drop_detailed, [(cfg, s) for s in seeds], n_jobs)
