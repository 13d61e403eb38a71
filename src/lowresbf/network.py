"""Multi-cell downlink Monte Carlo with low-resolution receive ADCs.

A drop places hexagonal cells over a square service area, drops users
uniformly, draws per-link LOS/NLOS/outage states and pathloss from an
urban 28 GHz model, and builds long-term channel covariances from a
few scattering clusters per link.  Both ends beamform along the
dominant covariance eigenvector.  Per TTI a proportional-fair OFDMA
scheduler (bandwidth shares) or a greedy SDMA scheduler (spatial
group, equal power split) allocates the resources, inter-cell
interference is accumulated from the other cells' active beams, and
quantized SINRs and rates are recorded per user.

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
# serving covariances, 64 KiB per user, with same-size temporaries in
# covariance_from_clusters and _dominant_eig; a 1445-user drop peaked at 450 MB RSS
# (a default drop: 42 cells, about 420 users, 175 MB)
MAX_UES_PER_DROP = 4096
# most user-cell links (users x _max_cells) a drop may expect: generate_layout holds
# per-link arrays and k_max-deep cluster arrays; at this bound 10 users over 26k sites
# (area_m 25900) peaked at 260 MB RSS, 155 MB above the import (a default drop: 175 MB)
MAX_LINKS_PER_DROP = 2 ** 18

_FINITE_FIELDS = (
    "area_m", "cell_radius_m", "bw_hz", "mean_ues_per_cell", "mean_extra_clusters", "cluster_spread_cos",
)


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
        for name in _FINITE_FIELDS:
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite")
        for name in ("area_m", "cell_radius_m", "bw_hz", "mean_ues_per_cell"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")
        if self.fixed_ue_count is not None and self.fixed_ue_count < 1:
            raise ValueError("fixed_ue_count must be at least 1 (None draws a Poisson count)")
        if self.scheduler not in SCHEDULERS:
            raise ValueError(f"scheduler must be one of {SCHEDULERS}")
        if self.n_beams_max < 1 or self.n_ttis < 1:
            raise ValueError("n_beams_max and n_ttis must be at least 1")
        if self.cluster_spread_cos < 0 or self.mean_extra_clusters < 0:
            raise ValueError("cluster parameters must be nonnegative")
        if not self.adc_bits or len(set(self.adc_bits)) != len(self.adc_bits):
            raise ValueError("adc_bits must list at least one width, each once")
        for b in self.adc_bits:
            quantizer._check_bits(b)
        if math.inf not in self.adc_bits:
            object.__setattr__(self, "adc_bits", (*self.adc_bits, math.inf))


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
    """
    p = np.asarray(powers, dtype=float)
    if np.any(p < 0):
        raise ValueError("cluster powers must be nonnegative")
    tot = p.sum(axis=-1, keepdims=True)
    if np.any(tot <= 0):
        raise ValueError("at least one cluster must carry power")
    p = p / tot
    a = _steering(shape, cos_uv[..., 0], cos_uv[..., 1])
    q = np.einsum("...k,...kn,...km->...nm", p, a, a.conj())
    return q * _spread_taper(shape, spread_cos)


def _draw_clusters(rng, batch_shape, mean_extra):
    n_cl = 1 + rng.poisson(mean_extra, batch_shape)
    k_max = int(n_cl.max(initial=1))  # a batch without links still gets one slot
    mask = np.arange(k_max)[(None,) * len(batch_shape)] < n_cl[..., None]
    powers = np.where(mask, rng.exponential(1.0, (*batch_shape, k_max)), 0.0)
    powers = powers / powers.sum(-1, keepdims=True)
    cos_tx = rng.uniform(-1.0, 1.0, (*batch_shape, k_max, 2))
    cos_rx = rng.uniform(-1.0, 1.0, (*batch_shape, k_max, 2))
    return powers, cos_tx, cos_rx


def _dominant_eig(q):
    """Unit-norm dominant eigenvector of each covariance, and its eigenvalue (the beam gain)."""
    lam, vec = np.linalg.eigh(q)
    # lowest index among numerically tied top eigenvalues, so isotropic
    # covariances resolve deterministically
    top = lam[..., -1:]
    first = np.argmax(lam >= top * (1.0 - 1e-12), axis=-1)
    idx = np.expand_dims(np.expand_dims(first, -1), -1)
    v = np.take_along_axis(vec, np.broadcast_to(idx, (*vec.shape[:-1], 1)), axis=-1)[..., 0]
    gain = np.take_along_axis(lam, first[..., None], axis=-1)[..., 0]
    return v, gain.real


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


def schedule_sdma_greedy(served_bits, gamma_est, coupling, member_ids, cfg):
    """Greedy spatial grouping: seed with the max PF weight, then admit
    the candidate with the best modeled sum-rate gain while it is
    strictly positive, up to n_beams_max beams.  Ties go to the lowest
    remaining candidate index.

    The sum-rate model splits power equally across the group and uses
    the group-recomputed leakage ratios; it is the quantized-SINR
    formula at the scheduler's resolution-blind operating point (the
    quantization terms drop out at infinite resolution).  All candidate
    groups of one admission round are scored in one batch.  Returns
    local indices into member_ids.
    """
    mem = np.asarray(member_ids, dtype=int)
    weights = _rate(gamma_est) / served_bits[mem]

    def sum_rates(grp):
        """Modeled sum rate of each row of grp, an (n_groups, k) index array."""
        gp = gamma_est[grp] / grp.shape[1]     # equal split of the transmit power
        sub = coupling[grp[:, :, None], grp[:, None, :]]
        psi = sub.sum(1) - np.diagonal(sub, axis1=1, axis2=2)
        s = gp / (1.0 + psi * gp)
        return _rate(s).sum(-1)

    group = [int(np.argmax(weights))]
    best = sum_rates(np.array([group]))[0]
    candidates = [i for i in range(mem.size) if i != group[0]]
    while len(group) < cfg.n_beams_max and candidates:
        grp = np.empty((len(candidates), len(group) + 1), dtype=int)
        grp[:, :-1] = group
        grp[:, -1] = candidates
        rates = sum_rates(grp)
        pick = int(np.argmax(rates))
        if rates[pick] <= best:
            break
        best = rates[pick]
        group.append(candidates.pop(pick))
    return np.array(sorted(group), dtype=int)


def rate_from_sinr(sinr_linear, w_hz):
    """Shannon rate with implementation loss, overhead, and an SE cap."""
    s = np.asarray(sinr_linear, dtype=float)
    if np.any(s < 0):
        raise ValueError("SINR must be nonnegative")
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


def _quadform_sum(a, beam, taper, powers):
    """Σ_c p_c · |beam^H (a_c a_c^H ⊙ T) beam| for batched cluster sets."""
    y = a.conj() * beam[..., None, :]
    q = ((y.conj() @ taper) * y).sum(-1).real
    return (powers * q).sum(-1)


def _cross_tables(drop, members, v_s, e_srv, u_s, cfg):
    """Cross-cell tables, dicts keyed by serving cell in members order: (y_inter, w_tx, coupling).

    y_inter[c] is cell c's pathloss-weighted pickup at every active
    user's beam, w_tx[c][k, j] the leakage of c's j-th member beam toward
    user k, and coupling[c] that leakage among c's members over the
    serving beam gain.  Rows of users in outage to c stay zero.  This is
    exact: every entry reaches the SINR only through a product with the
    link's gain 10^(-PL/10), which is 0.0 in outage (PL = inf), so a zero
    entry and a computed finite one both contribute exactly 0.  Each kept
    row is computed as in a dense table, so the results do not depend on
    how many rows are skipped.
    """
    n_act = len(drop.active_ue)
    t_tx = _spread_taper(BS_ARRAY, cfg.cluster_spread_cos)
    t_rx = _spread_taper(UE_ARRAY, cfg.cluster_spread_cos)
    y_inter, w_tx, coupling = {}, {}, {}
    for c, mem in members.items():
        pl_c = drop.pathloss_db[drop.active_ue, c]
        near = np.nonzero(np.isfinite(pl_c))[0]
        p_near = drop.cluster_powers[near, c]
        cos_rx = drop.cluster_cos_rx[near, c]
        a_rx = _steering(UE_ARRAY, cos_rx[..., 0], cos_rx[..., 1])
        w_rx_c = np.zeros(n_act)
        w_rx_c[near] = _quadform_sum(a_rx, u_s[near], t_rx, p_near)
        y_inter[c] = 10.0 ** (-pl_c / 10.0) * w_rx_c
        cos_tx = drop.cluster_cos_tx[near, c]
        a_tx = _steering(BS_ARRAY, cos_tx[..., 0], cos_tx[..., 1])
        w = w_tx[c] = np.zeros((n_act, mem.size))
        for j, m in enumerate(mem):
            w[near, j] = _quadform_sum(a_tx, v_s[m], t_tx, p_near)
        coupling[c] = (w[mem] / e_srv[mem][:, None]).T.copy()  # [beam j, user k]
    return y_inter, w_tx, coupling


def _tti_loop(cfg, interior_bs, members, signal, g_srv, y_inter, w_tx, coupling):
    """Schedule cfg.n_ttis TTIs: (lin_sinr, rate_sum, sched_cnt, beam_counts).

    lin_sinr and rate_sum sum each active user's scheduled SINR and rate,
    one row per width of cfg.adc_bits; sched_cnt counts each user's
    scheduled TTIs, and beam_counts the group size of every SDMA instance
    in an interior cell.  Interference is summed over cells in ascending order.
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

    for _ in range(cfg.n_ttis):
        gamma_est = signal / (n0 + i_lag)
        se_est = _rate(gamma_est)
        # per scheduled user: power divisor (group size), leakage ratio psi
        # and bandwidth; div = 0 marks a user not scheduled this TTI
        div, psi, bw, i_now = np.zeros((4, n_act))
        for c, mem in members.items():
            if sdma:
                gr = schedule_sdma_greedy(served_bits, gamma_est[mem], coupling[c], mem, cfg)
                if interior_bs[c]:
                    beam_counts.append(len(gr))
                contrib = (psd / len(gr)) * y_inter[c] * w_tx[c][:, gr].sum(1)
                sub = coupling[c][np.ix_(gr, gr)]
                div[mem[gr]] = len(gr)
                psi[mem[gr]] = sub.sum(0) - np.diag(sub)
                bw[mem[gr]] = cfg.bw_hz
            else:
                shares = schedule_ofdma_pf(served_bits, se_est[mem], mem, cfg.bw_hz)
                contrib = psd * y_inter[c] * (w_tx[c] @ (shares / cfg.bw_hz))
                div[mem] = 1.0
                bw[mem] = shares
            # this cell's beams interfere at every user it does not serve
            contrib[mem] = 0.0
            i_now += contrib

        gamma = signal / (n0 + i_now)
        sel = np.nonzero(div)[0]
        s = sinr_quantized(gamma[sel] / div[sel], g_srv[sel], psi[sel], alpha_rows)
        r = rate_from_sinr(s, bw[sel])
        lin_sinr[:, sel] += s
        rate_sum[:, sel] += r
        sched_cnt[sel] += 1
        served_bits[sel] += r[ref] * TTI_S
        i_lag = i_now
    return lin_sinr, rate_sum, sched_cnt, np.array(beam_counts, dtype=int)


def run_drop_detailed(cfg, seed):
    """One placement simulated for cfg.n_ttis TTIs; keeps beam usage."""
    drop = generate_layout(cfg, seed)
    act = drop.active_ue
    srv = drop.association[act]
    members = {c: np.nonzero(srv == c)[0] for c in np.unique(srv)}  # cells with users, ascending
    v_s, e_srv = _dominant_eig(drop.cov_tx)
    u_s, g_srv = _dominant_eig(drop.cov_rx)
    y_inter, w_tx, coupling = _cross_tables(drop, members, v_s, e_srv, u_s, cfg)
    # serving-link received power, TTI-invariant
    signal = _TX_POWER_MW / cfg.bw_hz * 10.0 ** (-drop.pathloss_db[act, srv] / 10.0) * e_srv * g_srv
    lin_sinr, rate_sum, sched_cnt, beam_counts = _tti_loop(
        cfg, drop.interior_bs, members, signal, g_srv, y_inter, w_tx, coupling)
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
    seeds = np.random.SeedSequence(seed).spawn(n_drops)
    return pool_map(run_drop_detailed, [(cfg, s) for s in seeds], n_jobs)
