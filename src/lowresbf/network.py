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

Schedulers are resolution-blind: they rank users on unquantized SINR
estimates, so runs at different ADC widths share schedules and the
AQNM dominance comparison is exact per user and TTI.  Resolution only
enters the recorded SINR/rate mapping.  Statistics should be read
from interior cells; the finite area has no wrap-around.
"""

import math
from dataclasses import dataclass, field
from enum import IntEnum

import numpy as np

from . import quantizer
from .parallel import pool_map
from .sinr import sinr_quantized

__all__ = [
    "LinkState",
    "PathlossParams",
    "NetworkConfig",
    "NetworkDrop",
    "SchedulerState",
    "UeResult",
    "DropResult",
    "free_space_pathloss_db",
    "pathloss_db",
    "generate_layout",
    "covariance_from_clusters",
    "generate_covariances",
    "longterm_beams",
    "schedule_ofdma_pf",
    "schedule_sdma_greedy",
    "rate_from_sinr",
    "run_drop",
    "run_drop_detailed",
    "run_drops",
]

_C_M_S = 299792458.0
SCHEDULERS = ("OFDMA_PF", "SDMA_GREEDY")


class LinkState(IntEnum):
    LOS = 0
    NLOS = 1
    OUTAGE = 2


@dataclass(frozen=True)
class PathlossParams:
    """Urban millimeter-wave pathloss: PL = a + 10·b·log10(d) + shadowing.

    Defaults follow the published 28 GHz measurement fits, including the
    distance-driven LOS/NLOS/outage state probabilities.  These are
    configuration, not ground truth; acceptance bands that depend on
    them are widened accordingly.
    """

    los_intercept_db: float = 61.4
    los_exponent: float = 2.0
    los_shadow_db: float = 5.8
    nlos_intercept_db: float = 72.0
    nlos_exponent: float = 2.92
    nlos_shadow_db: float = 8.7
    outage_decay_m: float = 30.0
    outage_margin: float = 5.2
    los_decay_m: float = 67.1

    def state_probabilities(self, d_m):
        """(p_outage, p_los, p_nlos) at each distance."""
        d = np.asarray(d_m, dtype=float)
        p_out = np.maximum(0.0, 1.0 - np.exp(-d / self.outage_decay_m + self.outage_margin))
        p_los = (1.0 - p_out) * np.exp(-d / self.los_decay_m)
        return p_out, p_los, 1.0 - p_out - p_los


_FINITE_FIELDS = (
    "area_m", "cell_radius_m", "fc_hz", "bw_hz", "tx_power_dbm", "noise_figure_db", "max_se_bps_hz",
    "tti_s", "shannon_loss_db", "mean_ues_per_cell", "mean_extra_clusters", "cluster_spread_cos",
)


@dataclass(frozen=True)
class NetworkConfig:
    area_m: float = 1000.0
    cell_radius_m: float = 100.0
    fc_hz: float = 28e9
    bw_hz: float = 1e9
    tx_power_dbm: float = 35.0
    noise_figure_db: float = 8.0
    max_se_bps_hz: float = 7.4063
    bs_array: tuple = (8, 8)
    ue_array: tuple = (4, 4)
    tti_s: float = 125e-6
    overhead: float = 0.20
    shannon_loss_db: float = 3.0
    mean_ues_per_cell: float = 10.0
    n_adc_bits: float = math.inf
    n_beams_max: int = 4
    scheduler: str = "OFDMA_PF"
    n_ttis: int = 200
    seed: int = 0
    pathloss: PathlossParams = field(default_factory=PathlossParams)
    # cluster geometry: Poisson(mean_extra_clusters)+1 clusters per link,
    # exponential powers, each cluster spread as a Gaussian in direction
    # cosines (0 reproduces pure point clusters)
    mean_extra_clusters: float = 2.0
    cluster_spread_cos: float = 0.30
    # None draws Poisson(mean_ues_per_cell x n_bs) users; an int fixes the total
    fixed_ue_count: int = None
    # extra ADC widths evaluated on the same schedules as n_adc_bits
    eval_bits: tuple = ()

    def __post_init__(self):
        for name in _FINITE_FIELDS:
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite")
        for name in ("area_m", "cell_radius_m", "bw_hz", "tti_s"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")
        if self.fixed_ue_count is not None and self.fixed_ue_count < 1:
            raise ValueError("fixed_ue_count must be at least 1 (None draws a Poisson count)")
        if not (0 <= self.overhead < 1):
            raise ValueError("overhead must sit in [0, 1)")
        if self.scheduler not in SCHEDULERS:
            raise ValueError(f"scheduler must be one of {SCHEDULERS}")
        if self.n_beams_max < 1 or self.n_ttis < 1:
            raise ValueError("n_beams_max and n_ttis must be at least 1")
        if self.mean_ues_per_cell <= 0:
            raise ValueError("mean_ues_per_cell must be positive")
        if self.cluster_spread_cos < 0 or self.mean_extra_clusters < 0:
            raise ValueError("cluster parameters must be nonnegative")
        for shape in (self.bs_array, self.ue_array):
            if len(shape) != 2 or min(shape) < 1:
                raise ValueError("array shapes are (rows, cols) of positive ints")
        for b in (self.n_adc_bits, *self.eval_bits):
            quantizer.make_spec(b)

    @property
    def n_tx(self):
        return self.bs_array[0] * self.bs_array[1]

    @property
    def n_rx(self):
        return self.ue_array[0] * self.ue_array[1]

    @property
    def noise_psd_mw_hz(self):
        return 10.0 ** ((-174.0 + self.noise_figure_db) / 10.0)

    @property
    def tx_psd_mw_hz(self):
        return 10.0 ** (self.tx_power_dbm / 10.0) / self.bw_hz


@dataclass(frozen=True)
class NetworkDrop:
    """One placement with its link states, serving covariances, and the
    cluster geometry needed to evaluate cross-cell beam couplings."""

    bs_positions: np.ndarray
    ue_positions: np.ndarray
    link_state: np.ndarray
    pathloss_db: np.ndarray
    association: np.ndarray  # -1 when every link is in outage
    active_ue: np.ndarray    # indices of associated users
    cov_tx: np.ndarray       # (n_active, n_tx, n_tx), serving link
    cov_rx: np.ndarray
    cluster_powers: np.ndarray   # (n_active, n_bs, k_max)
    cluster_cos_tx: np.ndarray   # (n_active, n_bs, k_max, 2)
    cluster_cos_rx: np.ndarray
    interior_bs: np.ndarray


@dataclass
class SchedulerState:
    """Cumulative scheduled data per active user, for PF weighting."""

    served_bits: np.ndarray


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
    n_ues_total: int


def free_space_pathloss_db(d_m, fc_hz):
    d = np.asarray(d_m, dtype=float)
    return 20.0 * np.log10(4.0 * np.pi * d * fc_hz / _C_M_S)


def pathloss_db(d_m, state, params, rng, fc_hz=28e9):
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
        params.los_intercept_db + 10.0 * params.los_exponent * np.log10(d) + params.los_shadow_db * shadow,
        params.nlos_intercept_db + 10.0 * params.nlos_exponent * np.log10(d) + params.nlos_shadow_db * shadow,
    )
    pl = np.maximum(pl, free_space_pathloss_db(d, fc_hz))
    return np.where(st == LinkState.OUTAGE, np.inf, pl)


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


def covariance_from_clusters(powers, cos_uv, shape, spread_cos=0.0):
    """Q = Σ_c p_c·a(θ_c)a(θ_c)^H, optionally widened per cluster.

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
    if spread_cos > 0:
        q = q * _spread_taper(shape, spread_cos)
    return q


def _draw_clusters(rng, batch_shape, mean_extra):
    n_cl = 1 + rng.poisson(mean_extra, batch_shape)
    k_max = int(n_cl.max(initial=1))  # a batch without links still gets one slot
    mask = np.arange(k_max)[(None,) * len(batch_shape)] < n_cl[..., None]
    powers = np.where(mask, rng.exponential(1.0, (*batch_shape, k_max)), 0.0)
    powers = powers / powers.sum(-1, keepdims=True)
    cos_tx = rng.uniform(-1.0, 1.0, (*batch_shape, k_max, 2))
    cos_rx = rng.uniform(-1.0, 1.0, (*batch_shape, k_max, 2))
    return powers, cos_tx, cos_rx


def generate_covariances(cfg, rng, n_links=1):
    """Draw cluster geometry and build (cov_tx, cov_rx) for n_links links."""
    powers, cos_tx, cos_rx = _draw_clusters(rng, (n_links,), cfg.mean_extra_clusters)
    q_tx = covariance_from_clusters(powers, cos_tx, cfg.bs_array, cfg.cluster_spread_cos)
    q_rx = covariance_from_clusters(powers, cos_rx, cfg.ue_array, cfg.cluster_spread_cos)
    return q_tx, q_rx


def _dominant_eig(q):
    lam, vec = np.linalg.eigh(q)
    # lowest index among numerically tied top eigenvalues, so isotropic
    # covariances resolve deterministically
    top = lam[..., -1:]
    first = np.argmax(lam >= top * (1.0 - 1e-12), axis=-1)
    idx = np.expand_dims(np.expand_dims(first, -1), -1)
    v = np.take_along_axis(vec, np.broadcast_to(idx, (*vec.shape[:-1], 1)), axis=-1)[..., 0]
    gain = np.take_along_axis(lam, first[..., None], axis=-1)[..., 0]
    return v, gain.real


def longterm_beams(cov_tx, cov_rx):
    """Unit-norm dominant eigenvectors (v for transmit, u for receive).

    The receive beamforming gain is u^H Q_rx u, i.e. the top eigenvalue.
    """
    qt = np.asarray(cov_tx)
    qr = np.asarray(cov_rx)
    if np.any(np.abs(np.trace(qt, axis1=-2, axis2=-1)) < 1e-12) or np.any(
        np.abs(np.trace(qr, axis1=-2, axis2=-1)) < 1e-12
    ):
        raise ValueError("zero covariance has no beam direction")
    v, _ = _dominant_eig(qt)
    u, _ = _dominant_eig(qr)
    return v, u


def schedule_ofdma_pf(state, spectral_effs, member_ids, bw_hz):
    """Proportional-fair bandwidth split: weight = SE / served bits.

    Returns absolute allocations that sum to bw_hz exactly.
    """
    mem = np.asarray(member_ids, dtype=int)
    if mem.size == 0:
        return np.zeros(0)
    w = np.asarray(spectral_effs, dtype=float) / state.served_bits[mem]
    tot = w.sum()
    frac = w / tot if tot > 0 else np.full(mem.size, 1.0 / mem.size)
    shares = frac * bw_hz
    shares[np.argmax(shares)] += bw_hz - shares.sum()  # close the float gap
    return shares


def _capped_se(sinr_linear, cfg):
    """Spectral efficiency min(cap, log2(1 + s/L)) before overhead."""
    return np.minimum(cfg.max_se_bps_hz, np.log2(1.0 + sinr_linear / 10.0 ** (cfg.shannon_loss_db / 10.0)))


def schedule_sdma_greedy(state, gamma_est, coupling, member_ids, cfg):
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
    if mem.size == 0:
        return np.zeros(0, dtype=int)
    weights = (1.0 - cfg.overhead) * _capped_se(gamma_est, cfg) / state.served_bits[mem]

    def sum_rates(grp):
        """Modeled sum rate of each row of grp, an (n_groups, k) index array."""
        gp = gamma_est[grp] / grp.shape[1]     # equal split of the transmit power
        sub = coupling[grp[:, :, None], grp[:, None, :]]
        psi = sub.sum(1) - np.diagonal(sub, axis1=1, axis2=2)
        s = gp / (1.0 + psi * gp)
        return ((1.0 - cfg.overhead) * _capped_se(s, cfg)).sum(-1)

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


def rate_from_sinr(sinr_linear, w_hz, cfg):
    """Shannon rate with implementation loss, overhead, and an SE cap."""
    s = np.asarray(sinr_linear, dtype=float)
    if np.any(s < 0):
        raise ValueError("SINR must be nonnegative")
    return (1.0 - cfg.overhead) * w_hz * _capped_se(s, cfg)


def generate_layout(cfg, seed=None):
    """Hexagonal sites, uniform user drop, link states, pathloss, and
    serving-link covariances.  Deterministic given the seed."""
    rng = np.random.default_rng(cfg.seed if seed is None else seed)
    bs = _hex_grid(cfg.area_m, cfg.cell_radius_m)
    n_bs = len(bs)
    n_ue = cfg.fixed_ue_count if cfg.fixed_ue_count is not None else rng.poisson(cfg.mean_ues_per_cell * n_bs)
    ue = rng.uniform(0.0, cfg.area_m, (n_ue, 2))

    d = np.hypot(ue[:, 0, None] - bs[None, :, 0], ue[:, 1, None] - bs[None, :, 1])
    d = np.maximum(d, 1.0)  # model fits are not meant below a meter
    p_out, p_los, _ = cfg.pathloss.state_probabilities(d)
    u01 = rng.random((n_ue, n_bs))
    state = np.where(u01 < p_out, LinkState.OUTAGE, np.where(u01 < p_out + p_los, LinkState.LOS, LinkState.NLOS))
    pl = pathloss_db(d, state, cfg.pathloss, rng, cfg.fc_hz)

    gain = 10.0 ** (-pl / 10.0)
    association = np.where(np.isfinite(pl).any(axis=1), np.argmax(gain, axis=1), -1)
    active = np.nonzero(association >= 0)[0]

    powers, cos_tx, cos_rx = _draw_clusters(rng, (len(active), n_bs), cfg.mean_extra_clusters)
    sel = (np.arange(len(active)), association[active])
    cov_tx = covariance_from_clusters(powers[sel], cos_tx[sel], cfg.bs_array, cfg.cluster_spread_cos)
    cov_rx = covariance_from_clusters(powers[sel], cos_rx[sel], cfg.ue_array, cfg.cluster_spread_cos)

    ring = math.sqrt(3.0) * cfg.cell_radius_m
    interior = (
        (bs[:, 0] >= ring) & (bs[:, 0] <= cfg.area_m - ring) & (bs[:, 1] >= ring) & (bs[:, 1] <= cfg.area_m - ring)
    )
    return NetworkDrop(
        bs_positions=bs,
        ue_positions=ue,
        link_state=state.astype(np.int8),
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


def _alpha_list(cfg):
    bits = [cfg.n_adc_bits, *cfg.eval_bits]
    seen = []
    for b in bits:
        if b not in seen:
            seen.append(b)
    return seen, [quantizer.alpha_of(b) for b in seen]


def run_drop_detailed(cfg, seed=None):
    """One placement simulated for cfg.n_ttis TTIs; keeps beam usage.

    The cross-cell tables are evaluated only for users whose link to the
    cell is not in outage; outage rows stay zero.  This is exact: every
    table entry reaches the SINR only through a product with the link's
    gain 10^(-PL/10), and an outage link has PL = inf and thus gain 0.0,
    so a zero entry and a computed finite one both contribute exactly 0.
    Each kept row is computed by the same operations as in a dense
    table, so the results do not depend on how many rows are skipped.
    """
    drop = generate_layout(cfg, seed)
    bs = drop.bs_positions
    n_bs = len(bs)
    act = drop.active_ue
    n_act = len(act)
    srv = drop.association[act]
    members = [np.nonzero(srv == c)[0] for c in range(n_bs)]

    t_tx = _spread_taper(cfg.bs_array, cfg.cluster_spread_cos)
    t_rx = _spread_taper(cfg.ue_array, cfg.cluster_spread_cos)
    v_s, e_srv = _dominant_eig(drop.cov_tx)
    u_s, g_srv = _dominant_eig(drop.cov_rx)
    gain_srv = 10.0 ** (-drop.pathloss_db[act, srv] / 10.0)

    # cross tables: receive pickup of every cell at each user's beam, and
    # transmit leakage of each serving beam toward every user; rows of
    # users in outage to the cell stay zero (see the docstring)
    w_rx = np.zeros((n_act, n_bs))
    w_tx = [None] * n_bs
    coupling = [None] * n_bs
    for c in range(n_bs):
        near = np.nonzero(np.isfinite(drop.pathloss_db[act, c]))[0]
        p_near = drop.cluster_powers[near, c]
        cos_rx = drop.cluster_cos_rx[near, c]
        a_rx = _steering(cfg.ue_array, cos_rx[..., 0], cos_rx[..., 1])
        w_rx[near, c] = _quadform_sum(a_rx, u_s[near], t_rx, p_near)
        mem = members[c]
        if mem.size == 0:
            w_tx[c] = np.zeros((n_act, 0))
            coupling[c] = np.zeros((0, 0))
            continue
        cos_tx = drop.cluster_cos_tx[near, c]
        a_tx = _steering(cfg.bs_array, cos_tx[..., 0], cos_tx[..., 1])
        w = np.zeros((n_act, mem.size))
        for j, m in enumerate(mem):
            w[near, j] = _quadform_sum(a_tx, v_s[m], t_tx, p_near)
        w_tx[c] = w
        coupling[c] = (w[mem] / e_srv[mem][:, None]).T.copy()  # [beam j, user k]

    y_inter = 10.0 ** (-drop.pathloss_db[act] / 10.0) * w_rx  # pathloss x beam pickup, per cell

    bits_list, alphas = _alpha_list(cfg)
    n_a = len(alphas)
    # one row per ADC width, plus the resolution-blind row that feeds the
    # PF history (alpha = 0 gives exactly the unquantized SINR)
    alpha_rows = np.array([*alphas, 0.0])[:, None]
    psd, n0 = cfg.tx_psd_mw_hz, cfg.noise_psd_mw_hz
    state = SchedulerState(served_bits=np.full(n_act, 1.0))
    lin_sinr = np.zeros((n_a, n_act))
    sched_cnt = np.zeros(n_act)
    rate_sum = np.zeros((n_a, n_act))
    beam_counts = []
    i_lag = np.zeros(n_act)
    sdma = cfg.scheduler == "SDMA_GREEDY"

    for _ in range(cfg.n_ttis):
        gamma_est = psd * gain_srv * e_srv * g_srv / (n0 + i_lag)
        se_est = (1.0 - cfg.overhead) * _capped_se(gamma_est, cfg)
        # per scheduled user: power divisor (group size), leakage ratio psi
        # and bandwidth; div = 0 marks a user not scheduled this TTI
        div = np.zeros(n_act)
        psi = np.zeros(n_act)
        bw = np.zeros(n_act)
        i_now = np.zeros(n_act)
        for c in range(n_bs):
            mem = members[c]
            if mem.size == 0:
                continue
            if sdma:
                gr = schedule_sdma_greedy(state, gamma_est[mem], coupling[c], mem, cfg)
                if drop.interior_bs[c]:
                    beam_counts.append(len(gr))
                contrib = (psd / len(gr)) * y_inter[:, c] * w_tx[c][:, gr].sum(1)
                sub = coupling[c][np.ix_(gr, gr)]
                div[mem[gr]] = len(gr)
                psi[mem[gr]] = sub.sum(0) - np.diag(sub)
                bw[mem[gr]] = cfg.bw_hz
            else:
                shares = schedule_ofdma_pf(state, se_est[mem], mem, cfg.bw_hz)
                contrib = psd * y_inter[:, c] * (w_tx[c] @ (shares / cfg.bw_hz))
                div[mem] = 1.0
                bw[mem] = shares
            # this cell's beams interfere at every user it does not serve
            contrib[mem] = 0.0
            i_now += contrib

        gamma = psd * gain_srv * e_srv * g_srv / (n0 + i_now)
        sel = np.nonzero(div)[0]
        s = sinr_quantized(gamma[sel] / div[sel], g_srv[sel], psi[sel], alpha_rows)
        r = rate_from_sinr(s, bw[sel], cfg)
        lin_sinr[:, sel] += s[:-1]
        rate_sum[:, sel] += r[:-1]
        sched_cnt[sel] += 1
        state.served_bits[sel] += r[-1] * cfg.tti_s
        i_lag = i_now

    results = []
    interior_ue = drop.interior_bs[srv]
    for ai, b in enumerate(bits_list):
        for s in range(n_act):
            n_sched = sched_cnt[s]
            results.append(
                UeResult(
                    ue_index=int(act[s]),
                    serving_bs=int(srv[s]),
                    n_bits=b,
                    sinr_db=10.0 * math.log10(lin_sinr[ai, s] / n_sched) if n_sched > 0 else math.nan,
                    rate_bps=rate_sum[ai, s] / cfg.n_ttis,
                    interior=bool(interior_ue[s]),
                )
            )
    return DropResult(ue_results=results, beam_counts=np.array(beam_counts, dtype=int), n_ues_total=len(drop.ue_positions))


def run_drop(cfg, seed=None):
    """Per-user time-averaged results for one drop (see run_drop_detailed)."""
    return run_drop_detailed(cfg, seed).ue_results


def _drop_job(args):
    cfg, ss = args
    return run_drop_detailed(cfg, ss)


def run_drops(cfg, n_drops, n_jobs=1):
    """Independent drops with spawned RNG substreams.

    Results are identical for any n_jobs: drop i always uses the i-th
    child of SeedSequence(cfg.seed).
    """
    seeds = np.random.SeedSequence(cfg.seed).spawn(n_drops)
    return pool_map(_drop_job, [(cfg, s) for s in seeds], n_jobs)
