"""Multi-cell Monte Carlo checks at toy scale: geometry, channel
statistics, scheduler behavior, and drop determinism.  The full-scale
statistical bands live in the acceptance suite."""

import dataclasses
import hashlib
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from lowresbf import network, sinr
from lowresbf.quantizer import alpha_of

class NoShadow:
    """Stands in for the rng: every shadowing draw is 0 dB."""

    def standard_normal(self, shape):
        return np.zeros(shape)


def toy_config(**kw):
    base = dict(area_m=600.0, fixed_ue_count=40, n_ttis=4)
    base.update(kw)
    return network.NetworkConfig(**base)


def test_hex_layout_counts():
    drop = network.generate_layout(network.NetworkConfig(), seed=0)
    n_bs = len(drop.bs_positions)
    assert 30 <= n_bs <= 45
    assert n_bs == 42
    assert int(drop.interior_bs.sum()) == 16


def test_layout_determinism():
    cfg = network.NetworkConfig()
    a = network.generate_layout(cfg, seed=11)
    b = network.generate_layout(cfg, seed=11)
    np.testing.assert_array_equal(a.ue_positions, b.ue_positions)
    np.testing.assert_array_equal(a.pathloss_db, b.pathloss_db)
    np.testing.assert_array_equal(a.association, b.association)
    c = network.generate_layout(cfg, seed=12)
    assert not np.array_equal(a.ue_positions, c.ue_positions)


def test_mean_ue_count_tracks_poisson_intensity():
    cfg = network.NetworkConfig(area_m=400.0)
    counts = []
    for seed in range(40):
        drop = network.generate_layout(cfg, seed=seed)
        counts.append(len(drop.ue_positions) / len(drop.bs_positions))
    assert np.mean(counts) == pytest.approx(cfg.mean_ues_per_cell, rel=0.05)


def test_pathloss_examples():
    d = np.array([100.0, 100.0, 50.0])
    state = np.array([network.LinkState.LOS, network.LinkState.NLOS, network.LinkState.OUTAGE])
    pl = network.pathloss_db(d, state, NoShadow())
    assert pl[0] == pytest.approx(101.4, abs=0.01)
    assert pl[1] == pytest.approx(130.4, abs=0.01)
    assert np.isinf(pl[2])
    with pytest.raises(ValueError):
        network.pathloss_db(np.array([0.0]), np.array([network.LinkState.LOS]), NoShadow())


def test_pathloss_never_beats_free_space():
    rng = np.random.default_rng(1)
    d = 10.0 ** rng.uniform(0, 2.7, 10_000)
    state = np.where(rng.random(10_000) < 0.5, network.LinkState.LOS, network.LinkState.NLOS)
    pl = network.pathloss_db(d, state, rng)
    floor = network.free_space_pathloss_db(d, 28e9)
    assert np.all(pl >= floor - 1e-9)
    # expected loss grows with distance in both states
    assert np.median(pl[d > 300]) > np.median(pl[d < 30])


def test_state_probabilities():
    d = np.array([1.0, 50.0, 150.0, 400.0])
    p_out, p_los, p_nlos = network.state_probabilities(d)
    total = p_out + p_los + p_nlos
    np.testing.assert_allclose(total, 1.0, atol=1e-12)
    for arr in (p_out, p_los, p_nlos):
        assert np.all((arr >= 0) & (arr <= 1))
    assert p_los[0] > p_los[-1]
    assert p_out[-1] > p_out[0]


def test_single_cluster_covariance_is_rank_one():
    q = network.covariance_from_clusters(
        np.array([1.0]), np.array([[0.3, -0.2]]), (8, 8), 0.0
    )
    assert q.shape == (64, 64)
    np.testing.assert_allclose(q, q.conj().T, atol=1e-12)
    assert np.trace(q).real == pytest.approx(64.0, rel=1e-12)
    lam = np.linalg.eigvalsh(q)
    assert lam[-1] == pytest.approx(64.0, rel=1e-9)
    assert abs(lam[-2]) < 1e-9
    # dominant-eigenvector gain on a point cluster is the full array size
    v, _ = network._dominant_eig(q)
    assert np.vdot(v, q @ v).real == pytest.approx(64.0, rel=1e-9)


def test_spread_taper_keeps_trace_and_psd():
    powers = np.array([0.7, 0.3])
    cos = np.array([[0.1, 0.4], [-0.5, 0.2]])
    point = network.covariance_from_clusters(powers, cos, (4, 4), 0.0)
    spread = network.covariance_from_clusters(powers, cos, (4, 4), spread_cos=0.3)
    assert np.trace(spread).real == pytest.approx(16.0, rel=1e-12)
    assert np.linalg.eigvalsh(spread).min() > -1e-10
    assert np.linalg.eigvalsh(spread).max() < np.linalg.eigvalsh(point).max()


def test_generate_covariances_batch():
    drop = network.generate_layout(toy_config(fixed_ue_count=8), seed=5)
    q_tx, q_rx = drop.cov_tx, drop.cov_rx
    n_act = drop.active_ue.size
    assert n_act > 0
    assert q_tx.shape == (n_act, 64, 64) and q_rx.shape == (n_act, 16, 16)
    for q, n in ((q_tx, 64), (q_rx, 16)):
        np.testing.assert_allclose(np.trace(q, axis1=-2, axis2=-1).real, n, rtol=1e-10)
        assert np.linalg.eigvalsh(q).min() > -1e-10


@st.composite
def _cluster_sets(draw):
    """A batch of cluster sets, each with a powered cluster, some zero-power slots among them
    (every set one depth), and any number of zero-power slots with any cosines to append.

    The powers lie on a 2^-10 grid, so the normalizing sum is exact at any width, in any
    order; numpy sums 8 or more terms pairwise, so other powers could round it differently
    once padded, and then the normalization, not the sum over clusters, would differ.
    """
    n_sets, k, n_pad = draw(st.integers(1, 4)), draw(st.integers(1, 5)), draw(st.integers(1, 6))
    powers = draw(hnp.arrays(float, (n_sets, k), elements=st.integers(0, 4096).map(lambda n: n / 1024)))
    powers[np.arange(n_sets), draw(hnp.arrays(int, n_sets, elements=st.integers(0, k - 1)))] = 1.0
    cos = draw(hnp.arrays(float, (n_sets, k + n_pad, 2), elements=st.floats(-1.0, 1.0)))
    shape = draw(st.sampled_from([(2, 3), (4, 4), (8, 8)]))
    return powers, cos, shape, draw(st.sampled_from([0.0, 0.1, 0.3])), n_pad


@settings(max_examples=150, deadline=None)
@given(_cluster_sets())
# a zero-power cluster between two powered ones, and one set padded past it
@example((np.array([[0.75, 0.0, 0.25]]), np.array([[[0.1, 0.4], [0.9, -0.7], [-0.5, 0.2], [0.3, 0.3]]]), (8, 8), 0.3, 1))
def test_covariance_ignores_zero_power_slots(case):
    powers, cos, shape, spread, n_pad = case
    padded = np.pad(powers, ((0, 0), (0, n_pad)))
    want = network.covariance_from_clusters(powers, cos[:, :powers.shape[1]], shape, spread)
    got = network.covariance_from_clusters(padded, cos, shape, spread)
    assert got.tobytes() == want.tobytes()
    # and both equal the one einsum over every slot, padding included
    a = network._steering(shape, cos[..., 0], cos[..., 1])
    dense = np.einsum("...k,...kn,...km->...nm", padded / padded.sum(-1, keepdims=True), a, a.conj())
    assert got.tobytes() == (dense * network._spread_taper(shape, spread)).tobytes()


def test_longterm_beams_properties():
    rng = np.random.default_rng(6)
    a = np.exp(1j * rng.uniform(0, 2 * np.pi, 16))
    q_rank1 = np.outer(a, a.conj())  # trace 16, top eigenvalue 16
    eye = np.eye(16, dtype=complex)
    v, _ = network._dominant_eig(q_rank1)
    assert abs(np.vdot(v, a / 4.0)) == pytest.approx(1.0, abs=1e-9)
    # isotropic covariance resolves to the lowest-index basis vector
    u, _ = network._dominant_eig(eye)
    assert abs(u[0]) == pytest.approx(1.0, abs=1e-9)
    h = rng.standard_normal((16, 16)) + 1j * rng.standard_normal((16, 16))
    q = h @ h.conj().T
    v, top = network._dominant_eig(q)
    gain = np.vdot(v, q @ v).real
    assert gain == pytest.approx(np.linalg.eigvalsh(q)[-1], rel=1e-9)
    assert top == pytest.approx(gain, rel=1e-9)


def _eigh_dominant_eig(q):
    """The full-eigh _dominant_eig that the selected-eigenpair solver replaced."""
    lam, vec = np.linalg.eigh(q)
    # lowest index among numerically tied top eigenvalues, so isotropic
    # covariances resolve deterministically
    top = lam[..., -1:]
    first = np.argmax(lam >= top * (1.0 - 1e-12), axis=-1)
    idx = np.expand_dims(np.expand_dims(first, -1), -1)
    v = np.take_along_axis(vec, np.broadcast_to(idx, (*vec.shape[:-1], 1)), axis=-1)[..., 0]
    gain = np.take_along_axis(lam, first[..., None], axis=-1)[..., 0]
    return v, gain.real


@st.composite
def _serving_covariances(draw):
    """A stack of cluster covariances at one end of the link, as generate_layout builds them."""
    shape = draw(st.sampled_from([network.BS_ARRAY, network.UE_ARRAY]))
    n_sets, k = draw(st.integers(1, 3)), draw(st.integers(1, 5))
    powers = draw(hnp.arrays(float, (n_sets, k), elements=st.floats(0.0, 1.0)))
    powers[:, 0] = draw(hnp.arrays(float, n_sets, elements=st.floats(1e-3, 1.0)))  # every set carries power
    cos = draw(hnp.arrays(float, (n_sets, k, 2), elements=st.floats(-1.0, 1.0)))
    return network.covariance_from_clusters(powers, cos, shape, draw(st.floats(0.0, 0.5)))


_STEER = network._steering(network.UE_ARRAY, 0.3, -0.2)


@settings(max_examples=200, deadline=None)
@given(_serving_covariances())
@example(np.eye(16, dtype=complex)[None])  # isotropic: basis vector 0
@example(np.outer(_STEER, _STEER.conj())[None])  # rank 1
# two orthogonal point clusters of equal power: a tied top pair
@example(network.covariance_from_clusters(np.array([[0.5, 0.5]]), np.array([[[0.0, 0.0], [1.0, 0.0]]]),
                                          network.UE_ARRAY, 0.0))
@example(np.zeros((0, 64, 64), dtype=complex))
def test_dominant_eig_matches_full_eigh(q):
    v, gain = network._dominant_eig(q)
    v_ref, gain_ref = _eigh_dominant_eig(q)
    assert v.shape == q.shape[:-1] and gain.shape == q.shape[:-2]
    np.testing.assert_allclose(np.linalg.norm(v, axis=-1), 1.0, rtol=0, atol=1e-12)
    assert np.all(1.0 - np.abs(np.einsum("...i,...i->...", v.conj(), v_ref)) <= 1e-12)
    np.testing.assert_allclose(gain, gain_ref, rtol=1e-12, atol=0)
    np.testing.assert_allclose(gain, np.einsum("...i,...ij,...j->...", v.conj(), q, v).real, rtol=1e-12, atol=0)
    # a tied top pair goes through the full eigh, and resolves as it did
    lam = np.linalg.eigvalsh(q)
    tied = lam[..., -2] >= lam[..., -1] * (1.0 - 1e-12)
    assert np.array_equal(v[tied], v_ref[tied]) and np.array_equal(gain[tied], gain_ref[tied])


def test_ofdma_pf_shares():
    shares = network.schedule_ofdma_pf(np.ones(3), np.array([2.0, 2.0]), [0, 1], 1e9)
    np.testing.assert_allclose(shares, 5e8)
    assert shares.sum() == 1e9  # closed exactly, not just approximately
    served = np.array([4.0, 1.0, 1.0])
    shares = network.schedule_ofdma_pf(served, np.array([2.0, 2.0]), [0, 1], 1e9)
    assert shares[1] > shares[0]
    assert network.schedule_ofdma_pf(served, np.array([]), [], 1e9).size == 0


def test_ofdma_pf_long_run_fairness():
    # Unequal spectral efficiencies: PF hands both users the same
    # long-run bandwidth while served data tracks the efficiency ratio.
    se = np.array([2.0, 1.0])
    served = np.ones(2)
    totals = np.zeros(2)
    for _ in range(10_000):
        shares = network.schedule_ofdma_pf(served, se, [0, 1], 1.0)
        served += shares * se
        totals += shares
    assert totals[0] / totals[1] == pytest.approx(1.0, rel=0.02)
    assert served[0] / served[1] == pytest.approx(2.0, rel=0.02)


def test_sdma_greedy_single_beam_is_pf_pick():
    cfg = toy_config(n_beams_max=1, scheduler="SDMA_GREEDY")
    served = np.array([1.0, 8.0, 2.0])
    gamma = np.array([50.0, 500.0, 60.0])
    coupling = np.zeros((3, 3))
    group = network.schedule_sdma_greedy(served, gamma, coupling, [0, 1, 2], cfg)
    weights = (1 - network.OVERHEAD) * np.minimum(
        network.MAX_SE_BPS_HZ, np.log2(1 + gamma / 10 ** 0.3)
    ) / served
    assert group.tolist() == [int(np.argmax(weights))]


def test_sdma_greedy_admits_orthogonal_pair():
    cfg = toy_config(n_beams_max=4, scheduler="SDMA_GREEDY")
    gamma = np.array([200.0, 150.0])
    group = network.schedule_sdma_greedy(np.ones(2), gamma, np.zeros((2, 2)), [0, 1], cfg)
    assert group.tolist() == [0, 1]


def test_sdma_greedy_rejects_fully_coupled_pair():
    cfg = toy_config(n_beams_max=4, scheduler="SDMA_GREEDY")
    gamma = np.array([100.0, 100.0])
    coupling = np.ones((2, 2))
    group = network.schedule_sdma_greedy(np.ones(2), gamma, coupling, [0, 1], cfg)
    assert group.size == 1


def test_rate_from_sinr():
    assert network.rate_from_sinr(0.0, 1e9) == 0.0
    cap = network.rate_from_sinr(1e12, 1e9)
    assert cap == pytest.approx(0.8 * 7.4063e9, rel=1e-9)
    mid = network.rate_from_sinr(10.0 ** 0.3, 1e9)
    assert mid == pytest.approx(0.8e9, rel=1e-9)
    with pytest.raises(ValueError):
        network.rate_from_sinr(-0.1, 1e9)
    for bad in (math.nan, [1.0, math.nan]):
        with pytest.raises(ValueError, match="SINR"):
            network.rate_from_sinr(bad, 1e9)
    for bad in (-1.0, math.nan, math.inf, [1e9, -1.0]):
        with pytest.raises(ValueError, match="w_hz"):
            network.rate_from_sinr(1.0, bad)
    assert network.rate_from_sinr(1.0, 0.0) == 0.0


def test_run_drop_deterministic():
    cfg = toy_config(adc_bits=(3, 4, math.inf))
    a = network.run_drop_detailed(cfg, seed=7)
    b = network.run_drop_detailed(cfg, seed=7)
    assert [dataclasses.astuple(r) for r in a.ue_results] == [
        dataclasses.astuple(r) for r in b.ue_results
    ]


def test_run_drops_jobs_invariant():
    cfg = toy_config(adc_bits=(4,))
    serial = network.run_drops(cfg, 2, 3, n_jobs=1)
    parallel = network.run_drops(cfg, 2, 3, n_jobs=2)
    for x, y in zip(serial, parallel):
        assert [dataclasses.astuple(r) for r in x.ue_results] == [
            dataclasses.astuple(r) for r in y.ue_results
        ]


def _quadform_sum(a, beam, taper, powers):
    """Σ_c p_c · |beam^H (a_c a_c^H ⊙ T) beam| for batched cluster sets."""
    y = a.conj() * beam[..., None, :]
    q = ((y.conj() @ taper) * y).sum(-1).real
    return (powers * q).sum(-1)


def _padded_tables(drop, members, v_s, e_srv, u_s, cfg):
    """The tables over every padded cluster slot, one _quadform_sum per member, that
    the live-slot tables replaced."""
    n_act = len(drop.active_ue)
    t_tx = network._spread_taper(network.BS_ARRAY, cfg.cluster_spread_cos)
    t_rx = network._spread_taper(network.UE_ARRAY, cfg.cluster_spread_cos)
    width = network._member_slots(members, n_act).shape[1]
    pickup = np.zeros((len(members), n_act))
    leak = np.zeros((n_act, n_act + 1))
    coupling = np.zeros((len(members), width, width))
    for i, (c, mem) in enumerate(members.items()):
        pl_c = drop.pathloss_db[drop.active_ue, c]
        near = np.nonzero(np.isfinite(pl_c))[0]
        p_near = drop.cluster_powers[near, c]
        cos_rx = drop.cluster_cos_rx[near, c]
        a_rx = network._steering(network.UE_ARRAY, cos_rx[..., 0], cos_rx[..., 1])
        w_rx_c = np.zeros(n_act)
        w_rx_c[near] = _quadform_sum(a_rx, u_s[near], t_rx, p_near)
        pickup[i] = 10.0 ** (-pl_c / 10.0) * w_rx_c
        pickup[i, mem] = 0.0
        cos_tx = drop.cluster_cos_tx[near, c]
        a_tx = network._steering(network.BS_ARRAY, cos_tx[..., 0], cos_tx[..., 1])
        for u in mem:
            leak[near, u] = _quadform_sum(a_tx, v_s[u], t_tx, p_near)
        coupling[i, :mem.size, :mem.size] = (leak[np.ix_(mem, mem)] / e_srv[mem][:, None]).T
    return pickup, leak, coupling


@pytest.mark.parametrize("seed,clusters", [
    (3, dict(cluster_spread_cos=0.0)),
    (4, dict()),
    # one cluster per link: every slot is live and k_max is 1 (gemv rows)
    (5, dict(mean_extra_clusters=0.0)),
    (3, dict(mean_extra_clusters=0.0, fixed_ue_count=12)),
    # k_max 3, and three cells whose near users have one live slot between them
    (3, dict(mean_extra_clusters=0.3, fixed_ue_count=12)),
    (6, dict(mean_extra_clusters=5.0)),
])
def test_cross_tables_match_padded_tables(seed, clusters):
    cfg = toy_config(**clusters)
    drop = network.generate_layout(cfg, seed)
    srv = drop.association[drop.active_ue]
    members = {c: np.nonzero(srv == c)[0] for c in np.unique(srv)}
    v_s, e_srv = network._dominant_eig(drop.cov_tx)
    u_s, _ = network._dominant_eig(drop.cov_rx)
    got = network._cross_tables(drop, members, v_s, e_srv, u_s, cfg)
    pickup, leak, coupling = _padded_tables(drop, members, v_s, e_srv, u_s, cfg)
    # _cross_tables keeps each cell's leak columns contiguous: members in order, then the padding column
    cols = np.concatenate([*members.values(), [len(drop.active_ue)]])
    for g, w in zip(got, (pickup, leak[:, cols], coupling)):
        assert np.array_equal(g, w)


def _greedy_oracle(served_bits, gamma_est, coupling, member_ids, cfg):
    """The one-candidate-at-a-time greedy loop the batched scheduler replaced."""
    mem = np.asarray(member_ids, dtype=int)
    if mem.size == 0:
        return np.zeros(0, dtype=int)
    shannon_loss = 10.0 ** (network.SHANNON_LOSS_DB / 10.0)
    weights = (1.0 - network.OVERHEAD) * np.minimum(
        network.MAX_SE_BPS_HZ, np.log2(1.0 + gamma_est / shannon_loss)
    ) / served_bits[mem]

    def sum_rate(group):
        k = len(group)
        gp = gamma_est[group] / k
        if k == 1:
            psi = np.zeros(1)
        else:
            sub = coupling[np.ix_(group, group)]
            psi = sub.sum(0) - np.diag(sub)
        s = gp / (1.0 + psi * gp)
        return ((1.0 - network.OVERHEAD) * np.minimum(network.MAX_SE_BPS_HZ, np.log2(1.0 + s / shannon_loss))).sum()

    group = [int(np.argmax(weights))]
    best = sum_rate(group)
    candidates = [i for i in range(mem.size) if i != group[0]]
    while len(group) < cfg.n_beams_max and candidates:
        rates = [sum_rate(group + [c]) for c in candidates]
        pick = int(np.argmax(rates))
        if rates[pick] <= best:
            break
        best = rates[pick]
        group.append(candidates.pop(pick))
    return np.array(sorted(group), dtype=int)


# a few repeated values make equal weights and equal candidate rates common
_TIED = st.sampled_from([0.0, 1.0, 50.0, 1e3])


@st.composite
def _sdma_cases(draw):
    n = draw(st.integers(1, 9))
    gamma = draw(hnp.arrays(float, n, elements=st.one_of(_TIED, st.floats(0.0, 1e5))))
    coupling = draw(hnp.arrays(float, (n, n), elements=st.one_of(st.sampled_from([0.0, 0.5]), st.floats(0.0, 2.0))))
    served = draw(hnp.arrays(float, n, elements=st.one_of(_TIED.filter(bool), st.floats(1e-3, 1e9))))
    return gamma, coupling, served, draw(st.integers(1, 4))


@settings(max_examples=300, deadline=None)
@given(_sdma_cases())
def test_sdma_greedy_matches_oracle(case):
    gamma, coupling, served, n_beams = case
    cfg = toy_config(scheduler="SDMA_GREEDY", n_beams_max=n_beams)
    mem = np.arange(gamma.size)
    got = network.schedule_sdma_greedy(served.copy(), gamma, coupling, mem, cfg)
    want = _greedy_oracle(served.copy(), gamma, coupling, mem, cfg)
    assert got.tolist() == want.tolist()


def test_sdma_greedy_empty_members():
    cfg = toy_config(scheduler="SDMA_GREEDY")
    group = network.schedule_sdma_greedy(np.ones(3), np.zeros(0), np.zeros((0, 0)), [], cfg)
    assert group.size == 0 and group.dtype.kind == "i"


def _lockstep_batch(sizes, gamma, couplings, order):
    """A batch of cells: cell i holds the next sizes[i] users of order, ascending."""
    ends = np.cumsum(sizes)
    members = [np.sort(order[end - k:end]) for k, end in zip(sizes, ends)]
    slots = np.full((len(sizes), max(sizes) + 1), len(gamma))
    coupling = np.zeros((len(sizes), max(sizes) + 1, max(sizes) + 1))
    for i, (mem, c) in enumerate(zip(members, couplings)):
        slots[i, :mem.size] = mem
        coupling[i, :mem.size, :mem.size] = c
    return members, slots, coupling


@st.composite
def _lockstep_cases(draw):
    sizes = draw(st.lists(st.integers(1, 5), min_size=1, max_size=5))
    n = sum(sizes)
    gamma = draw(hnp.arrays(float, n, elements=st.one_of(_TIED, st.floats(0.0, 1e5))))
    served = draw(hnp.arrays(float, n, elements=st.one_of(_TIED.filter(bool), st.floats(1e-3, 1e9))))
    couplings = [
        draw(hnp.arrays(float, (k, k), elements=st.one_of(st.sampled_from([0.0, 0.5]), st.floats(0.0, 2.0))))
        for k in sizes
    ]
    order = np.array(draw(st.permutations(range(n))))  # members interleave over the user index
    return sizes, gamma, served, couplings, order, draw(st.integers(1, 6))


# a cell that admits every member, one fully coupled cell that stops after
# its seed, and a one-member cell; then one cell of tied users
_ROUNDS_APART = ([4, 3, 1], np.full(8, 100.0), np.ones(8),
                 [np.zeros((4, 4)), np.ones((3, 3)), np.zeros((1, 1))], np.arange(8)[::-1], 6)
_ALL_TIED = ([4], np.full(4, 50.0), np.ones(4), [np.full((4, 4), 0.5)], np.arange(4), 2)


@settings(max_examples=300, deadline=None)
@given(_lockstep_cases())
@example(_ROUNDS_APART)
@example(_ALL_TIED)
def test_sdma_lockstep_matches_oracle_per_cell(case):
    sizes, gamma, served, couplings, order, n_beams = case
    members, slots, coupling = _lockstep_batch(sizes, gamma, couplings, order)
    weights = network._rate(gamma) / served
    chosen = network._greedy_lockstep(weights, gamma, coupling, slots, n_beams)
    cfg = toy_config(scheduler="SDMA_GREEDY", n_beams_max=n_beams)
    for i, (mem, c) in enumerate(zip(members, couplings)):
        want = _greedy_oracle(served, gamma[mem], c, mem, cfg)
        assert np.nonzero(chosen[i])[0].tolist() == want.tolist()


def _rows_sha256(result):
    rows = [
        tuple(float(v) if isinstance(v, float) else v for v in dataclasses.astuple(r))
        for r in result.ue_results
    ]
    return hashlib.sha256(repr(rows).encode()).hexdigest()


def _drop_row(scheduler, seed, digest, n_beams=4, **clusters):
    """(id, digest, drop arguments) of one pinned drop."""
    # the default beam count and cluster geometry stay out of the id, so the first rows keep theirs
    tags = [] if n_beams == 4 else [f"beams{n_beams}"]
    tags += [f"{name}{value:g}" for name, value in clusters.items()]
    return "-".join([scheduler, str(seed), *tags]), digest, (scheduler, seed, n_beams, clusters)


_DROP_ROWS = [
    _drop_row("OFDMA_PF", 4, "5ae5ed937bdc898b44368c1618dadbe5ed6bb31c84b3a454a11b860030328ef7"),
    _drop_row("OFDMA_PF", 7, "a5095be5f633c45b9670c514cea6959c22dfd8ab273665e99d99332475979962"),
    _drop_row("SDMA_GREEDY", 4, "370546736a90999dd5f79473873b0f1a11aaae338e289c40cb1bb7bc3c1e999d"),
    _drop_row("SDMA_GREEDY", 7, "55f0fee35391a1dbe2be981bde8aa2339302a2ec633e26e7a51c6f0c412815fe"),
    # one beam per cell; and 8 beams, where an exterior cell admits more than 4
    _drop_row("SDMA_GREEDY", 4, "38e138e6543637ca82b0c84e18c264f0ab5bfb89394c9f2acc3f1e38ed7cc15a", n_beams=1),
    _drop_row("SDMA_GREEDY", 6, "b481399f6c4290f8b800a397fcc05a3df19be0b3df569caccbf07d8172a7f8f1", n_beams=8),
    # point clusters; and about 6 clusters per link, 12 to 17 slots deep
    _drop_row("OFDMA_PF", 5, "b7c16f97fe343660725c37d8331eb740f126e5fd240304b520c2243e98311915", cluster_spread_cos=0.0),
    _drop_row("SDMA_GREEDY", 3, "86e4fcb98e6e1bab8aa8952193844775a348de9ca5956e921564653253a885ae", cluster_spread_cos=0.0),
    _drop_row("OFDMA_PF", 6, "0f824cb21d78570eac6a82111b9c971db88a80c4c6218527185fc1b511f0e703", mean_extra_clusters=5.0),
    _drop_row("SDMA_GREEDY", 4, "84bf22dc248ecf338d50c4bb41c85155778fc5959679e971d1766b4be112b6fa", mean_extra_clusters=5.0),
]


def _drop_config(scheduler, n_beams, clusters):
    return toy_config(scheduler=scheduler, adc_bits=(3, 4, math.inf), n_ttis=6, n_beams_max=n_beams, **clusters)


@pytest.mark.parametrize("scheduler,seed,n_beams,clusters,digest", [
    pytest.param(*drop, digest, id=f"{name}-{digest}") for name, digest, drop in _DROP_ROWS
])
def test_drop_rows_bit_identical(scheduler, seed, n_beams, clusters, digest, monkeypatch):
    # the first four digests come from the dense-table, one-candidate-at-a-time
    # implementation, the next two from the one-cell-at-a-time scheduler, the
    # last four from tables over every padded cluster slot; about 80% of these
    # toy links are in outage, so the sparse tables, the live-slot tables and
    # the lockstep scheduler must reproduce every row bit for bit.  The beams
    # come from the full-eigh oracle, so the digests guard every stage after
    # the eigensolver bit for bit; test_drop_rows_match_eigh_oracle bounds
    # what the production solver changes
    monkeypatch.setattr(network, "_dominant_eig", _eigh_dominant_eig)
    assert _rows_sha256(network.run_drop_detailed(_drop_config(scheduler, n_beams, clusters), seed=seed)) == digest


@pytest.mark.parametrize("scheduler,seed,n_beams,clusters", [
    pytest.param(*drop, id=name) for name, _, drop in _DROP_ROWS
])
def test_drop_rows_match_eigh_oracle(scheduler, seed, n_beams, clusters, monkeypatch):
    cfg = _drop_config(scheduler, n_beams, clusters)
    got = network.run_drop_detailed(cfg, seed=seed)
    monkeypatch.setattr(network, "_dominant_eig", _eigh_dominant_eig)
    want = network.run_drop_detailed(cfg, seed=seed)
    assert np.array_equal(got.beam_counts, want.beam_counts)
    assert len(got.ue_results) == len(want.ue_results)
    for g, w in zip(got.ue_results, want.ue_results):
        assert (g.ue_index, g.serving_bs, g.n_bits, g.interior) == (w.ue_index, w.serving_bs, w.n_bits, w.interior)
        assert math.isnan(g.sinr_db) == math.isnan(w.sinr_db)
        assert math.isnan(w.sinr_db) or abs(g.sinr_db - w.sinr_db) <= 1e-9
        assert abs(g.rate_bps - w.rate_bps) <= 1e-12 * abs(w.rate_bps)


def test_resolution_dominance_per_ue():
    cfg = toy_config(adc_bits=(3, 4, math.inf))
    results = network.run_drop_detailed(cfg, seed=2).ue_results
    by_bits = {}
    for r in results:
        by_bits.setdefault(r.n_bits, {})[r.ue_index] = r
    for ue, low in by_bits[3].items():
        mid, high = by_bits[4][ue], by_bits[math.inf][ue]
        assert low.rate_bps <= mid.rate_bps + 1e-6
        assert mid.rate_bps <= high.rate_bps + 1e-6


def test_sdma_sinr_respects_saturation():
    cfg = toy_config(scheduler="SDMA_GREEDY", adc_bits=(3,), n_ttis=6)
    result = network.run_drop_detailed(cfg, seed=4)
    cap_db = 10 * math.log10(sinr.sinr_saturation(alpha_of(3), math.prod(network.UE_ARRAY)))
    finite = [r.sinr_db for r in result.ue_results if np.isfinite(r.sinr_db)]
    assert finite  # the toy drop schedules someone
    assert max(finite) <= cap_db + 0.1
    assert result.beam_counts.size == 0 or result.beam_counts.max() <= cfg.n_beams_max


def test_config_validation():
    with pytest.raises(ValueError):
        network.NetworkConfig(scheduler="ROUND_ROBIN")
    with pytest.raises(ValueError):
        network.NetworkConfig(adc_bits=(0,))
    with pytest.raises(ValueError):
        network.NetworkConfig(adc_bits=(4, 0.5))
    with pytest.raises(ValueError):
        network.NetworkConfig(area_m=-5.0)
    with pytest.raises(ValueError):
        network.NetworkConfig(adc_bits=(4, 4))


def test_config_records_infinite_resolution():
    assert network.NetworkConfig(adc_bits=(4,)).adc_bits == (4, math.inf)
    assert network.NetworkConfig(adc_bits=(3, math.inf, 4)).adc_bits == (3, math.inf, 4)


@pytest.mark.parametrize("scheduler", network.SCHEDULERS)
def test_appended_reference_row_matches_listed(scheduler):
    # the appended infinite-resolution row is the one the PF history reads,
    # so a drop gives the same rows whether or not the caller lists it
    rows = [
        [dataclasses.astuple(r) for r in network.run_drop_detailed(toy_config(scheduler=scheduler, adc_bits=bits),
                                                                   seed=3).ue_results]
        for bits in ((3, 4), (3, 4, math.inf))
    ]
    assert rows[0] == rows[1]


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("name", ["area_m", "bw_hz", "mean_ues_per_cell", "cluster_spread_cos"])
def test_config_rejects_nonfinite_fields(name, value):
    with pytest.raises(ValueError, match=name):
        network.NetworkConfig(**{name: value})


@pytest.mark.parametrize("count", [0, -1, -40])
def test_config_rejects_fixed_ue_count_below_one(count):
    with pytest.raises(ValueError, match="fixed_ue_count"):
        network.NetworkConfig(fixed_ue_count=count)


@pytest.mark.parametrize("value", [2.5, 3.0, True, "4"])
@pytest.mark.parametrize("name", ["n_beams_max", "n_ttis", "fixed_ue_count"])
def test_config_rejects_non_integer_counts(name, value):
    with pytest.raises(ValueError, match=name):
        network.NetworkConfig(**{name: value})


@pytest.mark.parametrize("value", ["1000", None, True, (1.0,)])
@pytest.mark.parametrize("name", network._FINITE_FIELDS)
def test_config_rejects_non_real_fields(name, value):
    with pytest.raises(ValueError, match=name):
        network.NetworkConfig(**{name: value})


@pytest.mark.parametrize("value", [4, "3,4", None, (), ("3",), (None,), (True,), ([3],)])
def test_config_rejects_malformed_adc_bits(value):
    with pytest.raises(ValueError, match="adc_bits"):
        network.NetworkConfig(adc_bits=value)


def test_config_accepts_numpy_and_integer_reals():
    cfg = network.NetworkConfig(area_m=500, bw_hz=np.float64(1e9), cluster_spread_cos=np.float32(0.25), adc_bits=[3, 4])
    assert (cfg.area_m, cfg.bw_hz, cfg.adc_bits) == (500, 1e9, (3, 4, math.inf))
    # a list that already holds inf is stored as a tuple too, so the config hashes
    listed = network.NetworkConfig(adc_bits=[3, math.inf])
    assert listed.adc_bits == (3, math.inf)
    assert hash(listed) == hash(network.NetworkConfig(adc_bits=(3, math.inf)))


def test_config_accepts_numpy_integer_counts():
    cfg = network.NetworkConfig(n_beams_max=np.int64(2), n_ttis=np.int32(3), fixed_ue_count=np.int64(5))
    assert (cfg.n_beams_max, cfg.n_ttis, cfg.fixed_ue_count) == (2, 3, 5)


def test_single_fixed_ue_drop_runs():
    drop = network.generate_layout(network.NetworkConfig(area_m=400.0, fixed_ue_count=1), seed=0)
    assert len(drop.ue_positions) == 1


@pytest.mark.parametrize("scheduler", network.SCHEDULERS)
def test_drop_with_every_user_in_outage(scheduler):
    # one site of radius 1000 m; at seed 1 both users sit beyond the
    # distance where every link is in outage
    cfg = network.NetworkConfig(cell_radius_m=1000.0, fixed_ue_count=2, scheduler=scheduler, n_ttis=3)
    drop = network.generate_layout(cfg, seed=1)
    assert drop.active_ue.size == 0
    result = network.run_drop_detailed(cfg, seed=1)
    assert result.ue_results == []
    assert result.beam_counts.size == 0
    assert len(drop.ue_positions) == 2


@pytest.mark.parametrize("n_drops", [0, -1, 1.5, 2.0, True, "2", None])
def test_run_drops_rejects_bad_drop_counts(n_drops):
    with pytest.raises(ValueError, match="n_drops"):
        network.run_drops(toy_config(), n_drops, seed=0)


@pytest.mark.parametrize("n_jobs", [0, -3, 1.5, "2", True, None])
def test_run_drops_rejects_bad_job_counts(n_jobs):
    with pytest.raises(ValueError, match="n_jobs"):
        network.run_drops(toy_config(n_ttis=1), 2, seed=0, n_jobs=n_jobs)


def test_run_drops_accepts_numpy_drop_count():
    assert len(network.run_drops(toy_config(n_ttis=1), np.int64(2), seed=0, n_jobs=np.int64(1))) == 2


@pytest.mark.parametrize("kw,field", [
    (dict(fixed_ue_count=network.MAX_UES_PER_DROP + 1), "fixed_ue_count"),
    (dict(fixed_ue_count=10**6), "fixed_ue_count"),
    (dict(mean_ues_per_cell=1e7), "mean_ues_per_cell"),
    (dict(fixed_ue_count=10, area_m=1e6), "area_m"),
    (dict(mean_ues_per_cell=0.001, area_m=1e5), "area_m"),
], ids=["fixed-over-cap", "fixed-million", "mean", "fixed-links", "mean-links"])
def test_config_rejects_oversized_drop(kw, field):
    # such a drop would ask numpy for gigabytes of covariances or link arrays
    with pytest.raises(ValueError, match=f"^{field} "):
        network.NetworkConfig(**kw)


def test_config_accepts_drop_at_its_limits():
    cells = network._max_cells(1000.0, 100.0)
    assert network.NetworkConfig(fixed_ue_count=network.MAX_UES_PER_DROP).fixed_ue_count == network.MAX_UES_PER_DROP
    mean = network.MAX_UES_PER_DROP / cells
    assert network.NetworkConfig(mean_ues_per_cell=mean).mean_ues_per_cell == mean
    # 10 users over the largest square area whose sites bound keeps them within the link cap
    area = 25900.0
    assert 10 * network._max_cells(area, 100.0) <= network.MAX_LINKS_PER_DROP
    assert network.NetworkConfig(fixed_ue_count=10, area_m=area).area_m == area
