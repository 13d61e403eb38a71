"""Multi-cell Monte Carlo checks at toy scale: geometry, channel
statistics, scheduler behavior, and drop determinism.  The full-scale
statistical bands live in the acceptance suite."""

import dataclasses
import hashlib
import math

import numpy as np
import pytest
from hypothesis import given, settings
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


def _rows_sha256(result):
    rows = [
        tuple(float(v) if isinstance(v, float) else v for v in dataclasses.astuple(r))
        for r in result.ue_results
    ]
    return hashlib.sha256(repr(rows).encode()).hexdigest()


@pytest.mark.parametrize("scheduler,seed,digest", [
    ("OFDMA_PF", 4, "5ae5ed937bdc898b44368c1618dadbe5ed6bb31c84b3a454a11b860030328ef7"),
    ("OFDMA_PF", 7, "a5095be5f633c45b9670c514cea6959c22dfd8ab273665e99d99332475979962"),
    ("SDMA_GREEDY", 4, "370546736a90999dd5f79473873b0f1a11aaae338e289c40cb1bb7bc3c1e999d"),
    ("SDMA_GREEDY", 7, "55f0fee35391a1dbe2be981bde8aa2339302a2ec633e26e7a51c6f0c412815fe"),
])
def test_drop_rows_bit_identical(scheduler, seed, digest):
    # digests of the dense-table, one-candidate-at-a-time implementation;
    # about 80% of these toy links are in outage, so the sparse tables and
    # the batched scheduler must reproduce every row bit for bit
    cfg = toy_config(scheduler=scheduler, adc_bits=(3, 4, math.inf), n_ttis=6)
    assert _rows_sha256(network.run_drop_detailed(cfg, seed=seed)) == digest


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
