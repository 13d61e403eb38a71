"""Headline acceptance gates, one test per claim.

Each test pins one end-to-end behavior of the toolkit at a stated
tolerance and prints the measured numbers, so a verbose run of this module
doubles as the verification record.  Oracle helpers are deliberately
duplicated from the unit-test files; nothing here imports another test
module.

Two gates fail on this implementation and are left failing on purpose
rather than widened:

* ``test_aclr_wide_area_limit_order1``: the 4-bit chain behind the order-1
  reconstruction filter measures ACLR1 a few hundredths of a dB below the
  28 dB wide-area limit.  The 5-bit chain clears the limit with 5 dB of
  margin and every other spectral gate holds, so the shortfall is reported
  instead of being absorbed into a looser tolerance.
* ``test_cell_ofdma_tail_loss``: the 90th-percentile 3-bit SINR loss over
  interior users lands near 9 dB, outside the [2, 6] dB gate, while the
  median sits inside its band.  The tail is systematic, not a seed
  artifact: cell-center users reach pre-quantization SINRs where the
  quantization term dwarfs their interference floor, so their loss
  approaches the full distance to the saturation ceiling.
"""

import math
import time

import numpy as np
import pytest

from lowresbf import network, ofdm, quantizer, sinr, txchain
from lowresbf import power

NUM_274 = ofdm.OfdmNumerology(used_prbs=274)
NUM_200 = ofdm.OfdmNumerology(used_prbs=200)


def check(ok, line):
    print(("PASS " if ok else "FAIL ") + line)
    assert ok, line


# ---------------------------------------------------------------- power

POWER_TOTALS_MW = {
    ("tx", "analog"): 356.12, ("tx", "hybrid"): 401.44,
    ("tx", "digital"): 1021.82, ("tx", "digital-4bit"): 502.62,
    ("rx", "analog"): 292.15, ("rx", "hybrid"): 337.01,
    ("rx", "digital"): 742.35, ("rx", "digital-4bit"): 242.85,
}


def test_power_budget_totals():
    t0 = time.perf_counter()
    worst = 0.0
    for label in ("analog", "hybrid", "digital", "digital-4bit"):
        bits = 4 if label == "digital-4bit" else 8
        kind = "digital" if label.startswith("digital") else label
        tx_budget, rx_budget = power.front_end_budget(kind, bits)
        for side, budget in (("tx", tx_budget), ("rx", rx_budget)):
            ref = POWER_TOTALS_MW[side, label]
            rel = abs(budget.total_mw - ref) / ref
            worst = max(worst, rel)
            assert rel <= 0.01, f"{side}-{label}: {budget.total_mw:.2f} mW vs {ref:.2f} mW"
    elapsed = time.perf_counter() - t0
    check(worst <= 0.01 and elapsed < 1.0,
          f"power: 8 totals within 1% (worst rel {worst:.2%}), {elapsed:.2f} s")


# ---------------------------------------------------------------- quantizer oracle

def midrise(y, step, n_bits):
    half = 2.0 ** (n_bits - 1)
    idx = np.clip(np.floor(y / step), -half, half - 1)
    return (idx + 0.5) * step


def sorted_moments(y):
    ys = np.sort(y)
    return ys, np.concatenate([[0.0], np.cumsum(ys)]), np.concatenate([[0.0], np.cumsum(ys * ys)])


def midrise_mse(moments, step, n_bits):
    """mean((y - midrise(y, step, n_bits))^2) from the sorted draw's prefix sums:
    each cell adds sum(y^2) - 2c*sum(y) + n*c^2 between two searchsorted edges."""
    ys, p1, p2 = moments
    half = 2 ** (n_bits - 1)
    k = np.arange(-half, half)
    cut = np.concatenate([[0], np.searchsorted(ys, k[1:] * step), [ys.size]])
    c = (k + 0.5) * step
    n, s1, s2 = np.diff(cut), np.diff(p1[cut]), np.diff(p2[cut])
    return float((s2 - 2.0 * c * s1 + n * c * c).sum() / ys.size)


def test_quantizer_alpha_oracle():
    """Brute-force step grid + 1e7-sample Monte Carlo, then the error-model
    cross-correlation; both sides share nothing with the package math."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(8255)
    y = rng.standard_normal(10_000_000)
    head, full = sorted_moments(y[:1_000_000]), sorted_moments(y)
    worst = 0.0
    for n_bits in range(1, 7):
        lo = 0.25 * 2.0 ** (1 - n_bits)
        coarse = np.linspace(lo, 2.5, 40)
        mse = [midrise_mse(head, s, n_bits) for s in coarse]
        s0 = coarse[int(np.argmin(mse))]
        width = 2 * (coarse[1] - coarse[0])
        fine = np.linspace(max(lo, s0 - width), s0 + width, 25)
        mse = [midrise_mse(full, s, n_bits) for s in fine]
        best = fine[int(np.argmin(mse))]
        direct = np.mean((y - midrise(y, best, n_bits)) ** 2)
        assert abs(min(mse) - direct) <= 1e-9, f"n={n_bits}: prefix-sum MSE off the direct one"
        oracle = min(mse)
        gap = abs(quantizer.alpha_of(n_bits) - oracle)
        worst = max(worst, gap)
        assert gap <= 1e-3, f"alpha({n_bits}) off brute-force oracle by {gap:.2e}"

    worst_corr = 0.0
    for n_bits in range(2, 7):
        gen = np.random.default_rng(100 + n_bits)
        x = (gen.standard_normal(1_000_000) + 1j * gen.standard_normal(1_000_000)) / math.sqrt(2)
        q = quantizer.quantize(quantizer.ComplexSampleBlock(x, 1.0), n_bits)
        v = q.samples - (1.0 - quantizer.alpha_of(n_bits)) * x
        corr = abs(np.vdot(x, v)) / math.sqrt(np.vdot(x, x).real * np.vdot(v, v).real)
        worst_corr = max(worst_corr, corr)
        assert corr < 0.02, f"n={n_bits}: |corr(error, input)| = {corr:.4f}"
    elapsed = time.perf_counter() - t0
    check(elapsed < 120.0,
          f"quantizer oracle: worst alpha gap {worst:.2e}, worst corr {worst_corr:.4f}, {elapsed:.1f} s")


# ---------------------------------------------------------------- identities

def draw_instances(seed, n=10_000):
    rng = np.random.default_rng(seed)
    gamma = 10.0 ** rng.uniform(-3, 9, n)
    bf_gain = 10.0 ** rng.uniform(0, 4, n)
    psi = 10.0 ** rng.uniform(-6, 1, n)
    alpha = rng.uniform(1e-4, 0.999, n)
    return gamma, bf_gain, psi, alpha


def test_sinr_identity_suite():
    t0 = time.perf_counter()
    gamma, bf_gain, psi, alpha = draw_instances(23)

    # psi = 0 reduces to the orthogonal expression (1-alpha)g / (1 + (alpha/G)g)
    np.testing.assert_allclose(
        sinr.sinr_quantized(gamma, bf_gain, np.zeros_like(psi), alpha),
        (1.0 - alpha) * gamma / (1.0 + (alpha / bf_gain) * gamma),
        rtol=1e-12,
    )

    beta = sinr.sdma_beta(gamma, bf_gain, psi, alpha)
    gamma_bf = gamma / (1.0 + psi * gamma)
    lhs = sinr.sinr_quantized(gamma, bf_gain, psi, alpha)
    rhs = (1.0 - alpha * beta) * gamma_bf
    # 1 - alpha*beta cancels when alpha*beta -> 1; the bound carries the
    # magnitude of the cancelled term
    tol = 1e-12 * np.maximum(np.abs(lhs), alpha * beta * gamma_bf)
    assert np.all(np.abs(lhs - rhs) <= tol)

    quantized = sinr.sinr_quantized(gamma, bf_gain, 0.0, alpha)
    assert np.all(quantized <= sinr.sinr_saturation(alpha, bf_gain) * (1 + 1e-12))

    base = lhs
    assert np.all(sinr.sinr_quantized(gamma * 1.5, bf_gain, psi, alpha) >= base)
    assert np.all(sinr.sinr_quantized(gamma, bf_gain * 1.5, psi, alpha) >= base)
    assert np.all(sinr.sinr_quantized(gamma, bf_gain, psi * 1.5, alpha) <= base)
    assert np.all(sinr.sinr_quantized(gamma, bf_gain, psi, np.minimum(alpha * 1.5, 1.0)) <= base)

    elapsed = time.perf_counter() - t0
    check(elapsed < 10.0, f"identities: 10^4 instances each, {elapsed:.2f} s")


# ---------------------------------------------------------------- OFDM link

def test_osr_gain_bookkeeping():
    assert (NUM_274.n_subcarriers, NUM_200.n_subcarriers) == (3288, 2400)
    g274 = 10 * math.log10(NUM_274.osr)
    g200 = 10 * math.log10(NUM_200.osr)
    assert g274 == pytest.approx(0.95, abs=0.01), f"osr(4096, 3288) = {g274:.4f} dB"
    assert g200 == pytest.approx(2.32, abs=0.01), f"osr(4096, 2400) = {g200:.4f} dB"
    meas = ofdm.run_link_trial(10.0, math.inf, math.inf, NUM_274, n_symbols=20, seed=0)
    gap = meas - (10.0 + g274)
    check(abs(gap) <= 0.3,
          f"osr: 0.95/2.32 dB reproduced; unquantized link sits {gap:+.3f} dB off input+OSR")


@pytest.fixture(scope="module")
def link_grid():
    snrs = np.linspace(-5.0, 25.0, 10)
    rows = {}
    t0 = time.perf_counter()
    for n_adc in (2, 3, 4, 5):
        for i, s in enumerate(snrs):
            rows[(n_adc, float(s))] = (
                ofdm.run_link_trial(float(s), n_adc, n_adc + 2, NUM_274, n_symbols=24, seed=i),
                ofdm.predict_link_snr_db(float(s), n_adc, NUM_274),
            )
    return rows, time.perf_counter() - t0


def test_link_sim_matches_model(link_grid):
    rows, elapsed = link_grid
    worst_key = max(rows, key=lambda k: abs(rows[k][0] - rows[k][1]))
    worst = abs(rows[worst_key][0] - rows[worst_key][1])
    assert worst <= 0.5, (
        f"n={worst_key[0]}, snr={worst_key[1]:g}: measured {rows[worst_key][0]:.3f} dB "
        f"vs model {rows[worst_key][1]:.3f} dB"
    )
    check(elapsed < 300.0,
          f"link grid: 4 resolutions x 10 SNRs, worst |sim-model| {worst:.3f} dB, {elapsed:.1f} s")


def test_dual_quantizer_offset():
    # matched ADC/DAC resolution saturates below the single-quantizer model
    offsets = {}
    for n in (3, 4):
        for snr in (35.0, 40.0):
            measured = ofdm.run_link_trial(snr, n, n, NUM_274, n_symbols=24, seed=0)
            offsets[(n, snr)] = ofdm.predict_link_snr_db(snr, n, NUM_274) - measured
    for key, off in offsets.items():
        assert off == pytest.approx(3.0, abs=0.7), f"n={key[0]}, snr={key[1]:g}: offset {off:.3f} dB"
    lines = ", ".join(f"n={k[0]}@{k[1]:g}dB {v:.2f}" for k, v in offsets.items())
    check(True, f"dual quantizer: saturation offsets {lines} (band 3 +/- 0.7 dB)")


@pytest.fixture(scope="module")
def sdma_measurements():
    sirs = (0.0, 10.0, 20.0, 30.0, math.inf)
    meas = {}
    t0 = time.perf_counter()
    widths = (3, 4, math.inf)
    for gamma0 in (0.0, 15.0):
        for i, s in enumerate(sirs):
            per_width = ofdm.run_sdma_link_trial(s, gamma0, widths, NUM_200, n_symbols=24, seed=i)
            for n_adc, m in zip(widths, per_width):
                meas[(gamma0, n_adc, s)] = m
    return meas, time.perf_counter() - t0


def test_sdma_loss_noise_limited(sdma_measurements):
    meas, _ = sdma_measurements
    losses = {s: meas[(0.0, math.inf, s)] - meas[(0.0, 3, s)]
              for s in (0.0, 10.0, 20.0, 30.0, math.inf)}
    for s, loss in losses.items():
        assert loss < 0.5, f"gamma0=0, n=3, SIR={s:g}: loss {loss:.3f} dB"
    check(True, "sdma low-noise: 3-bit loss < 0.5 dB at SIR "
          + ", ".join(f"{s:g}" for s in losses))


def test_sdma_loss_interference_limited(sdma_measurements):
    meas, elapsed = sdma_measurements
    report = []
    for s in (30.0, math.inf):
        ref = meas[(15.0, math.inf, s)]
        loss3 = ref - meas[(15.0, 3, s)]
        loss4 = ref - meas[(15.0, 4, s)]
        assert loss3 == pytest.approx(2.0, abs=0.7), f"gamma0=15, n=3, SIR={s:g}: loss {loss3:.3f} dB"
        assert loss4 < 1.0, f"gamma0=15, n=4, SIR={s:g}: loss {loss4:.3f} dB"
        report.append(f"SIR {s:g}: n3 {loss3:.2f}, n4 {loss4:.2f}")
    check(elapsed < 300.0, f"sdma high-SNR losses {'; '.join(report)} dB, grid {elapsed:.1f} s")


# ---------------------------------------------------------------- spectrum

@pytest.fixture(scope="module")
def aclr_table():
    num = ofdm.OfdmNumerology(used_prbs=275)
    table = {}
    t0 = time.perf_counter()
    for bits, order in ((3, 0), (4, 0), (5, 0), (4, 1), (5, 1), (math.inf, 0)):
        rng = np.random.default_rng(np.random.SeedSequence(0))
        grid = ofdm.random_grid("QPSK", 16, num.n_subcarriers, rng)
        base = ofdm.ofdm_modulate(grid, num)
        out = txchain.apply_reconstruction_lpf(txchain.dac_convert(base, bits), order)
        report = txchain.estimate_psd(out, 4096)
        for idx in (1, 2):
            table[(bits, order, idx)] = txchain.measure_aclr(report, idx)
    return table, time.perf_counter() - t0


def test_aclr_local_area_limit_order0(aclr_table):
    table, _ = aclr_table
    vals = {b: table[(b, 0, 1)] for b in (3, 4, 5)}
    for b, v in vals.items():
        assert v >= 17.0, f"n={b}, order 0: ACLR1 {v:.2f} dB below 17 dB"
    check(True, "aclr order 0: ACLR1 " + ", ".join(f"n{b} {v:.2f}" for b, v in vals.items())
          + " dB, all >= 17")


def test_aclr_wide_area_limit_order1(aclr_table):
    table, elapsed = aclr_table
    vals = {b: table[(b, 1, 1)] for b in (4, 5)}
    line = (f"aclr order 1: ACLR1 n4 {vals[4]:.2f}, n5 {vals[5]:.2f} dB against the 28 dB limit, "
            f"spectra {elapsed:.1f} s")
    check(all(v >= 28.0 for v in vals.values()), line)


def test_aclr_zoh_image_breaks_wide_area_limit(aclr_table):
    table, _ = aclr_table
    v = table[(math.inf, 0, 2)]
    check(v < 28.0, f"aclr unquantized order 0: second-channel image holds ACLR2 at {v:.2f} dB")


def test_evm_floor_matches_prediction():
    num = ofdm.OfdmNumerology(used_prbs=275)
    report = []
    for n_bits in (3, 4, 5, 6):
        measured, = txchain.measure_evm(n_bits, 1, sigma_rf_sq=(0.0,), n_symbols=8, seed=0)
        alpha = quantizer.alpha_of(n_bits)
        sig_v2 = txchain.inband_quantization_noise(n_bits, num.occupied_bw_hz)
        predicted = txchain.evm_prediction(alpha, 0.0, sig_v2)
        rel = abs(measured - predicted) / predicted
        assert rel <= 0.10, f"n={n_bits}: floor {measured:.3f}% vs model {predicted:.3f}%"
        report.append(f"n{n_bits} {measured:.2f}/{predicted:.2f}")
    check(True, f"evm floors measured/model: {', '.join(report)} %, all within 10%")


def test_evm_resolution_thresholds():
    # 1/sigma_RF^2 = 40 dB: residual RF error variance 1e-4
    vals = {}
    for n_bits in (4, 5, 6):
        vals[n_bits], = txchain.measure_evm(n_bits, 1, sigma_rf_sq=(1e-4,), n_symbols=8, seed=0)
    assert vals[4] < 8.0, f"4-bit EVM {vals[4]:.3f}% misses the 8% threshold"
    assert vals[6] < 3.5, f"6-bit EVM {vals[6]:.3f}% misses the 3.5% threshold"
    assert vals[5] >= 3.5, f"5-bit EVM {vals[5]:.3f}% unexpectedly meets the 3.5% threshold"
    check(True, f"evm thresholds: n4 {vals[4]:.2f}% < 8, n6 {vals[6]:.2f}% < 3.5, "
          f"n5 {vals[5]:.2f}% >= 3.5")


# ---------------------------------------------------------------- multi-cell

@pytest.fixture(scope="module")
def cell_runs():
    def run(scheduler, adc_bits, beams):
        cfg = network.NetworkConfig(
            adc_bits=adc_bits, n_beams_max=beams,
            scheduler=scheduler, n_ttis=200,
        )
        return network.run_drops(cfg, 20, 7, n_jobs=1)

    t0 = time.perf_counter()
    ofdma = run("OFDMA_PF", (3, 4, math.inf), 4)
    sdma4 = run("SDMA_GREEDY", (4,), 4)
    sdma2 = run("SDMA_GREEDY", (4,), 2)
    return ofdma, sdma4, sdma2, time.perf_counter() - t0


def _interior(drops, bits, attr):
    vals = {}
    for di, res in enumerate(drops):
        for r in res.ue_results:
            if r.n_bits == bits and r.interior:
                vals[(di, r.ue_index)] = getattr(r, attr)
    return vals


def test_cell_resolution_dominance(cell_runs):
    ofdma, _, _, elapsed = cell_runs
    checked = 0
    for res in ofdma:
        by_bits = {}
        for r in res.ue_results:
            by_bits.setdefault(r.n_bits, {})[r.ue_index] = r.sinr_db
        for lo, hi in ((3, 4), (4, math.inf)):
            for ue, s_lo in by_bits[lo].items():
                s_hi = by_bits[hi][ue]
                assert s_lo <= s_hi + 1e-9 or (s_lo == s_hi), \
                    f"SINR at {lo} bits beats {hi} bits for drop ue {ue}: {s_lo:.3f} > {s_hi:.3f}"
                checked += 1
    check(checked > 0, f"dominance: SINR(3) <= SINR(4) <= SINR(inf) over {checked} matched pairs, "
          f"3 schedulers simulated in {elapsed:.0f} s")


def _ofdma_loss(ofdma):
    s3 = _interior(ofdma, 3, "sinr_db")
    sinf = _interior(ofdma, math.inf, "sinr_db")
    pairs = [(sinf[k], s3[k]) for k in sinf if math.isfinite(sinf[k]) and math.isfinite(s3[k])]
    return np.array([hi - lo for hi, lo in pairs])


def test_cell_ofdma_median_loss(cell_runs):
    loss = _ofdma_loss(cell_runs[0])
    med = float(np.percentile(loss, 50))
    check(0.5 <= med <= 2.0,
          f"ofdma 3-bit median SINR loss {med:.2f} dB inside [0.5, 2] over {loss.size} interior users")


def test_cell_ofdma_tail_loss(cell_runs):
    loss = _ofdma_loss(cell_runs[0])
    p90 = float(np.percentile(loss, 90))
    check(2.0 <= p90 <= 6.0,
          f"ofdma 3-bit 90th-percentile SINR loss {p90:.2f} dB against [2, 6] "
          f"over {loss.size} interior users")


def test_cell_sdma_rate_multiplier(cell_runs):
    ofdma, sdma4, _, _ = cell_runs
    r_of = np.array(list(_interior(ofdma, 4, "rate_bps").values()))
    r_sd = np.array(list(_interior(sdma4, 4, "rate_bps").values()))
    f_of = float((r_of > 1e9).mean())
    f_sd = float((r_sd > 1e9).mean())
    ratio = f_sd / max(f_of, 1e-12)
    check(ratio >= 5.0,
          f"sdma-4: >1 Gbps fraction {f_sd:.3f} vs ofdma {f_of:.4f}, ratio {ratio:.0f}x >= 5x")


def test_cell_two_beam_usage(cell_runs):
    counts = np.concatenate([r.beam_counts for r in cell_runs[2]])
    frac = float((counts == 2).mean())
    check(frac > 0.9, f"sdma-2: both beams active in {frac:.3f} of {counts.size} TTIs")
