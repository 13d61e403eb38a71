"""Command-line experiment runner.

Each preset reproduces one study end to end: it resolves an INI config
(strict keys, defaults matching the reference design tables), runs the
mapped library pipeline, and writes CSV files plus a standalone
matplotlib script per figure.  Plotting stays out of the library
dependencies; the emitted scripts consume only the CSVs next to them.

Every output embeds the fully resolved config and the seed as header
comments, so a CSV is reproducible from its own header.  Reruns with
the same config and seed are byte-identical when the timestamp line is
suppressed (--no-timestamp).

Exit codes: 0 ok, 1 config error, 2 domain error, 3 acceptance check
failed (only with --check).
"""

import argparse
import configparser
import datetime
import math
import sys
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import network, ofdm, parallel, power, quantizer, sinr, txchain

ACLR_LIMIT_BS_DB = 28.0
ACLR_LIMIT_UE_DB = 17.0


class ConfigError(Exception):
    """Carries every violation found, not just the first."""

    def __init__(self, violations):
        self.violations = list(violations)
        super().__init__("; ".join(self.violations))


# ---------------------------------------------------------------- config

def _finite(text):
    v = float(text)
    if not math.isfinite(v):
        raise ValueError(f"{v} is not finite")
    return v


def _bit_width(tok):
    """One resolution token, 'inf' or an integer, held to the quantizer's width rule."""
    tok = tok.strip()
    return quantizer._check_bits(math.inf if tok == "inf" else int(tok))


def _cast_bits(text):
    """Comma list of resolutions."""
    return tuple(_bit_width(t) for t in text.split(","))


def _cast_floats(text):
    return tuple(_finite(t) for t in text.split(","))


def _order(tok):
    """One filter order: a whole number >= 0, as a float."""
    v = _finite(tok)
    if v < 0 or not v.is_integer():
        raise ValueError(f"filter order {v:g} is not a whole number >= 0")
    return v


def _cast_orders(text):
    return tuple(_order(t) for t in text.split(","))


def _cast_range(text):
    """'lo:hi' inclusive sweep bounds."""
    lo, _, hi = text.partition(":")
    if not _:
        raise ValueError("expected lo:hi")
    lo, hi = _finite(lo), _finite(hi)
    if hi < lo:
        raise ValueError("range upper bound below lower")
    return lo, hi


def _cast_cases(text):
    """'bits:order' pairs, comma separated."""
    out = []
    for tok in text.split(","):
        b, _, o = tok.partition(":")
        if not _:
            raise ValueError("expected bits:order pairs")
        out.append((_bit_width(b), int(_order(o))))
    return tuple(out)


# domain rules: (test, what a violation says after "sec.key ")
_AT_LEAST_1 = (lambda v: v >= 1, "must be at least 1")
_AT_LEAST_0 = (lambda v: v >= 0, "must be at least 0")
_POSITIVE = (lambda v: 0 < v < math.inf, "must be positive and finite")
_NONNEGATIVE = (lambda v: 0 <= v < math.inf, "must be nonnegative and finite")
_SYMBOLS = (lambda v: v >= 3, "must be at least 3 (2 pilot symbols plus 1 data symbol)")
_PRBS = (lambda v: 1 <= v <= ofdm.OfdmNumerology.max_prbs,
         f"must be in 1..{ofdm.OfdmNumerology.max_prbs}")
_UE_COUNT = (lambda v: v == -1 or v >= 1, "must be -1 (Poisson count) or at least 1")

# section: key: (cast, default text, domain rule or None)
_SCHEMA = {
    "run": {
        "seed": (int, "0", _AT_LEAST_0),
        "jobs": (int, "1", _AT_LEAST_1),
        "out": (str, "results", None),
    },
    "link": {
        "adc_bits": (_cast_bits, "2,3,4,5", None),
        "dac_offset": (int, "2", _AT_LEAST_0),
        "snr_db": (_cast_range, "-5:25", None),
        "snr_points": (int, "10", _AT_LEAST_1),
        "n_symbols": (int, "24", _SYMBOLS),
        "used_prbs": (int, "274", _PRBS),
    },
    "sdma": {
        "adc_bits": (_cast_bits, "3,4", None),
        "sir_db": (_cast_range, "0:40", None),
        "sir_points": (int, "9", _AT_LEAST_1),
        "gamma0_db": (_cast_floats, "0,15", None),
        "n_symbols": (int, "24", _SYMBOLS),
        "used_prbs": (int, "200", _PRBS),
    },
    "aqnm": {
        "bits": (_cast_bits, "1,2,3,4,5,6,7,8", None),
        "gamma_db": (_cast_range, "-10:50", None),
        "gamma_points": (int, "61", _AT_LEAST_1),
    },
    "tx": {
        "bits": (_cast_bits, "3,4,5,inf", None),
        "lpf_orders": (_cast_orders, "0,1", None),
        "n_symbols": (int, "16", _AT_LEAST_1),
        "nperseg": (int, "4096", _AT_LEAST_1),
        "used_prbs": (int, "275", _PRBS),
        "psd_cases": (_cast_cases, "3:0,4:1,inf:0", None),
        "evm_bits": (_cast_bits, "3,4,5,6", None),
        "evm_lpf_order": (int, "1", _AT_LEAST_0),
        "inv_sigma_rf_db": (_cast_range, "20:50", None),
        "rf_points": (int, "7", _AT_LEAST_1),
    },
    "cell": {
        "drops": (int, "6", _AT_LEAST_1),
        "ttis": (int, "200", _AT_LEAST_1),
        "adc_bits": (_cast_bits, "3,4", None),
        "sdma_bits": (_cast_bits, "4", None),
        "beams": (int, "4", _AT_LEAST_1),
        "bw_hz": (float, "1e9", _POSITIVE),
        "area_m": (float, "1000", _POSITIVE),
        "radius_m": (float, "100", _POSITIVE),
        "mean_ues": (float, "10", _POSITIVE),
        "cluster_spread": (float, "0.30", _NONNEGATIVE),
        "mean_extra_clusters": (float, "2.0", _NONNEGATIVE),
        "fixed_ues": (int, "-1", _UE_COUNT),  # -1 draws a Poisson count
    },
}


def validate_config(text, overrides=()):
    """Resolve INI text against the schema; defaults fill missing keys.

    Defaults, then file items, then overrides are cast and checked in
    that order, and the last valid value wins.  Returns the flat
    {(section, key): value} mapping.  Raises ConfigError listing every
    unknown section/key, parse failure, and domain violation at once,
    including bad values that a later override replaces.
    """
    parser = configparser.ConfigParser(interpolation=None)
    try:
        parser.read_string(text)
    except configparser.Error as exc:
        raise ConfigError([f"INI parse error: {exc}"]) from exc

    violations = []
    items = [(sec, key, row[1]) for sec, keys in _SCHEMA.items() for key, row in keys.items()]
    for sec in parser.sections():
        if sec in _SCHEMA:
            items.extend((sec, key, raw) for key, raw in parser.items(sec))
        else:
            violations.append(f"unknown section [{sec}]")
    items.extend(overrides)

    resolved = {}
    for sec, key, raw in items:
        if key not in _SCHEMA.get(sec, ()):
            violations.append(f"unknown key {sec}.{key}")
            continue
        cast, _, domain = _SCHEMA[sec][key]
        try:
            value = cast(raw)
        except ValueError as exc:
            violations.append(f"bad value for {sec}.{key}: {exc}")
            continue
        if domain and not domain[0](value):
            violations.append(f"{sec}.{key} {domain[1]}")
            continue
        resolved[(sec, key)] = value

    # cross-key feasibility, on values that passed their own rows
    offset = resolved[("link", "dac_offset")]
    for b in resolved[("link", "adc_bits")]:
        try:
            quantizer._check_bits(b + offset)
        except ValueError as exc:
            violations.append(f"link.dac_offset must keep every link.adc_bits + offset a DAC width: {exc}")
            break
    chain, num = txchain.DacChainConfig(), ofdm.OfdmNumerology()  # as _tx_waveform builds them
    n_tx = resolved[("tx", "n_symbols")] * num.symbol_len * chain.interp_m * chain.zoh_oversample
    if resolved[("tx", "nperseg")] > n_tx:
        violations.append(f"tx.nperseg must not exceed the {n_tx} waveform samples of tx.n_symbols")
    if violations:
        raise ConfigError(violations)
    return resolved


@dataclass(frozen=True)
class ExperimentPreset:
    """One named experiment: its config text, (section, key, text) overrides and run flags."""

    name: str
    overrides: tuple = ()
    config_text: str = ""
    timestamp: bool = True
    check: bool = False

    def __post_init__(self):
        if self.name not in PRESETS:
            raise ConfigError([f"unknown preset {self.name!r}"])


@dataclass
class _RunContext:
    cfg: dict
    out_dir: Path
    preset: str
    stamp: bool
    check: bool
    failures: list = field(default_factory=list)

    def fail(self, msg):
        self.failures.append(msg)

    @property
    def seed(self):
        return self.cfg[("run", "seed")]

    @property
    def jobs(self):
        return self.cfg[("run", "jobs")]


# ---------------------------------------------------------------- output

def _fmt(v):
    if isinstance(v, (bool, np.bool_)):
        return str(bool(v)).lower()
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    if isinstance(v, (float, np.floating)):
        return "%.10g" % float(v)
    return str(v)


def _write_csv(ctx, name, columns, rows, notes=()):
    lines = [f"# preset = {ctx.preset}"]
    if ctx.stamp:
        lines.append(f"# generated = {datetime.datetime.now().isoformat(timespec='seconds')}")
    for (sec, key), val in sorted(ctx.cfg.items()):
        if sec == "run" and key in ("out", "jobs"):
            continue  # placement and parallelism do not shape the result
        lines.append(f"# cfg {sec}.{key} = {_fmt(val)}")
    lines.extend(f"# note: {n}" for n in notes)
    lines.append(",".join(columns))
    lines.extend(",".join(_fmt(v) for v in row) for row in rows)
    path = ctx.out_dir / name
    path.write_text("\n".join(lines) + "\n")
    return path


def _write_plot(ctx, name, body):
    (ctx.out_dir / name).write_text(body)


_LOAD_SNIPPET = '''import csv


def value(text):
    try:
        return float(text)
    except ValueError:
        return text


def load(path):
    rows = [r for r in csv.reader(open(path)) if r and not r[0].lstrip().startswith("#")]
    return rows[0], [[value(x) for x in r] for r in rows[1:]]
'''


def _grid(bounds, points):
    lo, hi = bounds
    return np.linspace(lo, hi, points)


def _bits_tag(b):
    return "inf" if b == math.inf else str(int(b))


# ---------------------------------------------------------------- power

_POWER_ARCHS = (
    ("analog", "analog", 1, 8),
    ("hybrid", "hybrid", 2, 8),
    ("digital", "digital", 16, 8),
    ("digital-4bit", "digital", 16, 4),
)
# regression totals for the 16-antenna reference design, in mW
_POWER_TOTALS = {
    ("tx", "analog"): 356.12, ("tx", "hybrid"): 401.44,
    ("tx", "digital"): 1021.82, ("tx", "digital-4bit"): 502.62,
    ("rx", "analog"): 292.15, ("rx", "hybrid"): 337.01,
    ("rx", "digital"): 742.35, ("rx", "digital-4bit"): 242.85,
}


def _run_power_table(ctx):
    rows = []
    for label, kind, streams, bits in _POWER_ARCHS:
        arch = power.ArchSpec(kind, streams)
        tx, rx = power.front_end_budget(
            power.default_tx_config(n_dac_bits=bits),
            power.default_rx_config(n_adc_bits=bits, arch_kind=kind),
            arch,
        )
        for side, budget in (("tx", tx), ("rx", rx)):
            rows.append((f"{side}-{label}", "rffe", budget.rffe_mw))
            rows.append((f"{side}-{label}", "gain", budget.gain_stage_mw))
            rows.append((f"{side}-{label}", "converter", budget.converter_mw))
            rows.append((f"{side}-{label}", "total", budget.total_mw))
            if ctx.check:
                want = _POWER_TOTALS[(side, label)]
                if abs(budget.total_mw - want) > 0.01 * want:
                    ctx.fail(f"{side}-{label} total {budget.total_mw:.2f} mW off reference {want} by >1%")
    _write_csv(ctx, "power_table.csv", ("arch", "stage", "mw"), rows)
    _write_plot(ctx, "power_table_plot.py", _POWER_PLOT)


_POWER_PLOT = _LOAD_SNIPPET + '''
import matplotlib.pyplot as plt

head, rows = load("power_table.csv")
archs, stages = [], ("rffe", "gain", "converter")
data = {}
for arch, stage, mw in rows:
    if arch not in archs and stage == "total":
        archs.append(arch)
    data[(arch, stage)] = mw

fig, ax = plt.subplots(figsize=(8, 4))
bottom = [0.0] * len(archs)
for stage in stages:
    vals = [data[(a, stage)] for a in archs]
    ax.bar(archs, vals, bottom=bottom, label=stage)
    bottom = [b + v for b, v in zip(bottom, vals)]
ax.set_ylabel("power (mW)")
ax.legend()
fig.autofmt_xdate(rotation=30)
fig.tight_layout()
fig.savefig("power_table.png", dpi=150)
'''


# ---------------------------------------------------------------- aqnm

def _run_aqnm_curves(ctx):
    bits = ctx.cfg[("aqnm", "bits")]
    alpha_rows = [(b, quantizer.alpha_of(b)) for b in bits]
    _write_csv(ctx, "aqnm_alpha.csv", ("n_bits", "alpha"), alpha_rows)

    gammas = _grid(ctx.cfg[("aqnm", "gamma_db")], ctx.cfg[("aqnm", "gamma_points")])
    sinr_rows = []
    for b, a in alpha_rows:
        sat = math.inf if a == 0 else 10.0 * math.log10(sinr.sinr_saturation(a, 1.0))
        for g_db in gammas:
            s = sinr.sinr_orthogonal_quantized(10.0 ** (g_db / 10.0), a, 1.0)
            sinr_rows.append((g_db, b, 10.0 * math.log10(s), sat))
    _write_csv(ctx, "aqnm_sinr.csv", ("gamma_db", "n_bits", "sinr_db", "saturation_db"), sinr_rows)
    _write_plot(ctx, "aqnm_curves_plot.py", _AQNM_PLOT)

    if ctx.check:
        if abs(quantizer.alpha_of(1) - (1.0 - 2.0 / math.pi)) > 1e-9:
            ctx.fail("1-bit alpha deviates from 1 - 2/pi")
        finite = [a for b, a in alpha_rows if b != math.inf]
        if any(a2 >= a1 for a1, a2 in zip(finite, finite[1:])):
            ctx.fail("alpha not strictly decreasing in resolution")


_AQNM_PLOT = _LOAD_SNIPPET + '''
import matplotlib.pyplot as plt

head, rows = load("aqnm_sinr.csv")
curves = {}
for g_db, n_bits, s_db, sat_db in rows:
    curves.setdefault(n_bits, []).append((g_db, s_db))

fig, ax = plt.subplots(figsize=(7, 5))
for n_bits, pts in sorted(curves.items()):
    xs, ys = zip(*pts)
    ax.plot(xs, ys, label=f"{n_bits:g} bits")
ax.set_xlabel("pre-quantization SNR (dB)")
ax.set_ylabel("quantized SINR (dB)")
ax.grid(True, alpha=0.4)
ax.legend()
fig.tight_layout()
fig.savefig("aqnm_curves.png", dpi=150)
'''


# ---------------------------------------------------------------- link

def _link_job(args):
    snr_db, n_adc, n_dac, prbs, n_sym, seed = args
    num = ofdm.OfdmNumerology(used_prbs=prbs)
    cfg = ofdm.LinkTrialConfig(
        snr_db=snr_db, n_adc=n_adc, n_dac=n_dac, numerology=num, n_symbols=n_sym, seed=seed
    )
    return ofdm.run_link_trial(cfg), ofdm.predict_link_snr_db(snr_db, n_adc, num)


def _run_link_validate(ctx):
    bits = ctx.cfg[("link", "adc_bits")]
    offset = ctx.cfg[("link", "dac_offset")]
    prbs = ctx.cfg[("link", "used_prbs")]
    n_sym = ctx.cfg[("link", "n_symbols")]
    snrs = _grid(ctx.cfg[("link", "snr_db")], ctx.cfg[("link", "snr_points")])
    args = []
    for n_adc in bits:
        n_dac = n_adc + offset
        for i, s in enumerate(snrs):
            args.append((float(s), n_adc, n_dac, prbs, n_sym, ctx.seed + i))
    results = parallel.pool_map(_link_job, args, ctx.jobs)
    rows = [
        (s, n_adc, n_dac, prbs, meas, pred)
        for (s, n_adc, n_dac, _p, _n, _sd), (meas, pred) in zip(args, results)
    ]
    _write_csv(ctx, "link_validate.csv",
               ("snr_db", "n_adc", "n_dac", "used_prbs", "post_eq_db", "predicted_db"), rows,
               notes=("trial seed = run.seed + SNR point index",))
    _write_plot(ctx, "link_validate_plot.py", _LINK_PLOT)

    if ctx.check:
        for s, n_adc, _d, _p, meas, pred in rows:
            if s <= 25.0 and abs(meas - pred) > 0.5:
                ctx.fail(f"|simulated-predicted| = {abs(meas - pred):.3f} dB at n={n_adc}, snr={s:g}")


_LINK_PLOT = _LOAD_SNIPPET + '''
import matplotlib.pyplot as plt

head, rows = load("link_validate.csv")
curves = {}
for snr, n_adc, n_dac, prbs, meas, pred in rows:
    curves.setdefault(n_adc, []).append((snr, meas, pred))

fig, ax = plt.subplots(figsize=(7, 5))
for n_adc, pts in sorted(curves.items()):
    xs, ms, ps = zip(*pts)
    line, = ax.plot(xs, ms, "o", label=f"{n_adc:g}-bit simulated")
    ax.plot(xs, ps, "-", color=line.get_color(), label=f"{n_adc:g}-bit predicted")
ax.set_xlabel("input SNR (dB)")
ax.set_ylabel("post-equalization SNR (dB)")
ax.grid(True, alpha=0.4)
ax.legend(fontsize=8)
fig.tight_layout()
fig.savefig("link_validate.png", dpi=150)
'''


# ---------------------------------------------------------------- sdma link

def _sdma_job(args):
    sir_db, gamma0_db, n_adc, prbs, n_sym, seed = args
    num = ofdm.OfdmNumerology(used_prbs=prbs)
    cfg = ofdm.LinkTrialConfig(
        snr_db=0.0, n_adc=n_adc, n_dac=math.inf, numerology=num, n_symbols=n_sym,
        seed=seed, sir_db=None if sir_db == math.inf else sir_db, gamma0_db=gamma0_db,
    )
    meas = ofdm.run_sdma_link_trial(cfg)
    pred = ofdm.predict_sdma_sinr_db(sir_db, gamma0_db, n_adc, num)
    return meas, pred


def _run_sdma_link(ctx):
    bits = ctx.cfg[("sdma", "adc_bits")]
    prbs = ctx.cfg[("sdma", "used_prbs")]
    n_sym = ctx.cfg[("sdma", "n_symbols")]
    sirs = [float(s) for s in _grid(ctx.cfg[("sdma", "sir_db")], ctx.cfg[("sdma", "sir_points")])]
    sirs.append(math.inf)  # interference-free reference point
    all_bits = tuple(bits) + ((math.inf,) if math.inf not in bits else ())

    for gamma0 in ctx.cfg[("sdma", "gamma0_db")]:
        args = []
        for n_adc in all_bits:
            for i, s in enumerate(sirs):
                args.append((s, float(gamma0), n_adc, prbs, n_sym, ctx.seed + i))
        results = parallel.pool_map(_sdma_job, args, ctx.jobs)
        rows = [
            (s, n_adc, math.inf, prbs, meas, pred)
            for (s, _g, n_adc, _p, _n, _sd), (meas, pred) in zip(args, results)
        ]
        name = f"sdma_link_g{gamma0:g}.csv"
        _write_csv(ctx, name,
                   ("sir_db", "n_adc", "n_dac", "used_prbs", "post_eq_db", "predicted_db"), rows,
                   notes=(f"gamma0_db = {gamma0:g} (post-beamforming SNR without interference)",
                          "transmit side runs unquantized; sir_db = inf disables the interferer"))
        if ctx.check:
            meas_by = {(r[1], r[0]): r[4] for r in rows}
            for n_adc in bits:
                if n_adc == math.inf:
                    continue
                for s in sirs:
                    loss = meas_by[(math.inf, s)] - meas_by[(n_adc, s)]
                    if gamma0 == 0 and n_adc == 3 and loss >= 0.5:
                        ctx.fail(f"g0=0: n=3 loss {loss:.3f} dB at SIR {s:g} not < 0.5")
                    if gamma0 == 15 and s >= 30:
                        if n_adc == 3 and abs(loss - 2.0) > 0.7:
                            ctx.fail(f"g0=15: n=3 loss {loss:.3f} dB at SIR {s:g} outside 2±0.7")
                        if n_adc == 4 and loss >= 1.0:
                            ctx.fail(f"g0=15: n=4 loss {loss:.3f} dB at SIR {s:g} not < 1")
    _write_plot(ctx, "sdma_link_plot.py", _SDMA_PLOT.format(
        files=", ".join(f'"sdma_link_g{g:g}.csv"' for g in ctx.cfg[("sdma", "gamma0_db")])))


_SDMA_PLOT = _LOAD_SNIPPET + '''
import matplotlib.pyplot as plt

files = [{files}]
fig, axes = plt.subplots(1, len(files), figsize=(6 * len(files), 5), squeeze=False)
for ax, path in zip(axes[0], files):
    head, rows = load(path)
    curves = {{}}
    for sir, n_adc, n_dac, prbs, meas, pred in rows:
        if sir != float("inf"):
            curves.setdefault(n_adc, []).append((sir, meas, pred))
    for n_adc, pts in sorted(curves.items()):
        xs, ms, ps = zip(*pts)
        line, = ax.plot(xs, ms, "o-", label=f"{{n_adc:g}}-bit simulated")
        ax.plot(xs, ps, "--", color=line.get_color(), label=f"{{n_adc:g}}-bit predicted")
    ax.set_xlabel("SIR (dB)")
    ax.set_ylabel("post-equalization SINR (dB)")
    ax.set_title(path)
    ax.grid(True, alpha=0.4)
    ax.legend(fontsize=8)
fig.tight_layout()
fig.savefig("sdma_link.png", dpi=150)
'''


# ---------------------------------------------------------------- cells

_NETWORK_NOTES = (
    "per-stream quantization noise scaled by the receive eigen-gain (alpha/G)",
    "SDMA transmit power split equally across admitted beams",
    "UE count per drop is Poisson unless cell.fixed_ues >= 0",
)


def _network_config(ctx, scheduler, primary_bits, eval_bits, beams):
    c = ctx.cfg
    fixed = c[("cell", "fixed_ues")]
    return network.NetworkConfig(
        area_m=c[("cell", "area_m")],
        cell_radius_m=c[("cell", "radius_m")],
        bw_hz=c[("cell", "bw_hz")],
        mean_ues_per_cell=c[("cell", "mean_ues")],
        n_adc_bits=primary_bits,
        eval_bits=eval_bits,
        n_beams_max=beams,
        scheduler=scheduler,
        n_ttis=c[("cell", "ttis")],
        seed=ctx.seed,
        cluster_spread_cos=c[("cell", "cluster_spread")],
        mean_extra_clusters=c[("cell", "mean_extra_clusters")],
        fixed_ue_count=None if fixed < 0 else fixed,
    )


def _collect_cell_rows(drops_out, scheduler):
    rows = []
    for di, res in enumerate(drops_out):
        for r in res.ue_results:
            rows.append((di, r.ue_index, r.serving_bs, r.sinr_db, r.rate_bps, r.n_bits,
                         scheduler, r.interior))
    return rows


def _interior_metric(drops_out, bits, attr):
    vals = [
        getattr(r, attr)
        for res in drops_out
        for r in res.ue_results
        if r.n_bits == bits and r.interior and math.isfinite(r.sinr_db)
    ]
    return np.array(vals)


def _write_cdfs(ctx, stem, drops_out, bits_list):
    pct = np.arange(1, 100)
    for b in bits_list:
        tag = _bits_tag(b)
        sv = _interior_metric(drops_out, b, "sinr_db")
        rv = _interior_metric(drops_out, b, "rate_bps")
        if sv.size == 0:
            raise ValueError("no scheduled interior users; enlarge the area or UE density")
        _write_csv(ctx, f"{stem}_sinr_cdf_n{tag}.csv", ("percentile", "value"),
                   list(zip(pct, np.percentile(sv, pct))), notes=_NETWORK_NOTES)
        _write_csv(ctx, f"{stem}_rate_cdf_n{tag}.csv", ("percentile", "value"),
                   list(zip(pct, np.percentile(rv, pct))), notes=_NETWORK_NOTES)


def _check_dominance(ctx, drops_out, bits_list):
    finite = sorted(b for b in bits_list if b != math.inf)
    order = finite + [math.inf]
    for res in drops_out:
        by_bits = {}
        for r in res.ue_results:
            by_bits.setdefault(r.n_bits, {})[r.ue_index] = r.rate_bps
        for lo, hi in zip(order, order[1:]):
            for ue, rate in by_bits[lo].items():
                if rate > by_bits[hi][ue] + 1e-6:
                    ctx.fail(f"rate at {lo} bits exceeds {hi} bits for ue {ue}")
                    return


def _run_cell(ctx, scheduler, bits, stem):
    """Drops, per-UE CSV, CDFs, plot and rate-dominance check of a cell preset.

    bits[0] is the width the drop is scheduled at; the rest are also
    recorded, plus infinite resolution.  Returns the drops and every
    recorded width, for the preset's own outputs and checks.
    """
    eval_bits = tuple(bits[1:]) + ((math.inf,) if math.inf not in bits else ())
    ncfg = _network_config(ctx, scheduler, bits[0], eval_bits, ctx.cfg[("cell", "beams")])
    drops_out = network.run_drops(ncfg, ctx.cfg[("cell", "drops")], n_jobs=ctx.jobs)
    rows = _collect_cell_rows(drops_out, scheduler)
    _write_csv(ctx, f"{stem}_ue.csv",
               ("drop", "ue", "serving_bs", "sinr_db", "rate_bps", "n_bits", "scheduler", "interior"),
               rows, notes=_NETWORK_NOTES)
    all_bits = (bits[0],) + eval_bits
    _write_cdfs(ctx, stem, drops_out, all_bits)
    _write_plot(ctx, f"{stem}_plot.py", _CELL_PLOT.format(
        stem=stem, bits=", ".join(f'"{_bits_tag(b)}"' for b in all_bits)))
    if ctx.check:
        _check_dominance(ctx, drops_out, all_bits)
    return drops_out, all_bits


def _run_cell_ofdma(ctx):
    drops_out, all_bits = _run_cell(ctx, "OFDMA_PF", ctx.cfg[("cell", "adc_bits")], "cell_ofdma")
    if ctx.check and 3 in all_bits:
        loss = _interior_metric(drops_out, math.inf, "sinr_db") - _interior_metric(drops_out, 3, "sinr_db")
        med, p90 = np.percentile(loss, 50), np.percentile(loss, 90)
        if not (0.5 <= med <= 2.0):
            ctx.fail(f"3-bit median SINR loss {med:.2f} dB outside [0.5, 2]")
        if not (2.0 <= p90 <= 6.0):
            ctx.fail(f"3-bit 90th-percentile SINR loss {p90:.2f} dB outside [2, 6]")


def _run_cell_sdma(ctx):
    drops_out, _ = _run_cell(ctx, "SDMA_GREEDY", ctx.cfg[("cell", "sdma_bits")], "cell_sdma")
    beams = ctx.cfg[("cell", "beams")]
    counts = np.concatenate([r.beam_counts for r in drops_out])
    hist = [(k, int((counts == k).sum())) for k in range(1, beams + 1)]
    _write_csv(ctx, "cell_sdma_beams.csv", ("n_beams", "count"), hist, notes=_NETWORK_NOTES)
    if ctx.check and beams == 2:
        frac = (counts == 2).mean()
        if frac <= 0.9:
            ctx.fail(f"2-beam usage fraction {frac:.3f} not > 0.9")


_CELL_PLOT = _LOAD_SNIPPET + '''
import matplotlib.pyplot as plt

bits = [{bits}]
fig, axes = plt.subplots(1, 2, figsize=(11, 4.5))
for metric, ax, xlabel in (("sinr", axes[0], "SINR (dB)"), ("rate", axes[1], "rate (bps)")):
    for b in bits:
        head, rows = load(f"{stem}_{{metric}}_cdf_n{{b}}.csv")
        xs = [v for p, v in rows]
        ps = [p / 100.0 for p, v in rows]
        ax.plot(xs, ps, label=f"{{b}} bits")
    ax.set_xlabel(xlabel)
    ax.set_ylabel("CDF")
    ax.grid(True, alpha=0.4)
    ax.legend()
    if metric == "rate":
        ax.set_xscale("log")
fig.tight_layout()
fig.savefig("{stem}_cdf.png", dpi=150)
'''


# ---------------------------------------------------------------- tx

def _tx_waveform(bits, order, prbs, n_symbols, seed):
    num = ofdm.OfdmNumerology(used_prbs=prbs)
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    grid = ofdm.random_grid("QPSK", n_symbols, num.n_subcarriers, rng)
    base = ofdm.ofdm_modulate(grid, num)
    cfg = txchain.DacChainConfig(n_bits=bits, lpf_order=order)
    return txchain.apply_reconstruction_lpf(txchain.dac_convert(base, cfg), cfg)


def _psd_job(args):
    bits, order, prbs, n_sym, nperseg, seed = args
    out = _tx_waveform(bits, order, prbs, n_sym, seed)
    report = txchain.estimate_psd(out, nperseg)
    return report.freqs_hz, report.psd_dbm_per_hz, np.var(out.samples)


def _run_tx_psd(ctx):
    prbs = ctx.cfg[("tx", "used_prbs")]
    n_sym = ctx.cfg[("tx", "n_symbols")]
    nperseg = ctx.cfg[("tx", "nperseg")]
    cases = ctx.cfg[("tx", "psd_cases")]
    args = [(b, o, prbs, n_sym, nperseg, ctx.seed) for b, o in cases]
    results = parallel.pool_map(_psd_job, args, ctx.jobs)
    names = []
    for (bits, order, *_), (freqs, psd, block_var) in zip(args, results):
        name = f"tx_psd_n{_bits_tag(bits)}_o{order}.csv"
        names.append(name)
        _write_csv(ctx, name, ("freq_offset_hz", "psd_db"), list(zip(freqs, psd)),
                   notes=("unit-power baseband; PSD is relative (dBc/Hz)",))
        if ctx.check:
            total = np.trapezoid(10.0 ** (np.asarray(psd) / 10.0), freqs)
            if abs(total - block_var) > 0.03 * block_var:
                ctx.fail(f"PSD integral off block power by >3% for n={bits:g}, order {order}")
    _write_plot(ctx, "tx_psd_plot.py", _PSD_PLOT.format(files=", ".join(f'"{n}"' for n in names)))


_PSD_PLOT = _LOAD_SNIPPET + '''
import matplotlib.pyplot as plt

fig, ax = plt.subplots(figsize=(8, 5))
for path in [{files}]:
    head, rows = load(path)
    xs = [f / 1e6 for f, p in rows]
    ys = [p for f, p in rows]
    ax.plot(xs, ys, lw=0.8, label=path.replace("tx_psd_", "").replace(".csv", ""))
ax.set_xlabel("frequency offset (MHz)")
ax.set_ylabel("PSD (dBc/Hz)")
ax.set_xlim(-1200, 1200)
ax.grid(True, alpha=0.4)
ax.legend()
fig.tight_layout()
fig.savefig("tx_psd.png", dpi=150)
'''


def _aclr_job(args):
    bits, order, prbs, n_sym, nperseg, seed = args
    out = _tx_waveform(bits, order, prbs, n_sym, seed)
    report = txchain.estimate_psd(out, nperseg)
    plan = txchain.ChannelPlan()
    return tuple(txchain.measure_aclr(report, plan, i) for i in (-2, -1, 1, 2))


def _run_aclr_sweep(ctx):
    bits = ctx.cfg[("tx", "bits")]
    orders = [int(o) for o in ctx.cfg[("tx", "lpf_orders")]]
    prbs = ctx.cfg[("tx", "used_prbs")]
    n_sym = ctx.cfg[("tx", "n_symbols")]
    nperseg = ctx.cfg[("tx", "nperseg")]
    args = [(b, o, prbs, n_sym, nperseg, ctx.seed) for b in bits for o in orders]
    results = parallel.pool_map(_aclr_job, args, ctx.jobs)
    rows = []
    table = {}
    for (b, o, *_), aclrs in zip(args, results):
        for idx, val in zip((-2, -1, 1, 2), aclrs):
            rows.append((b, o, idx, val, ACLR_LIMIT_BS_DB, ACLR_LIMIT_UE_DB))
            table[(b, o, idx)] = val
    _write_csv(ctx, "aclr_sweep.csv",
               ("n_bits", "lpf_order", "adj_index", "aclr_db", "limit_bs_db", "limit_ue_db"), rows)
    _write_plot(ctx, "aclr_sweep_plot.py", _ACLR_PLOT)

    if ctx.check:
        for b in bits:
            if b != math.inf and b >= 3 and 0 in orders and table[(b, 0, 1)] < ACLR_LIMIT_UE_DB:
                ctx.fail(f"n={b:g}, order 0: ACLR1 {table[(b, 0, 1)]:.2f} dB below {ACLR_LIMIT_UE_DB}")
            if b != math.inf and b >= 4 and 1 in orders and table[(b, 1, 1)] < ACLR_LIMIT_BS_DB:
                ctx.fail(f"n={b:g}, order 1: ACLR1 {table[(b, 1, 1)]:.2f} dB below {ACLR_LIMIT_BS_DB}")
        if math.inf in bits and 0 in orders and table[(math.inf, 0, 2)] >= ACLR_LIMIT_BS_DB:
            ctx.fail("infinite resolution, order 0: ACLR2 unexpectedly meets the 28 dB limit")


_ACLR_PLOT = _LOAD_SNIPPET + '''
import matplotlib.pyplot as plt

head, rows = load("aclr_sweep.csv")
curves = {}
for b, o, idx, val, lim_bs, lim_ue in rows:
    if idx == 1:
        curves.setdefault(o, []).append((b, val))

fig, ax = plt.subplots(figsize=(7, 5))
for o, pts in sorted(curves.items()):
    finite = sorted((b, v) for b, v in pts if b != float("inf"))
    xs, ys = zip(*finite)
    ax.plot(xs, ys, "o-", label=f"LPF order {o:g}")
ax.axhline(28, color="k", ls="--", lw=0.8, label="28 dB (wide-area)")
ax.axhline(17, color="k", ls=":", lw=0.8, label="17 dB (local-area)")
ax.set_xlabel("DAC resolution (bits)")
ax.set_ylabel("ACLR, first adjacent channel (dB)")
ax.grid(True, alpha=0.4)
ax.legend()
fig.tight_layout()
fig.savefig("aclr_sweep.png", dpi=150)
'''


def _evm_job(args):
    bits, order, inv_sigma_db, n_sym, seed = args
    cfg = txchain.DacChainConfig(n_bits=bits, lpf_order=order)
    sigma = 0.0 if inv_sigma_db == math.inf else 10.0 ** (-inv_sigma_db / 10.0)
    return txchain.measure_evm(cfg, sigma_rf_sq=sigma, n_symbols=n_sym, seed=seed)


def _run_evm_sweep(ctx):
    bits = ctx.cfg[("tx", "evm_bits")]
    order = ctx.cfg[("tx", "evm_lpf_order")]
    n_sym = ctx.cfg[("tx", "n_symbols")]
    points = [float(x) for x in _grid(ctx.cfg[("tx", "inv_sigma_rf_db")], ctx.cfg[("tx", "rf_points")])]
    args = [(b, order, x, n_sym, ctx.seed) for b in bits for x in points]
    floor_args = [(b, order, math.inf, n_sym, ctx.seed) for b in bits]
    results = parallel.pool_map(_evm_job, args + floor_args, ctx.jobs)
    rows = [(b, x, evm) for (b, _o, x, _n, _s), evm in zip(args, results[: len(args)])]
    _write_csv(ctx, "evm_sweep.csv", ("n_bits", "inv_sigma_rf_db", "evm_pct"), rows)

    chain = txchain.DacChainConfig(lpf_order=order)
    num = txchain._evm_numerology(chain)  # the frame measure_evm runs
    floor_rows = []
    for (b, *_), measured in zip(floor_args, results[len(args):]):
        sig_v2 = txchain.inband_quantization_noise(b, chain, num.occupied_bw_hz)
        predicted = txchain.evm_prediction(quantizer.alpha_of(b), 0.0, sig_v2)
        floor_rows.append((b, measured, predicted))
        if ctx.check and b != math.inf and 3 <= b <= 6:
            if abs(measured - predicted) > 0.10 * predicted:
                ctx.fail(f"n={b:g}: EVM floor {measured:.3f}% off prediction {predicted:.3f}% by >10%")
    _write_csv(ctx, "evm_floor.csv", ("n_bits", "measured_pct", "predicted_pct"), floor_rows)
    _write_plot(ctx, "evm_sweep_plot.py", _EVM_PLOT)

    if ctx.check:
        at = {(b, x): evm for b, x, evm in rows}
        ref = max(p for p in points)
        for b, threshold, should_pass in ((4, 8.0, True), (6, 3.5, True), (5, 3.5, False)):
            if b in bits and (b, ref) in at:
                ok = at[(b, ref)] < threshold
                if ok != should_pass:
                    verdict = "meets" if ok else "misses"
                    ctx.fail(f"n={b}: EVM {at[(b, ref)]:.2f}% unexpectedly {verdict} the {threshold}% threshold")


_EVM_PLOT = _LOAD_SNIPPET + '''
import matplotlib.pyplot as plt

head, rows = load("evm_sweep.csv")
fhead, frows = load("evm_floor.csv")
curves = {}
for b, x, evm in rows:
    curves.setdefault(b, []).append((x, evm))
floors = {b: pred for b, meas, pred in frows}

fig, ax = plt.subplots(figsize=(7, 5))
for b, pts in sorted(curves.items()):
    xs, ys = zip(*pts)
    line, = ax.plot(xs, ys, "o-", label=f"{b:g} bits")
    ax.axhline(floors[b], color=line.get_color(), ls="--", lw=0.8)
for lim in (8.0, 3.5):
    ax.axhline(lim, color="k", ls=":", lw=0.8)
ax.set_xlabel("1/sigma_RF^2 (dB)")
ax.set_ylabel("EVM (%)")
ax.set_yscale("log")
ax.grid(True, alpha=0.4, which="both")
ax.legend()
fig.tight_layout()
fig.savefig("evm_sweep.png", dpi=150)
'''


# ---------------------------------------------------------------- driver

# preset name: (runner, config key behind --bits, config key behind --snr)
_PRESETS = {
    "power-table": (_run_power_table, None, None),
    "aqnm-curves": (_run_aqnm_curves, ("aqnm", "bits"), ("aqnm", "gamma_db")),
    "link-validate": (_run_link_validate, ("link", "adc_bits"), ("link", "snr_db")),
    "sdma-link": (_run_sdma_link, ("sdma", "adc_bits"), ("sdma", "sir_db")),
    "cell-ofdma": (_run_cell_ofdma, ("cell", "adc_bits"), None),
    "cell-sdma": (_run_cell_sdma, ("cell", "sdma_bits"), None),
    "tx-psd": (_run_tx_psd, ("tx", "bits"), None),
    "aclr-sweep": (_run_aclr_sweep, ("tx", "bits"), None),
    "evm-sweep": (_run_evm_sweep, ("tx", "evm_bits"), None),
}
PRESETS = tuple(_PRESETS)


def run_preset(preset):
    """Run one experiment preset; returns the process exit code."""
    cfg = validate_config(preset.config_text, preset.overrides)
    out_dir = Path(cfg[("run", "out")])
    out_dir.mkdir(parents=True, exist_ok=True)
    ctx = _RunContext(cfg=cfg, out_dir=out_dir, preset=preset.name,
                      stamp=preset.timestamp, check=preset.check)
    _PRESETS[preset.name][0](ctx)
    if ctx.failures:
        for f in ctx.failures:
            print(f"check failed: {f}", file=sys.stderr)
        return 3
    if preset.check:
        print(f"{preset.name}: all checks passed")
    return 0


class _Parser(argparse.ArgumentParser):
    """Exit 1 on usage problems; they are config errors in this contract."""

    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"config error: {message}", file=sys.stderr)
        raise SystemExit(1)


def main(argv=None):
    ap = _Parser(
        prog="lowresbf",
        description="Quantization-limited beamforming experiments: presets write CSVs and plot scripts.",
    )
    ap.add_argument("preset_pos", nargs="?", choices=PRESETS, metavar="preset",
                    help="experiment preset: " + ", ".join(PRESETS))
    ap.add_argument("--preset", choices=PRESETS, help="alternative to the positional preset")
    ap.add_argument("--config", help="INI config file (strict keys; empty means all defaults)")
    ap.add_argument("--seed", default=None, help="override run.seed")
    ap.add_argument("--jobs", default=None, help="override run.jobs, the worker pool size")
    ap.add_argument("--out", default=None, help="override run.out, the output directory")
    ap.add_argument("--no-timestamp", action="store_true", help="omit the timestamp header line")
    ap.add_argument("--check", action="store_true",
                    help="verify the preset's acceptance properties; exit 3 on violation")
    ap.add_argument("--bits", default=None, help="override the preset's resolution list, e.g. 2,3,4")
    ap.add_argument("--snr", default=None, help="override the preset's sweep range as lo:hi")
    ns = ap.parse_args(argv)

    name = ns.preset_pos or ns.preset
    if name is None or (ns.preset_pos and ns.preset and ns.preset_pos != ns.preset):
        ap.print_usage(sys.stderr)
        print("error: exactly one preset must be given", file=sys.stderr)
        return 1

    try:
        text = Path(ns.config).read_text() if ns.config else ""
    except OSError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1

    overrides = []
    _, bits_key, snr_key = _PRESETS[name]
    flags = (("--seed", ns.seed, ("run", "seed")), ("--jobs", ns.jobs, ("run", "jobs")),
             ("--out", ns.out, ("run", "out")), ("--bits", ns.bits, bits_key), ("--snr", ns.snr, snr_key))
    for flag, value, key in flags:
        if value is None:
            continue
        if key is None:
            print(f"config error: {flag} does not apply to {name}", file=sys.stderr)
            return 1
        overrides.append((*key, value))

    try:
        return run_preset(ExperimentPreset(name=name, overrides=tuple(overrides), config_text=text,
                                           timestamp=not ns.no_timestamp, check=ns.check))
    except ConfigError as exc:
        for v in exc.violations:
            print(f"config error: {v}", file=sys.stderr)
        return 1
    except ValueError as exc:
        print(f"domain error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
