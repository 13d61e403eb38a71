"""Command-line experiment runner.

Each preset reproduces one study end to end: it resolves an INI config
(strict keys, defaults matching the reference design tables), runs the
mapped library pipeline, and writes CSV files plus one standalone
matplotlib script, <preset>_plot.py with underscores for dashes.  Every
script is one shared preamble (imports, CSV loader, curve grouping),
the preset's figure body, and one shared epilogue (grid, legend, layout,
savefig).  Plotting stays out of the library dependencies; the emitted
scripts consume only the CSVs next to them.

Every output embeds the fully resolved config and the seed as header
comments, so a CSV is reproducible from its own header.  Reruns with
the same config and seed are byte-identical when the timestamp line is
suppressed (--no-timestamp).

Every run also evaluates the preset's claims, the acceptance
properties behind the paper's statements, on the data it just wrote.
--check only reports them: it prints each failed claim and makes the
exit code 3, or prints "<preset>: all checks passed".

Exit codes: 0 ok, 1 config error (also a config file that is unreadable or
not UTF-8, or an unusable run.out), 2 domain error, 3 a failed claim (--check).
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
EVM_LIMIT_64QAM_PCT = 8.0
EVM_LIMIT_256QAM_PCT = 3.5


class ConfigError(Exception):
    """Carries every violation found, not just the first."""

    def __init__(self, violations):
        self.violations = list(violations)
        super().__init__("; ".join(self.violations))


# ---------------------------------------------------------------- config

def _bit_width(tok):
    """One resolution token, 'inf' or an integer, held to the quantizer's width rule."""
    tok = tok.strip()
    return quantizer._check_bits(math.inf if tok == "inf" else int(tok))


def _cast_bits(text):
    """Comma list of resolutions, each listed once."""
    bits = tuple(_bit_width(t) for t in text.split(","))
    if len(set(bits)) != len(bits):
        raise ValueError("each width may appear only once")
    return bits


def _db(text):
    """A level in dB within +-ofdm.MAX_ABS_DB, so that 10^(x/10) stays finite."""
    v = float(text)
    if not abs(v) <= ofdm.MAX_ABS_DB:  # NaN fails this too
        raise ValueError(f"{v:g} dB is not within +-{ofdm.MAX_ABS_DB:g} dB")
    return v


def _cast_floats(text):
    return tuple(_db(t) for t in text.split(","))


def _order(tok):
    """One filter order: a whole number >= 0, as a float."""
    v = float(tok)
    if not (v >= 0 and v.is_integer()):  # NaN and inf fail this too
        raise ValueError(f"filter order {v:g} is not a whole number >= 0")
    return v


def _cast_orders(text):
    return tuple(_order(t) for t in text.split(","))


def _cast_range(text):
    """'lo:hi' inclusive sweep bounds in dB."""
    lo, _, hi = text.partition(":")
    if not _:
        raise ValueError("expected lo:hi")
    lo, hi = _db(lo), _db(hi)
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
_PRBS = (lambda v: 1 <= v <= ofdm.MAX_PRBS, f"must be in 1..{ofdm.MAX_PRBS}")
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
    n_tx = resolved[("tx", "n_symbols")] * txchain.SYMBOL_SAMPLES  # the _psd_job waveform
    if 4 * resolved[("tx", "nperseg")] > n_tx:  # the 4 Welch segments of txchain.estimate_psd
        violations.append(f"tx.nperseg must be at most {n_tx // 4}, a quarter of the tx.n_symbols waveform")
    if resolved[("tx", "nperseg")] < txchain.MIN_NPERSEG:
        violations.append(f"tx.nperseg must be at least {txchain.MIN_NPERSEG}, so that every "
                          f"{txchain.MEAS_BW_HZ / 1e6:g} MHz ACLR window holds 2 Welch bins")
    fixed = resolved[("cell", "fixed_ues")]
    oversized = network._oversized_drop(resolved[("cell", "area_m")], resolved[("cell", "radius_m")],
                                        resolved[("cell", "mean_ues")], None if fixed < 0 else fixed)
    if oversized:
        violations.append(oversized.format(fixed="cell.fixed_ues", mean="cell.mean_ues", area="cell.area_m",
                                           radius="cell.radius_m"))
    if violations:
        raise ConfigError(violations)
    return resolved


@dataclass
class _RunContext:
    cfg: dict
    out_dir: Path
    preset: str
    header: list  # provenance comment lines that open every CSV of the run
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
    lines = ctx.header + [f"# note: {n}" for n in notes]
    lines.append(",".join(columns))
    lines.extend(",".join(_fmt(v) for v in row) for row in rows)
    path = ctx.out_dir / name
    path.write_text("\n".join(lines) + "\n")
    return path


# An emitted script is this preamble, one preset's figure body (which
# makes `fig`), the epilogue and a savefig line.
_PLOT_PREAMBLE = '''import csv

import matplotlib.pyplot as plt


def value(text):
    try:
        return float(text)
    except ValueError:
        return text


def load(path):
    """Data rows of a CSV, as dicts keyed by column name."""
    with open(path) as f:
        rows = [r for r in csv.reader(f) if r and not r[0].lstrip().startswith("#")]
    return [dict(zip(rows[0], map(value, r))) for r in rows[1:]]


def curves(rows, key, x, *ys):
    """(key, xs, *ys) for each value of column key; keys and xs ascend."""
    groups = {}
    for r in rows:
        groups.setdefault(r[key], []).append([r[c] for c in (x, *ys)])
    return [(k, *zip(*sorted(pts, key=lambda p: p[0]))) for k, pts in sorted(groups.items())]


'''

_PLOT_EPILOGUE = '''
for ax in fig.axes:
    ax.grid(True, alpha=0.4, which="both")
    ax.legend(fontsize=8)
fig.tight_layout()
'''


def _write_plot(ctx, png, body):
    """Write <preset>_plot.py, which draws body's figure from the CSVs beside it into png."""
    script = _PLOT_PREAMBLE + body + _PLOT_EPILOGUE + f"fig.savefig({png!r}, dpi=150)\n"
    (ctx.out_dir / (ctx.preset.replace("-", "_") + "_plot.py")).write_text(script)


def _grid(bounds, points):
    lo, hi = bounds
    return np.linspace(lo, hi, points)


# ---------------------------------------------------------------- power

_POWER_ARCHS = (
    ("analog", "analog", 8),
    ("hybrid", "hybrid", 8),
    ("digital", "digital", 8),
    ("digital-4bit", "digital", 4),
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
    for label, kind, bits in _POWER_ARCHS:
        tx, rx = power.front_end_budget(kind, bits)
        for side, budget in (("tx", tx), ("rx", rx)):
            rows.append((f"{side}-{label}", "rffe", budget.rffe_mw))
            rows.append((f"{side}-{label}", "gain", budget.gain_stage_mw))
            rows.append((f"{side}-{label}", "converter", budget.converter_mw))
            rows.append((f"{side}-{label}", "total", budget.total_mw))
            want = _POWER_TOTALS[(side, label)]
            if abs(budget.total_mw - want) > 0.01 * want:
                ctx.fail(f"{side}-{label} total {budget.total_mw:.2f} mW off reference {want} by >1%")
    _write_csv(ctx, "power_table.csv", ("arch", "stage", "mw"), rows)
    _write_plot(ctx, "power_table.png", _POWER_PLOT)


_POWER_PLOT = '''mw = {(r["arch"], r["stage"]): r["mw"] for r in load("power_table.csv")}
archs = [arch for arch, stage in mw if stage == "total"]
fig, ax = plt.subplots(figsize=(8, 4))
bottom = [0.0] * len(archs)
for stage in ("rffe", "gain", "converter"):
    vals = [mw[(a, stage)] for a in archs]
    ax.bar(archs, vals, bottom=bottom, label=stage)
    bottom = [b + v for b, v in zip(bottom, vals)]
ax.set_ylabel("power (mW)")
fig.autofmt_xdate(rotation=30)
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
            s = sinr.sinr_quantized(10.0 ** (g_db / 10.0), 1.0, 0.0, a)
            sinr_rows.append((g_db, b, 10.0 * math.log10(s), sat))
    _write_csv(ctx, "aqnm_sinr.csv", ("gamma_db", "n_bits", "sinr_db", "saturation_db"), sinr_rows)
    _write_plot(ctx, "aqnm_curves.png", _AQNM_PLOT)

    if abs(quantizer.alpha_of(1) - (1.0 - 2.0 / math.pi)) > 1e-9:
        ctx.fail("1-bit alpha deviates from 1 - 2/pi")
    finite = [a for b, a in sorted(alpha_rows) if b != math.inf]
    if any(a2 >= a1 for a1, a2 in zip(finite, finite[1:])):
        ctx.fail("alpha not strictly decreasing in resolution")


_AQNM_PLOT = '''fig, ax = plt.subplots(figsize=(7, 5))
for n_bits, gammas, sinrs in curves(load("aqnm_sinr.csv"), "n_bits", "gamma_db", "sinr_db"):
    ax.plot(gammas, sinrs, label=f"{n_bits:g} bits")
ax.set_xlabel("pre-quantization SNR (dB)")
ax.set_ylabel("quantized SINR (dB)")
'''


# ---------------------------------------------------------------- link

def _run_link_validate(ctx):
    bits = ctx.cfg[("link", "adc_bits")]
    offset = ctx.cfg[("link", "dac_offset")]
    prbs = ctx.cfg[("link", "used_prbs")]
    num = ofdm.OfdmNumerology(used_prbs=prbs)
    n_sym = ctx.cfg[("link", "n_symbols")]
    snrs = _grid(ctx.cfg[("link", "snr_db")], ctx.cfg[("link", "snr_points")])
    args = []
    for n_adc in bits:
        n_dac = n_adc + offset
        for i, s in enumerate(snrs):
            args.append((float(s), n_adc, n_dac, num, n_sym, ctx.seed + i))
    results = parallel.pool_map(ofdm.run_link_trial, args, ctx.jobs)
    rows = [
        (s, n_adc, n_dac, prbs, meas, ofdm.predict_link_snr_db(s, n_adc, num))
        for (s, n_adc, n_dac, *_), meas in zip(args, results)
    ]
    _write_csv(ctx, "link_validate.csv",
               ("snr_db", "n_adc", "n_dac", "used_prbs", "post_eq_db", "predicted_db"), rows,
               notes=("trial seed = run.seed + SNR point index",))
    _write_plot(ctx, "link_validate.png", _LINK_PLOT)

    for s, n_adc, _d, _p, meas, pred in rows:
        if s <= 25.0 and abs(meas - pred) > 0.5:
            ctx.fail(f"|simulated-predicted| = {abs(meas - pred):.3f} dB at n={n_adc}, snr={s:g}")


_LINK_PLOT = '''rows = load("link_validate.csv")
fig, ax = plt.subplots(figsize=(7, 5))
for n_adc, snrs, meas, pred in curves(rows, "n_adc", "snr_db", "post_eq_db", "predicted_db"):
    line, = ax.plot(snrs, meas, "o", label=f"{n_adc:g}-bit simulated")
    ax.plot(snrs, pred, "-", color=line.get_color(), label=f"{n_adc:g}-bit predicted")
ax.set_xlabel("input SNR (dB)")
ax.set_ylabel("post-equalization SNR (dB)")
'''


# ---------------------------------------------------------------- sdma link

def _run_sdma_link(ctx):
    bits = ctx.cfg[("sdma", "adc_bits")]
    prbs = ctx.cfg[("sdma", "used_prbs")]
    num = ofdm.OfdmNumerology(used_prbs=prbs)
    n_sym = ctx.cfg[("sdma", "n_symbols")]
    sirs = [float(s) for s in _grid(ctx.cfg[("sdma", "sir_db")], ctx.cfg[("sdma", "sir_points")])]
    sirs.append(math.inf)  # interference-free reference point
    all_bits = tuple(bits) + ((math.inf,) if math.inf not in bits else ())

    for gamma0 in ctx.cfg[("sdma", "gamma0_db")]:
        # one job per SIR point; it measures every width on the same received signal
        g = float(gamma0)
        args = [(s, g, all_bits, num, n_sym, ctx.seed + i) for i, s in enumerate(sirs)]
        results = parallel.pool_map(ofdm.run_sdma_link_trial, args, ctx.jobs)
        rows = [
            (s, n_adc, math.inf, prbs, meas[j], ofdm.predict_sdma_sinr_db(s, g, n_adc, num))
            for j, n_adc in enumerate(all_bits) for s, meas in zip(sirs, results)
        ]
        name = f"sdma_link_g{gamma0:g}.csv"
        _write_csv(ctx, name,
                   ("sir_db", "n_adc", "n_dac", "used_prbs", "post_eq_db", "predicted_db"), rows,
                   notes=(f"gamma0_db = {gamma0:g} (post-beamforming SNR without interference)",
                          "transmit side runs unquantized; sir_db = inf disables the interferer"))
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
    files = [f"sdma_link_g{g:g}.csv" for g in ctx.cfg[("sdma", "gamma0_db")]]
    _write_plot(ctx, "sdma_link.png", f"files = {files!r}\n" + _SDMA_PLOT)


_SDMA_PLOT = '''fig, axes = plt.subplots(1, len(files), figsize=(6 * len(files), 5), squeeze=False)
for ax, path in zip(axes[0], files):
    rows = [r for r in load(path) if r["sir_db"] != float("inf")]
    for n_adc, sirs, meas, pred in curves(rows, "n_adc", "sir_db", "post_eq_db", "predicted_db"):
        line, = ax.plot(sirs, meas, "o-", label=f"{n_adc:g}-bit simulated")
        ax.plot(sirs, pred, "--", color=line.get_color(), label=f"{n_adc:g}-bit predicted")
    ax.set_xlabel("SIR (dB)")
    ax.set_ylabel("post-equalization SINR (dB)")
    ax.set_title(path)
'''


# ---------------------------------------------------------------- cells

_NETWORK_NOTES = (
    "per-stream quantization noise scaled by the receive eigen-gain (alpha/G)",
    "SDMA transmit power split equally across admitted beams",
    "UE count per drop is Poisson unless cell.fixed_ues >= 0",
)


def _check_dominance(ctx, drops_out, bits_list):
    order = sorted(bits_list)
    for res in drops_out:
        by_bits = {}
        for r in res.ue_results:
            by_bits.setdefault(r.n_bits, {})[r.ue_index] = r.rate_bps
        if not by_bits:  # a drop with no active users has nothing to compare
            continue
        for lo, hi in zip(order, order[1:]):
            for ue, rate in by_bits[lo].items():
                if rate > by_bits[hi][ue] + 1e-6:
                    ctx.fail(f"rate at {lo} bits exceeds {hi} bits for ue {ue}")
                    return


def _run_cell(ctx, scheduler, bits, stem):
    """Drops, per-UE CSV, CDFs, plot and rate-dominance check of a cell preset.

    Every width in bits, and the inf that NetworkConfig adds, is recorded on
    the same resolution-blind schedules.  The drops' UeResults are read once,
    into the per-UE rows; each width's SINR and rate CDFs come from its rows
    of scheduled interior users (finite SINR), in the same order for every
    width.  Returns the drops and {width: those users' SINRs in dB}, keyed in
    ncfg.adc_bits order, for the preset's own outputs and checks.
    """
    c = ctx.cfg
    fixed = c[("cell", "fixed_ues")]
    ncfg = network.NetworkConfig(
        area_m=c[("cell", "area_m")],
        cell_radius_m=c[("cell", "radius_m")],
        bw_hz=c[("cell", "bw_hz")],
        mean_ues_per_cell=c[("cell", "mean_ues")],
        adc_bits=bits,
        n_beams_max=c[("cell", "beams")],
        scheduler=scheduler,
        n_ttis=c[("cell", "ttis")],
        cluster_spread_cos=c[("cell", "cluster_spread")],
        mean_extra_clusters=c[("cell", "mean_extra_clusters")],
        fixed_ue_count=None if fixed < 0 else fixed,
    )
    drops_out = network.run_drops(ncfg, c[("cell", "drops")], ctx.seed, n_jobs=ctx.jobs)
    rows = [(di, r.ue_index, r.serving_bs, r.sinr_db, r.rate_bps, r.n_bits, scheduler, r.interior)
            for di, res in enumerate(drops_out) for r in res.ue_results]
    _write_csv(ctx, f"{stem}_ue.csv",
               ("drop", "ue", "serving_bs", "sinr_db", "rate_bps", "n_bits", "scheduler", "interior"),
               rows, notes=_NETWORK_NOTES)
    interior = {b: ([], []) for b in ncfg.adc_bits}  # width: (SINRs, rates) of its scheduled interior users
    for *_, sinr_db, rate, b, _, inside in rows:
        if inside and math.isfinite(sinr_db):
            interior[b][0].append(sinr_db)
            interior[b][1].append(rate)
    pct = np.arange(1, 100)
    for b, metrics in interior.items():
        if not metrics[0]:
            raise ValueError("no scheduled interior users; enlarge the area or UE density")
        for metric, vals in zip(("sinr", "rate"), metrics):
            _write_csv(ctx, f"{stem}_{metric}_cdf_n{_fmt(b)}.csv", ("percentile", "value"),
                       list(zip(pct, np.percentile(vals, pct))), notes=_NETWORK_NOTES)
    _write_plot(ctx, f"{stem}_cdf.png", f"stem = {stem!r}\nbits = {[_fmt(b) for b in interior]!r}\n" + _CELL_PLOT)
    _check_dominance(ctx, drops_out, ncfg.adc_bits)
    return drops_out, {b: np.array(sinrs) for b, (sinrs, _) in interior.items()}


def _run_cell_ofdma(ctx):
    drops_out, sinr_db = _run_cell(ctx, "OFDMA_PF", ctx.cfg[("cell", "adc_bits")], "cell_ofdma")
    if 3 in sinr_db:
        loss = sinr_db[math.inf] - sinr_db[3]
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
    if beams == 2:
        frac = (counts == 2).mean()
        if frac <= 0.9:
            ctx.fail(f"2-beam usage fraction {frac:.3f} not > 0.9")


_CELL_PLOT = '''fig, axes = plt.subplots(1, 2, figsize=(11, 4.5))
for ax, metric, xlabel in zip(axes, ("sinr", "rate"), ("SINR (dB)", "rate (bps)")):
    for b in bits:
        rows = load(f"{stem}_{metric}_cdf_n{b}.csv")
        ax.plot([r["value"] for r in rows], [r["percentile"] / 100.0 for r in rows], label=f"{b} bits")
    ax.set_xlabel(xlabel)
    ax.set_ylabel("CDF")
axes[1].set_xscale("log")
'''


# ---------------------------------------------------------------- tx

def _psd_job(bits, orders, prbs, n_sym, nperseg, seed):
    """[(Welch PSD, output power)] of one DAC width's chain output, one per filter order.

    The converter-rate block is built once; each order holds and filters it anew.
    """
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    _, block = txchain.transmit(bits, ofdm.OfdmNumerology(used_prbs=prbs), "QPSK", n_sym, rng)
    results = []
    for order in orders:
        out = txchain.apply_reconstruction_lpf(block, order)
        results.append((txchain.estimate_psd(out, nperseg), np.var(out.samples)))
    return results


def _psd_sweep(ctx, cases):
    """(bits, order, Welch PSD, block power) of the tx chain at each (bits, order) case, in case order."""
    tx = [ctx.cfg[("tx", k)] for k in ("used_prbs", "n_symbols", "nperseg")]
    orders = {}  # one pool job per width, over the orders its cases ask for
    for b, o in cases:
        orders.setdefault(b, []).append(o)
    results = parallel.pool_map(_psd_job, [(b, width_orders, *tx, ctx.seed)
                                           for b, width_orders in orders.items()], ctx.jobs)
    by_width = {b: iter(r) for b, r in zip(orders, results)}
    return [(b, o, *next(by_width[b])) for b, o in cases]


def _run_tx_psd(ctx):
    names = []
    for bits, order, (freqs, psd), block_var in _psd_sweep(ctx, ctx.cfg[("tx", "psd_cases")]):
        name = f"tx_psd_n{_fmt(bits)}_o{order}.csv"
        names.append(name)
        _write_csv(ctx, name, ("freq_offset_hz", "psd_db"), list(zip(freqs, psd)),
                   notes=("unit-power baseband; PSD is relative (dBc/Hz)",))
        total = np.trapezoid(10.0 ** (psd / 10.0), freqs)
        if abs(total - block_var) > 0.03 * block_var:
            ctx.fail(f"PSD integral off block power by >3% for n={bits:g}, order {order}")
    _write_plot(ctx, "tx_psd.png", f"files = {names!r}\n" + _PSD_PLOT)


_PSD_PLOT = '''fig, ax = plt.subplots(figsize=(8, 5))
for path in files:
    rows = load(path)
    ax.plot([r["freq_offset_hz"] / 1e6 for r in rows], [r["psd_db"] for r in rows], lw=0.8,
            label=path.replace("tx_psd_", "").replace(".csv", ""))
ax.set_xlabel("frequency offset (MHz)")
ax.set_ylabel("PSD (dBc/Hz)")
ax.set_xlim(-1200, 1200)
'''


def _run_aclr_sweep(ctx):
    bits = ctx.cfg[("tx", "bits")]
    orders = [int(o) for o in ctx.cfg[("tx", "lpf_orders")]]
    rows = []
    table = {}
    for b, o, psd, _var in _psd_sweep(ctx, [(b, o) for b in bits for o in orders]):
        for idx in (-2, -1, 1, 2):
            table[(b, o, idx)] = txchain.measure_aclr(psd, idx)
            rows.append((b, o, idx, table[(b, o, idx)], ACLR_LIMIT_BS_DB, ACLR_LIMIT_UE_DB))
    _write_csv(ctx, "aclr_sweep.csv",
               ("n_bits", "lpf_order", "adj_index", "aclr_db", "limit_bs_db", "limit_ue_db"), rows)
    _write_plot(ctx, "aclr_sweep.png", _ACLR_PLOT)

    for b in bits:
        if b != math.inf and b >= 3 and 0 in orders and table[(b, 0, 1)] < ACLR_LIMIT_UE_DB:
            ctx.fail(f"n={b:g}, order 0: ACLR1 {table[(b, 0, 1)]:.2f} dB below {ACLR_LIMIT_UE_DB}")
        if b != math.inf and b >= 4 and 1 in orders and table[(b, 1, 1)] < ACLR_LIMIT_BS_DB:
            ctx.fail(f"n={b:g}, order 1: ACLR1 {table[(b, 1, 1)]:.2f} dB below {ACLR_LIMIT_BS_DB}")
    if math.inf in bits and 0 in orders and table[(math.inf, 0, 2)] >= ACLR_LIMIT_BS_DB:
        ctx.fail(f"infinite resolution, order 0: ACLR2 unexpectedly meets "
                 f"the {ACLR_LIMIT_BS_DB:g} dB limit")


_ACLR_PLOT = '''rows = load("aclr_sweep.csv")
first = [r for r in rows if r["adj_index"] == 1 and r["n_bits"] != float("inf")]
fig, ax = plt.subplots(figsize=(7, 5))
for order, bits, aclrs in curves(first, "lpf_order", "n_bits", "aclr_db"):
    ax.plot(bits, aclrs, "o-", label=f"LPF order {order:g}")
for limit, ls, area in (("limit_bs_db", "--", "wide-area"), ("limit_ue_db", ":", "local-area")):
    ax.axhline(rows[0][limit], color="k", ls=ls, lw=0.8, label=f"{rows[0][limit]:g} dB ({area})")
ax.set_xlabel("DAC resolution (bits)")
ax.set_ylabel("ACLR, first adjacent channel (dB)")
'''


def _run_evm_sweep(ctx):
    bits = ctx.cfg[("tx", "evm_bits")]
    order = ctx.cfg[("tx", "evm_lpf_order")]
    n_sym = ctx.cfg[("tx", "n_symbols")]
    points = [float(x) for x in _grid(ctx.cfg[("tx", "inv_sigma_rf_db")], ctx.cfg[("tx", "rf_points")])]
    # one job per width; its last entry is the width's floor, without RF noise
    noise = [10.0 ** (-x / 10.0) for x in points] + [0.0]
    args = [(b, order, noise, n_sym, ctx.seed) for b in bits]
    results = parallel.pool_map(txchain.measure_evm, args, ctx.jobs)
    rows = [(b, x, evm) for b, evms in zip(bits, results) for x, evm in zip(points, evms)]
    _write_csv(ctx, "evm_sweep.csv", ("n_bits", "inv_sigma_rf_db", "evm_pct"), rows)

    floor_rows = []
    for b, (*_, measured) in zip(bits, results):
        sig_v2 = txchain.inband_quantization_noise(b, txchain.EVM_NUMEROLOGY.occupied_bw_hz)
        predicted = txchain.evm_prediction(quantizer.alpha_of(b), 0.0, sig_v2)
        floor_rows.append((b, measured, predicted))
        if b != math.inf and 3 <= b <= 6 and abs(measured - predicted) > 0.10 * predicted:
            ctx.fail(f"n={b:g}: EVM floor {measured:.3f}% off prediction {predicted:.3f}% by >10%")
    _write_csv(ctx, "evm_floor.csv", ("n_bits", "measured_pct", "predicted_pct"), floor_rows)
    limits = (EVM_LIMIT_64QAM_PCT, EVM_LIMIT_256QAM_PCT)
    _write_plot(ctx, "evm_sweep.png", f"limits = {limits!r}\n" + _EVM_PLOT)

    at = {(b, x): evm for b, x, evm in rows}
    ref = max(points)
    for b, threshold, should_pass in ((4, EVM_LIMIT_64QAM_PCT, True), (6, EVM_LIMIT_256QAM_PCT, True),
                                      (5, EVM_LIMIT_256QAM_PCT, False)):
        if b in bits:
            ok = at[(b, ref)] < threshold
            if ok != should_pass:
                verdict = "meets" if ok else "misses"
                ctx.fail(f"n={b}: EVM {at[(b, ref)]:.2f}% unexpectedly {verdict} the {threshold}% threshold")


_EVM_PLOT = '''floors = {r["n_bits"]: r["predicted_pct"] for r in load("evm_floor.csv")}
fig, ax = plt.subplots(figsize=(7, 5))
for n_bits, points, evms in curves(load("evm_sweep.csv"), "n_bits", "inv_sigma_rf_db", "evm_pct"):
    line, = ax.plot(points, evms, "o-", label=f"{n_bits:g} bits")
    ax.axhline(floors[n_bits], color=line.get_color(), ls="--", lw=0.8)
for limit in limits:
    ax.axhline(limit, color="k", ls=":", lw=0.8)
ax.set_xlabel("1/sigma_RF^2 (dB)")
ax.set_ylabel("EVM (%)")
ax.set_yscale("log")
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
    "tx-psd": (_run_tx_psd, None, None),  # its widths come from tx.psd_cases
    "aclr-sweep": (_run_aclr_sweep, ("tx", "bits"), None),
    "evm-sweep": (_run_evm_sweep, ("tx", "evm_bits"), None),
}
PRESETS = tuple(_PRESETS)


def run_preset(name, config_text="", overrides=(), timestamp=True, check=False):
    """Run one experiment preset; returns the process exit code.

    overrides are (section, key, text) triples applied after
    config_text.  The preset's claims are evaluated on every run; check
    only decides whether their failures are reported (exit 3).
    """
    if name not in _PRESETS:
        raise ConfigError([f"unknown preset {name!r}"])
    cfg = validate_config(config_text, overrides)
    out_dir = Path(cfg[("run", "out")])
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:  # the path, or a parent of it, is a file
        raise ConfigError([f"run.out {str(out_dir)!r} cannot be made a directory: {exc.strerror}"]) from exc
    header = [f"# preset = {name}"]
    if timestamp:
        header.append(f"# generated = {datetime.datetime.now().isoformat(timespec='seconds')}")
    # placement and parallelism do not shape the result
    header += [f"# cfg {sec}.{key} = {_fmt(val)}" for (sec, key), val in sorted(cfg.items())
               if not (sec == "run" and key in ("out", "jobs"))]
    ctx = _RunContext(cfg=cfg, out_dir=out_dir, preset=name, header=header)
    _PRESETS[name][0](ctx)
    if not check:
        return 0
    for f in ctx.failures:
        print(f"check failed: {f}", file=sys.stderr)
    if ctx.failures:
        return 3
    print(f"{name}: all checks passed")
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
    ap.add_argument("preset", choices=PRESETS, help="experiment preset: " + ", ".join(PRESETS))
    ap.add_argument("--config", help="INI config file (strict keys; empty means all defaults)")
    ap.add_argument("--seed", default=None, help="override run.seed")
    ap.add_argument("--jobs", default=None, help="override run.jobs, the worker pool size")
    ap.add_argument("--out", default=None, help="override run.out, the output directory")
    ap.add_argument("--no-timestamp", action="store_true", help="omit the timestamp header line")
    ap.add_argument("--check", action="store_true",
                    help="report the preset's claims, evaluated on every run; exit 3 if one fails")
    ap.add_argument("--bits", default=None, help="override the preset's resolution list, e.g. 2,3,4")
    ap.add_argument("--snr", default=None, help="override the preset's sweep range as lo:hi")
    ns = ap.parse_args(argv)
    name = ns.preset

    try:
        text = Path(ns.config).read_text(encoding="utf-8") if ns.config else ""
    except (OSError, UnicodeDecodeError) as exc:  # unreadable, or not UTF-8 text
        print(f"config error: --config: {exc}", file=sys.stderr)
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
        return run_preset(name, text, overrides, timestamp=not ns.no_timestamp, check=ns.check)
    except ConfigError as exc:
        for v in exc.violations:
            print(f"config error: {v}", file=sys.stderr)
        return 1
    except ValueError as exc:
        print(f"domain error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
