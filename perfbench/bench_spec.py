"""Workload and metric tables shared by the harness, the worker and the self-check.

A workload is a list of CLI presets run back to back in one fresh,
single-threaded process, plus an INI config that sets only run-length
keys (drop count or sweep size).  One execution of that list is a
"pass"; run_s is the median pass time.

Every preset runs at run.seed = PRESET_SEED.  The program's inputs are
therefore the same on every benchmark run, which keeps run_s comparable
between runs and lets reference.json hold the expected output digests.
The benchmark's --seed orders the presets inside a pass.
"""

from dataclasses import dataclass

PRESET_SEED = 0


@dataclass(frozen=True)
class Workload:
    presets: tuple       # CLI preset names, run in one process
    config: str          # INI text; only run-length keys
    mini_config: str     # minimal-size variant for the self-check
    widths: tuple        # quantizer widths the presets use, solved during setup
    why: str


_CELL_MINI = "[cell]\ndrops = 1\nttis = 4\narea_m = 600\n"
_WAVEFORM_MINI = """[link]
adc_bits = 3
snr_points = 1
n_symbols = 3
used_prbs = 20
[sdma]
adc_bits = 3
sir_points = 1
n_symbols = 3
used_prbs = 20
[tx]
bits = 4
lpf_orders = 1
evm_bits = 4
rf_points = 1
n_symbols = 3
"""

WORKLOADS = {
    "cell_ofdma": Workload(
        presets=("cell-ofdma",),
        config="[cell]\ndrops = 1\n",
        mini_config=_CELL_MINI,
        widths=(3, 4),
        why="cell-ofdma at defaults (bits 3,4,inf; 200 TTIs), cell.drops=1: "
            "cross-cell table build, layout and rate mapping; little scheduler cost",
    ),
    "cell_sdma": Workload(
        presets=("cell-sdma",),
        config="[cell]\ndrops = 1\n",
        mini_config=_CELL_MINI,
        widths=(4,),
        why="cell-sdma at defaults (4 beams, 4 bits, 200 TTIs), cell.drops=1: "
            "same tables, but the greedy SDMA scheduler dominates",
    ),
    "waveform": Workload(
        presets=("link-validate", "sdma-link", "aclr-sweep", "evm-sweep"),
        config="[link]\nsnr_points = 4\n[sdma]\nsir_points = 3\n[tx]\nrf_points = 1\n",
        mini_config=_WAVEFORM_MINI,
        # link ADC 2-5 with DAC 2 bits finer, sdma 3-4, tx 3-5, evm 3-6
        widths=(2, 3, 4, 5, 6, 7),
        why="link-validate, sdma-link, aclr-sweep, evm-sweep; snr_points=4, sir_points=3, "
            "rf_points=1: OFDM link trials and DAC chain + Welch PSD; bypasses network",
    ),
}

# end-to-end metrics: name -> (unit, better, bound)
END_TO_END = {
    "run_s": ("s", "lower", 0.25),
    "setup_s": ("s", "lower", 0.25),
    "peak_rss_mb": ("MB", "lower", 0.05),
}

# per-layer metrics: name -> (unit, better, end-to-end metric it feeds and where)
_SELF = ("s", "lower")
PER_LAYER = {
    "setup.import_s": (*_SELF, "setup_s, all workloads"),
    "setup.quantizer_solve_s": (*_SELF, "setup_s, all workloads"),
    "trace.run_s": (*_SELF, "traced pass time; the self times below sum to it"),
    "trace.overhead_s": (*_SELF, "traced minus untraced pass time"),
    "trace.root.self_s": (*_SELF, "pass time outside every wrapped function"),
    "trace.other.self_s": (*_SELF, "self time of wrapped functions not listed here"),
    "trace.other.errors": ("count", "lower", "error count of wrapped functions not listed here"),
    "network.run_drop_detailed.self_s": (*_SELF, "run_s on cell_ofdma most, then cell_sdma"),
    "network.generate_layout.self_s": (*_SELF, "run_s on cell workloads"),
    "network.generate_layout.calls": ("count", "lower", "run_s on cell workloads"),
    "network.covariance_from_clusters.self_s": (*_SELF, "run_s on cell workloads (layout covariances)"),
    "network.schedule_ofdma_pf.self_s": (*_SELF, "run_s on cell_ofdma"),
    "network.schedule_ofdma_pf.calls": ("count", "lower", "run_s on cell_ofdma"),
    "network.schedule_sdma_greedy.self_s": (*_SELF, "run_s on cell_sdma"),
    "network.schedule_sdma_greedy.calls": ("count", "lower", "run_s on cell_sdma"),
    "network.schedule_sdma_greedy.call_us_p50": ("us", "lower", "run_s on cell_sdma"),
    "network.schedule_sdma_greedy.call_us_p99": ("us", "lower", "run_s on cell_sdma"),
    "network.sdma_candidate_evals": ("count", "lower", "run_s on cell_sdma (computed sum_rate evaluations)"),
    "network.rate_from_sinr.self_s": (*_SELF, "run_s on cell workloads"),
    "network.rate_from_sinr.calls": ("count", "lower", "run_s on cell workloads"),
    "network.active_ues": ("count", "higher", "run_s on cell workloads (input size)"),
    "network.link_nonoutage_frac":
        ("ratio", "higher", "run_s on cell workloads (useful share of table work)"),
    "network.beams_per_group_mean": ("count", "higher", "run_s on cell_sdma (group size)"),
    "quantizer.quantize.self_s": (*_SELF, "run_s on waveform"),
    "quantizer.quantize.calls": ("count", "lower", "run_s on waveform"),
    "quantizer.quantize.samples": ("count", "lower", "run_s on waveform"),
    "ofdm.ofdm_modulate.self_s": (*_SELF, "run_s on waveform"),
    "ofdm.ofdm_modulate.samples": ("count", "lower", "run_s on waveform"),
    "ofdm.ofdm_demodulate.self_s": (*_SELF, "run_s on waveform"),
    "ofdm.run_link_trial.self_s": (*_SELF, "run_s on waveform"),
    "ofdm.run_sdma_link_trial.self_s": (*_SELF, "run_s on waveform"),
    "txchain.dac_convert.self_s": (*_SELF, "run_s and peak_rss_mb on waveform"),
    "txchain.dac_convert.samples_out": ("count", "lower", "run_s and peak_rss_mb on waveform"),
    "txchain.dac_convert.computed_bytes_per_call":
        ("B", "lower", "peak_rss_mb on waveform (samples x 16 B, computed)"),
    "txchain.apply_reconstruction_lpf.self_s": (*_SELF, "run_s and peak_rss_mb on waveform"),
    "txchain.estimate_psd.self_s": (*_SELF, "run_s and peak_rss_mb on waveform"),
    "txchain.measure_evm.self_s": (*_SELF, "run_s and peak_rss_mb on waveform"),
    "txchain.measure_evm.calls": ("count", "lower", "run_s on waveform"),
    "cli.run_preset.self_s": (*_SELF, "run_s on all workloads (CSV formatting and writing, CDFs)"),
    "cli.csv_bytes": ("B", "lower", "run_s on all workloads"),
}

# functions whose self time, and error count, are reported by name
TIMED_FUNCTIONS = (
    "network.run_drop_detailed",
    "network.generate_layout",
    "network.covariance_from_clusters",
    "network.schedule_ofdma_pf",
    "network.schedule_sdma_greedy",
    "network.rate_from_sinr",
    "quantizer.quantize",
    "ofdm.ofdm_modulate",
    "ofdm.ofdm_demodulate",
    "ofdm.run_link_trial",
    "ofdm.run_sdma_link_trial",
    "txchain.dac_convert",
    "txchain.apply_reconstruction_lpf",
    "txchain.estimate_psd",
    "txchain.measure_evm",
    "cli.run_preset",
)
for _fn in TIMED_FUNCTIONS:
    PER_LAYER[f"{_fn}.errors"] = ("count", "lower", "error_frac")
