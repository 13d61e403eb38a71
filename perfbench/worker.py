"""One workload process, started by run.py.

Sets up (imports lowresbf, solves the quantizer constants the workload
uses), prints READY, then runs passes of the workload's presets until
the time budget is spent and prints RESULT <json> as its last line.
With --probe it exits right after READY; run.py times that as set-up.
With --trace 1, passes alternate untraced and traced, starting untraced.
"""

import argparse
import contextlib
import hashlib
import json
import os
import random
import resource
import shutil
import statistics
import sys
import time
import traceback
from pathlib import Path

import bench_spec
from bench_trace import ROOT, Tracer


def _sha(text):
    return hashlib.sha256(text.encode()).hexdigest()


def digest_units(out_dir):
    """Output digests {unit: [preset, sha256]} and the CSV byte total.

    A unit is one drop of a *_ue.csv file, or one whole CSV otherwise;
    the '# preset = ' header line names the preset that wrote it.
    """
    units, n_bytes = {}, 0
    for path in sorted(out_dir.glob("*.csv")):
        text = path.read_text()
        n_bytes += len(text.encode())
        preset = text.split("\n", 1)[0].removeprefix("# preset = ")
        if not path.name.endswith("_ue.csv"):
            units[path.name] = [preset, _sha(text)]
            continue
        lines = [ln for ln in text.splitlines() if ln and not ln.startswith("#")]
        drops = {}
        for row in lines[1:]:
            drops.setdefault(row.split(",", 1)[0], []).append(row)
        for drop, rows in drops.items():
            units[f"{path.name}#drop{drop}"] = [preset, _sha("\n".join([lines[0], *rows]))]
    return units, n_bytes


def run_pass(cli, presets, cfg_path, out_dir):
    """Run each preset through the CLI entry point; returns (seconds, exit codes)."""
    codes = {}
    t0 = time.perf_counter()
    for preset in presets:
        argv = [preset, "--config", str(cfg_path), "--out", str(out_dir),
                "--seed", str(bench_spec.PRESET_SEED), "--jobs", "1", "--no-timestamp"]
        try:
            codes[preset] = cli.main(argv)
        except (Exception, SystemExit):
            traceback.print_exc()
            codes[preset] = "raised"
    return time.perf_counter() - t0, codes


def _blas_threads():
    """Thread count reported by the OpenBLAS library numpy loaded, if found."""
    import ctypes

    with open("/proc/self/maps") as f:
        libs = sorted({ln.split()[-1] for ln in f if "openblas" in ln.lower() and ".so" in ln})
    for path in libs:
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.argtypes = []
                fn.restype = ctypes.c_int
                return fn()
    return None


def machine():
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_version = f"{blas['name']} {blas['version']}"
    except (KeyError, TypeError):
        blas_version = None
    cpu = None
    with open("/proc/cpuinfo") as f:
        for ln in f:
            if ln.startswith("model name"):
                cpu = ln.split(":", 1)[1].strip()
                break
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas_version,
        "blas_threads": _blas_threads(),
        "blas_threads_env": os.environ.get("OPENBLAS_NUM_THREADS"),
    }


def _quantile(sorted_vals, q):
    if not sorted_vals:
        return 0.0
    return sorted_vals[round(q * (len(sorted_vals) - 1))]


def _ratio(counts, num, den):
    return counts.get(num, 0) / counts[den] if counts.get(den) else 0.0


def layer_metrics(tracer, passes, setup):
    """Per-layer metrics for the traced passes, keyed as bench_spec.PER_LAYER."""
    traced = [p for p in passes if p["traced"]]
    untraced = [p["seconds"] for p in passes if not p["traced"]]
    s = tracer.summarize(len(traced))
    self_s, calls, counts, errors = s["self_s"], s["calls"], s["counts"], s["errors"]
    listed = set(bench_spec.TIMED_FUNCTIONS)
    m = {}
    for key in bench_spec.PER_LAYER:
        fn, _, stat = key.rpartition(".")
        if stat == "self_s" and fn in listed:
            m[key] = self_s.get(fn, 0.0)
        elif stat == "errors" and fn in listed:
            m[key] = errors.get(fn, 0)
        elif stat == "calls":
            m[key] = calls.get(fn, 0)
    sdma = sorted(s["durations"].get("network.schedule_sdma_greedy", []))
    dac_calls = calls.get("txchain.dac_convert", 0)
    run_s = sum(self_s.values())
    m.update({
        "setup.import_s": setup["import_s"],
        "setup.quantizer_solve_s": setup["quantizer_solve_s"],
        "trace.run_s": run_s,
        "trace.overhead_s": run_s - statistics.fmean(untraced),
        "trace.root.self_s": self_s.get(ROOT, 0.0),
        "trace.other.self_s": sum(v for k, v in self_s.items() if k not in listed and k != ROOT),
        "trace.other.errors": sum(v for k, v in errors.items() if k not in listed),
        "network.schedule_sdma_greedy.call_us_p50": _quantile(sdma, 0.50) * 1e6,
        "network.schedule_sdma_greedy.call_us_p99": _quantile(sdma, 0.99) * 1e6,
        "network.sdma_candidate_evals": counts.get("network.sdma_candidate_evals", 0),
        "network.active_ues": counts.get("network.active_ues", 0),
        "network.link_nonoutage_frac": _ratio(counts, "links_nonoutage", "links"),
        "network.beams_per_group_mean": _ratio(counts, "beam_sum", "beam_groups"),
        "quantizer.quantize.samples": counts.get("quantizer.quantize.samples", 0),
        "ofdm.ofdm_modulate.samples": counts.get("ofdm.ofdm_modulate.samples", 0),
        "txchain.dac_convert.samples_out": counts.get("txchain.dac_convert.samples_out", 0),
        "txchain.dac_convert.computed_bytes_per_call":
            16 * counts.get("txchain.dac_convert.samples_out", 0) / dac_calls if dac_calls else 0.0,
        "cli.csv_bytes": statistics.fmean(p["csv_bytes"] for p in traced),
    })
    return m


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True, choices=sorted(bench_spec.WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=0.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--mini", action="store_true", help="minimal-size configs for the self-check")
    ap.add_argument("--probe", action="store_true", help="exit right after set-up")
    ap.add_argument("--out", type=Path, required=True, help="scratch directory for preset outputs")
    ns = ap.parse_args()
    wl = bench_spec.WORKLOADS[ns.workload]

    t0 = time.perf_counter()
    from lowresbf import cli, quantizer
    t1 = time.perf_counter()
    for bits in wl.widths:
        quantizer.alpha_of(bits)
    t2 = time.perf_counter()
    print("READY", flush=True)
    if ns.probe:
        return 0

    setup = {"import_s": t1 - t0, "quantizer_solve_s": t2 - t1}
    ns.out.mkdir(parents=True, exist_ok=True)
    cfg_path = ns.out / "bench.ini"
    cfg_path.write_text(wl.mini_config if ns.mini else wl.config)
    order = list(wl.presets)
    random.Random(ns.seed).shuffle(order)

    tracer = Tracer() if ns.trace else None
    min_passes = 2 if ns.trace else 1
    passes = []
    start = time.perf_counter()
    while True:
        i = len(passes)
        traced = bool(ns.trace) and i % 2 == 1
        out_dir = ns.out / f"pass{i}"
        if traced:
            tracer.install()
        try:
            with tracer.root(i) if traced else contextlib.nullcontext():
                seconds, codes = run_pass(cli, order, cfg_path, out_dir)
        finally:
            if traced:
                tracer.uninstall()
        units, csv_bytes = digest_units(out_dir)
        shutil.rmtree(out_dir, ignore_errors=True)
        passes.append({"seconds": seconds, "traced": traced, "codes": codes,
                       "units": units, "csv_bytes": csv_bytes})
        if len(passes) >= min_passes:
            typical = statistics.median(p["seconds"] for p in passes)
            if time.perf_counter() - start + typical > ns.seconds:
                break

    result = {
        "passes": passes,
        "order": order,
        "setup": setup,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "machine": machine(),
        "layers": None,
    }
    if tracer is not None:
        result["layers"] = layer_metrics(tracer, passes, setup)
        tracer.write(ns.out / "spans.csv")
    print("RESULT " + json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
