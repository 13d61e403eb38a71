"""lowresbf benchmark: run one workload and print its metrics.

    python3 perfbench/run.py --workload cell_ofdma --seed 1 --seconds 38 --trace 0

Run from the repository root.  Every workload runs in fresh,
single-threaded Python processes (OpenBLAS/OpenMP threads = 1, --jobs 1)
with src/ on the path, one at a time:

* with --trace 0, set-up probes: fresh interpreters timed from start
  to the end of set-up; setup_s is the median over them and the
  workload process;
* one workload process that repeats the workload's presets for
  --seconds; run_s is the median pass time.

With --trace 1 the workload process alternates untraced and traced
passes and the per-layer metrics come from the traced ones.  Every
preset output is digested and compared with reference.json (recorded
with --record-reference); a pass output that differs, or a preset that
fails, counts as failed.

The last stdout line is one JSON object with the keys correct,
attempted, failed and metrics; the lines before it name the machine and
every metric with its unit.  The full result, with the per-pass data,
goes to .perfbench_out/ in the repository root, next to the spans of a
traced run.
"""

import argparse
import hashlib
import json
import os
import select
import statistics
import subprocess
import sys
import time
from pathlib import Path

import bench_spec

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
REFERENCE = HERE / "reference.json"
TIME_LIMIT_S = 170.0  # whole run, set-up probes included
PROBES = 2


class BenchError(Exception):
    pass


def _env():
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def start_worker(args, deadline):
    """Start worker.py and wait for READY; returns (process, set-up seconds)."""
    cmd = [sys.executable, str(HERE / "worker.py"), *args]
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=_env(), stdout=subprocess.PIPE, text=True)
    try:
        ready, _, _ = select.select([proc.stdout], [], [], max(0.0, deadline - time.monotonic()))
        line = proc.stdout.readline() if ready else ""
        setup_s = time.perf_counter() - t0
        if line.strip() != "READY":
            raise BenchError(f"worker did not finish set-up: {' '.join(args)}")
    except BaseException:
        stop(proc)
        raise
    return proc, setup_s


def stop(proc):
    if proc.poll() is None:
        proc.kill()
    proc.wait()


def finish_worker(proc, deadline):
    """Wait for the worker's RESULT line; the worker is ended either way."""
    try:
        out, _ = proc.communicate(timeout=max(0.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        raise BenchError("worker ran past the time limit") from None
    finally:
        stop(proc)
    lines = out.strip().splitlines()
    if proc.returncode != 0 or not lines or not lines[-1].startswith("RESULT "):
        raise BenchError(f"worker failed with exit code {proc.returncode}")
    return json.loads(lines[-1].removeprefix("RESULT "))


def finish_worker_probe(proc, deadline):
    try:
        proc.wait(timeout=max(0.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        raise BenchError("set-up probe did not exit") from None
    finally:
        stop(proc)
    if proc.returncode != 0:
        raise BenchError(f"set-up probe failed with exit code {proc.returncode}")


def check_outputs(passes, reference):
    """(attempted, failed) over every reference unit of every pass."""
    attempted = failed = 0
    for p in passes:
        for unit, (preset, sha) in reference.items():
            attempted += 1
            got = p["units"].get(unit)
            if p["codes"].get(preset) != 0 or got is None or got[1] != sha:
                failed += 1
        extra = set(p["units"]) - set(reference)
        attempted += len(extra)
        failed += len(extra)
    return attempted, failed


def _source_id():
    files = sorted((ROOT / "src").rglob("*.py"))
    h = hashlib.sha256()
    for f in files:
        h.update(f.relative_to(ROOT).as_posix().encode() + b"\0" + f.read_bytes())
    commit = None
    if (ROOT / ".git").exists():
        r = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
        commit = r.stdout.strip() or None
    return commit, h.hexdigest()


def run_workload(name, seed, seconds, trace, mini=False):
    """Run one workload; returns (summary, full result)."""
    deadline = time.monotonic() + TIME_LIMIT_S
    wl = bench_spec.WORKLOADS[name]
    out = ROOT / ".perfbench_out" / f"{name}-s{seed}-t{trace}{'-mini' if mini else ''}"
    common = ["--workload", name, "--out", str(out)] + (["--mini"] if mini else [])

    setups = []
    for _ in range(0 if trace else 1 if mini else PROBES):
        proc, setup_s = start_worker([*common, "--probe"], deadline)
        finish_worker_probe(proc, deadline)
        setups.append(setup_s)
    proc, setup_s = start_worker(
        [*common, "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)], deadline)
    setups.append(setup_s)
    result = finish_worker(proc, deadline)

    passes = result["passes"]
    if mini:
        # no recorded reference at this size: every pass must match the first
        if any(code != 0 for code in passes[0]["codes"].values()):
            raise BenchError(f"{name}: a preset failed in the first pass: {passes[0]['codes']}")
        reference = passes[0]["units"]
    else:
        ref = json.loads(REFERENCE.read_text())[name]
        if ref["config"] != wl.config:
            raise BenchError(f"reference.json was recorded for another {name} config")
        reference = ref["units"]
    attempted, failed = check_outputs(passes, reference)

    if trace:
        metrics = result["layers"]
        units = {k: v[0] for k, v in bench_spec.PER_LAYER.items()}
    else:
        metrics = {
            "run_s": statistics.median(p["seconds"] for p in passes),
            "setup_s": statistics.median(setups),
            "peak_rss_mb": result["peak_rss_mb"],
        }
        units = {k: v[0] for k, v in bench_spec.END_TO_END.items()}
    if set(metrics) != set(units):
        raise BenchError(f"metric set mismatch: {sorted(set(metrics) ^ set(units))}")

    commit, src_sha = _source_id()
    result.update({
        "workload": name, "seed": seed, "seconds": seconds, "trace": trace,
        "preset_seed": bench_spec.PRESET_SEED, "setup_samples_s": setups,
        "attempted": attempted, "failed": failed, "metrics": metrics,
    })
    result["machine"].update(seed=seed, git_commit=commit, src_sha256=src_sha)
    out.mkdir(parents=True, exist_ok=True)
    (out / "result.json").write_text(json.dumps(result, indent=1))
    summary = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    return summary, result


def record_reference():
    """Write reference.json: output digests of one pass of every workload."""
    ref = {}
    for name, wl in bench_spec.WORKLOADS.items():
        deadline = time.monotonic() + TIME_LIMIT_S
        out = ROOT / ".perfbench_out" / f"{name}-reference"
        proc, _ = start_worker(["--workload", name, "--out", str(out), "--seconds", "0"], deadline)
        passes = finish_worker(proc, deadline)["passes"]
        bad = {k: v for k, v in passes[0]["codes"].items() if v != 0}
        if bad:
            raise BenchError(f"{name}: presets failed while recording: {bad}")
        ref[name] = {"config": wl.config, "units": passes[0]["units"]}
        print(f"{name}: {len(ref[name]['units'])} units", file=sys.stderr)
    REFERENCE.write_text(json.dumps(ref, indent=1, sort_keys=True) + "\n")


def main():
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", choices=sorted(bench_spec.WORKLOADS))
    ap.add_argument("--seed", type=int, default=0, help="orders the presets inside a pass")
    ap.add_argument("--seconds", type=float, default=38.0, help="time budget for the passes")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0,
                    help="1: print per-layer metrics from a traced run instead")
    ap.add_argument("--mini", action="store_true",
                    help="minimal-size configs, checked against the run's first pass (self-check)")
    ap.add_argument("--record-reference", action="store_true",
                    help="record reference.json from the current source and exit")
    ns = ap.parse_args()

    if not (ROOT / "src" / "lowresbf" / "__init__.py").is_file():
        print(f"error: no lowresbf source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    try:
        if ns.record_reference:
            record_reference()
            return 0
        if ns.workload is None:
            ap.error("--workload is required")
        summary, result = run_workload(ns.workload, ns.seed, ns.seconds, ns.trace, ns.mini)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    print("machine " + json.dumps(result["machine"], sort_keys=True))
    print(f"output units: {summary['failed']} of {summary['attempted']} failed")
    print(f"error_frac = {summary['failed'] / summary['attempted']:.6g} ratio")
    for k, m in summary["metrics"].items():
        print(f"{k} = {m['value']:.6g} {m['unit']}")
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
