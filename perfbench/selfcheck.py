"""Self-check of the benchmark harness at minimal size (about a minute).

    python3 perfbench/selfcheck.py

Run from the repository root.  Checks that:

* BENCHMARK.json agrees with bench_spec.py and with the format limits;
* for every workload, run.py --mini prints every end-to-end metric
  (--trace 0) and every per-layer metric (--trace 1) with its unit,
  followed by a correct result line;
* traced passes give the same output digests as untraced ones (a
  mismatch would make the --trace 1 result incorrect), and the traced
  self times add up to the traced pass time;
* run.py exits nonzero, printing no result, in a directory holding
  only BENCHMARK.json and the benchmark's own files.

Exits 0 when every check passes, 1 otherwise.
"""

import json
import math
import re
import shutil
import subprocess
import sys
from pathlib import Path

import bench_spec

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
METRIC_LINE = re.compile(r"^(\S+) = \S+ (\S+)$")

failures = []


def check(ok, what):
    if not ok:
        failures.append(what)
        print(f"FAIL {what}")


def check_benchmark_json():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    check(set(bench) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"},
          "BENCHMARK.json top-level keys")
    check({w["name"]: w["why"] for w in bench["workloads"]}
          == {k: w.why for k, w in bench_spec.WORKLOADS.items()}, "workloads match bench_spec")
    check({m["name"]: (m["unit"], m["better"], m["bound"]) for m in bench["end_to_end"]}
          == bench_spec.END_TO_END, "end_to_end matches bench_spec")
    check({m["name"]: (m["unit"], m["better"]) for m in bench["per_layer"]}
          == {k: v[:2] for k, v in bench_spec.PER_LAYER.items()}, "per_layer matches bench_spec")
    check(bench_spec.END_TO_END.get("setup_s", (None,))[0] == "s", "setup_s is an end-to-end metric in s")
    for w in bench["workloads"]:
        check(len(w["why"]) <= 200 and "\n" not in w["why"], f"why of {w['name']} is one short line")
    metrics = bench["end_to_end"] + bench["per_layer"]
    for m in bench["workloads"] + metrics:
        check(NAME.match(m["name"]) is not None, f"name {m['name']!r}")
    for m in metrics:
        check(UNIT.match(m["unit"]) is not None and m["better"] in ("higher", "lower"),
              f"unit/better of {m['name']}")
    for m in bench["end_to_end"]:
        check(0 < m["bound"] <= 0.25, f"bound of {m['name']}")
    names = [m["name"] for m in bench["workloads"] + metrics]
    check(len(names) == len(set(names)), "names are unique")


def run_bench(cwd, *args):
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=180)


def check_workload(name, trace):
    tag = f"{name} --trace {trace}"
    r = run_bench(ROOT, "--workload", name, "--seed", "1", "--seconds", "1", "--trace", str(trace), "--mini")
    check(r.returncode == 0, f"{tag}: exit code {r.returncode}\n{r.stderr}")
    if r.returncode != 0:
        return
    lines = r.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    check(set(result) == {"correct", "attempted", "failed", "metrics"}, f"{tag}: result keys")
    check(result["correct"] and result["failed"] == 0 and result["attempted"] >= 1,
          f"{tag}: outputs correct ({result['failed']} of {result['attempted']} failed)")
    spec = bench_spec.PER_LAYER if trace else bench_spec.END_TO_END
    printed = dict(m.groups() for m in map(METRIC_LINE.match, lines[:-1]) if m)
    for metric, (unit, *_) in spec.items():
        check(printed.get(metric) == unit, f"{tag}: {metric} printed with unit {unit}")
        got = result["metrics"].get(metric, {})
        check(got.get("unit") == unit and math.isfinite(got.get("value", math.nan)),
              f"{tag}: {metric} in the result line")
    check(set(result["metrics"]) == set(spec), f"{tag}: no unlisted metrics")
    if trace:
        m = {k: v["value"] for k, v in result["metrics"].items()}
        parts = [v for k, v in m.items() if k.endswith(".self_s")]
        check(math.isclose(sum(parts), m["trace.run_s"], rel_tol=1e-9),
              f"{tag}: self times sum to trace.run_s")


def check_without_program():
    bare = ROOT / ".perfbench_out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    r = run_bench(bare, "--workload", "cell_ofdma", "--seed", "1", "--seconds", "1", "--trace", "0")
    check(r.returncode != 0 and not r.stdout.strip(), "fails without printing a result when src/ is absent")
    shutil.rmtree(bare)


def main():
    check_benchmark_json()
    for name in bench_spec.WORKLOADS:
        for trace in (0, 1):
            check_workload(name, trace)
    check_without_program()
    print("self-check: " + ("all checks passed" if not failures else f"{len(failures)} failed"))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
