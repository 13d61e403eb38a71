"""The benchmark's tracer over every workload, at the workload's minimal config.

`perfbench/run.py --trace 1` wraps every public function of the traced
modules and reads their arguments and return values: `DropResult.ue_results`
and `beam_counts`, `NetworkDrop.pathloss_db`, the greedy scheduler's member
ids and config, the `.samples` of waveform blocks, and `quantize` handing
back its input at infinite resolution.  An untraced run never touches those
observers, so this runs the tracer in process and fails when one breaks, or
when a traced name no longer names a public function of its module.
The perfbench modules are read, and no bytecode is written beside them.
"""

import importlib.util
import inspect
import sys
from pathlib import Path

import pytest

from lowresbf import cli

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _load(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    dont_write = sys.dont_write_bytecode
    sys.dont_write_bytecode = True
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = dont_write
    return module


bench_spec = _load("bench_spec")
bench_trace = _load("bench_trace")


@pytest.mark.parametrize("name", sorted(bench_spec.WORKLOADS))
def test_traced_workload_runs_clean(name, tmp_path):
    workload = bench_spec.WORKLOADS[name]
    ini = tmp_path / "bench.ini"
    ini.write_text(workload.mini_config)
    argv = ["--config", str(ini), "--out", str(tmp_path / "out"), "--seed", str(bench_spec.PRESET_SEED),
            "--jobs", "1", "--no-timestamp"]
    tracer = bench_trace.Tracer()
    tracer.install()
    try:
        codes = [cli.main([preset, *argv]) for preset in workload.presets]
    finally:
        tracer.uninstall()
    assert codes == [0] * len(workload.presets)
    assert not tracer.errors
    assert tracer.spans


@pytest.mark.parametrize("name", sorted({*bench_spec.TIMED_FUNCTIONS, *bench_trace.OBSERVERS}))
def test_traced_name_is_public_function(name):
    # the tracer wraps the functions its modules list in __all__ (all public
    # names when there is none) and matches them by name, so a renamed or
    # privatized function would leave its metrics reading 0 without an error
    short, attr = name.split(".")
    assert short in bench_trace.TRACED_MODULES
    module = importlib.import_module(f"{bench_trace.PACKAGE}.{short}")
    public = getattr(module, "__all__", None) or [n for n in vars(module) if not n.startswith("_")]
    assert attr in public
    fn = getattr(module, attr)
    assert inspect.isfunction(fn) and fn.__module__ == module.__name__
